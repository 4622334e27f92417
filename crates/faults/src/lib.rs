//! Deterministic fault injection for chaos-testing the MultiRAG
//! pipeline.
//!
//! The crate is the single source of truth for *what goes wrong* in a
//! chaos run: which sources are down, which records arrive corrupted,
//! and which simulated LLM calls fail or stall. Every decision
//! is a pure function of `(seed, key)` — no global state, no wall
//! clock — so a fixed seed replays the exact same failure schedule,
//! which is what lets the chaos harness assert bit-identical output
//! across runs.
//!
//! Layering: this crate depends on nothing inside the workspace;
//! `multirag-llmsim`, `multirag-core`, and the harness crates depend on
//! it and consult the [`FaultPlan`] at their own injection points.

mod corrupt;
mod plan;
mod retry;

pub use corrupt::{bit_flip, corrupt_text, truncate, CorruptionKind};
pub use plan::{FaultDecision, FaultKind, FaultPlan};
pub use retry::{ms_to_us, us_to_ms, RetryOutcome, RetryPolicy};

/// SplitMix64 finalizer — the primitive every seeded draw builds on.
/// Mirrors `multirag_llmsim::determinism::mix` (duplicated here so the
/// fault layer stays dependency-free and usable below llmsim).
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic 64-bit draw keyed by `(seed, key)`.
pub fn draw(seed: u64, key: &str) -> u64 {
    let mut h = mix(seed ^ 0x6661_756C_7473_2121); // "faults!!"
    for b in key.bytes() {
        h = mix(h ^ b as u64);
    }
    h
}

/// Deterministic uniform draw in `[0, 1)` keyed by `(seed, key)`.
pub fn unit(seed: u64, key: &str) -> f64 {
    (draw(seed, key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic Bernoulli trial keyed by `(seed, key)`.
pub fn bernoulli(seed: u64, key: &str, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    unit(seed, key) < p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        assert_eq!(draw(7, "outage:src-3"), draw(7, "outage:src-3"));
        assert_ne!(draw(7, "outage:src-3"), draw(8, "outage:src-3"));
        assert_ne!(draw(7, "outage:src-3"), draw(7, "outage:src-4"));
    }

    #[test]
    fn unit_in_range() {
        for i in 0..1000 {
            let u = unit(42, &format!("k{i}"));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn bernoulli_edges_and_rate() {
        assert!(!bernoulli(1, "k", 0.0));
        assert!(bernoulli(1, "k", 1.0));
        let hits = (0..10_000)
            .filter(|i| bernoulli(9, &format!("b{i}"), 0.2))
            .count();
        assert!((1_500..2_500).contains(&hits), "hits={hits}");
    }
}
