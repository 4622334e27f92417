//! Stateless deterministic pseudo-random draws.
//!
//! The simulated LLM must make "random-looking" decisions (does this
//! call hallucinate? which wrong value does it pick?) that are
//! reproducible across runs and *independent of call order* — two
//! pipelines asking about the same query must face the same noise. The
//! functions here derive draws from `(seed, key)` pairs via SplitMix64
//! finalization, so there is no RNG state to thread through the system.

/// SplitMix64 finalizer: a high-quality 64-bit mix.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combines a seed with a string key into a single draw.
pub fn draw(seed: u64, key: &str) -> u64 {
    let mut h = seed ^ 0x517c_c1b7_2722_0a95;
    for &b in key.as_bytes() {
        h = mix(h ^ u64::from(b));
    }
    mix(h)
}

/// A uniform `f64` in `[0, 1)` from a draw.
#[inline]
pub fn unit(raw: u64) -> f64 {
    // Use the top 53 bits for a dense mantissa.
    (raw >> 11) as f64 / (1u64 << 53) as f64
}

/// Bernoulli trial keyed by `(seed, key)`.
pub fn bernoulli(seed: u64, key: &str, p: f64) -> bool {
    unit(draw(seed, key)) < p
}

/// Picks an index in `0..n` keyed by `(seed, key)`; `None` when `n == 0`.
pub fn pick(seed: u64, key: &str, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some((draw(seed, key) % n as u64) as usize)
}

/// A gaussian-ish perturbation in `[-scale, scale]` (sum of two uniforms,
/// triangular distribution — cheap and bounded).
pub fn jitter(seed: u64, key: &str, scale: f64) -> f64 {
    let a = unit(draw(seed, key));
    let b = unit(draw(seed.wrapping_add(1), key));
    (a + b - 1.0) * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic() {
        assert_eq!(draw(42, "query-1"), draw(42, "query-1"));
    }

    #[test]
    fn different_keys_give_different_draws() {
        assert_ne!(draw(42, "a"), draw(42, "b"));
        assert_ne!(draw(42, "a"), draw(43, "a"));
    }

    #[test]
    fn unit_is_in_range_and_roughly_uniform() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let u = unit(draw(7, &format!("k{i}")));
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let trials = 20_000;
        let hits = (0..trials)
            .filter(|i| bernoulli(3, &format!("t{i}"), 0.3))
            .count();
        let rate = hits as f64 / f64::from(trials);
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        assert!(!bernoulli(1, "x", 0.0));
        assert!(bernoulli(1, "x", 1.0));
    }

    #[test]
    fn pick_covers_the_range() {
        assert_eq!(pick(1, "k", 0), None);
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            let idx = pick(9, &format!("k{i}"), 5).unwrap();
            assert!(idx < 5);
            seen.insert(idx);
        }
        assert_eq!(seen.len(), 5, "all buckets reachable");
    }

    #[test]
    fn jitter_is_bounded_and_centered() {
        let mut sum = 0.0;
        for i in 0..5_000 {
            let j = jitter(11, &format!("j{i}"), 0.2);
            assert!(j.abs() <= 0.2);
            sum += j;
        }
        assert!((sum / 5_000.0).abs() < 0.01);
    }
}
