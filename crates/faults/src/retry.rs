//! Retry policy with seeded exponential backoff and deadline budgets.
//!
//! Delays are *specified* in simulated milliseconds (the MockLlm cost
//! model's unit) but *accounted* in integer simulated microseconds —
//! the serve simulator's convention — so deadline checks never drift
//! from float summation. Callers accumulate the returned totals into
//! their simulated-latency meters instead of sleeping, which keeps
//! chaos runs fast and bit-identical.

use crate::unit;

/// Quantizes a simulated-millisecond cost to integer microseconds, the
/// unit every deadline and latency ledger accumulates in.
pub fn ms_to_us(ms: f64) -> u64 {
    if !ms.is_finite() || ms <= 0.0 {
        return 0;
    }
    (ms * 1_000.0).round() as u64
}

/// Converts an integer-microsecond total back to milliseconds for
/// reporting. Exact for any total below 2^53 µs (~285 years).
pub fn us_to_ms(us: u64) -> f64 {
    us as f64 / 1_000.0
}

/// How a retried call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryOutcome {
    /// Succeeded on the given attempt (0 = first try).
    Succeeded { attempt: u32 },
    /// All attempts failed.
    Exhausted { attempts: u32 },
    /// The deadline budget ran out before the attempts did.
    DeadlineExceeded { attempts: u32 },
}

/// Seeded exponential-backoff retry policy with a per-call deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated ms.
    pub base_delay_ms: f64,
    /// Multiplier applied per retry (2.0 = classic doubling).
    pub multiplier: f64,
    /// Upper bound on any single delay, in simulated ms.
    pub max_delay_ms: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a seeded
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Total simulated-time budget for the call, attempts included.
    /// `f64::INFINITY` disables the deadline.
    pub deadline_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_ms: 100.0,
            multiplier: 2.0,
            max_delay_ms: 2_000.0,
            jitter: 0.25,
            deadline_ms: f64::INFINITY,
        }
    }
}

impl RetryPolicy {
    /// Sets the deadline budget, builder-style.
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = deadline_ms;
        self
    }

    /// The backoff delay before retry attempt `attempt` (1-based: the
    /// wait after the `attempt`-th failure), jittered by `(seed, key)`.
    pub fn delay_before_attempt_ms(&self, seed: u64, key: &str, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        let exp = self.base_delay_ms * self.multiplier.powi(attempt as i32 - 1);
        let capped = exp.min(self.max_delay_ms);
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = 1.0 - jitter + 2.0 * jitter * unit(seed, &format!("backoff:{key}:a{attempt}"));
        capped * scale
    }

    /// The deadline budget in integer microseconds; an infinite (or
    /// absent) deadline maps to `u64::MAX`.
    pub fn deadline_us(&self) -> u64 {
        if self.deadline_ms.is_finite() {
            ms_to_us(self.deadline_ms)
        } else {
            u64::MAX
        }
    }

    /// Drives `attempt_cost` until success, exhaustion, or deadline.
    ///
    /// `attempt_cost(attempt)` returns `Some(cost_ms)` when the attempt
    /// succeeds after `cost_ms` of simulated work, or `None` when it
    /// fails. Returns the outcome plus the *total* simulated time spent
    /// (work + backoff) — failed attempts still cost their backoff.
    /// Time is accumulated in integer microseconds (each charge
    /// quantized via [`ms_to_us`]) so deadline checks are exact; the
    /// returned total is that integer ledger converted back to ms.
    pub fn run<F>(&self, seed: u64, key: &str, mut attempt_cost: F) -> (RetryOutcome, f64)
    where
        F: FnMut(u32) -> Option<f64>,
    {
        let mut elapsed_us: u64 = 0;
        let deadline_us = self.deadline_us();
        let attempts = self.max_attempts.max(1);
        for attempt in 0..attempts {
            let backoff_us = ms_to_us(self.delay_before_attempt_ms(seed, key, attempt));
            if elapsed_us.saturating_add(backoff_us) > deadline_us {
                return (
                    RetryOutcome::DeadlineExceeded { attempts: attempt },
                    us_to_ms(elapsed_us),
                );
            }
            elapsed_us += backoff_us;
            match attempt_cost(attempt) {
                Some(cost_ms) => {
                    elapsed_us += ms_to_us(cost_ms);
                    return (RetryOutcome::Succeeded { attempt }, us_to_ms(elapsed_us));
                }
                None => {
                    // A failed attempt still burns nominal work time
                    // before the failure surfaces.
                    elapsed_us += ms_to_us(self.base_delay_ms.min(self.max_delay_ms));
                    if elapsed_us > deadline_us {
                        return (
                            RetryOutcome::DeadlineExceeded {
                                attempts: attempt + 1,
                            },
                            us_to_ms(elapsed_us),
                        );
                    }
                }
            }
        }
        (RetryOutcome::Exhausted { attempts }, us_to_ms(elapsed_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_has_no_delay() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_before_attempt_ms(1, "k", 0), 0.0);
    }

    #[test]
    fn delays_grow_exponentially_within_jitter() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let d1 = p.delay_before_attempt_ms(1, "k", 1);
        let d2 = p.delay_before_attempt_ms(1, "k", 2);
        let d3 = p.delay_before_attempt_ms(1, "k", 3);
        assert_eq!(d1, 100.0);
        assert_eq!(d2, 200.0);
        assert_eq!(d3, 400.0);
    }

    #[test]
    fn delays_cap_at_max() {
        let p = RetryPolicy {
            jitter: 0.0,
            max_attempts: 10,
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay_before_attempt_ms(1, "k", 9), 2_000.0);
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let p = RetryPolicy::default();
        let d = p.delay_before_attempt_ms(5, "call", 1);
        assert_eq!(d, p.delay_before_attempt_ms(5, "call", 1));
        assert!((75.0..=125.0).contains(&d), "d={d}");
        assert_ne!(d, p.delay_before_attempt_ms(6, "call", 1));
    }

    #[test]
    fn run_succeeds_first_try_without_backoff() {
        let p = RetryPolicy::default();
        let (outcome, ms) = p.run(1, "k", |_| Some(120.0));
        assert_eq!(outcome, RetryOutcome::Succeeded { attempt: 0 });
        assert_eq!(ms, 120.0);
    }

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let (outcome, ms) = p.run(1, "k", |attempt| (attempt == 2).then_some(50.0));
        assert_eq!(outcome, RetryOutcome::Succeeded { attempt: 2 });
        // Two failed attempts (100ms nominal each) + backoffs 100 + 200
        // + final 50ms of work.
        assert!(
            (ms - (100.0 + 100.0 + 100.0 + 200.0 + 50.0)).abs() < 1e-9,
            "ms={ms}"
        );
    }

    #[test]
    fn run_exhausts_after_max_attempts() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let (outcome, _) = p.run(1, "k", |_| {
            calls += 1;
            None
        });
        assert_eq!(outcome, RetryOutcome::Exhausted { attempts: 3 });
        assert_eq!(calls, 3);
    }

    #[test]
    fn deadline_cuts_retries_short() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        }
        .with_deadline_ms(150.0);
        let (outcome, ms) = p.run(1, "k", |_| None);
        assert!(
            matches!(outcome, RetryOutcome::DeadlineExceeded { .. }),
            "outcome={outcome:?}"
        );
        assert!(ms <= 150.0 + 100.0, "ms={ms}");
    }

    #[test]
    fn microsecond_quantization_round_trips_exactly() {
        assert_eq!(ms_to_us(0.0), 0);
        assert_eq!(ms_to_us(-5.0), 0);
        assert_eq!(ms_to_us(f64::INFINITY), 0);
        assert_eq!(ms_to_us(1.0), 1_000);
        assert_eq!(ms_to_us(0.0004), 0, "sub-half-µs rounds down");
        assert_eq!(ms_to_us(0.0006), 1, "over-half-µs rounds up");
        assert_eq!(us_to_ms(1_234), 1.234);
        // The float-drift poster child: 0.1ms summed 10× in f64 is not
        // 1.0, but the integer ledger is exactly 1 000µs.
        let drift: f64 = (0..10).map(|_| 0.1).sum();
        assert_ne!(drift, 1.0);
        assert_eq!((0..10).map(|_| ms_to_us(0.1)).sum::<u64>(), 1_000);
    }

    #[test]
    fn run_elapsed_is_an_exact_microsecond_total() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let (_, ms) = p.run(1, "k", |attempt| (attempt == 2).then_some(50.0));
        // The returned ms is a µs integer divided by 1 000 — no float
        // residue from summing the five charges.
        assert_eq!(ms_to_us(ms), 550_000);
        assert_eq!(ms, 550.0);
    }

    #[test]
    fn infinite_deadline_maps_to_umax() {
        assert_eq!(RetryPolicy::default().deadline_us(), u64::MAX);
        assert_eq!(
            RetryPolicy::default().with_deadline_ms(150.0).deadline_us(),
            150_000
        );
    }

    #[test]
    fn no_retries_policy_is_single_shot() {
        let p = RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let mut calls = 0;
        let (outcome, _) = p.run(1, "k", |_| {
            calls += 1;
            None
        });
        assert_eq!(calls, 1);
        assert_eq!(outcome, RetryOutcome::Exhausted { attempts: 1 });
    }
}
