//! Determinism proptests for the fault plan and retry/backoff: every
//! decision is a pure function of `(seed, key)`, independent of probe
//! order, and bounded where the policy promises bounds.

use multirag_faults::{FaultPlan, RetryPolicy};
use proptest::prelude::*;

proptest! {
    /// Backoff delays replay bit-identically for the same coordinates.
    #[test]
    fn backoff_delays_are_replayable(
        seed in any::<u64>(),
        key in "[a-z0-9:_]{1,16}",
        attempt in 0u32..8,
    ) {
        let policy = RetryPolicy::default();
        let a = policy.delay_before_attempt_ms(seed, &key, attempt);
        let b = policy.delay_before_attempt_ms(seed, &key, attempt);
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// Delays stay inside the jittered envelope: zero before the first
    /// attempt, otherwise within `capped * (1 ± jitter)`.
    #[test]
    fn backoff_delays_respect_bounds(
        seed in any::<u64>(),
        key in "[a-z]{1,12}",
        attempt in 0u32..8,
    ) {
        let policy = RetryPolicy::default();
        let delay = policy.delay_before_attempt_ms(seed, &key, attempt);
        if attempt == 0 {
            prop_assert_eq!(delay, 0.0);
        } else {
            let capped = (policy.base_delay_ms
                * policy.multiplier.powi(attempt as i32 - 1))
                .min(policy.max_delay_ms);
            prop_assert!(delay >= capped * (1.0 - policy.jitter) - 1e-9);
            prop_assert!(delay <= capped * (1.0 + policy.jitter) + 1e-9);
        }
    }

    /// Fault decisions are order-independent: probing sources in any
    /// order yields the same per-source verdicts.
    #[test]
    fn outage_decisions_are_order_independent(
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
        mut names in proptest::collection::vec("[a-z]{1,10}", 1..8),
    ) {
        let plan = FaultPlan::uniform(seed, rate);
        let forward: Vec<bool> = names.iter().map(|n| plan.source_down(n)).collect();
        names.reverse();
        let mut backward: Vec<bool> = names.iter().map(|n| plan.source_down(n)).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }

    /// Rate endpoints behave like contracts: 0 never faults, 1 always
    /// takes the source down.
    #[test]
    fn rate_endpoints_are_exact(seed in any::<u64>(), name in "[a-z]{1,10}") {
        prop_assert!(!FaultPlan::uniform(seed, 0.0).source_down(&name));
        prop_assert!(FaultPlan::uniform(seed, 1.0).source_down(&name));
        prop_assert!(!FaultPlan::healthy(seed).source_down(&name));
    }

    /// The same plan replays the same corruption verdict for the same
    /// record coordinates.
    #[test]
    fn corruption_verdicts_replay(
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
        source in "[a-z]{1,10}",
        record in "[a-z0-9]{1,10}",
    ) {
        let plan = FaultPlan::uniform(seed, rate);
        prop_assert_eq!(
            plan.record_corruption(&source, &record),
            plan.record_corruption(&source, &record)
        );
    }
}
