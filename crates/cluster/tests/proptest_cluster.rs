//! Property tests for the cluster's determinism backbone.
//!
//! 1. **Histogram merge identity** (the merge-tier satellite): feeding
//!    every completion into one cluster-wide [`LogHistogram`] is
//!    byte-identical to feeding each shard's completions into its own
//!    histogram and merging — for *any* assignment of completions to
//!    shards and any merge order. `LogHistogram` derives `Eq` over its
//!    full state (buckets, count, sum, max), so `==` here is exactly
//!    "same bytes in every field".
//! 2. **Merge-tier reduction order invariance**: the cross-shard
//!    verdict reduction is a pure function of the verdict *set*.
//! 3. **Ring consistency**: `owner` is `candidates[0]`, candidates are
//!    distinct, and ownership is stable across rebuilds.
//! 4. **One pool is the single-node loop**: a one-shard fleet with no
//!    outage plan reproduces `multirag_serve::closed_loop_timeline`'s
//!    counts, clock and latencies exactly.

use multirag_cluster::{cluster_closed_loop, slot_key, HashRing, DEFAULT_VNODES};
use multirag_core::{reduce_shard_answers, AbstainReason, PipelineAnswer};
use multirag_obs::LogHistogram;
use multirag_serve::closed_loop_timeline;
use proptest::prelude::*;

fn answer(confidence: f64, abstained: bool) -> PipelineAnswer {
    PipelineAnswer {
        values: Vec::new(),
        fusion_values: Vec::new(),
        abstained,
        abstain_reason: abstained.then_some(AbstainReason::AllSourcesDown),
        hallucinated: false,
        graph_confidence: (!abstained).then_some(multirag_core::confidence::GraphConfidence {
            value: confidence,
            unordered_pairs: 1,
            ordered_pairs: 2,
        }),
        kept: Vec::new(),
        dropped: 0,
        examined: 0,
        quarantined_claims: 0,
        escalation_attempts: 0,
    }
}

proptest! {
    /// Per-shard histograms merged in any order == one histogram fed
    /// every completion directly. Byte identity via `Eq`.
    #[test]
    fn merged_shard_histograms_equal_cluster_histogram(
        completions in proptest::collection::vec((0u64..5_000_000, 0usize..8), 0..300),
        shards in 1usize..8,
        merge_order in proptest::collection::vec(0usize..8, 8),
    ) {
        let mut cluster_wide = LogHistogram::new();
        let mut per_shard = vec![LogHistogram::new(); shards];
        for &(latency_us, shard_pick) in &completions {
            cluster_wide.record(latency_us);
            per_shard[shard_pick % shards].record(latency_us);
        }
        // Merge in a permuted order: merge is commutative+associative,
        // so any order must land on the identical state.
        let mut order: Vec<usize> = (0..shards).collect();
        for (i, &s) in merge_order.iter().enumerate().take(shards) {
            order.swap(i, s % shards);
        }
        let mut merged = LogHistogram::new();
        for &s in &order {
            merged.merge(&per_shard[s]);
        }
        prop_assert_eq!(&merged, &cluster_wide);
        // The derived percentiles therefore agree too.
        for p in [50u64, 95, 99] {
            prop_assert_eq!(merged.quantile_us(p), cluster_wide.quantile_us(p));
        }
    }

    /// Reduction is a pure function of the verdict set: permuting the
    /// input leaves the merged verdict byte-identical.
    #[test]
    fn shard_reduction_is_permutation_invariant(
        confidences in proptest::collection::vec((0.0f64..1.0, any::<bool>()), 1..8),
        swaps in proptest::collection::vec(0usize..8, 8),
    ) {
        let verdicts: Vec<(u32, PipelineAnswer)> = confidences
            .iter()
            .enumerate()
            .map(|(shard, &(c, abstained))| (shard as u32, answer(c, abstained)))
            .collect();
        let mut shuffled = verdicts.clone();
        let n = shuffled.len();
        for (i, &s) in swaps.iter().enumerate().take(n) {
            shuffled.swap(i, s % n);
        }
        prop_assert_eq!(
            reduce_shard_answers(&verdicts),
            reduce_shard_answers(&shuffled)
        );
    }

    /// `owner` is always the first candidate, candidates are distinct
    /// nodes, and an identically parameterized ring agrees on every
    /// slot.
    #[test]
    fn ring_owner_heads_distinct_candidates(
        nodes in 1u32..12,
        seed in 0u64..1_000,
        entities in proptest::collection::vec("[a-z]{1,12}", 1..20),
    ) {
        let ring = HashRing::new(nodes, DEFAULT_VNODES, seed);
        let again = HashRing::new(nodes, DEFAULT_VNODES, seed);
        for entity in &entities {
            let slot = slot_key(entity, "attr");
            let cands = ring.candidates(&slot, 3);
            prop_assert_eq!(cands[0], ring.owner(&slot));
            prop_assert_eq!(ring.owner(&slot), again.owner(&slot));
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), cands.len());
        }
    }

    /// A single node is one pool: the fleet loop over one shard, every
    /// request routed to `[0]` and no outages, matches the single-node
    /// loop on every count and on the clock's bits, and its histogram
    /// is the one the single-node latencies build.
    #[test]
    fn one_pool_fleet_is_the_single_node_loop(
        service in proptest::collection::vec(1u64..=3_000, 0..=200),
        clients in 1usize..=15,
        workers in 1usize..=4,
        depth in 0usize..=8,
    ) {
        let fleet =
            cluster_closed_loop(&service, &[vec![0]], service.len(), 1, clients, workers, depth, None);
        let (single, timings) = closed_loop_timeline(&service, clients, workers, depth);
        prop_assert_eq!(fleet.point.completed, single.completed);
        prop_assert_eq!(fleet.point.shed, single.shed);
        prop_assert_eq!(fleet.point.offered, single.offered);
        prop_assert_eq!(fleet.point.sim_total_ms.to_bits(), single.sim_total_ms.to_bits());
        prop_assert_eq!(fleet.point.throughput_qps.to_bits(), single.throughput_qps.to_bits());
        prop_assert_eq!(fleet.point.failovers, 0);
        let mut expected = LogHistogram::new();
        for t in timings.iter().filter(|t| t.served) {
            expected.record(t.latency_us());
        }
        prop_assert_eq!(&fleet.overall, &expected);
    }
}
