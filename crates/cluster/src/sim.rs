//! Deterministic closed-loop simulator for the sharded fleet.
//!
//! A front-end over `multirag_serve`'s one integer-µs closed loop
//! ([`run_closed_loop`]): every shard is one of the loop's worker pools,
//! with its own busy count, bounded queue and service clock, and each
//! request is routed to the live members of the candidate-node list its
//! slot's ring position dictates. As in the single-node loop there is
//! no wall clock and no OS scheduler — the same inputs produce the same
//! [`ClusterLoadPoint`] bytes on every machine.
//!
//! The workload is *replicated*: request `i` reuses the service time
//! and candidate list of base request `i % base_len`, which is how the
//! scaling leg drives millions of simulated queries from a
//! few-thousand-request measured oracle without materializing
//! per-request state. Latencies accumulate straight into
//! [`LogHistogram`]s (per shard and cluster-wide), so memory stays
//! O(buckets), not O(requests) — and the cluster-wide percentiles are
//! read from the *merge* of the per-shard histograms, exercising the
//! merge-tier property on every run.

use multirag_faults::FaultPlan;
use multirag_obs::LogHistogram;
use multirag_serve::run_closed_loop;

/// One measured operating point of the cluster closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterLoadPoint {
    /// Number of shard nodes.
    pub shards: u32,
    /// Closed-loop client count.
    pub concurrency: usize,
    /// Worker pool size per shard.
    pub workers_per_shard: usize,
    /// Requests the clients attempted to submit.
    pub offered: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed (every candidate full, or every candidate down).
    pub shed: usize,
    /// Requests that could not run on their preferred candidate (it
    /// was down) and ran on a replica instead.
    pub failovers: usize,
    /// Requests whose every candidate was down for their window.
    pub unrouted: usize,
    /// Completed requests per simulated second.
    pub throughput_qps: f64,
    /// Median end-to-end latency (log-bucket bound), integer µs.
    pub p50_us: u64,
    /// 95th-percentile latency, integer µs.
    pub p95_us: u64,
    /// 99th-percentile latency, integer µs.
    pub p99_us: u64,
    /// Total simulated time until the last client finished, ms.
    pub sim_total_ms: f64,
}

/// The full outcome: the operating point plus the latency histograms
/// and per-shard load the report renders.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimOutcome {
    /// Summary operating point.
    pub point: ClusterLoadPoint,
    /// Per-shard end-to-end latency histograms.
    pub per_shard: Vec<LogHistogram>,
    /// Cluster-wide histogram: the merge of `per_shard`.
    pub overall: LogHistogram,
    /// Completions per shard.
    pub per_shard_completed: Vec<u64>,
    /// Peak admission-queue depth per shard.
    pub per_shard_peak_queue: Vec<u64>,
}

/// Runs the cluster closed loop.
///
/// `base_service_us[i % len]` and `base_candidates[i % len]` supply
/// request `i`'s service time and candidate nodes (owner first);
/// `total` requests are driven by `concurrency` clients. A request
/// starts on the first live candidate with a free worker, else queues
/// on the first live candidate with queue room, else is shed. `outage`
/// optionally supplies a fault plan plus the simulated-µs width of one
/// outage window; a down node accepts no starts and no enqueues for
/// that window.
#[allow(clippy::too_many_arguments)]
pub fn cluster_closed_loop(
    base_service_us: &[u64],
    base_candidates: &[Vec<u32>],
    total: usize,
    shards: u32,
    concurrency: usize,
    workers_per_shard: usize,
    queue_depth: usize,
    outage: Option<(&FaultPlan, u64)>,
) -> ClusterSimOutcome {
    let shards = shards.max(1);
    let concurrency = concurrency.max(1);
    let workers_per_shard = workers_per_shard.max(1);
    let base_len = base_service_us.len().max(1);
    let cand_len = base_candidates.len().max(1);
    let mut per_shard: Vec<LogHistogram> = vec![LogHistogram::new(); shards as usize];
    let mut per_shard_completed: Vec<u64> = vec![0; shards as usize];
    let (mut failovers, mut unrouted) = (0, 0);
    let run = run_closed_loop(
        total,
        concurrency,
        shards as usize,
        workers_per_shard,
        queue_depth,
        |i, now, live| {
            let candidates = base_candidates
                .get(i % cand_len)
                .map(Vec::as_slice)
                .unwrap_or_default();
            let is_down = |node: u32| match outage {
                Some((plan, window_us)) => plan.node_outage(node, now / window_us.max(1)),
                None => false,
            };
            live.extend(
                candidates
                    .iter()
                    .filter(|&&n| n < shards && !is_down(n))
                    .map(|&n| n as usize),
            );
            if live.is_empty() {
                // Every candidate down: the loop sheds it, and the
                // client backs off and moves on.
                unrouted += 1;
            } else if candidates.iter().copied().find(|&n| !is_down(n))
                != candidates.first().copied()
            {
                failovers += 1;
            }
            base_service_us.get(i % base_len).copied().unwrap_or(1)
        },
        |_, shard, timing| {
            let Some(s) = shard else { return };
            if let Some(h) = per_shard.get_mut(s) {
                h.record(timing.latency_us());
            }
            if let Some(n) = per_shard_completed.get_mut(s) {
                *n += 1;
            }
        },
    );

    let mut overall = LogHistogram::new();
    for h in &per_shard {
        overall.merge(h);
    }
    let point = ClusterLoadPoint {
        shards,
        concurrency,
        workers_per_shard,
        offered: total,
        completed: run.completed,
        shed: run.shed,
        failovers,
        unrouted,
        throughput_qps: run.throughput_qps(),
        p50_us: overall.quantile_us(50),
        p95_us: overall.quantile_us(95),
        p99_us: overall.quantile_us(99),
        sim_total_ms: run.sim_total_ms(),
    };
    ClusterSimOutcome {
        point,
        per_shard,
        overall,
        per_shard_completed,
        per_shard_peak_queue: run.peak_queue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_candidates(total: usize, shards: u32) -> Vec<Vec<u32>> {
        (0..total)
            .map(|i| {
                let owner = (i as u32) % shards;
                vec![owner, (owner + 1) % shards]
            })
            .collect()
    }

    #[test]
    fn single_shard_single_client_sees_pure_service_time() {
        let service = vec![1_000u64; 10];
        let cands = vec![vec![0u32]; 10];
        let out = cluster_closed_loop(&service, &cands, 10, 1, 1, 2, 8, None);
        assert_eq!(out.point.completed, 10);
        assert_eq!(out.point.shed, 0);
        assert_eq!(out.point.sim_total_ms, 10.0);
        // Log-bucket bound: within one sub-bucket of 1000µs.
        assert!(
            (970..=1040).contains(&out.point.p50_us),
            "{}",
            out.point.p50_us
        );
    }

    #[test]
    fn accounting_always_balances() {
        let service: Vec<u64> = (0..64).map(|i| 500 + (i % 7) * 300).collect();
        let cands = uniform_candidates(64, 4);
        let out = cluster_closed_loop(&service, &cands, 512, 4, 16, 2, 2, None);
        assert_eq!(out.point.completed + out.point.shed, out.point.offered);
        assert_eq!(
            out.per_shard_completed.iter().sum::<u64>(),
            out.point.completed as u64
        );
    }

    #[test]
    fn overall_histogram_is_the_per_shard_merge() {
        let service: Vec<u64> = (0..40).map(|i| 800 + (i % 5) * 400).collect();
        let cands = uniform_candidates(40, 4);
        let out = cluster_closed_loop(&service, &cands, 400, 4, 8, 2, 4, None);
        let mut merged = LogHistogram::new();
        for h in &out.per_shard {
            merged.merge(h);
        }
        assert_eq!(merged, out.overall);
    }

    #[test]
    fn more_shards_raise_throughput() {
        let service = vec![2_000u64; 128];
        let one = cluster_closed_loop(
            &service,
            &uniform_candidates(128, 1),
            2048,
            1,
            32,
            2,
            8,
            None,
        );
        let eight = cluster_closed_loop(
            &service,
            &uniform_candidates(128, 8),
            2048,
            8,
            32,
            2,
            8,
            None,
        );
        assert!(
            eight.point.throughput_qps > one.point.throughput_qps * 3.0,
            "8 shards must scale: {} vs {}",
            eight.point.throughput_qps,
            one.point.throughput_qps
        );
    }

    #[test]
    fn identical_inputs_produce_identical_outcomes() {
        let service: Vec<u64> = (0..50).map(|i| 500 + (i % 9) * 250).collect();
        let cands = uniform_candidates(50, 4);
        let a = cluster_closed_loop(&service, &cands, 1000, 4, 12, 2, 4, None);
        let b = cluster_closed_loop(&service, &cands, 1000, 4, 12, 2, 4, None);
        assert_eq!(a, b);
    }

    #[test]
    fn outages_cause_failovers_without_losing_accounting() {
        let plan = FaultPlan::node_outages(17, 0.4);
        let service = vec![1_000u64; 64];
        let cands = uniform_candidates(64, 4);
        let out = cluster_closed_loop(&service, &cands, 2048, 4, 16, 2, 8, Some((&plan, 10_000)));
        assert!(out.point.failovers > 0, "0.4 outage rate must fail over");
        assert_eq!(out.point.completed + out.point.shed, out.point.offered);
    }
}
