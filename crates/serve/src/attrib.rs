//! Tail-latency attribution: from served responses and their traces to
//! a "which stage owns the p99" table.
//!
//! The decomposition is exact by construction. Each computed request's
//! simulated service time is **rebuilt from its parts** — the per-stage
//! simulated milliseconds in the query's [`QueryTrace`] spans, rounded
//! once to integer µs, plus the fixed serve overhead — and that rebuilt
//! `service_us` is what feeds [`crate::simloop::closed_loop_timeline`].
//! End-to-end latency then satisfies the integer identity
//!
//! ```text
//! latency_us = queue_wait_us + Σ stage_us + overhead_us
//! ```
//!
//! with no float drift, so [`Attribution`] rows sum to total
//! closed-loop latency exactly (an in-binary acceptance check in
//! `repro_slo`). Cache hits decompose into the single `l1_cache`
//! component; queue wait comes from the simulator's
//! [`RequestTiming`] stamps.

use crate::engine::{ServeResponse, ServeVerdict, RESULT_CACHE_HIT_MS, SERVE_OVERHEAD_MS};
use crate::simloop::RequestTiming;
use crate::workload::ServeRequest;
use multirag_obs::slo::{
    nearest_rank, Attribution, LatencyParts, COMPONENT_CACHE, COMPONENT_OVERHEAD,
    COMPONENT_QUEUE_WAIT,
};
use multirag_obs::QueryTrace;

/// Component charged when a computed request had no captured trace to
/// split it by stage (metrics-only observers): everything but the
/// fixed overhead lands here instead of silently vanishing.
pub const COMPONENT_UNATTRIBUTED: &str = "unattributed";

/// Rounds simulated milliseconds to integer microseconds (half-up).
pub fn round_us(ms: f64) -> u64 {
    let us = (ms * 1000.0).round();
    if us <= 0.0 {
        0
    } else {
        us as u64
    }
}

/// One request's deterministic cost model, service side only (queue
/// wait is the simulator's to add).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestCost {
    /// The request's query id (exemplar key for the SLO layer).
    pub query_id: u64,
    /// Rebuilt integer service time: `parts.total_us()`.
    pub service_us: u64,
    /// Service-side decomposition (stages + overhead, or `l1_cache`).
    pub parts: LatencyParts,
    /// Whether the answer was a structured abstention.
    pub abstained: bool,
    /// Whether the L1 result cache short-circuited the pipeline.
    pub cache_hit: bool,
    /// Escalation-ladder attempts the answer took.
    pub escalations: u64,
}

/// Builds per-request cost models from the sequential oracle's
/// responses and the traces its observer captured.
///
/// `responses[i]` must answer `requests[i]`; `traces` must be the
/// observer's capture buffer, which holds one trace per *computed*
/// (non-L1-hit) response, in stream order — exactly what
/// [`crate::engine::serve_sequential_observed`] produces. A missing
/// trace degrades gracefully into the [`COMPONENT_UNATTRIBUTED`]
/// component rather than dropping time.
pub fn request_costs(
    requests: &[ServeRequest],
    responses: &[ServeResponse],
    traces: &[QueryTrace],
) -> Vec<RequestCost> {
    let overhead_us = round_us(SERVE_OVERHEAD_MS);
    let cache_us = round_us(RESULT_CACHE_HIT_MS);
    let mut next_trace = traces.iter();
    responses
        .iter()
        .zip(requests)
        .map(|(response, request)| {
            let query_id = u64::from(request.query.id);
            let (abstained, escalations) = match &response.verdict {
                ServeVerdict::Answered(answer) => {
                    (answer.abstained, u64::from(answer.escalation_attempts))
                }
                ServeVerdict::Overloaded => (false, 0),
            };
            let mut parts = LatencyParts::new();
            if matches!(response.verdict, ServeVerdict::Overloaded) {
                // Shed before any work: zero-cost, empty decomposition.
            } else if response.result_cache_hit {
                parts.add(COMPONENT_CACHE, cache_us);
            } else {
                match next_trace.next() {
                    Some(trace) => {
                        for span in &trace.spans {
                            parts.add(span.stage.name(), round_us(span.sim_ms));
                        }
                    }
                    None => {
                        let metered = round_us(response.service_ms);
                        parts.add(COMPONENT_UNATTRIBUTED, metered.saturating_sub(overhead_us));
                    }
                }
                parts.add(COMPONENT_OVERHEAD, overhead_us);
            }
            RequestCost {
                query_id,
                service_us: parts.total_us(),
                parts,
                abstained,
                cache_hit: response.result_cache_hit,
                escalations,
            }
        })
        .collect()
}

/// The attribution pass's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionOutcome {
    /// The per-component table (queue wait included).
    pub table: Attribution,
    /// Exact nearest-rank p99 latency used as the tail cut (µs).
    pub p99_cut_us: u64,
    /// Sum of end-to-end latencies over served requests (µs) — equals
    /// `table.total_us()` by the integer identity.
    pub latency_total_us: u64,
}

/// Decomposes every served request's latency and aggregates the table.
/// `costs[i]` and `timings[i]` must describe the same request; the
/// tail is latency ≥ the **exact** nearest-rank p99 (not the
/// log-bucket approximation), so "owns the p99" is grounded in ground
/// truth.
pub fn attribute(costs: &[RequestCost], timings: &[RequestTiming]) -> AttributionOutcome {
    let mut latencies: Vec<u64> = timings
        .iter()
        .filter(|t| t.served)
        .map(RequestTiming::latency_us)
        .collect();
    latencies.sort_unstable();
    let p99_cut_us = nearest_rank(&latencies, 99);
    let latency_total_us: u64 = latencies.iter().sum();

    let mut table = Attribution::new();
    for (cost, timing) in costs.iter().zip(timings) {
        if !timing.served {
            continue;
        }
        let mut parts = cost.parts.clone();
        parts.add(COMPONENT_QUEUE_WAIT, timing.queue_wait_us());
        let latency = timing.latency_us();
        table.add(&parts, latency >= p99_cut_us && latency > 0);
    }
    AttributionOutcome {
        table,
        p99_cut_us,
        latency_total_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simloop::closed_loop_timeline;

    #[test]
    fn round_us_is_half_up_and_never_negative() {
        assert_eq!(round_us(0.2), 200);
        assert_eq!(round_us(0.05), 50);
        assert_eq!(round_us(0.0004), 0);
        assert_eq!(round_us(0.0005), 1);
        assert_eq!(round_us(-1.0), 0);
    }

    #[test]
    fn attribution_identity_holds_through_the_simulator() {
        // Hand-built costs: identity must hold exactly whatever the
        // queueing pattern does.
        let costs: Vec<RequestCost> = (0..24u64)
            .map(|i| {
                let mut parts = LatencyParts::new();
                parts.add("generation", 400 + i * 37);
                parts.add("grade", 120);
                parts.add(COMPONENT_OVERHEAD, 200);
                RequestCost {
                    query_id: i,
                    service_us: parts.total_us(),
                    parts,
                    abstained: false,
                    cache_hit: false,
                    escalations: 0,
                }
            })
            .collect();
        let service: Vec<u64> = costs.iter().map(|c| c.service_us).collect();
        let (point, timings) = closed_loop_timeline(&service, 6, 2, 1 << 10);
        assert_eq!(point.shed, 0);
        let outcome = attribute(&costs, &timings);
        assert_eq!(
            outcome.table.total_us(),
            outcome.latency_total_us,
            "rows must sum to total closed-loop latency"
        );
        assert!(outcome.table.tail_requests() >= 1);
        assert!(outcome.table.owner().is_some());
    }

    #[test]
    fn shed_requests_contribute_nothing() {
        let mut parts = LatencyParts::new();
        parts.add("generation", 1_000);
        let costs = vec![
            RequestCost {
                query_id: 0,
                service_us: parts.total_us(),
                parts: parts.clone(),
                abstained: false,
                cache_hit: false,
                escalations: 0,
            };
            8
        ];
        let service: Vec<u64> = costs.iter().map(|c| c.service_us).collect();
        // 8 clients, 1 worker, zero queue: most of the first wave sheds.
        let (point, timings) = closed_loop_timeline(&service, 8, 1, 0);
        assert!(point.shed > 0);
        let outcome = attribute(&costs, &timings);
        assert_eq!(outcome.table.requests(), point.completed as u64);
        assert_eq!(outcome.table.total_us(), outcome.latency_total_us);
    }
}
