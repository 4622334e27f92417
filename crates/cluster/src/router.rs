//! Deterministic slot router and cross-shard serve paths.
//!
//! The router recovers each query's `(entity, attribute)` slot the
//! same way the pipeline itself does — by running the seeded mock LLM
//! over the *same* schema instance the epoch's pipelines extract with
//! (the snapshot's [`multirag_core::GraphState::schema`]) — and falls
//! back to the query's declared slot when extraction fails.
//! Slot → node resolution then goes through the cluster's ring.
//!
//! Serving modes:
//!
//! - [`serve_cluster`]: every request runs on exactly one node (the
//!   slot's preferred live candidate). This is the production path and
//!   the one whose answers must match single-node serving bit for bit.
//! - [`serve_fanout`]: one request runs on *all* of its slot's
//!   candidates and the per-shard verdicts are reduced through
//!   [`multirag_core::reduce_shard_answers`] — the merge-tier
//!   cross-check `repro_cluster` uses to prove replicas agree.
//!
//! Failure handling is structural: a request whose every candidate is
//! down gets a structured abstain ([`AbstainReason::AllSourcesDown`])
//! — the cluster never panics on an outage.

use crate::shard::Cluster;
use multirag_core::{
    reduce_shard_answers, AbstainReason, MergedVerdict, MklgpPipeline, PipelineAnswer,
};
use multirag_datasets::Query;
use multirag_eval::parallel_map_with;
use multirag_llmsim::client::MockLlm;
use multirag_obs::shard_series;
use multirag_serve::{
    serve_one, snapshot_pipeline, ServeRequest, ServeResponse, ServeVerdict, SERVE_OVERHEAD_MS,
};
use std::collections::BTreeMap;

use crate::ring::slot_key;

/// Extracts the routing slot for each query with the same seeded LLM
/// the pipeline uses for extraction.
pub struct SlotRouter {
    llm: MockLlm,
}

impl SlotRouter {
    /// Builds a router bound to the cluster's snapshot (the epoch's
    /// shared schema and seed → same logic forms as the serving
    /// pipelines).
    pub fn new(cluster: &Cluster) -> Self {
        let snapshot = cluster.snapshot();
        Self {
            llm: MockLlm::new(snapshot.state.schema.clone(), snapshot.seed),
        }
    }

    /// The canonical slot key the query routes by: the logic form's
    /// entity and first relation when extraction succeeds, the query's
    /// declared `(entity, attribute)` otherwise. Either way the result
    /// is deterministic, and — because every node answers from the
    /// same shared snapshot — routing choices can shift *load*, never
    /// *answers*.
    pub fn slot_of(&mut self, query: &Query) -> String {
        if let Some(lf) = self.llm.logic_form(&query.text) {
            if let Some(relation) = lf.relations.first() {
                return slot_key(&lf.entity, relation);
            }
        }
        slot_key(&query.entity, &query.attribute)
    }
}

/// One routed response: which shard served it and whether the router
/// had to fail over past the preferred candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterResponse {
    /// Stream sequence number.
    pub seq: u32,
    /// Shard that served the request (`None`: every candidate down).
    pub shard: Option<u32>,
    /// True when the preferred candidate was down and a replica (or a
    /// structured abstain) took over.
    pub failover: bool,
    /// The node's response, or the router's structured abstain.
    pub response: ServeResponse,
}

/// The routing decision for one request, before any serving happens.
struct Route {
    /// Chosen node, `None` when every candidate is down this window.
    chosen: Option<u32>,
    failover: bool,
}

fn route_request(cluster: &Cluster, router: &mut SlotRouter, request: &ServeRequest) -> Route {
    let slot = router.slot_of(&request.query);
    let candidates = cluster.candidates_for(&slot);
    // Hot slots spread deterministically across their candidate set by
    // sequence number; cold slots always prefer the owner.
    let preferred: Vec<u32> = if cluster.is_hot(&slot) && !candidates.is_empty() {
        let start = request.seq as usize % candidates.len();
        let mut order = Vec::with_capacity(candidates.len());
        for step in 0..candidates.len() {
            if let Some(&node) = candidates.get((start + step) % candidates.len()) {
                order.push(node);
            }
        }
        order
    } else {
        candidates
    };
    let chosen = preferred
        .iter()
        .copied()
        .find(|&node| !cluster.node_down(node, request.seq));
    let failover = match (preferred.first(), chosen) {
        (Some(&first), Some(node)) => node != first,
        // Nothing alive: that is a failover outcome too.
        (Some(_), None) => true,
        (None, _) => false,
    };
    Route { chosen, failover }
}

/// The structured verdict for a request whose every candidate node is
/// down: an abstention, charged only the serving overhead.
fn all_down_response(request: &ServeRequest) -> ServeResponse {
    ServeResponse {
        seq: request.seq,
        kind: request.kind,
        verdict: ServeVerdict::Answered(PipelineAnswer {
            values: Vec::new(),
            fusion_values: Vec::new(),
            abstained: true,
            abstain_reason: Some(AbstainReason::AllSourcesDown),
            hallucinated: false,
            graph_confidence: None,
            kept: Vec::new(),
            dropped: 0,
            examined: 0,
            quarantined_claims: 0,
            escalation_attempts: 0,
        }),
        result_cache_hit: false,
        service_ms: SERVE_OVERHEAD_MS,
    }
}

/// Routes and serves a request stream across the fleet on
/// `router_workers` threads. Results come back in stream order; which
/// shard serves which request is a pure function of the request, never
/// of thread scheduling (per-request metrics counts are therefore
/// scheduling-independent too).
pub fn serve_cluster(
    cluster: &Cluster,
    requests: &[ServeRequest],
    router_workers: usize,
) -> Vec<ClusterResponse> {
    let items: Vec<ServeRequest> = requests.to_vec();
    let responses = parallel_map_with(
        items,
        router_workers.max(1),
        |_| (SlotRouter::new(cluster), BTreeMap::new()),
        |(router, pipelines): &mut (SlotRouter, BTreeMap<u32, MklgpPipeline<'_>>), request| {
            let route = route_request(cluster, router, &request);
            let Some((shard, node)) = route
                .chosen
                .and_then(|shard| cluster.node(shard).map(|node| (shard, node)))
            else {
                return ClusterResponse {
                    seq: request.seq,
                    shard: None,
                    failover: route.failover,
                    response: all_down_response(&request),
                };
            };
            let pipeline = pipelines.entry(shard).or_insert_with(|| {
                snapshot_pipeline(cluster.snapshot(), &node.caches, cluster.serve_config())
            });
            let response = serve_one(pipeline, &node.caches, &request);
            ClusterResponse {
                seq: request.seq,
                shard: Some(shard),
                failover: route.failover,
                response,
            }
        },
    );
    record_routing_metrics(cluster, &responses);
    responses
}

/// Bumps the per-shard and failover counters for a served batch. Done
/// after the fan-out from the final (stream-ordered) responses, so the
/// registry sees one deterministic sequence of increments regardless
/// of router worker count.
fn record_routing_metrics(cluster: &Cluster, responses: &[ClusterResponse]) {
    let metrics = cluster.metrics();
    let mut per_shard: BTreeMap<u32, u64> = BTreeMap::new();
    let mut failovers = 0u64;
    let mut abstained_unrouted = 0u64;
    for response in responses {
        match response.shard {
            Some(shard) => *per_shard.entry(shard).or_insert(0) += 1,
            None => abstained_unrouted += 1,
        }
        failovers += u64::from(response.failover);
    }
    for (shard, count) in per_shard {
        metrics.inc(
            &shard_series("cluster_shard_queries_total", u64::from(shard)),
            count,
        );
    }
    metrics.inc("cluster_failover_total", failovers);
    metrics.inc("cluster_unrouted_abstain_total", abstained_unrouted);
}

/// Serves one request on *every* candidate node of its slot and
/// reduces the per-shard verdicts through the merge tier. Returns the
/// merged verdict plus the raw per-shard answers (sorted by shard id)
/// so callers can assert replica agreement. Candidates that are down
/// or shed contribute nothing; an empty survivor set reduces to the
/// structured all-down abstain.
pub fn serve_fanout(
    cluster: &Cluster,
    router: &mut SlotRouter,
    request: &ServeRequest,
) -> (Option<MergedVerdict>, Vec<(u32, PipelineAnswer)>) {
    let slot = router.slot_of(&request.query);
    let mut verdicts: Vec<(u32, PipelineAnswer)> = Vec::new();
    for shard in cluster.candidates_for(&slot) {
        if cluster.node_down(shard, request.seq) {
            continue;
        }
        let Some(node) = cluster.node(shard) else {
            continue;
        };
        let mut pipeline =
            snapshot_pipeline(cluster.snapshot(), &node.caches, cluster.serve_config());
        let response = serve_one(&mut pipeline, &node.caches, request);
        if let ServeVerdict::Answered(answer) = response.verdict {
            verdicts.push((shard, answer));
        }
    }
    verdicts.sort_by_key(|&(shard, _)| shard);
    (reduce_shard_answers(&verdicts), verdicts)
}
