//! The simulated fleet: N shard nodes over one shared epoch snapshot.
//!
//! What is sharded and what is shared is the crate's central design
//! decision. The MCC confidence machinery scores every claim against
//! *graph-global* signals — entity degree, the graph's max degree,
//! interned triple ids, the epoch's frozen credibility store — so
//! rebuilding a per-shard subgraph would change those signals and break
//! 1-node == N-node answer parity by construction. The fleet therefore
//! follows the disaggregated-storage shape (compute sharding over
//! shared immutable storage): every node reads the same
//! [`EpochSnapshot`] behind an `Arc`, while the genuinely per-node
//! state — the [`CacheStack`], the admission queue, the service clock,
//! the slot ownership — is sharded by the consistent-hash ring. Slot
//! routing then affects only *where* a query runs and queues, never
//! what it answers; parity is a structural invariant, not a tuning
//! outcome, and `repro_cluster` asserts it end to end.

use crate::ring::{slot_key, HashRing, DEFAULT_VNODES};
use multirag_faults::FaultPlan;
use multirag_kg::SlotId;
use multirag_obs::{shard_series, MetricsRegistry};
use multirag_serve::{CacheStack, EpochSnapshot, ServeConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One simulated serving node: an id plus its private cache stack.
/// Everything else a node "has" (pipeline, workers) is derived per
/// serving call from the shared snapshot.
#[derive(Debug)]
pub struct ShardNode {
    /// Node id, `0..shards`.
    pub id: u32,
    /// The node's private L1/L2/L3 cache stack. Caches are node-local
    /// on purpose: a hit rate is a per-node property, and cross-node
    /// cache coherence is exactly the complexity the shared-snapshot
    /// design avoids.
    pub caches: CacheStack,
}

/// The cluster: a consistent-hash ring of [`ShardNode`]s over one
/// shared, immutable [`EpochSnapshot`].
pub struct Cluster {
    snapshot: Arc<EpochSnapshot>,
    ring: HashRing,
    nodes: Vec<ShardNode>,
    serve_cfg: ServeConfig,
    /// Candidate nodes per slot (owner + replicas), ≥ 1.
    replication: usize,
    /// Slots hot enough to spread across their whole candidate set.
    hot_slots: BTreeSet<String>,
    /// Node-outage schedule, when the degraded leg is active.
    outage: Option<FaultPlan>,
    /// Requests per outage window (`window = seq / window_requests`).
    outage_window_requests: u64,
    /// Current slot → owner assignment (rebuilt on publish/resize).
    assignments: BTreeMap<String, u32>,
    /// Lifecycle counts (rebalances, resizes, moved and new slots) and
    /// gauges (replicated and owned slots).
    metrics: MetricsRegistry,
}

/// Every slot of the snapshot's tiered index: grouped slots and
/// isolated (single-assertion) slots alike, as canonical slot keys in
/// sorted order.
pub fn slot_universe(snapshot: &EpochSnapshot) -> BTreeSet<String> {
    let index = &snapshot.state.tindex;
    (0..index.slot_count() as u32)
        .map(SlotId)
        .map(|slot| {
            slot_key(
                snapshot.graph.entity_name(index.slot_entity(slot)),
                snapshot.graph.relation_name(index.slot_relation(slot)),
            )
        })
        .collect()
}

impl Cluster {
    /// Builds a fleet of `shards` nodes over `snapshot`, with
    /// `replication` candidate nodes per slot (clamped to the fleet
    /// size). The ring is seeded from the snapshot's own seed, so two
    /// processes holding the same epoch derive identical ownership.
    pub fn new(
        snapshot: Arc<EpochSnapshot>,
        shards: u32,
        serve_cfg: ServeConfig,
        replication: usize,
    ) -> Self {
        let shards = shards.max(1);
        let ring = HashRing::new(shards, DEFAULT_VNODES, snapshot.seed);
        let nodes = (0..shards)
            .map(|id| ShardNode {
                id,
                caches: CacheStack::new(),
            })
            .collect();
        let assignments = slot_universe(&snapshot)
            .into_iter()
            .map(|slot| {
                let owner = ring.owner(&slot);
                (slot, owner)
            })
            .collect();
        Self {
            snapshot,
            ring,
            nodes,
            serve_cfg,
            replication: replication.max(1),
            hot_slots: BTreeSet::new(),
            outage: None,
            outage_window_requests: 0,
            assignments,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Installs a node-outage schedule: requests `seq` fall into window
    /// `seq / window_requests`, and a node down for that window is
    /// skipped in favor of the slot's next live candidate.
    pub fn with_outages(mut self, plan: FaultPlan, window_requests: u64) -> Self {
        self.outage = Some(plan);
        self.outage_window_requests = window_requests.max(1);
        self
    }

    /// Number of shard nodes.
    pub fn shards(&self) -> u32 {
        self.ring.node_count()
    }

    /// The shared epoch snapshot every node serves from.
    pub fn snapshot(&self) -> &EpochSnapshot {
        &self.snapshot
    }

    /// The serving configuration nodes run with.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve_cfg
    }

    /// The node with id `id`, if it exists.
    pub fn node(&self, id: u32) -> Option<&ShardNode> {
        self.nodes.get(id as usize)
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Current slot → owner map (sorted by slot key).
    pub fn assignments(&self) -> &BTreeMap<String, u32> {
        &self.assignments
    }

    /// Whether `slot` is replicated hot.
    pub fn is_hot(&self, slot: &str) -> bool {
        self.hot_slots.contains(slot)
    }

    /// The slot's candidate nodes, owner first. Hot slots expose their
    /// full candidate set; cold slots expose owner + replicas only when
    /// failover needs them (same list — the distinction is how the
    /// router *uses* it).
    pub fn candidates_for(&self, slot: &str) -> Vec<u32> {
        self.ring.candidates(slot, self.replication)
    }

    /// Is `node` down for the window `seq` falls into?
    pub fn node_down(&self, node: u32, seq: u32) -> bool {
        match &self.outage {
            Some(plan) => {
                let window = u64::from(seq) / self.outage_window_requests.max(1);
                plan.node_outage(node, window)
            }
            None => false,
        }
    }

    /// Marks the `top_k` most-requested slots of `workload` as hot.
    /// Ties break toward the lexicographically smaller slot key, so the
    /// hot set is a pure function of the workload multiset.
    pub fn mark_hot_slots<'a>(
        &mut self,
        workload_slots: impl IntoIterator<Item = &'a str>,
        top_k: usize,
    ) {
        let mut freq: BTreeMap<&str, u64> = BTreeMap::new();
        for slot in workload_slots {
            *freq.entry(slot).or_insert(0) += 1;
        }
        let mut ranked: Vec<(&str, u64)> = freq.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        self.hot_slots = ranked
            .into_iter()
            .take(top_k)
            .map(|(slot, _)| slot.to_string())
            .collect();
        self.metrics
            .gauge_set("cluster_replicated_slots", self.hot_slots.len() as f64);
    }

    /// Absorbs a freshly published epoch: recomputes slot ownership
    /// over the new snapshot's slot universe, counts moved and new
    /// slots, and swap-clears every node's epoch-scoped caches (the
    /// same invalidation contract single-node serving has on a swap).
    /// Returns `(moved, added)` slot counts.
    pub fn publish(&mut self, snapshot: Arc<EpochSnapshot>) -> (u64, u64) {
        self.snapshot = snapshot;
        let (moved, added) = self.reassign();
        for node in &self.nodes {
            node.caches.on_epoch_swap();
        }
        self.metrics.inc("cluster_rebalance_total", 1);
        self.metrics
            .inc("cluster_rebalance_moved_slots_total", moved);
        self.metrics.inc("cluster_rebalance_new_slots_total", added);
        (moved, added)
    }

    /// Re-rings the fleet at `shards` nodes (elastic resize). Existing
    /// nodes keep their caches; new nodes start cold. Returns how many
    /// slots changed owner — consistent hashing keeps this a bounded
    /// fraction of the universe rather than a full reshuffle.
    pub fn resize(&mut self, shards: u32) -> u64 {
        let shards = shards.max(1);
        self.ring = HashRing::new(shards, DEFAULT_VNODES, self.snapshot.seed);
        while self.nodes.len() < shards as usize {
            self.nodes.push(ShardNode {
                id: self.nodes.len() as u32,
                caches: CacheStack::new(),
            });
        }
        self.nodes.truncate(shards as usize);
        let (moved, _) = self.reassign();
        self.metrics.inc("cluster_resize_total", 1);
        self.metrics
            .inc("cluster_rebalance_moved_slots_total", moved);
        moved
    }

    /// Rebuilds `assignments` from the current ring + snapshot and
    /// returns `(moved, added)` relative to the previous map.
    fn reassign(&mut self) -> (u64, u64) {
        let mut moved = 0u64;
        let mut added = 0u64;
        let next: BTreeMap<String, u32> = slot_universe(&self.snapshot)
            .into_iter()
            .map(|slot| {
                let owner = self.ring.owner(&slot);
                match self.assignments.get(&slot) {
                    Some(&previous) if previous != owner => moved += 1,
                    Some(_) => {}
                    None => added += 1,
                }
                (slot, owner)
            })
            .collect();
        self.assignments = next;
        (moved, added)
    }

    /// Exports per-shard ownership gauges through the name-sorted
    /// exposition (zero-padded shard labels keep numeric order).
    pub fn export_ownership_metrics(&self) {
        let mut owned: BTreeMap<u32, u64> = (0..self.shards()).map(|id| (id, 0)).collect();
        for &owner in self.assignments.values() {
            if let Some(count) = owned.get_mut(&owner) {
                *count += 1;
            }
        }
        for (shard, count) in owned {
            self.metrics.gauge_set(
                &shard_series("cluster_shard_owned_slots", u64::from(shard)),
                count as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_core::MultiRagConfig;
    use multirag_datasets::movies::MoviesSpec;
    use multirag_serve::IndexWriter;

    fn snapshot() -> Arc<EpochSnapshot> {
        let data = MoviesSpec::small().generate(42);
        let mut writer = IndexWriter::new(data.graph, MultiRagConfig::default(), 42);
        writer.publish()
    }

    #[test]
    fn every_slot_of_the_tier_has_one_owner_across_resizes() {
        let snapshot = snapshot();
        let slots = snapshot.state.tindex.slot_count();
        assert!(slots > 0);
        let mut cluster = Cluster::new(snapshot, 2, ServeConfig::default(), 1);
        assert_eq!(cluster.assignments().len(), slots);
        cluster.resize(4);
        assert_eq!(cluster.assignments().len(), slots);
        assert!(cluster.assignments().values().all(|&owner| owner < 4));
    }
}
