//! # multirag-cluster — sharded serving over the MultiRAG pipeline
//!
//! Takes `multirag-serve` from one node to a simulated fleet:
//!
//! * [`ring`] — consistent-hash ring over `(entity, attribute)` slots
//!   with virtual nodes, deterministic replica placement and bounded
//!   movement under growth.
//! * [`shard`] — the [`Cluster`]: N nodes sharing one immutable
//!   [`EpochSnapshot`](multirag_serve::EpochSnapshot) (the
//!   disaggregated-storage shape), each with private caches; slot
//!   rebalancing on epoch publish and elastic resize.
//! * [`router`] — slot extraction via the same seeded LLM the
//!   pipeline uses, fan-out to owning shards, failover under node
//!   outages, and the cross-shard merge path over
//!   [`multirag_core::reduce_shard_answers`].
//! * [`sim`] — the integer-µs discrete-event fleet simulator:
//!   per-node queues and service clocks, latencies accumulated in
//!   mergeable [`LogHistogram`](multirag_obs::LogHistogram)s.
//! * [`report`] — byte-stable JSON fragments for
//!   `results/cluster.json`.
//!
//! The crate's invariant — proven end to end by `repro_cluster` — is
//! **1-node == N-node answer parity**: because every node answers from
//! the same shared snapshot, routing affects only load placement,
//! never answers, for every topology and every router worker count.

pub mod report;
pub mod ring;
pub mod router;
pub mod shard;
pub mod sim;

pub use report::{load_point_json, outcome_json};
pub use ring::{slot_key, HashRing, DEFAULT_VNODES};
pub use router::{serve_cluster, serve_fanout, ClusterResponse, SlotRouter};
pub use shard::{slot_universe, Cluster, ShardNode};
pub use sim::{cluster_closed_loop, ClusterLoadPoint, ClusterSimOutcome};
