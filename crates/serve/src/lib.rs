#![warn(missing_docs)]

//! # multirag-serve
//!
//! Concurrent query serving on top of the MultiRAG batch pipeline:
//! the paper's knowledge-guided retrieval stack, turned into a
//! long-running service without giving up determinism.
//!
//! * [`epoch`] — epoch-snapshotted indexes: a single [`IndexWriter`]
//!   applies streamed triple updates and publishes immutable
//!   [`EpochSnapshot`]s through an [`EpochIndex`]; readers never block
//!   and never see a half-applied update.
//! * [`cache`] — the three-level [`CacheStack`]: exact-match results
//!   (L1), subgraph-confidence memo (L2), content-addressed LLM
//!   responses (L3), with epoch-swap invalidation rules per level.
//! * [`workload`] — deterministic request-stream synthesis mixing
//!   fresh queries, exact repeats, and slot-preserving paraphrases.
//! * [`engine`] — snapshot-bound worker pools, the L1 fast path,
//!   bounded admission with load shedding, and the Step-5 credibility
//!   feedback tally that frozen-history serving defers to publish time.
//! * [`simloop`] — the closed-loop discrete-event simulator over integer
//!   simulated microseconds: one event loop over N worker pools, for
//!   byte-stable latency/throughput curves with per-request
//!   [`RequestTiming`] timelines (a single node is one pool; the
//!   cluster's fleet simulator is another front-end on the same loop).
//! * [`attrib`] — tail-latency attribution: rebuilds each request's
//!   service time from its trace's per-stage costs so latency
//!   decomposes exactly into queue wait + stages + overhead.
//! * [`report`] — the deterministic `results/serve.json` artifact.
//!
//! DESIGN.md §5.8 documents the epoch-swap protocol, the cache key
//! derivations, and the shedding policy; EXPERIMENTS.md explains how
//! to read the `repro_serve` output.

pub mod attrib;
pub mod cache;
pub mod engine;
pub mod epoch;
pub mod report;
pub mod simloop;
pub mod workload;

pub use attrib::{attribute, request_costs, round_us, AttributionOutcome, RequestCost};
pub use cache::{result_key, CacheCounters, CacheStack, ResultCache};
pub use engine::{
    feedback_tally, serve_one, serve_sequential, serve_sequential_observed, serve_with_admission,
    snapshot_pipeline, ServeConfig, ServeResponse, ServeVerdict, RESULT_CACHE_HIT_MS,
    SERVE_OVERHEAD_MS,
};
pub use epoch::{EpochIndex, EpochSnapshot, IndexWriter, TripleUpdate};
pub use report::{
    level_row, serve_report_json, tally_answers, AnswerTally, EpochSummary, LevelReport,
    ServeReport,
};
pub use simloop::{
    closed_loop_timeline, run_closed_loop, LoadPoint, LoopRun, RequestTiming, SHED_BACKOFF_US,
};
pub use workload::{build_workload, paraphrase, RequestKind, ServeRequest};
