#![warn(missing_docs)]

//! # multirag-eval
//!
//! Metrics and experiment harness: everything needed to regenerate the
//! paper's tables and figures sits here, consumed by the
//! `multirag-bench` binaries.
//!
//! * [`metrics`] — precision / recall / F1 over answer-value sets,
//!   Recall@K over evidence documents, aggregation.
//! * [`timing`] — the wall + simulated-LLM time report (see
//!   EXPERIMENTS.md for how QT and PT map to the paper's time
//!   columns).
//! * [`harness`] — runners that evaluate a fusion method / the MKLGP
//!   pipeline / a multi-hop method over a dataset and return one
//!   [`harness::MethodResult`] row.
//! * [`table`] — ASCII table rendering for the repro binaries.
//! * [`parallel`] — scoped fan-out for independent experiment cells.
//! * [`fanout`] — deterministic slot/query fan-out for the MKLGP
//!   pipeline: frozen-history worker clones, per-cell metering, and
//!   slot-order reduction keep parallel runs byte-identical to serial.
//! * [`loopsweep`] — closed-loop fan-out: runs the pipeline with an
//!   escalation budget and returns per-query answers plus integer-µs
//!   service times for the serving crate's queueing model.
//! * [`errors`] — the Q4 hallucination/failure taxonomy.
//! * [`degradation`] — chaos-run metrics: fault-rate degradation curves
//!   with deterministic JSON serialization.

pub mod degradation;
pub mod errors;
pub mod fanout;
pub mod harness;
pub mod loopsweep;
pub mod metrics;
pub mod parallel;
pub mod table;
pub mod timing;

pub use degradation::{
    chaos_report_json, run_multirag_chaos, run_multirag_chaos_observed, ChaosPoint,
};
pub use errors::{ErrorBreakdown, Outcome};
pub use fanout::{mcc_sweep, run_multirag_fanout, MccSweep};
pub use harness::{
    run_fusion_method, run_multihop_method, run_multirag, run_multirag_multihop,
    run_multirag_observed, MethodResult, MultiHopResult,
};
pub use loopsweep::{run_loop_sweep, LoopSweep, LoopSweepConfig};
pub use metrics::{f1_score, precision_recall, recall_at_k, SetScores};
pub use parallel::{
    parallel_map, parallel_map_with, try_parallel_map, try_parallel_map_with, CellPanic,
};
pub use table::Table;
pub use timing::TimeReport;
