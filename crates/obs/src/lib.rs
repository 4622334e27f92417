#![warn(missing_docs)]

//! # multirag-obs
//!
//! The observability substrate for the MultiRAG workspace: every stage
//! of MKA→MCC→MKLGP reports into this crate, and every repro binary
//! exports from it.
//!
//! * [`metrics`] — a lightweight registry of counters, gauges and
//!   fixed-bucket histograms with deterministic snapshot ordering and
//!   JSON + Prometheus-text exposition.
//! * [`trace`] — the span taxonomy (`ingest`, `mlg_build`,
//!   `homologous_group`, `graph_confidence`, `node_confidence`,
//!   `generation`) and the per-query [`QueryTrace`] export, serialized
//!   deterministically so traces are **byte-stable for a fixed seed**.
//! * [`observer`] — the shared [`Observer`] handle that instrumented
//!   code feeds and the harness drains.
//! * [`slo`] — the SLO engine: mergeable log-bucket latency histograms,
//!   sim-clock windowed aggregation, multi-window burn-rate alerts with
//!   exemplar sampling, and tail-latency attribution.
//! * [`json`] — the deterministic JSON building blocks both expositions
//!   share.
//!
//! Layering: this crate sits next to `multirag-faults` at the bottom of
//! the workspace (no internal dependencies), so `ingest`, `core`,
//! `cluster` and the harness crates can all report into it.

pub mod json;
pub mod metrics;
pub mod observer;
pub mod slo;
pub mod trace;
pub mod wallclock;

pub use metrics::{
    labeled, shard_series, window_series, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};
pub use observer::{ObsHandle, Observer, StageProfile};
pub use slo::{
    nearest_rank, Attribution, AttributionRow, Completion, Exemplar, LatencyParts, LogHistogram,
    SloEngine, SloOutcome, SloSpec,
};
pub use trace::{
    traces_json, AnswerProvenance, QueryTrace, SourceContribution, Stage, StageCost, StageSpan,
    SubgraphDecision, TraceEvent,
};
pub use wallclock::WallTimer;
