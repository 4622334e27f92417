//! The [`Observer`]: the single handle instrumented code talks to.
//!
//! One observer owns a [`MetricsRegistry`] plus an optional per-query
//! trace buffer. The pipeline builds a [`QueryTrace`] while answering
//! and hands it over via [`Observer::finish_query`]; the observer fans
//! the trace out into stage histograms, chaos counters and (when
//! capture is enabled) the trace buffer the repro binaries export.
//!
//! Build-time stages (`ingest`, `mlg_build`) have no query to hang off;
//! they are recorded directly with [`Observer::record_span`].

use crate::metrics::{labeled, MetricsRegistry, DEFAULT_S_BUCKETS};
use crate::trace::{QueryTrace, Stage, StageSpan, TraceEvent};
use parking_lot::Mutex;
use std::sync::Arc;

/// A shared observer handle. Cheap to clone; all clones feed the same
/// registry and trace buffer.
pub type ObsHandle = Arc<Observer>;

/// Aggregated per-stage cost, for the `repro_profile` breakdown table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageProfile {
    /// Which stage.
    pub stage: Stage,
    /// Spans recorded.
    pub spans: u64,
    /// Total measured wall seconds (micro-unit exact).
    pub wall_s: f64,
    /// Total simulated LLM milliseconds (micro-unit exact).
    pub sim_ms: f64,
    /// Summed input cardinality.
    pub input: u64,
    /// Summed output cardinality.
    pub output: u64,
}

/// Metrics + trace collection for one experiment run.
#[derive(Debug, Default)]
pub struct Observer {
    registry: MetricsRegistry,
    capture_traces: bool,
    traces: Mutex<Vec<QueryTrace>>,
}

impl Observer {
    /// An observer that captures per-query traces (profile runs).
    pub fn new() -> ObsHandle {
        Arc::new(Self {
            capture_traces: true,
            ..Self::default()
        })
    }

    /// An observer that keeps metrics only — traces are folded into the
    /// registry and dropped (long sweeps where a trace buffer would
    /// grow unboundedly).
    pub fn metrics_only() -> ObsHandle {
        Arc::new(Self::default())
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> MetricsRegistry {
        self.registry.clone()
    }

    /// Records one span into the stage histograms and cardinality
    /// counters [`Observer::profile`] reads back.
    pub fn record_span(&self, span: &StageSpan) {
        let stage = span.stage.name();
        self.registry.observe_with(
            &labeled("stage_wall_seconds", &[("stage", stage)]),
            span.wall_s,
            &DEFAULT_S_BUCKETS,
        );
        self.registry
            .observe_ms(&labeled("stage_sim_ms", &[("stage", stage)]), span.sim_ms);
        self.registry.inc(
            &labeled("stage_input_total", &[("stage", stage)]),
            span.input as u64,
        );
        self.registry.inc(
            &labeled("stage_output_total", &[("stage", stage)]),
            span.output as u64,
        );
    }

    /// Records one structured event as named chaos/ingest metrics.
    pub fn record_event(&self, event: &TraceEvent) {
        match event {
            TraceEvent::SourceQuarantined { skipped_claims, .. } => {
                self.registry.inc("chaos_quarantine_events_total", 1);
                self.registry
                    .inc("chaos_quarantined_claims_total", *skipped_claims as u64);
            }
            TraceEvent::LlmRetries { count } => {
                self.registry.inc("chaos_llm_retries_total", *count);
            }
            TraceEvent::LlmCallsFailed { count } => {
                self.registry.inc("chaos_llm_failed_calls_total", *count);
            }
            TraceEvent::Abstained { reason } => {
                self.registry.inc("chaos_abstain_total", 1);
                self.registry.inc(
                    &labeled("chaos_abstain_reason_total", &[("reason", reason)]),
                    1,
                );
            }
            TraceEvent::GradeFailed { .. } => {
                self.registry.inc("loop_grade_failed_total", 1);
            }
            TraceEvent::Escalated { step, .. } => {
                self.registry.inc("loop_escalations_total", 1);
                self.registry
                    .inc(&labeled("loop_escalation_step_total", &[("step", step)]), 1);
            }
            TraceEvent::SloAlert { alert, to, .. } => {
                self.registry.inc(
                    &labeled("slo_alert_events_total", &[("alert", alert), ("to", to)]),
                    1,
                );
            }
        }
    }

    /// Ingests one finished query trace: spans and events fan out into
    /// the registry, outcome counters are bumped, and the trace is
    /// buffered when capture is on.
    pub fn finish_query(&self, trace: QueryTrace) {
        for span in &trace.spans {
            self.record_span(span);
        }
        for event in &trace.events {
            self.record_event(event);
        }
        self.registry.inc("pipeline_queries_total", 1);
        if trace.answer.answered {
            self.registry.inc("pipeline_answered_total", 1);
        } else {
            self.registry.inc("pipeline_abstained_total", 1);
        }
        if trace.answer.hallucinated {
            self.registry.inc("pipeline_hallucinated_total", 1);
        }
        if self.capture_traces {
            self.traces.lock().push(trace);
        }
    }

    /// Drains the captured traces (empty for metrics-only observers).
    pub fn take_traces(&self) -> Vec<QueryTrace> {
        std::mem::take(&mut *self.traces.lock())
    }

    /// Clones the captured traces without draining.
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.traces.lock().clone()
    }

    /// The per-stage cost aggregation, in pipeline order, read back
    /// from the registry's stage series. Sums are micro-unit exact.
    pub fn profile(&self) -> Vec<StageProfile> {
        let snap = self.registry.snapshot();
        Stage::ALL
            .iter()
            .filter_map(|&stage| {
                let series = |name| labeled(name, &[("stage", stage.name())]);
                let wall = snap.histogram(&series("stage_wall_seconds"))?;
                let sim = snap.histogram(&series("stage_sim_ms"))?;
                Some(StageProfile {
                    stage,
                    spans: wall.count,
                    wall_s: wall.sum,
                    sim_ms: sim.sum,
                    input: snap.counter(&series("stage_input_total")),
                    output: snap.counter(&series("stage_output_total")),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::AnswerProvenance;

    fn span(stage: Stage, sim_ms: f64, input: usize, output: usize) -> StageSpan {
        StageSpan {
            stage,
            wall_s: 0.001,
            sim_ms,
            input,
            output,
        }
    }

    #[test]
    fn spans_feed_histograms_and_profile() {
        let obs = Observer::new();
        obs.record_span(&span(Stage::Generation, 200.0, 5, 1));
        obs.record_span(&span(Stage::Generation, 100.0, 3, 1));
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("stage_input_total{stage=\"generation\"}"), 8);
        let h = snap
            .histogram("stage_sim_ms{stage=\"generation\"}")
            .unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 300.0).abs() < 1e-9);
        let profile = obs.profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].stage, Stage::Generation);
        assert_eq!(profile[0].spans, 2);
        assert_eq!(profile[0].input, 8);
        assert!((profile[0].sim_ms - 300.0).abs() < 1e-9);
    }

    #[test]
    fn events_become_named_chaos_metrics() {
        let obs = Observer::new();
        obs.record_event(&TraceEvent::SourceQuarantined {
            source: "s1".into(),
            skipped_claims: 3,
        });
        obs.record_event(&TraceEvent::LlmRetries { count: 2 });
        obs.record_event(&TraceEvent::Abstained {
            reason: "all_sources_down".into(),
        });
        obs.record_event(&TraceEvent::GradeFailed { attempt: 0 });
        obs.record_event(&TraceEvent::Escalated {
            step: "widen".into(),
            attempt: 1,
        });
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("chaos_quarantined_claims_total"), 3);
        assert_eq!(snap.counter("chaos_llm_retries_total"), 2);
        assert_eq!(snap.counter("chaos_abstain_total"), 1);
        assert_eq!(
            snap.counter("chaos_abstain_reason_total{reason=\"all_sources_down\"}"),
            1
        );
        assert_eq!(snap.counter("loop_grade_failed_total"), 1);
        assert_eq!(snap.counter("loop_escalations_total"), 1);
        assert_eq!(
            snap.counter("loop_escalation_step_total{step=\"widen\"}"),
            1
        );
    }

    #[test]
    fn finish_query_counts_outcomes_and_buffers_traces() {
        let obs = Observer::new();
        let mut t = QueryTrace::new(1, "k");
        t.spans.push(span(Stage::HomologousGroup, 50.0, 10, 4));
        t.answer = AnswerProvenance {
            answered: true,
            ..AnswerProvenance::default()
        };
        obs.finish_query(t.clone());
        t.query_id = 2;
        t.answer.answered = false;
        t.answer.abstain_reason = Some("no_trusted_context".into());
        t.events.push(TraceEvent::Abstained {
            reason: "no_trusted_context".into(),
        });
        obs.finish_query(t);
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("pipeline_queries_total"), 2);
        assert_eq!(snap.counter("pipeline_answered_total"), 1);
        assert_eq!(snap.counter("pipeline_abstained_total"), 1);
        assert_eq!(snap.counter("chaos_abstain_total"), 1);
        assert_eq!(obs.traces().len(), 2);
        assert_eq!(obs.take_traces().len(), 2);
        assert!(obs.traces().is_empty());
    }

    #[test]
    fn metrics_only_observer_drops_traces() {
        let obs = Observer::metrics_only();
        obs.finish_query(QueryTrace::new(1, "k"));
        assert!(obs.take_traces().is_empty());
        assert_eq!(
            obs.registry().snapshot().counter("pipeline_queries_total"),
            1
        );
    }
}
