//! Span-style stage tracing and the per-query [`QueryTrace`] export.
//!
//! The span taxonomy mirrors the MKA→MCC→MKLGP decomposition:
//!
//! | stage | what it covers |
//! |---|---|
//! | `ingest` | raw source bytes → fused claims (lenient skips included) |
//! | `mlg_build` | homologous matching + MKA feedback (no line graph) |
//! | `homologous_group` | logic form, extraction and homologous grouping |
//! | `graph_confidence` | Eqs. 4–7 graph-level gating |
//! | `node_confidence` | Eqs. 8–11 node assessment + thresholding |
//! | `generation` | trustworthy answer generation |
//! | `grade` | support grading of the drafted answer |
//! | `escalation` | escalation ladder work after a failing grade |
//!
//! Each span records **wall time** (measured, nondeterministic),
//! **simulated LLM time** (the deterministic cost-model latency) and
//! input/output **cardinalities** (triples in, claims out, …).
//!
//! The canonical JSON export is **byte-stable for a fixed seed**: it
//! serializes only the deterministic fields (simulated time,
//! cardinalities, decisions, provenance) and deliberately omits wall
//! clocks, which live in the metrics histograms and the `repro_profile`
//! stdout table instead.

use crate::json::{escape, JsonObj};

/// One pipeline stage in the span taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Stage {
    /// Raw bytes → fused claims.
    #[default]
    Ingest,
    /// MKA aggregation: homologous matching + consensus feedback.
    MlgBuild,
    /// Logic form + extraction + homologous grouping.
    HomologousGroup,
    /// Graph-level confidence (Eqs. 4–7).
    GraphConfidence,
    /// Node-level confidence (Eqs. 8–11).
    NodeConfidence,
    /// Trustworthy answer generation.
    Generation,
    /// Support grading of a drafted answer against the kept subgraphs.
    Grade,
    /// Escalation ladder work (widening, consulting, regeneration).
    Escalation,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 8] = [
        Stage::Ingest,
        Stage::MlgBuild,
        Stage::HomologousGroup,
        Stage::GraphConfidence,
        Stage::NodeConfidence,
        Stage::Generation,
        Stage::Grade,
        Stage::Escalation,
    ];

    /// The stage's snake-case name (used in metric labels and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::MlgBuild => "mlg_build",
            Stage::HomologousGroup => "homologous_group",
            Stage::GraphConfidence => "graph_confidence",
            Stage::NodeConfidence => "node_confidence",
            Stage::Generation => "generation",
            Stage::Grade => "grade",
            Stage::Escalation => "escalation",
        }
    }
}

/// Wall + simulated cost of one instrumented region. The pipeline's
/// confidence module fills one per MCC stage so callers can attribute
/// the two MCC halves separately.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageCost {
    /// Measured compute seconds.
    pub wall_s: f64,
    /// Simulated LLM milliseconds.
    pub sim_ms: f64,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpan {
    /// Which stage the span covers.
    pub stage: Stage,
    /// Measured wall seconds (excluded from canonical JSON — wall
    /// clocks are nondeterministic; they flow into metrics histograms).
    pub wall_s: f64,
    /// Simulated LLM milliseconds attributed to the stage.
    pub sim_ms: f64,
    /// Input cardinality (triples examined, sources read, …).
    pub input: usize,
    /// Output cardinality (claims kept, groups formed, …).
    pub output: usize,
}

impl StageSpan {
    /// Canonical (wall-free) JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("stage", self.stage.name())
            .f64("sim_ms", self.sim_ms)
            .usize("input", self.input)
            .usize("output", self.output)
            .build()
    }
}

/// A structured event observed while answering one query.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A quarantined (down) source's claims were skipped.
    SourceQuarantined {
        /// Source name.
        source: String,
        /// Claims dropped from the context.
        skipped_claims: usize,
    },
    /// LLM retry attempts beyond the first, across the query's calls.
    LlmRetries {
        /// Retry count.
        count: u64,
    },
    /// LLM calls that exhausted their retry budget.
    LlmCallsFailed {
        /// Failed-call count.
        count: u64,
    },
    /// A record was skipped by lenient ingest.
    LenientSkip {
        /// Offending source.
        source: String,
        /// Positional parse diagnostic.
        detail: String,
    },
    /// The pipeline abstained.
    Abstained {
        /// Structured abstain reason (snake-case).
        reason: String,
    },
    /// A support-grader call died; the loop kept the single-pass
    /// verdict.
    GradeFailed {
        /// Escalation attempt the grader died on (0 = initial grade).
        attempt: u32,
    },
    /// The escalation ladder took one step.
    Escalated {
        /// Ladder step taken (snake-case slug).
        step: String,
        /// Escalation attempt number (1-based).
        attempt: u32,
    },
    /// An SLO burn-rate alert changed state (see `obs::slo`).
    SloAlert {
        /// Alert name (`latency_p99` / `error_budget`).
        alert: String,
        /// State before the transition (snake-case slug).
        from: String,
        /// State after the transition (`pending` / `firing` /
        /// `resolved`).
        to: String,
        /// Window index whose evaluation caused the move.
        window: u64,
    },
}

impl TraceEvent {
    /// The event's kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::SourceQuarantined { .. } => "source_quarantined",
            TraceEvent::LlmRetries { .. } => "llm_retries",
            TraceEvent::LlmCallsFailed { .. } => "llm_calls_failed",
            TraceEvent::LenientSkip { .. } => "lenient_skip",
            TraceEvent::Abstained { .. } => "abstained",
            TraceEvent::GradeFailed { .. } => "grade_failed",
            TraceEvent::Escalated { .. } => "escalated",
            TraceEvent::SloAlert { .. } => "slo_alert",
        }
    }

    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        let obj = JsonObj::new().str("kind", self.kind());
        match self {
            TraceEvent::SourceQuarantined {
                source,
                skipped_claims,
            } => obj
                .str("source", source)
                .usize("skipped_claims", *skipped_claims),
            TraceEvent::LlmRetries { count } => obj.u64("count", *count),
            TraceEvent::LlmCallsFailed { count } => obj.u64("count", *count),
            TraceEvent::LenientSkip { source, detail } => {
                obj.str("source", source).str("detail", detail)
            }
            TraceEvent::Abstained { reason } => obj.str("reason", reason),
            TraceEvent::GradeFailed { attempt } => obj.u64("attempt", u64::from(*attempt)),
            TraceEvent::Escalated { step, attempt } => {
                obj.str("step", step).u64("attempt", u64::from(*attempt))
            }
            TraceEvent::SloAlert {
                alert,
                from,
                to,
                window,
            } => obj
                .str("alert", alert)
                .str("from", from)
                .str("to", to)
                .u64("window", *window),
        }
        .build()
    }
}

/// How one source contributed to the query's context.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceContribution {
    /// Source name.
    pub source: String,
    /// Claims from this source that survived MCC into the context.
    pub kept_claims: usize,
    /// Claims skipped because the source was quarantined.
    pub quarantined_claims: usize,
}

impl SourceContribution {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("source", &self.source)
            .usize("kept_claims", self.kept_claims)
            .usize("quarantined_claims", self.quarantined_claims)
            .build()
    }
}

/// The verdict on one homologous subgraph examined for the query.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphDecision {
    /// Slot entity name.
    pub entity: String,
    /// Slot attribute name.
    pub relation: String,
    /// Member triples.
    pub triples: usize,
    /// Distinct asserting sources.
    pub source_count: usize,
    /// Graph-level confidence `C(G)`, when homologous.
    pub graph_confidence: Option<f64>,
    /// Whether the subgraph cleared the graph-level threshold (always
    /// `false` for isolated slots and when the graph level is ablated).
    pub passed_graph_gate: bool,
    /// Nodes that survived MCC.
    pub kept_nodes: usize,
    /// Nodes MCC dropped.
    pub dropped_nodes: usize,
}

impl SubgraphDecision {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("entity", &self.entity)
            .str("relation", &self.relation)
            .usize("triples", self.triples)
            .usize("source_count", self.source_count)
            .opt_f64("graph_confidence", self.graph_confidence)
            .bool("passed_graph_gate", self.passed_graph_gate)
            .usize("kept_nodes", self.kept_nodes)
            .usize("dropped_nodes", self.dropped_nodes)
            .build()
    }
}

/// Final-answer provenance: what was emitted, and on whose authority.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnswerProvenance {
    /// Whether the query was answered (vs abstained).
    pub answered: bool,
    /// Structured abstain reason (snake-case) when abstaining.
    pub abstain_reason: Option<String>,
    /// Emitted answer values (canonical keys).
    pub values: Vec<String>,
    /// Pre-generation fusion values (canonical keys).
    pub fusion_values: Vec<String>,
    /// Sources whose kept claims back the answer, sorted by name.
    pub supporting_sources: Vec<String>,
    /// Whether the simulated generation hallucinated (ground truth of
    /// the simulation, carried for error analysis).
    pub hallucinated: bool,
}

impl AnswerProvenance {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .bool("answered", self.answered)
            .opt_str("abstain_reason", self.abstain_reason.as_deref())
            .str_arr("values", self.values.iter().map(String::as_str))
            .str_arr(
                "fusion_values",
                self.fusion_values.iter().map(String::as_str),
            )
            .str_arr(
                "supporting_sources",
                self.supporting_sources.iter().map(String::as_str),
            )
            .bool("hallucinated", self.hallucinated)
            .build()
    }
}

/// The full structured record of one query through the pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryTrace {
    /// Benchmark query id.
    pub query_id: u64,
    /// The query's stable key (entity/attribute slot).
    pub query_key: String,
    /// Recorded spans, in pipeline order.
    pub spans: Vec<StageSpan>,
    /// Homologous subgraphs examined, with their MCC verdicts.
    pub subgraphs: Vec<SubgraphDecision>,
    /// Per-source contribution summary, sorted by source name.
    pub sources: Vec<SourceContribution>,
    /// Structured events (quarantines, retries, abstains, skips).
    pub events: Vec<TraceEvent>,
    /// Final answer provenance.
    pub answer: AnswerProvenance,
}

impl QueryTrace {
    /// Starts an empty trace for one query.
    pub fn new(query_id: u64, query_key: impl Into<String>) -> Self {
        Self {
            query_id,
            query_key: query_key.into(),
            ..Self::default()
        }
    }

    /// Total measured wall seconds across spans (not serialized).
    pub fn wall_s(&self) -> f64 {
        self.spans.iter().map(|s| s.wall_s).sum()
    }

    /// Total simulated LLM milliseconds across spans.
    pub fn sim_ms(&self) -> f64 {
        self.spans.iter().map(|s| s.sim_ms).sum()
    }

    /// Canonical JSON: deterministic field order, fixed-precision
    /// floats, no wall clocks — byte-identical across runs for a fixed
    /// seed.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("query_id", self.query_id)
            .str("query_key", &self.query_key)
            .arr("spans", self.spans.iter().map(StageSpan::to_json))
            .arr(
                "subgraphs",
                self.subgraphs.iter().map(SubgraphDecision::to_json),
            )
            .arr(
                "sources",
                self.sources.iter().map(SourceContribution::to_json),
            )
            .arr("events", self.events.iter().map(TraceEvent::to_json))
            .raw("answer", &self.answer.to_json())
            .build()
    }
}

/// Serializes a batch of traces with run coordinates into one document.
pub fn traces_json(seed: u64, dataset: &str, traces: &[QueryTrace]) -> String {
    format!(
        "{{\"seed\":{seed},\"dataset\":\"{}\",\"traces\":[{}]}}",
        escape(dataset),
        traces
            .iter()
            .map(QueryTrace::to_json)
            .collect::<Vec<_>>()
            .join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryTrace {
        let mut t = QueryTrace::new(7, "movies/Heat/year");
        t.spans.push(StageSpan {
            stage: Stage::HomologousGroup,
            wall_s: 0.0123,
            sim_ms: 150.0,
            input: 12,
            output: 4,
        });
        t.subgraphs.push(SubgraphDecision {
            entity: "Heat".into(),
            relation: "year".into(),
            triples: 4,
            source_count: 3,
            graph_confidence: Some(0.8),
            passed_graph_gate: true,
            kept_nodes: 3,
            dropped_nodes: 1,
        });
        t.sources.push(SourceContribution {
            source: "imdb.json".into(),
            kept_claims: 2,
            quarantined_claims: 0,
        });
        t.events.push(TraceEvent::LlmRetries { count: 1 });
        t.answer = AnswerProvenance {
            answered: true,
            abstain_reason: None,
            values: vec!["1995".into()],
            fusion_values: vec!["1995".into()],
            supporting_sources: vec!["imdb.json".into()],
            hallucinated: false,
        };
        t
    }

    #[test]
    fn canonical_json_omits_wall_time() {
        let json = sample().to_json();
        assert!(!json.contains("wall"), "wall clocks must not leak: {json}");
        assert!(json.contains("\"sim_ms\":150.000000"));
        assert!(json.contains("\"stage\":\"homologous_group\""));
    }

    #[test]
    fn json_is_stable_across_serializations() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn stage_names_are_snake_case_and_unique() {
        let names: Vec<&str> = Stage::ALL.iter().map(Stage::name).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), 8);
        assert_eq!(names, dedup);
        assert!(names
            .iter()
            .all(|n| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
    }

    #[test]
    fn batch_export_carries_run_coordinates() {
        let doc = traces_json(42, "movies", &[sample()]);
        assert!(doc.starts_with("{\"seed\":42,\"dataset\":\"movies\""));
        assert!(doc.contains("\"traces\":[{\"query_id\":7"));
    }

    #[test]
    fn wall_and_sim_totals_sum_spans() {
        let t = sample();
        assert!((t.wall_s() - 0.0123).abs() < 1e-12);
        assert!((t.sim_ms() - 150.0).abs() < 1e-12);
    }
}
