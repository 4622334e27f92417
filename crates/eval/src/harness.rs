//! Experiment runners.
//!
//! One function per method family; each returns a [`MethodResult`] /
//! [`MultiHopResult`] row ready for the table renderers. Runners are
//! deterministic given `(dataset, seed)`.

use crate::metrics::{recall_at_k, SetScores};
use crate::timing::TimeReport;
use multirag_baselines::common::FusionMethod;
use multirag_baselines::multihop::MultiHopMethod;
use multirag_core::{MklgpPipeline, MultiRagConfig, MultiRagQa};
use multirag_datasets::multihop::MultiHopDataset;
use multirag_datasets::spec::MultiSourceDataset;
use multirag_kg::KnowledgeGraph;
use multirag_obs::WallTimer;
use multirag_retrieval::text::normalize_mention;

/// One Table II / Table III row.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// Method name.
    pub name: String,
    /// Micro F1 (%) over the query set.
    pub f1: f64,
    /// Micro precision (%).
    pub precision: f64,
    /// Micro recall (%).
    pub recall: f64,
    /// Query-time seconds (measured compute).
    pub qt: TimeReport,
    /// Preprocess-time seconds (graph/MLG/fusion build).
    pub pt: TimeReport,
    /// Fraction of queries where the simulated generation hallucinated.
    pub hallucination_rate: f64,
    /// Fraction of queries answered (non-abstained).
    pub answered_rate: f64,
}

impl MethodResult {
    /// The paper-style total time (QT + PT, wall + simulated).
    pub fn total_time_s(&self) -> f64 {
        self.qt.total_s() + self.pt.total_s()
    }
}

/// Runs a baseline fusion method over a dataset (optionally on a
/// restricted source-format graph).
pub fn run_fusion_method(
    data: &MultiSourceDataset,
    graph: &KnowledgeGraph,
    method: &mut dyn FusionMethod,
) -> MethodResult {
    let watch = WallTimer::start();
    method.prepare(graph);
    let prepare_wall = watch.elapsed_s();
    let watch = WallTimer::start();
    let sim_before = method.simulated_ms();

    let mut scores = SetScores::default();
    let mut hallucinated = 0usize;
    let mut answered = 0usize;
    for query in &data.queries {
        let answer = method.answer(graph, query);
        scores.add(&answer.values, &query.gold);
        if answer.hallucinated {
            hallucinated += 1;
        }
        if !answer.values.is_empty() {
            answered += 1;
        }
    }
    let query_wall = watch.elapsed_s();
    let sim_total = (method.simulated_ms() - sim_before) / 1000.0;
    let n = data.queries.len().max(1);
    MethodResult {
        name: method.name().to_string(),
        f1: scores.f1() * 100.0,
        precision: scores.precision() * 100.0,
        recall: scores.recall() * 100.0,
        qt: TimeReport {
            wall_s: query_wall,
            simulated_s: sim_total,
        },
        pt: TimeReport {
            wall_s: prepare_wall,
            simulated_s: 0.0,
        },
        hallucination_rate: hallucinated as f64 / n as f64,
        answered_rate: answered as f64 / n as f64,
    }
}

/// Runs the MKLGP pipeline over a dataset. `PT` captures MLG
/// construction (wall) plus the confidence-prompting share of simulated
/// LLM time; `QT` the query loop.
pub fn run_multirag(
    data: &MultiSourceDataset,
    graph: &KnowledgeGraph,
    config: MultiRagConfig,
    seed: u64,
) -> MethodResult {
    run_multirag_observed(data, graph, config, seed, None)
}

/// [`run_multirag`] with an optional observer attached: every query
/// emits a `QueryTrace` (stage spans, subgraph verdicts, provenance)
/// into the observer while the returned row stays identical.
pub fn run_multirag_observed(
    data: &MultiSourceDataset,
    graph: &KnowledgeGraph,
    config: MultiRagConfig,
    seed: u64,
    obs: Option<multirag_obs::ObsHandle>,
) -> MethodResult {
    let watch = WallTimer::start();
    let mut pipeline = MklgpPipeline::new(graph, config, seed);
    if let Some(obs) = obs {
        pipeline = pipeline.with_observer(obs);
    }
    let prepare_wall = watch.elapsed_s();
    let watch = WallTimer::start();

    let mut scores = SetScores::default();
    let mut hallucinated = 0usize;
    let mut answered = 0usize;
    for query in &data.queries {
        let answer = pipeline.answer(query);
        // Table II scores the *data fusion result* (§IV-A-b): the
        // trustworthy value set MCC hands to the LLM.
        scores.add(&answer.fusion_values, &query.gold);
        if answer.hallucinated {
            hallucinated += 1;
        }
        if !answer.abstained {
            answered += 1;
        }
    }
    let query_wall = watch.elapsed_s();
    let usage = pipeline.llm().usage();
    let n = data.queries.len().max(1);
    MethodResult {
        name: "MultiRAG".to_string(),
        f1: scores.f1() * 100.0,
        precision: scores.precision() * 100.0,
        recall: scores.recall() * 100.0,
        qt: TimeReport {
            wall_s: query_wall,
            simulated_s: 0.0,
        },
        pt: TimeReport {
            wall_s: prepare_wall,
            simulated_s: usage.simulated_secs(),
        },
        hallucination_rate: hallucinated as f64 / n as f64,
        answered_rate: answered as f64 / n as f64,
    }
}

/// One Table IV row.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHopResult {
    /// Method name.
    pub name: String,
    /// Answer precision (%): exact-match rate over answered questions'
    /// gold answers.
    pub precision: f64,
    /// Recall@5 (%) over gold supporting documents.
    pub recall_at_5: f64,
    /// Per-question Recall@5 standard deviation (the paper remarks on
    /// MultiRAG's lower variance).
    pub recall_std: f64,
    /// Hallucination rate.
    pub hallucination_rate: f64,
    /// Total time.
    pub time: TimeReport,
}

/// Runs a baseline multi-hop method over a corpus.
pub fn run_multihop_method(
    data: &MultiHopDataset,
    method: &mut dyn MultiHopMethod,
) -> MultiHopResult {
    let watch = WallTimer::start();
    let sim_before = method.simulated_ms();
    let mut correct = 0usize;
    let mut answered = 0usize;
    let mut hallucinated = 0usize;
    let mut recalls = Vec::with_capacity(data.questions.len());
    for q in &data.questions {
        let out = method.answer(q);
        recalls.push(recall_at_k(&out.evidence, &q.gold_docs, 5));
        if out.hallucinated {
            hallucinated += 1;
        }
        if let Some(a) = &out.answer {
            answered += 1;
            if normalize_mention(a) == normalize_mention(&q.answer) {
                correct += 1;
            }
        }
    }
    let n = data.questions.len().max(1);
    MultiHopResult {
        name: method.name().to_string(),
        precision: correct as f64 / answered.max(1) as f64 * 100.0,
        recall_at_5: crate::metrics::mean(&recalls) * 100.0,
        recall_std: crate::metrics::std_dev(&recalls) * 100.0,
        hallucination_rate: hallucinated as f64 / n as f64,
        time: TimeReport {
            wall_s: watch.elapsed_s(),
            simulated_s: (method.simulated_ms() - sim_before) / 1000.0,
        },
    }
}

/// Runs MultiRAG's own multi-hop pipeline.
pub fn run_multirag_multihop(
    data: &MultiHopDataset,
    config: MultiRagConfig,
    seed: u64,
) -> MultiHopResult {
    let watch = WallTimer::start();
    let mut qa = MultiRagQa::new(data, config, seed);
    let mut correct = 0usize;
    let mut answered = 0usize;
    let mut hallucinated = 0usize;
    let mut recalls = Vec::with_capacity(data.questions.len());
    for q in &data.questions {
        let out = qa.answer(q);
        recalls.push(recall_at_k(&out.evidence, &q.gold_docs, 5));
        if out.hallucinated {
            hallucinated += 1;
        }
        if let Some(a) = &out.answer {
            answered += 1;
            if normalize_mention(a) == normalize_mention(&q.answer) {
                correct += 1;
            }
        }
    }
    let n = data.questions.len().max(1);
    MultiHopResult {
        name: "MultiRAG".to_string(),
        precision: correct as f64 / answered.max(1) as f64 * 100.0,
        recall_at_5: crate::metrics::mean(&recalls) * 100.0,
        recall_std: crate::metrics::std_dev(&recalls) * 100.0,
        hallucination_rate: hallucinated as f64 / n as f64,
        time: TimeReport {
            wall_s: watch.elapsed_s(),
            simulated_s: qa.llm().usage().simulated_secs(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_baselines::mv::MajorityVote;
    use multirag_baselines::standard_rag::StandardRag;
    use multirag_baselines::truthfinder::TruthFinder;
    use multirag_datasets::movies::MoviesSpec;
    use multirag_datasets::multihop::{MultiHopFlavor, MultiHopSpec};

    #[test]
    fn fusion_runner_produces_sane_rows() {
        let data = MoviesSpec::small().generate(42);
        let mut tf = TruthFinder::default();
        let row = run_fusion_method(&data, &data.graph, &mut tf);
        assert_eq!(row.name, "TruthFinder");
        assert!(row.f1 > 0.0 && row.f1 <= 100.0);
        assert!(row.qt.wall_s >= 0.0);
        assert!(row.pt.wall_s > 0.0, "TF must spend prepare time");
        assert_eq!(row.qt.simulated_s, 0.0, "TF uses no LLM");
    }

    #[test]
    fn multirag_runner_reports_llm_time() {
        let data = MoviesSpec::small().generate(42);
        let row = run_multirag(&data, &data.graph, MultiRagConfig::default(), 42);
        assert!(row.f1 > 30.0, "MultiRAG F1 {}", row.f1);
        assert!(row.pt.simulated_s > 0.0, "LLM time must be attributed");
        assert!(row.answered_rate > 0.8);
    }

    #[test]
    fn multirag_beats_majority_vote_on_f1() {
        let data = MoviesSpec::small().generate(42);
        let mr = run_multirag(&data, &data.graph, MultiRagConfig::default(), 42);
        let mut mv = MajorityVote;
        let mv_row = run_fusion_method(&data, &data.graph, &mut mv);
        assert!(mr.f1 > mv_row.f1, "MultiRAG {} vs MV {}", mr.f1, mv_row.f1);
    }

    #[test]
    fn llm_methods_report_simulated_time() {
        let data = MoviesSpec::small().generate(42);
        let mut rag = StandardRag::new(42);
        let row = run_fusion_method(&data, &data.graph, &mut rag);
        assert!(row.qt.simulated_s > 0.0);
        assert!(row.total_time_s() >= row.qt.simulated_s);
    }

    #[test]
    fn multihop_runner_scores_multirag() {
        let data = MultiHopSpec::small(MultiHopFlavor::Hotpot).generate(42);
        let row = run_multirag_multihop(&data, MultiRagConfig::default(), 42);
        assert!(row.precision > 40.0, "precision {}", row.precision);
        assert!(row.recall_at_5 > 40.0, "recall {}", row.recall_at_5);
        assert!(row.recall_std >= 0.0);
    }

    #[test]
    fn restricted_graphs_run_end_to_end() {
        let data = MoviesSpec::small().generate(42);
        let graph = data.restricted_graph(&["json", "kg"]);
        let row = run_multirag(&data, &graph, MultiRagConfig::default(), 42);
        assert!(row.f1 > 0.0);
    }

    #[test]
    fn runs_are_deterministic_modulo_wall_time() {
        let data = MoviesSpec::small().generate(42);
        let a = run_multirag(&data, &data.graph, MultiRagConfig::default(), 42);
        let b = run_multirag(&data, &data.graph, MultiRagConfig::default(), 42);
        assert_eq!(a.f1, b.f1);
        assert_eq!(a.hallucination_rate, b.hallucination_rate);
        assert_eq!(a.pt.simulated_s, b.pt.simulated_s);
    }
}
