//! Deterministic slot/query fan-out for the MKLGP pipeline.
//!
//! Parallelism here is *bit-transparent*: a sweep at any worker count
//! produces byte-identical outcomes, traces and usage totals to a
//! serial run. Three properties make that true by construction:
//!
//! 1. **Frozen history.** [`run_multirag_fanout`] freezes the base
//!    pipeline's credibility store before cloning it, so every worker
//!    answers against the same `Auth_hist` snapshot regardless of
//!    completion order (the per-query feedback writes become no-ops).
//! 2. **Per-cell metering.** Each cell resets its worker's LLM usage
//!    meter (and snapshots kernel counters) before running, so the
//!    delta it reports depends only on the item — not on which worker
//!    ran it or what that worker ran before.
//! 3. **Slot-order reduction.** Results come back from
//!    [`parallel_map_with`] in input order; usage and counters are
//!    merge-reduced in that order, and traces are republished to the
//!    observer in query order after the join.

use crate::harness::MethodResult;
use crate::metrics::SetScores;
use crate::parallel::parallel_map_with;
use crate::timing::TimeReport;
use multirag_core::{KernelCounters, MccOutcome, MklgpPipeline, MultiRagConfig};
use multirag_datasets::spec::MultiSourceDataset;
use multirag_kg::KnowledgeGraph;
use multirag_llmsim::LlmUsage;
use multirag_obs::{ObsHandle, WallTimer};

/// The result of a parallel slot-level MCC sweep: outcomes in slot
/// order plus the merge-reduced usage and kernel counters.
#[derive(Debug, Clone)]
pub struct MccSweep {
    /// One MCC outcome per homologous group, in slot-index order.
    pub outcomes: Vec<MccOutcome>,
    /// Summed LLM usage across all cells (order-independent).
    pub usage: LlmUsage,
    /// Summed kernel op counters across all cells.
    pub counters: KernelCounters,
}

/// Runs MCC over every homologous group of `pipeline`'s slot index,
/// fanned out across `workers` threads. Each worker is a
/// [`multirag_core::MccWorker`] split off the pipeline (own LLM
/// stream, own interner, shared history snapshot); outcomes come back
/// in slot order and are byte-identical at any worker count.
pub fn mcc_sweep(pipeline: &MklgpPipeline<'_>, workers: usize) -> MccSweep {
    let cells = parallel_map_with(
        pipeline.slot_groups(),
        workers.max(1),
        |_worker| pipeline.mcc_worker(),
        |worker, group| {
            worker.reset_usage();
            let before = worker.counters();
            let outcome = worker.run(&group);
            (outcome, worker.usage(), worker.counters().since(before))
        },
    );
    let mut sweep = MccSweep {
        outcomes: Vec::with_capacity(cells.len()),
        usage: LlmUsage::default(),
        counters: KernelCounters::default(),
    };
    for (outcome, usage, counters) in cells {
        sweep.usage.merge(&usage);
        sweep.counters.merge(counters);
        sweep.outcomes.push(outcome);
    }
    sweep
}

/// Runs the MKLGP pipeline over a dataset with query-level fan-out:
/// the base pipeline is built once (consensus credibility seeding
/// included), its history store is frozen, and each worker thread
/// answers on its own clone. Answers, per-query traces and the
/// returned row are byte-identical for any `workers >= 1`.
///
/// When an observer is attached, per-query traces are published in
/// query order *after* the parallel join (workers never publish
/// directly), so serial and parallel trace exports compare equal with
/// `cmp`. Build-time spans and registry mirrors that
/// [`MklgpPipeline::with_observer`] would install are intentionally
/// not attached — concurrent registry updates would be
/// order-dependent.
pub fn run_multirag_fanout(
    data: &MultiSourceDataset,
    graph: &KnowledgeGraph,
    config: MultiRagConfig,
    seed: u64,
    workers: usize,
    obs: Option<ObsHandle>,
) -> MethodResult {
    let watch = WallTimer::start();
    let base = MklgpPipeline::new(graph, config, seed);
    // Freeze credibility for the sweep: every worker sees the
    // consensus-seeded snapshot, so answers are pure functions of the
    // query — not of which clone answered what first.
    base.history().freeze();
    let prepare_wall = watch.elapsed_s();
    let watch = WallTimer::start();

    let cells = parallel_map_with(
        data.queries.clone(),
        workers.max(1),
        |_worker| base.clone(),
        |pipeline, query| {
            pipeline.reset_usage();
            let (answer, trace) = pipeline.answer_traced(&query);
            (answer, trace, pipeline.llm().usage())
        },
    );
    let query_wall = watch.elapsed_s();

    let mut scores = SetScores::default();
    let mut usage = LlmUsage::default();
    let mut hallucinated = 0usize;
    let mut answered = 0usize;
    for ((answer, trace, cell_usage), query) in cells.into_iter().zip(&data.queries) {
        scores.add(&answer.fusion_values, &query.gold);
        if answer.hallucinated {
            hallucinated += 1;
        }
        if !answer.abstained {
            answered += 1;
        }
        usage.merge(&cell_usage);
        if let Some(obs) = &obs {
            obs.finish_query(trace);
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_datasets::movies::MoviesSpec;

    #[test]
    fn mcc_sweep_is_worker_count_invariant() {
        let data = MoviesSpec::small().generate(42);
        let pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let serial = mcc_sweep(&pipeline, 1);
        let parallel = mcc_sweep(&pipeline, 4);
        assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
        assert!(!serial.outcomes.is_empty(), "movies has homologous slots");
        for (a, b) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(a.gated, b.gated);
            assert_eq!(a.kept.len(), b.kept.len());
            assert_eq!(a.dropped.len(), b.dropped.len());
            for (x, y) in a.kept.iter().zip(&b.kept) {
                assert_eq!(x.triple, y.triple);
                assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
            }
            match (a.graph, b.graph) {
                (Some(x), Some(y)) => assert_eq!(x.value.to_bits(), y.value.to_bits()),
                (None, None) => {}
                _ => panic!("graph presence mismatch"),
            }
        }
        assert_eq!(serial.usage, parallel.usage, "merged usage is order-free");
        assert_eq!(serial.counters, parallel.counters);
    }

    #[test]
    fn fanout_rows_match_across_worker_counts() {
        let data = MoviesSpec::small().generate(42);
        let one = run_multirag_fanout(&data, &data.graph, MultiRagConfig::default(), 42, 1, None);
        let four = run_multirag_fanout(&data, &data.graph, MultiRagConfig::default(), 42, 4, None);
        assert_eq!(one.f1, four.f1);
        assert_eq!(one.precision, four.precision);
        assert_eq!(one.recall, four.recall);
        assert_eq!(one.hallucination_rate, four.hallucination_rate);
        assert_eq!(one.answered_rate, four.answered_rate);
        assert_eq!(one.pt.simulated_s, four.pt.simulated_s);
    }
}
