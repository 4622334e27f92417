//! Loop-aware query fan-out.
//!
//! Runs the MKLGP pipeline with an escalation budget
//! ([`multirag_core::LoopConfig`]) over a dataset and returns the raw
//! per-query material the `repro_loop` harness needs: the answers in
//! query order and each query's metered service time in integer
//! microseconds (the workspace time convention). The serving crate's
//! closed-loop simulator turns those times into latency percentiles —
//! this crate stays below `multirag-serve` in the dependency order, so
//! the queueing model is applied by the binary, not here.
//!
//! The fan-out is *bit-transparent*: outcomes, service times and the
//! usage total are byte-identical at any worker count. Three properties
//! make that true by construction:
//!
//! 1. **Frozen history.** The base pipeline's credibility store is
//!    frozen before it is cloned, so every worker answers against the
//!    same `Auth_hist` snapshot regardless of completion order (the
//!    per-query feedback writes become no-ops).
//! 2. **Per-cell metering.** Each cell resets its worker's LLM usage
//!    meter before answering, so the delta it reports depends only on
//!    the query — not on which worker ran it or what that worker ran
//!    before. With escalation enabled the loop's grading and
//!    regeneration calls are part of that delta.
//! 3. **Input-order reduction.** Results come back from
//!    [`parallel_map_with`] in query order, and usage is merged in that
//!    order.

use crate::parallel::parallel_map_with;
use multirag_core::{LoopConfig, MklgpPipeline, MultiRagConfig, PipelineAnswer};
use multirag_datasets::spec::MultiSourceDataset;
use multirag_faults::{ms_to_us, FaultPlan};
use multirag_ingest::RawSource;
use multirag_kg::KnowledgeGraph;
use multirag_llmsim::LlmUsage;

/// Everything one loop-aware sweep produced, in query order.
#[derive(Debug, Clone)]
pub struct LoopSweep {
    /// One answer per dataset query, in query order.
    pub answers: Vec<PipelineAnswer>,
    /// Metered per-query service time in integer microseconds (LLM
    /// meter delta; every charge is µs-exact by construction).
    pub service_us: Vec<u64>,
    /// Summed LLM usage across all queries (order-independent).
    pub usage: LlmUsage,
}

impl LoopSweep {
    /// Queries whose final answer hallucinated.
    pub fn hallucinated(&self) -> usize {
        self.answers.iter().filter(|a| a.hallucinated).count()
    }

    /// Queries that abstained (any reason).
    pub fn abstained(&self) -> usize {
        self.answers.iter().filter(|a| a.abstained).count()
    }

    /// Abstentions specifically from an exhausted escalation budget.
    pub fn escalation_exhausted(&self) -> usize {
        self.answers
            .iter()
            .filter(|a| {
                matches!(
                    a.abstain_reason,
                    Some(multirag_core::AbstainReason::EscalationExhausted { .. })
                )
            })
            .count()
    }

    /// Total escalation attempts spent across all queries.
    pub fn escalation_attempts(&self) -> u64 {
        self.answers
            .iter()
            .map(|a| u64::from(a.escalation_attempts))
            .sum()
    }
}

/// Tunables for one loop-aware sweep.
#[derive(Debug, Clone, Default)]
pub struct LoopSweepConfig {
    /// Pipeline configuration.
    pub config: MultiRagConfig,
    /// Closed-loop budget; `None` runs the single-pass baseline.
    pub loopcfg: Option<LoopConfig>,
    /// Optional fault plan (grader/generator chaos).
    pub fault_plan: Option<FaultPlan>,
    /// Reserve sources for the consult rung.
    pub reserves: Vec<RawSource>,
}

/// Runs the closed-loop pipeline over `data` with query-level fan-out.
/// Outcomes are byte-identical for any `workers >= 1` and across
/// repeated runs with the same seed.
pub fn run_loop_sweep(
    data: &MultiSourceDataset,
    graph: &KnowledgeGraph,
    sweep: &LoopSweepConfig,
    seed: u64,
    workers: usize,
) -> LoopSweep {
    let mut base = MklgpPipeline::new(graph, sweep.config, seed);
    if let Some(plan) = &sweep.fault_plan {
        base = base.with_fault_plan(plan.clone());
    }
    if let Some(cfg) = sweep.loopcfg {
        base = base.with_loop_control(cfg);
    }
    if !sweep.reserves.is_empty() {
        base = base.with_reserve_sources(&sweep.reserves);
    }
    // Frozen credibility: every worker clone answers against the same
    // Auth_hist snapshot, so answers are pure functions of the query.
    base.history().freeze();

    let cells = parallel_map_with(
        data.queries.clone(),
        workers.max(1),
        |_worker| base.clone(),
        |pipeline, query| {
            pipeline.reset_usage();
            let answer = pipeline.answer(&query);
            (answer, pipeline.llm().usage())
        },
    );
    let mut out = LoopSweep {
        answers: Vec::with_capacity(cells.len()),
        service_us: Vec::with_capacity(cells.len()),
        usage: LlmUsage::default(),
    };
    for (answer, cell_usage) in cells {
        out.service_us.push(ms_to_us(cell_usage.simulated_ms));
        out.usage.merge(&cell_usage);
        out.answers.push(answer);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_datasets::movies::MoviesSpec;
    use multirag_datasets::{perturb, render};
    use proptest::prelude::*;

    fn conflicted() -> MultiSourceDataset {
        let data = MoviesSpec::small().generate(42);
        let data = perturb::inject_conflicts(&data, 0.35, 42);
        perturb::mask_relations(&data, 0.2, 42)
    }

    fn sweep_config(max_attempts: u32, grader_failure_rate: f64) -> LoopSweepConfig {
        LoopSweepConfig {
            config: MultiRagConfig::default(),
            loopcfg: Some(LoopConfig::default().with_max_attempts(max_attempts)),
            fault_plan: Some(FaultPlan {
                grader_failure_rate,
                ..FaultPlan::healthy(42)
            }),
            reserves: render::render_all_sources(&MoviesSpec::small().generate(42)),
        }
    }

    fn fingerprint(sweep: &LoopSweep) -> Vec<(Vec<String>, bool, bool, u32, u64)> {
        sweep
            .answers
            .iter()
            .zip(&sweep.service_us)
            .map(|(a, &us)| {
                (
                    a.values
                        .iter()
                        .map(multirag_kg::Value::canonical_key)
                        .collect(),
                    a.abstained,
                    a.hallucinated,
                    a.escalation_attempts,
                    us,
                )
            })
            .collect()
    }

    #[test]
    fn loop_sweep_reduces_hallucination_and_charges_time() {
        let data = conflicted();
        let baseline = run_loop_sweep(&data, &data.graph, &LoopSweepConfig::default(), 42, 2);
        let looped = run_loop_sweep(&data, &data.graph, &sweep_config(2, 0.0), 42, 2);
        assert!(baseline.hallucinated() > 0, "perturbation must bite");
        assert!(looped.hallucinated() < baseline.hallucinated());
        assert!(
            looped.usage.simulated_ms > baseline.usage.simulated_ms,
            "escalation must cost metered time"
        );
        let base_total: u64 = baseline.service_us.iter().sum();
        let loop_total: u64 = looped.service_us.iter().sum();
        assert!(loop_total > base_total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Satellite 3: loop outcomes are bit-identical across repeated
        /// runs and invariant to the fan-out worker count, for any
        /// attempt budget and grader fault rate.
        #[test]
        fn loop_outcomes_are_replayable_and_worker_count_invariant(
            max_attempts in 1u32..=3,
            fault_pct in prop_oneof![Just(0u32), Just(5), Just(25)],
        ) {
            let data = conflicted();
            let cfg = sweep_config(max_attempts, f64::from(fault_pct) / 100.0);
            let one = run_loop_sweep(&data, &data.graph, &cfg, 42, 1);
            let two = run_loop_sweep(&data, &data.graph, &cfg, 42, 2);
            let four = run_loop_sweep(&data, &data.graph, &cfg, 42, 4);
            let again = run_loop_sweep(&data, &data.graph, &cfg, 42, 4);
            prop_assert_eq!(fingerprint(&one), fingerprint(&two));
            prop_assert_eq!(fingerprint(&one), fingerprint(&four));
            prop_assert_eq!(fingerprint(&four), fingerprint(&again));
            prop_assert_eq!(one.usage, four.usage);
        }
    }
}
