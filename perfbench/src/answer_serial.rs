//! answer-serial: one client, one long-lived `MklgpPipeline` per
//! dataset, every covered slot asked in a seeded interleaved order, no
//! caches. Isolates the per-query path.
//!
//! A run is a sequence of identical rounds: set up from raw text (one
//! `setup_s` sample), then ask the whole question order `PASSES` times
//! on that round's pipelines. Every round does the same work and gives
//! the same answers whatever the speed of the machine, and the set-up
//! samples spread over the run like the answer samples do.

use crate::common::{self, AnswerTally, Layers, StageTally};
use crate::inputs::{self, Dataset};
use crate::report::{metric, Outcome, RunCfg};
use crate::stats::{debug_digest, Samples};
use crate::trace::{count_allocs, peak_rss_mib, Tracer};
use multirag_core::{MklgpPipeline, MultiRagConfig};
use multirag_datasets::Query;
use multirag_kg::KnowledgeGraph;
use multirag_obs::{ObsHandle, Observer};

const SETUP_CALLS: [&str; 3] = [
    "ingest.fuse_sources_with",
    "ingest.load_into_graph",
    "core.MklgpPipeline::new",
];

/// Passes over the question order per round.
const PASSES: usize = 4;

/// The run's fixed inputs: the datasets, their questions, the order
/// they are asked in, and the gate's reference digest of every answer
/// of a round.
struct Plan {
    data: Vec<Dataset>,
    questions: Vec<Vec<Query>>,
    order: Vec<(usize, usize)>,
    reference: Vec<u64>,
}

/// What the rounds measured, counted and checked.
#[derive(Default)]
struct Log {
    setup: Samples,
    /// Per round: the p50 and p99 answer wall (µs) and the answers per
    /// second of answer wall. Reported as medians over rounds, so the
    /// benchmark's own memory does not grow with the run and a slow
    /// phase of the machine moves only the rounds it covers.
    round_p50_us: Samples,
    round_p99_us: Samples,
    round_rate: Samples,
    tally: AnswerTally,
    answered: u64,
    mismatches: u64,
    stages: StageTally,
    /// Allocations and bytes inside the counted `answer` calls.
    allocs: (u64, u64),
    /// Pipeline counters over the observed rounds.
    profiles: u64,
    nmi_pairs: u64,
    pruned: u64,
    llm_calls: u64,
    sim_ms: f64,
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let plan = plan(cfg);
    let mut tracer = Tracer::new(false);
    let mut warm = Log::default();
    rounds(cfg, &plan, cfg.warmup_s, &mut warm, false, &mut tracer);
    let mut log = Log::default();
    let mut overhead = 0.0;
    let mut traced_answers = 0;
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let (plain_s, plain_n) = rounds(cfg, &plan, half, &mut log, false, &mut tracer);
        tracer.set_recording(true);
        let (traced_s, traced_n) = rounds(cfg, &plan, half, &mut log, true, &mut tracer);
        overhead = (traced_s / traced_n as f64) / (plain_s / plain_n as f64) - 1.0;
        traced_answers = traced_n;
    } else {
        rounds(cfg, &plan, cfg.seconds, &mut log, false, &mut tracer);
    }
    let peak_mib = peak_rss_mib();

    let mut out = Outcome {
        attempted: warm.answered + log.answered,
        mismatches: warm.mismatches + log.mismatches,
        ..Outcome::default()
    };
    out.failed = out.mismatches;
    let counts: Vec<String> = plan
        .data
        .iter()
        .zip(&plan.questions)
        .map(|(d, q)| format!("{} {}", d.domain, q.len()))
        .collect();
    out.notes.push(format!(
        "questions: {} ({}), {PASSES} passes per round",
        plan.order.len(),
        counts.join(", ")
    ));
    out.notes.push(format!(
        "gate answer-serial: {} answers ({} rounds) against a fresh-pipeline replay, {} mismatches",
        out.attempted,
        warm.setup.len() + log.setup.len(),
        out.mismatches
    ));

    if !cfg.trace {
        let rounds = log.round_p50_us.len();
        let per_round = |what: &str| {
            format!(
                "median over rounds of the round's {what} ({} answers a round)",
                plan.reference.len()
            )
        };
        out.notes
            .push(log.round_p50_us.describe("p50 answer wall per round"));
        out.metrics = vec![
            metric(
                "setup_s",
                log.setup.median(),
                "s",
                log.setup.len(),
                "median of the measured rounds' set-ups",
            ),
            metric(
                "latency_p50_us",
                log.round_p50_us.median(),
                "us",
                rounds,
                per_round("p50 per answer call"),
            ),
            metric(
                "latency_tail_us",
                log.round_p99_us.median(),
                "us",
                rounds,
                per_round("p99 per answer call"),
            ),
            metric(
                "throughput_per_s",
                log.round_rate.median(),
                "1/s",
                rounds,
                per_round("answers / answer wall"),
            ),
            metric("peak_rss_mb", peak_mib, "MiB", 1, "process peak"),
            metric(
                "f1",
                log.tally.scores.f1(),
                "ratio",
                log.tally.answers as usize,
                "micro set F1",
            ),
            metric(
                "hallucination_rate",
                log.tally.hallucination_rate(),
                "ratio",
                log.tally.answers as usize,
                "share of answers",
            ),
        ];
        return out;
    }

    let mut layers = Layers::from_setup(&tracer, &SETUP_CALLS, &mut out.notes);
    let bytes: usize = plan.data.iter().map(Dataset::raw_bytes).sum();
    layers.set_ingest_rate(&tracer, bytes, 0);
    let graphs: Vec<KnowledgeGraph> = plan.data.iter().map(common::ingest_untimed).collect();
    let graph_refs: Vec<&KnowledgeGraph> = graphs.iter().collect();
    layers.builds = common::replay_builds(cfg, &graph_refs, &[], &mut tracer);
    layers.answers = traced_answers;
    layers.tindex_pruned = log.pruned;
    layers.profiles = log.profiles;
    layers.nmi_pairs = log.nmi_pairs;
    layers.llm_calls = log.llm_calls;
    layers.sim_ms = log.sim_ms;
    layers.kept = log.tally.kept;
    layers.examined = log.tally.examined;
    layers.allocs = (log.allocs.0, log.allocs.1, traced_answers);
    layers.trace_overhead_frac = overhead;
    out.notes.push(common::answer_reconciliation(&log.stages));
    layers.stages = log.stages;
    out.metrics = layers.metrics();
    out.notes.push(format!("trace_overhead_frac {overhead:.4}"));
    out.trace = Some(tracer);
    out
}

/// Generates the inputs and, before any timer starts, the gate's
/// reference: one round's answers on fresh pipelines, one dataset
/// after another (each dataset's pipeline sees only its own questions,
/// in order; Step-5 feedback makes answers depend on that order).
fn plan(cfg: &RunCfg) -> Plan {
    let data = inputs::datasets(cfg.scale, cfg.seed);
    let graphs: Vec<KnowledgeGraph> = data.iter().map(common::ingest_untimed).collect();
    let questions: Vec<Vec<Query>> = data
        .iter()
        .zip(&graphs)
        .map(|(d, g)| inputs::slot_questions(d, g))
        .collect();
    let counts: Vec<usize> = questions.iter().map(Vec::len).collect();
    let order = inputs::interleave(&counts, cfg.seed);
    let mut reference = vec![0; PASSES * order.len()];
    for (d, graph) in graphs.iter().enumerate() {
        let mut fresh = MklgpPipeline::new(graph, MultiRagConfig::default(), cfg.seed);
        for (k, digest) in reference.iter_mut().enumerate() {
            let (dk, i) = order[k % order.len()];
            if dk == d {
                *digest = debug_digest(&fresh.answer(&questions[d][i]));
            }
        }
    }
    Plan {
        data,
        questions,
        order,
        reference,
    }
}

/// Runs whole rounds until `budget_s` of answer wall time has been
/// measured; returns that time and the answers given. With `observe`
/// (the traced half) each answer's stages are taken and its
/// allocations counted.
fn rounds(
    cfg: &RunCfg,
    plan: &Plan,
    budget_s: f64,
    log: &mut Log,
    observe: bool,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let (mut used, mut answered) = (0.0, 0);
    while used < budget_s {
        let rep = log.setup.len() as u64;
        let root = tracer.begin("setup", None, rep);
        let parent = root.idx();
        let graphs: Vec<KnowledgeGraph> = plan
            .data
            .iter()
            .map(|d| common::ingest(&d.raw, tracer, parent, rep))
            .collect();
        let mut pipes: Vec<MklgpPipeline<'_>> = graphs
            .iter()
            .map(|g| {
                tracer
                    .time("core.MklgpPipeline::new", parent, rep, || {
                        MklgpPipeline::new(g, MultiRagConfig::default(), cfg.seed)
                    })
                    .0
            })
            .collect();
        log.setup.push(tracer.end(root));
        let observers: Vec<ObsHandle> = if observe {
            let obs: Vec<ObsHandle> = pipes.iter().map(|_| Observer::new()).collect();
            pipes = pipes
                .into_iter()
                .zip(&obs)
                .map(|(p, o)| p.with_observer(o.clone()))
                .collect();
            obs
        } else {
            Vec::new()
        };
        let calls_before: (u64, f64) = pipes.iter().fold((0, 0.0), |acc, p| {
            let u = p.llm().usage();
            (acc.0 + u.calls, acc.1 + u.simulated_ms)
        });
        let mut walls_us = Samples::default();
        for (k, &reference) in plan.reference.iter().enumerate() {
            let (d, i) = plan.order[k % plan.order.len()];
            let query = &plan.questions[d][i];
            let open = tracer.begin("core.answer", None, log.answered);
            let parent = open.idx();
            let answer = if observe {
                let (answer, (allocs, bytes)) = count_allocs(|| pipes[d].answer(query));
                log.allocs.0 += allocs;
                log.allocs.1 += bytes;
                answer
            } else {
                pipes[d].answer(query)
            };
            let wall = tracer.end(open);
            used += wall;
            walls_us.push(wall * 1e6);
            if observe {
                log.stages.take(&observers[d], Some(wall), tracer, parent);
            }
            log.mismatches += u64::from(debug_digest(&answer) != reference);
            log.answered += 1;
            log.tally.add(&answer, query);
        }
        answered += plan.reference.len() as u64;
        log.round_p50_us.push(walls_us.percentile(50.0));
        log.round_p99_us.push(walls_us.percentile(99.0));
        log.round_rate
            .push(walls_us.len() as f64 / (walls_us.sum() / 1e6));
        if observe {
            for p in &pipes {
                log.profiles += p.kernel_counters().profiles_built;
                log.nmi_pairs += p.kernel_counters().nmi_pairs;
                log.pruned += p.tindex_counters().candidates_pruned;
                log.llm_calls += p.llm().usage().calls;
                log.sim_ms += p.llm().usage().simulated_ms;
            }
            log.llm_calls -= calls_before.0;
            log.sim_ms -= calls_before.1;
        }
    }
    (used, answered)
}
