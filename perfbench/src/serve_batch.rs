//! serve-batch: each dataset's distinct slot questions go to
//! `serve_with_admission` as one batch on a fresh `CacheStack`, the
//! four datasets in turn. Measures the threaded engine on cold,
//! unshared traffic.
//!
//! A run is a sequence of identical chunks: set up the four datasets
//! from raw text (one `setup_s` sample), then serve `ROUNDS` rounds of
//! one batch per dataset on the new snapshots.

use crate::common::{
    add_counters, compare, finish_layers, verdict_digests, writer_setup, Layers, ServeLog,
    StageTally,
};
use crate::inputs::{self, Dataset};
use crate::report::{metric, Outcome, RunCfg, BUILD_REPLAYS};
use crate::stats::Samples;
use crate::trace::{count_allocs, peak_rss_mib, Tracer};
use multirag_obs::Observer;
use multirag_serve::{
    serve_sequential, serve_sequential_observed, serve_with_admission, CacheStack, EpochSnapshot,
    ServeConfig, ServeRequest,
};
use std::hint::black_box;
use std::sync::Arc;

const SETUP_CALLS: [&str; 4] = [
    "ingest.fuse_sources_with",
    "ingest.load_into_graph",
    "serve.IndexWriter::new",
    "serve.IndexWriter::publish",
];

/// Rounds served on each set-up's snapshots.
const ROUNDS: usize = 3;

fn config(cfg: &RunCfg, batch: usize) -> ServeConfig {
    ServeConfig {
        workers: cfg.workers,
        queue_depth: batch.max(1),
        ..ServeConfig::default()
    }
}

/// Raw text to one live snapshot per dataset, as one `setup` span.
/// Returns the snapshots and the set-up's wall time.
fn set_up(
    cfg: &RunCfg,
    data: &[Dataset],
    tracer: &mut Tracer,
    rep: u64,
) -> (Vec<Arc<EpochSnapshot>>, f64) {
    let root = tracer.begin("setup", None, rep);
    let parent = root.idx();
    let snaps = data
        .iter()
        .map(|d| writer_setup(&d.raw, cfg, tracer, parent, rep).1.load())
        .collect();
    (snaps, tracer.end(root))
}

/// Serves whole chunks until `budget_s` of engine wall time has been
/// measured, checking every batch against its dataset's oracle
/// responses. Allocations are counted when `count` is set.
#[allow(clippy::too_many_arguments)]
fn chunks(
    cfg: &RunCfg,
    data: &[Dataset],
    batches: &[Vec<ServeRequest>],
    oracles: &[Vec<u64>],
    budget_s: f64,
    log: &mut ServeLog,
    count: bool,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let (mut used, mut served) = (0.0, 0u64);
    while used < budget_s {
        let (snaps, wall) = set_up(cfg, data, tracer, log.setup.len() as u64);
        log.setup.push(wall);
        let chunk_s = used;
        for _ in 0..ROUNDS {
            let mut round = 0.0;
            for (d, (snap, batch)) in snaps.iter().zip(batches).enumerate() {
                let requests = batch.clone();
                let caches = CacheStack::new();
                let config = config(cfg, batch.len());
                let id = log.latency_us.len() as u64 * snaps.len() as u64 + d as u64;
                let open = tracer.begin("serve.serve_with_admission", None, id);
                let responses = if count {
                    let (r, (a, b)) =
                        count_allocs(|| serve_with_admission(snap, &caches, &config, requests));
                    log.allocs = (
                        log.allocs.0 + a,
                        log.allocs.1 + b,
                        log.allocs.2 + batch.len() as u64,
                    );
                    r
                } else {
                    serve_with_admission(snap, &caches, &config, requests)
                };
                let wall = tracer.end(open);
                round += wall;
                log.per_dataset_us[d].push(wall * 1e6);
                add_counters(&mut log.caches, caches.counters());
                log.mismatches += compare(
                    &responses,
                    &oracles[d],
                    batch,
                    &mut log.tally,
                    &mut log.sheds,
                );
                log.requests += batch.len() as u64;
                served += batch.len() as u64;
            }
            used += round;
            log.latency_us.push(round * 1e6);
        }
        let requests: usize = batches.iter().map(Vec::len).sum();
        log.chunk_rate
            .push((ROUNDS * requests) as f64 / (used - chunk_s));
    }
    (used, served)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let data = inputs::datasets(cfg.scale, cfg.seed);
    let mut tracer = Tracer::new(cfg.trace);
    // The questions and the gate's oracle come from one set-up outside
    // the timed region; every later set-up builds the same snapshots.
    let (snaps, _) = set_up(cfg, &data, &mut Tracer::new(false), 0);
    let batches: Vec<Vec<ServeRequest>> = data
        .iter()
        .zip(&snaps)
        .map(|(d, s)| inputs::batch(&inputs::slot_questions(d, &s.graph), cfg.seed))
        .collect();
    let mut out = Outcome::default();
    out.notes.push(format!(
        "batches: {} (workers {}, queue depth = batch size), {ROUNDS} rounds per set-up",
        data.iter()
            .zip(&batches)
            .map(|(d, b)| format!("{} {}", d.domain, b.len()))
            .collect::<Vec<_>>()
            .join(", "),
        cfg.workers
    ));
    let new_log = || ServeLog {
        per_dataset_us: vec![Samples::default(); data.len()],
        ..ServeLog::default()
    };
    let mut log = new_log();
    // Every batch of a dataset is the same request list on the same
    // snapshot, so the sequential oracle's responses (fresh
    // `CacheStack`) are computed once per dataset and every engine
    // batch is checked against their digests. In a traced run the
    // oracle is observed, which yields the per-answer stage spans.
    let obs = Observer::new();
    let mut stages = StageTally::default();
    let oracles: Vec<Vec<u64>> = snaps
        .iter()
        .zip(&batches)
        .enumerate()
        .map(|(d, (snap, batch))| {
            let config = config(cfg, batch.len());
            if !cfg.trace {
                return verdict_digests(&serve_sequential(
                    snap,
                    &CacheStack::new(),
                    &config,
                    batch,
                ));
            }
            let open = tracer.begin("serve.serve_sequential_observed", None, d as u64);
            let parent = open.idx();
            let r = serve_sequential_observed(snap, &CacheStack::new(), &config, batch, &obs);
            tracer.end(open);
            stages.take(&obs, None, &mut tracer, parent);
            log.count_claims(&r);
            verdict_digests(&r)
        })
        .collect();
    drop(snaps);
    let mut warm = new_log();
    tracer.set_recording(false);
    let run_chunks = |budget_s, log: &mut ServeLog, count, tracer: &mut Tracer| {
        chunks(cfg, &data, &batches, &oracles, budget_s, log, count, tracer)
    };
    run_chunks(cfg.warmup_s, &mut warm, false, &mut tracer);
    let mut overhead = 0.0;
    let mut engine_us = 0.0;
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let (plain_s, plain_n) = run_chunks(half, &mut log, false, &mut tracer);
        engine_us = log.per_dataset_us.iter().map(Samples::median).sum();
        tracer.set_recording(true);
        let (traced_s, traced_n) = run_chunks(half, &mut log, true, &mut tracer);
        overhead = (traced_s / traced_n as f64) / (plain_s / plain_n as f64) - 1.0;
    } else {
        run_chunks(cfg.seconds, &mut log, false, &mut tracer);
    }
    let peak_mib = peak_rss_mib();
    out.gate(&[&warm, &log]);
    out.notes.push(format!(
        "gate serve-batch: {} batches checked against serve_sequential, {} mismatches, {} shed",
        [&warm, &log]
            .iter()
            .flat_map(|l| &l.per_dataset_us)
            .map(Samples::len)
            .sum::<usize>(),
        out.mismatches,
        out.failed - out.mismatches
    ));
    if cfg.trace {
        let (snaps, _) = set_up(cfg, &data, &mut Tracer::new(false), 0);
        let serial_us = serial_loops(&snaps, &batches, &mut tracer);
        let mut layers = Layers::from_setup(&tracer, &SETUP_CALLS, &mut out.notes);
        layers.parallel_speedup = serial_us / engine_us;
        out.notes.push(format!(
            "parallel_speedup: bare serial answer loop {serial_us:.1} us / engine {engine_us:.1} us per round ({} workers)",
            cfg.workers
        ));
        let setup_bytes: usize = data.iter().map(Dataset::raw_bytes).sum();
        finish_layers(
            cfg,
            setup_bytes,
            &snaps,
            &mut layers,
            &log,
            stages,
            &obs,
            overhead,
            &mut tracer,
        );
        out.metrics = layers.metrics();
        out.notes.push(format!("trace_overhead_frac {overhead:.4}"));
        out.trace = Some(tracer);
        return out;
    }
    let rounds = &log.latency_us;
    out.notes.push(rounds.describe("round wall"));
    out.metrics = vec![
        metric(
            "setup_s",
            log.setup.median(),
            "s",
            log.setup.len(),
            "median of the measured chunks' set-ups",
        ),
        metric(
            "latency_p50_us",
            rounds.percentile(50.0),
            "us",
            rounds.len(),
            "p50 per round of four batches",
        ),
        // A 20-s run serves 45-60 rounds; p75 is the highest round
        // percentile that keeps at least ten rounds beyond it.
        metric(
            "latency_tail_us",
            rounds.percentile(75.0),
            "us",
            rounds.len(),
            "p75 per round of four batches",
        ),
        metric(
            "throughput_per_s",
            log.chunk_rate.median(),
            "1/s",
            log.chunk_rate.len(),
            format!("median over chunks of the chunk's requests / engine wall ({ROUNDS} rounds a chunk)"),
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
    out
}

/// Median wall of a bare serial `answer` loop (one bound pipeline) per
/// round, for the engine's parallel speed-up.
fn serial_loops(
    snaps: &[Arc<EpochSnapshot>],
    batches: &[Vec<ServeRequest>],
    tracer: &mut Tracer,
) -> f64 {
    snaps
        .iter()
        .zip(batches)
        .map(|(snap, batch)| {
            let mut s = Samples::default();
            for k in 0..BUILD_REPLAYS as u64 {
                let open = tracer.begin("serial.answer_loop", None, k);
                let mut pipeline = snap.pipeline();
                for r in batch {
                    black_box(pipeline.answer(&r.query));
                }
                s.push(tracer.end(open) * 1e6);
            }
            s.median()
        })
        .sum()
}
