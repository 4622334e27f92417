//! serve-epochs: writes beside reads on movies. Requests are served in
//! waves on one shared `CacheStack`; every few waves the next slice of
//! held-out raw text is ingested, applied, published and swapped in.
//!
//! A run is a sequence of cycles. Each starts with a set-up from raw
//! text (one `setup_s` sample) and applies every held-out slice once,
//! so every cycle does the same work whatever the speed of the system.

use crate::common::{
    self, add_counters, compare, finish_layers, verdict_digests, writer_setup, Layers, ServeLog,
    StageTally,
};
use crate::inputs::{self, EpochInputs, WAVE, WAVES_PER_PUBLISH};
use crate::report::{metric, Outcome, RunCfg};
use crate::trace::{count_allocs, peak_rss_mib, Tracer};
use multirag_ingest::{FusionReport, RawSource};
use multirag_obs::{ObsHandle, Observer};
use multirag_serve::{
    serve_sequential, serve_sequential_observed, serve_with_admission, CacheStack, EpochIndex,
    EpochSnapshot, IndexWriter, ServeConfig, TripleUpdate,
};
use std::sync::Arc;

const SETUP_CALLS: [&str; 4] = [
    "ingest.fuse_sources_with",
    "ingest.load_into_graph",
    "serve.IndexWriter::new",
    "serve.IndexWriter::publish",
];

/// One cycle's serving state.
struct Live {
    writer: IndexWriter,
    index: EpochIndex,
    caches: CacheStack,
    wave: usize,
}

/// Where the run stands: the cycle in progress, if any.
#[derive(Default)]
struct Cursor {
    live: Option<Live>,
    cycle: usize,
    publishes: u64,
}

/// Applies held-out slice `slice` to `writer` and publishes it to
/// `index`, each call as a span under `parent`.
fn publish_slice(
    slice: &[RawSource],
    writer: &mut IndexWriter,
    index: &EpochIndex,
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
) {
    let fused = common::fuse(slice, tracer, parent, id);
    for update in updates(slice, &fused) {
        tracer.time("serve.IndexWriter::apply", parent, id, || {
            writer.apply(&update)
        });
    }
    tracer.time("serve.IndexWriter::publish_to", parent, id, || {
        writer.publish_to(index)
    });
}

fn config(cfg: &RunCfg) -> ServeConfig {
    ServeConfig {
        workers: cfg.workers,
        queue_depth: WAVE,
        ..ServeConfig::default()
    }
}

/// The gate's oracle, before any timer starts: every wave of every
/// distinct cycle through `serve_sequential` on the snapshot it will be
/// served from, with a fresh `CacheStack`, kept as verdict digests. A
/// repeated cycle is the same requests on identical snapshots, so its
/// oracle is the same. In a traced run the oracle is observed, which
/// yields the per-answer stage spans.
fn oracle(
    cfg: &RunCfg,
    epochs: &EpochInputs,
    mut observe: Option<(&ObsHandle, &mut StageTally, &mut ServeLog)>,
    tracer: &mut Tracer,
) -> Vec<Vec<Vec<u64>>> {
    let untimed = &mut Tracer::new(false);
    epochs
        .cycles
        .iter()
        .map(|stream| {
            let (mut writer, index) = writer_setup(&epochs.initial, cfg, untimed, None, 0);
            (0..epochs.waves())
                .map(|wave| {
                    if wave > 0 && wave.is_multiple_of(WAVES_PER_PUBLISH) {
                        let slice = &epochs.slices[wave / WAVES_PER_PUBLISH - 1];
                        publish_slice(slice, &mut writer, &index, untimed, None, 0);
                    }
                    let snap = index.load();
                    let requests = &stream[wave * WAVE..(wave + 1) * WAVE];
                    let (fresh, config) = (CacheStack::new(), config(cfg));
                    let responses = match observe.as_mut() {
                        Some((obs, stages, log)) => {
                            let open =
                                tracer.begin("serve.serve_sequential_observed", None, wave as u64);
                            let parent = open.idx();
                            let r =
                                serve_sequential_observed(&snap, &fresh, &config, requests, obs);
                            tracer.end(open);
                            stages.take(obs, None, tracer, parent);
                            log.count_claims(&r);
                            r
                        }
                        None => serve_sequential(&snap, &fresh, &config, requests),
                    };
                    verdict_digests(&responses)
                })
                .collect()
        })
        .collect()
}

/// Serves whole cycles, setting up at the start of each and publishing
/// a slice every `WAVES_PER_PUBLISH` waves, until `budget_s` of wave
/// and publish wall time has been measured. Every wave is checked
/// against the oracle's digests, untimed. Allocations inside the
/// engine calls are counted when `count` is set.
#[allow(clippy::too_many_arguments)]
fn serve(
    cfg: &RunCfg,
    epochs: &EpochInputs,
    oracle: &[Vec<Vec<u64>>],
    cursor: &mut Cursor,
    budget_s: f64,
    log: &mut ServeLog,
    count: bool,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let config = config(cfg);
    let (mut used, mut served) = (0.0, 0u64);
    while used < budget_s || cursor.live.is_some() {
        let live = match &mut cursor.live {
            Some(live) => live,
            None => {
                let rep = log.setup.len() as u64;
                let root = tracer.begin("setup", None, rep);
                let parent = root.idx();
                let (writer, index) = writer_setup(&epochs.initial, cfg, tracer, parent, rep);
                log.setup.push(tracer.end(root));
                cursor.live.insert(Live {
                    writer,
                    index,
                    caches: CacheStack::new(),
                    wave: 0,
                })
            }
        };
        if live.wave > 0 && live.wave.is_multiple_of(WAVES_PER_PUBLISH) {
            let slice = &epochs.slices[live.wave / WAVES_PER_PUBLISH - 1];
            let id = cursor.publishes;
            let open = tracer.begin("publish", None, id);
            let parent = open.idx();
            publish_slice(slice, &mut live.writer, &live.index, tracer, parent, id);
            tracer.time("serve.CacheStack::on_epoch_swap", parent, id, || {
                live.caches.on_epoch_swap()
            });
            let wall = tracer.end(open);
            used += wall;
            log.fresh_us.push(wall * 1e6);
            cursor.publishes += 1;
            if parent.is_some() {
                log.live_bytes += slice.iter().map(|r| r.content.len()).sum::<usize>();
            }
        }
        let cycle = cursor.cycle % epochs.cycles.len();
        let requests = &epochs.cycles[cycle][live.wave * WAVE..(live.wave + 1) * WAVE];
        let batch = requests.to_vec();
        let open = tracer.begin("wave", None, log.latency_us.len() as u64);
        let responses = if count {
            let (r, (a, b)) = count_allocs(|| {
                serve_with_admission(&live.index.load(), &live.caches, &config, batch)
            });
            log.allocs = (
                log.allocs.0 + a,
                log.allocs.1 + b,
                log.allocs.2 + WAVE as u64,
            );
            r
        } else {
            serve_with_admission(&live.index.load(), &live.caches, &config, batch)
        };
        let wall = tracer.end(open);
        used += wall;
        log.latency_us.push(wall * 1e6);
        log.mismatches += compare(
            &responses,
            &oracle[cycle][live.wave],
            requests,
            &mut log.tally,
            &mut log.sheds,
        );
        log.requests += WAVE as u64;
        served += WAVE as u64;
        live.wave += 1;
        if live.wave == epochs.waves() {
            add_counters(&mut log.caches, live.caches.counters());
            cursor.live = None;
            cursor.cycle += 1;
        }
    }
    (used, served)
}

/// A held-out slice's fused claims as writer updates, in fusion order.
fn updates(slice: &[RawSource], fused: &FusionReport) -> Vec<TripleUpdate> {
    fused
        .adapted
        .iter()
        .flat_map(|(source, adapted)| {
            adapted.claims.iter().map(|claim| TripleUpdate {
                entity: claim.entity.clone(),
                relation: claim.attribute.clone(),
                value: claim.value.clone(),
                source: slice[*source].name.clone(),
                chunk: claim.chunk,
            })
        })
        .collect()
}

/// The epoch of the initial graph and the epoch with every held-out
/// slice applied, built untimed: build replays run on these fixed
/// snapshots, whichever epoch the measured region ended in.
fn end_snapshots(cfg: &RunCfg, epochs: &EpochInputs) -> [Arc<EpochSnapshot>; 2] {
    let untimed = &mut Tracer::new(false);
    let (mut writer, index) = writer_setup(&epochs.initial, cfg, untimed, None, 0);
    let first = index.load();
    for slice in &epochs.slices {
        publish_slice(slice, &mut writer, &index, untimed, None, 0);
    }
    [first, index.load()]
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let movies = inputs::movies_dataset(cfg.scale, cfg.seed);
    let pool = inputs::slot_questions(&movies, &common::ingest_untimed(&movies));
    let epochs = inputs::epoch_inputs(&movies, &pool, cfg.seed);
    let mut tracer = Tracer::new(false);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "epochs: {} cycles of {} waves of {} requests, {} slots per epoch, {} held-out slices, {} workers",
        epochs.cycles.len(),
        epochs.waves(),
        WAVE,
        inputs::EPOCH_QUERIES,
        epochs.slices.len(),
        cfg.workers
    ));
    let mut log = ServeLog::default();
    let obs = Observer::new();
    let mut stages = StageTally::default();
    let observe = cfg.trace.then_some((&obs, &mut stages, &mut log));
    tracer.set_recording(cfg.trace);
    let oracle = oracle(cfg, &epochs, observe, &mut tracer);
    tracer.set_recording(false);
    let mut cursor = Cursor::default();
    let mut warm = ServeLog::default();
    let mut run = |budget_s, log: &mut ServeLog, count, tracer: &mut Tracer| {
        serve(
            cfg,
            &epochs,
            &oracle,
            &mut cursor,
            budget_s,
            log,
            count,
            tracer,
        )
    };
    run(cfg.warmup_s, &mut warm, false, &mut tracer);
    let mut overhead = 0.0;
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let (plain_s, plain_n) = run(half, &mut log, false, &mut tracer);
        tracer.set_recording(true);
        let (traced_s, traced_n) = run(half, &mut log, true, &mut tracer);
        overhead = (traced_s / traced_n as f64) / (plain_s / plain_n as f64) - 1.0;
    } else {
        run(cfg.seconds, &mut log, false, &mut tracer);
    }
    let peak_mib = peak_rss_mib();
    out.gate(&[&warm, &log]);
    out.notes.push(format!(
        "gate serve-epochs: {} waves checked against serve_sequential, {} mismatches, {} shed",
        warm.latency_us.len() + log.latency_us.len(),
        out.mismatches,
        out.failed - out.mismatches
    ));
    let waves = &log.latency_us;
    let used_s = (waves.sum() + log.fresh_us.sum()) / 1e6;
    if !cfg.trace {
        out.notes.push(waves.describe("wave wall"));
        out.metrics = vec![
            metric(
                "setup_s",
                log.setup.median(),
                "s",
                log.setup.len(),
                "median of the measured cycles' set-ups",
            ),
            metric(
                "latency_p50_us",
                waves.percentile(50.0),
                "us",
                waves.len(),
                "p50 per wave",
            ),
            metric(
                "latency_tail_us",
                waves.percentile(90.0),
                "us",
                waves.len(),
                "p90 per wave",
            ),
            metric(
                "throughput_per_s",
                log.requests as f64 / used_s,
                "1/s",
                log.requests as usize,
                "requests / (wave + publish wall)",
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
        out.notes.push(format!(
            "freshness: publish p50 {:.1} us over {} publishes",
            log.fresh_us.median(),
            log.fresh_us.len()
        ));
        return out;
    }
    let mut layers = Layers::from_setup(&tracer, &SETUP_CALLS, &mut out.notes);
    layers.publish_us = tracer
        .durations("serve.IndexWriter::publish_to")
        .into_iter()
        .map(|s| s * 1e6)
        .collect();
    layers.apply_us = tracer
        .roots("publish")
        .into_iter()
        .map(|p| tracer.child_sum(p, "serve.IndexWriter::apply") * 1e6)
        .collect();
    layers.fresh_us = log.fresh_us.clone();
    let snaps = end_snapshots(cfg, &epochs);
    let setup_bytes: usize = epochs.initial.iter().map(|r| r.content.len()).sum();
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
    out
}
