//! Pieces every workload shares: traced ingest, answer tallies, the
//! serving correctness gate, build replays and the per-layer metric
//! set.

use crate::inputs::Dataset;
use crate::report::{metric, Metric, RunCfg, BUILD_REPLAYS};
use crate::stats::{debug_digest, Samples};
use crate::trace::Tracer;
use multirag_core::{MklgpPipeline, MultiRagConfig, MultiSourceLineGraph, PipelineAnswer};
use multirag_datasets::Query;
use multirag_eval::SetScores;
use multirag_ingest::{fuse_sources_with, load_into_graph, FusionReport, IngestMode, RawSource};
use multirag_kg::{KnowledgeGraph, TieredIndex};
use multirag_obs::{ObsHandle, QueryTrace};
use multirag_serve::{
    CacheCounters, EpochIndex, EpochSnapshot, IndexWriter, ServeRequest, ServeResponse,
    ServeVerdict,
};
use std::hint::black_box;

/// `fuse_sources_with` as one span. Rendered sources always parse.
pub fn fuse(
    raw: &[RawSource],
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
) -> FusionReport {
    tracer
        .time("ingest.fuse_sources_with", parent, id, || {
            fuse_sources_with(raw, IngestMode::Strict).expect("rendered sources parse")
        })
        .0
}

/// Raw text to graph: `fuse_sources_with`, then `load_into_graph`.
pub fn ingest(
    raw: &[RawSource],
    tracer: &mut Tracer,
    parent: Option<usize>,
    id: u64,
) -> KnowledgeGraph {
    let fused = fuse(raw, tracer, parent, id);
    tracer
        .time("ingest.load_into_graph", parent, id, || {
            load_into_graph(raw, &fused.adapted).expect("fusion indexes its own sources")
        })
        .0
}

pub fn ingest_untimed(data: &Dataset) -> KnowledgeGraph {
    ingest(&data.raw, &mut Tracer::new(false), None, 0)
}

/// Raw text to a live epoch: ingest, the writer, and its first publish.
pub fn writer_setup(
    raw: &[RawSource],
    cfg: &RunCfg,
    tracer: &mut Tracer,
    parent: Option<usize>,
    rep: u64,
) -> (IndexWriter, EpochIndex) {
    let graph = ingest(raw, tracer, parent, rep);
    let (mut writer, _) = tracer.time("serve.IndexWriter::new", parent, rep, || {
        IndexWriter::new(graph, MultiRagConfig::default(), cfg.seed)
    });
    let (first, _) = tracer.time("serve.IndexWriter::publish", parent, rep, || {
        writer.publish()
    });
    (writer, EpochIndex::new(first))
}

/// Answer quality and claim counts, accumulated per answer outside any
/// timed region.
#[derive(Debug, Default)]
pub struct AnswerTally {
    pub answers: u64,
    pub hallucinated: u64,
    pub scores: SetScores,
    pub kept: u64,
    pub examined: u64,
}

impl AnswerTally {
    pub fn add(&mut self, answer: &PipelineAnswer, query: &Query) {
        self.answers += 1;
        self.hallucinated += u64::from(answer.hallucinated);
        self.scores.add(&answer.values, &query.gold);
        self.kept += answer.kept.len() as u64;
        self.examined += answer.examined as u64;
    }

    pub fn hallucination_rate(&self) -> f64 {
        self.hallucinated as f64 / self.answers.max(1) as f64
    }
}

/// Digests of the sequential oracle's verdicts, which is all the gate
/// keeps of them.
pub fn verdict_digests(oracle: &[ServeResponse]) -> Vec<u64> {
    oracle.iter().map(|r| debug_digest(&r.verdict)).collect()
}

/// Serving's correctness gate: the engine's responses against the
/// sequential oracle's verdict digests, answer for answer. Returns
/// mismatches; sheds are counted separately as failed requests.
pub fn compare(
    engine: &[ServeResponse],
    oracle: &[u64],
    requests: &[ServeRequest],
    tally: &mut AnswerTally,
    sheds: &mut u64,
) -> u64 {
    let mut mismatches = (engine.len() != oracle.len()) as u64;
    for ((e, &o), r) in engine.iter().zip(oracle).zip(requests) {
        match &e.verdict {
            ServeVerdict::Answered(answer) => {
                tally.add(answer, &r.query);
                mismatches += u64::from(e.seq != r.seq || debug_digest(&e.verdict) != o);
            }
            ServeVerdict::Overloaded => *sheds += 1,
        }
    }
    mismatches
}

pub fn add_counters(total: &mut CacheCounters, c: CacheCounters) {
    total.result_hits += c.result_hits;
    total.result_misses += c.result_misses;
    total.memo_hits += c.memo_hits;
    total.memo_misses += c.memo_misses;
    total.llm_hits += c.llm_hits;
    total.llm_misses += c.llm_misses;
}

fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Pipeline stages the observer reports per computed answer.
pub const STAGES: [&str; 4] = [
    "homologous_group",
    "graph_confidence",
    "node_confidence",
    "generation",
];

/// Per-answer stage times from the `StageSpan`s in observer traces.
#[derive(Debug, Default)]
pub struct StageTally {
    pub per_stage: [Samples; 4],
    pub unattributed: Samples,
    pub answers: u64,
    pub sim_ms: f64,
    /// Wall time of the answers measured one by one.
    pub answer_wall: Samples,
}

impl StageTally {
    /// Adds one answer's trace, recording its stages as children of
    /// `parent`. `wall_s` is the answer's own wall time when the caller
    /// measured it.
    pub fn add(
        &mut self,
        trace: &QueryTrace,
        wall_s: Option<f64>,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) {
        let mut sums = [0.0f64; 4];
        for span in &trace.spans {
            let name = span.stage.name();
            if let Some(k) = STAGES.iter().position(|s| *s == name) {
                sums[k] += span.wall_s;
                tracer.stage(parent, STAGES[k], span.wall_s);
            }
        }
        for (samples, s) in self.per_stage.iter_mut().zip(sums) {
            samples.push(s * 1e6);
        }
        if let Some(wall) = wall_s {
            self.answer_wall.push(wall * 1e6);
            self.unattributed
                .push((wall - sums.iter().sum::<f64>()) * 1e6);
        }
        self.answers += 1;
        self.sim_ms += trace.sim_ms();
    }

    pub fn take(
        &mut self,
        obs: &ObsHandle,
        wall_s: Option<f64>,
        tracer: &mut Tracer,
        parent: Option<usize>,
    ) {
        for trace in obs.take_traces() {
            self.add(&trace, wall_s, tracer, parent);
        }
    }
}

/// A counter the pipelines flushed into the observer's registry.
fn counter(obs: &ObsHandle, name: &str) -> u64 {
    obs.registry().snapshot().counter(name)
}

/// Median wall of `n` replays of `f`, in microseconds.
fn replay_us<R>(
    tracer: &mut Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut s = Samples::default();
    for k in 0..n {
        let (out, wall) = tracer.time(name, None, k as u64, &mut f);
        black_box(out);
        s.push(wall * 1e6);
    }
    s.median()
}

/// Build costs replayed on the graphs (and snapshots) a workload
/// serves from, summed over them.
#[derive(Debug, Default)]
pub struct BuildReplays {
    pub tindex_us: f64,
    pub mlg_us: f64,
    pub edges: f64,
    pub new_us: f64,
    pub bind_us: f64,
}

pub fn replay_builds(
    cfg: &RunCfg,
    graphs: &[&KnowledgeGraph],
    snapshots: &[&EpochSnapshot],
    tracer: &mut Tracer,
) -> BuildReplays {
    let mut out = BuildReplays::default();
    let n = BUILD_REPLAYS;
    for &g in graphs {
        out.tindex_us += replay_us(tracer, "replay.kg.TieredIndex::build", n, || {
            TieredIndex::build(g)
        });
        let index = TieredIndex::build(g);
        out.mlg_us += replay_us(
            tracer,
            "replay.core.MultiSourceLineGraph::build_with_index",
            n,
            || MultiSourceLineGraph::build_with_index(g, &index),
        );
        out.edges += MultiSourceLineGraph::build_with_index(g, &index)
            .line_graph()
            .edge_count() as f64;
        out.new_us += replay_us(tracer, "replay.core.MklgpPipeline::new", n, || {
            MklgpPipeline::new(g, MultiRagConfig::default(), cfg.seed)
        });
    }
    for &snap in snapshots {
        out.bind_us += replay_us(tracer, "replay.serve.EpochSnapshot::pipeline", n, || {
            snap.pipeline()
        });
    }
    out
}

/// What a serving workload measured, checked and counted.
#[derive(Debug, Default)]
pub struct ServeLog {
    /// Set-up walls, in seconds.
    pub setup: Samples,
    /// End-to-end latency samples: rounds (serve-batch) or waves
    /// (serve-epochs).
    pub latency_us: Samples,
    /// Engine wall per batch, per dataset (serve-batch).
    pub per_dataset_us: Vec<Samples>,
    pub requests: u64,
    pub tally: AnswerTally,
    pub caches: CacheCounters,
    pub sheds: u64,
    pub mismatches: u64,
    /// `(allocations, bytes, requests)` while counting was on.
    pub allocs: (u64, u64, u64),
    /// Claims kept and examined by the answers the observed oracle
    /// computed.
    pub kept: u64,
    pub examined: u64,
    /// Per serve-batch chunk: requests per second of engine wall.
    pub chunk_rate: Samples,
    /// Held-out text arriving to its epoch being live (serve-epochs).
    pub fresh_us: Samples,
    /// Raw bytes ingested on the live write path while recording
    /// (serve-epochs).
    pub live_bytes: usize,
}

impl ServeLog {
    pub fn count_claims(&mut self, computed: &[ServeResponse]) {
        for r in computed.iter().filter(|r| !r.result_cache_hit) {
            if let ServeVerdict::Answered(a) = &r.verdict {
                self.kept += a.kept.len() as u64;
                self.examined += a.examined as u64;
            }
        }
    }
}

/// Per-layer fields the serving workloads share: build replays on
/// `snaps`, counters from the observed oracle replays, cache
/// hit rates and allocations.
#[allow(clippy::too_many_arguments)]
pub fn finish_layers(
    cfg: &RunCfg,
    setup_bytes: usize,
    snaps: &[std::sync::Arc<EpochSnapshot>],
    layers: &mut Layers,
    log: &ServeLog,
    stages: StageTally,
    obs: &ObsHandle,
    overhead: f64,
    tracer: &mut Tracer,
) {
    layers.set_ingest_rate(tracer, setup_bytes, log.live_bytes);
    let graphs: Vec<&KnowledgeGraph> = snaps.iter().map(|s| &s.graph).collect();
    let snap_refs: Vec<&EpochSnapshot> = snaps.iter().map(|s| s.as_ref()).collect();
    layers.builds = replay_builds(cfg, &graphs, &snap_refs, tracer);
    layers.tindex_pruned = counter(obs, "tindex_candidates_pruned_total");
    layers.profiles = counter(obs, "claim_profiles_built_total");
    layers.nmi_pairs = counter(obs, "mcc_nmi_pairs_total");
    layers.llm_calls = counter(obs, "llm_calls_total");
    layers.answers = stages.answers;
    layers.sim_ms = stages.sim_ms;
    layers.kept = log.kept;
    layers.examined = log.examined;
    layers.caches = log.caches;
    layers.shed = log.sheds;
    layers.allocs = log.allocs;
    layers.trace_overhead_frac = overhead;
    layers.stages = stages;
}

/// Every per-layer metric. Fields a workload does not exercise stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    /// Set-ups recorded in the traced half.
    pub setups: usize,
    pub fuse_us: f64,
    pub load_us: f64,
    pub mb_per_s: f64,
    pub builds: BuildReplays,
    pub tindex_pruned: u64,
    pub stages: StageTally,
    /// Answers the kernel, LLM and claim counters below cover.
    pub answers: u64,
    pub sim_ms: f64,
    pub profiles: u64,
    pub nmi_pairs: u64,
    pub llm_calls: u64,
    pub kept: u64,
    pub examined: u64,
    pub caches: CacheCounters,
    pub publish_us: Samples,
    pub apply_us: Samples,
    pub fresh_us: Samples,
    pub parallel_speedup: f64,
    pub shed: u64,
    /// `(allocations, bytes, operations)` counted while allocation
    /// counting was on.
    pub allocs: (u64, u64, u64),
    pub trace_overhead_frac: f64,
    pub setup_unattributed_frac: f64,
}

impl Layers {
    /// Set-up layer calls and the median recorded set-up's
    /// reconciliation line, from the set-up spans.
    pub fn from_setup(tracer: &Tracer, calls: &[&'static str], notes: &mut Vec<String>) -> Self {
        let roots = tracer.roots("setup");
        let walls: Samples = roots.iter().map(|&r| tracer.spans[r].dur_s()).collect();
        let med = roots[walls.median_index()];
        let per_call: Vec<(&str, f64)> = calls
            .iter()
            .map(|&c| (c, tracer.child_sum(med, c)))
            .collect();
        let wall = tracer.spans[med].dur_s();
        let attributed: f64 = per_call.iter().map(|c| c.1).sum();
        let unattributed = wall - attributed;
        notes.push(format!(
            "reconcile setup: {} + unattributed {:.1} us ({:.2}%) = setup {:.1} us (median of {} set-ups)",
            per_call
                .iter()
                .map(|(c, s)| format!("{c} {:.1} us", s * 1e6))
                .collect::<Vec<_>>()
                .join(" + "),
            unattributed * 1e6,
            100.0 * unattributed / wall,
            wall * 1e6,
            walls.len()
        ));
        let median_over = |name: &str| {
            roots
                .iter()
                .map(|&r| tracer.child_sum(r, name) * 1e6)
                .collect::<Samples>()
                .median()
        };
        Layers {
            setups: roots.len(),
            fuse_us: median_over("ingest.fuse_sources_with"),
            load_us: median_over("ingest.load_into_graph"),
            setup_unattributed_frac: unattributed / wall,
            ..Layers::default()
        }
    }

    /// Raw megabytes per second through every recorded
    /// `fuse_sources_with` call: `setup_bytes` per set-up, and the
    /// `live_bytes` fused on the write path while recording.
    pub fn set_ingest_rate(&mut self, tracer: &Tracer, setup_bytes: usize, live_bytes: usize) {
        let setups = tracer.roots("setup").len();
        let secs: f64 = tracer.durations("ingest.fuse_sources_with").iter().sum();
        self.mb_per_s = (setup_bytes * setups + live_bytes) as f64 / 1e6 / secs;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let st = &self.stages;
        let n = self.answers.max(1) as f64;
        let answers = self.answers as usize;
        let mut out = vec![
            metric(
                "ingest.fuse_us",
                self.fuse_us,
                "us",
                self.setups,
                "median over recorded set-ups of the set-up total",
            ),
            metric(
                "ingest.load_us",
                self.load_us,
                "us",
                self.setups,
                "median over recorded set-ups of the set-up total",
            ),
            metric(
                "ingest.mb_per_s",
                self.mb_per_s,
                "MB/s",
                1,
                "raw bytes / fuse seconds, all recorded fuse calls",
            ),
            metric(
                "kg.tindex_build_us",
                self.builds.tindex_us,
                "us",
                1,
                "median replay, summed over graphs",
            ),
            metric(
                "kg.tindex_pruned_frac",
                frac(self.tindex_pruned, self.tindex_pruned + self.examined),
                "ratio",
                answers,
                "pruned / (pruned + examined)",
            ),
            metric(
                "core.mlg_build_us",
                self.builds.mlg_us,
                "us",
                1,
                "median replay, summed over graphs",
            ),
            metric(
                "core.line_graph_edges",
                self.builds.edges,
                "count",
                1,
                "summed over graphs",
            ),
            metric(
                "core.pipeline_bind_us",
                self.builds.bind_us,
                "us",
                1,
                "median replay, summed over snapshots",
            ),
            metric(
                "core.pipeline_new_us",
                self.builds.new_us,
                "us",
                1,
                "median replay, summed over graphs",
            ),
        ];
        let names = [
            [
                "core.stage.homologous_group.p50_us",
                "core.stage.homologous_group.total_us",
            ],
            [
                "core.stage.graph_confidence.p50_us",
                "core.stage.graph_confidence.total_us",
            ],
            [
                "core.stage.node_confidence.p50_us",
                "core.stage.node_confidence.total_us",
            ],
            [
                "core.stage.generation.p50_us",
                "core.stage.generation.total_us",
            ],
        ];
        for (s, [p50, total]) in st.per_stage.iter().zip(names) {
            out.push(metric(
                p50,
                s.median(),
                "us",
                s.len(),
                "p50 per computed answer",
            ));
            out.push(metric(total, s.sum(), "us", s.len(), "total"));
        }
        let u = &st.unattributed;
        out.push(metric(
            "core.answer_unattributed.p50_us",
            u.median(),
            "us",
            u.len(),
            "p50 per answer",
        ));
        out.push(metric(
            "core.answer_unattributed.total_us",
            u.sum(),
            "us",
            u.len(),
            "total",
        ));
        let cache = &self.caches;
        out.extend([
            metric(
                "core.profiles_per_answer",
                self.profiles as f64 / n,
                "count",
                answers,
                "mean",
            ),
            metric(
                "core.nmi_pairs_per_answer",
                self.nmi_pairs as f64 / n,
                "count",
                answers,
                "mean",
            ),
            metric(
                "core.kept_frac",
                frac(self.kept, self.examined),
                "ratio",
                answers,
                "kept / examined claims",
            ),
            metric(
                "llmsim.calls_per_answer",
                self.llm_calls as f64 / n,
                "count",
                answers,
                "mean",
            ),
            metric(
                "llmsim.sim_ms_per_answer",
                self.sim_ms / n,
                "ms",
                answers,
                "mean",
            ),
            metric(
                "serve.l1_hit_frac",
                frac(cache.result_hits, cache.result_hits + cache.result_misses),
                "ratio",
                (cache.result_hits + cache.result_misses) as usize,
                "hits / lookups",
            ),
            metric(
                "serve.l2_hit_frac",
                frac(cache.memo_hits, cache.memo_hits + cache.memo_misses),
                "ratio",
                (cache.memo_hits + cache.memo_misses) as usize,
                "hits / lookups",
            ),
            metric(
                "serve.l3_hit_frac",
                frac(cache.llm_hits, cache.llm_hits + cache.llm_misses),
                "ratio",
                (cache.llm_hits + cache.llm_misses) as usize,
                "hits / lookups",
            ),
            metric(
                "serve.publish_us",
                self.publish_us.median(),
                "us",
                self.publish_us.len(),
                "p50",
            ),
            metric(
                "serve.apply_us",
                self.apply_us.median(),
                "us",
                self.apply_us.len(),
                "p50 per held-out slice",
            ),
            metric(
                "serve.fresh_p50_us",
                self.fresh_us.median(),
                "us",
                self.fresh_us.len(),
                "p50, text arriving to epoch live",
            ),
            metric(
                "serve.parallel_speedup",
                self.parallel_speedup,
                "ratio",
                1,
                "serial answer loop wall / engine batch wall",
            ),
            metric("serve.shed", self.shed as f64, "count", 1, "total"),
            metric(
                "alloc.count_per_answer",
                self.allocs.0 as f64 / self.allocs.2.max(1) as f64,
                "count",
                self.allocs.2 as usize,
                "mean",
            ),
            metric(
                "alloc.bytes_per_answer",
                self.allocs.1 as f64 / self.allocs.2.max(1) as f64,
                "B",
                self.allocs.2 as usize,
                "mean",
            ),
            metric(
                "obs.trace_overhead_frac",
                self.trace_overhead_frac,
                "ratio",
                1,
                "traced / untraced wall per operation - 1",
            ),
            metric(
                "setup.unattributed_frac",
                self.setup_unattributed_frac,
                "ratio",
                self.setups,
                "median recorded set-up",
            ),
        ]);
        out
    }
}

/// Per-answer stage identity for answers measured one by one.
pub fn answer_reconciliation(st: &StageTally) -> String {
    let stages: Vec<f64> = st.per_stage.iter().map(Samples::sum).collect();
    let wall = st.answer_wall.sum();
    let unattributed = st.unattributed.sum();
    format!(
        "reconcile answers: {} + unattributed {:.1} us ({:.2}%) = answer wall {:.1} us over {} answers",
        STAGES
            .iter()
            .zip(&stages)
            .map(|(n, s)| format!("{n} {s:.1} us"))
            .collect::<Vec<_>>()
            .join(" + "),
        unattributed,
        100.0 * unattributed / wall,
        wall,
        st.answer_wall.len()
    )
}
