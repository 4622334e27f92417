//! MKLGP — Multi-source Knowledge Line Graph Prompting (Algorithm 2).
//!
//! Given a user query, the pipeline:
//!
//! 1. generates a logic form via the (simulated) LLM,
//! 2. extracts the query-relevant documents/claims — by descending the
//!    graph's tiered slot index when MKA is enabled, or by scanning the
//!    entity's whole neighbourhood when it is not (the `w/o MKA`
//!    ablation, which both slows extraction dramatically and pollutes
//!    the context),
//! 3. runs MCC (Algorithm 1) to obtain the trusted node set `SVs` and
//!    the isolated/low-confidence set `LVs`,
//! 4. generates a trustworthy answer by prompting the LLM with the
//!    surviving claims (the hallucination model sees exactly how clean
//!    that context is),
//! 5. updates the historical source-credibility store.

use crate::confidence::{self, GraphConfidence, KernelCounters, NodeConfidence};
use crate::config::MultiRagConfig;
use crate::history::HistoryStore;
use crate::homologous::{match_homologous_tiered, HomologousGroup, HomologousSets};
use crate::loopctl::{grade_supported, LadderStep, LoopConfig};
use crate::memo::{profile_fingerprint, ConfidenceMemo, SlotVerdict};
use multirag_datasets::Query;
use multirag_faults::{ms_to_us, FaultPlan, RetryPolicy};
use multirag_ingest::{fuse_sources_with, Claim, IngestMode, RawSource};
use multirag_kg::{
    EntityId, FxHashMap, FxHashSet, KeyInterner, KnowledgeGraph, Object, RelationId, SlotId,
    SourceId, TieredIndex, TindexCounters, TripleId, Value,
};
use multirag_llmsim::halluc::GeneratedAnswer;
use multirag_llmsim::{ContextProfile, LlmResponseCache, LlmUsage, MockLlm, Schema};
use multirag_obs::WallTimer;
use multirag_obs::{
    AnswerProvenance, ObsHandle, QueryTrace, SourceContribution, Stage, StageCost, StageSpan,
    SubgraphDecision, TraceEvent,
};
use std::sync::Arc;

/// Why the pipeline declined to answer — degraded modes surface a
/// structured verdict instead of a silent empty answer, so the chaos
/// harness (and any caller) can distinguish "the data never existed"
/// from "the data was there but its sources were down".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstainReason {
    /// The query's entity or attribute is not in the graph.
    UnknownSlot,
    /// Claims for the slot exist, but every asserting source is
    /// quarantined by the fault plan.
    AllSourcesDown,
    /// Extraction and MCC left no trustworthy context at all.
    NoTrustedContext,
    /// The generation call failed even after retrying; answering
    /// without the LLM would mean guessing.
    GenerationFailed {
        /// Attempts the retry policy made before giving up.
        attempts: u32,
    },
    /// The closed loop kept grading the draft as unsupported and ran
    /// out of escalation budget (attempts or deadline); abstaining is
    /// the honest verdict — the fusion result still stands.
    EscalationExhausted {
        /// Escalation attempts spent before giving up.
        attempts: u32,
    },
}

impl AbstainReason {
    /// Stable snake-case identifier, used as a metrics label and in the
    /// canonical [`QueryTrace`] export.
    pub fn slug(&self) -> &'static str {
        match self {
            AbstainReason::UnknownSlot => "unknown_slot",
            AbstainReason::AllSourcesDown => "all_sources_down",
            AbstainReason::NoTrustedContext => "no_trusted_context",
            AbstainReason::GenerationFailed { .. } => "generation_failed",
            AbstainReason::EscalationExhausted { .. } => "escalation_exhausted",
        }
    }

    /// Alias for [`AbstainReason::slug`] under the conventional name.
    pub fn as_str(&self) -> &'static str {
        self.slug()
    }

    /// Every reason's slug, in declaration order — the schema golden
    /// enumerates these so a new reason is a reviewed schema change.
    pub const ALL_SLUGS: [&'static str; 5] = [
        "unknown_slot",
        "all_sources_down",
        "no_trusted_context",
        "generation_failed",
        "escalation_exhausted",
    ];
}

impl std::fmt::Display for AbstainReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbstainReason::UnknownSlot => write!(f, "unknown entity or attribute"),
            AbstainReason::AllSourcesDown => write!(f, "all asserting sources down"),
            AbstainReason::NoTrustedContext => write!(f, "no trustworthy context"),
            AbstainReason::GenerationFailed { attempts } => {
                write!(f, "generation failed after {attempts} attempt(s)")
            }
            AbstainReason::EscalationExhausted { attempts } => {
                write!(f, "escalation budget exhausted after {attempts} attempt(s)")
            }
        }
    }
}

/// The pipeline's verdict on one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineAnswer {
    /// Emitted answer values (empty when abstaining).
    pub values: Vec<Value>,
    /// The trustworthy fused value set *before* generation — what the
    /// MCC module hands to the LLM. Table II's "data fusion results"
    /// F1 is computed on this set (§IV-A-b), while `values` carries the
    /// post-generation answer the hallucination law may corrupt.
    pub fusion_values: Vec<Value>,
    /// True when no trustworthy context survived at all.
    pub abstained: bool,
    /// Structured abstention verdict (set iff `abstained`).
    pub abstain_reason: Option<AbstainReason>,
    /// Whether the generation step hallucinated (ground truth of the
    /// simulation — the harness uses it for error analysis, never the
    /// pipeline itself).
    pub hallucinated: bool,
    /// Graph-level confidence of the answering subgraph.
    pub graph_confidence: Option<GraphConfidence>,
    /// Claims that survived MCC.
    pub kept: Vec<NodeConfidence>,
    /// Claims MCC dropped.
    pub dropped: usize,
    /// Number of context claims examined during extraction (the w/o MKA
    /// path examines many more).
    pub examined: usize,
    /// Claims skipped because their source is quarantined (down).
    pub quarantined_claims: usize,
    /// Escalation attempts the closed loop spent on this answer (0
    /// when the loop is disabled or the first grade already passed).
    pub escalation_attempts: u32,
}

/// The MKLGP pipeline bound to one knowledge graph.
///
/// # Examples
///
/// ```
/// use multirag_core::{MklgpPipeline, MultiRagConfig};
/// use multirag_datasets::movies::MoviesSpec;
///
/// let dataset = MoviesSpec::small().generate(42);
/// let mut pipeline = MklgpPipeline::new(&dataset.graph, MultiRagConfig::default(), 42);
/// let answer = pipeline.answer(&dataset.queries[0]);
/// assert!(!answer.fusion_values.is_empty());
/// ```
#[derive(Clone)]
pub struct MklgpPipeline<'g> {
    kg: &'g KnowledgeGraph,
    llm: MockLlm,
    history: HistoryStore,
    config: MultiRagConfig,
    max_degree: usize,
    quarantined: FxHashSet<SourceId>,
    obs: Option<ObsHandle>,
    /// What aggregation cost this pipeline: deriving its
    /// [`GraphState`] plus the MKA feedback rounds in
    /// [`MklgpPipeline::new`], zero for a [`MklgpPipeline::bind`] to
    /// prebuilt state.
    mlg_cost: StageCost,
    memo: Option<ConfidenceMemo>,
    /// Per-graph canonical-key interner; every triple's standardized
    /// value key is precomputed, so MCC never builds a key `String`.
    keys: KeyInterner,
    /// Kernel op counters, flushed into the metrics registry per query.
    kernel: KernelCounters,
    /// Registry watermark: `(nmi_pairs, profiles_built, interner hits,
    /// interner misses)` already flushed, so counters export as deltas.
    flushed: (u64, u64, u64, u64),
    /// Closed-loop budget; `None` (the default) disables grading and
    /// escalation entirely — bit-identical to the single-pass pipeline.
    loopcfg: Option<LoopConfig>,
    /// Pre-fused reserve claims the consult rung draws on, shared
    /// across pipeline clones.
    reserve: Option<Arc<Vec<Claim>>>,
    /// The graph's tiered index (DESIGN.md §5.15), shared with the
    /// [`GraphState`] it came from and across pipeline clones. MKA
    /// extraction descends it and its slot tier holds the homologous
    /// groups; the w/o-MKA ablation never reads it.
    tindex: Arc<TieredIndex>,
    /// Tier-descent cost counters, flushed into the registry as deltas
    /// like `kernel`.
    tcounters: TindexCounters,
    /// Registry watermark for the tindex counters.
    flushed_tindex: TindexCounters,
}

/// Raw per-query observations collected while answering; the [`answer`]
/// wrapper turns them into a [`QueryTrace`] when an observer is
/// attached.
///
/// [`answer`]: MklgpPipeline::answer
#[derive(Default)]
struct AnswerStats {
    spans: Vec<StageSpan>,
    subgraph: Option<SubgraphDecision>,
    quarantined: Vec<(SourceId, usize)>,
    /// Closed-loop events (grade failures, escalations) in occurrence
    /// order, republished into the trace.
    events: Vec<TraceEvent>,
    /// Eq. 11 history records the store took during this answer:
    /// `(updates, claims, correct claims)`.
    history: (u64, u64, u64),
}

/// What the escalation loop reported back to `answer_with_stats`.
struct LoopOutcome {
    /// Escalation attempts actually spent.
    attempts: u32,
    /// True when the budget ran out before a passing grade — the caller
    /// abstains with [`AbstainReason::EscalationExhausted`].
    exhausted: bool,
}

/// Records the loop's two stages. Wall time is pinned to zero: the loop
/// runs on metered simulated time only, and wall clocks are excluded
/// from the canonical trace JSON anyway. The grade span's output is the
/// number of drafts ultimately accepted (1, or 0 on exhaustion); the
/// escalation span maps attempts to emitted values.
fn push_loop_spans(
    stats: &mut AnswerStats,
    grade_calls: usize,
    grade_sim: f64,
    attempts: u32,
    esc_sim: f64,
    emitted: usize,
) {
    stats.spans.push(StageSpan {
        stage: Stage::Grade,
        wall_s: 0.0,
        sim_ms: grade_sim,
        input: grade_calls,
        output: usize::from(emitted > 0 || attempts == 0),
    });
    if attempts > 0 {
        stats.spans.push(StageSpan {
            stage: Stage::Escalation,
            wall_s: 0.0,
            sim_ms: esc_sim,
            input: attempts as usize,
            output: emitted,
        });
    }
}

impl AnswerStats {
    /// Records one Eq. 11 outcome, counting it if the store takes it.
    fn record_history(
        &mut self,
        history: &HistoryStore,
        source: SourceId,
        correct: usize,
        total: usize,
    ) {
        if history.record(source, correct, total) {
            self.history.0 += 1;
            self.history.1 += total as u64;
            self.history.2 += correct as u64;
        }
    }

    /// Closes a span: wall from `started`, simulated time as the meter
    /// delta over the region.
    fn span(
        &mut self,
        stage: Stage,
        started: WallTimer,
        sim_before: f64,
        sim_now: f64,
        input: usize,
        output: usize,
    ) {
        self.spans.push(StageSpan {
            stage,
            wall_s: started.elapsed_s(),
            sim_ms: sim_now - sim_before,
            input,
            output,
        });
    }
}

/// Builds the extraction schema a pipeline (or a cluster router) uses
/// for this graph: every relation plus every entity name, verbatim.
/// [`GraphState`] carries one per graph, so the sharded router and the
/// serving pipelines extract with the *same* schema instance — and
/// therefore the same logic forms.
pub fn kg_schema(kg: &KnowledgeGraph) -> Schema {
    let mut schema = Schema::new();
    for r in 0..kg.relation_count() {
        schema.add_relation(kg.relation_name(RelationId(r as u32)));
    }
    for e in kg.entity_ids() {
        schema.add_entity_verbatim(kg.entity_name(e));
    }
    schema
}

/// What [`MklgpPipeline`] derives from its graph alone: the extraction
/// schema, the tiered index MKA aggregates over, the largest entity
/// degree and the canonical-key interner. Built once per graph and
/// shared, so [`MklgpPipeline::bind`] costs `Arc` clones (the
/// interner's graph keys are shared too). The serving layer carries
/// one per epoch snapshot and derives each from the previous one
/// ([`GraphState::advance`]).
#[derive(Debug, Clone, Default)]
pub struct GraphState {
    /// Extraction schema ([`kg_schema`]), shared by every LLM clone.
    pub schema: Arc<Schema>,
    /// The graph's [`TieredIndex`]: its slot tier holds the homologous
    /// groups (`SVs`) and isolated points (`LVs`) in `(entity,
    /// relation)` order, and MKA extraction descends it.
    pub tindex: Arc<TieredIndex>,
    /// Largest entity degree, which node assessment (Eqs. 8–11) reads.
    pub max_degree: usize,
    /// Canonical-key interner with every triple's key precomputed
    /// ([`KeyInterner::for_graph`]); each bound pipeline answers with
    /// its own clone, which shares the graph's keys and interns new
    /// ones on its own.
    pub keys: KeyInterner,
}

impl GraphState {
    /// Derives the state for `kg` around an interner already extended
    /// over it: [`GraphState::advance`] from the empty graph's state,
    /// which builds the tiered index, the schema and the largest
    /// degree.
    pub fn new(kg: &KnowledgeGraph, keys: KeyInterner) -> Self {
        Self::default().advance(kg, keys)
    }

    /// What [`MklgpPipeline::new`] derives before it binds: the state
    /// of `kg` over a fresh interner, and a history store seeded by MKA
    /// consensus feedback over the slot tier (left at its prior when
    /// MKA is ablated).
    pub fn seeded(kg: &KnowledgeGraph, config: MultiRagConfig) -> (Self, HistoryStore) {
        let state = Self::new(kg, KeyInterner::for_graph(kg));
        let history = HistoryStore::new(config.history_pseudo, 0.5);
        if config.enable_mka {
            seed_consensus(kg, &state.tindex, &history);
        }
        (state, history)
    }

    /// The state of `kg` derived from this one, around an interner
    /// already extended over `kg`. This state must have been derived
    /// for an earlier state of the same graph: graphs only grow by
    /// appending entities, relations, sources and triples. Equals
    /// [`GraphState::new`] over `kg`:
    ///
    /// * the index is [`TieredIndex::extend`]ed over the appended
    ///   claims;
    /// * the schema lists only entity and relation names, so its `Arc`
    ///   is shared when `kg` added neither, and rebuilt otherwise;
    /// * only an appended entity link changes a degree, so the largest
    ///   degree is the old one raised by the degrees of the links'
    ///   endpoints.
    pub fn advance(&self, kg: &KnowledgeGraph, keys: KeyInterner) -> Self {
        let indexed = self.tindex.stats();
        let named = (kg.entity_count(), kg.relation_count());
        let schema = if named == (indexed.entities, indexed.relations) {
            Arc::clone(&self.schema)
        } else {
            Arc::new(kg_schema(kg))
        };
        let appended = kg.triples().get(indexed.claims..).unwrap_or(&[]);
        let mut linked: Vec<EntityId> = appended
            .iter()
            .filter_map(|t| match t.object {
                Object::Entity(object) => Some([t.subject, object]),
                Object::Literal(_) => None,
            })
            .flatten()
            .collect();
        linked.sort_unstable();
        linked.dedup();
        let max_degree = linked
            .into_iter()
            .map(|e| kg.neighbors(e).len())
            .fold(self.max_degree, usize::max);
        Self {
            schema,
            tindex: Arc::new(self.tindex.extend(kg)),
            max_degree,
            keys,
        }
    }
}

/// MKA consistency feedback: the homologous line graph makes
/// cross-source agreement a local property (§III-C: "enabling rapid
/// consistency checks and conflict feedback for homologous data"). A
/// few credibility-weighted consensus rounds over the aggregated groups
/// estimate each source's historical credibility — the `Pr^h(D)` that
/// `Auth_hist` (Eq. 11) blends in. Without MKA this signal does not
/// exist (part of the w/o-MKA F1 drop in Table III). The groups are the
/// slot tier's multi-claim slots, visited in `(entity, relation)` order
/// with ascending claim ids.
fn seed_consensus(kg: &KnowledgeGraph, index: &TieredIndex, history: &HistoryStore) {
    let groups: Vec<Vec<(SourceId, String)>> = (0..index.slot_count() as u32)
        .map(|slot| index.claims(SlotId(slot)))
        .filter(|claims| claims.len() >= 2)
        .map(|claims| {
            claims
                .iter()
                .map(|&tid| {
                    let t = kg.triple(tid);
                    let key = match &t.object {
                        Object::Literal(v) => v.standardized().canonical_key(),
                        other => other.canonical_key(),
                    };
                    (t.source, key)
                })
                .collect()
        })
        .collect();
    // Per-source state lives in vectors indexed by source id, so the
    // history store is written in source order, not in an order a
    // hasher decides.
    let sources = kg.source_count();
    let mut cred: Vec<Option<f64>> = vec![None; sources];
    let mut final_tally: Vec<(usize, usize)> = Vec::new();
    for _round in 0..3 {
        let mut tally: Vec<(usize, usize)> = vec![(0, 0); sources];
        for claims in &groups {
            // Credibility-weighted support per value.
            let mut weight: FxHashMap<&str, f64> = FxHashMap::default();
            let mut total = 0.0;
            for (source, key) in claims {
                let w = cred.get(source.index()).copied().flatten().unwrap_or(0.5);
                *weight.entry(key.as_str()).or_insert(0.0) += w;
                total += w;
            }
            let Some((best, &max_w)) = weight
                .iter()
                .max_by(|a, b| {
                    a.1.partial_cmp(b.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.0.cmp(a.0))
                })
                .map(|(k, w)| (*k, w))
            else {
                continue;
            };
            // Only groups with a clear weighted consensus carry a
            // trustworthy signal.
            if max_w * 2.0 <= total {
                continue;
            }
            for (source, key) in claims {
                if let Some(entry) = tally.get_mut(source.index()) {
                    entry.1 += 1;
                    if key == best {
                        entry.0 += 1;
                    }
                }
            }
        }
        // Smoothed agreement rate for every source seen this round;
        // the others keep their previous estimate.
        for (rate, &(correct, total)) in cred.iter_mut().zip(&tally) {
            if total > 0 {
                *rate = Some((correct as f64 + 2.5) / (total as f64 + 5.0));
            }
        }
        final_tally = tally;
    }
    for (source, (correct, total)) in final_tally.into_iter().enumerate() {
        history.record(SourceId(source as u32), correct, total);
    }
}

impl<'g> MklgpPipeline<'g> {
    /// Builds the pipeline over `kg` alone: derives the graph's
    /// [`GraphState`] (its tiered index included), seeds a fresh
    /// history store by MKA consensus feedback over the index's slot
    /// tier (unless MKA is ablated), then binds.
    pub fn new(kg: &'g KnowledgeGraph, config: MultiRagConfig, seed: u64) -> Self {
        let mlg_started = WallTimer::start();
        let (state, history) = GraphState::seeded(kg, config);
        // `mlg_build` covers deriving the graph's state (the slot index
        // included) *and* the MKA consistency-feedback rounds.
        let mlg_cost = StageCost {
            wall_s: mlg_started.elapsed_s(),
            sim_ms: 0.0,
        };
        Self {
            mlg_cost,
            ..Self::bind(kg, &state, config, seed, history)
        }
    }

    /// Binds a pipeline to prebuilt per-graph state and an externally
    /// settled history store — the epoch-serving constructor. Nothing
    /// is derived from the graph: the schema, tiered index and
    /// interner keys are shared, and the MKA consensus rounds are
    /// skipped because the supplied history replaces their output.
    /// `state` must have been built for `kg`.
    pub fn bind(
        kg: &'g KnowledgeGraph,
        state: &GraphState,
        config: MultiRagConfig,
        seed: u64,
        history: HistoryStore,
    ) -> Self {
        Self {
            kg,
            llm: MockLlm::new(state.schema.clone(), seed),
            history,
            config,
            max_degree: state.max_degree,
            quarantined: FxHashSet::default(),
            obs: None,
            mlg_cost: StageCost::default(),
            memo: None,
            keys: state.keys.clone(),
            kernel: KernelCounters::default(),
            flushed: (0, 0, 0, 0),
            loopcfg: None,
            reserve: None,
            tindex: state.tindex.clone(),
            tcounters: TindexCounters::default(),
            flushed_tindex: TindexCounters::default(),
        }
    }

    /// Attaches an observer: graph-shape gauges are set, and the
    /// (already paid) `mlg_build` cost is recorded as a span — zero
    /// wall for a bound pipeline, whose aggregation was paid once when
    /// its [`GraphState`] was built. Every subsequent [`answer`] emits
    /// a [`QueryTrace`] and publishes its LLM usage, history records
    /// and kernel counters into the observer's registry.
    ///
    /// [`answer`]: MklgpPipeline::answer
    pub fn with_observer(mut self, obs: ObsHandle) -> Self {
        let registry = obs.registry();
        registry.gauge_set("graph_sources", self.kg.source_count() as f64);
        registry.gauge_set("graph_triples", self.kg.triple_count() as f64);
        registry.gauge_set("graph_quarantined_sources", self.quarantined.len() as f64);
        obs.record_span(&StageSpan {
            stage: Stage::MlgBuild,
            wall_s: self.mlg_cost.wall_s,
            sim_ms: self.mlg_cost.sim_ms,
            input: self.kg.triple_count(),
            // Groups plus isolated points: one per slot.
            output: if self.config.enable_mka {
                self.tindex.slot_count()
            } else {
                0
            },
        });
        self.obs = Some(obs);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&ObsHandle> {
        self.obs.as_ref()
    }

    /// Subjects the pipeline to a deterministic fault plan: LLM calls
    /// can fail (and are retried with seeded backoff), and sources the
    /// plan declares down are quarantined — their claims are skipped
    /// and their credibility takes the hit, so answers come from the
    /// surviving sources.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.quarantined = (0..self.kg.source_count())
            .map(|i| SourceId(i as u32))
            .filter(|&id| plan.source_down(self.kg.source_name(id)))
            .collect();
        self.llm = self.llm.with_fault_plan(plan);
        self
    }

    /// Overrides the retry policy the LLM applies under faults.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.llm = self.llm.with_retry_policy(retry);
        self
    }

    /// Shares a per-epoch MCC verdict memo: slots whose canonical
    /// subgraph hash is already memoized skip the consistency checks
    /// (and their simulated LLM cost) entirely. Only sound while the
    /// history store is frozen — the serving layer freezes history for
    /// the epoch and clears the memo on every swap.
    pub fn with_confidence_memo(mut self, memo: ConfidenceMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Puts a shared content-addressed response cache in front of the
    /// LLM (see [`MockLlm::with_response_cache`]).
    pub fn with_llm_response_cache(mut self, cache: LlmResponseCache) -> Self {
        self.llm = self.llm.with_response_cache(cache);
        self
    }

    /// Enables the closed loop (grade → escalate → regenerate) with the
    /// given budget. A config with `max_attempts == 0` keeps the loop
    /// off, bit-identical to never calling this.
    pub fn with_loop_control(mut self, cfg: LoopConfig) -> Self {
        self.loopcfg = cfg.enabled().then_some(cfg);
        self
    }

    /// The active closed-loop budget, if any.
    pub fn loop_control(&self) -> Option<LoopConfig> {
        self.loopcfg
    }

    /// Installs reserve sources for the consult rung of the escalation
    /// ladder. They are fused once, leniently (malformed reserves must
    /// not poison escalation — lenient fusion cannot fail, and if it
    /// ever did the rung would simply have nothing to consult), and
    /// shared across pipeline clones; the simulated cost of consulting
    /// them is charged when the rung runs.
    pub fn with_reserve_sources(mut self, sources: &[RawSource]) -> Self {
        let claims: Vec<Claim> = fuse_sources_with(sources, IngestMode::Lenient)
            .map(|report| {
                report
                    .adapted
                    .into_iter()
                    .flat_map(|(_, adapted)| adapted.claims)
                    .collect()
            })
            .unwrap_or_default();
        self.reserve = Some(Arc::new(claims));
        self
    }

    /// Sources the fault plan declared down for this run.
    pub fn quarantined_sources(&self) -> &FxHashSet<SourceId> {
        &self.quarantined
    }

    /// The LLM client (for usage metering).
    pub fn llm(&self) -> &MockLlm {
        &self.llm
    }

    /// Resets the LLM usage meter.
    pub fn reset_usage(&mut self) {
        self.llm.reset_usage();
    }

    /// The history store (shared source credibility).
    pub fn history(&self) -> &HistoryStore {
        &self.history
    }

    /// The graph's largest entity degree, which node assessment
    /// (Eqs. 8–11) reads.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The homologous groups of the tiered index's slot tier, in
    /// `(entity, relation)` order. Empty when MKA is ablated — there is
    /// no aggregated index to list.
    pub fn slot_groups(&self) -> Vec<HomologousGroup> {
        if self.config.enable_mka {
            match_homologous_tiered(&self.tindex).groups
        } else {
            Vec::new()
        }
    }

    /// Snapshot of the kernel op counters accumulated by this pipeline.
    pub fn kernel_counters(&self) -> KernelCounters {
        self.kernel
    }

    /// Snapshot of the tier-descent cost counters (all zero in the
    /// w/o-MKA ablation, which scans instead of descending).
    pub fn tindex_counters(&self) -> TindexCounters {
        self.tcounters
    }

    /// Canonical-key interner statistics: `(hits, misses)`. Hits
    /// include per-triple cache lookups; misses are distinct keys
    /// interned (including the up-front `for_graph` pass).
    pub fn interner_stats(&self) -> (u64, u64) {
        (self.keys.hits(), self.keys.misses())
    }

    /// The canonical-key interner this pipeline answers with.
    pub fn key_interner(&self) -> &KeyInterner {
        &self.keys
    }

    /// Answers one benchmark query (Algorithm 2). When an observer is
    /// attached the query additionally emits a [`QueryTrace`] — spans,
    /// subgraph verdicts, chaos events and answer provenance.
    pub fn answer(&mut self, query: &Query) -> PipelineAnswer {
        let usage_before = self.llm.usage();
        let mut stats = AnswerStats::default();
        let answer = self.answer_with_stats(query, &mut stats);
        if let Some(obs) = self.obs.clone() {
            self.publish_metrics(&obs, &usage_before, stats.history);
            let trace = self.build_trace(query, &answer, stats, &usage_before);
            obs.finish_query(trace);
        }
        answer
    }

    /// Publishes one answer's LLM usage (since `before`), its Eq. 11
    /// `history` records and the kernel, interner and tier-descent
    /// counters into the observer's registry. The last three are
    /// deltas against watermarks, not a per-answer snapshot, so the
    /// first publish carries the interner's up-front `for_graph`
    /// misses. Zero deltas are skipped so metric exports only list
    /// counters that actually moved.
    fn publish_metrics(&mut self, obs: &ObsHandle, before: &LlmUsage, history: (u64, u64, u64)) {
        let registry = obs.registry();
        let usage = self.llm.usage();
        let kernel = (
            self.kernel.nmi_pairs,
            self.kernel.profiles_built,
            self.keys.hits(),
            self.keys.misses(),
        );
        let tdelta = self.tcounters.since(self.flushed_tindex);
        for (name, delta) in [
            ("llm_calls_total", usage.calls - before.calls),
            (
                "llm_input_tokens_total",
                usage.input_tokens - before.input_tokens,
            ),
            (
                "llm_output_tokens_total",
                usage.output_tokens - before.output_tokens,
            ),
            ("llm_retries_total", usage.retries - before.retries),
            (
                "llm_failed_calls_total",
                usage.failed_calls - before.failed_calls,
            ),
            ("history_updates_total", history.0),
            ("history_claims_total", history.1),
            ("history_correct_claims_total", history.2),
            ("mcc_nmi_pairs_total", kernel.0 - self.flushed.0),
            ("claim_profiles_built_total", kernel.1 - self.flushed.1),
            ("claim_key_interner_hits_total", kernel.2 - self.flushed.2),
            ("claim_key_interner_misses_total", kernel.3 - self.flushed.3),
            ("tindex_tier_descents_total", tdelta.tier_descents),
            ("tindex_bitset_and_ops_total", tdelta.bitset_and_ops),
            ("tindex_candidates_pruned_total", tdelta.candidates_pruned),
        ] {
            if delta > 0 {
                registry.inc(name, delta);
            }
        }
        if history.0 > 0 {
            let tracked = self.history.tracked_sources() as f64;
            registry.gauge_set("history_tracked_sources", tracked);
        }
        self.flushed = kernel;
        self.flushed_tindex = self.tcounters;
    }

    /// Algorithm 2's body, recording raw observations into `stats`.
    fn answer_with_stats(&mut self, query: &Query, stats: &mut AnswerStats) -> PipelineAnswer {
        let extract_started = WallTimer::start();
        let sim_at_start = self.llm.usage().simulated_ms;
        // Step 1: logic-form generation. A failed call (fault plan +
        // exhausted retries) degrades to the slot the benchmark query
        // carries — same as the LLM failing to parse the question.
        let lf = self
            .llm
            .try_logic_form(&format!("lf:{}", query.key()), &query.text)
            .unwrap_or(None);
        let (entity_name, relation_name) = match &lf {
            Some(lf) => (lf.entity.clone(), lf.target_relation().to_string()),
            // Fallback: the benchmark query carries its slot.
            None => (query.entity.clone(), query.attribute.clone()),
        };
        let entity = self
            .kg
            .find_entity(&entity_name, self.kg_domain())
            .or_else(|| self.kg.find_entity(&query.entity, self.kg_domain()));
        let relation = self
            .kg
            .find_relation(&relation_name)
            .or_else(|| self.kg.find_relation(&query.attribute));
        let (Some(entity), Some(relation)) = (entity, relation) else {
            let sim = self.llm.usage().simulated_ms;
            stats.span(
                Stage::HomologousGroup,
                extract_started,
                sim_at_start,
                sim,
                0,
                0,
            );
            return PipelineAnswer {
                values: Vec::new(),
                fusion_values: Vec::new(),
                abstained: true,
                abstain_reason: Some(AbstainReason::UnknownSlot),
                hallucinated: false,
                graph_confidence: None,
                kept: Vec::new(),
                dropped: 0,
                examined: 0,
                quarantined_claims: 0,
                escalation_attempts: 0,
            };
        };

        // Step 2: multi-document extraction.
        let (slot_triples, noise_triples, examined) = self.extract(entity, relation);

        // Degraded mode: claims from quarantined (down) sources never
        // reach the context — the answer comes from whoever survives.
        // Each skipped claim is recorded as a miss so outage-prone
        // sources lose historical credibility (Eq. 11 feedback).
        let had_claims = !slot_triples.is_empty();
        let mut quarantined_claims = 0usize;
        let (slot_triples, noise_triples) = if self.quarantined.is_empty() {
            (slot_triples, noise_triples)
        } else {
            let mut down_tally: FxHashMap<SourceId, usize> = FxHashMap::default();
            let slot: Vec<TripleId> = slot_triples
                .into_iter()
                .filter(|&tid| {
                    let source = self.kg.triple(tid).source;
                    if self.quarantined.contains(&source) {
                        *down_tally.entry(source).or_insert(0) += 1;
                        false
                    } else {
                        true
                    }
                })
                .collect();
            let noise: Vec<TripleId> = noise_triples
                .into_iter()
                .filter(|&tid| !self.quarantined.contains(&self.kg.triple(tid).source))
                .collect();
            for (source, skipped) in down_tally {
                quarantined_claims += skipped;
                stats.quarantined.push((source, skipped));
                stats.record_history(&self.history, source, 0, skipped);
            }
            (slot, noise)
        };
        if had_claims && slot_triples.is_empty() {
            let sim = self.llm.usage().simulated_ms;
            stats.span(
                Stage::HomologousGroup,
                extract_started,
                sim_at_start,
                sim,
                examined,
                0,
            );
            return PipelineAnswer {
                values: Vec::new(),
                fusion_values: Vec::new(),
                abstained: true,
                abstain_reason: Some(AbstainReason::AllSourcesDown),
                hallucinated: false,
                graph_confidence: None,
                kept: Vec::new(),
                dropped: 0,
                examined,
                quarantined_claims,
                escalation_attempts: 0,
            };
        }

        // Step 3: MCC, over the *extracted* claims (the MKA path
        // extracts the full slot; the unaggregated path may have missed
        // some).
        let sets = sets_from_extraction(self.kg, entity, relation, &slot_triples);
        let sim = self.llm.usage().simulated_ms;
        stats.span(
            Stage::HomologousGroup,
            extract_started,
            sim_at_start,
            sim,
            examined,
            slot_triples.len(),
        );
        let (graph_confidence, mut kept, dropped) = if let Some(group) = sets.groups.first() {
            let group_triples = group.triples.len();
            let group_sources = group.source_count;
            // Claim profiles are built once per slot — resolved to
            // interned keys, distributions sorted, entropy precomputed —
            // and shared by the memo fingerprint, the graph gate and the
            // node assessment below.
            let profiles = confidence::build_profiles(self.kg, group, &mut self.keys);
            self.kernel.profiles_built += profiles.len() as u64;
            // Per-epoch MCC memo: the verdict is a pure function of the
            // slot's (post-quarantine) content once history is frozen,
            // so a content-hash hit replays it without touching the LLM.
            let memo_key = self
                .memo
                .as_ref()
                .map(|_| profile_fingerprint(self.kg, entity, relation, &profiles, &self.keys));
            let spans_before = stats.spans.len();
            let verdict = memo_key
                .and_then(|key| self.memo.as_ref().and_then(|m| m.get(key)))
                .unwrap_or_else(|| {
                    let outcome = confidence::mcc_filter_profiles(
                        self.kg,
                        group,
                        &profiles,
                        &self.keys,
                        &mut self.llm,
                        &self.history,
                        &self.config,
                        self.max_degree,
                        &mut self.kernel,
                    );
                    let verdict = SlotVerdict {
                        graph: outcome.graph,
                        kept: outcome.kept,
                        dropped: outcome.dropped.len(),
                        gated: outcome.gated,
                    };
                    if let (Some(memo), Some(key)) = (&self.memo, memo_key) {
                        memo.put(key, verdict.clone());
                    }
                    stats.spans.push(StageSpan {
                        stage: Stage::GraphConfidence,
                        wall_s: outcome.graph_cost.wall_s,
                        sim_ms: outcome.graph_cost.sim_ms,
                        input: group_triples,
                        output: verdict.gated,
                    });
                    stats.spans.push(StageSpan {
                        stage: Stage::NodeConfidence,
                        wall_s: outcome.node_cost.wall_s,
                        sim_ms: outcome.node_cost.sim_ms,
                        input: verdict.gated,
                        output: verdict.kept.len(),
                    });
                    verdict
                });
            // A memo hit recorded no spans above: account the stages at
            // zero cost so traces keep their shape.
            if stats.spans.len() == spans_before {
                stats.spans.push(StageSpan {
                    stage: Stage::GraphConfidence,
                    wall_s: 0.0,
                    sim_ms: 0.0,
                    input: group_triples,
                    output: verdict.gated,
                });
                stats.spans.push(StageSpan {
                    stage: Stage::NodeConfidence,
                    wall_s: 0.0,
                    sim_ms: 0.0,
                    input: verdict.gated,
                    output: verdict.kept.len(),
                });
            }
            stats.subgraph = Some(SubgraphDecision {
                entity: self.kg.entity_name(entity).to_string(),
                relation: self.kg.relation_name(relation).to_string(),
                triples: group_triples,
                source_count: group_sources,
                graph_confidence: verdict.graph.map(|g| g.value),
                passed_graph_gate: self.config.enable_graph_level
                    && verdict
                        .graph
                        .is_some_and(|g| g.value >= self.config.graph_threshold),
                kept_nodes: verdict.kept.len(),
                dropped_nodes: verdict.dropped,
            });
            (verdict.graph, verdict.kept, verdict.dropped)
        } else {
            // Isolated slot: a single claim, assessed leniently (no
            // peers to contradict it).
            let node_started = WallTimer::start();
            let sim_before = self.llm.usage().simulated_ms;
            let kept: Vec<NodeConfidence> = sets
                .isolated
                .iter()
                .map(|&tid| self.singleton_assessment(tid))
                .collect();
            let sim = self.llm.usage().simulated_ms;
            stats.span(
                Stage::NodeConfidence,
                node_started,
                sim_before,
                sim,
                sets.isolated.len(),
                kept.len(),
            );
            if !sets.isolated.is_empty() {
                let mut srcs: Vec<SourceId> = sets
                    .isolated
                    .iter()
                    .map(|&tid| self.kg.triple(tid).source)
                    .collect();
                srcs.sort_unstable();
                srcs.dedup();
                stats.subgraph = Some(SubgraphDecision {
                    entity: self.kg.entity_name(entity).to_string(),
                    relation: self.kg.relation_name(relation).to_string(),
                    triples: sets.isolated.len(),
                    source_count: srcs.len(),
                    graph_confidence: None,
                    passed_graph_gate: false,
                    kept_nodes: kept.len(),
                    dropped_nodes: 0,
                });
            }
            (None, kept, 0)
        };

        // Step 4: trustworthy answer generation.
        let gen_started = WallTimer::start();
        let sim_before_gen = self.llm.usage().simulated_ms;
        let context_claims = kept.len() + noise_triples.len();
        let (faithful, distractors, profile, context_tokens) =
            self.build_context(&kept, dropped, &noise_triples);
        if faithful.is_empty() && kept.is_empty() {
            let sim = self.llm.usage().simulated_ms;
            stats.span(
                Stage::Generation,
                gen_started,
                sim_before_gen,
                sim,
                context_claims,
                0,
            );
            return PipelineAnswer {
                values: Vec::new(),
                fusion_values: Vec::new(),
                abstained: true,
                abstain_reason: Some(AbstainReason::NoTrustedContext),
                hallucinated: false,
                graph_confidence,
                kept,
                dropped,
                examined,
                quarantined_claims,
                escalation_attempts: 0,
            };
        }
        let fusion_values = self.restore_surface(entity, relation, faithful.clone());
        let generated = match self.llm.try_generate_answer(
            &query.key(),
            faithful.clone(),
            &distractors,
            &profile,
            context_tokens,
        ) {
            Ok(g) => g,
            // A dead generation call must abstain, never guess: the
            // fusion result (computed without the LLM) still stands.
            Err(err) => {
                let sim = self.llm.usage().simulated_ms;
                stats.span(
                    Stage::Generation,
                    gen_started,
                    sim_before_gen,
                    sim,
                    context_claims,
                    0,
                );
                return PipelineAnswer {
                    values: Vec::new(),
                    fusion_values,
                    abstained: true,
                    abstain_reason: Some(AbstainReason::GenerationFailed {
                        attempts: err.attempts(),
                    }),
                    hallucinated: false,
                    graph_confidence,
                    kept,
                    dropped,
                    examined,
                    quarantined_claims,
                    escalation_attempts: 0,
                };
            }
        };
        let sim = self.llm.usage().simulated_ms;
        stats.span(
            Stage::Generation,
            gen_started,
            sim_before_gen,
            sim,
            context_claims,
            generated.values.len(),
        );

        // Closed loop (§5.11): grade the draft against the kept
        // context; on a failing grade walk the escalation ladder under
        // the configured deadline budget. Disabled (`loopcfg: None`)
        // this block is a no-op and the pipeline is bit-identical to
        // its single-pass form.
        let mut generated = generated;
        let mut escalation_attempts = 0u32;
        if let Some(cfg) = self.loopcfg {
            let outcome = self.escalate(
                query,
                cfg,
                entity,
                relation,
                &slot_triples,
                &noise_triples,
                &mut kept,
                dropped,
                faithful,
                distractors,
                profile,
                context_tokens,
                &mut generated,
                stats,
            );
            escalation_attempts = outcome.attempts;
            if outcome.exhausted {
                return PipelineAnswer {
                    values: Vec::new(),
                    fusion_values,
                    abstained: true,
                    abstain_reason: Some(AbstainReason::EscalationExhausted {
                        attempts: outcome.attempts,
                    }),
                    hallucinated: false,
                    graph_confidence,
                    kept,
                    dropped,
                    examined,
                    quarantined_claims,
                    escalation_attempts: outcome.attempts,
                };
            }
        }

        // Step 5: historical credibility update, using the emitted
        // answer set as the feedback signal.
        let mut per_source: FxHashMap<SourceId, (usize, usize)> = FxHashMap::default();
        for node in &kept {
            let correct = generated
                .values
                .iter()
                .any(|v| v.canonical_key() == node.value.canonical_key());
            let entry = per_source.entry(node.source).or_insert((0, 0));
            entry.1 += 1;
            if correct {
                entry.0 += 1;
            }
        }
        for (source, (correct, total)) in per_source {
            stats.record_history(&self.history, source, correct, total);
        }

        PipelineAnswer {
            values: self.restore_surface(entity, relation, generated.values),
            fusion_values,
            abstained: false,
            abstain_reason: None,
            hallucinated: generated.hallucinated,
            graph_confidence,
            kept,
            dropped,
            examined,
            quarantined_claims,
            escalation_attempts,
        }
    }

    /// The closed loop's body: grade the current draft, and while the
    /// grade fails walk the ladder (widen → consult → tighten),
    /// regenerate, and re-grade — all within `cfg`'s attempt and
    /// deadline budgets. Degradation contract: a dead grader accepts
    /// the single-pass verdict (never panics, never loops), a dead
    /// regenerator keeps the current draft and stops escalating, and a
    /// blown budget reports exhaustion so the caller abstains.
    #[allow(clippy::too_many_arguments)]
    fn escalate(
        &mut self,
        query: &Query,
        cfg: LoopConfig,
        entity: EntityId,
        relation: RelationId,
        slot_triples: &[TripleId],
        noise_triples: &[TripleId],
        kept: &mut Vec<NodeConfidence>,
        dropped: usize,
        mut faithful: Vec<Value>,
        mut distractors: Vec<Value>,
        mut profile: ContextProfile,
        mut context_tokens: usize,
        generated: &mut GeneratedAnswer,
        stats: &mut AnswerStats,
    ) -> LoopOutcome {
        let loop_sim_start = self.llm.usage().simulated_ms;
        let mut grade_calls = 0usize;
        let mut grade_sim = 0.0f64;
        let mut esc_sim = 0.0f64;
        let mut attempts = 0u32;

        // Initial grade of the single-pass draft.
        let mut passed = {
            let sim_before = self.llm.usage().simulated_ms;
            grade_calls += 1;
            let verdict = match self.llm.try_grade_support(
                &format!("grade:{}#g0", query.key()),
                context_tokens,
                generated.values.len(),
            ) {
                Ok(()) => grade_supported(&generated.values, &faithful, &mut self.keys),
                // Dead grader: fall back to the single-pass verdict.
                Err(_) => {
                    stats.events.push(TraceEvent::GradeFailed { attempt: 0 });
                    true
                }
            };
            grade_sim += self.llm.usage().simulated_ms - sim_before;
            verdict
        };

        while !passed {
            // Budget gate: attempts and the metered µs deadline. All
            // meter charges are whole microseconds, so the delta is
            // exact.
            let elapsed_us = ms_to_us(self.llm.usage().simulated_ms - loop_sim_start);
            if attempts >= cfg.max_attempts || elapsed_us >= cfg.deadline_us {
                push_loop_spans(stats, grade_calls, grade_sim, attempts, esc_sim, 0);
                return LoopOutcome {
                    attempts,
                    exhausted: true,
                };
            }
            attempts += 1;
            let step = LadderStep::for_attempt(attempts);
            stats.events.push(TraceEvent::Escalated {
                step: step.slug().to_string(),
                attempt: attempts,
            });
            let sim_before = self.llm.usage().simulated_ms;
            match step {
                LadderStep::Widen => {
                    // Rescue slot claims MCC dropped (quarantined ones
                    // were filtered out of `slot_triples` upstream):
                    // each is re-assessed leniently and the context is
                    // rebuilt over the widened kept set.
                    let mut have: Vec<TripleId> = kept.iter().map(|n| n.triple).collect();
                    have.sort_unstable();
                    for &tid in slot_triples {
                        if have.binary_search(&tid).is_err() {
                            kept.push(self.singleton_assessment(tid));
                        }
                    }
                    let (f, d, p, t) = self.build_context(kept, dropped, noise_triples);
                    faithful = f;
                    distractors = d;
                    profile = p;
                    context_tokens = t;
                }
                LadderStep::Consult => {
                    // Fold in reserve claims for this slot: agreement
                    // shrinks the conflict profile, disagreement joins
                    // the distractors. No reserves configured is a
                    // no-op — the rung still regenerates.
                    if let Some(reserve) = self.reserve.clone() {
                        let entity_name = self.kg.entity_name(entity);
                        let relation_name = self.kg.relation_name(relation);
                        let faithful_keys: Vec<multirag_kg::Symbol> =
                            faithful.iter().map(|v| self.keys.key_of(v)).collect();
                        let mut distractor_keys: Vec<multirag_kg::Symbol> =
                            distractors.iter().map(|v| self.keys.key_of(v)).collect();
                        let mut matched = 0usize;
                        let mut agree = 0usize;
                        for claim in reserve.iter() {
                            if !claim.entity.eq_ignore_ascii_case(entity_name)
                                || !claim.attribute.eq_ignore_ascii_case(relation_name)
                            {
                                continue;
                            }
                            matched += 1;
                            let value = claim.value.standardized();
                            let key = self.keys.key_of(&value);
                            if faithful_keys.contains(&key) {
                                agree += 1;
                            } else if !distractor_keys.contains(&key) {
                                distractor_keys.push(key);
                                distractors.push(value);
                            }
                        }
                        // Independent agreement dilutes the conflict
                        // mass; the context itself grows by the
                        // consulted claims.
                        profile.conflict_ratio *= 1.0 / (1.0 + agree as f64);
                        profile.claims += matched;
                        context_tokens += 16 * matched;
                        // The simulated cost of reading the reserves.
                        self.llm.reason(64 + 16 * matched, 16);
                    }
                }
                LadderStep::Tighten => {
                    // Last rung: regenerate against the faithful set
                    // alone with the conflict profile collapsed — the
                    // cheapest, lowest-risk context we can offer.
                    distractors.clear();
                    profile.conflict_ratio *= 0.25;
                    profile.irrelevance_ratio = 0.0;
                    profile.claims = faithful.len();
                    context_tokens = 24 * faithful.len();
                }
            }
            // Regenerate with the tightened context. The suffixed call
            // key re-rolls both the fault plan and the hallucination
            // draw — an escalation is a genuinely new call.
            match self.llm.try_generate_answer(
                &format!("{}#e{attempts}", query.key()),
                faithful.clone(),
                &distractors,
                &profile,
                context_tokens,
            ) {
                Ok(g) => *generated = g,
                // Dead regenerator: keep the current draft and stop
                // escalating — degraded, never panicking.
                Err(_) => {
                    esc_sim += self.llm.usage().simulated_ms - sim_before;
                    push_loop_spans(
                        stats,
                        grade_calls,
                        grade_sim,
                        attempts,
                        esc_sim,
                        generated.values.len(),
                    );
                    return LoopOutcome {
                        attempts,
                        exhausted: false,
                    };
                }
            }
            esc_sim += self.llm.usage().simulated_ms - sim_before;

            // Re-grade the fresh draft.
            let sim_before = self.llm.usage().simulated_ms;
            grade_calls += 1;
            passed = match self.llm.try_grade_support(
                &format!("grade:{}#g{attempts}", query.key()),
                context_tokens,
                generated.values.len(),
            ) {
                Ok(()) => grade_supported(&generated.values, &faithful, &mut self.keys),
                Err(_) => {
                    stats
                        .events
                        .push(TraceEvent::GradeFailed { attempt: attempts });
                    true
                }
            };
            grade_sim += self.llm.usage().simulated_ms - sim_before;
        }
        push_loop_spans(
            stats,
            grade_calls,
            grade_sim,
            attempts,
            esc_sim,
            generated.values.len(),
        );
        LoopOutcome {
            attempts,
            exhausted: false,
        }
    }

    /// Assembles the canonical [`QueryTrace`] for one answered query:
    /// spans in pipeline order, the subgraph verdict, per-source
    /// contributions sorted by name, chaos events, and answer
    /// provenance. Everything serialized is deterministic for a fixed
    /// seed (wall clocks stay out of the canonical JSON).
    fn build_trace(
        &self,
        query: &Query,
        answer: &PipelineAnswer,
        stats: AnswerStats,
        before: &LlmUsage,
    ) -> QueryTrace {
        let mut trace = QueryTrace::new(u64::from(query.id), query.key());
        trace.spans = stats.spans;
        trace.subgraphs.extend(stats.subgraph);
        // Per-source contributions: kept claims + quarantine losses,
        // keyed (and therefore sorted) by source name.
        let mut sources: std::collections::BTreeMap<String, SourceContribution> =
            std::collections::BTreeMap::new();
        for node in &answer.kept {
            let name = self.kg.source_name(node.source).to_string();
            sources
                .entry(name.clone())
                .or_insert_with(|| SourceContribution {
                    source: name,
                    kept_claims: 0,
                    quarantined_claims: 0,
                })
                .kept_claims += 1;
        }
        let mut quarantined: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for (source, skipped) in stats.quarantined {
            *quarantined
                .entry(self.kg.source_name(source).to_string())
                .or_default() += skipped;
        }
        for (name, &skipped) in &quarantined {
            sources
                .entry(name.clone())
                .or_insert_with(|| SourceContribution {
                    source: name.clone(),
                    kept_claims: 0,
                    quarantined_claims: 0,
                })
                .quarantined_claims += skipped;
        }
        trace.sources = sources.into_values().collect();
        for (source, skipped_claims) in quarantined {
            trace.events.push(TraceEvent::SourceQuarantined {
                source,
                skipped_claims,
            });
        }
        let usage = self.llm.usage();
        let retries = usage.retries.saturating_sub(before.retries);
        if retries > 0 {
            trace.events.push(TraceEvent::LlmRetries { count: retries });
        }
        let failed = usage.failed_calls.saturating_sub(before.failed_calls);
        if failed > 0 {
            trace
                .events
                .push(TraceEvent::LlmCallsFailed { count: failed });
        }
        // Closed-loop events (grade failures, escalations) in
        // occurrence order, ahead of the final abstention verdict.
        trace.events.extend(stats.events);
        if let Some(reason) = answer.abstain_reason {
            trace.events.push(TraceEvent::Abstained {
                reason: reason.slug().to_string(),
            });
        }
        let mut supporting: Vec<String> = answer
            .kept
            .iter()
            .map(|n| self.kg.source_name(n.source).to_string())
            .collect();
        supporting.sort();
        supporting.dedup();
        trace.answer = AnswerProvenance {
            answered: !answer.abstained,
            abstain_reason: answer.abstain_reason.map(|r| r.slug().to_string()),
            values: answer.values.iter().map(Value::canonical_key).collect(),
            fusion_values: answer
                .fusion_values
                .iter()
                .map(Value::canonical_key)
                .collect(),
            supporting_sources: supporting,
            hallucinated: answer.hallucinated,
        };
        trace
    }

    /// Maps standardized answer values back to a representative surface
    /// form from the slot's raw claims (the normal form is an internal
    /// artifact of std.py-style standardization; users should see what
    /// a source actually wrote).
    fn restore_surface(
        &self,
        entity: EntityId,
        relation: RelationId,
        values: Vec<Value>,
    ) -> Vec<Value> {
        let raw: Vec<Value> = self
            .kg
            .slot_triples(entity, relation)
            .iter()
            .map(|&tid| match &self.kg.triple(tid).object {
                Object::Entity(e) => Value::Str(self.kg.entity_name(*e).to_string()),
                Object::Literal(v) => v.clone(),
            })
            .collect();
        values
            .into_iter()
            .map(|v| {
                raw.iter()
                    .flat_map(|r| r.scalar_claims())
                    .find(|r| r.answer_key() == v.answer_key())
                    .unwrap_or(v)
            })
            .collect()
    }

    fn kg_domain(&self) -> &str {
        // All benchmark graphs are single-domain; read it off the first
        // source.
        if self.kg.source_count() > 0 {
            let rec = self.kg.source(SourceId(0));
            self.kg.resolve(rec.domain)
        } else {
            ""
        }
    }

    /// Extraction step: MKA path (tier descent) vs the unaggregated
    /// scan. Returns `(slot_triples, noise_triples, examined_count)`.
    fn extract(
        &mut self,
        entity: EntityId,
        relation: RelationId,
    ) -> (Vec<TripleId>, Vec<TripleId>, usize) {
        if self.config.enable_mka {
            // MKA: O(entity span) probe — entity lookup → relation
            // bitset → the slot's ascending-id claim postings.
            let slot = self.tindex.descend(entity, relation, &mut self.tcounters);
            let examined = slot.len();
            (slot, Vec::new(), examined)
        } else {
            // w/o MKA: the whole entity neighbourhood is scanned and
            // handed to the LLM for relevance filtering — slow and
            // noisy. We actually do the scan (the time shows up in QT)
            // and actually keep the noise (it shows up in the context
            // profile).
            let mut slot = Vec::new();
            let mut noise = Vec::new();
            let mut examined = 0usize;
            for (tid, t) in self.kg.iter_triples() {
                examined += 1;
                if t.subject == entity {
                    if t.predicate == relation {
                        slot.push(tid);
                    } else {
                        noise.push(tid);
                    }
                } else if t.object.as_entity() == Some(entity) {
                    noise.push(tid);
                }
            }
            // The LLM reads the whole candidate bundle to filter it.
            self.llm.reason(64 + 8 * (slot.len() + noise.len()), 32);
            // Imperfect relevance filtering over the unaggregated
            // bundle: without the homologous index a fraction of
            // genuine slot claims is missed — the retrieval-recall loss
            // the paper's Challenge 1 attributes to sparse multi-source
            // data.
            let seed = self.llm.seed();
            slot.retain(|tid| {
                multirag_llmsim::determinism::bernoulli(
                    seed,
                    &format!("mka-filter:{}", tid.0),
                    0.85,
                )
            });
            // A fixed context window: without the homologous index the
            // retriever stuffs a conventional top-k chunk budget, and
            // noise chunks compete with genuine claims for the slots.
            let window = 8usize.saturating_sub(noise.len().min(3));
            slot.truncate(window);
            (slot, noise, examined)
        }
    }

    fn singleton_assessment(&mut self, tid: TripleId) -> NodeConfidence {
        let t = self.kg.triple(tid);
        let value = match &t.object {
            Object::Entity(e) => Value::Str(self.kg.entity_name(*e).to_string()),
            Object::Literal(v) => v.standardized(),
        };
        let auth_hist = self.history.auth_hist(t.source, 1.0, 1);
        let authority = self.config.alpha * 0.5 + (1.0 - self.config.alpha) * auth_hist;
        NodeConfidence {
            triple: tid,
            value,
            source: t.source,
            consistency: 0.5,
            auth_llm: 0.5,
            auth_hist,
            authority,
            confidence: 0.5 + authority,
        }
    }

    /// Builds the generation context from the surviving claims.
    fn build_context(
        &self,
        kept: &[NodeConfidence],
        dropped: usize,
        noise: &[TripleId],
    ) -> (Vec<Value>, Vec<Value>, ContextProfile, usize) {
        // Confidence-weighted support per canonical value among the
        // kept claims: a claim "votes" with its node confidence, so a
        // reliable source outweighs a decoy-copying one even at equal
        // claim counts.
        let mut support: FxHashMap<String, (Value, f64, usize)> = FxHashMap::default();
        for node in kept {
            // A node is one source's assertion; multi-valued assertions
            // vote for each of their scalar claims.
            for scalar in node.value.scalar_claims() {
                let entry =
                    support
                        .entry(scalar.canonical_key())
                        .or_insert((scalar.clone(), 0.0, 0));
                entry.1 += node.confidence.max(0.05);
                entry.2 += 1;
            }
        }
        let max_support = support.values().map(|&(_, w, _)| w).fold(0.0f64, f64::max);
        // Faithful read: every value within 48% of the modal weighted
        // support (multi-valued truths tie near the max even under
        // uneven coverage; weakly supported outliers fall away).
        let mut faithful: Vec<(Value, f64)> = support
            .values()
            .filter(|&&(_, w, _)| w > 0.48 * max_support)
            .map(|(v, w, _)| (v.clone(), *w))
            .collect();
        // When every claim stands alone (all singleton support) keep
        // only the best-weighted candidate: there is no consensus.
        let lone_claims = support.values().all(|&(_, _, c)| c <= 1);
        faithful.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.canonical_key().cmp(&b.0.canonical_key()))
        });
        if lone_claims && faithful.len() > 1 {
            faithful.truncate(1);
        }
        let answer_support: f64 = faithful.iter().map(|&(_, w)| w).sum();
        let faithful_keys: std::collections::HashSet<String> =
            faithful.iter().map(|(v, _)| v.canonical_key()).collect();
        let distractors: Vec<Value> = support
            .values()
            .filter(|(v, _, _)| !faithful_keys.contains(&v.canonical_key()))
            .map(|(v, _, _)| v.clone())
            .collect();

        let total_claims = kept.len() + noise.len();
        let total_weight: f64 = support.values().map(|&(_, w, _)| w).sum();
        let conflict_ratio = if kept.is_empty() || total_weight <= 0.0 {
            1.0
        } else {
            (1.0 - answer_support / total_weight).max(0.0)
        };
        let irrelevance_ratio = if total_claims == 0 {
            0.0
        } else {
            noise.len() as f64 / total_claims as f64
        };
        let coverage = if kept.is_empty() { 0.0 } else { 1.0 };
        let profile = ContextProfile {
            conflict_ratio,
            irrelevance_ratio,
            coverage,
            claims: total_claims,
        };
        let context_tokens = 24 * kept.len() + 16 * noise.len() + 8 * dropped.min(8);
        (
            faithful.into_iter().map(|(v, _)| v).collect(),
            distractors,
            profile,
            context_tokens,
        )
    }
}

/// Builds homologous sets from the triples extraction actually
/// recovered — the per-query variant of [`match_slot`] that respects
/// retrieval recall (the w/o-MKA path may have missed claims).
fn sets_from_extraction(
    kg: &KnowledgeGraph,
    entity: EntityId,
    relation: RelationId,
    extracted: &[TripleId],
) -> HomologousSets {
    let mut sets = HomologousSets::default();
    if extracted.len() >= 2 {
        let mut triples = extracted.to_vec();
        triples.sort_unstable();
        let mut sources: Vec<SourceId> = triples.iter().map(|&tid| kg.triple(tid).source).collect();
        sources.sort_unstable();
        sources.dedup();
        sets.groups.push(HomologousGroup {
            entity,
            relation,
            triples,
            source_count: sources.len(),
        });
    } else {
        sets.isolated = extracted.to_vec();
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_datasets::movies::MoviesSpec;
    use multirag_datasets::spec::MultiSourceDataset;

    fn dataset() -> MultiSourceDataset {
        MoviesSpec::small().generate(42)
    }

    #[test]
    fn advance_shares_the_schema_until_a_name_is_added() {
        let mut kg = KnowledgeGraph::new();
        let source = kg.add_source("a", "csv", "flights");
        let f1 = kg.add_entity("CA981", "flights");
        let f2 = kg.add_entity("CA982", "flights");
        let status = kg.add_relation("status");
        kg.add_triple(f1, status, Value::from("delayed"), source, 0);
        let state = GraphState::new(&kg, KeyInterner::for_graph(&kg));
        // A literal on known names shares the schema.
        kg.add_triple(f2, status, Value::from("boarding"), source, 1);
        let literal = state.advance(&kg, KeyInterner::for_graph(&kg));
        assert!(Arc::ptr_eq(&literal.schema, &state.schema));
        // A new relation between known entities rebuilds it, and the
        // link raises the largest degree.
        let follows = kg.add_relation("follows");
        kg.add_triple(f2, follows, Object::Entity(f1), source, 2);
        let linked = literal.advance(&kg, KeyInterner::for_graph(&kg));
        let schema = kg_schema(&kg);
        assert_eq!(linked.schema.relations(), schema.relations());
        assert_eq!(linked.schema.fingerprint(), schema.fingerprint());
        assert_eq!((literal.max_degree, linked.max_degree), (0, 1));
        assert_eq!(*linked.tindex, TieredIndex::build(&kg));
    }

    fn f1(answers: &[(Vec<Value>, &Query)]) -> f64 {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut fn_ = 0usize;
        for (values, query) in answers {
            // Representation-insensitive comparison (answer_key): the
            // pipeline emits standardized forms.
            let gold: std::collections::HashSet<String> =
                query.gold.iter().map(Value::answer_key).collect();
            let got: std::collections::HashSet<String> =
                values.iter().map(Value::answer_key).collect();
            tp += got.intersection(&gold).count();
            fp += got.difference(&gold).count();
            fn_ += gold.difference(&got).count();
        }
        let p = tp as f64 / (tp + fp).max(1) as f64;
        let r = tp as f64 / (tp + fn_).max(1) as f64;
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    #[test]
    fn mka_descends_the_slot_tier_and_the_ablation_does_not() {
        let data = dataset();
        let mut mka = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let mut ablated =
            MklgpPipeline::new(&data.graph, MultiRagConfig::default().without_mka(), 42);
        assert_eq!(
            mka.slot_groups(),
            crate::homologous::match_homologous(&data.graph).groups
        );
        assert!(ablated.slot_groups().is_empty());
        for query in &data.queries {
            mka.answer(query);
            ablated.answer(query);
        }
        assert!(
            mka.tindex_counters().tier_descents > 0,
            "descents must be counted"
        );
        assert_eq!(ablated.tindex_counters(), TindexCounters::default());
    }

    #[test]
    fn pipeline_answers_most_queries_correctly() {
        let data = dataset();
        let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let answers: Vec<(Vec<Value>, &Query)> = data
            .queries
            .iter()
            .map(|q| (pipeline.answer(q).fusion_values, q))
            .collect();
        let score = f1(&answers);
        assert!(score > 0.5, "F1 {score}");
    }

    #[test]
    fn pipeline_is_deterministic() {
        let data = dataset();
        let run = || {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            data.queries
                .iter()
                .map(|q| p.answer(q).values)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mka_ablation_examines_far_more_claims() {
        let data = dataset();
        let mut with = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let mut without =
            MklgpPipeline::new(&data.graph, MultiRagConfig::default().without_mka(), 42);
        let q = &data.queries[0];
        let fast = with.answer(q);
        let slow = without.answer(q);
        assert!(
            slow.examined > fast.examined * 10,
            "w/o MKA must scan: {} vs {}",
            slow.examined,
            fast.examined
        );
    }

    #[test]
    fn full_config_beats_no_mcc_on_f1() {
        let data = dataset();
        let run = |config: MultiRagConfig| {
            let mut p = MklgpPipeline::new(&data.graph, config, 42);
            let answers: Vec<(Vec<Value>, &Query)> = data
                .queries
                .iter()
                .map(|q| (p.answer(q).fusion_values, q))
                .collect();
            f1(&answers)
        };
        // Use many queries for a stable comparison: answer each query
        // set 5 times under different seeds folded into the key via
        // repeated runs (the noise is keyed per query, so one pass with
        // 12 queries is noisy; compare across the whole set).
        let full = run(MultiRagConfig::default());
        let gutted = run(MultiRagConfig::default().without_mcc());
        assert!(
            full >= gutted,
            "full {full} must not lose to w/o MCC {gutted}"
        );
    }

    #[test]
    fn abstains_on_unknown_entities() {
        let data = dataset();
        let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let bogus = Query {
            id: 999,
            text: "What is the year of Nonexistent Film 9999?".into(),
            entity: "Nonexistent Film 9999".into(),
            attribute: "year".into(),
            gold: vec![],
        };
        let answer = pipeline.answer(&bogus);
        assert!(answer.abstained);
        assert!(answer.values.is_empty());
    }

    #[test]
    fn usage_meter_accumulates_llm_cost() {
        let data = dataset();
        let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        pipeline.answer(&data.queries[0]);
        let usage = pipeline.llm().usage();
        assert!(usage.calls >= 2, "logic form + generation at minimum");
        assert!(usage.simulated_ms > 0.0);
        let mut p2 = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        p2.answer(&data.queries[0]);
        p2.reset_usage();
        assert_eq!(p2.llm().usage().calls, 0);
    }

    #[test]
    fn history_learns_source_quality_over_queries() {
        let data = dataset();
        let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        for q in &data.queries {
            pipeline.answer(q);
        }
        // After the query load, per-source credibilities must have
        // spread away from the 0.5 prior.
        let creds: Vec<f64> = data
            .sources
            .iter()
            .map(|s| pipeline.history().credibility(s.id))
            .collect();
        let spread = creds
            .iter()
            .fold(0.0f64, |acc, &c| acc.max((c - 0.5).abs()));
        assert!(spread > 0.01, "credibility never moved: {creds:?}");
    }

    #[test]
    fn healthy_fault_plan_changes_nothing() {
        let data = dataset();
        let plain = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        let chaos_off = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_fault_plan(FaultPlan::healthy(42));
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        assert_eq!(plain, chaos_off);
    }

    #[test]
    fn outages_quarantine_sources_but_survivors_still_answer() {
        let data = dataset();
        let plan = FaultPlan {
            outage_rate: 0.4,
            ..FaultPlan::healthy(9)
        };
        let mut p =
            MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42).with_fault_plan(plan);
        let down = p.quarantined_sources().clone();
        assert!(
            !down.is_empty() && down.len() < data.graph.source_count(),
            "partial outage expected: {} of {}",
            down.len(),
            data.graph.source_count()
        );
        let answers: Vec<PipelineAnswer> = data.queries.iter().map(|q| p.answer(q)).collect();
        assert!(
            answers.iter().any(|a| !a.abstained),
            "surviving sources must still carry answers"
        );
        assert!(
            answers.iter().any(|a| a.quarantined_claims > 0),
            "some claims must have been skipped"
        );
        // Outage feedback sinks the credibility of a down source
        // relative to the fault-free run.
        let mut control = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        for q in &data.queries {
            control.answer(q);
        }
        let punished = down
            .iter()
            .any(|&s| p.history().credibility(s) < control.history().credibility(s) - 1e-9);
        assert!(punished, "outages must cost credibility");
    }

    #[test]
    fn total_outage_abstains_with_structured_reason() {
        let data = dataset();
        let plan = FaultPlan {
            outage_rate: 1.0,
            ..FaultPlan::healthy(3)
        };
        let mut p =
            MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42).with_fault_plan(plan);
        for q in &data.queries {
            let a = p.answer(q);
            assert!(a.abstained, "no sources, no answer");
            assert!(a.values.is_empty(), "never a silent wrong answer");
            assert_eq!(a.abstain_reason, Some(AbstainReason::AllSourcesDown));
        }
    }

    #[test]
    fn dead_generation_abstains_but_keeps_fusion() {
        let data = dataset();
        let plan = FaultPlan {
            llm_failure_rate: 1.0,
            ..FaultPlan::healthy(5)
        };
        let mut p =
            MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42).with_fault_plan(plan);
        let answers: Vec<PipelineAnswer> = data.queries.iter().map(|q| p.answer(q)).collect();
        assert!(answers.iter().all(|a| a.abstained && a.values.is_empty()));
        assert!(answers.iter().any(|a| matches!(
            a.abstain_reason,
            Some(AbstainReason::GenerationFailed { attempts: 3 })
        )));
        // Fusion is LLM-free past MCC: it survives the dead generator.
        assert!(
            answers.iter().any(|a| !a.fusion_values.is_empty()),
            "fusion values must survive generation failure"
        );
        assert!(p.llm().usage().retries > 0, "retries were attempted");
    }

    #[test]
    fn observer_records_traces_spans_and_outcome_counters() {
        let data = dataset();
        let obs = multirag_obs::Observer::new();
        let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_observer(obs.clone());
        for q in &data.queries {
            p.answer(q);
        }
        let traces = obs.traces();
        assert_eq!(traces.len(), data.queries.len());
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter("pipeline_queries_total"),
            data.queries.len() as u64
        );
        assert!(snap.counter("llm_calls_total") > 0);
        let stages: Vec<&str> = obs.profile().iter().map(|p| p.stage.name()).collect();
        assert!(stages.contains(&"mlg_build"));
        assert!(stages.contains(&"homologous_group"));
        assert!(stages.contains(&"generation"));
        // Every trace carries provenance consistent with its outcome.
        for t in &traces {
            if t.answer.answered {
                assert!(!t.answer.fusion_values.is_empty());
            } else {
                assert!(t.answer.abstain_reason.is_some());
            }
        }
    }

    #[test]
    fn observed_answers_publish_llm_usage_and_history_records() {
        let data = dataset();
        let plan = FaultPlan {
            outage_rate: 0.3,
            llm_failure_rate: 0.5,
            ..FaultPlan::healthy(7)
        };
        let obs = multirag_obs::Observer::new();
        let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_fault_plan(plan)
            .with_observer(obs.clone());
        let sources = || (0..data.graph.source_count()).map(|i| SourceId(i as u32));
        let observed = |p: &MklgpPipeline| sources().map(|s| p.history().observations(s)).sum();
        let observed_before: f64 = observed(&p);
        for q in &data.queries {
            p.answer(q);
        }
        let snap = obs.registry().snapshot();
        let usage = p.llm().usage();
        assert!(usage.retries > 0 && usage.failed_calls > 0, "{usage:?}");
        assert_eq!(snap.counter("llm_calls_total"), usage.calls);
        assert_eq!(snap.counter("llm_input_tokens_total"), usage.input_tokens);
        assert_eq!(snap.counter("llm_output_tokens_total"), usage.output_tokens);
        assert_eq!(snap.counter("llm_retries_total"), usage.retries);
        assert_eq!(snap.counter("llm_failed_calls_total"), usage.failed_calls);
        let claims = snap.counter("history_claims_total");
        assert!(claims > 0);
        assert_eq!(claims as f64, observed(&p) - observed_before);
        assert_eq!(
            snap.gauge("history_tracked_sources"),
            Some(p.history().tracked_sources() as f64)
        );

        // A frozen store takes no record, so nothing history-shaped is
        // published — the LLM usage still is.
        let state = GraphState::new(&data.graph, KeyInterner::for_graph(&data.graph));
        let frozen = HistoryStore::paper_defaults();
        frozen.freeze();
        let obs = multirag_obs::Observer::new();
        let mut bound =
            MklgpPipeline::bind(&data.graph, &state, MultiRagConfig::default(), 42, frozen)
                .with_observer(obs.clone());
        for q in &data.queries {
            bound.answer(q);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter("llm_calls_total"), bound.llm().usage().calls);
        assert!(snap.counter("llm_calls_total") > 0);
        assert!(snap
            .counters
            .iter()
            .all(|(k, _)| !k.starts_with("history_")));
        assert!(snap.gauge("history_tracked_sources").is_none());
    }

    #[test]
    fn attaching_an_observer_does_not_change_answers() {
        let data = dataset();
        let plain = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        let observed = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_observer(multirag_obs::Observer::new());
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        assert_eq!(plain, observed);
    }

    #[test]
    fn traces_are_byte_identical_across_same_seed_runs() {
        let data = dataset();
        let run = || {
            let obs = multirag_obs::Observer::new();
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_observer(obs.clone());
            for q in &data.queries {
                p.answer(q);
            }
            multirag_obs::traces_json(42, "movies", &obs.take_traces())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quarantine_shows_up_in_traces_and_chaos_counters() {
        let data = dataset();
        let plan = FaultPlan {
            outage_rate: 0.4,
            ..FaultPlan::healthy(9)
        };
        let obs = multirag_obs::Observer::new();
        let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_fault_plan(plan)
            .with_observer(obs.clone());
        for q in &data.queries {
            p.answer(q);
        }
        let snap = obs.registry().snapshot();
        assert!(snap.counter("chaos_quarantined_claims_total") > 0);
        assert!(obs
            .traces()
            .iter()
            .any(|t| t.events.iter().any(|e| e.kind() == "source_quarantined")));
    }

    #[test]
    fn confidence_memo_reuses_verdicts_without_changing_answers() {
        let data = dataset();
        // Frozen history: the memo contract (per-epoch validity).
        let run = |memo: Option<ConfidenceMemo>| {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            p.history().freeze();
            if let Some(m) = memo {
                p = p.with_confidence_memo(m);
            }
            let mut answers = Vec::new();
            // Every query twice: the second pass must hit.
            for q in data.queries.iter().chain(data.queries.iter()) {
                answers.push(p.answer(q));
            }
            (answers, p.llm().usage())
        };
        let memo = ConfidenceMemo::new();
        let (plain, plain_usage) = run(None);
        let (memoized, memo_usage) = run(Some(memo.clone()));
        assert_eq!(plain, memoized, "memo must never change an answer");
        assert!(memo.hits() > 0, "second pass must hit the memo");
        assert!(
            memo_usage.simulated_ms < plain_usage.simulated_ms,
            "memo hits must save simulated LLM time: {} vs {}",
            memo_usage.simulated_ms,
            plain_usage.simulated_ms
        );
    }

    #[test]
    fn response_cache_preserves_answers_and_counts_hits() {
        let data = dataset();
        let run = |cache: Option<LlmResponseCache>| {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            p.history().freeze();
            if let Some(c) = cache {
                p = p.with_llm_response_cache(c);
            }
            let answers: Vec<PipelineAnswer> = data
                .queries
                .iter()
                .chain(data.queries.iter())
                .map(|q| p.answer(q))
                .collect();
            (answers, p.llm().usage())
        };
        let cache = LlmResponseCache::new();
        let (plain, plain_usage) = run(None);
        let (cached, usage) = run(Some(cache.clone()));
        assert_eq!(plain, cached, "cache must never change an answer");
        assert!(cache.hits() > 0, "repeats must hit");
        assert!(usage.calls < plain_usage.calls, "a hit places no call");
    }

    #[test]
    fn cloned_pipelines_answer_identically() {
        let data = dataset();
        let mut original = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        original.history().freeze();
        let mut fork = original.clone();
        for q in &data.queries {
            assert_eq!(original.answer(q), fork.answer(q));
        }
    }

    #[test]
    fn graph_confidence_is_reported_for_homologous_slots() {
        let data = dataset();
        let mut pipeline = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
        let with_conf = data
            .queries
            .iter()
            .filter(|q| pipeline.answer(q).graph_confidence.is_some())
            .count();
        assert!(
            with_conf > 0,
            "dense movies data must have homologous slots"
        );
    }

    /// A perturbed dataset with a non-zero baseline hallucination rate
    /// — the regime the closed loop is for.
    fn conflicted_dataset() -> MultiSourceDataset {
        let data = dataset();
        let data = multirag_datasets::perturb::inject_conflicts(&data, 0.35, 42);
        multirag_datasets::perturb::mask_relations(&data, 0.2, 42)
    }

    #[test]
    fn loop_off_is_bit_identical_to_single_pass() {
        let data = conflicted_dataset();
        let run = |cfg: Option<LoopConfig>| {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            if let Some(cfg) = cfg {
                p = p.with_loop_control(cfg);
            }
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        let plain = run(None);
        let zero_budget = run(Some(LoopConfig::default().with_max_attempts(0)));
        assert_eq!(plain, zero_budget, "max_attempts=0 must disable the loop");
    }

    #[test]
    fn closed_loop_strictly_reduces_hallucinations() {
        let data = conflicted_dataset();
        let halluc = |attempts: u32| {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_loop_control(LoopConfig::default().with_max_attempts(attempts));
            data.queries
                .iter()
                .map(|q| p.answer(q))
                .filter(|a| a.hallucinated)
                .count()
        };
        let baseline = halluc(0);
        assert!(baseline > 0, "perturbation must induce hallucination");
        for attempts in 1..=3 {
            assert!(
                halluc(attempts) < baseline,
                "escalation at {attempts} attempt(s) must beat the baseline {baseline}"
            );
        }
    }

    #[test]
    fn dead_grader_degrades_to_the_single_pass_verdict() {
        let data = conflicted_dataset();
        let run = |grader_failure_rate: f64, attempts: u32| {
            let obs = multirag_obs::Observer::new();
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_fault_plan(FaultPlan {
                    grader_failure_rate,
                    ..FaultPlan::healthy(42)
                })
                .with_loop_control(LoopConfig::default().with_max_attempts(attempts))
                .with_observer(obs.clone());
            let answers: Vec<PipelineAnswer> = data.queries.iter().map(|q| p.answer(q)).collect();
            (answers, obs)
        };
        // Every grader dead: the loop must accept every single-pass
        // draft — same values as a loop-free pipeline, zero escalation.
        let (dead, obs) = run(1.0, 3);
        let single_pass = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            data.queries.iter().map(|q| p.answer(q)).collect::<Vec<_>>()
        };
        assert_eq!(dead.len(), single_pass.len());
        for (d, s) in dead.iter().zip(&single_pass) {
            assert_eq!(d.values, s.values, "dead grader must not change answers");
            assert_eq!(d.escalation_attempts, 0);
        }
        let snap = obs.registry().snapshot();
        assert_eq!(
            snap.counter("loop_grade_failed_total"),
            data.queries.len() as u64,
            "every grading call must have been recorded as failed"
        );
        assert_eq!(snap.counter("loop_escalations_total"), 0);
    }

    #[test]
    fn exhausted_deadline_abstains_with_structured_reason() {
        let data = conflicted_dataset();
        // A 1µs deadline: the first failing grade exhausts the budget
        // before any escalation attempt is allowed.
        let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_loop_control(
                LoopConfig::default()
                    .with_max_attempts(3)
                    .with_deadline_ms(0.001),
            );
        let answers: Vec<PipelineAnswer> = data.queries.iter().map(|q| p.answer(q)).collect();
        let exhausted: Vec<&PipelineAnswer> = answers
            .iter()
            .filter(|a| {
                matches!(
                    a.abstain_reason,
                    Some(AbstainReason::EscalationExhausted { .. })
                )
            })
            .collect();
        assert!(
            !exhausted.is_empty(),
            "failing grades under a spent deadline must abstain"
        );
        for a in exhausted {
            assert!(a.abstained && a.values.is_empty());
            assert_eq!(
                a.abstain_reason,
                Some(AbstainReason::EscalationExhausted { attempts: 0 }),
                "deadline fired before the first escalation attempt"
            );
            assert!(
                !a.fusion_values.is_empty(),
                "fusion stands even when the loop gives up"
            );
            assert!(!a.hallucinated, "abstention is never a hallucination");
        }
    }

    #[test]
    fn escalation_charges_metered_time() {
        let data = conflicted_dataset();
        let sim = |attempts: u32| {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
                .with_loop_control(LoopConfig::default().with_max_attempts(attempts));
            for q in &data.queries {
                p.answer(q);
            }
            p.llm().usage().simulated_ms
        };
        let off = {
            let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42);
            for q in &data.queries {
                p.answer(q);
            }
            p.llm().usage().simulated_ms
        };
        assert!(
            sim(1) > off,
            "grading and escalation must cost simulated time"
        );
    }

    #[test]
    fn reserve_consultation_is_deterministic_and_clone_safe() {
        let data = conflicted_dataset();
        let reserves = multirag_datasets::render::render_all_sources(&dataset());
        let mut original = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_reserve_sources(&reserves)
            .with_loop_control(LoopConfig::default().with_max_attempts(3));
        original.history().freeze();
        let mut fork = original.clone();
        for q in &data.queries {
            assert_eq!(original.answer(q), fork.answer(q));
        }
    }

    #[test]
    fn loop_events_appear_in_traces_before_the_abstain_verdict() {
        let data = conflicted_dataset();
        let obs = multirag_obs::Observer::new();
        let mut p = MklgpPipeline::new(&data.graph, MultiRagConfig::default(), 42)
            .with_loop_control(LoopConfig::default().with_max_attempts(2))
            .with_observer(obs.clone());
        for q in &data.queries {
            p.answer(q);
        }
        let traces = obs.take_traces();
        let escalated: Vec<&QueryTrace> = traces
            .iter()
            .filter(|t| t.events.iter().any(|e| e.kind() == "escalated"))
            .collect();
        assert!(!escalated.is_empty(), "conflicted data must escalate");
        for t in &escalated {
            let stages: Vec<&str> = t.spans.iter().map(|s| s.stage.name()).collect();
            assert!(stages.contains(&"grade"));
            assert!(stages.contains(&"escalation"));
            // Any abstain verdict must come after the loop events.
            if let Some(abstain_at) = t.events.iter().position(|e| e.kind() == "abstained") {
                let last_loop = t
                    .events
                    .iter()
                    .rposition(|e| matches!(e.kind(), "escalated" | "grade_failed"))
                    .unwrap();
                assert!(last_loop < abstain_at);
            }
        }
    }
}
