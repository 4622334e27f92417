//! Epoch-snapshotted index state: one writer, many lock-free-ish readers.
//!
//! The serving subsystem separates the *mutable* world (a single
//! [`IndexWriter`] applying streamed triple updates and folding in
//! serving feedback) from the *immutable* world queries actually read
//! (an [`EpochSnapshot`] bundling the knowledge graph, the per-graph
//! pipeline state — its tiered index included — and a frozen
//! credibility store).
//! Publishing swaps one `Arc` behind a short write lock;
//! readers clone the `Arc` and keep answering from the old epoch until
//! they next call [`EpochIndex::load`] — they never block on the
//! writer, and an in-flight query never observes a half-applied batch.
//!
//! The epoch protocol (DESIGN.md §5.8):
//!
//! 1. between publishes the writer applies [`TripleUpdate`]s to its
//!    private graph, and absorbs per-source feedback tallies reported
//!    by the engine;
//! 2. `publish` folds the accumulated feedback into the (thawed)
//!    credibility store in sorted source order — deterministic no
//!    matter how the serving threads interleaved — then freezes a clone
//!    of it into the new snapshot, next to the epoch's [`GraphState`]
//!    (a [`TieredIndex`] built over the graph, and the canonical-key
//!    interner extended over the triples applied since the last
//!    publish, not rebuilt);
//! 3. the serving layer clears the epoch-scoped caches (result cache,
//!    MCC memo) on swap; the content-addressed LLM response cache
//!    survives because its keys hash every operand.
//!
//! [`TieredIndex`]: multirag_kg::TieredIndex

use multirag_core::{GraphState, HistoryStore, MklgpPipeline, MultiRagConfig};
use multirag_kg::{persist, FxHashMap, KeyInterner, KnowledgeGraph, SourceId, Value};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One streamed triple: names instead of ids so updates are
/// graph-independent (ids are assigned when the writer applies them).
#[derive(Debug, Clone, PartialEq)]
pub struct TripleUpdate {
    /// Subject entity name.
    pub entity: String,
    /// Relation (attribute) name.
    pub relation: String,
    /// Asserted literal value.
    pub value: Value,
    /// Asserting source name (created with format `"stream"` when new).
    pub source: String,
    /// Provenance chunk within the source.
    pub chunk: u32,
}

/// An immutable, shareable view of one published epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotonic epoch number (first publish = 1).
    pub epoch: u64,
    /// The knowledge graph as of this epoch.
    pub graph: KnowledgeGraph,
    /// What every pipeline bound to this epoch shares, built once at
    /// publish: the extraction schema, the `TieredIndex` over
    /// [`EpochSnapshot::graph`] (whose slot tier holds the homologous
    /// groups and which every worker descends), the largest degree and
    /// the canonical-key interner, which equals
    /// [`KeyInterner::for_graph`] over the graph.
    pub state: GraphState,
    /// Frozen source-credibility store: `record` is a no-op, so every
    /// answer in this epoch is a pure function of `(epoch, query)`.
    pub history: HistoryStore,
    /// Pipeline configuration the epoch serves with.
    pub config: MultiRagConfig,
    /// Seed the epoch serves with.
    pub seed: u64,
    /// Updates applied since the previous epoch.
    pub updates_applied: u64,
}

impl EpochSnapshot {
    /// Builds a pipeline bound to this snapshot, with the epoch's
    /// frozen credibility store installed. Callers layer caches, fault
    /// plans and retry policies on top. Binding derives nothing from
    /// the graph ([`MklgpPipeline::bind`]): it shares the epoch's
    /// schema, `TieredIndex` and interner keys, copies the history,
    /// and never runs the MKA consensus rounds —
    /// whose output the frozen store replaces anyway. A cluster
    /// spinning up one pipeline per (node, worker) pair pays that copy
    /// and nothing else.
    pub fn pipeline(&self) -> MklgpPipeline<'_> {
        MklgpPipeline::bind(
            &self.graph,
            &self.state,
            self.config,
            self.seed,
            self.history.clone(),
        )
    }
}

/// The reader-facing handle: an `Arc`-swapped current snapshot.
#[derive(Debug)]
pub struct EpochIndex {
    current: RwLock<Arc<EpochSnapshot>>,
}

impl EpochIndex {
    /// Starts serving from `snapshot`.
    pub fn new(snapshot: Arc<EpochSnapshot>) -> Self {
        Self {
            current: RwLock::new(snapshot),
        }
    }

    /// The current snapshot. Cheap (`Arc` clone under a read lock);
    /// the caller keeps serving from it even if a publish lands later.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.current.read().clone()
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Atomically swaps in a new snapshot.
    pub fn publish(&self, snapshot: Arc<EpochSnapshot>) {
        *self.current.write() = snapshot;
    }
}

/// The single writer: owns the evolving graph, the thawed credibility
/// store, the canonical-key interner and the feedback accumulated
/// since the last publish. It keeps no slot structure of its own: the
/// graph's slot map answers [`IndexWriter::apply`], and each publish
/// builds the epoch's `TieredIndex`.
pub struct IndexWriter {
    graph: KnowledgeGraph,
    history: HistoryStore,
    /// Covers the graph as of the last publish; extended over the
    /// triples applied since at the next one.
    keys: KeyInterner,
    sources: FxHashMap<String, SourceId>,
    feedback: BTreeMap<SourceId, (usize, usize)>,
    config: MultiRagConfig,
    seed: u64,
    domain: String,
    epoch: u64,
    updates_since_publish: u64,
}

impl IndexWriter {
    /// Wraps an existing graph. The initial credibility store is the
    /// MKA consensus estimate [`MklgpPipeline::new`] computes — the
    /// same warm prior the batch pipeline starts from — and the
    /// interner is the one that pipeline built for the graph.
    pub fn new(graph: KnowledgeGraph, config: MultiRagConfig, seed: u64) -> Self {
        let seeded = MklgpPipeline::new(&graph, config, seed);
        let history = seeded.history().clone();
        let keys = seeded.key_interner().clone();
        let sources: FxHashMap<String, SourceId> = (0..graph.source_count())
            .map(|i| {
                let id = SourceId(i as u32);
                (graph.source_name(id).to_string(), id)
            })
            .collect();
        let domain = if graph.source_count() > 0 {
            let rec = graph.source(SourceId(0));
            graph.resolve(rec.domain).to_string()
        } else {
            String::new()
        };
        Self {
            graph,
            history,
            keys,
            sources,
            feedback: BTreeMap::new(),
            config,
            seed,
            domain,
            epoch: 0,
            updates_since_publish: 0,
        }
    }

    /// Warm-starts from a `kg::persist` dump (the on-disk hand-off
    /// between an ingest run and a serving process).
    pub fn warm_start(
        dump: &str,
        config: MultiRagConfig,
        seed: u64,
    ) -> Result<Self, persist::PersistError> {
        Ok(Self::new(persist::load(dump)?, config, seed))
    }

    /// Serializes the writer's current graph (for checkpointing the
    /// serving state back to disk).
    pub fn dump(&self) -> String {
        persist::dump(&self.graph)
    }

    /// The writer's private (unpublished) graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Number of epochs published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies one streamed triple. Returns the slot's updated
    /// homologous cardinality (1 = isolated, ≥ 2 = homologous group),
    /// which the next snapshot's slot tier will show.
    pub fn apply(&mut self, update: &TripleUpdate) -> usize {
        let source = *self
            .sources
            .entry(update.source.clone())
            .or_insert_with(|| {
                self.graph
                    .add_source(&update.source, "stream", &self.domain)
            });
        let entity = self.graph.add_entity(&update.entity, &self.domain);
        let relation = self.graph.add_relation(&update.relation);
        self.graph
            .add_triple(entity, relation, update.value.clone(), source, update.chunk);
        self.updates_since_publish += 1;
        self.graph.slot_triples(entity, relation).len()
    }

    /// Absorbs per-source `(correct, total)` feedback tallies from a
    /// serving wave. Merged commutatively, so the engine can report
    /// tallies in any order without perturbing the next epoch.
    pub fn absorb_feedback(&mut self, tally: &[(SourceId, usize, usize)]) {
        for &(source, correct, total) in tally {
            let entry = self.feedback.entry(source).or_insert((0, 0));
            entry.0 += correct;
            entry.1 += total;
        }
    }

    /// Folds pending feedback into the credibility store (the
    /// `BTreeMap` yields source order by construction — deterministic
    /// regardless of serving interleavings), extends the interner over
    /// the newly applied triples, builds the epoch's `TieredIndex`
    /// and publishes a new immutable snapshot.
    pub fn publish(&mut self) -> Arc<EpochSnapshot> {
        self.history.thaw();
        for (source, (correct, total)) in std::mem::take(&mut self.feedback) {
            self.history.record(source, correct, total);
        }
        let history = self.history.clone();
        history.freeze();
        self.keys.extend_to(&self.graph);
        self.epoch += 1;
        let snapshot = EpochSnapshot {
            epoch: self.epoch,
            graph: self.graph.clone(),
            state: GraphState::new(&self.graph, self.keys.clone()),
            history,
            config: self.config,
            seed: self.seed,
            updates_applied: self.updates_since_publish,
        };
        self.updates_since_publish = 0;
        Arc::new(snapshot)
    }

    /// [`IndexWriter::publish`] + swap into `index` in one step.
    pub fn publish_to(&mut self, index: &EpochIndex) -> Arc<EpochSnapshot> {
        let snapshot = self.publish();
        index.publish(snapshot.clone());
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_core::{match_homologous, match_homologous_tiered};
    use multirag_datasets::movies::MoviesSpec;

    fn writer() -> IndexWriter {
        let data = MoviesSpec::small().generate(42);
        IndexWriter::new(data.graph, MultiRagConfig::default(), 42)
    }

    #[test]
    fn warm_start_round_trips_the_graph() {
        let data = MoviesSpec::small().generate(42);
        let dump = persist::dump(&data.graph);
        let writer =
            IndexWriter::warm_start(&dump, MultiRagConfig::default(), 42).expect("dump must load");
        assert_eq!(writer.graph().triple_count(), data.graph.triple_count());
        assert_eq!(writer.graph().source_count(), data.graph.source_count());
        assert_eq!(writer.dump(), dump, "dump is a fixed point");
    }

    #[test]
    fn publish_snapshots_are_frozen_and_numbered() {
        let mut writer = writer();
        let index = EpochIndex::new(writer.publish());
        assert_eq!(index.epoch(), 1);
        let snap = index.load();
        assert!(snap.history.is_frozen(), "published history must freeze");
        assert_eq!(snap.updates_applied, 0);
        // The writer's own store stays usable for the next fold.
        writer.absorb_feedback(&[(SourceId(0), 3, 4)]);
        let snap2 = writer.publish_to(&index);
        assert_eq!(index.epoch(), 2);
        assert_eq!(snap2.epoch, 2);
        // Old snapshot is untouched: readers holding it keep serving.
        assert_eq!(snap.epoch, 1);
    }

    #[test]
    fn applied_updates_land_in_graph_and_index() {
        let mut writer = writer();
        let before = writer.graph().triple_count();
        let slot_entity = writer
            .graph()
            .entity_name(multirag_kg::EntityId(0))
            .to_string();
        let cardinality = writer.apply(&TripleUpdate {
            entity: slot_entity.clone(),
            relation: "stream_attr".into(),
            value: Value::from("fresh"),
            source: "stream-0".into(),
            chunk: 7,
        });
        assert_eq!(cardinality, 1, "new slot starts isolated");
        let cardinality = writer.apply(&TripleUpdate {
            entity: slot_entity,
            relation: "stream_attr".into(),
            value: Value::from("fresh"),
            source: "stream-1".into(),
            chunk: 7,
        });
        assert_eq!(cardinality, 2, "second source makes it homologous");
        assert_eq!(writer.graph().triple_count(), before + 2);
        let snap = writer.publish();
        assert_eq!(snap.updates_applied, 2);
        // The snapshot's slot tier agrees with the batch matcher.
        let tiered = match_homologous_tiered(&snap.state.tindex);
        let batch = match_homologous(&snap.graph);
        assert_eq!(tiered.groups, batch.groups);
        assert_eq!(tiered.isolated, batch.isolated);
    }

    #[test]
    fn feedback_folds_deterministically_at_publish() {
        let data = MoviesSpec::small().generate(42);
        let run = |tally: &[(SourceId, usize, usize)]| {
            let mut w = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), 42);
            w.absorb_feedback(tally);
            let snap = w.publish();
            (0..data.graph.source_count())
                .map(|i| snap.history.credibility(SourceId(i as u32)))
                .collect::<Vec<f64>>()
        };
        let forward = [
            (SourceId(0), 2, 4),
            (SourceId(1), 1, 5),
            (SourceId(0), 1, 1),
        ];
        let reversed = [
            (SourceId(0), 1, 1),
            (SourceId(1), 1, 5),
            (SourceId(0), 2, 4),
        ];
        assert_eq!(run(&forward), run(&reversed));
        // Feedback actually moves credibility vs a feedback-free publish.
        assert_ne!(run(&forward), run(&[]));
    }

    #[test]
    fn snapshot_pipeline_serves_frozen_answers() {
        let data = MoviesSpec::small().generate(42);
        let mut writer = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), 42);
        let snap = writer.publish();
        // Frozen history: answering the same query repeatedly (which
        // would shift credibility in the batch pipeline) is idempotent.
        let mut p = snap.pipeline();
        let first = p.answer(&data.queries[0]);
        for _ in 0..3 {
            assert_eq!(p.answer(&data.queries[0]), first);
        }
    }
}
