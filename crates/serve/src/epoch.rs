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
//!    of it into the new snapshot, next to the writer's graph (moved
//!    in, not cloned) and the epoch's [`GraphState`], advanced from the
//!    previous epoch's over the triples applied since: the
//!    [`TieredIndex`] is extended by a merge, and the canonical-key
//!    interner extended, not rebuilt;
//! 3. the index swaps the snapshot in, and the writer takes the
//!    retired epoch back: once no reader holds it, the writer replays
//!    the updates applied since onto its graph and continues on that
//!    copy, so a publish costs what the epoch applied, not what the
//!    graph holds. If a reader still holds it, the writer clones the
//!    new snapshot's graph instead;
//! 4. the serving layer clears the epoch-scoped caches (result cache,
//!    MCC memo) on swap; the content-addressed LLM response cache
//!    survives because its keys hash every operand.
//!
//! [`TieredIndex`]: multirag_kg::TieredIndex

use multirag_core::{GraphState, HistoryStore, MklgpPipeline, MultiRagConfig};
use multirag_kg::{persist, FxHashMap, KnowledgeGraph, SourceId, Value};
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
    /// What every pipeline bound to this epoch shares, derived once at
    /// publish from the previous epoch's: the extraction schema, the
    /// `TieredIndex` over [`EpochSnapshot::graph`] (whose slot tier
    /// holds the homologous groups and which every worker descends),
    /// the largest degree and the canonical-key interner, which equals
    /// [`KeyInterner::for_graph`] over the graph.
    ///
    /// [`KeyInterner::for_graph`]: multirag_kg::KeyInterner::for_graph
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
/// store, the state of the last publish and the feedback accumulated
/// since. It keeps no slot structure of its own: the graph's slot map
/// answers [`IndexWriter::apply`], and each publish extends the
/// previous epoch's `TieredIndex`.
///
/// Two graphs stay alive: the one the writer applies to and the one
/// the current snapshot serves. A publish moves the writer's graph into
/// the new snapshot and takes the retired epoch's graph back, once no
/// reader holds that epoch, rolling it forward by replaying the updates
/// applied since; otherwise it clones the new snapshot's graph.
pub struct IndexWriter {
    graph: KnowledgeGraph,
    history: HistoryStore,
    /// The state the next publish advances: the last snapshot's (or,
    /// before the first publish, the seeded graph's) index, schema and
    /// largest degree, around the writer's own interner, which covers
    /// an earlier state of the graph and is extended at publish.
    state: GraphState,
    /// The last published snapshot, which the next publish retires.
    published: Option<Arc<EpochSnapshot>>,
    /// Updates applied since the last publish, each with the source it
    /// resolved to, in apply order: the roll-forward replays them.
    log: Vec<(SourceId, TripleUpdate)>,
    sources: FxHashMap<String, SourceId>,
    feedback: BTreeMap<SourceId, (usize, usize)>,
    config: MultiRagConfig,
    seed: u64,
    domain: String,
    epoch: u64,
}

/// Appends `update` to `graph` as `source`, registering the source
/// first when `graph` does not have it yet (sources are numbered in
/// registration order). [`IndexWriter::apply`] and the roll-forward
/// replay both run this, in update order, so a replayed graph interns
/// every string in the order the published one did. Returns the slot's
/// claim count.
fn append(
    graph: &mut KnowledgeGraph,
    domain: &str,
    source: SourceId,
    update: &TripleUpdate,
) -> usize {
    if source.index() >= graph.source_count() {
        graph.add_source(&update.source, "stream", domain);
    }
    let entity = graph.add_entity(&update.entity, domain);
    let relation = graph.add_relation(&update.relation);
    graph.add_triple(entity, relation, update.value.clone(), source, update.chunk);
    graph.slot_triples(entity, relation).len()
}

impl IndexWriter {
    /// Wraps an existing graph. The initial credibility store is the
    /// MKA consensus estimate [`MklgpPipeline::new`] computes — the
    /// same warm prior the batch pipeline starts from — and the graph
    /// state, interner included, is the one it derives
    /// ([`GraphState::seeded`]), which the first publish advances.
    pub fn new(graph: KnowledgeGraph, config: MultiRagConfig, seed: u64) -> Self {
        let (state, history) = GraphState::seeded(&graph, config);
        let sources: FxHashMap<String, SourceId> = graph
            .source_ids()
            .map(|id| (graph.source_name(id).to_string(), id))
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
            state,
            published: None,
            log: Vec::new(),
            sources,
            feedback: BTreeMap::new(),
            config,
            seed,
            domain,
            epoch: 0,
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
        let source = match self.sources.get(&update.source) {
            Some(&known) => known,
            None => {
                let next = SourceId(self.graph.source_count() as u32);
                self.sources.insert(update.source.clone(), next);
                next
            }
        };
        self.log.push((source, update.clone()));
        append(&mut self.graph, &self.domain, source, update)
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
    /// the newly applied triples, advances the previous epoch's state
    /// over them and publishes a new immutable snapshot that takes the
    /// writer's graph. The writer then takes back the previous
    /// snapshot if the caller has dropped it (see
    /// [`IndexWriter::publish_to`]).
    pub fn publish(&mut self) -> Arc<EpochSnapshot> {
        let snapshot = self.seal();
        self.roll_forward(&snapshot);
        snapshot
    }

    /// [`IndexWriter::publish`] + swap into `index` in one step. The
    /// swap comes first, so the index lets go of the retired epoch
    /// before the writer tries to take it back: when no reader still
    /// holds it, the writer continues on its graph and interner,
    /// rolled forward, instead of cloning the new snapshot's.
    pub fn publish_to(&mut self, index: &EpochIndex) -> Arc<EpochSnapshot> {
        let snapshot = self.seal();
        index.publish(Arc::clone(&snapshot));
        self.roll_forward(&snapshot);
        snapshot
    }

    /// Builds the next snapshot around the writer's graph, which it
    /// moves in; [`IndexWriter::roll_forward`] gives the writer a graph
    /// again.
    fn seal(&mut self) -> Arc<EpochSnapshot> {
        self.history.thaw();
        for (source, (correct, total)) in std::mem::take(&mut self.feedback) {
            self.history.record(source, correct, total);
        }
        let history = self.history.clone();
        history.freeze();
        let mut keys = std::mem::take(&mut self.state.keys);
        keys.extend_to(&self.graph);
        let state = self.state.advance(&self.graph, keys);
        self.epoch += 1;
        Arc::new(EpochSnapshot {
            epoch: self.epoch,
            graph: std::mem::take(&mut self.graph),
            state,
            history,
            config: self.config,
            seed: self.seed,
            updates_applied: self.log.len() as u64,
        })
    }

    /// Retires the previous snapshot and gives the writer a graph equal
    /// to `snapshot`'s. If nothing else holds the retired epoch, its
    /// graph and interner come back to the writer and the logged
    /// updates are replayed onto the graph; otherwise (a reader still
    /// holds it, or this is the first publish) the writer clones
    /// `snapshot`'s graph and shares its interner, which the next
    /// publish then copies to extend.
    fn roll_forward(&mut self, snapshot: &Arc<EpochSnapshot>) {
        let retired = self
            .published
            .replace(Arc::clone(snapshot))
            .and_then(|last| Arc::try_unwrap(last).ok());
        match retired {
            Some(retired) => {
                self.graph = retired.graph;
                for (source, update) in &self.log {
                    append(&mut self.graph, &self.domain, *source, update);
                }
                self.state = GraphState {
                    keys: retired.state.keys,
                    ..snapshot.state.clone()
                };
            }
            None => {
                self.graph = snapshot.graph.clone();
                self.state = snapshot.state.clone();
            }
        }
        self.log.clear();
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

    /// Corroborates an existing slot from an existing source, so the
    /// epoch adds no entity, relation or source.
    fn corroborate(writer: &mut IndexWriter, value: &str) {
        let graph = writer.graph();
        let update = TripleUpdate {
            entity: graph.entity_name(multirag_kg::EntityId(0)).into(),
            relation: graph.relation_name(multirag_kg::RelationId(0)).into(),
            value: Value::from(value),
            source: graph.source_name(SourceId(1)).into(),
            chunk: 7,
        };
        writer.apply(&update);
    }

    /// The heap address of `entity`'s subject postings: a graph the
    /// writer took back keeps it, and a clone allocates its own.
    fn postings(graph: &KnowledgeGraph, entity: multirag_kg::EntityId) -> usize {
        graph.outgoing(entity).as_ptr() as usize
    }

    fn assert_same_snapshots(a: &EpochSnapshot, b: &EpochSnapshot) {
        assert_eq!(persist::dump(&a.graph), persist::dump(&b.graph));
        assert_eq!(*a.state.tindex, *b.state.tindex);
        assert_eq!(a.state.schema.fingerprint(), b.state.schema.fingerprint());
        assert_eq!(a.state.max_degree, b.state.max_degree);
        let (ka, kb) = (&a.state.keys, &b.state.keys);
        assert_eq!(
            (ka.len(), ka.hits(), ka.misses()),
            (kb.len(), kb.hits(), kb.misses())
        );
        assert_eq!((a.epoch, a.updates_applied), (b.epoch, b.updates_applied));
    }

    #[test]
    fn publish_rolls_the_retired_epoch_forward_unless_a_reader_holds_it() {
        let data = MoviesSpec::small().generate(42);
        let new = || IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), 42);
        let (mut rolling, mut cloning) = (new(), new());
        let (index, held) = (
            EpochIndex::new(rolling.publish()),
            EpochIndex::new(cloning.publish()),
        );
        let untouched = data
            .graph
            .entity_ids()
            .skip(1)
            .find(|&e| !data.graph.outgoing(e).is_empty())
            .expect("an entity with postings");
        let retired = postings(&index.load().graph, untouched);
        let schema = Arc::clone(&index.load().state.schema);
        corroborate(&mut rolling, "fresh");
        corroborate(&mut cloning, "fresh");
        let reader = held.load();
        let (rolled, cloned) = (rolling.publish_to(&index), cloning.publish_to(&held));

        // No reader was left on the retired epoch: the writer continues
        // on its graph instead of cloning, and, the epoch having added
        // no entity or relation, the schema is shared, not rebuilt.
        assert_eq!(postings(rolling.graph(), untouched), retired);
        assert!(Arc::ptr_eq(&rolled.state.schema, &schema));
        // A reader held the retired epoch: the writer cloned the new one.
        let copy = postings(cloning.graph(), untouched);
        assert_ne!(copy, postings(&reader.graph, untouched));
        assert_ne!(copy, postings(&cloned.graph, untouched));

        assert_same_snapshots(&rolled, &cloned);
        assert_eq!(rolling.dump(), cloning.dump());
        assert_eq!(rolling.graph().triple_count(), rolled.graph.triple_count());
        corroborate(&mut rolling, "fresher");
        corroborate(&mut cloning, "fresher");
        assert_same_snapshots(&rolling.publish_to(&index), &cloning.publish_to(&held));
        assert_eq!(rolling.dump(), cloning.dump());
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
