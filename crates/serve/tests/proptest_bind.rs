//! Streamed updates at the epoch level. After random streams of
//! updates, every published snapshot must agree with a from-scratch
//! build over its own graph:
//!
//! * its slot tier equals the sort-based batch matcher
//!   ([`match_homologous`]), and every [`IndexWriter::apply`] return
//!   equals that slot's claim count in the next snapshot — streamed ==
//!   batch, on the structure that actually serves;
//! * a pipeline bound to it ([`EpochSnapshot::pipeline`]) answers
//!   every query exactly like one bound to fresh state — a fresh
//!   interner, schema and tiered index — with the snapshot's frozen
//!   history;
//! * its interner equals [`KeyInterner::for_graph`] over its graph:
//!   answers alone cannot show a stale interner, because profile
//!   building falls back to computing keys, so only its symbols and
//!   hit/miss counters would drift;
//! * it equals, field by field, the snapshot of a reference writer fed
//!   the same updates that keeps every snapshot alive. The writer under
//!   test drops each snapshot before the next publish, so it always
//!   takes the retired epoch back and rolls it forward; the reference
//!   can never, so it always clones.

use multirag_core::{
    match_homologous, match_homologous_tiered, GraphState, MklgpPipeline, MultiRagConfig,
};
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::spec::Scale;
use multirag_datasets::{MultiSourceDataset, Query};
use multirag_kg::{persist, KnowledgeGraph, Value};
use multirag_kg::{EntityId, KeyInterner, RelationId, SourceId, Symbol, TindexCounters, TripleId};
use multirag_serve::{EpochSnapshot, IndexWriter, TripleUpdate};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

const SEED: u64 = 42;

fn dataset() -> &'static MultiSourceDataset {
    static DATA: OnceLock<MultiSourceDataset> = OnceLock::new();
    DATA.get_or_init(|| {
        MoviesSpec::at_scale(Scale {
            entities: 16,
            queries: 8,
        })
        .generate(SEED)
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-5i64..5).prop_map(Value::Int),
        "[a-c]{1,3}".prop_map(Value::from),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// (entity pick, relation pick, source pick, value, chunk). Picks past
/// the dataset's own names become new streamed entities, relations and
/// sources, so updates both corroborate existing slots and open new
/// ones.
type UpdateSpec = (usize, usize, usize, Value, u32);

fn batches() -> impl Strategy<Value = Vec<Vec<UpdateSpec>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            (0usize..6, 0usize..5, 0usize..5, value_strategy(), 0u32..3),
            1..10,
        ),
        2..4,
    )
}

/// Picks below this name the dataset's own entities, relations and
/// sources; the rest are streamed newcomers.
const OWN: usize = 3;

fn pick(index: usize, own_name: impl FnOnce() -> String, prefix: &str) -> String {
    if index < OWN {
        own_name()
    } else {
        format!("{prefix}{index}")
    }
}

fn update(graph: &KnowledgeGraph, (e, r, s, value, chunk): &UpdateSpec) -> TripleUpdate {
    TripleUpdate {
        entity: pick(
            *e,
            || graph.entity_name(EntityId(*e as u32)).into(),
            "stream-entity-",
        ),
        relation: pick(
            *r,
            || graph.relation_name(RelationId(*r as u32)).into(),
            "stream_attr_",
        ),
        value: value.clone(),
        source: pick(
            *s,
            || graph.source_name(SourceId(*s as u32)).into(),
            "stream-source-",
        ),
        chunk: *chunk,
    }
}

/// The dataset's queries plus one per slot the updates touched.
fn queries(updates: &[TripleUpdate]) -> Vec<Query> {
    let mut queries = dataset().queries.clone();
    for (i, u) in updates.iter().enumerate() {
        queries.push(Query {
            id: 1000 + i as u32,
            text: format!("What is the {} of {}?", u.relation, u.entity),
            entity: u.entity.clone(),
            attribute: u.relation.clone(),
            gold: Vec::new(),
        });
    }
    queries
}

/// Equal symbol for every triple (and none past the last one), equal
/// key strings for every symbol, equal `len`, hits and misses.
fn assert_same_interner(
    snapshot: &KeyInterner,
    fresh: &KeyInterner,
    triples: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(snapshot.len(), fresh.len());
    prop_assert_eq!(snapshot.hits(), fresh.hits());
    prop_assert_eq!(snapshot.misses(), fresh.misses());
    for sym in (0..snapshot.len() as u32).map(Symbol) {
        prop_assert_eq!(snapshot.resolve(sym), fresh.resolve(sym));
    }
    let (mut snapshot, mut fresh) = (snapshot.clone(), fresh.clone());
    for tid in (0..=triples as u32).map(TripleId) {
        prop_assert_eq!(snapshot.triple_key(tid), fresh.triple_key(tid));
    }
    Ok(())
}

/// Claims of the `(entity, relation)` slot in the snapshot's slot
/// tier (0 when either name is unknown).
fn tier_claims(snap: &EpochSnapshot, entity: &str, relation: &str) -> usize {
    let graph = &snap.graph;
    let domain = graph.resolve(graph.source(SourceId(0)).domain);
    match (
        graph.find_entity(entity, domain),
        graph.find_relation(relation),
    ) {
        (Some(e), Some(r)) => {
            let mut counters = TindexCounters::default();
            snap.state.tindex.descend(e, r, &mut counters).len()
        }
        _ => 0,
    }
}

fn check_snapshot(snap: &EpochSnapshot, queries: &[Query]) -> Result<(), TestCaseError> {
    let graph = &snap.graph;
    let tiered = match_homologous_tiered(&snap.state.tindex);
    let batch = match_homologous(graph);
    prop_assert_eq!(&tiered.groups, &batch.groups);
    prop_assert_eq!(&tiered.isolated, &batch.isolated);

    let fresh = GraphState::new(graph, KeyInterner::for_graph(graph));
    assert_same_interner(&snap.state.keys, &fresh.keys, graph.triple_count())?;
    prop_assert_eq!(snap.state.max_degree, fresh.max_degree);
    prop_assert_eq!(snap.state.schema.fingerprint(), fresh.schema.fingerprint());

    let mut bound = snap.pipeline();
    let mut scratch = MklgpPipeline::bind(
        graph,
        &fresh,
        MultiRagConfig::default(),
        SEED,
        snap.history.clone(),
    );
    for query in queries {
        prop_assert_eq!(bound.answer(query), scratch.answer(query));
    }
    prop_assert_eq!(bound.interner_stats(), scratch.interner_stats());
    prop_assert_eq!(bound.llm().usage(), scratch.llm().usage());
    Ok(())
}

/// The heap address of `entity`'s subject postings: a graph the writer
/// took back keeps it, and a clone allocates its own.
fn postings_address(graph: &KnowledgeGraph, entity: EntityId) -> usize {
    graph.outgoing(entity).as_ptr() as usize
}

/// Everything a publish derives, between the rolled-forward writer and
/// the cloning reference: the snapshots' graphs, tiered indexes,
/// schemas, largest degrees and interners, and the writers' own graphs.
fn assert_same_publish(
    (rolled, writer): (&EpochSnapshot, &IndexWriter),
    (cloned, reference): (&EpochSnapshot, &IndexWriter),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(persist::dump(&rolled.graph), persist::dump(&cloned.graph));
    prop_assert_eq!(writer.dump(), reference.dump());
    prop_assert_eq!(&*rolled.state.tindex, &*cloned.state.tindex);
    let (a, b) = (&rolled.state.schema, &cloned.state.schema);
    prop_assert_eq!(a.relations(), b.relations());
    prop_assert_eq!(a.entity_count(), b.entity_count());
    prop_assert_eq!(a.fingerprint(), b.fingerprint());
    prop_assert_eq!(rolled.state.max_degree, cloned.state.max_degree);
    let triples = rolled.graph.triple_count();
    assert_same_interner(&rolled.state.keys, &cloned.state.keys, triples)?;
    prop_assert_eq!(rolled.updates_applied, cloned.updates_applied);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every publish of a random update stream serves a slot tier
    /// equal to batch matching, with each `apply` return equal to the
    /// slot's claim count in the next snapshot, and binds pipelines
    /// that answer like from-scratch ones, with an interner equal to a
    /// fresh `for_graph` build. Every publish after the first rolls the
    /// retired epoch forward, and equals the reference writer's clone.
    #[test]
    fn bound_snapshots_match_from_scratch_pipelines(specs in batches()) {
        let data = dataset();
        let mut writer = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), SEED);
        let mut reference =
            IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), SEED);
        let mut held = vec![reference.publish()];
        let first = writer.publish();
        assert_same_publish((&first, &writer), (&held[0], &reference))?;
        check_snapshot(&first, &data.queries)?;
        // The updates touch the dataset's first `OWN` entities only.
        let untouched = (OWN as u32..data.graph.entity_count() as u32)
            .map(EntityId)
            .find(|&e| !data.graph.outgoing(e).is_empty())
            .expect("an entity with postings the updates never touch");
        let mut retired = postings_address(&first.graph, untouched);
        drop(first);
        let mut applied = Vec::new();
        for batch in &specs {
            // Last `apply` return per slot in this batch; returns for
            // one slot must count up by one.
            let mut cardinality: BTreeMap<(String, String), usize> = BTreeMap::new();
            for spec in batch {
                let u = update(writer.graph(), spec);
                let returned = writer.apply(&u);
                prop_assert_eq!(reference.apply(&u), returned);
                let slot = (u.entity.clone(), u.relation.clone());
                if let Some(&previous) = cardinality.get(&slot) {
                    prop_assert_eq!(returned, previous + 1);
                }
                cardinality.insert(slot, returned);
                applied.push(u);
            }
            let snap = writer.publish();
            held.push(reference.publish());
            let (cloned, still_held) = (&held[held.len() - 1], &held[held.len() - 2]);
            prop_assert_eq!(postings_address(writer.graph(), untouched), retired);
            prop_assert_ne!(
                postings_address(reference.graph(), untouched),
                postings_address(&still_held.graph, untouched)
            );
            assert_same_publish((&snap, &writer), (cloned, &reference))?;
            for ((entity, relation), &returned) in &cardinality {
                prop_assert_eq!(tier_claims(&snap, entity, relation), returned);
            }
            check_snapshot(&snap, &queries(&applied))?;
            retired = postings_address(&snap.graph, untouched);
        }
    }
}
