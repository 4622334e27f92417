//! Binding equivalence across publishes: a pipeline bound to a
//! published snapshot ([`EpochSnapshot::pipeline`], which shares the
//! state the writer maintains incrementally) answers every query
//! exactly like a pipeline built from scratch on the snapshot's graph —
//! batch homologous matching, a fresh interner, schema and tiered index
//! — with the snapshot's frozen history, after random streams of
//! updates. The snapshot's interner must also equal
//! [`KeyInterner::for_graph`] over its graph: answers alone cannot show
//! a stale interner, because profile building falls back to computing
//! keys, so only its symbols and hit/miss counters would drift.

use multirag_core::{match_homologous, GraphState, MklgpPipeline, MultiRagConfig};
use multirag_datasets::movies::MoviesSpec;
use multirag_datasets::spec::Scale;
use multirag_datasets::{MultiSourceDataset, Query};
use multirag_kg::{EntityId, KeyInterner, RelationId, SourceId, Symbol, TieredIndex, TripleId};
use multirag_kg::{KnowledgeGraph, Value};
use multirag_serve::{EpochSnapshot, IndexWriter, TripleUpdate};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

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

fn check_snapshot(snap: &EpochSnapshot, queries: &[Query]) -> Result<(), TestCaseError> {
    let graph = &snap.graph;
    let fresh = GraphState::new(
        graph,
        match_homologous(graph),
        KeyInterner::for_graph(graph),
    );
    assert_same_interner(&snap.state.keys, &fresh.keys, graph.triple_count())?;
    prop_assert_eq!(&snap.state.sets.groups, &fresh.sets.groups);
    prop_assert_eq!(&snap.state.sets.isolated, &fresh.sets.isolated);
    prop_assert_eq!(snap.state.max_degree, fresh.max_degree);
    prop_assert_eq!(snap.state.schema.fingerprint(), fresh.schema.fingerprint());

    let mut bound = snap.pipeline();
    let mut scratch = MklgpPipeline::bind(
        graph,
        &fresh,
        MultiRagConfig::default(),
        SEED,
        snap.history.clone(),
        Arc::new(TieredIndex::build(graph)),
    );
    for query in queries {
        prop_assert_eq!(bound.answer(query), scratch.answer(query));
    }
    prop_assert_eq!(bound.interner_stats(), scratch.interner_stats());
    prop_assert_eq!(bound.llm().usage(), scratch.llm().usage());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every publish of a random update stream binds pipelines that
    /// answer like from-scratch ones, with an interner equal to a
    /// fresh `for_graph` build.
    #[test]
    fn bound_snapshots_match_from_scratch_pipelines(specs in batches()) {
        let data = dataset();
        let mut writer = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), SEED);
        check_snapshot(&writer.publish(), &data.queries)?;
        let mut applied = Vec::new();
        for batch in &specs {
            for spec in batch {
                let u = update(writer.graph(), spec);
                writer.apply(&u);
                applied.push(u);
            }
            check_snapshot(&writer.publish(), &queries(&applied))?;
        }
    }
}
