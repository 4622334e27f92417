//! Property-based tests for index-backed retrieval: tiered homologous
//! matching against the sorted-scan oracle, worker-count invariance of
//! concurrent tier descents over a shared index, and graph state
//! advanced over appended triples against a fresh derivation, on
//! random multi-source graphs.

use multirag_core::homologous::{match_homologous, match_homologous_tiered};
use multirag_core::{kg_schema, GraphState};
use multirag_kg::{
    EntityId, KeyInterner, KnowledgeGraph, RelationId, SourceId, TieredIndex, TindexCounters,
    TripleId, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A compact random multi-source graph description: `n` entities,
/// `r` relations, `s` sources, triples as index tuples with an
/// integer payload.
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    r: usize,
    s: usize,
    triples: Vec<(usize, usize, usize, i64)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (2usize..14, 1usize..4, 1usize..4).prop_flat_map(|(n, r, s)| {
        let triples = proptest::collection::vec((0..n, 0..r, 0..s, -4i64..4), 1..56);
        (Just(n), Just(r), Just(s), triples).prop_map(|(n, r, s, triples)| GraphSpec {
            n,
            r,
            s,
            triples,
        })
    })
}

fn build(spec: &GraphSpec) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let sources: Vec<_> = (0..spec.s)
        .map(|i| kg.add_source(&format!("s{i}"), "json", "prop"))
        .collect();
    let relations: Vec<_> = (0..spec.r)
        .map(|i| kg.add_relation(&format!("rel{i}")))
        .collect();
    let entities: Vec<_> = (0..spec.n)
        .map(|i| kg.add_entity(&format!("n{i}"), "prop"))
        .collect();
    for &(subj, rel, src, v) in &spec.triples {
        if v < 0 {
            let obj = entities[(-v) as usize % spec.n];
            kg.add_triple(entities[subj], relations[rel], obj, sources[src], 0);
        } else {
            kg.add_triple(
                entities[subj],
                relations[rel],
                Value::Int(v),
                sources[src],
                0,
            );
        }
    }
    kg
}

/// Appends `triples` to `kg`, registering each entity and relation by
/// name on first use (sources are registered up front), so a graph cut
/// at any triple and grown by the rest equals the graph grown in one
/// go, and names first used after the cut get ids past the cut's
/// counts.
fn grow(kg: &mut KnowledgeGraph, spec: &GraphSpec, triples: &[(usize, usize, usize, i64)]) {
    for &(subj, rel, src, v) in triples {
        let subject = kg.add_entity(&format!("n{subj}"), "prop");
        let relation = kg.add_relation(&format!("rel{rel}"));
        let source = SourceId(src as u32);
        if v < 0 {
            let object = kg.add_entity(&format!("n{}", (-v) as usize % spec.n), "prop");
            kg.add_triple(subject, relation, object, source, 0);
        } else {
            kg.add_triple(subject, relation, Value::Int(v), source, 0);
        }
    }
}

/// Every (entity, relation) slot key of the graph, in id order — the
/// query universe for the descent tests.
fn slot_universe(kg: &KnowledgeGraph) -> Vec<(EntityId, RelationId)> {
    let mut keys = Vec::new();
    for entity in kg.entity_ids() {
        for rel in 0..kg.relation_count() {
            keys.push((entity, RelationId(rel as u32)));
        }
    }
    keys
}

proptest! {
    /// Advancing a prefix's graph state over the rest of the graph
    /// equals deriving it afresh, and both equal the primitives: a
    /// built index, `kg_schema` and a scan of every entity's degree.
    /// The appended part mixes entity links (which raise degrees) and
    /// literals, and may add entities and relations (which rebuild the
    /// schema; otherwise its `Arc` is shared) or add nothing at all.
    #[test]
    fn advance_equals_new_at_random_cuts(spec in graph_spec(), cut in 0usize..64) {
        let cut = cut.min(spec.triples.len());
        let mut kg = KnowledgeGraph::new();
        for i in 0..spec.s {
            kg.add_source(&format!("s{i}"), "json", "prop");
        }
        grow(&mut kg, &spec, &spec.triples[..cut]);
        let prefix = GraphState::new(&kg, KeyInterner::for_graph(&kg));
        let named = (kg.entity_count(), kg.relation_count());
        grow(&mut kg, &spec, &spec.triples[cut..]);
        let advanced = prefix.advance(&kg, KeyInterner::for_graph(&kg));
        let fresh = GraphState::new(&kg, KeyInterner::for_graph(&kg));
        let (index, schema) = (TieredIndex::build(&kg), kg_schema(&kg));
        let degree = kg.entity_ids().map(|e| kg.neighbors(e).len()).max().unwrap_or(0);
        for state in [&advanced, &fresh] {
            prop_assert_eq!(&*state.tindex, &index);
            prop_assert_eq!(state.max_degree, degree);
            prop_assert_eq!(state.schema.relations(), schema.relations());
            prop_assert_eq!(state.schema.entity_count(), schema.entity_count());
            prop_assert_eq!(state.schema.fingerprint(), schema.fingerprint());
        }
        let shared = Arc::ptr_eq(&advanced.schema, &prefix.schema);
        prop_assert_eq!(shared, named == (kg.entity_count(), kg.relation_count()));
    }

    /// Tiered homologous matching must reproduce the sorted-scan
    /// oracle exactly: same groups (entity, relation, members,
    /// distinct-source counts), same isolated list.
    #[test]
    fn tiered_matching_equals_scan_oracle(spec in graph_spec()) {
        let kg = build(&spec);
        let oracle = match_homologous(&kg);
        let index = TieredIndex::build(&kg);
        let tiered = match_homologous_tiered(&index);
        prop_assert_eq!(tiered.groups, oracle.groups);
        prop_assert_eq!(tiered.isolated, oracle.isolated);
        prop_assert_eq!(tiered.coverage(), kg.triple_count());
    }

    /// Concurrent descents over one shared index are worker-count
    /// invariant: partitioning the query universe over 1, 2 or 4
    /// threads yields identical per-query candidate id-sets and
    /// identical summed descent counters.
    #[test]
    fn descents_are_worker_count_invariant(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let queries = slot_universe(&kg);

        let run = |workers: usize| -> (Vec<Vec<TripleId>>, TindexCounters) {
            let chunk = queries.len().div_ceil(workers).max(1);
            let parts: Vec<(usize, Vec<Vec<TripleId>>, TindexCounters)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = queries
                        .chunks(chunk)
                        .enumerate()
                        .map(|(slice_no, slice)| {
                            let index = &index;
                            scope.spawn(move || {
                                let mut counters = TindexCounters::default();
                                let hits: Vec<Vec<TripleId>> = slice
                                    .iter()
                                    .map(|&(e, r)| index.descend(e, r, &mut counters))
                                    .collect();
                                (slice_no, hits, counters)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
            let mut parts = parts;
            parts.sort_by_key(|&(slice_no, _, _)| slice_no);
            let mut all = Vec::with_capacity(queries.len());
            let mut total = TindexCounters::default();
            for (_, hits, counters) in parts {
                all.extend(hits);
                total.tier_descents += counters.tier_descents;
                total.bitset_and_ops += counters.bitset_and_ops;
                total.candidates_pruned += counters.candidates_pruned;
            }
            (all, total)
        };

        let (serial, serial_counters) = run(1);
        prop_assert_eq!(serial_counters.tier_descents, queries.len() as u64);
        for workers in [2usize, 4] {
            let (parallel, parallel_counters) = run(workers);
            prop_assert_eq!(&parallel, &serial);
            prop_assert_eq!(parallel_counters, serial_counters);
        }
    }

    /// Index-backed descent answers agree with the graph's own slot
    /// postings for every key in the universe.
    #[test]
    fn descent_matches_graph_postings(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let mut counters = TindexCounters::default();
        for (entity, relation) in slot_universe(&kg) {
            let descended = index.descend(entity, relation, &mut counters);
            prop_assert_eq!(&descended[..], kg.slot_triples(entity, relation));
        }
    }
}
