//! Property-based tests for the tiered retrieval index: the bitset
//! substrate against a set model, and tier descent and the slot tier
//! against linear-scan oracles on random multi-source graphs.

use multirag_kg::{Bitset, KnowledgeGraph, SourceId, TieredIndex, TindexCounters, TripleId, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A compact random multi-source graph description: `n` entities,
/// `r` relations, `s` sources, and triples as index tuples. Objects
/// alternate between entity links and literals, so slots mix both
/// object kinds.
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    r: usize,
    s: usize,
    triples: Vec<(usize, usize, usize, i64)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    graph_spec_up_to(64)
}

/// Graphs of fewer than `triples` triples.
fn graph_spec_up_to(triples: usize) -> impl Strategy<Value = GraphSpec> {
    (2usize..16, 1usize..5, 1usize..4).prop_flat_map(move |(n, r, s)| {
        let triples = proptest::collection::vec((0..n, 0..r, 0..s, -4i64..4), 0..triples);
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
        .map(|i| kg.add_source(&format!("s{i}"), "kg", "prop"))
        .collect();
    let relations: Vec<_> = (0..spec.r)
        .map(|i| kg.add_relation(&format!("rel{i}")))
        .collect();
    let entities: Vec<_> = (0..spec.n)
        .map(|i| kg.add_entity(&format!("n{i}"), "prop"))
        .collect();
    for &(subj, rel, src, v) in &spec.triples {
        // Negative payloads become entity links (to the |v|-th
        // entity), non-negative ones literal values.
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

/// A graph with the spec's sources and nothing else.
fn sources_only(spec: &GraphSpec) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    for i in 0..spec.s {
        kg.add_source(&format!("s{i}"), "kg", "prop");
    }
    kg
}

/// Appends `triples` to `kg`, registering each entity and relation by
/// name on first use, so a graph cut at any triple and grown by the
/// rest equals the graph grown in one go, and names first used after
/// the cut get ids past the cut's counts.
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

proptest! {
    /// Extending an index over the claims appended since equals
    /// building it: a random graph is cut at two random triples (an
    /// empty prefix and an empty delta included), the prefix is
    /// indexed, and the index is extended over each further part in
    /// turn. The parts open new slots before, between and after old
    /// ones, for entities and relations past the old counts too, and
    /// the claim counts cross 64-bit bitset words.
    #[test]
    fn extend_equals_build_at_random_cuts(
        spec in graph_spec_up_to(200),
        cuts in (0usize..210, 0usize..210),
    ) {
        let len = spec.triples.len();
        let (a, b) = (cuts.0.min(len), cuts.1.min(len));
        let (first, second) = (a.min(b), a.max(b));
        let mut kg = sources_only(&spec);
        grow(&mut kg, &spec, &spec.triples[..first]);
        let mut index = TieredIndex::build(&kg);
        for part in [&spec.triples[first..second], &spec.triples[second..]] {
            grow(&mut kg, &spec, part);
            index = index.extend(&kg);
            prop_assert_eq!(&index, &TieredIndex::build(&kg));
        }
    }

    /// Bitset round-trip: inserted bits are contained, absent bits are
    /// not, and `insert` reports exactly the first insertion.
    #[test]
    fn bitset_round_trip(bits in proptest::collection::vec(0u32..512, 0..64)) {
        let mut set = Bitset::with_capacity(512);
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for &b in &bits {
            prop_assert_eq!(set.insert(b), model.insert(b));
        }
        for b in 0..512u32 {
            prop_assert_eq!(set.contains(b), model.contains(&b));
        }
    }

    /// Tier descent must return exactly what a linear scan over every
    /// triple returns, for every (entity, relation) pair — id-for-id,
    /// in ascending order.
    #[test]
    fn descent_equals_linear_scan(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let mut counters = TindexCounters::default();
        for entity in kg.entity_ids() {
            for rel in 0..kg.relation_count() {
                let relation = multirag_kg::RelationId(rel as u32);
                let scanned: Vec<TripleId> = kg
                    .iter_triples()
                    .filter(|(_, t)| t.subject == entity && t.predicate == relation)
                    .map(|(tid, _)| tid)
                    .collect();
                let descended = index.descend(entity, relation, &mut counters);
                prop_assert_eq!(descended, scanned);
            }
        }
    }

    /// The slot tier partitions the claim tier: slots ascend by
    /// `(entity, relation)`, every triple belongs to exactly one slot,
    /// and that slot's claim list equals the graph's own slot postings.
    #[test]
    fn slots_partition_claims(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let mut seen = 0usize;
        let mut previous = None;
        for slot in (0..index.slot_count() as u32).map(multirag_kg::SlotId) {
            let key = (index.slot_entity(slot), index.slot_relation(slot));
            prop_assert!(previous < Some(key));
            let claims = index.claims(slot);
            prop_assert!(!claims.is_empty());
            prop_assert_eq!(claims, kg.slot_triples(key.0, key.1));
            previous = Some(key);
            seen += claims.len();
        }
        prop_assert_eq!(seen, kg.triple_count());
        prop_assert_eq!(index.stats().claims, kg.triple_count());
    }
}
