//! Property-based tests for the tiered retrieval index: the bitset
//! substrate against a set model, and tier descent and the slot tier
//! against linear-scan oracles on random multi-source graphs.

use multirag_kg::{Bitset, KnowledgeGraph, TieredIndex, TindexCounters, TripleId, Value};
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
    (2usize..16, 1usize..5, 1usize..4).prop_flat_map(|(n, r, s)| {
        let triples = proptest::collection::vec((0..n, 0..r, 0..s, -4i64..4), 0..64);
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

proptest! {
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
