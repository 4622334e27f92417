//! Property-based tests over the kg substrate invariants.

use multirag_kg::{KnowledgeGraph, LineGraph, Value};
use proptest::prelude::*;

/// A compact random-graph description: `n` entities, edges as index
/// pairs, attribute triples as (entity, value) pairs.
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    edges: Vec<(usize, usize)>,
    attrs: Vec<(usize, i64)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (2usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..48);
        let attrs = proptest::collection::vec((0..n, -5i64..5), 0..24);
        (Just(n), edges, attrs).prop_map(|(n, edges, attrs)| GraphSpec { n, edges, attrs })
    })
}

fn build(spec: &GraphSpec) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let src = kg.add_source("s", "kg", "prop");
    let rel = kg.add_relation("edge");
    let attr = kg.add_relation("attr");
    let ids: Vec<_> = (0..spec.n)
        .map(|i| kg.add_entity(&format!("n{i}"), "prop"))
        .collect();
    for &(a, b) in &spec.edges {
        kg.add_triple(ids[a], rel, ids[b], src, 0);
    }
    for &(e, v) in &spec.attrs {
        kg.add_triple(ids[e], attr, Value::Int(v), src, 0);
    }
    kg
}

proptest! {
    /// Line-graph adjacency must agree with the pairwise
    /// `shares_endpoint` predicate — the defining property of
    /// Definition 2.
    #[test]
    fn linegraph_matches_shared_endpoint_definition(spec in graph_spec()) {
        let kg = build(&spec);
        let lg = LineGraph::from_graph(&kg);
        let n = lg.node_count() as u32;
        for a in 0..n {
            for b in (a + 1)..n {
                let ta = kg.triple(lg.triple_id(a));
                let tb = kg.triple(lg.triple_id(b));
                prop_assert_eq!(
                    lg.adjacent(a, b),
                    ta.shares_endpoint(tb),
                    "nodes {} and {} disagree with definition", a, b
                );
            }
        }
    }

    /// Line-graph adjacency is symmetric and irreflexive.
    #[test]
    fn linegraph_adjacency_symmetric(spec in graph_spec()) {
        let kg = build(&spec);
        let lg = LineGraph::from_graph(&kg);
        for a in 0..lg.node_count() as u32 {
            prop_assert!(!lg.adjacent(a, a));
            for &b in lg.neighbors(a) {
                prop_assert!(lg.adjacent(b, a));
            }
        }
    }

    /// Slot index returns exactly the triples matching that slot.
    #[test]
    fn slot_index_is_exact(spec in graph_spec()) {
        let kg = build(&spec);
        let attr = kg.find_relation("attr").unwrap();
        for e in kg.entity_ids() {
            let via_index: Vec<_> = kg.slot_triples(e, attr).to_vec();
            let via_scan: Vec<_> = kg
                .iter_triples()
                .filter(|(_, t)| t.subject == e && t.predicate == attr)
                .map(|(id, _)| id)
                .collect();
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// Value canonical keys respect Eq: equal values share a key.
    #[test]
    fn value_eq_implies_same_canonical_key(a in -100i64..100, b in -100i64..100) {
        let va = Value::Int(a);
        let vb = Value::Float(b as f64);
        if va == vb {
            prop_assert_eq!(va.canonical_key(), vb.canonical_key());
        }
    }

    /// Value distance is symmetric and zero on the diagonal.
    #[test]
    fn value_distance_metric_sanity(a in ".{0,12}", b in ".{0,12}") {
        let va = Value::from(a.clone());
        let vb = Value::from(b.clone());
        prop_assert!((va.distance(&vb) - vb.distance(&va)).abs() < 1e-12);
        prop_assert_eq!(va.distance(&va), 0.0);
        let d = va.distance(&vb);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// Interner: intern/resolve round-trips arbitrary strings.
    #[test]
    fn interner_round_trip(words in proptest::collection::vec(".{0,16}", 1..32)) {
        let mut interner = multirag_kg::Interner::new();
        let syms: Vec<_> = words.iter().map(|w| interner.intern(w)).collect();
        for (w, s) in words.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*s), w.as_str());
        }
        // Distinct strings must get distinct symbols.
        let distinct: std::collections::HashSet<_> = words.iter().collect();
        let distinct_syms: std::collections::HashSet<_> = syms.iter().collect();
        prop_assert_eq!(distinct.len(), distinct_syms.len());
    }

    /// restrict_to_sources never invents triples and preserves per-source
    /// counts.
    #[test]
    fn restrict_preserves_counts(spec in graph_spec(), keep_first in any::<bool>()) {
        let mut kg = build(&spec);
        // Add a second source with one triple so restriction is nontrivial.
        let src2 = kg.add_source("s2", "csv", "prop");
        let e0 = multirag_kg::EntityId(0);
        let attr = kg.find_relation("attr").unwrap();
        kg.add_triple(e0, attr, Value::Int(999), src2, 0);

        let keep = if keep_first {
            vec![multirag_kg::SourceId(0)]
        } else {
            vec![src2]
        };
        let restricted = kg.restrict_to_sources(&keep);
        let expected = kg
            .triples()
            .iter()
            .filter(|t| keep.contains(&t.source))
            .count();
        prop_assert_eq!(restricted.triple_count(), expected);
    }
}

proptest! {
    /// persist::dump → persist::load is the identity on graph content.
    #[test]
    fn persist_round_trips(spec in graph_spec(), names in proptest::collection::vec("[a-zA-Z0-9 |\\\\]{0,12}", 1..4)) {
        let mut kg = build(&spec);
        // Add literal triples with awkward strings (escaping coverage).
        let src = multirag_kg::SourceId(0);
        let rel = kg.add_relation("note");
        for (i, name) in names.iter().enumerate() {
            let e = multirag_kg::EntityId((i % spec.n) as u32);
            kg.add_triple(e, rel, Value::Str(name.clone()), src, i as u32);
        }
        let text = multirag_kg::persist::dump(&kg);
        let loaded = multirag_kg::persist::load(&text).unwrap();
        prop_assert_eq!(loaded.entity_count(), kg.entity_count());
        prop_assert_eq!(loaded.triple_count(), kg.triple_count());
        prop_assert_eq!(loaded.source_count(), kg.source_count());
        for ((_, a), (_, b)) in kg.iter_triples().zip(loaded.iter_triples()) {
            prop_assert_eq!(a.subject, b.subject);
            prop_assert_eq!(a.source, b.source);
            prop_assert_eq!(a.chunk, b.chunk);
            prop_assert_eq!(a.object.canonical_key(), b.object.canonical_key());
        }
    }

    /// The loader never panics on arbitrary input.
    #[test]
    fn persist_loader_is_total(input in "\\PC{0,128}") {
        let _ = multirag_kg::persist::load(&input);
        let _ = multirag_kg::persist::load(&format!("#multirag-kg v1\n{input}"));
    }
}
