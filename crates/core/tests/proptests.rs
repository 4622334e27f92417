//! Property-based tests over the confidence machinery's invariants.

use multirag_core::confidence::{
    build_profiles, graph_confidence, mcc_filter, mcc_filter_profiles, mcc_filter_reference,
    mi_similarity, nmi_similarity, ClaimProfile, KernelCounters,
};
use multirag_core::homologous::{match_homologous, match_slot};
use multirag_core::{HistoryStore, MccOutcome, MklgpPipeline, MultiRagConfig};
use multirag_datasets::{
    books::BooksSpec, flights::FlightsSpec, movies::MoviesSpec, stocks::StocksSpec,
};
use multirag_kg::{KeyInterner, KnowledgeGraph, SourceId, TripleId, Value};
use multirag_llmsim::{MockLlm, Schema};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-50i64..50).prop_map(Value::Int),
        (-10.0f64..10.0).prop_map(Value::Float),
        "[a-c]{1,6}".prop_map(Value::from),
        proptest::collection::vec("[a-c]{1,4}".prop_map(Value::from), 1..4).prop_map(Value::List),
    ]
}

/// A slot with `values.len()` claims, one per source.
fn slot_graph(
    values: &[Value],
) -> (
    KnowledgeGraph,
    multirag_kg::EntityId,
    multirag_kg::RelationId,
) {
    let mut kg = KnowledgeGraph::new();
    let e = kg.add_entity("X", "d");
    let r = kg.add_relation("attr");
    for (i, v) in values.iter().enumerate() {
        let s = kg.add_source(&format!("s{i}"), "json", "d");
        kg.add_triple(e, r, v.clone(), s, 0);
    }
    (kg, e, r)
}

proptest! {
    /// MI similarity is symmetric, bounded, and 1 on the diagonal.
    #[test]
    fn mi_similarity_is_a_bounded_symmetric_agreement(
        a in value_strategy(),
        b in value_strategy(),
    ) {
        let ab = mi_similarity(&a, &b);
        let ba = mi_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9, "asymmetric: {ab} vs {ba}");
        prop_assert!((0.0..=1.0).contains(&ab), "out of range: {ab}");
        let aa = mi_similarity(&a, &a);
        prop_assert!(aa > 0.99, "self-similarity {aa} for {a:?}");
    }

    /// Graph confidence is a probability-like score, maximal for
    /// unanimous groups.
    #[test]
    fn graph_confidence_bounds_and_unanimity(
        values in proptest::collection::vec(value_strategy(), 2..8),
    ) {
        let (kg, e, r) = slot_graph(&values);
        let sets = match_slot(&kg, e, r);
        let group = &sets.groups[0];
        let gc = graph_confidence(&kg, group);
        prop_assert!((0.0..=1.0).contains(&gc.value));

        // A unanimous version of the same slot scores ≥ the mixed one.
        let unanimous = vec![values[0].clone(); values.len()];
        let (kg2, e2, r2) = slot_graph(&unanimous);
        let sets2 = match_slot(&kg2, e2, r2);
        let gc2 = graph_confidence(&kg2, &sets2.groups[0]);
        prop_assert!(gc2.value >= gc.value - 1e-9);
        prop_assert!(gc2.value > 0.99, "unanimity must max out: {}", gc2.value);
    }

    /// MCC conserves claims: every per-source node lands in kept or
    /// dropped, and at least one claim is always kept.
    #[test]
    fn mcc_filter_conserves_nodes(
        values in proptest::collection::vec(value_strategy(), 2..8),
        graph_level in any::<bool>(),
        node_level in any::<bool>(),
    ) {
        let (kg, e, r) = slot_graph(&values);
        let sets = match_slot(&kg, e, r);
        let group = &sets.groups[0];
        let mut llm = MockLlm::new(Schema::new(), 7);
        let history = HistoryStore::paper_defaults();
        let config = MultiRagConfig {
            enable_graph_level: graph_level,
            enable_node_level: node_level,
            ..MultiRagConfig::default()
        };
        let outcome = mcc_filter(&kg, group, &mut llm, &history, &config, 4);
        // Nodes are per-source; every source asserted exactly once here.
        prop_assert_eq!(outcome.kept.len() + outcome.dropped.len(), values.len());
        prop_assert!(!outcome.kept.is_empty(), "must never abstain on a live slot");
        for node in outcome.kept.iter().chain(outcome.dropped.iter()) {
            prop_assert!(node.confidence.is_finite());
            prop_assert!((0.0..=2.0 + 1e-9).contains(&node.confidence));
        }
    }

    /// Homologous matching partitions all triples of a random graph.
    #[test]
    fn homologous_matching_partitions_triples(
        slots in proptest::collection::vec(
            (0u32..6, 0u32..3, proptest::collection::vec(value_strategy(), 1..4)),
            1..20,
        ),
    ) {
        let mut kg = KnowledgeGraph::new();
        let sources: Vec<_> = (0..4)
            .map(|i| kg.add_source(&format!("s{i}"), "json", "d"))
            .collect();
        for (ei, ri, values) in &slots {
            let e = kg.add_entity(&format!("e{ei}"), "d");
            let r = kg.add_relation(&format!("r{ri}"));
            for (k, v) in values.iter().enumerate() {
                kg.add_triple(e, r, v.clone(), sources[k % sources.len()], 0);
            }
        }
        let sets = match_homologous(&kg);
        prop_assert_eq!(sets.coverage(), kg.triple_count());
        // Every group's triples share the same slot.
        for group in &sets.groups {
            for &tid in &group.triples {
                let t = kg.triple(tid);
                prop_assert_eq!(t.subject, group.entity);
                prop_assert_eq!(t.predicate, group.relation);
            }
            prop_assert!(group.triples.len() >= 2);
        }
        // Isolated points fill slots of size exactly 1.
        for &tid in &sets.isolated {
            let t = kg.triple(tid);
            prop_assert_eq!(kg.slot_triples(t.subject, t.predicate).len(), 1);
        }
    }

    /// The history store's credibility is always a probability and
    /// moves in the observed direction.
    #[test]
    fn history_credibility_is_bounded_and_directional(
        updates in proptest::collection::vec((0usize..20, 1usize..20), 1..20),
    ) {
        let store = HistoryStore::paper_defaults();
        let source = SourceId(0);
        let mut seen_correct = 0usize;
        let mut seen_total = 0usize;
        for (correct, extra) in updates {
            let total = correct + extra;
            store.record(source, correct, total);
            seen_correct += correct;
            seen_total += total;
            let c = store.credibility(source);
            prop_assert!((0.0..=1.0).contains(&c));
        }
        let observed = seen_correct as f64 / seen_total as f64;
        let c = store.credibility(source);
        // Smoothed toward the prior, so strictly between prior and observed
        // (or equal at the boundary).
        let (lo, hi) = if observed < 0.5 { (observed, 0.5) } else { (0.5, observed) };
        prop_assert!(c >= lo - 1e-9 && c <= hi + 1e-9, "c {c} outside [{lo}, {hi}]");
    }
}

/// A slot where sources may assert multiple claims: `assignments[i]`
/// is the source index of `values[i]`, so the profile builder's list
/// aggregation path gets exercised alongside the scalar path.
fn multi_claim_slot(
    values: &[Value],
    assignments: &[usize],
    sources: usize,
) -> (
    KnowledgeGraph,
    multirag_kg::EntityId,
    multirag_kg::RelationId,
) {
    let mut kg = KnowledgeGraph::new();
    let e = kg.add_entity("X", "d");
    let r = kg.add_relation("attr");
    let ids: Vec<SourceId> = (0..sources)
        .map(|i| kg.add_source(&format!("s{i}"), "json", "d"))
        .collect();
    for (v, &si) in values.iter().zip(assignments) {
        let source = *ids.get(si % sources).expect("source index in range");
        kg.add_triple(e, r, v.clone(), source, 0);
    }
    (kg, e, r)
}

proptest! {
    /// The merge-join NMI kernel is bit-identical — `to_bits()`, not
    /// ε-close — to the reference `mi_similarity` on arbitrary value
    /// pairs, lists included.
    #[test]
    fn nmi_kernel_is_bit_identical_to_mi_reference(
        a in value_strategy(),
        b in value_strategy(),
    ) {
        let (a, b) = (a.standardized(), b.standardized());
        let kg = KnowledgeGraph::new();
        let mut keys = KeyInterner::for_graph(&kg);
        let pa = ClaimProfile::build(TripleId(0), a.clone(), SourceId(0), None, &mut keys);
        let pb = ClaimProfile::build(TripleId(1), b.clone(), SourceId(1), None, &mut keys);
        let kernel = nmi_similarity(&pa, &pb, &keys);
        let reference = mi_similarity(&a, &b);
        prop_assert_eq!(
            kernel.to_bits(),
            reference.to_bits(),
            "kernel {} vs reference {} for {:?} / {:?}",
            kernel,
            reference,
            a,
            b
        );
        // And symmetric at the bit level too.
        let flipped = nmi_similarity(&pb, &pa, &keys);
        prop_assert_eq!(kernel.to_bits(), flipped.to_bits());
    }

    /// The full profile-kernel filter reproduces the reference filter
    /// bit-for-bit on random multi-claim slots: same gate decision,
    /// same kept/dropped partition, every confidence field identical
    /// to the last ULP, same simulated LLM cost.
    #[test]
    fn kernel_filter_matches_reference_on_random_slots(
        values in proptest::collection::vec(value_strategy(), 2..10),
        assignments in proptest::collection::vec(0usize..5, 10),
        sources in 2usize..5,
        graph_level in any::<bool>(),
        node_level in any::<bool>(),
    ) {
        let (kg, e, r) = multi_claim_slot(&values, &assignments, sources);
        let sets = match_slot(&kg, e, r);
        prop_assume!(!sets.groups.is_empty());
        let group = &sets.groups[0];
        let config = MultiRagConfig {
            enable_graph_level: graph_level,
            enable_node_level: node_level,
            ..MultiRagConfig::default()
        };
        let history = HistoryStore::paper_defaults();

        let mut keys = KeyInterner::for_graph(&kg);
        let mut counters = KernelCounters::default();
        let profiles = build_profiles(&kg, group, &mut keys);
        let mut llm_k = MockLlm::new(Schema::new(), 7);
        let kernel = mcc_filter_profiles(
            &kg, group, &profiles, &keys, &mut llm_k, &history, &config, 4, &mut counters,
        );
        let mut llm_r = MockLlm::new(Schema::new(), 7);
        let reference = mcc_filter_reference(&kg, group, &mut llm_r, &history, &config, 4);

        prop_assert_eq!(fingerprint(&kernel), fingerprint(&reference));
        prop_assert_eq!(llm_k.usage(), llm_r.usage(), "identical LLM call streams");
    }
}

/// Every deterministic field of an MCC outcome: the gate decision, the
/// kept/dropped partition with every confidence field, and the
/// simulated LLM cost (wall time excluded). `{:?}` prints each `f64` in
/// its shortest round-trip form, so equal fingerprints mean equal bits.
fn fingerprint(o: &MccOutcome) -> String {
    format!(
        "{:?}",
        (
            &o.graph,
            o.gated,
            &o.kept,
            &o.dropped,
            o.graph_cost.sim_ms,
            o.node_cost.sim_ms
        )
    )
}

/// The kernel reproduces the reference on real data: every slot group
/// of the four benchmark datasets (small scale, seed 42), under the
/// default config and the w/o-graph-level and w/o-node-level
/// ablations, with the pipeline's history and largest degree and two
/// identically seeded LLMs.
#[test]
fn kernel_filter_matches_reference_on_every_dataset_slot() {
    for data in [
        MoviesSpec::small().generate(42),
        BooksSpec::small().generate(42),
        FlightsSpec::small().generate(42),
        StocksSpec::small().generate(42),
    ] {
        let kg = &data.graph;
        let pipeline = MklgpPipeline::new(kg, MultiRagConfig::default(), 42);
        let groups = pipeline.slot_groups();
        assert!(!groups.is_empty(), "{}: no slot groups", data.name);
        for (label, config) in [
            ("default", MultiRagConfig::default()),
            (
                "w/o graph level",
                MultiRagConfig::default().without_graph_level(),
            ),
            (
                "w/o node level",
                MultiRagConfig::default().without_node_level(),
            ),
        ] {
            let mut keys = pipeline.key_interner().clone();
            let mut counters = KernelCounters::default();
            let mut llm_k = pipeline.llm().clone();
            let mut llm_r = pipeline.llm().clone();
            for (i, group) in groups.iter().enumerate() {
                let what = format!("{} {label} group {i}", data.name);
                let profiles = build_profiles(kg, group, &mut keys);
                let kernel = mcc_filter_profiles(
                    kg,
                    group,
                    &profiles,
                    &keys,
                    &mut llm_k,
                    pipeline.history(),
                    &config,
                    pipeline.max_degree(),
                    &mut counters,
                );
                let reference = mcc_filter_reference(
                    kg,
                    group,
                    &mut llm_r,
                    pipeline.history(),
                    &config,
                    pipeline.max_degree(),
                );
                assert_eq!(fingerprint(&kernel), fingerprint(&reference), "{what}");
                assert_eq!(llm_k.usage(), llm_r.usage(), "{what}: LLM usage");
            }
        }
    }
}
