//! Benchmarks of the MKA module: multi-source line-graph construction,
//! homologous matching, and the confidence computations — the costs the
//! paper's Q5 discussion attributes to knowledge aggregation.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use multirag_core::confidence::{graph_confidence, mi_similarity};
use multirag_core::homologous::match_homologous;
use multirag_core::MultiSourceLineGraph;
use multirag_datasets::spec::Scale;
use multirag_datasets::{flights::FlightsSpec, movies::MoviesSpec, stocks::StocksSpec};
use multirag_kg::{KnowledgeGraph, LineGraph, Value};

fn construction_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlg_construction");
    for (label, kg) in [
        ("movies_small", MoviesSpec::small().generate(42).graph),
        (
            "movies_bench",
            MoviesSpec::at_scale(Scale {
                entities: 200,
                queries: 10,
            })
            .generate(42)
            .graph,
        ),
        ("flights_small", FlightsSpec::small().generate(42).graph),
        ("stocks_small", StocksSpec::small().generate(42).graph),
    ] {
        group.bench_with_input(
            BenchmarkId::new("line_graph", format!("{label}/{}t", kg.triple_count())),
            &kg,
            |b, kg| b.iter(|| LineGraph::from_graph(black_box(kg))),
        );
        group.bench_with_input(
            BenchmarkId::new(
                "homologous_match",
                format!("{label}/{}t", kg.triple_count()),
            ),
            &kg,
            |b, kg| b.iter(|| match_homologous(black_box(kg))),
        );
        group.bench_with_input(
            BenchmarkId::new("full_mlg", format!("{label}/{}t", kg.triple_count())),
            &kg,
            |b, kg| b.iter(|| MultiSourceLineGraph::build(black_box(kg))),
        );
    }
    group.finish();
}

fn confidence_benches(c: &mut Criterion) {
    // A conflicted 8-claim homologous group.
    let mut kg = KnowledgeGraph::new();
    let e = kg.add_entity("X", "d");
    let r = kg.add_relation("attr");
    for i in 0..8 {
        let s = kg.add_source(&format!("s{i}"), "json", "d");
        let v = if i < 5 { "majority" } else { "minority" };
        kg.add_triple(e, r, Value::from(v), s, 0);
    }
    let sets = match_homologous(&kg);
    let group_ref = &sets.groups[0];

    let mut group = c.benchmark_group("confidence");
    group.bench_function("mi_similarity_singletons", |b| {
        let a = Value::from("delayed");
        let bb = Value::from("on-time");
        b.iter(|| mi_similarity(black_box(&a), black_box(&bb)))
    });
    group.bench_function("mi_similarity_sets", |b| {
        let a = Value::List(vec![Value::from("x"), Value::from("y"), Value::from("z")]);
        let bb = Value::List(vec![Value::from("x"), Value::from("y"), Value::from("w")]);
        b.iter(|| mi_similarity(black_box(&a), black_box(&bb)))
    });
    group.bench_function("graph_confidence_8_claims", |b| {
        b.iter(|| graph_confidence(black_box(&kg), black_box(group_ref)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = construction_benches, confidence_benches
}
criterion_main!(benches);
