//! Deterministic perf harness for the hierarchical tiered retrieval
//! index ([`multirag_kg::TieredIndex`]).
//!
//! Compares the retrieval stage — homologous matching plus per-query
//! slot narrowing — between two legs at 1×, 4× and 16× synthetic slot
//! scale, on every benchmark dataset:
//!
//! * **scan leg** (reference oracle): sort-based [`match_homologous`]
//!   plus a full linear scan over every triple per query;
//! * **descent leg**: [`match_homologous_tiered`] plus a bitset tier
//!   descent per query over a prebuilt [`TieredIndex`]. The build is
//!   timed separately (`build_us`) and excluded from the stage wall:
//!   serving builds the index once per epoch publish
//!   (`EpochSnapshot`) and amortizes it over every query of the
//!   epoch, exactly as this harness does.
//!
//! Two equivalence gates run inside the harness and abort on any
//! mismatch, at every `(dataset, scale)` cell:
//!
//! * **homologous sets** — group/isolated digests of the tiered
//!   matcher must equal the sorted-scan oracle's bit-for-bit;
//! * **per-query candidates** — the descent's candidate id lists must
//!   equal the linear scans' in content and order.
//!
//! Candidate-comparison accounting: the scan leg charges one
//! comparison per triple visited per query; the descent leg charges
//! its bitset membership AND ops (the index's own
//! `bitset_and_ops` counter). Acceptance at 16× slot scale, aggregated
//! over datasets: ≥ 4× fewer comparisons and ≥ 2× lower
//! retrieval-stage wall time.
//!
//! Artifacts: `results/index.json` + `results/index.txt`
//! (deterministic — CI runs the binary twice and `cmp`s both;
//! schema-gated by `MULTIRAG_CHECK_SCHEMA=1`) and `BENCH_index.json`
//! at the repo root (wall-clock timings, non-deterministic by nature,
//! never compared).
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_index
//! ```

use multirag_bench::{
    alloc_snapshot, check_schema, replicate_graph, schema_outline, seed, CountingAlloc,
};
use multirag_core::{match_homologous, match_homologous_tiered, HomologousSets};
use multirag_eval::table::{fmt2, Table};
use multirag_kg::{
    EntityId, FxHasher, KnowledgeGraph, RelationId, SourceId, TieredIndex, TindexCounters, TripleId,
};
use multirag_obs::json::JsonObj;
use multirag_obs::WallTimer;
use std::hash::{Hash, Hasher};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Order-sensitive digest over a matching result: every group's slot
/// key, member ids and distinct-source count, plus the isolated list.
/// Two matchings digest equal iff they agree bit-for-bit.
fn digest_sets(sets: &HomologousSets) -> u64 {
    let mut h = FxHasher::default();
    sets.groups.len().hash(&mut h);
    for g in &sets.groups {
        g.entity.index().hash(&mut h);
        g.relation.index().hash(&mut h);
        g.source_count.hash(&mut h);
        g.triples.len().hash(&mut h);
        for t in &g.triples {
            t.index().hash(&mut h);
        }
    }
    sets.isolated.len().hash(&mut h);
    for t in &sets.isolated {
        t.index().hash(&mut h);
    }
    h.finish()
}

/// Order-sensitive digest over per-query candidate id lists.
fn digest_candidates(per_query: &[Vec<TripleId>]) -> u64 {
    let mut h = FxHasher::default();
    per_query.len().hash(&mut h);
    for hits in per_query {
        hits.len().hash(&mut h);
        for t in hits {
            t.index().hash(&mut h);
        }
    }
    h.finish()
}

const REPS: usize = 3;

/// One measured retrieval-stage leg (matching + per-query narrowing).
#[derive(Default)]
struct LegRun {
    sets_digest: u64,
    candidates_digest: u64,
    comparisons: u64,
    allocs: u64,
    bytes: u64,
    best_us: u64,
    groups: usize,
}

/// Reference oracle: sorted-scan matching plus a full linear scan of
/// every triple per query. Charges one candidate comparison per
/// triple visited.
fn scan_leg(graph: &KnowledgeGraph, queries: &[(EntityId, RelationId)]) -> LegRun {
    let mut run = LegRun {
        best_us: u64::MAX,
        ..LegRun::default()
    };
    for rep in 0..REPS {
        let (a0, b0) = alloc_snapshot();
        let start = WallTimer::start();
        let sets = match_homologous(graph);
        let mut comparisons = 0u64;
        let mut candidates: Vec<Vec<TripleId>> = Vec::with_capacity(queries.len());
        for &(entity, relation) in queries {
            let mut hits = Vec::new();
            for (tid, t) in graph.iter_triples() {
                comparisons += 1;
                if t.subject == entity && t.predicate == relation {
                    hits.push(tid);
                }
            }
            candidates.push(hits);
        }
        let us = start.elapsed_us();
        let (a1, b1) = alloc_snapshot();
        run.best_us = run.best_us.min(us);
        if rep == 0 {
            run.sets_digest = digest_sets(&sets);
            run.candidates_digest = digest_candidates(&candidates);
            run.comparisons = comparisons;
            run.allocs = a1 - a0;
            run.bytes = b1 - b0;
            run.groups = sets.groups.len();
        }
    }
    run
}

/// Descent leg plus its index-side instrumentation.
struct DescentRun {
    leg: LegRun,
    build_us: u64,
    counters: TindexCounters,
    slots: usize,
    bitset_words: usize,
}

/// Tiered leg: one-pass tiered matching and a bitset tier descent per
/// query over a prebuilt index. The build is timed per repetition but
/// kept out of the stage wall — it is an epoch-publish cost, not a
/// per-query one. Charges the index's own `bitset_and_ops` counter as
/// its candidate comparisons.
fn descent_leg(graph: &KnowledgeGraph, queries: &[(EntityId, RelationId)]) -> DescentRun {
    let mut run = DescentRun {
        leg: LegRun {
            best_us: u64::MAX,
            ..LegRun::default()
        },
        build_us: u64::MAX,
        counters: TindexCounters::default(),
        slots: 0,
        bitset_words: 0,
    };
    for rep in 0..REPS {
        let t_build = WallTimer::start();
        let index = TieredIndex::build(graph);
        let build_us = t_build.elapsed_us();
        run.build_us = run.build_us.min(build_us);
        let (a0, b0) = alloc_snapshot();
        let start = WallTimer::start();
        let sets = match_homologous_tiered(&index);
        let mut counters = TindexCounters::default();
        let mut candidates: Vec<Vec<TripleId>> = Vec::with_capacity(queries.len());
        for &(entity, relation) in queries {
            candidates.push(index.descend(entity, relation, &mut counters));
        }
        let us = start.elapsed_us();
        let (a1, b1) = alloc_snapshot();
        run.leg.best_us = run.leg.best_us.min(us);
        if rep == 0 {
            run.leg.sets_digest = digest_sets(&sets);
            run.leg.candidates_digest = digest_candidates(&candidates);
            run.leg.comparisons = counters.bitset_and_ops;
            run.leg.allocs = a1 - a0;
            run.leg.bytes = b1 - b0;
            run.leg.groups = sets.groups.len();
            run.counters = counters;
            let stats = index.stats();
            run.slots = stats.slots;
            run.bitset_words = stats.bitset_words;
        }
    }
    run
}

/// Per `(dataset, slot scale)` measurement cell.
struct Cell {
    dataset: String,
    factor: usize,
    queries: usize,
    triples: usize,
    scan: LegRun,
    descent: DescentRun,
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / (b.max(1)) as f64
}

/// Resolves each benchmark query to its `(entity, relation)` slot key
/// on `graph`; queries whose entity or attribute is absent are
/// skipped (replica entities never shadow replica 0's names).
fn resolve_queries(
    graph: &KnowledgeGraph,
    queries: &[multirag_datasets::Query],
) -> Vec<(EntityId, RelationId)> {
    let domain = if graph.source_count() > 0 {
        graph.resolve(graph.source(SourceId(0)).domain).to_string()
    } else {
        String::new()
    };
    queries
        .iter()
        .filter_map(|q| {
            let entity = graph.find_entity(&q.entity, &domain)?;
            let relation = graph.find_relation(&q.attribute)?;
            Some((entity, relation))
        })
        .collect()
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    let scale_str = format!("{scale:?}");
    println!("Tiered-index retrieval harness @ {scale_str}, seed {seed} ({REPS} reps, best-of)");

    let datasets = multirag_bench::all_datasets();
    let mut cells: Vec<Cell> = Vec::new();

    for data in &datasets {
        for &factor in &[1usize, 4, 16] {
            let graph = replicate_graph(&data.graph, factor);
            let queries = resolve_queries(&graph, &data.queries);
            assert!(
                !queries.is_empty(),
                "{}: no benchmark query resolved against the graph",
                data.name
            );
            let scan = scan_leg(&graph, &queries);
            let descent = descent_leg(&graph, &queries);
            assert_eq!(
                scan.sets_digest, descent.leg.sets_digest,
                "{} @{factor}x: tiered homologous matching must equal the sorted-scan oracle",
                data.name
            );
            assert_eq!(
                scan.candidates_digest, descent.leg.candidates_digest,
                "{} @{factor}x: tier-descent candidates must equal the linear scans",
                data.name
            );
            assert!(
                descent.leg.comparisons < scan.comparisons,
                "{} @{factor}x: descent must examine fewer candidates than the scan",
                data.name
            );
            cells.push(Cell {
                dataset: data.name.clone(),
                factor,
                queries: queries.len(),
                triples: graph.triple_count(),
                scan,
                descent,
            });
        }
    }

    // Acceptance gate: ≥4× fewer candidate comparisons and ≥2× lower
    // retrieval-stage wall time at 16× slot scale, aggregated over
    // datasets. The index build is an epoch-publish cost and stays
    // out of the stage wall (reported separately as `build_us`).
    let at16: Vec<&Cell> = cells.iter().filter(|c| c.factor == 16).collect();
    let scan_cmp: u64 = at16.iter().map(|c| c.scan.comparisons).sum();
    let descent_cmp: u64 = at16.iter().map(|c| c.descent.leg.comparisons).sum();
    let scan_us: u64 = at16.iter().map(|c| c.scan.best_us).sum();
    let descent_us: u64 = at16.iter().map(|c| c.descent.leg.best_us).sum();
    let comparison_ratio = ratio(scan_cmp, descent_cmp);
    let wall_ratio = ratio(scan_us, descent_us);
    let comparison_target_met = comparison_ratio >= 4.0;
    let wall_target_met = wall_ratio >= 2.0;

    // Deterministic table: no wall-clock columns.
    let mut table = Table::new(
        "Tier descent vs linear scan (retrieval stage, first-rep counts)",
        &[
            "Dataset",
            "Scale",
            "Triples",
            "Slots",
            "Queries",
            "Scan cmps",
            "Descent cmps",
            "Pruned",
            "Cmp ratio",
        ],
    );
    for c in &cells {
        table.row(vec![
            c.dataset.clone(),
            format!("{}x", c.factor),
            c.triples.to_string(),
            c.descent.slots.to_string(),
            c.queries.to_string(),
            c.scan.comparisons.to_string(),
            c.descent.leg.comparisons.to_string(),
            c.descent.counters.candidates_pruned.to_string(),
            fmt2(ratio(c.scan.comparisons, c.descent.leg.comparisons)),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");

    // Wall timings go to stdout and BENCH_index.json only — never into
    // the cmp'd artifacts.
    let mut wall_table = Table::new(
        &format!("Wall time, best of {REPS} (µs) — non-deterministic"),
        &[
            "Dataset",
            "Scale",
            "Scan",
            "Descent",
            "(build)",
            "Scan/Descent",
        ],
    );
    for c in &cells {
        wall_table.row(vec![
            c.dataset.clone(),
            format!("{}x", c.factor),
            c.scan.best_us.to_string(),
            c.descent.leg.best_us.to_string(),
            c.descent.build_us.to_string(),
            fmt2(ratio(c.scan.best_us, c.descent.leg.best_us)),
        ]);
    }
    println!("{}", wall_table.render());
    println!(
        "acceptance @16x: comparison ratio {comparison_ratio:.2} (target >= 4.0), wall ratio {wall_ratio:.2} (target >= 2.0)"
    );

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObj::new()
                .str("dataset", &c.dataset)
                .usize("slot_scale", c.factor)
                .usize("triples", c.triples)
                .usize("slots", c.descent.slots)
                .usize("bitset_words", c.descent.bitset_words)
                .usize("queries", c.queries)
                .usize("groups", c.descent.leg.groups)
                .u64("scan_comparisons", c.scan.comparisons)
                .u64("descent_comparisons", c.descent.leg.comparisons)
                .f64(
                    "comparison_ratio",
                    ratio(c.scan.comparisons, c.descent.leg.comparisons),
                )
                .u64("tier_descents", c.descent.counters.tier_descents)
                .u64("bitset_and_ops", c.descent.counters.bitset_and_ops)
                .u64("candidates_pruned", c.descent.counters.candidates_pruned)
                .u64("scan_allocs", c.scan.allocs)
                .u64("scan_bytes", c.scan.bytes)
                .u64("descent_allocs", c.descent.leg.allocs)
                .u64("descent_bytes", c.descent.leg.bytes)
                .bool(
                    "sets_match",
                    c.scan.sets_digest == c.descent.leg.sets_digest,
                )
                .bool(
                    "candidates_match",
                    c.scan.candidates_digest == c.descent.leg.candidates_digest,
                )
                .build()
        })
        .collect();
    let acceptance = JsonObj::new()
        .usize("slot_scale", 16)
        .f64("comparison_ratio", comparison_ratio)
        .f64("comparison_target", 4.0)
        .bool("comparison_target_met", comparison_target_met)
        .f64("wall_target", 2.0)
        .bool("wall_target_met", wall_target_met)
        .build();
    let json = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &scale_str)
        .usize("reps", REPS)
        .arr("rows", rows)
        .raw("acceptance", &acceptance)
        .build();

    match std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write("results/index.json", &json))
        .and_then(|_| std::fs::write("results/index.txt", &rendered))
    {
        Ok(()) => println!("wrote results/index.json, results/index.txt"),
        Err(e) => println!("note: could not write results/: {e}"),
    }
    match schema_outline(&json) {
        Ok(outline) => println!("schema outline [index]: {outline}"),
        Err(e) => println!("note: schema outline failed: {e}"),
    }
    check_schema("index", &json);

    // Wall-clock companion artifact. Uppercase stem on purpose: it is
    // non-deterministic and must stay out of the schema/cmp gates that
    // cover the lowercase results/ artifacts.
    let bench_rows: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObj::new()
                .str("dataset", &c.dataset)
                .usize("slot_scale", c.factor)
                .u64("scan_us", c.scan.best_us)
                .u64("descent_us", c.descent.leg.best_us)
                .u64("build_us", c.descent.build_us)
                .f64("wall_ratio", ratio(c.scan.best_us, c.descent.leg.best_us))
                .build()
        })
        .collect();
    let bench = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &scale_str)
        .usize("reps", REPS)
        .arr("rows", bench_rows)
        .f64("wall_ratio_at_16x", wall_ratio)
        .f64("comparison_ratio_at_16x", comparison_ratio)
        .build();
    match std::fs::write("BENCH_index.json", &bench) {
        Ok(()) => println!("wrote BENCH_index.json"),
        Err(e) => println!("note: could not write BENCH_index.json: {e}"),
    }

    assert!(
        comparison_target_met,
        "comparison target missed at 16x: scan/descent = {comparison_ratio:.2} < 4.0"
    );
    assert!(
        wall_target_met,
        "wall-time target missed at 16x: scan/descent = {wall_ratio:.2} < 2.0"
    );
    println!("index targets met at 16x slot scale");
}
