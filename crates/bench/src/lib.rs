//! # multirag-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! paper. Each `repro_*` binary prints one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `repro_table1` | Table I — dataset statistics |
//! | `repro_table2` | Table II — F1 & time vs baselines/SOTA |
//! | `repro_table3` | Table III — MKA / MCC ablations |
//! | `repro_table4` | Table IV — HotpotQA / 2WikiMultiHopQA |
//! | `repro_fig5`   | Fig. 5 — sparsity & consistency robustness |
//! | `repro_fig6`   | Fig. 6 — per-source corruption sweep |
//! | `repro_fig7`   | Fig. 7 — α hyper-parameter sweep |
//! | `repro_error_analysis` | §IV Q4 — hallucination / failure taxonomy |
//! | `repro_sensitivity` | design-choice sweeps beyond α (θ, graph threshold, top-k, H, β) |
//! | `repro_scaling` | Q5 scaling study + serve-path and cluster throughput (`results/repro_scaling.txt`) |
//! | `repro_serve` | serving harness: epochs, caches, closed-loop load (`results/serve.json`) |
//! | `repro_slo` | SLO telemetry: burn-rate alerts, log-bucket percentiles, tail attribution (`results/slo.json`) |
//! | `repro_cluster` | sharded serving: 1-node == N-node parity, merge tier, shard scaling (`results/cluster.json`) |
//!
//! Module-level wall time (Q5) is measured by `perfbench/`'s per-layer
//! metrics and by the gated wall legs of `repro_perf` (the MCC kernel
//! against its reference) and `repro_index` (tier descent against a
//! scan).
//!
//! Scale is controlled by `MULTIRAG_SCALE` (`small` | `bench` |
//! `large`, default `bench`) and `MULTIRAG_SEED` (default 42) so CI can
//! smoke-run the binaries quickly.

use multirag_baselines::chatkbqa::ChatKbqa;
use multirag_baselines::common::FusionMethod;
use multirag_baselines::cot::Cot;
use multirag_baselines::fusionquery::FusionQuery;
use multirag_baselines::ircot::IrCot;
use multirag_baselines::ltm::Ltm;
use multirag_baselines::mdqa::Mdqa;
use multirag_baselines::metarag::MetaRag;
use multirag_baselines::mv::MajorityVote;
use multirag_baselines::rqrag::RqRag;
use multirag_baselines::standard_rag::StandardRag;
use multirag_baselines::truthfinder::TruthFinder;
use multirag_datasets::spec::{MultiSourceDataset, Scale};
use multirag_datasets::{
    books::BooksSpec, flights::FlightsSpec, movies::MoviesSpec, stocks::StocksSpec,
};
use multirag_ingest::JsonValue;
use multirag_kg::{KnowledgeGraph, Object, RelationId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator that counts allocations and bytes. Only
/// `alloc`/`realloc` count — frees are irrelevant to the "how much
/// heap traffic does the stage generate" question the perf harnesses
/// ask. A binary opts in with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
/// and reads the counters through [`alloc_snapshot`].
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are relaxed
// statistics that publish no data and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes)` counted by [`CountingAlloc`] so far; stays
/// `(0, 0)` unless the binary installed it as its global allocator.
pub fn alloc_snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Best-of and median of one measurement's repeated wall timings
/// (µs), the pair the `BENCH_*.json` companions report per row.
pub fn best_and_median_us(mut timings: Vec<u64>) -> (u64, u64) {
    timings.sort_unstable();
    let best = timings.first().copied().unwrap_or(0);
    (best, multirag_obs::nearest_rank(&timings, 50))
}

/// Cores this process may run on, recorded beside wall timings.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads the experiment scale from `MULTIRAG_SCALE`.
pub fn scale() -> Scale {
    match std::env::var("MULTIRAG_SCALE").as_deref() {
        Ok("small") => Scale::small(),
        Ok("large") => Scale::large(),
        _ => Scale::bench(),
    }
}

/// Reads the experiment seed from `MULTIRAG_SEED`.
pub fn seed() -> u64 {
    std::env::var("MULTIRAG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// All four benchmark datasets at the configured scale.
pub fn all_datasets() -> Vec<MultiSourceDataset> {
    let s = scale();
    let seed = seed();
    vec![
        MoviesSpec::at_scale(s).generate(seed),
        BooksSpec::at_scale(s).generate(seed),
        FlightsSpec::at_scale(s).generate(seed),
        StocksSpec::at_scale(s).generate(seed),
    ]
}

/// Replicates a graph `factor` times: relations and sources are shared
/// (ids map 1:1), entities of replica `r > 0` are renamed
/// `name#rep<r>` so their slots stay disjoint, and every triple is
/// re-added per replica with subject/object entities remapped. The
/// result has `factor`× the homologous groups of the original, each
/// group identical in shape to its template — synthetic slot scale
/// without changing per-slot statistics. Shared by `repro_perf` and
/// `repro_index` so both harnesses scale workloads identically.
pub fn replicate_graph(graph: &KnowledgeGraph, factor: usize) -> KnowledgeGraph {
    let mut out =
        KnowledgeGraph::with_capacity(graph.entity_count() * factor, graph.triple_count() * factor);
    for r in 0..graph.relation_count() {
        out.add_relation(graph.relation_name(RelationId(r as u32)));
    }
    for s in graph.source_ids() {
        let rec = graph.source(s);
        out.add_source(
            graph.resolve(rec.name),
            graph.resolve(rec.format),
            graph.resolve(rec.domain),
        );
    }
    for rep in 0..factor {
        let mut entities = Vec::with_capacity(graph.entity_count());
        for e in graph.entity_ids() {
            let name = graph.entity_name(e);
            let scoped = if rep == 0 {
                name.to_string()
            } else {
                format!("{name}#rep{rep}")
            };
            entities.push(out.add_entity(&scoped, graph.entity_domain(e)));
        }
        for (_, t) in graph.iter_triples() {
            // Entity ids are dense and every subject/object was just
            // re-added above, so the lookups always hit; skipping (not
            // panicking) keeps the library panic-free by construction.
            let Some(subject) = entities.get(t.subject.index()).copied() else {
                continue;
            };
            let object = match &t.object {
                Object::Entity(e) => match entities.get(e.index()).copied() {
                    Some(mapped) => Object::Entity(mapped),
                    None => continue,
                },
                Object::Literal(v) => Object::Literal(v.clone()),
            };
            out.add_triple(subject, t.predicate, object, t.source, t.chunk);
        }
    }
    out
}

/// The Table II source-format combos per dataset (J=json, C=csv,
/// X=xml, K=kg).
pub fn source_combos(dataset: &str) -> Vec<Vec<&'static str>> {
    match dataset {
        "movies" => vec![
            vec!["json", "kg"],
            vec!["json", "csv"],
            vec!["kg", "csv"],
            vec!["json", "kg", "csv"],
        ],
        "books" => vec![
            vec!["json", "csv"],
            vec!["json", "xml"],
            vec!["csv", "xml"],
            vec!["json", "csv", "xml"],
        ],
        "flights" | "stocks" => vec![vec!["csv", "json"]],
        other => panic!("unknown dataset {other}"),
    }
}

/// Renders a combo as the paper's letter code ("J/K/C").
pub fn combo_code(combo: &[&str]) -> String {
    combo
        .iter()
        .map(|f| multirag_datasets::stats::format_letter(f))
        .collect::<Vec<_>>()
        .join("/")
}

/// The Table II baseline roster (data-fusion methods).
pub fn fusion_baselines(seed: u64) -> Vec<Box<dyn FusionMethod>> {
    vec![
        Box::new(MajorityVote),
        Box::new(TruthFinder::default()),
        Box::new(Ltm::default()),
        Box::new(Cot::new(seed)),
        Box::new(StandardRag::new(seed)),
    ]
}

/// Structural outline of a JSON document: object keys and value types,
/// with arrays collapsed to their distinct element shapes. Two
/// documents with the same outline share a schema even when every value
/// differs, so the outline is the drift detector the
/// `MULTIRAG_CHECK_SCHEMA=1` gate compares against
/// `golden/obs_schema.txt`.
pub fn schema_outline(json: &str) -> Result<String, String> {
    let doc = multirag_ingest::json::parse(json).map_err(|e| e.to_string())?;
    Ok(outline(&doc))
}

fn outline(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(_) => "bool".to_string(),
        JsonValue::Int(_) | JsonValue::Float(_) => "number".to_string(),
        JsonValue::Str(_) => "string".to_string(),
        JsonValue::Array(items) => {
            let mut shapes: Vec<String> = Vec::new();
            for item in items {
                let shape = outline(item);
                if !shapes.contains(&shape) {
                    shapes.push(shape);
                }
            }
            format!("[{}]", shapes.join("|"))
        }
        JsonValue::Object(members) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{k}:{}", outline(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

/// The checked-in golden outline for one `[section]` of
/// `golden/obs_schema.txt` (one outline per section, `#` comments and
/// blank lines ignored). The goldens are generated at the CI smoke
/// configuration: `MULTIRAG_SCALE=small`, seed 42.
pub fn golden_schema(section: &str) -> Option<&'static str> {
    let golden = include_str!("../golden/obs_schema.txt");
    let mut in_section = false;
    for line in golden.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_section = name == section;
        } else if in_section {
            return Some(line);
        }
    }
    None
}

/// When `MULTIRAG_CHECK_SCHEMA=1`, asserts that `json`'s outline
/// matches the checked-in golden for `section` — the repro binaries
/// call this on their `results/obs_*.json` artifacts so CI fails on
/// schema drift. A no-op without the env var.
pub fn check_schema(section: &str, json: &str) {
    if std::env::var("MULTIRAG_CHECK_SCHEMA").as_deref() != Ok("1") {
        return;
    }
    let actual =
        schema_outline(json).unwrap_or_else(|e| panic!("[{section}] emitted invalid JSON: {e}"));
    let golden = golden_schema(section).unwrap_or_else(|| {
        panic!("no golden schema for [{section}] in crates/bench/golden/obs_schema.txt")
    });
    assert_eq!(
        actual, golden,
        "[{section}] schema drift vs golden/obs_schema.txt — regenerate the golden if intentional"
    );
    println!("schema check [{section}]: ok");
}

/// The Table II SOTA roster.
pub fn sota_methods(seed: u64) -> Vec<Box<dyn FusionMethod>> {
    vec![
        Box::new(IrCot::new(seed)),
        Box::new(ChatKbqa::new(seed)),
        Box::new(Mdqa::new(seed)),
        Box::new(FusionQuery::default()),
        Box::new(RqRag::new(seed)),
        Box::new(MetaRag::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combos_match_table_2() {
        assert_eq!(source_combos("movies").len(), 4);
        assert_eq!(source_combos("books").len(), 4);
        assert_eq!(source_combos("flights").len(), 1);
        assert_eq!(combo_code(&["json", "kg", "csv"]), "J/K/C");
    }

    #[test]
    fn rosters_are_complete() {
        assert_eq!(fusion_baselines(1).len(), 5);
        assert_eq!(sota_methods(1).len(), 6);
        let names: Vec<&str> = sota_methods(1).iter().map(|m| m.name()).collect();
        assert!(names.contains(&"ChatKBQA"));
        assert!(names.contains(&"FusionQuery"));
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        source_combos("nope");
    }

    #[test]
    fn replicate_scales_slots_without_changing_shape() {
        let data = MoviesSpec::small().generate(42);
        let big = replicate_graph(&data.graph, 4);
        assert_eq!(big.triple_count(), data.graph.triple_count() * 4);
        assert_eq!(big.entity_count(), data.graph.entity_count() * 4);
        assert_eq!(big.relation_count(), data.graph.relation_count());
        assert_eq!(big.source_count(), data.graph.source_count());
        // Factor 1 is an identity replication.
        let same = replicate_graph(&data.graph, 1);
        assert_eq!(same.triple_count(), data.graph.triple_count());
    }

    #[test]
    fn outline_collapses_values_to_shapes() {
        let json = r#"{"seed":42,"name":"movies","f1":93.5,"ok":true,"none":null}"#;
        assert_eq!(
            schema_outline(json).unwrap(),
            "{seed:number,name:string,f1:number,ok:bool,none:null}"
        );
    }

    #[test]
    fn outline_dedups_array_element_shapes() {
        assert_eq!(schema_outline("[1,2,3]").unwrap(), "[number]");
        assert_eq!(schema_outline("[]").unwrap(), "[]");
        assert_eq!(schema_outline(r#"[1,"a",2]"#).unwrap(), "[number|string]");
        assert_eq!(
            schema_outline(r#"[{"a":1},{"a":2.5}]"#).unwrap(),
            "[{a:number}]"
        );
    }

    #[test]
    fn outline_is_value_independent() {
        let a = schema_outline(r#"{"curves":[{"name":"x","points":[{"f1":1.0}]}]}"#).unwrap();
        let b = schema_outline(r#"{"curves":[{"name":"y","points":[{"f1":93.25}]}]}"#).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn outline_rejects_invalid_json() {
        assert!(schema_outline("{nope").is_err());
    }

    #[test]
    fn serve_golden_enumerates_every_abstain_reason() {
        let golden = golden_schema("serve").expect("serve golden exists");
        let (_, rest) = golden
            .split_once("abstain:{")
            .expect("serve golden has an abstain tally object");
        let (body, _) = rest.split_once('}').expect("abstain object closes");
        let keys: Vec<&str> = body
            .split(',')
            .map(|kv| kv.split_once(':').expect("key:type pair").0)
            .collect();
        assert_eq!(
            keys,
            multirag_core::AbstainReason::ALL_SLUGS,
            "the serve schema golden must enumerate exactly the abstain \
             reasons, in declaration order — adding a reason is a reviewed \
             schema change"
        );
    }

    #[test]
    fn golden_sections_exist_and_parse() {
        for section in [
            "obs_profile",
            "obs_chaos",
            "serve",
            "loop",
            "slo",
            "cluster",
            "index",
        ] {
            let outline = golden_schema(section)
                .unwrap_or_else(|| panic!("missing golden section [{section}]"));
            assert!(
                outline.starts_with('{'),
                "[{section}] golden should be an object outline"
            );
        }
        assert!(golden_schema("no_such_section").is_none());
    }
}
