//! Deterministic perf harness for the one-shot MCC kernel.
//!
//! Measures the MCC stage (claim-profile build + graph gate + node
//! assessment) in isolation, comparing the interned-profile kernel
//! against the retained naive reference implementation at 1×, 4× and
//! 16× synthetic slot scale, on every benchmark dataset. Both run in a
//! plain serial loop over the pipeline's slot groups, calling the
//! kernel (`build_profiles` + `mcc_filter_profiles`) and
//! `mcc_filter_reference` directly. A counting global allocator
//! attributes heap traffic to each loop; the kernel's op counters (NMI
//! pairs, profiles built, interner hits/misses) come from the loop
//! itself.
//!
//! One equivalence gate runs inside the harness and aborts on any
//! mismatch: kernel and reference outcome digests (every confidence
//! bit, pair count and simulated cost) must match at every scale. The
//! acceptance gate then asks for ≥ 3× fewer allocations and ≥ 2× lower
//! wall time for the kernel at 16× slot scale, aggregated over
//! datasets.
//!
//! Artifacts: `results/perf.json` + `results/perf.txt` (deterministic
//! — CI runs the binary twice and `cmp`s both; schema-gated by
//! `MULTIRAG_CHECK_SCHEMA=1`) and `BENCH_perf.json` at the repo root
//! (wall-clock timings, best-of and median of the reps, with the
//! machine's `nproc`; non-deterministic by nature, never compared).
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_perf
//! ```

use multirag_bench::{
    alloc_snapshot, best_and_median_us, check_schema, nproc, replicate_graph, schema_outline, seed,
    CountingAlloc,
};
use multirag_core::confidence::{build_profiles, mcc_filter_profiles, mcc_filter_reference};
use multirag_core::{KernelCounters, MccOutcome, MklgpPipeline, MultiRagConfig};
use multirag_eval::table::{fmt2, Table};
use multirag_kg::{FxHasher, KnowledgeGraph};
use multirag_obs::json::JsonObj;
use multirag_obs::WallTimer;
use std::hash::{Hash, Hasher};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Order-sensitive digest over every deterministic field of a sweep's
/// outcomes. Wall-clock (`StageCost::wall_s`) is excluded; simulated
/// milliseconds, pair counts and all confidence bits are included, so
/// two sweeps digest equal iff they agree bit-for-bit.
fn digest_outcomes(outcomes: &[MccOutcome]) -> u64 {
    let mut h = FxHasher::default();
    outcomes.len().hash(&mut h);
    for o in outcomes {
        o.gated.hash(&mut h);
        match &o.graph {
            Some(g) => {
                1u8.hash(&mut h);
                g.value.to_bits().hash(&mut h);
                g.unordered_pairs.hash(&mut h);
                g.ordered_pairs.hash(&mut h);
            }
            None => 0u8.hash(&mut h),
        }
        for nodes in [&o.kept, &o.dropped] {
            nodes.len().hash(&mut h);
            for n in nodes {
                n.triple.index().hash(&mut h);
                n.value.hash(&mut h);
                n.source.index().hash(&mut h);
                n.consistency.to_bits().hash(&mut h);
                n.auth_llm.to_bits().hash(&mut h);
                n.auth_hist.to_bits().hash(&mut h);
                n.authority.to_bits().hash(&mut h);
                n.confidence.to_bits().hash(&mut h);
            }
        }
        o.graph_cost.sim_ms.to_bits().hash(&mut h);
        o.node_cost.sim_ms.to_bits().hash(&mut h);
    }
    h.finish()
}

/// One measured serial MCC loop over every slot group of a pipeline.
#[derive(Default)]
struct StageRun {
    digest: u64,
    allocs: u64,
    bytes: u64,
    best_us: u64,
    median_us: u64,
    counters: KernelCounters,
    interner_hits: u64,
    interner_misses: u64,
    groups: usize,
}

const REPS: usize = 3;

/// The MCC implementation a serial loop runs.
#[derive(Clone, Copy)]
enum Mcc {
    Kernel,
    Reference,
}

/// Runs MCC over every slot group of `pipeline` serially, `REPS` times,
/// on state taken before the counted region: an LLM clone, a history
/// clone and an interner that owns its copy of the graph keys. The
/// allocation count is therefore exactly the stage's own traffic.
/// Allocation counts and op counters come from the first repetition
/// (they are identical across reps); wall time is best-of-`REPS` and
/// the median of `REPS`, in integer microseconds.
fn serial_stage(
    pipeline: &MklgpPipeline<'_>,
    kg: &KnowledgeGraph,
    config: &MultiRagConfig,
    mcc: Mcc,
) -> StageRun {
    let groups = pipeline.slot_groups();
    let max_degree = pipeline.max_degree();
    let mut run = StageRun {
        groups: groups.len(),
        ..StageRun::default()
    };
    let mut timings = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let mut llm = pipeline.llm().clone();
        let history = pipeline.history().clone();
        let mut keys = pipeline.key_interner().detached();
        let (h0, m0) = (keys.hits(), keys.misses());
        let mut counters = KernelCounters::default();
        let mut outcomes: Vec<MccOutcome> = Vec::with_capacity(groups.len());
        let (a0, b0) = alloc_snapshot();
        let timer = WallTimer::start();
        for group in &groups {
            // A fresh usage meter per group, as the pipeline meters per
            // query: a long-running accumulator would drift in the low
            // ULPs of the simulated cost.
            llm.reset_usage();
            outcomes.push(match mcc {
                Mcc::Kernel => {
                    let profiles = build_profiles(kg, group, &mut keys);
                    counters.profiles_built += profiles.len() as u64;
                    mcc_filter_profiles(
                        kg,
                        group,
                        &profiles,
                        &keys,
                        &mut llm,
                        &history,
                        config,
                        max_degree,
                        &mut counters,
                    )
                }
                Mcc::Reference => {
                    mcc_filter_reference(kg, group, &mut llm, &history, config, max_degree)
                }
            });
        }
        let us = timer.elapsed_us();
        let (a1, b1) = alloc_snapshot();
        timings.push(us);
        if rep == 0 {
            run.digest = digest_outcomes(&outcomes);
            run.allocs = a1 - a0;
            run.bytes = b1 - b0;
            run.counters = counters;
            run.interner_hits = keys.hits() - h0;
            run.interner_misses = keys.misses() - m0;
        }
    }
    (run.best_us, run.median_us) = best_and_median_us(timings);
    run
}

/// Per `(dataset, slot scale)` measurement cell.
struct Cell {
    dataset: String,
    factor: usize,
    kernel: StageRun,
    reference: StageRun,
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / (b.max(1)) as f64
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    let scale_str = format!("{scale:?}");
    let config = MultiRagConfig::default();
    println!("One-shot MCC perf harness @ {scale_str}, seed {seed} ({REPS} reps, best-of)");

    let datasets = multirag_bench::all_datasets();
    let mut cells: Vec<Cell> = Vec::new();
    for data in &datasets {
        for &factor in &[1usize, 4, 16] {
            let graph = replicate_graph(&data.graph, factor);
            let pipeline = MklgpPipeline::new(&graph, config, seed);
            let kernel = serial_stage(&pipeline, &graph, &config, Mcc::Kernel);
            let reference = serial_stage(&pipeline, &graph, &config, Mcc::Reference);
            assert_eq!(
                kernel.digest, reference.digest,
                "{} @{factor}x: kernel MCC must be bit-identical to reference",
                data.name
            );
            cells.push(Cell {
                dataset: data.name.clone(),
                factor,
                kernel,
                reference,
            });
        }
    }

    // Acceptance gate: ≥3× fewer allocations and ≥2× lower wall time
    // on the MCC stage at 16× slot scale, aggregated over datasets.
    let at16: Vec<&Cell> = cells.iter().filter(|c| c.factor == 16).collect();
    let kernel_allocs: u64 = at16.iter().map(|c| c.kernel.allocs).sum();
    let reference_allocs: u64 = at16.iter().map(|c| c.reference.allocs).sum();
    let kernel_us: u64 = at16.iter().map(|c| c.kernel.best_us).sum();
    let reference_us: u64 = at16.iter().map(|c| c.reference.best_us).sum();
    let alloc_ratio = ratio(reference_allocs, kernel_allocs);
    let wall_ratio = ratio(reference_us, kernel_us);
    let alloc_target_met = alloc_ratio >= 3.0;
    let wall_target_met = wall_ratio >= 2.0;

    // Deterministic table: no wall-clock columns.
    let mut table = Table::new(
        "One-shot MCC vs reference (serial stage, first-rep allocation counts)",
        &[
            "Dataset",
            "Scale",
            "Groups",
            "Profiles",
            "NMI pairs",
            "Interner h/m",
            "Kernel allocs",
            "Ref allocs",
            "Alloc ratio",
        ],
    );
    for c in &cells {
        table.row(vec![
            c.dataset.clone(),
            format!("{}x", c.factor),
            c.kernel.groups.to_string(),
            c.kernel.counters.profiles_built.to_string(),
            c.kernel.counters.nmi_pairs.to_string(),
            format!("{}/{}", c.kernel.interner_hits, c.kernel.interner_misses),
            c.kernel.allocs.to_string(),
            c.reference.allocs.to_string(),
            fmt2(ratio(c.reference.allocs, c.kernel.allocs)),
        ]);
    }
    let rendered = table.render();
    println!("{rendered}");

    // Wall timings go to stdout and BENCH_perf.json only — never into
    // the cmp'd artifacts.
    let mut wall_table = Table::new(
        &format!("Wall time, best of {REPS} (µs) — non-deterministic"),
        &["Dataset", "Scale", "Kernel", "Reference", "Ref/Kernel"],
    );
    for c in &cells {
        wall_table.row(vec![
            c.dataset.clone(),
            format!("{}x", c.factor),
            c.kernel.best_us.to_string(),
            c.reference.best_us.to_string(),
            fmt2(ratio(c.reference.best_us, c.kernel.best_us)),
        ]);
    }
    println!("{}", wall_table.render());
    println!(
        "acceptance @16x: alloc ratio {alloc_ratio:.2} (target >= 3.0), wall ratio {wall_ratio:.2} (target >= 2.0)"
    );

    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObj::new()
                .str("dataset", &c.dataset)
                .usize("slot_scale", c.factor)
                .usize("groups", c.kernel.groups)
                .u64("profiles_built", c.kernel.counters.profiles_built)
                .u64("nmi_pairs", c.kernel.counters.nmi_pairs)
                .u64("interner_hits", c.kernel.interner_hits)
                .u64("interner_misses", c.kernel.interner_misses)
                .u64("kernel_allocs", c.kernel.allocs)
                .u64("kernel_bytes", c.kernel.bytes)
                .u64("reference_allocs", c.reference.allocs)
                .u64("reference_bytes", c.reference.bytes)
                .f64("alloc_ratio", ratio(c.reference.allocs, c.kernel.allocs))
                .bool(
                    "kernel_matches_reference",
                    c.kernel.digest == c.reference.digest,
                )
                .build()
        })
        .collect();
    let acceptance = JsonObj::new()
        .usize("slot_scale", 16)
        .f64("alloc_ratio", alloc_ratio)
        .f64("alloc_target", 3.0)
        .bool("alloc_target_met", alloc_target_met)
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
        .and_then(|_| std::fs::write("results/perf.json", &json))
        .and_then(|_| std::fs::write("results/perf.txt", &rendered))
    {
        Ok(()) => println!("wrote results/perf.json, results/perf.txt"),
        Err(e) => println!("note: could not write results/: {e}"),
    }
    match schema_outline(&json) {
        Ok(outline) => println!("schema outline [perf]: {outline}"),
        Err(e) => println!("note: schema outline failed: {e}"),
    }
    check_schema("perf", &json);

    // Wall-clock companion artifact. Uppercase stem on purpose: it is
    // non-deterministic and must stay out of the schema/cmp gates that
    // cover the lowercase results/ artifacts.
    let bench_rows: Vec<String> = cells
        .iter()
        .map(|c| {
            JsonObj::new()
                .str("dataset", &c.dataset)
                .usize("slot_scale", c.factor)
                .u64("kernel_us", c.kernel.best_us)
                .u64("kernel_median_us", c.kernel.median_us)
                .u64("reference_us", c.reference.best_us)
                .u64("reference_median_us", c.reference.median_us)
                .f64("wall_ratio", ratio(c.reference.best_us, c.kernel.best_us))
                .build()
        })
        .collect();
    let bench = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &scale_str)
        .usize("nproc", nproc())
        .usize("reps", REPS)
        .arr("rows", bench_rows)
        .f64("wall_ratio_at_16x", wall_ratio)
        .f64("alloc_ratio_at_16x", alloc_ratio)
        .build();
    match std::fs::write("BENCH_perf.json", &bench) {
        Ok(()) => println!("wrote BENCH_perf.json"),
        Err(e) => println!("note: could not write BENCH_perf.json: {e}"),
    }

    assert!(
        alloc_target_met,
        "allocation target missed at 16x: reference/kernel = {alloc_ratio:.2} < 3.0"
    );
    assert!(
        wall_target_met,
        "wall-time target missed at 16x: reference/kernel = {wall_ratio:.2} < 2.0"
    );
    println!("perf targets met at 16x slot scale");
}
