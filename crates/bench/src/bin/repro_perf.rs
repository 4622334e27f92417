//! Deterministic perf harness for the one-shot MCC kernels.
//!
//! Measures the MCC stage (claim-profile build + graph gate + node
//! assessment) in isolation, comparing the interned-profile kernel
//! path against the retained naive reference implementation at 1×, 4×
//! and 16× synthetic slot scale, on every benchmark dataset. A
//! counting global allocator attributes heap traffic to each serial
//! sweep; kernel op counters (NMI pairs, profiles built, interner
//! hits/misses) come from the pipeline itself.
//!
//! Three equivalence gates run inside the harness and abort on any
//! mismatch:
//!
//! * **kernel vs reference** — outcome digests (every confidence bit,
//!   pair count and simulated cost) must match at every scale;
//! * **parallel vs serial** — a 4-worker [`mcc_sweep`] must reproduce
//!   the serial outcome digest, usage and counters;
//! * **fan-out byte-identity** — `run_multirag_fanout` at 1 and 4
//!   workers, kernel and reference config, must emit byte-identical
//!   canonical trace JSON and identical result rows.
//!
//! Artifacts: `results/perf.json` + `results/perf.txt` (deterministic
//! — CI runs the binary twice and `cmp`s both; schema-gated by
//! `MULTIRAG_CHECK_SCHEMA=1`) and `BENCH_perf.json` at the repo root
//! (wall-clock timings, non-deterministic by nature, never compared).
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_perf
//! ```

use multirag_bench::{
    alloc_snapshot, check_schema, replicate_graph, schema_outline, seed, CountingAlloc,
};
use multirag_core::{KernelCounters, MccOutcome, MklgpPipeline, MultiRagConfig};
use multirag_eval::fanout::{mcc_sweep, run_multirag_fanout};
use multirag_eval::table::{fmt2, Table};
use multirag_kg::FxHasher;
use multirag_obs::json::JsonObj;
use multirag_obs::{traces_json, Observer};
use std::hash::{Hash, Hasher};
use std::time::Instant;

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

/// One measured serial MCC sweep over every slot group of a pipeline.
struct StageRun {
    digest: u64,
    allocs: u64,
    bytes: u64,
    best_us: u64,
    counters: KernelCounters,
    interner_hits: u64,
    interner_misses: u64,
    groups: usize,
}

const REPS: usize = 3;

/// Runs the MCC stage serially (one fresh [`multirag_core::MccWorker`]
/// per repetition, no threads — so the allocation count is exactly the
/// stage's own traffic) `REPS` times. Allocation counts and op
/// counters come from the first repetition (they are identical across
/// reps); wall time is best-of-`REPS` in integer microseconds.
fn serial_stage(pipeline: &MklgpPipeline<'_>) -> StageRun {
    let groups = pipeline.slot_groups();
    let mut run = StageRun {
        digest: 0,
        allocs: 0,
        bytes: 0,
        best_us: u64::MAX,
        counters: KernelCounters::default(),
        interner_hits: 0,
        interner_misses: 0,
        groups: groups.len(),
    };
    for rep in 0..REPS {
        let mut worker = pipeline.mcc_worker();
        let (h0, m0) = worker.interner_stats();
        let c0 = worker.counters();
        let mut outcomes: Vec<MccOutcome> = Vec::with_capacity(groups.len());
        let (a0, b0) = alloc_snapshot();
        let start = Instant::now();
        for group in &groups {
            // Same per-cell metering protocol as `mcc_sweep`: a fresh
            // usage meter per group keeps the simulated-cost floats
            // bit-identical to the parallel path (a long-running
            // accumulator would drift in the low ULPs).
            worker.reset_usage();
            outcomes.push(worker.run(group));
        }
        let us = start.elapsed().as_micros() as u64;
        let (a1, b1) = alloc_snapshot();
        run.best_us = run.best_us.min(us);
        if rep == 0 {
            run.digest = digest_outcomes(&outcomes);
            run.allocs = a1 - a0;
            run.bytes = b1 - b0;
            run.counters = worker.counters().since(c0);
            let (h1, m1) = worker.interner_stats();
            run.interner_hits = h1 - h0;
            run.interner_misses = m1 - m0;
        }
    }
    run
}

/// Per `(dataset, slot scale)` measurement cell.
struct Cell {
    dataset: String,
    factor: usize,
    kernel: StageRun,
    reference: StageRun,
    parallel_us: u64,
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
    let mut fanout_rows: Vec<(String, bool, bool)> = Vec::new();

    for data in &datasets {
        for &factor in &[1usize, 4, 16] {
            let graph = replicate_graph(&data.graph, factor);
            let kernel_pipe = MklgpPipeline::new(&graph, config, seed);
            let reference_pipe = MklgpPipeline::new(&graph, config.with_reference_mcc(), seed);
            let kernel = serial_stage(&kernel_pipe);
            let reference = serial_stage(&reference_pipe);
            assert_eq!(
                kernel.digest, reference.digest,
                "{} @{factor}x: kernel MCC must be bit-identical to reference",
                data.name
            );

            let mut parallel_us = u64::MAX;
            let mut parallel_digest = 0u64;
            for rep in 0..REPS {
                let start = Instant::now();
                let sweep = mcc_sweep(&kernel_pipe, 4);
                let us = start.elapsed().as_micros() as u64;
                parallel_us = parallel_us.min(us);
                if rep == 0 {
                    parallel_digest = digest_outcomes(&sweep.outcomes);
                    assert_eq!(
                        sweep.counters, kernel.counters,
                        "{} @{factor}x: parallel op counters must match serial",
                        data.name
                    );
                }
            }
            assert_eq!(
                kernel.digest, parallel_digest,
                "{} @{factor}x: 4-worker sweep must be bit-identical to serial",
                data.name
            );

            cells.push(Cell {
                dataset: data.name.clone(),
                factor,
                kernel,
                reference,
                parallel_us,
            });
        }

        // Fan-out byte-identity on the un-replicated dataset: worker
        // count and kernel/reference config must both be invisible in
        // the canonical trace export and the result row.
        let obs_w1 = Observer::new();
        let row_w1 = run_multirag_fanout(data, &data.graph, config, seed, 1, Some(obs_w1.clone()));
        let obs_w4 = Observer::new();
        let row_w4 = run_multirag_fanout(data, &data.graph, config, seed, 4, Some(obs_w4.clone()));
        let obs_ref = Observer::new();
        let row_ref = run_multirag_fanout(
            data,
            &data.graph,
            config.with_reference_mcc(),
            seed,
            4,
            Some(obs_ref.clone()),
        );
        let t_w1 = traces_json(seed, &data.name, &obs_w1.traces());
        let t_w4 = traces_json(seed, &data.name, &obs_w4.traces());
        let t_ref = traces_json(seed, &data.name, &obs_ref.traces());
        let serial_equals_parallel = t_w1 == t_w4;
        let kernel_equals_reference = t_w1 == t_ref;
        assert!(
            serial_equals_parallel,
            "{}: fan-out traces must be byte-identical across worker counts",
            data.name
        );
        assert!(
            kernel_equals_reference,
            "{}: fan-out traces must be byte-identical kernel vs reference",
            data.name
        );
        for (a, b, label) in [
            (&row_w1, &row_w4, "workers 1 vs 4"),
            (&row_w1, &row_ref, "kernel vs reference"),
        ] {
            assert_eq!(
                a.f1.to_bits(),
                b.f1.to_bits(),
                "{}: f1 drift ({label})",
                data.name
            );
            assert_eq!(
                a.precision.to_bits(),
                b.precision.to_bits(),
                "{}: precision drift ({label})",
                data.name
            );
            assert_eq!(
                a.recall.to_bits(),
                b.recall.to_bits(),
                "{}: recall drift ({label})",
                data.name
            );
            assert_eq!(
                a.hallucination_rate.to_bits(),
                b.hallucination_rate.to_bits(),
                "{}: hallucination drift ({label})",
                data.name
            );
            assert_eq!(
                a.answered_rate.to_bits(),
                b.answered_rate.to_bits(),
                "{}: answered drift ({label})",
                data.name
            );
            assert_eq!(
                a.pt.simulated_s.to_bits(),
                b.pt.simulated_s.to_bits(),
                "{}: simulated-time drift ({label})",
                data.name
            );
        }
        fanout_rows.push((
            data.name.clone(),
            serial_equals_parallel,
            kernel_equals_reference,
        ));
        println!(
            "fanout [{}]: traces byte-identical (1w == 4w == reference), f1 {:.1}",
            data.name, row_w1.f1
        );
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
        &[
            "Dataset",
            "Scale",
            "Kernel",
            "Reference",
            "Parallel(4w)",
            "Ref/Kernel",
        ],
    );
    for c in &cells {
        wall_table.row(vec![
            c.dataset.clone(),
            format!("{}x", c.factor),
            c.kernel.best_us.to_string(),
            c.reference.best_us.to_string(),
            c.parallel_us.to_string(),
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
                .bool("parallel_matches_serial", true)
                .build()
        })
        .collect();
    let fanout_json: Vec<String> = fanout_rows
        .iter()
        .map(|(name, sp, kr)| {
            JsonObj::new()
                .str("dataset", name)
                .bool("serial_equals_parallel", *sp)
                .bool("kernel_equals_reference", *kr)
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
        .arr("fanout", fanout_json)
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
                .u64("reference_us", c.reference.best_us)
                .u64("parallel4_us", c.parallel_us)
                .f64("wall_ratio", ratio(c.reference.best_us, c.kernel.best_us))
                .build()
        })
        .collect();
    let bench = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &scale_str)
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
