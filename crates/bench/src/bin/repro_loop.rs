//! Closed-loop grounded generation harness — grade → escalate under a
//! deadline-bounded budget, with the cost visible in serving tails.
//!
//! Every benchmark dataset is perturbed (injected conflicts + masked
//! relations) so the single-pass pipeline demonstrably hallucinates,
//! then the escalation budget is swept over `max_attempts` ∈ {0,1,2,3}
//! crossed with grader fault rates {0, 5%}. Attempt budget 0 is the
//! loop disabled — byte-identical to the pre-loop pipeline. Each cell
//! reports the hallucination / abstention tallies plus closed-loop
//! latency percentiles: per-query metered service times (integer µs,
//! escalation charges included) feed the serving crate's discrete-event
//! queueing model, so the price of the loop lands where an operator
//! would see it — in p99.
//!
//! In-binary acceptance:
//!
//! * with a healthy grader, any budget ≥ 1 strictly reduces
//!   hallucinations versus the single pass, and never abstains less;
//! * a faulty grader degrades gracefully — hallucinations never exceed
//!   the single-pass count;
//! * escalation is not free: simulated time and closed-loop p99 are
//!   strictly higher than the single pass.
//!
//! `results/loop.json` is byte-identical for a fixed seed — the CI
//! loop-smoke job runs this binary twice and diffs the artifacts.
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_loop
//! ```

use multirag_bench::{all_datasets, check_schema, seed};
use multirag_core::{LoopConfig, MultiRagConfig};
use multirag_datasets::{perturb, render};
use multirag_eval::table::Table;
use multirag_eval::{run_loop_sweep, LoopSweepConfig};
use multirag_faults::{us_to_ms, FaultPlan};
use multirag_obs::json::JsonObj;
use multirag_serve::closed_loop_timeline;

/// Fixed per-request serving overhead, mirroring the serve engine's
/// admission + dispatch cost (µs).
const OVERHEAD_US: u64 = 200;
/// Fan-out workers for the sweep; outcomes are worker-count invariant.
const WORKERS: usize = 4;
/// Closed-loop clients driving the latency model.
const CONCURRENCY: usize = 4;
/// Queue deep enough that nothing sheds — every query's latency counts.
const QUEUE_DEPTH: usize = 1 << 16;

/// One (fault rate × attempt budget) cell aggregated over all datasets.
struct Cell {
    grader_fault: f64,
    max_attempts: u32,
    queries: usize,
    hallucinated: usize,
    abstained: usize,
    exhausted: usize,
    escalations: u64,
    sim_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn run_cell(
    datasets: &[(
        multirag_datasets::spec::MultiSourceDataset,
        Vec<multirag_ingest::RawSource>,
    )],
    grader_fault: f64,
    max_attempts: u32,
    seed: u64,
) -> Cell {
    let mut cell = Cell {
        grader_fault,
        max_attempts,
        queries: 0,
        hallucinated: 0,
        abstained: 0,
        exhausted: 0,
        escalations: 0,
        sim_ms: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
    };
    let mut service_us: Vec<u64> = Vec::new();
    for (data, reserves) in datasets {
        let sweep_cfg = LoopSweepConfig {
            config: MultiRagConfig::default(),
            loopcfg: Some(LoopConfig::default().with_max_attempts(max_attempts)),
            fault_plan: Some(FaultPlan {
                grader_failure_rate: grader_fault,
                ..FaultPlan::healthy(seed)
            }),
            reserves: reserves.clone(),
        };
        let sweep = run_loop_sweep(data, &data.graph, &sweep_cfg, seed, WORKERS);
        cell.queries += sweep.answers.len();
        cell.hallucinated += sweep.hallucinated();
        cell.abstained += sweep.abstained();
        cell.exhausted += sweep.escalation_exhausted();
        cell.escalations += sweep.escalation_attempts();
        cell.sim_ms += sweep.usage.simulated_ms;
        service_us.extend(sweep.service_us.iter().map(|&us| us + OVERHEAD_US));
    }
    let (point, _) = closed_loop_timeline(&service_us, CONCURRENCY, WORKERS, QUEUE_DEPTH);
    assert_eq!(
        point.completed, cell.queries,
        "queue must be deep enough that no request sheds"
    );
    cell.p50_ms = point.p50_ms;
    cell.p95_ms = point.p95_ms;
    cell.p99_ms = point.p99_ms;
    cell
}

fn cell_json(c: &Cell) -> String {
    JsonObj::new()
        .f64("grader_fault", c.grader_fault)
        .u64("max_attempts", u64::from(c.max_attempts))
        .usize("queries", c.queries)
        .usize("hallucinated", c.hallucinated)
        .usize("abstained", c.abstained)
        .usize("escalation_exhausted", c.exhausted)
        .u64("escalations", c.escalations)
        .f64("sim_ms", c.sim_ms)
        .f64("p50_ms", c.p50_ms)
        .f64("p95_ms", c.p95_ms)
        .f64("p99_ms", c.p99_ms)
        .build()
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    println!(
        "Closed-loop harness: 4 perturbed datasets @ {scale:?}, seed {seed}, {WORKERS} fan-out workers"
    );

    // Perturb every dataset so the single pass hallucinates; the clean
    // renders become the reserve sources the consult rung draws on.
    let datasets: Vec<_> = all_datasets()
        .into_iter()
        .map(|clean| {
            let reserves = render::render_all_sources(&clean);
            let data = perturb::inject_conflicts(&clean, 0.35, seed);
            let data = perturb::mask_relations(&data, 0.2, seed);
            (data, reserves)
        })
        .collect();

    let fault_rates = [0.0, 0.05];
    let budgets = [0u32, 1, 2, 3];
    let mut cells: Vec<Cell> = Vec::new();
    for &rate in &fault_rates {
        for &attempts in &budgets {
            cells.push(run_cell(&datasets, rate, attempts, seed));
        }
    }

    let mut table = Table::new(
        "Escalation budget sweep (aggregated over datasets)",
        &[
            "Fault", "Budget", "Halluc", "Abstain", "Exhaust", "Esc", "Sim/ms", "p50/ms", "p99/ms",
        ],
    );
    for c in &cells {
        table.row(vec![
            format!("{:.0}%", c.grader_fault * 100.0),
            c.max_attempts.to_string(),
            format!("{}/{}", c.hallucinated, c.queries),
            c.abstained.to_string(),
            c.exhausted.to_string(),
            c.escalations.to_string(),
            format!("{:.1}", c.sim_ms),
            format!("{:.2}", c.p50_ms),
            format!("{:.2}", c.p99_ms),
        ]);
    }
    println!("{}", table.render());

    // Acceptance: the loop must strictly earn its latency cost.
    for &rate in &fault_rates {
        let row = |attempts: u32| {
            cells
                .iter()
                .find(|c| c.grader_fault == rate && c.max_attempts == attempts)
                .expect("cell exists")
        };
        let baseline = row(0);
        assert!(
            baseline.hallucinated > 0,
            "perturbation must make the single pass hallucinate"
        );
        for attempts in [1u32, 2, 3] {
            let looped = row(attempts);
            if rate == 0.0 {
                assert!(
                    looped.hallucinated < baseline.hallucinated,
                    "budget {attempts} must strictly reduce hallucinations \
                     ({} vs baseline {})",
                    looped.hallucinated,
                    baseline.hallucinated
                );
            } else {
                // A faulty grader can only miss rescues, never create
                // hallucinations: graceful degradation is monotone.
                assert!(
                    looped.hallucinated <= baseline.hallucinated,
                    "budget {attempts} under grader faults must never hallucinate \
                     more than the single pass"
                );
            }
            assert!(
                looped.sim_ms > baseline.sim_ms,
                "escalation must charge metered time"
            );
            assert!(
                looped.p99_ms > baseline.p99_ms,
                "the loop's cost must be visible in closed-loop p99"
            );
        }
    }
    println!(
        "acceptance: budget>=1 strictly reduces hallucinations (healthy grader), \
         p99 strictly rises"
    );

    let json = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &format!("{scale:?}"))
        .f64("conflict_fraction", 0.35)
        .f64("mask_fraction", 0.2)
        .usize("concurrency", CONCURRENCY)
        .usize("workers", WORKERS)
        .raw("overhead_us", &OVERHEAD_US.to_string())
        .f64("deadline_ms", us_to_ms(LoopConfig::default().deadline_us))
        .arr("cells", cells.iter().map(cell_json))
        .build();
    let out_dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("loop.json"), &json))
    {
        println!("note: could not write results/loop.json: {err}");
    } else {
        println!(
            "wrote results/loop.json ({} bytes; bit-identical for a fixed seed)",
            json.len()
        );
    }
    check_schema("loop", &json);
}
