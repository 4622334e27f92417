//! SLO telemetry harness — windowed burn-rate alerts, log-bucket
//! percentiles and tail-latency attribution over the serving loop.
//!
//! One observed sequential oracle produces per-request traces; each
//! request's service time is **rebuilt from its per-stage simulated
//! costs** (`multirag_serve::attrib`), so end-to-end latency decomposes
//! exactly into queue wait + stages + overhead. Three legs replay those
//! costs through the closed-loop simulator:
//!
//! * `clean-c4` — light load, healthy faults: every alert stays silent;
//! * `overload-c32` — 32 clients on one sim worker with a queue of 8:
//!   sheds burn the error budget and queueing blows the p99 target, so
//!   both alerts walk Pending → Firing;
//! * `faults-c8` — a query-time brownout ([`FaultPlan::brownout`]) plus
//!   a tight deadline: abstentions and latency spikes fire alerts with
//!   no admission pressure at all.
//!
//! Every leg feeds one [`SloEngine`]: sim-clock windows, burn-rate
//! evaluation, exemplar sampling, then tail attribution against the
//! exact nearest-rank p99.
//!
//! In-binary acceptance:
//!
//! * alerts fire on the overload and fault legs and stay silent on the
//!   clean leg;
//! * log-bucket p50/p95/p99 agree with exact nearest-rank within one
//!   bucket on every leg;
//! * attribution rows sum to total closed-loop latency, exactly, per
//!   leg.
//!
//! `results/slo.json` is byte-identical for a fixed seed — the CI
//! slo-smoke job runs this binary twice and diffs the artifacts.
//!
//! ```sh
//! cargo run --release -p multirag-bench --bin repro_slo
//! ```

use multirag_bench::{check_schema, seed};
use multirag_core::{LoopConfig, MultiRagConfig};
use multirag_datasets::movies::MoviesSpec;
use multirag_eval::table::Table;
use multirag_faults::FaultPlan;
use multirag_obs::json::JsonObj;
use multirag_obs::slo::{bucket_of, nearest_rank, Completion, SloEngine, SloOutcome, SloSpec};
use multirag_obs::Observer;
use multirag_serve::{
    attribute, build_workload, closed_loop_timeline, request_costs, serve_sequential_observed,
    AttributionOutcome, CacheStack, IndexWriter, LoadPoint, RequestCost, RequestTiming,
    ServeConfig,
};

/// Brownout rate for the fault leg's query-time channels.
const FAULT_RATE: f64 = 0.3;
/// Retry deadline for the fault leg, simulated ms — tight enough that
/// brownout retries exhaust it and surface as structured abstains.
const FAULT_DEADLINE_MS: f64 = 300.0;
/// p99 latency target as a multiple of the clean leg's exact p99.
const TARGET_MULTIPLIER: u64 = 2;
/// Windows the clean leg's span is divided into (other legs run longer
/// and therefore see more windows of the same length).
const CLEAN_WINDOWS: u64 = 10;
/// Queue deep enough that nothing sheds on the unloaded legs.
const DEEP_QUEUE: usize = 1 << 16;

/// One processed leg: sim outcome + SLO verdicts + attribution.
struct Leg {
    label: &'static str,
    fault_rate: f64,
    concurrency: usize,
    sim_workers: usize,
    queue_depth: usize,
    point: LoadPoint,
    abstained: u64,
    cache_hits: u64,
    escalations: u64,
    exact: [u64; 3],
    approx: [u64; 3],
    outcome: SloOutcome,
    attribution: AttributionOutcome,
}

/// Replays one cost vector through the closed loop and runs the full
/// SLO pass over the resulting timeline.
#[allow(clippy::too_many_arguments)]
fn run_leg(
    label: &'static str,
    fault_rate: f64,
    costs: &[RequestCost],
    spec: SloSpec,
    concurrency: usize,
    sim_workers: usize,
    queue_depth: usize,
) -> Leg {
    let service_us: Vec<u64> = costs.iter().map(|c| c.service_us).collect();
    let (point, timings) = closed_loop_timeline(&service_us, concurrency, sim_workers, queue_depth);

    let mut engine = SloEngine::new(spec);
    let mut abstained = 0u64;
    let mut cache_hits = 0u64;
    let mut escalations = 0u64;
    for (cost, timing) in costs.iter().zip(&timings) {
        if timing.served {
            engine.record_completion(
                timing.completed_us,
                &Completion {
                    query_id: cost.query_id,
                    latency_us: timing.latency_us(),
                    abstained: cost.abstained,
                    cache_hit: cost.cache_hit,
                    escalations: cost.escalations,
                },
            );
            abstained += u64::from(cost.abstained);
            cache_hits += u64::from(cost.cache_hit);
            escalations += cost.escalations;
        } else {
            engine.record_shed(timing.submitted_us);
        }
    }
    let outcome = engine.finalize();

    let mut latencies: Vec<u64> = timings
        .iter()
        .filter(|t| t.served)
        .map(RequestTiming::latency_us)
        .collect();
    latencies.sort_unstable();
    let exact = [
        nearest_rank(&latencies, 50),
        nearest_rank(&latencies, 95),
        nearest_rank(&latencies, 99),
    ];
    let approx = [
        engine.overall().quantile_us(50),
        engine.overall().quantile_us(95),
        engine.overall().quantile_us(99),
    ];

    let attribution = attribute(costs, &timings);
    Leg {
        label,
        fault_rate,
        concurrency,
        sim_workers,
        queue_depth,
        point,
        abstained,
        cache_hits,
        escalations,
        exact,
        approx,
        outcome,
        attribution,
    }
}

fn leg_json(leg: &Leg) -> String {
    let attrib = JsonObj::new()
        .u64("p99_cut_us", leg.attribution.p99_cut_us)
        .u64("total_us", leg.attribution.table.total_us())
        .u64("tail_total_us", leg.attribution.table.tail_total_us())
        .u64("tail_requests", leg.attribution.table.tail_requests())
        .str("owner", leg.attribution.table.owner().unwrap_or("none"))
        .arr(
            "rows",
            leg.attribution
                .table
                .rows()
                .iter()
                .map(|r| r.to_json(leg.attribution.table.tail_total_us())),
        )
        .build();
    JsonObj::new()
        .str("label", leg.label)
        .f64("fault_rate", leg.fault_rate)
        .usize("concurrency", leg.concurrency)
        .usize("sim_workers", leg.sim_workers)
        .usize("queue_depth", leg.queue_depth)
        .usize("offered", leg.point.offered)
        .usize("completed", leg.point.completed)
        .usize("shed", leg.point.shed)
        .u64("abstained", leg.abstained)
        .u64("cache_hits", leg.cache_hits)
        .u64("escalations", leg.escalations)
        .u64("exact_p50_us", leg.exact[0])
        .u64("exact_p95_us", leg.exact[1])
        .u64("exact_p99_us", leg.exact[2])
        .u64("approx_p50_us", leg.approx[0])
        .u64("approx_p95_us", leg.approx[1])
        .u64("approx_p99_us", leg.approx[2])
        .arr("windows", leg.outcome.windows.iter().map(|w| w.to_json()))
        .arr(
            "transitions",
            leg.outcome.transitions.iter().map(|t| t.to_json()),
        )
        .arr("alerts", leg.outcome.alerts.iter().map(|a| a.to_json()))
        .raw("attribution", &attrib)
        .build()
}

fn main() {
    let seed = seed();
    let scale = multirag_bench::scale();
    println!("SLO harness: movies @ {scale:?}, seed {seed}");

    let data = MoviesSpec::at_scale(scale).generate(seed);
    let mut writer = IndexWriter::new(data.graph, MultiRagConfig::default(), seed);
    let snapshot = writer.publish();
    let wave = build_workload(&data.queries, data.queries.len() * 3, seed);

    // One observed oracle per fault regime: the observer's capture
    // buffer holds one trace per computed answer, in stream order, and
    // attrib::request_costs rebuilds integer service times from the
    // per-stage costs in those traces.
    let loop_cfg = Some(LoopConfig::default().with_max_attempts(2));
    let healthy_cfg = ServeConfig {
        loop_control: loop_cfg,
        ..ServeConfig::default()
    };
    let healthy_obs = Observer::new();
    let healthy_responses = serve_sequential_observed(
        &snapshot,
        &CacheStack::new(),
        &healthy_cfg,
        &wave,
        &healthy_obs,
    );
    let healthy_costs = request_costs(&wave, &healthy_responses, &healthy_obs.take_traces());

    let fault_cfg = ServeConfig {
        deadline_ms: FAULT_DEADLINE_MS,
        fault_plan: Some(FaultPlan::brownout(seed, FAULT_RATE)),
        loop_control: loop_cfg,
        ..ServeConfig::default()
    };
    let fault_obs = Observer::new();
    let fault_responses =
        serve_sequential_observed(&snapshot, &CacheStack::new(), &fault_cfg, &wave, &fault_obs);
    let fault_costs = request_costs(&wave, &fault_responses, &fault_obs.take_traces());

    // The SLO is declared off the clean leg: p99 target at 2× its exact
    // p99, windows sized so the clean span holds CLEAN_WINDOWS of them.
    let healthy_service: Vec<u64> = healthy_costs.iter().map(|c| c.service_us).collect();
    let (clean_probe, clean_timings) = closed_loop_timeline(&healthy_service, 4, 4, DEEP_QUEUE);
    let mut clean_latencies: Vec<u64> = clean_timings
        .iter()
        .filter(|t| t.served)
        .map(RequestTiming::latency_us)
        .collect();
    clean_latencies.sort_unstable();
    let clean_p99 = nearest_rank(&clean_latencies, 99);
    let spec = SloSpec::default()
        .with_window_us(((clean_probe.sim_total_ms * 1000.0) as u64 / CLEAN_WINDOWS).max(1))
        .with_p99_target_us(clean_p99 * TARGET_MULTIPLIER)
        .with_error_budget(0.05);
    println!(
        "declared SLO: p99 <= {}µs (clean p99 {}µs × {TARGET_MULTIPLIER}), window {}µs, \
         error budget {:.0}%",
        spec.p99_target_us,
        clean_p99,
        spec.window_us,
        spec.error_budget * 100.0
    );

    let legs = vec![
        run_leg("clean-c4", 0.0, &healthy_costs, spec, 4, 4, DEEP_QUEUE),
        run_leg("overload-c32", 0.0, &healthy_costs, spec, 32, 1, 8),
        run_leg(
            "faults-c8",
            FAULT_RATE,
            &fault_costs,
            spec,
            8,
            4,
            DEEP_QUEUE,
        ),
    ];

    let mut table = Table::new(
        "SLO legs (simulated time)",
        &[
            "Leg", "Done", "Shed", "Abstain", "p99/µs", "~p99/µs", "Fired", "Owner",
        ],
    );
    for leg in &legs {
        let fired: Vec<&str> = leg
            .outcome
            .alerts
            .iter()
            .filter(|a| a.fired)
            .map(|a| a.alert)
            .collect();
        table.row(vec![
            leg.label.to_string(),
            leg.point.completed.to_string(),
            leg.point.shed.to_string(),
            leg.abstained.to_string(),
            leg.exact[2].to_string(),
            leg.approx[2].to_string(),
            if fired.is_empty() {
                "-".to_string()
            } else {
                fired.join("+")
            },
            leg.attribution.table.owner().unwrap_or("none").to_string(),
        ]);
    }
    println!("{}", table.render());

    // Acceptance 1: alerts fire exactly where injected.
    let by_label = |label: &str| legs.iter().find(|l| l.label == label).expect("leg exists");
    let clean = by_label("clean-c4");
    assert!(
        clean.outcome.alerts.iter().all(|a| !a.fired),
        "the clean leg must stay silent"
    );
    assert!(
        clean.outcome.transitions.is_empty(),
        "the clean leg must not even go pending"
    );
    let overload = by_label("overload-c32");
    assert!(overload.point.shed > 0, "the overload leg must shed");
    assert!(
        overload.outcome.fired("latency_p99"),
        "sustained queueing must fire the latency alert"
    );
    assert!(
        overload.outcome.fired("error_budget"),
        "sustained sheds must fire the error-budget alert"
    );
    let faults = by_label("faults-c8");
    assert!(faults.abstained > 0, "the brownout must abstain");
    assert_eq!(
        faults.point.shed, 0,
        "the fault leg has no admission pressure"
    );
    assert!(
        faults.outcome.fired("error_budget") || faults.outcome.fired("latency_p99"),
        "the brownout must fire an alert with no admission pressure"
    );
    println!("acceptance: alerts fire on overload/fault legs only");

    // Acceptance 2: log-bucket percentiles agree with exact
    // nearest-rank within one bucket, on every leg.
    for leg in &legs {
        for (i, p) in [50u64, 95, 99].iter().enumerate() {
            let (exact, approx) = (leg.exact[i], leg.approx[i]);
            let diff = i32::from(bucket_of(exact)).abs_diff(i32::from(bucket_of(approx)));
            assert!(
                diff <= 1,
                "{}: p{p} log-bucket {approx}µs vs exact {exact}µs drifts {diff} buckets",
                leg.label
            );
        }
    }
    println!("acceptance: log-bucket p50/p95/p99 within one bucket of exact nearest-rank");

    // Acceptance 3: attribution rows sum to total closed-loop latency,
    // exactly — the integer identity the rebuilt service times buy.
    for leg in &legs {
        assert_eq!(
            leg.attribution.table.total_us(),
            leg.attribution.latency_total_us,
            "{}: attribution must decompose latency exactly",
            leg.label
        );
    }
    println!("acceptance: attribution rows sum to total closed-loop latency per leg");

    // Surface the verdicts the way a scrape would see them: transition
    // events into the trace-event stream, alert gauges and window
    // series into a registry.
    let slo_obs = Observer::metrics_only();
    for leg in &legs {
        for transition in &leg.outcome.transitions {
            slo_obs.record_event(&transition.trace_event());
        }
    }
    overload.outcome.export_metrics(&slo_obs.registry());
    let snap = slo_obs.registry().snapshot();
    assert_eq!(
        snap.gauge("slo_alert_state{alert=\"latency_p99\"}"),
        Some(2.0),
        "the overload leg's latency alert must export as firing"
    );
    assert!(
        snap.counter_family("slo_alert_events_total") > 0,
        "transitions must land in the trace-event metrics"
    );
    assert!(snap
        .to_prometheus()
        .contains("slo_offered_window{window=\"000000\"}"));

    let json = JsonObj::new()
        .u64("seed", seed)
        .str("scale", &format!("{scale:?}"))
        .str("dataset", &data.name)
        .usize("requests", wave.len())
        .u64("window_us", spec.window_us)
        .u64("p99_target_us", spec.p99_target_us)
        .f64("latency_budget", spec.latency_budget)
        .f64("error_budget", spec.error_budget)
        .f64("burn_threshold", spec.burn_threshold)
        .arr("legs", legs.iter().map(leg_json))
        .build();
    let out_dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join("slo.json"), &json))
    {
        println!("note: could not write results/slo.json: {err}");
    } else {
        println!(
            "wrote results/slo.json ({} bytes; bit-identical for a fixed seed)",
            json.len()
        );
    }
    check_schema("slo", &json);
}
