//! The MultiRAG benchmark: three workloads through the system's public
//! entry points, end-to-end metrics from untraced runs and per-layer
//! metrics from a separate traced run. See `perfbench/METRICS.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload answer-serial --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is the result as one JSON object;
//! the line before it is the run record. `--workload all` runs the
//! three workloads in turn, each in a process of its own, and ends with
//! one merged result. A correctness-gate mismatch exits with status 1.

mod answer_serial;
mod common;
mod inputs;
mod report;
mod serve_batch;
mod serve_epochs;
mod stats;
mod trace;

use multirag_datasets::Scale;
use multirag_ingest::json::{self, JsonValue};
use report::{Outcome, RunCfg};
use std::path::Path;
use std::process::Command;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

const WORKLOADS: [&str; 3] = ["answer-serial", "serve-batch", "serve-epochs"];

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    match name {
        "answer-serial" => answer_serial::run(cfg),
        "serve-batch" => serve_batch::run(cfg),
        "serve-epochs" => serve_epochs::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS.iter().find(|w| **w == workload).ok_or_else(|| {
            format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all")
        })?]
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// Runs one workload in this process and prints its notes, metric
/// lines, run record and result. Returns whether its gate held.
fn run_one(name: &str, args: &Args) -> bool {
    let cfg = RunCfg::new(args.seed, Scale::bench(), args.seconds, args.trace);
    let mut outcome = run_workload(name, &cfg);
    println!(
        "== {name} (seed {}, {} s, trace {})",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    if let Some(tracer) = outcome.trace.take() {
        let path = format!("perfbench/out/{name}.spans.jsonl");
        match tracer.write(Path::new(&path)) {
            Ok(()) => println!("spans: {} written to {path}", tracer.spans.len()),
            Err(e) => println!("spans: not written to {path} ({e})"),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!(
            "metric {:<38} {:>16.4} {:<6} n={} ({})",
            m.name, m.value, m.unit, m.samples, m.stat
        );
    }
    println!(
        "record {}",
        outcome.record_json(name, &cfg, &report::git_rev())
    );
    println!("{}", outcome.result_json());
    outcome.correct()
}

/// Runs every workload in a process of its own, so none inherits
/// another's memory high-water mark, and prints each one's output and
/// then one merged result with metric names prefixed by workload.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut merged = Outcome::default();
    for &name in &args.workloads {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("the benchmark can run itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let Some(result) = result.filter(|_| out.status.success()) else {
            eprintln!("perfbench: {name} failed ({})", out.status);
            merged.mismatches += 1;
            continue;
        };
        let count = |key| result.get(key).and_then(JsonValue::as_i64).unwrap_or(0) as u64;
        merged.attempted += count("attempted");
        merged.failed += count("failed");
        for (metric, v) in result
            .get("metrics")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
        {
            merged.metrics.push(report::metric(
                &format!("{name}.{metric}"),
                v.get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN),
                v.get("unit").and_then(JsonValue::as_str).unwrap_or("?"),
                1,
                "",
            ));
        }
    }
    println!("{}", merged.result_json());
    merged.correct()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <answer-serial|serve-batch|serve-epochs|all> --seed <n> [--seconds <s>] [--trace <0|1>]");
            std::process::exit(2);
        }
    };
    let correct = match args.workloads.as_slice() {
        [only] => run_one(only, &args),
        _ => run_all(&args),
    };
    if !correct {
        eprintln!("perfbench: correctness gate failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    /// A small-scale run of `name` passes its gate and reports exactly
    /// the metrics BENCHMARK.json declares for its mode.
    fn smoke(name: &str, trace: bool) {
        let cfg = RunCfg::new(42, Scale::small(), 0.4, trace);
        let out = run_workload(name, &cfg);
        assert!(
            out.correct(),
            "{name}: correctness gate failed: {:?}",
            out.notes
        );
        assert!(
            out.attempted > 0 && out.failed == 0,
            "{name}: {:?}",
            out.notes
        );
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(names, declared(section), "{name} trace={trace}");
        for m in &out.metrics {
            assert!(m.value.is_finite(), "{name}: {} is {}", m.name, m.value);
            if !trace {
                assert!(m.value > 0.0, "{name}: end-to-end {} reads 0", m.name);
            }
        }
    }

    #[test]
    fn answer_serial_smoke() {
        smoke("answer-serial", false);
        smoke("answer-serial", true);
    }

    #[test]
    fn serve_batch_smoke() {
        smoke("serve-batch", false);
        smoke("serve-batch", true);
    }

    #[test]
    fn serve_epochs_smoke() {
        smoke("serve-epochs", false);
        smoke("serve-epochs", true);
    }

    #[test]
    fn declared_workloads_match_the_program() {
        assert_eq!(declared("workloads"), WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let ok = parse(&args(
            "--workload serve-batch --seed 7 --seconds 3 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (ok.workloads, ok.seed, ok.seconds, ok.trace),
            (vec!["serve-batch"], 7, 3.0, true)
        );
        assert_eq!(
            parse(&args("--workload all --seed 1"))
                .expect("valid")
                .workloads,
            WORKLOADS
        );
        for bad in [
            "--workload nope --seed 1",
            "--workload serve-batch",
            "--workload serve-batch --seed x",
            "--workload serve-batch --seed 1 --seconds 0",
            "--workload serve-batch --seed 1 --trace 2",
            "--workload serve-batch --seed 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad} must be rejected");
        }
    }
}
