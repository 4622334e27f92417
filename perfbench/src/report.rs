//! Run configuration, metric records, and the printed result.

use crate::trace::Tracer;
use multirag_datasets::Scale;

/// Replays of each build call timed in a traced run.
pub const BUILD_REPLAYS: usize = 5;

/// One run's settings, all from the command line.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    pub scale: Scale,
    pub seconds: f64,
    /// Unmeasured warm-up before the measured region: the first second
    /// of a fresh process runs slower (heap growth, page faults), and a
    /// long-lived server is past it.
    pub warmup_s: f64,
    pub trace: bool,
    pub workers: usize,
}

impl RunCfg {
    pub fn new(seed: u64, scale: Scale, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            scale,
            seconds,
            warmup_s: (seconds * 0.2).min(2.0),
            trace,
            workers: nproc(),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One reported metric with the sample count and statistic behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    pub stat: String,
}

pub fn metric(
    name: &str,
    value: f64,
    unit: &str,
    samples: usize,
    stat: impl Into<String>,
) -> Metric {
    Metric {
        name: name.to_string(),
        // `+ 0.0` turns a negative zero into zero.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit: unit.to_string(),
        samples,
        stat: stat.into(),
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate mismatches (also counted in `failed`).
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
    /// Gate, reconciliation and sizing lines printed before the result.
    pub notes: Vec<String>,
    /// A traced run's spans, written out when the run ends.
    pub trace: Option<Tracer>,
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl Outcome {
    /// Totals the serving gate over the warm-up and measured logs:
    /// mismatches and sheds are failed requests.
    pub fn gate(&mut self, logs: &[&crate::common::ServeLog]) {
        for log in logs {
            self.attempted += log.requests;
            self.mismatches += log.mismatches;
            self.failed += log.mismatches + log.sheds;
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }

    /// The result, printed as the last line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record: settings, and each metric's sample count and the
    /// statistic (percentile) it reports.
    pub fn record_json(&self, workload: &str, cfg: &RunCfg, git_rev: &str) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"stat\": {}}}",
                    json_str(&m.name),
                    m.value,
                    json_str(&m.unit),
                    m.samples,
                    json_str(&m.stat)
                )
            })
            .collect();
        format!(
            "{{\"workload\": {}, \"git_rev\": {}, \"nproc\": {}, \"workers\": {}, \"seed\": {}, \"scale\": {{\"entities\": {}, \"queries\": {}}}, \"seconds\": {}, \"warmup_s\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"mismatches\": {}, \"metrics\": {{{}}}}}",
            json_str(workload),
            json_str(git_rev),
            nproc(),
            cfg.workers,
            cfg.seed,
            cfg.scale.entities,
            cfg.scale.queries,
            cfg.seconds,
            cfg.warmup_s,
            cfg.trace,
            self.attempted,
            self.failed,
            self.mismatches,
            metrics.join(", ")
        )
    }
}

/// The checkout's commit, read from `.git` when the run happens inside
/// a git checkout; "unknown" otherwise.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
