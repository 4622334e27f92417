//! A lightweight metrics registry: counters, gauges and fixed-bucket
//! histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Deterministic snapshots.** Exposition walks names in sorted
//!    order (the store is a `BTreeMap`), and histogram sums accumulate
//!    in fixed-point micro-units, so a snapshot is a pure function of
//!    the *multiset* of recorded observations — independent of the
//!    interleaving in which threads recorded them (property-tested in
//!    `tests/proptest_metrics.rs`).
//! 2. **Cheap.** One mutex around three `BTreeMap`s; recording is a
//!    lookup + integer add. The registry is `Clone` (shared handle), so
//!    the observer, the pipeline and the harness can all feed the same
//!    store.
//! 3. **Two expositions.** [`MetricsSnapshot::to_json`] for the
//!    `results/obs_*.json` artifacts and
//!    [`MetricsSnapshot::to_prometheus`] for scrape-style text.
//!
//! Naming scheme (see DESIGN.md §Observability): lowercase snake-case
//! base names with Prometheus-style `_total` / `_seconds` / `_ms`
//! suffixes; dimensions are encoded as inline labels in the metric key,
//! e.g. `stage_sim_ms{stage="generation"}`.

use crate::json::{fmt_f64, JsonObj};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Builds a labeled metric key: `name{k1="v1",k2="v2"}`.
///
/// Labels become part of the key string, so the registry itself stays
/// label-agnostic; the Prometheus renderer understands the embedded
/// brace syntax when it needs to append its own `le` label.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// Builds the key for a `_window`-suffixed series: `name_window` with a
/// zero-padded `window` label, e.g. `slo_shed_window{window="000003"}`.
///
/// Zero-padding keeps the lexicographic snapshot order equal to the
/// numeric window order, so windowed series render in time order in
/// both expositions without any renderer changes.
pub fn window_series(name: &str, window: u64) -> String {
    format!("{name}_window{{window=\"{window:06}\"}}")
}

/// Builds the key for a per-shard series: `name` with a zero-padded
/// `shard` label, e.g. `cluster_shard_queries_total{shard="003"}`.
///
/// Same trick as [`window_series`]: three-digit padding keeps the
/// lexicographic snapshot order equal to the numeric shard order, so a
/// fleet's series render shard 0 → shard N in both expositions.
pub fn shard_series(name: &str, shard: u64) -> String {
    format!("{name}{{shard=\"{shard:03}\"}}")
}

/// Fixed-bucket histogram state.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    /// Upper bounds of the finite buckets (ascending). An implicit
    /// `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// Per-bucket observation counts; `buckets.len() == bounds.len()+1`.
    buckets: Vec<u64>,
    /// Total observations.
    count: u64,
    /// Sum of observations in micro-units (value × 1e6, rounded).
    /// Integer accumulation keeps the sum independent of recording
    /// order, which f64 addition would not guarantee.
    sum_micro: i128,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Self {
        let buckets = vec![0; bounds.len() + 1];
        Self {
            bounds,
            buckets,
            count: 0,
            sum_micro: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_micro += (value * 1e6).round() as i128;
    }

    fn sum(&self) -> f64 {
        self.sum_micro as f64 / 1e6
    }
}

/// Default latency buckets in milliseconds (simulated LLM calls).
pub const DEFAULT_MS_BUCKETS: [f64; 10] = [
    1.0, 5.0, 25.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Default wall-time buckets in seconds (measured compute stages).
pub const DEFAULT_S_BUCKETS: [f64; 10] = [1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Applies `record` to series `name` of `map`, creating it with
/// `init` on first touch. An existing series is found by `&str`, so
/// recording into it allocates nothing; only a new series builds the
/// owned key.
fn record_into<V>(
    map: &mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
    record: impl FnOnce(&mut V),
) {
    match map.get_mut(name) {
        Some(series) => record(series),
        None => {
            let mut series = init();
            record(&mut series);
            map.insert(name.to_string(), series);
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shared, thread-safe metrics store.
///
/// # Examples
///
/// ```
/// use multirag_obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// reg.inc("llm_calls_total", 1);
/// reg.observe_ms("stage_sim_ms", 42.0);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("llm_calls_total"), 1);
/// assert!(snap.to_prometheus().contains("llm_calls_total 1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<Inner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by `delta`. A `delta` of 0 still
    /// creates the series, so a zero counter is visible in the
    /// exposition (absent vs zero is a real distinction for the chaos
    /// assertions).
    pub fn inc(&self, name: &str, delta: u64) {
        record_into(&mut self.inner.lock().counters, name, || 0, |c| *c += delta);
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        record_into(
            &mut self.inner.lock().gauges,
            name,
            || value,
            |g| *g = value,
        );
    }

    /// Registers histogram `name` with explicit bucket bounds
    /// (ascending). Observing an unregistered histogram lazily creates
    /// it with [`DEFAULT_MS_BUCKETS`].
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        self.inner
            .lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()));
    }

    /// Records one observation into histogram `name` using the
    /// millisecond default buckets when the histogram is new.
    pub fn observe_ms(&self, name: &str, value: f64) {
        self.observe_with(name, value, &DEFAULT_MS_BUCKETS);
    }

    /// Records one observation into histogram `name` using the seconds
    /// default buckets when the histogram is new.
    pub fn observe_s(&self, name: &str, value: f64) {
        self.observe_with(name, value, &DEFAULT_S_BUCKETS);
    }

    /// Records one observation, creating the histogram with `bounds` on
    /// first touch.
    pub fn observe_with(&self, name: &str, value: f64, bounds: &[f64]) {
        record_into(
            &mut self.inner.lock().histograms,
            name,
            || Histogram::new(bounds.to_vec()),
            |h| h.observe(value),
        );
    }

    /// Takes a deterministic point-in-time snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds.clone(),
                            buckets: h.buckets.clone(),
                            count: h.count,
                            sum: h.sum(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Observation counts per bucket (last entry is the `+Inf` bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (micro-unit exact).
    pub sum: f64,
}

/// A frozen, name-sorted view of the registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Reads a counter (0 when the series was never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Sums every counter whose key starts with `prefix` — the way to
    /// total a labeled family like `chaos_abstain_total{reason=...}`.
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    /// Reads a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Reads a histogram snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Deterministic JSON exposition.
    pub fn to_json(&self) -> String {
        let counters = JsonObj::new();
        let counters = self
            .counters
            .iter()
            .fold(counters, |o, (k, v)| o.u64(k, *v));
        let gauges = JsonObj::new();
        let gauges = self.gauges.iter().fold(gauges, |o, (k, v)| o.f64(k, *v));
        let histograms: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| {
                JsonObj::new()
                    .str("name", k)
                    .arr("bounds", h.bounds.iter().map(|&b| fmt_f64(b)))
                    .arr("buckets", h.buckets.iter().map(u64::to_string))
                    .u64("count", h.count)
                    .f64("sum", h.sum)
                    .build()
            })
            .collect();
        JsonObj::new()
            .raw("counters", &counters.build())
            .raw("gauges", &gauges.build())
            .arr("histograms", histograms)
            .build()
    }

    /// Prometheus text exposition (one `# TYPE` line per family, then
    /// the samples; histograms expand to `_bucket`/`_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.counters {
            out.push_str(&format!("# TYPE {} counter\n", base_name(key)));
            out.push_str(&format!("{key} {value}\n"));
        }
        for (key, value) in &self.gauges {
            out.push_str(&format!("# TYPE {} gauge\n", base_name(key)));
            out.push_str(&format!("{key} {}\n", fmt_f64(*value)));
        }
        for (key, h) in &self.histograms {
            out.push_str(&format!("# TYPE {} histogram\n", base_name(key)));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cumulative += n;
                let le = if i < h.bounds.len() {
                    fmt_f64(h.bounds[i])
                } else {
                    "+Inf".to_string()
                };
                out.push_str(&format!(
                    "{} {cumulative}\n",
                    with_label(key, "_bucket", "le", &le)
                ));
            }
            out.push_str(&format!("{} {}\n", suffixed(key, "_sum"), fmt_f64(h.sum)));
            out.push_str(&format!("{} {}\n", suffixed(key, "_count"), h.count));
        }
        out
    }
}

/// Strips an embedded label block from a metric key.
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Appends `suffix` to the base name, preserving an embedded label
/// block: `a{x="1"}` + `_sum` → `a_sum{x="1"}`.
fn suffixed(key: &str, suffix: &str) -> String {
    match key.split_once('{') {
        Some((base, rest)) => format!("{base}{suffix}{{{rest}"),
        None => format!("{key}{suffix}"),
    }
}

/// Appends `suffix` and merges one extra label into the key's label
/// block (creating one when absent).
fn with_label(key: &str, suffix: &str, label: &str, value: &str) -> String {
    match key.split_once('{') {
        Some((base, rest)) => {
            let rest = rest.trim_end_matches('}');
            format!("{base}{suffix}{{{rest},{label}=\"{value}\"}}")
        }
        None => format!("{key}{suffix}{{{label}=\"{value}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let reg = MetricsRegistry::new();
        reg.inc("a_total", 2);
        reg.inc("a_total", 3);
        reg.inc("zeroed_total", 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a_total"), 5);
        assert_eq!(snap.counter("zeroed_total"), 0);
        assert_eq!(snap.counter("missing"), 0);
        // A touched-but-zero counter is materialized in the exposition.
        assert!(snap.to_json().contains("\"zeroed_total\":0"));
    }

    #[test]
    fn counter_family_sums_labels() {
        let reg = MetricsRegistry::new();
        reg.inc(&labeled("abstain_total", &[("reason", "a")]), 2);
        reg.inc(&labeled("abstain_total", &[("reason", "b")]), 3);
        assert_eq!(reg.snapshot().counter_family("abstain_total"), 5);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let reg = MetricsRegistry::new();
        reg.observe_with("h", 0.5, &[1.0, 10.0]);
        reg.observe_with("h", 5.0, &[1.0, 10.0]);
        reg.observe_with("h", 50.0, &[1.0, 10.0]);
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.buckets, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.sum - 55.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.inc("z_total", 1);
        reg.inc("a_total", 1);
        reg.gauge_set("m_gauge", 2.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a_total");
        assert_eq!(snap.counters[1].0, "z_total");
        assert_eq!(snap.to_json(), reg.snapshot().to_json());
    }

    #[test]
    fn prometheus_exposition_shapes() {
        let reg = MetricsRegistry::new();
        reg.inc(&labeled("calls_total", &[("kind", "gen")]), 4);
        reg.gauge_set("quarantined", 2.0);
        reg.observe_with("lat_ms", 3.0, &[1.0, 10.0]);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE calls_total counter"));
        assert!(text.contains("calls_total{kind=\"gen\"} 4"));
        assert!(text.contains("quarantined 2.000000"));
        assert!(text.contains("lat_ms_bucket{le=\"10.000000\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_ms_sum 3.000000"));
        assert!(text.contains("lat_ms_count 1"));
    }

    #[test]
    fn labeled_bucket_merges_label_blocks() {
        assert_eq!(
            with_label("a{x=\"1\"}", "_bucket", "le", "+Inf"),
            "a_bucket{x=\"1\",le=\"+Inf\"}"
        );
        assert_eq!(suffixed("a{x=\"1\"}", "_sum"), "a_sum{x=\"1\"}");
    }

    #[test]
    fn window_series_zero_pads_for_time_order() {
        assert_eq!(
            window_series("slo_shed", 3),
            "slo_shed_window{window=\"000003\"}"
        );
        let reg = MetricsRegistry::new();
        reg.inc(&window_series("slo_shed", 10), 1);
        reg.inc(&window_series("slo_shed", 2), 1);
        let snap = reg.snapshot();
        // Lexicographic snapshot order == numeric window order.
        assert_eq!(snap.counters[0].0, "slo_shed_window{window=\"000002\"}");
        assert_eq!(snap.counters[1].0, "slo_shed_window{window=\"000010\"}");
    }

    #[test]
    fn shard_series_zero_pads_for_shard_order() {
        assert_eq!(
            shard_series("cluster_shard_queries_total", 3),
            "cluster_shard_queries_total{shard=\"003\"}"
        );
        let reg = MetricsRegistry::new();
        reg.inc(&shard_series("cluster_shard_queries_total", 10), 1);
        reg.inc(&shard_series("cluster_shard_queries_total", 2), 1);
        let snap = reg.snapshot();
        // Lexicographic snapshot order == numeric shard order.
        assert_eq!(
            snap.counters[0].0,
            "cluster_shard_queries_total{shard=\"002\"}"
        );
        assert_eq!(
            snap.counters[1].0,
            "cluster_shard_queries_total{shard=\"010\"}"
        );
    }

    #[test]
    fn shared_handles_feed_one_store() {
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        clone.inc("shared_total", 7);
        assert_eq!(reg.snapshot().counter("shared_total"), 7);
    }
}
