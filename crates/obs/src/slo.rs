//! The SLO engine: mergeable log-bucket latency histograms, sim-clock
//! windowed aggregation, multi-window burn-rate alerting, exemplar
//! sampling, and tail-latency attribution.
//!
//! Everything here is **integer-state and deterministic**:
//!
//! * [`LogHistogram`] keeps HDR-style log-bucketed counts in a
//!   `BTreeMap<u16, u64>`; its [`merge`](LogHistogram::merge) is
//!   associative and commutative (element-wise addition), so per-shard
//!   or per-window histograms reduce to the same state in any order —
//!   the property the future shard merge tier relies on. Quantiles
//!   come back with a **provable one-bucket error bound** versus exact
//!   nearest-rank (see [`LogHistogram::quantile_us`]).
//! * [`SloEngine`] buckets every request into a fixed-length window of
//!   the **integer-µs simulator clock** ([`crate::trace`] deliberately
//!   owns no wall clock), so window snapshots are byte-identical for a
//!   fixed seed and invariant to recording order and worker count.
//! * The burn-rate evaluator walks closed windows in order and runs a
//!   Pending → Firing → resolved state machine per alert over **fast +
//!   slow trailing windows** (the classic multi-window multi-burn SRE
//!   rule), emitting deterministic [`AlertTransition`]s.
//! * Tail buckets carry [`Exemplar`] query ids picked by deterministic
//!   query-id-hash sampling (minimum splitmix hash wins), which is
//!   itself order-independent and mergeable.
//! * [`Attribution`] decomposes end-to-end latency into queue wait,
//!   per-stage service and overhead components and answers "which
//!   stage owns the p99".
//!
//! DESIGN.md §5.12 documents the window semantics and the burn-rate
//! math; `repro_slo` is the reproducing harness.

use crate::json::{fmt_f64, JsonObj};
use crate::metrics::{labeled, MetricsRegistry};
use crate::trace::TraceEvent;
use std::collections::BTreeMap;

/// Sub-buckets per power of two in [`LogHistogram`]. 32 sub-buckets
/// give a relative bucket width of at most 1/32 (~3.1%) above the
/// linear range, so the one-bucket quantile bound is a ≤3.1% relative
/// error bound.
pub const SUB_BUCKETS: u64 = 32;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = 5;

/// Maps a microsecond value to its log-bucket index.
///
/// Values below [`SUB_BUCKETS`] get exact singleton buckets; above
/// that, each power of two splits into [`SUB_BUCKETS`] equal
/// sub-buckets. The map is monotone and total over `u64`, and the
/// largest index (for `u64::MAX`) fits comfortably in `u16`.
pub fn bucket_of(value_us: u64) -> u16 {
    if value_us < SUB_BUCKETS {
        return value_us as u16;
    }
    let msb = 63 - value_us.leading_zeros();
    let exp = msb - SUB_BITS;
    let sub = (value_us >> exp) - SUB_BUCKETS;
    (SUB_BUCKETS + u64::from(exp) * SUB_BUCKETS + sub) as u16
}

/// The inclusive `[low, high]` microsecond range of bucket `index` —
/// the inverse of [`bucket_of`].
pub fn bucket_bounds(index: u16) -> (u64, u64) {
    let i = u64::from(index);
    if i < SUB_BUCKETS {
        return (i, i);
    }
    let exp = ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let sub = (i - SUB_BUCKETS) % SUB_BUCKETS;
    let low = (SUB_BUCKETS + sub) << exp;
    let width = 1u64 << exp;
    // `low + (width - 1)` (not `low + width - 1`): the top bucket ends
    // exactly at `u64::MAX`, so the unparenthesized form overflows.
    (low, low + (width - 1))
}

/// A mergeable, integer-state, log-bucketed latency histogram.
///
/// State is a sparse map from bucket index to count plus integer
/// count/sum/max accumulators — a pure function of the recorded
/// *multiset*, never of recording order.
///
/// # Examples
///
/// ```
/// use multirag_obs::slo::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [100u64, 200, 300, 40_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// // Nearest-rank p50 is 200µs; the log-bucket answer lands in the
/// // same bucket (within ~3.1% relative error).
/// let p50 = h.quantile_us(50);
/// assert!((194..=206).contains(&p50), "p50={p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LogHistogram {
    buckets: BTreeMap<u16, u64>,
    count: u64,
    sum_us: u128,
    max_us: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one microsecond observation.
    pub fn record(&mut self, value_us: u64) {
        *self.buckets.entry(bucket_of(value_us)).or_insert(0) += 1;
        self.count += 1;
        self.sum_us += u128::from(value_us);
        self.max_us = self.max_us.max(value_us);
    }

    /// Folds `other` into `self`. Element-wise addition of counts makes
    /// the merge **associative and commutative**: any merge tree over
    /// the same leaf histograms yields an identical state
    /// (property-tested in `tests/proptest_slo.rs`).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact integer sum of all observations (µs).
    pub fn sum_us(&self) -> u128 {
        self.sum_us
    }

    /// Largest recorded value (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Sparse `(bucket, count)` pairs in ascending bucket order.
    pub fn buckets(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.buckets.iter().map(|(&b, &n)| (b, n))
    }

    /// Nearest-rank quantile with a **one-bucket error bound**.
    ///
    /// `percent` is an integer percentile in `[0, 100]`; the rank is
    /// the same pure-integer ceiling as [`nearest_rank`]
    /// (`⌈count·p/100⌉`, clamped to `[1, count]`). The walk finds the
    /// bucket containing the rank-th smallest observation and returns
    /// that bucket's upper bound (clamped to the recorded maximum).
    ///
    /// **Bound:** the exact nearest-rank sample lies in the returned
    /// bucket by construction, so the answer is off by at most one
    /// bucket width — a relative error ≤ `1/SUB_BUCKETS` above the
    /// linear range, and zero below it. Returns 0 when empty.
    pub fn quantile_us(&self, percent: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * percent).div_ceil(100);
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, high) = bucket_bounds(bucket);
                return high.min(self.max_us);
            }
        }
        self.max_us
    }
}

/// Exact nearest-rank percentile over an ascending-sorted sample, in
/// the sample's own unit — the rank [`LogHistogram::quantile_us`]
/// approximates. Pure integer ceiling rank — `⌈n·p/100⌉` clamped to
/// `[1, n]` — so rank selection cannot drift on float rounding.
/// Returns 0 for an empty sample.
pub fn nearest_rank(sorted: &[u64], percent: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * percent).div_ceil(100);
    let idx = (rank.clamp(1, n) - 1) as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// SplitMix64 — the deterministic query-id hash behind exemplar
/// sampling. A fixed public mixing function (not a paper constant), so
/// exemplar choice is stable across platforms and merge orders.
fn query_hash(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One exemplar query pinned to a tail histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// Tail bucket the exemplar belongs to.
    pub bucket: u16,
    /// The sampled query's trace id.
    pub query_id: u64,
    /// The exemplar's end-to-end latency (µs).
    pub latency_us: u64,
}

impl Exemplar {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("bucket", u64::from(self.bucket))
            .u64("query_id", self.query_id)
            .u64("latency_us", self.latency_us)
            .build()
    }
}

/// The declared SLO plus evaluator tuning for one serving surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Window length in simulated microseconds.
    pub window_us: u64,
    /// p99 latency target (µs): a completed request slower than this
    /// breaches the latency SLO.
    pub p99_target_us: u64,
    /// Allowed breach fraction for the latency SLO (0.01 for a p99
    /// target: 1% of requests may exceed it).
    pub latency_budget: f64,
    /// Allowed bad fraction for the availability SLO, fed by
    /// `Overloaded` sheds plus structured abstains.
    pub error_budget: f64,
    /// Trailing windows in the fast burn-rate condition.
    pub fast_windows: usize,
    /// Trailing windows in the slow burn-rate condition.
    pub slow_windows: usize,
    /// Burn rate (consumed budget multiple) that trips an alert; both
    /// the fast and the slow condition must exceed it.
    pub burn_threshold: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            window_us: 1_000_000,
            p99_target_us: 1_000_000,
            latency_budget: 0.01,
            error_budget: 0.05,
            fast_windows: 2,
            slow_windows: 6,
            burn_threshold: 1.5,
        }
    }
}

impl SloSpec {
    /// Sets the window length.
    pub fn with_window_us(mut self, window_us: u64) -> Self {
        self.window_us = window_us.max(1);
        self
    }

    /// Sets the p99 latency target.
    pub fn with_p99_target_us(mut self, target_us: u64) -> Self {
        self.p99_target_us = target_us.max(1);
        self
    }

    /// Sets the availability error budget.
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        self.error_budget = budget.clamp(1e-9, 1.0);
        self
    }
}

/// The two alerts every [`SloSpec`] declares.
pub const ALERT_NAMES: [&str; 2] = ["latency_p99", "error_budget"];

/// Alert evaluator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlertState {
    /// Within budget (also the initial state). A transition *into*
    /// this state is the Resolved event.
    #[default]
    Inactive,
    /// One breaching evaluation: a candidate page.
    Pending,
    /// Two consecutive breaching evaluations: the alert pages.
    Firing,
}

impl AlertState {
    /// Stable snake-case slug.
    pub fn slug(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }

    /// Numeric severity for gauge exposition (0/1/2).
    pub fn level(&self) -> u64 {
        match self {
            AlertState::Inactive => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }
}

/// One deterministic alert state transition, emitted when the
/// evaluator closes window `window`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Which alert moved (see [`ALERT_NAMES`]).
    pub alert: &'static str,
    /// Window index whose evaluation caused the move.
    pub window: u64,
    /// State before.
    pub from: AlertState,
    /// State after. `Inactive` here means *resolved*.
    pub to: AlertState,
    /// Fast-window burn rate at the evaluation.
    pub fast_burn: f64,
    /// Slow-window burn rate at the evaluation.
    pub slow_burn: f64,
}

impl AlertTransition {
    /// The transition's event slug: the target state, with a move back
    /// to `Inactive` rendered as `resolved`.
    pub fn to_slug(&self) -> &'static str {
        match self.to {
            AlertState::Inactive => "resolved",
            other => other.slug(),
        }
    }

    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("alert", self.alert)
            .u64("window", self.window)
            .str("from", self.from.slug())
            .str("to", self.to_slug())
            .f64("fast_burn", self.fast_burn)
            .f64("slow_burn", self.slow_burn)
            .build()
    }

    /// The transition as a trace-stream event.
    pub fn trace_event(&self) -> TraceEvent {
        TraceEvent::SloAlert {
            alert: self.alert.to_string(),
            from: self.from.slug().to_string(),
            to: self.to_slug().to_string(),
            window: self.window,
        }
    }
}

/// Integer tallies for one time window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct WindowStats {
    completed: u64,
    shed: u64,
    abstained: u64,
    escalations: u64,
    cache_hits: u64,
    breaches: u64,
    latency: LogHistogram,
    /// Tail bucket → winning `(hash, query_id, latency)` exemplar.
    exemplars: BTreeMap<u16, (u64, u64, u64)>,
}

/// A frozen, serializable view of one window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window index (`t_us / window_us`).
    pub window: u64,
    /// Window start on the simulator clock (µs).
    pub start_us: u64,
    /// Requests that reached a terminal state in the window.
    pub offered: u64,
    /// Completed requests.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Completed requests that abstained.
    pub abstained: u64,
    /// Escalation-ladder steps charged to the window.
    pub escalations: u64,
    /// Completed requests served from cache.
    pub cache_hits: u64,
    /// Completed requests over the p99 latency target.
    pub breaches: u64,
    /// Windowed log-bucket p50 (µs).
    pub p50_us: u64,
    /// Windowed log-bucket p95 (µs).
    pub p95_us: u64,
    /// Windowed log-bucket p99 (µs).
    pub p99_us: u64,
    /// Exemplars pinned to the window's tail buckets, ascending.
    pub exemplars: Vec<Exemplar>,
}

impl WindowSnapshot {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("window", self.window)
            .u64("start_us", self.start_us)
            .u64("offered", self.offered)
            .u64("completed", self.completed)
            .u64("shed", self.shed)
            .u64("abstained", self.abstained)
            .u64("escalations", self.escalations)
            .u64("cache_hits", self.cache_hits)
            .u64("breaches", self.breaches)
            .u64("p50_us", self.p50_us)
            .u64("p95_us", self.p95_us)
            .u64("p99_us", self.p99_us)
            .arr("exemplars", self.exemplars.iter().map(Exemplar::to_json))
            .build()
    }
}

/// Final evaluator verdict for one alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSummary {
    /// Alert name.
    pub alert: &'static str,
    /// State after the last closed window.
    pub state: AlertState,
    /// Windows whose evaluation breached both burn conditions.
    pub breached_windows: u64,
    /// Whether the alert ever reached [`AlertState::Firing`].
    pub fired: bool,
}

impl AlertSummary {
    /// Canonical JSON.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .str("alert", self.alert)
            .str("state", self.state.slug())
            .u64("breached_windows", self.breached_windows)
            .bool("fired", self.fired)
            .build()
    }
}

/// Everything [`SloEngine::finalize`] derives: dense window snapshots,
/// alert transitions in evaluation order, and final alert summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// Every window from 0 through the last touched one, dense.
    pub windows: Vec<WindowSnapshot>,
    /// Alert transitions in (window, alert) order.
    pub transitions: Vec<AlertTransition>,
    /// One summary per alert, in [`ALERT_NAMES`] order.
    pub alerts: Vec<AlertSummary>,
}

impl SloOutcome {
    /// Whether `alert` ever reached Firing.
    pub fn fired(&self, alert: &str) -> bool {
        self.alerts.iter().any(|a| a.alert == alert && a.fired)
    }

    /// Publishes the outcome into a [`MetricsRegistry`]: one state
    /// gauge and transition counter per alert, plus `_window`-suffixed
    /// series for the per-window aggregates. Snapshot exposition stays
    /// name-sorted, so the export is deterministic.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        for summary in &self.alerts {
            registry.gauge_set(
                &labeled("slo_alert_state", &[("alert", summary.alert)]),
                summary.state.level() as f64,
            );
            let fired = self
                .transitions
                .iter()
                .filter(|t| t.alert == summary.alert)
                .count() as u64;
            registry.inc(
                &labeled("slo_alert_transitions_total", &[("alert", summary.alert)]),
                fired,
            );
        }
        for w in &self.windows {
            for (name, value) in [
                ("slo_offered", w.offered),
                ("slo_shed", w.shed),
                ("slo_abstained", w.abstained),
                ("slo_breaches", w.breaches),
            ] {
                registry.inc(&crate::metrics::window_series(name, w.window), value);
            }
            registry.gauge_set(
                &crate::metrics::window_series("slo_p99_us", w.window),
                w.p99_us as f64,
            );
        }
    }
}

/// One completed request, as the serving layer saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Query trace id (exemplar key).
    pub query_id: u64,
    /// End-to-end latency: queue wait + service (µs).
    pub latency_us: u64,
    /// Whether the answer was a structured abstention.
    pub abstained: bool,
    /// Whether a cache level short-circuited the pipeline.
    pub cache_hit: bool,
    /// Escalation-ladder steps the answer took.
    pub escalations: u64,
}

/// The windowed SLO aggregator + burn-rate alert evaluator.
///
/// Feed it terminal request events stamped with the **simulator
/// clock**; ingestion is commutative (windows are keyed by time), so
/// any arrival order over the same multiset of events finalizes to an
/// identical [`SloOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloEngine {
    spec: SloSpec,
    windows: BTreeMap<u64, WindowStats>,
    overall: LogHistogram,
    tail_bucket: u16,
}

impl SloEngine {
    /// An empty engine for `spec`.
    pub fn new(spec: SloSpec) -> Self {
        Self {
            spec,
            windows: BTreeMap::new(),
            overall: LogHistogram::new(),
            tail_bucket: bucket_of(spec.p99_target_us),
        }
    }

    /// The engine's spec.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// The run-wide (all windows merged) latency histogram.
    pub fn overall(&self) -> &LogHistogram {
        &self.overall
    }

    fn window_mut(&mut self, at_us: u64) -> &mut WindowStats {
        let idx = at_us / self.spec.window_us.max(1);
        self.windows.entry(idx).or_default()
    }

    /// Records one completed request at simulator time `at_us`.
    pub fn record_completion(&mut self, at_us: u64, c: &Completion) {
        let target = self.spec.p99_target_us;
        let tail = self.tail_bucket;
        let w = self.window_mut(at_us);
        w.completed += 1;
        if c.abstained {
            w.abstained += 1;
        }
        if c.cache_hit {
            w.cache_hits += 1;
        }
        w.escalations += c.escalations;
        if c.latency_us > target {
            w.breaches += 1;
        }
        w.latency.record(c.latency_us);
        let bucket = bucket_of(c.latency_us);
        if bucket >= tail {
            // Deterministic hash sampling: the smallest (hash, id) pair
            // wins, so the choice is independent of arrival order and
            // survives histogram merges.
            let candidate = (query_hash(c.query_id), c.query_id, c.latency_us);
            let slot = w.exemplars.entry(bucket).or_insert(candidate);
            if candidate < *slot {
                *slot = candidate;
            }
        }
        self.overall.record(c.latency_us);
    }

    /// Records one request shed at admission at simulator time `at_us`.
    pub fn record_shed(&mut self, at_us: u64) {
        self.window_mut(at_us).shed += 1;
    }

    /// Burn rate over the trailing `k` windows ending at `upto` for an
    /// (accumulated bad, accumulated total, budget) triple.
    fn burn(
        dense: &[(u64, u64)], // per-window (bad, total), dense from window 0
        upto: usize,
        k: usize,
        budget: f64,
    ) -> f64 {
        let lo = (upto + 1).saturating_sub(k.max(1));
        let mut bad = 0u64;
        let mut total = 0u64;
        for (b, t) in dense.iter().take(upto + 1).skip(lo) {
            bad += b;
            total += t;
        }
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / budget.max(1e-9)
    }

    /// Closes the books: dense window snapshots, the alert FSM walked
    /// over every window in order, and final summaries.
    pub fn finalize(&self) -> SloOutcome {
        let last = self.windows.keys().next_back().copied().unwrap_or(0);
        let window_us = self.spec.window_us.max(1);
        let empty = WindowStats::default();
        let mut windows = Vec::with_capacity(last as usize + 1);
        let mut latency_series: Vec<(u64, u64)> = Vec::with_capacity(last as usize + 1);
        let mut error_series: Vec<(u64, u64)> = Vec::with_capacity(last as usize + 1);
        for idx in 0..=last {
            let w = self.windows.get(&idx).unwrap_or(&empty);
            let offered = w.completed + w.shed;
            latency_series.push((w.breaches, w.completed));
            error_series.push((w.shed + w.abstained, offered));
            windows.push(WindowSnapshot {
                window: idx,
                start_us: idx * window_us,
                offered,
                completed: w.completed,
                shed: w.shed,
                abstained: w.abstained,
                escalations: w.escalations,
                cache_hits: w.cache_hits,
                breaches: w.breaches,
                p50_us: w.latency.quantile_us(50),
                p95_us: w.latency.quantile_us(95),
                p99_us: w.latency.quantile_us(99),
                exemplars: w
                    .exemplars
                    .iter()
                    .map(|(&bucket, &(_, query_id, latency_us))| Exemplar {
                        bucket,
                        query_id,
                        latency_us,
                    })
                    .collect(),
            });
        }

        let mut transitions = Vec::new();
        let mut alerts = Vec::new();
        for (alert, series, budget) in [
            ("latency_p99", &latency_series, self.spec.latency_budget),
            ("error_budget", &error_series, self.spec.error_budget),
        ] {
            let mut state = AlertState::Inactive;
            let mut breached_windows = 0u64;
            let mut fired = false;
            for upto in 0..series.len() {
                let fast = Self::burn(series, upto, self.spec.fast_windows, budget);
                let slow = Self::burn(series, upto, self.spec.slow_windows, budget);
                let breach = fast >= self.spec.burn_threshold && slow >= self.spec.burn_threshold;
                if breach {
                    breached_windows += 1;
                }
                let next = match (state, breach) {
                    (AlertState::Inactive, true) => AlertState::Pending,
                    (AlertState::Pending, true) => AlertState::Firing,
                    (AlertState::Firing, true) => AlertState::Firing,
                    (_, false) => AlertState::Inactive,
                };
                if next != state {
                    transitions.push(AlertTransition {
                        alert,
                        window: upto as u64,
                        from: state,
                        to: next,
                        fast_burn: fast,
                        slow_burn: slow,
                    });
                    if next == AlertState::Firing {
                        fired = true;
                    }
                    state = next;
                }
            }
            alerts.push(AlertSummary {
                alert,
                state,
                breached_windows,
                fired,
            });
        }
        // (window, alert-name) order keeps interleaved alert streams
        // deterministic and readable.
        transitions.sort_by(|a, b| (a.window, a.alert).cmp(&(b.window, b.alert)));
        SloOutcome {
            windows,
            transitions,
            alerts,
        }
    }
}

/// Per-request latency decomposition: component name → microseconds.
///
/// Components are the queue-wait pseudo-stage, the pipeline stage
/// names from [`crate::trace::Stage`], the serve overhead, and the
/// cache fast path. Totals are exact integers, so a table of parts
/// sums to the measured latency with no float drift.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyParts {
    components: BTreeMap<&'static str, u64>,
}

/// Component name for time spent waiting in the admission queue.
pub const COMPONENT_QUEUE_WAIT: &str = "queue_wait";
/// Component name for fixed per-request serve overhead.
pub const COMPONENT_OVERHEAD: &str = "overhead";
/// Component name for the L1 cache fast path.
pub const COMPONENT_CACHE: &str = "l1_cache";

impl LatencyParts {
    /// An empty decomposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `us` microseconds to `component`.
    pub fn add(&mut self, component: &'static str, us: u64) {
        if us > 0 {
            *self.components.entry(component).or_insert(0) += us;
        }
    }

    /// Total microseconds across components.
    pub fn total_us(&self) -> u64 {
        self.components.values().sum()
    }

    /// `(component, µs)` pairs in component-name order.
    pub fn components(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.components.iter().map(|(&c, &us)| (c, us))
    }
}

/// One row of the attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributionRow {
    /// Component name.
    pub component: &'static str,
    /// Microseconds attributed across all completed requests.
    pub total_us: u64,
    /// Microseconds attributed across tail (≥ p99) requests only.
    pub tail_us: u64,
}

impl AttributionRow {
    /// Canonical JSON, with the tail share as a fixed-precision float.
    pub fn to_json(&self, tail_total_us: u64) -> String {
        let share = if tail_total_us > 0 {
            self.tail_us as f64 / tail_total_us as f64
        } else {
            0.0
        };
        JsonObj::new()
            .str("component", self.component)
            .u64("total_us", self.total_us)
            .u64("tail_us", self.tail_us)
            .raw("tail_share", &fmt_f64(share))
            .build()
    }
}

/// Accumulates [`LatencyParts`] into a "which stage owns the p99"
/// table: per-component totals over all requests and over the tail.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attribution {
    totals: BTreeMap<&'static str, (u64, u64)>,
    requests: u64,
    tail_requests: u64,
}

impl Attribution {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one request's parts in; `tail` marks requests at or above
    /// the tail cut (latency ≥ exact p99).
    pub fn add(&mut self, parts: &LatencyParts, tail: bool) {
        self.requests += 1;
        if tail {
            self.tail_requests += 1;
        }
        for (component, us) in parts.components() {
            let slot = self.totals.entry(component).or_insert((0, 0));
            slot.0 += us;
            if tail {
                slot.1 += us;
            }
        }
    }

    /// Requests folded in.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Tail requests folded in.
    pub fn tail_requests(&self) -> u64 {
        self.tail_requests
    }

    /// Grand total microseconds (equals the sum of measured latencies
    /// when every request's parts were complete).
    pub fn total_us(&self) -> u64 {
        self.totals.values().map(|&(all, _)| all).sum()
    }

    /// Tail-only total microseconds.
    pub fn tail_total_us(&self) -> u64 {
        self.totals.values().map(|&(_, tail)| tail).sum()
    }

    /// Rows in component-name order.
    pub fn rows(&self) -> Vec<AttributionRow> {
        self.totals
            .iter()
            .map(|(&component, &(total_us, tail_us))| AttributionRow {
                component,
                total_us,
                tail_us,
            })
            .collect()
    }

    /// The component owning the largest share of tail time — "which
    /// stage owns the p99". Ties break toward the lexicographically
    /// first name; `None` when nothing was recorded.
    pub fn owner(&self) -> Option<&'static str> {
        self.totals
            .iter()
            .max_by(|(a_name, (_, a_tail)), (b_name, (_, b_tail))| {
                a_tail.cmp(b_tail).then(b_name.cmp(a_name))
            })
            .map(|(&name, _)| name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_map_is_monotone_and_invertible() {
        let mut prev = 0u16;
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1_000, 65_535, 1 << 40] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotone at {v}");
            let (low, high) = bucket_bounds(b);
            assert!(
                (low..=high).contains(&v),
                "{v} outside its own bucket [{low}, {high}]"
            );
            prev = b;
        }
        // Below the linear range every bucket is a singleton.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_bounds(bucket_of(v)), (v, v));
        }
        // u64::MAX still maps without overflow.
        let top = bucket_of(u64::MAX);
        assert!(bucket_bounds(top).1 >= u64::MAX - (u64::MAX >> SUB_BITS));
    }

    #[test]
    fn bucket_widths_bound_relative_error() {
        for v in [40u64, 1_000, 123_456, 9_999_999] {
            let (low, high) = bucket_bounds(bucket_of(v));
            let width = high - low + 1;
            assert!(
                width as f64 / low as f64 <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "relative width too coarse at {v}: {width}/{low}"
            );
        }
    }

    #[test]
    fn quantiles_track_nearest_rank_within_one_bucket() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<u64> = (0..500).map(|i| (i * i) % 90_000 + 1).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for percent in [50u64, 95, 99] {
            let exact = nearest_rank(&samples, percent);
            let approx = h.quantile_us(percent);
            let diff = i32::from(bucket_of(approx)).abs_diff(i32::from(bucket_of(exact)));
            assert!(
                diff <= 1,
                "p{percent}: approx {approx} vs exact {exact} ({diff} buckets apart)"
            );
        }
    }

    #[test]
    fn nearest_rank_matches_hand_computation() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 50), 20);
        assert_eq!(nearest_rank(&sorted, 95), 40);
        assert_eq!(nearest_rank(&sorted, 100), 40);
        assert_eq!(nearest_rank(&sorted, 0), 10);
        assert_eq!(nearest_rank(&[], 50), 0);
        // Integer ceiling rank: 101 samples, p99 → rank ⌈101·99/100⌉ = 100.
        let big: Vec<u64> = (1..=101).collect();
        assert_eq!(nearest_rank(&big, 99), 100);
    }

    #[test]
    fn merge_is_commutative_and_matches_single_pass() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for v in [5u64, 70, 900, 12_345] {
            a.record(v);
            whole.record(v);
        }
        for v in [6u64, 70, 44_000] {
            b.record(v);
            whole.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        assert_eq!(ab.count(), 7);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile_us(99), 0);
        assert_eq!(h.count(), 0);
        let mut m = LogHistogram::new();
        m.merge(&h);
        assert_eq!(m, LogHistogram::new());
    }

    fn completion(id: u64, latency_us: u64) -> Completion {
        Completion {
            query_id: id,
            latency_us,
            abstained: false,
            cache_hit: false,
            escalations: 0,
        }
    }

    #[test]
    fn windows_bucket_by_sim_clock_and_stay_dense() {
        let spec = SloSpec::default().with_window_us(1_000);
        let mut engine = SloEngine::new(spec);
        engine.record_completion(100, &completion(1, 10));
        engine.record_completion(3_500, &completion(2, 20));
        engine.record_shed(3_600);
        let out = engine.finalize();
        assert_eq!(out.windows.len(), 4, "windows 0..=3 must be dense");
        assert_eq!(out.windows[0].completed, 1);
        assert_eq!(out.windows[1].offered, 0);
        assert_eq!(out.windows[3].completed, 1);
        assert_eq!(out.windows[3].shed, 1);
        assert_eq!(out.windows[3].offered, 2);
    }

    #[test]
    fn ingestion_is_order_independent() {
        let spec = SloSpec::default().with_window_us(500);
        let events: Vec<(u64, Completion)> = (0..40)
            .map(|i| (i * 137 % 5_000, completion(i, (i * 97) % 3_000 + 1)))
            .collect();
        let mut forward = SloEngine::new(spec);
        for (t, c) in &events {
            forward.record_completion(*t, c);
        }
        let mut backward = SloEngine::new(spec);
        for (t, c) in events.iter().rev() {
            backward.record_completion(*t, c);
        }
        let fa = forward.finalize();
        let fb = backward.finalize();
        assert_eq!(fa, fb);
        let ja: Vec<String> = fa.windows.iter().map(WindowSnapshot::to_json).collect();
        let jb: Vec<String> = fb.windows.iter().map(WindowSnapshot::to_json).collect();
        assert_eq!(ja, jb);
    }

    #[test]
    fn sustained_breach_walks_pending_then_firing_then_resolves() {
        let spec = SloSpec {
            window_us: 1_000,
            p99_target_us: 100,
            latency_budget: 0.01,
            error_budget: 0.05,
            fast_windows: 1,
            slow_windows: 2,
            burn_threshold: 1.5,
        };
        let mut engine = SloEngine::new(spec);
        // Three windows of 100% breaches, then three clean windows.
        for w in 0..3u64 {
            for i in 0..10u64 {
                engine.record_completion(w * 1_000 + i, &completion(w * 10 + i, 5_000));
            }
        }
        for w in 3..6u64 {
            for i in 0..10u64 {
                engine.record_completion(w * 1_000 + i, &completion(w * 10 + i, 10));
            }
        }
        let out = engine.finalize();
        let lat: Vec<&AlertTransition> = out
            .transitions
            .iter()
            .filter(|t| t.alert == "latency_p99")
            .collect();
        let walk: Vec<(&str, &str)> = lat.iter().map(|t| (t.from.slug(), t.to_slug())).collect();
        assert_eq!(
            walk,
            vec![
                ("inactive", "pending"),
                ("pending", "firing"),
                ("firing", "resolved"),
            ],
            "got {walk:?}"
        );
        assert!(out.fired("latency_p99"));
        assert!(!out.fired("error_budget"));
    }

    #[test]
    fn sheds_and_abstains_feed_the_error_budget_alert() {
        let spec = SloSpec {
            window_us: 1_000,
            p99_target_us: 1_000_000,
            latency_budget: 0.01,
            error_budget: 0.05,
            fast_windows: 1,
            slow_windows: 2,
            burn_threshold: 1.5,
        };
        let mut engine = SloEngine::new(spec);
        for w in 0..3u64 {
            for i in 0..6u64 {
                engine.record_completion(w * 1_000 + i, &completion(w * 10 + i, 50));
            }
            for i in 0..4u64 {
                engine.record_shed(w * 1_000 + 500 + i);
            }
        }
        let out = engine.finalize();
        assert!(out.fired("error_budget"), "40% sheds must trip the alert");
        assert!(!out.fired("latency_p99"));
    }

    #[test]
    fn exemplars_pick_the_minimum_hash_deterministically() {
        let spec = SloSpec::default()
            .with_window_us(1_000)
            .with_p99_target_us(100);
        let mut a = SloEngine::new(spec);
        let mut b = SloEngine::new(spec);
        let ids = [7u64, 13, 21, 99];
        for &id in &ids {
            a.record_completion(10, &completion(id, 150));
        }
        for &id in ids.iter().rev() {
            b.record_completion(10, &completion(id, 150));
        }
        let (wa, wb) = (a.finalize(), b.finalize());
        assert_eq!(wa.windows[0].exemplars, wb.windows[0].exemplars);
        assert_eq!(wa.windows[0].exemplars.len(), 1);
        let winner = wa.windows[0].exemplars[0].query_id;
        let expected = ids
            .iter()
            .min_by_key(|&&id| (query_hash(id), id))
            .copied()
            .unwrap();
        assert_eq!(winner, expected);
    }

    #[test]
    fn fast_latencies_leave_tail_buckets_empty() {
        let spec = SloSpec::default()
            .with_window_us(1_000)
            .with_p99_target_us(10_000);
        let mut engine = SloEngine::new(spec);
        engine.record_completion(5, &completion(1, 50));
        let out = engine.finalize();
        assert!(out.windows[0].exemplars.is_empty());
    }

    #[test]
    fn export_metrics_surfaces_alerts_and_windows() {
        let spec = SloSpec::default().with_window_us(1_000);
        let mut engine = SloEngine::new(spec);
        engine.record_completion(10, &completion(1, 500));
        engine.record_shed(20);
        let out = engine.finalize();
        let reg = MetricsRegistry::new();
        out.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauge("slo_alert_state{alert=\"latency_p99\"}"),
            Some(0.0)
        );
        assert_eq!(
            snap.counter("slo_offered_window{window=\"000000\"}"),
            2,
            "window series must carry the _window suffix"
        );
        let text = snap.to_prometheus();
        assert!(text.contains("slo_alert_state{alert=\"error_budget\"}"));
        assert!(text.contains("slo_shed_window{window=\"000000\"} 1"));
    }

    #[test]
    fn attribution_rows_sum_exactly_and_name_the_owner() {
        let mut table = Attribution::new();
        let mut fast = LatencyParts::new();
        fast.add(COMPONENT_QUEUE_WAIT, 10);
        fast.add("generation", 90);
        fast.add(COMPONENT_OVERHEAD, 200);
        let mut slow = LatencyParts::new();
        slow.add(COMPONENT_QUEUE_WAIT, 5_000);
        slow.add("generation", 700);
        slow.add(COMPONENT_OVERHEAD, 200);
        table.add(&fast, false);
        table.add(&slow, true);
        assert_eq!(table.total_us(), fast.total_us() + slow.total_us());
        assert_eq!(table.tail_total_us(), slow.total_us());
        assert_eq!(table.owner(), Some(COMPONENT_QUEUE_WAIT));
        let rows = table.rows();
        let sum: u64 = rows.iter().map(|r| r.total_us).sum();
        assert_eq!(sum, table.total_us());
        // JSON shares are fixed-precision and bounded.
        for row in &rows {
            let json = row.to_json(table.tail_total_us());
            assert!(json.contains("\"tail_share\":0."));
        }
    }

    #[test]
    fn attribution_owner_breaks_ties_lexicographically() {
        let mut table = Attribution::new();
        let mut parts = LatencyParts::new();
        parts.add("b_stage", 100);
        parts.add("a_stage", 100);
        table.add(&parts, true);
        assert_eq!(table.owner(), Some("a_stage"));
    }
}
