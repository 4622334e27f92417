//! The seeded fault plan: a pure, replayable schedule of failures.

use crate::corrupt::CorruptionKind;
use crate::{bernoulli, draw, unit};

/// What kind of fault a probe can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The whole source is unreachable for this run.
    SourceOutage,
    /// A record's payload is damaged (bit flips or truncation).
    RecordCorruption,
    /// A simulated LLM call fails outright.
    LlmFailure,
    /// A simulated LLM call succeeds but takes a latency hit.
    LlmLatencySpike,
    /// A support-grader call fails, degrading the answer loop to its
    /// single-pass verdict.
    GraderFailure,
    /// A whole serving node is unreachable for one outage window.
    NodeOutage,
}

/// Outcome of probing the plan at one injection point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultDecision {
    /// Proceed normally.
    Healthy,
    /// Inject the given fault.
    Inject(FaultKind),
}

/// A deterministic, seeded schedule of faults.
///
/// All rates are probabilities in `[0, 1]`. The plan holds no mutable
/// state: every query is answered by hashing `(seed, kind, key)`, so
/// probes are order-independent and replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every draw this plan makes.
    pub seed: u64,
    /// Probability that a given source is down for the whole run.
    pub outage_rate: f64,
    /// Probability that a given record arrives corrupted.
    pub corruption_rate: f64,
    /// Probability that a given LLM call fails.
    pub llm_failure_rate: f64,
    /// Probability that a given LLM call takes a latency spike.
    pub llm_latency_spike_rate: f64,
    /// Probability that a support-grader call fails (a separate key
    /// family from generation so chaos sweeps can kill graders without
    /// touching generators, and vice versa).
    pub grader_failure_rate: f64,
    /// Probability that a given serving node is down for a given
    /// outage window (`(node, window)` pairs re-roll independently, so
    /// outages are transient, not permanent).
    pub node_outage_rate: f64,
}

impl FaultPlan {
    /// A plan that never injects anything.
    pub fn healthy(seed: u64) -> Self {
        Self {
            seed,
            outage_rate: 0.0,
            corruption_rate: 0.0,
            llm_failure_rate: 0.0,
            llm_latency_spike_rate: 0.0,
            grader_failure_rate: 0.0,
            node_outage_rate: 0.0,
        }
    }

    /// A plan applying `rate` uniformly to every fault channel — the
    /// single-knob sweep the chaos harness uses. LLM latency spikes run
    /// at twice the base rate since they are recoverable.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            seed,
            outage_rate: rate,
            corruption_rate: rate,
            llm_failure_rate: rate,
            llm_latency_spike_rate: (2.0 * rate).min(1.0),
            grader_failure_rate: rate,
            node_outage_rate: rate,
        }
    }

    /// A query-time-only brownout: LLM failures, latency spikes (at
    /// twice the base rate, like [`FaultPlan::uniform`]) and source
    /// outages fire, while the ingest-time corruption channel and the
    /// grader stay healthy. This is the serving-SLO fault leg: the
    /// knowledge base is intact, but answering it is degraded —
    /// abstains and latency spikes burn the error budget without
    /// perturbing what was indexed.
    pub fn brownout(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            seed,
            outage_rate: rate,
            corruption_rate: 0.0,
            llm_failure_rate: rate,
            llm_latency_spike_rate: (2.0 * rate).min(1.0),
            grader_failure_rate: 0.0,
            node_outage_rate: 0.0,
        }
    }

    /// A cluster-only plan: serving nodes drop out for whole outage
    /// windows while every record-, source-, and LLM-level channel
    /// stays healthy. This is the failover leg for sharded serving —
    /// the knowledge base and the model are fine, but the node owning
    /// a slot may be gone and the router must take a replica instead.
    pub fn node_outages(seed: u64, rate: f64) -> Self {
        Self {
            node_outage_rate: rate.clamp(0.0, 1.0),
            ..Self::healthy(seed)
        }
    }

    /// Is `source` down for this entire run?
    pub fn source_down(&self, source: &str) -> bool {
        bernoulli(self.seed, &format!("outage:{source}"), self.outage_rate)
    }

    /// Probes record-level corruption for `record_key` within `source`.
    /// Returns the concrete corruption to apply, if any.
    pub fn record_corruption(&self, source: &str, record_key: &str) -> Option<CorruptionKind> {
        let key = format!("corrupt:{source}:{record_key}");
        if !bernoulli(self.seed, &key, self.corruption_rate) {
            return None;
        }
        // Split the surviving draw space between damage modes.
        let pick = draw(self.seed, &format!("{key}:mode"));
        Some(if pick & 1 == 0 {
            CorruptionKind::BitFlip
        } else {
            CorruptionKind::Truncation
        })
    }

    /// Probes one simulated LLM call attempt. `call_key` identifies the
    /// logical call; `attempt` distinguishes retries so a retried call
    /// re-rolls rather than failing forever.
    pub fn llm_call(&self, call_key: &str, attempt: u32) -> FaultDecision {
        let key = format!("llm:{call_key}:a{attempt}");
        if bernoulli(self.seed, &format!("{key}:fail"), self.llm_failure_rate) {
            return FaultDecision::Inject(FaultKind::LlmFailure);
        }
        if bernoulli(
            self.seed,
            &format!("{key}:spike"),
            self.llm_latency_spike_rate,
        ) {
            return FaultDecision::Inject(FaultKind::LlmLatencySpike);
        }
        FaultDecision::Healthy
    }

    /// Probes one support-grader call attempt. Grader faults live in
    /// their own `grader:` key family so a dead grader and a dead
    /// generator are independent events even for the same query.
    pub fn grader_call(&self, call_key: &str, attempt: u32) -> FaultDecision {
        let key = format!("grader:{call_key}:a{attempt}");
        if bernoulli(self.seed, &format!("{key}:fail"), self.grader_failure_rate) {
            return FaultDecision::Inject(FaultKind::GraderFailure);
        }
        FaultDecision::Healthy
    }

    /// Is serving node `node` down for outage window `window`? Each
    /// `(node, window)` pair rolls independently, so a node that is
    /// down in one window can be back in the next — outages are
    /// transient windows, not run-long deaths like
    /// [`FaultPlan::source_down`].
    pub fn node_outage(&self, node: u32, window: u64) -> bool {
        bernoulli(
            self.seed,
            &format!("node:{node}:w{window}"),
            self.node_outage_rate,
        )
    }

    /// Latency multiplier for a spiking call, in `[4, 16)`. Keyed like
    /// [`FaultPlan::llm_call`] so the spike size is replayable.
    pub fn latency_spike_factor(&self, call_key: &str, attempt: u32) -> f64 {
        4.0 + 12.0 * unit(self.seed, &format!("llm:{call_key}:a{attempt}:mag"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plan_never_fires() {
        let plan = FaultPlan::healthy(3);
        for i in 0..200 {
            let src = format!("s{i}");
            assert!(!plan.source_down(&src));
            assert!(plan.record_corruption(&src, "r").is_none());
            assert_eq!(plan.llm_call(&src, 0), FaultDecision::Healthy);
        }
    }

    #[test]
    fn decisions_are_replayable() {
        let plan = FaultPlan::uniform(11, 0.3);
        let again = FaultPlan::uniform(11, 0.3);
        for i in 0..100 {
            let src = format!("s{i}");
            assert_eq!(plan.source_down(&src), again.source_down(&src));
            assert_eq!(
                plan.record_corruption(&src, "rec"),
                again.record_corruption(&src, "rec")
            );
            assert_eq!(plan.llm_call(&src, 2), again.llm_call(&src, 2));
        }
    }

    #[test]
    fn different_seeds_schedule_different_outages() {
        let a = FaultPlan::uniform(1, 0.5);
        let b = FaultPlan::uniform(2, 0.5);
        let differs = (0..64).any(|i| {
            let src = format!("s{i}");
            a.source_down(&src) != b.source_down(&src)
        });
        assert!(differs);
    }

    #[test]
    fn rates_track_probability() {
        let plan = FaultPlan::uniform(5, 0.25);
        let downs = (0..4000)
            .filter(|i| plan.source_down(&format!("s{i}")))
            .count();
        assert!((800..1200).contains(&downs), "downs={downs}");
    }

    #[test]
    fn retries_reroll_llm_failures() {
        let plan = FaultPlan {
            llm_latency_spike_rate: 0.0,
            ..FaultPlan::uniform(13, 0.5)
        };
        // With per-attempt rerolls, some call that fails at attempt 0
        // must succeed at a later attempt.
        let recovered = (0..64).any(|i| {
            let key = format!("call{i}");
            plan.llm_call(&key, 0) == FaultDecision::Inject(FaultKind::LlmFailure)
                && plan.llm_call(&key, 1) == FaultDecision::Healthy
        });
        assert!(recovered);
    }

    #[test]
    fn grader_faults_are_independent_of_generator_faults() {
        let plan = FaultPlan::uniform(29, 0.5);
        // Same call key, same attempt: the two channels draw from
        // different key families, so their verdicts must diverge for
        // some key at a 50% rate.
        let diverges = (0..64).any(|i| {
            let key = format!("q{i}");
            let gen_failed = plan.llm_call(&key, 0) == FaultDecision::Inject(FaultKind::LlmFailure);
            let grade_failed =
                plan.grader_call(&key, 0) == FaultDecision::Inject(FaultKind::GraderFailure);
            gen_failed != grade_failed
        });
        assert!(diverges);
        assert_eq!(plan.grader_call("q0", 1), plan.grader_call("q0", 1));
    }

    #[test]
    fn healthy_plan_never_fails_graders() {
        let plan = FaultPlan::healthy(3);
        for i in 0..200 {
            assert_eq!(
                plan.grader_call(&format!("g{i}"), 0),
                FaultDecision::Healthy
            );
        }
    }

    #[test]
    fn spike_factor_is_bounded_and_stable() {
        let plan = FaultPlan::uniform(17, 0.2);
        for i in 0..100 {
            let key = format!("c{i}");
            let f = plan.latency_spike_factor(&key, 0);
            assert!((4.0..16.0).contains(&f));
            assert_eq!(f, plan.latency_spike_factor(&key, 0));
        }
    }

    #[test]
    fn brownout_spares_ingest_and_grader_channels() {
        let plan = FaultPlan::brownout(31, 0.3);
        assert_eq!(plan.corruption_rate, 0.0);
        assert_eq!(plan.grader_failure_rate, 0.0);
        assert_eq!(plan.llm_failure_rate, 0.3);
        assert_eq!(plan.llm_latency_spike_rate, 0.6);
        for i in 0..200 {
            let src = format!("s{i}");
            assert!(plan.record_corruption(&src, "r").is_none());
            assert_eq!(plan.grader_call(&src, 0), FaultDecision::Healthy);
        }
        // Query-time channels do fire at these rates.
        let fails = (0..400)
            .filter(|i| plan.llm_call(&format!("c{i}"), 0) != FaultDecision::Healthy)
            .count();
        assert!(fails > 100, "brownout must degrade LLM calls: {fails}");
        assert_eq!(plan, FaultPlan::brownout(31, 0.3));
    }

    #[test]
    fn node_outages_are_windowed_and_replayable() {
        let plan = FaultPlan::node_outages(41, 0.3);
        // Every other channel stays quiet.
        for i in 0..100 {
            let src = format!("s{i}");
            assert!(!plan.source_down(&src));
            assert_eq!(plan.llm_call(&src, 0), FaultDecision::Healthy);
        }
        // Outages fire roughly at the configured rate and replay.
        let again = FaultPlan::node_outages(41, 0.3);
        let mut fired = 0usize;
        for node in 0..8u32 {
            for window in 0..500u64 {
                let down = plan.node_outage(node, window);
                assert_eq!(down, again.node_outage(node, window));
                fired += usize::from(down);
            }
        }
        let total = 8 * 500;
        assert!(
            (total * 2 / 10..total * 4 / 10).contains(&fired),
            "fired={fired}"
        );
        // A node that is down in some window recovers in another.
        let recovers = (0..200u64).any(|w| plan.node_outage(0, w) && !plan.node_outage(0, w + 1));
        assert!(recovers);
    }

    #[test]
    fn healthy_plan_never_drops_nodes() {
        let plan = FaultPlan::healthy(7);
        for node in 0..16u32 {
            for window in 0..64u64 {
                assert!(!plan.node_outage(node, window));
            }
        }
    }
}
