//! Closed-loop grounded generation: the escalation controller.
//!
//! After generation the pipeline *grades* the drafted answer against
//! the kept subgraph context — claim-by-claim containment over interned
//! canonical keys ([`grade_supported`]), never string scans — and on a
//! failing grade walks an explicit escalation ladder under a
//! deadline-bounded budget:
//!
//! 1. **widen** — rescue claims MCC dropped from the slot (they are
//!    re-assessed leniently and folded back into the context),
//! 2. **consult** — fuse the configured reserve sources
//!    ([`MklgpPipeline::with_reserve_sources`]) and fold agreeing
//!    claims into the support profile,
//! 3. **tighten** — regenerate against the faithful set alone, with
//!    distractors stripped and the conflict profile collapsed,
//! 4. abstain with a structured
//!    [`AbstainReason::EscalationExhausted`] verdict.
//!
//! Every escalation attempt charges simulated time through the llmsim
//! usage meter, so the cost of the loop shows up in the serving
//! simulator's latency percentiles. Graders themselves can die (the
//! fault plan's `grader:` channel): a dead grader degrades the loop to
//! its single-pass verdict — never a panic, never an unbounded loop.
//!
//! [`MklgpPipeline::with_reserve_sources`]: crate::pipeline::MklgpPipeline::with_reserve_sources
//! [`AbstainReason::EscalationExhausted`]: crate::pipeline::AbstainReason::EscalationExhausted

use multirag_faults::ms_to_us;
use multirag_kg::{KeyInterner, Symbol, Value};

/// Budget for the grade → escalate → regenerate loop.
///
/// `max_attempts == 0` disables the loop entirely: no grading call is
/// made and the pipeline is bit-identical to its single-pass form —
/// that is the baseline row of the `repro_loop` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopConfig {
    /// Maximum escalation attempts after the initial draft.
    pub max_attempts: u32,
    /// Simulated-time budget for the whole loop, in integer
    /// microseconds (the workspace time convention). Grading and
    /// regeneration charge the LLM meter; once the metered loop time
    /// crosses this deadline the controller abstains instead of
    /// escalating further.
    pub deadline_us: u64,
}

impl Default for LoopConfig {
    fn default() -> Self {
        Self {
            max_attempts: 2,
            deadline_us: ms_to_us(5_000.0),
        }
    }
}

impl LoopConfig {
    /// Sets the attempt budget.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the deadline budget from simulated milliseconds, quantized
    /// to the integer-µs convention via [`ms_to_us`].
    pub fn with_deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_us = ms_to_us(deadline_ms);
        self
    }

    /// Whether the loop runs at all.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }
}

/// One rung of the escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderStep {
    /// Rescue dropped slot claims back into the context.
    Widen,
    /// Consult the reserve sources and fold in agreeing claims.
    Consult,
    /// Strip distractors and regenerate from the faithful set alone.
    Tighten,
}

impl LadderStep {
    /// The rung taken on escalation attempt `attempt` (1-based).
    /// Attempts beyond the ladder keep tightening — the cheapest,
    /// lowest-risk rung.
    pub fn for_attempt(attempt: u32) -> Self {
        match attempt {
            0 | 1 => LadderStep::Widen,
            2 => LadderStep::Consult,
            _ => LadderStep::Tighten,
        }
    }

    /// Stable snake-case identifier (metrics label / trace field).
    pub fn slug(&self) -> &'static str {
        match self {
            LadderStep::Widen => "widen",
            LadderStep::Consult => "consult",
            LadderStep::Tighten => "tighten",
        }
    }
}

impl std::fmt::Display for LadderStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// Support check: does the drafted answer assert exactly the claims the
/// trusted context supports?
///
/// Both sides are resolved to interned canonical-key [`Symbol`]s and
/// compared as sets — symbol equality *is* canonical-key equality, so
/// the grade never builds or scans a key string per comparison. Set
/// equality (not mere containment) is what catches every corruption the
/// hallucination model can apply: a swap changes a member, a drop
/// shrinks the set, a fabrication grows it.
pub fn grade_supported(draft: &[Value], faithful: &[Value], keys: &mut KeyInterner) -> bool {
    if draft.len() != faithful.len() {
        return false;
    }
    let mut drafted: Vec<Symbol> = draft.iter().map(|v| keys.key_of(v)).collect();
    let mut context: Vec<Symbol> = faithful.iter().map(|v| keys.key_of(v)).collect();
    drafted.sort_unstable();
    drafted.dedup();
    context.sort_unstable();
    context.dedup();
    drafted == context
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[&str]) -> Vec<Value> {
        xs.iter().map(|s| Value::Str((*s).to_string())).collect()
    }

    #[test]
    fn default_budget_is_on_and_bounded() {
        let cfg = LoopConfig::default();
        assert!(cfg.enabled());
        assert_eq!(cfg.deadline_us, 5_000_000);
        assert!(!cfg.with_max_attempts(0).enabled());
    }

    #[test]
    fn deadline_builders_agree_on_the_us_convention() {
        let cfg = LoopConfig::default().with_deadline_ms(12.5);
        assert_eq!(cfg.deadline_us, 12_500);
    }

    #[test]
    fn ladder_widens_then_consults_then_tightens_forever() {
        assert_eq!(LadderStep::for_attempt(1), LadderStep::Widen);
        assert_eq!(LadderStep::for_attempt(2), LadderStep::Consult);
        assert_eq!(LadderStep::for_attempt(3), LadderStep::Tighten);
        assert_eq!(LadderStep::for_attempt(9), LadderStep::Tighten);
        assert_eq!(LadderStep::for_attempt(1).slug(), "widen");
        assert_eq!(LadderStep::for_attempt(2).to_string(), "consult");
    }

    #[test]
    fn grade_accepts_exactly_the_faithful_set() {
        let mut keys = KeyInterner::default();
        let faithful = vals(&["alpha", "beta"]);
        assert!(grade_supported(
            &vals(&["beta", "alpha"]),
            &faithful,
            &mut keys
        ));
        // Swap, drop, fabricate: every corruption breaks the grade.
        assert!(!grade_supported(
            &vals(&["alpha", "gamma"]),
            &faithful,
            &mut keys
        ));
        assert!(!grade_supported(&vals(&["alpha"]), &faithful, &mut keys));
        assert!(!grade_supported(
            &vals(&["alpha", "beta", "gamma"]),
            &faithful,
            &mut keys
        ));
    }

    #[test]
    fn grade_compares_canonical_keys_not_surfaces() {
        let mut keys = KeyInterner::default();
        // Canonical keys normalize representation: 5 vs 5.0.
        let faithful = vec![Value::Int(5)];
        let drafted = vec![Value::Float(5.0)];
        assert_eq!(
            grade_supported(&drafted, &faithful, &mut keys),
            keys.key_of(&Value::Int(5)) == keys.key_of(&Value::Float(5.0))
        );
    }

    #[test]
    fn empty_draft_only_matches_empty_context() {
        let mut keys = KeyInterner::default();
        assert!(grade_supported(&[], &[], &mut keys));
        assert!(!grade_supported(&[], &vals(&["x"]), &mut keys));
    }
}
