//! Timing utilities.
//!
//! Experiment time has two components on this substrate:
//!
//! * **wall time** — actually-measured compute (graph construction,
//!   matching, confidence math, fusion iterations);
//! * **simulated LLM time** — the latency the [`multirag_llmsim`]
//!   cost model attributes to LLM calls (a real deployment pays it; a
//!   mock does not).
//!
//! The repro binaries report `wall + simulated` as the paper-style
//! time columns and note the decomposition in EXPERIMENTS.md. Wall time
//! is read through [`multirag_obs::WallTimer`]; this module only
//! combines the two components.

/// Combined time report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeReport {
    /// Measured compute seconds.
    pub wall_s: f64,
    /// Simulated LLM seconds.
    pub simulated_s: f64,
}

impl TimeReport {
    /// The paper-style single time number.
    pub fn total_s(&self) -> f64 {
        self.wall_s + self.simulated_s
    }

    /// Folds another report's components into this one (phases of one
    /// experiment accumulate; `a.merge(&b)` ≡ `a += b`).
    pub fn merge(&mut self, other: &TimeReport) {
        self.wall_s += other.wall_s;
        self.simulated_s += other.simulated_s;
    }

    /// Deterministically-ordered JSON with both components and the
    /// paper-style total (hand-rolled fixed-precision floats — the
    /// workspace serializes without serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_s\":{:.6},\"simulated_s\":{:.6},\"total_s\":{:.6}}}",
            self.wall_s,
            self.simulated_s,
            self.total_s()
        )
    }
}

impl std::ops::AddAssign for TimeReport {
    fn add_assign(&mut self, rhs: Self) {
        self.merge(&rhs);
    }
}

impl std::ops::Add for TimeReport {
    type Output = TimeReport;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_totals() {
        let r = TimeReport {
            wall_s: 1.5,
            simulated_s: 2.5,
        };
        assert_eq!(r.total_s(), 4.0);
    }

    #[test]
    fn merge_and_add_assign_agree() {
        let a = TimeReport {
            wall_s: 1.0,
            simulated_s: 2.0,
        };
        let b = TimeReport {
            wall_s: 0.5,
            simulated_s: 0.25,
        };
        let mut merged = a;
        merged.merge(&b);
        let mut added = a;
        added += b;
        assert_eq!(merged, added);
        assert_eq!(merged, a + b);
        assert_eq!(merged.wall_s, 1.5);
        assert_eq!(merged.simulated_s, 2.25);
    }

    #[test]
    fn json_reports_both_components_and_total() {
        let r = TimeReport {
            wall_s: 0.125,
            simulated_s: 1.0,
        };
        assert_eq!(
            r.to_json(),
            "{\"wall_s\":0.125000,\"simulated_s\":1.000000,\"total_s\":1.125000}"
        );
    }
}
