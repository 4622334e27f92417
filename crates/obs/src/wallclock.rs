//! The one justified wall-clock measurement point for library code.
//!
//! Every byte-stable artifact in this workspace consumes *simulated*
//! time (the integer-µs sim clock); real elapsed time exists only as
//! the measured `wall_s` half of [`crate::StageCost`]-style records,
//! which the repro gates exclude from byte comparison. Scattering
//! `Instant::now()` through pipeline code made that invariant
//! unauditable — the determinism lint (D02, and the interprocedural
//! T01 taint pass) flagged each site separately and each needed its
//! own justification. Consolidating the reads here gives the lint a
//! single exempt source (`[exempt.D02]` / `[exempt.T01]` on this file
//! in `lint_allow.toml`) and gives reviewers a single place to check
//! that wall time never feeds a scored or serialized decision.
//!
//! Deliberately minimal: a monotonic start/elapsed pair. Anything
//! fancier (lap times, percentiles) belongs to `eval::timing`, the
//! bench-side measurement module with the same exemption.

/// A started monotonic timer. Values derived from it are measurement
/// only — never let them reach a seeded or byte-compared path.
#[derive(Debug, Clone, Copy)]
pub struct WallTimer(std::time::Instant);

impl WallTimer {
    /// Starts a timer at the current monotonic instant.
    pub fn start() -> WallTimer {
        WallTimer(std::time::Instant::now())
    }

    /// Elapsed wall seconds since [`WallTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Elapsed wall microseconds since [`WallTimer::start`], truncated
    /// — the unit the perf harnesses report best-of-N timings in.
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros() as u64
    }
}

impl Default for WallTimer {
    fn default() -> Self {
        WallTimer::start()
    }
}

#[cfg(test)]
mod tests {
    use super::WallTimer;

    #[test]
    fn elapsed_is_monotone_nonnegative() {
        let timer = WallTimer::start();
        let first = timer.elapsed_s();
        let second = timer.elapsed_s();
        assert!(first >= 0.0);
        assert!(second >= first);
        let us = timer.elapsed_us();
        assert!(timer.elapsed_us() >= us);
    }
}
