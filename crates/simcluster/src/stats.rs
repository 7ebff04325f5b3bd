//! Run accounting kept by the simulator, beside the per-job
//! [`JobStats`] (defined in `asyncmr-model`, re-exported here).

pub use asyncmr_model::stats::{JobStats, PhaseBreakdown};

use crate::time::SimTime;

/// Release-mode accounting of the async placement's estimate-then-commit
/// invariant: the committed start of a chosen slot may only be *delayed*
/// past the pure estimate that ranked it (greedy admission under
/// contention), never earlier. An early commit means the estimate was
/// not a lower bound — a network-model bug — and is counted as a
/// violation (and fatal in debug builds); late commits are the expected
/// contention overruns, metered so the greedy-admission gap is visible
/// per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitAccounting {
    /// Commits that landed later than their estimate (contention).
    pub overruns: usize,
    /// Total simulated time the overruns added past the estimates.
    pub overrun_time: SimTime,
    /// Commits that landed *earlier* than their estimate (invariant
    /// breach; always 0 unless a network model under-estimates).
    pub violations: usize,
    /// `SimTime` subtractions that underflowed during the run (bare
    /// `-` on instants that turned out non-monotone — clamped to zero
    /// in release, fatal in debug). Like [`CommitAccounting::violations`],
    /// always 0 unless the simulator itself is buggy; metered via
    /// [`crate::time::underflow_count`] so release sweeps surface the
    /// bug instead of silently absorbing it.
    pub time_underflows: u64,
}

/// Aggregates several job runs (e.g. all global iterations of an
/// iterative algorithm) into one line of accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Number of jobs aggregated.
    pub jobs: usize,
    /// Sum of job durations.
    pub total_time: SimTime,
    /// Sum of network bytes.
    pub network_bytes: u64,
    /// Sum of injected-failure re-executions.
    pub failed_attempts: u32,
    /// Sum of injected correlated node deaths.
    pub node_failures: u32,
}

impl RunTotals {
    /// Folds one job's stats into the totals.
    pub fn add(&mut self, stats: &JobStats) {
        self.jobs += 1;
        self.total_time += stats.duration;
        self.network_bytes += stats.network_bytes;
        self.failed_attempts += stats.failed_attempts;
        self.node_failures += stats.node_failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(duration_s: u64) -> JobStats {
        JobStats {
            duration: SimTime::from_secs(duration_s),
            failed_attempts: 2,
            node_failures: 1,
            network_bytes: 10,
            ..JobStats::default()
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut t = RunTotals::default();
        t.add(&dummy(5));
        t.add(&dummy(7));
        assert_eq!(t.jobs, 2);
        assert_eq!(t.total_time, SimTime::from_secs(12));
        assert_eq!(t.network_bytes, 20);
        assert_eq!(t.failed_attempts, 4);
        assert_eq!(t.node_failures, 2);
    }
}
