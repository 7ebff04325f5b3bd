//! Per-job result statistics returned by the simulator.

use crate::time::SimTime;

/// Where a job's simulated time went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseBreakdown {
    /// Job submission/setup overhead.
    pub setup: SimTime,
    /// From first map launch to last map completion.
    pub map_phase: SimTime,
    /// From last map completion until all reducers hold their input.
    /// (Shuffle overlaps the map phase; this is only the *exposed* tail.)
    pub shuffle_tail: SimTime,
    /// From shuffle completion to last reduce completion (merge +
    /// reduce compute + DFS output write).
    pub reduce_phase: SimTime,
    /// Commit/cleanup overhead.
    pub cleanup: SimTime,
}

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

/// Result of simulating one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStats {
    /// Job label (from [`crate::JobSpec::name`]).
    pub name: String,
    /// Simulated time when the job was submitted.
    pub submitted_at: SimTime,
    /// Simulated time when the job completed.
    pub finished_at: SimTime,
    /// End-to-end duration.
    pub duration: SimTime,
    /// Phase decomposition (sums to `duration`).
    pub phases: PhaseBreakdown,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Task attempts that were failed by the injector and re-executed.
    pub failed_attempts: u32,
    /// Correlated node deaths injected during the job (0 without a
    /// [`crate::NodeFailurePlan`]).
    pub node_failures: u32,
    /// Task attempts (running or with unfetched outputs) lost to node
    /// deaths and re-executed.
    pub node_lost_tasks: u32,
    /// Map attempts that ran data-local.
    pub local_map_tasks: usize,
    /// Total bytes moved across NICs (shuffle + remote DFS traffic).
    pub network_bytes: u64,
}

impl JobStats {
    /// Phase sum consistency check (used by tests).
    pub fn phases_sum(&self) -> SimTime {
        self.phases.setup
            + self.phases.map_phase
            + self.phases.shuffle_tail
            + self.phases.reduce_phase
            + self.phases.cleanup
    }
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
            name: "d".into(),
            submitted_at: SimTime::ZERO,
            finished_at: SimTime::from_secs(duration_s),
            duration: SimTime::from_secs(duration_s),
            phases: PhaseBreakdown::default(),
            map_tasks: 1,
            reduce_tasks: 1,
            failed_attempts: 2,
            node_failures: 1,
            node_lost_tasks: 3,
            local_map_tasks: 1,
            network_bytes: 10,
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

    #[test]
    fn phases_sum_default_is_zero() {
        assert_eq!(dummy(1).phases_sum(), SimTime::ZERO);
    }
}
