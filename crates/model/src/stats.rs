//! Per-job result statistics: what a [`crate::JobReplay`] returns.

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

/// Result of simulating one job.
#[derive(Debug, Clone, PartialEq, Default)]
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_default_is_zero() {
        let stats = JobStats { duration: SimTime::from_secs(1), ..JobStats::default() };
        assert_eq!(stats.phases_sum(), SimTime::ZERO);
    }
}
