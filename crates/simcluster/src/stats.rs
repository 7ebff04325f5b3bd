//! Run accounting kept by the simulator, beside the per-job
//! [`JobStats`](asyncmr_model::JobStats) defined in `asyncmr-model`.

use asyncmr_model::SimTime;

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
    /// [`asyncmr_model::underflow_count`] so release sweeps surface the
    /// bug instead of silently absorbing it.
    pub time_underflows: u64,
}
