//! The trace vocabulary a live session and a simulated replay share:
//! [`span`] is what a traced in-process session records; this module
//! holds the critical-path decomposition both
//! [`span::SessionTrace::critical_path`] and the simulator's trace
//! reader return, so real and simulated bottlenecks compare
//! like-for-like.

pub mod span;

use crate::time::SimTime;

/// One hop of the recorded critical path, in chain order (source
/// first, sink last).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritHop {
    /// Task index in the schedule.
    pub task: usize,
    /// The task's partition.
    pub partition: usize,
    /// The task's global iteration.
    pub iteration: usize,
    /// Node the successful attempt ran on.
    pub node: usize,
    /// Attempt occupancy: `finish - start` (launch + read + compute +
    /// sort).
    pub compute: SimTime,
    /// Wait between the critical input's arrival (or session setup,
    /// for a source task) and the attempt's start: slot contention,
    /// dispatch gates, retry delays.
    pub queue: SimTime,
    /// Wire time of the critical input edge: `arrival - dep finish`
    /// (zero for same-node edges and source tasks).
    pub wire: SimTime,
}

/// The recorded schedule's critical path: the dependency-respecting
/// chain that determined the makespan, with each hop split into
/// compute, wire, and queue wait.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPath {
    /// The chain, source first. Empty for an empty schedule.
    pub hops: Vec<CritHop>,
    /// Summed attempt occupancy along the chain.
    pub compute: SimTime,
    /// Summed critical-edge wire time along the chain.
    pub wire: SimTime,
    /// Summed queue wait along the chain.
    pub queue: SimTime,
    /// The session envelope outside the chain: setup before the first
    /// dispatch plus cleanup after the last completion.
    pub overhead: SimTime,
}

impl CriticalPath {
    /// The exact walk total: `compute + wire + queue + overhead`.
    /// Equals the run's makespan to the microsecond (the decomposition
    /// telescopes — pinned by the simulator's `tests/trace_analysis.rs`).
    pub fn total(&self) -> SimTime {
        self.compute + self.wire + self.queue + self.overhead
    }

    /// The contention-free length of the chain: `compute + wire +
    /// overhead`. A lower bound on the makespan (`queue >= 0`); equals
    /// it when the chain never waited on a slot — e.g. a single-chain
    /// DAG.
    pub fn bound(&self) -> SimTime {
        self.compute + self.wire + self.overhead
    }
}
