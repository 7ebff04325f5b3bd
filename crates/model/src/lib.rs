//! # asyncmr-model — the vocabulary the engine and the testbed share
//!
//! The paper's contribution is a programming model (`asyncmr-core`)
//! measured on a testbed (`asyncmr-simcluster`). The two meet in plain
//! data: the engine *meters* what it ran ([`JobSpec`],
//! [`AsyncTaskSpec`]), the testbed answers with simulated timing
//! ([`JobStats`], [`SimTime`]), both inject failures from the same
//! plans and deterministic verdicts ([`AttemptFailurePlan`],
//! [`NodeFailurePlan`], [`verdict_unit`]), and
//! a live session records the span model ([`SessionTrace`]) the
//! simulator's report renders. This crate is that data, with no
//! dependencies, so each side builds without the other; its one piece
//! of behaviour is [`JobReplay`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod failure;
pub mod job;
pub mod stats;
pub mod time;
pub mod trace;

pub use failure::{splitmix64, verdict_unit, AttemptFailurePlan, NodeFailurePlan};
pub use job::{AsyncTaskSpec, JobSpec, MapTaskSpec, ReduceTaskSpec};
pub use stats::{JobStats, PhaseBreakdown};
pub use time::{underflow_count, SimTime};
pub use trace::span::{LaneBreakdown, Mark, MarkKind, SessionTrace, Span, SpanKind, Stall};
pub use trace::{CritHop, CriticalPath};

/// Something that can price a metered job: the simulated cluster
/// (`asyncmr_simcluster::Simulation`), or a fake in a test.
/// `Engine::with_simulation` calls it once per job, after the job ran.
pub trait JobReplay {
    /// Replays `job`, advancing the replayer's own clock, and returns
    /// the job's simulated timing.
    fn run_job(&mut self, job: &JobSpec) -> JobStats;
}
