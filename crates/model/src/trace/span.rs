//! The shared span model for *live* session traces.
//!
//! The simulator's replays leave an event trace behind; the real
//! in-process driver (`asyncmr-core`'s session layer) has no event
//! queue to record, so it records **spans**: timestamped intervals on
//! execution *lanes* (one per pool worker, plus the scheduler/driver
//! thread), tagged with the `(partition, iteration, attempt)` they
//! belong to. This module owns the data model the recorder
//! (`asyncmr_core::obs`) fills and the unified report
//! (`asyncmr_simcluster::trace::report`) renders beside a simulated
//! run.
//!
//! All times are **nanoseconds from the recorder's epoch** (a single
//! monotonic [`std::time::Instant`] taken when recording starts). The
//! recorder itself — per-lane append-only buffers, the park observer,
//! the drain — lives in `asyncmr_core::obs`; this module only defines
//! what a drained trace *is* and the pure analyses over it:
//!
//! * per-lane busy/blocked/idle breakdown ([`SessionTrace::lane_breakdown`]),
//!   which telescopes exactly: `busy + blocked + idle == wall`;
//! * the gmap conservation law ([`SessionTrace::gmap_span_ns`] equals
//!   the session's metered gmap time *exactly*, because each span's
//!   duration is the very `elapsed` the meter billed);
//! * an in-process critical path ([`SessionTrace::critical_path`])
//!   that walks the recorded schedule back along latest-finishing
//!   dependency edges exactly like the simulator's
//!   `TraceReader::critical_path`, so real and simulated bottlenecks
//!   compare like-for-like.

use crate::job::AsyncTaskSpec;
use crate::time::SimTime;
use crate::trace::{CritHop, CriticalPath};

/// What one recorded execution span measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One gmap attempt body (runs on a pool worker, or on the driver
    /// thread when it helps while waiting).
    Gmap,
    /// Delivery of one completed attempt's outbox batches to consumer
    /// mailboxes (scheduler lane).
    Deliver,
    /// One successful absorb — update + frozen inbox folded into the
    /// next partition state (scheduler lane).
    Absorb,
    /// One rollback pass — revoking delivered batches and re-seeding
    /// launches after a node death (scheduler lane).
    Rollback,
    /// One blocked-wait: a partition parked because a dependency had
    /// not delivered within its staleness window (virtual lane — these
    /// overlap freely; see [`SessionTrace::stalls`]).
    Stall,
}

impl SpanKind {
    /// Stable lower-case label, used as the Chrome-trace category and
    /// the report's CSS class.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Gmap => "gmap",
            SpanKind::Deliver => "deliver",
            SpanKind::Absorb => "absorb",
            SpanKind::Rollback => "rollback",
            SpanKind::Stall => "stall",
        }
    }
}

/// One timestamped execution span on a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the interval measured.
    pub kind: SpanKind,
    /// Partition the work belonged to.
    pub partition: u32,
    /// Global iteration the work belonged to.
    pub iteration: u32,
    /// Attempt number (re-executions increment it; 0 for scheduler-lane
    /// work that has no attempt identity).
    pub attempt: u32,
    /// Execution lane: `0..workers` are pool workers, `workers` is the
    /// scheduler/driver thread.
    pub lane: u32,
    /// Start, nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds. For gmap spans this is bit-for-bit the
    /// `elapsed` the session's meter billed — the conservation law.
    pub dur_ns: u64,
}

impl Span {
    /// End instant, nanoseconds from the recorder's epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Instant-event kinds (zero-duration points on the session timeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    /// A gmap attempt was handed to the pool (`value` = attempt).
    Launch,
    /// The checkpoint tracker declared a checkpoint (`value` = snapshot
    /// bytes; `iteration` = the checkpointed frontier).
    CheckpointCommit,
    /// Global convergence was detected (`iteration` = the frontier).
    Converged,
}

impl MarkKind {
    /// Stable kebab-case label, used as the Chrome-trace event name.
    pub fn label(&self) -> &'static str {
        match self {
            MarkKind::Launch => "launch",
            MarkKind::CheckpointCommit => "checkpoint-commit",
            MarkKind::Converged => "converged",
        }
    }
}

/// One instant event on the session timeline (scheduler lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// What happened.
    pub kind: MarkKind,
    /// Partition it concerns (0 when global, e.g. [`MarkKind::Converged`]).
    pub partition: u32,
    /// Iteration it concerns.
    pub iteration: u32,
    /// When, nanoseconds from the recorder's epoch.
    pub at_ns: u64,
    /// Kind-specific payload (see [`MarkKind`]).
    pub value: u64,
}

/// Per-lane time breakdown over the recorded session.
///
/// `busy + blocked + idle == wall` exactly — idle is defined as the
/// remainder, and the recorder guarantees `busy + blocked <= wall`
/// per lane (spans on one lane never overlap; parks are disjoint from
/// execution on the same thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneBreakdown {
    /// Summed span time on the lane.
    pub busy_ns: u64,
    /// Summed park time (worker lanes) — the lane wanted work and found
    /// none. Always 0 for the scheduler lane.
    pub blocked_ns: u64,
    /// `wall - busy - blocked`: startup, span gaps, steal attempts.
    pub idle_ns: u64,
}

/// One blocked-wait interval: a partition could not absorb because a
/// dependency had not delivered within its staleness window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The waiting partition.
    pub partition: u32,
    /// The iteration whose absorb was blocked.
    pub iteration: u32,
    /// Start, nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// How long the absorb stayed blocked.
    pub dur_ns: u64,
}

/// A drained per-worker span recording of one live session run —
/// what `AsyncFixedPointDriver::with_trace` attaches to the report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionTrace {
    /// Pool worker count. Lanes `0..workers` are workers; lane
    /// `workers` is the scheduler/driver thread.
    pub workers: usize,
    /// Wall-clock of the recorded session in nanoseconds, read from the
    /// same monotonic epoch as every span.
    pub wall_ns: u64,
    /// Every recorded execution span, in drain order (per-lane
    /// append-only buffers concatenated; each lane's runs are
    /// time-sorted and non-overlapping).
    pub spans: Vec<Span>,
    /// Per-worker summed park time (nanoseconds), `workers` entries.
    pub park_ns: Vec<u64>,
    /// Blocked-wait intervals, per partition (these may overlap each
    /// other — they live on virtual per-partition lanes).
    pub stalls: Vec<Stall>,
    /// Instant events, in emission order.
    pub marks: Vec<Mark>,
    /// Start of the surviving attempt of each kept schedule task
    /// (aligned with `SessionReport::schedule`), nanoseconds.
    pub task_start_ns: Vec<u64>,
    /// Finish of the surviving attempt of each kept schedule task.
    pub task_finish_ns: Vec<u64>,
    /// What the session's meters billed as total gmap time across
    /// successful, failed, and orphaned attempts, nanoseconds. Equals
    /// [`SessionTrace::gmap_span_ns`] exactly.
    pub metered_gmap_ns: u64,
}

impl SessionTrace {
    /// Number of execution lanes (workers + the scheduler lane).
    pub fn lanes(&self) -> usize {
        self.workers + 1
    }

    /// The scheduler/driver thread's lane index.
    pub fn scheduler_lane(&self) -> usize {
        self.workers
    }

    /// The spans of one lane, sorted by start.
    pub fn lane_spans(&self, lane: usize) -> Vec<&Span> {
        let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.lane as usize == lane).collect();
        spans.sort_by_key(|s| s.start_ns);
        spans
    }

    /// Summed duration of every gmap span, across all lanes. Equals
    /// [`SessionTrace::metered_gmap_ns`] exactly: each span carries the
    /// very `elapsed` the session's meter billed for that attempt.
    pub fn gmap_span_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.kind == SpanKind::Gmap).map(|s| s.dur_ns).sum()
    }

    /// Busy/blocked/idle breakdown of one lane (see [`LaneBreakdown`]).
    pub fn lane_breakdown(&self, lane: usize) -> LaneBreakdown {
        let busy_ns: u64 =
            self.spans.iter().filter(|s| s.lane as usize == lane).map(|s| s.dur_ns).sum();
        let blocked_ns = self.park_ns.get(lane).copied().unwrap_or(0);
        let idle_ns = self
            .wall_ns
            .checked_sub(busy_ns)
            .and_then(|rest| rest.checked_sub(blocked_ns))
            .unwrap_or(0);
        LaneBreakdown { busy_ns, blocked_ns, idle_ns }
    }

    /// The recorded session's critical path, walked exactly like the
    /// simulator's: from the last-finishing kept task backwards along
    /// each task's latest-finishing dependency edge. `tasks` is the
    /// report's kept schedule — the same `Vec<AsyncTaskSpec>` a
    /// simulated replay would consume — aligned index-for-index with
    /// [`SessionTrace::task_start_ns`] / [`SessionTrace::task_finish_ns`].
    ///
    /// In-process delivery has no wire component (messages land in the
    /// consumer's mailbox the instant the producer's completion is
    /// processed), so every hop's `wire` is zero and `queue` absorbs
    /// the scheduler-lane latency between a dependency's finish and the
    /// consumer's start. The decomposition telescopes in microseconds:
    /// `total()` equals the wall time truncated to microseconds, so a
    /// real path and a simulated path diff component-by-component.
    pub fn critical_path(&self, tasks: &[AsyncTaskSpec]) -> CriticalPath {
        assert_eq!(
            tasks.len(),
            self.task_finish_ns.len(),
            "critical_path wants the report's kept schedule (one timing per task)"
        );
        let wall_us = self.wall_ns / 1_000;
        let mut cp = CriticalPath::default();
        let Some(sink) = self
            .task_finish_ns
            .iter()
            .enumerate()
            .max_by_key(|&(i, f)| (*f, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
        else {
            cp.overhead = SimTime::from_micros(wall_us);
            return cp;
        };
        let (mut compute_ns, mut queue_ns) = (0u64, 0u64);
        let mut cur = sink;
        loop {
            let (start, finish) = (self.task_start_ns[cur], self.task_finish_ns[cur]);
            let compute = finish.saturating_sub(start);
            // Latest-finishing dependency = the critical input edge
            // (ties toward the lowest dependency index, matching the
            // simulator's earliest-recorded-edge tie-break).
            let crit = tasks[cur]
                .deps
                .iter()
                .copied()
                .max_by_key(|&d| (self.task_finish_ns[d], std::cmp::Reverse(d)));
            let (queue, next) = match crit {
                Some(dep) => (start.saturating_sub(self.task_finish_ns[dep]), Some(dep)),
                None => (start, None),
            };
            let t = &tasks[cur];
            cp.hops.push(CritHop {
                task: cur,
                partition: t.partition,
                iteration: t.iteration,
                node: 0,
                compute: SimTime::from_micros(compute / 1_000),
                queue: SimTime::from_micros(queue / 1_000),
                wire: SimTime::ZERO,
            });
            compute_ns += compute;
            queue_ns += queue;
            match next {
                Some(dep) => cur = dep,
                None => break,
            }
        }
        cp.hops.reverse();
        cp.compute = SimTime::from_micros(compute_ns / 1_000);
        cp.queue = SimTime::from_micros(queue_ns / 1_000);
        // The remainder — time after the sink finished (drain, final
        // bookkeeping) plus the sub-microsecond truncation — so the
        // decomposition telescopes: total() == wall in microseconds.
        cp.overhead = SimTime::from_micros(
            wall_us.saturating_sub(compute_ns / 1_000).saturating_sub(queue_ns / 1_000),
        );
        cp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, lane: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span { kind, partition: 0, iteration: 0, attempt: 0, lane, start_ns, dur_ns }
    }

    fn chain_trace(n: usize) -> (SessionTrace, Vec<AsyncTaskSpec>) {
        // A 3-task chain: each task takes 2 us compute after a 1 us gap.
        let tasks: Vec<AsyncTaskSpec> = (0..n)
            .map(|i| {
                let t = AsyncTaskSpec::new(0, i, 1, 1);
                if i > 0 {
                    t.with_deps(vec![i - 1])
                } else {
                    t
                }
            })
            .collect();
        let task_start_ns: Vec<u64> = (0..n as u64).map(|i| i * 3_000 + 1_000).collect();
        let task_finish_ns: Vec<u64> = (0..n as u64).map(|i| i * 3_000 + 3_000).collect();
        let trace = SessionTrace {
            workers: 1,
            wall_ns: n as u64 * 3_000 + 500,
            task_start_ns,
            task_finish_ns,
            ..SessionTrace::default()
        };
        (trace, tasks)
    }

    #[test]
    fn lane_breakdown_telescopes() {
        let trace = SessionTrace {
            workers: 2,
            wall_ns: 100,
            spans: vec![span(SpanKind::Gmap, 0, 0, 30), span(SpanKind::Gmap, 0, 50, 20)],
            park_ns: vec![40, 0],
            ..SessionTrace::default()
        };
        let b = trace.lane_breakdown(0);
        assert_eq!((b.busy_ns, b.blocked_ns, b.idle_ns), (50, 40, 10));
        assert_eq!(b.busy_ns + b.blocked_ns + b.idle_ns, trace.wall_ns);
        let empty = trace.lane_breakdown(1);
        assert_eq!((empty.busy_ns, empty.blocked_ns, empty.idle_ns), (0, 0, 100));
    }

    #[test]
    fn gmap_conservation_counts_only_gmap_spans() {
        let trace = SessionTrace {
            workers: 1,
            wall_ns: 100,
            spans: vec![
                span(SpanKind::Gmap, 0, 0, 30),
                span(SpanKind::Absorb, 1, 30, 10),
                span(SpanKind::Gmap, 1, 40, 12),
            ],
            metered_gmap_ns: 42,
            ..SessionTrace::default()
        };
        assert_eq!(trace.gmap_span_ns(), trace.metered_gmap_ns);
    }

    #[test]
    fn critical_path_telescopes_to_the_wall_in_micros() {
        let (trace, tasks) = chain_trace(3);
        let cp = trace.critical_path(&tasks);
        assert_eq!(cp.hops.len(), 3, "a chain is its own path");
        assert_eq!(cp.total(), SimTime::from_micros(trace.wall_ns / 1_000));
        assert_eq!(cp.wire, SimTime::ZERO, "in-process edges have no wire");
        assert_eq!(cp.compute, SimTime::from_micros(6));
        assert_eq!(cp.queue, SimTime::from_micros(3));
        assert_eq!(cp.hops[0].task, 0, "hops run source-first");
    }

    #[test]
    fn empty_schedule_path_is_the_envelope() {
        let trace = SessionTrace { wall_ns: 5_000, ..SessionTrace::default() };
        let cp = trace.critical_path(&[]);
        assert!(cp.hops.is_empty());
        assert_eq!(cp.total(), SimTime::from_micros(5));
    }
}
