//! In-process session tracing: the per-worker span recorder behind
//! [`crate::session::AsyncFixedPointDriver::with_trace`].
//!
//! The session layer's scheduling all happens on the multiwave caller
//! thread, but gmap attempts run on arbitrary pool workers (or on the
//! caller itself, when it helps while waiting). The recorder therefore
//! keeps **one append-only buffer per execution lane** — lanes
//! `0..workers` are pool workers, lane `workers` is the
//! scheduler/caller — and each thread only ever pushes to its own
//! lane's buffer, so the per-lane mutexes are uncontended by
//! construction: they exist to satisfy `Sync`, not to arbitrate.
//! The per-span cost is one monotonic clock read at the start, one at
//! the end, and one uncontended lock/push — the ≤5% overhead target
//! the ledger reports as `bench.trace_overhead_pct`.
//!
//! Times are nanoseconds from the recorder's **epoch**, a single
//! [`Instant`] taken at construction; the drained
//! [`SessionTrace`] therefore has one time base across every lane,
//! mark, and park interval. Worker park time arrives through the
//! pool's [`ParkObserver`] hook (intervals already in progress when
//! recording starts are clamped to the epoch).
//!
//! The data model ([`SessionTrace`], [`Span`], [`Mark`]) is
//! [`asyncmr_model::trace::span`], shared with the simulator's unified
//! Chrome-trace/HTML renderer, which accepts live and simulated runs
//! alike.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use asyncmr_model::{Mark, MarkKind, SessionTrace, Span, SpanKind, Stall};
use asyncmr_runtime::{current_worker, ParkObserver};

/// Lock-light per-lane span recorder for one traced session run.
///
/// Shared as an `Arc` between the driver (which drains it), the pool
/// (as its [`ParkObserver`]), and every gmap closure (which records
/// attempt spans from whichever thread runs them).
#[derive(Debug)]
pub struct SpanRecorder {
    /// The single monotonic time base every recorded instant is
    /// relative to.
    epoch: Instant,
    workers: usize,
    /// One append-only buffer per lane (`workers + 1`; see module
    /// docs). Each buffer is only ever pushed by its own thread.
    lanes: Vec<Mutex<Vec<Span>>>,
    /// Per-worker summed park nanoseconds, fed by [`ParkObserver`]
    /// callbacks (relaxed: purely observational).
    park_ns: Vec<AtomicU64>,
}

impl SpanRecorder {
    /// A recorder for a pool with `workers` threads. The epoch — the
    /// zero of every recorded timestamp — is *now*.
    pub fn new(workers: usize) -> Self {
        SpanRecorder {
            epoch: Instant::now(),
            workers,
            lanes: (0..=workers).map(|_| Mutex::new(Vec::new())).collect(),
            park_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Nanoseconds since the recorder's epoch — the session's span
    /// clock. One monotonic read.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The calling thread's lane: its pool worker index, or the
    /// scheduler lane for any non-pool thread.
    #[inline]
    pub fn lane(&self) -> usize {
        match current_worker() {
            Some(w) if w < self.workers => w,
            _ => self.workers,
        }
    }

    /// Records one completed span on the calling thread's lane.
    /// `dur` must be the *same* measurement the session's meters bill
    /// (for gmap spans that identity is the conservation law the trace
    /// report checks).
    pub fn record(
        &self,
        kind: SpanKind,
        partition: usize,
        iteration: usize,
        attempt: u32,
        start_ns: u64,
        dur: Duration,
    ) {
        let lane = self.lane();
        let span = Span {
            kind,
            partition: partition as u32,
            iteration: iteration as u32,
            attempt,
            lane: lane as u32,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        };
        self.lanes[lane].lock().expect("span buffer poisoned").push(span);
    }

    /// Drains everything recorded so far into the per-lane span list
    /// and park totals of a [`SessionTrace`] (whose marks, stalls, and
    /// schedule timings the session fills in). Reads the wall clock
    /// last, so `wall_ns` covers every drained span.
    pub fn drain(&self) -> SessionTrace {
        let mut spans = Vec::new();
        for lane in &self.lanes {
            spans.append(&mut lane.lock().expect("span buffer poisoned"));
        }
        let park_ns = self.park_ns.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        SessionTrace {
            workers: self.workers,
            wall_ns: self.now_ns(),
            spans,
            park_ns,
            ..SessionTrace::default()
        }
    }
}

impl ParkObserver for SpanRecorder {
    fn parked(&self, worker: usize, start: Instant, end: Instant) {
        let Some(cell) = self.park_ns.get(worker) else {
            return;
        };
        // Clamp to the epoch: a park already in progress when recording
        // started only bills the in-session part.
        let start = start.max(self.epoch);
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        cell.fetch_add(ns, Ordering::Relaxed);
    }
}

/// The session-side half of a run's observation: the shared recorder
/// plus the scheduler-thread-only event logs (marks, stalls, per-task
/// timings) that need no synchronization at all.
///
/// Every method is a **no-op on an untraced run** (`SessionObs::default()`,
/// no recorder: one `Option` test, no clock read, nothing logged), so
/// the scheduler calls them unconditionally.
#[derive(Debug, Default)]
pub(crate) struct SessionObs {
    /// The shared recorder (also installed as the pool's park
    /// observer for the run's duration); `None` = untraced.
    recorder: Option<Arc<SpanRecorder>>,
    /// Instant events, in emission order (scheduler thread only).
    marks: Vec<Mark>,
    /// Closed blocked-wait intervals.
    stalls: Vec<Stall>,
    /// Per partition: the open blocked-wait, as `(iteration,
    /// start_ns)`, if its parked absorb is currently blocked.
    stall_open: Vec<Option<(usize, u64)>>,
    /// `(start_ns, finish_ns)` of each recorded schedule entry, aligned
    /// index-for-index with the session's recorded schedule (dropped
    /// entries are filtered by the same remap at finish).
    task_times: Vec<(u64, u64)>,
}

impl SessionObs {
    /// The observation state of a traced run over `partitions`
    /// partitions.
    pub(crate) fn new(recorder: Arc<SpanRecorder>, partitions: usize) -> Self {
        SessionObs {
            recorder: Some(recorder),
            stall_open: vec![None; partitions],
            ..SessionObs::default()
        }
    }

    /// The recorder clock, `None` on an untraced run. Pair with
    /// [`SessionObs::span`] to time a scheduler-lane step.
    pub(crate) fn clock(&self) -> Option<u64> {
        self.recorder.as_ref().map(|rec| rec.now_ns())
    }

    /// Records the scheduler-lane span that began at `t0` (a
    /// [`SessionObs::clock`] reading) and ends now.
    pub(crate) fn span(&self, kind: SpanKind, p: usize, i: usize, attempt: u32, t0: Option<u64>) {
        if let (Some(rec), Some(t0)) = (&self.recorder, t0) {
            // The recorder clock is monotonic: `now − t0` is exact.
            rec.record(kind, p, i, attempt, t0, Duration::from_nanos(rec.now_ns() - t0));
        }
    }

    /// Records an instant event at *now* (scheduler thread).
    pub(crate) fn mark(&mut self, kind: MarkKind, p: usize, i: usize, value: u64) {
        if let Some(at_ns) = self.clock() {
            self.marks.push(Mark { kind, partition: p as u32, iteration: i as u32, at_ns, value });
        }
    }

    /// Opens partition `p`'s blocked-wait at iteration `i` (no-op if
    /// one is already open — a stall persists across repeated failed
    /// admission tests).
    pub(crate) fn open_stall(&mut self, p: usize, i: usize) {
        let Some(rec) = &self.recorder else { return };
        if self.stall_open[p].is_none() {
            self.stall_open[p] = Some((i, rec.now_ns()));
        }
    }

    /// Closes partition `p`'s blocked-wait, if open, recording the
    /// interval.
    pub(crate) fn close_stall(&mut self, p: usize) {
        let Some(rec) = &self.recorder else { return };
        if let Some((iter, start_ns)) = self.stall_open[p].take() {
            let dur_ns = rec.now_ns() - start_ns;
            self.stalls.push(Stall {
                partition: p as u32,
                iteration: iter as u32,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Logs the timing of the gmap just appended to the recorded
    /// schedule (`elapsed` is the measurement the meters billed).
    pub(crate) fn task(&mut self, start_ns: u64, elapsed: Duration) {
        if self.recorder.is_some() {
            self.task_times.push((start_ns, start_ns + elapsed.as_nanos() as u64));
        }
    }

    /// Drains the run into its [`SessionTrace`] (`None` if untraced),
    /// filling in what only the session knows: marks, stalls
    /// (still-open ones close at the drain instant), the timings of the
    /// schedule entries `remap` kept (`usize::MAX` = dropped), and the
    /// metered gmap nanoseconds the span sum must equal exactly.
    pub(crate) fn finish(mut self, remap: &[usize], metered_gmap_ns: u64) -> Option<SessionTrace> {
        let recorder = self.recorder.clone()?;
        for p in 0..self.stall_open.len() {
            self.close_stall(p);
        }
        let kept = self.task_times.iter().zip(remap).filter(|(_, &to)| to != usize::MAX);
        let (task_start_ns, task_finish_ns) = kept.map(|(&times, _)| times).unzip();
        Some(SessionTrace {
            marks: self.marks,
            stalls: self.stalls,
            task_start_ns,
            task_finish_ns,
            metered_gmap_ns,
            ..recorder.drain()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_on_the_callers_lane() {
        let rec = SpanRecorder::new(2);
        // This test thread is not a pool worker, so everything lands on
        // the scheduler lane.
        let t0 = rec.now_ns();
        rec.record(SpanKind::Gmap, 3, 7, 1, t0, Duration::from_nanos(500));
        rec.record(SpanKind::Absorb, 3, 7, 0, t0 + 500, Duration::from_nanos(100));
        let trace = rec.drain();
        assert_eq!(trace.workers, 2);
        assert_eq!(trace.spans.len(), 2);
        assert!(trace.spans.iter().all(|s| s.lane == 2), "non-pool thread = scheduler lane");
        assert_eq!(trace.spans[0].dur_ns, 500);
        assert_eq!(trace.park_ns, vec![0, 0]);
        assert!(trace.wall_ns >= t0 + 600, "wall read after the spans");
        // A second drain starts empty (buffers were moved out).
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn park_observer_clamps_to_the_epoch_and_sums() {
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let rec = SpanRecorder::new(1);
        let now = Instant::now();
        // A park that began before the epoch only bills the in-session
        // part; the pre-epoch 2ms must not appear.
        rec.parked(0, before, now);
        let clamped = rec.drain().park_ns[0];
        assert!(clamped < Duration::from_millis(2).as_nanos() as u64);
        // Out-of-range worker indices are ignored, not a panic.
        rec.parked(7, now, now);
    }

    #[test]
    fn stalls_open_once_and_close_with_the_covered_interval() {
        let rec = std::sync::Arc::new(SpanRecorder::new(1));
        let mut obs = SessionObs::new(rec, 2);
        obs.open_stall(1, 4);
        obs.open_stall(1, 5); // already open: keeps the original start
        obs.close_stall(0); // nothing open: no-op
        obs.close_stall(1);
        assert_eq!(obs.stalls.len(), 1);
        assert_eq!(obs.stalls[0].partition, 1);
        assert_eq!(obs.stalls[0].iteration, 4);
        obs.mark(MarkKind::Converged, 0, 9, 0);
        assert_eq!(obs.marks.len(), 1);
        assert_eq!(obs.marks[0].iteration, 9);
    }
}
