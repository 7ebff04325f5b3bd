//! The scheduler loop: launch → complete → deliver → absorb → advance,
//! over the components that each own one invariant (see the component
//! map in the [session module docs](super)).
//!
//! Lives on the multiwave caller thread; no locks anywhere.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncmr_model::{AsyncTaskSpec, MarkKind, SpanKind};
use asyncmr_runtime::{PoolMetrics, Wave};

use super::meter::SessionMeter;
use super::store::Store;
use super::topology::Topology;
use super::{
    AsyncFixedPointDriver, AsyncIterative, GmapOutput, Outbox, SessionOutcome, SessionReport,
};
use crate::checkpoint::Recovery;
use crate::obs::{SessionObs, SpanRecorder};

/// How many iterations past the globally-complete frontier a partition
/// may speculate (on top of the staleness bound). Bounds state/mailbox
/// history per partition without throttling the overlap that pays for
/// the schedule: a straggler's *neighbors* are gated by messages, not
/// by this constant.
const RUNAHEAD_SLACK: usize = 8;

/// One pool task: attempt `attempt` of partition `p`'s gmap at `iter`,
/// on the state its previous absorb produced.
pub(super) struct Launch<A: AsyncIterative> {
    p: usize,
    iter: usize,
    attempt: u32,
    /// The partition's rollback generation at launch time: a completion
    /// whose generation is stale was orphaned by a node-failure
    /// rollback and is discarded (billed as a failed attempt).
    generation: u64,
    state: Arc<A::State>,
    /// A fresh outbox for the gmap to fill; it returns with the
    /// completion for delivery, or is dropped if the attempt died or
    /// was orphaned.
    outbox: Outbox<A::Msg>,
}

/// What one pool attempt reported back to the scheduler.
pub(super) struct AttemptDone<A: AsyncIterative> {
    launch: Launch<A>,
    /// Recorder-clock start of the attempt (0 on untraced runs).
    start_ns: u64,
    elapsed: Duration,
    /// `None` = the injected failure killed this attempt before it
    /// could deliver; the scheduler re-executes it.
    output: Option<GmapOutput<A::Update>>,
}

/// The pool-side half of an attempt: runs the gmap and times it.
///
/// A doomed attempt still runs: the task process does real work before
/// dying, and that work — billed to `failed_attempt_time` — is exactly
/// the wasted gmap-seconds the accounting reports. Its output is
/// discarded (never delivered), which is the whole fault model:
/// deterministic replay re-executes the pure gmap on the same state and
/// reproduces it.
pub(super) fn run_attempt<A: AsyncIterative>(
    algo: &A,
    driver: &AsyncFixedPointDriver,
    recorder: Option<&SpanRecorder>,
    mut launch: Launch<A>,
) -> AttemptDone<A> {
    let Launch { p, iter, attempt, .. } = launch;
    let start_ns = recorder.map_or(0, |rec| rec.now_ns());
    let t0 = Instant::now();
    let out = algo.gmap(p, iter, &launch.state, &mut launch.outbox);
    let died = driver.attempt_dies(p, iter, attempt);
    // One measurement feeds both the span and the meters: the trace
    // report's conservation law (Σ gmap span durations == metered gmap
    // time, exactly) depends on this identity.
    let elapsed = t0.elapsed();
    if let Some(rec) = recorder {
        rec.record(SpanKind::Gmap, p, iter, attempt, start_ns, elapsed);
    }
    AttemptDone { launch, start_ns, elapsed, output: (!died).then_some(out) }
}

/// Per-partition progress.
struct Part<U> {
    /// Iterations absorbed (the state entering `absorbed` is available).
    absorbed: usize,
    /// Gmap iterations launched (∈ {absorbed, absorbed + 1}).
    launched: usize,
    /// Own gmap output of iteration `absorbed`, awaiting dependency
    /// messages.
    parked: Option<U>,
    /// The consumption log: per absorbed iteration, the source
    /// iteration selected for each dependency slot
    /// (`consumed.len() == absorbed`). Decides transitive invalidation
    /// and the recorded schedule's dependency edges.
    consumed: Vec<Vec<usize>>,
}

/// Scheduler state for one session run.
pub(super) struct Session<'a, A: AsyncIterative> {
    algo: &'a A,
    topo: &'a Topology,
    store: Store<A::State, A::Msg>,
    /// The staleness bound: the absorb admission test, mailbox
    /// retention, the convergence window and the launch cap all read
    /// this one number.
    max_lag: usize,
    recovery: Recovery,
    meter: SessionMeter,
    obs: SessionObs,
    parts: Vec<Part<A::Update>>,
    /// Iterations absorbed by *every* partition.
    frontier: usize,
    /// `Some(converged)` once no further launches happen (converged or
    /// capped); in-flight tasks drain.
    stopped: Option<bool>,
    max_iterations: usize,
}

impl<'a, A: AsyncIterative> Session<'a, A> {
    /// A session of `algo` over `topo` under the (already validated)
    /// knobs of `driver`, traced iff `recorder` is given.
    pub(super) fn new(
        driver: &AsyncFixedPointDriver,
        algo: &'a A,
        topo: &'a Topology,
        recorder: Option<Arc<SpanRecorder>>,
    ) -> Self {
        let k = topo.partitions();
        let init = |p| {
            let state = algo.init_state(p);
            let bytes = algo.state_bytes(&state);
            (state, bytes)
        };
        Session {
            algo,
            topo,
            store: Store::new(topo, init),
            max_lag: driver.max_lag,
            recovery: Recovery::new(driver.node_failures, driver.virtual_nodes, k),
            meter: SessionMeter::new(k),
            obs: recorder.map_or_else(SessionObs::default, |rec| SessionObs::new(rec, k)),
            parts: (0..k)
                .map(|_| Part { absorbed: 0, launched: 0, parked: None, consumed: Vec::new() })
                .collect(),
            frontier: 0,
            // Zero partitions are vacuously at their fixed point.
            stopped: (k == 0).then_some(true),
            max_iterations: driver.max_iterations,
        }
    }

    /// **Launch.** The partition's next gmap, if its state is ready and
    /// the caps (iteration budget, runahead slack) allow.
    pub(super) fn make_launch(&mut self, p: usize) -> Option<Launch<A>> {
        let part = &self.parts[p];
        let iter = part.launched;
        if self.stopped.is_some()
            || iter != part.absorbed
            || iter >= self.max_iterations
            || iter > self.frontier + self.max_lag + RUNAHEAD_SLACK
        {
            return None;
        }
        self.parts[p].launched += 1;
        Some(self.attempt(p, iter, 0))
    }

    fn push_launch(&mut self, p: usize, wave: &mut Wave<Launch<A>>) {
        if let Some(launch) = self.make_launch(p) {
            wave.push(p, launch);
        }
    }

    /// Attempt `attempt` of `p`'s gmap at `iter`, on the retained input
    /// state (a retry re-runs on the same immutable `Arc`).
    fn attempt(&mut self, p: usize, iter: usize, attempt: u32) -> Launch<A> {
        // `value` carries the attempt number: ≥ 1 marks a retry.
        self.obs.mark(MarkKind::Launch, p, iter, u64::from(attempt));
        Launch {
            p,
            iter,
            attempt,
            generation: self.recovery.generation(p),
            state: Arc::clone(self.store.state(p, iter)),
            outbox: Outbox::new(self.parts.len()),
        }
    }

    /// **Complete → deliver.** One attempt reported back.
    pub(super) fn complete(&mut self, done: AttemptDone<A>, wave: &mut Wave<Launch<A>>) {
        let AttemptDone { launch, start_ns, elapsed, output } = done;
        let Launch { p, iter, attempt, generation, outbox, .. } = launch;
        // An attempt orphaned by a node-failure rollback: its input
        // state was rewound, so its output — even a successful one —
        // describes a version of the computation that no longer exists.
        // The rollback already relaunched the partition.
        let orphaned = generation != self.recovery.generation(p);
        let Some(out) = output.filter(|_| !orphaned) else {
            // Died or orphaned: wasted work, and nothing else to undo —
            // the attempt delivered no messages and no update, so every
            // consumer still sees exactly the last *delivered* version
            // per source. A dead attempt's partition stays un-absorbed
            // at `iter` until a retry delivers (unless the run already
            // stopped and no longer needs it).
            self.meter.attempt_failed(elapsed);
            if !orphaned && self.stopped.is_none() {
                debug_assert_eq!(self.parts[p].absorbed, iter, "a failed gmap was not absorbed");
                wave.push(p, self.attempt(p, iter, attempt + 1));
            }
            return;
        };
        if self.stopped.is_some() {
            // A straggler finishing after convergence/cap: its output
            // can no longer influence the result.
            self.meter.gmap_succeeded(elapsed);
            return;
        }

        // Record the task for simulated replay: it waited on the absorb
        // that enabled it, i.e. on that absorb's own gmap and on the
        // producers of the batches it consumed.
        let spec = AsyncTaskSpec {
            partition: p,
            iteration: iter,
            input_bytes: out.input_bytes,
            ops: out.ops,
            output_records: out.msg_records,
            output_bytes: out.msg_bytes,
            deps: iter.checked_sub(1).map_or_else(Vec::new, |prev| self.dep_edges(p, prev)),
        };
        self.meter.gmap_done(spec, out.local_syncs, elapsed);
        self.obs.task(start_ns, elapsed);

        let t0 = self.obs.clock();
        self.store.deliver(self.topo, p, iter, outbox);
        self.obs.span(SpanKind::Deliver, p, iter, 0, t0);

        debug_assert!(self.parts[p].parked.is_none(), "one gmap in flight per partition");
        debug_assert_eq!(iter, self.parts[p].absorbed, "absorbs are strictly in iteration order");
        self.parts[p].parked = Some(out.update);
        self.try_absorb(p, wave);
        let topo = self.topo;
        for &(dest, _) in topo.consumers(p) {
            self.try_absorb(dest, wave);
        }
    }

    /// Schedule entries the gmap enabled by `p`'s absorb of `i` waited
    /// on: `p`'s own gmap of `i` plus the producer of every batch that
    /// absorb consumed. Valid for as long as that gmap can still report
    /// in: rolling back any of these entries rewinds `p` too.
    fn dep_edges(&self, p: usize, i: usize) -> Vec<usize> {
        let consumed = self.topo.deps(p).iter().zip(&self.parts[p].consumed[i]);
        let mut edges = vec![self.meter.task_of(p, i)];
        edges.extend(consumed.map(|(&q, &sel)| self.meter.task_of(q, sel)));
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// **Absorb.** Absorbs the partition's parked iteration if every
    /// dependency has delivered a fresh-enough batch.
    fn try_absorb(&mut self, p: usize, wave: &mut Wave<Launch<A>>) {
        let part = &self.parts[p];
        if self.stopped.is_some() || part.parked.is_none() {
            return;
        }
        let i = part.absorbed;

        // Staleness bound: per dependency, use the freshest batch of
        // iteration ≤ i, requiring it be ≥ i − max_lag.
        let min_fresh = i.saturating_sub(self.max_lag);
        let mut selected = Vec::with_capacity(self.topo.deps(p).len());
        for freshest in self.store.freshest(p, i) {
            let Some(key) = freshest.filter(|&key| key >= min_fresh) else {
                // Blocked: not delivered yet, or too stale.
                self.obs.open_stall(p, i);
                return;
            };
            selected.push(key);
        }
        self.obs.close_stall(p);

        let update = self.parts[p].parked.take().expect("checked above");
        let t0 = self.obs.clock();
        let inbox = self.store.inbox(p, self.topo.deps(p), &selected);
        let absorbed = self.algo.absorb(p, i, self.store.state(p, i), update, &inbox);
        self.obs.span(SpanKind::Absorb, p, i, 0, t0);

        let bytes = self.algo.state_bytes(&absorbed.state);
        let keep_from = self.recovery.batch_floor(i + 1, self.max_lag);
        self.store.commit(p, absorbed.state, bytes, keep_from);
        self.parts[p].absorbed = i + 1;
        self.parts[p].consumed.push(selected);
        self.meter.absorbed(p, i, absorbed.ops, absorbed.delta);
        self.advance_frontier(wave);
        self.push_launch(p, wave);
    }

    /// **Advance.** Moves the globally-complete frontier, declaring
    /// checkpoints, evaluating convergence and node-failure epochs, and
    /// releasing runahead-capped partitions as it goes.
    fn advance_frontier(&mut self, wave: &mut Wave<Launch<A>>) {
        let k = self.parts.len();
        while self.meter.fully_absorbed(self.frontier, k) {
            self.frontier += 1;
            let frontier = self.frontier;

            // Coordinated checkpoint declaration: every partition has
            // absorbed iteration frontier − 1, so every state entering
            // the new frontier exists — the policy decides whether it
            // becomes the new rollback target.
            let snapshot = || self.store.snapshot_bytes(frontier);
            if let Some(bytes) = self.recovery.on_frontier_advance(frontier, snapshot) {
                self.obs.mark(MarkKind::CheckpointCommit, 0, frontier, bytes);
            }
            self.store.prune_states(self.recovery.state_floor(frontier));

            // Barrier-equivalent convergence: max_lag + 1 consecutive
            // fully-absorbed iterations must pass the test (for lag 0
            // this is exactly the barrier rule).
            let window = self.max_lag + 1;
            if frontier >= window
                && (frontier - window..frontier)
                    .all(|j| self.algo.converged(self.meter.max_delta(j)))
            {
                self.stopped = Some(true);
                self.obs.mark(MarkKind::Converged, 0, frontier - 1, 0);
                return;
            }
            if frontier >= self.max_iterations {
                self.stopped = Some(false);
                return;
            }

            let fired = self.recovery.draw_deaths();
            if !fired.is_empty() {
                self.meter.rollbacks += fired.len();
                self.rollback(&fired, wave);
                return;
            }

            // The frontier moved: runahead-capped partitions may go.
            for p in 0..k {
                self.push_launch(p, wave);
            }
        }
    }

    /// Rewinds everything the dying virtual nodes `fired` contaminated
    /// back to the last declared checkpoint `C` and relaunches it from
    /// the checkpointed states. Each rewound partition's delivered
    /// batches ≥ `C` are revoked from consumer mailboxes (re-execution
    /// re-delivers byte-identical ones), its meter contributions and
    /// schedule entries ≥ `C` are unwound (re-execution re-records
    /// them), and its in-flight attempts are orphaned by the generation
    /// bump. Unaffected partitions keep their in-flight work and
    /// re-drive the frontier as deliveries resume.
    fn rollback(&mut self, fired: &[usize], wave: &mut Wave<Launch<A>>) {
        let t0 = self.obs.clock();
        let c = self.recovery.checkpoint();
        debug_assert!(c <= self.frontier, "checkpoints are declared at frontier advances");
        let consumed: Vec<_> = self.parts.iter().map(|part| part.consumed.as_slice()).collect();
        let rewound = self.recovery.rewind_set(self.topo.consumers_table(), fired, &consumed);
        for &x in &rewound {
            self.store.rewind(self.topo, x, c);
            self.meter.unwind(x, c);
            let part = &mut self.parts[x];
            part.consumed.truncate(c);
            part.parked = None;
            part.absorbed = c;
            part.launched = c;
        }
        self.frontier = self.frontier.min(c);
        for &x in &rewound {
            self.push_launch(x, wave);
        }
        // One span per rollback event: `partition` = lowest rewound
        // partition, `iteration` = the checkpoint rewound to,
        // `attempt` = rewound partition count.
        let lowest = rewound.first().copied().unwrap_or(0);
        self.obs.span(SpanKind::Rollback, lowest, c, rewound.len() as u32, t0);
    }

    /// Builds the outcome: final states at the result iteration, meters
    /// over contributing iterations only, and the contributing slice of
    /// the schedule (speculative tasks filtered out, indices remapped).
    /// The report is audited on the way out ([`SessionReport::audit`]).
    pub(super) fn finish(
        mut self,
        wall_time: Duration,
        pool: PoolMetrics,
    ) -> SessionOutcome<A::State> {
        // Converged at f ⇒ the frontier stopped at f + 1; capped ⇒ it
        // stopped at the cap. Either way it is the result iteration.
        let iterations = self.frontier;
        let states =
            (0..self.parts.len()).map(|p| Arc::clone(self.store.state(p, iterations))).collect();
        let (schedule, remap) = self.meter.take_schedule(iterations);
        let (local_syncs, total_ops, speculative_time) = self.meter.totals(iterations);
        let consumed: Vec<_> = self.parts.iter().map(|part| &part.consumed[..iterations]).collect();
        let report = SessionReport {
            global_iterations: iterations,
            converged: self.stopped == Some(true),
            local_syncs,
            total_ops,
            gmap_tasks: schedule.len(),
            speculative_tasks: self.meter.executed - schedule.len(),
            speculative_time,
            failed_attempts: self.meter.failed_attempts,
            failed_attempt_time: self.meter.failed_time,
            rollbacks: self.meter.rollbacks,
            rolled_back_iterations: self.meter.rolled_back_iterations,
            checkpoint_bytes: self.recovery.checkpoint_bytes(),
            peak_state_bytes: self.store.peak(),
            max_lag: self.max_lag,
            observed_staleness: staleness_histogram(&consumed),
            wall_time,
            pool,
            trace: self.obs.finish(&remap, self.meter.metered_gmap_ns()),
            schedule,
        };
        let dep_slots = (0..self.parts.len()).map(|p| self.topo.deps(p).len()).sum();
        // The most states one partition can retain: `make_launch` lets
        // it launch up to `frontier + max_lag + RUNAHEAD_SLACK`, so it
        // absorbs up to one past that, and its history reaches back to
        // the retention floor — the frontier, or under node failures the
        // last checkpoint, which trails any frontier a launch saw by at
        // most `checkpoint_tail`. `floor ..= absorbed` is that many states.
        let bound = self.max_lag + RUNAHEAD_SLACK + 2 + self.recovery.checkpoint_tail();
        report.audit(self.parts.len(), dep_slots, (self.store.max_retained(), bound));
        SessionOutcome { states, report }
    }
}

/// How stale every absorbed dependency batch in the given consumption
/// logs was: `[s]` counts the batches read `s` iterations behind (see
/// [`SessionReport::observed_staleness`]).
fn staleness_histogram(consumed: &[&[Vec<usize>]]) -> Vec<u64> {
    let mut hist = Vec::new();
    for log in consumed {
        for (i, selected) in log.iter().enumerate() {
            for &key in selected {
                let stale = i - key;
                if stale >= hist.len() {
                    hist.resize(stale + 1, 0);
                }
                hist[stale] += 1;
            }
        }
    }
    hist
}
