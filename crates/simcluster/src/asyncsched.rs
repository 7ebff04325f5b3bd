//! Replaying *cross-iteration eager* schedules on the simulated
//! cluster — the async half of the unified event core.
//!
//! [`Simulation::run_job`] models one barrier-synchronized MapReduce
//! job: per-job setup, map waves, a shuffle that cannot finish before
//! the last map, reduce waves, cleanup — and an iterative algorithm
//! pays that whole envelope once per global iteration. An asynchronous
//! session (`asyncmr-core`'s `session` module) instead keeps one
//! long-lived task graph alive: iteration *i+1* of partition *p* starts
//! the moment the iteration-*i* outputs it depends on exist, and
//! partition state never round-trips through the DFS between
//! iterations.
//!
//! [`Simulation::run_async_schedule`] replays such a run on the same
//! [`EventCore`] the barrier path drives:
//! epoch boundaries are [`Ev::EpochStart`] events, successful attempts
//! complete as [`Ev::TaskDone`] events (stamped with a rollback
//! *generation*, the async analogue of the barrier path's node
//! incarnations), node deaths/rejoins and checkpoint boundaries are
//! trace markers, and every cross-node message edge is priced by the
//! core's pluggable [`NetworkModel`]. Placement itself stays
//! synchronous inside the epoch handler, under one of two policies
//! ([`SchedulerSpec`]): it orders the epoch's pending tasks and picks
//! among the admissible slots, each priced by pure *estimates*
//! ([`NetworkModel::estimate`]). The default, [`SchedulerSpec::List`],
//! is the greedy the goldens were pinned under: list order (a
//! topological order), earliest estimated start, ties toward the lowest
//! slot. The chosen slot's message edges are then *committed* through
//! the model, which under a contention model may push the real start
//! past the estimate (greedy admission — the committed flow shares
//! capacity with everything already in flight); the gap is metered per
//! run in [`AsyncScheduleStats::commit`]. Under the
//! [`Constant`](crate::network::Constant) model commit equals estimate,
//! which is exactly the pre-refactor scheduler's arrival formula — the
//! replay-fidelity goldens are pinned there.
//!
//! Each [`AsyncTaskSpec`] is one metered `gmap` invocation; its `deps`
//! are the producer tasks whose messages it consumed (its own previous
//! iteration plus the cross-partition senders the staleness bound
//! admitted). The per-iteration `job_setup`/`job_cleanup` and the
//! global barrier disappear — which is exactly the cost the paper
//! attributes to global synchronization (§IV), so the simulated win is
//! visible for the same metered work, not just in host wall-clock.
//!
//! The replay honors the same transient-failure regime the barrier
//! [`Simulation::run_job`] path injects
//! ([`Simulation::with_failures`]): each *attempt* fails independently
//! with the configured probability (never on the last admissible
//! attempt), dies a uniform fraction of the way through its would-be
//! runtime, is detected after the TaskTracker delay, and is then
//! rescheduled onto whichever slot now gives the earliest start — on
//! the *dependency graph*, so only the failed partition's chain stalls
//! while the rest of the eager schedule keeps flowing. This makes the
//! paper's §VI claim — deterministic-replay recovery carries over to
//! partial synchronization with slightly longer recovery for the
//! coarser eager tasks — a measurable figure:
//! [`AsyncScheduleStats::recovery_time`] vs. the barrier path's
//! failure-lengthened job durations.
//!
//! ## Correlated node death (checkpoint/rollback)
//!
//! With a [`NodeFailurePlan`] installed
//! ([`Simulation::with_node_failures`]), the replay additionally models
//! the failure mode transient retries cannot absorb: a whole node
//! dying, taking **every resident task attempt and its stored outputs**
//! with it. Epochs advance with the schedule's global iterations; at
//! each epoch every node draws a deterministic death verdict
//! ([`NodeFailurePlan::dies`], capped per node). When node *n* dies at
//! epoch *e*:
//!
//! 1. every *completed* task placed on *n* whose iteration is at or
//!    past the plan's last checkpoint (iteration multiples of
//!    [`NodeFailurePlan::checkpoint_every`]) loses its stored outputs and returns to
//!    the pending set — its rollback generation is bumped, so the old
//!    attempt's [`Ev::TaskDone`] becomes a stale trace entry;
//! 2. every completed task that transitively consumed a lost output is
//!    invalidated too (its inputs can no longer be refetched) — the
//!    rollback closure over the dependency graph;
//! 3. the lost work re-executes after the node-death detection delay
//!    ([`NODE_DETECTION_DELAY`]), re-placed on the earliest-start slot
//!    **excluding the dead node**; the dead node itself rejoins (fresh
//!    slots) once the death is detected.
//!
//! [`AsyncScheduleStats::node_failures`] counts the deaths and
//! [`AsyncScheduleStats::rollback_time`] meters the serialized cost:
//! the executed durations of every rolled-back task plus the detection
//! delays. The replay remains a pure function of
//! `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
//! seed, tasks)` — identical inputs produce byte-identical schedules *and*
//! event traces, which is what lets `repro faults` price checkpoint
//! intervals under node death reproducibly.

use asyncmr_model::{underflow_count, AsyncTaskSpec, AttemptFailurePlan, NodeFailurePlan, SimTime};

use crate::cluster::ClusterSpec;
use crate::event_core::{Ev, EventCore, ASYNC};
use crate::failure::{draw_death, NODE_DETECTION_DELAY, TASK_DETECTION_DELAY};
use crate::network::NetworkModel;
use crate::sched::SchedulerSpec;
use crate::sim::Simulation;
use crate::stats::CommitAccounting;

/// Accounting for one replayed asynchronous session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncScheduleStats {
    /// Cluster clock when the session was submitted.
    pub submitted_at: SimTime,
    /// Cluster clock when the session (including cleanup) finished.
    pub finished_at: SimTime,
    /// `finished_at - submitted_at`.
    pub duration: SimTime,
    /// Tasks replayed.
    pub tasks: usize,
    /// Bytes that crossed the network (cross-node message edges plus
    /// remote DFS reads are not modeled separately here — message
    /// traffic only).
    pub network_bytes: u64,
    /// Injected attempts that died and were re-executed.
    pub failed_attempts: usize,
    /// Simulated time lost to failures: dead-attempt runtime plus
    /// detection delays, summed over failed attempts. (Serialized
    /// recovery cost — slot-level, before any overlap with the rest of
    /// the eager schedule, which usually hides part of it.)
    pub recovery_time: SimTime,
    /// Injected correlated node deaths (0 without a
    /// [`NodeFailurePlan`]).
    pub node_failures: usize,
    /// Simulated time lost to node deaths: the executed durations of
    /// every task rolled back past a checkpoint (directly resident on
    /// the dead node, or transitively dependent on a lost output) plus
    /// the node-death detection delays. Serialized cost, like
    /// [`AsyncScheduleStats::recovery_time`].
    pub rollback_time: SimTime,
    /// Cluster clock when the session's setup envelope ended and the
    /// first placement could dispatch (trace-analysis anchor: the head
    /// wait of a source task is `task_start - setup_done`).
    pub setup_done: SimTime,
    /// Completion instant of the last task (the schedule frontier);
    /// `finished_at = work_end + job_cleanup`. Equals `setup_done` for
    /// an empty schedule.
    pub work_end: SimTime,
    /// Per-task completion instants, in spec order — the schedule
    /// itself, exposed so determinism tests can pin "byte-identical
    /// schedules", not just identical aggregates.
    pub task_finish: Vec<SimTime>,
    /// Per-task start instants of the successful attempt, in spec order
    /// (`task_finish[i] - task_start[i]` is the attempt's occupancy:
    /// launch + read + compute + sort).
    pub task_start: Vec<SimTime>,
    /// Per-task placement (node id of the successful attempt), in spec
    /// order.
    pub task_node: Vec<usize>,
    /// Per-task critical input edge of the successful attempt: the
    /// dependency whose committed message arrival at the chosen node
    /// was latest, with that arrival instant (`None` for source tasks).
    /// Ties keep the lowest dependency index. This is what lets
    /// [`crate::trace`] walk the recorded schedule's critical path and
    /// split each hop into wire time (`arrival - task_finish[dep]`) and
    /// queue wait (`task_start[i] - arrival`) without re-running the
    /// network model.
    pub task_crit_dep: Vec<Option<(usize, SimTime)>>,
    /// Name of the policy that placed this run
    /// ([`SchedulerSpec::name`]).
    pub scheduler: &'static str,
    /// Estimate-then-commit accounting: contention overruns past the
    /// placement estimates, and (always-zero unless a model is buggy)
    /// early-commit violations.
    pub commit: CommitAccounting,
}

impl Simulation {
    /// Replays an eager cross-iteration schedule, advancing the cluster
    /// clock. See the [module docs](self) for the model.
    ///
    /// Scheduling policy (the default [`SchedulerSpec::List`]): tasks
    /// are visited in list order (a topological order — `deps` always
    /// point backwards) and each is placed on the map slot giving it the
    /// earliest estimated start, where start = max(slot free, session
    /// setup done, every dependency's message arrival at that slot's
    /// node); [`SchedulerSpec::Heft`] visits by upward rank and keeps
    /// the earliest estimated finish instead. Ties break toward the
    /// lowest-indexed slot, so the replay is a pure function of
    /// `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
    /// SchedulerSpec, seed, tasks)` — the async analogue of the contract
    /// [`Simulation::run_job`] documents.
    ///
    /// Under an active [`AttemptFailurePlan`] each attempt may die (see
    /// the [module docs](self)); a failed attempt holds its slot until
    /// it dies, and its retry is dispatched — to the then-best slot —
    /// only after the detection delay.
    ///
    /// Under an active [`NodeFailurePlan`]
    /// ([`Simulation::with_node_failures`]) the replay additionally
    /// injects correlated node deaths with checkpoint-bounded rollback
    /// (see the [module docs](self)): dispatch proceeds epoch by epoch
    /// (one [`Ev::EpochStart`] per global iteration) so a death can
    /// take completed resident work past the last checkpoint — and
    /// everything that transitively consumed it — back into the pending
    /// set.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if a task's `deps` contain a forward
    /// reference (`dep >= task index`).
    pub fn run_async_schedule(&mut self, tasks: &[AsyncTaskSpec]) -> AsyncScheduleStats {
        let submitted_at = self.core.now();
        let underflows_before = underflow_count();
        // One session = one job-tracker envelope, however many global
        // iterations it spans.
        let setup_done = submitted_at + self.spec.job_setup;
        self.core.net_mut().advance_to(setup_done);
        self.core.clear_trace();

        // Message bytes per consumer: a producer's output is split
        // evenly across the consumers that actually waited on it.
        let mut consumers = vec![0u32; tasks.len()];
        for t in tasks {
            for &d in &t.deps {
                consumers[d] += 1;
            }
        }
        let share: Vec<u64> = tasks
            .iter()
            .zip(&consumers)
            .map(|(t, &c)| t.output_bytes / u64::from(c.max(1)))
            .collect();
        // Consumer adjacency for the transitive rollback closure (only
        // needed when deaths can fire).
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); tasks.len()];
        if self.node_failure.enabled() {
            for (i, t) in tasks.iter().enumerate() {
                for &d in &t.deps {
                    dependents[d].push(i);
                }
            }
        }

        let slots: Vec<(SimTime, usize)> = self
            .spec
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(node, n)| (0..n.map_slots).map(move |_| (setup_done, node)))
            .collect();
        assert!(!slots.is_empty(), "cluster must have at least one map slot");

        let n_nodes = self.spec.num_nodes();
        let mut run = AsyncRun {
            spec: &self.spec,
            tasks,
            failure: self.failure,
            node_plan: self.node_failure,
            sched: self.sched,
            ranks: self.sched.ranks(tasks, &share, &self.spec, self.core.net()),
            share,
            dependents,
            slots,
            finish: vec![SimTime::ZERO; tasks.len()],
            start: vec![SimTime::ZERO; tasks.len()],
            crit_dep: vec![None; tasks.len()],
            node_of: vec![0usize; tasks.len()],
            dur: vec![SimTime::ZERO; tasks.len()],
            generation: vec![0u32; tasks.len()],
            done: vec![false; tasks.len()],
            gate: vec![setup_done; tasks.len()],
            excluded: vec![None; tasks.len()],
            deaths: vec![0u32; n_nodes],
            network_bytes: 0,
            failed_attempts: 0,
            recovery_time: SimTime::ZERO,
            rollback_time: SimTime::ZERO,
            node_failures: 0,
            commit: CommitAccounting::default(),
            work_end: setup_done,
        };

        // Epoch boundaries are events on the shared queue. Without a
        // node plan a single boundary admits the whole schedule (the
        // dependency gates do the sequencing); with one, each epoch is
        // its own boundary so deaths interleave with dispatch. All
        // boundaries carry the same timestamp — the queue's push-order
        // tie-breaking runs them in epoch order, and placement advances
        // the schedule frontier (`work_end`), not the event clock.
        let max_epoch = tasks.iter().map(|t| t.iteration).max().unwrap_or(0);
        if run.node_plan.enabled() {
            for epoch in 0..=max_epoch {
                self.core.schedule(setup_done, ASYNC, Ev::EpochStart { epoch });
            }
        } else {
            self.core.schedule(setup_done, ASYNC, Ev::EpochStart { epoch: max_epoch });
        }

        while let Some((_, component, ev)) = self.core.pop() {
            debug_assert_eq!(component, ASYNC, "async run owns the whole queue");
            run.on_event(&mut self.core, ev);
        }

        debug_assert!(run.done.iter().all(|&d| d), "all tasks must complete");

        // Closing utilization snapshot at the schedule frontier, so the
        // timeline does not truncate before the final transfers drain.
        // Trace-only marks appended after the last queue event: the
        // hardcoded goldens pin *stats* (unchanged), and the trace
        // fixtures are self-captured per run, so no fixture bump is
        // needed — both runs of a determinism pair carry the snapshot.
        run.snapshot_link_utilization(&mut self.core);

        run.commit.time_underflows = underflow_count() - underflows_before;

        let finished_at = run.work_end + self.spec.job_cleanup;
        self.core.set_clock(finished_at);
        self.core.net_mut().advance_to(finished_at);
        self.jobs_run += 1;

        AsyncScheduleStats {
            submitted_at,
            finished_at,
            duration: finished_at - submitted_at,
            tasks: tasks.len(),
            network_bytes: run.network_bytes,
            failed_attempts: run.failed_attempts,
            recovery_time: run.recovery_time,
            node_failures: run.node_failures,
            rollback_time: run.rollback_time,
            setup_done,
            work_end: run.work_end,
            task_finish: run.finish,
            task_start: run.start,
            task_node: run.node_of,
            task_crit_dep: run.crit_dep,
            scheduler: self.sched.name(),
            commit: run.commit,
        }
    }
}

/// The per-session driver state: the event-core component ([`ASYNC`])
/// receiving the session's epoch boundaries and task completions.
struct AsyncRun<'a> {
    spec: &'a ClusterSpec,
    tasks: &'a [AsyncTaskSpec],
    failure: AttemptFailurePlan,
    node_plan: NodeFailurePlan,
    /// The placement policy.
    sched: SchedulerSpec,
    /// The policy's per-task priorities ([`SchedulerSpec::ranks`]).
    ranks: Vec<f64>,
    /// Message bytes per consumer, per producer.
    share: Vec<u64>,
    /// Consumer adjacency (rollback closure); empty without a node plan.
    dependents: Vec<Vec<usize>>,
    /// (free time, node) per map slot.
    slots: Vec<(SimTime, usize)>,
    finish: Vec<SimTime>,
    /// Start instant of the successful attempt, per task.
    start: Vec<SimTime>,
    /// Latest-arriving committed input edge of the successful attempt:
    /// `(dep, arrival at the chosen node)`; `None` for source tasks.
    crit_dep: Vec<Option<(usize, SimTime)>>,
    node_of: Vec<usize>,
    /// Duration of the successful attempt, per task (rollback billing).
    dur: Vec<SimTime>,
    /// Rollback generation per task; stale [`Ev::TaskDone`]s carry an
    /// older one.
    generation: Vec<u32>,
    done: Vec<bool>,
    /// Per-task dispatch gate (death detection delays re-executions).
    gate: Vec<SimTime>,
    /// Placement exclusion (the node that lost the task).
    excluded: Vec<Option<usize>>,
    /// Deaths injected per node (budget enforcement).
    deaths: Vec<u32>,
    network_bytes: u64,
    failed_attempts: usize,
    recovery_time: SimTime,
    rollback_time: SimTime,
    node_failures: usize,
    /// Estimate-then-commit accounting (the promoted release-mode
    /// invariant check).
    commit: CommitAccounting,
    /// The schedule frontier: latest completion committed so far.
    work_end: SimTime,
}

impl AsyncRun<'_> {
    /// The slot the policy picks for task `i`, with its estimated start.
    ///
    /// Every admissible slot is priced by pure estimate: start =
    /// max(slot free, the task's gate, `retry_gate`, every dependency's
    /// *estimated* message arrival at that slot's node — which depends
    /// on whether its producer ran on the same node); finish adds the
    /// launch overhead, the iteration-0 DFS read and the node-speed
    /// nominal compute + sort (no straggler draw: randomness belongs to
    /// the commit). Slots on the task's excluded node are skipped
    /// unless it is the only node (the re-placement rule after a node
    /// death). The lowest [`SchedulerSpec::slot_key`] wins, the lowest
    /// slot on ties.
    fn choose_slot(
        &self,
        net: &dyn NetworkModel,
        i: usize,
        retry_gate: SimTime,
    ) -> (SimTime, usize) {
        // On a single-node cluster there is nowhere else to go: the
        // rebooted node must take its own lost work back.
        let exclude_node =
            self.excluded[i].filter(|&n| self.slots.iter().any(|&(_, node)| node != n));
        let t = &self.tasks[i];
        let gate = self.gate[i].max(retry_gate);
        let read = self.dfs_read(t);
        let mut best: Option<(SimTime, SimTime, usize)> = None;
        for (s, &(free, node)) in self.slots.iter().enumerate() {
            if exclude_node == Some(node) {
                continue;
            }
            let mut start = free.max(gate);
            for &d in &t.deps {
                debug_assert!(d < i, "async schedule must be topologically ordered");
                start =
                    start.max(net.estimate(self.node_of[d], node, self.share[d], self.finish[d]));
            }
            let speed = self.spec.nodes[node].speed;
            let compute = self.spec.cost.compute_time(t.ops, t.output_records, speed);
            let sort = self.spec.cost.sort_time(t.output_bytes, speed);
            let finish = start + self.spec.task_launch + read + compute + sort;
            let key = self.sched.slot_key(start, finish);
            if best.is_none_or(|(k, ..)| key < k) {
                best = Some((key, start, s));
            }
        }
        let (_, est_start, slot) = best.expect("at least one admissible slot");
        (est_start, slot)
    }

    /// Iteration 0 reads its split from the local DFS replica; later
    /// iterations operate on resident state (the async session never
    /// round-trips through the DFS).
    fn dfs_read(&self, task: &AsyncTaskSpec) -> SimTime {
        if task.iteration == 0 {
            SimTime::from_secs_f64(task.input_bytes as f64 / self.spec.disk_bandwidth)
        } else {
            SimTime::ZERO
        }
    }

    /// Dispatches task `i` (attempt loop included) onto the slot the
    /// policy chooses ([`AsyncRun::choose_slot`]) and records its
    /// finish/node/duration.
    ///
    /// The chosen slot's cross-node edges are committed through the
    /// network model, which may push the real start past the estimate
    /// under contention (and matches it exactly under
    /// [`crate::network::Constant`]); the gap is metered in
    /// [`AsyncScheduleStats::commit`]. Under an active
    /// [`AttemptFailurePlan`] each attempt may die a uniform fraction
    /// of the way through, holding its slot until the death; the retry
    /// waits out the detection delay.
    fn place(&mut self, core: &mut EventCore, i: usize) {
        let task = &self.tasks[i];
        let gate = self.gate[i];
        let mut attempt = 0u32;
        // A retry cannot be dispatched before the previous attempt's
        // death is detected.
        let mut retry_gate = gate;
        loop {
            let (est_start, slot) = self.choose_slot(core.net(), i, retry_gate);
            let node = self.slots[slot].1;
            // Commit the chosen slot's cross-node edges. Every attempt
            // refetches its inputs (Hadoop re-reads map outputs on
            // re-execution); under a contention model the committed
            // arrivals may exceed the estimates that ranked this slot.
            let mut start = self.slots[slot].0.max(gate).max(retry_gate);
            // Track the latest-arriving input edge (ties keep the
            // lowest dep index): the hop the trace analyzer follows
            // when it walks the recorded critical path.
            let mut crit: Option<(usize, SimTime)> = None;
            for &d in &task.deps {
                let arrival = if self.node_of[d] == node {
                    self.finish[d]
                } else {
                    let share = self.share[d];
                    self.network_bytes += share;
                    let arrival =
                        core.net_mut().transfer(self.node_of[d], node, share, self.finish[d]);
                    core.mark(
                        arrival,
                        ASYNC,
                        Ev::TransferDone { src: self.node_of[d], dst: node, bytes: share },
                    );
                    arrival
                };
                if crit.is_none_or(|(_, a)| arrival > a) {
                    crit = Some((d, arrival));
                }
                start = start.max(arrival);
            }
            // The estimate-then-commit invariant, promoted from a
            // debug_assert to release-mode accounting: a commit may
            // only be delayed past the estimate that ranked its slot.
            if start < est_start {
                self.commit.violations += 1;
                debug_assert!(start >= est_start, "commitment can only delay the estimate");
            } else if start > est_start {
                self.commit.overruns += 1;
                self.commit.overrun_time += start - est_start;
            }

            let read = self.dfs_read(task);
            let speed = self.spec.nodes[node].speed;
            let straggle = core.straggler(self.spec.straggler_sigma);
            let compute =
                self.spec.cost.compute_time(task.ops, task.output_records, speed).scale(straggle);
            let sort = self.spec.cost.sort_time(task.output_bytes, speed);
            let end = start + self.spec.task_launch + read + compute + sort;

            if let Some(frac) = draw_death(&self.failure, core.rng(), attempt) {
                // Dies a uniform fraction of the way through; the slot
                // is occupied until the death, the retry waits out the
                // detection delay.
                let died = start + (end - start).scale(frac);
                self.slots[slot].0 = died;
                self.failed_attempts += 1;
                self.recovery_time += (died - start) + TASK_DETECTION_DELAY;
                retry_gate = died + TASK_DETECTION_DELAY;
                attempt += 1;
                continue;
            }

            self.finish[i] = end;
            self.start[i] = start;
            self.crit_dep[i] = crit;
            self.node_of[i] = node;
            self.dur[i] = end - start;
            self.slots[slot].0 = end;
            self.work_end = self.work_end.max(end);
            core.schedule(
                end,
                ASYNC,
                Ev::TaskDone { task: i, node, generation: self.generation[i] },
            );
            return;
        }
    }

    /// Trace-only: snapshots live link utilization at the current
    /// schedule frontier (`work_end`), so post-hoc trace analysis can
    /// see the contention in flight. Only links with traffic are
    /// marked; models without a utilization notion emit nothing.
    /// Called at every epoch boundary and once more at simulation end
    /// (so timelines do not truncate before the final transfers drain).
    fn snapshot_link_utilization(&self, core: &mut EventCore) {
        let snapshot: Vec<(usize, u64, u64)> = {
            let util = core.net().utilization();
            let caps = core.net().capacities();
            util.iter()
                .zip(&caps)
                .enumerate()
                .filter(|&(_, (&u, _))| u > 0.0)
                .map(|(l, (&u, &c))| (l, u.round() as u64, c.round() as u64))
                .collect()
        };
        for (link, used_bps, cap_bps) in snapshot {
            core.mark(self.work_end, ASYNC, Ev::LinkUtil { link, used_bps, cap_bps });
        }
    }

    /// Draws the epoch's death verdicts and rolls lost work — resident
    /// completions past the last checkpoint plus their transitive
    /// consumers — back into the pending set for re-placement off the
    /// dead node.
    fn inject_deaths(&mut self, core: &mut EventCore, epoch: usize) {
        let n_nodes = self.spec.num_nodes();
        #[allow(clippy::needless_range_loop)] // `node` indexes several parallel per-node views
        for node in 0..n_nodes {
            if !self.node_plan.dies(node, epoch as u64, self.deaths[node]) {
                continue;
            }
            self.deaths[node] += 1;
            self.node_failures += 1;
            let ckpt = self.node_plan.last_checkpoint(epoch);
            let died_at = self.work_end;
            let redispatch = died_at + NODE_DETECTION_DELAY;
            core.mark(died_at, ASYNC, Ev::NodeDeath { node });
            core.mark(redispatch, ASYNC, Ev::NodeRejoin { node });

            // Directly lost: completed tasks resident on the dead node
            // whose outputs post-date the last checkpoint.
            let mut lost: Vec<usize> = (0..self.tasks.len())
                .filter(|&t| {
                    self.done[t] && self.node_of[t] == node && self.tasks[t].iteration >= ckpt
                })
                .collect();
            // Transitively lost: completed consumers of a lost output,
            // to a fixpoint over the dependency graph.
            let mut queue = lost.clone();
            while let Some(t) = queue.pop() {
                for &c in &self.dependents[t] {
                    if self.done[c] && !lost.contains(&c) {
                        lost.push(c);
                        queue.push(c);
                    }
                }
            }
            for &t in &lost {
                self.done[t] = false;
                self.rollback_time += self.dur[t];
                self.gate[t] = self.gate[t].max(redispatch);
                self.excluded[t] = Some(node);
                self.generation[t] += 1;
            }
            self.rollback_time += NODE_DETECTION_DELAY;
            // The node reboots with clean state: its slots rejoin once
            // the death is detected.
            for slot in self.slots.iter_mut().filter(|(_, sn)| *sn == node) {
                slot.0 = slot.0.max(redispatch);
            }
        }
    }

    /// Handles one event popped from the core's queue.
    fn on_event(&mut self, core: &mut EventCore, ev: Ev) {
        match ev {
            Ev::EpochStart { epoch } => {
                if self.node_plan.enabled() {
                    if self.node_plan.last_checkpoint(epoch) == epoch {
                        // Trace-only: the session checkpointed its
                        // resident state (no traffic billed — the
                        // legacy cost model, kept for fidelity).
                        core.mark(self.work_end, ASYNC, Ev::Checkpoint { epoch });
                    }
                    // Verdicts at the epoch boundary — before this
                    // epoch's tasks dispatch, so a death can only take
                    // work of earlier epochs (what is resident by now).
                    self.inject_deaths(core, epoch);
                }
                // Trace-only: snapshot live link utilization at the
                // boundary, so post-hoc trace analysis can see the
                // contention each placement decision faced.
                self.snapshot_link_utilization(core);
                // (Re-)dispatch everything pending up to this epoch.
                // The pending set is collected in index order (a
                // topological order); the policy may reorder it but
                // keeps deps before their consumers, so a rolled-back
                // producer is re-placed before any consumer that needs
                // its fresh finish time.
                let mut pending: Vec<usize> = (0..self.tasks.len())
                    .filter(|&i| !self.done[i] && self.tasks[i].iteration <= epoch)
                    .collect();
                self.sched.order(&self.ranks, &mut pending);
                for i in pending {
                    self.place(core, i);
                    self.done[i] = true;
                }
            }
            Ev::TaskDone { task, generation, .. } => {
                // Completions drive nothing (placement already
                // committed the schedule); they exist so the trace
                // tells the whole story. A stale generation is a
                // rolled-back attempt.
                if generation == self.generation[task] {
                    debug_assert!(self.done[task], "a current-generation completion must be final");
                }
            }
            other => unreachable!("async run received foreign event {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::network::TopologyAware;
    use asyncmr_model::{JobSpec, MapTaskSpec};

    fn sim(seed: u64) -> Simulation {
        Simulation::new(ClusterSpec::ec2_2010(), seed)
    }

    /// `iters` iterations of `k` partitions, ring dependencies
    /// (partition p waits on p−1, p, p+1 of the previous iteration).
    fn ring_schedule(k: usize, iters: usize, ops: u64) -> Vec<AsyncTaskSpec> {
        let mut tasks = Vec::new();
        for it in 0..iters {
            for p in 0..k {
                let mut spec = AsyncTaskSpec::new(p, it, 16 << 20, ops).with_output(1_000, 64_000);
                if it > 0 {
                    let base = (it - 1) * k;
                    let mut deps = vec![base + (p + k - 1) % k, base + p, base + (p + 1) % k];
                    deps.sort_unstable();
                    deps.dedup();
                    spec = spec.with_deps(deps);
                }
                tasks.push(spec);
            }
        }
        tasks
    }

    #[test]
    fn deterministic_given_seed() {
        let tasks = ring_schedule(8, 5, 40_000_000);
        let a = sim(9).run_async_schedule(&tasks);
        let b = sim(9).run_async_schedule(&tasks);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_under_an_identical_failure_plan() {
        // The "pure function of (ClusterSpec, AttemptFailurePlan, seed, task
        // graph)" contract, extended to the async replay: two runs with
        // identical inputs must produce byte-identical schedules
        // (per-task finish instants and placements) and stats.
        let tasks = ring_schedule(8, 5, 40_000_000);
        let plan = AttemptFailurePlan::transient(0.2);
        let a = sim(9).with_failures(plan).run_async_schedule(&tasks);
        let b = sim(9).with_failures(plan).run_async_schedule(&tasks);
        assert!(a.failed_attempts > 0, "0.2/attempt over 40 tasks must fire");
        assert_eq!(a.task_finish, b.task_finish, "schedules must be byte-identical");
        assert_eq!(a.task_node, b.task_node);
        assert_eq!(a, b);
        // A different seed perturbs the failure pattern.
        let c =
            sim(10).with_failures(AttemptFailurePlan::transient(0.2)).run_async_schedule(&tasks);
        assert_ne!(a.task_finish, c.task_finish, "seed must drive the injected pattern");
    }

    #[test]
    fn failures_lengthen_the_session_and_recovery_is_visible() {
        let tasks = ring_schedule(8, 6, 40_000_000);
        let clean = sim(5).run_async_schedule(&tasks);
        let faulty =
            sim(5).with_failures(AttemptFailurePlan::transient(0.2)).run_async_schedule(&tasks);
        assert_eq!(clean.failed_attempts, 0);
        assert_eq!(clean.recovery_time, SimTime::ZERO);
        assert!(faulty.failed_attempts > 0);
        assert!(faulty.recovery_time > SimTime::ZERO, "recovery must be metered");
        assert!(
            faulty.duration > clean.duration,
            "injected failures must cost simulated time: {} vs {}",
            faulty.duration,
            clean.duration
        );
        // Recovery never completes tasks out of the dependency order.
        assert_eq!(faulty.tasks, tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                assert!(
                    faulty.task_finish[d] < faulty.task_finish[i],
                    "task {i} finished before its dependency {d} under failures"
                );
            }
        }
    }

    #[test]
    fn higher_failure_probability_costs_more_recovery() {
        let tasks = ring_schedule(8, 6, 40_000_000);
        let low =
            sim(11).with_failures(AttemptFailurePlan::transient(0.05)).run_async_schedule(&tasks);
        let high =
            sim(11).with_failures(AttemptFailurePlan::transient(0.4)).run_async_schedule(&tasks);
        assert!(
            high.failed_attempts > low.failed_attempts,
            "p = 0.4 must kill more attempts than p = 0.05 ({} vs {})",
            high.failed_attempts,
            low.failed_attempts
        );
        assert!(high.recovery_time > low.recovery_time);
    }

    #[test]
    fn empty_schedule_costs_only_overheads() {
        let spec = ClusterSpec::ec2_2010();
        let expected = spec.job_setup + spec.job_cleanup;
        let stats = Simulation::new(spec, 1).run_async_schedule(&[]);
        assert_eq!(stats.duration, expected);
        assert_eq!(stats.tasks, 0);
    }

    #[test]
    fn dependency_chain_serializes() {
        // Two independent tasks overlap; the same two chained cannot.
        let free = vec![
            AsyncTaskSpec::new(0, 0, 1 << 20, 50_000_000),
            AsyncTaskSpec::new(1, 0, 1 << 20, 50_000_000),
        ];
        let chained = vec![
            AsyncTaskSpec::new(0, 0, 1 << 20, 50_000_000).with_output(10, 1 << 10),
            AsyncTaskSpec::new(0, 1, 1 << 20, 50_000_000).with_deps(vec![0]),
        ];
        let t_free = sim(3).run_async_schedule(&free).duration;
        let t_chained = sim(3).run_async_schedule(&chained).duration;
        assert!(t_chained > t_free, "chained {t_chained} should outlast free {t_free}");
    }

    #[test]
    fn later_iterations_skip_the_dfs_read() {
        let cold = vec![AsyncTaskSpec::new(0, 0, 256 << 20, 1_000)];
        let warm = vec![AsyncTaskSpec::new(0, 1, 256 << 20, 1_000)];
        let t_cold = sim(4).run_async_schedule(&cold).duration;
        let t_warm = sim(4).run_async_schedule(&warm).duration;
        assert!(t_cold > t_warm, "iteration 0 must pay the split read");
    }

    #[test]
    fn async_replay_beats_the_barrier_job_sequence() {
        // The headline property: same metered work, but the async
        // schedule pays one setup/cleanup envelope and no global
        // barrier, while the barrier run pays them per iteration.
        let (k, iters, ops) = (8, 6, 40_000_000);
        let tasks = ring_schedule(k, iters, ops);
        let async_secs = sim(7).run_async_schedule(&tasks).duration;

        let mut barrier = sim(7);
        let job = JobSpec::named("iter").with_maps(vec![
            MapTaskSpec::new(16 << 20, ops, 64_000)
                .with_records(1_000);
            k
        ]);
        let mut barrier_secs = SimTime::ZERO;
        for _ in 0..iters {
            barrier_secs += barrier.run_job(&job).duration;
        }
        assert!(
            async_secs.as_secs_f64() < barrier_secs.as_secs_f64() * 0.8,
            "async {async_secs} should clearly beat barrier {barrier_secs}"
        );
    }

    #[test]
    fn cross_node_messages_are_billed_to_the_network() {
        // More tasks than one node's slots forces cross-node edges.
        let tasks = ring_schedule(16, 3, 10_000_000);
        let stats = sim(5).run_async_schedule(&tasks);
        assert!(stats.network_bytes > 0, "ring messages must cross nodes");
    }

    #[test]
    fn node_deaths_roll_back_completed_work_and_meter_it() {
        let tasks = ring_schedule(8, 8, 40_000_000);
        let clean = sim(9).run_async_schedule(&tasks);
        assert_eq!(clean.node_failures, 0);
        assert_eq!(clean.rollback_time, SimTime::ZERO);

        let faulty = sim(9)
            .with_node_failures(NodeFailurePlan::correlated(0.05, 5, 2))
            .run_async_schedule(&tasks);
        assert!(faulty.node_failures > 0, "0.05/(node, epoch) over 8 epochs x 8 nodes must fire");
        // More than the bare detection delays: real executed work was
        // lost and re-run. (A death that lands exactly on a checkpoint
        // boundary loses nothing — that is the point of checkpoints —
        // so the seed is chosen to hit a mid-interval death.)
        let detection_floor = NODE_DETECTION_DELAY.scale(faulty.node_failures as f64);
        assert!(faulty.rollback_time > detection_floor, "rolled-back work must be metered");
        assert!(
            faulty.duration > clean.duration,
            "node deaths must cost simulated time: {} vs {}",
            faulty.duration,
            clean.duration
        );
        // The same dependency graph still completes, in order.
        assert_eq!(faulty.tasks, tasks.len());
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                assert!(
                    faulty.task_finish[d] < faulty.task_finish[i],
                    "task {i} finished before its dependency {d} under node deaths"
                );
            }
        }
    }

    #[test]
    fn node_death_replay_is_a_pure_function_of_its_inputs() {
        let tasks = ring_schedule(8, 8, 40_000_000);
        let plan = NodeFailurePlan::correlated(0.08, 21, 4);
        let run = |plan| sim(3).with_node_failures(plan).run_async_schedule(&tasks);
        let (a, b) = (run(plan), run(plan));
        assert!(a.node_failures > 0, "the regime must actually fire");
        assert_eq!(a.task_finish, b.task_finish, "schedules must be byte-identical");
        assert_eq!(a.task_node, b.task_node);
        assert_eq!(a, b);
        // A different verdict seed perturbs the death pattern.
        let c = sim(3)
            .with_node_failures(NodeFailurePlan::correlated(0.08, 22, 4))
            .run_async_schedule(&tasks);
        assert_ne!(a.task_finish, c.task_finish, "seed must drive the injected deaths");
    }

    #[test]
    fn node_deaths_compose_with_transient_attempt_failures() {
        let tasks = ring_schedule(8, 6, 40_000_000);
        let stats = sim(5)
            .with_failures(AttemptFailurePlan::transient(0.15))
            .with_node_failures(NodeFailurePlan::correlated(0.05, 7, 2))
            .run_async_schedule(&tasks);
        assert!(stats.failed_attempts > 0, "attempt deaths must fire");
        assert!(stats.node_failures > 0, "node deaths must fire");
        assert!(stats.recovery_time > SimTime::ZERO);
        assert!(stats.rollback_time > SimTime::ZERO);
    }

    #[test]
    fn per_node_death_budget_caps_the_injection() {
        // Near-certain deaths: the per-node budget bounds how many fire,
        // and the replay still terminates.
        let tasks = ring_schedule(4, 12, 10_000_000);
        let mut s = sim(1).with_node_failures(NodeFailurePlan::correlated(0.9, 2, 1));
        let budget = NodeFailurePlan::MAX_DEATHS as usize * s.spec().num_nodes();
        let stats = s.run_async_schedule(&tasks);
        assert!(stats.node_failures <= budget, "the per-node budget must bound deaths");
        assert!(stats.node_failures > budget / 2, "0.9 per epoch should exhaust most budgets");
        assert_eq!(stats.tasks, tasks.len());
    }

    #[test]
    fn single_node_cluster_survives_its_own_death() {
        // test_local is a 1-node cluster: the dead node is the only
        // possible re-placement target, so the exclusion must yield
        // rather than leave the lost work unplaceable.
        let tasks = ring_schedule(2, 6, 5_000_000);
        let stats = Simulation::new(ClusterSpec::test_local(4, 2), 1)
            .with_node_failures(NodeFailurePlan::correlated(0.9, 1, 3))
            .run_async_schedule(&tasks);
        assert!(stats.node_failures > 0, "0.9 per epoch must fire");
        assert_eq!(stats.tasks, tasks.len(), "all work must still complete");
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn literally_constructed_node_plan_is_rejected_at_injection() {
        let plan = NodeFailurePlan { node_failure_prob: 1.5, ..NodeFailurePlan::none() };
        let _ = Simulation::new(ClusterSpec::ec2_2010(), 1).with_node_failures(plan);
    }

    #[test]
    #[should_panic(expected = "at least one map slot")]
    fn literally_constructed_zero_slot_cluster_is_rejected_at_injection() {
        let _ = Simulation::new(ClusterSpec::test_local(0, 2), 1);
    }

    #[test]
    fn stats_name_the_scheduler_that_placed_the_run() {
        let tasks = ring_schedule(4, 2, 1_000_000);
        assert_eq!(sim(1).run_async_schedule(&tasks).scheduler, "list");
        let heft = Simulation::new(ClusterSpec::ec2_2010(), 1)
            .with_scheduler(SchedulerSpec::Heft)
            .run_async_schedule(&tasks);
        assert_eq!(heft.scheduler, "heft");
    }

    #[test]
    fn commit_matches_estimate_on_the_constant_model() {
        use crate::network::Constant;
        use crate::stats::CommitAccounting;
        let spec = ClusterSpec::ec2_2010();
        let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
        let tasks = ring_schedule(16, 4, 10_000_000);
        let stats = Simulation::new(spec, 3)
            .with_network(Constant::new(n, bw, lat))
            .run_async_schedule(&tasks);
        assert_eq!(
            stats.commit,
            CommitAccounting::default(),
            "uncontended commits must equal their estimates exactly"
        );
    }

    #[test]
    fn commit_overruns_are_metered_under_shared_bandwidth() {
        // The promoted `start >= est_start` invariant, as a release-mode
        // regression: under the fair-shared fluid model a chatty
        // schedule's committed transfers land *later* than the pure
        // estimates that ranked their slots (greedy admission), and
        // never earlier.
        let spec = ClusterSpec::ec2_2010();
        let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
        let tasks = ring_schedule(16, 4, 10_000_000)
            .into_iter()
            .map(|t| {
                let (rec, _) = (t.output_records, t.output_bytes);
                t.with_output(rec, 24 << 20) // fatten the edges: real contention
            })
            .collect::<Vec<_>>();
        let stats = Simulation::new(spec, 3)
            .with_network(TopologyAware::uniform(n, bw, lat))
            .run_async_schedule(&tasks);
        assert!(stats.commit.overruns > 0, "contention must delay some commits");
        assert!(stats.commit.overrun_time > SimTime::ZERO);
        assert_eq!(stats.commit.violations, 0, "no commit may beat its estimate");
    }

    #[test]
    fn heft_beats_greedy_on_heterogeneous_nodes() {
        // The tentpole's payoff mechanism: the greedy default ranks by
        // estimated *start* and so happily feeds early-free slots on
        // slow nodes; HEFT ranks by estimated *finish* at each node's
        // real speed. With half the cluster at quarter speed the
        // critical path through slow nodes dominates the greedy
        // makespan.
        let spec = ClusterSpec::ec2_2010().with_slow_nodes(4, 0.25);
        let tasks = ring_schedule(8, 6, 40_000_000);
        let greedy = Simulation::new(spec.clone(), 7).run_async_schedule(&tasks);
        let heft =
            Simulation::new(spec, 7).with_scheduler(SchedulerSpec::Heft).run_async_schedule(&tasks);
        assert!(
            heft.duration.as_secs_f64() < greedy.duration.as_secs_f64() * 0.9,
            "HEFT {} must beat greedy {} by >= 10% on a half-slow cluster",
            heft.duration,
            greedy.duration
        );
    }

    #[test]
    fn heft_is_deterministic_with_a_boundary_per_epoch() {
        // A node plan forces one boundary per epoch, so HEFT re-orders
        // every epoch's pending set by the ranks computed once, on
        // state that deaths and rollbacks have changed. Repeating the
        // run must reproduce every placement and finish.
        let tasks = ring_schedule(8, 6, 20_000_000);
        let run = || {
            Simulation::new(ClusterSpec::ec2_2010(), 9)
                .with_node_failures(NodeFailurePlan::correlated(0.2, 3, 1))
                .with_scheduler(SchedulerSpec::Heft)
                .run_async_schedule(&tasks)
        };
        let (a, b) = (run(), run());
        assert!(a.node_failures > 0, "the regime must actually fire");
        assert_eq!(a.tasks, tasks.len(), "all work completes");
        assert_eq!(a.task_node, b.task_node, "placements are reproducible");
        assert_eq!(a.task_finish, b.task_finish, "finishes are reproducible");
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn every_scheduler_completes_the_dag_in_dependency_order() {
        let tasks = ring_schedule(8, 5, 20_000_000);
        for sched in SchedulerSpec::ALL {
            let name = sched.name();
            let spec = ClusterSpec::ec2_2010();
            let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
            let stats = Simulation::new(spec, 11)
                .with_network(TopologyAware::uniform(n, bw, lat))
                .with_failures(AttemptFailurePlan::transient(0.15))
                .with_scheduler(sched)
                .run_async_schedule(&tasks);
            assert_eq!(stats.tasks, tasks.len(), "{name}: all work must complete");
            assert_eq!(stats.commit.violations, 0, "{name}: no early commits");
            for (i, t) in tasks.iter().enumerate() {
                for &d in &t.deps {
                    assert!(
                        stats.task_finish[d] < stats.task_finish[i],
                        "{name}: task {i} finished before its dependency {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn fluid_models_trace_link_utilization_at_epoch_boundaries() {
        // Per-epoch boundaries (node plan installed) under a fluid
        // model: whenever flows are live at a boundary, the trace
        // carries LinkUtil snapshots. The default model traces none.
        let tasks = ring_schedule(16, 4, 10_000_000);
        let spec = ClusterSpec::ec2_2010();
        let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
        // A vanishing death probability keeps the plan *enabled* (one
        // boundary per epoch) without any deaths actually firing.
        let mut s = Simulation::new(spec, 2)
            .with_network(TopologyAware::uniform(n, bw, lat))
            .with_node_failures(NodeFailurePlan::correlated(1e-12, 5, 1));
        s.run_async_schedule(&tasks);
        let snapshots =
            s.last_trace().iter().filter(|t| matches!(t.ev, Ev::LinkUtil { .. })).count();
        assert!(snapshots > 0, "live flows at an epoch boundary must be snapshotted");

        let mut plain = sim(2);
        plain.run_async_schedule(&tasks);
        let none =
            plain.last_trace().iter().filter(|t| matches!(t.ev, Ev::LinkUtil { .. })).count();
        assert_eq!(none, 0, "the default model reports no utilization");
    }

    #[test]
    fn clock_advances_and_composes_with_run_job() {
        let mut s = sim(1);
        let first = s.run_async_schedule(&ring_schedule(4, 2, 1_000_000));
        assert_eq!(s.now(), first.finished_at);
        let job =
            JobSpec::named("after")
                .with_maps(vec![MapTaskSpec::new(1 << 20, 1_000_000, 1 << 10); 4]);
        let stats = s.run_job(&job);
        assert_eq!(stats.submitted_at, first.finished_at);
        assert_eq!(s.jobs_run(), 2);
    }

    #[test]
    fn trace_records_epochs_completions_and_deaths() {
        let tasks = ring_schedule(4, 3, 1_000_000);
        let mut s = sim(2);
        let stats = s.run_async_schedule(&tasks);
        let trace = s.last_trace();
        let epochs = trace.iter().filter(|t| matches!(t.ev, Ev::EpochStart { .. })).count();
        assert_eq!(epochs, 1, "no node plan: one boundary admits the whole schedule");
        let dones = trace.iter().filter(|t| matches!(t.ev, Ev::TaskDone { .. })).count();
        assert_eq!(dones, stats.tasks, "every completion is traced");

        let mut s = sim(2).with_node_failures(NodeFailurePlan::correlated(0.3, 5, 1));
        let stats = s.run_async_schedule(&tasks);
        let trace = s.last_trace();
        let epochs = trace.iter().filter(|t| matches!(t.ev, Ev::EpochStart { .. })).count();
        assert_eq!(epochs, 3, "one boundary per iteration under a node plan");
        let deaths = trace.iter().filter(|t| matches!(t.ev, Ev::NodeDeath { .. })).count();
        assert_eq!(deaths, stats.node_failures, "every injected death is traced");
        let ckpts = trace.iter().filter(|t| matches!(t.ev, Ev::Checkpoint { .. })).count();
        assert_eq!(ckpts, 3, "interval 1: a checkpoint marker per epoch");
    }
}
