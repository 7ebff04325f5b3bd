//! The barrier-synchronized MapReduce driver on the unified event core.
//!
//! One [`Simulation`] owns a single [`EventCore`] — clock, `(time,
//! event_id)`-ordered queue, seeded RNG, pluggable
//! [`NetworkModel`] — and both replay
//! paths drive it: this module's [`Simulation::run_job`] (one
//! barrier-synchronized job) and the sibling
//! [`crate::asyncsched`] replay ([`Simulation::run_async_schedule`]).
//! An *iterative* MapReduce run is simply a sequence of
//! [`Simulation::run_job`] calls — exactly how Hadoop 0.20 executed
//! iterative algorithms, one job per iteration, with all state
//! round-tripping through the DFS in between.
//!
//! ## Job life cycle
//!
//! ```text
//! submit ──setup──▶ map waves (slots, locality, stragglers, failures)
//!        ╰─ shuffle transfers start as each map finishes (overlapped)
//! all maps done ──▶ exposed shuffle tail ──▶ reduce waves ──▶ cleanup
//! ```
//!
//! All scheduling decisions iterate nodes and FIFO queues in fixed
//! order, and every random draw comes from the core's one seeded RNG,
//! so a run is a pure function of
//! `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
//! seed, jobs)` — pinned bit-exactly by `tests/replay_fidelity.rs`.
//!
//! ## Correlated node death (new with the unified core)
//!
//! With a [`NodeFailurePlan`] installed, the barrier path now injects
//! whole-node deaths (previously an async-only capability): at job
//! submit each node draws a deterministic death verdict for this job's
//! epoch; a marked node dies at its *k*-th task completion (*k* ∈ 1..3,
//! also verdict-derived). A death
//!
//! 1. bumps the node's **incarnation** — in-flight completions from the
//!    old incarnation become stale and are ignored;
//! 2. requeues every attempt running on the node and every completed
//!    map whose output had not been fully fetched by the reducers
//!    (map outputs live on local disk; reduce outputs are
//!    DFS-replicated and survive), each dispatched again
//!    [`NODE_DETECTION_DELAY`] later;
//! 3. zeroes the node's slots until a [`Ev::NodeRejoin`] event restores
//!    them (detection delay later).
//!
//! Reducers that lose their fetched inputs re-enter the not-ready state
//! and re-arm once all maps (including re-executions) are done again.
//! [`JobStats::node_failures`]/[`JobStats::node_lost_tasks`] meter the
//! injection; the per-node death budget
//! ([`NodeFailurePlan::MAX_DEATHS`]) persists across the simulation's
//! jobs.

use std::collections::VecDeque;

use asyncmr_model::{
    verdict_unit, AttemptFailurePlan, JobReplay, JobSpec, JobStats, NodeFailurePlan,
    PhaseBreakdown, SimTime,
};
use rand::RngExt;

use crate::cluster::ClusterSpec;
use crate::event_core::{Ev, EventCore, TraceEvent, BARRIER};
use crate::failure::{draw_death, NODE_DETECTION_DELAY, TASK_DETECTION_DELAY};
use crate::network::{NetworkModel, NetworkState};
use crate::sched::SchedulerSpec;

/// Salt for the "at which completion does the marked node die" draw,
/// kept distinct from the death verdict itself.
const BARRIER_DEATH_SALT: u64 = 0xbadd_ead5_a17e_d001;

/// A persistent simulated cluster executing MapReduce jobs.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) spec: ClusterSpec,
    pub(crate) failure: AttemptFailurePlan,
    pub(crate) node_failure: NodeFailurePlan,
    pub(crate) core: EventCore,
    pub(crate) jobs_run: usize,
    /// The async replay's placement policy (default: the list greedy,
    /// [`SchedulerSpec::List`]).
    pub(crate) sched: SchedulerSpec,
    /// Cross-job node-death budget spent by the barrier path.
    barrier_deaths: Vec<u32>,
}

impl Simulation {
    /// Creates an idle cluster with no failure injection, on the
    /// default NIC-serialized store-and-forward network
    /// ([`NetworkState`]).
    pub fn new(spec: ClusterSpec, seed: u64) -> Self {
        let nodes = spec.num_nodes();
        assert!(nodes > 0, "cluster must have at least one node");
        assert!(
            spec.nodes.iter().any(|n| n.map_slots > 0),
            "cluster must have at least one map slot"
        );
        let net = NetworkState::new(nodes, spec.nic_bandwidth, spec.net_latency);
        Simulation {
            spec,
            failure: AttemptFailurePlan::none(),
            node_failure: NodeFailurePlan::none(),
            core: EventCore::new(seed, Box::new(net)),
            jobs_run: 0,
            sched: SchedulerSpec::List,
            barrier_deaths: vec![0; nodes],
        }
    }

    /// Selects the async replay's placement policy (builder-style,
    /// before any run). The default [`SchedulerSpec::List`] is the
    /// greedy the replay-fidelity goldens are pinned under;
    /// [`SchedulerSpec::Heft`] is the other one (see [`crate::sched`]).
    pub fn with_scheduler(mut self, sched: SchedulerSpec) -> Self {
        self.sched = sched;
        self
    }

    /// Swaps the network model both replay paths price traffic with
    /// (builder-style, before any job runs). The default is the
    /// NIC-serialized [`NetworkState`]; see [`crate::network`] for the
    /// model family.
    ///
    /// # Panics
    ///
    /// If the model's node count does not match the cluster's.
    pub fn with_network<M: NetworkModel + 'static>(mut self, model: M) -> Self {
        assert_eq!(
            model.nodes(),
            self.spec.num_nodes(),
            "network model must cover exactly the cluster's nodes"
        );
        self.core.set_net(Box::new(model));
        self
    }

    /// Enables transient-failure injection for subsequent jobs (barrier
    /// [`Simulation::run_job`] and async
    /// [`Simulation::run_async_schedule`] alike).
    ///
    /// # Panics
    ///
    /// If the plan's probability is out of range
    /// ([`AttemptFailurePlan::validate`]) — the single injection-time
    /// check that covers literally-constructed plans.
    pub fn with_failures(mut self, plan: AttemptFailurePlan) -> Self {
        plan.validate();
        self.failure = plan;
        self
    }

    /// Enables correlated node-failure injection for subsequent
    /// replays on *both* paths: async schedules roll back to the last
    /// checkpoint ([`crate::asyncsched`]); barrier jobs requeue the
    /// dead node's in-flight attempts and unfetched map outputs (see
    /// the [module docs](self)). Composes with
    /// [`Simulation::with_failures`] — both regimes can be active.
    ///
    /// `plan` is the regime the in-process session shares, checkpoint
    /// interval included (one epoch per global iteration of an async
    /// schedule, one per barrier job; rollback rewinds lost work to the
    /// plan's last checkpoint). Lost work is re-dispatched
    /// [`NODE_DETECTION_DELAY`] after the death.
    ///
    /// # Panics
    ///
    /// If the plan is out of range ([`NodeFailurePlan::validate`]) —
    /// the same injection-time check [`Simulation::with_failures`]
    /// performs.
    pub fn with_node_failures(mut self, plan: NodeFailurePlan) -> Self {
        plan.validate();
        self.node_failure = plan;
        self
    }

    /// The cluster description this simulation runs on.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current simulated wall-clock.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Number of jobs executed so far.
    pub fn jobs_run(&self) -> usize {
        self.jobs_run
    }

    /// The event trace of the most recent `run_*` call, in processing
    /// order — the observable determinism tests compare.
    pub fn last_trace(&self) -> &[TraceEvent] {
        self.core.trace()
    }

    /// Order-sensitive digest of [`Simulation::last_trace`].
    pub fn trace_digest(&self) -> u64 {
        self.core.trace_digest()
    }

    /// Analyzes the *most recent* [`Simulation::run_async_schedule`]
    /// call's recorded trace and schedule: timelines, critical path,
    /// occupancy, traffic (see [`crate::trace`]). `tasks` and `stats`
    /// must be the ones that run consumed and returned — the trace
    /// describes only the last run.
    pub fn analyze_async_run(
        &self,
        tasks: &[crate::AsyncTaskSpec],
        stats: &crate::AsyncScheduleStats,
    ) -> crate::trace::TraceAnalysis {
        crate::trace::TraceReader::new(crate::trace::RunRecord {
            tasks,
            stats,
            trace: self.last_trace(),
            nodes: self.spec.num_nodes(),
        })
        .analyze()
    }

    /// Runs one job to completion, advancing the cluster clock.
    pub fn run_job(&mut self, job: &JobSpec) -> JobStats {
        let submitted_at = self.core.now();
        let setup_done = submitted_at + self.spec.job_setup;
        self.core.net_mut().advance_to(setup_done);
        self.core.clear_trace();

        let n_nodes = self.spec.num_nodes();
        let n_maps = job.maps.len();
        let n_reduces = job.reduces.len();

        let mut run = BarrierRun {
            spec: &self.spec,
            job,
            failure: self.failure,
            reduce_node: (0..n_reduces).map(|r| r % n_nodes).collect(),
            free_map_slots: self.spec.nodes.iter().map(|n| n.map_slots).collect(),
            free_reduce_slots: self.spec.nodes.iter().map(|n| n.reduce_slots).collect(),
            pending_maps: (0..n_maps).collect(),
            map_attempts: vec![0; n_maps],
            maps_remaining: n_maps,
            maps_done_at: setup_done,
            fetch_done: vec![setup_done; n_reduces],
            ready_reduces: VecDeque::new(),
            reduce_attempts: vec![0; n_reduces],
            reduces_remaining: n_reduces,
            last_shuffle: setup_done,
            last_reduce_done: setup_done,
            failed_attempts: 0,
            local_map_tasks: 0,
            network_bytes: 0,
            incarnation: vec![0; n_nodes],
            completions: vec![0; n_nodes],
            death_at: vec![None; n_nodes],
            map_running: vec![None; n_maps],
            map_done_on: vec![None; n_maps],
            map_fetch_latest: vec![SimTime::ZERO; n_maps],
            reduce_running: vec![None; n_reduces],
            reduce_started: vec![false; n_reduces],
            node_failures: 0,
            lost_tasks: 0,
        };

        // Death verdicts for this job's epoch, drawn before any work
        // dispatches (pure verdict hashing — no RNG stream effect, so
        // failure-free runs reproduce the pre-refactor goldens).
        let node_plan = self.node_failure;
        if node_plan.enabled() {
            let epoch = self.jobs_run as u64;
            for node in 0..n_nodes {
                if node_plan.dies(node, epoch, self.barrier_deaths[node]) {
                    let u =
                        verdict_unit(node_plan.seed ^ BARRIER_DEATH_SALT, &[node as u64, epoch]);
                    // Dies at its 1st..=3rd task completion this job.
                    run.death_at[node] = Some(1 + (u * 3.0) as u32);
                }
            }
        }

        run.dispatch_maps(&mut self.core, setup_done);
        if n_maps == 0 && n_reduces > 0 {
            // Degenerate: reducers have nothing to wait for.
            for r in 0..n_reduces {
                self.core.schedule(setup_done, BARRIER, Ev::ReduceReady { task: r });
            }
        }

        while let Some((at, component, ev)) = self.core.pop() {
            debug_assert_eq!(component, BARRIER, "barrier run owns the whole queue");
            run.on_event(&mut self.core, at, ev);
        }

        debug_assert_eq!(run.maps_remaining, 0, "all maps must complete");
        debug_assert_eq!(run.reduces_remaining, 0, "all reduces must complete");
        debug_assert_eq!(
            self.core.trace().iter().filter(|t| matches!(t.ev, Ev::NodeDeath { .. })).count(),
            run.node_failures as usize,
            "trace must record every injected death"
        );

        let work_end = if n_reduces > 0 { run.last_reduce_done } else { run.maps_done_at };
        let finished_at = work_end + self.spec.job_cleanup;
        self.core.set_clock(finished_at);
        self.core.net_mut().advance_to(finished_at);
        self.jobs_run += 1;
        for (node, inc) in run.incarnation.iter().enumerate() {
            self.barrier_deaths[node] += inc;
        }

        let shuffle_end =
            if n_reduces > 0 { run.last_shuffle.max(run.maps_done_at) } else { run.maps_done_at };
        JobStats {
            name: job.name.clone(),
            submitted_at,
            finished_at,
            duration: finished_at - submitted_at,
            phases: PhaseBreakdown {
                setup: self.spec.job_setup,
                map_phase: run.maps_done_at - setup_done,
                shuffle_tail: shuffle_end - run.maps_done_at,
                reduce_phase: work_end - shuffle_end,
                cleanup: self.spec.job_cleanup,
            },
            map_tasks: n_maps,
            reduce_tasks: n_reduces,
            failed_attempts: run.failed_attempts,
            local_map_tasks: run.local_map_tasks,
            network_bytes: run.network_bytes,
            node_failures: run.node_failures,
            node_lost_tasks: run.lost_tasks,
        }
    }
}

/// What `asyncmr_core::Engine::with_simulation` drives.
impl JobReplay for Simulation {
    fn run_job(&mut self, job: &JobSpec) -> JobStats {
        Simulation::run_job(self, job)
    }
}

/// The per-job driver state: the event-core component ([`BARRIER`])
/// that receives every event of one barrier job.
struct BarrierRun<'a> {
    spec: &'a ClusterSpec,
    job: &'a JobSpec,
    failure: AttemptFailurePlan,
    /// Reducer home nodes (fetch destinations), fixed up front.
    reduce_node: Vec<usize>,
    free_map_slots: Vec<u32>,
    free_reduce_slots: Vec<u32>,
    pending_maps: VecDeque<usize>,
    map_attempts: Vec<u32>,
    maps_remaining: usize,
    maps_done_at: SimTime,
    /// Per-reducer shuffle fetch completion (running max).
    fetch_done: Vec<SimTime>,
    ready_reduces: VecDeque<usize>,
    reduce_attempts: Vec<u32>,
    reduces_remaining: usize,
    last_shuffle: SimTime,
    last_reduce_done: SimTime,
    failed_attempts: u32,
    local_map_tasks: usize,
    network_bytes: u64,
    // --- node-death machinery (all inert without a NodeFailurePlan) ---
    /// Per-node incarnation; events from older incarnations are stale.
    incarnation: Vec<u32>,
    /// Completions per node this job (the death-trigger counter).
    completions: Vec<u32>,
    /// Pending death trigger: dies at this completion count.
    death_at: Vec<Option<u32>>,
    /// Where each map attempt is currently running.
    map_running: Vec<Option<(usize, u32)>>,
    /// Node a completed map's output lives on (local disk).
    map_done_on: Vec<Option<usize>>,
    /// Latest fetch completion of a map's output (lost-output check).
    map_fetch_latest: Vec<SimTime>,
    /// Where each reduce attempt is currently running.
    reduce_running: Vec<Option<(usize, u32)>>,
    /// Whether the reducer has left the not-ready state (its
    /// `ReduceReady` was accepted); reset if a death loses its input.
    reduce_started: Vec<bool>,
    node_failures: u32,
    lost_tasks: u32,
}

impl BarrierRun<'_> {
    /// Dispatches as many pending maps onto free slots as possible.
    /// Index-based node iteration is deliberate (slot arrays are
    /// per-node ids); draw order per dispatch — locality coin,
    /// straggler, failure coin, death fraction — is pinned by the
    /// replay-fidelity goldens.
    #[allow(clippy::needless_range_loop)]
    fn dispatch_maps(&mut self, core: &mut EventCore, now: SimTime) {
        let n_nodes = self.spec.num_nodes();
        'outer: for node in 0..n_nodes {
            while self.free_map_slots[node] > 0 {
                let Some(task) = self.pending_maps.pop_front() else { break 'outer };
                self.free_map_slots[node] -= 1;
                let spec = &self.job.maps[task];
                let speed = self.spec.nodes[node].speed;

                // Locality is a seeded coin weighted by the DFS
                // model's achievable locality fraction.
                let local = core.rng().random_range(0.0..1.0) < self.spec.dfs.locality_fraction;
                if local {
                    self.local_map_tasks += 1;
                } else {
                    self.network_bytes += spec.input_bytes;
                }
                let remote_src = (node + 1 + task) % n_nodes;

                let launch_done = now + self.spec.task_launch;
                let read_done = self.spec.dfs.read(
                    core.net_mut(),
                    node,
                    remote_src,
                    spec.input_bytes,
                    local,
                    self.spec.disk_bandwidth,
                    launch_done,
                );
                let straggle = core.straggler(self.spec.straggler_sigma);
                let compute = self
                    .spec
                    .cost
                    .compute_time(spec.ops, spec.output_records, speed)
                    .scale(straggle);
                let sort = self.spec.cost.sort_time(spec.output_bytes, speed);
                let finish = read_done + compute + sort;

                let attempt = self.map_attempts[task];
                self.map_attempts[task] += 1;
                let incarnation = self.incarnation[node];
                self.map_running[task] = Some((node, incarnation));
                if let Some(frac) = draw_death(&self.failure, core.rng(), attempt) {
                    // Dies a uniform fraction of the way through.
                    let alive = finish.saturating_sub(now).scale(frac);
                    core.schedule(now + alive, BARRIER, Ev::MapFailed { task, node, incarnation });
                } else {
                    core.schedule(finish, BARRIER, Ev::MapDone { task, node, incarnation });
                }
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    fn dispatch_reduces(&mut self, core: &mut EventCore, now: SimTime) {
        let n_nodes = self.spec.num_nodes();
        'outer: for node in 0..n_nodes {
            while self.free_reduce_slots[node] > 0 {
                let Some(task) = self.ready_reduces.pop_front() else { break 'outer };
                self.free_reduce_slots[node] -= 1;
                let spec = &self.job.reduces[task];
                let speed = self.spec.nodes[node].speed;

                let shuffle_in: u64 =
                    self.job.total_shuffle_bytes() / self.job.reduces.len().max(1) as u64;
                let launch_done = now + self.spec.task_launch;
                let straggle = core.straggler(self.spec.straggler_sigma);
                let merge = self.spec.cost.merge_time(shuffle_in, speed);
                let compute = self.spec.cost.compute_time(spec.ops, 0, speed).scale(straggle);
                let compute_done = launch_done + merge + compute;

                // Pipeline-replicated DFS output write.
                let replicas: Vec<usize> = (1..self.spec.dfs.replication as usize)
                    .map(|k| (node + k) % n_nodes)
                    .filter(|&r| r != node)
                    .collect();
                self.network_bytes += spec.output_bytes * replicas.len() as u64;
                let finish = self.spec.dfs.write(
                    core.net_mut(),
                    node,
                    &replicas,
                    spec.output_bytes,
                    self.spec.disk_bandwidth,
                    compute_done,
                );

                let attempt = self.reduce_attempts[task];
                self.reduce_attempts[task] += 1;
                let incarnation = self.incarnation[node];
                self.reduce_running[task] = Some((node, incarnation));
                if let Some(frac) = draw_death(&self.failure, core.rng(), attempt) {
                    let alive = finish.saturating_sub(now).scale(frac);
                    core.schedule(
                        now + alive,
                        BARRIER,
                        Ev::ReduceFailed { task, node, incarnation },
                    );
                } else {
                    core.schedule(finish, BARRIER, Ev::ReduceDone { task, node, incarnation });
                }
            }
        }
    }

    /// Counts a fresh completion on `node` toward its pending death
    /// trigger, killing the node when the threshold is reached.
    fn after_completion(&mut self, core: &mut EventCore, now: SimTime, node: usize) {
        if let Some(k) = self.death_at[node] {
            self.completions[node] += 1;
            if self.completions[node] >= k {
                self.death_at[node] = None;
                self.kill_node(core, now, node);
            }
        }
    }

    /// Injects a node death at `now`: bump the incarnation (staling
    /// in-flight events), requeue running attempts and unfetched map
    /// outputs after the detection delay, zero the slots until rejoin.
    fn kill_node(&mut self, core: &mut EventCore, now: SimTime, node: usize) {
        let n_maps = self.job.maps.len();
        let n_reduces = self.job.reduces.len();
        self.node_failures += 1;
        self.incarnation[node] += 1;
        core.mark(now, BARRIER, Ev::NodeDeath { node });
        let redispatch = now + NODE_DETECTION_DELAY;

        // Running map attempts die with the node.
        for task in 0..n_maps {
            if let Some((n, _)) = self.map_running[task] {
                if n == node {
                    self.map_running[task] = None;
                    self.lost_tasks += 1;
                    core.schedule(redispatch, BARRIER, Ev::MapRetry { task });
                }
            }
        }
        // Completed map outputs live on the node's local disk: any not
        // yet fully fetched by the reducers is lost and re-executes.
        // (Fully-fetched outputs and DFS-replicated reduce outputs
        // survive.)
        if n_reduces > 0 && self.reduces_remaining > 0 {
            for task in 0..n_maps {
                if self.map_done_on[task] == Some(node) && self.map_fetch_latest[task] > now {
                    self.map_done_on[task] = None;
                    self.maps_remaining += 1;
                    self.lost_tasks += 1;
                    core.schedule(redispatch, BARRIER, Ev::MapRetry { task });
                }
            }
        }
        // Running reduce attempts die too; they drop back to not-ready
        // and re-arm once all maps (incl. re-executions) are done.
        let mut lost_reduces: Vec<usize> = Vec::new();
        for r in 0..n_reduces {
            if let Some((n, _)) = self.reduce_running[r] {
                if n == node {
                    self.reduce_running[r] = None;
                    self.reduce_started[r] = false;
                    self.lost_tasks += 1;
                    lost_reduces.push(r);
                }
            }
        }
        if self.maps_remaining == 0 {
            // No map work pending: re-arm the lost reducers directly
            // (otherwise the final MapDone re-arms them).
            for r in lost_reduces {
                core.schedule(
                    self.fetch_done[r].max(redispatch),
                    BARRIER,
                    Ev::ReduceReady { task: r },
                );
            }
        }
        self.free_map_slots[node] = 0;
        self.free_reduce_slots[node] = 0;
        core.schedule(redispatch, BARRIER, Ev::NodeRejoin { node });
    }

    /// Handles one event popped from the core's queue at `now`.
    fn on_event(&mut self, core: &mut EventCore, now: SimTime, ev: Ev) {
        let n_reduces = self.job.reduces.len();
        match ev {
            Ev::MapDone { task, node, incarnation } => {
                if incarnation != self.incarnation[node] {
                    return; // stale: the node died under this attempt
                }
                self.map_running[task] = None;
                self.map_done_on[task] = Some(node);
                self.maps_remaining -= 1;
                self.maps_done_at = self.maps_done_at.max(now);
                // Start shuffle fetches for this map's output.
                if n_reduces > 0 {
                    let bytes = self.job.maps[task].output_bytes;
                    let per_reduce = bytes / n_reduces as u64;
                    for r in 0..n_reduces {
                        let rnode = self.reduce_node[r];
                        if rnode != node {
                            self.network_bytes += per_reduce;
                        }
                        let done = core.net_mut().transfer(node, rnode, per_reduce, now);
                        core.mark(
                            done,
                            BARRIER,
                            Ev::TransferDone { src: node, dst: rnode, bytes: per_reduce },
                        );
                        self.fetch_done[r] = self.fetch_done[r].max(done);
                        self.map_fetch_latest[task] = self.map_fetch_latest[task].max(done);
                    }
                }
                self.free_map_slots[node] += 1;
                self.dispatch_maps(core, now);
                if self.maps_remaining == 0 {
                    // Hadoop semantics: reduce() cannot start until
                    // every map output is fetched; fetches already
                    // overlap the map phase above.
                    for r in 0..n_reduces {
                        if self.reduce_started[r] {
                            continue;
                        }
                        let ready = self.fetch_done[r].max(now);
                        core.schedule(ready, BARRIER, Ev::ReduceReady { task: r });
                    }
                }
                self.after_completion(core, now, node);
            }
            Ev::MapFailed { task, node, incarnation } => {
                if incarnation != self.incarnation[node] {
                    return; // the node death already requeued this task
                }
                self.map_running[task] = None;
                self.failed_attempts += 1;
                self.free_map_slots[node] += 1;
                core.schedule(now + TASK_DETECTION_DELAY, BARRIER, Ev::MapRetry { task });
                self.dispatch_maps(core, now);
            }
            Ev::MapRetry { task } => {
                self.pending_maps.push_back(task);
                self.dispatch_maps(core, now);
            }
            Ev::ReduceReady { task } => {
                // Stale guards (all vacuous without node deaths): maps
                // re-entered the pending set, the reducer already left
                // not-ready, or a re-executed map pushed its fetch
                // completion past this event.
                if self.maps_remaining > 0
                    || self.reduce_started[task]
                    || now < self.fetch_done[task]
                {
                    return;
                }
                self.last_shuffle = self.last_shuffle.max(now);
                self.reduce_started[task] = true;
                self.ready_reduces.push_back(task);
                self.dispatch_reduces(core, now);
            }
            Ev::ReduceDone { task, node, incarnation } => {
                if incarnation != self.incarnation[node] {
                    return;
                }
                self.reduce_running[task] = None;
                self.reduces_remaining -= 1;
                self.last_reduce_done = self.last_reduce_done.max(now);
                self.free_reduce_slots[node] += 1;
                self.dispatch_reduces(core, now);
                self.after_completion(core, now, node);
            }
            Ev::ReduceFailed { task, node, incarnation } => {
                if incarnation != self.incarnation[node] {
                    return;
                }
                self.reduce_running[task] = None;
                self.failed_attempts += 1;
                self.free_reduce_slots[node] += 1;
                core.schedule(now + TASK_DETECTION_DELAY, BARRIER, Ev::ReduceRetry { task });
            }
            Ev::ReduceRetry { task } => {
                self.ready_reduces.push_back(task);
                self.dispatch_reduces(core, now);
            }
            Ev::NodeRejoin { node } => {
                // Nothing can be running on the node (its slots were
                // zeroed at death), so a full restore is exact.
                self.free_map_slots[node] = self.spec.nodes[node].map_slots;
                self.free_reduce_slots[node] = self.spec.nodes[node].reduce_slots;
                self.dispatch_maps(core, now);
                self.dispatch_reduces(core, now);
            }
            other => unreachable!("barrier run received foreign event {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Constant, TopologyAware};
    use asyncmr_model::{MapTaskSpec, ReduceTaskSpec};

    fn small_job(maps: usize, reduces: usize) -> JobSpec {
        JobSpec::named("t")
            .with_maps(vec![MapTaskSpec::new(32 << 20, 5_000_000, 4 << 20); maps])
            .with_reduces(vec![ReduceTaskSpec::new(1_000_000, 8 << 20); reduces])
    }

    #[test]
    fn deterministic_given_seed() {
        let job = small_job(20, 8);
        let a = Simulation::new(ClusterSpec::ec2_2010(), 7).run_job(&job);
        let b = Simulation::new(ClusterSpec::ec2_2010(), 7).run_job(&job);
        assert_eq!(a, b);
        let c = Simulation::new(ClusterSpec::ec2_2010(), 8).run_job(&job);
        assert_ne!(a.duration, c.duration, "different seed should perturb stragglers");
    }

    #[test]
    fn phases_sum_to_duration() {
        let job = small_job(10, 4);
        let stats = Simulation::new(ClusterSpec::ec2_2010(), 1).run_job(&job);
        assert_eq!(stats.phases_sum(), stats.duration);
    }

    #[test]
    fn clock_advances_across_jobs() {
        let job = small_job(4, 2);
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 1);
        let s1 = sim.run_job(&job);
        let s2 = sim.run_job(&job);
        assert_eq!(s2.submitted_at, s1.finished_at);
        assert_eq!(sim.jobs_run(), 2);
    }

    #[test]
    fn more_map_waves_take_longer() {
        // Same aggregate work split into many more tasks: the per-task
        // launch overheads and waves must dominate.
        let few = JobSpec::named("few")
            .with_maps(vec![MapTaskSpec::new(64 << 20, 100_000_000, 8 << 20); 32])
            .with_reduces(vec![ReduceTaskSpec::new(1_000_000, 1 << 20); 8]);
        let many = JobSpec::named("many")
            .with_maps(vec![MapTaskSpec::new(64 << 10, 100_000, 8 << 10); 3200])
            .with_reduces(vec![ReduceTaskSpec::new(1_000_000, 1 << 20); 8]);
        let t_few = Simulation::new(ClusterSpec::ec2_2010(), 3).run_job(&few).duration;
        let t_many = Simulation::new(ClusterSpec::ec2_2010(), 3).run_job(&many).duration;
        assert!(
            t_many > t_few,
            "3200 tiny tasks ({t_many}) should outlast 32 large tasks ({t_few})"
        );
    }

    #[test]
    fn failures_lengthen_jobs_and_are_counted() {
        let job = small_job(40, 8);
        let clean = Simulation::new(ClusterSpec::ec2_2010(), 5).run_job(&job);
        let faulty = Simulation::new(ClusterSpec::ec2_2010(), 5)
            .with_failures(AttemptFailurePlan::transient(0.2))
            .run_job(&job);
        assert!(faulty.failed_attempts > 0, "20% attempt failure must trigger");
        assert!(faulty.duration > clean.duration);
    }

    #[test]
    fn empty_job_costs_only_overheads() {
        let job = JobSpec::named("empty");
        let spec = ClusterSpec::ec2_2010();
        let expected = spec.job_setup + spec.job_cleanup;
        let stats = Simulation::new(spec, 1).run_job(&job);
        assert_eq!(stats.duration, expected);
    }

    #[test]
    fn map_only_job_has_no_reduce_phase() {
        let job =
            JobSpec::named("maponly").with_maps(vec![MapTaskSpec::new(1 << 20, 1_000_000, 0); 8]);
        let stats = Simulation::new(ClusterSpec::ec2_2010(), 1).run_job(&job);
        assert_eq!(stats.phases.reduce_phase, SimTime::ZERO);
        assert_eq!(stats.phases.shuffle_tail, SimTime::ZERO);
        assert!(stats.phases.map_phase > SimTime::ZERO);
    }

    #[test]
    fn combiner_reduces_network_traffic() {
        // The engine meters what a map task emits, after any combining
        // its map did, so a combined job is one whose maps emit fewer
        // bytes.
        let plain = small_job(16, 8);
        let mut combined = small_job(16, 8);
        combined.maps.iter_mut().for_each(|m| m.output_bytes /= 10);
        let a = Simulation::new(ClusterSpec::ec2_2010(), 2).run_job(&plain);
        let b = Simulation::new(ClusterSpec::ec2_2010(), 2).run_job(&combined);
        assert!(b.network_bytes < a.network_bytes);
    }

    #[test]
    fn slow_nodes_straggle_the_job() {
        let job = small_job(32, 8);
        let steady = ClusterSpec { straggler_sigma: 0.0, ..ClusterSpec::ec2_2010() };
        let fast = Simulation::new(steady.clone(), 1).run_job(&job).duration;
        let slow = Simulation::new(steady.with_slow_nodes(4, 0.25), 1).run_job(&job).duration;
        assert!(slow > fast);
    }

    #[test]
    fn constant_network_is_never_slower_than_nic_serialized() {
        let job = small_job(32, 8);
        let spec = ClusterSpec::ec2_2010();
        let n = spec.num_nodes();
        let constant = Simulation::new(spec.clone(), 3)
            .with_network(Constant::new(n, spec.nic_bandwidth, spec.net_latency))
            .run_job(&job)
            .duration;
        let serialized = Simulation::new(spec, 3).run_job(&job).duration;
        assert!(
            constant <= serialized,
            "removing NIC contention cannot slow the job: {constant} vs {serialized}"
        );
    }

    #[test]
    fn shared_bandwidth_contention_lengthens_the_job() {
        // The acceptance property, barrier side: fair-shared NICs make
        // the all-to-all shuffle visibly slower than the uncontended
        // constant model.
        let job = small_job(32, 8);
        let spec = ClusterSpec::ec2_2010();
        let n = spec.num_nodes();
        let constant = Simulation::new(spec.clone(), 3)
            .with_network(Constant::new(n, spec.nic_bandwidth, spec.net_latency))
            .run_job(&job)
            .duration;
        let shared = Simulation::new(spec.clone(), 3)
            .with_network(TopologyAware::uniform(n, spec.nic_bandwidth, spec.net_latency))
            .run_job(&job)
            .duration;
        assert!(
            shared > constant,
            "shuffle contention must lengthen the job: shared {shared} vs constant {constant}"
        );
    }

    #[test]
    fn barrier_node_death_requeues_and_completes() {
        let job = small_job(32, 8);
        let plan = NodeFailurePlan::correlated(0.35, 11, 1);
        let clean = Simulation::new(ClusterSpec::ec2_2010(), 5).run_job(&job);
        assert_eq!(clean.node_failures, 0);
        assert_eq!(clean.node_lost_tasks, 0);
        let faulty =
            Simulation::new(ClusterSpec::ec2_2010(), 5).with_node_failures(plan).run_job(&job);
        assert!(faulty.node_failures > 0, "0.35/node at epoch 0 must fire on 8 nodes");
        assert!(faulty.node_lost_tasks > 0, "a death at the k-th completion must lose work");
        assert!(
            faulty.duration > clean.duration,
            "losing work must cost simulated time: {} vs {}",
            faulty.duration,
            clean.duration
        );
    }

    #[test]
    fn barrier_node_death_budget_persists_across_jobs() {
        let job = small_job(16, 4);
        let plan = NodeFailurePlan::correlated(0.9, 3, 1);
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 1).with_node_failures(plan);
        let n_nodes = sim.spec().num_nodes();
        let mut total = 0u32;
        for _ in 0..6 {
            total += sim.run_job(&job).node_failures;
        }
        assert!(total > 0, "0.9/(node, job) must fire");
        let budget = NodeFailurePlan::MAX_DEATHS * n_nodes as u32;
        assert!(total <= budget, "the per-node budget must bound deaths across jobs: {total}");
    }

    #[test]
    fn trace_records_the_whole_job() {
        let job = small_job(8, 4);
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 2);
        let stats = sim.run_job(&job);
        let trace = sim.last_trace();
        let map_dones = trace.iter().filter(|t| matches!(t.ev, Ev::MapDone { .. })).count();
        let reduce_dones = trace.iter().filter(|t| matches!(t.ev, Ev::ReduceDone { .. })).count();
        assert_eq!(map_dones, stats.map_tasks, "every map completion is traced");
        assert_eq!(reduce_dones, stats.reduce_tasks);
        let transfers = trace.iter().filter(|t| matches!(t.ev, Ev::TransferDone { .. })).count();
        assert_eq!(transfers, stats.map_tasks * stats.reduce_tasks, "every fetch is traced");
        assert!(sim.trace_digest() != 0);
    }
}
