//! Pluggable task-ordering and slot-choice policies for the async
//! replay — the [`Scheduler`] trait and its implementations.
//!
//! [`crate::Simulation::run_async_schedule`] used to hard-code one
//! greedy policy: visit pending tasks in list order and place each on
//! the slot with the earliest *estimated* start
//! ([`NetworkModel::estimate`]). That policy survives bit-identically as
//! [`ListScheduler`], the default. Around it, this module adds the
//! classic alternatives from the DAG-scheduling literature:
//!
//! | scheduler | ordering | slot choice |
//! |---|---|---|
//! | [`ListScheduler`] | list (topological) order | earliest estimated **start** |
//! | [`Heft`] | upward-rank (critical path first) | earliest estimated **finish** (speed-aware) |
//! | [`Lookahead`] | list order | contention-inflated finish + one-hop child-frontier penalty from live [`NetworkModel::utilization`] |
//! | [`Portfolio`] | winner's | races list, HEFT and lookahead per epoch on cloned estimate state; commits the winner |
//!
//! Every policy decides from **estimates only** — pure reads of the
//! network model and the cloned slot state — and draws no randomness,
//! so the replay stays a pure function of
//! `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
//! SchedulerSpec, seed, tasks)`: the same determinism contract the
//! event core documents, extended by the scheduler axis (pinned by
//! `tests/determinism_prop.rs` over the full scheduler × model matrix).
//!
//! The split mirrors the estimate-then-commit shape of `place()`:
//! the scheduler *ranks and chooses* (this module), the run *commits*
//! the chosen slot's edges through the mutable network model
//! ([`crate::asyncsched`]), where contention may push the real start
//! past the estimate (metered by
//! [`crate::AsyncScheduleStats::commit`]).

use std::fmt;

use asyncmr_model::{AsyncTaskSpec, SimTime};

use crate::cluster::ClusterSpec;
use crate::network::NetworkModel;

/// Which [`Scheduler`] a simulation's async replay uses — the
/// builder-level description injected via
/// [`crate::Simulation::with_scheduler`] and instantiated fresh per
/// replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// The pre-refactor greedy policy (the default): list order,
    /// earliest estimated start. Byte-identical to the inline scheduler
    /// the replay-fidelity goldens were pinned under.
    #[default]
    List,
    /// Heterogeneous-Earliest-Finish-Time: upward-rank priority order,
    /// earliest-finish slot choice. The classic win on clusters with
    /// heterogeneous node speeds.
    Heft,
    /// Contention-aware greedy: inflates dependency-arrival estimates
    /// by live link utilization and charges a penalty for the unplaced
    /// child frontier, so committed transfers land closer to their
    /// estimates under the fluid models.
    Lookahead,
    /// Races list, HEFT and lookahead on cloned estimate state
    /// at every epoch boundary and commits the whole epoch through the
    /// winner (deterministically: estimates only, the earlier member
    /// wins ties).
    Portfolio,
}

impl SchedulerSpec {
    /// Short stable name (bench/JSON keys, stats labels).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSpec::List => "list",
            SchedulerSpec::Heft => "heft",
            SchedulerSpec::Lookahead => "lookahead",
            SchedulerSpec::Portfolio => "portfolio",
        }
    }

    /// Builds a fresh scheduler instance for one replay (per-run caches
    /// start empty, so consecutive replays on one simulation stay
    /// independent).
    pub fn instantiate(&self) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::List => Box::new(ListScheduler),
            SchedulerSpec::Heft => Box::new(Heft::new()),
            SchedulerSpec::Lookahead => Box::new(Lookahead::default()),
            SchedulerSpec::Portfolio => Box::new(Portfolio::default()),
        }
    }
}

/// The immutable inputs a scheduling decision may read: the task graph,
/// its fan-out counts, the cluster, and the (read-only) network model.
pub struct SchedView<'a> {
    /// The full schedule being replayed (a topological order).
    pub tasks: &'a [AsyncTaskSpec],
    /// Consumers per producer (message bytes are split across them).
    pub consumers: &'a [u32],
    /// The cluster the schedule runs on.
    pub spec: &'a ClusterSpec,
    /// The network model, for pure estimates and live utilization.
    pub net: &'a dyn NetworkModel,
}

impl SchedView<'_> {
    /// The per-consumer share of producer `d`'s output bytes.
    pub fn share(&self, d: usize) -> u64 {
        self.tasks[d].output_bytes / u64::from(self.consumers[d].max(1))
    }
}

/// The mutable placement state a decision ranks against — borrowed from
/// the live run, or from a portfolio's cloned dry-run copy.
pub struct SlotState<'a> {
    /// `(free instant, node)` per map slot.
    pub slots: &'a [(SimTime, usize)],
    /// Committed (or dry-run estimated) finish per task.
    pub finish: &'a [SimTime],
    /// Node each placed task ran on.
    pub node_of: &'a [usize],
    /// Whether each task has been placed.
    pub done: &'a [bool],
    /// Per-task dispatch gate (death-detection delays).
    pub gate: &'a [SimTime],
    /// Per-task placement exclusion (the node that lost it).
    pub excluded: &'a [Option<usize>],
}

/// One admissible slot for a task, with its pure estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index into the slot table.
    pub slot: usize,
    /// The slot's node.
    pub node: usize,
    /// Earliest start before any input arrives: `max(slot free, task
    /// gate, retry gate)`.
    pub ready: SimTime,
    /// Estimated start: `max(ready, dependency arrivals)`.
    pub est_start: SimTime,
    /// Estimated finish at the node's speed (nominal — no straggler
    /// draw; randomness belongs to the commit, not the ranking).
    pub est_finish: SimTime,
}

/// Enumerates the admissible slots for `task` with their estimated
/// start/finish, in slot-index order — the shared first half of every
/// placement decision.
///
/// Start = `max(slot free, task gate, extra_gate, per-dependency
/// estimated arrival)` ([`NetworkModel::estimate`] — the exact formula
/// the pre-refactor greedy ranked with). Finish adds the launch
/// overhead, the iteration-0 DFS read, and the node-speed-scaled
/// nominal compute + sort. Slots on the task's excluded node are
/// skipped unless it is the only node.
pub fn candidates(
    view: &SchedView<'_>,
    state: &SlotState<'_>,
    task: usize,
    extra_gate: SimTime,
) -> Vec<Candidate> {
    // On a single-node cluster there is nowhere else to go: the
    // rebooted node must take its own lost work back.
    let exclude_node =
        state.excluded[task].filter(|&n| state.slots.iter().any(|&(_, node)| node != n));
    let t = &view.tasks[task];
    let gate = state.gate[task].max(extra_gate);
    let mut out = Vec::with_capacity(state.slots.len());
    for (s, &(free, node)) in state.slots.iter().enumerate() {
        if exclude_node == Some(node) {
            continue;
        }
        let ready = free.max(gate);
        let mut start = ready;
        for &d in &t.deps {
            debug_assert!(d < task, "async schedule must be topologically ordered");
            let arrival = view.net.estimate(state.node_of[d], node, view.share(d), state.finish[d]);
            start = start.max(arrival);
        }
        let read = if t.iteration == 0 {
            SimTime::from_secs_f64(t.input_bytes as f64 / view.spec.disk_bandwidth)
        } else {
            SimTime::ZERO
        };
        let speed = view.spec.nodes[node].speed;
        let compute = view.spec.cost.compute_time(t.ops, t.output_records, speed);
        let sort = view.spec.cost.sort_time(t.output_bytes, speed);
        let est_finish = start + view.spec.task_launch + read + compute + sort;
        out.push(Candidate { slot: s, node, ready, est_start: start, est_finish });
    }
    out
}

/// A task-ordering and slot-choice policy for the async replay.
///
/// Implementations must be pure functions of their inputs: no
/// randomness, no hidden clocks — determinism across the scheduler
/// matrix is part of the replay contract. All methods take `&mut self`
/// so implementations may keep per-run caches (HEFT ranks, consumer
/// adjacency) and so [`Portfolio`] can delegate. The run's stats label
/// is [`SchedulerSpec::name`].
pub trait Scheduler: fmt::Debug + Send {
    /// Called once per epoch boundary with the pending set, before any
    /// ordering/placement. [`Portfolio`] races its members here; other
    /// schedulers need nothing (default no-op).
    fn begin_epoch(&mut self, view: &SchedView<'_>, state: &SlotState<'_>, pending: &[usize]) {
        let _ = (view, state, pending);
    }

    /// The dispatch order for this epoch's pending tasks (a permutation
    /// of `pending`; must keep every task after the dependencies it has
    /// inside the batch).
    fn order(&mut self, view: &SchedView<'_>, pending: &[usize]) -> Vec<usize>;

    /// Picks one of the `candidates` (returns its index; `candidates`
    /// is never empty).
    fn choose(
        &mut self,
        view: &SchedView<'_>,
        state: &SlotState<'_>,
        task: usize,
        candidates: &[Candidate],
    ) -> usize;
}

// ---------------------------------------------------------------------------
// ListScheduler: the pre-refactor greedy, bit-identical.
// ---------------------------------------------------------------------------

/// The default policy — exactly the scheduler `run_async_schedule`
/// inlined before the trait existed: tasks in list order, each on the
/// slot with the earliest estimated **start**, ties to the lowest slot
/// index. The replay-fidelity goldens pin this equivalence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler;

impl Scheduler for ListScheduler {
    fn order(&mut self, _view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        pending.to_vec()
    }

    fn choose(
        &mut self,
        _view: &SchedView<'_>,
        _state: &SlotState<'_>,
        _task: usize,
        candidates: &[Candidate],
    ) -> usize {
        // Strict `<` keeps the first (lowest-indexed) slot on ties —
        // the pre-refactor tie-break.
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.est_start < candidates[best].est_start {
                best = i;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Heft: upward-rank priority + earliest-finish choice.
// ---------------------------------------------------------------------------

/// Heterogeneous-Earliest-Finish-Time (Topcuoglu et al.): order tasks
/// by *upward rank* — nominal execution time plus the heaviest
/// communication-inclusive path to a sink — and place each on the slot
/// with the earliest estimated **finish**, so slow nodes are charged
/// their real compute cost instead of winning on an early free slot.
///
/// Rank order is provably topological here: for a dependency `d` of
/// `i`, `rank(d) ≥ comm(d→i) + rank(i) ≥ rank(i)`, and the index
/// tie-break preserves `d < i` when ranks are equal.
#[derive(Debug, Default)]
pub struct Heft {
    /// Upward rank per task, in seconds (computed lazily, once per
    /// replay — the schedule is immutable).
    ranks: Option<Vec<f64>>,
}

impl Heft {
    /// A fresh HEFT instance (ranks computed on first use).
    pub fn new() -> Self {
        Heft { ranks: None }
    }

    /// One reverse-index sweep computes every upward rank: `deps`
    /// always point backwards, so by the time `i` is visited
    /// (descending), every dependent of each of its deps with a higher
    /// index has already pushed its `comm + rank` maximum down.
    fn ranks<'s>(&'s mut self, view: &SchedView<'_>) -> &'s [f64] {
        self.ranks.get_or_insert_with(|| {
            let n = view.tasks.len();
            let nodes = &view.spec.nodes;
            let avg_speed = nodes.iter().map(|nd| nd.speed).sum::<f64>() / nodes.len() as f64;
            let mut rank = vec![0.0f64; n];
            for i in (0..n).rev() {
                let t = &view.tasks[i];
                // rank[i] currently holds max over dependents of
                // (comm + their full rank); add this task's own weight.
                let w = view.spec.cost.compute_time(t.ops, t.output_records, avg_speed)
                    + view.spec.cost.sort_time(t.output_bytes, avg_speed)
                    + view.spec.task_launch;
                rank[i] += w.as_secs_f64();
                for &d in &t.deps {
                    let comm = view.net.wire_time(view.share(d)).as_secs_f64();
                    if comm + rank[i] > rank[d] {
                        rank[d] = comm + rank[i];
                    }
                }
            }
            rank
        })
    }
}

impl Scheduler for Heft {
    fn order(&mut self, view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        let ranks = self.ranks(view);
        let mut order = pending.to_vec();
        // Rank descending, index ascending on ties (f64 ranks are
        // finite by construction, so the comparison is total).
        order.sort_by(|&a, &b| {
            ranks[b].partial_cmp(&ranks[a]).expect("ranks are finite").then(a.cmp(&b))
        });
        order
    }

    fn choose(
        &mut self,
        _view: &SchedView<'_>,
        _state: &SlotState<'_>,
        _task: usize,
        candidates: &[Candidate],
    ) -> usize {
        let mut best = 0;
        for (i, c) in candidates.iter().enumerate().skip(1) {
            if c.est_finish < candidates[best].est_finish {
                best = i;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Lookahead: contention-inflated estimates + child-frontier penalty.
// ---------------------------------------------------------------------------

/// The floor on a link's availability factor: even a saturated link
/// makes *some* progress once flows drain, so inflation is capped at
/// 20× rather than diverging.
const MIN_AVAIL: f64 = 0.05;

/// Contention-aware greedy, fixing the greedy-admission gap: the pure
/// [`NetworkModel::estimate`] ignores in-flight flows, so under the
/// fluid models a committed transfer routinely lands *later* than the
/// estimate that ranked its slot. Lookahead re-prices each candidate
/// against live [`NetworkModel::utilization`] — dependency arrivals are
/// inflated by the residual availability of the producer's transmit
/// link and the candidate's receive link — and adds a penalty for the
/// task's unplaced dependents, whose fetches will leave through the
/// candidate node's transmit link.
///
/// On models that report no utilization ([`crate::Constant`], the
/// default [`crate::NetworkState`]) this degrades exactly to
/// earliest-finish choice in list order.
#[derive(Debug, Default)]
pub struct Lookahead {
    /// Dependents adjacency (computed lazily, once per replay).
    dependents: Option<Vec<Vec<u32>>>,
}

impl Lookahead {
    fn dependents<'s>(&'s mut self, view: &SchedView<'_>) -> &'s [Vec<u32>] {
        self.dependents.get_or_insert_with(|| {
            let mut adj: Vec<Vec<u32>> = vec![Vec::new(); view.tasks.len()];
            for (i, t) in view.tasks.iter().enumerate() {
                for &d in &t.deps {
                    adj[d].push(i as u32);
                }
            }
            adj
        })
    }

    /// Residual availability of link `l`: `(cap − util) / cap`,
    /// clamped to `[MIN_AVAIL, 1]`.
    fn avail(util: &[f64], caps: &[f64], l: usize) -> f64 {
        if l >= util.len() || caps[l] <= 0.0 {
            return 1.0;
        }
        ((caps[l] - util[l]) / caps[l]).clamp(MIN_AVAIL, 1.0)
    }

    /// Serialization seconds of `task`'s output to its unplaced
    /// dependents — the traffic that will contend for the chosen
    /// node's transmit link.
    fn frontier_secs(&mut self, view: &SchedView<'_>, state: &SlotState<'_>, task: usize) -> f64 {
        let out = view.net.wire_time(view.share(task)).as_secs_f64();
        let mut secs = 0.0;
        for &c in &self.dependents(view)[task] {
            if !state.done[c as usize] {
                secs += out;
            }
        }
        secs
    }
}

impl Scheduler for Lookahead {
    fn order(&mut self, _view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        pending.to_vec()
    }

    fn choose(
        &mut self,
        view: &SchedView<'_>,
        state: &SlotState<'_>,
        task: usize,
        candidates: &[Candidate],
    ) -> usize {
        let util = view.net.utilization();
        if util.is_empty() {
            // No live contention signal: plain earliest finish.
            let mut best = 0;
            for (i, c) in candidates.iter().enumerate().skip(1) {
                if c.est_finish < candidates[best].est_finish {
                    best = i;
                }
            }
            return best;
        }
        let caps = view.net.capacities();
        let nodes = view.spec.num_nodes();
        let t = &view.tasks[task];
        let frontier_secs = self.frontier_secs(view, state, task);
        // Same-node consumers pay nothing, so weight the out-edge
        // penalty by the chance a consumer lands remotely.
        let remote_frac = 1.0 - 1.0 / nodes as f64;

        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (ci, c) in candidates.iter().enumerate() {
            // Re-estimate dependency arrivals with the contention the
            // pure estimate ignores: the producer's tx link and this
            // candidate's rx link each scale the serialization by their
            // residual availability. The gates (retry included) stay as
            // `candidates` applied them.
            let mut start = c.ready;
            for &d in &t.deps {
                let src = state.node_of[d];
                let arrival = if src == c.node {
                    state.finish[d]
                } else {
                    let avail = Self::avail(&util, &caps, src).min(Self::avail(
                        &util,
                        &caps,
                        nodes + c.node,
                    ));
                    let wire = view.net.wire_time(view.share(d)).as_secs_f64() / avail;
                    state.finish[d] + SimTime::from_secs_f64(wire)
                };
                start = start.max(arrival);
            }
            let run = c.est_finish - c.est_start;
            let finish = (start + run).as_secs_f64();
            let penalty = frontier_secs * remote_frac / Self::avail(&util, &caps, c.node);
            let score = finish + penalty;
            if score < best_score {
                best_score = score;
                best = ci;
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Portfolio: race the members per epoch on cloned estimate state.
// ---------------------------------------------------------------------------

/// Races [`ListScheduler`], [`Heft`] and [`Lookahead`], in that
/// tie-break order, at every epoch boundary: each member dry-runs the
/// epoch's pending set on a **clone** of the slot/finish state using
/// estimates only (no RNG draws, no network mutation), and the member
/// with the smallest estimated epoch makespan commits the real epoch.
/// Ties go to the earlier member, so the race is deterministic by
/// construction.
#[derive(Debug)]
pub struct Portfolio {
    members: [Box<dyn Scheduler>; 3],
    winner: usize,
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio {
            members: [
                Box::new(ListScheduler),
                Box::new(Heft::new()),
                Box::new(Lookahead::default()),
            ],
            winner: 0,
        }
    }
}

impl Portfolio {
    /// Dry-runs one member over `pending` on cloned state, returning
    /// the estimated epoch makespan (max estimated finish committed to
    /// the clone — placements feed later estimates, exactly like the
    /// real loop, just without the network/RNG side effects).
    fn dry_run(
        member: &mut Box<dyn Scheduler>,
        view: &SchedView<'_>,
        state: &SlotState<'_>,
        pending: &[usize],
    ) -> SimTime {
        let mut slots = state.slots.to_vec();
        let mut finish = state.finish.to_vec();
        let mut node_of = state.node_of.to_vec();
        let mut done = state.done.to_vec();
        let order = member.order(view, pending);
        debug_assert_eq!(order.len(), pending.len(), "order must be a permutation");
        let mut makespan = SimTime::ZERO;
        for &i in &order {
            let st = SlotState {
                slots: &slots,
                finish: &finish,
                node_of: &node_of,
                done: &done,
                gate: state.gate,
                excluded: state.excluded,
            };
            let cands = candidates(view, &st, i, SimTime::ZERO);
            let pick = member.choose(view, &st, i, &cands);
            let c = cands[pick];
            finish[i] = c.est_finish;
            node_of[i] = c.node;
            done[i] = true;
            slots[c.slot].0 = c.est_finish;
            makespan = makespan.max(c.est_finish);
        }
        makespan
    }
}

impl Scheduler for Portfolio {
    fn begin_epoch(&mut self, view: &SchedView<'_>, state: &SlotState<'_>, pending: &[usize]) {
        let mut best = SimTime::from_micros(u64::MAX);
        self.winner = 0;
        for (m, member) in self.members.iter_mut().enumerate() {
            let makespan = Self::dry_run(member, view, state, pending);
            // Strict `<`: the earlier member keeps ties.
            if makespan < best {
                best = makespan;
                self.winner = m;
            }
        }
    }

    fn order(&mut self, view: &SchedView<'_>, pending: &[usize]) -> Vec<usize> {
        self.members[self.winner].order(view, pending)
    }

    fn choose(
        &mut self,
        view: &SchedView<'_>,
        state: &SlotState<'_>,
        task: usize,
        candidates: &[Candidate],
    ) -> usize {
        self.members[self.winner].choose(view, state, task, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Constant, TopologyAware};

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(SchedulerSpec::List.name(), "list");
        assert_eq!(SchedulerSpec::Heft.name(), "heft");
        assert_eq!(SchedulerSpec::Lookahead.name(), "lookahead");
        assert_eq!(SchedulerSpec::Portfolio.name(), "portfolio");
    }

    #[test]
    fn lookahead_keeps_the_retry_gate_candidates_applied() {
        // Slot 0 frees at 10 s, slot 1 at 5 s, but a failed attempt's
        // retry may not dispatch before 20 s: both slots really start
        // at 20 s, so the tie must go to the lower slot. Re-estimating
        // from the slot-free instants alone would rank slot 1 first by
        // a start no slot can reach.
        let tasks = vec![AsyncTaskSpec::new(0, 0, 0, 1_000_000)];
        let consumers = vec![0];
        let spec = ClusterSpec::ec2_2010();
        let net = TopologyAware::uniform(8, spec.nic_bandwidth, spec.net_latency);
        let view = SchedView { tasks: &tasks, consumers: &consumers, spec: &spec, net: &net };
        let slots = [(SimTime::from_secs(10), 0), (SimTime::from_secs(5), 1)];
        let state = SlotState {
            slots: &slots,
            finish: &[SimTime::ZERO],
            node_of: &[0],
            done: &[false],
            gate: &[SimTime::ZERO],
            excluded: &[None],
        };
        let retry_gate = SimTime::from_secs(20);
        let cands = candidates(&view, &state, 0, retry_gate);
        assert!(cands.iter().all(|c| c.est_start == retry_gate), "the retry gate binds both slots");
        assert_eq!(Lookahead::default().choose(&view, &state, 0, &cands), 0, "tie goes to slot 0");
    }

    #[test]
    fn heft_rank_order_is_topological() {
        // A diamond: 0 → {1, 2} → 3, all same cost. Whatever the ranks,
        // the order must keep deps first.
        let tasks = vec![
            AsyncTaskSpec::new(0, 0, 1 << 20, 1_000_000).with_output(10, 1 << 16),
            AsyncTaskSpec::new(0, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(1, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(0, 2, 0, 1_000_000).with_deps(vec![1, 2]),
        ];
        let consumers = vec![2, 1, 1, 0];
        let spec = ClusterSpec::ec2_2010();
        let net = Constant::new(8, spec.nic_bandwidth, spec.net_latency);
        let view = SchedView { tasks: &tasks, consumers: &consumers, spec: &spec, net: &net };
        let mut heft = Heft::new();
        let order = heft.order(&view, &[0, 1, 2, 3]);
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2), "source first");
        assert!(pos(1) < pos(3) && pos(2) < pos(3), "sink last");
        assert!(pos(1) < pos(2), "equal ranks tie-break by index");
    }
}
