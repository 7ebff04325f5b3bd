//! The session layer: **cross-iteration eager scheduling**.
//!
//! An iterative run on the engine pays the paper's headline cost in
//! full, even in its eager formulation: one global synchronization per
//! iteration ([`crate::FixedPointDriver`]
//! runs one [`crate::Engine::run`] job per global iteration, and
//! iteration *i+1* cannot start until every partition of iteration *i*
//! has reduced). This module lifts eager scheduling from the stage
//! level to the **iteration** level:
//!
//! * [`AsyncIterative`] re-expresses one global iteration as a
//!   per-partition `gmap` (the heavy local solve, on the pool) plus a
//!   per-partition `absorb` (that partition's slice of the global
//!   reduce, on the scheduler thread), with **declared dependencies**:
//!   the set of partitions whose messages a partition consumes each
//!   iteration (derived from cross-partition edges for the graph
//!   applications; algorithms with genuinely global state — K-Means
//!   centroids, component relabeling — keep the default
//!   [`Dependence::Full`] and degrade gracefully to barrier-equivalent
//!   scheduling).
//! * [`AsyncFixedPointDriver`] keeps **one long-lived
//!   [`asyncmr_runtime::ThreadPool::par_multiwave`] scope alive across
//!   global iterations** and launches iteration *i+1*'s gmap for
//!   partition *p* the moment the iteration-*i* outputs *p* depends on
//!   have arrived — no global barrier anywhere.
//! * A bounded-staleness knob ([`AsyncFixedPointDriver::max_lag`])
//!   optionally lets a partition proceed on messages up to `max_lag`
//!   iterations old. At the default `max_lag = 0` every consumed
//!   message is exactly one iteration fresh, and the computed states —
//!   and the convergence decision — are **byte-identical** to the
//!   barrier driver's (asserted by the `session_equivalence`
//!   integration tests); only the schedule differs.
//!
//! Convergence detection stays barrier-equivalent: a partition's delta
//! counts toward iteration *i* only once it has absorbed *i* against
//! sufficiently fresh neighbor state, and the session declares
//! convergence only after `max_lag + 1` *consecutive fully-absorbed*
//! iterations pass the convergence test — for `max_lag = 0` that is
//! exactly the barrier rule. Work that was speculatively started beyond
//! the convergence iteration is discarded (and reported).
//!
//! Every executed gmap is metered into an
//! [`asyncmr_model::AsyncTaskSpec`]; replaying the recorded schedule
//! with the simulator's `Simulation::run_async_schedule` shows the win
//! in *simulated* cluster time too, not just host wall-clock.
//!
//! ## Components
//!
//! One scheduler loop — **launch → complete → deliver → absorb →
//! advance**, on the multiwave caller thread, no locks — runs over four
//! components plus the tracing front. Each keeps exactly one invariant
//! behind its type; the loop (`sched::Session`) owns only per-partition
//! progress (absorbed / launched / parked update / consumption log),
//! the frontier, the staleness bound, and the stop verdict.
//!
//! | Component | Invariant it owns | May borrow | Public knob feeding it |
//! |---|---|---|---|
//! | `topology::Topology` | `consumers` is the inverse of `deps`, each entry carrying the producer's mailbox *slot* — delivery and rollback never search | nothing (immutable, built once, shared by `&`) | [`AsyncIterative::dependencies`] |
//! | `store::Store` | held bytes = Σ retained states + Σ mailbox batch capacity, with its high-water mark and the most states one partition retained; the only code that moves a state or a batch | `&Topology` | — (feeds [`SessionReport::peak_state_bytes`]) |
//! | `checkpoint::Recovery` | per-node death budget, verdict epoch, per-partition rollback generations, the last declared checkpoint; the contamination closure is a pure function of the consumers table + consumption log | the consumers table and the consumption log, as plain slices (read-only; `checkpoint` imports nothing from `session`) | [`AsyncFixedPointDriver::node_failures`], [`AsyncFixedPointDriver::virtual_nodes`] |
//! | `meter::SessionMeter` | each per-iteration record = Σ of the per-partition records logged for it; rollback unwinds exactly (checked, never clamped) | nothing | — (feeds [`SessionReport`]) |
//! | `obs::SessionObs` | every call is a no-op on an untraced run; one definition of the scheduler-lane span | nothing | [`AsyncFixedPointDriver::trace`] |
//!
//! The absorb *computation* for partition `p` reads `p`'s own store
//! slot and the shared topology and nothing else (its result is then
//! committed through the store's ledger) — the property that makes
//! absorbs independent tasks by construction.
//!
//! **The staleness window is one number, and every run audits it.**
//! There is no controller: [`AsyncFixedPointDriver::max_lag`] is read
//! by the absorb admission test, mailbox retention, the `max_lag + 1`
//! convergence window and the launch cap, and by nothing else. Measured
//! live under injected skew (`examples/staleness_under_skew.rs`), no
//! window wider than 0 reached lag 0's time to equal error — a window
//! of `L` needs `L + 1` converged frontiers, and a slow partition's own
//! chain is the critical path whatever its consumers read — which is
//! why the window does not adapt and speculation is bounded by one
//! constant (`RUNAHEAD_SLACK` iterations past the frontier), not by a
//! byte budget. What the knob promises is checked where the report is
//! built: [`SessionReport::observed_staleness`] is the histogram of how
//! stale every absorbed dependency batch was, and the session panics if
//! it reaches past `max_lag`. The launch cap bounds history the same
//! way, and is audited the same way: no partition may ever have held
//! more than `max_lag + RUNAHEAD_SLACK + 2` states at once, plus, under
//! node failures, the `checkpoint_every − 1` iterations a frontier can
//! run past its last checkpoint.
//!
//! ## Fault tolerance (deterministic replay)
//!
//! The paper's §VI argument is that MapReduce's deterministic-replay
//! recovery *carries over* to partial synchronization. The session
//! reproduces it in-process: an [`AttemptFailurePlan`] — the one the
//! simulated replay injects from — kills individual gmap *attempts*
//! (each attempt's fate is a pure function of
//! `(seed, partition, iteration, attempt)`, the seed given beside the
//! plan to [`AsyncFixedPointDriver::with_failures`], so chaos runs are
//! reproducible regardless of thread interleaving), and the driver's
//! attempt-tracking layer re-executes the task — on the *same*
//! immutable input state `Arc` — up to
//! [`AttemptFailurePlan::MAX_ATTEMPTS`] times.
//!
//! The invalidation rule is structural: message delivery is **atomic**
//! (a completed gmap delivers its whole outbox in one scheduler step,
//! or — if the attempt died — nothing at all), so a downstream consumer can
//! only ever have absorbed *delivered* versions. "Invalidating
//! speculative consumers back to the last delivered version" is
//! therefore a no-op by construction: their mailboxes still hold
//! exactly the last delivered batch per source, and the bounded-
//! staleness bookkeeping (`max_lag` selection, runahead slack, windowed
//! convergence) is untouched by a failure — the failed partition simply
//! cannot absorb (and so cannot launch further) until a retry delivers.
//! Because `gmap` is a pure function of `(p, iteration, state)`, the
//! retry emits bitwise-identical output, and the converged result —
//! pinned by `tests/chaos_session.rs` — is byte-identical to a
//! failure-free run; only wall-clock (and the wasted attempt time
//! reported in [`SessionReport::failed_attempt_time`]) changes.
//!
//! ## Checkpoint/rollback (correlated node failures)
//!
//! Attempt-level recovery leans on delivery atomicity: a dead attempt
//! delivered nothing, so nothing downstream needs undoing. A **node**
//! failure breaks that: a dying virtual node
//! ([`crate::NodeFailurePlan`], partitions mapped
//! `p % virtual_nodes`) takes every resident in-flight attempt *and every
//! output its partitions already delivered past the last checkpoint*
//! with it — so consumers that absorbed those outputs hold state
//! derived from data that no longer exists, and the session must
//! perform real **rollback** rather than re-execution:
//!
//! 1. **Checkpoints** (every [`NodeFailurePlan::checkpoint_every`]
//!    iterations — the node plan carries its rollback target) are
//!    declared at frontier advances, so they are *coordinated*: the
//!    same iteration for every partition. The retained history `Arc`s
//!    at the checkpoint iteration are the snapshot; what a durable
//!    store would write is metered into
//!    [`SessionReport::checkpoint_bytes`].
//! 2. **Node death** is evaluated once per frontier advance (an
//!    *epoch*) with a pure `(seed, node, epoch)` verdict, capped per
//!    node so sessions terminate. The dead node's partitions rewind to
//!    the last checkpoint `C`; their delivered batches with source
//!    iteration ≥ `C` are revoked from every consumer mailbox.
//! 3. **Transitive invalidation**: any partition that *absorbed* a
//!    revoked batch holds contaminated state and rewinds to `C` too —
//!    a closure over the declared dependency topology (the
//!    [`Dependence`] graph the apps derive from their
//!    `CutPlan`), using the per-iteration consumption log.
//!    Rewound partitions discard parked work, orphan their in-flight
//!    attempts (stale-generation completions are dropped and billed as
//!    failed attempts), and relaunch from the checkpoint state.
//!
//! Because gmaps are pure and the checkpoint cut is consistent,
//! re-execution regenerates byte-identical messages and states: at
//! `max_lag = 0` the converged result under injected node failures is
//! **byte-identical** to the failure-free barrier driver (the headline
//! contract, pinned by `tests/chaos_session.rs`), while the recovery
//! cost shows up in [`SessionReport::rollbacks`],
//! [`SessionReport::rolled_back_iterations`], and the wasted-work
//! meters. Bounded history is what makes this tractable: the session
//! retains states back to the last checkpoint only (plus mailbox
//! batches back to `C − max_lag` when node failures are enabled), and
//! [`SessionReport::peak_state_bytes`] meters the high-water mark of
//! everything held.

mod meter;
mod sched;
mod store;
mod topology;

use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncmr_model::{AsyncTaskSpec, AttemptFailurePlan, NodeFailurePlan, SessionTrace};
use asyncmr_runtime::{PoolMetrics, ThreadPool};

use crate::hash::verdict_unit;
use crate::obs::SpanRecorder;
use sched::{run_attempt, Session};
use topology::Topology;

/// Which partitions' outputs a partition consumes each iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dependence {
    /// Depends on every other partition. The safe default: scheduling
    /// degrades to barrier-equivalent order (a partition can only
    /// advance once all others finished the iteration it consumes).
    Full,
    /// Depends only on the listed partitions (self is implicit and
    /// ignored if listed). For the graph applications this is "the
    /// partitions with cross edges into mine".
    Sparse(Vec<usize>),
}

/// Cross-partition message staging for one `gmap` call: one batch slot
/// per destination partition. The session hands every launch a fresh
/// outbox and moves each staged batch, as allocated, into its
/// consumer's mailbox.
///
/// A gmap pushes messages in emission order. Destinations must be
/// partitions that declare the producer as a dependency (enforced by
/// the session after delivery); destinations a task has nothing for are
/// simply never pushed — the session delivers an empty batch on the
/// producer's behalf so consumers never wait on a message that will
/// never come.
#[derive(Debug)]
pub struct Outbox<M> {
    /// One staged message batch per destination partition.
    per_dest: Vec<Vec<M>>,
    /// Destinations pushed to (first touch recorded once), so delivery
    /// checks only the slots used.
    touched: Vec<u32>,
}

impl<M> Outbox<M> {
    /// An empty outbox with `slots` destination slots (one per
    /// partition).
    pub fn new(slots: usize) -> Self {
        Outbox { per_dest: (0..slots).map(|_| Vec::new()).collect(), touched: Vec::new() }
    }

    /// Stages one message for partition `dest`.
    pub fn push(&mut self, dest: usize, msg: M) {
        self.extend(dest, std::iter::once(msg));
    }

    /// Stages a run of messages for partition `dest`, in iteration
    /// order — the same batch repeated [`Outbox::push`] builds, with the
    /// destination resolved once per run instead of once per record.
    pub fn extend(&mut self, dest: usize, msgs: impl IntoIterator<Item = M>) {
        let slots = self.per_dest.len();
        let Some(slot) = self.per_dest.get_mut(dest) else {
            panic!("destination {dest} out of {slots} partitions");
        };
        let was_empty = slot.is_empty();
        slot.extend(msgs);
        if was_empty && !slot.is_empty() {
            self.touched.push(dest as u32);
        }
    }

    /// The batch currently staged for `dest` (empty if untouched).
    pub fn batch(&self, dest: usize) -> &[M] {
        &self.per_dest[dest]
    }
}

/// Everything one asynchronous `gmap` invocation produced besides its
/// staged messages (those go into the borrowed [`Outbox`]).
#[derive(Debug)]
pub struct GmapOutput<U> {
    /// The owner-side product of the local solve (e.g. converged local
    /// contribution sums), consumed by the partition's own
    /// [`AsyncIterative::absorb`].
    pub update: U,
    /// Abstract operations performed by the local solve.
    pub ops: u64,
    /// Partial synchronizations (`lreduce` barriers) performed.
    pub local_syncs: u64,
    /// The partition's input split size (simulated DFS read at
    /// iteration 0).
    pub input_bytes: u64,
    /// Messages emitted (cross-partition records, for the replay's
    /// framework overhead accounting).
    pub msg_records: u64,
    /// Bytes of cross-partition messages emitted.
    pub msg_bytes: u64,
}

/// What one [`AsyncIterative::absorb`] call produced.
#[derive(Debug)]
pub struct Absorbed<S> {
    /// The partition's state entering the next iteration.
    pub state: S,
    /// The partition's convergence delta for this iteration (e.g. max
    /// absolute state change); folded with `max` across partitions and
    /// tested with [`AsyncIterative::converged`].
    pub delta: f64,
    /// Abstract operations performed by the absorb (the partition's
    /// slice of the global reduce).
    pub ops: u64,
}

/// An iterative computation decomposed for cross-iteration eager
/// scheduling.
///
/// One barrier iteration of the classic formulation splits into, per
/// partition *p*:
///
/// 1. [`gmap`](AsyncIterative::gmap) — the heavy local solve on *p*'s
///    state (runs on the thread pool), emitting the owner-side update
///    plus per-destination message batches into an [`Outbox`];
/// 2. [`absorb`](AsyncIterative::absorb) — *p*'s slice of the global
///    reduce: combine the own update with the dependencies' message
///    batches into the next state (runs on the session's scheduler
///    thread; keep it cheap).
///
/// The contract that makes `max_lag = 0` byte-identical to the barrier
/// driver: `absorb` must perform the same floating-point reduction the
/// barrier `greduce` performs, with message batches consumed in
/// ascending source-partition order (the engine's map-task-ordered
/// value semantics) — the session guarantees it presents them that way.
pub trait AsyncIterative: Sync {
    /// Per-partition state (e.g. owned ranks + frozen remote inputs).
    type State: Send + Sync;
    /// Owner-side gmap product consumed by the partition's own absorb.
    type Update: Send;
    /// One cross-partition message payload.
    type Msg: Send;

    /// Number of partitions (= gmap tasks per global iteration).
    fn partitions(&self) -> usize;

    /// Partitions whose iteration outputs partition `p` consumes.
    ///
    /// The default declares [`Dependence::Full`]: correct for any
    /// algorithm, and it degrades scheduling to the barrier order —
    /// which is exactly how algorithms with global coupling (K-Means,
    /// connected components) should run until someone derives a real
    /// dependency structure for them.
    fn dependencies(&self, p: usize) -> Dependence {
        let _ = p;
        Dependence::Full
    }

    /// Initial state of partition `p` (global iteration 0 input).
    fn init_state(&self, p: usize) -> Self::State;

    /// The local solve for partition `p` at global iteration
    /// `iteration`, given the state produced by its previous absorb.
    ///
    /// Cross-partition messages are staged into `outbox`, which arrives
    /// empty; each batch is delivered with the capacity the gmap gave
    /// it, so size a batch exactly where that is cheap
    /// ([`Outbox::extend`] from an iterator of known length). The
    /// returned [`GmapOutput`] carries the owner-side update and the
    /// meters.
    fn gmap(
        &self,
        p: usize,
        iteration: usize,
        state: &Self::State,
        outbox: &mut Outbox<Self::Msg>,
    ) -> GmapOutput<Self::Update>;

    /// Partition `p`'s slice of the global reduce for `iteration`.
    ///
    /// `inbox` holds one entry per declared dependency, in **ascending
    /// source-partition order**, each with the message batch selected
    /// under the staleness bound (empty if the source had nothing for
    /// `p` that iteration).
    fn absorb(
        &self,
        p: usize,
        iteration: usize,
        state: &Self::State,
        update: Self::Update,
        inbox: &[(usize, &[Self::Msg])],
    ) -> Absorbed<Self::State>;

    /// Whether an iteration whose partition deltas folded to
    /// `max_delta` has globally converged.
    fn converged(&self, max_delta: f64) -> bool;

    /// Approximate serialized bytes of one partition state — what a
    /// durable checkpoint of it would write, and what holding it in
    /// history costs. Drives [`SessionReport::checkpoint_bytes`] and
    /// [`SessionReport::peak_state_bytes`].
    ///
    /// The default is the shallow `size_of` — exact for plain-data
    /// states (the common trait-test case); override it for states
    /// with heap payloads (the graph apps report their owned vectors).
    fn state_bytes(&self, state: &Self::State) -> u64 {
        let _ = state;
        std::mem::size_of::<Self::State>() as u64
    }
}

/// Summary of one asynchronous session run.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Global iterations the result is built from (= the barrier
    /// driver's iteration count at `max_lag = 0`).
    pub global_iterations: usize,
    /// Whether the run converged (vs. hit the iteration cap).
    pub converged: bool,
    /// Partial synchronizations inside gmaps, over the contributing
    /// iterations (barrier-comparable).
    pub local_syncs: u64,
    /// Abstract ops (gmap + absorb) over the contributing iterations.
    pub total_ops: u64,
    /// Gmap tasks that contributed to the result
    /// (= `global_iterations × partitions`).
    pub gmap_tasks: usize,
    /// Gmap tasks whose iteration exceeded the convergence point —
    /// work the eager schedule started speculatively and discarded.
    pub speculative_tasks: usize,
    /// Wall-clock burned by those discarded speculative gmaps (wasted
    /// gmap-seconds from runahead past convergence).
    pub speculative_time: Duration,
    /// Injected gmap attempts that died before delivering —
    /// transient deaths re-executed by the attempt-tracking layer,
    /// plus in-flight attempts orphaned by a node-failure rollback
    /// (0 without an [`AttemptFailurePlan`] or a [`NodeFailurePlan`]).
    pub failed_attempts: usize,
    /// Wall-clock burned by failed attempts before they died (wasted
    /// gmap-seconds from transient failures and orphaned attempts).
    pub failed_attempt_time: Duration,
    /// Injected node-failure events (each fired node death triggers
    /// one rollback of its resident partitions and their transitive
    /// dependents; 0 without a [`NodeFailurePlan`]).
    pub rollbacks: usize,
    /// Absorbed iterations undone by rollbacks, summed over affected
    /// partitions — the re-execution debt node failures created. How
    /// far past the checkpoint each partition had run is
    /// timing-dependent, so (unlike `rollbacks`) this meter can vary
    /// run to run; the *results* never do.
    pub rolled_back_iterations: usize,
    /// Bytes a durable checkpoint store would have written over the
    /// run (declared snapshots × per-partition
    /// [`AsyncIterative::state_bytes`]); 0 without a
    /// [`NodeFailurePlan`].
    pub checkpoint_bytes: u64,
    /// High-water mark of bytes the session held at once: state
    /// history (all retained iterations, all partitions) plus mailbox
    /// message batches, by allocated capacity. Checkpoint retention
    /// makes this grow with the checkpoint interval.
    pub peak_state_bytes: u64,
    /// The staleness bound the session ran under
    /// ([`AsyncFixedPointDriver::max_lag`]).
    pub max_lag: usize,
    /// The staleness the run *observed*: `[s]` counts the dependency
    /// batches absorbed `s` iterations stale, over the contributing
    /// iterations (trailing zeros trimmed, so the length is the widest
    /// staleness seen plus one; empty when nothing was absorbed from a
    /// dependency). The session asserts, in every run, that it never
    /// reaches past `max_lag` — at `max_lag = 0` everything is in
    /// `[0]` — and that it sums to
    /// `global_iterations × Σ_p |dependencies(p)|`.
    pub observed_staleness: Vec<u64>,
    /// Real time of the whole session (the driver-level wall).
    pub wall_time: Duration,
    /// Thread-pool activity over this run: a fieldwise delta of
    /// [`asyncmr_runtime::ThreadPool::metrics`] across the session, so
    /// steals, parks, and the steal ratio attribute to *this* run even
    /// on a long-lived pool.
    pub pool: PoolMetrics,
    /// The per-attempt span trace, when the driver ran
    /// [`AsyncFixedPointDriver::with_trace`]; `None` (and zero
    /// recording cost) otherwise. Feed it to
    /// `asyncmr_simcluster::ReportModel::from_session` together with
    /// [`SessionReport::schedule`] for the Chrome-trace/HTML report.
    pub trace: Option<SessionTrace>,
    /// The executed cross-iteration schedule (contributing tasks only,
    /// topologically ordered), ready for
    /// `asyncmr_simcluster::Simulation::run_async_schedule`.
    pub schedule: Vec<AsyncTaskSpec>,
}

impl SessionReport {
    /// The contracts every run is held to, rollbacks included: no batch
    /// was absorbed more than `max_lag` iterations stale, every
    /// contributing absorb read one batch per declared dependency
    /// (`dep_slots` = Σ over partitions), every contributing
    /// `(partition, iteration)` executed exactly once, and no partition
    /// retained more states at once than the bound the launch cap
    /// implies (`retained` = (most held, bound)). A report that fails
    /// them is a scheduler bug, so there is no report.
    fn audit(&self, partitions: usize, dep_slots: usize, retained: (usize, usize)) {
        let observed = &self.observed_staleness;
        assert!(
            observed.len() <= self.max_lag + 1,
            "staleness contract broken: a batch was absorbed {} iterations stale under max_lag {}",
            observed.len() - 1,
            self.max_lag
        );
        assert_eq!(
            observed.iter().sum::<u64>(),
            (self.global_iterations * dep_slots) as u64,
            "every contributing absorb reads one batch per declared dependency"
        );
        assert_eq!(
            self.gmap_tasks,
            self.global_iterations * partitions,
            "every contributing (partition, iteration) executes exactly once"
        );
        let (held, bound) = retained;
        assert!(
            held <= bound,
            "retention contract broken: a partition held {held} states at once, over the bound \
             of {bound}"
        );
    }
}

/// What [`AsyncFixedPointDriver::run`] returns.
#[derive(Debug)]
pub struct SessionOutcome<S> {
    /// Final per-partition states, all at the same global iteration
    /// (the convergence iteration, or the cap).
    pub states: Vec<Arc<S>>,
    /// Scheduling and metering summary.
    pub report: SessionReport,
}

/// Runs an [`AsyncIterative`] computation to convergence with
/// cross-iteration eager scheduling.
#[derive(Debug, Clone, Copy)]
pub struct AsyncFixedPointDriver {
    /// Upper bound on global iterations; must be ≥ 1
    /// ([`AsyncFixedPointDriver::run`] panics on `0`).
    pub max_iterations: usize,
    /// Bounded staleness: a partition may absorb iteration *i* using a
    /// dependency's messages from any iteration in `[i - max_lag, i]`
    /// (the freshest available is used). `0` (the default) means every
    /// consumed message is exactly fresh — byte-identical results to
    /// the barrier driver.
    pub max_lag: usize,
    /// Transient-failure injection (defaults to
    /// [`AttemptFailurePlan::none`]). Validated once at the start of
    /// [`AsyncFixedPointDriver::run`].
    pub failures: AttemptFailurePlan,
    /// Seed of the per-attempt verdict
    /// `verdict_unit(attempt_seed, [p, iteration, attempt])`.
    pub attempt_seed: u64,
    /// Correlated node-failure injection, with the checkpoint interval
    /// rollback rewinds to (defaults to [`NodeFailurePlan::none`]:
    /// no deaths, no checkpoints). Validated once when
    /// [`AsyncFixedPointDriver::run`] starts its session.
    pub node_failures: NodeFailurePlan,
    /// Virtual nodes the partitions are spread over for node-failure
    /// injection (`partition % virtual_nodes`; defaults to 8, the
    /// paper's cluster). Must be ≥ 1 when `node_failures` is enabled.
    pub virtual_nodes: usize,
    /// When `true`, the run records a per-attempt span trace (see
    /// [`crate::obs`]) and attaches it as
    /// [`SessionReport::trace`]. Off by default: an untraced run pays
    /// zero recording cost (the recorder is never constructed), and a
    /// traced `max_lag = 0` run stays bitwise identical to the barrier
    /// driver — recording never touches scheduling decisions.
    pub trace: bool,
}

impl Default for AsyncFixedPointDriver {
    fn default() -> Self {
        AsyncFixedPointDriver {
            max_iterations: 1_000,
            max_lag: 0,
            failures: AttemptFailurePlan::none(),
            attempt_seed: 0,
            node_failures: NodeFailurePlan::none(),
            virtual_nodes: 8,
            trace: false,
        }
    }
}

impl AsyncFixedPointDriver {
    /// A driver capped at `max_iterations`, with `max_lag = 0`
    /// (barrier-identical results, asynchronous schedule).
    pub fn new(max_iterations: usize) -> Self {
        AsyncFixedPointDriver { max_iterations, ..Default::default() }
    }

    /// Sets the bounded-staleness knob.
    pub fn with_max_lag(mut self, max_lag: usize) -> Self {
        self.max_lag = max_lag;
        self
    }

    /// Enables transient-failure injection (see the
    /// [module docs](self): failed attempts deliver nothing and are
    /// re-executed deterministically, so converged results are
    /// unchanged). `plan` is the regime a simulated replay shares;
    /// `seed` drives this session's per-attempt verdicts.
    pub fn with_failures(mut self, plan: AttemptFailurePlan, seed: u64) -> Self {
        self.failures = plan;
        self.attempt_seed = seed;
        self
    }

    /// Enables correlated node-failure injection (see the
    /// [module docs](self#checkpointrollback-correlated-node-failures)):
    /// `plan` is the regime a simulated replay shares, checkpoint
    /// interval included; `virtual_nodes` how many nodes this session
    /// spreads its partitions over (`partition % virtual_nodes`). State
    /// history is retained back to the last declared checkpoint and the
    /// snapshot bytes are metered. Converged results stay byte-identical
    /// at `max_lag = 0`; only the rollback/wasted-work accounting and
    /// wall-clock change.
    pub fn with_node_failures(mut self, plan: NodeFailurePlan, virtual_nodes: usize) -> Self {
        self.node_failures = plan;
        self.virtual_nodes = virtual_nodes;
        self
    }

    /// Whether attempt `attempt` of partition `p`'s gmap at `iteration`
    /// dies: the plan's rule over the pure verdict
    /// `verdict_unit(attempt_seed, [p, iteration, attempt])`.
    fn attempt_dies(&self, p: usize, iteration: usize, attempt: u32) -> bool {
        self.failures.dies(attempt, || {
            verdict_unit(self.attempt_seed, &[p as u64, iteration as u64, u64::from(attempt)])
        })
    }

    /// Enables per-attempt span recording for this run (see
    /// [`crate::obs`]): every launch/gmap/deliver/absorb/blocked-wait/
    /// rollback becomes a timestamped span in
    /// [`SessionReport::trace`], ready for the unified
    /// Chrome-trace/HTML renderer in
    /// `asyncmr_simcluster::trace::report`. Results are unchanged —
    /// only observation is added.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Runs `algo` until convergence or the iteration cap, keeping one
    /// multiwave scope alive across all global iterations (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// If `max_iterations` is 0, or a failure plan is out of range.
    pub fn run<A: AsyncIterative>(&self, pool: &ThreadPool, algo: &A) -> SessionOutcome<A::State> {
        assert!(self.max_iterations > 0, "AsyncFixedPointDriver::max_iterations is 0");
        let started = Instant::now();
        let pool_before = pool.metrics();
        // Injection-time validation: a plan assembled literally with
        // out-of-range fields is rejected before any scheduling (the
        // node plan by `Recovery::new`, which owns it).
        self.failures.validate();
        let topo = Topology::of(algo);
        // The recorder exists only on traced runs: untraced runs take
        // no per-attempt branches beyond one `Option` test. An empty
        // run has nothing to trace.
        let traced = self.trace && topo.partitions() > 0;
        let recorder = traced.then(|| Arc::new(SpanRecorder::new(pool.num_threads())));
        if let Some(rec) = &recorder {
            pool.set_park_observer(Some(rec.clone()));
        }
        let mut sess = Session::new(self, algo, &topo, recorder.clone());
        let initial =
            (0..topo.partitions()).filter_map(|p| Some((p, sess.make_launch(p)?))).collect();
        pool.par_multiwave(
            initial,
            |_id, launch| run_attempt(algo, self, recorder.as_deref(), launch),
            |_id, done, wave| sess.complete(done, wave),
        );
        // Stop observing parks before draining, so the trace's park
        // totals are settled when `finish` reads them.
        if recorder.is_some() {
            pool.set_park_observer(None);
        }
        sess.finish(started.elapsed(), pool.metrics().since(&pool_before))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring diffusion: partition p owns one scalar; each iteration
    /// x_p ← 0.4·x_p + 0.2·(x_{p−1} + x_{p+1}) + heat_p. Coefficients
    /// sum to 0.8 < 1, so the fixpoint is a strict contraction, with a
    /// sparse (ring) dependency structure.
    struct Ring {
        k: usize,
        heat: Vec<f64>,
        tolerance: f64,
        sparse: bool,
    }

    impl Ring {
        fn new(k: usize, tolerance: f64, sparse: bool) -> Self {
            let heat = (0..k).map(|p| (p as f64 * 0.37).sin().abs() * 0.1).collect();
            Ring { k, heat, tolerance, sparse }
        }

        fn neighbors(&self, p: usize) -> Vec<usize> {
            if self.k == 1 {
                return Vec::new();
            }
            let mut v = vec![(p + self.k - 1) % self.k, (p + 1) % self.k];
            v.sort_unstable();
            v.dedup();
            v.retain(|&q| q != p);
            v
        }
    }

    impl AsyncIterative for Ring {
        type State = f64;
        type Update = f64;
        type Msg = f64;

        fn partitions(&self) -> usize {
            self.k
        }

        fn dependencies(&self, p: usize) -> Dependence {
            if self.sparse {
                Dependence::Sparse(self.neighbors(p))
            } else {
                Dependence::Full
            }
        }

        fn init_state(&self, p: usize) -> f64 {
            p as f64
        }

        fn gmap(
            &self,
            p: usize,
            _iteration: usize,
            state: &f64,
            outbox: &mut Outbox<f64>,
        ) -> GmapOutput<f64> {
            for q in self.neighbors(p) {
                outbox.push(q, 0.2 * *state);
            }
            GmapOutput {
                update: 0.4 * *state + self.heat[p],
                ops: 4,
                local_syncs: 1,
                input_bytes: 16,
                msg_records: 2,
                msg_bytes: 16,
            }
        }

        fn absorb(
            &self,
            _p: usize,
            _iteration: usize,
            state: &f64,
            update: f64,
            inbox: &[(usize, &[f64])],
        ) -> Absorbed<f64> {
            let mut x = update;
            for (_, msgs) in inbox {
                for m in *msgs {
                    x += m;
                }
            }
            Absorbed { state: x, delta: (x - *state).abs(), ops: 1 }
        }

        fn converged(&self, max_delta: f64) -> bool {
            max_delta < self.tolerance
        }
    }

    /// The barrier oracle: the same trait methods driven by a plain
    /// sequential loop with a global barrier per iteration.
    fn run_barrier(algo: &Ring, max_iterations: usize) -> (Vec<f64>, usize, bool) {
        let k = algo.partitions();
        let mut states: Vec<f64> = (0..k).map(|p| algo.init_state(p)).collect();
        for i in 0..max_iterations {
            let outs: Vec<(GmapOutput<f64>, Outbox<f64>)> = (0..k)
                .map(|p| {
                    let mut outbox = Outbox::new(k);
                    let out = algo.gmap(p, i, &states[p], &mut outbox);
                    (out, outbox)
                })
                .collect();
            let mut max_delta = 0.0f64;
            let mut next = Vec::with_capacity(k);
            for p in 0..k {
                let deps = match algo.dependencies(p) {
                    Dependence::Full => (0..k).filter(|&q| q != p).collect::<Vec<_>>(),
                    Dependence::Sparse(v) => v,
                };
                let inbox: Vec<(usize, &[f64])> =
                    deps.iter().map(|&q| (q, outs[q].1.batch(p))).collect();
                let absorbed = algo.absorb(p, i, &states[p], outs[p].0.update, &inbox);
                max_delta = max_delta.max(absorbed.delta);
                next.push(absorbed.state);
            }
            states = next;
            if algo.converged(max_delta) {
                return (states, i + 1, true);
            }
        }
        (states, max_iterations, false)
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn lag_zero_matches_the_barrier_oracle_bitwise() {
        let algo = Ring::new(9, 1e-10, true);
        let driver = AsyncFixedPointDriver::new(500);
        let outcome = driver.run(&pool(), &algo);
        let (oracle, iters, converged) = run_barrier(&algo, 500);
        assert!(converged && outcome.report.converged);
        assert_eq!(outcome.report.global_iterations, iters);
        for (p, (got, want)) in outcome.states.iter().zip(&oracle).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "partition {p}: {got} vs {want}");
        }
    }

    #[test]
    fn full_dependence_degrades_to_the_same_fixpoint_bitwise() {
        // Same arithmetic, denser dependency structure: Full must give
        // identical states (non-neighbors contribute empty batches) and
        // identical iteration counts.
        let sparse = Ring::new(7, 1e-9, true);
        let full = Ring::new(7, 1e-9, false);
        let driver = AsyncFixedPointDriver::new(500);
        let p = pool();
        let a = driver.run(&p, &sparse);
        let b = driver.run(&p, &full);
        assert_eq!(a.report.global_iterations, b.report.global_iterations);
        for (x, y) in a.states.iter().zip(&b.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bounded_staleness_reaches_the_same_fixpoint() {
        let algo = Ring::new(8, 1e-12, true);
        let exact = AsyncFixedPointDriver::new(2_000).run(&pool(), &algo);
        let stale = AsyncFixedPointDriver::new(2_000).with_max_lag(2).run(&pool(), &algo);
        assert!(exact.report.converged && stale.report.converged);
        assert_eq!(stale.report.max_lag, 2);
        for (x, y) in exact.states.iter().zip(&stale.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "lagged fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn iteration_cap_stops_an_unconverged_run() {
        let algo = Ring::new(5, 0.0, true); // tolerance 0: never converges
        let outcome = AsyncFixedPointDriver::new(13).run(&pool(), &algo);
        assert!(!outcome.report.converged);
        assert_eq!(outcome.report.global_iterations, 13);
        let (oracle, _, oracle_conv) = run_barrier(&algo, 13);
        assert!(!oracle_conv);
        for (got, want) in outcome.states.iter().zip(&oracle) {
            assert_eq!(got.to_bits(), want.to_bits(), "capped run must match the barrier cap");
        }
    }

    #[test]
    fn single_partition_session_runs() {
        let algo = Ring::new(1, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(200).run(&pool(), &algo);
        assert!(outcome.report.converged);
        assert_eq!(outcome.states.len(), 1);
    }

    #[test]
    fn schedule_is_topological_and_covers_contributing_work() {
        let algo = Ring::new(6, 1e-8, true);
        let outcome = AsyncFixedPointDriver::new(500).run(&pool(), &algo);
        let sched = &outcome.report.schedule;
        assert_eq!(sched.len(), outcome.report.global_iterations * 6);
        assert_eq!(sched.len(), outcome.report.gmap_tasks);
        for (i, t) in sched.iter().enumerate() {
            assert!(t.deps.iter().all(|&d| d < i), "task {i} has a forward dep");
            assert!(t.iteration < outcome.report.global_iterations);
            if t.iteration > 0 {
                // Own previous iteration plus two ring neighbors.
                assert_eq!(t.deps.len(), 3, "ring deps: {:?}", t.deps);
            }
        }
        // Meters accumulated over contributing iterations.
        assert_eq!(outcome.report.local_syncs, sched.len() as u64);
        assert!(outcome.report.total_ops > 0);
    }

    #[test]
    fn empty_algorithm_returns_immediately() {
        let algo = Ring::new(0, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(10).run(&pool(), &algo);
        assert!(outcome.states.is_empty());
        assert_eq!(outcome.report.global_iterations, 0);
        assert!(outcome.report.converged);
    }

    #[test]
    fn traced_empty_run_carries_no_trace() {
        let out =
            AsyncFixedPointDriver::new(10).with_trace().run(&pool(), &Ring::new(0, 1e-9, true));
        assert!(out.report.trace.is_none(), "no partitions, nothing observed");
        assert!(out.report.observed_staleness.is_empty());
    }

    #[test]
    fn injected_transient_failures_leave_the_fixpoint_bitwise_identical() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(500).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(500)
            .with_failures(AttemptFailurePlan::transient(0.3), 42)
            .run(&p, &algo);
        assert!(faulty.report.failed_attempts > 0, "0.3/attempt over this many tasks must fire");
        assert_eq!(
            clean.report.global_iterations, faulty.report.global_iterations,
            "recovery must not change the iteration count"
        );
        assert_eq!(clean.report.gmap_tasks, faulty.report.gmap_tasks);
        for (i, (x, y)) in clean.states.iter().zip(&faulty.states).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "partition {i} diverged under failures");
        }
        assert_eq!(clean.report.failed_attempts, 0);
    }

    #[test]
    fn near_certain_failures_still_terminate_via_the_attempt_budget() {
        // 0.99 per attempt: progress relies on the last-attempt-never-
        // fails rule (the simulator's rule, Hadoop's bounded budget).
        let algo = Ring::new(5, 1e-8, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(300).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(300)
            .with_failures(AttemptFailurePlan::transient(0.99), 3)
            .run(&p, &algo);
        assert!(faulty.report.converged);
        // Roughly MAX_ATTEMPTS − 1 failures per task at p = 0.99.
        assert!(
            faulty.report.failed_attempts > faulty.report.gmap_tasks,
            "expected ≈3 failures per task, got {} over {} tasks",
            faulty.report.failed_attempts,
            faulty.report.gmap_tasks
        );
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn failure_decision_is_deterministic_and_spares_the_last_attempt() {
        let driver =
            AsyncFixedPointDriver::new(1).with_failures(AttemptFailurePlan::transient(0.9), 7);
        let budget = AttemptFailurePlan::MAX_ATTEMPTS;
        let mut fired = 0;
        for p in 0..4 {
            for i in 0..10 {
                for a in 0..budget {
                    let dies = driver.attempt_dies(p, i, a);
                    assert_eq!(
                        dies,
                        a + 1 < budget
                            && verdict_unit(7, &[p as u64, i as u64, u64::from(a)]) < 0.9,
                        "verdict must be a pure function of (seed, p, iter, attempt)"
                    );
                    if a + 1 >= budget {
                        assert!(!dies, "last attempt must succeed");
                    } else if dies {
                        fired += 1;
                    }
                }
            }
        }
        assert!(fired > 0, "0.9/attempt must fire somewhere in 120 draws");
        assert!(!AsyncFixedPointDriver::new(1).attempt_dies(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn literally_constructed_out_of_range_plan_is_rejected_at_injection() {
        // The fields are `pub`, so `transient`'s range check can be
        // bypassed; `run` validates once at injection time instead.
        let plan = AttemptFailurePlan { attempt_failure_prob: 1.5 };
        let algo = Ring::new(3, 1e-6, true);
        let _ = AsyncFixedPointDriver::new(10).with_failures(plan, 0).run(&pool(), &algo);
    }

    #[test]
    #[should_panic(expected = "AsyncFixedPointDriver::max_iterations is 0")]
    fn a_zero_iteration_cap_is_refused() {
        let _ = AsyncFixedPointDriver::new(0).run(&pool(), &Ring::new(3, 1e-6, true));
    }

    #[test]
    fn bounded_staleness_with_failures_reaches_the_same_fixpoint() {
        let algo = Ring::new(8, 1e-12, true);
        let p = pool();
        let exact = AsyncFixedPointDriver::new(2_000).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(2_000)
            .with_max_lag(2)
            .with_failures(AttemptFailurePlan::transient(0.2), 11)
            .run(&p, &algo);
        assert!(exact.report.converged && faulty.report.converged);
        for (x, y) in exact.states.iter().zip(&faulty.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "stale + faulty fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn checkpoints_meter_bytes_without_changing_results() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let plain = AsyncFixedPointDriver::new(500).run(&p, &algo);
        // A node plan that never fires still checkpoints every 2.
        let ckpt = AsyncFixedPointDriver::new(500)
            .with_node_failures(NodeFailurePlan::correlated(1e-12, 0, 2), 8)
            .run(&p, &algo);
        assert_eq!(plain.report.global_iterations, ckpt.report.global_iterations);
        for (x, y) in plain.states.iter().zip(&ckpt.states) {
            assert_eq!(x.to_bits(), y.to_bits(), "checkpointing must not touch results");
        }
        assert_eq!(plain.report.checkpoint_bytes, 0);
        assert_eq!((plain.report.rollbacks, ckpt.report.rollbacks), (0, 0));
        // Ring state is one f64: every-2 checkpoints over n iterations
        // write ~n/2 × 8 × 8 bytes.
        let iters = ckpt.report.global_iterations as u64;
        assert_eq!(ckpt.report.checkpoint_bytes, (iters / 2) * 8 * 8);
        assert!(plain.report.peak_state_bytes >= 8 * 8, "holds at least one state per partition");
        // Schedule-independent floor: when the last partition absorbs the
        // iteration that declares checkpoint C + 2, every partition still
        // holds its states entering C, C + 1 and C + 2.
        assert!(
            ckpt.report.peak_state_bytes >= 3 * 8 * 8,
            "checkpoint retention holds history back to the last checkpoint"
        );
    }

    #[test]
    fn node_failure_rollback_leaves_the_fixpoint_bitwise_identical() {
        let algo = Ring::new(8, 1e-10, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(500).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(500)
            .with_node_failures(NodeFailurePlan::correlated(0.2, 42, 2), 3)
            .run(&p, &algo);
        assert!(faulty.report.rollbacks > 0, "0.2/(node, epoch) must fire");
        assert!(
            faulty.report.rolled_back_iterations > 0,
            "a mid-interval death must undo absorbed work"
        );
        assert_eq!(
            clean.report.global_iterations, faulty.report.global_iterations,
            "rollback recovery must not change the iteration count"
        );
        assert_eq!(clean.report.gmap_tasks, faulty.report.gmap_tasks);
        assert_eq!(clean.report.local_syncs, faulty.report.local_syncs);
        assert_eq!(clean.report.total_ops, faulty.report.total_ops);
        for (i, (x, y)) in clean.states.iter().zip(&faulty.states).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "partition {i} diverged under node failures");
        }
    }

    #[test]
    fn node_failures_compose_with_transient_attempt_failures() {
        let algo = Ring::new(7, 1e-9, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(400).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(400)
            .with_failures(AttemptFailurePlan::transient(0.2), 5)
            .with_node_failures(NodeFailurePlan::correlated(0.15, 11, 1), 2)
            .run(&p, &algo);
        assert!(faulty.report.failed_attempts > 0);
        assert!(faulty.report.rollbacks > 0);
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn node_failure_rollback_under_staleness_still_converges() {
        let algo = Ring::new(8, 1e-12, true);
        let p = pool();
        let exact = AsyncFixedPointDriver::new(2_000).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(2_000)
            .with_max_lag(2)
            .with_node_failures(NodeFailurePlan::correlated(0.15, 9, 4), 3)
            .run(&p, &algo);
        assert!(exact.report.converged && faulty.report.converged);
        for (x, y) in exact.states.iter().zip(&faulty.states) {
            assert!(
                (*x.as_ref() - *y.as_ref()).abs() < 1e-9,
                "stale + node-faulty fixpoint drifted: {x} vs {y}"
            );
        }
    }

    #[test]
    fn near_certain_node_failures_terminate_via_the_death_budget() {
        let algo = Ring::new(6, 1e-8, true);
        let p = pool();
        let clean = AsyncFixedPointDriver::new(300).run(&p, &algo);
        let faulty = AsyncFixedPointDriver::new(300)
            .with_node_failures(NodeFailurePlan::correlated(0.9, 4, 1), 2)
            .run(&p, &algo);
        assert!(faulty.report.converged, "the per-node budget must guarantee termination");
        let budget = NodeFailurePlan::MAX_DEATHS as usize;
        assert!(faulty.report.rollbacks <= 2 * budget, "budget: ≤ MAX_DEATHS per node");
        for (x, y) in clean.states.iter().zip(&faulty.states) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn literally_constructed_node_plan_is_rejected_at_injection() {
        let plan = NodeFailurePlan { node_failure_prob: 2.0, ..NodeFailurePlan::none() };
        let algo = Ring::new(3, 1e-6, true);
        let _ = AsyncFixedPointDriver::new(10).with_node_failures(plan, 8).run(&pool(), &algo);
    }

    #[test]
    fn wasted_work_accounting_splits_failed_from_speculative() {
        let algo = Ring::new(6, 1e-9, true);
        let outcome = AsyncFixedPointDriver::new(400)
            .with_failures(AttemptFailurePlan::transient(0.4), 9)
            .run(&pool(), &algo);
        assert!(outcome.report.failed_attempts > 0);
        // Failed attempts are not speculative tasks and vice versa:
        // contributing + speculative tasks account for every success.
        assert_eq!(
            outcome.report.gmap_tasks,
            outcome.report.global_iterations * 6,
            "every contributing (p, iter) executes exactly once"
        );
    }

    #[test]
    fn every_report_carries_the_staleness_it_observed() {
        // Sparse ring of 6: two dependencies per partition.
        let algo = Ring::new(6, 1e-10, true);
        let dep_slots = 12;
        for (lag, node_failures) in [(0, false), (2, false), (0, true), (2, true)] {
            let mut driver = AsyncFixedPointDriver::new(1_000).with_max_lag(lag);
            if node_failures {
                driver = driver.with_node_failures(NodeFailurePlan::correlated(0.2, 42, 2), 3);
            }
            let report = driver.run(&pool(), &algo).report;
            assert!(report.converged);
            assert_eq!(report.rollbacks > 0, node_failures, "0.2/(node, epoch) must fire");
            let hist = &report.observed_staleness;
            assert!(hist.len() <= lag + 1, "lag {lag}: absorbed a batch {} stale", hist.len() - 1);
            assert_eq!(hist.iter().sum::<u64>(), (report.global_iterations * dep_slots) as u64);
            assert_eq!(report.gmap_tasks, report.global_iterations * 6);
            assert_eq!(report.max_lag, lag);
            if lag == 0 {
                assert_eq!(hist.len(), 1, "lag 0 reads nothing but fresh batches");
            }
        }
    }

    /// Partition 0 depends on nobody; partition 1 reads it and is slow,
    /// so partition 0 runs as far ahead as the launch cap lets it.
    struct Runaway;

    impl AsyncIterative for Runaway {
        type State = f64;
        type Update = f64;
        type Msg = f64;

        fn partitions(&self) -> usize {
            2
        }

        fn dependencies(&self, p: usize) -> Dependence {
            Dependence::Sparse(if p == 1 { vec![0] } else { Vec::new() })
        }

        fn init_state(&self, _p: usize) -> f64 {
            1.0
        }

        fn gmap(
            &self,
            p: usize,
            _: usize,
            state: &f64,
            outbox: &mut Outbox<f64>,
        ) -> GmapOutput<f64> {
            if p == 0 {
                outbox.push(1, *state);
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
            let sent = u64::from(p == 0);
            GmapOutput {
                update: 0.5 * *state,
                ops: 1,
                local_syncs: 1,
                input_bytes: 8,
                msg_records: sent,
                msg_bytes: 8 * sent,
            }
        }

        fn absorb(
            &self,
            _p: usize,
            _: usize,
            state: &f64,
            update: f64,
            inbox: &[(usize, &[f64])],
        ) -> Absorbed<f64> {
            let x =
                update + inbox.iter().flat_map(|(_, msgs)| *msgs).map(|m| 0.25 * m).sum::<f64>();
            Absorbed { state: x, delta: (x - *state).abs(), ops: 1 }
        }

        fn converged(&self, max_delta: f64) -> bool {
            max_delta < 1e-9
        }
    }

    #[test]
    fn a_partition_running_ahead_passes_the_retention_audit() {
        // `run` audits the retention bound on the way out; these runs
        // press on it at lag 0, at lag 2, and with the checkpoint tail
        // of node failures every 4 iterations.
        let nodes = NodeFailurePlan::correlated(0.2, 42, 4);
        for driver in [
            AsyncFixedPointDriver::new(500),
            AsyncFixedPointDriver::new(500).with_max_lag(2),
            AsyncFixedPointDriver::new(500).with_node_failures(nodes, 2),
        ] {
            let report = driver.run(&pool(), &Runaway).report;
            assert!(report.converged, "lag {}", driver.max_lag);
            assert_eq!(report.rollbacks > 0, driver.node_failures.enabled(), "0.2/epoch fires");
        }
    }

    #[test]
    #[should_panic(
        expected = "retention contract broken: a partition held 11 states at once, over the bound \
                    of 10"
    )]
    fn the_audit_refuses_a_partition_holding_past_the_bound() {
        let report = AsyncFixedPointDriver::new(50).run(&pool(), &Ring::new(3, 1e-6, true)).report;
        report.audit(3, 6, (11, 10));
    }

    #[test]
    fn outbox_extend_is_repeated_push() {
        let runs: [(usize, &[u32]); 4] = [(2, &[20, 21]), (0, &[]), (2, &[22]), (1, &[10])];
        let mut pushed: Outbox<u32> = Outbox::new(3);
        let mut extended: Outbox<u32> = Outbox::new(3);
        for (dest, msgs) in runs {
            msgs.iter().for_each(|&m| pushed.push(dest, m));
            extended.extend(dest, msgs.iter().copied());
        }
        assert_eq!(extended.per_dest, pushed.per_dest);
        assert_eq!(extended.touched, pushed.touched, "an empty run touches nothing");
        assert_eq!(extended.touched, [2, 1]);
    }

    #[test]
    #[should_panic(expected = "destination 4 out of 4 partitions")]
    fn outbox_names_an_out_of_range_destination() {
        Outbox::new(4).push(4, 0u32);
    }
}
