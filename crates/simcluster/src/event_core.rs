//! The unified seeded discrete-event core.
//!
//! One [`EventCore`] owns everything a deterministic simulation needs —
//! the clock, the `(time, event_id)`-ordered event queue, the seeded
//! RNG, and the pluggable [`NetworkModel`] — in the dslab-core shape:
//! events carry [`Ev`] payloads addressed to a [`ComponentId`] and pop
//! in deterministic order. Both replay paths
//! ([`crate::Simulation::run_job`], addressed as [`BARRIER`], and
//! [`crate::Simulation::run_async_schedule`], as [`ASYNC`]) are
//! schedules fed to this one core. Each replay owns the whole queue
//! while it runs: it pops every event itself and handles it in its own
//! `on_event`. Task lifecycles, shuffle transfers, failure verdicts,
//! detection delays, node deaths/rejoins, and checkpoint markers are
//! all instances of the same event vocabulary, stamped on the same
//! clock, priced by the same network model.
//!
//! ## Determinism contract
//!
//! * events pop in `(time, event_id)` order, event ids assigned in
//!   push order ([`crate::events::EventQueue`]);
//! * every random draw comes from the core's single seeded
//!   [`StdRng`] stream;
//! * the [trace](EventCore::trace) records events in processing order,
//!   so "byte-identical runs" is checkable as trace equality (and
//!   pinnable as a [digest](EventCore::trace_digest)).
//!
//! A run is therefore a pure function of
//! `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
//! seed, workload)` — across processes and `--test-threads` settings alike.

use asyncmr_model::{splitmix64, SimTime};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::events::EventQueue;
use crate::network::NetworkModel;

/// The address an event is scheduled to (part of every trace digest).
pub type ComponentId = usize;

/// The barrier replay ([`crate::Simulation::run_job`]).
pub const BARRIER: ComponentId = 0;

/// The async replay ([`crate::Simulation::run_async_schedule`]).
pub const ASYNC: ComponentId = 1;

/// The unified event vocabulary: every state transition of either
/// replay path is one of these, so a single trace tells the whole
/// story of a run — barrier task lifecycles, async completions, node
/// deaths, and the trace-only transfer/checkpoint markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// A barrier map attempt finished on `node`. `incarnation` is the
    /// node's incarnation at dispatch; a completion from a previous
    /// incarnation (the node died in between) is stale and ignored.
    MapDone {
        /// Map task index.
        task: usize,
        /// Node the attempt ran on.
        node: usize,
        /// Node incarnation at dispatch.
        incarnation: u32,
    },
    /// A barrier map attempt died (transient-failure injection).
    MapFailed {
        /// Map task index.
        task: usize,
        /// Node the attempt ran on.
        node: usize,
        /// Node incarnation at dispatch.
        incarnation: u32,
    },
    /// A failed/lost map re-enters the pending queue (detection delay
    /// elapsed).
    MapRetry {
        /// Map task index.
        task: usize,
    },
    /// A reducer's shuffle input is fully fetched.
    ReduceReady {
        /// Reduce task index.
        task: usize,
    },
    /// A barrier reduce attempt finished on `node`.
    ReduceDone {
        /// Reduce task index.
        task: usize,
        /// Node the attempt ran on.
        node: usize,
        /// Node incarnation at dispatch.
        incarnation: u32,
    },
    /// A barrier reduce attempt died (transient-failure injection).
    ReduceFailed {
        /// Reduce task index.
        task: usize,
        /// Node the attempt ran on.
        node: usize,
        /// Node incarnation at dispatch.
        incarnation: u32,
    },
    /// A failed/lost reduce re-enters the ready queue.
    ReduceRetry {
        /// Reduce task index.
        task: usize,
    },
    /// An async-schedule epoch boundary: death verdicts are drawn and
    /// every pending task of iteration ≤ `epoch` is placed.
    EpochStart {
        /// Global iteration this boundary admits.
        epoch: usize,
    },
    /// An async task's successful attempt completed. `generation`
    /// mirrors the barrier path's incarnation: completions of
    /// rolled-back generations are stale.
    TaskDone {
        /// Task index in the schedule.
        task: usize,
        /// Node the attempt ran on.
        node: usize,
        /// Rollback generation at dispatch.
        generation: u32,
    },
    /// A node died (correlated node-failure injection), taking resident
    /// attempts and unfetched outputs with it.
    NodeDeath {
        /// The dead node.
        node: usize,
    },
    /// A dead node rejoined with fresh slots (detection delay elapsed).
    NodeRejoin {
        /// The rejoining node.
        node: usize,
    },
    /// Trace-only marker: a committed network transfer completed.
    TransferDone {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// Bytes moved.
        bytes: u64,
    },
    /// Trace-only marker: a checkpoint boundary passed (async path;
    /// rollback extent bookkeeping, no traffic billed — see
    /// [`crate::asyncsched`]).
    Checkpoint {
        /// The epoch whose boundary this is.
        epoch: usize,
    },
    /// Trace-only marker: one link's live utilization snapshot at an
    /// async epoch boundary (only links with traffic in flight are
    /// recorded; models that report no utilization emit none). Link
    /// indices follow [`crate::network::NetworkModel::utilization`].
    LinkUtil {
        /// Link index in the model's utilization vector.
        link: usize,
        /// Bytes/s currently in use on the link (rounded).
        used_bps: u64,
        /// The link's capacity in bytes/s (rounded).
        cap_bps: u64,
    },
}

/// One line of the event trace: an event as it was processed (or
/// marked), with its id and timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Queue event id (push order) or mark id.
    pub id: u64,
    /// When the event fired.
    pub at: SimTime,
    /// The component it was addressed to.
    pub component: ComponentId,
    /// The payload.
    pub ev: Ev,
}

impl TraceEvent {
    /// Whether this line is a trace-only marker (recorded via
    /// [`EventCore::mark`]: transfer completions, checkpoints, link
    /// snapshots) rather than a popped queue event. Marker ids live
    /// above the queue's id space.
    pub fn is_mark(&self) -> bool {
        self.id & (1 << 63) != 0
    }

    /// Folds this trace line into an order-sensitive digest word.
    fn digest_word(&self) -> u64 {
        let tag = match self.ev {
            Ev::MapDone { task, node, incarnation } => {
                [1, task as u64, node as u64, u64::from(incarnation)]
            }
            Ev::MapFailed { task, node, incarnation } => {
                [2, task as u64, node as u64, u64::from(incarnation)]
            }
            Ev::MapRetry { task } => [3, task as u64, 0, 0],
            Ev::ReduceReady { task } => [4, task as u64, 0, 0],
            Ev::ReduceDone { task, node, incarnation } => {
                [5, task as u64, node as u64, u64::from(incarnation)]
            }
            Ev::ReduceFailed { task, node, incarnation } => {
                [6, task as u64, node as u64, u64::from(incarnation)]
            }
            Ev::ReduceRetry { task } => [7, task as u64, 0, 0],
            Ev::EpochStart { epoch } => [8, epoch as u64, 0, 0],
            Ev::TaskDone { task, node, generation } => {
                [9, task as u64, node as u64, u64::from(generation)]
            }
            Ev::NodeDeath { node } => [10, node as u64, 0, 0],
            Ev::NodeRejoin { node } => [11, node as u64, 0, 0],
            Ev::TransferDone { src, dst, bytes } => [12, src as u64, dst as u64, bytes],
            Ev::Checkpoint { epoch } => [13, epoch as u64, 0, 0],
            Ev::LinkUtil { link, used_bps, cap_bps } => [14, link as u64, used_bps, cap_bps],
        };
        let mut h = splitmix64(self.at.as_micros() ^ (self.component as u64) << 56);
        for w in tag {
            h = splitmix64(h ^ w.wrapping_mul(0x100_0000_01b3));
        }
        h
    }
}

/// The unified simulation core: clock + event queue + seeded RNG +
/// network model + trace.
#[derive(Debug)]
pub struct EventCore {
    clock: SimTime,
    queue: EventQueue<(ComponentId, Ev)>,
    rng: StdRng,
    net: Box<dyn NetworkModel>,
    trace: Vec<TraceEvent>,
    marks: u64,
}

impl EventCore {
    /// Creates a core at time zero with the given seed and network
    /// model.
    pub fn new(seed: u64, net: Box<dyn NetworkModel>) -> Self {
        EventCore {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(seed),
            net,
            trace: Vec::new(),
            marks: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event,
    /// or wherever a driver explicitly advanced it).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Explicitly advances the clock (job envelopes: setup/cleanup
    /// spans that frame the event-driven middle). Never rewinds.
    pub fn set_clock(&mut self, at: SimTime) {
        self.clock = self.clock.max(at);
    }

    /// Schedules `ev` for `component` at absolute time `at`; returns
    /// the event id (assigned in push order — the tie-breaker).
    pub fn schedule(&mut self, at: SimTime, component: ComponentId, ev: Ev) -> u64 {
        self.queue.push(at, (component, ev))
    }

    /// Pops the earliest event, advancing the clock to it and recording
    /// it in the trace.
    pub fn pop(&mut self) -> Option<(SimTime, ComponentId, Ev)> {
        let (at, id, (component, ev)) = self.queue.pop()?;
        self.clock = self.clock.max(at);
        self.trace.push(TraceEvent { id, at, component, ev });
        Some((at, component, ev))
    }

    /// Records a trace-only marker (no queue traffic, no clock effect):
    /// transfer completions and checkpoint boundaries are observable in
    /// the trace without perturbing event order.
    pub fn mark(&mut self, at: SimTime, component: ComponentId, ev: Ev) {
        // Mark ids live above the queue's id space so they never
        // collide with scheduled events.
        let id = (1u64 << 63) | self.marks;
        self.marks += 1;
        self.trace.push(TraceEvent { id, at, component, ev });
    }

    /// The seeded RNG stream (single, shared — draw order is part of
    /// the determinism contract).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// The network model, for committing transfers.
    pub fn net_mut(&mut self) -> &mut dyn NetworkModel {
        self.net.as_mut()
    }

    /// The network model, read-only (pure placement estimates).
    pub fn net(&self) -> &dyn NetworkModel {
        self.net.as_ref()
    }

    /// Replaces the network model (builder-time only: swapping models
    /// mid-run would discard committed occupancy).
    pub fn set_net(&mut self, net: Box<dyn NetworkModel>) {
        self.net = net;
    }

    /// Samples a mean-1 log-normal straggler multiplier (Box–Muller,
    /// mean-corrected so `E[multiplier] = 1`). Draw order: `u1` then
    /// `u2` — pinned by the replay-fidelity goldens.
    pub fn straggler(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        let u1: f64 = self.rng.random_range(1e-12..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (sigma * z - 0.5 * sigma * sigma).exp()
    }

    /// The event trace accumulated since the last
    /// [`EventCore::clear_trace`], in processing order.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Starts a fresh trace (each `run_*` call does this, so the trace
    /// always describes the most recent run).
    pub fn clear_trace(&mut self) {
        self.trace.clear();
        self.marks = 0;
    }

    /// Order-sensitive digest of the current trace — the compact
    /// "byte-identical run" witness determinism tests pin.
    pub fn trace_digest(&self) -> u64 {
        self.trace.iter().fold(0x5eed_5eed_5eed_5eed, |acc, te| splitmix64(acc ^ te.digest_word()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Constant;

    fn core(seed: u64) -> EventCore {
        EventCore::new(seed, Box::new(Constant::new(4, 1e6, SimTime::from_millis(1))))
    }

    #[test]
    fn pop_advances_clock_and_traces() {
        let mut core = core(1);
        let id0 = core.schedule(SimTime::from_secs(2), BARRIER, Ev::ReduceReady { task: 0 });
        let id1 = core.schedule(SimTime::from_secs(1), ASYNC, Ev::ReduceReady { task: 1 });
        assert!(id1 > id0, "event ids are assigned in push order");
        let (at, component, ev) = core.pop().unwrap();
        assert_eq!((at, component), (SimTime::from_secs(1), ASYNC), "the address travels along");
        assert_eq!(ev, Ev::ReduceReady { task: 1 });
        assert_eq!(core.now(), SimTime::from_secs(1));
        core.pop().unwrap();
        assert_eq!(core.now(), SimTime::from_secs(2));
        assert!(core.pop().is_none());
        assert_eq!((core.trace()[0].id, core.trace()[0].component), (id1, ASYNC));
        assert_eq!((core.trace()[1].id, core.trace()[1].component), (id0, BARRIER));
    }

    #[test]
    fn marks_do_not_perturb_the_queue() {
        let mut core = core(1);
        core.schedule(SimTime::from_secs(1), BARRIER, Ev::MapRetry { task: 0 });
        core.mark(SimTime::from_secs(9), BARRIER, Ev::TransferDone { src: 0, dst: 1, bytes: 10 });
        let (at, _, _) = core.pop().unwrap();
        assert_eq!(at, SimTime::from_secs(1));
        assert_eq!(core.now(), SimTime::from_secs(1), "marks never advance the clock");
        assert_eq!(core.trace().len(), 2);
    }

    #[test]
    fn trace_digest_is_order_sensitive_and_resets() {
        let mut core = core(1);
        core.schedule(SimTime::from_secs(1), BARRIER, Ev::MapRetry { task: 0 });
        core.schedule(SimTime::from_secs(1), BARRIER, Ev::MapRetry { task: 1 });
        while core.pop().is_some() {}
        let d01 = core.trace_digest();

        core.clear_trace();
        assert_eq!(
            core.trace_digest(),
            0x5eed_5eed_5eed_5eed,
            "cleared trace has the empty digest"
        );
        core.schedule(SimTime::from_secs(1), BARRIER, Ev::MapRetry { task: 1 });
        core.schedule(SimTime::from_secs(1), BARRIER, Ev::MapRetry { task: 0 });
        while core.pop().is_some() {}
        assert_ne!(core.trace_digest(), d01, "processing order is part of the digest");
    }

    #[test]
    fn same_seed_same_draws() {
        let mut a = core(7);
        let mut b = core(7);
        for _ in 0..32 {
            assert_eq!(a.straggler(0.25), b.straggler(0.25));
        }
        let mut c = core(8);
        assert_ne!(a.straggler(0.25), c.straggler(0.25));
        assert_eq!(a.straggler(0.0), 1.0, "sigma 0 draws nothing");
    }

    #[test]
    fn set_clock_never_rewinds() {
        let mut core = core(1);
        core.set_clock(SimTime::from_secs(10));
        core.set_clock(SimTime::from_secs(5));
        assert_eq!(core.now(), SimTime::from_secs(10));
    }
}
