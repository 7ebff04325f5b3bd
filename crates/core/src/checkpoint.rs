//! Checkpoint/rollback recovery for the asynchronous session layer.
//!
//! PR 4's [`crate::session::SessionFailurePlan`] covers *transient*
//! failures: a gmap attempt dies before delivering, and deterministic
//! re-execution on the same input makes recovery invisible. The failure
//! mode that machinery cannot absorb is a **node** dying: every
//! resident attempt *and every async output the node already
//! delivered* disappears at once, so downstream partitions that
//! consumed those outputs hold state derived from data that no longer
//! exists. Recovering from that requires *rollback* — rewinding the
//! affected partitions to a consistent cut and re-executing forward —
//! and rollback is only tractable if the session keeps bounded
//! **history**: checkpoints bound how far the rewind can reach, which
//! in turn bounds the state and mailbox bytes the session must retain
//! (the ASYNC observation, arXiv:1907.08526).
//!
//! This module holds the policy and injection types; the rollback
//! engine itself lives in [`crate::session`] (it needs the scheduler's
//! internals):
//!
//! * [`CheckpointPolicy`] — when to snapshot. Checkpoints are
//!   **coordinated**: an iteration becomes a checkpoint the moment the
//!   globally-complete frontier reaches it, so every partition's
//!   snapshot sits at the same iteration and rollback never cascades
//!   past the last declared checkpoint (no uncoordinated-checkpoint
//!   domino effect).
//! * [`NodeFailurePlan`] — deterministic correlated failures.
//!   Partitions map onto virtual nodes (`partition % num_nodes`); at
//!   every frontier advance (an *epoch*) each node draws a pure
//!   splitmix64 verdict ([`crate::hash::verdict_unit`]) over
//!   `(seed, node, epoch)`, capped per node so sessions always
//!   terminate. Validated once at injection, like
//!   [`crate::session::SessionFailurePlan`].
//! * [`CheckpointTracker`] — the bookkeeping the driver consults at
//!   each frontier advance: which iteration is the current rollback
//!   target, and how many bytes a durable checkpoint store would have
//!   written ([`crate::session::SessionReport::checkpoint_bytes`]).
//!
//! The headline contract (pinned by `tests/chaos_session.rs` and the
//! proptest suite): at `max_lag = 0`, a session run under injected
//! node failures produces results **byte-identical** to the
//! failure-free barrier driver — rollback re-executes pure gmaps on
//! checkpointed states, so recovery is invisible in the result and
//! visible only in the new meters.

use crate::hash::verdict_unit;

/// When the session snapshots per-partition delivered state.
///
/// Snapshots are declared at frontier advances, so the checkpoint set
/// is identical for every partition (coordinated checkpointing — see
/// the [module docs](self)). A checkpoint at iteration `c` preserves
/// each partition's state *entering* `c`; rollback rewinds affected
/// partitions to the last declared checkpoint and re-executes forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No checkpoints: history is pruned at the frontier as before, and
    /// node-failure injection is rejected (nothing to roll back to).
    #[default]
    Off,
    /// Snapshot every `k` completed global iterations (`k ≥ 1`).
    /// Smaller `k` bounds rollback tighter but writes more checkpoint
    /// bytes — the `ckpt k` axis of `repro faults`.
    EveryK(usize),
    /// Snapshot whenever the state bytes delivered since the last
    /// checkpoint reach the budget (`≥ 1`). Adapts the interval to the
    /// workload: big partitions checkpoint often, small ones rarely.
    ByteBudget(u64),
}

impl CheckpointPolicy {
    /// Whether this policy ever declares a checkpoint.
    pub fn enabled(&self) -> bool {
        !matches!(self, CheckpointPolicy::Off)
    }

    /// Panics unless the parameters are in range (`EveryK(k)` needs
    /// `k ≥ 1`, `ByteBudget(b)` needs `b ≥ 1`). Called once at the
    /// start of [`crate::session::AsyncFixedPointDriver::run`], so a
    /// literally-constructed degenerate policy is rejected before it
    /// can bias a run.
    pub fn validate(&self) {
        match *self {
            CheckpointPolicy::Off => {}
            CheckpointPolicy::EveryK(k) => {
                assert!(k >= 1, "checkpoint interval must be at least 1 iteration");
            }
            CheckpointPolicy::ByteBudget(b) => {
                assert!(b >= 1, "checkpoint byte budget must be at least 1 byte");
            }
        }
    }
}

/// Correlated node-failure injection for in-process sessions, the
/// node-level escalation of [`crate::session::SessionFailurePlan`]:
/// instead of one attempt dying, a whole *virtual node* dies, taking
/// every resident in-flight attempt and every delivered output past
/// the last checkpoint with it.
///
/// Whether node `n` dies at epoch `e` (one epoch per frontier advance)
/// is a pure function of `(seed, n, e)` via
/// [`crate::hash::verdict_unit`], so an injected pattern is
/// reproducible no matter how pool threads interleave. Each node dies
/// at most [`NodeFailurePlan::max_node_failures`] times (the
/// termination budget, mirroring the attempt budget), after which it
/// is permanently stable — so a session under injection always
/// terminates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailurePlan {
    /// Probability that a given node dies at a given epoch, in
    /// `[0, 1)`.
    pub node_failure_prob: f64,
    /// Virtual nodes partitions are spread over
    /// (`partition % num_nodes`). Must be ≥ 1 when the plan is
    /// enabled.
    pub num_nodes: usize,
    /// Deaths per node before it becomes permanently stable. Must be
    /// ≥ 1 for the plan to be considered enabled.
    pub max_node_failures: u32,
    /// Seed for the per-(node, epoch) death verdict.
    pub seed: u64,
}

impl NodeFailurePlan {
    /// No injected node failures (the default).
    pub fn none() -> Self {
        NodeFailurePlan { node_failure_prob: 0.0, num_nodes: 8, max_node_failures: 2, seed: 0 }
    }

    /// A correlated-failure regime: `prob` per (node, epoch) over
    /// `num_nodes` virtual nodes, at most two deaths per node.
    pub fn correlated(prob: f64, num_nodes: usize, seed: u64) -> Self {
        let plan =
            NodeFailurePlan { node_failure_prob: prob, num_nodes, max_node_failures: 2, seed };
        plan.validate();
        plan
    }

    /// Whether this plan can ever kill a node.
    pub fn enabled(&self) -> bool {
        self.node_failure_prob > 0.0 && self.max_node_failures > 0
    }

    /// Panics unless the fields are in range (`prob ∈ [0, 1)`,
    /// `num_nodes ≥ 1` when enabled). The driver calls this once at
    /// injection time, like
    /// [`crate::session::SessionFailurePlan::validate`].
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.node_failure_prob),
            "node failure probability must be in [0, 1), got {}",
            self.node_failure_prob
        );
        if self.enabled() {
            assert!(self.num_nodes >= 1, "an enabled plan needs at least one virtual node");
        }
    }

    /// The virtual node partition `p` resides on.
    pub fn node_of(&self, p: usize) -> usize {
        p % self.num_nodes.max(1)
    }

    /// The deterministic per-(node, epoch) death verdict (the per-node
    /// death budget is enforced by the session, keeping the verdict a
    /// pure function).
    pub fn node_fails(&self, node: usize, epoch: u64) -> bool {
        self.enabled() && verdict_unit(self.seed, &[node as u64, epoch]) < self.node_failure_prob
    }
}

impl Default for NodeFailurePlan {
    fn default() -> Self {
        NodeFailurePlan::none()
    }
}

/// Checkpoint bookkeeping for one session run: tracks the last
/// declared checkpoint (the rollback target and history-retention
/// floor) and meters what a durable checkpoint store would have
/// written.
///
/// Iteration 0 is always an implicit checkpoint — the initial states
/// are reconstructible from the input, so it is never billed.
#[derive(Debug, Clone)]
pub struct CheckpointTracker {
    policy: CheckpointPolicy,
    /// Last declared checkpoint iteration (rollback target).
    last: usize,
    /// Checkpoints declared (excluding the implicit iteration 0).
    taken: usize,
    /// Bytes delivered since the last checkpoint (byte-budget policy).
    bytes_since: u64,
    /// Total bytes a durable store would have written.
    checkpoint_bytes: u64,
}

impl CheckpointTracker {
    /// A tracker for `policy`, rooted at the implicit iteration-0
    /// checkpoint.
    pub fn new(policy: CheckpointPolicy) -> Self {
        CheckpointTracker { policy, last: 0, taken: 0, bytes_since: 0, checkpoint_bytes: 0 }
    }

    /// Whether checkpoints are ever declared.
    pub fn enabled(&self) -> bool {
        self.policy.enabled()
    }

    /// The last declared checkpoint iteration — where rollback rewinds
    /// to, and the floor below which history may be pruned.
    pub fn last_checkpoint(&self) -> usize {
        self.last
    }

    /// Checkpoints declared so far (excluding the implicit one at
    /// iteration 0).
    pub fn checkpoints_taken(&self) -> usize {
        self.taken
    }

    /// Total bytes a durable checkpoint store would have written.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// Reports that the globally-complete frontier advanced to
    /// `frontier` (every partition has absorbed iteration
    /// `frontier − 1`, so every state entering `frontier` exists), with
    /// `snapshot_bytes` the summed size of those states. Returns `true`
    /// when this advance declares a checkpoint at `frontier`.
    ///
    /// Rollback can rewind the frontier and re-advance it over the
    /// same iterations; re-advances past an already-declared checkpoint
    /// do not re-declare (or re-bill) it.
    pub fn on_frontier_advance(&mut self, frontier: usize, snapshot_bytes: u64) -> bool {
        if frontier <= self.last {
            return false; // re-advance over already-checkpointed ground
        }
        let declare = match self.policy {
            CheckpointPolicy::Off => false,
            CheckpointPolicy::EveryK(k) => frontier.is_multiple_of(k.max(1)),
            CheckpointPolicy::ByteBudget(b) => {
                self.bytes_since = self.bytes_since.saturating_add(snapshot_bytes);
                self.bytes_since >= b
            }
        };
        if declare {
            self.last = frontier;
            self.taken += 1;
            self.checkpoint_bytes += snapshot_bytes;
            self.bytes_since = 0;
        }
        declare
    }

    /// Reports that a rollback rewound the frontier to the last
    /// checkpoint: everything delivered past it was discarded, so the
    /// byte-budget accumulator restarts from zero. Without this, the
    /// re-advance over rolled-back ground would count the same
    /// iterations' bytes twice and fire the next checkpoint early.
    pub fn on_rollback(&mut self) {
        self.bytes_since = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_off_is_default_and_disabled() {
        assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::Off);
        assert!(!CheckpointPolicy::Off.enabled());
        assert!(CheckpointPolicy::EveryK(4).enabled());
        assert!(CheckpointPolicy::ByteBudget(1 << 20).enabled());
        CheckpointPolicy::Off.validate();
        CheckpointPolicy::EveryK(1).validate();
        CheckpointPolicy::ByteBudget(1).validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_interval_is_rejected() {
        CheckpointPolicy::EveryK(0).validate();
    }

    #[test]
    #[should_panic(expected = "byte budget")]
    fn zero_budget_is_rejected() {
        CheckpointPolicy::ByteBudget(0).validate();
    }

    #[test]
    fn every_k_declares_on_multiples_and_bills_snapshot_bytes() {
        let mut t = CheckpointTracker::new(CheckpointPolicy::EveryK(3));
        assert_eq!(t.last_checkpoint(), 0);
        assert!(!t.on_frontier_advance(1, 100));
        assert!(!t.on_frontier_advance(2, 100));
        assert!(t.on_frontier_advance(3, 100));
        assert_eq!(t.last_checkpoint(), 3);
        assert_eq!(t.checkpoints_taken(), 1);
        assert_eq!(t.checkpoint_bytes(), 100);
        assert!(!t.on_frontier_advance(4, 100));
        assert!(t.on_frontier_advance(6, 120));
        assert_eq!(t.checkpoint_bytes(), 220);
    }

    #[test]
    fn re_advances_after_rollback_do_not_double_bill() {
        let mut t = CheckpointTracker::new(CheckpointPolicy::EveryK(2));
        assert!(t.on_frontier_advance(2, 50));
        // Rollback rewound the frontier to 2; it re-advances over 2
        // without re-declaring, then declares fresh at 4.
        assert!(!t.on_frontier_advance(2, 50));
        assert!(!t.on_frontier_advance(3, 50));
        assert!(t.on_frontier_advance(4, 50));
        assert_eq!(t.checkpoints_taken(), 2);
        assert_eq!(t.checkpoint_bytes(), 100);
    }

    #[test]
    fn byte_budget_accumulates_until_the_threshold() {
        let mut t = CheckpointTracker::new(CheckpointPolicy::ByteBudget(250));
        assert!(!t.on_frontier_advance(1, 100));
        assert!(!t.on_frontier_advance(2, 100));
        assert!(t.on_frontier_advance(3, 100), "300 accumulated ≥ 250 budget");
        assert_eq!(t.last_checkpoint(), 3);
        assert_eq!(t.checkpoint_bytes(), 100, "only the snapshot write is billed");
        // Accumulator reset after the declaration.
        assert!(!t.on_frontier_advance(4, 200));
        assert!(t.on_frontier_advance(5, 60));
    }

    #[test]
    fn rollback_resets_the_byte_budget_accumulator() {
        let mut t = CheckpointTracker::new(CheckpointPolicy::ByteBudget(250));
        assert!(!t.on_frontier_advance(1, 100));
        assert!(!t.on_frontier_advance(2, 100));
        // A rollback rewinds the frontier to checkpoint 0; iterations 1
        // and 2 are discarded and will be re-delivered. Without the
        // reset, re-advancing would double-count them (400 ≥ 250) and
        // fire a checkpoint the budget never earned.
        t.on_rollback();
        assert!(!t.on_frontier_advance(1, 100));
        assert!(!t.on_frontier_advance(2, 100));
        assert!(t.on_frontier_advance(3, 100), "300 since the checkpoint ≥ 250");
    }

    #[test]
    fn off_policy_never_declares() {
        let mut t = CheckpointTracker::new(CheckpointPolicy::Off);
        for f in 1..50 {
            assert!(!t.on_frontier_advance(f, 1 << 20));
        }
        assert_eq!(t.last_checkpoint(), 0);
        assert_eq!(t.checkpoint_bytes(), 0);
    }

    #[test]
    fn node_plan_none_is_disabled() {
        assert!(!NodeFailurePlan::none().enabled());
        assert!(!NodeFailurePlan::none().node_fails(0, 0));
    }

    #[test]
    fn node_plan_maps_partitions_to_virtual_nodes() {
        let plan = NodeFailurePlan::correlated(0.1, 3, 0);
        assert_eq!(plan.node_of(0), 0);
        assert_eq!(plan.node_of(4), 1);
        assert_eq!(plan.node_of(5), 2);
    }

    #[test]
    fn node_verdicts_are_pure_seeded_and_fire() {
        let a = NodeFailurePlan::correlated(0.3, 4, 11);
        let b = NodeFailurePlan::correlated(0.3, 4, 11);
        let c = NodeFailurePlan::correlated(0.3, 4, 12);
        let mut fired = 0;
        let mut diverged = false;
        for node in 0..4 {
            for epoch in 0..50u64 {
                assert_eq!(a.node_fails(node, epoch), b.node_fails(node, epoch));
                fired += usize::from(a.node_fails(node, epoch));
                diverged |= a.node_fails(node, epoch) != c.node_fails(node, epoch);
            }
        }
        assert!(fired > 0, "0.3 per draw must fire over 200 draws");
        assert!(diverged, "the seed must drive the pattern");
    }

    #[test]
    fn core_and_simcluster_verdicts_share_one_hash() {
        // The satellite contract: both plans draw from the same
        // `verdict_unit`, so identical (seed, node, epoch) tuples give
        // identical unit draws across the in-process and simulated
        // injectors.
        for seed in [0u64, 42, 1007] {
            for node in 0..6usize {
                for epoch in 0..20u64 {
                    assert_eq!(
                        crate::hash::verdict_unit(seed, &[node as u64, epoch]),
                        asyncmr_simcluster::verdict_unit(seed, &[node as u64, epoch]),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn out_of_range_probability_is_rejected() {
        let _ = NodeFailurePlan::correlated(1.01, 4, 0);
    }

    #[test]
    #[should_panic(expected = "virtual node")]
    fn zero_nodes_is_rejected_when_enabled() {
        let plan = NodeFailurePlan { num_nodes: 0, ..NodeFailurePlan::correlated(0.1, 4, 0) };
        plan.validate();
    }
}
