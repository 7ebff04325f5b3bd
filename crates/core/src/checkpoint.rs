//! Checkpoint/rollback recovery for the asynchronous session layer.
//!
//! An [`AttemptFailurePlan`](asyncmr_model::AttemptFailurePlan) covers
//! *transient* failures: a gmap attempt dies before delivering, and
//! deterministic re-execution on the same input makes recovery
//! invisible. The failure mode that machinery cannot absorb is a
//! **node** dying: every resident attempt *and every async output the
//! node already delivered* disappears at once, so downstream partitions
//! that consumed those outputs hold state derived from data that no
//! longer exists. Recovering from that requires *rollback* — rewinding
//! the affected partitions to a consistent cut and re-executing forward
//! — and rollback is only tractable if the session keeps bounded
//! **history**: checkpoints bound how far the rewind can reach, which
//! in turn bounds the state and mailbox bytes the session must retain
//! (the ASYNC observation, arXiv:1907.08526).
//!
//! The regime is one [`NodeFailurePlan`] (defined in `asyncmr-model`,
//! shared with the simulated replay), and it carries its own rollback
//! target: checkpoints every [`NodeFailurePlan::checkpoint_every`]
//! iterations, so a node death without a checkpoint to return to cannot
//! be expressed. Checkpoints are **coordinated**: an iteration becomes
//! a checkpoint the moment the globally-complete frontier reaches it,
//! so every partition's snapshot sits at the same iteration and
//! rollback never cascades past the last declared checkpoint (no
//! uncoordinated-checkpoint domino effect). Partitions map onto virtual
//! nodes (`partition % virtual_nodes`, the count given beside the plan
//! to [`crate::session::AsyncFixedPointDriver::with_node_failures`]);
//! at every frontier advance (an *epoch*) each node draws
//! [`NodeFailurePlan::dies`] over `(seed, node, epoch)`, capped per node
//! so sessions always terminate.
//!
//! This module holds the session's `Recovery` component — the death
//! budget, verdict epoch, rollback generations, the last declared
//! checkpoint with the bytes a durable store would have written
//! ([`crate::session::SessionReport::checkpoint_bytes`]), and the
//! contamination closure; the scheduler in [`crate::session`] applies
//! the rewind set it computes.
//!
//! The headline contract (pinned by `tests/chaos_session.rs` and the
//! proptest suite): at `max_lag = 0`, a session run under injected
//! node failures produces results **byte-identical** to the
//! failure-free barrier driver — rollback re-executes pure gmaps on
//! checkpointed states, so recovery is invisible in the result and
//! visible only in the new meters.

use asyncmr_model::NodeFailurePlan;

/// The session's recovery component: everything that decides *when* a
/// node dies, *which* partitions a death rewinds, and *where to*.
///
/// **Invariant:** a partition's generation counts the rollbacks that
/// rewound it, so a gmap completion carrying an older generation ran on
/// a state that no longer exists; and each virtual node dies at most
/// [`NodeFailurePlan::MAX_DEATHS`] times, so a session under injection
/// terminates.
#[derive(Debug)]
pub(crate) struct Recovery {
    plan: NodeFailurePlan,
    /// Last declared checkpoint iteration: the rollback target and the
    /// state-retention floor. Iteration 0 is an implicit checkpoint —
    /// the initial states are reconstructible from the input, so it is
    /// never billed.
    checkpoint: usize,
    /// Total bytes a durable checkpoint store would have written.
    checkpoint_bytes: u64,
    /// Deaths fired per virtual node (the termination budget); one
    /// entry per virtual node, partition `p` residing on
    /// `p % deaths.len()`.
    deaths: Vec<u32>,
    /// Frontier-advance counter — the node-failure verdict epoch.
    /// Counts *advances*, not iteration values, so re-advancing over
    /// rolled-back ground draws fresh verdicts instead of looping on
    /// the same fatal one.
    epoch: u64,
    /// Per partition: rollbacks that rewound it.
    generations: Vec<u64>,
}

impl Recovery {
    /// Recovery state for `partitions` partitions spread over
    /// `virtual_nodes` nodes under `plan`. The session's injection-time
    /// check: panics if the plan is out of range
    /// ([`NodeFailurePlan::validate`]) or an enabled plan has no node
    /// to kill.
    pub(crate) fn new(plan: NodeFailurePlan, virtual_nodes: usize, partitions: usize) -> Self {
        plan.validate();
        assert!(
            !plan.enabled() || virtual_nodes >= 1,
            "an enabled plan needs at least one virtual node"
        );
        Recovery {
            plan,
            checkpoint: 0,
            checkpoint_bytes: 0,
            deaths: vec![0; virtual_nodes],
            epoch: 0,
            generations: vec![0; partitions],
        }
    }

    /// The virtual node partition `p` resides on.
    fn node_of(&self, p: usize) -> usize {
        p % self.deaths.len()
    }

    /// Partition `p`'s rollback generation (stamped on every launch).
    pub(crate) fn generation(&self, p: usize) -> u64 {
        self.generations[p]
    }

    /// The last declared checkpoint — the rollback target.
    pub(crate) fn checkpoint(&self) -> usize {
        self.checkpoint
    }

    /// Total bytes a durable checkpoint store would have written.
    pub(crate) fn checkpoint_bytes(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// State-retention floor at `frontier`. States below it can never
    /// become the final answer (convergence candidates are ≥ the
    /// frontier), feed a gmap, or be a rollback target — under node
    /// failures the floor is the last declared checkpoint, not the
    /// frontier (that retained tail IS the snapshot).
    pub(crate) fn state_floor(&self, frontier: usize) -> usize {
        if self.plan.enabled() {
            self.checkpoint
        } else {
            frontier
        }
    }

    /// The most iterations a frontier can run past
    /// [`Recovery::state_floor`]: none with the plan disabled (the floor
    /// is the frontier), else one less than the checkpoint interval —
    /// the advance that reaches the next multiple declares it.
    pub(crate) fn checkpoint_tail(&self) -> usize {
        if self.plan.enabled() {
            self.plan.checkpoint_every - 1
        } else {
            0
        }
    }

    /// Mailbox-retention floor for a partition about to absorb `next`
    /// under staleness bound `max_lag`: that absorb selects source
    /// iterations ≥ `next − max_lag`, but with node failures enabled a
    /// rollback may rewind the partition to the last checkpoint `C` and
    /// re-absorb from there — which needs surviving producers' batches
    /// back to `C − max_lag`, so those outlive the ordinary pruning.
    pub(crate) fn batch_floor(&self, next: usize, max_lag: usize) -> usize {
        let oldest_absorb = if self.plan.enabled() { next.min(self.checkpoint) } else { next };
        oldest_absorb.saturating_sub(max_lag)
    }

    /// The frontier advanced to `frontier`, so every state entering it
    /// exists (`snapshot_bytes` sums them). Returns the snapshot's bytes
    /// when this advance declares a coordinated checkpoint at
    /// `frontier`: under node failures, at every multiple of the plan's
    /// interval. A re-advance over rolled-back ground never re-declares
    /// (or re-bills) a checkpoint already declared.
    pub(crate) fn on_frontier_advance(
        &mut self,
        frontier: usize,
        snapshot_bytes: impl FnOnce() -> u64,
    ) -> Option<u64> {
        if !self.plan.enabled()
            || frontier <= self.checkpoint
            || self.plan.last_checkpoint(frontier) != frontier
        {
            return None;
        }
        let bytes = snapshot_bytes();
        self.checkpoint = frontier;
        self.checkpoint_bytes += bytes;
        Some(bytes)
    }

    /// One node-failure epoch: draws this advance's deterministic
    /// verdict for every node and returns the nodes that died (none,
    /// ever, with the plan disabled).
    pub(crate) fn draw_deaths(&mut self) -> Vec<usize> {
        if !self.plan.enabled() {
            return Vec::new();
        }
        let epoch = self.epoch;
        self.epoch += 1;
        let mut fired = Vec::new();
        for (n, deaths) in self.deaths.iter_mut().enumerate() {
            if self.plan.dies(n, epoch, *deaths) {
                *deaths += 1;
                fired.push(n);
            }
        }
        fired
    }

    /// The partitions the death of nodes `fired` rewinds to the last
    /// checkpoint, ascending: the nodes' residents plus everything they
    /// [`contaminated`]. Bumps their generations (orphaning anything in
    /// flight).
    pub(crate) fn rewind_set(
        &mut self,
        consumers: &[Vec<(usize, usize)>],
        fired: &[usize],
        consumed: &[&[Vec<usize>]],
    ) -> Vec<usize> {
        let residents =
            (0..consumers.len()).filter(|&p| fired.contains(&self.node_of(p))).collect();
        let rewound = contaminated(consumers, residents, self.checkpoint(), consumed);
        for &p in &rewound {
            self.generations[p] += 1;
        }
        rewound
    }
}

/// The contamination closure, a pure function of the topology and the
/// consumption log: `seeds` lost everything they produced at source
/// iterations `≥ c`, and any partition that *absorbed* such a batch
/// from an affected producer holds state derived from data that no
/// longer exists, so it is affected too — transitively. Returns the
/// affected partitions, ascending.
///
/// `consumers[p]` lists `(consumer, slot)` for every partition that
/// declared `p` a dependency, `slot` being `p`'s index in that
/// consumer's dependency list; `consumed[q]` is `q`'s consumption log:
/// per absorbed iteration, the source iteration it selected for each
/// dependency slot.
pub(crate) fn contaminated(
    consumers: &[Vec<(usize, usize)>],
    seeds: Vec<usize>,
    c: usize,
    consumed: &[&[Vec<usize>]],
) -> Vec<usize> {
    let mut affected = vec![false; consumers.len()];
    for &p in &seeds {
        affected[p] = true;
    }
    let mut queue = seeds;
    while let Some(x) = queue.pop() {
        for &(q, slot) in &consumers[x] {
            let log = consumed[q];
            // Absorbs below `c` selected sources `< c`: only the tail
            // can have touched a revoked batch.
            if !affected[q] && log[c.min(log.len())..].iter().any(|sel| sel[slot] >= c) {
                affected[q] = true;
                queue.push(q);
            }
        }
    }
    (0..affected.len()).filter(|&p| affected[p]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_k_declares_on_multiples_and_bills_snapshot_bytes() {
        let mut r = Recovery::new(NodeFailurePlan::correlated(0.1, 0, 3), 1, 1);
        assert_eq!(r.checkpoint(), 0);
        assert_eq!(r.on_frontier_advance(1, || 100), None);
        assert_eq!(
            r.on_frontier_advance(2, || unreachable!("only a declaration is snapshotted")),
            None
        );
        assert_eq!(r.on_frontier_advance(3, || 100), Some(100));
        assert_eq!(r.checkpoint(), 3);
        assert_eq!(r.checkpoint_bytes(), 100);
        assert_eq!(r.on_frontier_advance(4, || 100), None);
        assert_eq!(r.on_frontier_advance(6, || 120), Some(120));
        assert_eq!(r.checkpoint_bytes(), 220);
    }

    #[test]
    fn re_advances_after_rollback_do_not_double_bill() {
        let mut r = Recovery::new(NodeFailurePlan::correlated(0.1, 0, 2), 1, 1);
        assert_eq!(r.on_frontier_advance(2, || 50), Some(50));
        // Rollback rewound the frontier to 2; it re-advances over 2
        // without re-declaring, then declares fresh at 4.
        assert_eq!(r.on_frontier_advance(2, || 50), None);
        assert_eq!(r.on_frontier_advance(3, || 50), None);
        assert_eq!(r.on_frontier_advance(4, || 50), Some(50));
        assert_eq!(r.checkpoint(), 4);
        assert_eq!(r.checkpoint_bytes(), 100);
    }

    #[test]
    fn off_policy_never_declares() {
        // Without node failures there is nothing to roll back to, so no
        // advance is a checkpoint and none is snapshotted.
        let mut r = Recovery::new(NodeFailurePlan::none(), 8, 4);
        for f in 1..50 {
            assert_eq!(r.on_frontier_advance(f, || unreachable!("nothing is snapshotted")), None);
        }
        assert_eq!(r.checkpoint(), 0);
        assert_eq!(r.checkpoint_bytes(), 0);
    }

    #[test]
    fn node_plan_maps_partitions_to_virtual_nodes() {
        let recovery = Recovery::new(NodeFailurePlan::correlated(0.1, 0, 1), 3, 6);
        assert_eq!(recovery.node_of(0), 0);
        assert_eq!(recovery.node_of(4), 1);
        assert_eq!(recovery.node_of(5), 2);
    }

    #[test]
    fn core_and_simcluster_verdicts_share_one_hash() {
        // The one plan both layers inject from draws its verdict as
        // `verdict_unit(seed, [node, epoch]) < prob`, bit for bit — the
        // formula the pinned chaos seeds and replay goldens rest on.
        for seed in [0u64, 42, 1007] {
            let plan = NodeFailurePlan::correlated(0.3, seed, 1);
            for node in 0..6usize {
                for epoch in 0..20u64 {
                    assert_eq!(
                        plan.dies(node, epoch, 0),
                        crate::hash::verdict_unit(seed, &[node as u64, epoch]) < 0.3,
                    );
                }
            }
        }
    }

    /// The chain 0 → 1 → 2 → 3 (each partition consumes its
    /// predecessor in its only slot), one virtual node per partition.
    fn chain() -> (Vec<Vec<(usize, usize)>>, Recovery) {
        let consumers = vec![vec![(1, 0)], vec![(2, 0)], vec![(3, 0)], vec![]];
        let mut recovery = Recovery::new(NodeFailurePlan::correlated(0.5, 0, 2), 4, 4);
        assert_eq!(recovery.on_frontier_advance(1, || 40), None);
        assert_eq!(recovery.on_frontier_advance(2, || 40), Some(40), "checkpoint C = 2");
        (consumers, recovery)
    }

    fn slices(log: &[Vec<Vec<usize>>]) -> Vec<&[Vec<usize>]> {
        log.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn only_consumers_of_a_revoked_batch_are_rewound() {
        let (consumers, mut recovery) = chain();
        // Every partition absorbed iterations 0..=2. Partition 2 ran
        // stale: its absorb of iteration 2 consumed partition 1's
        // iteration-1 batch, which predates the checkpoint.
        let log: Vec<Vec<Vec<usize>>> = vec![
            vec![vec![], vec![], vec![]],
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0], vec![1], vec![1]],
            vec![vec![0], vec![1], vec![2]],
        ];
        let consumed = slices(&log);
        // Node 0 dies: 1 absorbed 0's revoked iteration-2 batch and is
        // rewound; 2 only ever absorbed pre-checkpoint batches of 1 and
        // is not — which also shields 3, whatever it consumed from 2.
        assert_eq!(contaminated(&consumers, vec![0], 2, &consumed), [0, 1]);
        assert_eq!(recovery.rewind_set(&consumers, &[0], &consumed), [0, 1]);
        let generations: Vec<u64> = (0..4).map(|p| recovery.generation(p)).collect();
        assert_eq!(generations, [1, 1, 0, 0], "exactly the rewound partitions are orphaned");

        // Had 2 absorbed 1's iteration-2 batch, the closure runs down
        // the whole chain.
        let mut fresh = log.clone();
        fresh[2][2] = vec![2];
        assert_eq!(contaminated(&consumers, vec![0], 2, &slices(&fresh)), [0, 1, 2, 3]);
        // A death downstream never travels upstream.
        assert_eq!(contaminated(&consumers, vec![3], 2, &slices(&fresh)), [3]);
    }

    #[test]
    fn retention_floors_follow_the_checkpoint() {
        let (_, recovery) = chain();
        assert_eq!(recovery.checkpoint(), 2);
        assert_eq!(recovery.checkpoint_bytes(), 40);
        assert_eq!(recovery.state_floor(7), 2, "states are kept back to the rollback target");
        // Absorbing 8 at cap 1 needs sources ≥ 7, but a rewind to C = 2
        // re-absorbs from there and needs sources ≥ C − cap = 1.
        assert_eq!(recovery.batch_floor(8, 1), 1);
        let off = Recovery::new(NodeFailurePlan::none(), 8, 4);
        assert_eq!((off.state_floor(7), off.batch_floor(8, 1)), (7, 7));
    }

    #[test]
    fn deaths_respect_the_per_node_budget() {
        let mut recovery = Recovery::new(NodeFailurePlan::correlated(0.9, 4, 1), 2, 2);
        let mut deaths = [0u32; 2];
        for _ in 0..200 {
            for n in recovery.draw_deaths() {
                deaths[n] += 1;
            }
        }
        let budget = NodeFailurePlan::MAX_DEATHS;
        assert_eq!(deaths, [budget; 2], "0.9 per epoch exhausts both budgets and then stops");
        let mut off = Recovery::new(NodeFailurePlan::none(), 8, 2);
        assert!(off.draw_deaths().is_empty());
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn zero_interval_is_rejected() {
        // The field is pub, so `correlated`'s check can be bypassed;
        // injection must catch it before `is_multiple_of(0)` can.
        let plan =
            NodeFailurePlan { checkpoint_every: 0, ..NodeFailurePlan::correlated(0.1, 0, 1) };
        let _ = Recovery::new(plan, 1, 1);
    }

    #[test]
    #[should_panic(expected = "virtual node")]
    fn zero_nodes_is_rejected_when_enabled() {
        let _ = Recovery::new(NodeFailurePlan::correlated(0.1, 0, 1), 0, 4);
    }
}
