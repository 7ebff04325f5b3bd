//! Transient task-failure and correlated node-failure injection.
//!
//! The paper reports all results "on a production cloud environment,
//! with real-life transient failures" and argues (§VI) that MapReduce's
//! deterministic-replay fault tolerance carries over to partial
//! synchronization, with slightly longer recovery for the coarser eager
//! tasks. The injectors reproduce that regime at two severities:
//!
//! * [`FailurePlan`] — independent task-*attempt* deaths: each attempt
//!   fails with a configured probability, runs for a uniform fraction
//!   of its would-be duration, is detected after the tasktracker
//!   timeout, and is rescheduled (up to `max_attempts`, Hadoop's
//!   `mapred.map.max.attempts` default of 4).
//! * [`NodeFailurePlan`] — correlated *node* death: a dying node takes
//!   every resident task attempt **and its already-stored outputs**
//!   with it. Completed work on that node past the last checkpoint is
//!   lost and must be rolled back and re-executed (together with
//!   everything that transitively consumed it), re-placed on the
//!   surviving nodes after a detection delay. Honored by
//!   [`crate::Simulation::run_async_schedule`]; see
//!   [`crate::asyncsched`] for the rollback model.

use crate::time::SimTime;

/// One round of splitmix64's output mixing.
///
/// The single implementation of the deterministic verdict hashing used
/// by every failure injector in the workspace — the simulator's
/// [`NodeFailurePlan`] here, and the in-process session plans via the
/// `asyncmr_core::hash` re-export (`asyncmr-core` depends on this
/// crate, so the shared helper must live on this side of the edge).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic unit draw in `[0, 1)` from a seed and a tuple of
/// words, via [`splitmix64`] rounds (53 uniform bits).
///
/// This is the pure per-verdict function behind reproducible failure
/// injection: whether attempt `(p, i, a)` dies, or node `n` dies at
/// epoch `e`, is `verdict_unit(seed, &[...]) < prob` — a pure function
/// of its inputs, so an injected pattern is identical no matter how
/// threads interleave or in which order verdicts are evaluated.
#[inline]
pub fn verdict_unit(seed: u64, words: &[u64]) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for &v in words {
        h = splitmix64(h.wrapping_add(v).wrapping_mul(0xff51_afd7_ed55_8ccd));
    }
    // 53 uniform bits → [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Failure-injection configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Probability that any single task attempt fails.
    pub attempt_failure_prob: f64,
    /// Attempts before the job is declared failed (paper/Hadoop: 4).
    pub max_attempts: u32,
    /// Delay between the attempt dying and the JobTracker noticing.
    pub detection_delay: SimTime,
}

impl FailurePlan {
    /// No injected failures (the default).
    pub fn none() -> Self {
        FailurePlan { attempt_failure_prob: 0.0, max_attempts: 4, detection_delay: SimTime::ZERO }
    }

    /// A "real-life transient failures" cloud: `prob` per attempt.
    /// Detection is a few heartbeats (the task *process* dies and the
    /// TaskTracker reports it — not the 10-minute hung-task timeout).
    pub fn transient(prob: f64) -> Self {
        assert!((0.0..1.0).contains(&prob), "failure probability must be in [0, 1)");
        FailurePlan {
            attempt_failure_prob: prob,
            max_attempts: 4,
            detection_delay: SimTime::from_secs(6),
        }
    }

    /// Whether this plan can ever fail an attempt.
    pub fn enabled(&self) -> bool {
        self.attempt_failure_prob > 0.0
    }

    /// Panics unless the fields are in range (`prob ∈ [0, 1)`,
    /// `max_attempts ≥ 1`).
    ///
    /// [`FailurePlan::transient`] checks its argument, but the fields
    /// are `pub` (the struct is a plain config record), so a plan
    /// assembled literally can carry an out-of-range probability —
    /// `prob ≥ 1` would make the injector loop every attempt into the
    /// bounded budget and `prob < 0` silently disables it.
    /// [`crate::Simulation::with_failures`] calls this once at
    /// injection time, so no simulation ever runs under an invalid
    /// plan.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.attempt_failure_prob),
            "failure probability must be in [0, 1), got {}",
            self.attempt_failure_prob
        );
        assert!(self.max_attempts >= 1, "max_attempts must be at least 1");
    }
}

impl Default for FailurePlan {
    fn default() -> Self {
        FailurePlan::none()
    }
}

/// Correlated node-failure injection for the asynchronous replay.
///
/// Whether node `n` dies at epoch `e` (one epoch per global iteration
/// of the replayed schedule) is a pure [`verdict_unit`] function of
/// `(seed, n, e)`, capped at [`NodeFailurePlan::max_node_failures`]
/// deaths per node so a replay always terminates. A death rolls every
/// task the node completed since the last checkpoint — checkpoints sit
/// at iteration multiples of
/// [`NodeFailurePlan::checkpoint_interval`] — back into the pending
/// set, together with every completed task that transitively consumed
/// a lost output; re-executions are dispatched after
/// [`NodeFailurePlan::detection_delay`], excluding the dead node.
///
/// Installed with [`crate::Simulation::with_node_failures`], which
/// validates the fields once at injection time (mirroring
/// [`FailurePlan::validate`]); honored by
/// [`crate::Simulation::run_async_schedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFailurePlan {
    /// Probability that a given node dies at a given epoch, in
    /// `[0, 1)`.
    pub node_failure_prob: f64,
    /// Deaths per node before that node becomes permanently stable
    /// (the termination budget, like `max_attempts` for task retries).
    pub max_node_failures: u32,
    /// Checkpoint spacing in global iterations (`k ≥ 1`): rollback
    /// rewinds lost work to the last iteration multiple of `k`.
    pub checkpoint_interval: usize,
    /// Delay between the node dying and the JobTracker noticing (lost
    /// heartbeats — longer than a task-process death).
    pub detection_delay: SimTime,
    /// Seed for the per-(node, epoch) death verdict.
    pub seed: u64,
}

impl NodeFailurePlan {
    /// No injected node failures (the default).
    pub fn none() -> Self {
        NodeFailurePlan {
            node_failure_prob: 0.0,
            max_node_failures: 2,
            checkpoint_interval: 1,
            detection_delay: SimTime::ZERO,
            seed: 0,
        }
    }

    /// A correlated-failure regime: `prob` per (node, epoch), at most
    /// two deaths per node, checkpoints every `checkpoint_interval`
    /// iterations, detection after a few missed heartbeats.
    pub fn correlated(prob: f64, checkpoint_interval: usize, seed: u64) -> Self {
        let plan = NodeFailurePlan {
            node_failure_prob: prob,
            max_node_failures: 2,
            checkpoint_interval,
            detection_delay: SimTime::from_secs(30),
            seed,
        };
        plan.validate();
        plan
    }

    /// Whether this plan can ever kill a node.
    pub fn enabled(&self) -> bool {
        self.node_failure_prob > 0.0 && self.max_node_failures > 0
    }

    /// Panics unless the fields are in range (`prob ∈ [0, 1)`,
    /// `checkpoint_interval ≥ 1`). Called once at injection time by
    /// [`crate::Simulation::with_node_failures`], so a plan assembled
    /// literally with out-of-range fields is rejected before it can
    /// bias a replay.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.node_failure_prob),
            "node failure probability must be in [0, 1), got {}",
            self.node_failure_prob
        );
        assert!(self.checkpoint_interval >= 1, "checkpoint_interval must be at least 1");
    }

    /// The deterministic per-(node, epoch) death verdict. The per-node
    /// death budget is enforced by the caller (the verdict itself stays
    /// a pure function).
    pub fn node_fails(&self, node: usize, epoch: usize) -> bool {
        self.enabled()
            && verdict_unit(self.seed, &[node as u64, epoch as u64]) < self.node_failure_prob
    }

    /// The last checkpoint iteration at or before `epoch`.
    pub fn last_checkpoint(&self, epoch: usize) -> usize {
        (epoch / self.checkpoint_interval) * self.checkpoint_interval
    }
}

impl Default for NodeFailurePlan {
    fn default() -> Self {
        NodeFailurePlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled() {
        assert!(!FailurePlan::none().enabled());
    }

    #[test]
    fn transient_is_enabled() {
        let p = FailurePlan::transient(0.05);
        assert!(p.enabled());
        assert_eq!(p.max_attempts, 4);
        assert!(p.detection_delay > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn probability_validated() {
        let _ = FailurePlan::transient(1.5);
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn literally_constructed_plan_is_rejected_at_injection() {
        // The constructor's range check can be bypassed because the
        // fields are pub; injection must catch it.
        let plan = FailurePlan {
            attempt_failure_prob: 1.0,
            max_attempts: 4,
            detection_delay: SimTime::from_secs(6),
        };
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_failures(plan);
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempt_budget_is_rejected_at_injection() {
        let plan = FailurePlan { max_attempts: 0, ..FailurePlan::transient(0.1) };
        let _ = crate::Simulation::new(crate::ClusterSpec::ec2_2010(), 1).with_failures(plan);
    }

    #[test]
    fn valid_plans_pass_validation() {
        FailurePlan::none().validate();
        FailurePlan::transient(0.0).validate();
        FailurePlan::transient(0.99).validate();
    }

    #[test]
    fn verdict_unit_is_pure_and_in_range() {
        for seed in [0u64, 42, 1007] {
            for a in 0..20u64 {
                for b in 0..5u64 {
                    let u = verdict_unit(seed, &[a, b]);
                    assert_eq!(u, verdict_unit(seed, &[a, b]), "must be a pure function");
                    assert!((0.0..1.0).contains(&u), "unit draw out of range: {u}");
                }
            }
        }
        // Word order and seed both matter.
        assert_ne!(verdict_unit(1, &[2, 3]), verdict_unit(1, &[3, 2]));
        assert_ne!(verdict_unit(1, &[2, 3]), verdict_unit(2, &[2, 3]));
    }

    #[test]
    fn verdict_unit_is_roughly_uniform() {
        // 2000 draws at prob 0.3 should fire within a loose band —
        // catches an accidental always-0 / always-max hash regression.
        let fired = (0..2000u64).filter(|&i| verdict_unit(9, &[i]) < 0.3).count();
        assert!((450..750).contains(&fired), "0.3 of 2000 draws fired {fired} times");
    }

    #[test]
    fn node_plan_none_is_disabled() {
        assert!(!NodeFailurePlan::none().enabled());
        assert!(!NodeFailurePlan::none().node_fails(0, 0));
    }

    #[test]
    fn node_plan_verdicts_are_deterministic_and_seeded() {
        let a = NodeFailurePlan::correlated(0.4, 2, 7);
        let b = NodeFailurePlan::correlated(0.4, 2, 7);
        let c = NodeFailurePlan::correlated(0.4, 2, 8);
        let mut fired = 0;
        let mut diverged = false;
        for node in 0..8 {
            for epoch in 0..40 {
                assert_eq!(a.node_fails(node, epoch), b.node_fails(node, epoch));
                fired += usize::from(a.node_fails(node, epoch));
                diverged |= a.node_fails(node, epoch) != c.node_fails(node, epoch);
            }
        }
        assert!(fired > 0, "0.4 per (node, epoch) must fire over 320 draws");
        assert!(diverged, "a different seed must perturb the pattern");
    }

    #[test]
    fn node_plan_checkpoint_arithmetic() {
        let plan = NodeFailurePlan::correlated(0.1, 4, 1);
        assert_eq!(plan.last_checkpoint(0), 0);
        assert_eq!(plan.last_checkpoint(3), 0);
        assert_eq!(plan.last_checkpoint(4), 4);
        assert_eq!(plan.last_checkpoint(11), 8);
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn node_plan_probability_validated() {
        let _ = NodeFailurePlan::correlated(1.2, 1, 0);
    }

    #[test]
    #[should_panic(expected = "checkpoint_interval")]
    fn node_plan_interval_validated() {
        let _ = NodeFailurePlan::correlated(0.1, 0, 0);
    }
}
