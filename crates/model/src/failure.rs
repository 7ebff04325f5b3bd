//! Deterministic failure verdicts ([`splitmix64`], [`verdict_unit`])
//! and the failure regime the in-process session and the simulated
//! replay both inject from: task-attempt deaths
//! ([`AttemptFailurePlan`]) and correlated node deaths
//! ([`NodeFailurePlan`], which carries the checkpoint interval a death
//! rolls back to). What only one layer reads is passed beside the plan
//! to that layer alone: the session's attempt seed and virtual-node
//! count (`AsyncFixedPointDriver::with_failures`,
//! `AsyncFixedPointDriver::with_node_failures`); the replay's detection
//! delays are the simulator's constants.

/// One round of splitmix64's output mixing.
///
/// The single implementation of the deterministic verdict hashing used
/// by every failure injector in the workspace.
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

/// Transient task-*attempt* deaths: each attempt fails independently
/// with a fixed probability and is re-executed, up to Hadoop's attempt
/// budget ([`AttemptFailurePlan::MAX_ATTEMPTS`]). The last admissible
/// attempt never dies, so a run under injection always completes.
///
/// The plan decides *whether* an attempt may die; the unit draw it
/// compares against comes from the injecting layer: the session's pure
/// `verdict_unit(seed, [p, i, a])`, the replay's seeded RNG.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttemptFailurePlan {
    /// Probability that any single attempt fails, in `[0, 1)`.
    pub attempt_failure_prob: f64,
}

impl AttemptFailurePlan {
    /// Attempts per task (Hadoop's `mapred.map.max.attempts` default);
    /// the last one never dies.
    pub const MAX_ATTEMPTS: u32 = 4;

    /// No injected attempt failures (the default).
    pub fn none() -> Self {
        AttemptFailurePlan { attempt_failure_prob: 0.0 }
    }

    /// A "real-life transient failures" cloud: `prob` per attempt.
    pub fn transient(prob: f64) -> Self {
        let plan = AttemptFailurePlan { attempt_failure_prob: prob };
        plan.validate();
        plan
    }

    /// Panics unless the probability is in `[0, 1)`. The field is `pub`,
    /// so a literally-assembled plan can bypass
    /// [`AttemptFailurePlan::transient`]: `prob ≥ 1` would spend every
    /// task's whole budget and `prob < 0` silently disables injection.
    /// Both layers call this once at injection time.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.attempt_failure_prob),
            "attempt failure probability must be in [0, 1), got {}",
            self.attempt_failure_prob
        );
    }

    /// Whether attempt number `attempt` (0-based) dies: `draw() < prob`
    /// for every attempt but the last. `draw` is called only for an
    /// attempt that may die (a positive probability, not the last
    /// attempt), so a layer drawing from a sequential RNG consumes one
    /// draw per such attempt and none otherwise.
    pub fn dies(&self, attempt: u32, draw: impl FnOnce() -> f64) -> bool {
        let prob = self.attempt_failure_prob;
        prob > 0.0 && attempt + 1 < Self::MAX_ATTEMPTS && draw() < prob
    }
}

/// Correlated node-failure injection: a whole node dies, taking every
/// resident task attempt **and its already-delivered outputs** with it,
/// so completed work past the last checkpoint is rolled back and
/// re-executed.
///
/// Whether node `n` dies at epoch `e` is a pure [`verdict_unit`]
/// function of `(seed, n, e)`, so an injected pattern is reproducible
/// no matter how threads interleave. Each node dies at most
/// [`NodeFailurePlan::MAX_DEATHS`] times, so a run under injection
/// always terminates. Checkpoints sit at iteration multiples of
/// `checkpoint_every`: a node death can only exist together with the
/// interval that bounds its rollback. What an epoch is and how
/// partitions map onto nodes belong to the installing layer
/// (`AsyncFixedPointDriver::with_node_failures`,
/// `Simulation::with_node_failures`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailurePlan {
    /// Probability that a given node dies at a given epoch, in
    /// `[0, 1)`.
    pub node_failure_prob: f64,
    /// Seed for the per-(node, epoch) death verdict.
    pub seed: u64,
    /// Checkpoint interval in global iterations (≥ 1): the rollback
    /// target is the last multiple at or before the current iteration.
    /// Smaller intervals bound rollback tighter but checkpoint more
    /// often — the `ckpt k` axis of `repro faults`.
    pub checkpoint_every: usize,
}

impl NodeFailurePlan {
    /// Deaths per node before that node becomes permanently stable: the
    /// termination budget every injecting layer enforces through
    /// [`NodeFailurePlan::dies`].
    pub const MAX_DEATHS: u32 = 2;

    /// No injected node failures (the default).
    pub fn none() -> Self {
        NodeFailurePlan { node_failure_prob: 0.0, seed: 0, checkpoint_every: 1 }
    }

    /// A correlated-failure regime: `prob` per (node, epoch), rolling
    /// back to checkpoints every `checkpoint_every` iterations.
    pub fn correlated(prob: f64, seed: u64, checkpoint_every: usize) -> Self {
        let plan = NodeFailurePlan { node_failure_prob: prob, seed, checkpoint_every };
        plan.validate();
        plan
    }

    /// Whether this plan can ever kill a node.
    pub fn enabled(&self) -> bool {
        self.node_failure_prob > 0.0
    }

    /// Panics unless the probability is in `[0, 1)` and the checkpoint
    /// interval is at least 1. Both layers call this once at injection
    /// time, so a literally-assembled plan with an out-of-range field
    /// is rejected before it can bias a run.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.node_failure_prob),
            "node failure probability must be in [0, 1), got {}",
            self.node_failure_prob
        );
        assert!(self.checkpoint_every >= 1, "checkpoint interval must be at least 1 iteration");
    }

    /// Whether `node`, which has died `deaths` times so far, dies at
    /// `epoch`: within the per-node budget, the pure verdict
    /// `verdict_unit(seed, [node, epoch]) < prob`. Each layer keeps its
    /// own count of deaths.
    pub fn dies(&self, node: usize, epoch: u64, deaths: u32) -> bool {
        self.enabled()
            && deaths < Self::MAX_DEATHS
            && verdict_unit(self.seed, &[node as u64, epoch]) < self.node_failure_prob
    }

    /// The last checkpoint at or before iteration `iteration`.
    pub fn last_checkpoint(&self, iteration: usize) -> usize {
        iteration - iteration % self.checkpoint_every
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
    fn none_is_disabled() {
        assert_eq!(AttemptFailurePlan::default(), AttemptFailurePlan::none());
        assert!(!AttemptFailurePlan::none().dies(0, || unreachable!("a disabled plan never draws")));
    }

    #[test]
    fn transient_is_enabled() {
        let plan = AttemptFailurePlan::transient(0.05);
        // The draw decides every attempt but the last, which is never
        // drawn for.
        for attempt in 0..AttemptFailurePlan::MAX_ATTEMPTS - 1 {
            assert!(plan.dies(attempt, || 0.0));
            assert!(!plan.dies(attempt, || 0.05));
        }
        let last = AttemptFailurePlan::MAX_ATTEMPTS - 1;
        assert!(!plan.dies(last, || unreachable!("the last attempt never draws")));
    }

    #[test]
    #[should_panic(expected = "failure probability")]
    fn probability_validated() {
        let _ = AttemptFailurePlan::transient(1.5);
    }

    #[test]
    fn valid_plans_pass_validation() {
        AttemptFailurePlan::none().validate();
        AttemptFailurePlan::transient(0.0).validate();
        AttemptFailurePlan::transient(0.99).validate();
        NodeFailurePlan::none().validate();
        NodeFailurePlan::correlated(0.99, 0, 1).validate();
    }

    #[test]
    fn node_plan_none_is_disabled() {
        assert!(!NodeFailurePlan::none().enabled());
        assert!(!NodeFailurePlan::none().dies(0, 0, 0));
    }

    #[test]
    fn node_plan_verdicts_are_deterministic_and_seeded() {
        let a = NodeFailurePlan::correlated(0.4, 7, 1);
        let b = NodeFailurePlan::correlated(0.4, 7, 1);
        let c = NodeFailurePlan::correlated(0.4, 8, 1);
        let mut fired = 0;
        let mut diverged = false;
        for node in 0..8 {
            for epoch in 0..40 {
                assert_eq!(a.dies(node, epoch, 0), b.dies(node, epoch, 0));
                assert!(!a.dies(node, epoch, NodeFailurePlan::MAX_DEATHS), "budget spent");
                fired += usize::from(a.dies(node, epoch, 0));
                diverged |= a.dies(node, epoch, 0) != c.dies(node, epoch, 0);
            }
        }
        assert!(fired > 0, "0.4 per (node, epoch) must fire over 320 draws");
        assert!(diverged, "a different seed must perturb the pattern");
    }

    #[test]
    #[should_panic(expected = "node failure probability")]
    fn node_plan_probability_validated() {
        let _ = NodeFailurePlan::correlated(1.2, 0, 1);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval")]
    fn node_plan_interval_validated() {
        let _ = NodeFailurePlan::correlated(0.1, 0, 0);
    }

    #[test]
    fn node_plan_checkpoint_arithmetic() {
        let plan = NodeFailurePlan::correlated(0.1, 0, 4);
        assert_eq!(plan.last_checkpoint(0), 0);
        assert_eq!(plan.last_checkpoint(3), 0);
        assert_eq!(plan.last_checkpoint(4), 4);
        assert_eq!(plan.last_checkpoint(11), 8);
    }
}
