//! Deterministic failure verdicts ([`splitmix64`], [`verdict_unit`])
//! and the node-death regime ([`NodeFailurePlan`]) the in-process
//! session and the simulated replay both inject from. Each layer keeps
//! beside its own builder what only it uses (the session's virtual-node
//! count; the replay's checkpoint interval and detection delay).

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

/// Correlated node-failure injection: a whole node dies, taking every
/// resident task attempt **and its already-delivered outputs** with it,
/// so completed work past the last checkpoint is rolled back and
/// re-executed.
///
/// Whether node `n` dies at epoch `e` is a pure [`verdict_unit`]
/// function of `(seed, n, e)`, so an injected pattern is reproducible
/// no matter how threads interleave. Each node dies at most
/// [`NodeFailurePlan::max_node_failures`] times (the termination
/// budget, enforced by the injecting layer), so a run under injection
/// always terminates. What an epoch is, how partitions map onto nodes
/// and where rollback rewinds to belong to the installing layer
/// (`AsyncFixedPointDriver::with_node_failures`,
/// `Simulation::with_node_failures`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailurePlan {
    /// Probability that a given node dies at a given epoch, in
    /// `[0, 1)`.
    pub node_failure_prob: f64,
    /// Deaths per node before that node becomes permanently stable.
    /// Must be ≥ 1 for the plan to be considered enabled.
    pub max_node_failures: u32,
    /// Seed for the per-(node, epoch) death verdict.
    pub seed: u64,
}

impl NodeFailurePlan {
    /// No injected node failures (the default).
    pub fn none() -> Self {
        NodeFailurePlan { node_failure_prob: 0.0, max_node_failures: 2, seed: 0 }
    }

    /// A correlated-failure regime: `prob` per (node, epoch), at most
    /// two deaths per node.
    pub fn correlated(prob: f64, seed: u64) -> Self {
        let plan = NodeFailurePlan { node_failure_prob: prob, max_node_failures: 2, seed };
        plan.validate();
        plan
    }

    /// Whether this plan can ever kill a node.
    pub fn enabled(&self) -> bool {
        self.node_failure_prob > 0.0 && self.max_node_failures > 0
    }

    /// Panics unless the probability is in `[0, 1)`. Both layers call
    /// this once at injection time, so a literally-assembled plan with
    /// an out-of-range field is rejected before it can bias a run.
    pub fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.node_failure_prob),
            "node failure probability must be in [0, 1), got {}",
            self.node_failure_prob
        );
    }

    /// The deterministic per-(node, epoch) death verdict. The per-node
    /// death budget is enforced by the caller (the verdict itself stays
    /// a pure function).
    pub fn node_fails(&self, node: usize, epoch: u64) -> bool {
        self.enabled() && verdict_unit(self.seed, &[node as u64, epoch]) < self.node_failure_prob
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
    fn node_plan_none_is_disabled() {
        assert!(!NodeFailurePlan::none().enabled());
        assert!(!NodeFailurePlan::none().node_fails(0, 0));
    }

    #[test]
    fn node_plan_verdicts_are_deterministic_and_seeded() {
        let a = NodeFailurePlan::correlated(0.4, 7);
        let b = NodeFailurePlan::correlated(0.4, 7);
        let c = NodeFailurePlan::correlated(0.4, 8);
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
    #[should_panic(expected = "node failure probability")]
    fn node_plan_probability_validated() {
        let _ = NodeFailurePlan::correlated(1.2, 0);
    }
}
