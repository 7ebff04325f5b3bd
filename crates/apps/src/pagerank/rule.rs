//! PageRank's math, written once: Eq. 1, its inverse, the tolerance
//! the inner solves stop at and the global convergence test.
//!
//! Every formulation calls this module instead of spelling the math:
//! General's reducer over bare contributions
//! ([`super::general::PrGeneralReducer`]), Eager's `finish` (its
//! update and its settled test), `finalize` and greduce
//! ([`super::eager`]), the flat session kernel's `gmap`, `absorb` and
//! `converged` ([`super::session::PrAsync`]) and the sequential
//! reference ([`super::reference::pagerank_sequential`]). Each site keeps
//! its own operation order; the rule only names the arithmetic, so the
//! bitwise contracts between the formulations rest on one definition.

use super::PageRankConfig;
use crate::common::check_bound;

impl PageRankConfig {
    /// Checks the values the math depends on.
    ///
    /// # Panics
    ///
    /// Naming the field and its value, unless `damping` lies in (0, 1)
    /// (χ = 0 makes the inverse divide by zero; at χ ≥ 1 the iteration
    /// is no longer a contraction) and `tolerance` is finite and > 0.
    pub fn validate(&self) {
        let damping = self.damping;
        assert!(
            damping > 0.0 && damping < 1.0,
            "PageRankConfig::damping is {damping}; it must lie in (0, 1)"
        );
        check_bound("PageRankConfig::tolerance", self.tolerance);
    }

    /// The update rule of this configuration, validated first.
    pub fn rule(&self) -> PageRankRule {
        self.validate();
        let teleport = 1.0 - self.damping;
        PageRankRule {
            damping: self.damping,
            teleport,
            tolerance: self.tolerance,
            // The inner solve stops when successive local iterates differ
            // by < local_tolerance, which bounds the *true* local fixpoint
            // error by ~local_tolerance/(1−χ). Solving to tolerance·(1−χ)/2
            // keeps that error below half the global threshold, so local
            // noise can never stall the global convergence test.
            local_tolerance: self.tolerance * teleport * 0.5,
        }
    }
}

/// Eq. 1 and the tests around it for one validated [`PageRankConfig`]
/// (built by [`PageRankConfig::rule`] only).
#[derive(Debug, Clone, Copy)]
pub struct PageRankRule {
    damping: f64,
    /// `1 − χ`: the same bits wherever it is computed.
    teleport: f64,
    tolerance: f64,
    local_tolerance: f64,
}

impl PageRankRule {
    /// Eq. 1: the rank of a vertex whose in-contributions sum to `sum`,
    /// `(1 − χ) + χ·sum`.
    #[inline]
    pub fn rank(&self, sum: f64) -> f64 {
        self.teleport + self.damping * sum
    }

    /// Eq. 1 inverted: the local contribution sum `S` of a vertex whose
    /// rank solves `rank = (1 − χ) + χ·(S + remote)`.
    #[inline]
    pub fn local_sum(&self, rank: f64, remote: f64) -> f64 {
        (rank - self.teleport) / self.damping - remote
    }

    /// Whether a vertex's local iterate moved from `old` to `new` by less
    /// than the local tolerance `tolerance·(1 − χ)/2`. A NaN iterate
    /// never settles, so a diverging solve keeps iterating to its cap.
    #[inline]
    pub fn locally_settled(&self, old: f64, new: f64) -> bool {
        (old - new).abs() < self.local_tolerance
    }

    /// The global test: a largest rank change of `max_delta` is below the
    /// configured tolerance.
    #[inline]
    pub fn converged(&self, max_delta: f64) -> bool {
        max_delta < self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{reference, run_async, run_eager, run_general, session::PrAsync};
    use asyncmr_core::Engine;
    use asyncmr_graph::{generators, CsrGraph};
    use asyncmr_partition::{Partitioner, Partitioning, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    fn ring() -> (CsrGraph, Partitioning, ThreadPool) {
        let g = generators::cycle(4);
        let parts = RangePartitioner.partition(&g, 2);
        (g, parts, ThreadPool::new(1))
    }

    #[test]
    fn the_inverse_recovers_the_local_sum() {
        let rule = PageRankConfig::default().rule();
        let rank = rule.rank(2.0 + 0.5);
        assert!((rule.local_sum(rank, 0.5) - 2.0).abs() < 1e-12);
        // The local tolerance is 1e-5·(1 − 0.85)/2 = 7.5e-7.
        assert!(rule.locally_settled(1.0, 1.0 + 7.4e-7));
        assert!(!rule.locally_settled(1.0, 1.0 + 7.6e-7));
        assert!(!rule.locally_settled(f64::NAN, 1.0));
    }

    // Each entry point reaches `validate` through the rule; one refused
    // value per entry point.

    #[test]
    #[should_panic(expected = "PageRankConfig::damping is 0; it must lie in (0, 1)")]
    fn zero_damping_is_refused() {
        let (g, parts, pool) = ring();
        let cfg = PageRankConfig { damping: 0.0, ..Default::default() };
        run_eager(&mut Engine::in_process(&pool), &g, &parts, &cfg);
    }

    #[test]
    #[should_panic(expected = "PageRankConfig::damping is 1; it must lie in (0, 1)")]
    fn unit_damping_is_refused() {
        let (g, parts, pool) = ring();
        let cfg = PageRankConfig { damping: 1.0, ..Default::default() };
        run_general(&mut Engine::in_process(&pool), &g, &parts, &cfg);
    }

    #[test]
    #[should_panic(expected = "PageRankConfig::damping is NaN; it must lie in (0, 1)")]
    fn nan_damping_is_refused() {
        let (g, parts, _) = ring();
        PrAsync::new(&g, &parts, &PageRankConfig { damping: f64::NAN, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "PageRankConfig::tolerance is NaN; it must be finite and > 0")]
    fn nan_tolerance_is_refused() {
        let (g, parts, pool) = ring();
        let cfg = PageRankConfig { tolerance: f64::NAN, ..Default::default() };
        run_async(&pool, &g, &parts, &cfg, 0);
    }

    #[test]
    #[should_panic(expected = "PageRankConfig::tolerance is 0; it must be finite and > 0")]
    fn zero_tolerance_is_refused() {
        reference::pagerank_sequential(&generators::cycle(4), 0.85, 0.0, 10);
    }
}
