//! PageRank — the paper's flagship application (§V-B).
//!
//! Uses the paper's (non-normalized) formulation with initial rank 1:
//!
//! ```text
//! PR(d) = (1 − χ) + χ · Σ_{(s,d) ∈ E} PR(s) / outdeg(s)        (Eq. 1)
//! ```
//!
//! with damping χ = 0.85 and convergence when the ∞-norm of the rank
//! change drops below 1e-5 (both paper defaults). Eq. 1, its inverse and
//! both tolerances live in [`rule`]; every formulation below calls it.
//!
//! * [`run_general`] — the paper's *competitive baseline*: a classic
//!   iterative MapReduce in which each map task operates on a complete
//!   partition (not a single adjacency list) and every iteration is a
//!   global synchronization.
//! * [`run_eager`] — the paper's contribution: each `gmap` iterates its
//!   partition to a *local* PageRank fixpoint (remote neighbor ranks
//!   frozen) before one global exchange of boundary contributions —
//!   block-Jacobi with exact inner solves, in numerical terms.
//! * [`run_async`] — the same local solves and exchange without the
//!   per-iteration barrier: a partition starts its next iteration as
//!   soon as the partitions it depends on have sent their boundary
//!   contributions (bitwise [`run_eager`] at `max_lag = 0`).
//! * [`reference::pagerank_sequential`] — sequential power iteration.

pub mod eager;
pub mod general;
pub mod reference;
pub mod rule;
pub mod session;

use asyncmr_core::Meterable;
use asyncmr_graph::NodeId;

pub use eager::run_eager;
pub use general::run_general;
pub use rule::PageRankRule;
pub use session::{run_async, run_async_with_driver, PageRankAsyncOutcome};

/// Configuration shared by all PageRank variants; every entry point
/// refuses one that fails [`PageRankConfig::validate`].
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor χ (paper: 0.85).
    pub damping: f64,
    /// ∞-norm convergence bound (paper: 1e-5).
    pub tolerance: f64,
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job (paper testbed: 16 reduce slots).
    pub num_reducers: usize,
    /// Shuffle grouping strategy for the barrier jobs (byte-identical
    /// output either way; radix wins when duplicate keys dominate).
    pub grouping: asyncmr_core::GroupingStrategy,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-5,
            max_iterations: 500,
            num_reducers: 16,
            grouping: asyncmr_core::GroupingStrategy::Sort,
        }
    }
}

/// Result of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankOutcome {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// Global iterations, sync counts, simulated/real time.
    pub report: asyncmr_core::IterationReport,
}

/// A rank contribution. General's shuffle record is one map task's
/// partial sum for one target vertex, the `PR(s)/outdeg(s)` of its
/// edges into it summed in the mapper (`0.0` for an owned vertex none
/// reaches); the session meters its boundary messages in the same unit,
/// one per cut edge. It is 8 bytes in memory but metered as the tagged
/// wire record the paper's job ships, [`PrMsg::Contrib`]'s 9 bytes, so
/// the cost model prices one record whichever formulation carries it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution(pub f64);

impl Meterable for Contribution {
    fn approx_bytes(&self) -> u64 {
        9 // 1 tag + 8 payload, as PrMsg
    }
}

/// What Eager's `finalize` emits, and only that: its global reduce
/// needs the tag to tell a vertex's local sum from a remote
/// contribution. It is never a local state: Eager's local passes fold
/// plain `f64`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrMsg {
    /// A rank contribution `PR(s)/outdeg(s)` along an edge.
    Contrib(f64),
    /// From a vertex's owning partition: its converged local
    /// contribution sum `Σ_local PR(s)/outdeg(s)` (eager only).
    LocalSum(f64),
}

impl Meterable for PrMsg {
    fn approx_bytes(&self) -> u64 {
        9 // 1 tag + 8 payload
    }
}

/// ∞-norm of the difference between two rank vectors: +∞ if a NaN
/// sits on either side. Panics if their lengths differ.
pub fn inf_norm_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "inf_norm_diff over rank vectors of different lengths");
    a.iter().zip(b).fold(0.0f64, |acc, (&x, &y)| acc.max(crate::common::gap(x, y)))
}

/// Convenience: top-`k` vertices by rank (descending), for reporting.
pub fn top_ranked(ranks: &[f64], k: usize) -> Vec<(NodeId, f64)> {
    let mut idx: Vec<NodeId> = (0..ranks.len() as NodeId).collect();
    idx.sort_by(|&a, &b| {
        ranks[b as usize]
            .partial_cmp(&ranks[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.into_iter().take(k).map(|v| (v, ranks[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inf_norm_diff_finds_max() {
        assert_eq!(inf_norm_diff(&[1.0, 2.0], &[1.5, 2.1]), 0.5);
        assert_eq!(inf_norm_diff(&[], &[]), 0.0);
    }

    #[test]
    fn inf_norm_diff_counts_a_nan_as_infinitely_far() {
        assert_eq!(inf_norm_diff(&[1.0, f64::NAN, 2.0], &[1.0, 0.5, 2.0]), f64::INFINITY);
        assert_eq!(inf_norm_diff(&[1.0, 0.5], &[f64::NAN, 0.5]), f64::INFINITY);
        assert_eq!(inf_norm_diff(&[f64::NAN], &[f64::NAN]), f64::INFINITY);
        assert_eq!(inf_norm_diff(&[f64::INFINITY, 1.0], &[f64::INFINITY, 1.25]), f64::INFINITY);
    }

    #[test]
    fn inf_norm_diff_keeps_the_plain_fold_on_finite_ranks() {
        let a: [f64; 5] = [0.15, 1.0 / 3.0, 2.5e-7, 7.0, -0.0];
        let b = [0.150_000_1, 0.3, 2.5e-7, 6.5, 0.0];
        let plain = a.iter().zip(&b).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()));
        assert_eq!(inf_norm_diff(&a, &b).to_bits(), plain.to_bits());
    }

    #[test]
    #[should_panic(expected = "inf_norm_diff over rank vectors of different lengths")]
    fn inf_norm_diff_refuses_vectors_of_different_lengths() {
        inf_norm_diff(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn prmsg_is_metered() {
        assert_eq!(PrMsg::Contrib(1.0).approx_bytes(), 9);
        assert_eq!(PrMsg::LocalSum(2.0).approx_bytes(), 9);
    }

    #[test]
    fn contribution_is_half_a_prmsg_in_memory_and_the_same_on_the_wire() {
        assert_eq!(Contribution(1.5).approx_bytes(), PrMsg::Contrib(1.5).approx_bytes());
        assert_eq!(Contribution(1.5).approx_bytes(), 9);
        assert_eq!(std::mem::size_of::<Contribution>(), 8);
        assert_eq!(std::mem::size_of::<PrMsg>(), 16);
    }

    #[test]
    fn the_session_meters_its_messages_as_contributions() {
        let src = include_str!("session.rs");
        assert!(src.contains("Contribution(0.0).approx_bytes()"));
        assert!(!src.contains("PrMsg"), "session.rs meters through Contribution, not PrMsg");
    }

    #[test]
    fn top_ranked_orders_descending_with_stable_ties() {
        let ranks = vec![0.5, 2.0, 2.0, 0.1];
        let top = top_ranked(&ranks, 3);
        assert_eq!(top, vec![(1, 2.0), (2, 2.0), (0, 0.5)]);
    }
}
