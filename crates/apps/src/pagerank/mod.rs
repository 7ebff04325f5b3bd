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

/// Intermediate value flowing through the PageRank jobs.
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

/// ∞-norm of the difference between two rank vectors.
pub fn inf_norm_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()))
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
    fn prmsg_is_metered() {
        assert_eq!(PrMsg::Contrib(1.0).approx_bytes(), 9);
        assert_eq!(PrMsg::LocalSum(2.0).approx_bytes(), 9);
    }

    #[test]
    fn top_ranked_orders_descending_with_stable_ties() {
        let ranks = vec![0.5, 2.0, 2.0, 0.1];
        let top = top_ranked(&ranks, 3);
        assert_eq!(top, vec![(1, 2.0), (2, 2.0), (0, 0.5)]);
    }
}
