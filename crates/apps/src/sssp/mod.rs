//! Single-Source Shortest Path (paper §V-C).
//!
//! Distributed Bellman-Ford: each vertex maintains its best known
//! distance from the source; map tasks relax edges, the reduce takes
//! the minimum per vertex. The eager variant relaxes to a fixpoint
//! *within* each partition ("computing shortest distances of nodes
//! using the paths within the sub-graph asynchronously") before the
//! global exchange over cross-partition edges.
//!
//! Distances are `f64`; unreachable vertices stay at `f64::INFINITY`.
//! Relaxation is monotone (min), so — unlike PageRank — the global
//! reduce needs no owner/remote distinction: the minimum over every
//! proposal is always safe.

pub mod eager;
pub mod general;
pub mod reference;
pub mod session;

use asyncmr_graph::NodeId;

pub use eager::run_eager;
pub use general::run_general;
pub use session::{run_async, run_async_with_driver, SsspAsyncOutcome};

/// Configuration for both SSSP variants.
#[derive(Debug, Clone, Copy)]
pub struct SsspConfig {
    /// The source vertex.
    pub source: NodeId,
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job.
    pub num_reducers: usize,
    /// Shuffle grouping strategy for the barrier jobs (byte-identical
    /// output either way; radix wins when duplicate keys dominate).
    pub grouping: asyncmr_core::GroupingStrategy,
}

impl Default for SsspConfig {
    fn default() -> Self {
        SsspConfig {
            source: 0,
            max_iterations: 10_000,
            num_reducers: 16,
            grouping: asyncmr_core::GroupingStrategy::Sort,
        }
    }
}

/// Result of an SSSP run.
#[derive(Debug, Clone)]
pub struct SsspOutcome {
    /// Shortest distance from the source per vertex (∞ = unreachable).
    pub distances: Vec<f64>,
    /// Global iterations, sync counts, simulated/real time.
    pub report: asyncmr_core::IterationReport,
}

/// Exact equality test used for convergence: distances only ever
/// decrease, so "no vertex changed" is a sound fixpoint test.
pub(crate) fn distances_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).all(|(x, y)| x == y || (x.is_infinite() && y.is_infinite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_equality_handles_infinities() {
        assert!(distances_equal(&[0.0, f64::INFINITY, 2.0], &[0.0, f64::INFINITY, 2.0]));
        assert!(!distances_equal(&[0.0, 1.0], &[0.0, 1.5]));
        assert!(!distances_equal(&[f64::INFINITY], &[3.0]));
    }
}
