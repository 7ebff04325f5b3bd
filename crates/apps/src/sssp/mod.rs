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
//! proposal is always safe. The min-reduce and the settle test every
//! formulation applies live in `rule`.
//!
//! Both barrier formulations read one map input,
//! [`general::SpGeneralInput`] (a partition and its vertices'
//! distances, gathered each iteration), and run one driver loop; they
//! differ only in the gmap. General relaxes every out-edge once; Eager
//! wraps [`eager::SpLocalAlgorithm`] in an [`asyncmr_core::EagerMapper`].

pub mod eager;
pub mod general;
pub mod reference;
mod rule;
pub mod session;

use asyncmr_graph::NodeId;

pub use eager::run_eager;
pub use general::run_general;
pub use session::{run_async, run_async_with_driver, SsspAsyncOutcome};

/// Configuration for every SSSP variant; each entry point refuses one
/// that fails [`SsspConfig::validate`].
#[derive(Debug, Clone, Copy)]
pub struct SsspConfig {
    /// The source vertex.
    pub source: NodeId,
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job.
    pub num_reducers: usize,
}

impl Default for SsspConfig {
    fn default() -> Self {
        SsspConfig { source: 0, max_iterations: 10_000, num_reducers: 16 }
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

#[cfg(test)]
mod tests {
    use super::rule::all_settled;
    use super::*;
    use asyncmr_core::Engine;
    use asyncmr_graph::{generators, WeightedGraph};
    use asyncmr_partition::{Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn distance_equality_handles_infinities() {
        assert!(all_settled(&[0.0, f64::INFINITY, 2.0], &[0.0, f64::INFINITY, 2.0]));
        assert!(!all_settled(&[0.0, 1.0], &[0.0, 1.5]));
        assert!(!all_settled(&[f64::INFINITY], &[3.0]));
    }

    #[test]
    #[should_panic(expected = "SsspConfig::source is 4; the graph has 4 vertices")]
    fn a_source_outside_the_graph_is_refused() {
        let wg = WeightedGraph::unit_weights(generators::cycle(4));
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let pool = ThreadPool::new(1);
        let cfg = SsspConfig { source: 4, ..Default::default() };
        run_eager(&mut Engine::in_process(&pool), &wg, &parts, &cfg);
    }
}
