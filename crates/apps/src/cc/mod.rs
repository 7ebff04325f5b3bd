//! Connected Components — one of the paper's "broader applicability"
//! targets (§V-E lists the Shortest-Path family: "minimum spanning
//! trees, transitive closure, and connected components").
//!
//! Min-label propagation over the undirected structure: every vertex
//! holds the smallest vertex id it has heard of; labels flood until a
//! fixpoint, at which point two vertices share a label iff they share a
//! component. Like SSSP, the operation is monotone (min) and therefore
//! tolerant of arbitrary asynchrony — exactly the algorithm class the
//! paper's partial synchronization targets.
//!
//! * [`run_general`] — one propagation round per global MapReduce.
//! * [`run_eager`] — local flooding to fixpoint inside each `gmap`,
//!   then one global exchange across partition boundaries.
//! * [`reference::components`] — sequential BFS labelling.
//!
//! The min-label fold lives in `rule`.

pub mod eager;
pub mod general;
pub mod reference;
mod rule;

pub use eager::run_eager;
pub use general::run_general;

use asyncmr_graph::NodeId;

/// Configuration for both variants.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job.
    pub num_reducers: usize,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig { max_iterations: 10_000, num_reducers: 16 }
    }
}

/// Result of a components run.
#[derive(Debug, Clone)]
pub struct CcOutcome {
    /// Smallest-vertex-id label per vertex.
    pub labels: Vec<NodeId>,
    /// Global iterations, sync counts, simulated/real time.
    pub report: asyncmr_core::IterationReport,
}

/// Number of distinct components in a label vector.
pub fn component_count(labels: &[NodeId]) -> usize {
    let mut seen: Vec<NodeId> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Checks two labelings induce the same partition of vertices (labels
/// themselves may differ; min-propagation makes them canonical, so we
/// compare directly after canonicalization).
pub fn same_partition(a: &[NodeId], b: &[NodeId]) -> bool {
    a == b // both algorithms produce min-id labels, already canonical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_count_counts_distinct() {
        assert_eq!(component_count(&[0, 0, 2, 2, 4]), 3);
        assert_eq!(component_count(&[]), 0);
        assert_eq!(component_count(&[7, 7, 7]), 1);
    }
}
