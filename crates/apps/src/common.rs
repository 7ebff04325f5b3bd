//! Shared partition machinery for the graph applications.
//!
//! Both PageRank and SSSP hand each `gmap` task one [`GraphPartition`]:
//! the vertices it owns, its *internal* adjacency (rewritten to local
//! indices so local iterations never touch a hash map on the hot path)
//! and its *cross* adjacency (global ids — the edges whose messages
//! must wait for the global synchronization). Building these views is
//! the "locality-enhancing partition on the computation" of the paper's
//! abstract, materialized.

use std::sync::Arc;

use asyncmr_core::hash::StableHashMap;
use asyncmr_graph::{CsrGraph, NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;

/// Local-iteration cap for the flat session kernels: the eager
/// formulations' own default, so the session drivers stop where the
/// barrier path stops.
pub(crate) use asyncmr_core::local::DEFAULT_MAX_LOCAL_ITERATIONS as MAX_LOCAL_PASSES;

/// One partition's view of the graph.
#[derive(Debug, Clone)]
pub struct GraphPartition {
    /// The partition id (== map task index).
    pub part: u32,
    /// Global ids of owned vertices, ascending.
    pub nodes: Vec<NodeId>,
    /// Local indices `0..nodes.len()` (convenience for `items()`).
    pub local_ids: Vec<u32>,
    /// Global id → local index for owned vertices.
    pub local_index: StableHashMap<NodeId, u32>,
    /// CSR offsets into `internal_targets`/`internal_weights`, one
    /// entry per local node plus a trailing end.
    pub internal_offsets: Vec<u32>,
    /// Out-neighbors *inside* this partition, as local indices.
    pub internal_targets: Vec<u32>,
    /// Weights aligned with `internal_targets` (1.0 when unweighted).
    pub internal_weights: Vec<f64>,
    /// CSR offsets into `cross_targets`/`cross_weights`.
    pub cross_offsets: Vec<u32>,
    /// Out-neighbors *outside* this partition, as global ids.
    pub cross_targets: Vec<NodeId>,
    /// Weights aligned with `cross_targets`.
    pub cross_weights: Vec<f64>,
    /// Total out-degree (internal + cross) per local node — PageRank
    /// contributions divide by the *global* out-degree.
    pub out_degree: Vec<u32>,
}

impl GraphPartition {
    /// Splits `g` according to `parts`, with unit edge weights.
    pub fn build(g: &CsrGraph, parts: &Partitioning) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(g, None, parts)
    }

    /// Splits a weighted graph according to `parts`.
    pub fn build_weighted(wg: &WeightedGraph, parts: &Partitioning) -> Vec<Arc<GraphPartition>> {
        Self::build_inner(wg.graph(), Some(wg.weights()), parts)
    }

    fn build_inner(
        g: &CsrGraph,
        weights: Option<&[f64]>,
        parts: &Partitioning,
    ) -> Vec<Arc<GraphPartition>> {
        assert_eq!(g.num_nodes(), parts.num_nodes(), "graph/partitioning mismatch");
        let k = parts.num_parts();
        let members = parts.members();
        let mut out = Vec::with_capacity(k);
        for (p, nodes) in members.into_iter().enumerate() {
            let mut local_index = StableHashMap::default();
            for (li, &v) in nodes.iter().enumerate() {
                local_index.insert(v, li as u32);
            }
            let n_local = nodes.len();
            let mut internal_offsets = Vec::with_capacity(n_local + 1);
            let mut internal_targets = Vec::new();
            let mut internal_weights = Vec::new();
            let mut cross_offsets = Vec::with_capacity(n_local + 1);
            let mut cross_targets = Vec::new();
            let mut cross_weights = Vec::new();
            let mut out_degree = Vec::with_capacity(n_local);
            internal_offsets.push(0);
            cross_offsets.push(0);
            for &v in &nodes {
                let range = g.edge_range(v);
                for (idx, &t) in g.out_neighbors(v).iter().enumerate() {
                    let w = weights.map_or(1.0, |ws| ws[range.start + idx]);
                    match local_index.get(&t) {
                        Some(&lt) => {
                            internal_targets.push(lt);
                            internal_weights.push(w);
                        }
                        None => {
                            cross_targets.push(t);
                            cross_weights.push(w);
                        }
                    }
                }
                internal_offsets.push(internal_targets.len() as u32);
                cross_offsets.push(cross_targets.len() as u32);
                out_degree.push(g.out_degree(v));
            }
            out.push(Arc::new(GraphPartition {
                part: p as u32,
                local_ids: (0..n_local as u32).collect(),
                nodes,
                local_index,
                internal_offsets,
                internal_targets,
                internal_weights,
                cross_offsets,
                cross_targets,
                cross_weights,
                out_degree,
            }));
        }
        out
    }

    /// Number of owned vertices.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether this partition owns no vertices.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Internal out-edges of local node `li` as `(local_target, weight)`.
    #[inline]
    pub fn internal_edges(&self, li: u32) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.internal_offsets[li as usize] as usize;
        let hi = self.internal_offsets[li as usize + 1] as usize;
        self.internal_targets[lo..hi]
            .iter()
            .copied()
            .zip(self.internal_weights[lo..hi].iter().copied())
    }

    /// Cross out-edges of local node `li` as `(global_target, weight)`.
    #[inline]
    pub fn cross_edges(&self, li: u32) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.cross_offsets[li as usize] as usize;
        let hi = self.cross_offsets[li as usize + 1] as usize;
        self.cross_targets[lo..hi].iter().copied().zip(self.cross_weights[lo..hi].iter().copied())
    }

    /// Count of internal out-edges of `li`.
    #[inline]
    pub fn internal_degree(&self, li: u32) -> u32 {
        self.internal_offsets[li as usize + 1] - self.internal_offsets[li as usize]
    }

    /// Approximate serialized size: the split a Hadoop map would read.
    pub fn approx_bytes(&self) -> u64 {
        // node id + degree + rank per node, id + weight per edge.
        (self.nodes.len() * 16 + (self.internal_targets.len() + self.cross_targets.len()) * 12)
            as u64
    }
}

/// The cross-partition dependency structure of a partitioned graph —
/// who owns each vertex, and which partitions' messages each partition
/// must wait for per global iteration.
///
/// Derived once from [`GraphPartition::cross_targets`]: partition *q*
/// sends to the owners of its cross targets every iteration, so the
/// dependency set of partition *p* is exactly the set of partitions
/// with at least one cross edge into *p*. This is what the graph apps
/// hand to [`asyncmr_core::session::AsyncIterative::dependencies`].
#[derive(Debug, Clone)]
pub struct PartitionTopology {
    /// Owning partition per vertex.
    pub owner: Vec<u32>,
    /// Local index of each vertex within its owning partition.
    pub local: Vec<u32>,
    /// Per partition: source partitions with cross edges into it,
    /// ascending, self excluded.
    pub in_deps: Vec<Vec<usize>>,
}

impl PartitionTopology {
    /// Builds the topology for `partitions` over `num_nodes` vertices.
    pub fn build(partitions: &[Arc<GraphPartition>], num_nodes: usize) -> Self {
        let mut owner = vec![0u32; num_nodes];
        let mut local = vec![0u32; num_nodes];
        for part in partitions {
            for (li, &v) in part.nodes.iter().enumerate() {
                owner[v as usize] = part.part;
                local[v as usize] = li as u32;
            }
        }
        let mut in_deps: Vec<Vec<usize>> = vec![Vec::new(); partitions.len()];
        for (q, part) in partitions.iter().enumerate() {
            for &t in &part.cross_targets {
                let dest = owner[t as usize] as usize;
                if dest != q {
                    in_deps[dest].push(q);
                }
            }
        }
        for deps in &mut in_deps {
            deps.sort_unstable();
            deps.dedup();
        }
        PartitionTopology { owner, local, in_deps }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_graph::generators;
    use asyncmr_partition::{Partitioner, RangePartitioner};

    #[test]
    fn splits_cycle_into_internal_and_cross() {
        let g = generators::cycle(6); // 0→1→2→3→4→5→0
        let parts = RangePartitioner.partition(&g, 2); // {0,1,2} {3,4,5}
        let views = GraphPartition::build(&g, &parts);
        assert_eq!(views.len(), 2);
        let a = &views[0];
        assert_eq!(a.nodes, vec![0, 1, 2]);
        // 0→1, 1→2 internal; 2→3 cross.
        assert_eq!(a.internal_targets.len(), 2);
        assert_eq!(a.cross_targets, vec![3]);
        let b = &views[1];
        assert_eq!(b.cross_targets, vec![0]);
        // Degrees are global.
        assert!(a.out_degree.iter().all(|&d| d == 1));
    }

    #[test]
    fn internal_edges_use_local_indices() {
        let g = generators::cycle(4);
        let parts = RangePartitioner.partition(&g, 2);
        let views = GraphPartition::build(&g, &parts);
        let a = &views[0]; // nodes 0, 1
        let edges: Vec<_> = a.internal_edges(0).collect();
        assert_eq!(edges, vec![(1, 1.0)]); // 0→1 locally
        assert_eq!(a.internal_degree(1), 0); // 1→2 is cross
        let cross: Vec<_> = a.cross_edges(1).collect();
        assert_eq!(cross, vec![(2, 1.0)]);
    }

    #[test]
    fn weighted_build_aligns_weights() {
        let g = generators::cycle(4);
        let wg = asyncmr_graph::WeightedGraph::new(g, vec![10.0, 20.0, 30.0, 40.0]);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let views = GraphPartition::build_weighted(&wg, &parts);
        let a = &views[0];
        let internal: Vec<_> = a.internal_edges(0).collect();
        assert_eq!(internal, vec![(1, 10.0)]);
        let cross: Vec<_> = a.cross_edges(1).collect();
        assert_eq!(cross, vec![(2, 20.0)]);
    }

    #[test]
    fn every_edge_appears_exactly_once() {
        let g = generators::preferential_attachment(500, 3, 1, 1, 9);
        let parts = RangePartitioner.partition(&g, 7);
        let views = GraphPartition::build(&g, &parts);
        let total: usize =
            views.iter().map(|v| v.internal_targets.len() + v.cross_targets.len()).sum();
        assert_eq!(total, g.num_edges());
        let owned: usize = views.iter().map(|v| v.len()).sum();
        assert_eq!(owned, g.num_nodes());
    }

    #[test]
    fn cross_edge_count_matches_partition_cut() {
        let g = generators::preferential_attachment(400, 3, 1, 1, 2);
        let parts = RangePartitioner.partition(&g, 5);
        let views = GraphPartition::build(&g, &parts);
        let cross_total: usize = views.iter().map(|v| v.cross_targets.len()).sum();
        assert_eq!(cross_total, parts.edge_cut(&g));
    }

    #[test]
    fn topology_derives_ring_dependencies_from_cross_targets() {
        let g = generators::cycle(6); // 0→1→2→3→4→5→0
        let parts = RangePartitioner.partition(&g, 3); // {0,1} {2,3} {4,5}
        let views = GraphPartition::build(&g, &parts);
        let topo = PartitionTopology::build(&views, g.num_nodes());
        assert_eq!(topo.owner, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(topo.local, vec![0, 1, 0, 1, 0, 1]);
        // Directed cycle: partition p receives only from p−1.
        assert_eq!(topo.in_deps, vec![vec![2], vec![0], vec![1]]);
    }

    #[test]
    fn topology_full_cut_depends_on_everyone_sending() {
        let g = generators::preferential_attachment(200, 3, 1, 1, 5);
        let parts = RangePartitioner.partition(&g, 4);
        let views = GraphPartition::build(&g, &parts);
        let topo = PartitionTopology::build(&views, g.num_nodes());
        for (p, deps) in topo.in_deps.iter().enumerate() {
            assert!(!deps.contains(&p), "self-dependency must be excluded");
            assert!(deps.windows(2).all(|w| w[0] < w[1]), "deps must be ascending");
        }
        // Every cross target's owner really lists the sender.
        for (q, view) in views.iter().enumerate() {
            for &t in &view.cross_targets {
                let dest = topo.owner[t as usize] as usize;
                assert!(topo.in_deps[dest].contains(&q));
            }
        }
    }

    #[test]
    fn empty_partitions_allowed() {
        let g = generators::cycle(3);
        let parts = RangePartitioner.partition(&g, 5);
        let views = GraphPartition::build(&g, &parts);
        assert_eq!(views.len(), 5);
        assert!(views[4].is_empty());
        assert!(views[4].approx_bytes() == 0);
    }
}
