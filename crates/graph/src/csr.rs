//! Compressed-sparse-row directed graphs.
//!
//! Node ids are `u32` (the paper's largest graph has 280 K nodes; u32
//! halves memory traffic versus usize — see the perf-book guidance on
//! smaller integers for hot types). Edge arrays are flat `Vec`s, so an
//! iteration over a vertex's neighbors is a bounds-check-free slice
//! walk after one offset lookup.

use std::fmt;

/// A vertex identifier.
pub type NodeId = u32;

/// A directed graph in CSR form.
///
/// Construction sorts edges by source with a counting sort (O(V + E)),
/// preserving the relative order of parallel edges. Self-loops and
/// parallel edges are allowed; generators that need simple graphs
/// deduplicate before building.
#[derive(Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets` for vertex `v`.
    offsets: Vec<u32>,
    /// Concatenated out-neighbor lists.
    targets: Vec<NodeId>,
}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .finish()
    }
}

impl CsrGraph {
    /// Builds a graph with `n` vertices from a directed edge list.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n` or if the edge count overflows
    /// `u32` (the CSR offset type).
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(n <= u32::MAX as usize, "node count exceeds u32 id space");
        assert!(edges.len() < u32::MAX as usize, "edge count exceeds u32 offset space");
        let mut degree = vec![0u32; n];
        for &(src, dst) in edges {
            assert!((src as usize) < n, "edge source {src} out of range (n = {n})");
            assert!((dst as usize) < n, "edge target {dst} out of range (n = {n})");
            degree[src as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degree {
            acc += d;
            offsets.push(acc);
        }
        // Counting-sort placement; `cursor` tracks the next free slot
        // per vertex.
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; edges.len()];
        for &(src, dst) in edges {
            let slot = cursor[src as usize];
            targets[slot as usize] = dst;
            cursor[src as usize] += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbors of `v` as a slice.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> u32 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Edge-array range of `v` (for weight lookups aligned with CSR).
    #[inline]
    pub fn edge_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Iterates all edges as `(src, dst)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes() as NodeId)
            .flat_map(move |v| self.out_neighbors(v).iter().map(move |&w| (v, w)))
    }

    /// In-degree of every vertex (one O(E) pass).
    pub fn in_degrees(&self) -> Vec<u32> {
        let mut indeg = vec![0u32; self.num_nodes()];
        for &t in &self.targets {
            indeg[t as usize] += 1;
        }
        indeg
    }

    /// The reverse graph (every edge flipped).
    pub fn transpose(&self) -> CsrGraph {
        let flipped: Vec<(NodeId, NodeId)> = self.edges().map(|(s, t)| (t, s)).collect();
        CsrGraph::from_edges(self.num_nodes(), &flipped)
    }

    /// Symmetrized, deduplicated version (used by the partitioner,
    /// which operates on the undirected structure like Metis).
    pub fn to_undirected(&self) -> CsrGraph {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.num_edges() * 2);
        for (s, t) in self.edges() {
            if s != t {
                edges.push((s, t));
                edges.push((t, s));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        CsrGraph::from_edges(self.num_nodes(), &edges)
    }

    /// Renames every vertex through `perm` (`perm[old] = new`) and
    /// rebuilds the CSR in the new id order — the backbone of
    /// cache-conscious node reordering: after relabeling with a
    /// locality-preserving permutation, a linear CSR sweep touches
    /// memory (and partitions) in near-sorted order.
    ///
    /// `perm` must be a permutation of `0..num_nodes()`; the adjacency
    /// is preserved (`new(u) -> new(v)` iff `u -> v`), with each
    /// vertex's out-list rewritten in relabeled CSR placement order.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..num_nodes()`.
    pub fn relabel(&self, perm: &[NodeId]) -> CsrGraph {
        let n = self.num_nodes();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!((p as usize) < n, "permutation image {p} out of range");
            assert!(!seen[p as usize], "duplicate permutation image {p}");
            seen[p as usize] = true;
        }
        // Degrees move with their vertex; one counting pass builds the
        // new offsets, a second places edges — no sort needed.
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[perm[v] as usize + 1] = self.offsets[v + 1] - self.offsets[v];
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![0 as NodeId; self.num_edges()];
        for v in 0..n {
            let nv = perm[v] as usize;
            for &t in self.out_neighbors(v as NodeId) {
                let slot = cursor[nv];
                targets[slot as usize] = perm[t as usize];
                cursor[nv] += 1;
            }
        }
        CsrGraph { offsets, targets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        CsrGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        let rebuilt = CsrGraph::from_edges(4, &edges);
        assert_eq!(g, rebuilt);
    }

    #[test]
    fn in_degrees_count_incoming() {
        let g = diamond();
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn transpose_flips_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.out_neighbors(3), &[1, 2]);
        assert_eq!(t.out_degree(0), 0);
        assert_eq!(t.transpose(), g, "double transpose is identity");
    }

    #[test]
    fn to_undirected_symmetrizes_and_dedups() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 2)]);
        let u = g.to_undirected();
        assert_eq!(u.out_neighbors(0), &[1]);
        assert_eq!(u.out_neighbors(1), &[0, 2]);
        assert_eq!(u.out_neighbors(2), &[1], "self-loop dropped");
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        let g = CsrGraph::from_edges(5, &[]);
        assert_eq!(g.num_nodes(), 5);
        for v in 0..5 {
            assert_eq!(g.out_degree(v), 0);
        }
    }

    #[test]
    fn parallel_edges_kept() {
        let g = CsrGraph::from_edges(2, &[(0, 1), (0, 1)]);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn relabel_preserves_adjacency() {
        let g = diamond();
        // 0↦3, 1↦1, 2↦0, 3↦2
        let perm = vec![3, 1, 0, 2];
        let r = g.relabel(&perm);
        assert_eq!(r.num_nodes(), 4);
        assert_eq!(r.num_edges(), 4);
        // 0 -> {1,2} becomes 3 -> {1,0}; CSR placement keeps the
        // original out-list order.
        assert_eq!(r.out_neighbors(3), &[1, 0]);
        assert_eq!(r.out_neighbors(1), &[2]); // 1 -> 3 becomes 1 -> 2
        assert_eq!(r.out_neighbors(0), &[2]); // 2 -> 3 becomes 0 -> 2
        assert_eq!(r.out_neighbors(2), &[] as &[NodeId]);
    }

    #[test]
    fn relabel_identity_is_noop() {
        let g = diamond();
        let id: Vec<NodeId> = (0..4).collect();
        assert_eq!(g.relabel(&id), g);
    }

    #[test]
    fn relabel_round_trips_through_inverse() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5), (5, 0), (3, 3)]);
        let perm: Vec<NodeId> = vec![5, 3, 1, 0, 4, 2];
        let mut inv = vec![0 as NodeId; 6];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as NodeId;
        }
        assert_eq!(g.relabel(&perm).relabel(&inv), g);
    }

    #[test]
    #[should_panic(expected = "duplicate permutation image")]
    fn relabel_rejects_non_permutation() {
        let _ = diamond().relabel(&[0, 0, 1, 2]);
    }
}
