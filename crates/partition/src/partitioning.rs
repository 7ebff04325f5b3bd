//! The partition assignment and its quality metrics.

use asyncmr_graph::{CsrGraph, NodeId};

/// A partition identifier.
pub type PartId = u32;

/// An assignment of every vertex to one of `k` parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    assignment: Vec<PartId>,
    k: usize,
}

impl Partitioning {
    /// Wraps an assignment vector.
    ///
    /// # Panics
    /// Panics if any part id is `>= k`.
    pub fn new(assignment: Vec<PartId>, k: usize) -> Self {
        assert!(k >= 1, "need at least one part");
        assert!(assignment.iter().all(|&p| (p as usize) < k), "assignment references part >= k");
        Partitioning { assignment, k }
    }

    /// Number of parts (including possibly empty ones).
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.assignment.len()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: NodeId) -> PartId {
        self.assignment[v as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.assignment
    }

    /// Vertices of each part, in ascending vertex order.
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut parts = vec![Vec::new(); self.k];
        for (v, &p) in self.assignment.iter().enumerate() {
            parts[p as usize].push(v as NodeId);
        }
        parts
    }

    /// Vertex count per part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Number of directed edges whose endpoints lie in different parts.
    pub fn edge_cut(&self, g: &CsrGraph) -> usize {
        assert_eq!(g.num_nodes(), self.num_nodes(), "graph/partition size mismatch");
        g.edges().filter(|&(s, t)| self.part_of(s) != self.part_of(t)).count()
    }

    /// Fraction of directed edges cut.
    pub fn cut_fraction(&self, g: &CsrGraph) -> f64 {
        if g.num_edges() == 0 {
            return 0.0;
        }
        self.edge_cut(g) as f64 / g.num_edges() as f64
    }

    /// `true` for vertices with at least one neighbor (either
    /// direction) in another part — the paper's *boundary nodes*, which
    /// need the global reduction.
    pub fn boundary_flags(&self, g: &CsrGraph) -> Vec<bool> {
        let mut boundary = vec![false; self.num_nodes()];
        for (s, t) in g.edges() {
            if self.part_of(s) != self.part_of(t) {
                boundary[s as usize] = true;
                boundary[t as usize] = true;
            }
        }
        boundary
    }

    /// Load imbalance: `max part size / ideal size` (1.0 = perfect).
    /// Empty partitionings report 1.0.
    pub fn balance(&self) -> f64 {
        if self.num_nodes() == 0 || self.k == 0 {
            return 1.0;
        }
        let max = self.part_sizes().into_iter().max().unwrap_or(0);
        let ideal = self.num_nodes() as f64 / self.k as f64;
        max as f64 / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_graph::generators;

    #[test]
    fn members_and_sizes_agree() {
        let p = Partitioning::new(vec![0, 1, 0, 2, 1], 3);
        assert_eq!(p.part_sizes(), vec![2, 2, 1]);
        let members = p.members();
        assert_eq!(members[0], vec![0, 2]);
        assert_eq!(members[1], vec![1, 4]);
        assert_eq!(members[2], vec![3]);
        assert_eq!(p.num_parts(), 3);
    }

    #[test]
    fn edge_cut_on_cycle() {
        let g = generators::cycle(4); // 0→1→2→3→0
        let split = Partitioning::new(vec![0, 0, 1, 1], 2);
        // Crossing edges: 1→2 and 3→0.
        assert_eq!(split.edge_cut(&g), 2);
        assert!((split.cut_fraction(&g) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_nodes_on_cycle() {
        let g = generators::cycle(4);
        let split = Partitioning::new(vec![0, 0, 1, 1], 2);
        // All four vertices touch a cut edge here.
        assert_eq!(split.boundary_flags(&g), vec![true, true, true, true]);
        let lump = Partitioning::new(vec![0, 0, 0, 0], 1);
        assert_eq!(lump.boundary_flags(&g), vec![false; 4], "one part has no boundary");
    }

    #[test]
    fn balance_metric() {
        let p = Partitioning::new(vec![0, 0, 0, 1], 2);
        // max 3 over ideal 2 → 1.5
        assert!((p.balance() - 1.5).abs() < 1e-12);
        let even = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert!((even.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_part_has_no_cut() {
        let g = generators::erdos_renyi(50, 200, 1);
        let p = Partitioning::new(vec![0; 50], 1);
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.balance(), 1.0);
    }

    #[test]
    #[should_panic(expected = "references part")]
    fn invalid_assignment_panics() {
        let _ = Partitioning::new(vec![0, 3], 2);
    }
}
