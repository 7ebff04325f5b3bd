//! Asynchronous Jacobi linear solver — the paper's generality claim
//! made concrete (§VI): "PageRank, which relies on an asynchronous
//! mat-vec, is representative of eigenvalue solvers … Asynchronous
//! mat-vecs form the core of iterative linear system solvers."
//!
//! We solve `A·x = b` for the graph-induced, strictly diagonally
//! dominant system `A = (D + I) − Adj` (D = undirected degree matrix,
//! Adj = undirected adjacency): a standard graph-Laplacian-plus-
//! identity operator for which both point Jacobi and block Jacobi
//! provably converge.
//!
//! * [`run_general`] — one point-Jacobi sweep per global MapReduce
//!   (every edge's contribution crosses the shuffle);
//! * [`run_eager`] — block Jacobi: each `gmap` solves its diagonal
//!   block to a local fixpoint (inner Jacobi on internal edges, remote
//!   values frozen) before the global boundary exchange — identical in
//!   structure to Eager PageRank;
//! * [`reference::jacobi_sequential`] — sequential point Jacobi.
//!
//! The update, its inverse and the block solves' tolerance live in
//! [`rule`].

pub mod eager;
pub mod general;
pub mod reference;
pub mod rule;

pub use eager::run_eager;
pub use general::run_general;

use asyncmr_graph::CsrGraph;

use crate::common::gap;

/// Configuration shared by the solver variants; each entry point
/// refuses one that fails [`JacobiConfig::validate`].
#[derive(Debug, Clone, Copy)]
pub struct JacobiConfig {
    /// ∞-norm convergence bound on successive iterates.
    pub tolerance: f64,
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job.
    pub num_reducers: usize,
}

impl Default for JacobiConfig {
    fn default() -> Self {
        JacobiConfig { tolerance: 1e-8, max_iterations: 10_000, num_reducers: 16 }
    }
}

/// Result of a solver run.
#[derive(Debug, Clone)]
pub struct JacobiOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Final residual ∞-norm `‖b − A·x‖∞`.
    pub residual: f64,
    /// Global iterations, sync counts, simulated/real time.
    pub report: asyncmr_core::IterationReport,
}

/// The system right-hand side used across tests and benches: a seeded
/// smooth vector (deterministic, entries in [-1, 1)).
pub fn seeded_rhs(n: usize, seed: u64) -> Vec<f64> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Diagonal of `A = (D + I) − Adj` for the undirected graph.
pub fn diagonal(undirected: &CsrGraph) -> Vec<f64> {
    (0..undirected.num_nodes() as u32).map(|v| undirected.out_degree(v) as f64 + 1.0).collect()
}

/// Residual ∞-norm `‖b − A·x‖∞` for the graph-induced system; +∞ if a
/// row's residual is NaN.
pub fn residual_inf(undirected: &CsrGraph, x: &[f64], b: &[f64]) -> f64 {
    let diag = diagonal(undirected);
    let mut worst = 0.0f64;
    for v in 0..undirected.num_nodes() {
        let mut ax = diag[v] * x[v];
        for &w in undirected.out_neighbors(v as u32) {
            ax -= x[w as usize];
        }
        worst = worst.max(gap(b[v], ax));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_graph::generators;

    #[test]
    fn diagonal_is_degree_plus_one() {
        let g = generators::cycle(4).to_undirected();
        assert_eq!(diagonal(&g), vec![3.0, 3.0, 3.0, 3.0]); // deg 2 + 1
    }

    #[test]
    fn residual_zero_for_exact_solution() {
        // Single vertex: A = [1], b = [5] => x = 5.
        let g = CsrGraph::from_edges(1, &[]);
        assert_eq!(residual_inf(&g, &[5.0], &[5.0]), 0.0);
    }

    #[test]
    fn a_nan_residual_is_infinite_not_converged() {
        // A NaN iterate or right-hand side, in the first row or the last:
        // the largest residual is +∞, not whatever the other rows read.
        let g = generators::cycle(4).to_undirected();
        let (x, b) = ([1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 2.0]);
        for v in [0, 3] {
            let (mut x_nan, mut b_nan) = (x, b);
            x_nan[v] = f64::NAN;
            b_nan[v] = f64::NAN;
            assert_eq!(residual_inf(&g, &x_nan, &b), f64::INFINITY, "x[{v}] NaN");
            assert_eq!(residual_inf(&g, &x, &b_nan), f64::INFINITY, "b[{v}] NaN");
        }
        // Finite: the plain largest |b − A·x|, bit for bit.
        let diag = diagonal(&g);
        let row = |v: usize| {
            let ax =
                g.out_neighbors(v as u32).iter().fold(diag[v] * x[v], |ax, &w| ax - x[w as usize]);
            (b[v] - ax).abs()
        };
        let plain = (0..4).map(row).fold(0.0, f64::max);
        assert_eq!(residual_inf(&g, &x, &b).to_bits(), plain.to_bits());
    }

    #[test]
    fn seeded_rhs_deterministic() {
        assert_eq!(seeded_rhs(10, 3), seeded_rhs(10, 3));
        assert_ne!(seeded_rhs(10, 3), seeded_rhs(10, 4));
    }

    #[test]
    #[should_panic(expected = "JacobiConfig::tolerance is NaN; it must be finite and > 0")]
    fn a_nan_tolerance_is_refused() {
        use asyncmr_partition::{Partitioner, RangePartitioner};
        let g = generators::cycle(4);
        let parts = RangePartitioner.partition(&g, 2);
        let pool = asyncmr_runtime::ThreadPool::new(1);
        let cfg = JacobiConfig { tolerance: f64::NAN, ..Default::default() };
        run_general(&mut asyncmr_core::Engine::in_process(&pool), &g, &[1.0; 4], &parts, &cfg);
    }
}
