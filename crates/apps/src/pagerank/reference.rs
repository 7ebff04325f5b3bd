//! Sequential reference PageRank (power iteration).

use asyncmr_graph::CsrGraph;

use super::{inf_norm_diff, PageRankConfig};

/// Runs the paper's Eq. 1 power iteration to the given ∞-norm
/// tolerance. Returns `(ranks, iterations)`.
///
/// # Panics
///
/// If `damping` or `tolerance` fails [`PageRankConfig::validate`].
pub fn pagerank_sequential(
    g: &CsrGraph,
    damping: f64,
    tolerance: f64,
    max_iterations: usize,
) -> (Vec<f64>, usize) {
    let rule = PageRankConfig { damping, tolerance, ..Default::default() }.rule();
    let n = g.num_nodes();
    let mut ranks = vec![1.0f64; n];
    let mut acc = vec![0.0f64; n];
    for iter in 1..=max_iterations {
        acc.iter_mut().for_each(|a| *a = 0.0);
        for v in 0..n as u32 {
            let deg = g.out_degree(v);
            if deg == 0 {
                continue;
            }
            let c = ranks[v as usize] / deg as f64;
            for &t in g.out_neighbors(v) {
                acc[t as usize] += c;
            }
        }
        let new: Vec<f64> = acc.iter().map(|&a| rule.rank(a)).collect();
        let diff = inf_norm_diff(&ranks, &new);
        ranks = new;
        if rule.converged(diff) {
            return (ranks, iter);
        }
    }
    (ranks, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asyncmr_graph::generators;

    #[test]
    fn cycle_ranks_are_uniform() {
        // On a directed cycle every vertex is symmetric: PR = 1.
        let g = generators::cycle(10);
        let (ranks, iters) = pagerank_sequential(&g, 0.85, 1e-10, 100);
        assert!(iters < 100);
        for r in ranks {
            assert!((r - 1.0).abs() < 1e-8, "rank {r}");
        }
    }

    #[test]
    fn hub_outranks_spokes() {
        let g = generators::star(20); // bidirectional star, hub 0
        let (ranks, _) = pagerank_sequential(&g, 0.85, 1e-9, 200);
        for spoke in 1..20 {
            assert!(ranks[0] > ranks[spoke] * 3.0, "hub should dominate");
        }
    }

    #[test]
    fn sink_nodes_keep_base_rank_flow() {
        // 0 → 1; vertex 1 is a sink, vertex 0 gets nothing.
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let (ranks, _) = pagerank_sequential(&g, 0.85, 1e-12, 100);
        assert!((ranks[0] - 0.15).abs() < 1e-9);
        assert!((ranks[1] - (0.15 + 0.85 * 0.15)).abs() < 1e-6);
    }

    #[test]
    fn fixpoint_satisfies_equation() {
        let g = generators::preferential_attachment(300, 3, 1, 1, 4);
        let (ranks, _) = pagerank_sequential(&g, 0.85, 1e-10, 500);
        // Recompute one step; must be (numerically) unchanged.
        let (next, _) = {
            let mut acc = vec![0.0f64; 300];
            for v in 0..300u32 {
                let deg = g.out_degree(v);
                if deg == 0 {
                    continue;
                }
                let c = ranks[v as usize] / deg as f64;
                for &t in g.out_neighbors(v) {
                    acc[t as usize] += c;
                }
            }
            (acc.iter().map(|&a| 0.15 + 0.85 * a).collect::<Vec<f64>>(), 0)
        };
        assert!(inf_norm_diff(&ranks, &next) < 1e-8);
    }
}
