//! Eager SSSP — partial synchronization + eager scheduling (§V-C1).
//!
//! "In the eager implementation … each map takes a sub-graph as input;
//! and through iterations of local map and local reduce functions,
//! computes the shortest distances of nodes in the sub-graph from the
//! source through other nodes in the same sub-graph. A global reduce
//! ensues upon convergence of all local MapReduce operations."
//!
//! Per global iteration each `gmap` runs Bellman-Ford over its
//! *internal* edges to a fixpoint, then `finalize` emits the owned
//! distances plus relaxations along cross-partition edges; `greduce`
//! takes the global minimum. Since min is monotone and idempotent,
//! correctness is unaffected by the deferred cross-edge relaxation —
//! only the number of global rounds changes.

use asyncmr_core::prelude::*;
use asyncmr_graph::{NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;

use super::general::{relax, SpGeneralInput};
use super::rule::settled;
use super::{SsspConfig, SsspOutcome};

/// `lmap` and its fold: local Bellman-Ford.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpLocalAlgorithm;

impl LocalAlgorithm for SpLocalAlgorithm {
    type Input = SpGeneralInput;
    type Key = NodeId;
    type Value = f64;
    type Intermediate = f64;

    fn init_state(&self, _task: usize, input: &SpGeneralInput) -> Vec<(NodeId, f64)> {
        input.part.nodes.iter().zip(&input.dists).map(|(&v, &d)| (v, d)).collect()
    }

    #[inline]
    fn lmap(
        &self,
        _task: usize,
        input: &SpGeneralInput,
        state: &[f64],
        ctx: &mut LocalMapContext<Self>,
    ) {
        let part = &input.part;
        // Self-proposal / keep-alive; the state's entry `li` is local
        // vertex `li`, so that is its group. An unreached vertex proposes
        // nothing else.
        let send = |li: usize, dists: &mut [f64]| {
            let d = state[li];
            Self::fold(&mut dists[li], d);
            d.is_finite().then_some(d)
        };
        let relaxed = ctx.scatter(&part.internal, send, |d, w| d + w);
        // Three ops a proposal: its send, the minimum that takes it in
        // and a record's op — the scatter metered that one for an edge.
        ctx.add_ops(3 * part.len() as u64 + 2 * relaxed);
    }

    /// `lreduce` as a fold: the shortest proposal, from ∞ — what the
    /// min reducer computes over the group's values.
    fn init(&self, input: &SpGeneralInput, dists: &mut Vec<f64>) {
        dists.resize(input.part.len(), f64::INFINITY);
    }

    fn fold(acc: &mut f64, proposal: f64) {
        *acc = acc.min(proposal);
    }

    fn finish(&self, _input: &SpGeneralInput, _li: usize, old: &f64, d: &mut f64) -> bool {
        settled(*old, *d)
    }

    fn finalize(
        &self,
        _task: usize,
        input: &SpGeneralInput,
        _keys: &[NodeId],
        state: &[f64],
        ctx: &mut MapContext<NodeId, f64>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let d = state[li as usize];
            ctx.emit_intermediate(v, d);
            ctx.add_ops(1);
            if !d.is_finite() {
                continue;
            }
            for (t, w) in part.cross.edges(li) {
                ctx.emit_intermediate(t, d + w);
                ctx.add_ops(1);
            }
        }
    }

    fn input_bytes(&self, _task: usize, input: &SpGeneralInput) -> Option<u64> {
        Some(input.part.approx_bytes())
    }
}

/// Runs Eager SSSP to global convergence.
pub fn run_eager(
    engine: &mut Engine<'_>,
    graph: &WeightedGraph,
    parts: &Partitioning,
    cfg: &SsspConfig,
) -> SsspOutcome {
    relax(engine, graph, parts, cfg, &EagerMapper::new(SpLocalAlgorithm), "sssp-eager")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::GraphPartition;
    use crate::sssp::reference::dijkstra;
    use crate::sssp::run_general;
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    fn weighted_pa(n: usize, seed: u64) -> WeightedGraph {
        // Crawl locality, as in the paper's graphs (§V-B3).
        let g = generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed);
        WeightedGraph::random_weights(g, 1.0, 10.0, seed ^ 0xFF)
    }

    #[test]
    fn matches_dijkstra() {
        let wg = weighted_pa(300, 11);
        let parts = MultilevelKWay::default().partition(wg.graph(), 5);
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &wg, &parts, &SsspConfig::default());
        let expected = dijkstra(&wg, 0);
        for (v, (got, want)) in out.distances.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9 || (got.is_infinite() && want.is_infinite()),
                "vertex {v}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn fewer_global_iterations_than_general() {
        let wg = weighted_pa(500, 21);
        let parts = MultilevelKWay::default().partition(wg.graph(), 4);
        let pool = ThreadPool::new(4);
        let cfg = SsspConfig::default();
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &wg, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = run_general(&mut e2, &wg, &parts, &cfg);
        assert!(
            eager.report.global_iterations < general.report.global_iterations,
            "eager {} vs general {}",
            eager.report.global_iterations,
            general.report.global_iterations
        );
        assert!(eager.report.local_syncs > 0);
        // Both formulations read the same split, metered at the same size.
        let split_bytes: u64 =
            GraphPartition::build_weighted(&wg, &parts).iter().map(|p| p.approx_bytes()).sum();
        for (engine, job) in [(&e1, "sssp-eager"), (&e2, "sssp-general")] {
            for (i, record) in engine.history().iter().enumerate() {
                assert_eq!(record.name, format!("{job}-iter{i}"));
                assert_eq!(record.meter.input_bytes, split_bytes, "{}", record.name);
            }
        }
    }

    #[test]
    fn single_partition_needs_two_global_rounds() {
        // All edges internal ⇒ first gmap finds every distance; the
        // second round only confirms the fixpoint.
        let wg = weighted_pa(200, 2);
        let parts = RangePartitioner.partition(wg.graph(), 1);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &wg, &parts, &SsspConfig::default());
        assert!(out.report.global_iterations <= 2);
        let expected = dijkstra(&wg, 0);
        for (got, want) in out.distances.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9 || (got.is_infinite() && want.is_infinite()));
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        use asyncmr_graph::CsrGraph;
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let wg = WeightedGraph::unit_weights(g);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &wg, &parts, &SsspConfig::default());
        assert_eq!(out.distances[0], 0.0);
        assert_eq!(out.distances[1], 1.0);
        assert!(out.distances[2].is_infinite());
        assert!(out.distances[3].is_infinite());
    }
}
