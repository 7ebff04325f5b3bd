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

use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_graph::{NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;

use super::general::SpMinReducer;
use super::rule::{settle_pairs, settled, shortest};
use super::{SsspConfig, SsspOutcome};
use crate::common::{step_status, GraphPartition};

/// `gmap` input: the partition view plus the current distances.
///
/// The distance vector is *global* (indexed by vertex id) and shared
/// across all partition inputs via `Arc` — building one iteration's
/// inputs is O(k) pointer bumps, not O(n) copies; each task reads only
/// its owned slots.
#[derive(Debug, Clone)]
pub struct SpEagerInput {
    /// The partition (with edge weights).
    pub part: Arc<GraphPartition>,
    /// Current best distances, indexed by global vertex id, shared
    /// read-only.
    pub dists: Arc<Vec<f64>>,
}

/// `lmap`/`lreduce` pair: local Bellman-Ford.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpLocalAlgorithm;

impl LocalAlgorithm for SpLocalAlgorithm {
    type Input = SpEagerInput;
    type Item = u32; // local vertex index
    type Key = NodeId;
    type Value = f64;

    fn items<'a>(&self, input: &'a SpEagerInput) -> &'a [u32] {
        &input.part.local_ids
    }

    fn init_state(&self, _task: usize, input: &SpEagerInput) -> Vec<(NodeId, f64)> {
        input.part.nodes.iter().map(|&v| (v, input.dists[v as usize])).collect()
    }

    fn lmap(
        &self,
        _task: usize,
        input: &SpEagerInput,
        item: &u32,
        state: &LocalState<NodeId, f64>,
        ctx: &mut LocalMapContext<NodeId, f64>,
    ) {
        let li = *item;
        let part = &input.part;
        let v = part.nodes[li as usize];
        let d = state[&v];
        ctx.emit_local_intermediate(v, d); // self-proposal / keep-alive
        ctx.add_ops(1);
        if !d.is_finite() {
            return;
        }
        ctx.add_ops(part.internal_degree(li) as u64);
        for (lt, w) in part.internal_edges(li) {
            ctx.emit_local_intermediate(part.nodes[lt as usize], d + w);
        }
    }

    fn lreduce(
        &self,
        _task: usize,
        _input: &SpEagerInput,
        key: &NodeId,
        values: &[f64],
        ctx: &mut LocalReduceContext<NodeId, f64>,
    ) {
        ctx.add_ops(values.len() as u64);
        ctx.emit_local(*key, shortest(values));
    }

    fn locally_converged(
        &self,
        old: &LocalState<NodeId, f64>,
        new: &LocalState<NodeId, f64>,
    ) -> bool {
        old.iter().all(|(k, &a)| settled(a, new[k]))
    }

    fn finalize(
        &self,
        _task: usize,
        input: &SpEagerInput,
        state: &LocalState<NodeId, f64>,
        ctx: &mut MapContext<NodeId, f64>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let d = state[&v];
            ctx.emit_intermediate(v, d);
            ctx.add_ops(1);
            if !d.is_finite() {
                continue;
            }
            for (t, w) in part.cross_edges(li) {
                ctx.emit_intermediate(t, d + w);
                ctx.add_ops(1);
            }
        }
    }

    fn input_bytes(&self, _task: usize, input: &SpEagerInput) -> Option<u64> {
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
    let mut dists = Arc::new(cfg.initial_distances(graph.num_nodes()));
    let partitions = GraphPartition::build_weighted_on(engine.pool(), graph, parts);
    let gmap = EagerMapper::new(SpLocalAlgorithm);
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        let inputs: Vec<SpEagerInput> = partitions
            .iter()
            .map(|p| SpEagerInput { part: Arc::clone(p), dists: Arc::clone(&dists) })
            .collect();
        let out =
            engine.run(&format!("sssp-eager-iter{iter}"), &inputs, &gmap, &SpMinReducer, &opts);
        // Dropping the inputs makes the distance vector unique again,
        // so the refresh mutates in place.
        drop(inputs);
        let cur: &mut Vec<f64> = Arc::make_mut(&mut dists);
        step_status(settle_pairs(cur, out.pairs))
    });
    SsspOutcome { distances: Arc::try_unwrap(dists).unwrap_or_else(|a| (*a).clone()), report }
}

#[cfg(test)]
mod tests {
    use super::*;
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
