//! General (fully synchronous) MapReduce SSSP — the baseline.
//!
//! One Bellman-Ford relaxation round per global iteration: "each map
//! operates on one node … and for every destination node v, emits the
//! sum of the shortest distance to u and the weight of the edge …
//! each reduce … finds the minimum" (§V-C1). As with PageRank, the
//! baseline maps operate on complete partitions ("we take a partition
//! as input instead of a single node's adjacency list, without any
//! loss in performance").

use std::fmt::Write;
use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_graph::{NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;

use super::rule::{settle_pairs, shortest};
use super::{SsspConfig, SsspOutcome};
use crate::common::{gather, step_status, GraphPartition};

/// Map-task input of both formulations: partition view + current
/// distances of its vertices, gathered each iteration.
#[derive(Debug, Clone)]
pub struct SpGeneralInput {
    /// The partition (with edge weights).
    pub part: Arc<GraphPartition>,
    /// Current best distances of `part.nodes`, same order.
    pub dists: Vec<f64>,
}

/// The general mapper: relaxes every out-edge of every finite vertex.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpGeneralMapper;

impl Mapper for SpGeneralMapper {
    type Input = SpGeneralInput;
    type Key = NodeId;
    type Value = f64;

    fn map(&self, _task: usize, input: &SpGeneralInput, ctx: &mut MapContext<NodeId, f64>) {
        ctx.meter.set_input_bytes(input.part.approx_bytes());
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let d = input.dists[li as usize];
            // Self-proposal keeps the current best and keeps `v` alive
            // in the reduce even when no path improves it.
            ctx.emit_intermediate(v, d);
            ctx.add_ops(1);
            if !d.is_finite() {
                continue;
            }
            ctx.add_ops(part.out_degree[li as usize] as u64);
            for (lt, w) in part.internal.edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], d + w);
            }
            for (t, w) in part.cross.edges(li) {
                ctx.emit_intermediate(t, d + w);
            }
        }
    }
}

/// The general reducer: minimum over all proposals.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpMinReducer;

impl Reducer for SpMinReducer {
    type Key = NodeId;
    type ValueIn = f64;
    type Out = f64;

    fn reduce(&self, key: &NodeId, values: &[f64], ctx: &mut ReduceContext<NodeId, f64>) {
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, shortest(values));
    }
}

/// Runs General SSSP to convergence (no distance changes).
pub fn run_general(
    engine: &mut Engine<'_>,
    graph: &WeightedGraph,
    parts: &Partitioning,
    cfg: &SsspConfig,
) -> SsspOutcome {
    relax(engine, graph, parts, cfg, &SpGeneralMapper, "sssp-general")
}

/// Bellman-Ford to a fixpoint, one job named `{job}-iter{i}` per global
/// iteration: `gmap` over the partitions (General's one relaxation round
/// or Eager's local fixpoint), then [`SpMinReducer`].
pub(crate) fn relax<M>(
    engine: &mut Engine<'_>,
    graph: &WeightedGraph,
    parts: &Partitioning,
    cfg: &SsspConfig,
    gmap: &M,
    job: &str,
) -> SsspOutcome
where
    M: Mapper<Input = SpGeneralInput, Key = NodeId, Value = f64>,
{
    let mut dists = cfg.initial_distances(graph.num_nodes());
    let partitions = GraphPartition::build_weighted_on(engine.pool(), graph, parts);
    let opts = JobOptions::with_reducers(cfg.num_reducers);

    // Built once; every iteration overwrites the distance slices in place.
    let mut inputs: Vec<SpGeneralInput> = partitions
        .iter()
        .map(|p| SpGeneralInput { part: Arc::clone(p), dists: Vec::new() })
        .collect();
    let mut name = String::new();

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        for input in &mut inputs {
            gather(&mut input.dists, &input.part.nodes, &dists);
        }
        name.clear();
        write!(name, "{job}-iter{iter}").expect("writing to a String");
        let out = engine.run(&name, &inputs, gmap, &SpMinReducer, &opts);
        step_status(settle_pairs(&mut dists, out.pairs))
    });
    SsspOutcome { distances: dists, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::reference::dijkstra;
    use asyncmr_graph::{generators, CsrGraph};
    use asyncmr_partition::{Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    fn weighted_pa(n: usize, seed: u64) -> WeightedGraph {
        let g = generators::preferential_attachment(n, 3, 1, 1, seed);
        WeightedGraph::random_weights(g, 1.0, 10.0, seed ^ 0xFF)
    }

    #[test]
    fn matches_dijkstra() {
        let wg = weighted_pa(300, 7);
        let parts = RangePartitioner.partition(wg.graph(), 4);
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &wg, &parts, &SsspConfig::default());
        let expected = dijkstra(&wg, 0);
        for (v, (got, want)) in out.distances.iter().zip(&expected).enumerate() {
            assert!(
                (got - want).abs() < 1e-9 || (got.is_infinite() && want.is_infinite()),
                "vertex {v}: got {got}, want {want}"
            );
        }
        assert!(out.report.converged);
    }

    #[test]
    fn iteration_count_is_partition_independent() {
        let wg = weighted_pa(250, 3);
        let pool = ThreadPool::new(2);
        let mut counts = Vec::new();
        for k in [1, 4, 16] {
            let parts = RangePartitioner.partition(wg.graph(), k);
            let mut engine = Engine::in_process(&pool);
            let out = run_general(&mut engine, &wg, &parts, &SsspConfig::default());
            counts.push(out.report.global_iterations);
        }
        assert_eq!(counts[0], counts[1], "general iterations vary with partitions");
        assert_eq!(counts[1], counts[2], "general iterations vary with partitions");
    }

    #[test]
    fn line_graph_takes_diameter_rounds() {
        // Bellman-Ford on a directed path of length L needs ~L rounds
        // (+1 to detect the fixpoint).
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let wg = WeightedGraph::unit_weights(g);
        let parts = RangePartitioner.partition(wg.graph(), 2);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &wg, &parts, &SsspConfig::default());
        assert_eq!(out.distances, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(out.report.global_iterations, 6);
    }
}
