//! General (fully synchronous) MapReduce PageRank — the baseline.
//!
//! The paper's baseline has "maps operate on complete partitions, as
//! opposed to single node adjacency lists ... a more competitive
//! implementation" (§V-B1). Every global iteration:
//!
//! * **map** (one task per partition): each vertex pushes
//!   `PR(s)/outdeg(s)` to every out-neighbor — local or not, every
//!   edge's message crosses the global shuffle;
//! * **reduce**: `PR(d) = (1−χ) + χ·Σ contributions`.
//!
//! The iteration count is independent of the partitioning (each
//! iteration is exactly one power-method step) — the flat "General"
//! series of paper Figs. 2 and 3.

use std::fmt::Write;
use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::{PageRankConfig, PageRankOutcome, PageRankRule, PrMsg};
use crate::common::{apply_pairs, gather, step_status, GraphPartition};

/// Map-task input: the partition view plus this iteration's ranks for
/// the owned vertices (aligned with `part.nodes`).
#[derive(Debug, Clone)]
pub struct PrGeneralInput {
    /// The partition.
    pub part: Arc<GraphPartition>,
    /// Current ranks of `part.nodes`, same order.
    pub ranks: Vec<f64>,
}

/// The general mapper: pushes contributions along every edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrGeneralMapper;

impl Mapper for PrGeneralMapper {
    type Input = PrGeneralInput;
    type Key = NodeId;
    type Value = PrMsg;

    fn map(&self, _task: usize, input: &PrGeneralInput, ctx: &mut MapContext<NodeId, PrMsg>) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            // Keep-alive so sink/unreferenced vertices still reduce.
            ctx.emit_intermediate(v, PrMsg::Contrib(0.0));
            let deg = part.out_degree[li as usize];
            ctx.add_ops(1 + deg as u64);
            if deg == 0 {
                continue;
            }
            let c = input.ranks[li as usize] / deg as f64;
            for (lt, _) in part.internal_edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], PrMsg::Contrib(c));
            }
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, PrMsg::Contrib(c));
            }
        }
    }

    fn input_size_hint(&self, input: &PrGeneralInput) -> u64 {
        input.part.approx_bytes()
    }
}

/// The general reducer: applies Eq. 1.
#[derive(Debug, Clone, Copy)]
pub struct PrGeneralReducer {
    /// Eq. 1 for the run's configuration.
    pub rule: PageRankRule,
}

impl Reducer for PrGeneralReducer {
    type Key = NodeId;
    type ValueIn = PrMsg;
    type Out = f64;

    fn reduce(&self, key: &NodeId, values: &[PrMsg], ctx: &mut ReduceContext<NodeId, f64>) {
        let mut sum = 0.0;
        for msg in values {
            match msg {
                PrMsg::Contrib(c) => sum += c,
                PrMsg::LocalSum(s) => sum += s, // not produced by the general mapper
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, self.rule.rank(sum));
    }
}

/// Runs General PageRank to convergence on `engine`.
pub fn run_general(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
) -> PageRankOutcome {
    let rule = cfg.rule();
    let partitions = GraphPartition::build_on(engine.pool(), graph, parts);
    let n = graph.num_nodes();
    let mut ranks = vec![1.0f64; n];
    let reducer = PrGeneralReducer { rule };
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);

    // Built once; every iteration overwrites the rank slices in place.
    let mut inputs: Vec<PrGeneralInput> = partitions
        .iter()
        .map(|part| PrGeneralInput { part: Arc::clone(part), ranks: Vec::new() })
        .collect();
    let mut name = String::new();

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        for input in &mut inputs {
            gather(&mut input.ranks, &input.part.nodes, &ranks);
        }
        name.clear();
        write!(name, "pagerank-general-iter{iter}").expect("writing to a String");
        let out = engine.run(&name, &inputs, &PrGeneralMapper, &reducer, &opts);
        step_status(rule.converged(apply_pairs(&mut ranks, out.pairs)))
    });
    PageRankOutcome { ranks, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::inf_norm_diff;
    use crate::pagerank::reference::pagerank_sequential;
    use asyncmr_graph::generators;
    use asyncmr_partition::{Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_sequential_reference() {
        let g = generators::preferential_attachment(400, 3, 1, 1, 8);
        let parts = RangePartitioner.partition(&g, 4);
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let out = run_general(&mut engine, &g, &parts, &cfg);
        let (expected, _) = pagerank_sequential(&g, cfg.damping, 1e-8, 1000);
        assert!(
            inf_norm_diff(&out.ranks, &expected) < 1e-5,
            "MapReduce PageRank deviates from power iteration"
        );
        assert!(out.report.converged);
    }

    #[test]
    fn iteration_count_matches_power_method_exactly() {
        let g = generators::preferential_attachment(300, 3, 1, 1, 2);
        let (_, seq_iters) = pagerank_sequential(&g, 0.85, 1e-5, 500);
        let pool = ThreadPool::new(2);
        for k in [1, 3, 7] {
            let parts = RangePartitioner.partition(&g, k);
            let mut engine = Engine::in_process(&pool);
            let out = run_general(&mut engine, &g, &parts, &PageRankConfig::default());
            assert_eq!(
                out.report.global_iterations, seq_iters,
                "general iterations must equal power-method steps (k = {k})"
            );
        }
    }

    #[test]
    fn general_never_uses_partial_syncs() {
        let g = generators::cycle(50);
        let parts = RangePartitioner.partition(&g, 5);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &g, &parts, &PageRankConfig::default());
        assert_eq!(out.report.local_syncs, 0);
    }
}
