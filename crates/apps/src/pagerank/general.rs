//! General (fully synchronous) MapReduce PageRank — the baseline.
//!
//! The paper's baseline has "maps operate on complete partitions, as
//! opposed to single node adjacency lists ... a more competitive
//! implementation" (§V-B1). Every global iteration:
//!
//! * **map** (one task per partition): each vertex pushes
//!   `PR(s)/outdeg(s)` to every out-neighbor, local or not, and the
//!   task combines in the mapper (Lin & Schatz's in-mapper combining):
//!   it sums the pushes per target and ships one record per owned
//!   vertex and one per distinct cross target, not one per edge;
//! * **reduce**: `PR(d) = (1−χ) + χ·Σ contributions`.
//!
//! Its records are bare [`Contribution`]s, 8 bytes in memory, metered as
//! the tagged 9-byte wire record the paper's job ships: nothing here
//! needs the tag, so the shuffle moves half the bytes and the cost model
//! prices the same record.
//!
//! The iteration count is independent of the partitioning (each
//! iteration is exactly one power-method step) — the flat "General"
//! series of paper Figs. 2 and 3.

use std::fmt::Write;
use std::sync::Arc;

use asyncmr_core::csr::LocalCsr;
use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::{Contribution, PageRankConfig, PageRankOutcome, PageRankRule};
use crate::common::{apply_pairs, gather, step_status, GraphPartition};

/// Map-task input: the partition view, this iteration's ranks for the
/// owned vertices (aligned with `part.nodes`) and the slots its cross
/// contributions sum into.
#[derive(Debug, Clone)]
pub struct PrGeneralInput {
    /// The partition.
    pub part: Arc<GraphPartition>,
    /// Current ranks of `part.nodes`, same order.
    pub ranks: Vec<f64>,
    /// The distinct targets of `part.cross`, ascending: one slot each.
    remote: Vec<NodeId>,
    /// `part.cross` with every target replaced by its slot in `remote`.
    slots: LocalCsr,
}

impl PrGeneralInput {
    /// The input of `part`'s map task, its ranks empty until gathered.
    pub fn new(part: Arc<GraphPartition>) -> Self {
        let cross = &part.cross;
        let mut remote: Vec<NodeId> =
            part.local_ids.iter().flat_map(|&li| cross.edges(li)).map(|(t, _)| t).collect();
        remote.sort_unstable();
        remote.dedup();
        let (mut offsets, mut slot_of) = (vec![0], Vec::with_capacity(cross.num_edges()));
        for &li in &part.local_ids {
            slot_of.extend(cross.edges(li).map(|(t, _)| remote.partition_point(|&r| r < t) as u32));
            offsets.push(slot_of.len() as u32);
        }
        let slots = LocalCsr::new(part.len(), remote.len(), offsets, slot_of, Vec::new());
        PrGeneralInput { part, ranks: Vec::new(), remote, slots }
    }
}

/// The general mapper, combined in the mapper: each vertex's
/// contribution is summed from 0.0 into a slot per internal target
/// (through `part.internal.scatter`) and per distinct cross target,
/// sources ascending, and the task emits one record per owned vertex,
/// local ids ascending (a vertex nothing here reaches still gets its
/// 0.0, so sinks and unreferenced vertices reduce), then one per cross
/// target, ids ascending: the same keys every job.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrGeneralMapper;

impl Mapper for PrGeneralMapper {
    type Input = PrGeneralInput;
    type Key = NodeId;
    type Value = Contribution;

    fn map(&self, _: usize, input: &PrGeneralInput, ctx: &mut MapContext<NodeId, Contribution>) {
        ctx.meter.set_input_bytes(input.part.approx_bytes());
        let part = &input.part;
        let (mut owned, mut crossing) = (vec![0.0; part.len()], vec![0.0; input.remote.len()]);
        let push = |li: usize, _: &mut [f64]| {
            let deg = part.out_degree[li];
            let c = (deg > 0).then(|| input.ranks[li] / deg as f64)?;
            input.slots.edges(li as u32).for_each(|(slot, _)| crossing[slot as usize] += c);
            Some(c)
        };
        let edges = part.internal.scatter(&mut owned, push, |sum, c, _| *sum += c);
        ctx.add_ops((part.len() + part.cross.num_edges()) as u64 + edges);
        let records = part.nodes.iter().zip(&owned).chain(input.remote.iter().zip(&crossing));
        for (&v, &sum) in records {
            ctx.emit_intermediate(v, Contribution(sum));
        }
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
    type ValueIn = Contribution;
    type Out = f64;

    fn reduce(&self, key: &NodeId, values: &[Contribution], ctx: &mut ReduceContext<NodeId, f64>) {
        let sum = values.iter().fold(0.0, |sum, c| sum + c.0);
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
    let n = graph.num_nodes();
    let mut ranks = vec![1.0f64; n];
    let reducer = PrGeneralReducer { rule };
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);

    // Built once, cross slots included; every iteration overwrites the
    // rank slices in place.
    let pool = engine.pool();
    let mut inputs = pool
        .par_map_vec(GraphPartition::build_on(pool, graph, parts), |_, p| PrGeneralInput::new(p));
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
