//! General (fully synchronous) connected components: one label
//! propagation round per global MapReduce iteration.

use std::fmt::Write;
use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::rule::min_label;
use super::{CcConfig, CcOutcome};
use crate::common::{gather, step_status, GraphPartition};

/// Map-task input: the partition view (built from the *undirected*
/// graph) plus current labels of owned vertices.
#[derive(Debug, Clone)]
pub struct CcGeneralInput {
    /// The partition (undirected adjacency).
    pub part: Arc<GraphPartition>,
    /// Current labels of `part.nodes`, same order.
    pub labels: Vec<NodeId>,
}

/// The general mapper: each vertex broadcasts its label to every
/// neighbor (plus itself, as keep-alive).
#[derive(Debug, Clone, Copy, Default)]
pub struct CcGeneralMapper;

impl Mapper for CcGeneralMapper {
    type Input = CcGeneralInput;
    type Key = NodeId;
    type Value = NodeId;

    fn map(&self, _task: usize, input: &CcGeneralInput, ctx: &mut MapContext<NodeId, NodeId>) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let label = input.labels[li as usize];
            ctx.emit_intermediate(v, label);
            ctx.add_ops(1 + part.out_degree[li as usize] as u64);
            for (lt, _) in part.internal_edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], label);
            }
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, label);
            }
        }
    }

    fn input_size_hint(&self, input: &CcGeneralInput) -> u64 {
        input.part.approx_bytes()
    }
}

/// The reducer: minimum label heard.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcMinReducer;

impl Reducer for CcMinReducer {
    type Key = NodeId;
    type ValueIn = NodeId;
    type Out = NodeId;

    fn reduce(&self, key: &NodeId, values: &[NodeId], ctx: &mut ReduceContext<NodeId, NodeId>) {
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, min_label(values));
    }
}

/// Runs general label propagation to a fixpoint. `graph` may be
/// directed; weak components are computed via symmetrization.
pub fn run_general(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &CcConfig,
) -> CcOutcome {
    propagate(engine, graph, parts, cfg, &CcGeneralMapper, "cc-general")
}

/// Label propagation to a fixpoint, one job named `{job}-iter{i}` per
/// global iteration: `gmap` over the partitions (General's one round or
/// Eager's local flood), then [`CcMinReducer`].
pub(crate) fn propagate<M>(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &CcConfig,
    gmap: &M,
    job: &str,
) -> CcOutcome
where
    M: Mapper<Input = CcGeneralInput, Key = NodeId, Value = NodeId>,
{
    let undirected = graph.to_undirected();
    let partitions = GraphPartition::build_on(engine.pool(), &undirected, parts);
    let n = undirected.num_nodes();
    let mut labels: Vec<NodeId> = (0..n as NodeId).collect();
    let opts = JobOptions::with_reducers(cfg.num_reducers);

    // Built once; every iteration overwrites the label slices in place.
    let mut inputs: Vec<CcGeneralInput> = partitions
        .iter()
        .map(|p| CcGeneralInput { part: Arc::clone(p), labels: Vec::new() })
        .collect();
    let mut name = String::new();

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        for input in &mut inputs {
            gather(&mut input.labels, &input.part.nodes, &labels);
        }
        name.clear();
        write!(name, "{job}-iter{iter}").expect("writing to a String");
        let out = engine.run(&name, &inputs, gmap, &CcMinReducer, &opts);
        let mut changed = false;
        for (v, label) in out.pairs {
            changed |= std::mem::replace(&mut labels[v as usize], label) != label;
        }
        step_status(!changed)
    });
    CcOutcome { labels, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reference::components;
    use asyncmr_graph::generators;
    use asyncmr_partition::{Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_reference_on_multi_component_graph() {
        let g = generators::disjoint_cliques(4, 6);
        let parts = RangePartitioner.partition(&g, 3);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &g, &parts, &CcConfig::default());
        assert_eq!(out.labels, components(&g.to_undirected()));
        assert_eq!(crate::cc::component_count(&out.labels), 4);
    }

    #[test]
    fn iterations_track_label_propagation_diameter() {
        // On a long path the min label must walk end to end: one hop
        // per global iteration (+1 to observe the fixpoint).
        let n = 12;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = asyncmr_graph::CsrGraph::from_edges(n as usize, &edges);
        let parts = RangePartitioner.partition(&g, 1);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &g, &parts, &CcConfig::default());
        assert!(out.labels.iter().all(|&l| l == 0));
        assert_eq!(out.report.global_iterations, n as usize, "one hop per round");
    }
}
