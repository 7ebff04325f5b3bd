//! Eager connected components: each `gmap` floods labels to a local
//! fixpoint within its partition, then exchanges boundary labels at the
//! global synchronization. Min-propagation is monotone, so deferring
//! cross-partition messages affects only the global round count, never
//! correctness — the same argument as Eager SSSP (§V-C1).

use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::general::{propagate, CcGeneralInput};
use super::rule::min_label;
use super::{CcConfig, CcOutcome};

/// `lmap`/`lreduce` pair: local min-label flooding.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcLocalAlgorithm;

impl LocalAlgorithm for CcLocalAlgorithm {
    type Input = CcGeneralInput;
    type Item = u32;
    type Key = NodeId;
    type Value = NodeId;

    fn items<'a>(&self, input: &'a CcGeneralInput) -> &'a [u32] {
        &input.part.local_ids
    }

    fn init_state(&self, _task: usize, input: &CcGeneralInput) -> Vec<(NodeId, NodeId)> {
        input.part.nodes.iter().zip(&input.labels).map(|(&v, &l)| (v, l)).collect()
    }

    fn emission_keys(&self, _task: usize, input: &CcGeneralInput) -> Option<Vec<NodeId>> {
        Some(input.part.emission_keys())
    }

    fn lmap(
        &self,
        _task: usize,
        input: &CcGeneralInput,
        item: &u32,
        state: &LocalState<NodeId, NodeId>,
        ctx: &mut LocalMapContext<NodeId, NodeId>,
    ) {
        let li = *item;
        let part = &input.part;
        let label = state[&part.nodes[li as usize]];
        ctx.emit_value(label);
        let internal = part.internal_degree(li);
        ctx.add_ops(1 + internal as u64);
        for _ in 0..internal {
            ctx.emit_value(label);
        }
    }

    fn lreduce(
        &self,
        _task: usize,
        _input: &CcGeneralInput,
        key: &NodeId,
        values: &[NodeId],
        ctx: &mut LocalReduceContext<NodeId, NodeId>,
    ) {
        ctx.add_ops(values.len() as u64);
        ctx.emit_local(*key, min_label(values));
    }

    fn locally_converged(
        &self,
        old: &LocalState<NodeId, NodeId>,
        new: &LocalState<NodeId, NodeId>,
    ) -> bool {
        old == new
    }

    fn finalize(
        &self,
        _task: usize,
        input: &CcGeneralInput,
        state: &LocalState<NodeId, NodeId>,
        ctx: &mut MapContext<NodeId, NodeId>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let label = state[&v];
            ctx.emit_intermediate(v, label);
            ctx.add_ops(1);
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, label);
                ctx.add_ops(1);
            }
        }
    }

    fn input_bytes(&self, _task: usize, input: &CcGeneralInput) -> Option<u64> {
        Some(input.part.approx_bytes())
    }
}

/// Runs eager label propagation to a global fixpoint.
pub fn run_eager(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &CcConfig,
) -> CcOutcome {
    propagate(engine, graph, parts, cfg, &EagerMapper::new(CcLocalAlgorithm), "cc-eager")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reference::components;
    use crate::cc::run_general;
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_reference() {
        let g = generators::preferential_attachment_crawled(400, 3, 1, 1, 0.95, 40, 3);
        let parts = MultilevelKWay::default().partition(&g, 5);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &g, &parts, &CcConfig::default());
        assert_eq!(out.labels, components(&g.to_undirected()));
    }

    #[test]
    fn fewer_global_iterations_than_general_on_path() {
        // A long path split into few partitions: eager floods each
        // partition internally, so global rounds ~ #partitions, while
        // general needs ~path-length rounds.
        let n = 60u32;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = asyncmr_graph::CsrGraph::from_edges(n as usize, &edges);
        let parts = RangePartitioner.partition(&g, 3);
        let pool = ThreadPool::new(2);
        let cfg = CcConfig::default();
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &g, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = run_general(&mut e2, &g, &parts, &cfg);
        assert!(
            eager.report.global_iterations * 5 < general.report.global_iterations,
            "eager {} vs general {}",
            eager.report.global_iterations,
            general.report.global_iterations
        );
        assert_eq!(eager.labels, general.labels);
    }

    #[test]
    fn isolated_vertices_converge_immediately() {
        let g = asyncmr_graph::CsrGraph::from_edges(5, &[]);
        let parts = RangePartitioner.partition(&g, 2);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &g, &parts, &CcConfig::default());
        assert_eq!(out.labels, vec![0, 1, 2, 3, 4]);
        assert!(out.report.global_iterations <= 2);
    }
}
