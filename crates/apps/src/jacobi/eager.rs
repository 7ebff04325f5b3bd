//! Eager (block) Jacobi: each `gmap` solves its diagonal block to a
//! local fixpoint with frozen remote values, then exchanges boundary
//! values at the global reduce — the solver analogue of Eager PageRank,
//! realizing §VI's "asynchronous mat-vecs form the core of iterative
//! linear system solvers".

use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::general::{JMsg, JacobiInput, JacobiReducer};
use super::rule::{local_sum, update};
use super::{diagonal, residual_inf, JacobiConfig, JacobiOutcome};
use crate::common::{apply_pairs, cross_edge_sums, gather, step_status, GraphPartition};

/// `lmap`/`lreduce` pair: inner point Jacobi on internal edges.
#[derive(Debug, Clone, Copy)]
pub struct JacobiLocalAlgorithm {
    /// Inner fixpoint tolerance.
    pub local_tolerance: f64,
}

impl LocalAlgorithm for JacobiLocalAlgorithm {
    type Input = JacobiInput;
    type Item = u32;
    type Key = NodeId;
    type Value = JMsg;

    fn items<'a>(&self, input: &'a JacobiInput) -> &'a [u32] {
        &input.part.local_ids
    }

    fn init_state(&self, _task: usize, input: &JacobiInput) -> Vec<(NodeId, JMsg)> {
        input.part.nodes.iter().zip(&input.x).map(|(&v, &xv)| (v, JMsg::Contrib(xv))).collect()
    }

    fn emission_keys(&self, _task: usize, input: &JacobiInput) -> Option<Vec<NodeId>> {
        Some(input.part.emission_keys())
    }

    fn lmap(
        &self,
        _task: usize,
        input: &JacobiInput,
        item: &u32,
        state: &LocalState<NodeId, JMsg>,
        ctx: &mut LocalMapContext<NodeId, JMsg>,
    ) {
        let li = *item;
        let part = &input.part;
        let JMsg::Contrib(xv) = state[&part.nodes[li as usize]] else {
            unreachable!("state stores Contrib(x)");
        };
        ctx.emit_value(JMsg::Contrib(0.0)); // keep-alive
        let internal = part.internal_degree(li);
        ctx.add_ops(1 + internal as u64);
        for _ in 0..internal {
            ctx.emit_value(JMsg::Contrib(xv));
        }
    }

    fn lreduce(
        &self,
        _task: usize,
        input: &JacobiInput,
        key: &NodeId,
        values: &[JMsg],
        ctx: &mut LocalReduceContext<NodeId, JMsg>,
    ) {
        let li = input.part.nodes.binary_search(key).expect("lreduce key is an owned vertex");
        let mut sum = input.remote_in[li];
        for msg in values {
            if let JMsg::Contrib(c) = msg {
                sum += c;
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit_local(*key, JMsg::Contrib(update(input.b[li], sum, input.diag[li])));
    }

    fn locally_converged(
        &self,
        old: &LocalState<NodeId, JMsg>,
        new: &LocalState<NodeId, JMsg>,
    ) -> bool {
        old.iter().all(|(k, v)| {
            let (JMsg::Contrib(a), Some(JMsg::Contrib(b))) = (v, new.get(k)) else {
                return false;
            };
            (a - b).abs() < self.local_tolerance
        })
    }

    fn finalize(
        &self,
        _task: usize,
        input: &JacobiInput,
        state: &LocalState<NodeId, JMsg>,
        ctx: &mut MapContext<NodeId, JMsg>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let JMsg::Contrib(xv) = state[&v] else {
                unreachable!("owned vertices always in state");
            };
            // Recover the converged internal sum from the block equation.
            let (b, diag) = (input.b[li as usize], input.diag[li as usize]);
            let s_int = local_sum(xv, b, diag, input.remote_in[li as usize]);
            ctx.emit_intermediate(v, JMsg::LocalSum(s_int));
            ctx.emit_intermediate(v, JMsg::Seed { b, diag });
            ctx.add_ops(2);
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, JMsg::Contrib(xv));
                ctx.add_ops(1);
            }
        }
    }

    fn input_bytes(&self, _task: usize, input: &JacobiInput) -> Option<u64> {
        Some(input.part.approx_bytes())
    }
}

/// Runs block Jacobi to global convergence.
pub fn run_eager(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    b: &[f64],
    parts: &Partitioning,
    cfg: &JacobiConfig,
) -> JacobiOutcome {
    cfg.validate();
    let undirected = graph.to_undirected();
    let partitions = GraphPartition::build_on(engine.pool(), &undirected, parts);
    let n = undirected.num_nodes();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let diag = diagonal(&undirected);
    let mut x = vec![0.0f64; n];
    // Frozen remote sums; exact for the all-zero initial iterate.
    let mut remote_in = vec![0.0f64; n];
    let gmap = EagerMapper::new(JacobiLocalAlgorithm { local_tolerance: cfg.local_tolerance() });
    let opts = JobOptions::with_reducers(cfg.num_reducers);

    let mut inputs = JacobiInput::per_partition(&partitions, b, &diag);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        for input in &mut inputs {
            gather(&mut input.x, &input.part.nodes, &x);
            gather(&mut input.remote_in, &input.part.nodes, &remote_in);
        }
        let out =
            engine.run(&format!("jacobi-eager-iter{iter}"), &inputs, &gmap, &JacobiReducer, &opts);
        // greduce emitted x'(v) = (b + S_int + Σ cross x)/diag.
        let diff = apply_pairs(&mut x, out.pairs);
        // The frozen remote sums of the next block solve:
        // remote_in(v) = Σ_{cross edges (w, v)} x(w) under the new x.
        remote_in = cross_edge_sums(&partitions, n, |p, li| x[p.nodes[li as usize] as usize]);
        step_status(diff < cfg.tolerance)
    });
    let residual = residual_inf(&undirected, &x, b);
    JacobiOutcome { x, residual, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::reference::jacobi_sequential;
    use crate::jacobi::seeded_rhs;
    use crate::pagerank::inf_norm_diff;
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_sequential_solution() {
        let g = generators::grid(6, 6);
        let b = seeded_rhs(36, 4);
        let parts = MultilevelKWay::default().partition(&g, 4);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let cfg = JacobiConfig::default();
        let out = run_eager(&mut engine, &g, &b, &parts, &cfg);
        let (expected, _) = jacobi_sequential(&g.to_undirected(), &b, 1e-12, 50_000);
        assert!(
            inf_norm_diff(&out.x, &expected) < 1e-6,
            "deviation {}",
            inf_norm_diff(&out.x, &expected)
        );
        assert!(out.residual < 1e-6, "residual {}", out.residual);
    }

    #[test]
    fn fewer_global_iterations_than_general() {
        let g = generators::grid(12, 12); // strong locality: block wins
        let b = seeded_rhs(144, 7);
        let parts = MultilevelKWay::default().partition(&g, 4);
        let pool = ThreadPool::new(2);
        let cfg = JacobiConfig::default();
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &g, &b, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = super::super::run_general(&mut e2, &g, &b, &parts, &cfg);
        assert!(
            eager.report.global_iterations < general.report.global_iterations,
            "eager {} vs general {}",
            eager.report.global_iterations,
            general.report.global_iterations
        );
        assert!(eager.report.local_syncs > 0);
    }

    #[test]
    fn single_partition_is_direct_solve() {
        let g = generators::cycle(25);
        let b = seeded_rhs(25, 2);
        let parts = RangePartitioner.partition(&g, 1);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &g, &b, &parts, &JacobiConfig::default());
        assert!(out.report.global_iterations <= 2);
        assert!(out.residual < 1e-6);
    }
}
