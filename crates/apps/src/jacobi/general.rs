//! General (fully synchronous) distributed Jacobi: one point-Jacobi
//! sweep per global MapReduce iteration — the asynchronous mat-vec of
//! paper §VI in its fully synchronous form.

use std::fmt::Write;
use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_core::Meterable;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::rule::update;
use super::{diagonal, residual_inf, JacobiConfig, JacobiOutcome};
use crate::common::{apply_pairs, gather, step_status, GraphPartition};

/// Intermediate value for the solver jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JMsg {
    /// From a vertex's owner: its right-hand side and diagonal entry
    /// (the reducer needs both to complete the Jacobi update).
    Seed {
        /// Right-hand side entry `b(v)`.
        b: f64,
        /// Diagonal entry `A(v, v)`.
        diag: f64,
    },
    /// A neighbor's current solution value `x(w)`.
    Contrib(f64),
    /// Eager only: converged internal contribution sum.
    LocalSum(f64),
}

impl Meterable for JMsg {
    fn approx_bytes(&self) -> u64 {
        17 // tag + up to two f64 payloads
    }
}

/// Map-task input: partition view (undirected), per-node solver state.
#[derive(Debug, Clone)]
pub struct JacobiInput {
    /// The partition (undirected adjacency).
    pub part: Arc<GraphPartition>,
    /// Current solution values of `part.nodes`.
    pub x: Vec<f64>,
    /// Right-hand side entries of `part.nodes`.
    pub b: Vec<f64>,
    /// Diagonal entries of `part.nodes`.
    pub diag: Vec<f64>,
    /// Eager only: frozen sums of remote neighbor values.
    pub remote_in: Vec<f64>,
}

impl JacobiInput {
    /// One input per partition, with `b` and the diagonal sliced once
    /// (they do not change); the drivers [`gather`] the iterate (and
    /// Eager's remote sums) into it in place every iteration.
    pub(crate) fn per_partition(
        partitions: &[Arc<GraphPartition>],
        b: &[f64],
        diag: &[f64],
    ) -> Vec<Self> {
        let input = |part: &Arc<GraphPartition>| {
            let (mut b_p, mut diag_p) = (Vec::new(), Vec::new());
            gather(&mut b_p, &part.nodes, b);
            gather(&mut diag_p, &part.nodes, diag);
            let part = Arc::clone(part);
            JacobiInput { part, x: Vec::new(), b: b_p, diag: diag_p, remote_in: Vec::new() }
        };
        partitions.iter().map(input).collect()
    }
}

/// The general mapper: every vertex sends `x(v)` to all neighbors.
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiGeneralMapper;

impl Mapper for JacobiGeneralMapper {
    type Input = JacobiInput;
    type Key = NodeId;
    type Value = JMsg;

    fn map(&self, _task: usize, input: &JacobiInput, ctx: &mut MapContext<NodeId, JMsg>) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let xv = input.x[li as usize];
            ctx.emit_intermediate(
                v,
                JMsg::Seed { b: input.b[li as usize], diag: input.diag[li as usize] },
            );
            ctx.add_ops(1 + part.out_degree[li as usize] as u64);
            for (lt, _) in part.internal_edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], JMsg::Contrib(xv));
            }
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, JMsg::Contrib(xv));
            }
        }
    }

    fn input_size_hint(&self, input: &JacobiInput) -> u64 {
        input.part.approx_bytes()
    }
}

/// The reducer: completes the Jacobi update
/// `x'(v) = (b(v) + Σ_{w∈N(v)} x(w)) / A(v, v)` ([`update`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct JacobiReducer;

impl Reducer for JacobiReducer {
    type Key = NodeId;
    type ValueIn = JMsg;
    type Out = f64;

    fn reduce(&self, key: &NodeId, values: &[JMsg], ctx: &mut ReduceContext<NodeId, f64>) {
        let mut sum = 0.0;
        let mut b = 0.0;
        let mut diag = 1.0;
        for msg in values {
            match msg {
                JMsg::Seed { b: bb, diag: dd } => {
                    b = *bb;
                    diag = *dd;
                }
                JMsg::Contrib(c) | JMsg::LocalSum(c) => sum += c,
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, update(b, sum, diag));
    }
}

/// Runs general (point) Jacobi to convergence; `graph` may be
/// directed — the system is built on its symmetrization.
pub fn run_general(
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
    let opts = JobOptions::with_reducers(cfg.num_reducers);

    let mut inputs = JacobiInput::per_partition(&partitions, b, &diag);
    let mut name = String::new();

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        for input in &mut inputs {
            gather(&mut input.x, &input.part.nodes, &x);
        }
        name.clear();
        write!(name, "jacobi-general-iter{iter}").expect("writing to a String");
        let out = engine.run(&name, &inputs, &JacobiGeneralMapper, &JacobiReducer, &opts);
        step_status(apply_pairs(&mut x, out.pairs) < cfg.tolerance)
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
    use asyncmr_partition::{Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_sequential_jacobi() {
        let g = generators::grid(6, 6);
        let b = seeded_rhs(36, 4);
        let parts = RangePartitioner.partition(&g, 3);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let cfg = JacobiConfig::default();
        let out = run_general(&mut engine, &g, &b, &parts, &cfg);
        let (expected, seq_iters) =
            jacobi_sequential(&g.to_undirected(), &b, cfg.tolerance, 10_000);
        assert_eq!(out.report.global_iterations, seq_iters, "one sweep per job");
        assert!(inf_norm_diff(&out.x, &expected) < 1e-9);
        assert!(out.residual < 1e-6, "residual {}", out.residual);
    }

    #[test]
    fn iteration_count_partition_independent() {
        let g = generators::cycle(40);
        let b = seeded_rhs(40, 9);
        let pool = ThreadPool::new(2);
        let mut iters = Vec::new();
        for k in [1usize, 4, 10] {
            let parts = RangePartitioner.partition(&g, k);
            let mut engine = Engine::in_process(&pool);
            let out = run_general(&mut engine, &g, &b, &parts, &JacobiConfig::default());
            iters.push(out.report.global_iterations);
        }
        assert!(iters.windows(2).all(|w| w[0] == w[1]), "{iters:?}");
    }
}
