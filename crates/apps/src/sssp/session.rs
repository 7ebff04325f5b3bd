//! Asynchronous SSSP — the barrier-free session formulation.
//!
//! Same decomposition as [`crate::pagerank::session`]: the gmap is a
//! flat-CSR replay of the [`super::eager::SpLocalAlgorithm`]
//! Bellman-Ford local solve (dense distance arrays, no keyed
//! intermediate state), and the
//! global min-reduce is sliced per owner partition into
//! [`AsyncIterative::absorb`]. SSSP is the friendliest possible case
//! for asynchrony — min is monotone, idempotent, and exact in floating
//! point — so results are bitwise identical to [`super::run_eager`] at
//! *any* staleness bound that still converges; `max_lag = 0`
//! additionally reproduces the barrier driver's iteration count.

use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_core::session::SessionReport;
use asyncmr_graph::{NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;
use asyncmr_runtime::ThreadPool;

use super::rule::all_settled;
use super::SsspConfig;
use crate::common::{CutPlan, GraphPartition, MAX_LOCAL_PASSES};

/// One cross-partition relaxation:
/// `(destination-local vertex index, proposed distance)`.
pub type SpAsyncMsg = (u32, f64);

/// SSSP expressed for cross-iteration eager scheduling.
pub struct SpAsync {
    partitions: Vec<Arc<GraphPartition>>,
    cut: CutPlan,
    source: NodeId,
}

impl SpAsync {
    /// Builds the session algorithm (source at distance 0, everything
    /// else unreachable — same as [`super::run_eager`]).
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`SsspConfig::validate`] on the graph.
    pub fn new(graph: &WeightedGraph, parts: &Partitioning, cfg: &SsspConfig) -> Self {
        let partitions = GraphPartition::build_weighted(graph, parts);
        Self::from_views(None, partitions, parts, cfg)
    }

    /// [`SpAsync::new`] with the partition views and the cut plan built
    /// on `pool`.
    pub fn new_on(
        pool: &ThreadPool,
        graph: &WeightedGraph,
        parts: &Partitioning,
        cfg: &SsspConfig,
    ) -> Self {
        let partitions = GraphPartition::build_weighted_on(pool, graph, parts);
        Self::from_views(Some(pool), partitions, parts, cfg)
    }

    fn from_views(
        pool: Option<&ThreadPool>,
        partitions: Vec<Arc<GraphPartition>>,
        parts: &Partitioning,
        cfg: &SsspConfig,
    ) -> Self {
        cfg.validate(parts.num_nodes());
        let cut = CutPlan::build(pool, &partitions, parts);
        SpAsync { partitions, cut, source: cfg.source }
    }

    /// The partition views (for scattering final states back).
    pub fn partitions(&self) -> &[Arc<GraphPartition>] {
        &self.partitions
    }
}

impl AsyncIterative for SpAsync {
    type State = Vec<f64>; // owned distances, partition-local order
    type Update = Vec<f64>; // locally converged own distances
    type Msg = SpAsyncMsg;

    fn partitions(&self) -> usize {
        self.partitions.len()
    }

    fn dependencies(&self, p: usize) -> Dependence {
        Dependence::Sparse(self.cut.in_deps[p].clone())
    }

    fn init_state(&self, p: usize) -> Vec<f64> {
        let nodes = &self.partitions[p].nodes;
        nodes.iter().map(|&v| if v == self.source { 0.0 } else { f64::INFINITY }).collect()
    }

    fn gmap(
        &self,
        p: usize,
        _iteration: usize,
        state: &Vec<f64>,
        outbox: &mut Outbox<SpAsyncMsg>,
    ) -> GmapOutput<Vec<f64>> {
        // Local Bellman-Ford as a flat CSR sweep over dense distance
        // arrays. Min is exact and order-insensitive in floating point,
        // so the sweep is bitwise equal to the keyed
        // `EagerMapper<SpLocalAlgorithm>` fold it replaces; the meters
        // reproduce the keyed path's accounting (self-proposal per
        // vertex, internal relaxations only from finite sources).
        let part = &self.partitions[p];
        let n = part.len();
        // Working copy: `state` is shared history and must stay frozen.
        let mut cur = state.clone();
        let mut next = vec![f64::INFINITY; n];
        let mut ops = 0u64;
        let mut passes = 0u64;
        for _ in 0..MAX_LOCAL_PASSES {
            next.fill(f64::INFINITY);
            let relaxed = part.internal.scatter(
                &mut next,
                |li, next| {
                    let d = cur[li];
                    next[li] = next[li].min(d); // self-proposal / keep-alive
                    d.is_finite().then_some(d)
                },
                |slot, d, w| *slot = slot.min(d + w),
            );
            passes += 1;
            // lmap ops + emitted records + lreduce ops, each equal to
            // the number of proposals this pass: one per vertex, one
            // per internal edge of a finite source.
            ops += 3 * (n as u64 + relaxed);
            let done = all_settled(&cur, &next);
            std::mem::swap(&mut cur, &mut next);
            if done {
                break;
            }
        }
        // Finalize: one relaxation per cross edge of each reachable
        // vertex — each destination's batch in (local id, cross-CSR)
        // order, which is the plan's run order — and the owned
        // distances as the update.
        let mut msg_records = 0u64;
        for run in &self.cut.runs[p] {
            let dst = self.cut.landing(run);
            for ((&li, &t), &w) in run.src.iter().zip(dst).zip(&run.weights) {
                let d = cur[li as usize];
                if d.is_finite() {
                    outbox.push(run.dest as usize, (t, d + w));
                    msg_records += 1;
                }
            }
        }
        GmapOutput {
            update: cur,
            // One op per vertex plus one per relaxation.
            ops: ops + n as u64 + msg_records,
            local_syncs: passes,
            input_bytes: part.approx_bytes(),
            msg_records,
            msg_bytes: msg_records * 12, // NodeId + f64 per relaxation
        }
    }

    fn absorb(
        &self,
        _p: usize,
        _iteration: usize,
        state: &Vec<f64>,
        update: Vec<f64>,
        inbox: &[(usize, &[SpAsyncMsg])],
    ) -> Absorbed<Vec<f64>> {
        // The global min-reduce, owner-sliced. Min is exact and
        // order-insensitive, so folding own distances first is bitwise
        // equal to the engine's map-task-ordered fold.
        let mut dists = update;
        let mut msg_count = 0u64;
        for (_src, msgs) in inbox {
            for &(li, d) in *msgs {
                let slot = &mut dists[li as usize];
                *slot = slot.min(d);
                msg_count += 1;
            }
        }
        let delta = if all_settled(state, &dists) { 0.0 } else { 1.0 };
        Absorbed { delta, ops: dists.len() as u64 + msg_count, state: dists }
    }

    fn converged(&self, max_delta: f64) -> bool {
        max_delta == 0.0
    }

    fn state_bytes(&self, state: &Vec<f64>) -> u64 {
        // Owned distances, one f64 each.
        state.len() as u64 * 8
    }
}

/// Result of an asynchronous SSSP run.
#[derive(Debug)]
pub struct SsspAsyncOutcome {
    /// Shortest distance from the source per vertex (∞ = unreachable).
    pub distances: Vec<f64>,
    /// Session scheduling/metering summary.
    pub report: SessionReport,
}

/// Runs asynchronous SSSP to global convergence.
pub fn run_async(
    pool: &ThreadPool,
    graph: &WeightedGraph,
    parts: &Partitioning,
    cfg: &SsspConfig,
    max_lag: usize,
) -> SsspAsyncOutcome {
    let driver = AsyncFixedPointDriver::new(cfg.max_iterations).with_max_lag(max_lag);
    run_async_with_driver(pool, graph, parts, cfg, driver)
}

/// [`run_async`] under an arbitrary pre-built
/// [`AsyncFixedPointDriver`] (failure injection, checkpoints, tracing
/// — see `crate::pagerank::session::run_async_with_driver`, same knobs,
/// same contracts).
///
/// SSSP is min-monotone and exact, so distances are bitwise identical
/// to [`run_async`] under any failure plan and at *any* staleness bound
/// that converges; at lag 0 the iteration count matches the barrier
/// driver too. Pinned by `tests/chaos_session.rs`.
pub fn run_async_with_driver(
    pool: &ThreadPool,
    graph: &WeightedGraph,
    parts: &Partitioning,
    cfg: &SsspConfig,
    driver: AsyncFixedPointDriver,
) -> SsspAsyncOutcome {
    let algo = SpAsync::new_on(pool, graph, parts, cfg);
    let outcome = driver.run(pool, &algo);
    let mut distances = vec![f64::INFINITY; graph.num_nodes()];
    for (part, state) in algo.partitions().iter().zip(&outcome.states) {
        for (li, &v) in part.nodes.iter().enumerate() {
            distances[v as usize] = state[li];
        }
    }
    SsspAsyncOutcome { distances, report: outcome.report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::reference::dijkstra;
    use crate::sssp::run_eager;
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner};

    fn weighted(n: usize, seed: u64) -> WeightedGraph {
        let g = generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed);
        WeightedGraph::random_weights(g, 1.0, 10.0, seed ^ 0xFF)
    }

    #[test]
    fn async_matches_dijkstra() {
        let wg = weighted(300, 11);
        let parts = MultilevelKWay::default().partition(wg.graph(), 5);
        let pool = ThreadPool::new(4);
        let out = run_async(&pool, &wg, &parts, &SsspConfig::default(), 0);
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
    fn lag_zero_is_bitwise_identical_to_the_barrier_eager_driver() {
        let wg = weighted(500, 21);
        let parts = MultilevelKWay::default().partition(wg.graph(), 4);
        let pool = ThreadPool::new(4);
        let cfg = SsspConfig::default();
        let asynchronous = run_async(&pool, &wg, &parts, &cfg, 0);
        let mut engine = Engine::in_process(&pool);
        let barrier = run_eager(&mut engine, &wg, &parts, &cfg);
        assert_eq!(asynchronous.report.global_iterations, barrier.report.global_iterations);
        for (v, (a, b)) in asynchronous.distances.iter().zip(&barrier.distances).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                "vertex {v}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn staleness_still_finds_exact_distances() {
        let wg = weighted(400, 9);
        let parts = MultilevelKWay::default().partition(wg.graph(), 6);
        let pool = ThreadPool::new(4);
        let out = run_async(&pool, &wg, &parts, &SsspConfig::default(), 3);
        let expected = dijkstra(&wg, 0);
        for (got, want) in out.distances.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9 || (got.is_infinite() && want.is_infinite()));
        }
    }

    #[test]
    fn injected_failures_leave_distances_bitwise_identical() {
        let wg = weighted(400, 31);
        let parts = MultilevelKWay::default().partition(wg.graph(), 5);
        let pool = ThreadPool::new(4);
        let cfg = SsspConfig::default();
        let clean = run_async(&pool, &wg, &parts, &cfg, 0);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_failures(AttemptFailurePlan::transient(0.2), 5);
        let faulty = run_async_with_driver(&pool, &wg, &parts, &cfg, driver);
        assert!(faulty.report.failed_attempts > 0, "0.2/attempt must fire");
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        for (v, (a, b)) in clean.distances.iter().zip(&faulty.distances).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                "vertex {v} diverged under failures: {a} vs {b}"
            );
        }
    }

    #[test]
    fn node_failure_rollback_leaves_distances_bitwise_identical() {
        let wg = weighted(400, 17);
        let parts = MultilevelKWay::default().partition(wg.graph(), 5);
        let pool = ThreadPool::new(4);
        let cfg = SsspConfig::default();
        let clean = run_async(&pool, &wg, &parts, &cfg, 0);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_node_failures(NodeFailurePlan::correlated(0.25, 3, 1), 3);
        let faulty = run_async_with_driver(&pool, &wg, &parts, &cfg, driver);
        assert!(faulty.report.rollbacks > 0, "0.25/(node, epoch) must fire");
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        for (v, (a, b)) in clean.distances.iter().zip(&faulty.distances).enumerate() {
            assert!(
                a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                "vertex {v} diverged under node failures: {a} vs {b}"
            );
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        use asyncmr_graph::CsrGraph;
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let wg = WeightedGraph::unit_weights(g);
        let parts = asyncmr_partition::RangePartitioner.partition(wg.graph(), 2);
        let pool = ThreadPool::new(2);
        let out = run_async(&pool, &wg, &parts, &SsspConfig::default(), 0);
        assert_eq!(out.distances[0], 0.0);
        assert_eq!(out.distances[1], 1.0);
        assert!(out.distances[2].is_infinite());
        assert!(out.distances[3].is_infinite());
    }
}
