//! Asynchronous PageRank — the barrier-free session formulation.
//!
//! [`super::run_eager`] already removed most global iterations via
//! partial synchronization, but still runs one barrier job per global
//! iteration: iteration *i+1* of every partition waits for the
//! *slowest* partition of iteration *i*. Here the same computation —
//! a flat-CSR replay of the [`super::eager::PrLocalAlgorithm`] local
//! solve and the identical `greduce` arithmetic — is expressed as an
//! [`AsyncIterative`] so the [`AsyncFixedPointDriver`] can start a
//! partition's next iteration the moment the boundary contributions it
//! actually depends on (the partitions with cross edges into it, per
//! the [`CutPlan`]) have arrived.
//!
//! At `max_lag = 0` the computed ranks, the per-iteration deltas, and
//! therefore the iteration count are **byte-identical** to
//! [`super::run_eager`] on the barrier driver (asserted by the
//! `session_equivalence` integration test): the absorb replays the
//! engine's `greduce` reduction with message batches consumed in
//! ascending source-partition order, exactly the shuffle's
//! map-task-ordered value semantics. The cut is static, so a batch is
//! one bare `f64` per cut edge of its [`CutPlan`] run: where each lands
//! was resolved when the session was built.

use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_core::session::SessionReport;
use asyncmr_graph::CsrGraph;
use asyncmr_partition::Partitioning;
use asyncmr_runtime::ThreadPool;

use super::{PageRankConfig, PageRankRule, PrMsg};
use crate::common::{CutPlan, GraphPartition, MAX_LOCAL_PASSES};

/// Per-partition session state: owned ranks plus the frozen remote
/// contribution sum per owned vertex (what the barrier formulation
/// round-trips through the global reduce every iteration).
#[derive(Debug, Clone)]
pub struct PrPartitionState {
    /// Current rank per owned vertex (partition-local order).
    pub ranks: Vec<f64>,
    /// Remote contribution sum per owned vertex as of the last absorb.
    pub remote_in: Vec<f64>,
}

/// One cross-partition boundary contribution `PR(s)/outdeg(s)`; the
/// vertex it lands on is its position in the batch, via the
/// [`CutPlan`].
pub type PrAsyncMsg = f64;

/// PageRank expressed for cross-iteration eager scheduling.
///
/// The local solve is a *flat* CSR kernel: dense `f64` rank arrays
/// indexed by partition-local vertex id, swept in ascending CSR order —
/// no per-pass `BTreeMap` state, no intermediate key/value
/// materialization. It replays the keyed
/// [`super::eager::PrLocalAlgorithm`] solve bitwise (same fold order,
/// same meters), which is what keeps the `max_lag = 0` byte-identity
/// contract with [`super::run_eager`] intact.
pub struct PrAsync {
    partitions: Vec<Arc<GraphPartition>>,
    cut: CutPlan,
    rule: PageRankRule,
}

impl PrAsync {
    /// Builds the session algorithm (same initial state as
    /// [`super::run_eager`]: all-ones ranks, frozen initial remote
    /// contributions).
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`PageRankConfig::validate`].
    pub fn new(graph: &CsrGraph, parts: &Partitioning, cfg: &PageRankConfig) -> Self {
        let partitions = GraphPartition::build(graph, parts);
        Self::from_views(None, partitions, parts, cfg)
    }

    /// [`PrAsync::new`] with the partition views and the cut plan built
    /// on `pool`.
    pub fn new_on(
        pool: &ThreadPool,
        graph: &CsrGraph,
        parts: &Partitioning,
        cfg: &PageRankConfig,
    ) -> Self {
        let partitions = GraphPartition::build_on(pool, graph, parts);
        Self::from_views(Some(pool), partitions, parts, cfg)
    }

    fn from_views(
        pool: Option<&ThreadPool>,
        partitions: Vec<Arc<GraphPartition>>,
        parts: &Partitioning,
        cfg: &PageRankConfig,
    ) -> Self {
        let rule = cfg.rule();
        let cut = CutPlan::build(pool, &partitions, parts);
        PrAsync { partitions, cut, rule }
    }

    /// The partition views (for scattering final states back to a
    /// global vector).
    pub fn partitions(&self) -> &[Arc<GraphPartition>] {
        &self.partitions
    }
}

impl AsyncIterative for PrAsync {
    type State = PrPartitionState;
    type Update = Vec<f64>; // converged local contribution sum per owned vertex
    type Msg = PrAsyncMsg;

    fn partitions(&self) -> usize {
        self.partitions.len()
    }

    fn dependencies(&self, p: usize) -> Dependence {
        Dependence::Sparse(self.cut.in_deps[p].clone())
    }

    fn init_state(&self, p: usize) -> PrPartitionState {
        // `run_eager`'s initial cross-edge sums under all-ones ranks:
        // producers ascending and each run in emission order is the order
        // that global sweep adds a vertex's contributions in.
        let n = self.partitions[p].len();
        let mut remote_in = vec![0.0; n];
        for (&q, landing) in self.cut.in_deps[p].iter().zip(&self.cut.in_index[p]) {
            let runs = &self.cut.runs[q];
            let run = &runs[runs.partition_point(|run| (run.dest as usize) < p)];
            let out_degree = &self.partitions[q].out_degree;
            for (&li, &t) in run.src.iter().zip(landing) {
                remote_in[t as usize] += 1.0 / out_degree[li as usize] as f64;
            }
        }
        PrPartitionState { ranks: vec![1.0; n], remote_in }
    }

    // Indexed loops are the point here: each is a dense CSR window
    // sweep whose accumulation order is the byte-identity contract with
    // the keyed path.
    #[allow(clippy::needless_range_loop)]
    fn gmap(
        &self,
        p: usize,
        _iteration: usize,
        state: &PrPartitionState,
        outbox: &mut Outbox<PrAsyncMsg>,
    ) -> GmapOutput<Vec<f64>> {
        // The same gmap the barrier engine runs — iterate the partition
        // to its local PageRank fixpoint, then emit the owner's local
        // sums plus one boundary contribution per cross edge — but as a
        // flat CSR sweep over dense rank arrays. Bitwise equal to the
        // keyed `EagerMapper<PrLocalAlgorithm>` path: the keyed lreduce
        // folds, per target, the frozen remote seed then internal
        // contributions in ascending-source emission order, which is
        // exactly this sweep's accumulation order; its keep-alive
        // Contrib(0.0) adds are bitwise no-ops (every accumuland is
        // ≥ +0.0), so skipping them changes nothing.
        let part = &self.partitions[p];
        let n = part.len();
        let m_int = part.internal.num_edges() as u64;
        // Working copy: `state` is shared history and must stay frozen.
        let mut cur = state.ranks.clone();
        let mut next = vec![0.0f64; n];
        let mut ops = 0u64;
        let mut passes = 0u64;
        for _ in 0..MAX_LOCAL_PASSES {
            next.copy_from_slice(&state.remote_in);
            part.internal.scatter(
                &mut next,
                |li, _| match part.out_degree[li] {
                    0 => None,
                    deg => Some(cur[li] / deg as f64),
                },
                |slot, c, _| *slot += c,
            );
            let mut done = true;
            for li in 0..n {
                let r = self.rule.rank(next[li]);
                if !self.rule.locally_settled(cur[li], r) {
                    done = false;
                }
                next[li] = r;
            }
            std::mem::swap(&mut cur, &mut next);
            passes += 1;
            // Per pass the keyed path meters lmap ops (1 + deg_int per
            // vertex), emitted records (keep-alive + internal
            // contributions) and lreduce ops (values.len() per key) —
            // each totalling n + m_int.
            ops += 3 * (n as u64 + m_int);
            if done {
                break;
            }
        }
        // Finalize: recover each vertex's converged local contribution
        // sum from Eq. 1, and its boundary contribution — one division
        // per vertex, in the pass buffer no longer needed.
        let mut update = Vec::with_capacity(n);
        let contrib = &mut next;
        for li in 0..n {
            let rank = cur[li];
            update.push(self.rule.local_sum(rank, state.remote_in[li]));
            // A sink has no cross edge to gather this.
            contrib[li] = rank / part.out_degree[li] as f64;
        }
        // One contribution per cross edge: each destination's batch in
        // (local id, cross-CSR) order, which is the plan's run order.
        for run in &self.cut.runs[p] {
            outbox.extend(run.dest as usize, run.src.iter().map(|&li| contrib[li as usize]));
        }
        let msg_records = part.cross_targets.len() as u64;
        GmapOutput {
            update,
            // One op per vertex plus one per boundary contribution.
            ops: ops + n as u64 + msg_records,
            local_syncs: passes,
            input_bytes: part.approx_bytes(),
            msg_records,
            msg_bytes: msg_records * PrMsg::Contrib(0.0).approx_bytes(),
        }
    }

    fn absorb(
        &self,
        p: usize,
        _iteration: usize,
        state: &PrPartitionState,
        update: Vec<f64>,
        inbox: &[(usize, &[PrAsyncMsg])],
    ) -> Absorbed<PrPartitionState> {
        // The engine's greduce, partition-sliced: remote contributions
        // accumulate in ascending source order (= the shuffle's
        // map-task order), then
        // `PR(d) = (1−χ) + χ·(local sum + remote sum)`. Bitwise the
        // same reduction tree as the barrier path.
        let n = self.partitions[p].len();
        let mut remote = vec![0.0f64; n];
        let mut msg_count = 0u64;
        let runs = &self.cut.in_index[p];
        assert_eq!(inbox.len(), runs.len(), "partition {p}: one inbox entry per dependency");
        for (&(src, batch), dst) in inbox.iter().zip(runs) {
            // Hard assert, once per batch: a batch misaligned with its
            // run would fold into the wrong vertices and converge to a
            // *wrong* fixed point, not fail.
            assert_eq!(
                batch.len(),
                dst.len(),
                "partition {p} got a batch of {} contributions from partition {src}, whose run \
                 into it has {} cut edges",
                batch.len(),
                dst.len()
            );
            for (&li, &c) in dst.iter().zip(batch) {
                remote[li as usize] += c;
            }
            msg_count += batch.len() as u64;
        }
        let mut ranks = Vec::with_capacity(n);
        let mut delta = 0.0f64;
        for li in 0..n {
            let rank = self.rule.rank(update[li] + remote[li]);
            delta = delta.max((rank - state.ranks[li]).abs());
            ranks.push(rank);
        }
        Absorbed {
            state: PrPartitionState { ranks, remote_in: remote },
            delta,
            // greduce meters values.len() per key: one local sum plus
            // every remote contribution.
            ops: n as u64 + msg_count,
        }
    }

    fn converged(&self, max_delta: f64) -> bool {
        self.rule.converged(max_delta)
    }

    fn state_bytes(&self, state: &PrPartitionState) -> u64 {
        // Owned ranks + frozen remote contributions, one f64 each —
        // what a durable checkpoint of this partition would write.
        (state.ranks.len() + state.remote_in.len()) as u64 * 8
    }
}

/// Result of an asynchronous PageRank run.
#[derive(Debug)]
pub struct PageRankAsyncOutcome {
    /// Final rank per vertex.
    pub ranks: Vec<f64>,
    /// Session scheduling/metering summary (including the recorded
    /// schedule for simulated replay).
    pub report: SessionReport,
}

/// Runs asynchronous PageRank to global convergence.
///
/// `max_lag = 0` reproduces [`super::run_eager`]'s results
/// byte-identically with an asynchronous schedule; `max_lag > 0`
/// additionally admits bounded-staleness reads of neighbor
/// contributions.
///
/// # Panics
///
/// If `cfg` fails [`PageRankConfig::validate`].
pub fn run_async(
    pool: &ThreadPool,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
    max_lag: usize,
) -> PageRankAsyncOutcome {
    let driver = AsyncFixedPointDriver::new(cfg.max_iterations).with_max_lag(max_lag);
    run_async_with_driver(pool, graph, parts, cfg, driver)
}

/// [`run_async`] under an arbitrary pre-built
/// [`AsyncFixedPointDriver`]: every session knob — injected transient
/// failures (`with_failures`), correlated node deaths with
/// checkpoint/rollback (`with_node_failures`), a
/// per-attempt span trace in [`SessionReport::trace`] (`with_trace`) —
/// is a builder method on the driver, so there is one entry point for
/// all of them.
///
/// Failure injection never changes results: failed attempts re-execute
/// on the same partition state and rollbacks restore a coordinated
/// checkpoint cut, so the converged ranks — and, at `max_lag = 0`, the
/// iteration count — are byte-identical to the failure-free run
/// (pinned by `tests/chaos_session.rs`).
///
/// The driver's `max_iterations` is taken as given; callers usually
/// seed it from [`PageRankConfig::max_iterations`].
pub fn run_async_with_driver(
    pool: &ThreadPool,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
    driver: AsyncFixedPointDriver,
) -> PageRankAsyncOutcome {
    let algo = PrAsync::new_on(pool, graph, parts, cfg);
    let outcome = driver.run(pool, &algo);
    let mut ranks = vec![0.0f64; graph.num_nodes()];
    for (part, state) in algo.partitions().iter().zip(&outcome.states) {
        for (li, &v) in part.nodes.iter().enumerate() {
            ranks[v as usize] = state.ranks[li];
        }
    }
    PageRankAsyncOutcome { ranks, report: outcome.report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::reference::pagerank_sequential;
    use crate::pagerank::{inf_norm_diff, run_eager};
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner};

    fn setup(n: usize, k: usize, seed: u64) -> (CsrGraph, Partitioning) {
        let g = generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed);
        let parts = MultilevelKWay::default().partition(&g, k);
        (g, parts)
    }

    #[test]
    fn async_matches_sequential_reference() {
        let (g, parts) = setup(400, 4, 8);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig { tolerance: 1e-7, ..Default::default() };
        let out = run_async(&pool, &g, &parts, &cfg, 0);
        let (expected, _) = pagerank_sequential(&g, cfg.damping, 1e-10, 2000);
        assert!(
            inf_norm_diff(&out.ranks, &expected) < 1e-4,
            "async PageRank fixpoint deviates: {}",
            inf_norm_diff(&out.ranks, &expected)
        );
        assert!(out.report.converged);
        assert!(out.report.local_syncs > 0, "gmap partial syncs must be metered");
    }

    #[test]
    fn lag_zero_is_bitwise_identical_to_the_barrier_eager_driver() {
        let (g, parts) = setup(600, 6, 3);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig::default();
        let asynchronous = run_async(&pool, &g, &parts, &cfg, 0);
        let mut engine = Engine::in_process(&pool);
        let barrier = run_eager(&mut engine, &g, &parts, &cfg);
        assert_eq!(
            asynchronous.report.global_iterations, barrier.report.global_iterations,
            "iteration counts must agree at max_lag = 0"
        );
        for (v, (a, b)) in asynchronous.ranks.iter().zip(&barrier.ranks).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
        }
    }

    #[test]
    fn bounded_staleness_converges_to_the_same_fixpoint() {
        let (g, parts) = setup(500, 5, 17);
        let pool = ThreadPool::new(4);
        // Tight tolerance: both runs land within ~tol/(1−χ) of the
        // unique fixpoint, so they agree to well under 1e-6.
        let cfg = PageRankConfig { tolerance: 1e-9, ..Default::default() };
        let exact = run_async(&pool, &g, &parts, &cfg, 0);
        let stale = run_async(&pool, &g, &parts, &cfg, 2);
        assert!(stale.report.converged);
        assert!(
            inf_norm_diff(&exact.ranks, &stale.ranks) < 1e-6,
            "staleness drifted the fixpoint: {}",
            inf_norm_diff(&exact.ranks, &stale.ranks)
        );
    }

    #[test]
    fn injected_failures_leave_ranks_bitwise_identical() {
        let (g, parts) = setup(500, 5, 7);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig::default();
        let clean = run_async(&pool, &g, &parts, &cfg, 0);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_failures(AttemptFailurePlan::transient(0.2), 99);
        let faulty = run_async_with_driver(&pool, &g, &parts, &cfg, driver);
        assert!(faulty.report.failed_attempts > 0, "0.2/attempt must fire");
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        for (v, (a, b)) in clean.ranks.iter().zip(&faulty.ranks).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v} diverged under failures");
        }
    }

    #[test]
    fn node_failure_rollback_leaves_ranks_bitwise_identical() {
        let (g, parts) = setup(500, 6, 13);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig::default();
        let clean = run_async(&pool, &g, &parts, &cfg, 0);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_node_failures(NodeFailurePlan::correlated(0.2, 71, 2), 3);
        let faulty = run_async_with_driver(&pool, &g, &parts, &cfg, driver);
        assert!(faulty.report.rollbacks > 0, "0.2/(node, epoch) must fire");
        assert!(faulty.report.checkpoint_bytes > 0, "checkpoints must be metered");
        assert_eq!(clean.report.global_iterations, faulty.report.global_iterations);
        assert_eq!(clean.report.gmap_tasks, faulty.report.gmap_tasks);
        for (v, (a, b)) in clean.ranks.iter().zip(&faulty.ranks).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {v} diverged under node failures");
        }
    }

    #[test]
    #[should_panic(
        expected = "partition 1 got a batch of 2 contributions from partition 0, whose run into it \
                    has 1 cut edges"
    )]
    fn absorb_rejects_a_batch_misaligned_with_its_run() {
        // 0→1→2→3→0 over {0,1} {2,3}: the one cut edge into part 1 is 1→2.
        let g = generators::cycle(4);
        let parts = asyncmr_partition::RangePartitioner.partition(&g, 2);
        let algo = PrAsync::new(&g, &parts, &PageRankConfig::default());
        let state = algo.init_state(1);
        algo.absorb(1, 0, &state, vec![0.0; 2], &[(0, &[0.5, 0.5])]);
    }

    #[test]
    fn peak_state_bytes_meters_held_history() {
        let (g, parts) = setup(400, 4, 19);
        let pool = ThreadPool::new(4);
        let out = run_async(&pool, &g, &parts, &PageRankConfig::default(), 0);
        // At minimum the four partitions' initial states (owned ranks +
        // remote contributions, 8 bytes each) are held at once.
        assert!(out.report.peak_state_bytes >= g.num_nodes() as u64 * 16);
    }

    #[test]
    fn schedule_dependencies_follow_the_partition_topology() {
        let (g, parts) = setup(300, 3, 5);
        let pool = ThreadPool::new(2);
        let out = run_async(&pool, &g, &parts, &PageRankConfig::default(), 0);
        assert_eq!(out.report.gmap_tasks, out.report.global_iterations * 3);
        assert!(out.report.schedule.iter().all(|t| t.iteration < out.report.global_iterations));
    }
}
