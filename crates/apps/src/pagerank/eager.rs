//! Eager PageRank — partial synchronization + eager scheduling (§V-B2).
//!
//! Each `gmap` task receives a partition and, per the paper, "instead
//! of waiting for all the other global map tasks ... we eagerly
//! schedule the next local map and local reduce iterations on the
//! individual sub-graph inside a single global map task":
//!
//! * **local iterations** (`lmap`/`lreduce`): vertices push
//!   contributions along *internal* edges only; remote in-neighbor
//!   contributions stay frozen at their last globally synchronized
//!   values. Iterates to a local fixpoint (the sub-graph's ranks become
//!   self-consistent).
//! * **finalize**: the task emits, for every owned vertex, its
//!   converged *local contribution sum* and, for every cross edge, the
//!   boundary contribution `PR(s)/outdeg(s)`.
//! * **greduce**: `PR(d) = (1−χ) + χ·(local sum + Σ remote
//!   contributions)` — "the local reduce and global reduce functions
//!   are functionally identical" (§V-B2).
//!
//! Numerically this is block-Jacobi with exact inner solves: more
//! serial operations, far fewer global synchronizations.

use std::sync::Arc;

use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;

use super::{PageRankConfig, PageRankOutcome, PageRankRule, PrMsg};
use crate::common::{cross_edge_sums, step_status, GraphPartition};

/// `gmap` input: the partition view plus this global iteration's state.
///
/// The state vectors are *global* (indexed by vertex id) and shared
/// across all partition inputs via `Arc`, so building one iteration's
/// inputs is O(k) pointer bumps rather than O(n) copies; each task
/// reads only its owned slots.
#[derive(Debug, Clone)]
pub struct PrEagerInput {
    /// The partition.
    pub part: Arc<GraphPartition>,
    /// Current ranks, indexed by global vertex id, shared read-only.
    pub ranks: Arc<Vec<f64>>,
    /// Frozen remote contribution sum, indexed by global vertex id:
    /// `Σ_{(s,d)∈E, s ∉ part(d)} PR(s)/outdeg(s)` as of the last
    /// global sync. Shared read-only.
    pub remote_in: Arc<Vec<f64>>,
}

/// The paper's `lmap`/`lreduce` pair for PageRank.
#[derive(Debug, Clone, Copy)]
pub struct PrLocalAlgorithm {
    /// Eq. 1, its inverse and the local fixpoint tolerance.
    pub rule: PageRankRule,
}

impl LocalAlgorithm for PrLocalAlgorithm {
    type Input = PrEagerInput;
    type Item = u32; // local vertex index
    type Key = NodeId;
    type Value = PrMsg;

    fn items<'a>(&self, input: &'a PrEagerInput) -> &'a [u32] {
        &input.part.local_ids
    }

    fn init_state(&self, _task: usize, input: &PrEagerInput) -> Vec<(NodeId, PrMsg)> {
        input
            .part
            .nodes
            .iter()
            .map(|&v| (v, PrMsg::Contrib(input.ranks[v as usize]))) // state stores ranks
            .collect()
    }

    fn emission_keys(&self, _task: usize, input: &PrEagerInput) -> Option<Vec<NodeId>> {
        Some(input.part.emission_keys())
    }

    fn lmap(
        &self,
        _task: usize,
        input: &PrEagerInput,
        item: &u32,
        state: &LocalState<NodeId, PrMsg>,
        ctx: &mut LocalMapContext<NodeId, PrMsg>,
    ) {
        let li = *item;
        let part = &input.part;
        let rank = match state.get(&part.nodes[li as usize]) {
            Some(PrMsg::Contrib(r)) => *r,
            _ => unreachable!("state always holds the vertex rank"),
        };
        // Keep-alive: every owned vertex must survive the lreduce.
        ctx.emit_value(PrMsg::Contrib(0.0));
        let deg = part.out_degree[li as usize];
        let internal = part.internal_degree(li);
        ctx.add_ops(1 + internal as u64);
        if deg == 0 {
            return;
        }
        // One contribution per internal out-edge, under the keys the
        // partition declared.
        let c = rank / deg as f64;
        for _ in 0..internal {
            ctx.emit_value(PrMsg::Contrib(c));
        }
    }

    fn lreduce(
        &self,
        _task: usize,
        input: &PrEagerInput,
        key: &NodeId,
        values: &[PrMsg],
        ctx: &mut LocalReduceContext<NodeId, PrMsg>,
    ) {
        let mut sum = input.remote_in[*key as usize];
        for msg in values {
            if let PrMsg::Contrib(c) = msg {
                sum += c;
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit_local(*key, PrMsg::Contrib(self.rule.rank(sum)));
    }

    fn locally_converged(
        &self,
        old: &LocalState<NodeId, PrMsg>,
        new: &LocalState<NodeId, PrMsg>,
    ) -> bool {
        old.iter().all(|(k, v)| {
            let (PrMsg::Contrib(a), Some(PrMsg::Contrib(b))) = (v, new.get(k)) else {
                return false;
            };
            self.rule.locally_settled(*a, *b)
        })
    }

    fn finalize(
        &self,
        _task: usize,
        input: &PrEagerInput,
        state: &LocalState<NodeId, PrMsg>,
        ctx: &mut MapContext<NodeId, PrMsg>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let rank = match state.get(&v) {
                Some(PrMsg::Contrib(r)) => *r,
                _ => unreachable!("owned vertices always in state"),
            };
            // Converged local contribution sum, recovered from Eq. 1.
            let s_local = self.rule.local_sum(rank, input.remote_in[v as usize]);
            ctx.emit_intermediate(v, PrMsg::LocalSum(s_local));
            let deg = part.out_degree[li as usize];
            ctx.add_ops(1 + (deg - part.internal_degree(li)) as u64);
            if deg == 0 {
                continue;
            }
            let c = rank / deg as f64;
            for (t, _) in part.cross_edges(li) {
                ctx.emit_intermediate(t, PrMsg::Contrib(c));
            }
        }
    }

    fn input_bytes(&self, _task: usize, input: &PrEagerInput) -> Option<u64> {
        Some(input.part.approx_bytes())
    }
}

/// The `greduce`: functionally identical to `lreduce` (paper §V-B2),
/// but summing the owner's local sum with *remote* boundary
/// contributions. Emits `(rank, remote_sum)` so the driver can refresh
/// each partition's frozen `remote_in` for the next global iteration.
#[derive(Debug, Clone, Copy)]
pub struct PrEagerReducer {
    /// Eq. 1 for the run's configuration.
    pub rule: PageRankRule,
}

impl Reducer for PrEagerReducer {
    type Key = NodeId;
    type ValueIn = PrMsg;
    type Out = (f64, f64);

    fn reduce(&self, key: &NodeId, values: &[PrMsg], ctx: &mut ReduceContext<NodeId, (f64, f64)>) {
        let mut local_sum = 0.0;
        let mut remote_sum = 0.0;
        for msg in values {
            match msg {
                PrMsg::LocalSum(s) => local_sum += s,
                PrMsg::Contrib(c) => remote_sum += c,
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, (self.rule.rank(local_sum + remote_sum), remote_sum));
    }
}

/// Runs Eager PageRank to global convergence on `engine`.
pub fn run_eager(
    engine: &mut Engine<'_>,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
) -> PageRankOutcome {
    let rule = cfg.rule();
    let partitions = GraphPartition::build_on(engine.pool(), graph, parts);
    let n = graph.num_nodes();
    // Frozen remote contributions under the initial all-ones ranks.
    let mut remote_in = Arc::new(cross_edge_sums(&partitions, n, |part, li| {
        1.0 / part.out_degree[li as usize] as f64
    }));
    let mut ranks = Arc::new(vec![1.0f64; n]);
    let gmap = EagerMapper::new(PrLocalAlgorithm { rule });
    let greduce = PrEagerReducer { rule };
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        let inputs: Vec<PrEagerInput> = partitions
            .iter()
            .map(|part| PrEagerInput {
                part: Arc::clone(part),
                ranks: Arc::clone(&ranks),
                remote_in: Arc::clone(&remote_in),
            })
            .collect();
        let out =
            engine.run(&format!("pagerank-eager-iter{iter}"), &inputs, &gmap, &greduce, &opts);
        // Dropping the inputs makes the state vectors unique again, so
        // the refresh below mutates in place instead of copying.
        drop(inputs);
        let cur_ranks = Arc::make_mut(&mut ranks);
        let cur_remote = Arc::make_mut(&mut remote_in);
        let mut diff = 0.0f64;
        for (v, (rank, remote)) in out.pairs {
            diff = diff.max((rank - cur_ranks[v as usize]).abs());
            cur_ranks[v as usize] = rank;
            cur_remote[v as usize] = remote;
        }
        step_status(rule.converged(diff))
    });
    PageRankOutcome { ranks: Arc::try_unwrap(ranks).unwrap_or_else(|a| (*a).clone()), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::inf_norm_diff;
    use crate::pagerank::reference::pagerank_sequential;
    use crate::pagerank::run_general;
    use asyncmr_graph::generators;
    use asyncmr_partition::{MultilevelKWay, Partitioner, RangePartitioner};
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_sequential_reference() {
        let g = generators::preferential_attachment(400, 3, 1, 1, 8);
        let parts = MultilevelKWay::default().partition(&g, 4);
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let cfg = PageRankConfig { tolerance: 1e-7, ..Default::default() };
        let out = run_eager(&mut engine, &g, &parts, &cfg);
        let (expected, _) = pagerank_sequential(&g, cfg.damping, 1e-10, 2000);
        assert!(
            inf_norm_diff(&out.ranks, &expected) < 1e-4,
            "eager PageRank fixpoint deviates: {}",
            inf_norm_diff(&out.ranks, &expected)
        );
        assert!(out.report.converged);
    }

    #[test]
    fn fewer_global_iterations_than_general() {
        // Crawl-locality graph: the paper's premise ("inter-component
        // edges are relatively fewer", §V-B2). Without community
        // structure there is nothing for partial synchronization to
        // exploit and the comparison is meaningless.
        let g = generators::preferential_attachment_crawled(600, 3, 1, 1, 0.95, 40, 5);
        let parts = MultilevelKWay::default().partition(&g, 4);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig::default();
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &g, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = run_general(&mut e2, &g, &parts, &cfg);
        assert!(
            eager.report.global_iterations < general.report.global_iterations,
            "eager {} vs general {} global iterations",
            eager.report.global_iterations,
            general.report.global_iterations
        );
        // And it pays with partial syncs + extra serial ops (the
        // paper's tradeoff).
        assert!(eager.report.local_syncs > 0);
    }

    #[test]
    fn eager_and_general_agree_on_ranks() {
        let g = generators::preferential_attachment(500, 3, 1, 1, 13);
        let parts = RangePartitioner.partition(&g, 5);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &g, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = run_general(&mut e2, &g, &parts, &cfg);
        assert!(
            inf_norm_diff(&eager.ranks, &general.ranks) < 1e-4,
            "variants disagree: {}",
            inf_norm_diff(&eager.ranks, &general.ranks)
        );
    }

    #[test]
    fn single_partition_converges_in_one_global_iteration_plus_check() {
        // k = 1: "the entire graph is given to one global map and its
        // local MapReduce would compute the final PageRanks" (§V-B4).
        let g = generators::preferential_attachment(300, 3, 1, 1, 6);
        let parts = RangePartitioner.partition(&g, 1);
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &g, &parts, &PageRankConfig::default());
        assert!(
            out.report.global_iterations <= 2,
            "one partition should converge almost immediately, took {}",
            out.report.global_iterations
        );
    }

    #[test]
    fn singleton_partitions_degenerate_to_general() {
        // Partition size 1 ⇒ "Eager PageRank becomes General PageRank"
        // (§V-B4): same global iteration count.
        let g = generators::preferential_attachment(120, 2, 1, 1, 3);
        let n = g.num_nodes();
        let parts = RangePartitioner.partition(&g, n);
        let pool = ThreadPool::new(4);
        let cfg = PageRankConfig::default();
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager(&mut e1, &g, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = run_general(&mut e2, &g, &parts, &cfg);
        let diff = eager.report.global_iterations.abs_diff(general.report.global_iterations);
        assert!(
            diff <= 2,
            "degenerate eager ({}) should track general ({})",
            eager.report.global_iterations,
            general.report.global_iterations
        );
    }
}
