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
//!   self-consistent). The local state is plain `f64`s — a vertex's
//!   rank between passes, its contribution sum within one — so a fold
//!   is one add, as in a hand-written loop.
//! * **finalize**: the task emits, for every owned vertex, its
//!   converged *local contribution sum* and, for every cross edge, the
//!   boundary contribution `PR(s)/outdeg(s)` — as [`PrMsg`]s, whose tag
//!   only the global reduce needs.
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
use crate::common::{cross_edge_sums, gap, local_indices, step_status, GraphPartition};

/// `gmap` input: the partition view plus this global iteration's state
/// of its vertices, aligned with `part.nodes`.
///
/// Built once per solve, and every global iteration's greduce output is
/// written into the two slices in place, so a pass's `init` copies its
/// frozen sums contiguously instead of gathering them by global id.
#[derive(Debug, Clone)]
pub struct PrEagerInput {
    /// The partition.
    pub part: Arc<GraphPartition>,
    /// Current ranks of `part.nodes`, same order.
    pub ranks: Vec<f64>,
    /// Frozen remote contribution sums of `part.nodes`, same order:
    /// `Σ_{(s,d)∈E, s ∉ part(d)} PR(s)/outdeg(s)` as of the last global
    /// sync.
    pub remote_in: Vec<f64>,
}

/// The paper's `lmap`/`lreduce` pair for PageRank.
#[derive(Debug, Clone, Copy)]
pub struct PrLocalAlgorithm {
    /// Eq. 1, its inverse and the local fixpoint tolerance.
    pub rule: PageRankRule,
}

impl LocalAlgorithm for PrLocalAlgorithm {
    type Input = PrEagerInput;
    type Key = NodeId;
    /// A vertex's rank between passes; its contribution sum within one.
    type Value = f64;
    type Intermediate = PrMsg;

    fn init_state(&self, _task: usize, input: &PrEagerInput) -> Vec<(NodeId, f64)> {
        input.part.nodes.iter().copied().zip(input.ranks.iter().copied()).collect()
    }

    #[inline]
    fn lmap(
        &self,
        _task: usize,
        input: &PrEagerInput,
        state: &[f64],
        ctx: &mut LocalMapContext<Self>,
    ) {
        let part = &input.part;
        // Per vertex and internal edge, the sends and as many again for
        // the sums that take them in, plus a vertex's op for the
        // keep-alive the keyed pass emitted: a 0.0 to every vertex, which
        // no fold needs now that every group finishes from its `init`
        // (adding +0.0 to a sum of values ≥ +0.0 is a bitwise no-op).
        ctx.add_ops(3 * part.len() as u64 + 2 * part.internal.num_edges() as u64);
        // One contribution along every internal out-edge: the state's
        // entry `lt` is local vertex `lt`, so that is its group.
        let send = |li: usize, _: &mut [f64]| match part.out_degree[li] {
            0 => None,
            deg => Some(state[li] / deg as f64),
        };
        ctx.scatter(&part.internal, send, |contribution, _| contribution);
    }

    /// `lreduce` as a fold: each vertex's frozen remote sum, plus each
    /// contribution in emission order, through Eq. 1.
    fn init(&self, input: &PrEagerInput, sums: &mut Vec<f64>) {
        sums.extend_from_slice(&input.remote_in);
    }

    fn fold(sum: &mut f64, contribution: f64) {
        *sum += contribution;
    }

    fn finish(&self, _input: &PrEagerInput, _li: usize, old: &f64, sum: &mut f64) -> bool {
        *sum = self.rule.rank(*sum);
        self.rule.locally_settled(*old, *sum)
    }

    fn finalize(
        &self,
        _task: usize,
        input: &PrEagerInput,
        _keys: &[NodeId],
        state: &[f64],
        ctx: &mut MapContext<NodeId, PrMsg>,
    ) {
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            let rank = state[li as usize];
            // Converged local contribution sum, recovered from Eq. 1.
            let s_local = self.rule.local_sum(rank, input.remote_in[li as usize]);
            ctx.emit_intermediate(v, PrMsg::LocalSum(s_local));
            let deg = part.out_degree[li as usize];
            ctx.add_ops(1 + (deg - part.internal.degree(li)) as u64);
            if deg == 0 {
                continue;
            }
            let c = rank / deg as f64;
            for (t, _) in part.cross.edges(li) {
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
    // Each vertex's entry in its partition's slices.
    let local = local_indices(n, partitions.iter().map(|part| &part.nodes[..]));
    // Built once, from the all-ones ranks and their frozen remote
    // contributions; every iteration's greduce writes them in place.
    let mut inputs: Vec<PrEagerInput> = {
        let remote_in =
            cross_edge_sums(&partitions, n, |part, li| 1.0 / part.out_degree[li as usize] as f64);
        let input = |part: Arc<GraphPartition>| PrEagerInput {
            ranks: vec![1.0; part.len()],
            remote_in: part.nodes.iter().map(|&v| remote_in[v as usize]).collect(),
            part,
        };
        partitions.into_iter().map(input).collect()
    };
    let gmap = EagerMapper::new(PrLocalAlgorithm { rule });
    let greduce = PrEagerReducer { rule };
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        let out =
            engine.run(&format!("pagerank-eager-iter{iter}"), &inputs, &gmap, &greduce, &opts);
        let mut diff = 0.0f64;
        for (v, (rank, remote)) in out.pairs {
            let input = &mut inputs[parts.part_of(v) as usize];
            let li = local[v as usize] as usize;
            diff = diff.max(gap(rank, input.ranks[li]));
            (input.ranks[li], input.remote_in[li]) = (rank, remote);
        }
        step_status(rule.converged(diff))
    });
    // The index and the frozen sums go before the global ranks are made,
    // so the solve never holds more than a rank and a sum per vertex
    // beside the index.
    drop(local);
    inputs.iter_mut().for_each(|input| input.remote_in = Vec::new());
    let mut ranks = vec![0.0f64; n];
    for input in &inputs {
        for (&v, &rank) in input.part.nodes.iter().zip(&input.ranks) {
            ranks[v as usize] = rank;
        }
    }
    PageRankOutcome { ranks, report }
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
