//! General PageRank's bare `Contribution` records pinned to the tagged
//! [`PrMsg`] records they replaced.
//!
//! [`TaggedMapper`] and [`TaggedReducer`] are the General pair as it was
//! when its shuffle carried `PrMsg::Contrib`: the same keep-alive and
//! edge order, and a reducer that matches every value's tag. Both pairs
//! run job by job, each on an engine of its own, under one test-local
//! driver; every job must produce the same output bits and the same
//! `JobMeter`, field by field. The untagged driver must also agree with
//! [`run_general`] itself: same ranks, same iteration count, same meters.
//!
//! The graph has sinks, vertices nothing points to and vertices with no
//! edge at all; it runs under range and multilevel partitions, at 1 and
//! 16 reducers (one reducer takes the owned-pairs bucket path), with
//! sort and radix grouping.

use asyncmr_apps::pagerank::general::{PrGeneralInput, PrGeneralMapper, PrGeneralReducer};
use asyncmr_apps::pagerank::{run_general, PageRankConfig, PageRankRule, PrMsg};
use asyncmr_apps::GraphPartition;
use asyncmr_core::prelude::*;
use asyncmr_core::JobMeter;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::{MultilevelKWay, Partitioner, Partitioning, RangePartitioner};
use asyncmr_runtime::ThreadPool;

/// General's mapper as it was: every record a tagged `PrMsg::Contrib`.
#[derive(Debug, Clone, Copy, Default)]
struct TaggedMapper;

impl Mapper for TaggedMapper {
    type Input = PrGeneralInput;
    type Key = NodeId;
    type Value = PrMsg;

    fn map(&self, _task: usize, input: &PrGeneralInput, ctx: &mut MapContext<NodeId, PrMsg>) {
        ctx.meter.set_input_bytes(input.part.approx_bytes());
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            ctx.emit_intermediate(v, PrMsg::Contrib(0.0));
            let deg = part.out_degree[li as usize];
            ctx.add_ops(1 + deg as u64);
            if deg == 0 {
                continue;
            }
            let c = input.ranks[li as usize] / deg as f64;
            for (lt, _) in part.internal.edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], PrMsg::Contrib(c));
            }
            for (t, _) in part.cross.edges(li) {
                ctx.emit_intermediate(t, PrMsg::Contrib(c));
            }
        }
    }
}

/// General's reducer as it was: a `match` on every value's tag.
#[derive(Debug, Clone, Copy)]
struct TaggedReducer {
    rule: PageRankRule,
}

impl Reducer for TaggedReducer {
    type Key = NodeId;
    type ValueIn = PrMsg;
    type Out = f64;

    fn reduce(&self, key: &NodeId, values: &[PrMsg], ctx: &mut ReduceContext<NodeId, f64>) {
        let mut sum = 0.0;
        for msg in values {
            match msg {
                PrMsg::Contrib(c) => sum += c,
                PrMsg::LocalSum(s) => sum += s,
            }
        }
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, self.rule.rank(sum));
    }
}

/// One job's output, `f64`s by their bits, and its meters.
#[derive(Debug, PartialEq)]
struct Job {
    pairs: Vec<(NodeId, u64)>,
    meter: JobMeter,
}

/// `run_general`'s loop over any General pair: ranks from 1, every
/// partition's slice gathered, one job an iteration until the ∞-norm
/// step falls below the tolerance or the cap is reached.
fn solve<M, R>(
    pool: &ThreadPool,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
    mapper: &M,
    reducer: &R,
) -> (Vec<f64>, Vec<Job>)
where
    M: Mapper<Input = PrGeneralInput, Key = NodeId>,
    R: Reducer<Key = NodeId, ValueIn = M::Value, Out = f64>,
{
    let rule = cfg.rule();
    let mut engine = Engine::in_process(pool);
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);
    let mut inputs: Vec<PrGeneralInput> = GraphPartition::build(graph, parts)
        .into_iter()
        .map(|part| PrGeneralInput { part, ranks: Vec::new() })
        .collect();
    let mut ranks = vec![1.0f64; graph.num_nodes()];
    let mut jobs = Vec::new();
    for iter in 0..cfg.max_iterations {
        for input in &mut inputs {
            input.ranks = input.part.nodes.iter().map(|&v| ranks[v as usize]).collect();
        }
        let out = engine.run(&format!("general-iter{iter}"), &inputs, mapper, reducer, &opts);
        let mut delta = 0.0f64;
        for &(v, r) in &out.pairs {
            delta = delta.max((r - ranks[v as usize]).abs());
            ranks[v as usize] = r;
        }
        jobs.push(Job {
            pairs: out.pairs.iter().map(|&(v, r)| (v, r.to_bits())).collect(),
            meter: out.meter,
        });
        if rule.converged(delta) {
            break;
        }
    }
    (ranks, jobs)
}

/// 300 vertices: 0..40 have out-edges only (nothing points to them),
/// 240..280 in-edges only (sinks), 280..300 no edge at all; the rest
/// are dense enough that a vertex hears many values a job.
fn graph() -> CsrGraph {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as u32
    };
    let mut edges = Vec::new();
    for s in 0..240 {
        for _ in 0..1 + next(6) {
            edges.push((s, 40 + next(240)));
        }
    }
    CsrGraph::from_edges(300, &edges)
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|r| r.to_bits()).collect()
}

#[test]
fn bare_contributions_match_the_tagged_records_job_by_job() {
    let g = graph();
    let pool = ThreadPool::new(2);
    let partitions = [
        ("range", RangePartitioner.partition(&g, 4)),
        ("multilevel", MultilevelKWay::default().partition(&g, 4)),
    ];
    for (name, parts) in &partitions {
        for num_reducers in [1, 16] {
            for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
                let case = format!("{name}, {num_reducers} reducers, {grouping:?}");
                let cfg = PageRankConfig { num_reducers, grouping, ..Default::default() };
                let rule = cfg.rule();
                let (tagged_ranks, tagged) =
                    solve(&pool, &g, parts, &cfg, &TaggedMapper, &TaggedReducer { rule });
                let (ranks, jobs) =
                    solve(&pool, &g, parts, &cfg, &PrGeneralMapper, &PrGeneralReducer { rule });
                assert!(tagged.len() > 2 && tagged.len() < cfg.max_iterations, "{case}");
                assert_eq!(jobs.len(), tagged.len(), "{case}: iteration count");
                for (j, (job, old)) in jobs.iter().zip(&tagged).enumerate() {
                    assert_eq!(job.pairs, old.pairs, "{case}: job {j}'s ranks");
                    assert_eq!(job.meter, old.meter, "{case}: job {j}'s meters");
                }
                assert_eq!(bits(&ranks), bits(&tagged_ranks), "{case}: final ranks");

                let mut engine = Engine::in_process(&pool);
                let out = run_general(&mut engine, &g, parts, &cfg);
                assert_eq!(bits(&out.ranks), bits(&ranks), "{case}: run_general's ranks");
                assert_eq!(out.report.global_iterations, jobs.len(), "{case}: run_general");
                let meters: Vec<JobMeter> = engine.history().iter().map(|r| r.meter).collect();
                let expected: Vec<JobMeter> = jobs.iter().map(|j| j.meter).collect();
                assert_eq!(meters, expected, "{case}: run_general's meters");
            }
        }
    }
}
