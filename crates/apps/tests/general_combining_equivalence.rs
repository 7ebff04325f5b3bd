//! General PageRank's in-mapper combining pinned to the per-edge
//! mapper it replaced.
//!
//! [`PerEdgeMapper`] is General's mapper as it was before it combined:
//! a `0.0` keep-alive per owned vertex, then one record per edge. The
//! combined [`PrGeneralMapper`] must
//!
//! * emit, per map task, the per-edge pairs folded per key from `0.0`
//!   in emission order, bitwise (compared as key-sorted lists), with the
//!   per-edge mapper's input bytes and map ops;
//! * ship exactly one record per owned vertex plus one per distinct
//!   cross target of each task, every record its 4-byte key and 9-byte
//!   value, the reducer adding one op a record;
//! * solve to within 1e-12 of a driver running the per-edge mapper, in
//!   the same number of iterations, on remembered shuffle plans from
//!   the second job on;
//! * give the same ranks, iterations and meters, bit for bit, at 1, 2
//!   and 4 pool workers.
//!
//! The graph has sinks, vertices nothing points to, vertices with no
//! edge at all and partitions that send several edges into one cross
//! target; it runs under range and multilevel partitions and one with
//! an empty partition, at 1 and 16 reducers (one reducer takes the
//! owned-pairs bucket path), with sort and radix grouping.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use asyncmr_apps::pagerank::general::{PrGeneralInput, PrGeneralMapper, PrGeneralReducer};
use asyncmr_apps::pagerank::{inf_norm_diff, run_general, Contribution, PageRankConfig};
use asyncmr_apps::GraphPartition;
use asyncmr_core::prelude::*;
use asyncmr_core::{JobMeter, TaskMeter};
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::{MultilevelKWay, Partitioner, Partitioning, RangePartitioner};
use asyncmr_runtime::ThreadPool;

/// Bytes one shuffle record is metered at: its `u32` key and the
/// 9-byte wire `Contribution`.
const RECORD_BYTES: u64 = 4 + 9;

/// General's mapper before it combined: a keep-alive per owned vertex,
/// then a record per out-edge, internal ones first.
#[derive(Debug, Clone, Copy, Default)]
struct PerEdgeMapper;

impl Mapper for PerEdgeMapper {
    type Input = PrGeneralInput;
    type Key = NodeId;
    type Value = Contribution;

    fn map(&self, _: usize, input: &PrGeneralInput, ctx: &mut MapContext<NodeId, Contribution>) {
        ctx.meter.set_input_bytes(input.part.approx_bytes());
        let part = &input.part;
        for &li in &part.local_ids {
            let v = part.nodes[li as usize];
            ctx.emit_intermediate(v, Contribution(0.0));
            let deg = part.out_degree[li as usize];
            ctx.add_ops(1 + deg as u64);
            if deg == 0 {
                continue;
            }
            let c = input.ranks[li as usize] / deg as f64;
            for (lt, _) in part.internal.edges(li) {
                ctx.emit_intermediate(part.nodes[lt as usize], Contribution(c));
            }
            for (t, _) in part.cross.edges(li) {
                ctx.emit_intermediate(t, Contribution(c));
            }
        }
    }
}

/// One task's emissions outside an engine: pairs with the values'
/// bits, the meter, the record and byte counts.
fn map_task<M>(
    mapper: &M,
    task: usize,
    input: &PrGeneralInput,
) -> (Vec<(NodeId, u64)>, TaskMeter, u64, u64)
where
    M: Mapper<Input = PrGeneralInput, Key = NodeId, Value = Contribution>,
{
    let mut ctx = MapContext::default();
    mapper.map(task, input, &mut ctx);
    let (pairs, meter, records, bytes) = ctx.finish();
    (pairs.into_iter().map(|(k, c)| (k, c.0.to_bits())).collect(), meter, records, bytes)
}

/// The distinct targets of `part`'s cross edges.
fn cut_targets(part: &GraphPartition) -> BTreeSet<NodeId> {
    part.local_ids.iter().flat_map(|&li| part.cross.edges(li)).map(|(t, _)| t).collect()
}

/// `run_general`'s loop over any General mapper: ranks from 1, every
/// partition's slice gathered, one job an iteration until the ∞-norm
/// step falls below the tolerance or the cap is reached. Returns the
/// ranks and every job's meters.
fn solve<M>(
    pool: &ThreadPool,
    graph: &CsrGraph,
    parts: &Partitioning,
    cfg: &PageRankConfig,
    mapper: &M,
) -> (Vec<f64>, Vec<JobMeter>)
where
    M: Mapper<Input = PrGeneralInput, Key = NodeId, Value = Contribution>,
{
    let rule = cfg.rule();
    let mut engine = Engine::in_process(pool);
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_grouping(cfg.grouping);
    let mut inputs: Vec<PrGeneralInput> =
        GraphPartition::build(graph, parts).into_iter().map(PrGeneralInput::new).collect();
    let reducer = PrGeneralReducer { rule };
    let mut ranks = vec![1.0f64; graph.num_nodes()];
    let mut meters = Vec::new();
    for iter in 0..cfg.max_iterations {
        for input in &mut inputs {
            input.ranks = input.part.nodes.iter().map(|&v| ranks[v as usize]).collect();
        }
        let out = engine.run(&format!("general-iter{iter}"), &inputs, mapper, &reducer, &opts);
        let mut delta = 0.0f64;
        for &(v, r) in &out.pairs {
            delta = delta.max((r - ranks[v as usize]).abs());
            ranks[v as usize] = r;
        }
        meters.push(out.meter);
        if rule.converged(delta) {
            break;
        }
    }
    (ranks, meters)
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

/// Range and multilevel partitions into 4, and a 5-way split whose
/// partition 2 owns nothing.
fn partitionings(g: &CsrGraph) -> Vec<(&'static str, Partitioning)> {
    let gapped = (0..g.num_nodes()).map(|v| [0, 1, 3, 4][v % 4]).collect();
    vec![
        ("range", RangePartitioner.partition(g, 4)),
        ("multilevel", MultilevelKWay::default().partition(g, 4)),
        ("empty partition", Partitioning::new(gapped, 5)),
    ]
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|r| r.to_bits()).collect()
}

#[test]
fn the_inputs_hold_every_case_the_combining_must_cover() {
    let g = graph();
    for (name, parts) in &partitionings(&g) {
        let views = GraphPartition::build(&g, parts);
        let repeated = |p: &Arc<GraphPartition>| p.cross.num_edges() > cut_targets(p).len();
        assert!(views.iter().any(repeated), "{name}: a task sends two edges into one target");
        assert_eq!(views.iter().any(|p| p.is_empty()), *name == "empty partition", "{name}");
    }
    assert!((240..280).all(|v| g.out_degree(v) == 0), "sinks");
    assert!((280..300).all(|v| g.out_degree(v) == 0), "isolated");
    let reached: BTreeSet<NodeId> = (0..300).flat_map(|v| g.out_neighbors(v).to_vec()).collect();
    assert!((0..40).chain(280..300).all(|v| !reached.contains(&v)), "unreferenced");
}

#[test]
fn combined_records_are_the_per_edge_pairs_folded_per_key() {
    let g = graph();
    // The first job's ranks, and uneven ones as mid-solve.
    let uneven: Vec<f64> = (0..300).map(|v| 0.15 + (v * 37 % 101) as f64 / 7.0).collect();
    for (name, parts) in &partitionings(&g) {
        for ranks in [vec![1.0; 300], uneven.clone()] {
            for (task, part) in GraphPartition::build(&g, parts).into_iter().enumerate() {
                let mut input = PrGeneralInput::new(part);
                input.ranks = input.part.nodes.iter().map(|&v| ranks[v as usize]).collect();
                let (mut combined, meter, records, bytes) =
                    map_task(&PrGeneralMapper, task, &input);
                let (per_edge, edge_meter, _, _) = map_task(&PerEdgeMapper, task, &input);

                let mut folded = BTreeMap::new();
                for (k, c) in per_edge {
                    let sum: &mut f64 = folded.entry(k).or_insert(0.0);
                    *sum += f64::from_bits(c);
                }
                let folded: Vec<(NodeId, u64)> =
                    folded.into_iter().map(|(k, s)| (k, s.to_bits())).collect();
                combined.sort_by_key(|&(k, _)| k);
                assert_eq!(combined, folded, "{name}, task {task}: combined records");

                let cut = cut_targets(&input.part).len() as u64;
                assert_eq!(records, input.part.len() as u64 + cut, "{name}, task {task}: records");
                assert_eq!(bytes, RECORD_BYTES * records, "{name}, task {task}: bytes");
                assert_eq!(meter.ops(), edge_meter.ops(), "{name}, task {task}: map ops");
                assert_eq!(meter.input_bytes(), edge_meter.input_bytes(), "{name}, task {task}");
            }
        }
    }
}

#[test]
fn run_general_solves_as_the_per_edge_driver_with_one_record_per_target() {
    let g = graph();
    let pool = ThreadPool::new(2);
    for (name, parts) in &partitionings(&g) {
        let records: u64 = GraphPartition::build(&g, parts)
            .iter()
            .map(|p| (p.len() + cut_targets(p).len()) as u64)
            .sum();
        for num_reducers in [1, 16] {
            for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
                let case = format!("{name}, {num_reducers} reducers, {grouping:?}");
                let cfg = PageRankConfig { num_reducers, grouping, ..Default::default() };
                let (per_edge_ranks, per_edge) = solve(&pool, &g, parts, &cfg, &PerEdgeMapper);
                assert!(per_edge.len() > 2 && per_edge.len() < cfg.max_iterations, "{case}");

                let mut engine = Engine::in_process(&pool);
                let out = run_general(&mut engine, &g, parts, &cfg);
                assert_eq!(out.report.global_iterations, per_edge.len(), "{case}: iterations");
                let err = inf_norm_diff(&out.ranks, &per_edge_ranks);
                assert!(err <= 1e-12, "{case}: ranks {err:e} from the per-edge driver's");

                for (j, (job, old)) in engine.history().iter().zip(&per_edge).enumerate() {
                    let expected = JobMeter {
                        shuffle_records: records,
                        shuffle_bytes: RECORD_BYTES * records,
                        reduce_ops: records,
                        ..*old
                    };
                    assert_eq!(job.meter, expected, "{case}: job {j}'s meters");
                    if j > 0 {
                        let reuse = job.reuse;
                        assert_eq!(reuse.route.misses + reuse.group.misses, 0, "{case}: job {j}");
                    }
                }
                // The combined mapper's meters do not depend on the driver.
                let (_, combined) = solve(&pool, &g, parts, &cfg, &PrGeneralMapper);
                let meters: Vec<JobMeter> = engine.history().iter().map(|r| r.meter).collect();
                assert_eq!(meters, combined, "{case}: run_general vs the test driver");
            }
        }
    }
}

#[test]
fn run_general_is_bitwise_the_same_at_1_2_and_4_workers() {
    let g = graph();
    for (name, parts) in &partitionings(&g) {
        for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
            let cfg = PageRankConfig { grouping, ..Default::default() };
            let runs: Vec<_> = [1, 2, 4]
                .into_iter()
                .map(|workers| {
                    let pool = ThreadPool::new(workers);
                    let mut engine = Engine::in_process(&pool);
                    let out = run_general(&mut engine, &g, parts, &cfg);
                    let meters: Vec<JobMeter> = engine.history().iter().map(|r| r.meter).collect();
                    (bits(&out.ranks), out.report.global_iterations, meters)
                })
                .collect();
            for (workers, run) in [2, 4].into_iter().zip(&runs[1..]) {
                assert_eq!(run, &runs[0], "{name}, {grouping:?}: {workers} workers vs 1");
            }
        }
    }
}
