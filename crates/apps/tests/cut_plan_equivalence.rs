//! Property tests pinning the static cut machinery of `apps::common`
//! to references that resolve nothing ahead of time:
//!
//! * [`GraphPartition::build`] and its pool-parallel `_on` variants
//!   must equal, field for field, the hash-map-per-partition loop they
//!   replaced (kept here as the oracle);
//! * a [`CutPlan`] must be exactly the cross CSR of every producer with
//!   owner and local index applied, stably grouped by destination — so
//!   each destination's batch keeps the `(source-local id, cross-CSR)`
//!   emission order the lag-0 bitwise contract rests on — with every
//!   run filed under the slot the session's topology gives its
//!   producer (its index in the consumer's ascending dependency list);
//! * [`Outbox::extend`] must stage what repeated [`Outbox::push`]
//!   stages.
//!
//! Every input carries the adversarial shapes at once: self loops,
//! multi-edges, a sink (zero out-degree) that is a cross target, a
//! partition with no cut edge in either direction, and empty
//! partitions.

use std::collections::HashMap;
use std::sync::Arc;

use asyncmr_apps::common::{CutPlan, GraphPartition};
use asyncmr_core::csr::LocalCsr;
use asyncmr_core::Outbox;
use asyncmr_graph::{CsrGraph, NodeId, WeightedGraph};
use asyncmr_partition::{
    HashPartitioner, MultilevelKWay, Partitioner, Partitioning, RangePartitioner,
};
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// `main` connected vertices (`picks` folded into range, plus a self
/// loop and a doubled edge), then one sink fed from vertex 0, then an
/// `island`-vertex ring nothing else touches. `k` parts over the
/// connected vertices by partitioner `which`; the island is part `k`
/// and part `k + 1` owns nothing.
fn adversarial(
    main: usize,
    island: usize,
    picks: &[(u32, u32)],
    k: usize,
    which: u8,
) -> (CsrGraph, Partitioning) {
    let (sink, n) = (main as NodeId, main + 1 + island);
    let mut edges: Vec<(NodeId, NodeId)> =
        picks.iter().map(|&(u, v)| (u % main as u32, v % main as u32)).collect();
    edges.extend([(0, 0), (0, sink), (0, sink)]);
    edges.extend(edges.first().copied());
    for i in 0..island {
        edges.push(((main + 1 + i) as NodeId, (main + 1 + (i + 1) % island) as NodeId));
    }
    let g = CsrGraph::from_edges(n, &edges);
    let base = match which % 3 {
        0 => HashPartitioner.partition(&g, k),
        1 => RangePartitioner.partition(&g, k),
        _ => MultilevelKWay::default().partition(&g, k),
    };
    let mut assignment = base.assignment().to_vec();
    assignment[main + 1..].fill(k as u32);
    (g, Partitioning::new(assignment, k + 2))
}

/// The build this PR replaced: one hash map per partition decides
/// internal vs cross. Weights are kept only for a weighted graph.
fn reference_build(
    g: &CsrGraph,
    weights: Option<&[f64]>,
    parts: &Partitioning,
) -> Vec<GraphPartition> {
    let mut out = Vec::new();
    for (p, nodes) in parts.members().into_iter().enumerate() {
        let local_index: HashMap<NodeId, u32> =
            nodes.iter().enumerate().map(|(li, &v)| (v, li as u32)).collect();
        let (mut internal_offsets, mut internal_targets, mut internal_weights) =
            (vec![0], Vec::new(), Vec::new());
        let (mut cut_offsets, mut cut_targets, mut cut_weights) = (vec![0], Vec::new(), Vec::new());
        let mut out_degree = Vec::new();
        for &v in &nodes {
            let range = g.edge_range(v);
            for (idx, &t) in g.out_neighbors(v).iter().enumerate() {
                let w = weights.map(|ws| ws[range.start + idx]);
                match local_index.get(&t) {
                    Some(&lt) => {
                        internal_targets.push(lt);
                        internal_weights.extend(w);
                    }
                    None => {
                        cut_targets.push(t);
                        cut_weights.extend(w);
                    }
                }
            }
            internal_offsets.push(internal_targets.len() as u32);
            cut_offsets.push(cut_targets.len() as u32);
            out_degree.push(g.out_degree(v));
        }
        out.push(GraphPartition {
            part: p as u32,
            local_ids: (0..nodes.len() as u32).collect(),
            internal: LocalCsr::new(
                nodes.len(),
                nodes.len(),
                internal_offsets,
                internal_targets,
                internal_weights,
            ),
            cross: LocalCsr::new(nodes.len(), g.num_nodes(), cut_offsets, cut_targets, cut_weights),
            nodes,
            out_degree,
        });
    }
    out
}

fn owned(views: &[Arc<GraphPartition>]) -> Vec<GraphPartition> {
    views.iter().map(|v| GraphPartition::clone(v)).collect()
}

/// One cut edge as a run lists it: `(source-local, destination-local,
/// weight bits)`.
type CutEdge = (u32, u32, Option<u64>);

/// Per `(producer, destination)`: the producer's cross CSR in order,
/// owner and local index applied by search. Each vertex's cross edges
/// must be its out-edges in `g` that leave its partition, in order and
/// with their weights in `weights` (1.0 each for an unweighted graph).
fn reference_cut(
    g: &CsrGraph,
    weights: Option<&[f64]>,
    views: &[Arc<GraphPartition>],
    parts: &Partitioning,
) -> HashMap<(usize, usize), Vec<CutEdge>> {
    let mut cut: HashMap<(usize, usize), Vec<CutEdge>> = HashMap::new();
    for (q, view) in views.iter().enumerate() {
        for &li in &view.local_ids {
            let v = view.nodes[li as usize];
            let at = g.edge_range(v).start;
            let leaving: Vec<(NodeId, u64)> = (g.out_neighbors(v).iter().enumerate())
                .filter(|&(_, &t)| parts.part_of(t) as usize != q)
                .map(|(idx, &t)| (t, weights.map_or(1.0, |ws| ws[at + idx]).to_bits()))
                .collect();
            let yielded: Vec<(NodeId, u64)> =
                view.cross.edges(li).map(|(t, w)| (t, w.to_bits())).collect();
            assert_eq!(yielded, leaving, "cross.edges yields the stored edges and weights");
            for (t, w) in yielded {
                let dest = parts.part_of(t) as usize;
                let lt = views[dest].nodes.iter().position(|&v| v == t).expect("owner lists it");
                let w = view.cross.is_weighted().then_some(w);
                cut.entry((q, dest)).or_default().push((li, lt as u32, w));
            }
        }
    }
    cut
}

fn check_plan(
    g: &CsrGraph,
    weights: Option<&[f64]>,
    views: &[Arc<GraphPartition>],
    parts: &Partitioning,
) {
    let plan = CutPlan::build(None, views, parts);
    let mut expected = reference_cut(g, weights, views, parts);
    let k = views.len();

    let mut cut_edges = 0;
    for (q, runs) in plan.runs.iter().enumerate() {
        assert!(runs.windows(2).all(|w| w[0].dest < w[1].dest), "producer {q}: ascending dests");
        for run in runs {
            let (dest, slot) = (run.dest as usize, run.slot as usize);
            assert_ne!(dest, q, "an edge inside a partition is internal");
            assert_eq!(plan.in_deps[dest][slot], q, "slot = index in the consumer's deps");
            let dst = plan.landing(run);
            assert_eq!(dst, &plan.in_index[dest][slot][..]);
            assert_eq!(dst.len(), run.src.len());
            assert!(run.weights.is_empty() || run.weights.len() == run.src.len());
            let listed: Vec<CutEdge> = (0..run.src.len())
                .map(|j| (run.src[j], dst[j], run.weights.get(j).map(|w| w.to_bits())))
                .collect();
            let want = expected.remove(&(q, dest)).expect("a run has at least one cut edge");
            assert_eq!(listed, want, "run {q} → {dest}");
            cut_edges += listed.len();
        }
    }
    assert!(expected.is_empty(), "cut edges without a run: {:?}", expected.keys());
    assert_eq!(cut_edges, parts.edge_cut(g));

    // `in_deps` is what the session's topology normalises to: ascending,
    // self excluded, exactly the producers with a run — and one index
    // list per dependency slot.
    for p in 0..k {
        let producers: Vec<usize> =
            (0..k).filter(|&q| plan.runs[q].iter().any(|run| run.dest as usize == p)).collect();
        assert_eq!(plan.in_deps[p], producers, "consumer {p}");
        assert_eq!(plan.in_index[p].len(), producers.len());
    }
    assert!(plan.runs[k - 2].is_empty() && plan.in_deps[k - 2].is_empty(), "the island has no cut");
    assert!(!views[k - 2].is_empty() && views[k - 1].is_empty());

    for workers in [1, 2, 4] {
        let pool = ThreadPool::new(workers);
        assert_eq!(CutPlan::build(Some(&pool), views, parts), plan, "{workers} workers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) + (b), unweighted.
    #[test]
    fn unweighted_views_and_plan_match_the_references(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..7,
        which in any::<u8>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let want = reference_build(&g, None, &parts);
        let views = GraphPartition::build(&g, &parts);
        prop_assert_eq!(&owned(&views), &want);
        prop_assert!(views.iter().all(|v| !v.cross.is_weighted()));
        for view in &views {
            for &li in &view.local_ids {
                prop_assert!(view.internal.edges(li).chain(view.cross.edges(li)).all(|(_, w)| w == 1.0));
                let degree = view.internal.edges(li).count() + view.cross.edges(li).count();
                prop_assert_eq!(degree as u32, view.out_degree[li as usize]);
            }
        }
        for workers in [1, 2, 4] {
            let pool = ThreadPool::new(workers);
            prop_assert_eq!(&owned(&GraphPartition::build_on(&pool, &g, &parts)), &want);
        }
        check_plan(&g, None, &views, &parts);
    }

    /// (a) + (b), weighted.
    #[test]
    fn weighted_views_and_plan_match_the_references(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..7,
        which in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let wg = WeightedGraph::random_weights(g, 1.0, 9.0, seed);
        let want = reference_build(wg.graph(), Some(wg.weights()), &parts);
        let views = GraphPartition::build_weighted(&wg, &parts);
        prop_assert_eq!(&owned(&views), &want);
        for workers in [1, 2, 4] {
            let pool = ThreadPool::new(workers);
            prop_assert_eq!(&owned(&GraphPartition::build_weighted_on(&pool, &wg, &parts)), &want);
        }
        check_plan(wg.graph(), Some(wg.weights()), &views, &parts);
    }

    /// (c) `extend` stages what repeated `push` stages, run after run.
    #[test]
    fn outbox_extend_is_repeated_push(
        slots in 1usize..6,
        runs in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u32>(), 0..5)),
            0..12,
        ),
    ) {
        let mut pushed: Outbox<u32> = Outbox::new(slots);
        let mut extended: Outbox<u32> = Outbox::new(slots);
        for (dest, msgs) in &runs {
            let dest = *dest as usize % slots;
            msgs.iter().for_each(|&m| pushed.push(dest, m));
            extended.extend(dest, msgs.iter().copied());
        }
        for dest in 0..slots {
            prop_assert_eq!(extended.batch(dest), pushed.batch(dest));
        }
    }
}
