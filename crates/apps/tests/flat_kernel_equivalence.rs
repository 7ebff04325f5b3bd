//! The flat session kernels' local passes scatter through
//! `LocalCsr::scatter`, which indexes the internal CSR and the pass
//! buffer without a bounds check per edge. These properties pin
//! `PrAsync::gmap` and `SpAsync::gmap` bitwise to the bounds-checked
//! loops that scatter replaced (kept here as references, reading the
//! CSR through `LocalCsr::edges`): the update, every
//! meter of the `GmapOutput`, and every outbox batch, compared by
//! `to_bits` — from the initial states and from mid-solve states, on
//! graphs with self loops, multi-edges, a sink, one-vertex, cut-free and
//! empty partitions. Run them in release too: that is where the
//! unchecked path runs as a benchmark runs it.
//!
//! On the same graphs, `PrAsync::init_state` and `SpAsync::init_state`,
//! which derive a partition's initial state on demand, are pinned
//! bitwise to the construction that built every initial state up front
//! (kept here as the oracle).

use std::sync::Arc;

use asyncmr_apps::common::{CutPlan, CutRun, GraphPartition};
use asyncmr_apps::pagerank::session::{PrAsync, PrPartitionState};
use asyncmr_apps::pagerank::PageRankConfig;
use asyncmr_apps::sssp::session::SpAsync;
use asyncmr_apps::sssp::SsspConfig;
use asyncmr_core::local::DEFAULT_MAX_LOCAL_ITERATIONS;
use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId, WeightedGraph};
use asyncmr_partition::{
    HashPartitioner, MultilevelKWay, Partitioner, Partitioning, RangePartitioner,
};
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// `main` vertices joined by `picks` (folded into range) plus a self
/// loop and a doubled edge at vertex 0; a sink fed twice from vertex 0;
/// a `solo` vertex with a self loop and edges to and from vertex 0; and
/// an `island`-vertex ring nothing else touches. `k` parts over the
/// main vertices by partitioner `which`, then the sink and `solo` in
/// one-vertex parts of their own, the island in a cut-free part, and a
/// last part that owns nothing.
fn adversarial(
    main: usize,
    island: usize,
    picks: &[(u32, u32)],
    k: usize,
    which: u8,
) -> (CsrGraph, Partitioning) {
    let (sink, solo, n) = (main as NodeId, main as NodeId + 1, main + 2 + island);
    let mut edges: Vec<(NodeId, NodeId)> =
        picks.iter().map(|&(u, v)| (u % main as u32, v % main as u32)).collect();
    edges.extend([(0, 0), (0, sink), (0, sink), (solo, solo), (solo, 0), (0, solo)]);
    edges.extend(edges.first().copied());
    for i in 0..island {
        edges.push(((main + 2 + i) as NodeId, (main + 2 + (i + 1) % island) as NodeId));
    }
    let g = CsrGraph::from_edges(n, &edges);
    let base = match which % 3 {
        0 => HashPartitioner.partition(&g, k),
        1 => RangePartitioner.partition(&g, k),
        _ => MultilevelKWay::default().partition(&g, k),
    };
    let mut assignment = base.assignment().to_vec();
    assignment[sink as usize] = k as u32;
    assignment[solo as usize] = k as u32 + 1;
    assignment[main + 2..].fill(k as u32 + 2);
    (g, Partitioning::new(assignment, k + 4))
}

/// `PrAsync::gmap` as it was before `LocalCsr::scatter`: the same
/// passes with every CSR read and every `next[target]` bounds-checked.
#[allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
fn reference_pr_gmap(
    part: &GraphPartition,
    runs: &[CutRun],
    cfg: &PageRankConfig,
    state: &PrPartitionState,
    outbox: &mut Outbox<f64>,
) -> GmapOutput<Vec<f64>> {
    let (damping, local_tolerance) = (cfg.damping, cfg.tolerance * (1.0 - cfg.damping) * 0.5);
    let n = part.len();
    let m_int: u64 = (0..n as u32).map(|li| part.internal.degree(li) as u64).sum();
    let mut cur = state.ranks.clone();
    let mut next = vec![0.0f64; n];
    let (mut ops, mut passes) = (0u64, 0u64);
    for _ in 0..DEFAULT_MAX_LOCAL_ITERATIONS {
        next.copy_from_slice(&state.remote_in);
        for li in 0..n {
            let deg = part.out_degree[li];
            if deg == 0 {
                continue;
            }
            let c = cur[li] / deg as f64;
            for (lt, _) in part.internal.edges(li as u32) {
                next[lt as usize] += c;
            }
        }
        let mut done = true;
        for li in 0..n {
            let r = (1.0 - damping) + damping * next[li];
            if !((cur[li] - r).abs() < local_tolerance) {
                done = false;
            }
            next[li] = r;
        }
        std::mem::swap(&mut cur, &mut next);
        passes += 1;
        ops += 3 * (n as u64 + m_int);
        if done {
            break;
        }
    }
    let mut update = Vec::with_capacity(n);
    for li in 0..n {
        let rank = cur[li];
        update.push((rank - (1.0 - damping)) / damping - state.remote_in[li]);
        next[li] = rank / part.out_degree[li] as f64;
    }
    for run in runs {
        outbox.extend(run.dest as usize, run.src.iter().map(|&li| next[li as usize]));
    }
    let msg_records = part.cross.num_edges() as u64;
    GmapOutput {
        update,
        ops: ops + n as u64 + msg_records,
        local_syncs: passes,
        input_bytes: part.approx_bytes(),
        msg_records,
        msg_bytes: msg_records * 9,
    }
}

/// `SpAsync::gmap` as it was before `LocalCsr::scatter`, reads checked.
#[allow(clippy::needless_range_loop, clippy::neg_cmp_op_on_partial_ord)]
fn reference_sp_gmap(
    part: &GraphPartition,
    cut: &CutPlan,
    runs: &[CutRun],
    state: &[f64],
    outbox: &mut Outbox<(u32, f64)>,
) -> GmapOutput<Vec<f64>> {
    let n = part.len();
    let mut cur = state.to_vec();
    let mut next = vec![f64::INFINITY; n];
    let (mut ops, mut passes) = (0u64, 0u64);
    for _ in 0..DEFAULT_MAX_LOCAL_ITERATIONS {
        next.fill(f64::INFINITY);
        let mut emitted = n as u64;
        for li in 0..n {
            let d = cur[li];
            next[li] = next[li].min(d);
            if !d.is_finite() {
                continue;
            }
            emitted += part.internal.degree(li as u32) as u64;
            for (lt, w) in part.internal.edges(li as u32) {
                let slot = &mut next[lt as usize];
                *slot = slot.min(d + w);
            }
        }
        passes += 1;
        ops += 3 * emitted;
        let mut done = true;
        for li in 0..n {
            let (a, b) = (cur[li], next[li]);
            if !(a == b || (a.is_infinite() && b.is_infinite())) {
                done = false;
            }
        }
        std::mem::swap(&mut cur, &mut next);
        if done {
            break;
        }
    }
    let mut msg_records = 0u64;
    for run in runs {
        for ((&li, &t), &w) in run.src.iter().zip(cut.landing(run)).zip(&run.weights) {
            let d = cur[li as usize];
            if d.is_finite() {
                outbox.push(run.dest as usize, (t, d + w));
                msg_records += 1;
            }
        }
    }
    GmapOutput {
        update: cur,
        ops: ops + n as u64 + msg_records,
        local_syncs: passes,
        input_bytes: part.approx_bytes(),
        msg_records,
        msg_bytes: msg_records * 12,
    }
}

/// `PrAsync`'s initial states as it once built them all up front: ranks
/// all ones, and every producer's runs folded into their consumers'
/// remote sums, producers ascending.
fn eager_pr_init(views: &[Arc<GraphPartition>], cut: &CutPlan) -> Vec<PrPartitionState> {
    let mut init: Vec<PrPartitionState> = views
        .iter()
        .map(|p| PrPartitionState { ranks: vec![1.0; p.len()], remote_in: vec![0.0; p.len()] })
        .collect();
    for (part, runs) in views.iter().zip(&cut.runs) {
        for run in runs {
            let remote = &mut init[run.dest as usize].remote_in;
            for (&li, &t) in run.src.iter().zip(cut.landing(run)) {
                remote[t as usize] += 1.0 / part.out_degree[li as usize] as f64;
            }
        }
    }
    init
}

/// `SpAsync`'s initial states as it once built them all up front: a
/// global distance vector, gathered per partition.
fn eager_sp_init(views: &[Arc<GraphPartition>], n: usize, source: NodeId) -> Vec<Vec<f64>> {
    let mut dists = vec![f64::INFINITY; n];
    if n > 0 {
        dists[source as usize] = 0.0;
    }
    views.iter().map(|p| p.nodes.iter().map(|&v| dists[v as usize]).collect()).collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Bitwise: the update, every meter, and every destination's batch.
fn same_gmap<M>(
    p: usize,
    (got, got_box): (&GmapOutput<Vec<f64>>, &Outbox<M>),
    (want, want_box): (&GmapOutput<Vec<f64>>, &Outbox<M>),
    slots: usize,
    bits: impl Fn(&M) -> (u32, u64),
) {
    let update =
        |o: &GmapOutput<Vec<f64>>| o.update.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(update(got), update(want), "partition {p}: update");
    let meters = |o: &GmapOutput<Vec<f64>>| {
        (o.ops, o.local_syncs, o.msg_records, o.input_bytes, o.msg_bytes)
    };
    assert_eq!(meters(got), meters(want), "partition {p}: meters");
    for dest in 0..slots {
        let batch = |o: &Outbox<M>| o.batch(dest).iter().map(&bits).collect::<Vec<_>>();
        assert_eq!(batch(got_box), batch(want_box), "partition {p} → {dest}: batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pagerank_gmap_matches_the_bounds_checked_loop(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..6,
        which in any::<u8>(),
        tolerance_exp in 3i32..10,
        iterations in 1usize..4,
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let cfg = PageRankConfig { tolerance: 10f64.powi(-tolerance_exp), ..Default::default() };
        let algo = PrAsync::new(&g, &parts, &cfg);
        let views = algo.partitions();
        let cut = CutPlan::build(None, views, &parts);
        let slots = views.len();
        let mid = AsyncFixedPointDriver::new(iterations).run(&ThreadPool::new(2), &algo).states;
        for p in 0..slots {
            for state in [algo.init_state(p), PrPartitionState::clone(&mid[p])] {
                let (mut got_box, mut want_box) = (Outbox::new(slots), Outbox::new(slots));
                let got = algo.gmap(p, 0, &state, &mut got_box);
                let want = reference_pr_gmap(&views[p], &cut.runs[p], &cfg, &state, &mut want_box);
                same_gmap(p, (&got, &got_box), (&want, &want_box), slots, |c| (0, c.to_bits()));
            }
        }
    }

    #[test]
    fn sssp_gmap_matches_the_bounds_checked_loop(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..6,
        which in any::<u8>(),
        seed in any::<u64>(),
        source in any::<u32>(),
        iterations in 1usize..4,
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let n = g.num_nodes() as u32;
        let wg = WeightedGraph::random_weights(g, 1.0, 9.0, seed);
        let cfg = SsspConfig { source: source % n, ..Default::default() };
        let algo = SpAsync::new(&wg, &parts, &cfg);
        let views = algo.partitions();
        let cut = CutPlan::build(None, views, &parts);
        let slots = views.len();
        let mid = AsyncFixedPointDriver::new(iterations).run(&ThreadPool::new(2), &algo).states;
        for p in 0..slots {
            for state in [algo.init_state(p), Vec::clone(&mid[p])] {
                let (mut got_box, mut want_box) = (Outbox::new(slots), Outbox::new(slots));
                let got = algo.gmap(p, 0, &state, &mut got_box);
                let want = reference_sp_gmap(&views[p], &cut, &cut.runs[p], &state, &mut want_box);
                same_gmap(p, (&got, &got_box), (&want, &want_box), slots, |&(t, d)| (t, d.to_bits()));
            }
        }
    }

    #[test]
    fn pagerank_init_state_matches_the_eager_construction(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..6,
        which in any::<u8>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let algo = PrAsync::new(&g, &parts, &PageRankConfig::default());
        let views = algo.partitions();
        let cut = CutPlan::build(None, views, &parts);
        prop_assert!(cut.in_deps.iter().any(Vec::is_empty), "the island depends on nobody");
        for (p, want) in eager_pr_init(views, &cut).iter().enumerate() {
            let got = algo.init_state(p);
            prop_assert_eq!(bits(&got.ranks), bits(&want.ranks), "partition {}: ranks", p);
            prop_assert_eq!(bits(&got.remote_in), bits(&want.remote_in), "partition {}: remote", p);
        }
    }

    #[test]
    fn sssp_init_state_matches_the_eager_construction(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..6,
        which in any::<u8>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let n = g.num_nodes();
        let wg = WeightedGraph::unit_weights(g);
        // Every vertex as the source: most lie outside partition 0.
        for source in 0..n as NodeId {
            let algo = SpAsync::new(&wg, &parts, &SsspConfig { source, ..Default::default() });
            for (p, want) in eager_sp_init(algo.partitions(), n, source).iter().enumerate() {
                prop_assert_eq!(bits(&algo.init_state(p)), bits(want), "source {}, partition {}", source, p);
            }
        }
    }
}
