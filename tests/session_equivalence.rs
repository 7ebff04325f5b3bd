//! The session layer's correctness contract, end to end:
//!
//! * at `max_lag = 0` the asynchronous drivers reproduce the barrier
//!   [`FixedPointDriver`](asyncmr::core::FixedPointDriver) runs
//!   **byte-identically** — same iteration counts, bitwise-equal final
//!   ranks/distances — with only the schedule differing;
//! * at `max_lag > 0` they still land on the same fixed point within
//!   tolerance;
//! * the recorded cross-iteration schedule replays on the simulated
//!   cluster faster than the equivalent barrier job sequence;
//! * the contracts that make the session's static cut plan legal hold
//!   on adversarial graphs (self loops, multi-edges, a sink that is a
//!   cross target, a partition without cut edges, empty partitions):
//!   lag 0 stays bitwise the keyed barrier path, every cut edge is
//!   metered as one message per iteration, op totals match the keyed
//!   path's, and staleness, transient failures and node-failure
//!   rollback still reach the same fixed point.

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::apps::sssp::{self, SsspConfig};
use asyncmr::core::session::SessionReport;
use asyncmr::core::{AsyncFixedPointDriver, AttemptFailurePlan, Engine, NodeFailurePlan};
use asyncmr::graph::{generators, CsrGraph, NodeId, WeightedGraph};
use asyncmr::partition::{
    HashPartitioner, MultilevelKWay, Partitioner, Partitioning, RangePartitioner,
};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};
use proptest::prelude::*;

fn crawl_graph(n: usize, seed: u64) -> CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed)
}

#[test]
fn pagerank_async_lag0_is_byte_identical_to_the_barrier_driver() {
    let g = crawl_graph(1200, 4);
    let parts = MultilevelKWay::default().partition(&g, 8);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
    let asynchronous = pagerank::run_async(&pool, &g, &parts, &cfg, 0);

    assert_eq!(asynchronous.report.global_iterations, barrier.report.global_iterations);
    assert_eq!(
        asynchronous.report.local_syncs, barrier.report.local_syncs,
        "identical local solves must meter identical partial syncs"
    );
    for (v, (a, b)) in asynchronous.ranks.iter().zip(&barrier.ranks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: async {a} vs barrier {b}");
    }
}

#[test]
fn sssp_async_lag0_is_byte_identical_to_the_barrier_driver() {
    let g = crawl_graph(900, 12);
    let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 5);
    let parts = MultilevelKWay::default().partition(wg.graph(), 6);
    let pool = ThreadPool::new(4);
    let cfg = SsspConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = sssp::run_eager(&mut engine, &wg, &parts, &cfg);
    let asynchronous = sssp::run_async(&pool, &wg, &parts, &cfg, 0);

    assert_eq!(asynchronous.report.global_iterations, barrier.report.global_iterations);
    for (v, (a, b)) in asynchronous.distances.iter().zip(&barrier.distances).enumerate() {
        assert!(
            a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
            "vertex {v}: async {a} vs barrier {b}"
        );
    }
}

#[test]
fn pagerank_bounded_staleness_reaches_the_same_fixed_point() {
    let g = crawl_graph(900, 6);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    // Tight tolerance: both end states are within ~tol/(1−χ) of the
    // unique fixed point, so they must agree to well under 1e-6.
    let cfg = PageRankConfig { tolerance: 1e-9, ..Default::default() };
    let exact = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
    for lag in [1usize, 3] {
        let stale = pagerank::run_async(&pool, &g, &parts, &cfg, lag);
        assert!(stale.report.converged, "lag {lag} must still converge");
        let diff = pagerank::inf_norm_diff(&exact.ranks, &stale.ranks);
        assert!(diff < 1e-6, "lag {lag} drifted the fixed point by {diff}");
    }
}

#[test]
fn async_schedule_replays_faster_than_the_barrier_jobs_in_simulation() {
    let g = crawl_graph(1200, 4);
    let parts = MultilevelKWay::default().partition(&g, 8);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    // Barrier: every global iteration pays the full job envelope.
    let sim = Simulation::new(ClusterSpec::ec2_2010(), 7);
    let mut engine = Engine::with_simulation(&pool, sim);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
    let barrier_secs = barrier.report.sim_time.expect("simulated").as_secs_f64();

    // Async: the recorded cross-iteration schedule, one envelope total.
    let asynchronous = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
    let mut replay = Simulation::new(ClusterSpec::ec2_2010(), 7);
    let stats = replay.run_async_schedule(&asynchronous.report.schedule);
    let async_secs = stats.duration.as_secs_f64();

    assert_eq!(stats.tasks, asynchronous.report.gmap_tasks);
    assert!(
        async_secs < barrier_secs / 1.2,
        "async replay ({async_secs:.1}s) must beat the barrier sequence \
         ({barrier_secs:.1}s) by ≥1.2x for the same converged result"
    );
}

/// `main` connected vertices (`picks` folded into range, plus a self
/// loop and a doubled edge), one sink fed from vertex 0, and an
/// `island`-vertex ring nothing else touches. `k` parts over the
/// connected vertices by partitioner `which`; the island is part `k`
/// (no cut edge either way) and part `k + 1` owns nothing.
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

/// Messages and message bytes the schedule meters per global iteration.
fn metered_per_iteration(report: &SessionReport) -> Vec<(u64, u64)> {
    let mut per_iter = vec![(0, 0); report.global_iterations];
    for task in &report.schedule {
        per_iter[task.iteration].0 += task.output_records;
        per_iter[task.iteration].1 += task.output_bytes;
    }
    per_iter
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pagerank_static_cut_keeps_the_session_contracts(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..7,
        which in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let pool = ThreadPool::new(3);
        let cfg = PageRankConfig { tolerance: 1e-9, ..Default::default() };

        let mut engine = Engine::in_process(&pool);
        let keyed = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
        let exact = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
        prop_assert!(same_bits(&exact.ranks, &keyed.ranks), "lag 0 must be bitwise run_eager");
        prop_assert_eq!(exact.report.global_iterations, keyed.report.global_iterations);
        prop_assert_eq!(exact.report.total_ops, keyed.report.total_ops);

        // Every cut edge is one `Contribution`, metered at 9 bytes, per iteration.
        let cut = parts.edge_cut(&g) as u64;
        for (iter, metered) in metered_per_iteration(&exact.report).into_iter().enumerate() {
            prop_assert_eq!(metered, (cut, 9 * cut), "iteration {}", iter);
        }

        let stale = pagerank::run_async(&pool, &g, &parts, &cfg, 2);
        prop_assert!(stale.report.converged);
        let drift = pagerank::inf_norm_diff(&exact.ranks, &stale.ranks);
        prop_assert!(drift < 1e-6, "lag 2 drifted the fixed point by {}", drift);

        let flaky = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_failures(AttemptFailurePlan::transient(0.2), seed);
        let flaky = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, flaky);
        prop_assert!(same_bits(&flaky.ranks, &exact.ranks), "transient failures changed ranks");
        prop_assert_eq!(flaky.report.global_iterations, exact.report.global_iterations);

        let dying = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_node_failures(NodeFailurePlan::correlated(0.2, seed, 2), 3);
        let dying = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, dying);
        prop_assert!(same_bits(&dying.ranks, &exact.ranks), "rollback changed ranks");
        prop_assert_eq!(dying.report.global_iterations, exact.report.global_iterations);
    }

    #[test]
    fn sssp_static_cut_keeps_the_session_contracts(
        main in 1usize..24,
        island in 1usize..4,
        picks in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..80),
        k in 1usize..7,
        which in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let (g, parts) = adversarial(main, island, &picks, k, which);
        let wg = WeightedGraph::random_weights(g, 1.0, 9.0, seed);
        let pool = ThreadPool::new(3);
        let cfg = SsspConfig::default();

        let mut engine = Engine::in_process(&pool);
        let keyed = sssp::run_eager(&mut engine, &wg, &parts, &cfg);
        let exact = sssp::run_async(&pool, &wg, &parts, &cfg, 0);
        // Min is exact, so reachable distances agree bitwise and the
        // island stays at +∞ on both paths.
        prop_assert!(same_bits(&exact.distances, &keyed.distances), "lag 0 must be run_eager");
        prop_assert_eq!(exact.report.global_iterations, keyed.report.global_iterations);
        prop_assert_eq!(exact.report.total_ops, keyed.report.total_ops);

        // 12 bytes per relaxation; the last iteration starts from the
        // fixed point, so it relaxes exactly the cut edges whose source
        // is reachable.
        let metered = metered_per_iteration(&exact.report);
        prop_assert!(metered.iter().all(|&(records, bytes)| bytes == 12 * records));
        let reachable_cut = wg
            .graph()
            .edges()
            .filter(|&(s, t)| parts.part_of(s) != parts.part_of(t))
            .filter(|&(s, _)| exact.distances[s as usize].is_finite())
            .count() as u64;
        prop_assert_eq!(metered.last().map(|m| m.0), Some(reachable_cut));

        let stale = sssp::run_async(&pool, &wg, &parts, &cfg, 2);
        prop_assert!(same_bits(&stale.distances, &exact.distances), "lag 2 changed distances");

        let flaky = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_failures(AttemptFailurePlan::transient(0.2), seed);
        let flaky = sssp::run_async_with_driver(&pool, &wg, &parts, &cfg, flaky);
        prop_assert!(same_bits(&flaky.distances, &exact.distances), "failures changed distances");

        let dying = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_node_failures(NodeFailurePlan::correlated(0.25, seed, 1), 3);
        let dying = sssp::run_async_with_driver(&pool, &wg, &parts, &cfg, dying);
        prop_assert!(same_bits(&dying.distances, &exact.distances), "rollback changed distances");
    }
}
