//! Property-based tests (proptest) on the core invariants, spanning
//! crates. Case counts are kept moderate — each case runs real
//! multi-crate pipelines.

use proptest::prelude::*;

use asyncmr::apps::kmeans;
use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::apps::sssp::{self, SsspConfig};
use asyncmr::core::{AsyncFixedPointDriver, AttemptFailurePlan, Engine, NodeFailurePlan};
use asyncmr::graph::{CsrGraph, WeightedGraph};
use asyncmr::partition::{
    BfsPartitioner, HashPartitioner, MultilevelKWay, Partitioner, RangePartitioner,
};
use asyncmr::runtime::ThreadPool;

/// Strategy: a random small digraph as (n, edge list).
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..60).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(n * 4));
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR construction preserves the edge multiset and per-vertex
    /// degrees, for arbitrary (possibly parallel/self-loop) edges.
    #[test]
    fn csr_round_trips_edges((n, mut edges) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        let mut rebuilt: Vec<(u32, u32)> = g.edges().collect();
        edges.sort_unstable();
        rebuilt.sort_unstable();
        prop_assert_eq!(rebuilt, edges);
    }

    /// Transpose is an involution up to adjacency-list ordering (the
    /// edge multiset is preserved exactly).
    #[test]
    fn transpose_involution((n, edges) in arb_graph()) {
        let g = CsrGraph::from_edges(n, &edges);
        let tt = g.transpose().transpose();
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = tt.edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // And in-degrees/out-degrees swap under a single transpose.
        let t = g.transpose();
        prop_assert_eq!(t.in_degrees(),
            (0..n as u32).map(|v| g.out_degree(v)).collect::<Vec<_>>());
    }

    /// Every partitioner covers all vertices with valid part ids, and
    /// its reported edge cut never exceeds the edge count.
    #[test]
    fn partitioners_produce_valid_covers((n, edges) in arb_graph(), k in 1usize..12) {
        let g = CsrGraph::from_edges(n, &edges);
        let partitioners: Vec<Box<dyn Partitioner>> = vec![
            Box::new(HashPartitioner),
            Box::new(RangePartitioner),
            Box::new(BfsPartitioner::default()),
            Box::new(MultilevelKWay::default()),
        ];
        for p in partitioners {
            let parts = p.partition(&g, k);
            prop_assert_eq!(parts.num_nodes(), n);
            prop_assert_eq!(parts.num_parts(), k);
            prop_assert_eq!(parts.part_sizes().iter().sum::<usize>(), n);
            prop_assert!(parts.edge_cut(&g) <= g.num_edges());
            // One part => zero cut.
            if k == 1 {
                prop_assert_eq!(parts.edge_cut(&g), 0);
            }
        }
    }

    /// Eager and General PageRank agree with the sequential power
    /// iteration on arbitrary graphs and partitionings.
    #[test]
    fn pagerank_variants_agree_with_reference(
        (n, edges) in arb_graph(),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let parts = BfsPartitioner { seed }.partition(&g, k);
        let pool = ThreadPool::new(2);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let (truth, _) = pagerank::reference::pagerank_sequential(&g, cfg.damping, 1e-11, 5000);

        let mut e1 = Engine::in_process(&pool);
        let eager = pagerank::run_eager(&mut e1, &g, &parts, &cfg);
        prop_assert!(pagerank::inf_norm_diff(&eager.ranks, &truth) < 1e-4,
            "eager err {}", pagerank::inf_norm_diff(&eager.ranks, &truth));

        let mut e2 = Engine::in_process(&pool);
        let general = pagerank::run_general(&mut e2, &g, &parts, &cfg);
        prop_assert!(pagerank::inf_norm_diff(&general.ranks, &truth) < 1e-4,
            "general err {}", pagerank::inf_norm_diff(&general.ranks, &truth));
    }

    /// Both SSSP formulations equal Dijkstra on random weighted graphs.
    #[test]
    fn sssp_variants_equal_dijkstra(
        (n, edges) in arb_graph(),
        k in 1usize..6,
        wseed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let wg = WeightedGraph::random_weights(g, 0.5, 20.0, wseed);
        let parts = RangePartitioner.partition(wg.graph(), k);
        let truth = sssp::reference::dijkstra(&wg, 0);
        let pool = ThreadPool::new(2);
        let cfg = SsspConfig::default();

        let mut e1 = Engine::in_process(&pool);
        let eager = sssp::run_eager(&mut e1, &wg, &parts, &cfg);
        let mut e2 = Engine::in_process(&pool);
        let general = sssp::run_general(&mut e2, &wg, &parts, &cfg);
        for (v, &t) in truth.iter().enumerate() {
            for d in [eager.distances[v], general.distances[v]] {
                prop_assert!((d - t).abs() < 1e-9 || (d.is_infinite() && t.is_infinite()),
                    "vertex {} got {} want {}", v, d, t);
            }
        }
    }

    /// Lloyd's invariants hold for the K-Means building blocks: the
    /// nearest assignment minimizes distance, and an update step never
    /// increases the SSE.
    #[test]
    fn kmeans_step_never_increases_sse(
        npoints in 10usize..80,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let data = kmeans::data::census_like(npoints, 8, k.max(2), seed);
        let initial = kmeans::initial_centroids(&data.points, k.min(npoints), seed);
        let before = kmeans::sse(&data.points, &initial);
        let stepped = kmeans::reference::lloyd_step(&data.points, &initial);
        let after = kmeans::sse(&data.points, &stepped);
        prop_assert!(after <= before + 1e-6, "SSE rose: {} -> {}", before, after);
    }

    /// Chaos property: for random partition topologies, failure seeds,
    /// and every staleness bound in {0, 1, 2, 3}, asynchronous PageRank
    /// converges to the same fixed point with and without injected
    /// transient gmap failures — bitwise at `max_lag = 0` (recovery is
    /// deterministic replay of a pure task), within tolerance beyond.
    #[test]
    fn pagerank_chaos_fixed_point_is_failure_invariant(
        (n, edges) in arb_graph(),
        k in 1usize..5,
        max_lag in 0usize..4,
        fseed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let parts = BfsPartitioner { seed: fseed }.partition(&g, k);
        let pool = ThreadPool::new(2);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let clean = pagerank::run_async(&pool, &g, &parts, &cfg, max_lag);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_max_lag(max_lag)
            .with_failures(AttemptFailurePlan::transient(0.25), fseed);
        let faulty = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, driver);
        prop_assert!(clean.report.converged && faulty.report.converged);
        if max_lag == 0 {
            prop_assert_eq!(faulty.report.global_iterations, clean.report.global_iterations);
            for (v, (a, b)) in faulty.ranks.iter().zip(&clean.ranks).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "vertex {}: faulty {} vs clean {}", v, a, b);
            }
        } else {
            let diff = pagerank::inf_norm_diff(&faulty.ranks, &clean.ranks);
            prop_assert!(diff < 1e-5, "lag {} chaos drifted the fixed point by {}", max_lag, diff);
        }
    }

    /// The same chaos property for SSSP, whose min-reduction is exact:
    /// injected failures never move a single distance bit at any
    /// staleness bound (oracle: Dijkstra).
    #[test]
    fn sssp_chaos_distances_are_failure_invariant(
        (n, edges) in arb_graph(),
        k in 1usize..5,
        max_lag in 0usize..4,
        fseed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let wg = WeightedGraph::random_weights(g, 0.5, 20.0, fseed);
        let parts = BfsPartitioner { seed: fseed }.partition(wg.graph(), k);
        let truth = sssp::reference::dijkstra(&wg, 0);
        let pool = ThreadPool::new(2);
        let cfg = SsspConfig::default();
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_max_lag(max_lag)
            .with_failures(AttemptFailurePlan::transient(0.25), fseed ^ 0xC0FFEE);
        let faulty = sssp::run_async_with_driver(&pool, &wg, &parts, &cfg, driver);
        prop_assert!(faulty.report.converged);
        for (v, (&d, &t)) in faulty.distances.iter().zip(&truth).enumerate() {
            prop_assert!((d - t).abs() < 1e-9 || (d.is_infinite() && t.is_infinite()),
                "vertex {} got {} want {}", v, d, t);
        }
    }

    /// Node-failure chaos property: for random partition topologies,
    /// checkpoint intervals, node-failure seeds, and every staleness
    /// bound in {0, 1, 2, 3}, asynchronous PageRank under correlated
    /// node death + checkpoint/rollback recovery converges to the same
    /// fixed point as the failure-free run — and at `max_lag = 0`,
    /// **byte-identically to the failure-free barrier driver** (the
    /// rollback engine re-executes pure gmaps from a coordinated
    /// checkpoint cut, so recovery is invisible in the result).
    #[test]
    fn pagerank_node_failure_rollback_recovers_byte_identically(
        (n, edges) in arb_graph(),
        k in 1usize..5,
        max_lag in 0usize..4,
        ckpt_k in 1usize..5,
        fseed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let parts = BfsPartitioner { seed: fseed }.partition(&g, k);
        let pool = ThreadPool::new(2);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let clean = pagerank::run_async(&pool, &g, &parts, &cfg, max_lag);
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_max_lag(max_lag)
            .with_node_failures(NodeFailurePlan::correlated(0.25, fseed, ckpt_k), 1 + (fseed as usize % 4));
        let faulty = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, driver);
        prop_assert!(clean.report.converged && faulty.report.converged);
        if max_lag == 0 {
            // The barrier driver is the oracle: recovery must leave the
            // async session indistinguishable from a clean barrier run.
            let mut engine = Engine::in_process(&pool);
            let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
            prop_assert_eq!(faulty.report.global_iterations, barrier.report.global_iterations);
            for (v, (a, b)) in faulty.ranks.iter().zip(&barrier.ranks).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "vertex {}: faulty {} vs barrier {}", v, a, b);
            }
        } else {
            let diff = pagerank::inf_norm_diff(&faulty.ranks, &clean.ranks);
            prop_assert!(diff < 1e-5,
                "lag {} node-failure rollback drifted the fixed point by {}", max_lag, diff);
        }
    }

    /// The same node-failure property for SSSP against Dijkstra: min is
    /// exact, so rollback recovery never moves a distance bit at any
    /// staleness bound or checkpoint interval.
    #[test]
    fn sssp_node_failure_rollback_distances_stay_exact(
        (n, edges) in arb_graph(),
        k in 1usize..5,
        max_lag in 0usize..4,
        ckpt_k in 1usize..5,
        fseed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let wg = WeightedGraph::random_weights(g, 0.5, 20.0, fseed);
        let parts = BfsPartitioner { seed: fseed }.partition(wg.graph(), k);
        let truth = sssp::reference::dijkstra(&wg, 0);
        let pool = ThreadPool::new(2);
        let cfg = SsspConfig::default();
        let driver = AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_max_lag(max_lag)
            .with_node_failures(NodeFailurePlan::correlated(0.25, fseed ^ 0xBEEF, ckpt_k), 1 + (fseed as usize % 3));
        let faulty = sssp::run_async_with_driver(&pool, &wg, &parts, &cfg, driver);
        prop_assert!(faulty.report.converged);
        for (v, (&d, &t)) in faulty.distances.iter().zip(&truth).enumerate() {
            prop_assert!((d - t).abs() < 1e-9 || (d.is_infinite() && t.is_infinite()),
                "vertex {} got {} want {}", v, d, t);
        }
    }

    /// Failure-free staleness sweep, pinned as its own case: every
    /// `max_lag` lands on the same fixed point (the knob trades
    /// schedule freshness for slack, never the answer).
    #[test]
    fn failure_free_max_lag_sweep_is_equivalent(
        (n, edges) in arb_graph(),
        k in 1usize..5,
        seed in 0u64..1000,
    ) {
        let g = CsrGraph::from_edges(n, &edges);
        let parts = BfsPartitioner { seed }.partition(&g, k);
        let pool = ThreadPool::new(2);
        let cfg = PageRankConfig { tolerance: 1e-8, ..Default::default() };
        let exact = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
        prop_assert!(exact.report.converged);
        for lag in [1usize, 2, 3] {
            let stale = pagerank::run_async(&pool, &g, &parts, &cfg, lag);
            prop_assert!(stale.report.converged, "lag {} failed to converge", lag);
            let diff = pagerank::inf_norm_diff(&exact.ranks, &stale.ranks);
            prop_assert!(diff < 1e-5, "lag {} drifted by {}", lag, diff);
        }
    }

    /// `nearest` really returns the closest centroid.
    #[test]
    fn nearest_is_argmin(
        point in proptest::collection::vec(-10.0f64..10.0, 4),
        centroids in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 4), 1..8),
    ) {
        let best = kmeans::nearest(&point, &centroids);
        let bd = kmeans::dist2(&point, &centroids[best]);
        for c in &centroids {
            prop_assert!(bd <= kmeans::dist2(&point, c) + 1e-12);
        }
    }
}
