//! Cross-crate integration tests: full pipelines from graph generation
//! through partitioning, both MapReduce formulations, both execution
//! backends, validated against sequential references.

use std::sync::Arc;

use asyncmr::apps::kmeans::{self, KMeansConfig};
use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::apps::sssp::{self, SsspConfig};
use asyncmr::core::{AttemptFailurePlan, Engine};
use asyncmr::graph::{generators, WeightedGraph};
use asyncmr::partition::{BfsPartitioner, HashPartitioner, MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};

fn crawl_graph(n: usize, seed: u64) -> asyncmr::graph::CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 2, 1, 0.95, 40, seed)
}

#[test]
fn pagerank_pipeline_all_partitioners_agree_with_reference() {
    let g = crawl_graph(500, 3);
    let pool = ThreadPool::new(2);
    let cfg = PageRankConfig { tolerance: 1e-7, ..Default::default() };
    let (truth, _) = pagerank::reference::pagerank_sequential(&g, cfg.damping, 1e-10, 3000);

    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(HashPartitioner),
        Box::new(BfsPartitioner::default()),
        Box::new(MultilevelKWay::default()),
    ];
    for partitioner in partitioners {
        let parts = partitioner.partition(&g, 5);
        let mut engine = Engine::in_process(&pool);
        let eager = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
        let err = pagerank::inf_norm_diff(&eager.ranks, &truth);
        assert!(err < 1e-4, "eager deviates by {err} under some partitioner");
    }
}

#[test]
fn simulated_backend_never_changes_results() {
    let g = crawl_graph(400, 9);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(2);
    let cfg = PageRankConfig::default();

    let mut plain = Engine::in_process(&pool);
    let a = pagerank::run_eager(&mut plain, &g, &parts, &cfg);

    let mut simulated = Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 1));
    let b = pagerank::run_eager(&mut simulated, &g, &parts, &cfg);

    assert_eq!(a.ranks, b.ranks, "simulation must be timing-only");
    assert_eq!(a.report.global_iterations, b.report.global_iterations);
    assert!(b.report.sim_time.is_some());
    assert!(a.report.sim_time.is_none());
}

#[test]
fn sssp_pipeline_matches_dijkstra_through_both_formulations() {
    let g = crawl_graph(400, 17);
    let wg = WeightedGraph::random_weights(g, 1.0, 10.0, 5);
    let parts = MultilevelKWay::default().partition(wg.graph(), 6);
    let pool = ThreadPool::new(2);
    let cfg = SsspConfig::default();
    let truth = sssp::reference::dijkstra(&wg, 0);

    let mut e1 = Engine::in_process(&pool);
    let eager = sssp::run_eager(&mut e1, &wg, &parts, &cfg);
    let mut e2 = Engine::in_process(&pool);
    let general = sssp::run_general(&mut e2, &wg, &parts, &cfg);

    for (v, &t) in truth.iter().enumerate() {
        for (label, d) in [("eager", eager.distances[v]), ("general", general.distances[v])] {
            assert!(
                (d - t).abs() < 1e-9 || (d.is_infinite() && t.is_infinite()),
                "{label} wrong at vertex {v}: {d} vs {t}"
            );
        }
    }
}

#[test]
fn failure_injection_preserves_results_and_costs_time() {
    let g = crawl_graph(300, 21);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(2);
    let cfg = PageRankConfig::default();

    let clean_sim = Simulation::new(ClusterSpec::ec2_2010(), 2);
    let mut clean_engine = Engine::with_simulation(&pool, clean_sim);
    let clean = pagerank::run_general(&mut clean_engine, &g, &parts, &cfg);

    let faulty_sim = Simulation::new(ClusterSpec::ec2_2010(), 2)
        .with_failures(AttemptFailurePlan::transient(0.15));
    let mut faulty_engine = Engine::with_simulation(&pool, faulty_sim);
    let faulty = pagerank::run_general(&mut faulty_engine, &g, &parts, &cfg);

    assert_eq!(clean.ranks, faulty.ranks, "deterministic replay must preserve results");
    let reexec: u32 = faulty_engine
        .history()
        .iter()
        .filter_map(|r| r.sim.as_ref())
        .map(|s| s.failed_attempts)
        .sum();
    assert!(reexec > 0, "15% attempt failure must hit at least one task");
    assert!(
        faulty.report.sim_time.unwrap() > clean.report.sim_time.unwrap(),
        "failures must cost simulated time"
    );
}

#[test]
fn kmeans_pipeline_eager_quality_comparable_and_fewer_global_syncs() {
    // Over-clustered regime (k below the planted cluster count), the
    // census-like case where Lloyd crawls and partial sync pays off.
    let data = kmeans::data::census_like(1500, 20, 16, 5);
    let points = Arc::new(data.points);
    let initial = kmeans::initial_centroids(&points, 6, 9);
    let cfg = KMeansConfig { k: 6, threshold: 0.001, ..Default::default() };
    let pool = ThreadPool::new(2);

    let mut e1 = Engine::in_process(&pool);
    let eager = kmeans::eager::run_eager_from(&mut e1, &points, 12, &cfg, Some(initial.clone()));
    let mut e2 = Engine::in_process(&pool);
    let general = kmeans::general::run_general_from(&mut e2, &points, 12, &cfg, Some(initial));

    assert!(eager.report.converged && general.report.converged);
    assert!(
        eager.report.global_iterations < general.report.global_iterations,
        "eager {} vs general {}",
        eager.report.global_iterations,
        general.report.global_iterations
    );
    assert!(
        eager.sse <= general.sse * 1.25,
        "eager quality degraded: {} vs {}",
        eager.sse,
        general.sse
    );
}

#[test]
fn engine_runs_are_deterministic_end_to_end() {
    let g = crawl_graph(300, 31);
    let parts = MultilevelKWay::default().partition(&g, 3);
    let cfg = PageRankConfig::default();

    let run = || {
        let pool = ThreadPool::new(3);
        let mut engine =
            Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 77));
        let out = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
        (out.ranks, out.report.global_iterations, out.report.sim_time)
    };
    let (r1, i1, t1) = run();
    let (r2, i2, t2) = run();
    assert_eq!(r1, r2, "ranks must be bit-identical across runs");
    assert_eq!(i1, i2);
    assert_eq!(t1, t2, "simulated time must be bit-identical across runs");
}

#[test]
fn iterative_jobs_accumulate_on_one_simulated_cluster() {
    let g = crawl_graph(200, 41);
    let parts = MultilevelKWay::default().partition(&g, 2);
    let pool = ThreadPool::new(2);
    let mut engine = Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 3));
    let _ = pagerank::run_eager(&mut engine, &g, &parts, &PageRankConfig::default());
    let history = engine.history();
    assert!(history.len() >= 2, "iterative run must comprise several jobs");
    // Jobs executed back-to-back on one simulated timeline.
    for pair in history.windows(2) {
        let (a, b) = (pair[0].sim.as_ref().unwrap(), pair[1].sim.as_ref().unwrap());
        assert_eq!(b.submitted_at, a.finished_at);
    }
}
