//! Iterative multi-job runs on the engine.
//!
//! `tests/stage_equivalence.rs` pins single-job byte-identity against
//! the oracle; this file pins the *iterative* contract: a
//! [`FixedPointDriver`](asyncmr::core::FixedPointDriver) loop of many
//! jobs must leave byte-identical history meters on the staged engine,
//! which carries its plans from job to job, and the oracle, which
//! remembers nothing — and an attached simulation must only add timing.

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::core::{Engine, JobMeter};
use asyncmr::graph::generators;
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};

#[test]
fn fixed_point_driver_history_is_byte_identical_to_the_oracle() {
    let g = generators::preferential_attachment_crawled(900, 3, 1, 1, 0.95, 40, 31);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut staged = Engine::in_process(&pool);
    let a = pagerank::run_eager(&mut staged, &g, &parts, &cfg);
    let mut oracle = Engine::with_reference_shuffle(&pool);
    let b = pagerank::run_eager(&mut oracle, &g, &parts, &cfg);

    assert!(
        a.report.global_iterations >= 5,
        "workload too small to exercise the iterative path ({} iterations)",
        a.report.global_iterations
    );
    assert_eq!(a.report.global_iterations, b.report.global_iterations);
    for (v, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {v} diverged from the oracle");
    }

    // Per-job history meters, byte for byte — but for the empty
    // partitions the oracle counts as reduce tasks.
    assert_eq!(staged.history().len(), oracle.history().len());
    for (i, (s, o)) in staged.history().iter().zip(oracle.history()).enumerate() {
        assert_eq!(s.name, o.name, "job {i} name");
        let every_partition = JobMeter { reduce_tasks: o.meter.reduce_tasks, ..s.meter };
        assert_eq!(every_partition, o.meter, "job {i} meters must match the oracle's");
    }

    // And the driver-level wall satellite: the loop strictly contains
    // its jobs.
    assert!(a.report.driver_wall >= a.report.wall_time);
}

#[test]
fn simulated_iterative_runs_share_one_cluster_clock() {
    // Simulation only prices the metered jobs: the iterative run's
    // results are those of the in-process engine, bit for bit.
    let g = generators::preferential_attachment_crawled(600, 3, 1, 1, 0.95, 40, 13);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let plain = pagerank::run_eager(&mut Engine::in_process(&pool), &g, &parts, &cfg);
    let mut simulated =
        Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 77));
    let out = pagerank::run_eager(&mut simulated, &g, &parts, &cfg);

    assert!(plain.report.sim_time.is_none());
    assert!(out.report.sim_time.is_some());
    assert_eq!(plain.report.global_iterations, out.report.global_iterations);
    for (v, (x, y)) in plain.ranks.iter().zip(&out.ranks).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {v} changed under simulation");
    }
    // One cluster clock runs through the whole iterative run: every job
    // is submitted the instant its predecessor finished.
    let sims: Vec<_> = simulated.history().iter().map(|r| r.sim.as_ref().unwrap()).collect();
    assert!(sims.len() > 1);
    for pair in sims.windows(2) {
        assert_eq!(pair[1].submitted_at, pair[0].finished_at);
    }
}
