//! Iterative multi-job runs on the pipelined engine.
//!
//! `tests/stage_equivalence.rs` pins single-job byte-identity across
//! strategies; this file pins the *iterative* contract: a
//! [`FixedPointDriver`](asyncmr::core::FixedPointDriver) loop of many
//! jobs must leave byte-identical history meters whether the engine is
//! staged or pipelined, while recycling reduce scratch buffers across
//! the pipelined jobs.

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::core::Engine;
use asyncmr::graph::generators;
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};

#[test]
fn fixed_point_driver_history_is_byte_identical_across_staged_and_pipelined() {
    let g = generators::preferential_attachment_crawled(900, 3, 1, 1, 0.95, 40, 31);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut staged = Engine::in_process(&pool);
    let a = pagerank::run_eager(&mut staged, &g, &parts, &cfg);
    let mut pipelined = Engine::with_pipelined_shuffle(&pool);
    let b = pagerank::run_eager(&mut pipelined, &g, &parts, &cfg);

    assert!(
        a.report.global_iterations >= 5,
        "workload too small to exercise the iterative path ({} iterations)",
        a.report.global_iterations
    );
    assert_eq!(a.report.global_iterations, b.report.global_iterations);
    for (v, (x, y)) in a.ranks.iter().zip(&b.ranks).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "vertex {v} diverged across strategies");
    }

    // Per-job history meters, byte for byte.
    assert_eq!(staged.history().len(), pipelined.history().len());
    for (i, (s, p)) in staged.history().iter().zip(pipelined.history()).enumerate() {
        assert_eq!(s.name, p.name, "job {i} name");
        assert_eq!(s.meter, p.meter, "job {i} meters must be strategy-invariant");
    }

    // The pipelined engine must have recycled reduce scratch across the
    // driver's jobs, not reallocated per job.
    assert!(
        pipelined.scratch_arena().shelved() > 0,
        "pipelined reduce scratch must be shelved for reuse across jobs"
    );

    // And the driver-level wall satellite: the loop strictly contains
    // its jobs.
    assert!(b.report.driver_wall >= b.report.wall_time);
}

#[test]
fn pipelined_engine_simulates_iterative_runs_identically_to_staged() {
    // The strategy × simulation matrix, exercised through a real
    // iterative workload: identical meters ⇒ identical JobSpecs ⇒
    // identical simulated timelines.
    let g = generators::preferential_attachment_crawled(600, 3, 1, 1, 0.95, 40, 13);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut staged = Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 77));
    let a = pagerank::run_eager(&mut staged, &g, &parts, &cfg);
    let mut pipelined =
        Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 77)).pipelined();
    let b = pagerank::run_eager(&mut pipelined, &g, &parts, &cfg);

    let (sa, sb) = (a.report.sim_time.unwrap(), b.report.sim_time.unwrap());
    assert_eq!(sa, sb, "simulated time must not depend on the in-process strategy");
    for (s, p) in staged.history().iter().zip(pipelined.history()) {
        assert_eq!(s.sim, p.sim, "per-job simulated stats must agree");
    }
    // One cluster clock runs through the whole iterative run: every job
    // is submitted the instant its predecessor finished.
    let sims: Vec<_> = pipelined.history().iter().map(|r| r.sim.as_ref().unwrap()).collect();
    assert!(sims.len() > 1);
    for pair in sims.windows(2) {
        assert_eq!(pair[1].submitted_at, pair[0].finished_at);
    }
}
