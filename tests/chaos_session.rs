//! The chaos harness: the paper's §VI fault-tolerance claim, pinned
//! end to end for the asynchronous session layer.
//!
//! MapReduce recovers from transient task failures by *deterministic
//! replay* — re-executing the pure task on its unchanged input. The
//! paper argues this carries over to partial synchronization; these
//! tests make that claim falsifiable for the reproduction:
//!
//! * **In-process**: with transient gmap failures injected at
//!   p ∈ {0.05, 0.2} (`AttemptFailurePlan`, deterministic per-attempt
//!   verdicts), `pagerank::run_async` / `sssp::run_async` at
//!   `max_lag = 0` produce **bitwise-identical** ranks / distances and
//!   iteration counts to the *failure-free barrier* `FixedPointDriver`
//!   path — recovery is invisible in the result, visible only in the
//!   wasted-attempt accounting.
//! * **Simulated**: `Simulation::run_async_schedule` under the same
//!   `AttemptFailurePlan` regime as the barrier `run_job` path completes the
//!   identical dependency graph, with the recovery cost metered
//!   (`failed_attempts`, `recovery_time`) and the whole replay still a
//!   pure function of `(ClusterSpec, AttemptFailurePlan, seed, tasks)`.
//! * **Under staleness**: failures at `max_lag > 0` still converge to
//!   the same fixed point within the declared tolerance.

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::apps::sssp::{self, SsspConfig};
use asyncmr::core::{AsyncFixedPointDriver, AttemptFailurePlan, Engine, NodeFailurePlan};
use asyncmr::graph::{generators, CsrGraph, WeightedGraph};
use asyncmr::model::{JobSpec, MapTaskSpec, ReduceTaskSpec, SimTime};
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Ev, Simulation};

/// The fixed seed matrix CI's chaos smoke step runs under: every
/// (probability, seed) cell must both *trigger* failures and *hide*
/// them from the result.
const CHAOS_PROBS: [f64; 2] = [0.05, 0.2];
const CHAOS_SEEDS: [u64; 2] = [42, 1007];
/// Checkpoint intervals the node-failure cells sweep (paired with
/// `CHAOS_PROBS`): every-iteration vs every-4-iterations rollback
/// targets.
const CHAOS_CKPT_INTERVALS: [usize; 2] = [1, 4];

fn crawl_graph(n: usize, seed: u64) -> CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed)
}

#[test]
fn pagerank_chaos_lag0_matches_the_failure_free_barrier_driver_bitwise() {
    let g = crawl_graph(900, 4);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    // The oracle is the *failure-free barrier* driver — not merely the
    // clean async run — so the assertion spans both the async schedule
    // and the recovery machinery at once.
    let mut engine = Engine::in_process(&pool);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);

    for prob in CHAOS_PROBS {
        for seed in CHAOS_SEEDS {
            let faulty = pagerank::run_async_with_driver(
                &pool,
                &g,
                &parts,
                &cfg,
                AsyncFixedPointDriver::new(cfg.max_iterations)
                    .with_failures(AttemptFailurePlan::transient(prob), seed),
            );
            assert!(
                faulty.report.failed_attempts > 0,
                "p = {prob}, seed {seed}: injection must actually fire"
            );
            assert_eq!(
                faulty.report.global_iterations, barrier.report.global_iterations,
                "p = {prob}, seed {seed}: recovery must not change the iteration count"
            );
            assert_eq!(
                faulty.report.local_syncs, barrier.report.local_syncs,
                "contributing-work meters must ignore dead attempts"
            );
            for (v, (a, b)) in faulty.ranks.iter().zip(&barrier.ranks).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "p = {prob}, seed {seed}, vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn sssp_chaos_lag0_matches_the_failure_free_barrier_driver_bitwise() {
    let g = crawl_graph(800, 12);
    let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 5);
    let parts = MultilevelKWay::default().partition(wg.graph(), 6);
    let pool = ThreadPool::new(4);
    let cfg = SsspConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = sssp::run_eager(&mut engine, &wg, &parts, &cfg);

    for prob in CHAOS_PROBS {
        for seed in CHAOS_SEEDS {
            let faulty = sssp::run_async_with_driver(
                &pool,
                &wg,
                &parts,
                &cfg,
                AsyncFixedPointDriver::new(cfg.max_iterations)
                    .with_failures(AttemptFailurePlan::transient(prob), seed),
            );
            assert!(faulty.report.failed_attempts > 0, "p = {prob}, seed {seed}: must fire");
            assert_eq!(faulty.report.global_iterations, barrier.report.global_iterations);
            for (v, (a, b)) in faulty.distances.iter().zip(&barrier.distances).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                    "p = {prob}, seed {seed}, vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn chaos_under_staleness_still_reaches_the_fixed_point() {
    let g = crawl_graph(700, 6);
    let parts = MultilevelKWay::default().partition(&g, 5);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig { tolerance: 1e-9, ..Default::default() };
    let exact = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
    for lag in [1usize, 3] {
        let faulty = pagerank::run_async_with_driver(
            &pool,
            &g,
            &parts,
            &cfg,
            AsyncFixedPointDriver::new(cfg.max_iterations)
                .with_max_lag(lag)
                .with_failures(AttemptFailurePlan::transient(0.2), 17),
        );
        assert!(faulty.report.converged, "lag {lag} under failures must still converge");
        let diff = pagerank::inf_norm_diff(&exact.ranks, &faulty.ranks);
        assert!(diff < 1e-6, "lag {lag} under failures drifted the fixed point by {diff}");
    }
}

#[test]
fn failed_and_speculative_work_are_accounted_as_waste() {
    let g = crawl_graph(600, 9);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();
    let clean = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
    assert_eq!(clean.report.failed_attempts, 0);
    assert_eq!(clean.report.failed_attempt_time, std::time::Duration::ZERO);

    let faulty = pagerank::run_async_with_driver(
        &pool,
        &g,
        &parts,
        &cfg,
        AsyncFixedPointDriver::new(cfg.max_iterations)
            .with_failures(AttemptFailurePlan::transient(0.2), 42),
    );
    assert!(faulty.report.failed_attempts > 0);
    assert!(
        faulty.report.failed_attempt_time > std::time::Duration::ZERO,
        "dead attempts burn real gmap time"
    );
    // Contributing work is identical, so the recorded replay schedules
    // have the same shape.
    assert_eq!(faulty.report.gmap_tasks, clean.report.gmap_tasks);
    assert_eq!(faulty.report.schedule.len(), clean.report.schedule.len());
}

#[test]
fn simulated_async_replay_completes_the_same_graph_under_failures() {
    let g = crawl_graph(900, 4);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();
    let schedule = pagerank::run_async(&pool, &g, &parts, &cfg, 0).report.schedule;

    let clean = Simulation::new(ClusterSpec::ec2_2010(), 7).run_async_schedule(&schedule);
    for prob in CHAOS_PROBS {
        let faulty = Simulation::new(ClusterSpec::ec2_2010(), 7)
            .with_failures(AttemptFailurePlan::transient(prob))
            .run_async_schedule(&schedule);
        // Same dependency graph, fully completed, in dependency order.
        assert_eq!(faulty.tasks, schedule.len());
        for (i, t) in schedule.iter().enumerate() {
            for &d in &t.deps {
                assert!(
                    faulty.task_finish[d] < faulty.task_finish[i],
                    "p = {prob}: task {i} outran its dependency {d}"
                );
            }
        }
        // Recovery is visible in the stats, not hidden in the clock.
        assert!(faulty.failed_attempts > 0, "p = {prob}: injection must fire");
        assert!(faulty.recovery_time.as_secs_f64() > 0.0);
        assert!(
            faulty.duration > clean.duration,
            "p = {prob}: recovery must cost simulated time ({} vs clean {})",
            faulty.duration,
            clean.duration
        );
        // And the replay stays a pure function of its inputs.
        let again = Simulation::new(ClusterSpec::ec2_2010(), 7)
            .with_failures(AttemptFailurePlan::transient(prob))
            .run_async_schedule(&schedule);
        assert_eq!(faulty, again, "p = {prob}: failure replay must be deterministic");
    }
}

#[test]
fn pagerank_node_failure_rollback_matches_the_failure_free_barrier_driver_bitwise() {
    // The PR-5 headline: node-level correlated failures force *real
    // rollback* — delivered iterations are re-executed from the last
    // checkpoint — and recovery is still invisible in the result. The
    // oracle is the failure-free *barrier* driver, so the assertion
    // spans the async schedule, the checkpoint subsystem, and the
    // rollback engine at once, across every (interval, probability)
    // cell of the CI matrix.
    let g = crawl_graph(900, 4);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);

    for k in CHAOS_CKPT_INTERVALS {
        for prob in CHAOS_PROBS {
            for seed in CHAOS_SEEDS {
                let faulty = pagerank::run_async_with_driver(
                    &pool,
                    &g,
                    &parts,
                    &cfg,
                    AsyncFixedPointDriver::new(cfg.max_iterations)
                        .with_node_failures(NodeFailurePlan::correlated(prob, seed, k), 3),
                );
                assert!(
                    faulty.report.rollbacks > 0,
                    "k = {k}, p = {prob}, seed {seed}: node deaths must actually fire"
                );
                assert!(
                    faulty.report.checkpoint_bytes > 0,
                    "k = {k}: checkpoints must be declared and metered"
                );
                assert_eq!(
                    faulty.report.global_iterations, barrier.report.global_iterations,
                    "k = {k}, p = {prob}, seed {seed}: rollback must not change the iteration count"
                );
                assert_eq!(
                    faulty.report.local_syncs, barrier.report.local_syncs,
                    "contributing-work meters must exclude rolled-back executions"
                );
                for (v, (a, b)) in faulty.ranks.iter().zip(&barrier.ranks).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "k = {k}, p = {prob}, seed {seed}, vertex {v}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn sssp_node_failure_rollback_matches_the_failure_free_barrier_driver_bitwise() {
    let g = crawl_graph(800, 12);
    let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 5);
    let parts = MultilevelKWay::default().partition(wg.graph(), 6);
    let pool = ThreadPool::new(4);
    let cfg = SsspConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = sssp::run_eager(&mut engine, &wg, &parts, &cfg);

    for k in CHAOS_CKPT_INTERVALS {
        for prob in CHAOS_PROBS {
            let faulty = sssp::run_async_with_driver(
                &pool,
                &wg,
                &parts,
                &cfg,
                AsyncFixedPointDriver::new(cfg.max_iterations)
                    .with_node_failures(NodeFailurePlan::correlated(prob, 42, k), 3),
            );
            assert!(faulty.report.rollbacks > 0, "k = {k}, p = {prob}: must fire");
            assert_eq!(faulty.report.global_iterations, barrier.report.global_iterations);
            for (v, (a, b)) in faulty.distances.iter().zip(&barrier.distances).enumerate() {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_infinite() && b.is_infinite()),
                    "k = {k}, p = {prob}, vertex {v}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn node_failure_rollback_under_staleness_still_reaches_the_fixed_point() {
    let g = crawl_graph(700, 6);
    let parts = MultilevelKWay::default().partition(&g, 5);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig { tolerance: 1e-9, ..Default::default() };
    let exact = pagerank::run_async(&pool, &g, &parts, &cfg, 0);
    for lag in [1usize, 3] {
        let faulty = pagerank::run_async_with_driver(
            &pool,
            &g,
            &parts,
            &cfg,
            AsyncFixedPointDriver::new(cfg.max_iterations)
                .with_max_lag(lag)
                .with_node_failures(NodeFailurePlan::correlated(0.15, 17, 2), 3),
        );
        assert!(faulty.report.converged, "lag {lag} under node failures must still converge");
        let diff = pagerank::inf_norm_diff(&exact.ranks, &faulty.ranks);
        assert!(diff < 1e-6, "lag {lag} under node failures drifted the fixed point by {diff}");
    }
}

#[test]
fn simulated_node_death_replay_is_deterministic_and_meters_rollback() {
    let g = crawl_graph(900, 4);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();
    let schedule = pagerank::run_async(&pool, &g, &parts, &cfg, 0).report.schedule;

    let clean = Simulation::new(ClusterSpec::ec2_2010(), 7).run_async_schedule(&schedule);
    assert_eq!(clean.node_failures, 0);
    assert_eq!(clean.rollback_time, SimTime::ZERO);

    for k in CHAOS_CKPT_INTERVALS {
        for prob in CHAOS_PROBS {
            let plan = NodeFailurePlan::correlated(prob, 42, k);
            let faulty = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_node_failures(plan)
                .run_async_schedule(&schedule);
            // Same dependency graph, fully completed, in order.
            assert_eq!(faulty.tasks, schedule.len());
            for (i, t) in schedule.iter().enumerate() {
                for &d in &t.deps {
                    assert!(
                        faulty.task_finish[d] < faulty.task_finish[i],
                        "k = {k}, p = {prob}: task {i} outran its dependency {d}"
                    );
                }
            }
            assert!(faulty.node_failures > 0, "k = {k}, p = {prob}: deaths must fire");
            assert!(faulty.rollback_time > SimTime::ZERO, "rollback must be metered");
            assert!(
                faulty.duration >= clean.duration,
                "k = {k}, p = {prob}: node deaths cannot make the replay faster"
            );
            // Byte-identical schedules on identical inputs — the
            // determinism contract the acceptance criteria pin.
            let again = Simulation::new(ClusterSpec::ec2_2010(), 7)
                .with_node_failures(plan)
                .run_async_schedule(&schedule);
            assert_eq!(faulty, again, "k = {k}, p = {prob}: replay must be deterministic");
        }
    }
}

/// Barrier node-death cells: the unified event core taught
/// `Simulation::run_job` the `NodeFailurePlan` regime the async path
/// already had. A killed TaskTracker loses its running attempts *and*
/// its unfetched map outputs; JobTracker re-runs them elsewhere after
/// the detection delay. Per matrix cell: completion, no lost splits,
/// no completions credited to a dead node, and byte-identical replays.
#[test]
fn simulated_barrier_jobs_survive_node_deaths_across_the_chaos_matrix() {
    let job = JobSpec::named("chaos-barrier")
        .with_maps(vec![MapTaskSpec::new(32 << 20, 20_000_000, 4 << 20); 24])
        .with_reduces(vec![ReduceTaskSpec::new(2_000_000, 8 << 20); 8]);
    let jobs = 3usize;

    for prob in [0.3, 0.6] {
        for seed in CHAOS_SEEDS {
            let plan = NodeFailurePlan::correlated(prob, seed, 1);
            let run = |_: ()| {
                let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 7).with_node_failures(plan);
                let mut all = Vec::new();
                let mut digests = Vec::new();
                for _ in 0..jobs {
                    all.push(sim.run_job(&job));
                    digests.push(sim.trace_digest());
                    // The dead node never completes current-incarnation
                    // work while it is down: scan the popped-order
                    // trace, tracking the live/dead window per node.
                    let n = sim.spec().num_nodes();
                    let mut dead = vec![false; n];
                    let mut deaths = vec![0u32; n];
                    for te in sim.last_trace() {
                        match te.ev {
                            Ev::NodeDeath { node } => {
                                dead[node] = true;
                                deaths[node] += 1;
                            }
                            Ev::NodeRejoin { node } => dead[node] = false,
                            Ev::MapDone { node, incarnation, .. }
                            | Ev::ReduceDone { node, incarnation, .. } => {
                                assert!(
                                    !(dead[node] && incarnation == deaths[node]),
                                    "p = {prob}, seed {seed}: live completion on a dead node"
                                );
                            }
                            _ => {}
                        }
                    }
                }
                (all, digests)
            };
            let (stats, digests) = run(());
            let total_deaths: u32 = stats.iter().map(|s| s.node_failures).sum();
            assert!(total_deaths > 0, "p = {prob}, seed {seed}: deaths must fire");
            for s in &stats {
                // No lost splits: every map and reduce completed
                // despite mid-job deaths.
                assert_eq!(s.map_tasks, job.maps.len(), "p = {prob}, seed {seed}");
                assert_eq!(s.reduce_tasks, job.reduces.len());
                if s.node_failures > 0 {
                    assert!(
                        s.node_lost_tasks > 0,
                        "p = {prob}, seed {seed}: a mid-job death must cost attempts"
                    );
                }
            }
            // Deterministic reschedule: the whole multi-job replay —
            // stats and event traces — is byte-identical on re-run.
            let (stats2, digests2) = run(());
            assert_eq!(stats, stats2, "p = {prob}, seed {seed}: stats drifted");
            assert_eq!(digests, digests2, "p = {prob}, seed {seed}: traces drifted");
        }
    }
}

#[test]
fn barrier_node_deaths_cost_time_against_the_clean_run() {
    let job = JobSpec::named("chaos-cost")
        .with_maps(vec![MapTaskSpec::new(32 << 20, 20_000_000, 4 << 20); 24])
        .with_reduces(vec![ReduceTaskSpec::new(2_000_000, 8 << 20); 8]);
    let clean = Simulation::new(ClusterSpec::ec2_2010(), 7).run_job(&job);
    assert_eq!(clean.node_failures, 0);
    assert_eq!(clean.node_lost_tasks, 0);
    let faulty = Simulation::new(ClusterSpec::ec2_2010(), 7)
        .with_node_failures(NodeFailurePlan::correlated(0.6, 42, 1))
        .run_job(&job);
    assert!(faulty.node_failures > 0, "near-certain deaths must fire");
    assert!(
        faulty.duration > clean.duration,
        "losing attempts and outputs must lengthen the job: {} vs {}",
        faulty.duration,
        clean.duration
    );
}

#[test]
fn async_recovery_stays_cheaper_than_the_barrier_job_sequence() {
    // The §VI comparison the paper makes qualitatively, as a pinned
    // inequality: under the same failure regime, the async session's
    // recovery (no per-iteration envelope to re-enter) still beats the
    // barrier driver's failure-lengthened job sequence.
    let g = crawl_graph(900, 4);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let sim = Simulation::new(ClusterSpec::ec2_2010(), 7)
        .with_failures(AttemptFailurePlan::transient(0.2));
    let mut engine = Engine::with_simulation(&pool, sim);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
    let barrier_secs = barrier.report.sim_time.expect("simulated").as_secs_f64();

    let schedule = pagerank::run_async(&pool, &g, &parts, &cfg, 0).report.schedule;
    let faulty_async = Simulation::new(ClusterSpec::ec2_2010(), 7)
        .with_failures(AttemptFailurePlan::transient(0.2))
        .run_async_schedule(&schedule);
    assert!(faulty_async.failed_attempts > 0);
    assert!(
        faulty_async.duration.as_secs_f64() < barrier_secs,
        "async-with-failures ({}) must still beat barrier-with-failures ({barrier_secs:.1}s)",
        faulty_async.duration
    );
}
