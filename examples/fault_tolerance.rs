//! Fault tolerance under partial synchronization (paper §VI).
//!
//! The paper argues partial synchronization keeps MapReduce's
//! deterministic-replay fault tolerance, with "slightly longer"
//! recovery because eager tasks are coarser. This example injects
//! transient task failures into the simulated cluster and shows:
//! (1) results are bit-identical with and without failures, and
//! (2) the time overhead of re-execution for both variants — then does
//! the same for the *asynchronous session* (`pagerank::run_async`),
//! where the same `AttemptFailurePlan` kills real gmap attempts
//! in-process and the recorded schedule is replayed on the failing
//! simulated cluster.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::core::{AsyncFixedPointDriver, AttemptFailurePlan, Engine, NodeFailurePlan};
use asyncmr::graph::presets;
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};

fn main() {
    let graph = presets::graph_a(0.02);
    let parts = MultilevelKWay::default().partition(&graph, 8);
    let pool = ThreadPool::with_default_parallelism();
    let cfg = PageRankConfig::default();

    println!("variant  failure rate  sim time (s)  re-executions  identical ranks");
    for eager in [false, true] {
        let name = if eager { "Eager" } else { "General" };
        let mut baseline_ranks: Option<Vec<f64>> = None;
        for prob in [0.0, 0.02, 0.05] {
            let plan = AttemptFailurePlan::transient(prob);
            let sim = Simulation::new(ClusterSpec::ec2_2010(), 11).with_failures(plan);
            let mut engine = Engine::with_simulation(&pool, sim);
            let outcome = if eager {
                pagerank::run_eager(&mut engine, &graph, &parts, &cfg)
            } else {
                pagerank::run_general(&mut engine, &graph, &parts, &cfg)
            };
            let reexecutions: u32 = engine
                .history()
                .iter()
                .filter_map(|r| r.sim.as_ref())
                .map(|s| s.failed_attempts)
                .sum();
            let identical = match &baseline_ranks {
                None => {
                    baseline_ranks = Some(outcome.ranks.clone());
                    "(baseline)".to_string()
                }
                Some(base) => {
                    let same = base.iter().zip(&outcome.ranks).all(|(a, b)| (a - b).abs() < 1e-12);
                    if same {
                        "yes".to_string()
                    } else {
                        "NO — BUG".to_string()
                    }
                }
            };
            println!(
                "{name:>7}  {:>11}%  {:>12.0}  {reexecutions:>13}  {identical}",
                prob * 100.0,
                outcome.report.sim_time.unwrap().as_secs_f64(),
            );
        }
    }
    // The asynchronous session: failures hit real in-process gmap
    // attempts (deterministically, per (seed, partition, iteration,
    // attempt)), and the recorded cross-iteration schedule replays on
    // the same failing cluster.
    // Two independent injectors, reported separately: "gmap re-exec"
    // counts real in-process attempts the session re-executed, "sim
    // re-exec" counts the simulated replay's own injected retries.
    println!("\nvariant  failure rate  sim time (s)  gmap re-exec  sim re-exec  identical ranks");
    let mut baseline_ranks: Option<Vec<f64>> = None;
    for prob in [0.0, 0.02, 0.05] {
        let plan = AttemptFailurePlan::transient(prob); // one regime, both layers
        let out = pagerank::run_async_with_driver(
            &pool,
            &graph,
            &parts,
            &cfg,
            AsyncFixedPointDriver::new(cfg.max_iterations).with_failures(plan, 2026),
        );
        let replay = Simulation::new(ClusterSpec::ec2_2010(), 11)
            .with_failures(plan)
            .run_async_schedule(&out.report.schedule);
        let identical = match &baseline_ranks {
            None => {
                baseline_ranks = Some(out.ranks.clone());
                "(baseline)".to_string()
            }
            Some(base) => {
                let same = base.iter().zip(&out.ranks).all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    "yes (bitwise)".to_string()
                } else {
                    "NO — BUG".to_string()
                }
            }
        };
        println!(
            "{:>7}  {:>11}%  {:>12.0}  {:>12}  {:>11}  {identical}",
            "Async",
            prob * 100.0,
            replay.duration.as_secs_f64(),
            out.report.failed_attempts,
            replay.failed_attempts,
        );
    }
    println!(
        "\nDeterministic replay: failed task attempts are re-executed, results never change; \
         only completion time does (paper §VI, 'Fault-tolerance'). The async session keeps \
         the property with in-process attempt tracking — and recovers on the dependency \
         graph instead of re-entering a per-iteration job envelope."
    );

    // Node-level correlated failures: a dying node takes its in-flight
    // attempts AND its delivered async outputs past the last checkpoint
    // with it, so the session must actually roll back — rewind the
    // contaminated partitions to the checkpoint and re-execute. The
    // checkpoint interval trades checkpoint bytes against re-execution
    // debt; the ranks never move a bit.
    let baseline = pagerank::run_async(&pool, &graph, &parts, &cfg, 0);
    println!(
        "\nvariant  ckpt k  rollbacks  rb iters  ckpt KiB  peak KiB  sim rollback (s)  identical ranks"
    );
    for k in [1usize, 4] {
        let deaths = NodeFailurePlan::correlated(0.1, 2026, k); // one regime, both layers
        let out = pagerank::run_async_with_driver(
            &pool,
            &graph,
            &parts,
            &cfg,
            AsyncFixedPointDriver::new(cfg.max_iterations).with_node_failures(deaths, 8),
        );
        let replay = Simulation::new(ClusterSpec::ec2_2010(), 11)
            .with_node_failures(deaths)
            .run_async_schedule(&out.report.schedule);
        let same = baseline.ranks.iter().zip(&out.ranks).all(|(a, b)| a.to_bits() == b.to_bits());
        println!(
            "{:>7}  {k:>6}  {:>9}  {:>8}  {:>8.1}  {:>8.1}  {:>16.0}  {}",
            "Async",
            out.report.rollbacks,
            out.report.rolled_back_iterations,
            out.report.checkpoint_bytes as f64 / 1024.0,
            out.report.peak_state_bytes as f64 / 1024.0,
            replay.rollback_time.as_secs_f64(),
            if same { "yes (bitwise)" } else { "NO — BUG" },
        );
    }
    println!(
        "\nCheckpoint/rollback: node death revokes delivered state, the rollback engine \
         rewinds the affected partitions (transitively) to the last coordinated checkpoint, \
         and pure re-execution reproduces the fixed point bit for bit."
    );
}
