//! Determinism property tests for the unified event core: random task
//! DAGs × seeds × network models.
//!
//! The contract under test is the acceptance criterion of the
//! event-core refactor: a simulation is a *pure function* of
//! `(ClusterSpec, NetworkModel, AttemptFailurePlan, NodeFailurePlan, seed,
//! workload)` — same inputs give a **byte-identical event trace**
//! (pinned via the order-sensitive trace digest) and byte-identical
//! stats, on every network model; and the seed genuinely matters
//! (different seeds perturb the schedule — smoke-checked, since a
//! degenerate workload can legitimately be seed-independent).

use asyncmr_model::{
    AsyncTaskSpec, AttemptFailurePlan, JobSpec, MapTaskSpec, NodeFailurePlan, ReduceTaskSpec,
};
use asyncmr_simcluster::{ClusterSpec, Constant, SchedulerSpec, Simulation, TopologyAware};
use proptest::prelude::*;

/// The model matrix every property sweeps. Index 0 is the default
/// store-and-forward state; the rest are the pluggable models
/// ("shared" is the uniform fluid fabric: fair-shared NICs).
const MODELS: [&str; 3] = ["default", "constant", "shared"];

fn sim_on(model: &str, seed: u64) -> Simulation {
    let spec = ClusterSpec::ec2_2010();
    let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
    match model {
        "default" => Simulation::new(spec, seed),
        "constant" => Simulation::new(spec, seed).with_network(Constant::new(n, bw, lat)),
        "shared" => Simulation::new(spec, seed).with_network(TopologyAware::uniform(n, bw, lat)),
        other => panic!("unknown model {other}"),
    }
}

/// A random layered DAG: `parts` × `iters` tasks, each task depending
/// on a mask-driven subset of the previous layer (always including its
/// own partition, so chains exist). Pure function of the drawn values.
fn dag(parts: usize, iters: usize, mask: u64, ops: u64, out: u64) -> Vec<AsyncTaskSpec> {
    let mut tasks = Vec::with_capacity(parts * iters);
    for i in 0..iters {
        for p in 0..parts {
            let mut t = AsyncTaskSpec::new(p, i, 8 << 20, ops + (p as u64) * 1_000_000)
                .with_output(out / 64 + 1, out);
            if i > 0 {
                let base = (i - 1) * parts;
                let mut deps = vec![base + p];
                for q in 0..parts {
                    if q != p && (mask >> ((p * 7 + q * 13 + i) % 64)) & 1 == 1 {
                        deps.push(base + q);
                    }
                }
                deps.sort_unstable();
                t = t.with_deps(deps);
            }
            tasks.push(t);
        }
    }
    tasks
}

fn arb_dag() -> impl Strategy<Value = Vec<AsyncTaskSpec>> {
    (1usize..8, 1usize..5, any::<u64>(), 1u64..40_000_000, 0u64..4 << 20)
        .prop_map(|(parts, iters, mask, ops, out)| dag(parts, iters, mask, ops, out))
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    let maps = proptest::collection::vec(
        (0u64..48 << 20, 0u64..40_000_000, 0u64..8 << 20)
            .prop_map(|(i, o, b)| MapTaskSpec::new(i, o, b)),
        0..24,
    );
    let reduces = proptest::collection::vec(
        (0u64..8_000_000, 0u64..8 << 20).prop_map(|(o, b)| ReduceTaskSpec::new(o, b)),
        0..10,
    );
    (maps, reduces).prop_map(|(m, r)| JobSpec::named("prop").with_maps(m).with_reduces(r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Async replays: same (DAG, seed, model) ⇒ identical stats and a
    /// byte-identical event trace, on every model.
    #[test]
    fn async_replay_is_deterministic_on_every_model(
        tasks in arb_dag(),
        seed in 0u64..10_000,
    ) {
        for model in MODELS {
            let mut a = sim_on(model, seed);
            let sa = a.run_async_schedule(&tasks);
            let mut b = sim_on(model, seed);
            let sb = b.run_async_schedule(&tasks);
            prop_assert_eq!(&sa, &sb, "{}: stats drifted", model);
            prop_assert_eq!(
                a.trace_digest(), b.trace_digest(),
                "{}: event trace must be byte-identical", model
            );
            prop_assert_eq!(a.last_trace().len(), b.last_trace().len());
        }
    }

    /// Barrier jobs: same (job, seed, model) ⇒ identical stats and
    /// trace, on every model.
    #[test]
    fn barrier_job_is_deterministic_on_every_model(
        job in arb_job(),
        seed in 0u64..10_000,
    ) {
        for model in MODELS {
            let mut a = sim_on(model, seed);
            let sa = a.run_job(&job);
            let mut b = sim_on(model, seed);
            let sb = b.run_job(&job);
            prop_assert_eq!(&sa, &sb, "{}: stats drifted", model);
            prop_assert_eq!(
                a.trace_digest(), b.trace_digest(),
                "{}: event trace must be byte-identical", model
            );
        }
    }

    /// The full scheduler × network-model matrix: every scheduler is a
    /// pure function of its inputs on every model — byte-identical
    /// stats and trace digests across repeat runs — the default path
    /// (no `with_scheduler`) is exactly the list scheduler, and no
    /// commit ever beats its estimate.
    #[test]
    fn scheduler_matrix_is_deterministic_on_every_model(
        tasks in arb_dag(),
        seed in 0u64..10_000,
    ) {
        for model in MODELS {
            for spec in SchedulerSpec::ALL {
                let sched = spec.name();
                let mut a = sim_on(model, seed).with_scheduler(spec);
                let sa = a.run_async_schedule(&tasks);
                let mut b = sim_on(model, seed).with_scheduler(spec);
                let sb = b.run_async_schedule(&tasks);
                prop_assert_eq!(&sa, &sb, "{}/{}: stats drifted", model, sched);
                prop_assert_eq!(
                    a.trace_digest(), b.trace_digest(),
                    "{}/{}: event trace must be byte-identical", model, sched
                );
                prop_assert_eq!(sa.scheduler, sched, "{}: stats must name the policy", model);
                prop_assert_eq!(
                    sa.commit.violations, 0,
                    "{}/{}: a commit may never beat its estimate", model, sched
                );
                if spec == SchedulerSpec::List {
                    let mut d = sim_on(model, seed);
                    let sd = d.run_async_schedule(&tasks);
                    prop_assert_eq!(&sa, &sd, "{}: default must equal the list scheduler", model);
                    prop_assert_eq!(a.trace_digest(), d.trace_digest(), "{}: default trace", model);
                }
            }
        }
    }

    /// Determinism survives both failure regimes stacked on top.
    #[test]
    fn failure_regimes_stay_deterministic(
        tasks in arb_dag(),
        seed in 0u64..10_000,
        prob in 0.0f64..0.4,
    ) {
        for model in MODELS {
            let plan = AttemptFailurePlan::transient(prob);
            let deaths = NodeFailurePlan::correlated(prob / 2.0, seed ^ 0xd1e, 2);
            let mut a = sim_on(model, seed)
                .with_failures(plan)
                .with_node_failures(deaths);
            let sa = a.run_async_schedule(&tasks);
            let mut b = sim_on(model, seed)
                .with_failures(plan)
                .with_node_failures(deaths);
            let sb = b.run_async_schedule(&tasks);
            prop_assert_eq!(&sa, &sb, "{}: failure replay drifted", model);
            prop_assert_eq!(a.trace_digest(), b.trace_digest(), "{}: trace drifted", model);
        }
    }
}

/// Smoke: the seed genuinely perturbs a non-degenerate workload (via
/// locality draws and stragglers), on every model, both paths.
#[test]
fn different_seeds_produce_different_schedules() {
    let tasks = dag(8, 4, 0xdead_beef, 30_000_000, 2 << 20);
    let job = JobSpec::named("smoke")
        .with_maps(vec![MapTaskSpec::new(32 << 20, 30_000_000, 4 << 20); 24])
        .with_reduces(vec![ReduceTaskSpec::new(2_000_000, 8 << 20); 8]);
    for model in MODELS {
        let a = sim_on(model, 1).run_async_schedule(&tasks);
        let b = sim_on(model, 2).run_async_schedule(&tasks);
        assert_ne!(a.task_finish, b.task_finish, "{model}: async seed must matter");
        let ja = sim_on(model, 1).run_job(&job);
        let jb = sim_on(model, 2).run_job(&job);
        assert_ne!(ja, jb, "{model}: barrier seed must matter");
    }
}
