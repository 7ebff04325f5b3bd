//! Invariants of the trace-analysis layer (`asyncmr_simcluster::trace`)
//! over random DAGs × seeds × the full scheduler × network-model
//! matrix.
//!
//! Three laws, each exact (integer microseconds, no tolerance):
//!
//! * **Telescoping**: the critical-path decomposition sums back to the
//!   run — `compute + wire + queue + overhead == makespan` — because
//!   every hop splits `finish[i] - finish[dep]` into the three
//!   components without remainder. The contention-free `bound()`
//!   (drop `queue`) is `<= makespan`, and meets it on a single-chain
//!   DAG, where no hop ever waits on a slot.
//!
//! * **Conservation**: the per-pair traffic matrix recovered from the
//!   [`Ev::TransferDone`] trace marks totals exactly the run's metered
//!   `network_bytes` — both count precisely the committed cross-node
//!   message shares.
//!
//! * **Alignment**: a run diffed against itself is observably empty,
//!   and the diff of two *distinct* schedulers still telescopes:
//!   `Δcompute + Δwire + Δqueue == Δmakespan` (shared cluster
//!   envelope).

use asyncmr_model::AsyncTaskSpec;
use asyncmr_simcluster::workloads::ring_exchange;
use asyncmr_simcluster::{
    diff_runs, ClusterSpec, Constant, Ev, RunRecord, SchedulerSpec, Simulation, TopologyAware,
};
use proptest::prelude::*;

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

/// A random layered DAG (the determinism suite's generator): every
/// task depends on its own partition's previous task plus a
/// mask-driven subset of the rest of the layer.
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

/// A single dependency chain: task i waits only on task i-1, so the
/// critical path is the whole schedule and no hop waits on a slot.
fn chain(n: usize, ops: u64, out: u64) -> Vec<AsyncTaskSpec> {
    (0..n)
        .map(|i| {
            let mut t = AsyncTaskSpec::new(0, i, 4 << 20, ops).with_output(out / 64 + 1, out);
            if i > 0 {
                t = t.with_deps(vec![i - 1]);
            }
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Telescoping + conservation on every (scheduler, model) cell.
    #[test]
    fn critical_path_telescopes_and_traffic_conserves(
        tasks in arb_dag(),
        seed in 0u64..1_000_000,
    ) {
        for model in MODELS {
            for spec in SchedulerSpec::ALL {
                let sched = spec.name();
                let mut sim = sim_on(model, seed).with_scheduler(spec);
                let stats = sim.run_async_schedule(&tasks);
                let analysis = sim.analyze_async_run(&tasks, &stats);
                let cp = &analysis.critical_path;
                prop_assert_eq!(
                    cp.total(), stats.duration,
                    "{}/{}: compute+wire+queue+overhead must equal the makespan", model, sched
                );
                prop_assert!(
                    cp.bound() <= stats.duration,
                    "{}/{}: the contention-free bound cannot exceed the makespan", model, sched
                );
                prop_assert_eq!(
                    analysis.traffic.total_bytes, stats.network_bytes,
                    "{}/{}: trace transfers must conserve the metered bytes", model, sched
                );
            }
        }
    }

    /// On a single-chain DAG the contention-free bound IS the makespan,
    /// under every scheduler and model (there is nothing to contend
    /// for, so `queue == 0` on every hop).
    #[test]
    fn single_chain_bound_meets_the_makespan(
        n in 1usize..12,
        ops in 1u64..30_000_000,
        out in 0u64..2 << 20,
        seed in 0u64..1_000_000,
    ) {
        let tasks = chain(n, ops, out);
        for model in MODELS {
            for spec in SchedulerSpec::ALL {
                let sched = spec.name();
                let mut sim = sim_on(model, seed).with_scheduler(spec);
                let stats = sim.run_async_schedule(&tasks);
                let analysis = sim.analyze_async_run(&tasks, &stats);
                let cp = &analysis.critical_path;
                prop_assert_eq!(cp.hops.len(), n, "{}/{}: a chain is its own path", model, sched);
                prop_assert_eq!(
                    cp.bound(), stats.duration,
                    "{}/{}: a single chain has no slot contention", model, sched
                );
            }
        }
    }

    /// A run diffed against itself is observably empty, and two runs of
    /// the same workload under different schedulers still telescope:
    /// the component deltas sum to the makespan gap exactly.
    #[test]
    fn self_diff_is_empty_and_cross_diff_telescopes(
        tasks in arb_dag(),
        seed in 0u64..1_000_000,
    ) {
        for model in MODELS {
            let mut sims: Vec<(Simulation, asyncmr_simcluster::AsyncScheduleStats)> = SchedulerSpec::ALL
                .into_iter()
                .map(|s| {
                    let mut sim = sim_on(model, seed).with_scheduler(s);
                    let stats = sim.run_async_schedule(&tasks);
                    (sim, stats)
                })
                .collect();
            let recs: Vec<RunRecord<'_>> = sims
                .iter_mut()
                .map(|(sim, stats)| RunRecord {
                    tasks: &tasks,
                    stats,
                    trace: sim.last_trace(),
                    nodes: 8,
                })
                .collect();
            for rec in &recs {
                let d = diff_runs(rec, rec);
                prop_assert!(d.is_empty(), "{}: self-diff must be empty: {:?}", model, d);
            }
            for a in &recs {
                for b in &recs {
                    let d = diff_runs(a, b);
                    prop_assert_eq!(
                        d.d_compute_us + d.d_wire_us + d.d_queue_us, d.gap_us,
                        "{}: {} vs {}: component deltas must sum to the gap",
                        model, d.scheduler_a, d.scheduler_b
                    );
                }
            }
        }
    }
}

/// The closing [`Ev::LinkUtil`] snapshot: under a model that reports
/// utilization (fair-share NICs), a run whose transfers are still
/// draining at work end records its in-flight links at simulation end;
/// the default model (no utilization notion) records none, so the
/// digest-compatible guarantee is "marks appear exactly when the model
/// has something to report".
#[test]
fn closing_snapshot_records_inflight_links_under_shared_bandwidth() {
    let tasks = ring_exchange(8, 8, 40_000_000);
    let count_link_util = |model: &str| {
        let mut sim = sim_on(model, 7);
        sim.run_async_schedule(&tasks);
        sim.last_trace().iter().filter(|te| matches!(te.ev, Ev::LinkUtil { .. })).count()
    };
    assert!(
        count_link_util("shared") > 0,
        "fair-share NICs must snapshot in-flight links at simulation end"
    );
    assert_eq!(
        count_link_util("default"),
        0,
        "the default model reports no utilization, so no LinkUtil marks"
    );
}

/// Queue depths are bounded by the admitted task count and the epochs
/// are non-decreasing in trace order.
#[test]
fn queue_depths_are_sane_on_the_ring() {
    let tasks = ring_exchange(4, 4, 10_000_000);
    let mut sim = sim_on("constant", 11);
    let stats = sim.run_async_schedule(&tasks);
    let analysis = sim.analyze_async_run(&tasks, &stats);
    let mut last_epoch = 0;
    for q in &analysis.queue_depths {
        assert!(q.depth <= tasks.len());
        assert!(q.epoch >= last_epoch, "boundaries must replay in epoch order");
        last_epoch = q.epoch;
    }
}

/// The diff must *name* the gap it reports: on the straggler ring (half
/// the nodes at quarter speed) one critical-path component, along the
/// slower run's task chain, accounts for at least half of the
/// list-vs-HEFT makespan delta.
#[test]
fn one_component_explains_most_of_the_list_vs_heft_gap_on_the_straggler_ring() {
    let tasks = ring_exchange(8, 8, 40_000_000);
    let run = |sched: SchedulerSpec| {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010().with_slow_nodes(4, 0.25), 7)
            .with_scheduler(sched);
        let stats = sim.run_async_schedule(&tasks);
        (sim, stats)
    };
    let (list_sim, list_stats) = run(SchedulerSpec::List);
    let (heft_sim, heft_stats) = run(SchedulerSpec::Heft);
    let nodes = list_sim.spec().num_nodes();
    let rec_list =
        RunRecord { tasks: &tasks, stats: &list_stats, trace: list_sim.last_trace(), nodes };
    let rec_heft =
        RunRecord { tasks: &tasks, stats: &heft_stats, trace: heft_sim.last_trace(), nodes };
    let diff = diff_runs(&rec_list, &rec_heft);
    assert!(
        diff.dominant_share >= 0.5 && !diff.slower_chain.is_empty(),
        "the trace diff must name a component and chain covering >= 50% of the \
         list-vs-heft gap (got {} at {:.0}%)",
        diff.dominant,
        diff.dominant_share * 100.0,
    );
}
