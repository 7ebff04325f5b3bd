//! Replay-fidelity golden tests: the unified event core must reproduce
//! the pre-refactor simulator bit-for-bit.
//!
//! Before `simcluster` was rebuilt around [`asyncmr_simcluster::event_core`],
//! the barrier path (`Simulation::run_job`) ran on a store-and-forward
//! NIC model and the async path (`Simulation::run_async_schedule`)
//! priced message edges with an uncontended latency+bandwidth formula.
//! The golden values pinned here were captured from that pre-refactor
//! engine (fixed seeds, the five paper apps' workload shapes) and the
//! unified core must reproduce them exactly:
//!
//! * barrier × default (NIC-serialized) model  → `BARRIER_GOLDEN`
//! * barrier × constant model                  → `BARRIER_CONSTANT_GOLDEN`
//!   (captured from the pre-refactor engine with NIC occupancy disabled
//!   — the uncontended semantics the `Constant` model now names)
//! * async × constant model                    → `ASYNC_GOLDEN`
//!   (the pre-refactor async formula *was* the constant model: latency
//!   + share/bandwidth, no occupancy)
//!
//! Intentional deltas are documented next to their assertions; anything
//! else is drift and must fail this suite.
//!
//! The workload generators are pure functions of the app name (task
//! counts, byte volumes, and dependency shapes modeled on how the five
//! apps meter on the engine), so the goldens are reproducible from this
//! file alone: `cargo test -p asyncmr-simcluster --test replay_fidelity
//! -- --ignored --nocapture` re-prints the golden tables.

use asyncmr_model::{splitmix64, underflow_count, AttemptFailurePlan, NodeFailurePlan};
use asyncmr_simcluster::workloads::{async_schedule, barrier_jobs, APPS, ASYNC_SEED, BARRIER_SEED};
use asyncmr_simcluster::{ClusterSpec, Constant, Simulation};

// -------------------------------------------------------------------------
// Golden tables, captured from the pre-refactor engine (commit 07afebf).
// Tuple fields: (app, total/duration µs, network bytes, failed attempts,
// duration/finish digest, locality/placement digest).
// -------------------------------------------------------------------------

/// Barrier iteration sequences, default store-and-forward NIC model.
const BARRIER_GOLDEN: [(&str, u64, u64, u32, u64, u64); 5] = [
    ("pagerank", 230693137, 3598712832, 0, 0x04bf5e11401b895c, 0x3d06d892a1f8d432),
    ("sssp", 163318556, 897580896, 0, 0xe15a7cc6212780a4, 0x4249e63f4bd8c364),
    ("cc", 128324641, 1115684864, 0, 0xaee30b9fd6666711, 0xc9d4cf370990c057),
    ("kmeans", 110851957, 703201280, 0, 0xfc8037187c6abecb, 0x23d423d8e358f324),
    ("jacobi", 135664597, 437139472, 0, 0xb1dc6fcb4e4cd4e5, 0x12728702c0185121),
];

/// Barrier iteration sequences, uncontended semantics — captured from
/// the pre-refactor engine with NIC occupancy disabled, which is the
/// exact contract the [`Constant`] model now names.
const BARRIER_CONSTANT_GOLDEN: [(&str, u64, u64, u32, u64, u64); 5] = [
    ("pagerank", 214591676, 3598712832, 0, 0x2e0572bc566690a3, 0x3d06d892a1f8d432),
    ("sssp", 160279069, 897580896, 0, 0xcc8adc0158c8b1f0, 0x4249e63f4bd8c364),
    ("cc", 121896051, 1115684864, 0, 0x71b3306521e393b0, 0xc9d4cf370990c057),
    ("kmeans", 110846977, 703201280, 0, 0x32933ae6d3edd622, 0x23d423d8e358f324),
    ("jacobi", 133585872, 437139472, 0, 0xb736094e4b899f2b, 0x12728702c0185121),
];

/// Async eager schedules. The pre-refactor scheduler priced message
/// edges as `finish + latency + share/bandwidth` with no occupancy —
/// i.e. the [`Constant`] model — so these goldens are asserted under
/// `with_network(Constant)`. (Under the default store-and-forward
/// model the async path now sees NIC contention for the first time;
/// that intentional delta is pinned separately below.)
const ASYNC_GOLDEN: [(&str, u64, u64, usize, u64, u64); 5] = [
    ("pagerank", 51087853, 257949696, 0, 0x11e86fc85435c0f3, 0xae7e457c086000e6),
    ("sssp", 37467802, 32505856, 0, 0x544348cc2cb8990b, 0x1b03c9e6eacfff7c),
    ("cc", 33969824, 83886080, 0, 0x1830e462413defbe, 0x90dbb61a94248864),
    ("kmeans", 38397594, 25165824, 0, 0xbc36cf42c264c709, 0x2a9e372bb5aa8907),
    ("jacobi", 30691824, 26965865, 0, 0x72c4b6569396d628, 0x3c6f01532700ca93),
];

/// pagerank barrier, seed 42, `AttemptFailurePlan::transient(0.15)` — pins the
/// RNG draw order of the transient-injection path.
const BARRIER_FAILURE_GOLDEN: (u64, u64, u32, u64, u64) =
    (361030832, 3900702720, 29, 0x1b04c2858a048343, 0x2e9fdda562562a42);

/// pagerank async, seed 1007, transient(0.15) +
/// `NodeFailurePlan::correlated(0.10, 77, 2)` (checkpointed every 2), [`Constant`] model —
/// pins the RNG draw order of both async injection paths at once.
const ASYNC_FAILURE_GOLDEN: (u64, u64, usize, u64, u64) =
    (161735875, 685768704, 32, 0xca176c0d663c9d77, 0x8393a56263eaf1e2);

// The workload generators (jitter, app shapes, barrier_jobs,
// async_schedule) moved to `asyncmr_simcluster::workloads` so the
// `simtrace` bin and CI's fixture verification reuse the exact
// generators these goldens pin. The seeds moved with them
// (`BARRIER_SEED` / `ASYNC_SEED`).

/// Order-sensitive digest of a word stream (golden-pinning helper).
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x5eed_5eed_5eed_5eed, |acc, w| splitmix64(acc ^ w.wrapping_mul(0x100_0000_01b3)))
}

/// Runs an app's barrier iteration sequence on one persistent cluster
/// (how the engine drives iterative jobs) and reduces it to pinned
/// numbers: (total_us, network_bytes, failed_attempts, duration digest,
/// local-map digest).
fn run_barrier(app: &str, sim: &mut Simulation) -> (u64, u64, u32, u64, u64) {
    let jobs = barrier_jobs(app);
    let mut durations = Vec::new();
    let mut locals = Vec::new();
    let mut net = 0u64;
    let mut failed = 0u32;
    for job in &jobs {
        let stats = sim.run_job(job);
        durations.push(stats.duration.as_micros());
        locals.push(stats.local_map_tasks as u64);
        net += stats.network_bytes;
        failed += stats.failed_attempts;
    }
    (durations.iter().sum(), net, failed, digest(durations), digest(locals))
}

/// Runs an app's async schedule and reduces it to pinned numbers:
/// (duration_us, network_bytes, failed_attempts, finish digest, node
/// digest).
fn run_async(app: &str, sim: &mut Simulation) -> (u64, u64, usize, u64, u64) {
    let tasks = async_schedule(app);
    let stats = sim.run_async_schedule(&tasks);
    (
        stats.duration.as_micros(),
        stats.network_bytes,
        stats.failed_attempts,
        digest(stats.task_finish.iter().map(|t| t.as_micros())),
        digest(stats.task_node.iter().map(|&n| n as u64)),
    )
}

/// A simulation on the uncontended [`Constant`] model parameterized
/// like the default cluster (the pre-refactor async semantics).
fn constant_sim(seed: u64) -> Simulation {
    let spec = ClusterSpec::ec2_2010();
    let model = Constant::new(spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
    Simulation::new(spec, seed).with_network(model)
}

#[test]
fn barrier_replays_match_the_prerefactor_engine() {
    for (app, total, net, failed, d, l) in BARRIER_GOLDEN {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), BARRIER_SEED);
        let got = run_barrier(app, &mut sim);
        assert_eq!(got, (total, net, failed, d, l), "{app}: barrier replay drifted");
    }
}

#[test]
fn barrier_on_the_constant_model_matches_uncontended_goldens() {
    // Set captured from the pre-refactor engine with NIC occupancy
    // disabled: the Constant model must name exactly those semantics.
    for (app, total, net, failed, d, l) in BARRIER_CONSTANT_GOLDEN {
        let mut sim = constant_sim(BARRIER_SEED);
        let got = run_barrier(app, &mut sim);
        assert_eq!(got, (total, net, failed, d, l), "{app}: constant-model replay drifted");
    }
}

#[test]
fn uncontended_barrier_is_never_slower_and_moves_the_same_bytes() {
    // Cross-checks the two barrier tables against each other: removing
    // NIC occupancy can only shorten jobs, and the traffic volume and
    // locality pattern (same seed, same draws) are model-independent.
    for ((app, total, net, _, _, l), (_, c_total, c_net, _, _, c_l)) in
        BARRIER_GOLDEN.iter().zip(BARRIER_CONSTANT_GOLDEN.iter())
    {
        assert!(c_total <= total, "{app}: uncontended must not be slower");
        assert_eq!(c_net, net, "{app}: traffic volume is model-independent");
        assert_eq!(c_l, l, "{app}: locality draws are model-independent");
    }
}

#[test]
fn async_replays_on_the_constant_model_match_the_prerefactor_scheduler() {
    // The pre-refactor async scheduler's arrival formula was precisely
    // Constant::estimate; under that model the unified core must
    // reproduce its schedules bit-for-bit (finish instants, placements,
    // billed bytes).
    for (app, dur, net, failed, fd, nd) in ASYNC_GOLDEN {
        let mut sim = constant_sim(ASYNC_SEED);
        let got = run_async(app, &mut sim);
        assert_eq!(got, (dur, net, failed, fd, nd), "{app}: async replay drifted");
    }
}

#[test]
fn async_under_the_default_model_now_sees_nic_contention() {
    // INTENTIONAL DELTA: pre-refactor, the async path never touched the
    // shared network state — message edges were priced uncontended. On
    // the unified core the default store-and-forward model serializes
    // async transfers through the same NIC pipes the barrier path uses,
    // so durations can only grow (and do, where edges contend).
    let mut grew = 0;
    for (app, dur, ..) in ASYNC_GOLDEN {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), ASYNC_SEED);
        let (got_dur, ..) = run_async(app, &mut sim);
        assert!(got_dur >= dur, "{app}: contention cannot speed up the schedule");
        if got_dur > dur {
            grew += 1;
        }
    }
    assert!(grew >= 2, "contention must actually bite on the chatty apps");
}

#[test]
fn barrier_failure_injection_draw_order_is_pinned() {
    let (total, net, failed, d, l) = BARRIER_FAILURE_GOLDEN;
    let mut sim = Simulation::new(ClusterSpec::ec2_2010(), BARRIER_SEED)
        .with_failures(AttemptFailurePlan::transient(0.15));
    let got = run_barrier("pagerank", &mut sim);
    assert_eq!(got, (total, net, failed, d, l), "barrier failure replay drifted");
}

#[test]
fn async_failure_and_death_injection_draw_order_is_pinned() {
    let (dur, net, failed, fd, nd) = ASYNC_FAILURE_GOLDEN;
    let mut sim = constant_sim(ASYNC_SEED)
        .with_failures(AttemptFailurePlan::transient(0.15))
        .with_node_failures(NodeFailurePlan::correlated(0.10, 77, 2));
    let got = run_async("pagerank", &mut sim);
    assert_eq!(got, (dur, net, failed, fd, nd), "async failure replay drifted");
}

/// Runs one golden row and asserts it moved the thread's
/// [`underflow_count`] by nothing.
fn without_underflow<T>(row: &str, run: impl FnOnce() -> T) {
    let before = underflow_count();
    run();
    assert_eq!(underflow_count() - before, 0, "{row}: a SimTime subtraction underflowed");
}

#[test]
fn no_golden_row_underflows_simtime() {
    // A bare `SimTime - SimTime` that would go negative panics in debug
    // builds; release builds clamp it to zero and count. This is the
    // release-mode check that no golden row, barrier or async, was
    // produced on a clamped span.
    let default_sim = |seed| Simulation::new(ClusterSpec::ec2_2010(), seed);
    for app in APPS {
        without_underflow(&format!("{app}/barrier"), || {
            run_barrier(app, &mut default_sim(BARRIER_SEED))
        });
        without_underflow(&format!("{app}/barrier-constant"), || {
            run_barrier(app, &mut constant_sim(BARRIER_SEED))
        });
        without_underflow(&format!("{app}/async-constant"), || {
            run_async(app, &mut constant_sim(ASYNC_SEED))
        });
        without_underflow(&format!("{app}/async"), || run_async(app, &mut default_sim(ASYNC_SEED)));
    }
    without_underflow("pagerank/barrier-failures", || {
        let mut sim = default_sim(BARRIER_SEED).with_failures(AttemptFailurePlan::transient(0.15));
        run_barrier("pagerank", &mut sim)
    });
    without_underflow("pagerank/async-failures", || {
        let mut sim = constant_sim(ASYNC_SEED)
            .with_failures(AttemptFailurePlan::transient(0.15))
            .with_node_failures(NodeFailurePlan::correlated(0.10, 77, 2));
        run_async("pagerank", &mut sim)
    });
}

#[test]
fn shared_bandwidth_contention_lengthens_both_paths() {
    // The acceptance criterion: under fair-shared NICs (the uniform
    // fluid fabric), shuffle contention measurably lengthens simulated
    // time on BOTH execution styles, relative to the uncontended
    // Constant baselines pinned above (pagerank — the chattiest app).
    use asyncmr_simcluster::TopologyAware;
    let spec = ClusterSpec::ec2_2010();
    let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);

    let mut sim = Simulation::new(ClusterSpec::ec2_2010(), BARRIER_SEED)
        .with_network(TopologyAware::uniform(n, bw, lat));
    let (barrier_shared, ..) = run_barrier("pagerank", &mut sim);
    let (_, barrier_constant, ..) = BARRIER_CONSTANT_GOLDEN[0];
    assert!(
        barrier_shared > barrier_constant,
        "barrier: fair-share contention must lengthen the run ({barrier_shared} vs {barrier_constant})"
    );

    let mut sim = Simulation::new(ClusterSpec::ec2_2010(), ASYNC_SEED)
        .with_network(TopologyAware::uniform(n, bw, lat));
    let (async_shared, ..) = run_async("pagerank", &mut sim);
    let (_, async_constant, ..) = ASYNC_GOLDEN[0];
    assert!(
        async_shared > async_constant,
        "async: fair-share contention must lengthen the run ({async_shared} vs {async_constant})"
    );
}

#[test]
fn golden_trace_fixtures_are_reproducible_and_dumped() {
    // Event traces are new with the unified core (the pre-refactor
    // engine had none), so their goldens are self-captured: two
    // independent runs must agree digest-for-digest, and the fixture
    // file is written under target/golden_traces for CI to archive.
    // CI widens the seed matrix via REPLAY_EXTRA_SEEDS="7,99,…": every
    // listed seed gets the same two-run determinism check and its own
    // fixture rows.
    let extra_seeds: Vec<u64> = std::env::var("REPLAY_EXTRA_SEEDS")
        .map(|s| {
            s.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(|t| t.parse().expect("REPLAY_EXTRA_SEEDS must be a comma-separated u64 list"))
                .collect()
        })
        .unwrap_or_default();
    let mut lines = vec!["app\tpath\tseed\tevents\tdigest".to_string()];
    for app in APPS {
        let digest_of = |seed| {
            let mut sim = Simulation::new(ClusterSpec::ec2_2010(), seed);
            for job in barrier_jobs(app) {
                sim.run_job(&job);
            }
            (sim.last_trace().len(), sim.trace_digest())
        };
        for seed in std::iter::once(BARRIER_SEED).chain(extra_seeds.iter().copied()) {
            let (len_a, dig_a) = digest_of(seed);
            let (len_b, dig_b) = digest_of(seed);
            assert_eq!(
                (len_a, dig_a),
                (len_b, dig_b),
                "{app}: barrier trace must be deterministic at seed {seed}"
            );
            assert!(len_a > 0, "{app}: the trace must record the job");
            lines.push(format!("{app}\tbarrier\t{seed}\t{len_a}\t0x{dig_a:016x}"));
        }

        let async_digest_of = |seed| {
            let mut sim = constant_sim(seed);
            sim.run_async_schedule(&async_schedule(app));
            (sim.last_trace().len(), sim.trace_digest())
        };
        for seed in std::iter::once(ASYNC_SEED).chain(extra_seeds.iter().copied()) {
            let (len_a, dig_a) = async_digest_of(seed);
            let (len_b, dig_b) = async_digest_of(seed);
            assert_eq!(
                (len_a, dig_a),
                (len_b, dig_b),
                "{app}: async trace must be deterministic at seed {seed}"
            );
            assert!(len_a > 0, "{app}: the trace must record the schedule");
            lines.push(format!("{app}\tasync\t{seed}\t{len_a}\t0x{dig_a:016x}"));
        }
    }
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/golden_traces");
    std::fs::create_dir_all(dir).expect("create fixture dir");
    let path = format!("{dir}/replay_fidelity.tsv");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write fixture");
}

/// Regeneration helper: prints the golden tables in source form, under
/// the same models the assertions above use.
/// `cargo test -p asyncmr-simcluster --test replay_fidelity -- --ignored --nocapture`
#[test]
#[ignore = "golden regeneration helper, not a check"]
fn print_goldens() {
    println!("const BARRIER_GOLDEN: [(&str, u64, u64, u32, u64, u64); 5] = [");
    for app in APPS {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), BARRIER_SEED);
        let (total, net, failed, d, l) = run_barrier(app, &mut sim);
        println!("    (\"{app}\", {total}, {net}, {failed}, 0x{d:016x}, 0x{l:016x}),");
    }
    println!("];");
    println!("const BARRIER_CONSTANT_GOLDEN: [(&str, u64, u64, u32, u64, u64); 5] = [");
    for app in APPS {
        let mut sim = constant_sim(BARRIER_SEED);
        let (total, net, failed, d, l) = run_barrier(app, &mut sim);
        println!("    (\"{app}\", {total}, {net}, {failed}, 0x{d:016x}, 0x{l:016x}),");
    }
    println!("];");
    println!("const ASYNC_GOLDEN: [(&str, u64, u64, usize, u64, u64); 5] = [");
    for app in APPS {
        let mut sim = constant_sim(ASYNC_SEED);
        let (dur, net, failed, fd, nd) = run_async(app, &mut sim);
        println!("    (\"{app}\", {dur}, {net}, {failed}, 0x{fd:016x}, 0x{nd:016x}),");
    }
    println!("];");
    // Failure-regime goldens (one app each) pin the rng draw order of
    // the injection paths, which aggregate-free refactors could
    // otherwise silently reorder.
    {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), BARRIER_SEED)
            .with_failures(AttemptFailurePlan::transient(0.15));
        let (total, net, failed, d, l) = run_barrier("pagerank", &mut sim);
        println!(
            "const BARRIER_FAILURE_GOLDEN: (u64, u64, u32, u64, u64) = ({total}, {net}, {failed}, 0x{d:016x}, 0x{l:016x});"
        );
    }
    {
        let mut sim = constant_sim(ASYNC_SEED)
            .with_failures(AttemptFailurePlan::transient(0.15))
            .with_node_failures(NodeFailurePlan::correlated(0.10, 77, 2));
        let (dur, net, failed, fd, nd) = run_async("pagerank", &mut sim);
        println!(
            "const ASYNC_FAILURE_GOLDEN: (u64, u64, usize, u64, u64) = ({dur}, {net}, {failed}, 0x{fd:016x}, 0x{nd:016x});"
        );
    }
}
