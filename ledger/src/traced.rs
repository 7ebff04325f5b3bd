//! The traced pass: one further solve per workload with the ledger's
//! recorder attached, plus the per-layer probes, yielding every
//! per-layer metric. Layers = crates/modules, in pool → shuffle →
//! engine job → session → whole fixed point order.
//!
//! Untraced and traced solves alternate, so `bench.trace_overhead_pct`
//! compares like with like. Nothing here is measured inside a library
//! crate: session spans come from the [`TimedAlgo`] decorator and the
//! public `SessionReport`/`SessionTrace`, engine spans from
//! `Engine::history()` rows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asyncmr_apps::pagerank::session::PrAsync;
use asyncmr_apps::pagerank::PrMsg;
use asyncmr_apps::sssp::session::SpAsync;
use asyncmr_apps::sssp::SsspConfig;
use asyncmr_apps::GraphPartition;
use asyncmr_core::engine::JobRecord;
use asyncmr_core::session::SessionReport;
use asyncmr_core::shuffle::{self, Grouped, ShuffleScratch};
use asyncmr_core::{
    AsyncFixedPointDriver, AsyncIterative, Engine, GroupingStrategy, Value as MrValue,
};
use asyncmr_graph::NodeId;
use asyncmr_runtime::{PoolMetrics, ThreadPool};
use asyncmr_simcluster::trace::span::{SessionTrace, SpanKind};
use asyncmr_simcluster::{underflow_count, AsyncTaskSpec, ClusterSpec, Simulation};

use crate::e2e::{attempt, RunId};
use crate::json::Value;
use crate::measure::Stats;
use crate::metrics::MetricSet;
use crate::trace::{Recorder, Span, TimedAlgo};
use crate::workloads::{
    build, max_abs_diff, pagerank_config, Input, Report, Scale, Solved, Values, Workload,
    QUALITY_TOLERANCE, STALE_LAG,
};

/// Reduce partitions of the shuffle probe (= the apps' `num_reducers`).
const PROBE_REDUCERS: usize = 16;
/// How closely the decorator's summed gmap time must match the
/// library's own `SessionTrace::gmap_span_ns`.
const GMAP_AGREEMENT: f64 = 0.02;
/// Allowance for the decorator's two clock reads and lane lookup, which
/// sit inside the library's span but outside the decorator's.
const CLOCK_NS_PER_CALL: u64 = 1_000;
/// … and one preemption: on a shared host the hypervisor can take the
/// CPU for milliseconds between the library's clock read and the
/// decorator's (seen once in 25 `--quick` passes at 23 % steal).
const PREEMPTION_NS: u64 = 5_000_000;

/// How much the traced pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: Scale,
    /// Untimed warm-up solves (session workloads; on engine workloads
    /// the simulated solve runs first and doubles as the warm-up).
    pub warmups: usize,
    /// Traced solves `n`, alternating with `n + 1` untraced ones:
    /// U (T U)ⁿ.
    pub traced_solves: usize,
    /// Reps of the comparison runs (other engine strategy / stale lag).
    pub side_reps: usize,
    /// Empty tasks in the spawn probe, single-task scopes in the wake
    /// probe, repetitions of the shuffle probe.
    pub spawn_tasks: usize,
    pub wake_scopes: usize,
    pub shuffle_reps: usize,
}

impl Plan {
    /// `ledger run`: the issue's protocol.
    pub fn full() -> Plan {
        Plan {
            scale: Scale::Full,
            warmups: 1,
            traced_solves: 2,
            side_reps: 3,
            spawn_tasks: 100_000,
            wake_scopes: 1_000,
            shuffle_reps: 3,
        }
    }

    /// `ledger bench --seconds ..`: the same pass with fewer reps, so a
    /// run of the benchmark driver stays within its time cap even when
    /// the sandbox runs at half speed.
    pub fn lean() -> Plan {
        Plan { traced_solves: 1, side_reps: 2, ..Plan::full() }
    }

    pub fn quick() -> Plan {
        Plan {
            scale: Scale::Quick,
            warmups: 0,
            traced_solves: 1,
            side_reps: 1,
            spawn_tasks: 2_000,
            wake_scopes: 50,
            shuffle_reps: 1,
        }
    }
}

/// Result of the traced pass on one workload.
pub struct Traced {
    pub id: RunId,
    pub metrics: MetricSet,
    pub spans: Vec<Span>,
    /// Solves attempted / failed (panic, no convergence, bitwise drift
    /// from the untraced result, stale result out of tolerance).
    pub ops_attempted: usize,
    pub ops_failed: usize,
    /// Failed solves and failed cross-checks, each a hard failure.
    pub failures: Vec<String>,
}

impl Traced {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn to_json(&self) -> Value {
        let mut pairs = self.id.header("per_layer");
        pairs.extend(
            [
                ("correct", Value::from(self.correct())),
                ("ops_attempted", self.ops_attempted.into()),
                ("ops_failed", self.ops_failed.into()),
                ("failures", self.failures.clone().into()),
                ("metrics", self.metrics.to_json()),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
        Value::Obj(pairs)
    }
}

/// Bookkeeping shared by every step of the pass.
struct Pass {
    metrics: MetricSet,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Pass {
    /// One guarded, timed solve; a failure is recorded and yields `None`.
    fn timed(&mut self, what: &str, solve: impl FnOnce() -> Solved) -> Option<(Solved, f64)> {
        self.attempted += 1;
        let t = Instant::now();
        let outcome = attempt(solve);
        let secs = t.elapsed().as_secs_f64();
        let outcome = outcome.and_then(|s| {
            if s.converged() {
                Ok(s)
            } else {
                Err(format!("did not converge within {} iterations", s.iterations()))
            }
        });
        match outcome {
            Ok(solved) => Some((solved, secs)),
            Err(why) => {
                self.fail_op(format!("{what}: {why}"));
                None
            }
        }
    }

    fn fail_op(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// A cross-check: a hard failure when `ok` is false.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("cross-check: {}", why()));
        }
    }
}

/// What a traced solve leaves behind besides its result.
enum Detail {
    Session { spans: Vec<Span>, build_s: f64 },
    Engine { history: Vec<JobRecord>, pool: PoolMetrics, spans: Vec<Span> },
}

pub fn run(id: RunId, plan: Plan) -> Traced {
    let input = build(id.workload, plan.scale, id.seed, id.threads);
    let mut pass =
        Pass { metrics: MetricSet::default(), attempted: 0, failed: 0, failures: Vec::new() };

    graph_layer(&input, &mut pass.metrics);
    if input.workload.is_session() {
        for _ in 0..plan.warmups {
            let _ = attempt(|| input.solve());
        }
    } else {
        simulate_engine(&input, &mut pass, id.seed);
    }

    // ---- Alternating untraced / traced solves: U (T U)ⁿ ----
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut schedules: Vec<Vec<AsyncTaskSpec>> = Vec::new();
    let mut reference: Option<Solved> = None;
    let mut last_traced: Option<(Solved, Detail)> = None;
    for step in 0..=2 * plan.traced_solves {
        if step % 2 == 0 {
            if let Some((solved, secs)) = pass.timed("untraced solve", || input.solve()) {
                untraced_s.push(secs);
                if let Report::Session(r) = &solved.report {
                    schedules.push(r.schedule.clone());
                }
                reference.get_or_insert(solved);
            }
            continue;
        }
        let mut detail = None;
        if let Some((solved, secs)) = pass.timed("traced solve", || {
            let (solved, d) = traced_solve(&input);
            detail = Some(d);
            solved
        }) {
            traced_s.push(secs);
            if let Report::Session(r) = &solved.report {
                schedules.push(r.schedule.clone());
            }
            // Observation must not change the computation (PR 10's
            // identity, re-checked through the decorator).
            if reference.as_ref().is_some_and(|r| r.digest() != solved.digest()) {
                pass.fail_op("traced solve differs bitwise from the untraced result".to_string());
            }
            last_traced = Some((solved, detail.expect("set by the solve closure")));
        }
    }

    let mut spans = Vec::new();
    if let (Some(reference), Some((solved, detail))) = (&reference, last_traced) {
        let untraced = Stats::of(&untraced_s);
        let traced_median = Stats::of(&traced_s).median;
        match detail {
            Detail::Session { spans: recorded, build_s } => {
                session_layers(&input, &mut pass, solved.session(), &recorded, build_s);
                spans = recorded;
                stale_runs(&input, &mut pass, reference, plan.side_reps);
                simulate_session(&mut pass, &schedules, id.seed);
            }
            Detail::Engine { history, pool, spans: recorded } => {
                engine_layers(&input, &mut pass, &solved, &history, &pool);
                spans = recorded;
                shuffle_probe(&input, &mut pass.metrics, plan.shuffle_reps);
                alt_strategy(&input, &mut pass, reference, plan.side_reps);
            }
        }
        pool_probes(&input.pool, &mut pass.metrics, &plan);
        baseline(&input, &mut pass, reference, untraced.median);

        pass.metrics.count("bench.reps", untraced.n as u64);
        pass.metrics.real("bench.solve_min_s", untraced.min);
        pass.metrics.real("bench.solve_max_s", untraced.max);
        pass.metrics.real("bench.solve_iqr_s", untraced.iqr());
        pass.metrics
            .real("bench.trace_overhead_pct", (traced_median / untraced.median - 1.0) * 100.0);
    }

    Traced {
        id,
        metrics: pass.metrics,
        spans,
        ops_attempted: pass.attempted,
        ops_failed: pass.failed,
        failures: pass.failures,
    }
}

// ---------------------------------------------------------------- graph

fn graph_layer(input: &Input, m: &mut MetricSet) {
    let g = input.graph.csr();
    m.count("graph.nodes", g.num_nodes() as u64);
    m.count("graph.edges", g.num_edges() as u64);
    m.real("graph.generate_s", input.setup.generate_s);
    m.count("partition.parts", input.parts.num_parts() as u64);
    m.real("partition.cut_pct", input.parts.cut_fraction(g) * 100.0);
    m.real("partition.balance", input.parts.balance());
    m.real("partition.partition_s", input.setup.partition_s);
    if input.setup.reorder_s > 0.0 {
        m.real("partition.reorder_s", input.setup.reorder_s);
    }
}

// --------------------------------------------------------- traced solves

fn traced_solve(input: &Input) -> (Solved, Detail) {
    if input.workload.is_session() {
        traced_session(input)
    } else {
        traced_engine(input)
    }
}

/// Scatters per-partition states back to one global vector.
fn scatter<S>(
    partitions: &[Arc<GraphPartition>],
    states: &[Arc<S>],
    mut global: Vec<f64>,
    owned: impl Fn(&S) -> &[f64],
) -> Vec<f64> {
    for (part, state) in partitions.iter().zip(states) {
        for (&v, &x) in part.nodes.iter().zip(owned(state)) {
            global[v as usize] = x;
        }
    }
    global
}

/// Runs `algo` on the traced driver under the decorator; returns the
/// final states, the report and every recorded span.
fn drive<A: AsyncIterative>(
    pool: &ThreadPool,
    algo: A,
    cap: usize,
) -> (A, Vec<Arc<A::State>>, SessionReport, Vec<Span>) {
    let recorder = Recorder::new(pool.num_threads());
    let timed = TimedAlgo::new(algo, &recorder);
    let start_ns = recorder.now_ns();
    let outcome = AsyncFixedPointDriver::new(cap).with_trace().run(pool, &timed);
    let end_ns = recorder.now_ns();
    let algo = timed.into_inner();
    (algo, outcome.states, outcome.report, recorder.into_spans(start_ns, end_ns))
}

fn traced_session(input: &Input) -> (Solved, Detail) {
    let g = input.graph.csr();
    let n = g.num_nodes();
    let built = Instant::now();
    let (values, report, mut spans, build_s) = match input.workload {
        Workload::PrSessionLocal => {
            let cfg = pagerank_config();
            let algo = PrAsync::new(g, &input.parts, &cfg);
            let build_s = built.elapsed().as_secs_f64();
            let (algo, states, report, spans) = drive(&input.pool, algo, cfg.max_iterations);
            let ranks = scatter(algo.partitions(), &states, vec![0.0; n], |s| &s.ranks);
            (ranks, report, spans, build_s)
        }
        Workload::SsspSessionCut => {
            let cfg = SsspConfig::default();
            let algo = SpAsync::new(input.graph.weighted(), &input.parts, &cfg);
            let build_s = built.elapsed().as_secs_f64();
            let (algo, states, report, spans) = drive(&input.pool, algo, cfg.max_iterations);
            let dists = scatter(algo.partitions(), &states, vec![f64::INFINITY; n], |s| s);
            (dists, report, spans, build_s)
        }
        _ => unreachable!("not a session workload"),
    };
    // The library's own scheduler-lane spans (deliver, rollback) join
    // the list as children of the solve; its clock started when the
    // driver did, i.e. at the root span's start.
    if let Some(trace) = &report.trace {
        let origin = spans[0].start_ns;
        let lane = trace.scheduler_lane() as u32;
        spans.extend(trace.spans.iter().filter_map(|s| {
            let name = match s.kind {
                SpanKind::Deliver => "deliver",
                SpanKind::Rollback => "rollback",
                _ => return None,
            };
            Some(Span {
                lane: Some(lane),
                partition: Some(s.partition),
                iteration: Some(s.iteration),
                ..Span::child(name, "core::session", origin + s.start_ns, origin + s.end_ns())
            })
        }));
    }
    let solved =
        Solved { values: Values::Reals(values), report: Report::Session(Box::new(report)) };
    (solved, Detail::Session { spans, build_s })
}

fn traced_engine(input: &Input) -> (Solved, Detail) {
    let mut engine = input.engine(false);
    let before = input.pool.metrics();
    let epoch = Instant::now();
    let solved = input.solve_on(&mut engine);
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let pool = input.pool.metrics().since(&before);
    let history = engine.history().to_vec();
    let spans = engine_spans(&history, wall_ns);
    (solved, Detail::Engine { history, pool, spans })
}

/// Job span → stage child spans from the engine's history rows.
///
/// A row carries durations, not timestamps, so jobs are laid end to
/// end from the solve's start and the driver's between-job time shows
/// as the root span's self time. Staged rows get their four stages in
/// order; pipelined rows report overlapping per-stage *busy* time that
/// has no place on a timeline, so they get the job span alone.
fn engine_spans(history: &[JobRecord], wall_ns: u64) -> Vec<Span> {
    let mut spans = vec![Span { parent: None, ..Span::child("solve", "ledger", 0, wall_ns) }];
    let mut at = 0u64;
    for (j, row) in history.iter().enumerate() {
        let job_index = spans.len();
        let end = at + row.wall.as_nanos() as u64;
        spans.push(Span { job: Some(j as u32), ..Span::child("job", "core::engine", at, end) });
        if !row.stages.overlapped {
            let mut stage_at = at;
            let stages = [
                ("map", row.stages.map),
                ("combine", row.stages.combine),
                ("shuffle", row.stages.shuffle),
                ("reduce", row.stages.reduce),
            ];
            for (name, dur) in stages {
                let stage_end = stage_at + dur.as_nanos() as u64;
                spans.push(Span {
                    parent: Some(job_index),
                    job: Some(j as u32),
                    ..Span::child(name, "core::engine", stage_at, stage_end)
                });
                stage_at = stage_end;
            }
        }
        at = end;
    }
    spans
}

// -------------------------------------------------------- session layers

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn session_layers(
    input: &Input,
    pass: &mut Pass,
    report: &SessionReport,
    spans: &[Span],
    build_s: f64,
) {
    let wall_s = report.wall_time.as_secs_f64();
    let workers = input.pool.num_threads();
    fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
        spans.iter().filter(move |s| s.name == name)
    }
    let named = |name| named(spans, name);
    let busy = |name| -> u64 { named(name).map(Span::dur_ns).sum() };

    let m = &mut pass.metrics;
    // runtime: the pool's own counters over the traced solve.
    pool_deltas(m, &report.pool);

    let gmap_calls = named("gmap").count() as u64;
    let gmap_busy_ns = busy("gmap");
    m.count("session.iterations", report.global_iterations as u64);
    m.real("session.iterations_per_s", report.global_iterations as f64 / wall_s);
    m.count("session.gmap_tasks", report.gmap_tasks as u64);
    m.count("session.gmap_calls", gmap_calls);
    m.real("session.useful_gmap_ratio", report.gmap_tasks as f64 / gmap_calls as f64);
    m.real("session.gmap_busy_s", secs(gmap_busy_ns));
    m.count("session.absorb_calls", named("absorb").count() as u64);
    m.real("session.absorb_busy_s", secs(busy("absorb")));
    m.real("session.deliver_busy_s", secs(busy("deliver")));
    let sched_gmap_ns: u64 =
        named("gmap").filter(|s| s.lane == Some(workers as u32)).map(Span::dur_ns).sum();
    m.real("session.sched_lane_gmap_share", secs(sched_gmap_ns) / wall_s);
    m.count("session.speculative_tasks", report.speculative_tasks as u64);
    m.real("session.speculative_s", report.speculative_time.as_secs_f64());
    let (records, bytes) = report
        .schedule
        .iter()
        .fold((0u64, 0u64), |(r, b), t| (r + t.output_records, b + t.output_bytes));
    m.count("session.msg_records", records);
    m.real("session.msg_mb", bytes as f64 / (1 << 20) as f64);
    m.real("session.peak_state_mb", report.peak_state_bytes as f64 / (1 << 20) as f64);

    match &report.trace {
        Some(trace) => {
            session_trace_metrics(pass, trace, &report.schedule, gmap_busy_ns, gmap_calls)
        }
        None => pass.check(false, || "the traced driver returned no SessionTrace".to_string()),
    }

    let m = &mut pass.metrics;
    m.real("apps.build_s", build_s);
    m.count("apps.ops", report.total_ops);
    m.real("apps.mops_per_busy_s", report.total_ops as f64 / 1e6 / secs(gmap_busy_ns));
}

fn session_trace_metrics(
    pass: &mut Pass,
    trace: &SessionTrace,
    schedule: &[AsyncTaskSpec],
    decorator_gmap_ns: u64,
    gmap_calls: u64,
) {
    let wall = trace.wall_ns as f64;
    let sched = trace.lane_breakdown(trace.scheduler_lane());
    let parked: u64 = trace.park_ns.iter().sum();
    let stalled: u64 = trace.stalls.iter().map(|s| s.dur_ns).sum();
    let path = trace.critical_path(schedule);
    let m = &mut pass.metrics;
    m.real("session.sched_lane_busy_share", sched.busy_ns as f64 / wall);
    m.real("session.worker_blocked_share", parked as f64 / trace.workers as f64 / wall);
    m.real("session.stall_s", secs(stalled));
    m.real("session.crit_compute_s", path.compute.as_secs_f64());
    m.real("session.crit_queue_s", path.queue.as_secs_f64());

    // The library's span wraps the decorator's, so the two differ by
    // the decorator's own clock reads: allow that per call on top of
    // the relative bound, or thousands of microsecond gmaps fail it.
    let library_gmap_ns = trace.gmap_span_ns();
    let gap_ns = decorator_gmap_ns.abs_diff(library_gmap_ns);
    let allowed_ns = (library_gmap_ns as f64 * GMAP_AGREEMENT) as u64
        + gmap_calls * CLOCK_NS_PER_CALL
        + PREEMPTION_NS;
    pass.check(gap_ns <= allowed_ns, || {
        format!(
            "decorator gmap time {decorator_gmap_ns} ns vs SessionTrace::gmap_span_ns {library_gmap_ns} ns: {gap_ns} ns apart, {allowed_ns} ns allowed"
        )
    });
    for lane in 0..trace.lanes() {
        let b = trace.lane_breakdown(lane);
        pass.check(b.busy_ns + b.blocked_ns + b.idle_ns == trace.wall_ns, || {
            format!(
                "lane {lane}: busy {} + blocked {} + idle {} != wall {}",
                b.busy_ns, b.blocked_ns, b.idle_ns, trace.wall_ns
            )
        });
    }
}

/// Hannah & Yin's pair: the same fixed point under bounded staleness —
/// time to equal quality next to iterations.
fn stale_runs(input: &Input, pass: &mut Pass, reference: &Solved, reps: usize) {
    let mut times = Vec::new();
    let mut iterations = Vec::new();
    for _ in 0..reps {
        let what = format!("solve at max_lag = {STALE_LAG}");
        let Some((solved, secs)) = pass.timed(&what, || input.solve_session(STALE_LAG)) else {
            continue;
        };
        let err = max_abs_diff(solved.values.reals(), reference.values.reals());
        if err > QUALITY_TOLERANCE {
            pass.fail_op(format!("{what}: {err:e} from the lag-0 result"));
            continue;
        }
        times.push(secs);
        iterations.push(solved.iterations() as f64);
    }
    if !times.is_empty() {
        pass.metrics.median_of("session.stale_solve_s", times);
        pass.metrics.median_of("session.stale_iterations", iterations);
    }
}

/// Replays every recorded lag-0 schedule on the paper's testbed model.
/// A recorded schedule's task order is timing-dependent, so the
/// makespan is a median over the schedules this pass produced, not an
/// exact count.
fn simulate_session(pass: &mut Pass, schedules: &[Vec<AsyncTaskSpec>], seed: u64) {
    let underflows_before = underflow_count();
    let makespans: Vec<f64> = schedules
        .iter()
        .map(|schedule| {
            Simulation::new(ClusterSpec::ec2_2010(), seed)
                .run_async_schedule(schedule)
                .duration
                .as_secs_f64()
        })
        .collect();
    sim_underflows(pass, underflows_before);
    if !makespans.is_empty() {
        pass.metrics.median_of("sim.makespan_s", makespans);
    }
}

fn sim_underflows(pass: &mut Pass, before: u64) {
    let underflows = underflow_count() - before;
    pass.metrics.count("sim.time_underflows", underflows);
    pass.check(underflows == 0, || format!("sim.time_underflows = {underflows}"));
}

// --------------------------------------------------------- engine layers

fn pool_deltas(m: &mut MetricSet, pool: &PoolMetrics) {
    m.count("pool.workers", pool.threads as u64);
    m.count("pool.tasks", pool.executed as u64);
    m.count("pool.steals", pool.steals as u64);
    m.real("pool.steal_ratio", pool.steal_ratio());
    m.count("pool.injector_pops", pool.injector_pops as u64);
    m.count("pool.parks", pool.parks as u64);
    m.real("pool.park_s", secs(pool.park_nanos));
}

fn sum_secs(history: &[JobRecord], f: impl Fn(&JobRecord) -> Duration) -> f64 {
    history.iter().map(|r| f(r).as_secs_f64()).sum()
}

fn engine_layers(
    input: &Input,
    pass: &mut Pass,
    solved: &Solved,
    history: &[JobRecord],
    pool: &PoolMetrics,
) {
    let report = solved.engine();
    let jobs = history.len() as u64;
    let job_wall_s = sum_secs(history, |r| r.wall);
    let map_s = sum_secs(history, |r| r.stages.map);
    let stage_total_s = sum_secs(history, |r| r.stages.total());
    let records: u64 = history.iter().map(|r| r.meter.shuffle_records).sum();
    let local_syncs: u64 = history.iter().map(|r| r.meter.local_syncs).sum();

    let m = &mut pass.metrics;
    pool_deltas(m, pool);
    m.count("shuffle.records", records);
    m.count("shuffle.bytes", history.iter().map(|r| r.meter.shuffle_bytes).sum());
    m.real("shuffle.records_per_job", records as f64 / jobs as f64);
    m.count("engine.jobs", jobs);
    m.real("engine.job_wall_s", job_wall_s);
    m.real("engine.map_s", map_s);
    m.real("engine.combine_s", sum_secs(history, |r| r.stages.combine));
    m.real("engine.shuffle_s", sum_secs(history, |r| r.stages.shuffle));
    m.real("engine.reduce_s", sum_secs(history, |r| r.stages.reduce));
    m.real("engine.us_per_job", job_wall_s / jobs as f64 * 1e6);
    m.count("engine.map_tasks", history.iter().map(|r| r.meter.map_tasks as u64).sum());
    m.count("engine.reduce_tasks", history.iter().map(|r| r.meter.reduce_tasks as u64).sum());
    if local_syncs > 0 {
        m.count("local.syncs", local_syncs);
        m.count("local.ops", history.iter().map(|r| r.meter.map_ops).sum());
        m.real("local.syncs_per_s", local_syncs as f64 / map_s);
    }
    m.count("driver.iterations", report.global_iterations as u64);
    m.count("driver.converged", report.converged as u64);
    m.real("driver.overhead_s", (report.driver_wall - report.wall_time).as_secs_f64());
    m.count("apps.ops", report.total_ops);

    if !input.workload.pipelined() {
        staged_accounting(pass, history, job_wall_s, stage_total_s);
    }
}

/// `engine.unattributed_s` and its cross-check, from a staged run:
/// the four stage barriers are timed inside the job, so their sum can
/// never exceed the job's wall.
fn staged_accounting(pass: &mut Pass, history: &[JobRecord], job_wall_s: f64, stage_total_s: f64) {
    pass.metrics.real("engine.unattributed_s", job_wall_s - stage_total_s);
    let over = history.iter().position(|r| r.stages.total() > r.wall);
    pass.check(over.is_none(), || {
        let r = &history[over.expect("checked")];
        format!(
            "job {} stages sum to {:?}, more than its wall {:?}",
            r.name,
            r.stages.total(),
            r.wall
        )
    });
}

/// Median of a few reps on the *other* strategy (staged ↔ pipelined).
/// Both strategies are byte-identical in output by contract.
fn alt_strategy(input: &Input, pass: &mut Pass, reference: &Solved, reps: usize) {
    let mut times = Vec::new();
    for rep in 0..reps {
        let mut engine = input.engine(true);
        let Some((solved, secs)) = pass.timed("alt-strategy solve", || input.solve_on(&mut engine))
        else {
            continue;
        };
        if solved.digest() != reference.digest() {
            pass.fail_op("alt-strategy solve differs bitwise from the main strategy".to_string());
            continue;
        }
        times.push(secs);
        if rep == 0 && input.workload.pipelined() {
            // The workload's own strategy is pipelined; its staged twin
            // is where stage barriers can be attributed.
            let history = engine.history();
            let job_wall_s = sum_secs(history, |r| r.wall);
            staged_accounting(pass, history, job_wall_s, sum_secs(history, |r| r.stages.total()));
        }
    }
    if !times.is_empty() {
        pass.metrics.median_of("engine.alt_strategy_solve_s", times);
    }
}

/// Deterministic replay on `ClusterSpec::ec2_2010()`: the engine meters
/// every task and the simulator turns the meters into the testbed's
/// wall-clock. Counts in, counts out — these repeat exactly.
fn simulate_engine(input: &Input, pass: &mut Pass, seed: u64) {
    let underflows_before = underflow_count();
    let simulated = |pass: &mut Pass, what: &str, general: bool| -> Option<f64> {
        let sim = Simulation::new(ClusterSpec::ec2_2010(), seed);
        let mut engine = Engine::with_simulation(&input.pool, sim);
        if input.workload.pipelined() {
            engine = engine.pipelined();
        }
        let (solved, _) = pass.timed(what, || {
            if general {
                input.solve_pagerank_general(&mut engine)
            } else {
                input.solve_on(&mut engine)
            }
        })?;
        solved.engine().sim_time.map(|t| t.as_secs_f64())
    };
    let makespan = simulated(pass, "simulated solve", false);
    let general = (input.workload == Workload::PrEagerEngine)
        .then(|| simulated(pass, "simulated General solve", true))
        .flatten();
    sim_underflows(pass, underflows_before);
    if let Some(makespan) = makespan {
        pass.metrics.real("sim.makespan_s", makespan);
        if let Some(general) = general {
            // The paper's headline ratio: General ÷ Eager, same input.
            pass.metrics.real("sim.general_makespan_s", general);
            pass.metrics.real("sim.eager_speedup", general / makespan);
        }
    }
}

// ---------------------------------------------------------------- probes

/// Two micro-probes on the workload's own pool.
fn pool_probes(pool: &ThreadPool, m: &mut MetricSet, plan: &Plan) {
    // Spawn cost: one scope of empty tasks, start to all-done.
    let t = Instant::now();
    pool.scope(|s| {
        for _ in 0..plan.spawn_tasks {
            s.spawn(|| {});
        }
    });
    m.real("pool.spawn_ns_per_task", t.elapsed().as_nanos() as f64 / plan.spawn_tasks as f64);

    // Wake latency: round trip of a single-task scope on an idle pool.
    // Workers park as soon as they find no work; the pause lets them.
    let mut round_trips = Vec::with_capacity(plan.wake_scopes);
    for _ in 0..plan.wake_scopes {
        std::thread::sleep(Duration::from_micros(100));
        let t = Instant::now();
        pool.scope(|s| s.spawn(|| {}));
        round_trips.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.real("pool.wake_us", Stats::of(&round_trips).median);
}

/// One job's worth of records shaped like the workload's own: per map
/// task (= partition), one record per owned vertex plus one per
/// out-edge, keyed by the edge's target.
fn job_records<V: MrValue>(input: &Input, make: impl Fn(f64) -> V) -> Vec<Vec<(NodeId, V)>> {
    let g = input.graph.csr();
    let mut tasks: Vec<Vec<(NodeId, V)>> = vec![Vec::new(); input.parts.num_parts()];
    for v in 0..g.num_nodes() as NodeId {
        let out = &mut tasks[input.parts.part_of(v) as usize];
        let share = 1.0 / g.out_degree(v).max(1) as f64;
        out.push((v, make(0.0)));
        out.extend(g.out_neighbors(v).iter().map(|&t| (t, make(share))));
    }
    tasks
}

/// Direct timed calls of `shuffle::route`, `concat_buckets` and
/// `Grouped::from_pairs_using` on one job's records — single-thread
/// rates of the code every reduce task runs.
fn shuffle_probe(input: &Input, m: &mut MetricSet, reps: usize) {
    match input.workload {
        Workload::CcTinyJobs => {
            shuffle_probe_on(input, m, reps, job_records(input, |x| x as NodeId))
        }
        _ => shuffle_probe_on(input, m, reps, job_records(input, PrMsg::Contrib)),
    }
}

fn shuffle_probe_on<V: MrValue>(
    input: &Input,
    m: &mut MetricSet,
    reps: usize,
    tasks: Vec<Vec<(NodeId, V)>>,
) {
    let records: usize = tasks.iter().map(Vec::len).sum();
    let own = input.workload.grouping();
    let other = match own {
        GroupingStrategy::Sort => GroupingStrategy::Radix,
        GroupingStrategy::Radix => GroupingStrategy::Sort,
    };
    let mrec_per_s = |secs: &[f64]| records as f64 / 1e6 / Stats::of(secs).median;
    let (mut route_t, mut own_t, mut other_t) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        for (strategy, group_t) in [(own, &mut own_t), (other, &mut other_t)] {
            let inputs = tasks.clone();
            let t = Instant::now();
            let routed: Vec<Vec<Vec<(NodeId, V)>>> =
                inputs.into_iter().map(|pairs| shuffle::route(pairs, PROBE_REDUCERS)).collect();
            if strategy == own {
                route_t.push(t.elapsed().as_secs_f64());
            }
            // Transpose to per-reducer bucket lists (by move), as the
            // shuffle stage hands them to reduce tasks.
            let mut per_reducer: Vec<Vec<Vec<(NodeId, V)>>> =
                (0..PROBE_REDUCERS).map(|_| Vec::with_capacity(routed.len())).collect();
            for task_buckets in routed {
                for (r, bucket) in task_buckets.into_iter().enumerate() {
                    per_reducer[r].push(bucket);
                }
            }
            let mut scratch = ShuffleScratch::default();
            let mut groups = 0usize;
            let t = Instant::now();
            for buckets in per_reducer {
                let pairs = shuffle::concat_buckets(buckets, &mut scratch);
                let grouped = Grouped::from_pairs_using(strategy, pairs, &mut scratch);
                groups += grouped.num_groups();
                grouped.recycle_into(&mut scratch);
            }
            group_t.push(t.elapsed().as_secs_f64());
            std::hint::black_box(groups);
        }
    }
    m.real("shuffle.route_mrec_per_s", mrec_per_s(&route_t));
    m.real("shuffle.group_mrec_per_s", mrec_per_s(&own_t));
    m.real("shuffle.group_alt_mrec_per_s", mrec_per_s(&other_t));
}

// -------------------------------------------------------------- baseline

/// The honest yardstick: a hand-written serial solution of the same
/// input, timed once, and how far the system's answer is from it.
fn baseline(input: &Input, pass: &mut Pass, reference: &Solved, solve_s: f64) {
    let t = Instant::now();
    let serial = input.serial_baseline();
    let serial_s = t.elapsed().as_secs_f64();
    pass.metrics.real("baseline.serial_solve_s", serial_s);
    pass.metrics.real("baseline.slowdown_vs_serial", solve_s / serial_s);
    match input.check(reference, &serial) {
        Ok(err) => pass.metrics.real("baseline.quality_err", err),
        Err(why) => pass.fail_op(format!("oracle: {why}")),
    }
}

/// The `<out>/<workload>.trace.json` document: every span, the
/// self-time summary, and the counts taken at the same boundaries.
pub fn trace_file(traced: &Traced) -> Value {
    let counts = traced
        .metrics
        .iter()
        .filter(|m| m.spec.unit == "count")
        .map(|m| (m.spec.name.to_string(), m.value.into()))
        .collect();
    crate::trace::to_json(
        traced.id.workload.name(),
        traced.id.header("trace"),
        Value::Obj(counts),
        &traced.spans,
    )
}
