//! The observability layer's contracts, end to end:
//!
//! * tracing is **passive**: a traced `max_lag = 0` PageRank session
//!   reproduces the barrier driver bitwise, exactly like an untraced
//!   one, and untraced runs attach no trace at all;
//! * the **conservation law** is exact: the summed duration of every
//!   recorded gmap span equals the session's metered gmap time
//!   bit-for-bit, including failed and orphaned attempts;
//! * per-lane spans are **disjoint** and the busy/blocked/idle
//!   breakdown **telescopes** (`busy + blocked + idle == wall` on
//!   every lane), across partition counts, staleness bounds, and pool
//!   sizes;
//! * the kept-task timeline aligns index-for-index with the recorded
//!   schedule, and the unified renderer emits a well-formed
//!   Chrome-trace JSON and HTML report from a live session.

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::core::{
    Absorbed, AsyncFixedPointDriver, AsyncIterative, AttemptFailurePlan, Dependence, Engine,
    GmapOutput, Outbox,
};
use asyncmr::graph::{generators, CsrGraph};
use asyncmr::model::{MarkKind, SessionTrace, SpanKind};
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::ReportModel;
use proptest::prelude::*;

fn crawl_graph(n: usize, seed: u64) -> CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 1, 1, 0.95, 40, seed)
}

/// Ring diffusion with a strict-contraction fixpoint — the same shape
/// as the session layer's own oracle algorithm, small enough that a
/// traced run finishes in milliseconds.
struct Ring {
    k: usize,
    heat: Vec<f64>,
    tolerance: f64,
}

impl Ring {
    fn new(k: usize, tolerance: f64, seed: u64) -> Self {
        let heat = (0..k).map(|p| ((p as f64 + seed as f64) * 0.37).sin().abs() * 0.1).collect();
        Ring { k, heat, tolerance }
    }

    fn neighbors(&self, p: usize) -> Vec<usize> {
        if self.k == 1 {
            return Vec::new();
        }
        let mut v = vec![(p + self.k - 1) % self.k, (p + 1) % self.k];
        v.sort_unstable();
        v.dedup();
        v.retain(|&q| q != p);
        v
    }
}

impl AsyncIterative for Ring {
    type State = f64;
    type Update = f64;
    type Msg = f64;

    fn partitions(&self) -> usize {
        self.k
    }

    fn dependencies(&self, p: usize) -> Dependence {
        Dependence::Sparse(self.neighbors(p))
    }

    fn init_state(&self, p: usize) -> f64 {
        p as f64
    }

    fn gmap(
        &self,
        p: usize,
        _iteration: usize,
        state: &f64,
        outbox: &mut Outbox<f64>,
    ) -> GmapOutput<f64> {
        for q in self.neighbors(p) {
            outbox.push(q, 0.2 * *state);
        }
        GmapOutput {
            update: 0.4 * *state + self.heat[p],
            ops: 4,
            local_syncs: 1,
            input_bytes: 16,
            msg_records: 2,
            msg_bytes: 16,
        }
    }

    fn absorb(
        &self,
        _p: usize,
        _iteration: usize,
        state: &f64,
        update: f64,
        inbox: &[(usize, &[f64])],
    ) -> Absorbed<f64> {
        let mut x = update;
        for (_, msgs) in inbox {
            for m in *msgs {
                x += m;
            }
        }
        Absorbed { state: x, delta: (x - *state).abs(), ops: 1 }
    }

    fn converged(&self, max_delta: f64) -> bool {
        max_delta < self.tolerance
    }
}

/// The barrier oracle: the same trait methods driven sequentially with
/// a global barrier per iteration.
fn run_barrier(algo: &Ring, max_iterations: usize) -> (Vec<f64>, usize, bool) {
    let k = algo.partitions();
    let mut states: Vec<f64> = (0..k).map(|p| algo.init_state(p)).collect();
    for i in 0..max_iterations {
        let outs: Vec<(GmapOutput<f64>, Outbox<f64>)> = (0..k)
            .map(|p| {
                let mut outbox = Outbox::new(k);
                let out = algo.gmap(p, i, &states[p], &mut outbox);
                (out, outbox)
            })
            .collect();
        let mut max_delta = 0.0f64;
        let mut next = Vec::with_capacity(k);
        for p in 0..k {
            let deps = match algo.dependencies(p) {
                Dependence::Full => (0..k).filter(|&q| q != p).collect::<Vec<_>>(),
                Dependence::Sparse(v) => v,
            };
            let inbox: Vec<(usize, &[f64])> =
                deps.iter().map(|&q| (q, outs[q].1.batch(p))).collect();
            let absorbed = algo.absorb(p, i, &states[p], outs[p].0.update, &inbox);
            max_delta = max_delta.max(absorbed.delta);
            next.push(absorbed.state);
        }
        states = next;
        if algo.converged(max_delta) {
            return (states, i + 1, true);
        }
    }
    (states, max_iterations, false)
}

/// Asserts the structural invariants every drained trace must satisfy:
/// per-lane spans disjoint, breakdown telescoping, conservation, and
/// kept-task timeline alignment with `schedule_len` entries.
fn assert_trace_well_formed(trace: &SessionTrace, schedule_len: usize) {
    assert_eq!(trace.lanes(), trace.workers + 1);
    assert_eq!(trace.park_ns.len(), trace.workers);
    for lane in 0..trace.lanes() {
        let spans = trace.lane_spans(lane);
        for w in spans.windows(2) {
            assert!(
                w[0].end_ns() <= w[1].start_ns,
                "lane {lane}: span ending at {} overlaps span starting at {}",
                w[0].end_ns(),
                w[1].start_ns
            );
        }
        let b = trace.lane_breakdown(lane);
        assert!(
            b.busy_ns + b.blocked_ns <= trace.wall_ns,
            "lane {lane}: busy {} + blocked {} exceeds wall {}",
            b.busy_ns,
            b.blocked_ns,
            trace.wall_ns
        );
        assert_eq!(
            b.busy_ns + b.blocked_ns + b.idle_ns,
            trace.wall_ns,
            "lane {lane}: breakdown must telescope to the wall time"
        );
    }
    assert_eq!(trace.gmap_span_ns(), trace.metered_gmap_ns, "gmap conservation law");
    assert_eq!(trace.task_start_ns.len(), schedule_len);
    assert_eq!(trace.task_finish_ns.len(), schedule_len);
    for (i, (&s, &f)) in trace.task_start_ns.iter().zip(&trace.task_finish_ns).enumerate() {
        assert!(s <= f, "kept task {i}: start {s} after finish {f}");
        assert!(f <= trace.wall_ns, "kept task {i}: finish {f} beyond wall {}", trace.wall_ns);
    }
    for span in &trace.spans {
        assert!((span.lane as usize) < trace.lanes(), "span on unknown lane {}", span.lane);
    }
    let launches = trace.marks.iter().filter(|m| m.kind == MarkKind::Launch).count();
    let gmap_spans = trace.spans.iter().filter(|s| s.kind == SpanKind::Gmap).count();
    assert_eq!(launches, gmap_spans, "every launched attempt must record exactly one gmap span");
}

#[test]
fn traced_lag0_pagerank_is_bitwise_identical_to_the_barrier_driver() {
    let g = crawl_graph(1000, 5);
    let parts = MultilevelKWay::default().partition(&g, 8);
    let pool = ThreadPool::new(4);
    let cfg = PageRankConfig::default();

    let mut engine = Engine::in_process(&pool);
    let barrier = pagerank::run_eager(&mut engine, &g, &parts, &cfg);
    let driver = AsyncFixedPointDriver::new(cfg.max_iterations).with_trace();
    let traced = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, driver);

    assert_eq!(traced.report.global_iterations, barrier.report.global_iterations);
    for (v, (a, b)) in traced.ranks.iter().zip(&barrier.ranks).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: traced {a} vs barrier {b}");
    }

    let trace = traced.report.trace.expect("with_trace must attach a session trace");
    assert_eq!(trace.workers, 4);
    assert_trace_well_formed(&trace, traced.report.schedule.len());
    assert!(
        trace.marks.iter().any(|m| m.kind == MarkKind::Converged),
        "a converged session must mark convergence"
    );
}

#[test]
fn untraced_runs_attach_no_trace_but_still_meter_the_pool() {
    let g = crawl_graph(600, 9);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(3);
    let cfg = PageRankConfig::default();
    let out = pagerank::run_async(&pool, &g, &parts, &cfg, 1);
    assert!(out.report.trace.is_none(), "tracing is opt-in");
    assert_eq!(out.report.pool.threads, 3);
    assert!(out.report.pool.executed > 0, "the session delta must count pool tasks");
}

#[test]
fn gmap_spans_conserve_metered_time_under_transient_failures() {
    let algo = Ring::new(8, 1e-9, 0);
    let pool = ThreadPool::new(4);
    let driver = AsyncFixedPointDriver::new(400)
        .with_max_lag(2)
        .with_failures(AttemptFailurePlan::transient(0.2), 77)
        .with_trace();
    let outcome = driver.run(&pool, &algo);
    assert!(outcome.report.converged);
    assert!(
        outcome.report.failed_attempts > 0,
        "a 20% attempt-failure rate must fail some attempts"
    );

    let trace = outcome.report.trace.expect("traced run");
    assert_trace_well_formed(&trace, outcome.report.schedule.len());
    assert!(
        trace.marks.iter().any(|m| m.kind == MarkKind::Launch && m.value >= 1),
        "retried attempts must mark their relaunches"
    );
    // Failed attempts billed their elapsed to the failure meter; the
    // spans must carry exactly that, on top of the successful attempts.
    let failed_ns = outcome.report.failed_attempt_time.as_nanos() as u64;
    assert!(failed_ns > 0);
    assert!(trace.gmap_span_ns() >= failed_ns);
}

#[test]
fn chrome_trace_and_html_render_from_a_live_session() {
    let algo = Ring::new(6, 1e-9, 1);
    let pool = ThreadPool::new(2);
    let outcome = AsyncFixedPointDriver::new(300).with_trace().run(&pool, &algo);
    let trace = outcome.report.trace.expect("traced run");
    let model = ReportModel::from_session(&trace, &outcome.report.schedule, "ring 6 (live)");

    let json = model.chrome_trace_json();
    assert!(json.starts_with('{'), "Chrome trace must be a JSON object");
    assert!(json.contains("\"traceEvents\":["), "Chrome trace must carry an event array");
    assert!(json.contains("\"ph\":\"X\""), "complete events for spans");
    assert!(json.contains("\"ph\":\"M\""), "metadata events for lane names");
    assert!(json.contains("\"metered_busy_ns\""), "live metadata carries the busy meter");
    assert!(json.contains(&trace.metered_gmap_ns.to_string()));
    assert_eq!(
        json.matches("\"cat\":\"gmap\"").count(),
        trace.spans.iter().filter(|s| s.kind == SpanKind::Gmap).count(),
        "one complete event per recorded gmap span"
    );

    let html = model.html();
    assert!(html.contains("<html"));
    assert!(html.contains("ring 6 (live)"));
    assert!(html.contains("session"), "the report must name its source");

    let cp = trace.critical_path(&outcome.report.schedule);
    assert!(!cp.hops.is_empty(), "a non-empty schedule has a critical path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across partition counts, staleness bounds, pool sizes, and
    /// workloads: the trace telescopes, spans stay disjoint per lane,
    /// conservation holds exactly — and at `max_lag = 0` the traced
    /// run still reproduces the barrier oracle bitwise.
    #[test]
    fn traces_are_well_formed_across_configurations(
        k in 2usize..9,
        lag in 0usize..3,
        threads in 1usize..5,
        seed in 0u64..64,
    ) {
        let algo = Ring::new(k, 1e-8, seed);
        let pool = ThreadPool::new(threads);
        let driver = AsyncFixedPointDriver::new(300).with_max_lag(lag).with_trace();
        let outcome = driver.run(&pool, &algo);
        prop_assert!(outcome.report.converged);

        let trace = outcome.report.trace.as_ref().expect("traced run");
        prop_assert_eq!(trace.workers, threads);
        assert_trace_well_formed(trace, outcome.report.schedule.len());

        if lag == 0 {
            let (oracle, iters, converged) = run_barrier(&algo, 300);
            prop_assert!(converged);
            prop_assert_eq!(outcome.report.global_iterations, iters);
            for (p, (got, want)) in outcome.states.iter().zip(&oracle).enumerate() {
                prop_assert_eq!(
                    got.to_bits(), want.to_bits(),
                    "partition {}: traced {} vs oracle {}", p, got, want
                );
            }
        }
    }
}
