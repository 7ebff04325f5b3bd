//! The end-to-end pass: what a user of the system sees, measured with
//! nothing attached.
//!
//! Every rep is the whole user-visible cycle: build the input from the
//! seed (one `setup_s` sample), then call the entry point once (one
//! `solve_s` and one `cpu_s` sample). The first cycles are untimed
//! warm-ups, the loop is closed (the next cycle starts when the
//! previous one returned) and every oracle runs outside the timed
//! region. Each timed rep is one *operation*; a rep that panics, does
//! not converge, or disagrees with the other reps or the serial
//! baseline counts as failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::json::{obj, Value};
use crate::measure::{cpu_seconds, peak_rss_mib, steal_seconds};
use crate::metrics::MetricSet;
use crate::workloads::{build, Input, Scale, Solved, Workload};

/// How much of the entry point one pass measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: Scale,
    pub warmups: usize,
    /// Timed reps: at least this many …
    pub min_reps: usize,
    /// … and more for as long as another cycle fits into this much
    /// measuring time.
    pub measure_for: Duration,
}

impl Plan {
    /// The issue's protocol: 2 untimed warm-ups, then 7 timed reps.
    pub fn full() -> Plan {
        Plan { scale: Scale::Full, warmups: 2, min_reps: 7, measure_for: Duration::ZERO }
    }

    /// ≈ 1/50 sizes, one rep: every code path in seconds.
    pub fn quick() -> Plan {
        Plan { scale: Scale::Quick, warmups: 0, min_reps: 1, measure_for: Duration::ZERO }
    }

    /// The benchmark contract: as many cycles as fit into `seconds`,
    /// at least 3.
    pub fn for_seconds(seconds: u64) -> Plan {
        Plan {
            scale: Scale::Full,
            warmups: 1,
            min_reps: 3,
            measure_for: Duration::from_secs(seconds),
        }
    }
}

/// Who ran and on what: shared header of every result.
#[derive(Debug, Clone, Copy)]
pub struct RunId {
    pub workload: Workload,
    pub seed: u64,
    /// Pool workers. The thread calling the entry point is one more
    /// lane: it helps execute tasks while it waits.
    pub threads: usize,
}

impl RunId {
    pub fn header(&self, pass: &str) -> Vec<(String, Value)> {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        [
            ("workload", Value::from(self.workload.name())),
            ("pass", pass.into()),
            ("seed", self.seed.into()),
            ("pool_workers", self.threads.into()),
            ("lanes", (self.threads + 1).into()),
            ("available_parallelism", nproc.into()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

/// Result of the end-to-end pass on one workload.
pub struct EndToEnd {
    pub id: RunId,
    pub metrics: MetricSet,
    pub ops_attempted: usize,
    pub ops_failed: usize,
    /// Why each failed rep (or the oracle) failed.
    pub failures: Vec<String>,
    /// Exact-repeat counts of the (first good) solve.
    pub iterations: usize,
    pub ops: u64,
    pub quality_err: f64,
    /// Share of the machine's CPU time the hypervisor withheld while
    /// the timed cycles ran.
    pub host_steal_share: f64,
}

impl EndToEnd {
    pub fn correct(&self) -> bool {
        self.ops_failed == 0 && self.failures.is_empty()
    }

    pub fn to_json(&self) -> Value {
        let mut pairs = self.id.header("end_to_end");
        pairs.extend(
            [
                ("correct", Value::from(self.correct())),
                ("ops_attempted", self.ops_attempted.into()),
                ("ops_failed", self.ops_failed.into()),
                ("failures", self.failures.clone().into()),
                ("counts", obj([("iterations", self.iterations.into()), ("ops", self.ops.into())])),
                ("quality_err", self.quality_err.into()),
                ("host_steal_share", self.host_steal_share.into()),
                ("metrics", self.metrics.to_json()),
            ]
            .map(|(k, v)| (k.to_string(), v)),
        );
        Value::Obj(pairs)
    }
}

/// One guarded call of the entry point.
pub fn attempt(solve: impl FnOnce() -> Solved) -> Result<Solved, String> {
    catch_unwind(AssertUnwindSafe(solve)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("panicked: {msg}")
    })
}

pub fn run(id: RunId, plan: Plan) -> EndToEnd {
    // Rebuilding per cycle spreads the set-up samples over the whole
    // run (the sandbox's CPU speed drifts in phases of seconds) and
    // hands every solve the same cold, freshly built input. The old
    // input is dropped first, so peak memory holds one.
    let mut input = None;
    let cycle = |input: &mut Option<Input>| -> (f64, f64, f64, Result<Solved, String>) {
        drop(input.take());
        let built = input.insert(build(id.workload, plan.scale, id.seed, id.threads));
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let outcome = attempt(|| built.solve());
        (built.setup.total(), t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0, outcome)
    };
    for _ in 0..plan.warmups {
        // A warm-up that fails will fail again as a timed rep, where it
        // is counted.
        let _ = cycle(&mut input);
    }

    let (mut setup, mut wall, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = Vec::new();
    let mut first: Option<Solved> = None;
    let mut ops_failed = 0usize;
    let measuring = Instant::now();
    let steal0 = steal_seconds();
    loop {
        // Stop before a cycle that would overrun the time to measure
        // for, judging by the slowest cycle so far.
        let elapsed = measuring.elapsed();
        let longest = setup.iter().zip(&wall).map(|(s, w)| s + w).fold(0.0f64, f64::max);
        if wall.len() >= plan.min_reps
            && elapsed + Duration::from_secs_f64(longest) > plan.measure_for
        {
            break;
        }
        let (setup_s, wall_s, cpu_s, outcome) = cycle(&mut input);
        setup.push(setup_s);
        wall.push(wall_s);
        cpu.push(cpu_s);
        let rep = wall.len();
        match (outcome, &first) {
            (Err(why), _) => {
                ops_failed += 1;
                failures.push(format!("rep {rep} {why}"));
            }
            (Ok(solved), _) if !solved.converged() => {
                ops_failed += 1;
                failures.push(format!("rep {rep} did not converge within the iteration cap"));
            }
            (Ok(solved), None) => first = Some(solved),
            // The lag-0 / engine determinism contract: every rep returns
            // bitwise-identical values, iteration counts and op counts.
            (Ok(solved), Some(reference)) => {
                if solved.digest() != reference.digest() {
                    ops_failed += 1;
                    failures.push(format!("rep {rep} differs bitwise from the first good rep"));
                }
            }
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let host_steal_share =
        (steal_seconds() - steal0) / (measuring.elapsed().as_secs_f64() * cpus).max(1e-9);
    let input = input.expect("at least one cycle ran");
    // Set-up plus solves; the oracle's own allocations come after.
    let peak_rss_mb = peak_rss_mib();

    let (iterations, ops, quality_err) = match &first {
        None => (0, 0, f64::NAN),
        Some(solved) => {
            let quality = match input.check(solved, &input.serial_baseline()) {
                Ok(err) => err,
                Err(why) => {
                    // One shared result failed the oracle: every rep that
                    // returned it did.
                    failures.push(format!("oracle: {why}"));
                    ops_failed = wall.len();
                    f64::NAN
                }
            };
            (solved.iterations(), solved.ops(), quality)
        }
    };

    let mut metrics = MetricSet::default();
    metrics.fast_decile_of("solve_s", wall.clone());
    metrics.fast_decile_of("cpu_s", cpu);
    metrics.real("peak_rss_mb", peak_rss_mb);
    metrics.fast_decile_of("setup_s", setup);
    EndToEnd {
        id,
        metrics,
        ops_attempted: wall.len(),
        ops_failed,
        failures,
        iterations,
        ops,
        quality_err,
        host_steal_share,
    }
}
