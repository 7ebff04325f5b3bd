//! Property tests pinning bounded staleness to its contract, over ring
//! size × `max_lag` ∈ 0..=4: `max_lag = 0` is the barrier driver bit
//! for bit (states *and* iteration count); at any `max_lag` no recorded
//! dependency and no absorbed batch is more than `max_lag` iterations
//! old, [`SessionReport::observed_staleness`] accounts for every batch
//! the contributing iterations absorbed, and the kept schedule covers
//! exactly `iterations × partitions` gmaps.

use asyncmr_core::prelude::*;
use asyncmr_core::session::SessionReport;
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// Ring diffusion with a sparse dependency structure — the same shape
/// the in-module session tests use as their oracle workload:
/// `x_p ← 0.4·x_p + 0.2·(x_{p−1} + x_{p+1}) + heat_p`, a strict
/// contraction with a deterministic fixpoint.
struct Ring {
    k: usize,
    heat: Vec<f64>,
    tolerance: f64,
}

impl Ring {
    fn new(k: usize, tolerance: f64) -> Self {
        let heat = (0..k).map(|p| (p as f64 * 0.37).sin().abs() * 0.1).collect();
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

fn run(algo: &Ring, max_lag: usize) -> (Vec<f64>, SessionReport) {
    let pool = ThreadPool::new(4);
    let outcome = AsyncFixedPointDriver::new(500).with_max_lag(max_lag).run(&pool, algo);
    (outcome.states.iter().map(|s| **s).collect(), outcome.report)
}

/// The barrier oracle: [`FixedPointDriver`] looping the same trait
/// methods, one global barrier per iteration.
fn run_barrier(algo: &Ring) -> (Vec<f64>, IterationReport) {
    let pool = ThreadPool::new(1);
    let mut engine = Engine::in_process(&pool);
    let k = algo.k;
    let mut states: Vec<f64> = (0..k).map(|p| algo.init_state(p)).collect();
    let report = FixedPointDriver::new(500).run(&mut engine, |_, i| {
        let outs: Vec<(GmapOutput<f64>, Outbox<f64>)> = (0..k)
            .map(|p| {
                let mut outbox = Outbox::new(k);
                let out = algo.gmap(p, i, &states[p], &mut outbox);
                (out, outbox)
            })
            .collect();
        let mut max_delta = 0.0f64;
        let next: Vec<f64> = (0..k)
            .map(|p| {
                let inbox: Vec<(usize, &[f64])> =
                    algo.neighbors(p).into_iter().map(|q| (q, outs[q].1.batch(p))).collect();
                let absorbed = algo.absorb(p, i, &states[p], outs[p].0.update, &inbox);
                max_delta = max_delta.max(absorbed.delta);
                absorbed.state
            })
            .collect();
        states = next;
        if algo.converged(max_delta) {
            StepStatus::Converged
        } else {
            StepStatus::Continue
        }
    });
    (states, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `max_lag = 0` — the byte-identity regime — reproduces the
    /// barrier driver: bitwise-identical states, the identical
    /// iteration count, and every absorbed batch exactly fresh. (Lag > 0
    /// runs are schedule-dependent in their stopping point by design, so
    /// bitwise identity is only the lag-0 contract.)
    #[test]
    fn lag_zero_is_the_barrier_driver_bitwise(k in 1usize..10) {
        let algo = Ring::new(k, 1e-10);
        let (barrier_states, barrier_report) = run_barrier(&algo);
        let (states, report) = run(&algo, 0);

        prop_assert!(report.converged && barrier_report.converged);
        prop_assert_eq!(report.global_iterations, barrier_report.global_iterations);
        for (p, (got, want)) in states.iter().zip(&barrier_states).enumerate() {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "partition {}: {} vs {}", p, got, want);
        }
        prop_assert!(report.observed_staleness.len() <= 1, "lag 0 read a stale batch");
    }

    /// At every lag the bound holds where it can be seen: every
    /// consumed input in the kept schedule is at most `max_lag`
    /// iterations stale, the staleness histogram never reaches past
    /// `max_lag` and counts one batch per dependency per contributing
    /// absorb, the schedule stays topologically ordered and covers
    /// exactly `iterations × partitions` gmaps, and the run converges to
    /// the contraction's unique fixpoint.
    #[test]
    fn no_run_reads_past_max_lag(
        k in 1usize..10,
        max_lag in 0usize..=4,
    ) {
        let algo = Ring::new(k, 1e-10);
        let (free_states, free_report) = run(&algo, 0);
        prop_assert!(free_report.converged);

        let (states, report) = run(&algo, max_lag);
        prop_assert!(report.converged);
        prop_assert_eq!(report.max_lag, max_lag);
        prop_assert_eq!(report.gmap_tasks, report.global_iterations * k);

        let dep_slots: usize = (0..k).map(|p| algo.neighbors(p).len()).sum();
        prop_assert!(
            report.observed_staleness.len() <= max_lag + 1,
            "absorbed a batch {} iterations stale under max_lag {}",
            report.observed_staleness.len() - 1, max_lag
        );
        prop_assert_eq!(
            report.observed_staleness.iter().sum::<u64>(),
            (report.global_iterations * dep_slots) as u64
        );

        // The same bound on the recorded schedule itself: a task at
        // iteration i consumes producer outputs no older than
        // iteration i − 1 − max_lag.
        for (idx, task) in report.schedule.iter().enumerate() {
            for &d in &task.deps {
                prop_assert!(d < idx, "schedule not topological at task {}", idx);
                let producer = &report.schedule[d];
                prop_assert!(
                    producer.iteration + 1 + max_lag >= task.iteration,
                    "task {} (iter {}) consumed iter {} — staleness exceeds max_lag {}",
                    idx, task.iteration, producer.iteration, max_lag
                );
            }
        }

        // The contraction has one fixpoint: whatever the lag, the
        // converged states agree with the lag-0 run to
        // fixpoint-resolution (stopping points differ below 1e-10).
        for (p, (got, want)) in states.iter().zip(&free_states).enumerate() {
            prop_assert!((got - want).abs() < 1e-8,
                "partition {}: {} vs {} (lag {})", p, got, want, max_lag);
        }
    }
}
