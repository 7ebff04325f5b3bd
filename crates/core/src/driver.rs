//! Iterative (fixed-point) job drivers.
//!
//! Iterative MapReduce algorithms run one job per global iteration
//! until a convergence predicate holds (paper: "functions for
//! termination of global ... MapReduce iterations"). The driver loops a
//! user step function, counts global synchronizations, and aggregates
//! simulated/real time and partial-sync counts from the engine history.

use std::time::{Duration, Instant};

use asyncmr_model::SimTime;

use crate::engine::Engine;

/// What a driver step reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// Run another global iteration.
    Continue,
    /// The global convergence predicate holds; stop.
    Converged,
}

/// Outcome of an iterative run.
#[derive(Debug, Clone)]
pub struct IterationReport {
    /// Global iterations executed (= global synchronizations).
    pub global_iterations: usize,
    /// Whether the run converged (vs. hit the iteration cap).
    pub converged: bool,
    /// Total *partial* synchronizations across all gmap tasks.
    pub local_syncs: u64,
    /// Total simulated time of all jobs in the run, when simulating.
    pub sim_time: Option<SimTime>,
    /// Total real (in-process) execution time of the jobs.
    pub wall_time: Duration,
    /// Real time of the whole driver loop, including everything the
    /// step function does *between* jobs (convergence tests, input
    /// rebuilding, repartitioning). `driver_wall - wall_time` is the
    /// driver-level overhead invisible to per-job metering.
    pub driver_wall: Duration,
    /// Total abstract ops (map + reduce) — the paper's "serial
    /// operation count" which partial synchronization deliberately
    /// trades against synchronization cost.
    pub total_ops: u64,
    /// Jobs run (≥ `global_iterations`; a step may run several jobs).
    pub jobs: usize,
}

/// Runs a step function until convergence or an iteration cap.
#[derive(Debug, Clone, Copy)]
pub struct FixedPointDriver {
    /// Upper bound on global iterations; must be ≥ 1
    /// ([`FixedPointDriver::run`] panics on `0`).
    pub max_iterations: usize,
}

impl Default for FixedPointDriver {
    fn default() -> Self {
        FixedPointDriver { max_iterations: 1_000 }
    }
}

impl FixedPointDriver {
    /// A driver capped at `max_iterations` global iterations.
    pub fn new(max_iterations: usize) -> Self {
        FixedPointDriver { max_iterations }
    }

    /// Runs `step(engine, iteration)` until it returns
    /// [`StepStatus::Converged`] or the cap is reached, and summarizes
    /// everything the engine recorded during the run.
    ///
    /// # Panics
    ///
    /// If `max_iterations` is 0.
    pub fn run<F>(&self, engine: &mut Engine<'_>, mut step: F) -> IterationReport
    where
        F: FnMut(&mut Engine<'_>, usize) -> StepStatus,
    {
        assert!(self.max_iterations > 0, "FixedPointDriver::max_iterations is 0");
        let history_start = engine.history().len();
        let started = Instant::now();
        let mut iterations = 0;
        let mut converged = false;
        while iterations < self.max_iterations {
            let status = step(engine, iterations);
            iterations += 1;
            if status == StepStatus::Converged {
                converged = true;
                break;
            }
        }
        let driver_wall = started.elapsed();

        let new_records = &engine.history()[history_start..];
        let mut local_syncs = 0u64;
        let mut total_ops = 0u64;
        let mut wall_time = Duration::ZERO;
        let mut sim_time: Option<SimTime> = None;
        for record in new_records {
            local_syncs += record.meter.local_syncs;
            total_ops += record.meter.map_ops + record.meter.reduce_ops;
            wall_time += record.wall;
            if let Some(stats) = &record.sim {
                *sim_time.get_or_insert(SimTime::ZERO) += stats.duration;
            }
        }
        IterationReport {
            global_iterations: iterations,
            converged,
            local_syncs,
            sim_time,
            wall_time,
            driver_wall,
            total_ops,
            jobs: new_records.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::{MapContext, ReduceContext};
    use crate::engine::JobOptions;
    use crate::traits::{Mapper, Reducer};
    use asyncmr_runtime::ThreadPool;

    struct Id;
    impl Mapper for Id {
        type Input = u32;
        type Key = u32;
        type Value = u32;
        fn map(&self, _t: usize, input: &u32, ctx: &mut MapContext<u32, u32>) {
            ctx.emit_intermediate(*input, *input);
            ctx.add_ops(1);
        }
    }
    impl Reducer for Id {
        type Key = u32;
        type ValueIn = u32;
        type Out = u32;
        fn reduce(&self, key: &u32, values: &[u32], ctx: &mut ReduceContext<u32, u32>) {
            ctx.emit(*key, values[0]);
        }
    }

    #[test]
    fn driver_counts_iterations_until_convergence() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let driver = FixedPointDriver::new(100);
        let report = driver.run(&mut engine, |engine, iter| {
            let inputs = vec![iter as u32];
            engine.run("step", &inputs, &Id, &Id, &JobOptions::with_reducers(1));
            if iter >= 4 {
                StepStatus::Converged
            } else {
                StepStatus::Continue
            }
        });
        assert_eq!(report.global_iterations, 5);
        assert!(report.converged);
        assert_eq!(report.jobs, 5);
        assert_eq!(report.total_ops, 5);
        assert!(report.sim_time.is_none());
        // The driver loop strictly contains the jobs it ran, so its
        // wall time bounds the summed per-job wall times.
        assert!(
            report.driver_wall >= report.wall_time,
            "driver_wall {:?} < wall_time {:?}",
            report.driver_wall,
            report.wall_time
        );
    }

    #[test]
    fn driver_wall_includes_step_overhead_outside_jobs() {
        let pool = ThreadPool::new(1);
        let mut engine = Engine::in_process(&pool);
        let driver = FixedPointDriver::new(3);
        let report = driver.run(&mut engine, |engine, iter| {
            let inputs = vec![iter as u32];
            engine.run("step", &inputs, &Id, &Id, &JobOptions::with_reducers(1));
            // Driver-level overhead the per-job meters cannot see.
            std::thread::sleep(Duration::from_millis(2));
            StepStatus::Continue
        });
        assert!(report.driver_wall >= report.wall_time + Duration::from_millis(6));
    }

    #[test]
    fn driver_caps_runaway_iterations() {
        let pool = ThreadPool::new(1);
        let mut engine = Engine::in_process(&pool);
        let driver = FixedPointDriver::new(7);
        let report = driver.run(&mut engine, |_, _| StepStatus::Continue);
        assert_eq!(report.global_iterations, 7);
        assert!(!report.converged);
        assert_eq!(report.jobs, 0);
    }

    #[test]
    #[should_panic(expected = "FixedPointDriver::max_iterations is 0")]
    fn a_zero_iteration_cap_is_refused() {
        let pool = ThreadPool::new(1);
        FixedPointDriver::new(0).run(&mut Engine::in_process(&pool), |_, _| StepStatus::Converged);
    }
}
