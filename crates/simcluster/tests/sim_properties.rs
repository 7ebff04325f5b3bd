//! Property tests for the discrete-event simulator: determinism, time
//! accounting, and monotonicity in workload size.

use asyncmr_model::AttemptFailurePlan;
use asyncmr_model::{JobSpec, MapTaskSpec, ReduceTaskSpec, SimTime};
use asyncmr_simcluster::events::EventQueue;
use asyncmr_simcluster::{ClusterSpec, Simulation};
use proptest::prelude::*;

fn arb_job() -> impl Strategy<Value = JobSpec> {
    let maps = proptest::collection::vec(
        (0u64..64 << 20, 0u64..50_000_000, 0u64..16 << 20)
            .prop_map(|(i, o, b)| MapTaskSpec::new(i, o, b)),
        0..40,
    );
    let reduces = proptest::collection::vec(
        (0u64..10_000_000, 0u64..8 << 20).prop_map(|(o, b)| ReduceTaskSpec::new(o, b)),
        0..16,
    );
    (maps, reduces).prop_map(|(m, r)| JobSpec::named("prop").with_maps(m).with_reduces(r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event queue pops in (time, insertion) order for arbitrary
    /// insert sequences.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..10_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some((at, id, i)) = q.pop() {
            prop_assert_eq!(id, i as u64, "event ids are assigned in push order");
            popped.push((at, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for pair in popped.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Identical (spec, seed, job) inputs produce bit-identical stats.
    #[test]
    fn simulation_is_deterministic(job in arb_job(), seed in 0u64..5000) {
        let a = Simulation::new(ClusterSpec::ec2_2010(), seed).run_job(&job);
        let b = Simulation::new(ClusterSpec::ec2_2010(), seed).run_job(&job);
        prop_assert_eq!(a, b);
    }

    /// Phase decomposition always sums to the job duration.
    #[test]
    fn phases_always_sum(job in arb_job(), seed in 0u64..5000) {
        let stats = Simulation::new(ClusterSpec::ec2_2010(), seed).run_job(&job);
        prop_assert_eq!(stats.phases_sum(), stats.duration);
        prop_assert_eq!(stats.finished_at - stats.submitted_at, stats.duration);
    }

    /// Adding compute to every map task never shortens the job.
    #[test]
    fn more_ops_never_faster(job in arb_job(), extra in 1u64..100_000_000) {
        let base = Simulation::new(ClusterSpec::ec2_2010(), 7).run_job(&job);
        let mut heavier = job.clone();
        for m in &mut heavier.maps {
            m.ops += extra;
        }
        let slower = Simulation::new(ClusterSpec::ec2_2010(), 7).run_job(&heavier);
        prop_assert!(slower.duration >= base.duration,
            "{} < {}", slower.duration, base.duration);
    }

    /// Failure injection never loses tasks: every map and reduce still
    /// completes, and failed attempts are non-negative bounded by
    /// attempts x tasks.
    #[test]
    fn failures_preserve_completion(job in arb_job(), prob in 0.0f64..0.5) {
        let stats = Simulation::new(ClusterSpec::ec2_2010(), 3)
            .with_failures(AttemptFailurePlan::transient(prob))
            .run_job(&job);
        prop_assert_eq!(stats.map_tasks, job.maps.len());
        prop_assert_eq!(stats.reduce_tasks, job.reduces.len());
        let cap = (job.maps.len() + job.reduces.len()) as u32 * 4;
        prop_assert!(stats.failed_attempts <= cap);
    }
}
