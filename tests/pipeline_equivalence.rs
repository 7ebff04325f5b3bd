//! Property tests pinning the staged schedule to the oracle on
//! arbitrary jobs and job sequences — with the edge shapes called out
//! explicitly: **empty-input jobs** (no map task, so no partition ever
//! receives a record) and **single-reducer jobs** (every map task feeds
//! the one partition).

use proptest::prelude::*;

use asyncmr::core::prelude::*;
use asyncmr::core::{EagerMapper, Engine, JobMeter, JobReuse};
use asyncmr::runtime::ThreadPool;

/// Scatters each input number across a small key space.
struct ScatterMapper {
    key_space: u32,
}

impl Mapper for ScatterMapper {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = u64;
    fn map(&self, _t: usize, split: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
        for &x in split {
            ctx.emit_intermediate(x % self.key_space, u64::from(x));
            ctx.add_ops(1);
        }
    }
}

/// Sums each key group, metering one op per value.
struct SumReducer;

impl Reducer for SumReducer {
    type Key = u32;
    type ValueIn = u64;
    type Out = u64;
    fn reduce(&self, key: &u32, values: &[u64], ctx: &mut ReduceContext<u32, u64>) {
        ctx.add_ops(values.len() as u64);
        ctx.emit(*key, values.iter().sum());
    }
}

type Run = (Vec<(u32, u64)>, JobMeter);

/// Runs `script` — one job after another, on one staged engine and one
/// oracle, so every job after the first meets whatever the engine
/// remembered — returning each job's (pairs, meter) as (staged,
/// reference), plus the staged engine's reuse counts.
fn run_sequence(
    script: &[&[Vec<u32>]],
    key_space: u32,
    reducers: usize,
) -> Vec<(Run, Run, JobReuse)> {
    let pool = ThreadPool::new(3);
    let mapper = ScatterMapper { key_space };
    let mut engines = [Engine::in_process(&pool), Engine::with_reference_shuffle(&pool)];
    let mut jobs = Vec::with_capacity(script.len());
    for splits in script {
        let opts = JobOptions::with_reducers(reducers);
        let [staged, reference] =
            engines.each_mut().map(|engine| engine.run("job", splits, &mapper, &SumReducer, &opts));
        let reuse = staged.reuse;
        let run = |out: JobResult<u32, u64>| (out.pairs, out.meter);
        jobs.push((run(staged), run(reference), reuse));
    }
    jobs
}

/// Runs one job on a staged engine and the oracle, returning each
/// one's (pairs, meter).
fn run_all(splits: &[Vec<u32>], key_space: u32, reducers: usize) -> (Run, Run) {
    let (staged, reference, _) =
        run_sequence(&[splits], key_space, reducers).pop().expect("one job");
    (staged, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary splits, key space and reducer count:
    /// staged ≡ reference, pairs byte-for-byte.
    #[test]
    fn staged_equals_reference(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..40), 0..12),
        key_space in 1u32..64,
        reducers in 1usize..24,
    ) {
        let (staged, reference) = run_all(&splits, key_space, reducers);
        prop_assert_eq!(&staged.0, &reference.0, "staged vs reference pairs");
        // The reference keeps the old every-partition-is-a-task meter
        // semantics; everything else must be equal.
        let every_partition = JobMeter { reduce_tasks: reference.1.reduce_tasks, ..staged.1 };
        prop_assert_eq!(every_partition, reference.1, "staged vs reference meter");
    }

    /// Sequences of jobs on one engine: the same splits four times —
    /// first sight records every plan, and the second to fourth are
    /// shuffled entirely through remembered plans, so *that* is what is
    /// compared against the oracle — then splits whose keys churn, then
    /// the first again.
    #[test]
    fn job_sequences_on_one_engine_agree_on_the_hit_path(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 1..40), 1..8),
        key_space in 2u32..64,
        reducers in 2usize..12,
    ) {
        let churned: Vec<Vec<u32>> =
            splits.iter().map(|split| split.iter().map(|x| x + 1).collect()).collect();
        let same = &splits[..];
        let script = [same, same, same, same, &churned[..], same];
        let jobs = run_sequence(&script, key_space, reducers);
        for (job, (staged, reference, reuse)) in jobs.iter().enumerate() {
            prop_assert_eq!(&staged.0, &reference.0, "job {}: staged vs reference pairs", job);
            let tasks = (splits.len() as u64, staged.1.reduce_tasks as u64);
            let consulted =
                (reuse.route.hits + reuse.route.misses, reuse.group.hits + reuse.group.misses);
            prop_assert_eq!(consulted, tasks, "job {}: one plan per task", job);
            let misses = (reuse.route.misses, reuse.group.misses);
            match job {
                0 => prop_assert_eq!(misses, tasks, "first sight records every plan"),
                1..=3 => {
                    prop_assert_eq!((reuse.route.hits, reuse.group.hits), tasks, "all hits");
                    prop_assert_eq!(reuse.group_by_identity, reuse.group.hits, "job {}", job);
                }
                _ => {}
            }
        }
        prop_assert_eq!(&jobs[0].0, &jobs[5].0, "the first job again, after the churn");
    }

    /// Empty-input jobs: zero map tasks means no partition receives a
    /// record — empty output and zeroed meters, like the oracle's.
    #[test]
    fn empty_input_jobs_agree(
        reducers in 1usize..24,
    ) {
        let (staged, reference) = run_all(&[], 8, reducers);
        prop_assert!(staged.0.is_empty());
        prop_assert_eq!(&reference.0, &staged.0);
        prop_assert_eq!(staged.1.map_tasks, 0);
        prop_assert_eq!(staged.1.reduce_tasks, 0);
    }

    /// Single-reducer jobs: the lone partition takes every map task's
    /// bucket; ordering inside it must be map-task order.
    #[test]
    fn single_reducer_jobs_agree(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..40), 1..12),
        key_space in 1u32..64,
    ) {
        let (staged, reference) = run_all(&splits, key_space, 1);
        prop_assert_eq!(&staged.0, &reference.0);
        prop_assert!(staged.1.reduce_tasks <= 1);
    }
}

/// An eager mapper over the same splits: every number `x` feeds its
/// key `x % key_space` and passes that key's running maximum on to the
/// next key, round and round to a local fixpoint — several local syncs
/// a task. Its state's keys `0..key_space` are its groups, so key `k`'s
/// group is `k`, and a key no number reached keeps its value.
struct RingMax {
    key_space: u32,
}

impl LocalAlgorithm for RingMax {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = u64;
    type Intermediate = u64;

    fn init_state(&self, _t: usize, _split: &Vec<u32>) -> Vec<(u32, u64)> {
        (0..self.key_space).map(|k| (k, 0)).collect()
    }
    fn init(&self, _split: &Vec<u32>, acc: &mut Vec<u64>) {
        acc.resize(self.key_space as usize, 0);
    }
    fn lmap(&self, _t: usize, split: &Vec<u32>, state: &[u64], ctx: &mut LocalMapContext<Self>) {
        for &x in split {
            let key = x % self.key_space;
            ctx.emit_to(key as usize, u64::from(x));
            ctx.emit_to(((key + 1) % self.key_space) as usize, state[key as usize]);
        }
        ctx.add_ops(2 * split.len() as u64);
    }
    fn fold(acc: &mut u64, value: u64) {
        *acc = (*acc).max(value);
    }
    fn finish(&self, _split: &Vec<u32>, _group: usize, old: &u64, acc: &mut u64) -> bool {
        *acc = (*acc).max(*old);
        old == acc
    }
    /// Each key's running maximum, for the global sum.
    fn finalize(
        &self,
        _t: usize,
        _split: &Vec<u32>,
        keys: &[u32],
        state: &[u64],
        ctx: &mut MapContext<u32, u64>,
    ) {
        for (k, v) in keys.iter().zip(state) {
            ctx.emit_intermediate(*k, *v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequences of *eager* jobs on one engine, the staged schedule
    /// against the reference: a job whose splits changed and a job
    /// that repeats an earlier one give the same pairs and meters.
    #[test]
    fn eager_job_sequences_on_one_engine_agree(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 1..30), 1..6),
        key_space in 2u32..16,
        reducers in 1usize..6,
    ) {
        let churned: Vec<Vec<u32>> =
            splits.iter().map(|split| split.iter().map(|x| x + 1).collect()).collect();
        let pool = ThreadPool::new(3);
        let gmap = EagerMapper::new(RingMax { key_space });
        let opts = JobOptions::with_reducers(reducers);
        let mut engines = [Engine::in_process(&pool), Engine::with_reference_shuffle(&pool)];
        for (job, splits) in [&splits, &splits, &churned, &splits].into_iter().enumerate() {
            let [staged, reference] =
                engines.each_mut().map(|engine| engine.run("ring", splits, &gmap, &SumReducer, &opts));
            prop_assert_eq!(&staged.pairs, &reference.pairs, "job {}: staged vs reference", job);
            prop_assert_eq!(staged.meter.local_syncs, reference.meter.local_syncs);
            prop_assert_eq!(staged.meter.map_ops, reference.meter.map_ops);
            prop_assert!(staged.meter.local_syncs >= splits.len() as u64);
            prop_assert_eq!(reference.reuse, JobReuse::default());
        }
    }
}
