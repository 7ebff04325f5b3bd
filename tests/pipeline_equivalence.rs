//! Property tests pinning the pipelined execution strategy to the
//! staged and reference strategies on arbitrary jobs — with the edge
//! shapes the completion-driven scheduler has to get right called out
//! explicitly: **empty-input jobs** (no map task ever deposits, so no
//! partition ever completes) and **single-reducer jobs** (every map
//! task feeds the one partition, which completes only on the very last
//! deposit).

use proptest::prelude::*;

use asyncmr::core::prelude::*;
use asyncmr::core::{EagerMapper, Engine, JobReuse};
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

struct SumCombiner;

impl Combiner for SumCombiner {
    type Key = u32;
    type Value = u64;
    fn combine(&self, _key: &u32, values: &[u64]) -> u64 {
        values.iter().sum()
    }
}

type Run = (Vec<(u32, u64)>, asyncmr::core::JobMeter);

/// Runs `script` — one job after another, on one engine per strategy,
/// so every job after the first meets whatever the engine remembered —
/// returning each job's (pairs, meter) as (staged, reference,
/// pipelined), plus the staged engine's reuse counts.
fn run_sequence(
    script: &[&[Vec<u32>]],
    key_space: u32,
    reducers: usize,
    combine: bool,
) -> Vec<(Run, Run, Run, JobReuse)> {
    let pool = ThreadPool::new(3);
    let mapper = ScatterMapper { key_space };
    let mut engines = [
        Engine::in_process(&pool),
        Engine::with_reference_shuffle(&pool),
        Engine::with_pipelined_shuffle(&pool),
    ];
    let mut jobs = Vec::with_capacity(script.len());
    for splits in script {
        let [staged, reference, pipelined] = engines.each_mut().map(|engine| {
            let opts = JobOptions::with_reducers(reducers);
            if combine {
                engine.run("job", splits, &mapper, &SumReducer, &opts.with_combiner(&SumCombiner))
            } else {
                engine.run("job", splits, &mapper, &SumReducer, &opts)
            }
        });
        let reuse = staged.reuse;
        assert_eq!((reuse.route, reuse.group), (pipelined.reuse.route, pipelined.reuse.group));
        let run = |out: JobResult<u32, u64>| (out.pairs, out.meter);
        jobs.push((run(staged), run(reference), run(pipelined), reuse));
    }
    jobs
}

/// Runs one job under all three strategies, returning each strategy's
/// (pairs, meter).
fn run_all(splits: &[Vec<u32>], key_space: u32, reducers: usize, combine: bool) -> (Run, Run, Run) {
    let (staged, reference, pipelined, _) =
        run_sequence(&[splits], key_space, reducers, combine).pop().expect("one job");
    (staged, reference, pipelined)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary splits, key space, reducer count, and combiner:
    /// pipelined ≡ staged ≡ reference, pairs byte-for-byte.
    #[test]
    fn pipelined_equals_staged_equals_reference(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..40), 0..12),
        key_space in 1u32..64,
        reducers in 1usize..24,
        combine in any::<bool>(),
    ) {
        let (staged, reference, pipelined) = run_all(&splits, key_space, reducers, combine);
        prop_assert_eq!(&staged.0, &reference.0, "staged vs reference pairs");
        prop_assert_eq!(&staged.0, &pipelined.0, "staged vs pipelined pairs");
        // The reference keeps the old every-partition-is-a-task meter
        // semantics; staged and pipelined meters must be fully equal.
        prop_assert_eq!(staged.1, pipelined.1, "staged vs pipelined meter");
    }

    /// Sequences of jobs on one engine: the same splits four times —
    /// first sight is shuffled unplanned, the second records every
    /// plan, and the third and fourth are shuffled entirely through
    /// remembered plans, so *that* is what is compared against the
    /// oracle — then splits whose keys churn, then the first again.
    #[test]
    fn job_sequences_on_one_engine_agree_on_the_hit_path(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 1..40), 1..8),
        key_space in 2u32..64,
        reducers in 2usize..12,
        combine in any::<bool>(),
    ) {
        let churned: Vec<Vec<u32>> =
            splits.iter().map(|split| split.iter().map(|x| x + 1).collect()).collect();
        let same = &splits[..];
        let script = [same, same, same, same, &churned[..], same];
        let jobs = run_sequence(&script, key_space, reducers, combine);
        for (job, (staged, reference, pipelined, reuse)) in jobs.iter().enumerate() {
            prop_assert_eq!(&staged.0, &reference.0, "job {}: staged vs reference pairs", job);
            prop_assert_eq!(&staged.0, &pipelined.0, "job {}: staged vs pipelined pairs", job);
            prop_assert_eq!(staged.1, pipelined.1, "job {}: staged vs pipelined meter", job);
            let tasks = (splits.len() as u64, staged.1.reduce_tasks as u64);
            let consulted =
                (reuse.route.hits + reuse.route.misses, reuse.group.hits + reuse.group.misses);
            prop_assert_eq!(consulted, tasks, "job {}: one plan per task", job);
            let recorded = (reuse.route.recorded, reuse.group.recorded);
            match job {
                0 => prop_assert_eq!(recorded, (0, 0), "first sight records nothing"),
                1 => prop_assert_eq!(recorded, tasks, "the second sight records every plan"),
                2 | 3 => {
                    prop_assert_eq!((reuse.route.hits, reuse.group.hits), tasks, "all hits")
                }
                _ => {}
            }
        }
        prop_assert_eq!(&jobs[0].0, &jobs[5].0, "the first job again, after the churn");
    }

    /// Empty-input jobs: zero map tasks means no deposit ever completes
    /// a partition — the pipelined scheduler must still terminate with
    /// empty output and zeroed meters, like the other strategies.
    #[test]
    fn empty_input_jobs_agree(
        reducers in 1usize..24,
        combine in any::<bool>(),
    ) {
        let (staged, reference, pipelined) = run_all(&[], 8, reducers, combine);
        prop_assert!(pipelined.0.is_empty());
        prop_assert_eq!(&staged.0, &pipelined.0);
        prop_assert_eq!(&reference.0, &pipelined.0);
        prop_assert_eq!(staged.1, pipelined.1);
        prop_assert_eq!(pipelined.1.map_tasks, 0);
        prop_assert_eq!(pipelined.1.reduce_tasks, 0);
    }

    /// Single-reducer jobs: the lone partition completes exactly when
    /// the last map task deposits; ordering inside it must still be
    /// map-task order regardless of completion order.
    #[test]
    fn single_reducer_jobs_agree(
        splits in proptest::collection::vec(
            proptest::collection::vec(0u32..10_000, 0..40), 1..12),
        key_space in 1u32..64,
        combine in any::<bool>(),
    ) {
        let (staged, reference, pipelined) = run_all(&splits, key_space, 1, combine);
        prop_assert_eq!(&staged.0, &reference.0);
        prop_assert_eq!(&staged.0, &pipelined.0);
        prop_assert_eq!(staged.1, pipelined.1);
        prop_assert!(pipelined.1.reduce_tasks <= 1);
    }
}

/// An eager mapper over the same splits: every number `x` feeds its
/// key `x % key_space` and passes that key's running maximum on to the
/// next key, round and round to a local fixpoint — several local syncs
/// a task, their key sequence a function of the split alone.
struct RingMax {
    key_space: u32,
}

impl LocalAlgorithm for RingMax {
    type Input = Vec<u32>;
    type Item = u32;
    type Key = u32;
    type Value = u64;

    fn items<'a>(&self, split: &'a Vec<u32>) -> &'a [u32] {
        split
    }
    fn init_state(&self, _t: usize, _split: &Vec<u32>) -> Vec<(u32, u64)> {
        (0..self.key_space).map(|k| (k, 0)).collect()
    }
    fn lmap(
        &self,
        _t: usize,
        _split: &Vec<u32>,
        &x: &u32,
        state: &LocalState<u32, u64>,
        ctx: &mut LocalMapContext<u32, u64>,
    ) {
        let key = x % self.key_space;
        ctx.emit_local_intermediate(key, u64::from(x));
        ctx.emit_local_intermediate((key + 1) % self.key_space, state[&key]);
        ctx.add_ops(2);
    }
    fn lreduce(
        &self,
        _t: usize,
        _split: &Vec<u32>,
        key: &u32,
        values: &[u64],
        ctx: &mut LocalReduceContext<u32, u64>,
    ) {
        ctx.emit_local(*key, *values.iter().max().expect("groups are non-empty"));
    }
    fn post_lreduce(
        &self,
        _t: usize,
        _split: &Vec<u32>,
        old: &LocalState<u32, u64>,
        new: &mut LocalState<u32, u64>,
    ) {
        for (k, v) in old {
            if new.get(k).is_none() {
                new.insert(*k, *v);
            }
        }
    }
    fn locally_converged(&self, old: &LocalState<u32, u64>, new: &LocalState<u32, u64>) -> bool {
        old == new
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequences of *eager* jobs on one engine: a task's local-sync
    /// plan outlives the job, so the second job of a shape starts on it
    /// (no recording), a job whose splits changed falls off it once a
    /// task, and none of it shows in pairs or meters.
    #[test]
    fn eager_job_sequences_on_one_engine_agree_and_keep_their_local_plans(
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
        let mut engines = [
            Engine::in_process(&pool),
            Engine::with_reference_shuffle(&pool),
            Engine::with_pipelined_shuffle(&pool),
        ];
        let tasks = splits.len() as u64;
        for (job, splits) in [&splits, &splits, &churned, &splits].into_iter().enumerate() {
            let [staged, reference, pipelined] =
                engines.each_mut().map(|engine| engine.run("ring", splits, &gmap, &SumReducer, &opts));
            prop_assert_eq!(&staged.pairs, &reference.pairs, "job {}: staged vs reference", job);
            prop_assert_eq!(&staged.pairs, &pipelined.pairs, "job {}: staged vs pipelined", job);
            prop_assert_eq!(staged.meter, pipelined.meter, "job {}: meters", job);
            prop_assert_eq!(staged.meter.local_syncs, reference.meter.local_syncs);
            prop_assert_eq!(staged.meter.map_ops, reference.meter.map_ops);
            prop_assert_eq!(reference.reuse, JobReuse::default());
            let local = staged.reuse.local;
            prop_assert_eq!(local, pipelined.reuse.local, "job {}: local plan use", job);
            prop_assert_eq!(local.hits + local.misses, staged.meter.local_syncs);
            // Job 1 repeats job 0's keys; jobs 2 and 3 each meet the
            // plan of other splits in every task's first pass.
            prop_assert_eq!(local.recorded, if job == 1 { 0 } else { tasks }, "job {}", job);
        }
    }
}

/// Determinism under the pipelined scheduler: repeated runs of the same
/// job must produce identical pair vectors even though completion order
/// varies run to run.
#[test]
fn pipelined_is_deterministic_across_runs() {
    let pool = ThreadPool::new(4);
    let splits: Vec<Vec<u32>> = (0..8).map(|s| ((s * 100)..(s * 100 + 100)).collect()).collect();
    let mapper = ScatterMapper { key_space: 16 };
    let mut engine = Engine::with_pipelined_shuffle(&pool);
    let first =
        engine.run("d0", &splits, &mapper, &SumReducer, &JobOptions::with_reducers(8)).pairs;
    for i in 1..5 {
        let again = engine
            .run(&format!("d{i}"), &splits, &mapper, &SumReducer, &JobOptions::with_reducers(8))
            .pairs;
        assert_eq!(first, again, "run {i} diverged from run 0");
    }
}
