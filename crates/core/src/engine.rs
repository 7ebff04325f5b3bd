//! The job execution engine: real parallel execution plus (optionally)
//! simulated distributed timing.
//!
//! One [`Engine::run`] call is one MapReduce *job* — one **global
//! synchronization** in the paper's cost accounting. The job's work is
//! written once, as the task bodies of [`crate::plan`]:
//!
//! 1. map: every input split runs the user's map function; a mapper
//!    that pre-aggregates does so itself, before it emits (in-mapper
//!    combining — there is no separate combine step),
//! 2. shuffle: records are routed deterministically (stable key hash →
//!    reduce partition) *as they are emitted* in step 1, and each
//!    partition's buckets reach its reduce task *by move* — no clone,
//!    and partitions that received no records are skipped,
//! 3. reduce: every reduce task groups its buckets into key-sorted
//!    [`crate::shuffle::GroupView`]s (map-task-ordered values) and
//!    reduces them,
//! 4. the engine meters everything, and — when a [`JobReplay`] (the
//!    simulated cluster) is attached — replays the metered job on it,
//!    appending the resulting [`JobStats`] to the engine's history.
//!
//! An engine runs that one body under one *schedule*, **staged**
//! ([`Engine::in_process`], [`Engine::with_simulation`]): steps 1 and 3
//! are barriers on the work-stealing pool, step 2 a hand-over of
//! bucket handles between them, each timed into [`StageTimings`]. The
//! only other path, the **oracle** ([`Engine::with_reference_shuffle`]),
//! deliberately shares nothing with it and exists so the
//! `stage_equivalence` and `pipeline_equivalence` suites have something
//! independent to compare against.
//!
//! The engine **remembers** across jobs: it keeps, per map task and per
//! reduce partition, the key sequence they last saw and where every
//! record went ([`crate::shuffle`]'s plans, in the engine's
//! [`crate::plan::PlanStore`]). A job whose tasks see the same keys
//! again — every iteration of a graph algorithm — verifies that, key by
//! key as the keys are emitted, and then places each value once on the
//! map side and once on the reduce side instead of hashing, moving and
//! sorting pairs; a task whose keys do not repeat records a new plan,
//! for the next job of the same shape. [`JobResult::reuse`] says which
//! it was. The local syncs of a [`crate::EagerMapper`] task keep nothing
//! between jobs: a folding algorithm's groups are its state's entries,
//! and a keyed one keeps its grouping plan for one map call (see
//! [`crate::local`]). The plans are all an engine
//! carries from job to job; dropping the engine releases them.
//!
//! The returned pairs are *identical* whether or not simulation is
//! enabled; simulation only produces timing.

use std::time::{Duration, Instant};

use asyncmr_model::{JobReplay, JobSpec, JobStats};
use asyncmr_runtime::ThreadPool;

use crate::plan::{self, PlanStore, StageTimings};
use crate::shuffle::{GroupingStrategy, PlanOutcome};
use crate::traits::{Mapper, Reducer};

/// Per-job knobs.
#[derive(Debug, Clone, Copy)]
pub struct JobOptions {
    /// The shuffle's partition count — an **upper bound** on reduce
    /// tasks, not a promise.
    ///
    /// Keys are routed by stable hash into `num_reducers` partitions;
    /// partitions that receive no records are *skipped*: not executed,
    /// not counted in [`JobMeter::reduce_tasks`], and not replayed on
    /// the simulated cluster. The default of 16 (the paper's testbed
    /// reduce slots) is therefore safe on tiny inputs — a job with
    /// three distinct keys runs at most three reduce tasks instead of
    /// metering thirteen empty ones.
    ///
    /// Must be ≥ 1: [`Engine::run`] panics on `0` rather than pick a
    /// partition count for the caller.
    pub num_reducers: usize,
    /// How the reduce tasks find a grouping when they have to compute
    /// one (a reduce input that repeats last job's key sequence reuses
    /// the remembered one) — sort-based (default) or radix/hash-based.
    /// Both are byte-identical in grouped output; see
    /// [`crate::shuffle::GroupingStrategy`].
    pub grouping: GroupingStrategy,
}

impl Default for JobOptions {
    /// 16 shuffle partitions (the paper's testbed). See
    /// [`JobOptions::num_reducers`] for why this is safe on tiny
    /// inputs.
    fn default() -> Self {
        JobOptions::with_reducers(16)
    }
}

impl JobOptions {
    /// Options with `n` reducers (≥ 1, checked by [`Engine::run`]).
    pub fn with_reducers(n: usize) -> Self {
        JobOptions { num_reducers: n, grouping: GroupingStrategy::Sort }
    }

    /// Selects the grouping strategy for this job's reduce tasks.
    pub fn with_grouping(self, grouping: GroupingStrategy) -> Self {
        JobOptions { grouping, ..self }
    }
}

/// Aggregate meters for one executed job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobMeter {
    /// Map task count.
    pub map_tasks: usize,
    /// Reduce tasks **executed** (shuffle partitions that received at
    /// least one record; see [`JobOptions::num_reducers`]).
    pub reduce_tasks: usize,
    /// Abstract ops across all map tasks.
    pub map_ops: u64,
    /// Abstract ops across all reduce tasks.
    pub reduce_ops: u64,
    /// Records entering the shuffle: what the map tasks emitted.
    pub shuffle_records: u64,
    /// Bytes entering the shuffle.
    pub shuffle_bytes: u64,
    /// Final output records.
    pub output_records: u64,
    /// Final output bytes.
    pub output_bytes: u64,
    /// Partial (local) synchronizations performed inside gmap tasks.
    pub local_syncs: u64,
    /// Total input bytes read by map tasks.
    pub input_bytes: u64,
}

/// What became of one kind of remembered plan in one job (see
/// [`crate::shuffle::PlanOutcome`]): one count per task that consulted
/// a shuffle plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanUse {
    /// Tasks whose input repeated the remembered key sequence.
    pub hits: u64,
    /// Tasks whose input did not (first sight, or the keys changed),
    /// each of which recorded a new plan.
    pub misses: u64,
}

impl PlanUse {
    pub(crate) fn count(&mut self, planned: PlanOutcome) {
        self.hits += u64::from(planned == PlanOutcome::Hit);
        self.misses += u64::from(planned == PlanOutcome::Recorded);
    }
}

/// What one job reused from the jobs its engine ran before it.
///
/// Reported *beside* [`JobMeter`], never inside it: the meter describes
/// the job and is identical under every grouping strategy and the
/// oracle; these counts describe the engine's memory and are not
/// (the oracle reuses nothing and reports all zeros). Every miss
/// records a plan, so on a fresh engine the first job of a shape misses
/// every shuffle plan and, while the tasks' keys repeat, every later
/// one hits them all: from the second job on, the shuffle's `misses`
/// are 0 and `group_by_identity` equals `group.hits`. Local syncs keep
/// no plan — an [`crate::EagerMapper`] pass folds each value into its
/// group's slot — so they count here not at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobReuse {
    /// Map tasks' [`crate::shuffle::RoutePlan`]s (none are consulted
    /// when the job has a single partition).
    pub route: PlanUse,
    /// Reduce tasks' [`crate::shuffle::GroupPlan`]s.
    pub group: PlanUse,
    /// The `group.hits` that recognised their whole input by identity —
    /// every bucket carried the very key handle the plan holds, its
    /// keys verified where they were emitted — rather than by comparing
    /// keys; the other hits compared at least one bucket key by key.
    pub group_by_identity: u64,
}

/// Everything one job produced.
#[derive(Debug)]
pub struct JobResult<K, O> {
    /// Output pairs, in (reduce partition, key) order — deterministic.
    pub pairs: Vec<(K, O)>,
    /// Aggregate meters.
    pub meter: JobMeter,
    /// Simulated timing, when the engine has a cluster attached.
    pub sim: Option<JobStats>,
    /// Real in-process execution time of this job (the simulated
    /// replay, when attached, is not part of it).
    pub wall: Duration,
    /// Per-stage breakdown: wall-clock per barrier (sums to ≤ `wall`).
    /// All-zero on the oracle ([`Engine::with_reference_shuffle`]),
    /// which executes monolithically and is not stage-instrumented.
    pub stages: StageTimings,
    /// What the job reused from earlier jobs on this engine.
    pub reuse: JobReuse,
}

/// A row of the engine's job history.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Job name as passed to [`Engine::run`].
    pub name: String,
    /// Aggregate meters.
    pub meter: JobMeter,
    /// Simulated timing, when enabled.
    pub sim: Option<JobStats>,
    /// Real in-process execution time (excludes the simulated replay).
    pub wall: Duration,
    /// Per-stage breakdown, as in [`JobResult::stages`].
    pub stages: StageTimings,
    /// What the job reused from earlier jobs, as in [`JobResult::reuse`].
    pub reuse: JobReuse,
}

/// How [`Engine::run`] executes a job (see [`crate::plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShufflePath {
    /// The job body as barriers.
    Staged,
    /// The oracle: the original clone + `BTreeMap` strategy — for
    /// equivalence tests only.
    Reference,
}

/// The MapReduce execution engine (see module docs).
pub struct Engine<'p> {
    pool: &'p ThreadPool,
    sim: Option<Box<dyn JobReplay + Send + 'p>>,
    records: Vec<JobRecord>,
    plans: PlanStore,
    path: ShufflePath,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("jobs_run", &self.records.len())
            .field("simulating", &self.sim.is_some())
            .field("path", &self.path)
            .finish()
    }
}

impl<'p> Engine<'p> {
    fn new(
        pool: &'p ThreadPool,
        sim: Option<Box<dyn JobReplay + Send + 'p>>,
        path: ShufflePath,
    ) -> Self {
        Engine { pool, sim, records: Vec::new(), plans: PlanStore::new(), path }
    }

    /// An engine that only executes in-process (no simulated timing).
    pub fn in_process(pool: &'p ThreadPool) -> Self {
        Engine::new(pool, None, ShufflePath::Staged)
    }

    /// An engine that additionally replays every job on `sim` — the
    /// simulated cluster (`asyncmr_simcluster::Simulation`), or anything
    /// else that prices a metered [`JobSpec`]:
    ///
    /// ```
    /// use asyncmr_core::Engine;
    /// use asyncmr_model::{JobReplay, JobSpec, JobStats, SimTime};
    /// use asyncmr_runtime::ThreadPool;
    ///
    /// /// Prices every job at one simulated second.
    /// struct OneSecond;
    /// impl JobReplay for OneSecond {
    ///     fn run_job(&mut self, job: &JobSpec) -> JobStats {
    ///         let duration = SimTime::from_secs(1);
    ///         JobStats { name: job.name.clone(), duration, ..JobStats::default() }
    ///     }
    /// }
    ///
    /// let pool = ThreadPool::new(2);
    /// let engine = Engine::with_simulation(&pool, OneSecond);
    /// assert!(format!("{engine:?}").contains("simulating: true"));
    /// ```
    pub fn with_simulation(pool: &'p ThreadPool, sim: impl JobReplay + Send + 'p) -> Self {
        Engine::new(pool, Some(Box::new(sim)), ShufflePath::Staged)
    }

    /// Returns `self`; kept only because `ledger/src/traced.rs:704` calls it.
    pub fn pipelined(self) -> Self {
        self
    }

    /// [`Engine::in_process`]; kept only because `ledger/src/workloads.rs:393` calls it.
    pub fn with_pipelined_shuffle(pool: &'p ThreadPool) -> Self {
        Engine::in_process(pool)
    }

    /// An in-process engine running jobs through the kept-for-test
    /// oracle (sequential concat, per-reducer input clone, `BTreeMap`
    /// grouping). Results must be byte-identical to the staged schedule;
    /// use only to assert that or to benchmark against it (compare
    /// whole-job [`JobResult::wall`] — the oracle is monolithic, so its
    /// [`JobResult::stages`] stays all-zero).
    pub fn with_reference_shuffle(pool: &'p ThreadPool) -> Self {
        Engine::new(pool, None, ShufflePath::Reference)
    }

    /// The thread pool tasks run on.
    pub fn pool(&self) -> &'p ThreadPool {
        self.pool
    }

    /// History of all jobs run by this engine, in order.
    pub fn history(&self) -> &[JobRecord] {
        &self.records
    }

    /// Executes one MapReduce job. See the module docs for phase
    /// semantics and determinism guarantees.
    ///
    /// # Panics
    ///
    /// If `opts.num_reducers` is 0.
    pub fn run<I, M, R>(
        &mut self,
        name: &str,
        inputs: &[I],
        mapper: &M,
        reducer: &R,
        opts: &JobOptions,
    ) -> JobResult<R::Key, R::Out>
    where
        I: Send + Sync,
        M: Mapper<Input = I>,
        R: Reducer<Key = M::Key, ValueIn = M::Value>,
    {
        assert!(opts.num_reducers > 0, "JobOptions::num_reducers is 0; a job needs ≥ 1 partition");
        let started = Instant::now();
        let (pool, plans) = (self.pool, &self.plans);
        let plan::Executed { pairs, meter, stages, reuse, specs } = match self.path {
            ShufflePath::Staged => plan::staged(pool, inputs, mapper, reducer, opts, plans),
            ShufflePath::Reference => plan::reference(pool, inputs, mapper, reducer, opts),
        };
        // Read before the replay: the simulator's host time is not this
        // job's execution time.
        let wall = started.elapsed();

        let sim = self.sim.as_mut().map(|sim| {
            let (maps, reduces) = specs.expect("no constructor pairs the oracle with a simulation");
            sim.run_job(&JobSpec::named(name).with_maps(maps).with_reduces(reduces))
        });

        self.records.push(JobRecord {
            name: name.to_string(),
            meter,
            sim: sim.clone(),
            wall,
            stages,
            reuse,
        });
        JobResult { pairs, meter, sim, wall, stages, reuse }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::{MapContext, ReduceContext};
    use crate::hash::reducer_for;
    use crate::local::tests::Decay;
    use crate::local::EagerMapper;
    use asyncmr_model::SimTime;

    /// A [`JobReplay`] with no cluster behind it: one simulated second
    /// per job on a running clock (after `host_cost` of real time), the
    /// stats echoing the profile it was handed.
    #[derive(Default)]
    struct FakeReplay {
        now: SimTime,
        host_cost: Duration,
    }

    impl JobReplay for FakeReplay {
        fn run_job(&mut self, job: &JobSpec) -> JobStats {
            std::thread::sleep(self.host_cost);
            let submitted_at = self.now;
            self.now += SimTime::from_secs(1);
            JobStats {
                name: job.name.clone(),
                submitted_at,
                finished_at: self.now,
                duration: SimTime::from_secs(1),
                map_tasks: job.maps.len(),
                reduce_tasks: job.reduces.len(),
                network_bytes: job.total_shuffle_bytes(),
                ..JobStats::default()
            }
        }
    }

    struct SquareMapper;
    impl Mapper for SquareMapper {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
            ctx.meter.set_input_bytes(input.len() as u64 * 4);
            for &x in input {
                ctx.emit_intermediate(x % 10, (x as u64) * (x as u64));
                ctx.add_ops(1);
            }
        }
    }

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

    fn splits() -> Vec<Vec<u32>> {
        (0..8).map(|s| ((s * 100)..(s * 100 + 100)).collect()).collect()
    }

    /// An eager job: four `gmap` tasks of `local::tests::Decay`, which
    /// runs some 35 local syncs a task.
    fn eager() -> EagerMapper<Decay> {
        EagerMapper::new(Decay)
    }

    fn decay_inputs() -> Vec<Vec<(u32, f64)>> {
        (0..4u32).map(|t| (0..6).map(|k| (k * 4 + t, f64::from(k + t))).collect()).collect()
    }

    struct First;
    impl Reducer for First {
        type Key = u32;
        type ValueIn = f64;
        type Out = f64;
        fn reduce(&self, key: &u32, values: &[f64], ctx: &mut ReduceContext<u32, f64>) {
            ctx.emit(*key, values[0]);
        }
    }

    fn expected() -> Vec<(u32, u64)> {
        let mut sums = [0u64; 10];
        for split in splits() {
            for x in split {
                sums[(x % 10) as usize] += (x as u64) * (x as u64);
            }
        }
        (0u32..10).map(|k| (k, sums[k as usize])).collect()
    }

    /// Shuffle partitions of `0..10` (the emitted key space) that
    /// actually receive records under `reducers` partitions.
    fn populated_partitions(reducers: usize) -> usize {
        let mut hit = vec![false; reducers];
        for k in 0u32..10 {
            hit[reducer_for(&k, reducers)] = true;
        }
        hit.iter().filter(|&&h| h).count()
    }

    #[test]
    fn wordcount_style_job_is_correct() {
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let inputs = splits();
        let out = engine.run(
            "squares",
            &inputs,
            &SquareMapper,
            &SumReducer,
            &JobOptions::with_reducers(4),
        );
        let mut got = out.pairs;
        got.sort();
        assert_eq!(got, expected());
        assert_eq!(out.meter.map_tasks, 8);
        assert_eq!(out.meter.reduce_tasks, populated_partitions(4));
        assert_eq!(out.meter.map_ops, 800);
        assert_eq!(out.meter.shuffle_records, 800);
        assert_eq!(out.meter.output_records, 10);
        assert!(out.sim.is_none());
    }

    #[test]
    fn deterministic_output_order() {
        let pool = ThreadPool::new(8);
        let mut engine = Engine::in_process(&pool);
        let inputs = splits();
        let a = engine.run("a", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(3));
        let b = engine.run("b", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(3));
        assert_eq!(a.pairs, b.pairs, "same job twice must give identical ordering");
    }

    #[test]
    fn reference_shuffle_produces_identical_pairs() {
        let pool = ThreadPool::new(4);
        let inputs = splits();
        let opts = JobOptions::with_reducers(4);
        let mut staged = Engine::in_process(&pool);
        let a = staged.run("s", &inputs, &SquareMapper, &SumReducer, &opts);
        let mut reference = Engine::with_reference_shuffle(&pool);
        let b = reference.run("r", &inputs, &SquareMapper, &SumReducer, &opts);
        assert_eq!(a.pairs, b.pairs, "staged and reference paths must agree byte-for-byte");
    }

    #[test]
    fn empty_partitions_are_skipped_not_metered() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        // Single key: exactly one of the default 16 partitions runs.
        struct OneKey;
        impl Mapper for OneKey {
            type Input = u32;
            type Key = u32;
            type Value = u64;
            fn map(&self, _t: usize, input: &u32, ctx: &mut MapContext<u32, u64>) {
                ctx.emit_intermediate(3, u64::from(*input));
            }
        }
        let out = engine.run("tiny", &[5u32, 6], &OneKey, &SumReducer, &JobOptions::default());
        assert_eq!(out.meter.reduce_tasks, 1, "15 empty partitions must not be metered");
        assert_eq!(out.pairs, vec![(3, 11)]);
    }

    #[test]
    fn stage_timings_cover_the_run() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let inputs = splits();
        let out =
            engine.run("t", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(4));
        assert!(out.stages.map > Duration::ZERO);
        assert!(out.stages.reduce > Duration::ZERO);
        assert!(out.stages.total() <= out.wall);
        assert_eq!(engine.history()[0].stages, out.stages);
    }

    #[test]
    fn steady_state_reuses_everything_and_history_carries_the_counts() {
        let pool = ThreadPool::new(2);
        let inputs = splits();
        let opts = JobOptions::with_reducers(4);
        let eager_opts = JobOptions::with_reducers(4);
        let populated = populated_partitions(4) as u64;
        let mut engine = Engine::in_process(&pool);
        let jobs: Vec<JobReuse> = (0..5)
            .map(|_| engine.run("same", &inputs, &SquareMapper, &SumReducer, &opts).reuse)
            .collect();
        // First sight records every plan, then every job hits.
        let missed = |misses| PlanUse { hits: 0, misses };
        assert_eq!((jobs[0].route, jobs[0].group), (missed(8), missed(populated)));
        for job in &jobs[1..] {
            let hit = |hits| PlanUse { hits, misses: 0 };
            assert_eq!((job.route, job.group), (hit(8), hit(populated)));
        }
        // From the second job on every reduce partition knows its
        // input by the key handles it carries; before that there is
        // nothing to recognise.
        let by_identity: Vec<u64> = jobs.iter().map(|job| job.group_by_identity).collect();
        assert_eq!(by_identity, [0, populated, populated, populated, populated]);
        let recorded: Vec<JobReuse> = engine.history().iter().map(|r| r.reuse).collect();
        assert_eq!(recorded, jobs);

        // An eager job: each task runs some 35 local syncs, which fold
        // into its state and keep no plan. From the second job on every
        // route and group plan hits.
        let eager_jobs: Vec<JobResult<u32, f64>> = (0..3)
            .map(|_| engine.run("eager", &decay_inputs(), &eager(), &First, &eager_opts))
            .collect();
        let reuse: Vec<JobReuse> = eager_jobs.iter().map(|job| job.reuse).collect();
        let groups = reuse[0].group.misses;
        assert!(groups > 0 && reuse[0].group.hits == 0, "{reuse:?}");
        assert_eq!(reuse[0].route, missed(4), "the first job records");
        for job in &reuse[1..] {
            let hit = |hits| PlanUse { hits, misses: 0 };
            assert_eq!((job.route, job.group), (hit(4), hit(groups)), "{reuse:?}");
            assert_eq!(job.group_by_identity, groups);
        }
        let syncs: Vec<u64> = eager_jobs.iter().map(|job| job.meter.local_syncs).collect();
        assert!(syncs[0] > 4 * 20, "{syncs:?}");
        assert!(syncs.iter().all(|&job| job == syncs[0]), "{syncs:?}");
        assert_eq!(engine.history().last().expect("jobs ran").reuse, reuse[2]);

        let mut oracle = Engine::with_reference_shuffle(&pool);
        let out = oracle.run("eager", &decay_inputs(), &eager(), &First, &eager_opts);
        assert_eq!(out.reuse, JobReuse::default(), "the oracle reports no reuse");
    }

    /// Emits `(x % 10 + 10 * salt, x)`: keys no other salt emits.
    struct Salted(u32);
    impl Mapper for Salted {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
            for &x in input {
                ctx.emit_intermediate(x % 10 + 10 * self.0, u64::from(x));
            }
        }
    }

    #[test]
    fn every_miss_records_so_a_repeated_shape_misses_in_its_first_job_only() {
        // One engine, one oracle: each job's pairs and meter must be the
        // oracle's (which counts every partition as a reduce task).
        let pool = ThreadPool::new(2);
        let (inputs, opts) = (splits(), JobOptions::with_reducers(4));
        let mut engine = Engine::in_process(&pool);
        let mut job = |mapper: &Salted| {
            let want =
                Engine::with_reference_shuffle(&pool).run("o", &inputs, mapper, &SumReducer, &opts);
            let got = engine.run("s", &inputs, mapper, &SumReducer, &opts);
            assert_eq!(got.pairs, want.pairs, "staged vs oracle");
            let every_partition = JobMeter { reduce_tasks: want.meter.reduce_tasks, ..got.meter };
            assert_eq!(every_partition, want.meter, "meter vs oracle");
            (got.reuse, got.meter.reduce_tasks as u64)
        };
        // A repeated shape on a fresh engine: job 1 misses and records
        // every route and group plan; from job 2 on every plan hits and
        // every reduce input is known by identity.
        for n in 0..4 {
            let (reuse, reduce_tasks) = job(&Salted(0));
            let (route, group) =
                if n == 0 { ((0, 8), (0, reduce_tasks)) } else { ((8, 0), (reduce_tasks, 0)) };
            assert_eq!((reuse.route.hits, reuse.route.misses), route, "job {n}");
            assert_eq!((reuse.group.hits, reuse.group.misses), group, "job {n}");
            assert_eq!(reuse.group_by_identity, reuse.group.hits, "job {n}");
        }
        // Keys that change every job: every plan misses and records,
        // every job, and nothing else changes.
        for salt in 1..5 {
            let (reuse, reduce_tasks) = job(&Salted(salt));
            assert_eq!((reuse.route.hits, reuse.route.misses), (0, 8), "salt {salt}");
            assert_eq!((reuse.group.hits, reuse.group.misses), (0, reduce_tasks), "salt {salt}");
        }
    }

    #[test]
    fn a_one_partition_job_records_its_group_plan_once() {
        // A single partition consults no route plan; its group plan is
        // recorded on first sight and hit from then on. The oracle
        // reuses nothing at all.
        let pool = ThreadPool::new(2);
        let inputs = splits();
        let opts = JobOptions::with_reducers(1);
        let mut engine = Engine::in_process(&pool);
        for job in 0..4 {
            let reuse = engine.run("one", &inputs, &SquareMapper, &SumReducer, &opts).reuse;
            assert_eq!(reuse.route, PlanUse::default(), "job {job}");
            let group = PlanUse { hits: u64::from(job > 0), misses: u64::from(job == 0) };
            assert_eq!(reuse.group, group, "job {job}");
        }
        let mut oracle = Engine::with_reference_shuffle(&pool);
        let out = oracle.run("o", &inputs, &SquareMapper, &SumReducer, &JobOptions::default());
        assert_eq!(out.reuse, JobReuse::default());
    }

    #[test]
    fn a_one_partition_job_learns_its_size_too() {
        // A single partition consults no route plan, but the plan is
        // still where a map task's last emission count is kept: from
        // the second job on the pair buffer is allocated once, at size.
        struct Sized(std::sync::Mutex<Vec<usize>>);
        impl Mapper for Sized {
            type Input = Vec<u32>;
            type Key = u32;
            type Value = u64;
            fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
                self.0.lock().unwrap().push(ctx.buffer_capacity());
                input.iter().for_each(|&x| ctx.emit_intermediate(x, 1));
            }
        }
        let pool = ThreadPool::new(2);
        let inputs = vec![(0..100).collect::<Vec<u32>>()];
        let mut engine = Engine::in_process(&pool);
        let mapper = Sized(std::sync::Mutex::new(Vec::new()));
        for _ in 0..3 {
            engine.run("one", &inputs, &mapper, &SumReducer, &JobOptions::with_reducers(1));
        }
        let capacities = mapper.0.into_inner().unwrap();
        assert_eq!(capacities[0], 0, "nothing is known before the first job");
        assert!(capacities[1..].iter().all(|&c| c >= 100), "{capacities:?}");
    }

    #[test]
    fn simulation_attaches_timing_without_changing_results() {
        let pool = ThreadPool::new(4);
        let inputs = splits();
        let mut plain_engine = Engine::in_process(&pool);
        let plain = plain_engine.run(
            "x",
            &inputs,
            &SquareMapper,
            &SumReducer,
            &JobOptions::with_reducers(4),
        );

        let mut sim_engine = Engine::with_simulation(&pool, FakeReplay::default());
        let simmed =
            sim_engine.run("x", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(4));

        assert_eq!(plain.pairs, simmed.pairs);
        let stats = simmed.sim.expect("simulated stats present");
        assert_eq!((stats.name.as_str(), stats.map_tasks), ("x", 8));
        assert_eq!(stats.submitted_at, SimTime::ZERO, "one job, one replay call");
        assert_eq!(sim_engine.history().len(), 1);
        assert_eq!(sim_engine.history()[0].sim.as_ref(), Some(&stats));
    }

    #[test]
    fn wall_excludes_the_simulated_replay() {
        // The replay costs host time, which the caller's clock sees and
        // `wall` — this job's execution time — must not. (Read after
        // the replay, `wall` trails the caller's clock by about a
        // microsecond.)
        let pool = ThreadPool::new(2);
        let host_cost = Duration::from_millis(2);
        let replay = FakeReplay { host_cost, ..FakeReplay::default() };
        let mut engine = Engine::with_simulation(&pool, replay);
        let t = Instant::now();
        let out =
            engine.run("x", &splits(), &SquareMapper, &SumReducer, &JobOptions::with_reducers(1));
        let with_replay = t.elapsed();
        assert_eq!(engine.history()[0].wall, out.wall);
        assert!(
            with_replay - out.wall >= host_cost,
            "wall {:?} bills the replay (caller saw {with_replay:?})",
            out.wall
        );
    }

    /// Runs one job with zero reducers, built through the public field.
    fn run_with_zero_reducers(mut engine: Engine<'_>) {
        let opts = JobOptions { num_reducers: 0, grouping: GroupingStrategy::Sort };
        engine.run("zero", &splits(), &SquareMapper, &SumReducer, &opts);
    }

    #[test]
    #[should_panic(expected = "JobOptions::num_reducers is 0")]
    fn zero_reducers_are_refused_by_the_staged_engine() {
        run_with_zero_reducers(Engine::in_process(&ThreadPool::new(2)));
    }

    #[test]
    #[should_panic(expected = "JobOptions::num_reducers is 0")]
    fn zero_reducers_are_refused_by_the_oracle() {
        run_with_zero_reducers(Engine::with_reference_shuffle(&ThreadPool::new(2)));
    }

    #[test]
    fn sim_clock_accumulates_over_iterations() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::with_simulation(&pool, FakeReplay::default());
        let inputs = splits();
        let first = engine
            .run("it0", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(2))
            .sim
            .unwrap();
        let second = engine
            .run("it1", &inputs, &SquareMapper, &SumReducer, &JobOptions::with_reducers(2))
            .sim
            .unwrap();
        assert_eq!(second.submitted_at, first.finished_at);
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let inputs: Vec<Vec<u32>> = Vec::new();
        let out = engine.run("empty", &inputs, &SquareMapper, &SumReducer, &JobOptions::default());
        assert!(out.pairs.is_empty());
        assert_eq!(out.meter.map_tasks, 0);
        assert_eq!(out.meter.reduce_tasks, 0, "nothing shuffled, nothing reduced");
    }

    #[test]
    fn task_meter_input_bytes_feed_job_meter() {
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let inputs = splits();
        let out = engine.run("split", &inputs, &SquareMapper, &SumReducer, &JobOptions::default());
        assert_eq!(out.meter.input_bytes, 8 * 100 * 4);
    }
}
