//! Property tests pinning the shuffle's **remembering** paths to the
//! references that remember nothing, over *sequences* of jobs — a plan
//! is only interesting the second time around.
//!
//! At the shuffle's own level, on one [`PlanStore`]:
//!
//! * a [`RouteSink`] that follows a slot per map task — every emission
//!   verified where it is made, the values pushed bare onto their
//!   buckets — must produce [`shuffle::route`]'s buckets;
//! * [`shuffle::group_planned`] through a slot per reduce partition —
//!   recognising its buckets by the key handles they carry, or key by
//!   key — must call back with the groups of [`shuffle::group`] (the
//!   `BTreeMap` reference) over the concatenated buckets, for both
//!   strategies;
//!
//! across first sights, hits, a key changed at one index, a changed
//! length and a changed partition count — every miss recording a new
//! plan, which the same input hits next time.
//!
//! On the staged engine, against a fresh oracle engine *and* against a
//! model written with `shuffle::{route, group}` alone — pairs, [`JobMeter`]s
//! and the [`JobReuse`] sequence all equal: a task leaving its plan at
//! **every** prefix length of its emissions (first record, mid-bucket,
//! last record, one past the end), tasks that emit fewer and more
//! records than their plan, a changed partition count, `String` keys, a
//! partition that empties and returns, two job types sharing a slot;
//! with values that count their drops — exactly once each on a hit and
//! on a fall-back at each prefix, never twice when `map` panics
//! mid-task. Every comparison is exact; what became of each plan is
//! asserted wherever the script determines it, so a verification that
//! only compared lengths, a recording that kept stale targets or an
//! identity check that outlived its keys fails here.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use asyncmr_core::engine::{JobMeter, JobReuse};
use asyncmr_core::hash::reducer_for;
use asyncmr_core::plan::PlanStore;
use asyncmr_core::prelude::*;
use asyncmr_core::shuffle::PlanOutcome::{self, Hit, Recorded};
use asyncmr_core::shuffle::{self, Bucket, GroupPlan, RoutePlan, RouteSink};
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// One job as the shuffle sees it: each map task's emitted pairs.
type Job = Vec<Vec<(u32, u32)>>;

/// What became of every plan in one [`shuffle_job`]: per map task, and
/// per reduce partition (`None` for a partition that received nothing
/// and was skipped) with whether a hit was by identity alone.
struct Hits {
    route: Vec<PlanOutcome>,
    group: Vec<Option<(PlanOutcome, bool)>>,
}

impl Hits {
    fn outcomes(&self) -> impl Iterator<Item = PlanOutcome> + '_ {
        self.route.iter().copied().chain(self.group.iter().flatten().map(|&(outcome, _)| outcome))
    }

    fn all(&self, want: PlanOutcome) -> bool {
        self.outcomes().all(|outcome| outcome == want)
    }

    fn all_by_identity(&self) -> bool {
        self.all(Hit) && self.group.iter().flatten().all(|&(_, by_identity)| by_identity)
    }
}

/// Shuffles `job` the way the engine's job body does — a sink per map
/// task, planned grouping per populated partition, plans filed in
/// `store` — asserting every intermediate against the unplanned
/// reference.
fn shuffle_job(store: &PlanStore, job: &Job, reducers: usize, strategy: GroupingStrategy) -> Hits {
    let mut hits = Hits { route: Vec::new(), group: Vec::new() };
    let mut routed: Vec<Vec<Bucket<u32, u32>>> = Vec::new();
    for (task, pairs) in job.iter().enumerate() {
        let (buckets, hit) = store.with(task, |plan: &mut RoutePlan<u32>| {
            let mut sink = RouteSink::following(std::mem::take(plan), reducers);
            pairs.iter().for_each(|&(k, v)| sink.emit(k, v));
            let (buckets, kept, hit) = sink.finish();
            *plan = kept;
            (buckets, hit.expect("two partitions or more consult the plan"))
        });
        let pairs_routed: Vec<_> = buckets.iter().cloned().map(Bucket::into_pairs).collect();
        assert_eq!(pairs_routed, shuffle::route(pairs.clone(), reducers), "task {task}");
        hits.route.push(hit);
        routed.push(buckets);
    }
    for partition in 0..reducers {
        let buckets: Vec<Bucket<u32, u32>> = routed
            .iter_mut()
            .map(|b| std::mem::take(&mut b[partition]))
            .filter(|b| !b.is_empty())
            .collect();
        if buckets.is_empty() {
            hits.group.push(None);
            continue;
        }
        let concat = buckets.iter().cloned().flat_map(Bucket::into_pairs).collect();
        let reference = shuffle::group(concat);
        let mut got = Vec::new();
        let hit = store.with(partition, |plan: &mut GroupPlan<u32>| {
            shuffle::group_planned(buckets, strategy, plan, |g| {
                got.push((*g.key, g.values.to_vec()));
            })
        });
        assert_eq!(got, reference, "partition {partition}");
        hits.group.push(Some(hit));
    }
    hits
}

fn strategy(radix: bool) -> GroupingStrategy {
    if radix {
        GroupingStrategy::Radix
    } else {
        GroupingStrategy::Sort
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One store, a scripted sequence of jobs. Whatever the plans
    /// remembered, buckets and groups are the references'; and the
    /// plans hit exactly where the key sequences repeated.
    #[test]
    fn planned_shuffle_equals_reference_across_hits_and_misses(
        first in proptest::collection::vec(
            proptest::collection::vec((0u32..40, any::<u32>()), 1..80), 1..5),
        pick in (any::<u32>(), any::<u32>()),
        reducers in 2usize..7,
        radix in any::<bool>(),
    ) {
        let strategy = strategy(radix);
        let store = PlanStore::new();
        let tasks = first.len();
        let populated = |job: &Job, p: usize| {
            job.iter().flatten().any(|(k, _)| reducer_for(k, reducers) == p)
        };

        // First sight records every plan.
        let hits = shuffle_job(&store, &first, reducers, strategy);
        prop_assert!(hits.all(Recorded));

        // Same keys, new values: everything hits, and every reduce
        // input is known by the handles it carries.
        let new_values: Job = first
            .iter()
            .map(|task| task.iter().map(|&(k, v)| (k, v ^ 0xA5A5)).collect())
            .collect();
        let hits = shuffle_job(&store, &new_values, reducers, strategy);
        prop_assert!(hits.all_by_identity());

        // Same lengths, one key of one task replaced by a key the
        // sequence never held: that task's route plan and the group
        // plans of the key's old and new partitions are recorded anew;
        // nothing else moves — but the task now sends new handles,
        // which its other partitions compare key by key.
        let task = pick.0 as usize % tasks;
        let at = pick.1 as usize % first[task].len();
        let (old_key, new_key) = (first[task][at].0, first[task][at].0 + 40);
        let mut one_key_changed = new_values.clone();
        one_key_changed[task][at].0 = new_key;
        let touched = [reducer_for(&old_key, reducers), reducer_for(&new_key, reducers)];
        let hits = shuffle_job(&store, &one_key_changed, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Recorded } else { Hit }, "task {}", t);
        }
        for (p, &outcome) in hits.group.iter().enumerate() {
            prop_assert_eq!(outcome.is_some(), populated(&one_key_changed, p));
            if let Some((outcome, by_identity)) = outcome {
                // A partition the change emptied cannot appear here; one
                // it populated for the first time has a fresh plan and
                // records it like the rest of `touched`.
                let want = if touched.contains(&p) { Recorded } else { Hit };
                prop_assert_eq!(outcome, want, "partition {}", p);
                let from_task = one_key_changed[task].iter();
                let renewed = from_task.filter(|(k, _)| reducer_for(k, reducers) == p).count() > 0;
                prop_assert_eq!(by_identity, want == Hit && !renewed, "partition {}", p);
            }
        }

        // One more pair at the end of that task: its route plan records
        // the longer sequence, and so does the new key's partition — the
        // only one whose input changed.
        let mut longer = one_key_changed.clone();
        longer[task].push((new_key, 7));
        let hits = shuffle_job(&store, &longer, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Recorded } else { Hit });
        }
        for (p, &outcome) in hits.group.iter().enumerate() {
            if let Some((outcome, _)) = outcome {
                prop_assert_eq!(outcome, if p == touched[1] { Recorded } else { Hit });
            }
        }
        // The re-recorded task's new handles were adopted on the way.
        let hits = shuffle_job(&store, &longer, reducers, strategy);
        prop_assert!(hits.all_by_identity());

        // Another partition count: no route plan hits (its targets and
        // bucket sizes are for the old count), whatever the keys.
        let hits = shuffle_job(&store, &longer, reducers + 1, strategy);
        prop_assert!(hits.route.iter().all(|&outcome| outcome == Recorded));
        // ... and back: nothing is left to hit, and every task records.
        let hits = shuffle_job(&store, &longer, reducers, strategy);
        prop_assert!(hits.route.iter().all(|&outcome| outcome == Recorded));
        // A partition's input may or may not have differed under the
        // other count, so its plan was kept or is recorded again;
        // either way it holds the new handles now.
        let hits = shuffle_job(&store, &longer, reducers, strategy);
        prop_assert!(hits.all_by_identity());

        // Fewer map tasks, then an empty job: still the references'.
        shuffle_job(&store, &longer[..tasks - 1].to_vec(), reducers, strategy);
        shuffle_job(&store, &Job::new(), reducers, strategy);
        shuffle_job(&store, &first, reducers, strategy);
    }

    /// Unscripted: arbitrary jobs with arbitrary partition counts and
    /// strategies on one store, each shuffled four times in a row —
    /// whatever the first time found, every later time hits every plan
    /// and knows every reduce input by identity.
    #[test]
    fn planned_shuffle_equals_reference_on_arbitrary_sequences(
        jobs in proptest::collection::vec(
            (
                proptest::collection::vec(
                    proptest::collection::vec((0u32..25, any::<u32>()), 0..60), 0..5),
                2usize..9,
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        let store = PlanStore::new();
        for (job, reducers, radix) in jobs {
            shuffle_job(&store, &job, reducers, strategy(radix));
            for _ in 0..3 {
                let hits = shuffle_job(&store, &job, reducers, strategy(radix));
                prop_assert!(hits.all_by_identity());
            }
        }
    }
}

// ------------------------------------------------- on one engine

/// Emits `(x * stride % key_space, x)` for every `x` of its split —
/// unless the key routes to `drop_partition` of `of`.
struct Strided {
    stride: u32,
    key_space: u32,
    drop_partition: Option<(usize, usize)>,
}

impl Mapper for Strided {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = u64;
    fn map(&self, _t: usize, split: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
        for &x in split {
            let key = x.wrapping_mul(self.stride) % self.key_space;
            if self.drop_partition.is_some_and(|(p, of)| reducer_for(&key, of) == p) {
                continue;
            }
            ctx.emit_intermediate(key, u64::from(x));
        }
    }
}

/// Emits each key's values in arrival order, so a misplaced value shows.
struct Collect;

impl Reducer for Collect {
    type Key = u32;
    type ValueIn = u64;
    type Out = Vec<u64>;
    fn reduce(&self, key: &u32, values: &[u64], ctx: &mut ReduceContext<u32, Vec<u64>>) {
        ctx.emit(*key, values.to_vec());
    }
}

fn splits() -> Vec<Vec<u32>> {
    (0..5).map(|s| ((s * 97)..(s * 97 + 60)).collect()).collect()
}

/// Runs `script` on one staged engine, comparing every job's pairs with
/// a fresh oracle engine; returns the reuse counts.
fn run_strided(script: &[&Strided], opts: &JobOptions) -> Vec<JobReuse> {
    let pool = ThreadPool::new(3);
    let inputs = splits();
    let mut staged = Engine::in_process(&pool);
    let mut reuse = Vec::new();
    for (i, mapper) in script.iter().enumerate() {
        let want = Engine::with_reference_shuffle(&pool).run("o", &inputs, *mapper, &Collect, opts);
        let a = staged.run("s", &inputs, *mapper, &Collect, opts);
        assert_eq!(a.pairs, want.pairs, "job {i}: staged vs oracle");
        reuse.push(a.reuse);
    }
    reuse
}

#[test]
fn two_job_types_sharing_a_key_type_evict_each_other_and_stay_correct() {
    let a = Strided { stride: 7, key_space: 31, drop_partition: None };
    let b = Strided { stride: 13, key_space: 23, drop_partition: None };
    for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
        let opts = JobOptions::with_reducers(4).with_grouping(grouping);
        let reuse = run_strided(&[&a, &b, &a, &b, &a, &a, &a, &a], &opts);
        // Interleaved, each job finds the other type's plans in its
        // slots (or none) and records its own over them; once `a` runs
        // twice in a row it finds its own.
        for r in &reuse[..5] {
            assert_eq!((r.route.hits, r.route.misses), (0, 5), "{reuse:?}");
            assert_eq!((r.group.hits, r.group_by_identity), (0, 0), "{reuse:?}");
        }
        for r in &reuse[5..] {
            assert_eq!((r.route.hits, r.route.misses), (5, 0), "{reuse:?}");
            assert_eq!((r.group.hits, r.group.misses), (4, 0), "{reuse:?}");
            assert_eq!(r.group_by_identity, 4, "{reuse:?}");
        }
    }
}

#[test]
fn a_partition_that_goes_empty_and_comes_back_keeps_every_slot_in_place() {
    let reducers = 4;
    let full = Strided { stride: 7, key_space: 31, drop_partition: None };
    for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
        let opts = JobOptions::with_reducers(reducers).with_grouping(grouping);
        // Partition 1 has neighbours on both sides.
        let without = Strided { drop_partition: Some((1, reducers)), ..full };
        let reuse = run_strided(&[&full, &full, &full, &without, &full, &full], &opts);
        assert_eq!((reuse[2].group.hits, reuse[2].group.misses), (4, 0), "{reuse:?}");
        assert_eq!(reuse[2].group_by_identity, 4, "{reuse:?}");
        // Partition 1 is skipped; partitions 0, 2 and 3 received what
        // they always do and must find their plans where they left
        // them — filed by compacted position, 2 and 3 would miss. Every
        // map task lost keys and recorded anew, so what they received
        // came with new handles: compared key by key.
        assert_eq!((reuse[3].group.hits, reuse[3].group.misses), (3, 0), "{reuse:?}");
        assert_eq!(reuse[3].route.hits, 0, "every map task lost keys: {reuse:?}");
        assert_eq!(reuse[3].group_by_identity, 0, "{reuse:?}");
        // Partition 1 comes back to the plan nobody touched. The map
        // tasks record again: new handles with equal keys, compared once
        // more and adopted — and then it is all identity.
        assert_eq!((reuse[4].group.hits, reuse[4].group.misses), (4, 0), "{reuse:?}");
        assert_eq!((reuse[4].route.misses, reuse[4].group_by_identity), (5, 0), "{reuse:?}");
        assert_eq!((reuse[5].route.hits, reuse[5].group_by_identity), (5, 4), "{reuse:?}");
    }
}

// ------------------------------- engine vs oracle vs the written model

/// The key and value types a scripted job runs with.
trait Flavor: Send + Sync + 'static {
    type K: Key + std::fmt::Debug;
    type V: Value + std::fmt::Debug;
    fn key(id: u32) -> Self::K;
    fn value(x: u64) -> Self::V;
    fn raw(v: &Self::V) -> u64;
}

/// `u32` keys, `u64` values.
struct Plain;

impl Flavor for Plain {
    type K = u32;
    type V = u64;
    fn key(id: u32) -> u32 {
        id
    }
    fn value(x: u64) -> u64 {
        x
    }
    fn raw(v: &u64) -> u64 {
        *v
    }
}

/// Heap keys: a verified key is dropped where it is emitted, a
/// fall-back clones the plan's.
struct Worded;

impl Flavor for Worded {
    type K = String;
    type V = u64;
    fn key(id: u32) -> String {
        format!("k{id:03}")
    }
    fn value(x: u64) -> u64 {
        x
    }
    fn raw(v: &u64) -> u64 {
        *v
    }
}

/// How often each [`Tracked`] value ever made was dropped, by id —
/// process-wide, because values cross to pool threads. The tests that
/// use it hold [`TRACKING`] for their whole run.
static DROPS: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static TRACKING: Mutex<()> = Mutex::new(());

/// A value that counts its drops: on plan it is pushed bare onto a
/// bucket, walked back out on a fall-back, and scattered through a raw
/// slot on the reduce side, so "dropped exactly once" is worth checking.
#[derive(Debug)]
struct Tracked {
    id: usize,
    x: u64,
}

impl Tracked {
    fn new(x: u64) -> Self {
        let mut drops = DROPS.lock().unwrap_or_else(|e| e.into_inner());
        drops.push(0);
        Tracked { id: drops.len() - 1, x }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.x)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        DROPS.lock().unwrap_or_else(|e| e.into_inner())[self.id] += 1;
    }
}

impl Meterable for Tracked {
    fn approx_bytes(&self) -> u64 {
        8
    }
}

impl Flavor for Tracked {
    type K = u32;
    type V = Tracked;
    fn key(id: u32) -> u32 {
        id
    }
    fn value(x: u64) -> Tracked {
        Tracked::new(x)
    }
    fn raw(v: &Tracked) -> u64 {
        v.x
    }
}

/// One scripted job: what each map task emits, record by record, into
/// how many partitions.
#[derive(Debug, Clone)]
struct Scripted {
    tasks: Vec<Vec<(u32, u64)>>,
    reducers: usize,
}

/// Emits its split record by record; panics at `panic_at`'s
/// `(task, record)` — before that record, or, at the split's length,
/// after the last.
struct Emit<F> {
    panic_at: Option<(usize, usize)>,
    flavor: PhantomData<F>,
}

impl<F> Emit<F> {
    fn new() -> Self {
        Emit { panic_at: None, flavor: PhantomData }
    }
}

impl<F: Flavor> Mapper for Emit<F> {
    type Input = Vec<(u32, u64)>;
    type Key = F::K;
    type Value = F::V;
    fn map(&self, task: usize, split: &Self::Input, ctx: &mut MapContext<F::K, F::V>) {
        for (i, &(k, x)) in split.iter().enumerate() {
            assert!(self.panic_at != Some((task, i)), "scripted panic");
            ctx.emit_intermediate(F::key(k), F::value(x));
            assert_eq!(ctx.records(), i as u64 + 1);
        }
        assert!(self.panic_at != Some((task, split.len())), "scripted panic");
        ctx.add_ops(split.len() as u64);
    }
}

/// Emits each key's values in arrival order, so a misplaced value shows.
struct Arrivals<F>(PhantomData<F>);

impl<F: Flavor> Reducer for Arrivals<F> {
    type Key = F::K;
    type ValueIn = F::V;
    type Out = Vec<u64>;
    fn reduce(&self, key: &F::K, values: &[F::V], ctx: &mut ReduceContext<F::K, Vec<u64>>) {
        ctx.add_ops(values.len() as u64);
        ctx.emit(key.clone(), values.iter().map(F::raw).collect());
    }
}

/// The job written with the unplanned shuffle alone: `route`,
/// concatenate in task order, `group`, reduce, partitions ascending.
fn model<F: Flavor>(job: &Scripted) -> Vec<(F::K, Vec<u64>)> {
    let routed: Vec<_> = job
        .tasks
        .iter()
        .map(|task| {
            let pairs: Vec<_> = task.iter().map(|&(k, x)| (F::key(k), F::value(x))).collect();
            shuffle::route(pairs, job.reducers)
        })
        .collect();
    let mut out = Vec::new();
    for partition in 0..job.reducers {
        let input = routed.iter().flat_map(|buckets| buckets[partition].iter().cloned());
        for (key, values) in shuffle::group(input.collect()) {
            out.push((key, values.iter().map(F::raw).collect()));
        }
    }
    out
}

/// Runs `script` on one staged engine. Every job's pairs must be the
/// oracle's and the model's; its meter the oracle's but for the empty
/// partitions the oracle counts as tasks. Returns the plan use.
fn run_scripted<F: Flavor>(pool: &ThreadPool, script: &[Scripted]) -> Vec<JobReuse> {
    let mut staged = Engine::in_process(pool);
    let (mapper, reducer) = (Emit::<F>::new(), Arrivals::<F>(PhantomData));
    let mut reuse = Vec::new();
    for (i, job) in script.iter().enumerate() {
        let opts = JobOptions::with_reducers(job.reducers);
        let mut oracle = Engine::with_reference_shuffle(pool);
        let want = oracle.run("o", &job.tasks, &mapper, &reducer, &opts);
        let a = staged.run("s", &job.tasks, &mapper, &reducer, &opts);
        assert_eq!(want.pairs, model::<F>(job), "job {i} {job:?}: oracle vs model");
        assert_eq!(a.pairs, want.pairs, "job {i} {job:?}: staged vs oracle");
        let every_partition = JobMeter { reduce_tasks: want.meter.reduce_tasks, ..a.meter };
        assert_eq!(every_partition, want.meter, "job {i}: meter vs oracle");
        assert_eq!(want.reuse, JobReuse::default(), "the oracle remembers nothing");
        let consulted = if job.reducers > 1 { job.tasks.len() as u64 } else { 0 };
        assert_eq!(a.reuse.route.hits + a.reuse.route.misses, consulted, "job {i}");
        assert!(a.reuse.group_by_identity <= a.reuse.group.hits);
        reuse.push(a.reuse);
    }
    reuse
}

/// Three tasks of 13 records over 9 keys, four partitions.
fn base_job() -> Scripted {
    let task = |t: u32| (0..13u32).map(|i| ((i * 5 + t * 3) % 9, u64::from(100 * t + i))).collect();
    Scripted { tasks: (0..3).map(task).collect(), reducers: 4 }
}

fn revalued(job: &Scripted, salt: u64) -> Scripted {
    let revalue = |task: &Vec<(u32, u64)>| task.iter().map(|&(k, x)| (k, x ^ salt)).collect();
    Scripted { tasks: job.tasks.iter().map(revalue).collect(), ..job.clone() }
}

/// For task `t` and every prefix length `at` of its emissions: three
/// jobs on plan from the second, then the task leaves its plan at `at` —
/// a key it never emitted there, or (at the plan's length) one record
/// more —, comes back, and stops short at `at`; all on one engine.
fn leave_the_plan_everywhere<F: Flavor>() {
    let pool = ThreadPool::new(3);
    let base = base_job();
    let populated = model::<F>(&base)
        .iter()
        .map(|(key, _)| reducer_for(key, base.reducers))
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    for t in [0, 2] {
        let n = base.tasks[t].len();
        for at in 0..=n {
            let mut churned = revalued(&base, 1);
            churned.tasks[t].truncate(at + 1);
            churned.tasks[t].resize(at + 1, (0, 0));
            churned.tasks[t][at].0 = 50;
            churned.tasks[t].extend(base.tasks[t].iter().skip(at + 1));
            let mut short = revalued(&base, 2);
            short.tasks[t].truncate(at);
            let script = [
                base.clone(),
                revalued(&base, 3),
                revalued(&base, 4),
                churned,
                revalued(&base, 5),
                revalued(&base, 6),
                short,
                revalued(&base, 7),
            ];
            let reuse = run_scripted::<F>(&pool, &script);
            // Every miss records, so the job after it is on plan again.
            for steady in [&reuse[1], &reuse[2], &reuse[5]] {
                assert_eq!((steady.route.hits, steady.route.misses), (3, 0), "{reuse:?}");
                assert_eq!((steady.group.hits, steady.group_by_identity), (populated, populated));
            }
            assert_eq!((reuse[3].route.hits, reuse[3].route.misses), (2, 1), "at {at}");
            let stopped_short = u64::from(at < n);
            assert_eq!(reuse[6].route.misses, stopped_short, "at {at}: {reuse:?}");
        }
    }
}

#[test]
fn a_task_that_leaves_its_plan_at_any_prefix_changes_nothing_but_the_counts() {
    leave_the_plan_everywhere::<Plain>();
}

#[test]
fn string_keys_leave_and_rejoin_their_plans_too() {
    leave_the_plan_everywhere::<Worded>();
}

fn assert_drops(at_most_once: bool) {
    let drops = DROPS.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!drops.is_empty());
    let fine = |&d: &u32| if at_most_once { d <= 1 } else { d == 1 };
    assert!(drops.iter().all(fine), "{drops:?}");
}

#[test]
fn every_emitted_value_is_dropped_exactly_once_on_hits_and_fall_backs() {
    let _tracking = TRACKING.lock().unwrap_or_else(|e| e.into_inner());
    DROPS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    leave_the_plan_everywhere::<Tracked>();
    assert_drops(false);
}

#[test]
fn a_panic_in_the_middle_of_an_on_plan_map_task_drops_nothing_twice() {
    let _tracking = TRACKING.lock().unwrap_or_else(|e| e.into_inner());
    DROPS.lock().unwrap_or_else(|e| e.into_inner()).clear();
    let pool = ThreadPool::new(3);
    let base = base_job();
    let opts = JobOptions::with_reducers(base.reducers);
    let (mapper, reducer) = (Emit::<Tracked>::new(), Arrivals::<Tracked>(PhantomData));
    for at in [0, 1, 6, 12, 13] {
        let mut engine = Engine::in_process(&pool);
        for _ in 0..3 {
            engine.run("warm", &base.tasks, &mapper, &reducer, &opts);
        }
        assert_eq!(engine.history()[2].reuse.route.hits, 3);
        // `at` values of task 1 sit in their buckets when it panics:
        // they may leak, nothing may be dropped twice.
        let panicking = Emit::<Tracked> { panic_at: Some((1, at)), flavor: PhantomData };
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            engine.run("boom", &base.tasks, &panicking, &reducer, &opts)
        }));
        assert!(unwound.is_err(), "the job panics");
        // The engine is still good: task 1 lost its plan, no more.
        let after = engine.run("after", &base.tasks, &mapper, &reducer, &opts);
        assert_eq!(after.pairs, model::<Tracked>(&base));
    }
    assert_drops(true);
}

/// How one scripted job becomes the next.
#[derive(Debug, Clone)]
enum Step {
    Revalue(u64),
    ChangeKey {
        task: usize,
        at: usize,
        key: u32,
    },
    Truncate {
        task: usize,
        at: usize,
    },
    Extend {
        task: usize,
        key: u32,
    },
    Reducers(usize),
    /// Drops every record whose key routes to this partition (of the
    /// job's count).
    Empty(usize),
    /// Back to the first job.
    Restore,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..7, 0usize..4, 0usize..40, 0u32..30, any::<u64>()).prop_map(
        |(kind, task, at, key, salt)| match kind {
            0 => Step::Revalue(salt),
            1 => Step::ChangeKey { task, at, key },
            2 => Step::Truncate { task, at },
            3 => Step::Extend { task, key },
            4 => Step::Reducers(1 + at % 5),
            5 => Step::Empty(at),
            _ => Step::Restore,
        },
    )
}

fn apply(job: &Scripted, first: &Scripted, step: &Step) -> Scripted {
    let mut next = job.clone();
    let tasks = next.tasks.len();
    match *step {
        Step::Revalue(salt) => return revalued(job, salt),
        Step::ChangeKey { task, at, key } => {
            let task = &mut next.tasks[task % tasks];
            if !task.is_empty() {
                let at = at % task.len();
                task[at].0 = key;
            }
        }
        Step::Truncate { task, at } => {
            let task = &mut next.tasks[task % tasks];
            task.truncate(at % (task.len() + 1));
        }
        Step::Extend { task, key } => next.tasks[task % tasks].push((key, 9)),
        Step::Reducers(reducers) => next.reducers = reducers,
        Step::Empty(partition) => {
            let (p, of) = (partition % next.reducers, next.reducers);
            next.tasks.iter_mut().for_each(|task| task.retain(|(k, _)| reducer_for(k, of) != p));
        }
        Step::Restore => return first.clone(),
    }
    next
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unscripted: a first job, then steps that revalue it, churn a key,
    /// shorten or lengthen a task, change the partition count, empty a
    /// partition or restore the first job — each
    /// resulting job run one to three times so plans get to record and
    /// hit in between — for `u32` and for `String` keys.
    #[test]
    fn engines_equal_the_oracle_and_the_model_on_arbitrary_job_sequences(
        tasks in proptest::collection::vec(
            proptest::collection::vec((0u32..30, any::<u64>()), 0..40), 1..5),
        reducers in 1usize..6,
        steps in proptest::collection::vec((step(), 1usize..4), 1..8),
    ) {
        let first = Scripted { tasks, reducers };
        let mut script = vec![first.clone(), revalued(&first, 1), revalued(&first, 2)];
        for (step, times) in &steps {
            let next = apply(script.last().expect("starts with three jobs"), &first, step);
            script.extend((0..*times).map(|salt| revalued(&next, salt as u64)));
        }
        let pool = ThreadPool::new(3);
        run_scripted::<Plain>(&pool, &script);
        run_scripted::<Worded>(&pool, &script);
    }
}
