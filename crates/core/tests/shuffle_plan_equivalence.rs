//! Property tests pinning the shuffle's **remembering** paths to the
//! references that remember nothing, over *sequences* of jobs on one
//! plan store — a plan is only interesting the second time around:
//!
//! * [`shuffle::route_planned`] through a [`PlanStore`] slot per map
//!   task must produce [`shuffle::route`]'s buckets;
//! * [`Grouped::from_buckets_planned`] through a slot per reduce
//!   partition must produce the groups of [`shuffle::group`] (the
//!   `BTreeMap` reference) over the concatenated buckets, for both
//!   strategies;
//!
//! across first sights (sat out), recordings, hits, a key changed at one
//! index, a changed length, a changed partition count, and — at the
//! engine level — two job types sharing one key type (and therefore
//! slots) on one engine, and a partition that goes empty and comes back
//! (plans are filed under the real partition index, so its neighbours
//! keep hitting). Every comparison is exact; what became of each plan
//! is asserted wherever the script determines it, so a verification
//! that only compared lengths, or a recording that kept stale targets,
//! fails here.

use asyncmr_core::engine::JobReuse;
use asyncmr_core::hash::reducer_for;
use asyncmr_core::plan::PlanStore;
use asyncmr_core::prelude::*;
use asyncmr_core::shuffle::PlanOutcome::{self, Hit, Recorded, Unplanned};
use asyncmr_core::shuffle::{self, GroupPlan, Grouped, RoutePlan, ShuffleScratch};
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// One job as the shuffle sees it: each map task's emitted pairs.
type Job = Vec<Vec<(u32, u32)>>;

/// What became of every plan in one [`shuffle_job`]: per map task, and
/// per reduce partition (`None` for a partition that received nothing
/// and was skipped).
struct Hits {
    route: Vec<PlanOutcome>,
    group: Vec<Option<PlanOutcome>>,
}

impl Hits {
    fn all(&self, want: PlanOutcome) -> bool {
        self.route.iter().chain(self.group.iter().flatten()).all(|&outcome| outcome == want)
    }
}

/// Collects a `Grouped` into the reference's output shape.
fn collect(grouped: &Grouped<u32, u32>) -> Vec<(u32, Vec<u32>)> {
    let mut out = Vec::new();
    grouped.for_each(|g| out.push((*g.key, g.values.to_vec())));
    out
}

/// Shuffles `job` the way the engine's job body does — planned route
/// per map task, planned grouping per populated partition, plans filed
/// in `store` — asserting every intermediate against the unplanned
/// reference.
fn shuffle_job(
    store: &PlanStore,
    scratch: &mut ShuffleScratch<u32, u32>,
    job: &Job,
    reducers: usize,
    strategy: GroupingStrategy,
) -> Hits {
    let mut hits = Hits { route: Vec::new(), group: Vec::new() };
    let mut routed = Vec::new();
    for (task, pairs) in job.iter().enumerate() {
        let (buckets, hit) = store.with(task, |plan: &mut RoutePlan<u32>| {
            shuffle::route_planned(pairs.clone(), reducers, plan)
        });
        assert_eq!(&buckets, &shuffle::route(pairs.clone(), reducers), "task {task}");
        hits.route.push(hit);
        routed.push(buckets);
    }
    for partition in 0..reducers {
        let buckets: Vec<Vec<(u32, u32)>> =
            routed.iter().map(|b| b[partition].clone()).filter(|b| !b.is_empty()).collect();
        if buckets.is_empty() {
            hits.group.push(None);
            continue;
        }
        let reference = shuffle::group(buckets.concat());
        let (grouped, hit) = store.with(partition, |plan: &mut GroupPlan<u32>| {
            Grouped::from_buckets_planned(buckets, strategy, plan, scratch)
        });
        assert_eq!(collect(&grouped), reference, "partition {partition}");
        grouped.recycle_into(scratch);
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
        let mut scratch = ShuffleScratch::default();
        let tasks = first.len();
        let populated = |job: &Job, p: usize| {
            job.iter().flatten().any(|(k, _)| reducer_for(k, reducers) == p)
        };

        // First sight is sat out, the second is recorded.
        let hits = shuffle_job(&store, &mut scratch, &first, reducers, strategy);
        prop_assert!(hits.all(Unplanned));
        let hits = shuffle_job(&store, &mut scratch, &first, reducers, strategy);
        prop_assert!(hits.all(Recorded));

        // Same keys, new values: everything hits.
        let new_values: Job = first
            .iter()
            .map(|task| task.iter().map(|&(k, v)| (k, v ^ 0xA5A5)).collect())
            .collect();
        let hits = shuffle_job(&store, &mut scratch, &new_values, reducers, strategy);
        prop_assert!(hits.all(Hit));

        // Same lengths, one key of one task replaced by a key the
        // sequence never held: that task's route plan and the group
        // plans of the key's old and new partitions are dropped and sit
        // the job out; nothing else moves.
        let task = pick.0 as usize % tasks;
        let at = pick.1 as usize % first[task].len();
        let (old_key, new_key) = (first[task][at].0, first[task][at].0 + 40);
        let mut one_key_changed = new_values.clone();
        one_key_changed[task][at].0 = new_key;
        let touched = [reducer_for(&old_key, reducers), reducer_for(&new_key, reducers)];
        let hits = shuffle_job(&store, &mut scratch, &one_key_changed, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Unplanned } else { Hit }, "task {}", t);
        }
        for (p, &outcome) in hits.group.iter().enumerate() {
            prop_assert_eq!(outcome.is_some(), populated(&one_key_changed, p));
            if let Some(outcome) = outcome {
                // A partition the change emptied cannot appear here; one
                // it populated for the first time has a fresh plan and
                // sits its first sight out like the rest of `touched`.
                let want = if touched.contains(&p) { Unplanned } else { Hit };
                prop_assert_eq!(outcome, want, "partition {}", p);
            }
        }

        // One more pair at the end of that task: its route plan (sat
        // out last job, so due) records the longer sequence; so do the
        // touched partitions, whether or not this job changed them.
        let mut longer = one_key_changed.clone();
        longer[task].push((new_key, 7));
        let hits = shuffle_job(&store, &mut scratch, &longer, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Recorded } else { Hit });
        }
        for (p, &outcome) in hits.group.iter().enumerate() {
            if let Some(outcome) = outcome {
                prop_assert_eq!(outcome, if touched.contains(&p) { Recorded } else { Hit });
            }
        }

        // Another partition count: no route plan hits (its targets and
        // bucket sizes are for the old count), whatever the keys.
        let hits = shuffle_job(&store, &mut scratch, &longer, reducers + 1, strategy);
        prop_assert!(hits.route.iter().all(|&outcome| outcome == Unplanned));
        // ... and back: nothing is left to hit; the plans that had been
        // hitting re-record at once, the twice-stale ones a job later.
        let hits = shuffle_job(&store, &mut scratch, &longer, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Unplanned } else { Recorded });
        }
        let hits = shuffle_job(&store, &mut scratch, &longer, reducers, strategy);
        for (t, &outcome) in hits.route.iter().enumerate() {
            prop_assert_eq!(outcome, if t == task { Recorded } else { Hit });
        }
        let hits = shuffle_job(&store, &mut scratch, &longer, reducers, strategy);
        prop_assert!(hits.all(Hit));

        // Fewer map tasks, then an empty job: still the references'.
        shuffle_job(&store, &mut scratch, &longer[..tasks - 1].to_vec(), reducers, strategy);
        shuffle_job(&store, &mut scratch, &Job::new(), reducers, strategy);
        shuffle_job(&store, &mut scratch, &first, reducers, strategy);
    }

    /// Unscripted: arbitrary jobs with arbitrary partition counts and
    /// strategies on one store, each shuffled four times in a row —
    /// whatever a plan's backoff, once it is recorded it hits the same
    /// job from then on.
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
        let mut scratch = ShuffleScratch::default();
        for (job, reducers, radix) in jobs {
            let mut last = shuffle_job(&store, &mut scratch, &job, reducers, strategy(radix));
            for _ in 0..3 {
                let hits = shuffle_job(&store, &mut scratch, &job, reducers, strategy(radix));
                let before = last.route.iter().chain(last.group.iter().flatten());
                let now = hits.route.iter().chain(hits.group.iter().flatten());
                for (&before, &now) in before.zip(now) {
                    prop_assert_eq!(now == Hit, before != Unplanned, "{:?} then {:?}", before, now);
                }
                last = hits;
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

/// Runs `script` on one staged and one pipelined engine, comparing
/// every job's pairs with a fresh oracle engine and the two schedules'
/// meters and reuse counts with each other; returns the reuse counts.
fn run_script(script: &[&Strided], opts: &JobOptions<'_, u32, u64>) -> Vec<JobReuse> {
    let pool = ThreadPool::new(3);
    let inputs = splits();
    let mut staged = Engine::in_process(&pool);
    let mut pipelined = Engine::with_pipelined_shuffle(&pool);
    let mut reuse = Vec::new();
    for (i, mapper) in script.iter().enumerate() {
        let want = Engine::with_reference_shuffle(&pool).run("o", &inputs, *mapper, &Collect, opts);
        let a = staged.run("s", &inputs, *mapper, &Collect, opts);
        let b = pipelined.run("p", &inputs, *mapper, &Collect, opts);
        assert_eq!(a.pairs, want.pairs, "job {i}: staged vs oracle");
        assert_eq!(b.pairs, want.pairs, "job {i}: pipelined vs oracle");
        assert_eq!(a.meter, b.meter, "job {i}: meters");
        assert_eq!(a.reuse.route, b.reuse.route, "job {i}: route plan use");
        assert_eq!(a.reuse.group, b.reuse.group, "job {i}: group plan use");
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
        let reuse = run_script(&[&a, &b, &a, &b, &a, &a, &a, &a], &opts);
        // Interleaved, each job finds the other type's plans in its
        // slots (or none) and the slots back off: `b` is recorded twice
        // and found stale twice, so `a` is sat out twice more before it
        // is recorded; then it finds its own.
        let recorded: Vec<u64> = reuse.iter().map(|r| r.route.recorded).collect();
        assert_eq!(recorded, [0, 5, 0, 5, 0, 0, 5, 0], "{reuse:?}");
        for r in &reuse[..7] {
            assert_eq!((r.route.hits, r.route.misses), (0, 5), "{reuse:?}");
            assert_eq!(r.group.hits, 0, "{reuse:?}");
        }
        assert_eq!((reuse[7].route.hits, reuse[7].route.misses), (5, 0), "{reuse:?}");
        assert_eq!((reuse[7].group.hits, reuse[7].group.misses), (4, 0), "{reuse:?}");
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
        let reuse = run_script(&[&full, &full, &full, &without, &full], &opts);
        assert_eq!((reuse[2].group.hits, reuse[2].group.misses), (4, 0), "{reuse:?}");
        // Partition 1 is skipped; partitions 0, 2 and 3 received what
        // they always do and must find their plans where they left
        // them — filed by compacted position, 2 and 3 would miss.
        assert_eq!((reuse[3].group.hits, reuse[3].group.misses), (3, 0), "{reuse:?}");
        assert_eq!(reuse[3].route.hits, 0, "every map task lost keys: {reuse:?}");
        // Partition 1 comes back to the plan nobody touched.
        assert_eq!((reuse[4].group.hits, reuse[4].group.misses), (4, 0), "{reuse:?}");
    }
}
