//! One job body under one schedule — and the oracle.
//!
//! The paper's argument is about *when* work is synchronised, not *what*
//! the work is, so this module writes the work of a MapReduce job
//! exactly once, as private task bodies:
//!
//! * `map_task` — the user's map over one split, plus its meters
//!   (the split's size among them, as the map set it). The
//!   task's [`MapContext`] **routes as it is emitted into**: it carries
//!   the task's remembered [`RoutePlan`] out of the [`PlanStore`] and
//!   back, and while the task emits the key sequence it emitted last
//!   job (verified key by key at the point of emission, every job)
//!   each value goes straight onto its reduce bucket, bare — no pair
//!   is buffered, nothing is hashed; a task that leaves its plan, or
//!   has none, is buffered and records a new plan from its pairs (see
//!   [`crate::shuffle`]). What a map emits is what heads into the
//!   shuffle: a mapper that pre-aggregates (K-Means General's and
//!   General PageRank's in-mapper combining) folds before it emits;
//! * `transpose` — the hand-over of bucket *handles* from map tasks to
//!   reduce partitions (no element is copied or cloned): a partition's
//!   input is its non-empty buckets in map-task order. Partitions that
//!   received no records are **skipped** — not executed, not metered,
//!   not replayed in simulation (see [`crate::JobOptions::num_reducers`]);
//! * `reduce_task` — grouping of one partition's buckets into
//!   contiguous [`crate::shuffle::GroupView`] slices through the
//!   partition's remembered [`GroupPlan`], which recognises buckets
//!   that arrive on plan by the key handles they carry (`O(map tasks)`;
//!   the map side verified every key) and compares any other key by
//!   key; on a hit the values scatter from the buckets straight to
//!   their slots and the reducer walks the recorded group boundaries —
//!   no concatenation, no hash map, no sort, no key moved or compared;
//!   on a miss a new plan is recorded the way the job's
//!   [`GroupingStrategy`] names and the values scatter through it), and
//!   the user's reduce calls. The
//!   plans live in the engine's [`PlanStore`], the only thing a job
//!   hands on to the next: the hundreds of jobs a
//!   [`crate::FixedPointDriver`] run issues share key sequences, not
//!   buffers;
//! * `assemble` — the [`crate::JobMeter`] fold, the simulator task
//!   specs, and the ascending-partition concatenation of output pairs.
//!
//! [`crate::Engine::run`] runs those bodies under one **schedule**,
//! `staged`: two barriers on the work-stealing pool (map ∥, reduce ∥)
//! and, between them, the transposition on the calling thread, each
//! timed as wall-clock ([`StageTimings`]). There is no route barrier:
//! every record is in its bucket when the task that emitted it ends.
//!
//! The **oracle** ([`crate::Engine::with_reference_shuffle`]) is the
//! exception on purpose: it is the original strategy (hash every key,
//! sequential bucket concatenation, per-reducer `input.clone()`,
//! `BTreeMap` grouping), remembers nothing from job to job, and shares
//! *no* body with the schedule, which is what makes the equivalence
//! suites that compare against it mean something.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use asyncmr_model::{MapTaskSpec, ReduceTaskSpec};
use asyncmr_runtime::ThreadPool;

use crate::emitter::{MapContext, ReduceContext, Routed};
use crate::engine::{JobMeter, JobOptions, JobReuse};
use crate::shuffle::{
    self, Bucket, GroupPlan, GroupView, GroupingStrategy, PlanOutcome, RoutePlan,
};
use crate::traits::{Mapper, Reducer};

/// Time spent in each stage of one job (in-process execution, not
/// simulated time): each field is the *wall-clock* span of that stage's
/// barrier, so [`StageTimings::total`] ≤ the job's wall time.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use asyncmr_core::StageTimings;
///
/// let t = StageTimings {
///     map: Duration::from_millis(6),
///     reduce: Duration::from_millis(4),
///     ..Default::default()
/// };
/// assert_eq!(t.total(), Duration::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Map stage (user map functions, parallel).
    pub map: Duration,
    /// Always zero: there is no combine stage (a mapper that
    /// pre-aggregates does so before it emits); kept only because
    /// `ledger/src/traced.rs:415,629` reads it.
    pub combine: Duration,
    /// Shuffle stage: the transposition of bucket handles from map
    /// tasks to reduce partitions, on the calling thread. Routing is not
    /// in it: records are routed as they are emitted, inside the map
    /// stage.
    pub shuffle: Duration,
    /// Reduce stage: each partition's values scattered through its group
    /// plan (recorded first on a miss) and reduced group by group,
    /// parallel.
    pub reduce: Duration,
    /// Always `false`; kept only because `ledger/src/traced.rs:411` reads it.
    pub overlapped: bool,
}

impl StageTimings {
    /// Sum of all stage times, bounded by the job's wall time.
    pub fn total(&self) -> Duration {
        self.map + self.shuffle + self.reduce
    }
}

/// What the engine remembers from job to job: one [`RoutePlan`] per
/// map task and one [`GroupPlan`] per reduce partition.
///
/// **Slot-addressed**: a plan is only worth something to the task that
/// will see the same key sequence again, so it is filed under (plan
/// type — which names the key type, and keeps map task `t`'s route plan
/// and partition `t`'s group plan apart under one number —, map task or
/// *real* partition index; a skipped
/// empty partition does not shift its neighbours' slots). Two job types
/// that share a key type share slots and evict each other's plans:
/// every plan is verified against its input on every use
/// ([`shuffle::RouteSink::emit`], [`shuffle::group_planned`]), so that
/// costs a recording per use — every plan records on every miss —
/// never results.
///
/// A slot holds what its task recorded — a map task's key sequence
/// with one `u32` a record (≈ 8 B a record for `u32` keys), a reduce
/// partition's one `u32` a record and three a key group beside
/// *handles* on the map tasks' keys, which it shares — until it fails
/// a verification, which frees it (a key sequence goes when the last
/// plan sharing it does); dropping the engine releases everything.
#[derive(Debug, Default)]
pub struct PlanStore {
    slots: Mutex<HashMap<(TypeId, usize), Box<dyn Any + Send>>>,
}

impl PlanStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` on the plan of type `P` filed under `slot` — a fresh
    /// `P::default()` the first time — and files it back. The plan is
    /// checked out while `f` runs (no lock is held); within a job each
    /// slot belongs to exactly one task.
    pub fn with<P: Any + Send + Default, T>(&self, slot: usize, f: impl FnOnce(&mut P) -> T) -> T {
        let key = (TypeId::of::<P>(), slot);
        let filed = self.slots.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        let mut plan: Box<P> = match filed {
            Some(plan) => plan.downcast().expect("slots are keyed by TypeId"),
            None => Box::default(),
        };
        let out = f(&mut plan);
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).insert(key, plan);
        out
    }

    /// Reads the plan of type `P` filed under `slot`, if there is one;
    /// never files anything.
    pub fn peek<P: Any + Send, T>(&self, slot: usize, f: impl FnOnce(&P) -> T) -> Option<T> {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.get(&(TypeId::of::<P>(), slot)).and_then(|plan| plan.downcast_ref()).map(f)
    }
}

/// One map task's routed output: `buckets[r]` goes to reduce partition
/// `r`. Also one reduce task's input: that partition's non-empty
/// buckets, in map-task order.
type Buckets<K, V> = Vec<Bucket<K, V>>;

/// Everything one map task reports besides its pairs.
#[derive(Debug, Clone, Copy)]
struct MapProfile {
    ops: u64,
    /// Partial synchronizations performed (eager gmap tasks).
    local_syncs: u64,
    input_bytes: u64,
    /// Records / bytes headed into the shuffle.
    records: u64,
    bytes: u64,
}

/// One map task's output, routed, plus its meters.
struct MapOut<K, V> {
    /// `buckets[r]` goes to reduce partition `r`.
    buckets: Buckets<K, V>,
    /// What became of the task's [`RoutePlan`] (`None`: a single
    /// partition consults none).
    planned: Option<PlanOutcome>,
    profile: MapProfile,
}

/// One reduce task's result.
struct ReduceOut<K, O> {
    /// Output pairs, in emission order.
    pairs: Vec<(K, O)>,
    ops: u64,
    in_records: u64,
    out_records: u64,
    out_bytes: u64,
    /// What became of the partition's [`GroupPlan`], and whether a hit
    /// was recognised by identity alone.
    planned: (PlanOutcome, bool),
}

/// What a job execution hands back to [`crate::Engine::run`].
pub(crate) struct Executed<K, O> {
    /// Output pairs, in (reduce partition, key) order.
    pub(crate) pairs: Vec<(K, O)>,
    pub(crate) meter: JobMeter,
    pub(crate) stages: StageTimings,
    pub(crate) reuse: JobReuse,
    /// The metered tasks as simulator specs. `None` from the oracle,
    /// which no constructor can pair with a `Simulation`.
    pub(crate) specs: Option<(Vec<MapTaskSpec>, Vec<ReduceTaskSpec>)>,
}

/// Runs the user's map function over one input split, its emissions
/// routed into `reducers` buckets as they are made, following map task
/// `task`'s [`RoutePlan`] — checked out of `plans` meanwhile, filed
/// back after.
fn map_task<M: Mapper>(
    mapper: &M,
    task: usize,
    input: &M::Input,
    reducers: usize,
    plans: &PlanStore,
) -> MapOut<M::Key, M::Value> {
    let Routed { buckets, planned, meter, records, bytes } =
        plans.with(task, |kept: &mut RoutePlan<M::Key>| {
            let mut ctx = MapContext::routing(std::mem::take(kept), reducers);
            mapper.map(task, input, &mut ctx);
            let (routed, plan) = ctx.finish_routed();
            *kept = plan;
            routed
        });
    let profile = MapProfile {
        ops: meter.ops(),
        local_syncs: meter.local_syncs(),
        input_bytes: meter.input_bytes(),
        records,
        bytes,
    };
    MapOut { buckets, planned, profile }
}

/// Every populated reduce partition with its input, ascending by
/// partition.
type ReduceInputs<K, V> = Vec<(usize, Buckets<K, V>)>;

/// The shuffle's hand-over: transposes the map tasks' routed buckets —
/// `routed[task][partition]`, in map-task order — into every populated
/// partition's reduce input, its non-empty buckets in map-task order.
/// Only bucket handles move. A partition that received no records is
/// skipped.
///
/// # Panics
///
/// Panics if a task's bucket count is not the partition count — a
/// scheduling bug, not a data condition.
fn transpose<K, V>(mut routed: Vec<Buckets<K, V>>, reducers: usize) -> ReduceInputs<K, V> {
    assert!(routed.iter().all(|task| task.len() == reducers), "one bucket per reduce partition");
    (0..reducers)
        .filter_map(|partition| {
            let buckets: Buckets<K, V> = routed
                .iter_mut()
                .map(|task| std::mem::take(&mut task[partition]))
                .filter(|bucket| !bucket.is_empty())
                .collect();
            (!buckets.is_empty()).then_some((partition, buckets))
        })
        .collect()
}

/// Runs one reduce task: groups the partition's buckets through the
/// partition's remembered [`GroupPlan`] and applies the user's reduce
/// function per key.
fn reduce_task<R: Reducer>(
    reducer: &R,
    grouping: GroupingStrategy,
    partition: usize,
    buckets: Buckets<R::Key, R::ValueIn>,
    plans: &PlanStore,
) -> ReduceOut<R::Key, R::Out> {
    let in_records = buckets.iter().map(|b| b.len() as u64).sum();
    let groups = plans.peek(partition, GroupPlan::<R::Key>::groups).unwrap_or(0);
    let mut ctx: ReduceContext<R::Key, R::Out> = ReduceContext::with_capacity(groups);
    let planned = plans.with(partition, |plan: &mut GroupPlan<R::Key>| {
        let reduce = |g: GroupView<'_, _, _>| reducer.reduce(g.key, g.values, &mut ctx);
        shuffle::group_planned(buckets, grouping, plan, reduce)
    });
    let (pairs, meter, out_records, out_bytes) = ctx.finish();
    ReduceOut { pairs, ops: meter.ops(), in_records, out_records, out_bytes, planned }
}

/// Folds the per-task reports into the job's result. `reduced` must be
/// in ascending partition order: that order is the output order.
/// `reuse` arrives with the map side's route-plan counts.
fn assemble<K, O>(
    profiles: &[MapProfile],
    reduced: Vec<ReduceOut<K, O>>,
    stages: StageTimings,
    mut reuse: JobReuse,
) -> Executed<K, O> {
    let mut meter =
        JobMeter { map_tasks: profiles.len(), reduce_tasks: reduced.len(), ..JobMeter::default() };
    let mut map_specs = Vec::with_capacity(profiles.len());
    for p in profiles {
        meter.map_ops += p.ops;
        meter.local_syncs += p.local_syncs;
        meter.input_bytes += p.input_bytes;
        meter.shuffle_records += p.records;
        meter.shuffle_bytes += p.bytes;
        map_specs.push(MapTaskSpec::new(p.input_bytes, p.ops, p.bytes).with_records(p.records));
    }
    let mut reduce_specs = Vec::with_capacity(reduced.len());
    let mut pairs = Vec::with_capacity(reduced.iter().map(|r| r.pairs.len()).sum());
    for r in reduced {
        meter.reduce_ops += r.ops;
        meter.output_records += r.out_records;
        meter.output_bytes += r.out_bytes;
        reuse.group.count(r.planned.0);
        reuse.group_by_identity += u64::from(r.planned.1);
        // Record-handling framework work folds into reduce ops.
        reduce_specs.push(ReduceTaskSpec::new(r.ops + r.in_records, r.out_bytes));
        pairs.extend(r.pairs);
    }
    Executed { pairs, meter, stages, reuse, specs: Some((map_specs, reduce_specs)) }
}

/// The staged schedule: the job body as two barriers and a
/// transposition, each timed as its wall-clock span.
pub(crate) fn staged<M, R>(
    pool: &ThreadPool,
    inputs: &[M::Input],
    mapper: &M,
    reducer: &R,
    opts: &JobOptions,
    plans: &PlanStore,
) -> Executed<R::Key, R::Out>
where
    M: Mapper,
    R: Reducer<Key = M::Key, ValueIn = M::Value>,
{
    let reducers = opts.num_reducers;
    let mut stages = StageTimings::default();
    let mut reuse = JobReuse::default();

    // A map task routes as it emits.
    let t = Instant::now();
    let mapped =
        pool.par_map_indexed(inputs, |task, input| map_task(mapper, task, input, reducers, plans));
    stages.map = t.elapsed();

    // Every record sits in its bucket already: what is left of the
    // shuffle is handing bucket handles over, on this thread.
    let t = Instant::now();
    let mut profiles = Vec::with_capacity(inputs.len());
    let mut routed = Vec::with_capacity(inputs.len());
    for out in mapped {
        profiles.push(out.profile);
        if let Some(planned) = out.planned {
            reuse.route.count(planned);
        }
        routed.push(out.buckets);
    }
    let reduce_inputs = transpose(routed, reducers);
    stages.shuffle = t.elapsed();

    let t = Instant::now();
    let reduced = pool.par_map_vec(reduce_inputs, |_i, (partition, buckets)| {
        reduce_task(reducer, opts.grouping, partition, buckets, plans)
    });
    stages.reduce = t.elapsed();

    assemble(&profiles, reduced, stages, reuse)
}

/// The oracle: executes one job the way the pre-staged engine did —
/// parallel map + route, **sequential** bucket concatenation, and a
/// parallel reduce phase in which every reduce task `clone()`s its
/// input and groups it through a `BTreeMap`.
///
/// Deliberately shares no body with the schedule above: its output
/// pairs must *prove* byte-identical to this one's (the
/// `stage_equivalence` and `pipeline_equivalence` integration tests).
/// Keeps the old meter semantics — every reduce partition counts as a
/// task, empty or not — and is not stage-instrumented.
pub(crate) fn reference<M, R>(
    pool: &ThreadPool,
    inputs: &[M::Input],
    mapper: &M,
    reducer: &R,
    opts: &JobOptions,
) -> Executed<R::Key, R::Out>
where
    M: Mapper,
    R: Reducer<Key = M::Key, ValueIn = M::Value>,
{
    let reducers = opts.num_reducers;

    let map_outs = pool.par_map_indexed(inputs, |task, input| {
        let mut ctx: MapContext<M::Key, M::Value> = MapContext::default();
        mapper.map(task, input, &mut ctx);
        let (pairs, meter, records, bytes) = ctx.finish();
        let profile = MapProfile {
            ops: meter.ops(),
            local_syncs: meter.local_syncs(),
            input_bytes: meter.input_bytes(),
            records,
            bytes,
        };
        (shuffle::route(pairs, reducers), profile)
    });

    // Sequential, single-threaded concatenation (the old barrier).
    let mut reduce_inputs: Vec<Vec<(M::Key, M::Value)>> =
        (0..reducers).map(|_| Vec::new()).collect();
    let mut meter =
        JobMeter { map_tasks: inputs.len(), reduce_tasks: reducers, ..JobMeter::default() };
    for (buckets, p) in map_outs {
        meter.map_ops += p.ops;
        meter.local_syncs += p.local_syncs;
        meter.input_bytes += p.input_bytes;
        meter.shuffle_records += p.records;
        meter.shuffle_bytes += p.bytes;
        for (r, bucket) in buckets.into_iter().enumerate() {
            reduce_inputs[r].extend(bucket);
        }
    }

    let reduce_outs = pool.par_map(&reduce_inputs, |input| {
        let mut ctx: ReduceContext<R::Key, R::Out> = ReduceContext::default();
        // The allocation-heavy path the schedule replaced: full input
        // clone, then per-key Vec<V> groups via BTreeMap.
        let grouped = shuffle::group(input.clone());
        for (k, values) in &grouped {
            reducer.reduce(k, values, &mut ctx);
        }
        ctx.finish()
    });

    let mut pairs = Vec::new();
    for (out_pairs, task_meter, out_records, out_bytes) in reduce_outs {
        meter.reduce_ops += task_meter.ops();
        meter.output_records += out_records;
        meter.output_bytes += out_bytes;
        pairs.extend(out_pairs);
    }
    let (stages, reuse) = (StageTimings::default(), JobReuse::default());
    Executed { pairs, meter, stages, reuse, specs: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{Key, Value};
    use asyncmr_runtime::ThreadPool;

    struct ModMapper;
    impl Mapper for ModMapper {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        fn map(&self, _t: usize, input: &Vec<u32>, ctx: &mut MapContext<u32, u64>) {
            for &x in input {
                ctx.emit_intermediate(x % 8, u64::from(x));
            }
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        type Key = u32;
        type ValueIn = u64;
        type Out = u64;
        fn reduce(&self, key: &u32, values: &[u64], ctx: &mut ReduceContext<u32, u64>) {
            ctx.emit(*key, values.iter().sum());
        }
    }

    fn splits() -> Vec<Vec<u32>> {
        (0..4).map(|s| ((s * 50)..(s * 50 + 50)).collect()).collect()
    }

    /// Owned-pair buckets, as a map task that runs off plan routes them.
    fn owned(buckets: Vec<Vec<(u32, u32)>>) -> Buckets<u32, u32> {
        buckets.into_iter().map(Bucket::from).collect()
    }

    /// Map (routing as it emits) → transpose, one task after another on
    /// this thread: the job body with no schedule at all. Returns each
    /// populated partition with its reduce input.
    fn shuffled<M: Mapper<Key = K, Value = V>, K: Key, V: Value>(
        mapper: &M,
        inputs: &[M::Input],
        reducers: usize,
        plans: &PlanStore,
    ) -> (Vec<MapProfile>, ReduceInputs<K, V>) {
        let (mut profiles, mut routed) = (Vec::new(), Vec::new());
        for (task, input) in inputs.iter().enumerate() {
            let out = map_task(mapper, task, input, reducers, plans);
            profiles.push(out.profile);
            routed.push(out.buckets);
        }
        (profiles, transpose(routed, reducers))
    }

    #[test]
    fn stages_compose_to_a_correct_job() {
        let plans = PlanStore::new();
        let (profiles, reduce_inputs) = shuffled(&ModMapper, &splits(), 3, &plans);
        assert_eq!(profiles.len(), 4);
        assert!(profiles.iter().all(|p| p.records == 50));
        assert!(reduce_inputs.len() <= 3);
        let reduced: Vec<ReduceOut<u32, u64>> = reduce_inputs
            .into_iter()
            .map(|(p, b)| reduce_task(&SumReducer, GroupingStrategy::Sort, p, b, &plans))
            .collect();
        assert_eq!(reduced.iter().map(|r| r.in_records).sum::<u64>(), 200);
        let job = assemble(&profiles, reduced, StageTimings::default(), JobReuse::default());
        let total: u64 = job.pairs.iter().map(|(_, v)| v).sum();
        let expected: u64 = (0..200u64).sum();
        assert_eq!(total, expected);
        assert_eq!(job.meter.shuffle_records, 200);
        assert_eq!(job.meter.output_records, 8);
    }

    #[test]
    fn shuffle_stage_skips_empty_partitions() {
        // One key only: at most one of the 16 partitions has records.
        struct OneKey;
        impl Mapper for OneKey {
            type Input = u32;
            type Key = u32;
            type Value = u32;
            fn map(&self, _t: usize, input: &u32, ctx: &mut MapContext<u32, u32>) {
                ctx.emit_intermediate(7, *input);
            }
        }
        let (_, reduce_inputs) = shuffled(&OneKey, &[1u32, 2, 3], 16, &PlanStore::new());
        assert_eq!(reduce_inputs.len(), 1, "only the populated partition survives");
        let (partition, buckets) = &reduce_inputs[0];
        assert_eq!(*partition, crate::hash::reducer_for(&7u32, 16), "under its real index");
        assert_eq!(buckets.len(), 3, "one bucket per emitting map task");
        assert_eq!(buckets.iter().map(Bucket::len).sum::<usize>(), 3);
    }

    #[test]
    fn empty_partitions_are_skipped_like_the_staged_shuffle() {
        let inputs = transpose(vec![owned(vec![vec![(0, 1)], vec![]])], 2);
        let partitions: Vec<usize> = inputs.iter().map(|(p, _)| *p).collect();
        assert_eq!(partitions, [0], "zero-record partition must be skipped");
    }

    #[test]
    fn empty_buckets_leave_no_hole_in_task_order() {
        let routed = vec![
            owned(vec![vec![(0, 1)]]),
            owned(vec![vec![]]), // task 1 emitted nothing for p0
            owned(vec![vec![(0, 3)]]),
        ];
        // Only non-empty buckets survive, still in task order.
        let want = owned(vec![vec![(0, 1)], vec![(0, 3)]]);
        assert_eq!(transpose(routed, 1), [(0, want)]);
    }

    #[test]
    fn plan_store_files_by_type_and_slot() {
        let store = PlanStore::new();
        assert_eq!(store.peek(3, RoutePlan::<u32>::records), None);
        let route = |slot, pairs: Vec<(u32, u8)>| {
            store.with(slot, |plan: &mut RoutePlan<u32>| {
                let mut sink = shuffle::RouteSink::following(std::mem::take(plan), 2);
                pairs.into_iter().for_each(|(k, v)| sink.emit(k, v));
                let (_, kept, planned) = sink.finish();
                *plan = kept;
                planned.expect("two partitions consult the plan")
            })
        };
        assert_eq!(store.peek(3, RoutePlan::<u32>::records), None, "peek files nothing");
        for want in [PlanOutcome::Recorded, PlanOutcome::Hit, PlanOutcome::Hit] {
            assert_eq!(route(3, vec![(1, 9), (2, 9)]), want, "slot 3 remembers");
        }
        assert_eq!(route(4, vec![(1, 0)]), PlanOutcome::Recorded, "slot 4 is another task's");
        assert_eq!(store.peek(3, RoutePlan::<u32>::records), Some(2));
        assert_eq!(store.peek(4, RoutePlan::<u32>::records), Some(1));
        // Same slot number, other plan types: separate files.
        assert_eq!(store.peek(3, RoutePlan::<u64>::records), None);
        assert_eq!(store.with(3, |plan: &mut GroupPlan<u32>| plan.records()), 0);
        assert_eq!(route(3, vec![(1, 7), (2, 7)]), PlanOutcome::Hit, "and do not evict each other");
    }

    #[test]
    fn reference_and_stages_agree() {
        let pool = ThreadPool::new(3);
        let inputs = splits();
        let opts = JobOptions::with_reducers(5);
        let reference = reference(&pool, &inputs, &ModMapper, &SumReducer, &opts);

        let plans = PlanStore::new();
        let (_, reduce_inputs) = shuffled(&ModMapper, &inputs, 5, &plans);
        let reduce = |(p, b)| reduce_task(&SumReducer, GroupingStrategy::Radix, p, b, &plans).pairs;
        let staged: Vec<(u32, u64)> = reduce_inputs.into_iter().flat_map(reduce).collect();
        assert_eq!(staged, reference.pairs, "stage composition must match the reference");
    }
}
