//! The staged execution plan: explicit `MapStage → CombineStage →
//! ShuffleStage → ReduceStage` types that [`crate::Engine::run`]
//! composes.
//!
//! The paper's argument is that global synchronization barriers
//! dominate iterative MapReduce cost; the ASYNC line of work isolates
//! the communication/aggregation stage behind an engine-internal
//! abstraction so it can be optimized independently of user code. This
//! module is that abstraction: each stage is a named type with a `run`
//! method, so metering, simulated replay, and future async/pipelined
//! scheduling hang off stage *boundaries* instead of one monolithic
//! function.
//!
//! The shuffle/reduce half is the hot path and is built around
//! ownership transfer:
//!
//! * [`ShuffleStage`] routes every map task's output in parallel, then
//!   *transposes bucket handles* — per-reducer ownership transfer, no
//!   element is copied or cloned;
//! * reduce partitions that received no records are **skipped** (not
//!   executed, not metered, not replayed in simulation) — see
//!   [`crate::JobOptions::num_reducers`];
//! * [`ReduceStage`] fuses, per reduce task: move-concatenation of that
//!   reducer's buckets, sort-based grouping into contiguous
//!   [`crate::shuffle::GroupView`] slices, and the user's reduce calls —
//!   with all working buffers recycled through a [`ScratchArena`]
//!   across the hundreds of jobs a [`crate::FixedPointDriver`] run
//!   issues.
//!
//! Three execution strategies share these building blocks:
//!
//! * **staged** ([`crate::Engine::in_process`]) — the four stages run
//!   as explicit barriers, composed by the engine;
//! * **pipelined** ([`pipelined`], [`crate::Engine::with_pipelined_shuffle`])
//!   — no whole-stage barriers: map/combine/route fuse into one task
//!   per split, buckets stream into a [`crate::BucketBoard`], and each
//!   reduce task is scheduled the moment its buckets are complete;
//! * **reference** ([`mod@reference`]) — the original strategy (sequential
//!   bucket concatenation, per-reducer `input.clone()`, `BTreeMap`
//!   grouping), kept for equivalence tests and before/after benchmarks.
//!
//! All three produce byte-identical output pairs and identical
//! [`crate::JobMeter`]s; they differ only in scheduling and therefore
//! in wall-clock and [`StageTimings`] attribution.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use asyncmr_runtime::ThreadPool;
use asyncmr_simcluster::{MapTaskSpec, ReduceTaskSpec};

use crate::emitter::{MapContext, ReduceContext};
use crate::kv::{Key, Meterable, Value};
use crate::shuffle::{self, Grouped, GroupingStrategy, ShuffleScratch};
use crate::traits::{Combiner, Mapper, Reducer};

/// Time spent in each stage of one job (in-process execution, not
/// simulated time).
///
/// Two attribution modes exist, flagged by [`StageTimings::overlapped`]:
///
/// * **Barrier mode** (`overlapped == false`, the staged strategy):
///   each field is the *wall-clock* span of that stage's barrier, so
///   [`StageTimings::total`] ≤ the job's wall time.
/// * **Overlapped mode** (`overlapped == true`, the pipelined
///   strategy): stages have no wall-clock extent of their own — a map
///   task can still be mapping while a reduce task runs. Each field is
///   instead the summed *busy time* of that stage's work across all
///   tasks and workers, so [`StageTimings::total`] routinely *exceeds*
///   the job's wall time; `total() / wall` approximates the parallel
///   speedup the job achieved.
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
/// assert!(!t.overlapped, "barrier attribution is the default");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Map stage (user map functions, parallel).
    pub map: Duration,
    /// Combine stage (zero when no combiner is attached).
    pub combine: Duration,
    /// Shuffle stage (routing + bucket transposition; under the
    /// pipelined strategy, routing + [`crate::BucketBoard`] deposits).
    pub shuffle: Duration,
    /// Reduce stage (fused concat/group/reduce, parallel).
    pub reduce: Duration,
    /// `false`: fields are per-stage wall-clock (barrier attribution).
    /// `true`: stages overlapped, fields are per-stage summed busy
    /// time (see the type docs).
    pub overlapped: bool,
}

impl StageTimings {
    /// Sum of all stage times. Bounded by the job's wall time in
    /// barrier attribution; may exceed it in overlapped attribution
    /// (see the type docs).
    pub fn total(&self) -> Duration {
        self.map + self.combine + self.shuffle + self.reduce
    }
}

/// Everything one map task reports besides its pairs.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::MapTaskProfile;
///
/// let p = MapTaskProfile { ops: 100, records: 40, bytes: 480, ..Default::default() };
/// assert_eq!(p.records, 40);
/// assert_eq!(p.local_syncs, 0, "only eager gmap tasks perform partial syncs");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MapTaskProfile {
    /// Abstract ops metered by the task.
    pub ops: u64,
    /// Partial synchronizations performed (eager gmap tasks).
    pub local_syncs: u64,
    /// Input split size.
    pub input_bytes: u64,
    /// Records headed into the shuffle (post-combine).
    pub records: u64,
    /// Bytes headed into the shuffle (post-combine).
    pub bytes: u64,
    /// Records emitted before combining.
    pub precombine_records: u64,
    /// Bytes emitted before combining.
    pub precombine_bytes: u64,
}

/// One map task's output: its intermediate pairs plus meters.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::{MapTaskOutput, MapTaskProfile};
///
/// let out = MapTaskOutput { pairs: vec![(1u32, 2u64)], profile: MapTaskProfile::default() };
/// assert_eq!(out.pairs.len(), 1);
/// ```
#[derive(Debug)]
pub struct MapTaskOutput<K, V> {
    /// Emitted pairs, in emission order.
    pub pairs: Vec<(K, V)>,
    /// The task's meters.
    pub profile: MapTaskProfile,
}

/// Stage 1: runs every map task in parallel on the pool.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::MapStage;
/// use asyncmr_core::prelude::*;
/// use asyncmr_runtime::ThreadPool;
///
/// struct Double;
/// impl Mapper for Double {
///     type Input = u32;
///     type Key = u32;
///     type Value = u64;
///     fn map(&self, _t: usize, x: &u32, ctx: &mut MapContext<u32, u64>) {
///         ctx.emit_intermediate(*x, u64::from(*x) * 2);
///     }
/// }
///
/// let pool = ThreadPool::new(2);
/// let out = MapStage { mapper: &Double }.run(&pool, &[1u32, 2, 3]);
/// assert_eq!(out.len(), 3, "one output per input split");
/// assert_eq!(out[2].pairs, vec![(3, 6)]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MapStage<'a, M> {
    /// The user's map function.
    pub mapper: &'a M,
}

impl<M: Mapper> MapStage<'_, M> {
    /// Executes one map task per input split (order-preserving).
    pub fn run(
        &self,
        pool: &ThreadPool,
        inputs: &[M::Input],
    ) -> Vec<MapTaskOutput<M::Key, M::Value>> {
        let mapper = self.mapper;
        pool.par_map_indexed(inputs, |task, input| {
            let mut ctx: MapContext<M::Key, M::Value> = MapContext::default();
            mapper.map(task, input, &mut ctx);
            let (pairs, meter, records, bytes) = ctx.finish();
            let input_bytes = if meter.input_bytes() > 0 {
                meter.input_bytes()
            } else {
                mapper.input_size_hint(input)
            };
            MapTaskOutput {
                pairs,
                profile: MapTaskProfile {
                    ops: meter.ops(),
                    local_syncs: meter.local_syncs(),
                    input_bytes,
                    records,
                    bytes,
                    precombine_records: records,
                    precombine_bytes: bytes,
                },
            }
        })
    }
}

/// Stage 2: optional map-side combining, applied per task in parallel.
///
/// With no combiner attached this stage is a free pass-through (no
/// pool round-trip, no data movement).
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::{CombineStage, MapTaskOutput, MapTaskProfile};
/// use asyncmr_runtime::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let task = MapTaskOutput { pairs: vec![(1u32, 1u64)], profile: MapTaskProfile::default() };
/// // No combiner: a free pass-through.
/// let out = CombineStage { combiner: None }.run(&pool, vec![task]);
/// assert_eq!(out[0].pairs, vec![(1, 1)]);
/// ```
#[derive(Clone, Copy)]
pub struct CombineStage<'a, K, V> {
    /// The user's combiner, if any.
    pub combiner: Option<&'a dyn Combiner<Key = K, Value = V>>,
}

impl<K, V> std::fmt::Debug for CombineStage<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombineStage").field("combiner", &self.combiner.is_some()).finish()
    }
}

impl<K: Key, V: Value> CombineStage<'_, K, V> {
    /// Combines each task's output independently, updating the
    /// post-combine record/byte meters.
    pub fn run(
        &self,
        pool: &ThreadPool,
        tasks: Vec<MapTaskOutput<K, V>>,
    ) -> Vec<MapTaskOutput<K, V>> {
        let Some(combiner) = self.combiner else {
            return tasks;
        };
        pool.par_map_vec(tasks, |_task, mut out| {
            out.pairs = shuffle::combine_local(out.pairs, |k, vs| combiner.combine(k, vs));
            let (mut records, mut bytes) = (0u64, 0u64);
            for (k, v) in &out.pairs {
                records += 1;
                bytes += k.approx_bytes() + v.approx_bytes();
            }
            out.profile.records = records;
            out.profile.bytes = bytes;
            out
        })
    }
}

/// One reduce task's input: that reducer's buckets, owned, in map-task
/// order.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::ReduceTaskInput;
///
/// let input = ReduceTaskInput {
///     partition: 3,
///     buckets: vec![vec![(7u32, 1u64)], vec![(7, 2)]], // two map tasks emitted
///     records: 2,
/// };
/// assert_eq!(input.buckets.len(), 2);
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct ReduceTaskInput<K, V> {
    /// The reduce partition index this task serves (`0..num_reducers`;
    /// gaps are partitions that received no records).
    pub partition: usize,
    /// Non-empty buckets routed to this partition, in map-task order.
    pub buckets: Vec<Vec<(K, V)>>,
    /// Total records across the buckets.
    pub records: u64,
}

/// Stage 3: the shuffle — parallel routing plus per-reducer ownership
/// transfer of the routed buckets. No element is copied.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::{MapTaskOutput, MapTaskProfile, ShuffleStage};
/// use asyncmr_runtime::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let task = MapTaskOutput {
///     pairs: vec![(1u32, 10u64), (2, 20)],
///     profile: MapTaskProfile::default(),
/// };
/// let (profiles, inputs) = ShuffleStage { num_reducers: 4 }.run(&pool, vec![task]);
/// assert_eq!(profiles.len(), 1);
/// // Only partitions that received records survive.
/// assert_eq!(inputs.iter().map(|i| i.records).sum::<u64>(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShuffleStage {
    /// The shuffle's partition count (see
    /// [`crate::JobOptions::num_reducers`]). Must be ≥ 1 —
    /// [`crate::Engine::run`] clamps zero before composing stages;
    /// direct stage users must do the same.
    pub num_reducers: usize,
}

impl ShuffleStage {
    /// Routes every task's pairs (in parallel), then transposes bucket
    /// handles into per-reducer inputs. Partitions with no records are
    /// dropped here — they would execute nothing and would distort
    /// task-count meters and simulated replay.
    ///
    /// Returns the map task profiles (the pairs are consumed) and the
    /// reduce task inputs in ascending partition order.
    pub fn run<K: Key, V: Value>(
        &self,
        pool: &ThreadPool,
        tasks: Vec<MapTaskOutput<K, V>>,
    ) -> (Vec<MapTaskProfile>, Vec<ReduceTaskInput<K, V>>) {
        /// One task's routed output: its profile plus per-reducer buckets.
        type Routed<K, V> = (MapTaskProfile, Vec<Vec<(K, V)>>);
        debug_assert!(self.num_reducers >= 1, "ShuffleStage requires ≥ 1 partition");
        let reducers = self.num_reducers;
        let num_tasks = tasks.len();
        let routed: Vec<Routed<K, V>> = pool
            .par_map_vec(tasks, |_task, out| (out.profile, shuffle::route(out.pairs, reducers)));

        let mut profiles = Vec::with_capacity(num_tasks);
        let mut inputs: Vec<ReduceTaskInput<K, V>> = (0..reducers)
            .map(|partition| ReduceTaskInput { partition, buckets: Vec::new(), records: 0 })
            .collect();
        for (profile, buckets) in routed {
            profiles.push(profile);
            for (r, bucket) in buckets.into_iter().enumerate() {
                if !bucket.is_empty() {
                    inputs[r].records += bucket.len() as u64;
                    inputs[r].buckets.push(bucket);
                }
            }
        }
        inputs.retain(|input| input.records > 0);
        (profiles, inputs)
    }
}

/// One reduce task's result.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::ReduceTaskOutput;
///
/// let out = ReduceTaskOutput {
///     pairs: vec![(1u32, 30u64)],
///     ops: 2,
///     in_records: 2,
///     out_records: 1,
///     out_bytes: 12,
/// };
/// assert!(out.out_records <= out.in_records, "reduce aggregates");
/// ```
#[derive(Debug)]
pub struct ReduceTaskOutput<K, O> {
    /// Output pairs, in emission order.
    pub pairs: Vec<(K, O)>,
    /// Abstract ops metered by the reduce calls.
    pub ops: u64,
    /// Records this task consumed.
    pub in_records: u64,
    /// Records emitted.
    pub out_records: u64,
    /// Bytes emitted.
    pub out_bytes: u64,
}

/// Stage 4: runs the reduce tasks in parallel, each fusing move-based
/// concatenation, sort-based grouping, and the user's reduce calls.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::{ReduceStage, ReduceTaskInput, ScratchArena};
/// use asyncmr_core::prelude::*;
/// use asyncmr_runtime::ThreadPool;
///
/// struct Sum;
/// impl Reducer for Sum {
///     type Key = u32;
///     type ValueIn = u64;
///     type Out = u64;
///     fn reduce(&self, k: &u32, vs: &[u64], ctx: &mut ReduceContext<u32, u64>) {
///         ctx.emit(*k, vs.iter().sum());
///     }
/// }
///
/// let pool = ThreadPool::new(2);
/// let arena = ScratchArena::new();
/// let input = ReduceTaskInput { partition: 0, buckets: vec![vec![(1, 2), (1, 3)]], records: 2 };
/// let stage = ReduceStage { reducer: &Sum, grouping: Default::default() };
/// let out = stage.run(&pool, vec![input], &arena);
/// assert_eq!(out[0].pairs, vec![(1, 5)]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ReduceStage<'a, R> {
    /// The user's reduce function.
    pub reducer: &'a R,
    /// How each task's input is grouped (sort or radix — byte-identical
    /// output; see [`GroupingStrategy`]).
    pub grouping: GroupingStrategy,
}

impl<R: Reducer> ReduceStage<'_, R> {
    /// Executes the reduce tasks (order-preserving: output pair order
    /// is ascending partition, then ascending key, then deterministic
    /// value order).
    pub fn run(
        &self,
        pool: &ThreadPool,
        inputs: Vec<ReduceTaskInput<R::Key, R::ValueIn>>,
        arena: &ScratchArena,
    ) -> Vec<ReduceTaskOutput<R::Key, R::Out>> {
        let reducer = self.reducer;
        let grouping = self.grouping;
        pool.par_map_vec(inputs, |_i, task| {
            let mut scratch: ShuffleScratch<R::Key, R::ValueIn> = arena.take();
            let pairs = shuffle::concat_buckets(task.buckets, &mut scratch);
            let in_records = pairs.len() as u64;
            let grouped = Grouped::from_pairs_using(grouping, pairs, &mut scratch);
            let mut ctx: ReduceContext<R::Key, R::Out> = ReduceContext::default();
            grouped.for_each(|g| reducer.reduce(g.key, g.values, &mut ctx));
            grouped.recycle_into(&mut scratch);
            arena.put(scratch);
            let (pairs, meter, out_records, out_bytes) = ctx.finish();
            ReduceTaskOutput { pairs, ops: meter.ops(), in_records, out_records, out_bytes }
        })
    }
}

/// Builds the simulator task specs from stage outputs.
pub(crate) fn task_specs<K: Key, O: Value>(
    profiles: &[MapTaskProfile],
    reduced: &[ReduceTaskOutput<K, O>],
) -> (Vec<MapTaskSpec>, Vec<ReduceTaskSpec>) {
    let map_specs = profiles
        .iter()
        .map(|p| MapTaskSpec::new(p.input_bytes, p.ops, p.bytes).with_records(p.records))
        .collect();
    let reduce_specs = reduced
        .iter()
        // Record-handling framework work folds into reduce ops.
        .map(|r| ReduceTaskSpec::new(r.ops + r.in_records, r.out_bytes))
        .collect();
    (map_specs, reduce_specs)
}

/// A typed shelf of reusable scratch buffers, shared by the parallel
/// reduce tasks of every job an engine runs.
///
/// Keyed by concrete type, so one engine can interleave jobs with
/// different key/value types (as the eager/general app pairs do)
/// without cross-contamination. Bounded per type.
///
/// # The `take` contract
///
/// [`ScratchArena::take`] returns a shelved value **only if one of
/// exactly the requested type `T` was previously
/// [`put`](ScratchArena::put)**; otherwise it *silently mints* a fresh
/// `T::default()`. That is the intended cold-start path — the first
/// job of each shape warms the arena — but it means a caller that
/// requests the wrong type gets no reuse and no error, while the
/// differently-typed shelf sits untouched. When reuse must be
/// observable (tests, capacity accounting), use
/// [`ScratchArena::try_take`], which returns `None` instead of minting.
/// Mismatched requests never consume or corrupt another type's shelf.
///
/// # Example
///
/// ```
/// use asyncmr_core::plan::ScratchArena;
///
/// let arena = ScratchArena::new();
/// let mut buf: Vec<u8> = arena.take(); // cold: fresh default
/// buf.reserve(512);
/// arena.put(buf);
///
/// // A *different* type cannot see that buffer — explicit via try_take:
/// assert!(arena.try_take::<Vec<u16>>().is_none());
///
/// // The matching type gets the warm buffer back.
/// let warm: Vec<u8> = arena.take();
/// assert!(warm.capacity() >= 512);
/// ```
#[derive(Debug, Default)]
pub struct ScratchArena {
    shelves: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
}

/// Per-type cap on the *number* of shelved buffers — enough for every
/// pool thread to hold one plus headroom. Note this bounds count, not
/// bytes: shelved buffers keep their capacity on purpose (iterative
/// drivers rerun same-shaped jobs, and warm buffers are the point), so
/// an engine that ran one huge job retains up to `reduce_tasks` big
/// buffers until dropped. Create a fresh engine to release them.
const SCRATCH_SHELF_CAP: usize = 64;

impl ScratchArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a scratch value of type `T`, or **silently mints** a
    /// `T::default()` when none of that exact type is shelved — see
    /// [the type docs](ScratchArena#the-take-contract) for the full
    /// contract and [`ScratchArena::try_take`] for the non-minting
    /// variant.
    pub fn take<T: Any + Send + Default>(&self) -> T {
        self.try_take().unwrap_or_default()
    }

    /// Checks out a shelved scratch value of type `T`, or `None` when
    /// none of that exact type is available. Never mints a default and
    /// never touches a differently-typed shelf.
    pub fn try_take<T: Any + Send>(&self) -> Option<T> {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves
            .get_mut(&TypeId::of::<T>())
            .and_then(Vec::pop)
            .map(|boxed| *boxed.downcast::<T>().expect("shelf is keyed by TypeId"))
    }

    /// Returns a scratch value for later reuse (dropped if the shelf
    /// for its type is full).
    pub fn put<T: Any + Send>(&self, value: T) {
        let mut shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        let shelf = shelves.entry(TypeId::of::<T>()).or_default();
        if shelf.len() < SCRATCH_SHELF_CAP {
            shelf.push(Box::new(value));
        }
    }

    /// Total buffers currently shelved, across all types (diagnostic).
    pub fn shelved(&self) -> usize {
        let shelves = self.shelves.lock().unwrap_or_else(|e| e.into_inner());
        shelves.values().map(Vec::len).sum()
    }
}

/// The pipelined execution strategy: no whole-stage barriers inside a
/// job.
///
/// Each map task runs **map → combine → route → deposit** as one fused
/// pool task (data stays cache-hot, no inter-stage pool round-trips),
/// streaming its routed buckets into a [`crate::BucketBoard`] as it
/// finishes. The completion-driven scheduler
/// ([`asyncmr_runtime::ThreadPool::par_pipeline`]) spawns each reduce
/// task the moment its partition's buckets are complete — the last map
/// task to deliver releases the reduces, not a pool-wide barrier. The
/// per-reduce-task work (move concat, sort-based grouping, scratch
/// recycling) is identical to [`ReduceStage`], so output pairs and
/// [`crate::JobMeter`] are byte-identical to the staged and reference
/// strategies; only [`StageTimings`] switches to overlapped
/// attribution.
pub mod pipelined {
    use std::sync::Mutex as SlotMutex;
    use std::time::Instant;

    use asyncmr_runtime::FollowUp;

    use super::*;
    use crate::bucket_board::BucketBoard;
    use crate::engine::{JobMeter, JobOptions};

    /// What a pipelined execution produces: the same pairs, meters, and
    /// simulator specs as the other strategies, plus overlapped
    /// [`StageTimings`].
    ///
    /// # Example
    ///
    /// ```
    /// use asyncmr_core::plan::{pipelined, ScratchArena};
    /// use asyncmr_core::prelude::*;
    /// use asyncmr_runtime::ThreadPool;
    ///
    /// struct Echo;
    /// impl Mapper for Echo {
    ///     type Input = u32;
    ///     type Key = u32;
    ///     type Value = u64;
    ///     fn map(&self, _t: usize, x: &u32, ctx: &mut MapContext<u32, u64>) {
    ///         ctx.emit_intermediate(*x % 2, u64::from(*x));
    ///     }
    /// }
    /// struct Sum;
    /// impl Reducer for Sum {
    ///     type Key = u32;
    ///     type ValueIn = u64;
    ///     type Out = u64;
    ///     fn reduce(&self, k: &u32, vs: &[u64], ctx: &mut ReduceContext<u32, u64>) {
    ///         ctx.emit(*k, vs.iter().sum());
    ///     }
    /// }
    ///
    /// let pool = ThreadPool::new(2);
    /// let arena = ScratchArena::new();
    /// let opts = JobOptions::with_reducers(2);
    /// let run = pipelined::execute(&pool, &[1u32, 2, 3, 4], &Echo, &Sum, &opts, &arena);
    /// let total: u64 = run.pairs.iter().map(|(_, v)| v).sum();
    /// assert_eq!(total, 10);
    /// assert!(run.stages.overlapped, "pipelined timings are busy-time attributed");
    /// ```
    #[derive(Debug)]
    pub struct PipelinedRun<K, O> {
        /// Output pairs, in (reduce partition, key) order — identical
        /// to the staged path by construction and by test.
        pub pairs: Vec<(K, O)>,
        /// Aggregate meters (identical to the staged path).
        pub meter: JobMeter,
        /// Overlapped-attribution stage timings (see
        /// [`StageTimings::overlapped`]).
        pub stages: StageTimings,
        pub(crate) map_specs: Vec<MapTaskSpec>,
        pub(crate) reduce_specs: Vec<ReduceTaskSpec>,
    }

    /// Ready partitions carrying fewer records than this are batched
    /// into a single reduce follow-up: below it, the injector
    /// round-trip and wakeup for a dedicated pool task cost more than
    /// the reduce work itself. Large partitions still get their own
    /// task, so parallel reduce capacity is unaffected where it
    /// matters.
    const MIN_RECORDS_PER_REDUCE_SPAWN: u64 = 1024;

    /// Everything one fused map task reports to the scheduler.
    struct MapDone {
        profile: MapTaskProfile,
        /// Partitions whose buckets became complete with this deposit.
        completed: Vec<usize>,
        map_busy: Duration,
        combine_busy: Duration,
        route_busy: Duration,
    }

    /// One reduce output slot, indexed by partition.
    type Slot<K, O> = SlotMutex<Option<(ReduceTaskOutput<K, O>, Duration)>>;

    /// Builds the follow-up task that reduces `group` (one or more
    /// completed partitions) and parks each result in its partition's
    /// slot. Per-partition semantics are identical to [`ReduceStage`].
    fn reduce_group<'a, R: Reducer>(
        group: Vec<ReduceTaskInput<R::Key, R::ValueIn>>,
        reducer: &'a R,
        grouping: GroupingStrategy,
        arena: &'a ScratchArena,
        reduce_slots: &'a [Slot<R::Key, R::Out>],
    ) -> FollowUp<'a> {
        Box::new(move || {
            for task_input in group {
                let t = Instant::now();
                let mut scratch: ShuffleScratch<R::Key, R::ValueIn> = arena.take();
                let partition = task_input.partition;
                let pairs = shuffle::concat_buckets(task_input.buckets, &mut scratch);
                let in_records = pairs.len() as u64;
                let grouped = Grouped::from_pairs_using(grouping, pairs, &mut scratch);
                let mut ctx: ReduceContext<R::Key, R::Out> = ReduceContext::default();
                grouped.for_each(|g| reducer.reduce(g.key, g.values, &mut ctx));
                grouped.recycle_into(&mut scratch);
                arena.put(scratch);
                let (pairs, meter, out_records, out_bytes) = ctx.finish();
                let out = ReduceTaskOutput {
                    pairs,
                    ops: meter.ops(),
                    in_records,
                    out_records,
                    out_bytes,
                };
                let mut slot = reduce_slots[partition].lock().unwrap_or_else(|e| e.into_inner());
                *slot = Some((out, t.elapsed()));
            }
        })
    }

    /// Executes one job with eager reduce scheduling (see the [module
    /// docs](self)).
    pub fn execute<M, R>(
        pool: &ThreadPool,
        inputs: &[M::Input],
        mapper: &M,
        reducer: &R,
        opts: &JobOptions<'_, M::Key, M::Value>,
        arena: &ScratchArena,
    ) -> PipelinedRun<R::Key, R::Out>
    where
        M: Mapper,
        R: Reducer<Key = M::Key, ValueIn = M::Value>,
    {
        debug_assert!(opts.num_reducers >= 1, "Engine::run clamps num_reducers before this");
        let reducers = opts.num_reducers;
        let num_tasks = inputs.len();
        let combiner = opts.combiner;
        let grouping = opts.grouping;
        let board: BucketBoard<M::Key, M::Value> = BucketBoard::new(reducers, num_tasks);
        let board = &board;
        // Reduce outputs land here indexed by partition, so the final
        // concatenation is in ascending-partition order no matter when
        // each reduce task ran.
        let reduce_slots: Vec<Slot<R::Key, R::Out>> =
            (0..reducers).map(|_| SlotMutex::new(None)).collect();
        let reduce_slots: &[Slot<R::Key, R::Out>] = &reduce_slots;

        let mut profiles: Vec<MapTaskProfile> = vec![MapTaskProfile::default(); num_tasks];
        let mut stages = StageTimings { overlapped: true, ..StageTimings::default() };

        pool.par_pipeline(
            inputs.iter().collect::<Vec<&M::Input>>(),
            // Phase 1, on the pool: one fused map→combine→route→deposit
            // task per split.
            move |task, input| {
                let t = Instant::now();
                let mut ctx: MapContext<M::Key, M::Value> = MapContext::default();
                mapper.map(task, input, &mut ctx);
                let (mut pairs, meter, precombine_records, precombine_bytes) = ctx.finish();
                let map_busy = t.elapsed();

                let t = Instant::now();
                let (records, bytes) = if let Some(combiner) = combiner {
                    pairs = shuffle::combine_local(pairs, |k, vs| combiner.combine(k, vs));
                    let (mut records, mut bytes) = (0u64, 0u64);
                    for (k, v) in &pairs {
                        records += 1;
                        bytes += k.approx_bytes() + v.approx_bytes();
                    }
                    (records, bytes)
                } else {
                    (precombine_records, precombine_bytes)
                };
                let combine_busy = t.elapsed();

                let t = Instant::now();
                let completed = board.deposit(task, shuffle::route(pairs, reducers));
                let route_busy = t.elapsed();

                let input_bytes = if meter.input_bytes() > 0 {
                    meter.input_bytes()
                } else {
                    mapper.input_size_hint(input)
                };
                MapDone {
                    profile: MapTaskProfile {
                        ops: meter.ops(),
                        local_syncs: meter.local_syncs(),
                        input_bytes,
                        records,
                        bytes,
                        precombine_records,
                        precombine_bytes,
                    },
                    completed,
                    map_busy,
                    combine_busy,
                    route_busy,
                }
            },
            // Scheduler, on the calling thread: record the profile and
            // spawn reduce work for every partition this completion
            // released. Partitions with few records are *batched* into
            // one follow-up — the scheduler knows each partition's
            // record count at spawn time, so it can keep per-task
            // scheduling overhead below the work it carries (a
            // cost-aware choice the barrier path cannot make: its
            // reduce stage chunks blindly by task count).
            |task, done| {
                profiles[task] = done.profile;
                stages.map += done.map_busy;
                stages.combine += done.combine_busy;
                stages.shuffle += done.route_busy;
                let mut follow_ups: Vec<FollowUp<'_>> = Vec::new();
                let mut batch: Vec<ReduceTaskInput<R::Key, R::ValueIn>> = Vec::new();
                let mut batch_records = 0u64;
                for partition in done.completed {
                    let Some(task_input) = board.take_ready(partition) else {
                        continue; // zero-record partition: skipped
                    };
                    batch_records += task_input.records;
                    batch.push(task_input);
                    if batch_records >= MIN_RECORDS_PER_REDUCE_SPAWN {
                        follow_ups.push(reduce_group(
                            std::mem::take(&mut batch),
                            reducer,
                            grouping,
                            arena,
                            reduce_slots,
                        ));
                        batch_records = 0;
                    }
                }
                if !batch.is_empty() {
                    follow_ups.push(reduce_group(batch, reducer, grouping, arena, reduce_slots));
                }
                follow_ups
            },
        );

        // Assembly (caller thread, pipeline drained): identical meter
        // and ordering semantics to the staged path.
        let mut meter = JobMeter { map_tasks: num_tasks, ..JobMeter::default() };
        for p in &profiles {
            meter.map_ops += p.ops;
            meter.local_syncs += p.local_syncs;
            meter.input_bytes += p.input_bytes;
            meter.shuffle_records += p.records;
            meter.shuffle_bytes += p.bytes;
            meter.precombine_records += p.precombine_records;
            meter.precombine_bytes += p.precombine_bytes;
        }
        let mut reduced = Vec::new();
        for slot in reduce_slots {
            let taken = slot.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some((out, busy)) = taken {
                stages.reduce += busy;
                reduced.push(out);
            }
        }
        meter.reduce_tasks = reduced.len();
        for r in &reduced {
            meter.reduce_ops += r.ops;
            meter.output_records += r.out_records;
            meter.output_bytes += r.out_bytes;
        }
        let (map_specs, reduce_specs) = task_specs(&profiles, &reduced);
        let mut pairs = Vec::new();
        for r in reduced {
            pairs.extend(r.pairs);
        }
        PipelinedRun { pairs, meter, stages, map_specs, reduce_specs }
    }
}

/// The original execution strategy, kept for tests and benchmarks.
pub mod reference {
    use super::*;
    use crate::engine::{JobMeter, JobOptions};

    /// What a reference execution produces (pairs plus the same meters
    /// and simulator specs the staged path reports).
    ///
    /// # Example
    ///
    /// ```
    /// use asyncmr_core::plan::reference;
    /// use asyncmr_core::prelude::*;
    /// use asyncmr_runtime::ThreadPool;
    ///
    /// struct Echo;
    /// impl Mapper for Echo {
    ///     type Input = u32;
    ///     type Key = u32;
    ///     type Value = u64;
    ///     fn map(&self, _t: usize, x: &u32, ctx: &mut MapContext<u32, u64>) {
    ///         ctx.emit_intermediate(*x % 2, u64::from(*x));
    ///     }
    /// }
    /// struct Sum;
    /// impl Reducer for Sum {
    ///     type Key = u32;
    ///     type ValueIn = u64;
    ///     type Out = u64;
    ///     fn reduce(&self, k: &u32, vs: &[u64], ctx: &mut ReduceContext<u32, u64>) {
    ///         ctx.emit(*k, vs.iter().sum());
    ///     }
    /// }
    ///
    /// let pool = ThreadPool::new(2);
    /// let opts = JobOptions::with_reducers(2);
    /// let run = reference::execute(&pool, &[1u32, 2, 3, 4], &Echo, &Sum, &opts);
    /// let total: u64 = run.pairs.iter().map(|(_, v)| v).sum();
    /// assert_eq!(total, 10);
    /// ```
    #[derive(Debug)]
    pub struct ReferenceRun<K, O> {
        /// Output pairs, in (reducer index, key) order.
        pub pairs: Vec<(K, O)>,
        /// Aggregate meters (old semantics: every reduce partition
        /// counts as a task, empty or not).
        pub meter: JobMeter,
        pub(crate) map_specs: Vec<MapTaskSpec>,
        pub(crate) reduce_specs: Vec<ReduceTaskSpec>,
    }

    /// Executes one job the way the pre-staged engine did: parallel
    /// map + combine + route, **sequential** bucket concatenation, and
    /// a parallel reduce phase in which every reduce task `clone()`s
    /// its input and groups it through a `BTreeMap`.
    ///
    /// Output pairs are byte-identical to the staged path by
    /// construction; the staged path must prove it (see the
    /// `stage_equivalence` integration tests).
    pub fn execute<M, R>(
        pool: &ThreadPool,
        inputs: &[M::Input],
        mapper: &M,
        reducer: &R,
        opts: &JobOptions<'_, M::Key, M::Value>,
    ) -> ReferenceRun<R::Key, R::Out>
    where
        M: Mapper,
        R: Reducer<Key = M::Key, ValueIn = M::Value>,
    {
        debug_assert!(opts.num_reducers >= 1, "Engine::run clamps num_reducers before this");
        let reducers = opts.num_reducers;

        struct MapOut<K, V> {
            buckets: Vec<Vec<(K, V)>>,
            profile: MapTaskProfile,
        }
        let map_outs: Vec<MapOut<M::Key, M::Value>> =
            pool.par_map_indexed(inputs, |task, input| {
                let mut ctx: MapContext<M::Key, M::Value> = MapContext::default();
                mapper.map(task, input, &mut ctx);
                let (mut pairs, meter, precombine_records, precombine_bytes) = ctx.finish();
                if let Some(combiner) = opts.combiner {
                    pairs = shuffle::combine_local(pairs, |k, vs| combiner.combine(k, vs));
                }
                let (mut records, mut bytes) = (0u64, 0u64);
                for (k, v) in &pairs {
                    records += 1;
                    bytes += k.approx_bytes() + v.approx_bytes();
                }
                let input_bytes = if meter.input_bytes() > 0 {
                    meter.input_bytes()
                } else {
                    mapper.input_size_hint(input)
                };
                MapOut {
                    buckets: shuffle::route(pairs, reducers),
                    profile: MapTaskProfile {
                        ops: meter.ops(),
                        local_syncs: meter.local_syncs(),
                        input_bytes,
                        records,
                        bytes,
                        precombine_records,
                        precombine_bytes,
                    },
                }
            });

        // Sequential, single-threaded concatenation (the old barrier).
        let mut reduce_inputs: Vec<Vec<(M::Key, M::Value)>> =
            (0..reducers).map(|_| Vec::new()).collect();
        let mut meter =
            JobMeter { map_tasks: inputs.len(), reduce_tasks: reducers, ..JobMeter::default() };
        let mut map_specs = Vec::with_capacity(map_outs.len());
        for mut out in map_outs {
            let p = out.profile;
            meter.map_ops += p.ops;
            meter.local_syncs += p.local_syncs;
            meter.input_bytes += p.input_bytes;
            meter.shuffle_records += p.records;
            meter.shuffle_bytes += p.bytes;
            meter.precombine_records += p.precombine_records;
            meter.precombine_bytes += p.precombine_bytes;
            map_specs.push(MapTaskSpec::new(p.input_bytes, p.ops, p.bytes).with_records(p.records));
            for (r, bucket) in out.buckets.drain(..).enumerate() {
                reduce_inputs[r].extend(bucket);
            }
        }

        struct ReduceOut<K, O> {
            pairs: Vec<(K, O)>,
            ops: u64,
            in_records: u64,
            out_bytes: u64,
            out_records: u64,
        }
        let reduce_outs: Vec<ReduceOut<R::Key, R::Out>> = pool.par_map(&reduce_inputs, |input| {
            let mut ctx: ReduceContext<R::Key, R::Out> = ReduceContext::default();
            let in_records = input.len() as u64;
            // The allocation-heavy path under benchmark: full input
            // clone, then per-key Vec<V> groups via BTreeMap.
            let grouped = shuffle::group(input.clone());
            for (k, values) in &grouped {
                reducer.reduce(k, values, &mut ctx);
            }
            let (pairs, rmeter, out_records, out_bytes) = ctx.finish();
            ReduceOut { pairs, ops: rmeter.ops(), in_records, out_records, out_bytes }
        });

        let mut pairs = Vec::new();
        let mut reduce_specs = Vec::with_capacity(reduce_outs.len());
        for out in reduce_outs {
            meter.reduce_ops += out.ops;
            meter.output_records += out.out_records;
            meter.output_bytes += out.out_bytes;
            reduce_specs.push(ReduceTaskSpec::new(out.ops + out.in_records, out.out_bytes));
            pairs.extend(out.pairs);
        }

        ReferenceRun { pairs, meter, map_specs, reduce_specs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn stages_compose_to_a_correct_job() {
        let pool = ThreadPool::new(4);
        let inputs = splits();
        let arena = ScratchArena::new();
        let map_out = MapStage { mapper: &ModMapper }.run(&pool, &inputs);
        assert_eq!(map_out.len(), 4);
        let combined = CombineStage { combiner: None }.run(&pool, map_out);
        let (profiles, shuffled) = ShuffleStage { num_reducers: 3 }.run(&pool, combined);
        assert_eq!(profiles.len(), 4);
        assert!(shuffled.len() <= 3);
        let stage = ReduceStage { reducer: &SumReducer, grouping: GroupingStrategy::Sort };
        let reduced = stage.run(&pool, shuffled, &arena);
        let total: u64 = reduced.iter().flat_map(|r| r.pairs.iter().map(|(_, v)| v)).sum();
        let expected: u64 = (0..200u64).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn shuffle_stage_skips_empty_partitions() {
        let pool = ThreadPool::new(2);
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
        let inputs = vec![1u32, 2, 3];
        let map_out = MapStage { mapper: &OneKey }.run(&pool, &inputs);
        let (_, shuffled) = ShuffleStage { num_reducers: 16 }.run(&pool, map_out);
        assert_eq!(shuffled.len(), 1, "only the populated partition survives");
        assert_eq!(shuffled[0].records, 3);
        assert_eq!(shuffled[0].buckets.len(), 3, "one bucket per emitting map task");
    }

    #[test]
    fn scratch_arena_round_trips_by_type() {
        let arena = ScratchArena::new();
        let mut s: ShuffleScratch<u32, u64> = arena.take();
        s.pairs.reserve(1024);
        let want = s.pairs.capacity();
        arena.put(s);
        assert_eq!(arena.shelved(), 1);
        // Different type: separate shelf, fresh default.
        let other: ShuffleScratch<u64, u64> = arena.take();
        assert_eq!(other.capacity(), 0);
        // Same type: the shelved buffer comes back, capacity intact.
        let again: ShuffleScratch<u32, u64> = arena.take();
        assert!(again.pairs.capacity() >= want);
        assert_eq!(arena.shelved(), 0);
    }

    #[test]
    fn scratch_arena_mismatched_take_mints_default_without_touching_other_shelves() {
        let arena = ScratchArena::new();
        let mut s: ShuffleScratch<u32, u64> = arena.take();
        s.pairs.reserve(1024);
        let want = s.pairs.capacity();
        arena.put(s);
        assert_eq!(arena.shelved(), 1);

        // Regression (documented contract): a request for a *different*
        // type silently mints a fresh default...
        let minted: ShuffleScratch<u64, u32> = arena.take();
        assert_eq!(minted.capacity(), 0, "mismatched take mints a cold default");
        // ...and must neither consume nor corrupt the other shelf.
        assert_eq!(arena.shelved(), 1, "mismatched take must not consume the shelf");
        assert!(arena.try_take::<ShuffleScratch<u64, u32>>().is_none());
        let original: ShuffleScratch<u32, u64> = arena.try_take().expect("still shelved");
        assert!(original.pairs.capacity() >= want, "original buffer survives intact");
    }

    #[test]
    fn scratch_arena_is_bounded() {
        let arena = ScratchArena::new();
        for _ in 0..(SCRATCH_SHELF_CAP + 10) {
            arena.put::<ShuffleScratch<u32, u32>>(ShuffleScratch::default());
        }
        assert_eq!(arena.shelved(), SCRATCH_SHELF_CAP);
    }

    #[test]
    fn pipelined_matches_reference_pairs_and_meter() {
        let pool = ThreadPool::new(3);
        let inputs = splits();
        let opts = crate::engine::JobOptions::with_reducers(5);
        let reference = reference::execute(&pool, &inputs, &ModMapper, &SumReducer, &opts);

        let arena = ScratchArena::new();
        let run = pipelined::execute(&pool, &inputs, &ModMapper, &SumReducer, &opts, &arena);
        assert_eq!(run.pairs, reference.pairs, "pipelined must match the reference byte-for-byte");
        assert!(run.stages.overlapped);
        assert!(run.stages.map > Duration::ZERO);
        // The reference meters every partition as a task (old
        // semantics); everything else must agree.
        assert_eq!(run.meter.map_ops, reference.meter.map_ops);
        assert_eq!(run.meter.shuffle_records, reference.meter.shuffle_records);
        assert_eq!(run.meter.output_records, reference.meter.output_records);
    }

    #[test]
    fn pipelined_recycles_scratch_and_skips_empty_partitions() {
        let pool = ThreadPool::new(2);
        let inputs = splits();
        let arena = ScratchArena::new();
        // 64 partitions over 8 distinct keys: most partitions are empty.
        let opts = crate::engine::JobOptions::with_reducers(64);
        let run = pipelined::execute(&pool, &inputs, &ModMapper, &SumReducer, &opts, &arena);
        assert!(run.meter.reduce_tasks <= 8, "empty partitions must be skipped");
        assert!(arena.shelved() > 0, "reduce scratch must be shelved for the next job");
    }

    #[test]
    fn reference_and_stages_agree() {
        let pool = ThreadPool::new(3);
        let inputs = splits();
        let opts = crate::engine::JobOptions::with_reducers(5);
        let reference = reference::execute(&pool, &inputs, &ModMapper, &SumReducer, &opts);

        let arena = ScratchArena::new();
        let map_out = MapStage { mapper: &ModMapper }.run(&pool, &inputs);
        let combined = CombineStage { combiner: None }.run(&pool, map_out);
        let (_, shuffled) = ShuffleStage { num_reducers: 5 }.run(&pool, combined);
        let stage = ReduceStage { reducer: &SumReducer, grouping: GroupingStrategy::Radix };
        let reduced = stage.run(&pool, shuffled, &arena);
        let staged: Vec<(u32, u64)> = reduced.into_iter().flat_map(|r| r.pairs).collect();
        assert_eq!(staged, reference.pairs, "stage composition must match the reference");
    }
}
