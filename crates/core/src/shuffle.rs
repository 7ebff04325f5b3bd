//! The shuffle: routing, grouping, and deterministic ordering.
//!
//! Hadoop's shuffle hashes keys to reducers, then sorts each reducer's
//! input by key so `reduce` sees contiguous groups. We reproduce the
//! same contract: [`route`] splits each map task's output by stable
//! key hash, and grouping produces key groups in ascending key order
//! with values ordered by (map task, emission index) — fully
//! deterministic.
//!
//! Both halves **remember**. An iterative driver issues the same job
//! hundreds of times, and a graph partition's edges do not move: map
//! task *t* emits, and reduce partition *r* receives, the same key
//! sequence job after job — only the values change. So a record is
//! touched **once** on each side, and its key is verified once a job:
//!
//! * A [`RoutePlan`] keeps one map task's key sequence — split by
//!   target partition, as shared immutable handles — with each
//!   emission's partition. The task's [`RouteSink`] **verifies at the
//!   point of emission**: one equality test per record against the
//!   plan's next key, in every build, never skipped, sampled or
//!   digested; on equality the *bare value* is pushed onto its
//!   partition's exactly-sized bucket and the emitted key is dropped.
//!   No pair is buffered, nothing is hashed, no key moves.
//! * A [`Bucket`] therefore reaches the reduce side as values beside
//!   the handle on the key sequence they were verified against (or
//!   recorded with), or — in a job with a single partition, which
//!   consults no route plan — as owned pairs.
//! * A [`GroupPlan`] keeps one reduce input's key sequence — as those
//!   very handles — with each record's slot in the grouped values and
//!   the group boundaries. [`group_planned`] **recognises** its input
//!   bucket by bucket: a bucket that carries the handle the plan holds
//!   *is* the remembered sequence (the allocation cannot hold other
//!   keys while the plan keeps it alive, and the map side compared
//!   every key against it this job), any other bucket is compared
//!   element by element. On a hit the values scatter to their slots and
//!   the reducer walks the recorded boundaries over the plan's keys:
//!   no hash, no sort, no concatenation, no key compared, moved or
//!   cloned.
//!
//! A miss is only slower, never different, and it **records**: a sink
//! whose task emits a key the plan does not expect, runs past the plan,
//! stops short of it or has none hands the verified prefix back as
//! pairs (the plan's keys, moved; the values walked back out of their
//! buckets) and records a new plan from the task's pairs; a reduce input
//! the plan does not recognise records a new plan the way the job's
//! [`GroupingStrategy`] names. An iterative driver issues the same job
//! every global iteration, so a plan that misses is needed again next
//! job: job 1 of a shape records every plan, and from job 2 on every
//! reduce input is known by identity. [`PlanOutcome`] says which of the
//! two happened. The engine keeps the plans per map task and per reduce
//! partition in its [`crate::plan::PlanStore`].
//!
//! Grouping implementations:
//!
//! * `GroupPlan::of_chunks` finds every grouping permutation in the
//!   crate — a reduce input's plan on a miss and the ledger probe's
//!   grouping — the way the
//!   [`GroupingStrategy`] names; [`group_planned`] and [`Grouped`]
//!   scatter values through the plan it records.
//! * [`Grouped`] — the **unplanned** grouping, which the ledger's
//!   probe runs: a
//!   [`GroupPlan`] recorded from one input alone (its keys moved into
//!   the plan, none cloned) beside the values scattered through it, read
//!   as contiguous [`GroupView`] slices. No per-key `Vec` allocations,
//!   no value clones, and the value buffer is recyclable through
//!   [`ShuffleScratch`]. It pays what a reduce task pays on a plan miss.
//! * [`group`] — the original `BTreeMap` formulation, **kept as the
//!   behavioral reference**: the engine's oracle groups with it, and
//!   the property tests hold the others to it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::hash::{reducer_for, StableHashMap};
use crate::kv::{Key, Value};

/// How a grouping permutation is *found* when it has to be computed —
/// by `GroupPlan::of_chunks`, the one function that computes them: on
/// every [`Grouped::from_pairs_using`] call, and by a job's reduce tasks
/// only when their [`GroupPlan`] does not match (they then record a new
/// plan this way) — a reduce input whose key sequence repeats is
/// scattered through its remembered plan whichever member the job
/// names.
///
/// Both strategies find the **same** permutation (keys ascending,
/// values in concatenation order within each key) — pinned by the
/// radix/sort equivalence tests. They differ only in how it is
/// computed:
///
/// * [`GroupingStrategy::Sort`] — a stable sort of the `n` keys'
///   indices: `O(n log n)` comparisons, the right default when keys are
///   mostly distinct.
/// * [`GroupingStrategy::Radix`] — hash-grouping: assign each record a
///   first-seen group id (one stable-hash lookup per record, no key
///   cloned), sort only the `g` *distinct* keys, then count every
///   record straight to its final slot: `O(n + g log g)`. Wins when
///   duplicate keys dominate (`g ≪ n`), which is exactly the shape of
///   iterative graph workloads where many edges target the same vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// A stable sort of all keys' indices (the default).
    #[default]
    Sort,
    /// First-seen group ids + distinct-key sort + counting scatter.
    Radix,
}

/// Splits one map task's output into per-reducer buckets: the oracle's
/// routing, and the reference a [`RouteSink`] is held against.
///
/// Exactly-sized: a counting pass first computes every pair's target
/// partition, so each bucket is allocated once at its final capacity
/// (empty buckets allocate nothing). With a single reducer the input
/// vector is returned as-is (pure ownership transfer). Output is
/// byte-identical to the naive scatter in both cases: same buckets,
/// same order.
pub fn route<K: Key, V: Value>(pairs: Vec<(K, V)>, reducers: usize) -> Vec<Vec<(K, V)>> {
    assert!(reducers > 0, "need at least one reducer");
    if reducers == 1 {
        return vec![pairs];
    }
    let mut counts = vec![0usize; reducers];
    let mut targets: Vec<u32> = Vec::with_capacity(pairs.len());
    for (k, _) in &pairs {
        let r = reducer_for(k, reducers);
        targets.push(r as u32);
        counts[r] += 1;
    }
    let mut buckets: Vec<Vec<(K, V)>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (pair, &r) in pairs.into_iter().zip(&targets) {
        buckets[r as usize].push(pair);
    }
    buckets
}

/// Narrows a record count, record index or partition index to the
/// `u32` plans and group ids store it as.
///
/// # Panics
///
/// Panics when `n` does not fit — never truncates.
fn index_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| panic!("the shuffle indexes with u32, got {n}"))
}

/// What a planned routing or grouping did with its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOutcome {
    /// The input repeated the remembered key sequence: records moved to
    /// their remembered places.
    Hit,
    /// No match (first sight, or the keys changed), and a new plan was
    /// recorded from this input.
    Recorded,
}

/// One map task's records for one reduce partition, in emission order:
/// what the map side hands the reduce side.
///
/// Either owned pairs — a single partition's, which consults no plan —
/// or the **bare values** beside a shared, immutable handle on the
/// bucket's key sequence, which the task's [`RoutePlan`] holds too:
/// every key the task emitted was verified against it, or it was just
/// recorded from them. The handle is what lets a reduce
/// partition recognise its input by identity ([`group_planned`]): the
/// same allocation cannot come to hold other keys while a plan keeps it
/// alive.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket<K, V>(Records<K, V>);

#[derive(Debug, Clone, PartialEq)]
enum Records<K, V> {
    Pairs(Vec<(K, V)>),
    /// `values[i]` belongs to `keys[i]`; the lengths are equal.
    Planned {
        keys: Arc<[K]>,
        values: Vec<V>,
    },
}

impl<K, V> Default for Bucket<K, V> {
    fn default() -> Self {
        Bucket(Records::Pairs(Vec::new()))
    }
}

impl<K, V> From<Vec<(K, V)>> for Bucket<K, V> {
    fn from(pairs: Vec<(K, V)>) -> Self {
        Bucket(Records::Pairs(pairs))
    }
}

impl<K, V> Bucket<K, V> {
    /// Records in the bucket.
    pub fn len(&self) -> usize {
        match &self.0 {
            Records::Pairs(pairs) => pairs.len(),
            Records::Planned { values, .. } => values.len(),
        }
    }

    /// Whether the bucket holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Clone, V> Bucket<K, V> {
    /// The bucket as owned pairs. A bucket that carries a key handle
    /// clones its keys out of it — they are shared.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        match self.0 {
            Records::Pairs(pairs) => pairs,
            Records::Planned { keys, values } => keys.iter().cloned().zip(values).collect(),
        }
    }

    /// A handle on the bucket's key sequence: the one it carries, or a
    /// copy of its keys (one clone each).
    fn key_handle(&self) -> Arc<[K]> {
        match &self.0 {
            Records::Pairs(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
            Records::Planned { keys, .. } => Arc::clone(keys),
        }
    }
}

/// What one routing learned about a map task's output, kept so the next
/// job's emissions of the *same key sequence* into the same number of
/// partitions go straight to their buckets, as bare values.
///
/// Remembers the key sequence it was built for twice over: in emission
/// order beside each emission's target partition — what a [`RouteSink`]
/// **verifies** every emission against, one equality test per record,
/// never skipped — and split by partition, as the shared handles
/// (`Arc`) the routed [`Bucket`]s carry to the reduce side and the
/// [`GroupPlan`]s recorded from them keep. Two `K` and one `u32` per
/// record. A plan that fails a verification is dropped and re-recorded
/// from the same task; a dropped plan's per-partition keys live until
/// the last group plan sharing them lets go.
#[derive(Debug)]
pub struct RoutePlan<K> {
    /// The key sequence the plan was built for, in emission order, each
    /// key with its partition.
    emitted: Vec<(K, u32)>,
    /// `keys[r]`: the keys routed to partition `r`, in emission order;
    /// its length is the partition count the plan was built for (empty
    /// while nothing is recorded).
    keys: Vec<Arc<[K]>>,
    /// Records in the last task routed, into any number of partitions.
    last_records: usize,
}

impl<K> Default for RoutePlan<K> {
    fn default() -> Self {
        RoutePlan { emitted: Vec::new(), keys: Vec::new(), last_records: 0 }
    }
}

impl<K: Key> RoutePlan<K> {
    /// Records the task this plan belongs to emitted last job (0 before
    /// the first), into any number of partitions: what it is expected
    /// to emit next.
    pub fn records(&self) -> usize {
        self.last_records
    }

    /// Drops what was recorded (and its share of the memory).
    fn forget(&mut self) {
        (self.emitted, self.keys) = (Vec::new(), Vec::new());
    }

    /// Records, into a forgotten plan, `pairs`' key sequence — one
    /// stable hash per key, exactly what [`route`] computes, and one
    /// clone — and routes them through it: the values go into the
    /// buckets, which share the plan's per-partition keys.
    fn record<V>(&mut self, pairs: Vec<(K, V)>, reducers: usize) -> Vec<Bucket<K, V>> {
        let mut counts = vec![0usize; reducers];
        self.emitted.reserve_exact(pairs.len());
        for (k, _) in &pairs {
            let r = reducer_for(k, reducers);
            self.emitted.push((k.clone(), index_u32(r)));
            counts[r] += 1;
        }
        let mut keys: Vec<Vec<K>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut values: Vec<Vec<V>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for ((k, v), &(_, r)) in pairs.into_iter().zip(&self.emitted) {
            keys[r as usize].push(k);
            values[r as usize].push(v);
        }
        self.keys = keys.into_iter().map(Arc::from).collect();
        self.buckets(values)
    }

    /// `values[r]` — verified against, or just recorded with, `keys[r]`
    /// — as the bucket for partition `r`.
    fn buckets<V>(&self, values: Vec<Vec<V>>) -> Vec<Bucket<K, V>> {
        let planned = |(keys, values)| Bucket(Records::Planned { keys: Arc::clone(keys), values });
        self.keys.iter().zip(values).map(planned).collect()
    }
}

/// Where a map task's emissions go: the one routing mechanism of a
/// job, fed by [`crate::MapContext::emit_intermediate`].
///
/// A sink that follows a [`RoutePlan`] recorded for its partition count
/// starts **on plan**: [`RouteSink::emit`] compares each key with the
/// plan's next remembered key — one equality test per record, in every
/// build — and pushes the bare value onto its remembered partition's
/// exactly-sized bucket: no pair is buffered, nothing is hashed, no key
/// moves. The first key that differs, a task that runs past the plan or
/// one that ends short of it takes the sink **off plan**: the verified
/// prefix comes back out as pairs in emission order (the plan's own
/// keys, moved, and the values walked back out of their buckets), the
/// rest of the task is buffered, and [`RouteSink::finish`] records a
/// new plan from the pairs — as it does for a task that had no plan for
/// this partition count. A miss is only slower, never different.
#[derive(Debug)]
pub struct RouteSink<K, V> {
    /// The task's plan, checked out for the job.
    plan: RoutePlan<K>,
    reducers: usize,
    /// On plan: emissions `..cursor` matched `plan.emitted[..cursor]`
    /// and their values sit in `placed`.
    on_plan: bool,
    cursor: usize,
    /// On plan: per partition, the values verified so far — a bucket in
    /// the making, allocated at its final size.
    placed: Vec<Vec<V>>,
    /// Off plan: the task's emissions so far, in order.
    pairs: Vec<(K, V)>,
}

impl<K: Key, V: Value> RouteSink<K, V> {
    /// A sink for the task that holds `plan`, routing into `reducers`
    /// partitions: on plan iff `plan` was recorded for that partition
    /// count (a plan for another count is dropped). A single partition
    /// consults no plan.
    pub fn following(mut plan: RoutePlan<K>, reducers: usize) -> Self {
        assert!(reducers > 0, "need at least one reducer");
        let on_plan = reducers > 1 && plan.keys.len() == reducers;
        if reducers > 1 && !on_plan {
            plan.forget();
        }
        // On plan every bucket is allocated once, at its final size,
        // and no pair buffer at all; off plan it is the other way round.
        let (placed, pairs) = if on_plan {
            (plan.keys.iter().map(|keys| Vec::with_capacity(keys.len())).collect(), Vec::new())
        } else {
            (Vec::new(), Vec::with_capacity(plan.last_records))
        };
        RouteSink { placed, pairs, plan, reducers, on_plan, cursor: 0 }
    }

    /// Takes one emission.
    #[inline]
    pub fn emit(&mut self, key: K, value: V) {
        if self.on_plan {
            if let Some((planned, target)) = self.plan.emitted.get(self.cursor) {
                if *planned == key {
                    self.placed[*target as usize].push(value);
                    self.cursor += 1;
                    return;
                }
            }
            self.fall_back();
        }
        self.pairs.push((key, value));
    }

    /// Room in the pair buffer a task off plan emits into.
    #[cfg(test)]
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.pairs.capacity()
    }

    /// Emissions taken so far.
    #[inline]
    pub fn records(&self) -> usize {
        if self.on_plan {
            self.cursor
        } else {
            self.pairs.len()
        }
    }

    /// Takes the sink off plan: the plan failed its verification and is
    /// dropped, and the emissions it did match become buffered pairs.
    #[cold]
    fn fall_back(&mut self) {
        self.on_plan = false;
        let emitted = std::mem::take(&mut self.plan.emitted);
        self.plan.forget();
        let mut placed: Vec<_> = self.placed.drain(..).map(Vec::into_iter).collect();
        self.pairs.reserve(self.plan.last_records.max(self.cursor + 1));
        for (key, target) in emitted.into_iter().take(self.cursor) {
            let value = placed[target as usize].next();
            self.pairs.push((key, value.expect("a verified emission sits in its bucket")));
        }
    }

    /// Ends the task off plan whatever it was on: everything emitted,
    /// as pairs in emission order.
    pub fn into_pairs(mut self) -> Vec<(K, V)> {
        if self.on_plan {
            self.fall_back();
        }
        self.pairs
    }

    /// Ends the task: its emissions as one [`Bucket`] per partition —
    /// byte for byte the pairs [`route`] would put there —, the plan to
    /// file for the task's next job, and what became of it (`None` for
    /// a single partition, which is an ownership transfer).
    pub fn finish(mut self) -> (Vec<Bucket<K, V>>, RoutePlan<K>, Option<PlanOutcome>) {
        if self.on_plan && self.cursor < self.plan.emitted.len() {
            self.fall_back(); // a strict prefix of the plan is a miss
        }
        self.plan.last_records = self.records();
        let (buckets, outcome) = if self.on_plan {
            (self.plan.buckets(self.placed), Some(PlanOutcome::Hit))
        } else if self.reducers == 1 {
            (vec![self.pairs.into()], None)
        } else {
            (self.plan.record(self.pairs, self.reducers), Some(PlanOutcome::Recorded))
        };
        (buckets, self.plan, outcome)
    }
}

/// Reusable backing buffers for [`concat_buckets`] and
/// [`Grouped::from_pairs_using`].
///
/// One task's worth of grouping memory: the concatenation buffer, which
/// the grouping hands back drained, and the grouped values, which
/// [`Grouped::recycle_into`] hands back. A task owns its scratch for the
/// task's lifetime; no scratch outlives its task.
#[derive(Debug)]
pub struct ShuffleScratch<K, V> {
    pairs: Vec<(K, V)>,
    values: Vec<V>,
}

impl<K, V> Default for ShuffleScratch<K, V> {
    fn default() -> Self {
        ShuffleScratch { pairs: Vec::new(), values: Vec::new() }
    }
}

impl<K, V> ShuffleScratch<K, V> {
    /// Total capacity currently held (diagnostic).
    pub fn capacity(&self) -> usize {
        self.pairs.capacity() + self.values.capacity()
    }

    /// Takes the spare pair buffer (cleared), leaving an empty one.
    fn take_pairs(&mut self) -> Vec<(K, V)> {
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs
    }
}

/// Concatenates one reducer's buckets **by move**, in bucket (= map
/// task) order, into a buffer recycled from `scratch`.
pub fn concat_buckets<K, V>(
    buckets: impl IntoIterator<Item = Vec<(K, V)>>,
    scratch: &mut ShuffleScratch<K, V>,
) -> Vec<(K, V)> {
    let mut out = scratch.take_pairs();
    for mut bucket in buckets {
        out.append(&mut bucket);
    }
    out
}

/// What one grouping learned about a reduce partition's input, kept so
/// the next grouping of the *same key sequence* is a scatter of values
/// instead of a sort.
///
/// An iterative job's map tasks send a partition the same keys in the
/// same order job after job (a graph partition's edges do not move);
/// only the values change. The plan remembers that key sequence — as
/// handles on the [`Bucket`]s' own key sequences where the buckets
/// carried them, so it shares the [`RoutePlan`]s' keys instead of
/// copying them — with each record's slot in the grouped values and the
/// groups' boundaries. [`group_planned`] **recognises** an input bucket
/// by bucket: one that carries the very handle the plan holds was
/// verified key by key where it was emitted, against those same keys;
/// any other is compared element by element, here. An input whose keys
/// churn (K-Means reassignments) is therefore never wrong; it records a
/// new plan every time.
///
/// A [`Grouped`] is a plan recorded from one input, kept beside that
/// input's scattered values.
///
/// One `u32` a record and three a group, plus one `K` a record only
/// where a bucket carried no handle; kept in the engine's
/// [`crate::plan::PlanStore`] slot of the reduce partition until it
/// fails to recognise an input, which replaces it.
#[derive(Debug)]
pub struct GroupPlan<K> {
    /// The key sequence the plan was built for, one chunk per input
    /// bucket.
    chunks: Vec<Arc<[K]>>,
    /// `slots[i]` is the output index of record `i` of the chunks'
    /// concatenation: a permutation of `0..slots.len()` (the scatters'
    /// safety rests on this, so only [`GroupPlan::of_chunks`] writes
    /// it).
    slots: Vec<u32>,
    /// One per key group, keys ascending.
    groups: Vec<GroupSpan>,
}

/// One key group of a [`GroupPlan`]: its key is `chunks[chunk][at]`
/// (its first record) and its values end at `end` in the grouped
/// values, where the next group's begin.
#[derive(Debug, Clone, Copy)]
struct GroupSpan {
    chunk: u32,
    at: u32,
    end: u32,
}

impl<K> Default for GroupPlan<K> {
    fn default() -> Self {
        GroupPlan { chunks: Vec::new(), slots: Vec::new(), groups: Vec::new() }
    }
}

impl<K: Key> GroupPlan<K> {
    /// Records in the key sequence the plan was built for.
    pub fn records(&self) -> usize {
        self.slots.len()
    }

    /// Key groups in the key sequence the plan was built for.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether `buckets` carry, bucket for bucket, the key sequence
    /// this plan was built for — `Some(true)` when every bucket said so
    /// by identity. A bucket that matched element by element leaves its
    /// handle (if it has one) in the plan, for the next job to
    /// recognise.
    fn recognises<V>(&mut self, buckets: &[Bucket<K, V>]) -> Option<bool> {
        if buckets.len() != self.chunks.len() {
            return None;
        }
        let mut by_identity = true;
        for (bucket, chunk) in buckets.iter().zip(&mut self.chunks) {
            let same = match &bucket.0 {
                Records::Planned { keys, .. } if Arc::ptr_eq(keys, chunk) => continue,
                Records::Planned { keys, .. } => keys == chunk,
                Records::Pairs(pairs) => {
                    let keys = pairs.iter().map(|(k, _)| k);
                    pairs.len() == chunk.len() && keys.eq(chunk.iter())
                }
            };
            if !same {
                return None;
            }
            if let Records::Planned { keys, .. } = &bucket.0 {
                *chunk = Arc::clone(keys);
            }
            by_identity = false;
        }
        Some(by_identity)
    }

    /// Replaces the plan (what it held is dropped first) with the plan
    /// for `buckets`' key sequence. Costs one key clone per record of a
    /// bucket that carries no handle, none otherwise.
    fn record<V>(&mut self, buckets: &[Bucket<K, V>], strategy: GroupingStrategy) {
        *self = GroupPlan::default();
        *self = GroupPlan::of_chunks(buckets.iter().map(Bucket::key_handle).collect(), strategy);
    }

    /// The plan of the key sequence `chunks` (concatenated): the
    /// permutation a stable sort applies, found the way `strategy`
    /// names (see [`GroupingStrategy`]), and the groups it leaves. The
    /// one place a grouping permutation is computed.
    fn of_chunks(chunks: Vec<Arc<[K]>>, strategy: GroupingStrategy) -> Self {
        let keys: Vec<&K> = chunks.iter().flat_map(|chunk| chunk.iter()).collect();
        // `heads`: per group, keys ascending, the input index of its
        // first record (where its key sits) and the slot its values end.
        let (slots, heads) = match strategy {
            GroupingStrategy::Sort => sort_slots(&keys),
            GroupingStrategy::Radix => radix_cursors(&keys),
        };
        let mut starts = Vec::with_capacity(chunks.len());
        let mut start = 0;
        for chunk in &chunks {
            starts.push(start);
            start += chunk.len();
        }
        let span = |(i, end): (u32, u32)| {
            let chunk = starts.partition_point(|&start| start <= i as usize) - 1;
            GroupSpan { chunk: chunk as u32, at: (i as usize - starts[chunk]) as u32, end }
        };
        GroupPlan { groups: heads.into_iter().map(span).collect(), chunks, slots }
    }

    /// Moves every value of `buckets` — which the plan has just
    /// recognised, or been recorded from — to its slot in the grouped
    /// values, placed in `values`' allocation (what it held is dropped
    /// first). Keys that came along as owned pairs are dropped: the
    /// groups' keys are the plan's.
    fn scatter<V>(&self, buckets: Vec<Bucket<K, V>>, values: &mut Vec<V>) {
        let n = self.slots.len();
        let mut placed = SlotWriter::new(std::mem::take(values), n);
        let mut done = 0;
        for bucket in buckets {
            let slots = &self.slots[done..done + bucket.len()];
            done += slots.len();
            match bucket.0 {
                Records::Planned { values, .. } => {
                    values.into_iter().zip(slots).for_each(|(v, &slot)| placed.write(slot, v));
                }
                Records::Pairs(pairs) => {
                    pairs.into_iter().zip(slots).for_each(|((_, v), &slot)| placed.write(slot, v));
                }
            }
        }
        assert_eq!(done, n, "a grouping plan must cover its input exactly");
        // SAFETY: the buckets held n values (each bucket's slice of
        // `slots` was as long as the bucket, and the slices add up to n
        // — the assert), value i was written to `slots[i]`, and `slots`
        // is a permutation of 0..n (`of_chunks` assigns each output
        // position to exactly one input index), so every slot below n
        // was written exactly once.
        *values = unsafe { placed.finish() };
    }

    /// Calls `f` once per key group of `values` — an input's values
    /// placed at their slots — keys ascending.
    fn for_each_group<V>(&self, values: &[V], mut f: impl FnMut(GroupView<'_, K, V>)) {
        let mut lo = 0;
        for group in &self.groups {
            let key = &self.chunks[group.chunk as usize][group.at as usize];
            f(GroupView { key, values: &values[lo..group.end as usize] });
            lo = group.end as usize;
        }
    }
}

/// Groups one reduce partition's `buckets` (in map-task order) through
/// `plan` and calls `f` once per key group, keys ascending, values in
/// (map task, emission) order — the groups of [`group`] over the
/// buckets' concatenation. Returns what became of the plan, and whether
/// a hit was recognised by identity alone.
///
/// If the plan recognises the input (see [`GroupPlan`]; checked on
/// every call, in every build), the **values** scatter from the buckets
/// straight to their remembered slots and `f` walks the remembered
/// group boundaries over the plan's own keys: `O(n)` moves, no key is
/// moved, compared or cloned. Otherwise a new plan is recorded from the
/// input the way `strategy` names, and the values scatter through it. A
/// bucket sequence that differs from the recorded one only in where the
/// buckets are cut is a miss: slower, never different.
pub fn group_planned<K: Key, V: Value>(
    buckets: Vec<Bucket<K, V>>,
    strategy: GroupingStrategy,
    plan: &mut GroupPlan<K>,
    f: impl FnMut(GroupView<'_, K, V>),
) -> (PlanOutcome, bool) {
    let recognised = plan.recognises(&buckets);
    if recognised.is_none() {
        plan.record(&buckets, strategy);
    }
    let mut values = Vec::new();
    plan.scatter(buckets, &mut values);
    plan.for_each_group(&values, f);
    let outcome = if recognised.is_some() { PlanOutcome::Hit } else { PlanOutcome::Recorded };
    (outcome, recognised == Some(true))
}

/// The permutation a stable sort of `keys` applies — so values keep
/// input order within a key — and the groups it leaves, found with one
/// stable sort of their indices. Returns `slots`, `slots[i]` the output
/// index of input `i`, and per group, keys ascending, the input index
/// of its first record and the slot its values end at. `slots` is a
/// permutation of `0..keys.len()` by construction: the sorted indices
/// are `0..n` rearranged, and each of their positions is assigned to
/// exactly one input index.
fn sort_slots<K: Ord>(keys: &[K]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = index_u32(keys.len());
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_by_key(|&i| &keys[i as usize]);
    let (mut slots, mut heads) = (vec![0; n as usize], Vec::<(u32, u32)>::new());
    // Walk the output, opening a group wherever the key changes.
    for (slot, &i) in (0..).zip(&order) {
        slots[i as usize] = slot;
        match heads.last_mut() {
            Some((head, end)) if keys[*head as usize] == keys[i as usize] => *end = slot + 1,
            _ => heads.push((i, slot + 1)),
        }
    }
    (slots, heads)
}

/// A recycled buffer being filled out of order: `n` values, each written
/// straight to its final slot, then handed over as a `Vec` of length
/// `n` — the one place the planned scatter touches uninitialised
/// memory.
///
/// The buffer's length stays 0 until [`SlotWriter::finish`], so a panic
/// while it fills leaks the values written so far and drops nothing
/// twice.
#[derive(Debug)]
struct SlotWriter<T> {
    /// Empty, with capacity for at least `n`.
    buf: Vec<T>,
    n: usize,
}

impl<T> SlotWriter<T> {
    /// A writer of `n` values into `buf`'s allocation (cleared, grown
    /// if it must be).
    fn new(mut buf: Vec<T>, n: usize) -> Self {
        buf.clear();
        buf.reserve(n);
        SlotWriter { buf, n }
    }

    /// Writes `value` to `slot`, which is below `n`. Writing a slot
    /// twice leaks the first value.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is beyond the buffer's capacity — the one check
    /// memory safety needs, and the only one a release build makes: the
    /// slots come from a permutation only `GroupPlan::of_chunks` writes.
    /// A slot between `n` and the capacity is written and never read.
    #[inline]
    fn write(&mut self, slot: u32, value: T) {
        debug_assert!((slot as usize) < self.n, "slot {slot} of {}", self.n);
        self.buf.spare_capacity_mut()[slot as usize].write(value);
    }

    /// The filled buffer, as a vector of length `n`.
    ///
    /// # Safety
    ///
    /// Every slot below `n` has been written exactly once.
    unsafe fn finish(mut self) -> Vec<T> {
        // SAFETY: `new` reserved capacity for `n`, and the caller
        // guarantees the first `n` elements are initialised.
        unsafe { self.buf.set_len(self.n) };
        self.buf
    }
}

/// The radix grouping of `keys`: what [`sort_slots`] returns,
/// found without comparing more than the distinct keys. Each record
/// gets its key's first-seen group id (one stable-hash lookup; the keys
/// are borrowed, none is cloned), the distinct keys are sorted, and the
/// groups' output ranges follow from their sizes in that order. A
/// cursor per group, starting at its range, then deals record `i` the
/// next slot of its group: slots `0..n`, each exactly once.
fn radix_cursors<K: Key>(keys: &[&K]) -> (Vec<u32>, Vec<(u32, u32)>) {
    let n = index_u32(keys.len());
    let mut id_of: StableHashMap<&K, u32> = StableHashMap::default();
    // Per group id: its key, its first record's input index and its size.
    let mut seen: Vec<(&K, u32, u32)> = Vec::new();
    // The records' group ids, until the cursors replace them by slots.
    let mut slots: Vec<u32> = Vec::with_capacity(n as usize);
    for (&k, i) in keys.iter().zip(0..n) {
        let g = *id_of.entry(k).or_insert_with(|| {
            seen.push((k, i, 0));
            seen.len() as u32 - 1
        });
        seen[g as usize].2 += 1;
        slots.push(g);
    }
    let mut order: Vec<u32> = (0..seen.len() as u32).collect();
    order.sort_unstable_by_key(|&g| seen[g as usize].0);
    let (mut next, mut heads, mut end) = (vec![0; seen.len()], Vec::with_capacity(seen.len()), 0);
    for &g in &order {
        let (_, first, size) = seen[g as usize];
        next[g as usize] = end;
        end += size;
        heads.push((first, end));
    }
    for slot in &mut slots {
        let cursor = &mut next[*slot as usize];
        *slot = *cursor;
        *cursor += 1;
    }
    (slots, heads)
}

/// One key group: the key plus its values as a contiguous slice.
///
/// Values are in (map task, emission index) order — identical to what
/// the [`group`] reference produces.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a, K, V> {
    /// The group's key.
    pub key: &'a K,
    /// All values shuffled to this key, deterministically ordered.
    pub values: &'a [V],
}

/// One input's pairs, grouped by key: the [`GroupPlan`] of their key
/// sequence — recorded from this input alone, so it owns the keys —
/// beside the values placed at their slots, so each group's values are
/// a contiguous `&[V]` without per-key `Vec` allocation. Keys ascend.
#[derive(Debug)]
pub struct Grouped<K, V> {
    plan: GroupPlan<K>,
    values: Vec<V>,
}

impl<K: Key, V: Value> Grouped<K, V> {
    /// Groups `pairs`, values in input order within each key — the
    /// determinism contract the `BTreeMap` reference establishes — and
    /// the same groups whichever `strategy` finds the permutation. The
    /// keys move (none is cloned) into the one chunk of a plan recorded
    /// the way `strategy` names, and the values scatter through it into
    /// the value buffer recycled from `scratch`; the drained input
    /// allocation goes back to `scratch` for the next
    /// [`concat_buckets`]. What a reduce task pays on a plan miss.
    pub fn from_pairs_using(
        strategy: GroupingStrategy,
        mut pairs: Vec<(K, V)>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        let mut values = Vec::with_capacity(pairs.len());
        let split = |(k, v)| {
            values.push(v);
            k
        };
        let keys: Arc<[K]> = pairs.drain(..).map(split).collect();
        scratch.pairs = pairs;
        let plan = GroupPlan::of_chunks(vec![Arc::clone(&keys)], strategy);
        let mut grouped = std::mem::take(&mut scratch.values);
        plan.scatter(vec![Bucket(Records::Planned { keys, values })], &mut grouped);
        Grouped { plan, values: grouped }
    }

    /// Calls `f` once per key group, keys ascending.
    pub fn for_each_group(&self, f: impl FnMut(GroupView<'_, K, V>)) {
        self.plan.for_each_group(&self.values, f);
    }

    /// Total records (across all groups).
    pub fn records(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of distinct keys.
    pub fn num_groups(&self) -> usize {
        self.plan.groups()
    }

    /// Returns the value buffer to `scratch` (cleared, capacity kept)
    /// for the next job.
    pub fn recycle_into(mut self, scratch: &mut ShuffleScratch<K, V>) {
        self.values.clear();
        scratch.values = self.values;
    }
}

/// Groups one reducer's input (concatenated map buckets, in map-task
/// order) into `(key, values)` with keys ascending.
///
/// This is the original `BTreeMap` formulation, **kept as the
/// behavioral reference**: the oracle groups with it, and the tests
/// assert that [`Grouped`] and [`group_planned`] produce its groups.
pub fn group<K: Key, V: Value>(input: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (k, v) in input {
        grouped.entry(k).or_default().push(v);
    }
    grouped.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use GroupingStrategy::{Radix, Sort};

    #[test]
    fn route_covers_all_pairs() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i, i * 2)).collect();
        let buckets = route(pairs.clone(), 4);
        assert_eq!(buckets.len(), 4);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        // Same key always lands in the same bucket.
        let again = route(pairs, 4);
        for (a, b) in buckets.iter().zip(again.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn group_sorts_keys_and_preserves_value_order() {
        let input = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let grouped = group(input);
        assert_eq!(grouped, vec![(1, vec!['b', 'e']), (2, vec!['d']), (3, vec!['a', 'c'])]);
    }

    #[test]
    fn group_empty() {
        let grouped: Vec<(u32, Vec<u32>)> = group(Vec::new());
        assert!(grouped.is_empty());
    }

    /// Groups `pairs` with `strategy` over fresh buffers.
    fn grouped_by<K: Key, V: Value>(
        strategy: GroupingStrategy,
        pairs: Vec<(K, V)>,
    ) -> Grouped<K, V> {
        Grouped::from_pairs_using(strategy, pairs, &mut ShuffleScratch::default())
    }

    #[test]
    fn grouped_matches_reference_on_interleaved_keys() {
        let input = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let reference = group(input.clone());
        let grouped = grouped_by(Sort, input);
        let mut got: Vec<(u32, Vec<char>)> = Vec::new();
        grouped.for_each_group(|g| got.push((*g.key, g.values.to_vec())));
        assert_eq!(got, reference);
        assert_eq!(grouped.records(), 5);
        assert_eq!(grouped.num_groups(), 3);
    }

    #[test]
    fn grouped_empty() {
        let grouped: Grouped<u32, u32> = grouped_by(Sort, Vec::new());
        assert!(grouped.is_empty());
        let mut called = false;
        grouped.for_each_group(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn scratch_recycles_capacity() {
        let mut scratch: ShuffleScratch<u32, u64> = ShuffleScratch::default();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_using(Sort, pairs, &mut scratch);
        assert_eq!(grouped.records(), 1000);
        grouped.recycle_into(&mut scratch);
        let before = scratch.capacity();
        // Second round must not grow the scratch (same shape workload).
        let pairs: Vec<(u32, u64)> = concat_buckets(
            vec![
                (0..500).map(|i| (i % 7, u64::from(i))).collect(),
                (0..500).map(|i| (i % 5, u64::from(i))).collect(),
            ],
            &mut scratch,
        );
        let grouped = Grouped::from_pairs_using(Sort, pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        assert!(scratch.capacity() >= before, "capacity retained across rounds");
    }

    /// Flattens a `Grouped` into the reference `(key, values)` shape.
    fn collect<K: Key, V: Value>(g: &Grouped<K, V>) -> Vec<(K, Vec<V>)> {
        let mut out = Vec::new();
        g.for_each_group(|view| out.push((view.key.clone(), view.values.to_vec())));
        out
    }

    #[test]
    fn radix_matches_sort_on_interleaved_keys() {
        let input = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let sorted = grouped_by(Sort, input.clone());
        let radix = grouped_by(Radix, input);
        assert_eq!(collect(&radix), collect(&sorted));
        assert_eq!(radix.records(), 5);
        assert_eq!(radix.num_groups(), 3);
    }

    #[test]
    fn radix_empty() {
        let grouped: Grouped<u32, u32> = grouped_by(Radix, Vec::new());
        assert!(grouped.is_empty());
        let mut called = false;
        grouped.for_each_group(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn radix_heavy_duplication_preserves_value_order() {
        // Many values per key (the graph-workload shape radix targets).
        let pairs: Vec<(u32, u64)> = (0..5000).map(|i| (i % 3, u64::from(i))).collect();
        let sorted = grouped_by(Sort, pairs.clone());
        let radix = grouped_by(Radix, pairs);
        assert_eq!(collect(&radix), collect(&sorted));
    }

    #[test]
    fn radix_recycles_scratch_including_slots() {
        let mut scratch: ShuffleScratch<u32, u64> = ShuffleScratch::default();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_using(Radix, pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        let before = scratch.capacity();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_using(Radix, pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        assert!(scratch.capacity() >= before, "capacity retained across rounds");
    }

    #[test]
    fn from_pairs_using_dispatches_both_strategies() {
        let input = vec![(9u32, 'x'), (2, 'y'), (9, 'z')];
        for strategy in [Sort, Radix] {
            let g = grouped_by(strategy, input.clone());
            assert_eq!(collect(&g), vec![(2, vec!['y']), (9, vec!['x', 'z'])]);
        }
    }

    #[test]
    fn concat_preserves_bucket_then_emission_order() {
        let mut scratch = ShuffleScratch::default();
        let buckets = vec![vec![(1u32, 'a'), (2, 'b')], Vec::new(), vec![(1, 'c')], vec![(3, 'd')]];
        let pairs = concat_buckets(buckets, &mut scratch);
        assert_eq!(pairs, vec![(1, 'a'), (2, 'b'), (1, 'c'), (3, 'd')]);
    }

    #[test]
    fn index_u32_holds_at_the_boundary() {
        assert_eq!(index_u32(0), 0);
        assert_eq!(index_u32(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "indexes with u32, got 4294967296")]
    fn index_u32_panics_one_past_the_boundary() {
        index_u32(u32::MAX as usize + 1);
    }

    use PlanOutcome::{Hit, Recorded};

    /// Routes `pairs` the way a map task does: each through a sink
    /// that follows `plan`, which is filed back.
    fn route_through<K: Key, V: Value>(
        plan: &mut RoutePlan<K>,
        pairs: Vec<(K, V)>,
        reducers: usize,
    ) -> (Vec<Bucket<K, V>>, Option<PlanOutcome>) {
        let mut sink = RouteSink::following(std::mem::take(plan), reducers);
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            assert_eq!(sink.records(), i);
            sink.emit(k, v);
        }
        let (buckets, kept, outcome) = sink.finish();
        *plan = kept;
        (buckets, outcome)
    }

    fn into_pairs<K: Key, V: Value>(buckets: Vec<Bucket<K, V>>) -> Vec<Vec<(K, V)>> {
        buckets.into_iter().map(Bucket::into_pairs).collect()
    }

    /// The groups of a grouping, in the reference's shape.
    type Groups<K, V> = Vec<(K, Vec<V>)>;

    /// [`group_planned`]'s groups, plus what it returned.
    fn grouped<K: Key, V: Value>(
        buckets: Vec<Bucket<K, V>>,
        strategy: GroupingStrategy,
        plan: &mut GroupPlan<K>,
    ) -> (Groups<K, V>, (PlanOutcome, bool)) {
        let mut out = Vec::new();
        let collect = |g: GroupView<'_, K, V>| out.push((g.key.clone(), g.values.to_vec()));
        let planned = group_planned(buckets, strategy, plan, collect);
        (out, planned)
    }

    #[test]
    fn route_plan_hits_only_on_the_same_keys_and_partition_count() {
        let pairs: Vec<(u32, char)> = vec![(5, 'a'), (9, 'b'), (5, 'c'), (2, 'd')];
        let mut plan = RoutePlan::default();
        assert_eq!(plan.records(), 0);
        for (input, reducers, want) in [
            (pairs.clone(), 3, Recorded), // first sight
            (pairs.clone(), 3, Hit),
            (vec![(5, 'x'), (9, 'y'), (5, 'z'), (2, 'w')], 3, Hit), // values are free
            (vec![(5, 'a'), (9, 'b'), (6, 'c'), (2, 'd')], 3, Recorded), // one key, same length
            (pairs.clone(), 3, Recorded),
            (pairs.clone(), 4, Recorded), // same keys, other partition count
            (pairs.clone(), 4, Hit),
            (pairs[..3].to_vec(), 4, Recorded), // a strict prefix
            (pairs[..3].to_vec(), 4, Hit),
        ] {
            let (buckets, outcome) = route_through(&mut plan, input.clone(), reducers);
            assert_eq!(into_pairs(buckets), route(input.clone(), reducers));
            assert_eq!(outcome, Some(want), "{input:?} into {reducers}");
            assert_eq!(plan.records(), input.len());
        }
    }

    #[test]
    fn a_sink_that_leaves_its_plan_at_any_prefix_routes_what_route_routes() {
        let keys: Vec<u32> = (0..23).map(|i| i * 7 % 10).collect();
        let planned: Vec<(u32, usize)> = keys.iter().copied().zip(0..).collect();
        let recorded = || {
            let mut plan = RoutePlan::default();
            assert_eq!(route_through(&mut plan, planned.clone(), 4).1, Some(Recorded));
            plan
        };
        for at in 0..=keys.len() {
            // A key the plan does not expect at `at` (past its end when
            // `at` is its length), and a task that stops at `at`.
            let mut churned = planned.clone();
            churned.truncate(at + 1);
            churned.resize(at + 1, (0, 0));
            churned[at].0 = 77;
            churned.extend(planned.iter().skip(at + 1));
            for input in [churned, planned[..at].to_vec()] {
                let mut plan = recorded();
                let (buckets, outcome) = route_through(&mut plan, input.clone(), 4);
                let hit = input == planned;
                assert_eq!(outcome, Some(if hit { Hit } else { Recorded }), "left at {at}");
                assert_eq!(into_pairs(buckets), route(input.clone(), 4), "left at {at}");
                assert_eq!(plan.records(), input.len());
                // A miss records: the same task hits next time.
                let (buckets, again) = route_through(&mut plan, input.clone(), 4);
                assert_eq!(again, Some(Hit), "left at {at}");
                assert_eq!(into_pairs(buckets), route(input.clone(), 4), "left at {at}");
            }
        }
    }

    #[test]
    fn a_task_that_emits_nothing_hits_its_empty_plan_and_one_partition_consults_none() {
        let mut plan: RoutePlan<u32> = RoutePlan::default();
        for want in [Recorded, Hit, Hit] {
            let (buckets, outcome) = route_through(&mut plan, Vec::<(u32, u8)>::new(), 3);
            assert_eq!((buckets.len(), outcome), (3, Some(want)));
            assert!(buckets.iter().all(Bucket::is_empty));
        }
        let (buckets, outcome) = route_through(&mut plan, vec![(1, 1u8), (2, 2)], 3);
        assert_eq!(
            (into_pairs(buckets), outcome),
            (route(vec![(1, 1), (2, 2)], 3), Some(Recorded))
        );
        // One partition: an ownership transfer that still learns the
        // task's size, and leaves the plan for three partitions alone.
        let (buckets, outcome) = route_through(&mut plan, vec![(4, 4u8), (5, 5), (6, 6)], 1);
        assert_eq!((into_pairs(buckets), outcome), (vec![vec![(4, 4), (5, 5), (6, 6)]], None));
        assert_eq!(plan.records(), 3);
        assert_eq!(route_through(&mut plan, vec![(1, 1u8), (2, 2)], 3).1, Some(Hit));
        // Outside a job: a default sink buffers and hands pairs back.
        let mut sink = RouteSink::following(RoutePlan::default(), 1);
        sink.emit(7u32, 'x');
        assert_eq!(sink.into_pairs(), vec![(7, 'x')]);
    }

    #[test]
    fn planned_buckets_match_concat_then_group_for_both_strategies() {
        let pairs = vec![vec![(3u32, 'a'), (1, 'b')], vec![(3, 'c')], vec![(2, 'd'), (1, 'e')]];
        let owned = |pairs: &[Vec<(u32, char)>]| pairs.iter().cloned().map(Bucket::from).collect();
        let want = group(pairs.concat());
        for strategy in [Sort, Radix] {
            let mut plan = GroupPlan::default();
            // Owned pairs carry no handle: every hit compares keys.
            for want_outcome in [Recorded, Hit, Hit] {
                let (got, planned) = grouped(owned(&pairs), strategy, &mut plan);
                assert_eq!((got, planned), (want.clone(), (want_outcome, false)));
            }
            assert_eq!(plan.records(), 5);
            // Where the buckets are cut is part of what a plan
            // recognises: the same keys in one bucket are a miss (and
            // the same groups), recorded like any other.
            for want_outcome in [Recorded, Hit] {
                let (got, planned) = grouped(owned(&[pairs.concat()]), strategy, &mut plan);
                assert_eq!((got, planned), (want.clone(), (want_outcome, false)));
            }
        }
    }

    #[test]
    fn a_reduce_input_is_recognised_by_identity_only_while_its_handles_are_the_plans() {
        // Two map tasks whose key sequences are reorderings of one
        // another — every bucket of one is as long as the other's — and
        // the reduce input of partition `P` of two.
        const P: usize = 0;
        let tasks = |salt: u32| -> Vec<Vec<(u32, u32)>> {
            let ascending = (0..12).map(|i| (i % 6, i ^ salt));
            let descending = (0..12).map(|i| (5 - i % 6, i + salt));
            vec![ascending.collect(), descending.collect()]
        };
        let mut routes = [RoutePlan::default(), RoutePlan::default()];
        let mut plan = GroupPlan::default();
        let mut job = |routes: &mut [RoutePlan<u32>; 2], input: Vec<Vec<(u32, u32)>>| {
            let reference = input.iter().flat_map(|task| route(task.clone(), 2).swap_remove(P));
            let want = group(reference.collect());
            let routed = input.into_iter().zip(routes.iter_mut());
            let buckets = routed.map(|(task, plan)| route_through(plan, task, 2).0.swap_remove(P));
            let (got, planned) = grouped(buckets.collect(), Sort, &mut plan);
            assert_eq!(got, want);
            planned
        };
        assert_eq!(job(&mut routes, tasks(1)), (Recorded, false));
        assert_eq!(job(&mut routes, tasks(2)), (Hit, true));
        // Task 0 loses its plan and re-records an *equal* key sequence:
        // a new handle with equal contents is compared key by key and
        // hits; the new handle is the one the plan holds from then on.
        routes[0] = RoutePlan::default();
        assert_eq!(job(&mut routes, tasks(3)), (Hit, false), "a new handle, equal keys");
        assert_eq!(job(&mut routes, tasks(4)), (Hit, true));
        // The tasks swap sequences, plans and all: every bucket carries
        // a handle the plan holds — for the *other* chunk, of the same
        // length. Identity is per bucket, so this is a miss.
        routes.swap(0, 1);
        let mut swapped = tasks(7);
        swapped.swap(0, 1);
        assert_eq!(job(&mut routes, swapped.clone()), (Recorded, false));
        assert_eq!(job(&mut routes, swapped), (Hit, true));
    }

    /// A heap-ish key that counts its clones and its `==` calls: what
    /// a plan costs a job whose keys are not `Copy`.
    #[derive(Debug, PartialOrd, Ord)]
    struct Counted(u32);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        static EQS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            EQS.with(|c| c.set(c.get() + 1));
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl std::hash::Hash for Counted {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    impl crate::kv::Meterable for Counted {
        fn approx_bytes(&self) -> u64 {
            4
        }
    }

    #[test]
    fn only_a_recording_clones_keys_and_it_clones_each_once() {
        let input = || -> Vec<(Counted, u8)> { (0..40).map(|i| (Counted(i % 7), 0)).collect() };
        // (clones, `==` calls) `f` made.
        fn counting<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
            let before = (CLONES.with(std::cell::Cell::get), EQS.with(std::cell::Cell::get));
            let out = f();
            let (clones, eqs) = (CLONES.with(std::cell::Cell::get), EQS.with(std::cell::Cell::get));
            (out, clones - before.0, eqs - before.1)
        }
        // A whole job: two map tasks route 40 records each into three
        // partitions, which group what they are sent.
        let mut routes = [RoutePlan::default(), RoutePlan::default()];
        let mut groups = [GroupPlan::default(), GroupPlan::default(), GroupPlan::default()];
        let mut job = || {
            let mut routed: Vec<_> =
                routes.iter_mut().map(|plan| route_through(plan, input(), 3)).collect();
            let mut outcomes: Vec<_> = routed.iter().map(|(_, outcome)| outcome.unwrap()).collect();
            for (p, plan) in groups.iter_mut().enumerate().rev() {
                let buckets = routed.iter_mut().map(|(b, _)| b.swap_remove(p)).collect();
                let (outcome, by_identity) = group_planned(buckets, Sort, plan, |_| {});
                assert_eq!(by_identity, outcome == Hit);
                outcomes.push(outcome);
            }
            outcomes
        };
        // First sight records every plan. A route plan keeps each key
        // twice — in emission order and in its partition's handle — so
        // recording one clones each key once; the group plans share the
        // handles and clone nothing. That is all a one-shot job pays.
        let (outcomes, clones, _) = counting(&mut job);
        assert_eq!((outcomes, clones), (vec![Recorded; 5], 80));
        // Steady state: each record's key is compared exactly once —
        // where it is emitted — and the reduce side knows its input by
        // identity.
        assert_eq!(counting(&mut job), (vec![Hit; 5], 0, 80));

        // A plan that has to keep its own copy of the keys — its input
        // arrived as owned pairs — clones each once when it records,
        // and compares each once when it hits.
        let mut plan = GroupPlan::default();
        let mut group_once = || {
            let buckets = vec![input().into(), input().into()];
            group_planned(buckets, Sort, &mut plan, |_| {}).0
        };
        let (outcome, clones, _) = counting(&mut group_once);
        assert_eq!((outcome, clones), (Recorded, 80));
        assert_eq!(counting(&mut group_once), (Hit, 0, 80));

        // The unplanned grouping moves its keys into its plan and clones
        // none, whichever strategy finds the permutation.
        for strategy in [Sort, Radix] {
            let (grouped, clones, _) = counting(|| grouped_by(strategy, input()));
            assert_eq!((grouped.num_groups(), clones), (7, 0), "{strategy:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_panics() {
        let _ = route(vec![(1u32, 1u32)], 0);
    }
}
