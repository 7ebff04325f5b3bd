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
//! sequence job after job — only the values change. A [`RoutePlan`]
//! keeps one map task's key sequence with each key's target partition
//! and the exact bucket sizes; a [`GroupPlan`] keeps one reduce input's
//! key sequence with each record's slot in the grouped output.
//! [`route_planned`] and [`Grouped::from_buckets_planned`] **verify**
//! the remembered sequence against every new input — an `O(n)`
//! key-equality scan, in every build, never skipped — and on a hit move
//! every record (key and value) straight to its remembered place: no
//! hash, no sort, no concatenation copy, no clone.
//!
//! Remembering costs one key clone per record, which a heap-keyed job
//! that never repeats would pay for nothing, so *recording* is earned
//! (see `Backoff`): a plan sits out the first input it sees and records
//! the second, and a recorded plan that fails its next verification is
//! dropped and sits out 1, 2, 4 … 64 inputs before recording again. An
//! input that is sat out runs exactly the unplanned code — [`route`],
//! or [`concat_buckets`] + [`Grouped::from_pairs_using`] with the job's
//! [`GroupingStrategy`] — so a one-shot job clones nothing, a job whose
//! keys churn forever (K-Means reassignments) records in at most one
//! job of 65, and neither is ever wrong. [`PlanOutcome`] says which of
//! the three happened. The engine keeps the plans per map task and per
//! reduce partition in its [`crate::plan::PlanStore`]. The local syncs
//! of a [`crate::local::EagerMapper`] task remember the same way but
//! earn nothing — a task that loops is about to see its keys again, so
//! its plan (of a type of its own, in [`crate::local`]: it also keeps
//! the group boundaries, and verifies at emission) records at once —
//! and the engine files that plan in the same store between jobs.
//!
//! Grouping implementations:
//!
//! * [`Grouped`] — the **hot path**: parallel `keys`/`values` arrays
//!   (keys ascending), with run detection yielding contiguous
//!   [`GroupView`] slices. No per-key `Vec` allocations, no value
//!   clones, and all backing buffers are recyclable through
//!   [`ShuffleScratch`] across the hundreds of jobs an iterative driver
//!   issues. Its constructors differ only in how the permutation is
//!   found — a stable sort or a radix scatter per call
//!   ([`Grouped::from_pairs_using`], the unplanned path), or a
//!   remembered, re-verified [`GroupPlan`] — and produce byte-identical
//!   arrays.
//! * [`group`] — the original `BTreeMap` formulation, **kept as the
//!   behavioral reference** for property tests. Both produce
//!   byte-identical group order.

use std::collections::BTreeMap;

use crate::hash::{reducer_for, StableHashMap};
use crate::kv::{Key, Value};

/// How a grouping permutation is *found* when it has to be computed:
/// per call by [`Grouped::from_pairs_using`], and by a job's reduce
/// tasks only when their [`GroupPlan`] does not match (they then group
/// unplanned, or record a new plan, this way) — a reduce input whose
/// key sequence repeats is scattered through its remembered plan
/// whichever member the job names.
///
/// Both strategies produce **byte-identical** [`Grouped`] arrays (keys
/// ascending, values in concatenation order within each key) — pinned
/// by the radix/sort equivalence tests. They differ only in how the
/// permutation is computed:
///
/// * [`GroupingStrategy::Sort`] — comparison sort over all `n` keys:
///   `O(n log n)` comparisons, the right default when keys are mostly
///   distinct.
/// * [`GroupingStrategy::Radix`] — hash-grouping: assign each pair a
///   first-seen group id (one stable-hash lookup per pair), sort only
///   the `g` *distinct* keys, then count every pair straight to its
///   final slot: `O(n + g log g)`. Wins when duplicate keys dominate
///   (`g ≪ n`), which is exactly the shape of iterative graph
///   workloads where many edges target the same vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GroupingStrategy {
    /// Stable sort by key + run detection (the default).
    #[default]
    Sort,
    /// First-seen group ids + distinct-key sort + counting scatter.
    Radix,
}

/// Splits one map task's output into per-reducer buckets.
///
/// Exactly-sized: a counting pass first computes every pair's target
/// partition, so each bucket is allocated once at its final capacity
/// (empty buckets allocate nothing) instead of growing through
/// repeated reallocation — `route` runs once per map task per job, so
/// iterative drivers hit this thousands of times. With a single
/// reducer the input vector is returned as-is (pure ownership
/// transfer). Output is byte-identical to the naive scatter in both
/// cases: same buckets, same order.
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
    /// No match, and a new plan was recorded from this input (one key
    /// clone per record).
    Recorded,
    /// No match, and the plan is sitting this input out: the unplanned
    /// code ran and nothing was cloned.
    Unplanned,
}

/// When a plan that does not match its input is worth recording again.
///
/// Recording clones every key. A fresh plan therefore sits out its
/// first input — a one-shot job records nothing — and a recorded plan
/// that fails its next verification sits out 1, then 2, 4 … up to
/// [`Backoff::MAX`] inputs before the next recording, so keys that
/// churn forever cost a recording in at most one job of `MAX + 1`. A
/// hit resets the series.
#[derive(Debug)]
struct Backoff {
    /// Inputs still to sit out before the next recording.
    sit_out: u32,
    /// What `sit_out` becomes when the plan next goes stale.
    penalty: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff { sit_out: 1, penalty: 1 }
    }
}

impl Backoff {
    const MAX: u32 = 64;

    fn hit(&mut self) {
        self.penalty = 1;
    }

    /// The plan does not match the input (`stale`: a recorded plan was
    /// just dropped for it). Whether to record a plan from this input;
    /// otherwise it is sat out.
    fn record_now(&mut self, stale: bool) -> bool {
        if stale {
            self.sit_out = self.penalty;
            self.penalty = (2 * self.penalty).min(Self::MAX);
        }
        let due = self.sit_out == 0;
        self.sit_out = self.sit_out.saturating_sub(1);
        due
    }
}

/// What one routing learned about a map task's output, kept so the next
/// routing of the *same key sequence* into the same number of
/// partitions moves pairs instead of hashing them.
///
/// Remembers the key sequence it was built for, each key's target
/// partition and the exact bucket sizes — one `K` and one `u32` per
/// record. [`route_planned`] **verifies** the sequence against every
/// new input (an `O(n)` equality scan, never skipped); a plan that
/// fails is dropped, and re-recorded when its `Backoff` allows.
#[derive(Debug)]
pub struct RoutePlan<K> {
    /// The key sequence the plan was built for, in emission order.
    keys: Vec<K>,
    /// `targets[i]` is the partition of `keys[i]`.
    targets: Vec<u32>,
    /// Records per partition; its length is the partition count the
    /// plan was built for (empty while nothing is recorded).
    counts: Vec<usize>,
    backoff: Backoff,
    /// Records in the last input routed, recorded or not.
    last_records: usize,
}

impl<K> Default for RoutePlan<K> {
    fn default() -> Self {
        RoutePlan {
            keys: Vec::new(),
            targets: Vec::new(),
            counts: Vec::new(),
            backoff: Backoff::default(),
            last_records: 0,
        }
    }
}

impl<K: Key> RoutePlan<K> {
    /// Records in the last input routed through this plan (0 before the
    /// first): what the same map task is expected to emit next.
    pub fn records(&self) -> usize {
        self.last_records
    }

    /// Whether `pairs` carries exactly the key sequence, and `reducers`
    /// is the partition count, this plan was built for.
    fn matches<V>(&self, pairs: &[(K, V)], reducers: usize) -> bool {
        self.counts.len() == reducers
            && pairs.len() == self.keys.len()
            && pairs.iter().zip(&self.keys).all(|((k, _), planned)| k == planned)
    }

    /// Drops what was recorded (and its memory); the backoff stays.
    fn forget(&mut self) {
        (self.keys, self.targets, self.counts) = (Vec::new(), Vec::new(), Vec::new());
    }

    /// Records, into a forgotten plan, `pairs`' key sequence: one
    /// stable hash per key, exactly what [`route`] computes, and one
    /// clone.
    fn record<V>(&mut self, pairs: &[(K, V)], reducers: usize) {
        self.counts.resize(reducers, 0);
        self.keys.reserve_exact(pairs.len());
        self.targets.reserve_exact(pairs.len());
        for (k, _) in pairs {
            let r = reducer_for(k, reducers);
            self.keys.push(k.clone());
            self.targets.push(index_u32(r));
            self.counts[r] += 1;
        }
    }
}

/// [`route`] through a remembered plan: byte-identical buckets, plus
/// what became of the plan.
///
/// If `pairs` carries the key sequence `plan` was built for and
/// `reducers` is unchanged (checked on every call, in every build),
/// every pair moves to its remembered partition into a bucket of its
/// remembered size — no hashing. Otherwise the plan is dropped and the
/// input is either routed by [`route`] itself or, when the plan's
/// `Backoff` says it is time, recorded (one hash and one clone per key)
/// and moved the same way.
pub fn route_planned<K: Key, V: Value>(
    pairs: Vec<(K, V)>,
    reducers: usize,
    plan: &mut RoutePlan<K>,
) -> (Vec<Vec<(K, V)>>, PlanOutcome) {
    assert!(reducers > 0, "need at least one reducer");
    plan.last_records = pairs.len();
    let outcome = if plan.matches(&pairs, reducers) {
        plan.backoff.hit();
        PlanOutcome::Hit
    } else {
        let stale = !plan.counts.is_empty();
        plan.forget();
        if !plan.backoff.record_now(stale) {
            return (route(pairs, reducers), PlanOutcome::Unplanned);
        }
        plan.record(&pairs, reducers);
        PlanOutcome::Recorded
    };
    let mut buckets: Vec<Vec<(K, V)>> =
        plan.counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for (pair, &r) in pairs.into_iter().zip(&plan.targets) {
        buckets[r as usize].push(pair);
    }
    (buckets, outcome)
}

/// Reusable backing buffers for [`concat_buckets`] and
/// [`Grouped::from_pairs_reusing`].
///
/// One reduce task's worth of shuffle memory: the concatenation buffer
/// plus the split key/value arrays. An [`crate::plan::ScratchArena`]
/// shelves these between jobs so an iterative run stops reallocating
/// after its first iteration.
#[derive(Debug)]
pub struct ShuffleScratch<K, V> {
    pub(crate) pairs: Vec<(K, V)>,
    pub(crate) keys: Vec<K>,
    pub(crate) values: Vec<V>,
    /// Per-pair index buffer: the group ids of a radix grouping, or
    /// the temporary of a [`GroupPlan`] recording (untyped in K/V, so
    /// it recycles across jobs of any shape).
    pub(crate) slots: Vec<u32>,
}

impl<K, V> Default for ShuffleScratch<K, V> {
    fn default() -> Self {
        ShuffleScratch {
            pairs: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
            slots: Vec::new(),
        }
    }
}

impl<K, V> ShuffleScratch<K, V> {
    /// Total capacity currently shelved (diagnostic).
    pub fn capacity(&self) -> usize {
        self.pairs.capacity() + self.keys.capacity() + self.values.capacity()
    }

    /// Takes the spare pair buffer (cleared), leaving an empty one.
    pub(crate) fn take_pairs(&mut self) -> Vec<(K, V)> {
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs
    }

    /// Shelves a pair buffer if it beats the currently held one.
    pub(crate) fn offer_pairs(&mut self, pairs: Vec<(K, V)>) {
        if pairs.capacity() > self.pairs.capacity() {
            self.pairs = pairs;
            self.pairs.clear();
        }
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

/// What one grouping learned about its input, kept so the next
/// grouping of the *same key sequence* is a scatter instead of a sort.
///
/// An iterative task emits the same keys in the same order pass after
/// pass (a graph partition's edges do not move); only the values
/// change. The plan remembers the key sequence it was built for and
/// where each input index lands in the grouped output.
/// [`Grouped::from_buckets_planned`] **verifies** the remembered
/// sequence against every new input — an `O(n)` equality scan, never
/// skipped — so an input whose keys churn (K-Means reassignments) is
/// never wrong; what it costs is bounded by the plan's `Backoff`.
///
/// Sized to one input's records (one `K` and one `u32` each) and kept
/// in the engine's [`crate::plan::PlanStore`] slot of the reduce
/// partition that groups that input again.
#[derive(Debug)]
pub struct GroupPlan<K> {
    /// The key sequence the plan was built for, in input order.
    input_keys: Vec<K>,
    /// `slots[i]` is the output index of input pair `i`: a permutation
    /// of `0..input_keys.len()` (the scatter's safety rests on this, so
    /// only the two `record*` methods write it).
    slots: Vec<u32>,
    backoff: Backoff,
}

impl<K> Default for GroupPlan<K> {
    fn default() -> Self {
        GroupPlan { input_keys: Vec::new(), slots: Vec::new(), backoff: Backoff::default() }
    }
}

/// The input of a planned grouping: one reduce partition's buckets in
/// map-task order (or a single vector), read as their concatenation
/// without being concatenated.
type Chunks<K, V> = [Vec<(K, V)>];

impl<K: Key> GroupPlan<K> {
    /// Records in the key sequence the plan was built for.
    pub fn records(&self) -> usize {
        self.input_keys.len()
    }

    /// Whether `chunks`, concatenated, carry exactly the key sequence
    /// this plan was built for.
    fn matches<V>(&self, chunks: &Chunks<K, V>) -> bool {
        let mut planned = self.input_keys.as_slice();
        chunks.iter().map(Vec::len).sum::<usize>() == planned.len()
            && chunks.iter().all(|chunk| {
                let (head, rest) = planned.split_at(chunk.len());
                planned = rest;
                chunk.iter().zip(head).all(|((k, _), planned)| k == planned)
            })
    }

    /// Drops what was recorded (and its memory); the backoff stays.
    fn forget(&mut self) {
        (self.input_keys, self.slots) = (Vec::new(), Vec::new());
    }

    /// Starts a recording: remembers `chunks`' key sequence (the one
    /// clone per record a plan costs). Both ways of finishing it check
    /// that its length fits the `u32` slots.
    fn remember<V>(&mut self, chunks: &Chunks<K, V>) {
        self.input_keys.clear();
        self.input_keys.reserve_exact(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            self.input_keys.extend(chunk.iter().map(|(k, _)| k.clone()));
        }
    }

    /// Records the plan for `chunks`' key sequence with one index sort
    /// (`order` is a recycled temporary).
    fn record<V>(&mut self, chunks: &Chunks<K, V>, order: &mut Vec<u32>) {
        self.remember(chunks);
        sort_slots(&self.input_keys, order, &mut self.slots);
        order.clear();
    }

    /// Records the plan for `chunks`' key sequence the radix way (see
    /// [`GroupingStrategy::Radix`]; `gids` is a recycled temporary):
    /// the same permutation as [`GroupPlan::record`], found without
    /// comparing all `n` keys.
    fn record_radix<V>(&mut self, chunks: &Chunks<K, V>, gids: &mut Vec<u32>) {
        self.remember(chunks);
        let mut next = radix_cursors(self.input_keys.iter(), gids);
        self.slots.clear();
        self.slots.extend(gids.iter().map(|&g| {
            let cursor = &mut next[g as usize];
            *cursor += 1;
            *cursor - 1
        }));
        gids.clear();
    }
}

/// The permutation a stable sort of `keys` applies, found with one index
/// sort: leaves in `order` the input indices in output order (keys
/// ascending, ties by input index — so values keep input order within a
/// key) and in `slots` its inverse, `slots[i]` the output index of
/// input `i`. `slots` is a permutation of `0..keys.len()` by
/// construction: `order` is `0..n` rearranged, and each of its
/// positions is assigned to exactly one input index.
pub(crate) fn sort_slots<K: Ord>(keys: &[K], order: &mut Vec<u32>, slots: &mut Vec<u32>) {
    let n = index_u32(keys.len());
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
    slots.clear();
    slots.resize(n as usize, 0);
    for (slot, &i) in order.iter().enumerate() {
        slots[i as usize] = slot as u32;
    }
}

/// A recycled buffer being filled out of order: `n` values, each written
/// straight to its final slot, then handed over as a `Vec` of length
/// `n` — the one place the planned scatters (here and in
/// [`crate::local`]) touch uninitialised memory.
///
/// The buffer's length stays 0 until [`SlotWriter::finish`], so a panic
/// while it fills — or abandoning it through
/// [`SlotWriter::into_buffer`] — leaks the values written so far and
/// drops nothing twice.
#[derive(Debug)]
pub(crate) struct SlotWriter<T> {
    /// Empty, with capacity for at least `n`.
    buf: Vec<T>,
    n: usize,
}

impl<T> SlotWriter<T> {
    /// A writer of `n` values into `buf`'s allocation (cleared, grown
    /// if it must be).
    pub(crate) fn new(mut buf: Vec<T>, n: usize) -> Self {
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
    /// memory safety needs, and the only one a release build makes: a
    /// second, against `n`, costs the local sync's emission loop a
    /// third of its time (ledger, `pr-eager-engine`). A slot between
    /// `n` and the capacity is written and never read.
    #[inline]
    pub(crate) fn write(&mut self, slot: u32, value: T) {
        debug_assert!((slot as usize) < self.n, "slot {slot} of {}", self.n);
        self.buf.spare_capacity_mut()[slot as usize].write(value);
    }

    /// Moves the value written to `slot` back out.
    ///
    /// # Safety
    ///
    /// `slot` has been written since this writer was made, and the
    /// value written last has not been taken before.
    pub(crate) unsafe fn take(&mut self, slot: u32) -> T {
        // SAFETY: the caller guarantees the slot holds an initialised
        // value that nothing else will read or drop.
        unsafe { self.buf.spare_capacity_mut()[slot as usize].assume_init_read() }
    }

    /// The filled buffer, as a vector of length `n`.
    ///
    /// # Safety
    ///
    /// Every slot below `n` has been written exactly once and not taken.
    pub(crate) unsafe fn finish(mut self) -> Vec<T> {
        // SAFETY: `new` reserved capacity for `n`, and the caller
        // guarantees the first `n` elements are initialised.
        unsafe { self.buf.set_len(self.n) };
        self.buf
    }

    /// Abandons the fill: the allocation, empty. Values written and not
    /// taken leak.
    pub(crate) fn into_buffer(self) -> Vec<T> {
        self.buf
    }
}

/// The radix grouping of a key sequence: writes each key's first-seen
/// group id to `gids` and returns, per group id, the first output slot
/// of that group when groups are laid out in ascending key order. Input
/// `i` then belongs at the slot its group's cursor shows, the cursor
/// advancing once per member — slots `0..n`, each exactly once.
fn radix_cursors<'k, K: Key>(
    keys: impl ExactSizeIterator<Item = &'k K>,
    gids: &mut Vec<u32>,
) -> Vec<u32> {
    // Group ids, per-group counts and cursors are all bounded by n.
    index_u32(keys.len());
    let mut id_of: StableHashMap<K, u32> = StableHashMap::default();
    let mut distinct: Vec<K> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    gids.clear();
    gids.reserve(keys.len());
    for k in keys {
        let g = match id_of.get(k) {
            Some(&g) => g,
            None => {
                let g = distinct.len() as u32;
                id_of.insert(k.clone(), g);
                distinct.push(k.clone());
                counts.push(0);
                g
            }
        };
        counts[g as usize] += 1;
        gids.push(g);
    }
    // Sort only the distinct keys; each group id learns its output
    // range's start slot from the sorted order's prefix sums.
    let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| distinct[a as usize].cmp(&distinct[b as usize]));
    let mut next = vec![0u32; distinct.len()];
    let mut cursor = 0u32;
    for &gid in &order {
        next[gid as usize] = cursor;
        cursor += counts[gid as usize];
    }
    next
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

/// One reducer's input, grouped by key via stable sort + run detection.
///
/// Internally two parallel arrays (`keys[i]` owns `values[i]`'s key), so
/// each group's values are a contiguous `&[V]` without per-key `Vec`
/// allocation. Keys ascend; duplicate keys are adjacent.
#[derive(Debug)]
pub struct Grouped<K, V> {
    keys: Vec<K>,
    values: Vec<V>,
}

impl<K: Key, V: Value> Grouped<K, V> {
    /// Groups `pairs` (allocating fresh buffers).
    pub fn from_pairs(pairs: Vec<(K, V)>) -> Self {
        Self::from_pairs_reusing(pairs, &mut ShuffleScratch::default())
    }

    /// Groups `pairs`, recycling buffers from `scratch`; the drained
    /// input allocation is shelved back into `scratch` for the next
    /// round.
    ///
    /// The sort is *stable*, so values keep their concatenation order
    /// within each key — the determinism contract the `BTreeMap`
    /// reference establishes.
    pub fn from_pairs_reusing(mut pairs: Vec<(K, V)>, scratch: &mut ShuffleScratch<K, V>) -> Self {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut keys = std::mem::take(&mut scratch.keys);
        let mut values = std::mem::take(&mut scratch.values);
        keys.clear();
        values.clear();
        keys.reserve(pairs.len());
        values.reserve(pairs.len());
        for (k, v) in pairs.drain(..) {
            keys.push(k);
            values.push(v);
        }
        scratch.offer_pairs(pairs);
        Grouped { keys, values }
    }

    /// Groups `pairs` via the radix path (allocating fresh buffers).
    pub fn from_pairs_radix(pairs: Vec<(K, V)>) -> Self {
        Self::from_pairs_radix_reusing(pairs, &mut ShuffleScratch::default())
    }

    /// Groups `pairs` with `strategy`, recycling buffers from `scratch`.
    pub fn from_pairs_using(
        strategy: GroupingStrategy,
        pairs: Vec<(K, V)>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        match strategy {
            GroupingStrategy::Sort => Self::from_pairs_reusing(pairs, scratch),
            GroupingStrategy::Radix => Self::from_pairs_radix_reusing(pairs, scratch),
        }
    }

    /// Groups `pairs` without a comparison sort over the full input:
    /// each pair gets a first-seen group id via one stable-hash lookup,
    /// only the distinct keys are sorted, and a counting scatter moves
    /// every pair straight to its final slot. `O(n + g log g)` for `n`
    /// pairs over `g` distinct keys, versus `O(n log n)` for
    /// [`Grouped::from_pairs_reusing`] — byte-identical output by
    /// construction (ascending keys; within a key, concatenation order
    /// is preserved because pairs scatter in input order).
    pub fn from_pairs_radix_reusing(
        mut pairs: Vec<(K, V)>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        let n = pairs.len();
        let mut gids = std::mem::take(&mut scratch.slots);
        let mut next = radix_cursors(pairs.iter().map(|(k, _)| k), &mut gids);
        // Scatter into recycled buffers.
        let mut keys = SlotWriter::new(std::mem::take(&mut scratch.keys), n);
        let mut values = SlotWriter::new(std::mem::take(&mut scratch.values), n);
        for (i, (k, v)) in pairs.drain(..).enumerate() {
            let slot = &mut next[gids[i] as usize];
            keys.write(*slot, k);
            values.write(*slot, v);
            *slot += 1;
        }
        // SAFETY: the groups' output ranges partition 0..n and each
        // group's cursor advanced once per member, so every slot below
        // n of both arrays was written exactly once.
        let (keys, values) = unsafe { (keys.finish(), values.finish()) };
        scratch.offer_pairs(pairs);
        gids.clear();
        scratch.slots = gids;
        Grouped { keys, values }
    }

    /// Groups one reduce partition's `buckets` (in map-task order)
    /// through `plan`; also returns what became of the plan.
    ///
    /// The buckets' concatenation is verified against the key sequence
    /// `plan` was built for (checked on every call, in every build),
    /// and on a hit keys and values scatter from the buckets straight to
    /// their remembered slots — `O(n)` moves, no concatenation, no
    /// comparison sort. Otherwise the plan is dropped and the input
    /// is either grouped unplanned — [`concat_buckets`] then
    /// [`Grouped::from_pairs_using`] — or, when the plan's `Backoff`
    /// says it is time, recorded the way `strategy` names and scattered.
    /// The output is byte-identical in all three cases, for either
    /// strategy.
    pub fn from_buckets_planned(
        mut buckets: Vec<Vec<(K, V)>>,
        strategy: GroupingStrategy,
        plan: &mut GroupPlan<K>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> (Self, PlanOutcome) {
        let outcome = if plan.matches(&buckets) {
            plan.backoff.hit();
            PlanOutcome::Hit
        } else {
            let stale = plan.records() > 0;
            plan.forget();
            if !plan.backoff.record_now(stale) {
                let pairs = concat_buckets(buckets, scratch);
                return (Self::from_pairs_using(strategy, pairs, scratch), PlanOutcome::Unplanned);
            }
            match strategy {
                GroupingStrategy::Sort => plan.record(&buckets, &mut scratch.slots),
                GroupingStrategy::Radix => plan.record_radix(&buckets, &mut scratch.slots),
            }
            PlanOutcome::Recorded
        };
        (Self::scatter_planned(&mut buckets, plan, scratch), outcome)
    }

    /// Drains `chunks`, moving every key and value to its slot in
    /// `plan`, which the caller has just verified against (or recorded
    /// from) `chunks`.
    fn scatter_planned(
        chunks: &mut Chunks<K, V>,
        plan: &GroupPlan<K>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        let n = plan.slots.len();
        let mut keys = SlotWriter::new(std::mem::take(&mut scratch.keys), n);
        let mut values = SlotWriter::new(std::mem::take(&mut scratch.values), n);
        let mut done = 0;
        for chunk in chunks {
            let slots = &plan.slots[done..done + chunk.len()];
            done += chunk.len();
            for ((k, v), &slot) in chunk.drain(..).zip(slots) {
                keys.write(slot, k);
                values.write(slot, v);
            }
        }
        assert_eq!(done, n, "a grouping plan must cover its input exactly");
        // SAFETY: `plan` matches `chunks` (verified or just recorded by
        // the caller, re-checked by the assert): the chunks held n
        // pairs, pair i was written to `plan.slots[i]`, and
        // `plan.slots` is a permutation of 0..n (both `record*`
        // methods assign each output position to exactly one input
        // index), so every slot below n of both arrays was written
        // exactly once.
        let (keys, values) = unsafe { (keys.finish(), values.finish()) };
        Grouped { keys, values }
    }

    /// Calls `f` once per key group, keys ascending.
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(GroupView<'_, K, V>),
    {
        let n = self.keys.len();
        let mut lo = 0;
        while lo < n {
            let mut hi = lo + 1;
            while hi < n && self.keys[hi] == self.keys[lo] {
                hi += 1;
            }
            f(GroupView { key: &self.keys[lo], values: &self.values[lo..hi] });
            lo = hi;
        }
    }

    /// Total records (across all groups).
    pub fn records(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of distinct keys.
    pub fn num_groups(&self) -> usize {
        let mut groups = 0;
        self.for_each(|_| groups += 1);
        groups
    }

    /// Returns the backing buffers to `scratch` (cleared, capacity
    /// kept) for the next job.
    pub fn recycle_into(mut self, scratch: &mut ShuffleScratch<K, V>) {
        self.keys.clear();
        self.values.clear();
        scratch.keys = self.keys;
        scratch.values = self.values;
    }
}

/// Groups one reducer's input (concatenated map buckets, in map-task
/// order) into `(key, values)` with keys ascending.
///
/// This is the original `BTreeMap` formulation, **kept as the
/// behavioral reference**: the engine's hot path uses [`Grouped`], and
/// tests/benches assert both produce identical output. Prefer
/// [`Grouped`] in new engine code.
pub fn group<K: Key, V: Value>(input: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (k, v) in input {
        grouped.entry(k).or_default().push(v);
    }
    grouped.into_iter().collect()
}

/// Map-side combining: groups a single task's output by key and folds
/// each group with the combiner function. Returns the combined pairs
/// (keys ascending) — this runs *before* [`route`].
pub fn combine_local<K: Key, V: Value>(
    pairs: Vec<(K, V)>,
    combine: impl Fn(&K, &[V]) -> V,
) -> Vec<(K, V)> {
    let grouped = Grouped::from_pairs(pairs);
    let mut out = Vec::new();
    grouped.for_each(|g| out.push((g.key.clone(), combine(g.key, g.values))));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn grouped_matches_reference_on_interleaved_keys() {
        let input = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let reference = group(input.clone());
        let grouped = Grouped::from_pairs(input);
        let mut got: Vec<(u32, Vec<char>)> = Vec::new();
        grouped.for_each(|g| got.push((*g.key, g.values.to_vec())));
        assert_eq!(got, reference);
        assert_eq!(grouped.records(), 5);
        assert_eq!(grouped.num_groups(), 3);
    }

    #[test]
    fn grouped_empty() {
        let grouped: Grouped<u32, u32> = Grouped::from_pairs(Vec::new());
        assert!(grouped.is_empty());
        let mut called = false;
        grouped.for_each(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn scratch_recycles_capacity() {
        let mut scratch: ShuffleScratch<u32, u64> = ShuffleScratch::default();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_reusing(pairs, &mut scratch);
        assert_eq!(grouped.records(), 1000);
        grouped.recycle_into(&mut scratch);
        let before = scratch.capacity();
        assert!(before >= 3000, "all three buffers shelved: {before}");
        // Second round must not grow the scratch (same shape workload).
        let pairs: Vec<(u32, u64)> = concat_buckets(
            vec![
                (0..500).map(|i| (i % 7, u64::from(i))).collect(),
                (0..500).map(|i| (i % 5, u64::from(i))).collect(),
            ],
            &mut scratch,
        );
        let grouped = Grouped::from_pairs_reusing(pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        assert!(scratch.capacity() >= before, "capacity retained across rounds");
    }

    /// Flattens a `Grouped` into the reference `(key, values)` shape.
    fn collect<K: Key, V: Value>(g: &Grouped<K, V>) -> Vec<(K, Vec<V>)> {
        let mut out = Vec::new();
        g.for_each(|view| out.push((view.key.clone(), view.values.to_vec())));
        out
    }

    #[test]
    fn radix_matches_sort_on_interleaved_keys() {
        let input = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let sorted = Grouped::from_pairs(input.clone());
        let radix = Grouped::from_pairs_radix(input);
        assert_eq!(collect(&radix), collect(&sorted));
        assert_eq!(radix.records(), 5);
        assert_eq!(radix.num_groups(), 3);
    }

    #[test]
    fn radix_empty() {
        let grouped: Grouped<u32, u32> = Grouped::from_pairs_radix(Vec::new());
        assert!(grouped.is_empty());
        let mut called = false;
        grouped.for_each(|_| called = true);
        assert!(!called);
    }

    #[test]
    fn radix_heavy_duplication_preserves_value_order() {
        // Many values per key (the graph-workload shape radix targets).
        let pairs: Vec<(u32, u64)> = (0..5000).map(|i| (i % 3, u64::from(i))).collect();
        let sorted = Grouped::from_pairs(pairs.clone());
        let radix = Grouped::from_pairs_radix(pairs);
        assert_eq!(collect(&radix), collect(&sorted));
    }

    #[test]
    fn radix_recycles_scratch_including_slots() {
        let mut scratch: ShuffleScratch<u32, u64> = ShuffleScratch::default();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_radix_reusing(pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        assert!(scratch.slots.capacity() >= 1000, "gid buffer shelved");
        let before = scratch.capacity();
        let pairs: Vec<(u32, u64)> = (0..1000).map(|i| (i % 7, u64::from(i))).collect();
        let grouped = Grouped::from_pairs_radix_reusing(pairs, &mut scratch);
        grouped.recycle_into(&mut scratch);
        assert!(scratch.capacity() >= before, "capacity retained across rounds");
    }

    #[test]
    fn from_pairs_using_dispatches_both_strategies() {
        let input = vec![(9u32, 'x'), (2, 'y'), (9, 'z')];
        for strategy in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
            let mut scratch = ShuffleScratch::default();
            let g = Grouped::from_pairs_using(strategy, input.clone(), &mut scratch);
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

    use PlanOutcome::{Hit, Recorded, Unplanned};

    #[test]
    fn backoff_sits_out_the_first_input_and_doubles_while_plans_go_stale() {
        let mut backoff = Backoff::default();
        assert!(!backoff.record_now(false), "a one-shot input records nothing");
        assert!(backoff.record_now(false), "the second sighting records");
        // Every recording goes stale at once: 1, 2, 4 … inputs sat out.
        for sat_out in [1, 2, 4, 8, 16, 32, 64, 64] {
            assert!(!backoff.record_now(true));
            for _ in 1..sat_out {
                assert!(!backoff.record_now(false));
            }
            assert!(backoff.record_now(false), "after sitting out {sat_out}");
        }
        backoff.hit();
        assert!(!backoff.record_now(true), "a hit resets the series to one input");
        assert!(backoff.record_now(false));
    }

    #[test]
    fn route_plan_hits_only_on_the_same_keys_and_partition_count() {
        let pairs: Vec<(u32, char)> = vec![(5, 'a'), (9, 'b'), (5, 'c'), (2, 'd')];
        let mut plan = RoutePlan::default();
        assert_eq!(plan.records(), 0);
        for (input, reducers, want) in [
            (pairs.clone(), 3, Unplanned), // first sight
            (pairs.clone(), 3, Recorded),
            (pairs.clone(), 3, Hit),
            (vec![(5, 'x'), (9, 'y'), (5, 'z'), (2, 'w')], 3, Hit), // values are free
            (vec![(5, 'a'), (9, 'b'), (6, 'c'), (2, 'd')], 3, Unplanned), // one key, same length
            (pairs.clone(), 3, Recorded),
            (pairs.clone(), 4, Unplanned), // same keys, other partition count
            (pairs.clone(), 4, Unplanned), // second stale recording in a row: sits out two
            (pairs[..3].to_vec(), 4, Recorded),
        ] {
            let (buckets, outcome) = route_planned(input.clone(), reducers, &mut plan);
            assert_eq!(buckets, route(input.clone(), reducers));
            assert_eq!(outcome, want, "{input:?} into {reducers}");
            assert_eq!(plan.records(), input.len());
        }
    }

    #[test]
    fn planned_buckets_match_concat_then_group_for_both_strategies() {
        let buckets = vec![vec![(3u32, 'a'), (1, 'b')], vec![(3, 'c')], vec![(2, 'd'), (1, 'e')]];
        let want = group(buckets.concat());
        for strategy in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
            let (mut plan, mut scratch) = (GroupPlan::default(), ShuffleScratch::default());
            for want_outcome in [Unplanned, Recorded, Hit, Hit] {
                let (grouped, outcome) = Grouped::from_buckets_planned(
                    buckets.clone(),
                    strategy,
                    &mut plan,
                    &mut scratch,
                );
                assert_eq!(collect(&grouped), want);
                assert_eq!(outcome, want_outcome);
                grouped.recycle_into(&mut scratch);
            }
            assert_eq!(plan.records(), 5);
            // Bucket boundaries are not part of the key sequence.
            let rebucketed = vec![buckets.concat()];
            let (grouped, outcome) =
                Grouped::from_buckets_planned(rebucketed, strategy, &mut plan, &mut scratch);
            assert_eq!(outcome, Hit);
            assert_eq!(collect(&grouped), want);
        }
    }

    /// A heap-ish key that counts its clones: what a plan costs a job
    /// whose keys are not `Copy`.
    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Counted(u32);

    thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
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
        let clones = |f: &mut dyn FnMut() -> PlanOutcome| {
            let before = CLONES.with(std::cell::Cell::get);
            let outcome = f();
            (outcome, CLONES.with(std::cell::Cell::get) - before)
        };
        let mut plan = RoutePlan::default();
        let mut route_once = || route_planned(input(), 3, &mut plan).1;
        assert_eq!(clones(&mut route_once), (Unplanned, 0));
        assert_eq!(clones(&mut route_once), (Recorded, 40));
        assert_eq!(clones(&mut route_once), (Hit, 0));

        let (mut plan, mut scratch) = (GroupPlan::default(), ShuffleScratch::default());
        let mut group_once = || {
            let buckets = vec![input(), input()];
            let strategy = GroupingStrategy::Sort;
            let (grouped, outcome) =
                Grouped::from_buckets_planned(buckets, strategy, &mut plan, &mut scratch);
            grouped.recycle_into(&mut scratch);
            outcome
        };
        assert_eq!(clones(&mut group_once), (Unplanned, 0));
        assert_eq!(clones(&mut group_once), (Recorded, 80));
        assert_eq!(clones(&mut group_once), (Hit, 0));
    }

    #[test]
    fn combine_local_folds_groups() {
        let pairs = vec![(1u32, 2u64), (2, 5), (1, 3)];
        let combined = combine_local(pairs, |_, vs| vs.iter().sum());
        assert_eq!(combined, vec![(1, 5), (2, 5)]);
    }

    #[test]
    #[should_panic(expected = "at least one reducer")]
    fn zero_reducers_panics() {
        let _ = route(vec![(1u32, 1u32)], 0);
    }
}
