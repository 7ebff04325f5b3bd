//! The shuffle: routing, grouping, and deterministic ordering.
//!
//! Hadoop's shuffle hashes keys to reducers, then sorts each reducer's
//! input by key so `reduce` sees contiguous groups. We reproduce the
//! same contract: [`route`] splits each map task's output by stable
//! key hash, and grouping produces key groups in ascending key order
//! with values ordered by (map task, emission index) — fully
//! deterministic.
//!
//! Two grouping implementations exist:
//!
//! * [`Grouped`] — the **hot path**: the moved-in pairs are permuted
//!   into parallel `keys`/`values` arrays (keys ascending), with run
//!   detection yielding contiguous [`GroupView`] slices. No per-key
//!   `Vec` allocations, no value clones, and all backing buffers are
//!   recyclable through [`ShuffleScratch`] across the hundreds of jobs
//!   an iterative driver issues. Its constructors differ only in how
//!   the permutation is found — a stable sort or a radix scatter per
//!   call ([`GroupingStrategy`], the engine's reduce tasks), or a
//!   remembered, re-verified [`GroupPlan`] (the local sync of
//!   [`crate::local::EagerMapper`], whose key sequence repeats pass
//!   after pass) — and produce byte-identical arrays.
//! * [`group`] — the original `BTreeMap` formulation, **kept as the
//!   behavioral reference** for property tests. Both produce
//!   byte-identical group order.

use std::collections::BTreeMap;

use crate::hash::{reducer_for, StableHashMap};
use crate::kv::{Key, Value};

/// Which grouping implementation a job's reduce tasks use.
///
/// Both strategies produce **byte-identical** [`Grouped`] arrays (keys
/// ascending, values in concatenation order within each key) — pinned
/// by the radix/sort equivalence tests. They differ only in how the
/// permutation is computed:
///
/// * [`GroupingStrategy::Sort`] — stable comparison sort over all `n`
///   pairs: `O(n log n)` comparisons, the right default when keys are
///   mostly distinct.
/// * [`GroupingStrategy::Radix`] — hash-grouping: assign each pair a
///   first-seen group id (one stable-hash lookup per pair), sort only
///   the `g` *distinct* keys, then counting-scatter every pair straight
///   to its final slot: `O(n + g log g)`. Wins when duplicate keys
///   dominate (`g ≪ n`), which is exactly the shape of iterative graph
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
    /// Per-pair index buffer: group ids on the radix path, the sort
    /// order while a [`GroupPlan`] is rebuilt (untyped in K/V, so it
    /// recycles across jobs of any shape).
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
/// change. The plan remembers the key sequence it was built for, where
/// each input index lands in the grouped output, and the grouped key
/// array. [`Grouped::from_pairs_planned`] **verifies** the remembered
/// sequence against every new input — an `O(n)` equality scan, never
/// skipped — and rebuilds the plan when it differs, so a task whose
/// keys churn (K-Means reassignments) is only slower, never wrong.
///
/// Sized to one task's records (two `K` arrays and one `u32` array)
/// and owned by that task.
#[derive(Debug)]
pub struct GroupPlan<K> {
    /// The key sequence the plan was built for, in emission order.
    input_keys: Vec<K>,
    /// `slots[i]` is the output index of input pair `i`: a permutation
    /// of `0..input_keys.len()` (the scatter's safety rests on this, so
    /// only [`GroupPlan::rebuild`] writes it).
    slots: Vec<u32>,
    /// `input_keys` in grouped order: ascending, duplicates adjacent.
    sorted_keys: Vec<K>,
}

impl<K> Default for GroupPlan<K> {
    fn default() -> Self {
        GroupPlan { input_keys: Vec::new(), slots: Vec::new(), sorted_keys: Vec::new() }
    }
}

impl<K: Key> GroupPlan<K> {
    /// Whether `pairs` carries exactly the key sequence this plan was
    /// built for.
    fn matches<V>(&self, pairs: &[(K, V)]) -> bool {
        pairs.len() == self.input_keys.len()
            && pairs.iter().zip(&self.input_keys).all(|((k, _), planned)| k == planned)
    }

    /// Rebuilds the plan for `pairs`' key sequence with one index sort
    /// (`order` is a recycled temporary). Ties break by input index, so
    /// values keep emission order within a key — the permutation a
    /// stable sort of the pairs themselves would apply.
    fn rebuild<V>(&mut self, pairs: &[(K, V)], order: &mut Vec<u32>) {
        let n = pairs.len();
        assert!(u32::try_from(n).is_ok(), "a grouping plan indexes records with u32, got {n}");
        self.input_keys.clear();
        self.input_keys.extend(pairs.iter().map(|(k, _)| k.clone()));
        let keys = &self.input_keys;
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]).then(a.cmp(&b)));
        self.slots.clear();
        self.slots.resize(n, 0);
        self.sorted_keys.clear();
        self.sorted_keys.reserve(n);
        for (slot, &i) in order.iter().enumerate() {
            self.slots[i as usize] = slot as u32;
            self.sorted_keys.push(keys[i as usize].clone());
        }
        order.clear();
    }
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
        // Pass 1: first-seen group ids + per-group counts.
        let mut id_of: StableHashMap<K, u32> = StableHashMap::default();
        let mut distinct: Vec<K> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut gids = std::mem::take(&mut scratch.slots);
        gids.clear();
        gids.reserve(n);
        for (k, _) in &pairs {
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
        let g = distinct.len();
        let mut order: Vec<u32> = (0..g as u32).collect();
        order.sort_unstable_by(|&a, &b| distinct[a as usize].cmp(&distinct[b as usize]));
        let mut next = vec![0u32; g]; // group id → next free output slot
        let mut cursor = 0u32;
        for &gid in &order {
            next[gid as usize] = cursor;
            cursor += counts[gid as usize];
        }
        // Scatter into recycled buffers.
        let mut keys = std::mem::take(&mut scratch.keys);
        let mut values = std::mem::take(&mut scratch.values);
        keys.clear();
        values.clear();
        keys.reserve(n);
        values.reserve(n);
        {
            let key_slots = keys.spare_capacity_mut();
            let value_slots = values.spare_capacity_mut();
            for (i, (k, v)) in pairs.drain(..).enumerate() {
                let slot = &mut next[gids[i] as usize];
                let d = *slot as usize;
                *slot += 1;
                key_slots[d].write(k);
                value_slots[d].write(v);
            }
        }
        // SAFETY: the groups' output ranges partition 0..n and each
        // group's cursor advanced once per member, so every slot below
        // n was initialized exactly once; nothing between the writes
        // and here can panic.
        unsafe {
            keys.set_len(n);
            values.set_len(n);
        }
        scratch.offer_pairs(pairs);
        gids.clear();
        scratch.slots = gids;
        Grouped { keys, values }
    }

    /// Groups `pairs` through `plan`, recycling buffers from `scratch`.
    ///
    /// If `pairs` carries the key sequence `plan` was built for (checked
    /// on every call, in every build) the values scatter straight to
    /// their remembered slots and the keys are the plan's grouped
    /// array: `O(n)` moves, no comparison sort. Otherwise the plan is
    /// rebuilt first (`O(n log n)`, once per new key sequence). Either
    /// way the output is byte-identical to
    /// [`Grouped::from_pairs_reusing`].
    pub fn from_pairs_planned(
        mut pairs: Vec<(K, V)>,
        plan: &mut GroupPlan<K>,
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        if !plan.matches(&pairs) {
            plan.rebuild(&pairs, &mut scratch.slots);
        }
        let n = pairs.len();
        let mut keys = std::mem::take(&mut scratch.keys);
        let mut values = std::mem::take(&mut scratch.values);
        keys.clear();
        values.clear();
        keys.extend_from_slice(&plan.sorted_keys);
        values.reserve(n);
        {
            let value_slots = values.spare_capacity_mut();
            for ((_, v), &slot) in pairs.drain(..).zip(&plan.slots) {
                value_slots[slot as usize].write(v);
            }
        }
        // SAFETY: `plan` matches `pairs` (verified or just rebuilt), so
        // `plan.slots` has length n and is a permutation of 0..n
        // (`GroupPlan::rebuild` assigns each sorted position to exactly
        // one input index): every slot below n was initialized exactly
        // once. Nothing between the writes and here can panic.
        unsafe {
            values.set_len(n);
        }
        scratch.offer_pairs(pairs);
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
