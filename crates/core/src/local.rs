//! Partial synchronization: local MapReduce inside a global map.
//!
//! This module implements the heart of the paper — the two-level
//! scheme of §IV and the `gmap` construction of Figure 1:
//!
//! ```text
//! gmap(xs : X list) {
//!   while (no-local-convergence-intimated) {
//!     for each element x in xs { lmap(x); }   // emits lkey, lval
//!     lreduce();   // operates on the output of lmap functions
//!   }
//!   for each value in lreduce-output { EmitIntermediate(key, value); }
//! }
//! ```
//!
//! `xs` is the partition handed to the `gmap` task; "a hashtable is
//! used to store the intermediate and final results of the local
//! MapReduce" (paper §V-A). Accordingly, [`LocalAlgorithm::lmap`] runs
//! over the partition's [items](LocalAlgorithm::items) with *read*
//! access to the current hashtable ([`LocalState`]), and
//! [`LocalAlgorithm::lreduce`] writes the next hashtable via
//! `EmitLocal`.
//!
//! An application supplies `lmap`, `lreduce`, a local-convergence test,
//! and the input/state conversion functions (paper: "the user must
//! provide functions for termination of global and local MapReduce
//! iterations, and functions to convert data into the formats required
//! by the local map and local reduce functions"). [`EagerMapper`] then
//! *is* the `gmap`: a [`crate::Mapper`] whose every task iterates its
//! partition to local convergence with only partial (in-task)
//! synchronizations — no cross-partition barrier — before the global
//! reduce. That absence of a barrier is the paper's eager scheduling;
//! each `lreduce` pass is one *partial synchronization*, counted in
//! [`crate::TaskMeter::local_syncs`].

use std::fmt;
use std::ops::Index;

use crate::emitter::MapContext;
use crate::kv::{Key, Meterable, Value};
use crate::shuffle::{GroupPlan, Grouped, ShuffleScratch};
use crate::traits::Mapper;

/// Default for [`LocalAlgorithm::max_local_iterations`] — the one
/// definition of the local-iteration cap, shared by the flat session
/// kernels so they stop where the eager formulations stop.
pub const DEFAULT_MAX_LOCAL_ITERATIONS: usize = 10_000;

/// The local-state "hashtable" of paper Figure 1 ("a hashtable is used
/// to store the intermediate and final results of the local MapReduce",
/// §V-A), kept as one key-ascending `Vec<(K, V)>`.
///
/// It has a map's interface — [`get`](LocalState::get) by binary
/// search, [`insert`](LocalState::insert), `state[&key]`, iteration —
/// but a local sync never uses it as a general map: `lreduce` sees its
/// groups key-ascending, so [`LocalReduceContext::emit_local`] just
/// *appends*; a pass's state is built once, read many times and retired
/// whole, so its buffer is handed to the next pass instead of being
/// freed node by node. Every traversal is in ascending key order —
/// the determinism the bitwise contracts need and a hashed table would
/// not give.
#[derive(Clone, PartialEq)]
pub struct LocalState<K, V> {
    /// Keys strictly ascending.
    entries: Vec<(K, V)>,
}

/// `(&K, &V)` view of one entry, for [`LocalState::iter`].
fn entry_refs<K, V>(entry: &(K, V)) -> (&K, &V) {
    (&entry.0, &entry.1)
}

impl<K, V> LocalState<K, V> {
    /// An empty state.
    pub fn new() -> Self {
        LocalState { entries: Vec::new() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the state has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries as `(&key, &value)`, keys ascending.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.into_iter()
    }

    /// The backing buffer, emptied, for the next pass to fill.
    fn into_buffer(mut self) -> Vec<(K, V)> {
        self.entries.clear();
        self.entries
    }
}

impl<K: Ord, V> LocalState<K, V> {
    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let at = self.entries.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
        Some(&self.entries[at].1)
    }

    /// Stores `value` under `key`, returning the value it replaces.
    /// `O(len)` for a new key — bulk writes go through
    /// [`LocalReduceContext::emit_local`] or `collect()`.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (key, value));
                None
            }
        }
    }

    /// Builds the state from entries written in any order: a later
    /// write to a key replaces an earlier one (what inserting them one
    /// by one would do). Already-ascending input — every `lreduce` that
    /// emits its own key — costs one scan.
    fn from_writes(mut entries: Vec<(K, V)>) -> Self {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // The sort is stable, so each key's writes are adjacent in
            // write order; fold every later one into the kept first.
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
        LocalState { entries }
    }
}

impl<K, V> Default for LocalState<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for LocalState<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord, V> Index<&K> for LocalState<K, V> {
    type Output = V;

    /// Panics if `key` is absent.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for LocalState<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self::from_writes(iter.into_iter().collect())
    }
}

impl<'a, K, V> IntoIterator for &'a LocalState<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Map<std::slice::Iter<'a, (K, V)>, fn(&'a (K, V)) -> Self::Item>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(entry_refs)
    }
}

/// Context for [`LocalAlgorithm::lmap`] — the paper's
/// `EmitLocalIntermediate` plus op metering.
#[derive(Debug)]
pub struct LocalMapContext<K, V> {
    intermediate: Vec<(K, V)>,
    ops: u64,
}

impl<K: Key, V: Value> LocalMapContext<K, V> {
    /// A context emitting into a recycled (cleared) buffer.
    fn reusing(buffer: Vec<(K, V)>) -> Self {
        debug_assert!(buffer.is_empty());
        LocalMapContext { intermediate: buffer, ops: 0 }
    }

    /// The paper's `EmitLocalIntermediate(key, value)`: feeds the next
    /// `lreduce` *within this partition only*.
    #[inline]
    pub fn emit_local_intermediate(&mut self, key: K, value: V) {
        self.intermediate.push((key, value));
    }

    /// Meters `n` abstract operations.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }
}

/// Context for [`LocalAlgorithm::lreduce`] — the paper's `EmitLocal`
/// plus op metering.
#[derive(Debug)]
pub struct LocalReduceContext<K, V> {
    /// The next state's entries in emission order.
    emitted: Vec<(K, V)>,
    ops: u64,
}

impl<K: Key, V: Value> LocalReduceContext<K, V> {
    /// A context emitting into a recycled (cleared) buffer.
    fn reusing(buffer: Vec<(K, V)>) -> Self {
        debug_assert!(buffer.is_empty());
        LocalReduceContext { emitted: buffer, ops: 0 }
    }

    /// The paper's `EmitLocal(key, value)`: writes an entry of the new
    /// local state; writing a key again replaces its value. At local
    /// convergence this state becomes the gmap's global emissions;
    /// otherwise the next `lmap` pass reads it.
    #[inline]
    pub fn emit_local(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// Meters `n` abstract operations.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }
}

/// An iterative algorithm expressed as local map/reduce over one
/// partition — the ingredients of the paper's `gmap` (Fig. 1).
pub trait LocalAlgorithm: Send + Sync {
    /// The partition handed to each `gmap` task (the paper's `xs`,
    /// plus any read-only structure such as adjacency).
    type Input: Send + Sync;
    /// One element of `xs` (a node, a point, …).
    type Item: Sync;
    /// Local (and global-intermediate) key.
    type Key: Key;
    /// Local (and global-intermediate) value.
    type Value: Value;

    /// The `xs` list inside the partition.
    fn items<'a>(&self, input: &'a Self::Input) -> &'a [Self::Item];

    /// Builds the initial local-state hashtable from the partition
    /// ("functions to convert data into the formats required by the
    /// local map and local reduce", §IV).
    fn init_state(&self, task: usize, input: &Self::Input) -> Vec<(Self::Key, Self::Value)>;

    /// The paper's `lmap`: processes one element of `xs`, reading the
    /// current hashtable and emitting via
    /// [`LocalMapContext::emit_local_intermediate`].
    fn lmap(
        &self,
        task: usize,
        input: &Self::Input,
        item: &Self::Item,
        state: &LocalState<Self::Key, Self::Value>,
        ctx: &mut LocalMapContext<Self::Key, Self::Value>,
    );

    /// The paper's `lreduce`: folds one intermediate key group into the
    /// new hashtable via [`LocalReduceContext::emit_local`].
    fn lreduce(
        &self,
        task: usize,
        input: &Self::Input,
        key: &Self::Key,
        values: &[Self::Value],
        ctx: &mut LocalReduceContext<Self::Key, Self::Value>,
    );

    /// Hook after each `lreduce` barrier, before the convergence test.
    /// The default does nothing; algorithms use it to carry forward
    /// entries that received no intermediate data this pass (e.g.
    /// centroids that attracted no points).
    fn post_lreduce(
        &self,
        task: usize,
        input: &Self::Input,
        old: &LocalState<Self::Key, Self::Value>,
        new: &mut LocalState<Self::Key, Self::Value>,
    ) {
        let _ = (task, input, old, new);
    }

    /// Local termination test ("no-local-convergence-intimated").
    fn locally_converged(
        &self,
        old: &LocalState<Self::Key, Self::Value>,
        new: &LocalState<Self::Key, Self::Value>,
    ) -> bool;

    /// Safety valve on local iterations (default
    /// [`DEFAULT_MAX_LOCAL_ITERATIONS`]).
    fn max_local_iterations(&self) -> usize {
        DEFAULT_MAX_LOCAL_ITERATIONS
    }

    /// Size of this partition's input split in bytes, for the
    /// simulator's DFS-read accounting. Defaults to the initial state's
    /// metered size; override when the partition carries bulk data the
    /// state does not (e.g. the point set in K-Means).
    fn input_bytes(&self, task: usize, input: &Self::Input) -> Option<u64> {
        let _ = (task, input);
        None
    }

    /// Global emissions after local convergence. The default dumps the
    /// final hashtable — exactly paper Fig. 1. Override to emit
    /// cross-partition messages (e.g. boundary contributions) too.
    fn finalize(
        &self,
        task: usize,
        input: &Self::Input,
        state: &LocalState<Self::Key, Self::Value>,
        ctx: &mut MapContext<Self::Key, Self::Value>,
    ) {
        let _ = (task, input);
        for (k, v) in state {
            ctx.emit_intermediate(k.clone(), v.clone());
        }
    }
}

/// The paper's `gmap`: wraps a [`LocalAlgorithm`] into a [`Mapper`]
/// whose tasks iterate `lmap`/`lreduce` to local convergence before
/// emitting globally (Fig. 1). Framework record-handling work is
/// metered automatically; algorithm ops are whatever the `lmap` /
/// `lreduce` implementations add.
#[derive(Debug, Clone, Copy)]
pub struct EagerMapper<L> {
    algo: L,
}

impl<L: LocalAlgorithm> EagerMapper<L> {
    /// Wraps `algo`.
    pub fn new(algo: L) -> Self {
        EagerMapper { algo }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &L {
        &self.algo
    }
}

impl<L: LocalAlgorithm> Mapper for EagerMapper<L> {
    type Input = L::Input;
    type Key = L::Key;
    type Value = L::Value;

    fn map(&self, task: usize, input: &Self::Input, ctx: &mut MapContext<Self::Key, Self::Value>) {
        let mut state: LocalState<L::Key, L::Value> =
            self.algo.init_state(task, input).into_iter().collect();
        let input_bytes = self.algo.input_bytes(task, input).unwrap_or_else(|| {
            state.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum()
        });
        ctx.meter.set_input_bytes(input_bytes);
        let items = self.algo.items(input);

        // One scratch set serves every local iteration of this task:
        // the intermediate buffer, the group arrays and the state
        // buffers stop allocating after the first pass, and `plan`
        // turns every grouping after the first into a verified scatter
        // (see `crate::shuffle::GroupPlan`).
        let mut scratch: ShuffleScratch<L::Key, L::Value> = ShuffleScratch::default();
        let mut plan: GroupPlan<L::Key> = GroupPlan::default();
        let mut retired: Vec<(L::Key, L::Value)> = Vec::new();
        for _ in 0..self.algo.max_local_iterations() {
            // Local map phase over every element of xs.
            let mut lctx = LocalMapContext::reusing(scratch.take_pairs());
            for item in items {
                self.algo.lmap(task, input, item, &state, &mut lctx);
            }
            // Partial synchronization: group and locally reduce. This
            // barrier is *within* the task — other partitions are
            // already running their next local iteration (eager
            // scheduling).
            let record_work = lctx.intermediate.len() as u64;
            let grouped = Grouped::from_pairs_planned(lctx.intermediate, &mut plan, &mut scratch);
            let mut rctx = LocalReduceContext::reusing(retired);
            grouped.for_each(|g| self.algo.lreduce(task, input, g.key, g.values, &mut rctx));
            grouped.recycle_into(&mut scratch);
            let mut new_state = LocalState::from_writes(rctx.emitted);
            self.algo.post_lreduce(task, input, &state, &mut new_state);
            ctx.meter.add_ops(lctx.ops + rctx.ops + record_work);
            ctx.meter.add_local_sync();

            let done = self.algo.locally_converged(&state, &new_state);
            retired = std::mem::replace(&mut state, new_state).into_buffer();
            if done {
                break;
            }
        }
        self.algo.finalize(task, input, &state, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy fixpoint: every key's value decays toward a per-key target;
    /// lmap emits the next value, lreduce stores it. Converges when the
    /// max delta is below 1e-9.
    struct Decay;

    impl LocalAlgorithm for Decay {
        type Input = Vec<(u32, f64)>; // (key, target) — xs is the pairs
        type Item = (u32, f64);
        type Key = u32;
        type Value = f64;

        fn items<'a>(&self, input: &'a Self::Input) -> &'a [(u32, f64)] {
            input
        }

        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, f64)> {
            input.iter().map(|&(k, _)| (k, 0.0)).collect()
        }

        fn lmap(
            &self,
            _t: usize,
            _input: &Self::Input,
            item: &(u32, f64),
            state: &LocalState<u32, f64>,
            ctx: &mut LocalMapContext<u32, f64>,
        ) {
            let (key, target) = *item;
            let current = state[&key];
            ctx.emit_local_intermediate(key, current + 0.5 * (target - current));
            ctx.add_ops(1);
        }

        fn lreduce(
            &self,
            _t: usize,
            _input: &Self::Input,
            key: &u32,
            values: &[f64],
            ctx: &mut LocalReduceContext<u32, f64>,
        ) {
            ctx.emit_local(*key, values[0]);
        }

        fn locally_converged(
            &self,
            old: &LocalState<u32, f64>,
            new: &LocalState<u32, f64>,
        ) -> bool {
            old.iter().all(|(k, v)| (new[k] - v).abs() < 1e-9)
        }
    }

    #[test]
    fn gmap_iterates_to_local_fixpoint() {
        let mapper = EagerMapper::new(Decay);
        let input = vec![(1u32, 10.0), (2, -4.0)];
        let mut ctx = MapContext::default();
        mapper.map(0, &input, &mut ctx);
        let (pairs, meter, records, _) = ctx.finish();
        assert_eq!(records, 2);
        let get = |k: u32| pairs.iter().find(|(pk, _)| *pk == k).unwrap().1;
        assert!((get(1) - 10.0).abs() < 1e-6);
        assert!((get(2) + 4.0).abs() < 1e-6);
        // Geometric convergence at rate 1/2 to 1e-9 needs ~35 local
        // iterations — all partial syncs, zero global ones.
        assert!(meter.local_syncs() > 20, "local syncs: {}", meter.local_syncs());
        assert!(meter.ops() > 0);
    }

    /// State that converges instantly (lreduce echoes lmap output).
    struct Instant;
    impl LocalAlgorithm for Instant {
        type Input = Vec<u32>;
        type Item = u32;
        type Key = u32;
        type Value = u64;
        fn items<'a>(&self, input: &'a Vec<u32>) -> &'a [u32] {
            input
        }
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            input.iter().map(|&k| (k, k as u64)).collect()
        }
        fn lmap(
            &self,
            _t: usize,
            _i: &Self::Input,
            item: &u32,
            state: &LocalState<u32, u64>,
            ctx: &mut LocalMapContext<u32, u64>,
        ) {
            ctx.emit_local_intermediate(*item, state[item]);
        }
        fn lreduce(
            &self,
            _t: usize,
            _i: &Self::Input,
            key: &u32,
            values: &[u64],
            ctx: &mut LocalReduceContext<u32, u64>,
        ) {
            ctx.emit_local(*key, values[0]);
        }
        fn locally_converged(
            &self,
            old: &LocalState<u32, u64>,
            new: &LocalState<u32, u64>,
        ) -> bool {
            old == new
        }
    }

    #[test]
    fn instant_convergence_runs_one_local_iteration() {
        let mapper = EagerMapper::new(Instant);
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![5, 6], &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        assert_eq!(meter.local_syncs(), 1);
        assert_eq!(pairs, vec![(5, 5), (6, 6)]);
    }

    /// Never converges: the max-iteration valve must stop it.
    struct Runaway;
    impl LocalAlgorithm for Runaway {
        type Input = Vec<u32>;
        type Item = u32;
        type Key = u32;
        type Value = u64;
        fn items<'a>(&self, input: &'a Vec<u32>) -> &'a [u32] {
            input
        }
        fn init_state(&self, _t: usize, _i: &Self::Input) -> Vec<(u32, u64)> {
            vec![(0, 0)]
        }
        fn lmap(
            &self,
            _t: usize,
            _i: &Self::Input,
            _item: &u32,
            state: &LocalState<u32, u64>,
            ctx: &mut LocalMapContext<u32, u64>,
        ) {
            ctx.emit_local_intermediate(0, state[&0] + 1);
        }
        fn lreduce(
            &self,
            _t: usize,
            _i: &Self::Input,
            key: &u32,
            values: &[u64],
            ctx: &mut LocalReduceContext<u32, u64>,
        ) {
            ctx.emit_local(*key, values[0]);
        }
        fn locally_converged(
            &self,
            _old: &LocalState<u32, u64>,
            _new: &LocalState<u32, u64>,
        ) -> bool {
            false
        }
        fn max_local_iterations(&self) -> usize {
            17
        }
    }

    #[test]
    fn max_local_iterations_caps_runaway() {
        let mapper = EagerMapper::new(Runaway);
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![9], &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        assert_eq!(meter.local_syncs(), 17);
        assert_eq!(pairs, vec![(0, 17)]);
    }

    /// post_lreduce carries forward entries lreduce never saw.
    struct CarryForward;
    impl LocalAlgorithm for CarryForward {
        type Input = Vec<u32>;
        type Item = u32;
        type Key = u32;
        type Value = u64;
        fn items<'a>(&self, input: &'a Vec<u32>) -> &'a [u32] {
            input
        }
        fn init_state(&self, _t: usize, _i: &Self::Input) -> Vec<(u32, u64)> {
            vec![(0, 100), (1, 200)] // key 1 never gets intermediate data
        }
        fn lmap(
            &self,
            _t: usize,
            _i: &Self::Input,
            item: &u32,
            state: &LocalState<u32, u64>,
            ctx: &mut LocalMapContext<u32, u64>,
        ) {
            ctx.emit_local_intermediate(0, state[&0] + *item as u64);
        }
        fn lreduce(
            &self,
            _t: usize,
            _i: &Self::Input,
            key: &u32,
            values: &[u64],
            ctx: &mut LocalReduceContext<u32, u64>,
        ) {
            ctx.emit_local(*key, *values.iter().max().unwrap());
        }
        fn post_lreduce(
            &self,
            _t: usize,
            _i: &Self::Input,
            old: &LocalState<u32, u64>,
            new: &mut LocalState<u32, u64>,
        ) {
            for (k, v) in old {
                if new.get(k).is_none() {
                    new.insert(*k, *v);
                }
            }
        }
        fn locally_converged(
            &self,
            old: &LocalState<u32, u64>,
            new: &LocalState<u32, u64>,
        ) -> bool {
            old == new
        }
        fn max_local_iterations(&self) -> usize {
            3
        }
    }

    #[test]
    fn post_lreduce_preserves_untouched_entries() {
        let mapper = EagerMapper::new(CarryForward);
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![1], &mut ctx);
        let (pairs, _, _, _) = ctx.finish();
        // Key 1 survived every pass via post_lreduce.
        assert!(pairs.contains(&(1, 200)), "pairs: {pairs:?}");
    }

    #[test]
    fn input_bytes_metered_from_state() {
        let mapper = EagerMapper::new(Instant);
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![1, 2, 3], &mut ctx);
        let (_, meter, _, _) = ctx.finish();
        assert_eq!(meter.input_bytes(), 3 * (4 + 8));
    }
}
