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
//!
//! A task's passes emit the same keys in the same order again and again
//! (its partition does not change), so a steady-state pass buffers,
//! sorts and groups nothing: `EmitLocalIntermediate` checks each key
//! against the sequence the task last emitted — every key, every pass —
//! and writes the value straight to its place among the grouped values,
//! `lreduce` walks the group boundaries recorded with that sequence,
//! and `EmitLocal` appends to the next state. The remembered sequence
//! outlives the job when an [`crate::Engine`] runs the task. A pass
//! whose keys differ is buffered, sorted and remembered in turn: only
//! slower, never different (`docs/ARCHITECTURE.md`, "What one partial
//! synchronization costs").
//!
//! An algorithm whose keys are the partition's structure — a graph
//! app's owned vertices and internal edges — can say so once, as
//! [`LocalAlgorithm::emission_keys`]. Its passes are then *declared*:
//! `lmap` builds no key and emits values only
//! ([`LocalMapContext::emit_value`]), value `i` landing in the slot of
//! declared key `i`. The declaration is compared with the task's
//! remembered sequence once per map call (the plan is recorded from it
//! when they differ), and every declared pass checks that it emitted
//! exactly as many values as keys were declared, in every build — so
//! no key goes unchecked: a declared pass emits none.

use std::fmt;
use std::ops::Index;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::emitter::MapContext;
use crate::kv::{Key, Meterable, Value};
use crate::shuffle::{self, PlanOutcome, ShuffleScratch, SlotWriter};
use crate::traits::Mapper;

/// Default for [`LocalAlgorithm::max_local_iterations`] — the one
/// definition of the local-iteration cap, shared by the flat session
/// kernels so they stop where the eager formulations stop.
pub const DEFAULT_MAX_LOCAL_ITERATIONS: usize = 10_000;

/// The local-state "hashtable" of paper Figure 1 ("a hashtable is used
/// to store the intermediate and final results of the local MapReduce",
/// §V-A), kept as one key-ascending `Vec<(K, V)>`.
///
/// It has a map's interface — [`get`](LocalState::get),
/// [`insert`](LocalState::insert), `state[&key]`, iteration — but a
/// local sync never uses it as a general map: `lreduce` sees its groups
/// key-ascending, so [`LocalReduceContext::emit_local`] just *appends*;
/// a pass's state is built once, read many times and retired whole, so
/// its buffer is handed to the next pass instead of being freed node by
/// node; and `lmap`, `finalize` and `locally_converged` look keys up in
/// the order they were stored, so `get` keeps a **search finger** — the
/// position of the last key found — and tries the entry after it, then
/// the entry itself, before it falls back to a binary search. The
/// finger is only ever a proposal: key equality decides every lookup,
/// so writes between lookups and lookups in any order (or from several
/// threads — the finger is a relaxed atomic) cost a binary search, never
/// a wrong answer. Every traversal is in ascending key order — the
/// determinism the bitwise contracts need and a hashed table would not
/// give.
pub struct LocalState<K, V> {
    /// Keys strictly ascending.
    entries: Vec<(K, V)>,
    /// Where [`LocalState::get`] last found a key (`usize::MAX` before
    /// the first hit, so the entry "after" it is the first). Publishes
    /// nothing: a stale or torn-looking value is just a bad guess.
    finger: AtomicUsize,
}

/// `(&K, &V)` view of one entry, for [`LocalState::iter`].
fn entry_refs<K, V>(entry: &(K, V)) -> (&K, &V) {
    (&entry.0, &entry.1)
}

impl<K, V> LocalState<K, V> {
    /// An empty state.
    pub fn new() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// A state over `entries`, whose keys strictly ascend.
    fn from_sorted(entries: Vec<(K, V)>) -> Self {
        LocalState { entries, finger: AtomicUsize::new(usize::MAX) }
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
    /// The value stored under `key`: `O(1)` when `key` is the one after
    /// (or the same as) the last key found, a binary search otherwise.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        let finger = self.finger.load(Ordering::Relaxed);
        let holds = |at: usize| self.entries.get(at).is_some_and(|(k, _)| k == key);
        let at = if holds(finger.wrapping_add(1)) {
            finger.wrapping_add(1)
        } else if holds(finger) {
            finger
        } else {
            self.entries.binary_search_by(|(k, _)| k.cmp(key)).ok()?
        };
        self.finger.store(at, Ordering::Relaxed);
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
        Self::from_sorted(entries)
    }
}

impl<K: Clone, V: Clone> Clone for LocalState<K, V> {
    fn clone(&self) -> Self {
        Self::from_sorted(self.entries.clone())
    }
}

/// States are equal when their entries are; the finger is not state.
impl<K: PartialEq, V: PartialEq> PartialEq for LocalState<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
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

/// What a task's local syncs remember from one pass to the next — and,
/// filed in the engine's [`crate::plan::PlanStore`] between jobs, from
/// one job to the next: the key sequence a pass emitted, where each
/// emission lands in the grouped values, and where the groups end.
///
/// An iterative task emits the same keys in the same order pass after
/// pass (a graph partition's edges do not move); only the values
/// change. [`LocalMapContext::emit_local_intermediate`] **verifies**
/// every emitted key against the remembered sequence — one equality
/// test per record, in every build, never skipped — so a pass whose
/// keys churn (K-Means reassignments) is never wrong, only slower. A
/// declaring algorithm's plan is the plan of its declaration, compared
/// with the kept one once per map call; its passes emit no key.
///
/// One `K` and one `u32` a record plus two `u32` a group, held until
/// the plan fails a verification (which frees it; the pass records its
/// successor) or the task — outside an engine — or the engine is
/// dropped.
#[derive(Debug)]
pub(crate) struct LocalPlan<K> {
    /// The key sequence the plan was built for, in emission order.
    input_keys: Vec<K>,
    /// `slots[i]` is where emission `i`'s value lands in the grouped
    /// values: a permutation of `0..input_keys.len()` (the slot writes'
    /// safety rests on this, so only [`LocalPlan::record`] writes it).
    slots: Vec<u32>,
    /// One `(head, end)` per group, keys ascending: the group's key is
    /// `input_keys[head]` (its first emission) and its values end at
    /// `end` in the grouped values, where the next group's begin.
    groups: Vec<(u32, u32)>,
}

impl<K> Default for LocalPlan<K> {
    fn default() -> Self {
        LocalPlan { input_keys: Vec::new(), slots: Vec::new(), groups: Vec::new() }
    }
}

impl<K: Key> LocalPlan<K> {
    /// Records in the key sequence the plan was built for.
    fn records(&self) -> usize {
        self.input_keys.len()
    }

    /// The plan of the key sequence `input_keys`: the keys, their
    /// stable-sort permutation and the groups' boundaries (`order` is a
    /// recycled temporary).
    fn record(input_keys: Vec<K>, order: &mut Vec<u32>) -> Self {
        let mut plan = LocalPlan { input_keys, ..LocalPlan::default() };
        shuffle::sort_slots(&plan.input_keys, order, &mut plan.slots);
        let keys = &plan.input_keys;
        for (slot, &i) in order.iter().enumerate() {
            let end = slot as u32 + 1;
            match plan.groups.last_mut() {
                Some(group) if keys[group.0 as usize] == keys[i as usize] => group.1 = end,
                _ => plan.groups.push((i, end)),
            }
        }
        plan.groups.shrink_to_fit();
        order.clear();
        plan
    }

    /// Calls `f` once per key group of `values` — a pass's emissions
    /// placed through this plan — keys ascending.
    fn for_each_group<V>(&self, values: &[V], mut f: impl FnMut(&K, &[V])) {
        let mut lo = 0;
        for &(head, end) in &self.groups {
            f(&self.input_keys[head as usize], &values[lo..end as usize]);
            lo = end as usize;
        }
    }
}

/// Context for [`LocalAlgorithm::lmap`] — the paper's
/// `EmitLocalIntermediate` plus op metering.
///
/// A **keyed** pass (the algorithm declares no
/// [emission keys](LocalAlgorithm::emission_keys)) starts **on plan**
/// when its task holds a (non-empty) plan — the key sequence its last
/// pass emitted: each emission is checked against the plan's next key
/// and its value written straight to its slot in the grouped values.
/// The first emission that differs — or the end of a pass that stopped
/// short of the plan — takes the pass off plan: the verified prefix
/// comes back out as pairs, the rest of the pass is buffered, and the
/// end of the pass records a fresh plan. Either way the grouped values
/// are what a stable sort of the emitted pairs gives.
///
/// A **declared** pass runs on the plan of the keys its algorithm
/// declared, and `lmap` emits values only
/// ([`emit_value`](LocalMapContext::emit_value)): value `i` goes to
/// the slot of declared key `i`. The pass must emit exactly as many
/// values as keys were declared — one more panics at that emission,
/// one fewer at the end of the pass — and a keyed emission panics, as
/// does `emit_value` in a keyed pass. Every such panic names the task
/// and the pass.
#[derive(Debug)]
pub struct LocalMapContext<K, V> {
    /// The task's plan, checked out for the pass.
    plan: LocalPlan<K>,
    /// On plan: emissions `..cursor` matched `plan.input_keys[..cursor]`
    /// and their values sit at `plan.slots[..cursor]` of `placed`.
    /// Declared: values `..cursor` sit there.
    on_plan: bool,
    cursor: usize,
    placed: SlotWriter<V>,
    /// Off plan: the pass's emissions so far, in order.
    intermediate: Vec<(K, V)>,
    /// `Some` in a declared pass: what the pass reports it did with the
    /// plan.
    declared: Option<PlanOutcome>,
    /// The map task and its pass index, for the panics.
    task: usize,
    pass: usize,
    ops: u64,
}

impl<K: Key, V: Value> LocalMapContext<K, V> {
    /// A context for pass `pass` of task `task`, which holds `plan`,
    /// over buffers recycled from `scratch`. `declared` is `Some` when
    /// the plan's keys are the algorithm's declaration, with what this
    /// pass reports (a zero-record plan is no plan: `Recorded`). On
    /// plan and declared the pair buffer is not needed and is released.
    fn following(
        plan: LocalPlan<K>,
        declared: Option<PlanOutcome>,
        (task, pass): (usize, usize),
        scratch: &mut ShuffleScratch<K, V>,
    ) -> Self {
        let on_plan = declared.is_none() && plan.records() > 0;
        let declared = declared.map(|o| if plan.records() > 0 { o } else { PlanOutcome::Recorded });
        let pairs = scratch.take_pairs();
        LocalMapContext {
            placed: SlotWriter::new(std::mem::take(&mut scratch.values), plan.records()),
            plan,
            on_plan,
            cursor: 0,
            intermediate: if on_plan || declared.is_some() { Vec::new() } else { pairs },
            declared,
            task,
            pass,
            ops: 0,
        }
    }

    /// The paper's `EmitLocalIntermediate(key, value)`: feeds the next
    /// `lreduce` *within this partition only*.
    ///
    /// # Panics
    ///
    /// In a declared pass, which emits values only.
    #[inline]
    pub fn emit_local_intermediate(&mut self, key: K, value: V) {
        if self.on_plan {
            if self.plan.input_keys.get(self.cursor) == Some(&key) {
                self.placed.write(self.plan.slots[self.cursor], value);
                self.cursor += 1;
                return;
            }
            self.fall_back();
        } else if self.declared.is_some() {
            self.refuse(format_args!(
                "a keyed emission in a declared pass, after {} values",
                self.cursor
            ));
        }
        self.intermediate.push((key, value));
    }

    /// Emits the value of the next declared key: the declared pass's
    /// `EmitLocalIntermediate`, with the key the algorithm's
    /// [`LocalAlgorithm::emission_keys`] gave for this position.
    ///
    /// # Panics
    ///
    /// In a keyed pass (the algorithm declared nothing), and past the
    /// last declared key.
    #[inline]
    pub fn emit_value(&mut self, value: V) {
        match self.plan.slots.get(self.cursor) {
            Some(&slot) if self.declared.is_some() => {
                self.placed.write(slot, value);
                self.cursor += 1;
            }
            _ if self.declared.is_some() => self.refuse(format_args!(
                "one value more than the {} keys it declared",
                self.plan.records()
            )),
            _ => self.refuse(format_args!("emit_value, but its algorithm declares no keys")),
        }
    }

    /// Meters `n` abstract operations.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }

    /// Panics for a pass that broke its contract: `what` it did, and
    /// where. Values already placed leak; none is dropped twice.
    #[cold]
    #[inline(never)]
    fn refuse(&self, what: fmt::Arguments<'_>) -> ! {
        panic!("local sync of task {}, pass {}: {what}", self.task, self.pass)
    }

    /// Takes the pass off plan: the plan failed its verification and is
    /// dropped, and the emissions it did match become buffered pairs —
    /// its own keys, moved, with the values taken back out of their
    /// slots.
    #[cold]
    fn fall_back(&mut self) {
        self.on_plan = false;
        let plan = std::mem::take(&mut self.plan);
        self.intermediate.reserve(self.cursor + 1);
        for (key, &slot) in plan.input_keys.into_iter().zip(&plan.slots).take(self.cursor) {
            // SAFETY: on plan, emission `i < cursor` wrote `slots[i]`
            // and nothing else did (`slots` is a permutation); this
            // loop visits each `i < cursor` once and `on_plan` is now
            // false, so each of those values is taken exactly once.
            let value = unsafe { self.placed.take(slot) };
            self.intermediate.push((key, value));
        }
    }

    /// Ends the pass: the emitted values grouped for
    /// [`LocalPlan::for_each_group`] over the returned plan, and
    /// whether the pass stayed on plan ([`PlanOutcome::Hit`]) or
    /// recorded a new one.
    ///
    /// # Panics
    ///
    /// If a declared pass emitted fewer values than it declared keys.
    fn finish(mut self, scratch: &mut ShuffleScratch<K, V>) -> (Vec<V>, LocalPlan<K>, PlanOutcome) {
        if let Some(outcome) = self.declared {
            if self.cursor < self.plan.records() {
                let (emitted, declared) = (self.cursor, self.plan.records());
                self.refuse(format_args!("{emitted} values for the {declared} keys it declared"));
            }
            // SAFETY: `emit_value` wrote `slots[i]` for each emission
            // `i < cursor` and refuses one at `cursor == records()`, so
            // with `cursor == records()` every slot of the permutation
            // `slots` was written exactly once.
            return (unsafe { self.placed.finish() }, self.plan, outcome);
        }
        if self.on_plan && self.cursor < self.plan.records() {
            self.fall_back(); // a strict prefix of the plan is a miss
        }
        if self.on_plan {
            // SAFETY: every emission matched and the pass covered the
            // plan: emission `i` wrote `slots[i]` for each `i` below
            // `records()`, and `slots` is a permutation of that range,
            // so every slot was written exactly once.
            return (unsafe { self.placed.finish() }, self.plan, PlanOutcome::Hit);
        }
        let mut pairs = self.intermediate;
        // The keys — the one clone per record a plan costs.
        let keys = pairs.iter().map(|(k, _)| k.clone()).collect();
        let plan = LocalPlan::record(keys, &mut scratch.slots);
        let mut placed = SlotWriter::new(self.placed.into_buffer(), pairs.len());
        for ((_, value), &slot) in pairs.drain(..).zip(&plan.slots) {
            placed.write(slot, value);
        }
        scratch.offer_pairs(pairs);
        // SAFETY: `plan` was just recorded from `pairs`: pair `i` wrote
        // `slots[i]`, a permutation of `0..pairs.len()`, so every slot
        // was written exactly once.
        (unsafe { placed.finish() }, plan, PlanOutcome::Recorded)
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

    /// The keys every local pass over `input` emits, in emission order,
    /// when they do not depend on the state — a graph partition's
    /// structure. `None` (the default) declares nothing: `lmap` emits
    /// keyed, through [`LocalMapContext::emit_local_intermediate`].
    ///
    /// With `Some(keys)`, every pass is *declared*: `lmap` emits values
    /// only, through [`LocalMapContext::emit_value`], value `i` under
    /// `keys[i]`, and each pass must emit exactly `keys.len()` of them
    /// (checked in every build; a pass that emits a different count
    /// panics). Called once per map call, where the declaration is
    /// compared with the plan the task kept.
    fn emission_keys(&self, task: usize, input: &Self::Input) -> Option<Vec<Self::Key>> {
        let _ = (task, input);
        None
    }

    /// The paper's `lmap`: processes one element of `xs`, reading the
    /// current hashtable and emitting via
    /// [`LocalMapContext::emit_local_intermediate`] — or, when the
    /// algorithm declares its [emission keys](Self::emission_keys), via
    /// [`LocalMapContext::emit_value`].
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
    /// [`DEFAULT_MAX_LOCAL_ITERATIONS`]); at least 1 — a `gmap` whose
    /// cap is 0 panics rather than emit its initial state unsynced.
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

    /// # Panics
    ///
    /// If the algorithm's [`LocalAlgorithm::max_local_iterations`] is
    /// 0, or a declared pass breaks its declaration (see
    /// [`LocalMapContext`]).
    fn map(&self, task: usize, input: &Self::Input, ctx: &mut MapContext<Self::Key, Self::Value>) {
        let max_passes = self.algo.max_local_iterations();
        assert!(max_passes > 0, "LocalAlgorithm::max_local_iterations is 0 (task {task})");
        let mut state: LocalState<L::Key, L::Value> =
            self.algo.init_state(task, input).into_iter().collect();
        let input_bytes = self.algo.input_bytes(task, input).unwrap_or_else(|| {
            state.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum()
        });
        ctx.meter.set_input_bytes(input_bytes);
        let items = self.algo.items(input);

        // One scratch set serves every local iteration of this task —
        // the grouped values, the state buffers and (off plan) the pair
        // buffer stop allocating after the first pass — and `plan`,
        // which the task keeps from its last job on this engine, turns
        // every pass whose keys repeat into verified slot writes.
        let mut scratch: ShuffleScratch<L::Key, L::Value> = ShuffleScratch::default();
        let mut plan = std::mem::take(&mut ctx.local_plan);
        // A declaration is compared with the kept plan once, here; the
        // plan is recorded from it when they differ. Its passes then
        // emit no key, and each checks its value count.
        let mut declared = self.algo.emission_keys(task, input).map(|keys| {
            if keys == plan.input_keys {
                return PlanOutcome::Hit;
            }
            plan = LocalPlan::record(keys, &mut scratch.slots);
            PlanOutcome::Recorded
        });
        let mut retired: Vec<(L::Key, L::Value)> = Vec::new();
        for pass in 0..max_passes {
            // Local map phase over every element of xs.
            let mut lctx = LocalMapContext::following(plan, declared, (task, pass), &mut scratch);
            for item in items {
                self.algo.lmap(task, input, item, &state, &mut lctx);
            }
            let lmap_ops = lctx.ops;
            // Partial synchronization: group and locally reduce. This
            // barrier is *within* the task — other partitions are
            // already running their next local iteration (eager
            // scheduling).
            let (values, outcome);
            (values, plan, outcome) = lctx.finish(&mut scratch);
            ctx.local_use.count(outcome);
            // Every later declared pass runs on the plan this one used.
            declared = declared.and(Some(PlanOutcome::Hit));
            let record_work = values.len() as u64;
            let mut rctx = LocalReduceContext::reusing(retired);
            plan.for_each_group(&values, |key, group| {
                self.algo.lreduce(task, input, key, group, &mut rctx)
            });
            scratch.values = values;
            let mut new_state = LocalState::from_writes(rctx.emitted);
            self.algo.post_lreduce(task, input, &state, &mut new_state);
            ctx.meter.add_ops(lmap_ops + rctx.ops + record_work);
            ctx.meter.add_local_sync();

            let done = self.algo.locally_converged(&state, &new_state);
            retired = std::mem::replace(&mut state, new_state).into_buffer();
            if done {
                break;
            }
        }
        ctx.local_plan = plan;
        self.algo.finalize(task, input, &state, ctx);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::PlanUse;

    /// Toy fixpoint: every key's value decays toward a per-key target;
    /// lmap emits the next value, lreduce stores it. Converges when the
    /// max delta is below 1e-9.
    pub(crate) struct Decay;

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

    /// Never converges: the max-iteration valve (its field) must stop
    /// it.
    struct Runaway(usize);
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
            self.0
        }
    }

    #[test]
    fn max_local_iterations_caps_runaway() {
        let mapper = EagerMapper::new(Runaway(17));
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![9], &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        assert_eq!(meter.local_syncs(), 17);
        assert_eq!(pairs, vec![(0, 17)]);
    }

    #[test]
    #[should_panic(expected = "LocalAlgorithm::max_local_iterations is 0 (task 4)")]
    fn a_zero_local_iteration_cap_is_refused() {
        // Not a gmap that runs no pass and emits its initial state.
        EagerMapper::new(Runaway(0)).map(4, &vec![9], &mut MapContext::default());
    }

    /// Pass `p` emits `self.0[p]` records — keys `0, 1, 2 …`, each with
    /// the value `p + 1` — so a pass can stop short of the plan the one
    /// before it recorded, or run past it. The pass counter lives in
    /// the state under [`Stretch::CLOCK`].
    struct Stretch(Vec<u32>);

    impl Stretch {
        const CLOCK: u32 = u32::MAX;

        /// Runs the passes: the emitted pairs and what the local syncs
        /// did with the task's plan.
        fn run(lens: &[u32]) -> (Vec<(u32, u64)>, PlanUse) {
            let mut ctx = MapContext::default();
            EagerMapper::new(Stretch(lens.to_vec())).map(0, &(), &mut ctx);
            let local_use = ctx.local_use;
            (ctx.finish().0, local_use)
        }
    }

    impl LocalAlgorithm for Stretch {
        type Input = ();
        type Item = ();
        type Key = u32;
        type Value = u64;
        fn items<'a>(&self, input: &'a ()) -> &'a [()] {
            std::slice::from_ref(input)
        }
        fn init_state(&self, _t: usize, _i: &()) -> Vec<(u32, u64)> {
            vec![(Self::CLOCK, 0)]
        }
        fn lmap(
            &self,
            _t: usize,
            _i: &(),
            _item: &(),
            state: &LocalState<u32, u64>,
            ctx: &mut LocalMapContext<u32, u64>,
        ) {
            let pass = state[&Self::CLOCK];
            for key in 0..self.0[pass as usize] {
                ctx.emit_local_intermediate(key, pass + 1);
            }
        }
        fn lreduce(
            &self,
            _t: usize,
            _i: &(),
            key: &u32,
            values: &[u64],
            ctx: &mut LocalReduceContext<u32, u64>,
        ) {
            ctx.emit_local(*key, values.iter().sum());
        }
        fn post_lreduce(
            &self,
            _t: usize,
            _i: &(),
            old: &LocalState<u32, u64>,
            new: &mut LocalState<u32, u64>,
        ) {
            new.insert(Self::CLOCK, old[&Self::CLOCK] + 1);
        }
        fn locally_converged(
            &self,
            _old: &LocalState<u32, u64>,
            _new: &LocalState<u32, u64>,
        ) -> bool {
            false
        }
        fn max_local_iterations(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn a_pass_that_stops_short_of_the_plan_is_a_miss() {
        // Recorded, hit, a strict prefix of the plan (caught at the end
        // of the pass, before any slot is read), hit on the new plan.
        let (pairs, local) = Stretch::run(&[3, 3, 2, 2]);
        assert_eq!(pairs, vec![(0, 4), (1, 4), (Stretch::CLOCK, 4)]);
        assert_eq!(local, PlanUse { hits: 2, misses: 2, recorded: 2 });
    }

    #[test]
    fn a_pass_that_runs_past_the_plan_falls_back_at_the_first_excess_record() {
        let (pairs, local) = Stretch::run(&[2, 3, 3]);
        assert_eq!(pairs, vec![(0, 3), (1, 3), (2, 3), (Stretch::CLOCK, 3)]);
        assert_eq!(local, PlanUse { hits: 1, misses: 2, recorded: 2 });
    }

    #[test]
    fn a_zero_record_plan_is_never_on_plan() {
        // The second empty pass repeats the first's (empty) key
        // sequence and is still not a hit: there is no plan to be on.
        let (pairs, local) = Stretch::run(&[0, 0, 2, 2]);
        assert_eq!(pairs, vec![(0, 4), (1, 4), (Stretch::CLOCK, 4)]);
        assert_eq!(local, PlanUse { hits: 1, misses: 3, recorded: 3 });
    }

    /// Item `k` emits key `k` with its state value + 1, keyed or — when
    /// `declare` — as a value under the declared keys (the items
    /// themselves); `lreduce` sums each group. Three passes, never
    /// converged.
    struct Echo {
        declare: bool,
    }

    impl Echo {
        /// Runs one map call per input in turn on one task, each
        /// starting from the plan the last one left: every call's pairs
        /// and plan use.
        fn run(declare: bool, inputs: &[&[u32]]) -> Vec<(Vec<(u32, u64)>, PlanUse)> {
            let mut plan = LocalPlan::default();
            let mut calls = Vec::new();
            for input in inputs {
                let mut ctx = MapContext::default();
                ctx.local_plan = plan;
                EagerMapper::new(Echo { declare }).map(0, &input.to_vec(), &mut ctx);
                plan = std::mem::take(&mut ctx.local_plan);
                let local_use = ctx.local_use;
                calls.push((ctx.finish().0, local_use));
            }
            calls
        }
    }

    impl LocalAlgorithm for Echo {
        type Input = Vec<u32>;
        type Item = u32;
        type Key = u32;
        type Value = u64;
        fn items<'a>(&self, input: &'a Vec<u32>) -> &'a [u32] {
            input
        }
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            input.iter().map(|&k| (k, u64::from(k))).collect()
        }
        fn emission_keys(&self, _t: usize, input: &Vec<u32>) -> Option<Vec<u32>> {
            self.declare.then(|| input.clone())
        }
        fn lmap(
            &self,
            _t: usize,
            _i: &Self::Input,
            item: &u32,
            state: &LocalState<u32, u64>,
            ctx: &mut LocalMapContext<u32, u64>,
        ) {
            let value = state[item] + 1;
            if self.declare {
                ctx.emit_value(value);
            } else {
                ctx.emit_local_intermediate(*item, value);
            }
        }
        fn lreduce(
            &self,
            _t: usize,
            _i: &Self::Input,
            key: &u32,
            values: &[u64],
            ctx: &mut LocalReduceContext<u32, u64>,
        ) {
            ctx.emit_local(*key, values.iter().sum());
        }
        fn locally_converged(
            &self,
            _old: &LocalState<u32, u64>,
            _new: &LocalState<u32, u64>,
        ) -> bool {
            false
        }
        fn max_local_iterations(&self) -> usize {
            3
        }
    }

    #[test]
    fn a_declared_task_counts_its_plan_as_the_keyed_task_does() {
        // First sight records, then hits; the kept plan is a hit from
        // the first pass; another sequence re-records; an empty one is
        // no plan, pass after pass; and back.
        let inputs: [&[u32]; 5] = [&[3, 1, 3, 2], &[3, 1, 3, 2], &[1, 2], &[], &[1, 2]];
        let declared = Echo::run(true, &inputs);
        assert_eq!(declared, Echo::run(false, &inputs));
        let uses: Vec<PlanUse> = declared.iter().map(|call| call.1).collect();
        let (recorded, hit, empty) = (
            PlanUse { hits: 2, misses: 1, recorded: 1 },
            PlanUse { hits: 3, misses: 0, recorded: 0 },
            PlanUse { hits: 0, misses: 3, recorded: 3 },
        );
        assert_eq!(uses, [recorded, hit, recorded, empty, recorded]);
        assert_eq!(declared[0].0, vec![(1, 4), (2, 5), (3, 38)]);
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
