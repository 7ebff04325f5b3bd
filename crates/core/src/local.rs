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
//! MapReduce" (paper §V-A). Here that hashtable is the map call's value
//! array, and a pass is three calls: [`LocalAlgorithm::init`] fills
//! every group's accumulator, [`LocalAlgorithm::lmap`] runs Fig. 1's
//! `for each x` loop over the whole partition with *read* access to the
//! current values, and the pass's `lreduce` ends in
//! [`LocalAlgorithm::finish`], which writes each group's next value and
//! says whether it settled.
//!
//! An application supplies `lmap`, its `lreduce` as a fold whose
//! `finish` is the local-convergence test, and the input/state
//! conversion functions (paper: "the user must provide functions for
//! termination of global and local MapReduce iterations, and functions
//! to convert data into the formats required by the local map and local
//! reduce functions"). [`EagerMapper`] then *is* the `gmap`: a
//! [`crate::Mapper`] whose every task iterates its partition to local
//! convergence with only partial (in-task) synchronizations — no
//! cross-partition barrier — before the global reduce. That absence of
//! a barrier is the paper's eager scheduling; each pass's `lreduce` is
//! one *partial synchronization*, counted in
//! [`crate::TaskMeter::local_syncs`].
//!
//! An algorithm's groups are its state's keys — a graph app's owned
//! vertices, K-Means's centroid ids — listed by
//! [`init_state`](LocalAlgorithm::init_state) in strictly ascending
//! order: group `g` is entry `g`, and the state *is* an accumulator
//! array. The map call splits the initial state once into its keys and
//! its values and keeps two value arrays, the one the pass reads and
//! the one it writes, swapped between passes. `lmap` reads its groups
//! by index and names the group of each value it emits
//! ([`LocalMapContext::emit_to`], or [`LocalMapContext::scatter`] for
//! a value from every group along an adjacency whose sources and
//! targets are groups), which is folded into that group's slot of the
//! written array where it is emitted ([`LocalAlgorithm::fold`]). No key
//! is built, no value buffered or grouped: the fold sees a group's
//! values in emission order — what a stable grouping of the pass's
//! emissions would hand a keyed `lreduce` — so it computes what that
//! `lreduce` over the group would. Every group finishes in place, keys
//! ascending, at the end of the pass; one that no value reached
//! finishes from its `init` and its old value. The pass settles when
//! every group did.
//!
//! A local pass and the global reduce speak different types. A group's
//! value ([`LocalAlgorithm::Value`]) is only what the pass folds — a
//! rank, a distance — while what [`LocalAlgorithm::finalize`] emits
//! after local convergence ([`LocalAlgorithm::Intermediate`], the
//! `EmitIntermediate` of Fig. 1 and [`EagerMapper`]'s map output) may
//! tag it for the global reduce: Eager PageRank folds plain `f64` sums
//! and emits `PrMsg`s. Every algorithm writes its own `finalize`;
//! Fig. 1's dump of the final hashtable is one line of it.

use crate::csr::LocalCsr;
use crate::emitter::MapContext;
use crate::kv::{Key, Meterable, Value};
use crate::traits::Mapper;

/// Default for [`LocalAlgorithm::max_local_iterations`] — the one
/// definition of the local-iteration cap, shared by the flat session
/// kernels so they stop where the eager formulations stop.
pub const DEFAULT_MAX_LOCAL_ITERATIONS: usize = 10_000;

/// Context for [`LocalAlgorithm::lmap`] — the paper's
/// `EmitLocalIntermediate` plus op metering — typed with its algorithm,
/// whose [fold](LocalAlgorithm::fold) it calls where each value is
/// emitted.
///
/// It holds the values the pass writes, one per group, as
/// [`init`](LocalAlgorithm::init) filled them. `lmap` names the group
/// of each value ([`emit_to`](LocalMapContext::emit_to),
/// [`scatter`](LocalMapContext::scatter)), the value is folded straight
/// into that group's slot, and the end of the pass finishes every slot
/// in place. An `init` that fills another count of accumulators than
/// there are groups, a group past the last, or an adjacency whose
/// targets may be, panics, naming the task and the pass.
#[derive(Debug)]
pub struct LocalMapContext<L: LocalAlgorithm> {
    /// The values the pass writes: the groups' accumulators.
    next: Vec<L::Value>,
    /// The map task and its pass index, for the panic.
    task: usize,
    pass: usize,
    ops: u64,
}

impl<L: LocalAlgorithm> LocalMapContext<L> {
    /// A context for the passes of task `task`; each pass's `begin`
    /// fills in the values it writes.
    fn new(task: usize) -> Self {
        LocalMapContext { next: Vec::new(), task, pass: 0, ops: 0 }
    }

    /// Starts pass `pass` by having `init` fill the accumulators of the
    /// `groups` groups.
    fn begin(&mut self, algo: &L, input: &L::Input, groups: usize, pass: usize) {
        (self.pass, self.ops) = (pass, 0);
        self.next.clear();
        algo.init(input, &mut self.next);
        let filled = self.next.len();
        if filled != groups {
            self.refuse(format_args!("init filled {filled} accumulators for its {groups} groups"));
        }
    }

    /// The paper's `EmitLocalIntermediate`: folds `value` into the
    /// accumulator of group `group` — the state's entry `group`, keys
    /// ascending. One op.
    ///
    /// # Panics
    ///
    /// Past the last group.
    #[inline]
    pub fn emit_to(&mut self, group: usize, value: L::Value) {
        match self.next.get_mut(group) {
            Some(acc) => L::fold(acc, value),
            None => {
                let groups = self.next.len();
                self.refuse(format_args!("a value for group {group}, past its {groups} groups"))
            }
        }
        self.ops += 1;
    }

    /// One pass's sends along `csr`, whose sources and targets are the
    /// groups: source by source, ascending, `push(s, acc)` says what
    /// group `s` sends (`None`: nothing; it may first fold into the
    /// accumulators `acc` itself, as a keep-alive does), then
    /// `value(sent, w)` is folded into the accumulator of each target of
    /// `s`'s row, `w` being the edge's weight, in CSR order — what an
    /// [`emit_to`](Self::emit_to) per edge, sources ascending, folds.
    /// Returns the edges walked, which it meters as ops.
    ///
    /// # Panics
    ///
    /// Before folding anything, if `csr`'s targets may lie past the last
    /// group ([`LocalCsr::bound`] above the group count), or its sources
    /// are not the groups.
    #[inline]
    pub fn scatter<S: Copy>(
        &mut self,
        csr: &LocalCsr,
        push: impl FnMut(usize, &mut [L::Value]) -> Option<S>,
        value: impl Fn(S, f64) -> L::Value,
    ) -> u64 {
        let (bound, sources, groups) = (csr.bound(), csr.sources(), self.next.len());
        if bound > groups {
            self.refuse(format_args!(
                "an adjacency over {bound} targets, past its {groups} groups"
            ));
        }
        if sources != groups {
            self.refuse(format_args!("an adjacency from {sources} sources over {groups} groups"));
        }
        let walked = csr.scatter(&mut self.next, push, |acc, sent, w| L::fold(acc, value(sent, w)));
        self.ops += walked;
        walked
    }

    /// Refuses `what`, naming the task and the pass. Every value the
    /// pass made is dropped once, on the unwind.
    #[cold]
    #[inline(never)]
    fn refuse(&self, what: std::fmt::Arguments<'_>) -> ! {
        panic!("local sync of task {}, pass {}: {what}", self.task, self.pass)
    }

    /// Meters `n` abstract operations.
    #[inline]
    pub fn add_ops(&mut self, n: u64) {
        self.ops += n;
    }
}

/// An iterative algorithm expressed as local map/reduce over one
/// partition — the ingredients of the paper's `gmap` (Fig. 1).
///
/// The keys of [`init_state`](Self::init_state), strictly ascending,
/// are every pass's groups, and a state is its value array: entry `g`
/// is group `g`. A pass is three calls. [`init`](Self::init) fills
/// every group's accumulator; [`lmap`](Self::lmap) runs over the whole
/// partition, reads the current values by index and emits each value
/// to the index of its group ([`LocalMapContext::emit_to`],
/// [`LocalMapContext::scatter`]), where it is [folded](Self::fold) in
/// emission order; and [`finish`](Self::finish), once per group, leaves
/// the group's next value in its accumulator and says whether the
/// group settled — the paper's `lreduce` and its local-convergence
/// test. After the last pass, [`finalize`](Self::finalize) turns the
/// final state into the map call's [`Intermediate`](Self::Intermediate)
/// pairs.
pub trait LocalAlgorithm: Send + Sync + Sized {
    /// The partition handed to each `gmap` task (the paper's `xs`,
    /// plus any read-only structure such as adjacency).
    type Input: Send + Sync;
    /// Local (and global-intermediate) key.
    type Key: Key;
    /// A group's value: the state's entries, what `init`, `fold` and
    /// `finish` make and what `lmap` reads and sends.
    type Value: Value;
    /// What [`finalize`](Self::finalize) emits to the global reduce
    /// (the paper's `EmitIntermediate`), which may carry more than a
    /// group's value — a tag telling the global reduce what it is.
    type Intermediate: Value;

    /// Builds the initial local state from the partition ("functions to
    /// convert data into the formats required by the local map and
    /// local reduce", §IV): one entry per group, keys strictly
    /// ascending. A map call panics, naming the task and the entry, at
    /// the first key that does not ascend.
    fn init_state(&self, task: usize, input: &Self::Input) -> Vec<(Self::Key, Self::Value)>;

    /// The pass's first step: pushes onto the empty `acc` every group's
    /// accumulator before any value, group `g` — the state's entry `g`,
    /// keys ascending — at index `g`. A pass panics, naming the task and
    /// the pass, if `acc` does not then hold one per group.
    fn init(&self, input: &Self::Input, acc: &mut Vec<Self::Value>);

    /// The paper's `lmap`, once per pass over every element of `xs`
    /// (Fig. 1's `for each` loop is inside it): reads the current
    /// values — `state[g]` is group `g`'s — and sends each value to its
    /// group via [`LocalMapContext::emit_to`] and
    /// [`LocalMapContext::scatter`].
    fn lmap(
        &self,
        task: usize,
        input: &Self::Input,
        state: &[Self::Value],
        ctx: &mut LocalMapContext<Self>,
    );

    /// Folds `value`, the group's next value in emission order, into
    /// its accumulator, where `lmap` emits it (dispatched statically:
    /// the context is typed with its algorithm).
    fn fold(acc: &mut Self::Value, value: Self::Value);

    /// The pass's last step — the paper's `EmitLocal` and its part of
    /// "no-local-convergence-intimated" — once per group, keys
    /// ascending, the groups no value reached included: turns group
    /// `group`'s accumulator `acc` into its entry's next value, in
    /// place, given `old`, its value in the state the pass read, and
    /// returns whether the group settled. The pass settles, and the map
    /// call stops, when every group did.
    fn finish(
        &self,
        input: &Self::Input,
        group: usize,
        old: &Self::Value,
        acc: &mut Self::Value,
    ) -> bool;

    /// Safety valve on local iterations (default
    /// [`DEFAULT_MAX_LOCAL_ITERATIONS`]); at least 1 — a `gmap` whose
    /// cap is 0 panics rather than emit its initial state unsynced.
    fn max_local_iterations(&self) -> usize {
        DEFAULT_MAX_LOCAL_ITERATIONS
    }

    /// Size of this partition's input split in bytes, for the
    /// simulator's DFS-read accounting. Defaults to the initial state's
    /// metered size, its keys and [values](Self::Value); override when
    /// the partition carries bulk data the state does not (e.g. the
    /// point set in K-Means).
    fn input_bytes(&self, task: usize, input: &Self::Input) -> Option<u64> {
        let _ = (task, input);
        None
    }

    /// Global emissions after local convergence, given the state's keys
    /// and its final values (`state[g]` is stored under `keys[g]`): the
    /// paper's `EmitIntermediate` of each entry of the final hashtable
    /// (Fig. 1), as [`Intermediate`](Self::Intermediate)s, and any
    /// cross-partition messages (e.g. boundary contributions).
    fn finalize(
        &self,
        task: usize,
        input: &Self::Input,
        keys: &[Self::Key],
        state: &[Self::Value],
        ctx: &mut MapContext<Self::Key, Self::Intermediate>,
    );
}

/// The paper's `gmap`: wraps a [`LocalAlgorithm`] into a [`Mapper`]
/// whose tasks iterate `lmap` and its fold to local convergence before
/// emitting globally (Fig. 1). Framework record-handling work is
/// metered automatically; algorithm ops are whatever `lmap` adds.
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
    type Value = L::Intermediate;

    /// # Panics
    ///
    /// If the algorithm's [`LocalAlgorithm::max_local_iterations`] is
    /// 0, its [`LocalAlgorithm::init_state`]'s keys do not strictly
    /// ascend, its `init` fills another count of accumulators than there
    /// are groups, or a pass sends a value past its last group (see
    /// [`LocalMapContext`]).
    fn map(&self, task: usize, input: &Self::Input, ctx: &mut MapContext<Self::Key, Self::Value>) {
        let max_passes = self.algo.max_local_iterations();
        assert!(max_passes > 0, "LocalAlgorithm::max_local_iterations is 0 (task {task})");
        let (keys, mut cur): (Vec<L::Key>, Vec<L::Value>) =
            self.algo.init_state(task, input).into_iter().unzip();
        if let Some(prev) = keys.windows(2).position(|w| w[0] >= w[1]) {
            let entry = prev + 1;
            panic!("LocalAlgorithm::init_state of task {task}: the key of entry {entry} does not ascend past entry {prev}'s (keys must strictly ascend)");
        }
        let input_bytes = self.algo.input_bytes(task, input).unwrap_or_else(|| {
            keys.iter().zip(&cur).map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum()
        });
        ctx.meter.set_input_bytes(input_bytes);

        let mut lctx = LocalMapContext::new(task);
        for pass in 0..max_passes {
            // Local map phase over every element of xs.
            lctx.begin(&self.algo, input, keys.len(), pass);
            self.algo.lmap(task, input, &cur, &mut lctx);
            // Partial synchronization: finish every group in place, keys
            // ascending — each one, whatever the groups before it said —
            // and settle if all did. This barrier is *within* the task:
            // other partitions are already running their next local
            // iteration (eager scheduling).
            let mut settled = true;
            for (group, (old, acc)) in cur.iter().zip(&mut lctx.next).enumerate() {
                settled &= self.algo.finish(input, group, old, acc);
            }
            ctx.meter.add_ops(lctx.ops);
            ctx.meter.add_local_sync();
            // The written values are read next; the read ones are
            // written.
            std::mem::swap(&mut cur, &mut lctx.next);
            if settled {
                break;
            }
        }
        self.algo.finalize(task, input, &keys, &cur, ctx);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// The entry of `key` in the state whose keys are `keys`, ascending
    /// and deduplicated: the number of distinct keys below it.
    fn entry_of(keys: impl IntoIterator<Item = u32>, key: u32) -> usize {
        keys.into_iter().collect::<BTreeSet<u32>>().range(..key).count()
    }

    /// Fig. 1's `finalize`: each entry of the final state under its key.
    fn dump<V: Value>(keys: &[u32], state: &[V], ctx: &mut MapContext<u32, V>) {
        for (k, v) in keys.iter().zip(state) {
            ctx.emit_intermediate(*k, v.clone());
        }
    }

    /// Toy fixpoint: every key's value decays toward a per-key target;
    /// lmap sends the next value to the key's group, whose fold keeps
    /// it. A group settles when its delta is below 1e-9. Its input lists
    /// its keys ascending.
    pub(crate) struct Decay;

    impl LocalAlgorithm for Decay {
        type Input = Vec<(u32, f64)>; // (key, target) — xs is the pairs
        type Key = u32;
        type Value = f64;
        type Intermediate = f64;

        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, f64)> {
            input.iter().map(|&(k, _)| (k, 0.0)).collect()
        }

        fn init(&self, input: &Self::Input, acc: &mut Vec<f64>) {
            acc.resize(input.len(), 0.0);
        }

        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            state: &[f64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            for &(key, target) in input {
                let group = entry_of(input.iter().map(|&(k, _)| k), key);
                let current = state[group];
                ctx.emit_to(group, current + 0.5 * (target - current));
            }
            ctx.add_ops(input.len() as u64);
        }

        fn fold(acc: &mut f64, value: f64) {
            *acc = value;
        }

        fn finish(&self, _i: &Self::Input, _group: usize, old: &f64, acc: &mut f64) -> bool {
            (*acc - old).abs() < 1e-9
        }

        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[f64],
            ctx: &mut MapContext<u32, f64>,
        ) {
            dump(keys, state, ctx);
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

    /// State that converges instantly: each item sends its own value
    /// back to its group. Its `init_state` lists the input as given, and
    /// its `init` fills one accumulator fewer than that when its input
    /// starts with [`Instant::MISCOUNT`].
    struct Instant;

    impl Instant {
        const MISCOUNT: u32 = 99;
    }

    impl LocalAlgorithm for Instant {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Intermediate = u64;
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            input.iter().map(|&k| (k, k as u64)).collect()
        }
        fn init(&self, input: &Self::Input, acc: &mut Vec<u64>) {
            let miscounted = input.first() == Some(&Self::MISCOUNT);
            acc.resize(input.len() - usize::from(miscounted), 0);
        }
        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            state: &[u64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            for &item in input {
                let group = entry_of(input.iter().copied(), item);
                ctx.emit_to(group, state[group]);
            }
        }
        fn fold(acc: &mut u64, value: u64) {
            *acc = value;
        }
        fn finish(&self, _i: &Self::Input, _group: usize, old: &u64, acc: &mut u64) -> bool {
            old == acc
        }
        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[u64],
            ctx: &mut MapContext<u32, u64>,
        ) {
            dump(keys, state, ctx);
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

    #[test]
    #[should_panic(
        expected = "local sync of task 3, pass 0: init filled 2 accumulators for its 3 groups"
    )]
    fn an_init_of_another_length_is_refused() {
        // Checked once a pass, before `lmap` reads or folds anything.
        let input = vec![Instant::MISCOUNT, 100, 101];
        EagerMapper::new(Instant).map(3, &input, &mut MapContext::default());
    }

    #[test]
    #[should_panic(
        expected = "init_state of task 7: the key of entry 2 does not ascend past entry 1's"
    )]
    fn an_init_state_out_of_order_is_refused() {
        // Not sorted into place: the groups `lmap` names by index would
        // be other entries than it meant.
        EagerMapper::new(Instant).map(7, &vec![1, 5, 3, 9], &mut MapContext::default());
    }

    #[test]
    #[should_panic(
        expected = "init_state of task 2: the key of entry 3 does not ascend past entry 2's"
    )]
    fn an_init_state_with_a_repeated_key_is_refused() {
        // Not deduplicated: two entries for one key are two groups.
        EagerMapper::new(Instant).map(2, &vec![1, 4, 6, 6], &mut MapContext::default());
    }

    /// Never converges: the max-iteration valve (its field) must stop
    /// it.
    struct Runaway(usize);
    impl LocalAlgorithm for Runaway {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Intermediate = u64;
        fn init_state(&self, _t: usize, _i: &Self::Input) -> Vec<(u32, u64)> {
            vec![(0, 0)]
        }
        fn init(&self, _i: &Self::Input, acc: &mut Vec<u64>) {
            acc.push(0);
        }
        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            state: &[u64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            for _ in input {
                ctx.emit_to(0, state[0] + 1);
            }
        }
        fn fold(acc: &mut u64, value: u64) {
            *acc = value;
        }
        fn finish(&self, _i: &Self::Input, _group: usize, _old: &u64, _acc: &mut u64) -> bool {
            false
        }
        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[u64],
            ctx: &mut MapContext<u32, u64>,
        ) {
            dump(keys, state, ctx);
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

    /// Item `k` sends its state value + 1 to its group, the state entry
    /// of key `k`; the fold sums a group's values. Its state has one
    /// entry per distinct key of its input, ascending. Three passes,
    /// never converged.
    struct Echo;

    /// The distinct numbers of `input`, ascending.
    fn distinct(input: &[u32]) -> BTreeSet<u32> {
        input.iter().copied().collect()
    }

    impl LocalAlgorithm for Echo {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Intermediate = u64;
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            distinct(input).into_iter().map(|k| (k, u64::from(k))).collect()
        }
        fn init(&self, input: &Self::Input, acc: &mut Vec<u64>) {
            acc.resize(distinct(input).len(), 0);
        }
        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            state: &[u64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            for &item in input {
                let group = entry_of(input.iter().copied(), item);
                ctx.emit_to(group, state[group] + 1);
            }
        }
        fn fold(acc: &mut u64, value: u64) {
            *acc += value;
        }
        fn finish(&self, _i: &Self::Input, _group: usize, _old: &u64, _acc: &mut u64) -> bool {
            false
        }
        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[u64],
            ctx: &mut MapContext<u32, u64>,
        ) {
            dump(keys, state, ctx);
        }
        fn max_local_iterations(&self) -> usize {
            3
        }
    }

    #[test]
    fn a_folding_task_sums_a_groups_values_and_every_call_starts_afresh() {
        // Key 3 is two items, so its group hears two values a pass; an
        // empty input has no group, so its one pass settles: no group
        // is left unsettled. Every call starts from its own
        // `init_state`, whatever the call before it folded.
        let inputs: [&[u32]; 4] = [&[3, 1, 3, 2], &[3, 1, 3, 2], &[], &[1, 2]];
        let call = |input: &&[u32]| {
            let mut ctx = MapContext::default();
            EagerMapper::new(Echo).map(0, &input.to_vec(), &mut ctx);
            let (pairs, meter, _, _) = ctx.finish();
            assert_eq!(meter.local_syncs(), if input.is_empty() { 1 } else { 3 });
            pairs
        };
        let calls: Vec<Vec<(u32, u64)>> = inputs.iter().map(call).collect();
        let repeated = vec![(1, 4), (2, 5), (3, 38)];
        assert_eq!(calls, [repeated.clone(), repeated, vec![], vec![(1, 4), (2, 5)]]);
    }

    #[test]
    fn input_bytes_metered_from_state() {
        let mapper = EagerMapper::new(Instant);
        let mut ctx = MapContext::default();
        mapper.map(0, &vec![1, 2, 3], &mut ctx);
        let (_, meter, _, _) = ctx.finish();
        assert_eq!(meter.input_bytes(), 3 * (4 + 8));
    }

    /// Its state counts, per group, the passes that finished it: `lmap`
    /// sends nothing and `finish` adds one to the old count. Every group
    /// settles at once but group [`Straggler::lagging`], which settles
    /// on the third pass.
    struct Straggler {
        lagging: usize,
    }

    impl LocalAlgorithm for Straggler {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Intermediate = u64;
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            input.iter().map(|&k| (k, 0)).collect()
        }
        fn init(&self, input: &Self::Input, acc: &mut Vec<u64>) {
            acc.resize(input.len(), 0);
        }
        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            _s: &[u64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            ctx.add_ops(input.len() as u64);
        }
        fn fold(acc: &mut u64, value: u64) {
            *acc = value;
        }
        fn finish(&self, _i: &Self::Input, group: usize, old: &u64, acc: &mut u64) -> bool {
            *acc = old + 1;
            group != self.lagging || *acc == 3
        }
        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[u64],
            ctx: &mut MapContext<u32, u64>,
        ) {
            dump(keys, state, ctx);
        }
    }

    #[test]
    fn one_unsettled_group_finishes_every_group_and_runs_another_pass() {
        // Group 0 unsettled: a settled test that stopped at the first
        // unsettled group would leave groups 1.. at their `init`. The
        // last group unsettled: a test that stopped at the first settled
        // one, or read only group 0, would end the map call a pass early.
        let input: Vec<u32> = (10..16).collect();
        for lagging in [0, input.len() - 1] {
            let mut ctx = MapContext::default();
            EagerMapper::new(Straggler { lagging }).map(0, &input, &mut ctx);
            let (pairs, meter, _, _) = ctx.finish();
            let finished: Vec<(u32, u64)> = input.iter().map(|&k| (k, 3)).collect();
            assert_eq!(pairs, finished, "group {lagging} lagging");
            assert_eq!(meter.local_syncs(), 3, "group {lagging} lagging");
            assert_eq!(meter.ops(), 3 * input.len() as u64, "group {lagging} lagging");
        }
    }

    /// What [`Tally`] emits: one count per key, and the total under key
    /// [`Tally::TOTAL`] — a tag its state never carries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tallied {
        Count(u64),
        Total(u64),
    }

    impl Meterable for Tallied {
        fn approx_bytes(&self) -> u64 {
            9 // 1 tag + 8 payload
        }
    }

    /// Counts each distinct number of its input: its state is a plain
    /// `u64` per number, ascending, and `finalize` tags what it emits.
    /// Converges on the second pass, which counts what the first did.
    struct Tally;

    impl Tally {
        const TOTAL: u32 = u32::MAX;
    }

    impl LocalAlgorithm for Tally {
        type Input = Vec<u32>;
        type Key = u32;
        type Value = u64;
        type Intermediate = Tallied;
        fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, u64)> {
            distinct(input).into_iter().map(|k| (k, 0)).collect()
        }
        fn init(&self, input: &Self::Input, acc: &mut Vec<u64>) {
            acc.resize(distinct(input).len(), 0);
        }
        fn lmap(
            &self,
            _t: usize,
            input: &Self::Input,
            _s: &[u64],
            ctx: &mut LocalMapContext<Self>,
        ) {
            for &item in input {
                ctx.emit_to(entry_of(input.iter().copied(), item), 1);
            }
        }
        fn fold(acc: &mut u64, value: u64) {
            *acc += value;
        }
        fn finish(&self, _i: &Self::Input, _group: usize, old: &u64, acc: &mut u64) -> bool {
            old == acc
        }
        fn finalize(
            &self,
            _t: usize,
            _i: &Self::Input,
            keys: &[u32],
            state: &[u64],
            ctx: &mut MapContext<u32, Tallied>,
        ) {
            for (k, &count) in keys.iter().zip(state) {
                ctx.emit_intermediate(*k, Tallied::Count(count));
            }
            ctx.emit_intermediate(Self::TOTAL, Tallied::Total(state.iter().sum()));
        }
    }

    #[test]
    fn a_state_value_is_not_what_finalize_emits() {
        let mapper = EagerMapper::new(Tally);
        // The map call's records are the intermediate type.
        let mut ctx: MapContext<u32, Tallied> = MapContext::default();
        mapper.map(0, &vec![7, 3, 7, 7, 9], &mut ctx);
        let (pairs, meter, records, bytes) = ctx.finish();
        let (count, total) = (Tallied::Count, Tallied::Total);
        assert_eq!(pairs, [(3, count(1)), (7, count(3)), (9, count(1)), (Tally::TOTAL, total(5))]);
        assert_eq!(meter.local_syncs(), 2);
        assert_eq!((records, bytes), (4, 4 * (4 + 9)));
        // Its split is metered from the state: three `u32` keys, three
        // `u64` values.
        assert_eq!(meter.input_bytes(), 3 * (4 + 8));
    }
}
