//! Property tests pinning the local sync to its slow reference:
//!
//! * [`EagerMapper`] equals [`oracle_gmap`], the loop it ran before the
//!   fold and the flat state existed (`BTreeMap` state, a full stable
//!   sort of every pass's emitted pairs, a keyed `lreduce` over each
//!   group), kept here as the reference the way `shuffle::group` is:
//!   emitted pairs, ops, local syncs and input bytes — on a fixpoint
//!   whose items list their keys scrambled, on groups no value reaches,
//!   on groups that churn from pass to pass, on graph-shaped passes
//!   with repeated and `String` keys and with values that count their
//!   drops, and job by job on one engine;
//! * a pass's sends along a CSR over its groups (`scatter`) equal an
//!   `emit_to` per edge, sources ascending, keep-alives folded between
//!   rows included, and a value sent past the last group, or along a
//!   CSR whose targets may lie past it, panics naming its task and
//!   pass, dropping every value the pass made exactly once.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use asyncmr_core::csr::LocalCsr;
use asyncmr_core::prelude::*;
use asyncmr_core::TaskMeter;
use proptest::prelude::*;

// ---------------------------------------------------------------- (b)

/// An algorithm stated once over plain closures, so both the framework
/// ([`Framework`] → `EagerMapper`) and the oracle can run it: the oracle
/// through its keyed `lmap` and [`Spec::reduce_group`], the framework
/// through the same `lmap`, each emission sent to the group of its key,
/// and the fold ([`Spec::start`], [`Spec::fold`], [`Spec::finish`]).
/// The oracle compares two whole states, entry by entry, with
/// [`Spec::settled`] — only when they have the same keys — and the
/// framework each group as it finishes.
trait Spec: Send + Sync {
    type Item: Send + Sync;
    type Key: Key + Debug;
    type Value: Value + PartialEq + Debug;
    /// Whether an entry no value reached keeps its value in the oracle —
    /// what [`Spec::finish`] does for a group no value reached.
    const CARRY_FORWARD: bool;

    fn init(&self, xs: &[Self::Item]) -> Vec<(Self::Key, Self::Value)>;
    /// `lmap` over one item; returns the ops it meters. Every key it
    /// emits is a key of the state it reads.
    fn lmap(
        &self,
        x: &Self::Item,
        get: &dyn Fn(&Self::Key) -> Option<Self::Value>,
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    ) -> u64;
    /// The keyed `lreduce` over one group; returns the ops it meters.
    fn reduce_group(
        &self,
        key: &Self::Key,
        values: &[Self::Value],
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    ) -> u64;
    /// Whether an entry went from `old` to `new` and settled.
    fn settled(&self, old: &Self::Value, new: &Self::Value) -> bool;
    fn max_passes(&self) -> usize;
    /// `reduce_group` as a fold: a group's start, each value folded in,
    /// and its entry's next value made in place from the result and its
    /// old value.
    fn start(&self, key: &Self::Key) -> Self::Value;
    fn fold(acc: &mut Self::Value, value: Self::Value);
    fn finish(&self, key: &Self::Key, old: &Self::Value, acc: &mut Self::Value) {
        let _ = (key, old, acc);
    }
}

/// What a gmap produced and what it metered.
#[derive(Debug, PartialEq)]
struct Outcome<K, V> {
    pairs: Vec<(K, V)>,
    ops: u64,
    local_syncs: u64,
    input_bytes: u64,
}

/// `EagerMapper::map` as it was before grouping plans, the fold and the
/// flat state: a `BTreeMap` per pass, a full stable sort of every
/// pass's emissions, `BTreeMap::insert` for `EmitLocal`,
/// `entry().or_insert` for the carry-forward.
fn oracle_gmap<S: Spec>(spec: &S, xs: &[S::Item]) -> Outcome<S::Key, S::Value> {
    let values =
        |m: &BTreeMap<S::Key, S::Value>| -> Vec<S::Value> { m.values().cloned().collect() };
    let mut state: BTreeMap<S::Key, S::Value> = spec.init(xs).into_iter().collect();
    let input_bytes = state.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum();
    let (mut ops, mut local_syncs) = (0u64, 0u64);
    for _ in 0..spec.max_passes() {
        let mut pairs: Vec<(S::Key, S::Value)> = Vec::new();
        for x in xs {
            ops += spec.lmap(x, &|k| state.get(k).cloned(), &mut |k, v| pairs.push((k, v)));
        }
        ops += pairs.len() as u64;
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut new_state: BTreeMap<S::Key, S::Value> = BTreeMap::new();
        let mut lo = 0;
        while lo < pairs.len() {
            let hi = lo + pairs[lo..].iter().take_while(|p| p.0 == pairs[lo].0).count();
            let values: Vec<S::Value> = pairs[lo..hi].iter().map(|p| p.1.clone()).collect();
            ops += spec.reduce_group(&pairs[lo].0, &values, &mut |k, v| {
                new_state.insert(k, v);
            });
            lo = hi;
        }
        if S::CARRY_FORWARD {
            for (k, v) in &state {
                new_state.entry(k.clone()).or_insert_with(|| v.clone());
            }
        }
        local_syncs += 1;
        let done = state.keys().eq(new_state.keys())
            && values(&state).iter().zip(&values(&new_state)).all(|(a, b)| spec.settled(a, b));
        state = new_state;
        if done {
            break;
        }
    }
    Outcome { pairs: state.into_iter().collect(), ops, local_syncs, input_bytes }
}

/// A split as [`Framework`] runs it: the items, and the keys of the
/// state [`Spec::init`] builds from them, ascending and deduplicated —
/// what `lmap`'s keys are turned into groups by.
struct Split<S: Spec> {
    xs: Vec<S::Item>,
    keys: Vec<S::Key>,
}

impl<S: Spec> Split<S> {
    fn new(spec: &S, xs: Vec<S::Item>) -> Self {
        let keys: BTreeSet<S::Key> = spec.init(&xs).into_iter().map(|(k, _)| k).collect();
        Split { xs, keys: keys.into_iter().collect() }
    }
}

/// A [`Spec`] as a [`LocalAlgorithm`]: its initial state normalised
/// through a `BTreeMap` (a later write to a key replaces an earlier
/// one, as in `oracle_gmap`), `lmap` run over every item, each emission
/// sent to the group of its key, found by its position among the
/// split's keys (past the last group when there is no such key), and
/// reduced with the spec's fold.
struct Framework<S>(S);

impl<S: Spec> LocalAlgorithm for Framework<S> {
    type Input = Split<S>;
    type Key = S::Key;
    type Value = S::Value;
    type Intermediate = S::Value;

    fn init_state(&self, _t: usize, input: &Split<S>) -> Vec<(S::Key, S::Value)> {
        let state: BTreeMap<S::Key, S::Value> = self.0.init(&input.xs).into_iter().collect();
        state.into_iter().collect()
    }
    fn init(&self, input: &Split<S>, acc: &mut Vec<S::Value>) {
        acc.extend(input.keys.iter().map(|k| self.0.start(k)));
    }
    fn lmap(
        &self,
        _t: usize,
        input: &Split<S>,
        state: &[S::Value],
        ctx: &mut LocalMapContext<Self>,
    ) {
        let group = |k: &S::Key| input.keys.binary_search(k).ok();
        let get = |k: &S::Key| group(k).map(|g| state[g].clone());
        for item in &input.xs {
            let mut emit = |k, v| ctx.emit_to(group(&k).unwrap_or(state.len()), v);
            let ops = self.0.lmap(item, &get, &mut emit);
            ctx.add_ops(ops);
        }
    }
    fn fold(acc: &mut S::Value, value: S::Value) {
        S::fold(acc, value);
    }
    fn finish(&self, input: &Split<S>, group: usize, old: &S::Value, acc: &mut S::Value) -> bool {
        self.0.finish(&input.keys[group], old, acc);
        self.0.settled(old, acc)
    }
    fn max_local_iterations(&self) -> usize {
        self.0.max_passes()
    }
    /// The final state, key-ascending: what `oracle_gmap` returns.
    fn finalize(
        &self,
        _t: usize,
        _input: &Split<S>,
        keys: &[S::Key],
        state: &[S::Value],
        ctx: &mut MapContext<S::Key, S::Value>,
    ) {
        dump(keys, state, ctx);
    }
}

/// Fig. 1's `finalize`: a clone of each entry of the final state under
/// its key.
fn dump<K: Key, V: Value>(keys: &[K], state: &[V], ctx: &mut MapContext<K, V>) {
    for (k, v) in keys.iter().zip(state) {
        ctx.emit_intermediate(k.clone(), v.clone());
    }
}

/// The framework over `xs`.
fn folding_gmap<S: Spec>(spec: S, xs: Vec<S::Item>) -> Outcome<S::Key, S::Value> {
    let mut ctx = MapContext::default();
    let split = Split::new(&spec, xs);
    EagerMapper::new(Framework(spec)).map(0, &split, &mut ctx);
    let (pairs, meter, _, _) = ctx.finish();
    Outcome {
        pairs,
        ops: meter.ops(),
        local_syncs: meter.local_syncs(),
        input_bytes: meter.input_bytes(),
    }
}

/// The oracle as a global map: each task's final state, emitted in key
/// order (what [`Framework`]'s `finalize` emits), and its meters.
struct Oracle<S>(S);

impl<S: Spec> Mapper for Oracle<S> {
    type Input = Vec<S::Item>;
    type Key = S::Key;
    type Value = S::Value;

    fn map(&self, _task: usize, xs: &Vec<S::Item>, ctx: &mut MapContext<S::Key, S::Value>) {
        let outcome = oracle_gmap(&self.0, xs);
        ctx.meter.set_input_bytes(outcome.input_bytes);
        ctx.add_ops(outcome.ops);
        (0..outcome.local_syncs).for_each(|_| ctx.meter.add_local_sync());
        for (k, v) in outcome.pairs {
            ctx.emit_intermediate(k, v);
        }
    }
}

/// `local::tests::Decay`: every key's value halves its distance to a
/// per-key target each pass. Each key hears one value a pass, which its
/// group keeps.
struct Decay;

impl Spec for Decay {
    type Item = (u32, f64); // (key, target)
    type Key = u32;
    type Value = f64;
    const CARRY_FORWARD: bool = false;

    fn init(&self, xs: &[(u32, f64)]) -> Vec<(u32, f64)> {
        xs.iter().map(|&(k, _)| (k, 0.0)).collect()
    }
    fn lmap(
        &self,
        &(key, target): &(u32, f64),
        get: &dyn Fn(&u32) -> Option<f64>,
        emit: &mut dyn FnMut(u32, f64),
    ) -> u64 {
        let current = get(&key).expect("every key is in the state");
        emit(key, current + 0.5 * (target - current));
        1
    }
    fn reduce_group(&self, key: &u32, values: &[f64], emit: &mut dyn FnMut(u32, f64)) -> u64 {
        emit(*key, values[0]);
        0
    }
    fn settled(&self, old: &f64, new: &f64) -> bool {
        (old - new).abs() < 1e-9
    }
    fn max_passes(&self) -> usize {
        asyncmr_core::local::DEFAULT_MAX_LOCAL_ITERATIONS
    }
    fn start(&self, _key: &u32) -> f64 {
        0.0
    }
    fn fold(acc: &mut f64, value: f64) {
        *acc = value;
    }
}

/// Key 1 never receives a value and key 0 only from items: a group no
/// value reached finishes from its old value — the oracle's
/// carry-forward.
struct CarryForward;

impl Spec for CarryForward {
    type Item = u32;
    type Key = u32;
    type Value = u64;
    const CARRY_FORWARD: bool = true;

    fn init(&self, _xs: &[u32]) -> Vec<(u32, u64)> {
        vec![(0, 100), (1, 200)]
    }
    fn lmap(
        &self,
        x: &u32,
        get: &dyn Fn(&u32) -> Option<u64>,
        emit: &mut dyn FnMut(u32, u64),
    ) -> u64 {
        emit(0, get(&0).expect("key 0 is always in the state") + u64::from(*x));
        0
    }
    fn reduce_group(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        emit(*key, *values.iter().max().expect("groups are non-empty"));
        0
    }
    fn settled(&self, old: &u64, new: &u64) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        3
    }
    /// Every value is at least 100, so 0 is "none yet".
    fn start(&self, _key: &u32) -> u64 {
        0
    }
    fn fold(acc: &mut u64, value: u64) {
        *acc = (*acc).max(value);
    }
    fn finish(&self, _key: &u32, old: &u64, acc: &mut u64) {
        if *acc == 0 {
            *acc = *old;
        }
    }
}

/// Group churn: a pass counter lives in the state under
/// [`Churn::CLOCK`], sent by every item, and the group each item's
/// value goes to depends on it for the first `churn` passes — as K-Means
/// reassigns its points — then freezes (convergence a pass later). A
/// group keeps the largest value it hears, one that hears none keeps
/// its old value, and the clock stops at `churn`.
struct Churn {
    key_space: u32,
    churn: u64,
}

impl Churn {
    const CLOCK: u32 = 1_000;
}

impl Spec for Churn {
    type Item = u32;
    type Key = u32;
    type Value = u64;
    const CARRY_FORWARD: bool = true;

    fn init(&self, _xs: &[u32]) -> Vec<(u32, u64)> {
        (0..self.key_space).map(|k| (k, 0)).chain([(Self::CLOCK, 0)]).collect()
    }
    fn lmap(
        &self,
        x: &u32,
        get: &dyn Fn(&u32) -> Option<u64>,
        emit: &mut dyn FnMut(u32, u64),
    ) -> u64 {
        let phase = get(&Self::CLOCK).expect("the clock is in the state").min(self.churn);
        emit(Self::CLOCK, phase + 1);
        let group = (x * (phase as u32 + 1) + phase as u32) % self.key_space;
        emit(group, u64::from(*x) + phase + 1);
        2
    }
    fn reduce_group(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        let max = *values.iter().max().expect("groups are non-empty");
        emit(*key, if *key == Self::CLOCK { max.min(self.churn) } else { max });
        0
    }
    fn settled(&self, old: &u64, new: &u64) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        self.churn as usize + 4
    }
    /// Every value is at least 1, so 0 is "none yet".
    fn start(&self, _key: &u32) -> u64 {
        0
    }
    fn fold(acc: &mut u64, value: u64) {
        *acc = (*acc).max(value);
    }
    fn finish(&self, key: &u32, old: &u64, acc: &mut u64) {
        if *acc == 0 {
            *acc = *old;
        } else if *key == Self::CLOCK {
            *acc = (*acc).min(self.churn);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eager_mapper_equals_oracle_on_decay(
        targets in proptest::collection::vec(-50.0f64..50.0, 0..40),
    ) {
        // Distinct keys in a scrambled (non-ascending) emission order.
        let xs: Vec<(u32, f64)> =
            targets.iter().enumerate().map(|(i, &t)| ((i as u32 * 7919) % 101, t)).collect();
        let oracle = oracle_gmap(&Decay, &xs);
        prop_assert!(xs.is_empty() || oracle.local_syncs > 20);
        prop_assert_eq!(folding_gmap(Decay, xs), oracle);
    }

    #[test]
    fn eager_mapper_equals_oracle_on_carry_forward(
        xs in proptest::collection::vec(0u32..100, 0..20),
    ) {
        let oracle = oracle_gmap(&CarryForward, &xs);
        prop_assert!(oracle.pairs.contains(&(1, 200)));
        prop_assert_eq!(folding_gmap(CarryForward, xs), oracle);
    }

    #[test]
    fn eager_mapper_equals_oracle_under_key_churn(
        xs in proptest::collection::vec(0u32..50, 0..60),
        key_space in 2u32..12,
        churn in 0u64..5,
    ) {
        let oracle = oracle_gmap(&Churn { key_space, churn }, &xs);
        // Not cut off by the cap: the groups froze and the state settled.
        prop_assert!(oracle.local_syncs < churn + 4);
        prop_assert_eq!(folding_gmap(Churn { key_space, churn }, xs), oracle);
    }
}

/// The key and value types a [`Flow`] runs over.
trait Flavor: Send + Sync {
    type K: Key + Debug;
    type V: Value + PartialEq + Debug;
    fn key(id: u32) -> Self::K;
    fn value(x: u64) -> Self::V;
    fn raw(v: &Self::V) -> u64;
}

/// `u32` keys, `u64` values: what the graph apps run.
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

/// Heap keys: a map call moves them out of its initial state once, and
/// the test's key-to-group lookup compares them.
struct Worded;
impl Flavor for Worded {
    type K = String;
    type V = u64;
    fn key(id: u32) -> String {
        format!("k{id:04}")
    }
    fn value(x: u64) -> u64 {
        x
    }
    fn raw(v: &u64) -> u64 {
        *v
    }
}

thread_local! {
    /// How often each [`Tracked`] value made on this thread was
    /// dropped, by id. A gmap runs on the thread that calls it.
    static DROPS: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A value that counts its drops: a pass moves values into its
/// accumulators, clones one along a list of groups and swaps whole
/// arrays between passes, so "dropped exactly once" is worth checking.
#[derive(Debug)]
struct Tracked {
    id: usize,
    x: u64,
}

impl Tracked {
    fn new(x: u64) -> Self {
        let id = DROPS.with_borrow_mut(|drops| {
            drops.push(0);
            drops.len() - 1
        });
        Tracked { id, x }
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        Tracked::new(self.x)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        DROPS.with_borrow_mut(|drops| drops[self.id] += 1);
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.x == other.x
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

// ---------------------------------------------------------------- (c)

/// A graph's local pass: item `(key, targets)` emits its own key (the
/// keep-alive) and then one record per target, each a key some item
/// owns, so every emission names an entry of the state (the items'
/// keys) and every entry hears a value each pass. Targets may repeat
/// (multi-edges) or name the item's own key (self-loops), keys may
/// repeat across items, and an item may have none (a sink). The keyed
/// reduce hashes each group's values in order, `11·31^k + …`; the fold
/// is that hash, written a value at a time, and `lmap` meters the
/// fold's op for each value it sends.
struct Flow<F>(std::marker::PhantomData<F>);

impl<F: Flavor> Flow<F> {
    fn new() -> Self {
        Flow(std::marker::PhantomData)
    }
}

impl<F: Flavor> Spec for Flow<F> {
    type Item = (u32, Vec<u32>);
    type Key = F::K;
    type Value = F::V;
    const CARRY_FORWARD: bool = false;

    fn init(&self, xs: &[(u32, Vec<u32>)]) -> Vec<(F::K, F::V)> {
        xs.iter().map(|(k, _)| (F::key(*k), F::value(u64::from(*k) * 3 + 1))).collect()
    }
    fn lmap(
        &self,
        (key, targets): &(u32, Vec<u32>),
        get: &dyn Fn(&F::K) -> Option<F::V>,
        emit: &mut dyn FnMut(F::K, F::V),
    ) -> u64 {
        let x = get(&F::key(*key)).map_or(0, |v| F::raw(&v));
        emit(F::key(*key), F::value(x / 2));
        for &t in targets {
            emit(F::key(t), F::value(x % 7 + u64::from(t)));
        }
        2 * (1 + targets.len() as u64)
    }
    fn reduce_group(&self, key: &F::K, values: &[F::V], emit: &mut dyn FnMut(F::K, F::V)) -> u64 {
        let fold = values.iter().fold(11u64, |h, v| h.wrapping_mul(31).wrapping_add(F::raw(v)));
        emit(key.clone(), F::value(fold % 1_000));
        0
    }
    fn settled(&self, old: &F::V, new: &F::V) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        6
    }
    fn start(&self, _key: &F::K) -> F::V {
        F::value(11)
    }
    fn fold(acc: &mut F::V, value: F::V) {
        *acc = F::value(F::raw(acc).wrapping_mul(31).wrapping_add(F::raw(&value)));
    }
    fn finish(&self, _key: &F::K, _old: &F::V, acc: &mut F::V) {
        *acc = F::value(F::raw(acc) % 1_000);
    }
}

/// Items over keys `0..24`, their targets among the items' keys:
/// repeated, self-looped, multi-edged, sinks among them; possibly none.
fn flow_items() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    let item = (0u32..24, proptest::collection::vec(any::<usize>(), 0..5));
    proptest::collection::vec(item, 0..12).prop_map(|items| {
        let keys: Vec<u32> = items.iter().map(|(k, _)| *k).collect();
        let owned = |picks: Vec<usize>| picks.into_iter().map(|p| keys[p % keys.len()]).collect();
        let with_edges = |(k, picks): (u32, Vec<usize>)| {
            let mut ts: Vec<u32> = owned(picks);
            if ts.len() == 3 {
                ts.push(k); // a self-loop
            }
            if ts.len() == 2 {
                ts.push(ts[0]); // a multi-edge
            }
            (k, ts)
        };
        items.into_iter().map(with_edges).collect()
    })
}

/// The framework and the oracle over `xs`: equal.
fn assert_flow_equals_oracle<F: Flavor>(xs: &[(u32, Vec<u32>)]) {
    let oracle = oracle_gmap(&Flow::<F>::new(), xs);
    assert_eq!(folding_gmap(Flow::<F>::new(), xs.to_vec()), oracle);
}

/// Sums each group: the global reduce of the engine-level comparison.
struct Sum;

impl Reducer for Sum {
    type Key = u32;
    type ValueIn = u64;
    type Out = u64;
    fn reduce(&self, key: &u32, values: &[u64], ctx: &mut ReduceContext<u32, u64>) {
        ctx.emit(*key, values.iter().sum());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn declared_passes_equal_keyed_passes_and_the_oracle(xs in flow_items()) {
        assert_flow_equals_oracle::<Plain>(&xs);
    }

    #[test]
    fn eager_mapper_equals_oracle_on_string_keys(xs in flow_items()) {
        assert_flow_equals_oracle::<Worded>(&xs);
    }

    /// Every value a pass emits is folded into its group's accumulator,
    /// and the accumulators are finished into the state; each value ever
    /// made is dropped exactly once.
    #[test]
    fn every_declared_value_is_dropped_exactly_once(xs in flow_items()) {
        DROPS.with_borrow_mut(Vec::clear);
        assert_flow_equals_oracle::<Tracked>(&xs);
        let drops = DROPS.with_borrow(Vec::clone);
        prop_assert!(drops.iter().all(|&d| d == 1), "{:?}", drops);
    }

    /// Jobs in sequence, `EagerMapper` on one engine and the oracle's
    /// keyed passes on another: the same pairs, meters and shuffle plan
    /// uses job by job — through a job where task 0 is handed task 1's
    /// items and one where it is handed none.
    #[test]
    fn declared_jobs_on_one_engine_equal_keyed_jobs(
        tasks in proptest::collection::vec(flow_items(), 2..4),
    ) {
        let pool = asyncmr_runtime::ThreadPool::new(2);
        let (mut folding, mut keyed) = (Engine::in_process(&pool), Engine::in_process(&pool));
        let (gmap, oracle) = (EagerMapper::new(Framework(Flow::<Plain>::new())), Oracle(Flow::<Plain>::new()));
        let opts = JobOptions::with_reducers(3);
        let mut swapped = tasks.clone();
        swapped[0] = tasks[1].clone();
        let mut emptied = tasks.clone();
        emptied[0].clear();
        for inputs in [&tasks, &tasks, &swapped, &emptied, &tasks, &tasks] {
            let split = |xs: &Vec<_>| Split::new(&gmap.algorithm().0, xs.clone());
            let splits: Vec<_> = inputs.iter().map(split).collect();
            let f = folding.run("f", &splits, &gmap, &Sum, &opts);
            let k = keyed.run("k", inputs, &oracle, &Sum, &opts);
            prop_assert_eq!(&f.pairs, &k.pairs);
            prop_assert_eq!(f.meter, k.meter);
            prop_assert_eq!(f.reuse, k.reuse);
        }
    }
}

/// How a [`Liar`] sends its values.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lie {
    /// A value for the group after the last.
    PastTheLast,
    /// One value along a CSR row into group 0 and the group after the
    /// last, through `scatter`: a CSR wider than the groups.
    EachPastTheLast,
    /// No value for group 0 — no breach: it finishes from its `init`.
    Missing,
}

/// Its state is keys `0..records` and then its clock (the pass counter,
/// [`Liar::CLOCK`]); item `j` sends a [`Tracked`] value to key `j`, the
/// last item the next pass number to the clock, and each key keeps its
/// last value. It sends a value of pass `at` as `lie` says.
struct Liar {
    records: u32,
    lie: Lie,
    at: u64,
}

impl Liar {
    const CLOCK: u32 = 9_000;
}

impl LocalAlgorithm for Liar {
    type Input = Vec<u32>;
    type Key = u32;
    type Value = Tracked;
    type Intermediate = Tracked;

    fn init_state(&self, _t: usize, input: &Vec<u32>) -> Vec<(u32, Tracked)> {
        let key = |j: u32| if j == self.records { Self::CLOCK } else { j };
        input.iter().map(|&j| (key(j), Tracked::new(0))).collect()
    }
    fn init(&self, input: &Vec<u32>, acc: &mut Vec<Tracked>) {
        acc.extend(input.iter().map(|_| Tracked::new(0)));
    }
    fn lmap(
        &self,
        _t: usize,
        input: &Vec<u32>,
        state: &[Tracked],
        ctx: &mut LocalMapContext<Self>,
    ) {
        let pass = state[state.len() - 1].x;
        for &j in input {
            let value = if j == self.records { pass + 1 } else { 7 };
            // Key `j`'s group is entry `j`; the clock's is the last.
            let (groups, past) = (state.len(), j as usize + state.len());
            match (self.lie, pass == self.at && j == 0) {
                (Lie::PastTheLast, true) => ctx.emit_to(past, Tracked::new(value)),
                (Lie::EachPastTheLast, true) => {
                    let (mut offsets, targets) = (vec![0; groups + 1], vec![j, past as u32]);
                    offsets[1..].fill(2);
                    let wide = LocalCsr::new(groups, past + 1, offsets, targets, vec![]);
                    let send = |s: usize, _: &mut [Tracked]| (s == 0).then_some(value);
                    ctx.scatter(&wide, send, |v, _| Tracked::new(v));
                }
                (Lie::Missing, true) => {}
                _ => ctx.emit_to(j as usize, Tracked::new(value)),
            }
        }
    }
    fn fold(acc: &mut Tracked, value: Tracked) {
        *acc = value;
    }
    fn finish(&self, _input: &Vec<u32>, _group: usize, _old: &Tracked, _acc: &mut Tracked) -> bool {
        false
    }
    fn max_local_iterations(&self) -> usize {
        self.at as usize + 2
    }
    fn finalize(
        &self,
        _t: usize,
        _input: &Vec<u32>,
        keys: &[u32],
        state: &[Tracked],
        ctx: &mut MapContext<u32, Tracked>,
    ) {
        dump(keys, state, ctx);
    }
}

/// Runs `liar` as task `task` over `records` keys and its clock: it
/// must panic, naming the task and pass `at` and saying `what`, and
/// drop every value it made exactly once — on the unwind too.
fn assert_refused(liar: Liar, task: usize, what: &str) {
    DROPS.with_borrow_mut(Vec::clear);
    let (lie, at) = (liar.lie, liar.at);
    let input: Vec<u32> = (0..=liar.records).collect();
    let mapper = EagerMapper::new(liar);
    let unwound =
        catch_unwind(AssertUnwindSafe(|| mapper.map(task, &input, &mut MapContext::default())));
    let payload = unwound.expect_err("a broken contract panics");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    let named = format!("task {task}, pass {at}: {what}");
    assert!(message.contains(&named), "{lie:?}: {message}");
    let drops = DROPS.with_borrow(Vec::clone);
    assert!(!drops.is_empty() && drops.iter().all(|&d| d == 1), "{lie:?}: {drops:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A value past the last group, or a CSR whose targets may lie
    /// past it, panics, in every build, naming the task and the pass —
    /// and every value made is dropped exactly once, on the unwind too:
    /// a pass holds no value outside its accumulators, which unwind with
    /// it. A group no value reaches is no breach: it finishes from its
    /// `init`.
    #[test]
    fn a_broken_declaration_panics_naming_its_task_and_pass(
        records in 1u32..20,
        at in 0u64..4,
        task in 0usize..9,
    ) {
        let groups = records as usize + 1;
        let past = format!("a value for group {groups}, past its {groups} groups");
        assert_refused(Liar { records, lie: Lie::PastTheLast, at }, task, &past);
        let wide = format!("an adjacency over {} targets, past its {groups} groups", groups + 1);
        assert_refused(Liar { records, lie: Lie::EachPastTheLast, at }, task, &wide);

        // A group no value reached finishes from its `init`: the pass
        // goes on, and the next one rewrites it.
        DROPS.with_borrow_mut(Vec::clear);
        let input: Vec<u32> = (0..=records).collect();
        let mut ctx = MapContext::default();
        EagerMapper::new(Liar { records, lie: Lie::Missing, at }).map(task, &input, &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        prop_assert_eq!(meter.local_syncs(), at + 2);
        prop_assert_eq!(pairs.len(), input.len());
        drop(pairs);
        prop_assert!(DROPS.with_borrow(|drops| drops.iter().all(|&d| d == 1)));
    }
}

/// Every group `s` sends one value — its state entry mixed with `s` and
/// each edge's weight — along row `s` of a CSR whose sources and
/// targets are the groups: through one pass-level `scatter`
/// (`Spray<true>`) or, sources ascending, an `emit_to` per edge of
/// `csr.edges(s)`. An odd group first folds its entry into its own
/// accumulator (a keep-alive), and every third group, from group 2,
/// sends nothing. The fold hashes a group's values in order, so the
/// order counts as well as the values. Three passes, never settled.
struct Spray<const SCATTER: bool>;

impl<const S: bool> Spray<S> {
    /// One map call: its pairs and its meter.
    fn run(csr: &LocalCsr) -> (Vec<(u32, u64)>, TaskMeter) {
        let mut ctx = MapContext::default();
        EagerMapper::new(Spray::<S>).map(0, csr, &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        (pairs, meter)
    }

    fn keeps_alive(s: usize) -> bool {
        s % 2 == 1
    }

    /// What group `s`, whose entry is `entry`, sends, if anything.
    fn sent(s: usize, entry: u64) -> Option<u64> {
        (s % 3 != 2).then_some(entry * 7 + s as u64)
    }
}

impl<const S: bool> LocalAlgorithm for Spray<S> {
    type Input = LocalCsr;
    type Key = u32;
    type Value = u64;
    type Intermediate = u64;

    fn init_state(&self, _t: usize, csr: &LocalCsr) -> Vec<(u32, u64)> {
        (0..csr.sources() as u32).map(|k| (k, u64::from(k) * 3 + 1)).collect()
    }
    fn init(&self, csr: &LocalCsr, acc: &mut Vec<u64>) {
        acc.extend((0..csr.sources() as u64).map(|g| 11 + g));
    }
    fn lmap(&self, _t: usize, csr: &LocalCsr, state: &[u64], ctx: &mut LocalMapContext<Self>) {
        let mix = |value: u64, w: f64| value ^ w.to_bits();
        if S {
            let send = |s: usize, acc: &mut [u64]| {
                if Self::keeps_alive(s) {
                    Self::fold(&mut acc[s], state[s]);
                }
                Self::sent(s, state[s])
            };
            ctx.add_ops((0..state.len()).filter(|&s| Self::keeps_alive(s)).count() as u64);
            ctx.scatter(csr, send, mix);
        } else {
            for (s, &entry) in state.iter().enumerate() {
                if Self::keeps_alive(s) {
                    ctx.emit_to(s, entry);
                }
                let Some(value) = Self::sent(s, entry) else { continue };
                for (t, w) in csr.edges(s as u32) {
                    ctx.emit_to(t as usize, mix(value, w));
                }
            }
        }
    }
    fn fold(acc: &mut u64, value: u64) {
        *acc = acc.wrapping_mul(31).wrapping_add(value);
    }
    fn finish(&self, _csr: &LocalCsr, _group: usize, _old: &u64, acc: &mut u64) -> bool {
        *acc %= 1_000_003;
        false
    }
    fn max_local_iterations(&self) -> usize {
        3
    }
    fn finalize(
        &self,
        _t: usize,
        _csr: &LocalCsr,
        keys: &[u32],
        state: &[u64],
        ctx: &mut MapContext<u32, u64>,
    ) {
        dump(keys, state, ctx);
    }
}

/// The CSR over `rows.len() + 2` groups whose rows are `rows` of
/// `(target, weight step)` after a first row holding a self-loop twice
/// and before a last row that is a sink, weighted or not.
fn spray_input(rows: Vec<Vec<(u32, u32)>>, weighted: bool) -> LocalCsr {
    let rows: Vec<_> = [vec![(0, 3), (0, 5)]].into_iter().chain(rows).chain([vec![]]).collect();
    let (mut offsets, mut targets, mut weights) = (vec![0], Vec::new(), Vec::new());
    for row in &rows {
        for &(t, step) in row {
            targets.push(t);
            if weighted {
                weights.push(f64::from(step) * 0.25);
            }
        }
        offsets.push(targets.len() as u32);
    }
    LocalCsr::new(rows.len(), rows.len(), offsets, targets, weights)
}

/// A random CSR over 2 to 11 groups — repeated targets, rows of any
/// length, weighted or not.
fn spray_inputs() -> impl Strategy<Value = LocalCsr> {
    (2u32..12)
        .prop_flat_map(|n| {
            let row = proptest::collection::vec((0..n, 0u32..1000), 0..6);
            (proptest::collection::vec(row, n as usize - 2), any::<bool>())
        })
        .prop_map(|(rows, weighted)| spray_input(rows, weighted))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A pass's sends along a CSR over its groups are an `emit_to` per
    /// edge, sources ascending, with each keep-alive folded before its
    /// group's row: the same accumulators — so the same states and
    /// pairs — and the same ops, silent groups and a sink included.
    #[test]
    fn scatter_equals_an_emit_to_per_edge_sources_ascending(csr in spray_inputs()) {
        prop_assert_eq!(Spray::<true>::run(&csr), Spray::<false>::run(&csr));
    }
}

#[test]
fn scatter_from_a_sink_folds_nothing_and_meters_nothing() {
    // Group 0: a self-loop twice; group 1: a sink, kept alive.
    let csr = spray_input(vec![], false);
    let (scattered, one_by_one) = (Spray::<true>::run(&csr), Spray::<false>::run(&csr));
    assert_eq!(scattered, one_by_one);
    assert_eq!(scattered.1.ops(), 3 * 3, "two sends and a keep-alive a pass, three passes");
}
