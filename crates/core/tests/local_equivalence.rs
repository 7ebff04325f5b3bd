//! Property tests pinning the local sync's fast structures to their
//! slow references:
//!
//! * [`LocalState`] (one sorted `Vec` and a search finger) behaves like
//!   the `BTreeMap` it replaced — `insert` / `get` in any order /
//!   traversal / `collect` / `==`, and `emit_local` streams in any
//!   order (last write wins, result key-ascending);
//! * the groups `lreduce` is handed equal the `BTreeMap` reference
//!   [`shuffle::group`] over *sequences* of passes on one task's plan —
//!   a hit, every kind of miss, and a return to an earlier sequence;
//! * [`EagerMapper`] equals [`oracle_gmap`], the loop it ran before the
//!   plan and the flat state existed (`BTreeMap` state, full stable
//!   sort every pass), kept here as the reference the way
//!   `shuffle::group` is: emitted pairs, ops, local syncs and input
//!   bytes — on algorithms whose keys churn, and on scripted passes
//!   that leave the plan at every prefix length, stop short of it or
//!   run past it, with `String` keys, and with values that count their
//!   drops (a value emitted on plan is written through a raw slot).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use asyncmr_core::prelude::*;
use asyncmr_core::shuffle;
use proptest::prelude::*;

// ---------------------------------------------------------------- (a)

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Get(u32),
    /// Look every key of the key space up: ascending (what `lmap` does,
    /// the finger's fast path), descending, or each key twice.
    Sweep(Order),
}

#[derive(Debug, Clone, Copy)]
enum Order {
    Ascending,
    Descending,
    Repeated,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u32..5, 0u32..40, any::<u32>()).prop_map(|(kind, k, v)| match kind {
        0 => Op::Insert(k, v),
        1 => Op::Get(k),
        2 => Op::Sweep(Order::Ascending),
        3 => Op::Sweep(Order::Descending),
        _ => Op::Sweep(Order::Repeated),
    });
    proptest::collection::vec(op, 0..80)
}

/// A write stream over a small key space, as is / key-descending /
/// key-ascending with duplicates adjacent.
fn write_stream() -> impl Strategy<Value = Vec<(u32, u32)>> {
    (proptest::collection::vec((0u32..20, any::<u32>()), 0..60), 0u32..3).prop_map(
        |(mut stream, order)| {
            match order {
                1 => stream.sort_by_key(|w| std::cmp::Reverse(w.0)),
                2 => stream.sort_by_key(|w| w.0),
                _ => {}
            }
            stream
        },
    )
}

fn assert_same_map(state: &LocalState<u32, u32>, model: &BTreeMap<u32, u32>) {
    assert_eq!(state.len(), model.len());
    assert_eq!(state.is_empty(), model.is_empty());
    assert!(state.iter().eq(model.iter()), "{state:?} vs {model:?}");
    assert!(state.into_iter().eq(model));
    for (k, v) in model {
        assert_eq!(state[k], *v);
    }
    assert_eq!(format!("{state:?}"), format!("{model:?}"));
    assert_eq!(*state, model.iter().map(|(k, v)| (*k, *v)).collect::<LocalState<u32, u32>>());
}

/// Runs `lreduce` once and has it `emit_local` the whole input stream,
/// so the gmap's output is the state those writes built.
struct Replay;

impl LocalAlgorithm for Replay {
    type Input = Vec<(u32, u32)>;
    type Item = (u32, u32);
    type Key = u32;
    type Value = u32;

    fn items<'a>(&self, input: &'a Self::Input) -> &'a [(u32, u32)] {
        input
    }
    fn init_state(&self, _t: usize, _input: &Self::Input) -> Vec<(u32, u32)> {
        Vec::new()
    }
    fn lmap(
        &self,
        _t: usize,
        _input: &Self::Input,
        _item: &(u32, u32),
        _state: &LocalState<u32, u32>,
        ctx: &mut LocalMapContext<u32, u32>,
    ) {
        ctx.emit_local_intermediate(0, 0);
    }
    fn lreduce(
        &self,
        _t: usize,
        input: &Self::Input,
        _key: &u32,
        _values: &[u32],
        ctx: &mut LocalReduceContext<u32, u32>,
    ) {
        for &(k, v) in input {
            ctx.emit_local(k, v);
        }
    }
    fn locally_converged(&self, _old: &LocalState<u32, u32>, _new: &LocalState<u32, u32>) -> bool {
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn local_state_behaves_like_a_btreemap(initial in write_stream(), ops in ops()) {
        let mut model: BTreeMap<u32, u32> = initial.iter().copied().collect();
        let mut state: LocalState<u32, u32> = initial.into_iter().collect();
        assert_same_map(&state, &model);
        for op in ops {
            match op {
                Op::Insert(k, v) => prop_assert_eq!(state.insert(k, v), model.insert(k, v)),
                Op::Get(k) => prop_assert_eq!(state.get(&k), model.get(&k)),
                Op::Sweep(order) => {
                    let keys: Vec<u32> = match order {
                        Order::Ascending => (0..42).collect(),
                        Order::Descending => (0..42).rev().collect(),
                        Order::Repeated => (0..42).flat_map(|k| [k, k]).collect(),
                    };
                    for k in keys {
                        prop_assert_eq!(state.get(&k), model.get(&k));
                    }
                }
            }
            assert_same_map(&state, &model);
        }
        let copy = state.clone();
        prop_assert_eq!(&copy, &state);
        state.insert(99, 1);
        prop_assert!(copy != state);
        prop_assert!(LocalState::<u32, u32>::default().is_empty());
        prop_assert_eq!(LocalState::<u32, u32>::new(), LocalState::default());
    }

    #[test]
    fn emit_local_in_any_order_is_last_write_wins(stream in write_stream()) {
        let model: BTreeMap<u32, u32> = stream.iter().copied().collect();
        let mut ctx = MapContext::default();
        EagerMapper::new(Replay).map(0, &stream, &mut ctx);
        let (pairs, meter, _, _) = ctx.finish();
        prop_assert_eq!(pairs, model.into_iter().collect::<Vec<_>>());
        prop_assert_eq!(meter.local_syncs(), 1);
    }
}

// ---------------------------------------------------------------- (b)

/// One pass's groups, as [`shuffle::group`] shapes them.
type Groups = Vec<(u32, Vec<u32>)>;

/// Pass `i` emits `script[i]` and `lreduce` logs every group it is
/// handed, so the log is what the task's plan made of each pass.
struct Logged {
    script: Vec<Vec<(u32, u32)>>,
    pass: AtomicUsize,
    log: Mutex<Vec<Groups>>,
}

impl LocalAlgorithm for Logged {
    type Input = ();
    type Item = ();
    type Key = u32;
    type Value = u32;

    fn items<'a>(&self, input: &'a ()) -> &'a [()] {
        std::slice::from_ref(input)
    }
    fn init_state(&self, _t: usize, _input: &()) -> Vec<(u32, u32)> {
        Vec::new()
    }
    fn lmap(
        &self,
        _t: usize,
        _input: &(),
        _item: &(),
        _state: &LocalState<u32, u32>,
        ctx: &mut LocalMapContext<u32, u32>,
    ) {
        for &(k, v) in &self.script[self.pass.load(Ordering::Relaxed)] {
            ctx.emit_local_intermediate(k, v);
        }
    }
    fn lreduce(
        &self,
        _t: usize,
        _input: &(),
        key: &u32,
        values: &[u32],
        _ctx: &mut LocalReduceContext<u32, u32>,
    ) {
        let mut log = self.log.lock().unwrap();
        let pass = self.pass.load(Ordering::Relaxed);
        log[pass].push((*key, values.to_vec()));
    }
    fn post_lreduce(
        &self,
        _t: usize,
        _input: &(),
        _old: &LocalState<u32, u32>,
        _new: &mut LocalState<u32, u32>,
    ) {
        self.pass.fetch_add(1, Ordering::Relaxed);
    }
    fn locally_converged(&self, _old: &LocalState<u32, u32>, _new: &LocalState<u32, u32>) -> bool {
        false
    }
    fn max_local_iterations(&self) -> usize {
        self.script.len()
    }
}

/// Runs `script` as the passes of one gmap task and checks every pass's
/// groups against the reference.
fn assert_groups_equal_reference(script: Vec<Vec<(u32, u32)>>) {
    let passes = script.len();
    let log = Mutex::new(vec![Vec::new(); passes]);
    let mapper = EagerMapper::new(Logged { script, pass: AtomicUsize::new(0), log });
    let mut ctx = MapContext::default();
    mapper.map(0, &(), &mut ctx);
    assert_eq!(ctx.meter.local_syncs(), passes as u64);
    let algo = mapper.algorithm();
    let log = algo.log.lock().unwrap();
    for (pass, (pairs, groups)) in algo.script.iter().zip(log.iter()).enumerate() {
        assert_eq!(*groups, shuffle::group(pairs.clone()), "pass {pass}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One task, one plan, a scripted sequence of passes: whatever the
    /// plan remembered, the groups are the reference's.
    #[test]
    fn planned_grouping_equals_reference_across_hits_and_misses(
        first in proptest::collection::vec((0u32..30, any::<u32>()), 1..200),
        changed_at in any::<u32>(),
        extra in (0u32..30, any::<u32>()),
    ) {
        let at = changed_at as usize % first.len();
        let new_values: Vec<(u32, u32)> = first.iter().map(|&(k, v)| (k, v ^ 0xA5A5)).collect();
        let mut one_key_changed = new_values.clone();
        one_key_changed[at].0 += 31; // a key the sequence never held
        let mut longer = first.clone();
        longer.push(extra);
        assert_groups_equal_reference(vec![
            first.clone(),                 // empty plan: miss
            new_values,                    // same keys, new values: hit
            one_key_changed,               // same length, one key differs: miss
            first.clone(),                 // back: miss at the same record
            longer,                        // runs past the plan: miss
            first[..first.len() - 1].to_vec(), // stops short of it: miss
            first.clone(),                 // runs past it again: miss …
            first,                         // … then hit
            Vec::new(),                    // empty pass: miss
            vec![extra],                   // an empty plan is no plan: miss
            vec![extra],                   // hit
        ]);
    }

    /// Unscripted: arbitrary passes, each run twice in a row (the
    /// second is a hit by construction), on one plan.
    #[test]
    fn planned_grouping_equals_reference_on_arbitrary_sequences(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0u32..12, any::<u32>()), 0..120), 1..6),
    ) {
        assert_groups_equal_reference(inputs.into_iter().flat_map(|pairs| [pairs.clone(), pairs]).collect());
    }
}

// ---------------------------------------------------------------- (c)

/// An algorithm stated once over plain closures, so both the framework
/// ([`Framework`] → `EagerMapper`) and the oracle can run it. States
/// are passed to `converged` as key-ascending slices.
trait Spec: Send + Sync {
    type Item: Send + Sync;
    type Key: Key + Debug;
    type Value: Value + PartialEq + Debug;
    /// Whether `post_lreduce` carries old entries nothing rewrote.
    const CARRY_FORWARD: bool;

    fn init(&self, xs: &[Self::Item]) -> Vec<(Self::Key, Self::Value)>;
    /// `lmap` over one item; returns the ops it meters.
    fn lmap(
        &self,
        x: &Self::Item,
        get: &dyn Fn(&Self::Key) -> Option<Self::Value>,
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    ) -> u64;
    /// `lreduce` over one group; returns the ops it meters.
    fn lreduce(
        &self,
        key: &Self::Key,
        values: &[Self::Value],
        emit: &mut dyn FnMut(Self::Key, Self::Value),
    ) -> u64;
    fn converged(&self, old: &[(Self::Key, Self::Value)], new: &[(Self::Key, Self::Value)])
        -> bool;
    fn max_passes(&self) -> usize;
    /// The keys every `lmap` pass over `xs` emits, in order, when they
    /// depend on `xs` alone.
    fn keys(&self, xs: &[Self::Item]) -> Option<Vec<Self::Key>> {
        let _ = xs;
        None
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

/// `EagerMapper::map` as it was before grouping plans and the flat
/// state: a `BTreeMap` per pass, a full stable sort of every pass's
/// emissions, `BTreeMap::insert` for `EmitLocal`, `entry().or_insert`
/// for the carry-forward hook.
fn oracle_gmap<S: Spec>(spec: &S, xs: &[S::Item]) -> Outcome<S::Key, S::Value> {
    let flat = |m: &BTreeMap<S::Key, S::Value>| -> Vec<(S::Key, S::Value)> {
        m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    };
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
            ops += spec.lreduce(&pairs[lo].0, &values, &mut |k, v| {
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
        let done = spec.converged(&flat(&state), &flat(&new_state));
        state = new_state;
        if done {
            break;
        }
    }
    Outcome { pairs: state.into_iter().collect(), ops, local_syncs, input_bytes }
}

/// A [`Spec`] as a [`LocalAlgorithm`]: keyed, or — with `.1` set —
/// declaring [`Spec::keys`] and emitting values only.
struct Framework<S>(S, bool);

impl<S: Spec> LocalAlgorithm for Framework<S> {
    type Input = Vec<S::Item>;
    type Item = S::Item;
    type Key = S::Key;
    type Value = S::Value;

    fn items<'a>(&self, input: &'a Self::Input) -> &'a [S::Item] {
        input
    }
    fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(S::Key, S::Value)> {
        self.0.init(input)
    }
    fn emission_keys(&self, _t: usize, input: &Self::Input) -> Option<Vec<S::Key>> {
        if self.1 {
            self.0.keys(input)
        } else {
            None
        }
    }
    fn lmap(
        &self,
        _t: usize,
        _input: &Self::Input,
        item: &S::Item,
        state: &LocalState<S::Key, S::Value>,
        ctx: &mut LocalMapContext<S::Key, S::Value>,
    ) {
        let get = |k: &S::Key| state.get(k).cloned();
        let ops = if self.1 {
            self.0.lmap(item, &get, &mut |_, v| ctx.emit_value(v))
        } else {
            self.0.lmap(item, &get, &mut |k, v| ctx.emit_local_intermediate(k, v))
        };
        ctx.add_ops(ops);
    }
    fn lreduce(
        &self,
        _t: usize,
        _input: &Self::Input,
        key: &S::Key,
        values: &[S::Value],
        ctx: &mut LocalReduceContext<S::Key, S::Value>,
    ) {
        let ops = self.0.lreduce(key, values, &mut |k, v| ctx.emit_local(k, v));
        ctx.add_ops(ops);
    }
    fn post_lreduce(
        &self,
        _t: usize,
        _input: &Self::Input,
        old: &LocalState<S::Key, S::Value>,
        new: &mut LocalState<S::Key, S::Value>,
    ) {
        if S::CARRY_FORWARD {
            for (k, v) in old {
                if new.get(k).is_none() {
                    new.insert(k.clone(), v.clone());
                }
            }
        }
    }
    fn locally_converged(
        &self,
        old: &LocalState<S::Key, S::Value>,
        new: &LocalState<S::Key, S::Value>,
    ) -> bool {
        let flat = |s: &LocalState<S::Key, S::Value>| -> Vec<(S::Key, S::Value)> {
            s.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        self.0.converged(&flat(old), &flat(new))
    }
    fn max_local_iterations(&self) -> usize {
        self.0.max_passes()
    }
}

fn framework_gmap<S: Spec>(spec: S, xs: Vec<S::Item>) -> Outcome<S::Key, S::Value> {
    run_gmap(Framework(spec, false), xs)
}

fn run_gmap<S: Spec>(algo: Framework<S>, xs: Vec<S::Item>) -> Outcome<S::Key, S::Value> {
    let mut ctx = MapContext::default();
    EagerMapper::new(algo).map(0, &xs, &mut ctx);
    let (pairs, meter, _, _) = ctx.finish();
    Outcome {
        pairs,
        ops: meter.ops(),
        local_syncs: meter.local_syncs(),
        input_bytes: meter.input_bytes(),
    }
}

/// `local::tests::Decay`: every key's value halves its distance to a
/// per-key target each pass. Keys repeat exactly, so every pass after
/// the first is a plan hit.
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
    fn lreduce(&self, key: &u32, values: &[f64], emit: &mut dyn FnMut(u32, f64)) -> u64 {
        emit(*key, values[0]);
        0
    }
    fn converged(&self, old: &[(u32, f64)], new: &[(u32, f64)]) -> bool {
        old.iter().zip(new).all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() < 1e-9)
    }
    fn max_passes(&self) -> usize {
        asyncmr_core::local::DEFAULT_MAX_LOCAL_ITERATIONS
    }
}

/// `local::tests::CarryForward`: key 1 never receives intermediate data
/// and survives only through `post_lreduce`.
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
        emit(0, get(&0).expect("key 0 is always rewritten") + u64::from(*x));
        0
    }
    fn lreduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        emit(*key, *values.iter().max().expect("groups are non-empty"));
        0
    }
    fn converged(&self, old: &[(u32, u64)], new: &[(u32, u64)]) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        3
    }
}

/// Key churn: a pass counter lives in the state under [`Churn::CLOCK`]
/// and `lmap`'s keys depend on it for the first `churn` passes (plan
/// misses), then freeze (plan hits, and convergence two passes later).
/// `lreduce` also writes each group's mirror key, so `emit_local` sees
/// out-of-order and repeated keys and last-write-wins decides values.
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
        let phase = get(&Self::CLOCK).expect("the clock is carried forward").min(self.churn);
        emit(Self::CLOCK, phase + 1);
        emit((x * (phase as u32 + 1) + phase as u32) % self.key_space, u64::from(*x) + phase);
        2
    }
    fn lreduce(&self, key: &u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        if *key == Self::CLOCK {
            emit(*key, values[0].min(self.churn));
        } else {
            let sum: u64 = values.iter().sum();
            emit(*key, sum);
            emit(self.key_space - 1 - key, sum + 1);
        }
        values.len() as u64
    }
    fn converged(&self, old: &[(u32, u64)], new: &[(u32, u64)]) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        self.churn as usize + 4
    }
}

/// The key and value types a [`Script`] runs over.
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

/// Heap keys: a fallback moves them out of the plan, a recording clones
/// them.
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

/// A value that counts its drops: emitted on plan it is written through
/// a raw slot, so "dropped exactly once" is worth checking.
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

/// Scripted passes: pass `p` emits `passes[p]` record by record (item
/// `j` emits record `j`), plus the pass counter kept in the state under
/// [`Script::CLOCK`] — before the records or after them, so a pass can
/// leave its plan at the very first emission or be a strict prefix of
/// it. `lreduce` folds each group in value order and also rewrites key
/// 0 (a duplicate, out-of-order `emit_local`); entries nothing rewrote
/// are carried forward by `post_lreduce` inserts.
struct Script<F> {
    passes: Vec<Vec<(u32, u64)>>,
    clock_first: bool,
    /// `lmap` panics at this `(pass, item)`.
    panic_at: Option<(u64, usize)>,
    flavor: std::marker::PhantomData<F>,
}

impl<F: Flavor> Script<F> {
    const CLOCK: u32 = 5_000;

    fn new(passes: &[Vec<(u32, u64)>], clock_first: bool) -> Self {
        let flavor = std::marker::PhantomData;
        Script { passes: passes.to_vec(), clock_first, panic_at: None, flavor }
    }

    /// Records in the longest pass.
    fn longest(&self) -> usize {
        self.passes.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// One item per record of the longest pass, and one for the clock.
    fn items(&self) -> Vec<usize> {
        (0..=self.longest()).collect()
    }

    fn clock(state: &[(F::K, F::V)]) -> u64 {
        let clock = F::key(Self::CLOCK);
        F::raw(&state.iter().find(|(k, _)| *k == clock).expect("the clock is always rewritten").1)
    }
}

impl<F: Flavor> Spec for Script<F> {
    type Item = usize;
    type Key = F::K;
    type Value = F::V;
    const CARRY_FORWARD: bool = true;

    fn init(&self, _xs: &[usize]) -> Vec<(F::K, F::V)> {
        vec![(F::key(Self::CLOCK), F::value(0))]
    }
    fn lmap(
        &self,
        &j: &usize,
        get: &dyn Fn(&F::K) -> Option<F::V>,
        emit: &mut dyn FnMut(F::K, F::V),
    ) -> u64 {
        let pass = F::raw(&get(&F::key(Self::CLOCK)).expect("the clock is always rewritten"));
        assert!(self.panic_at != Some((pass, j)), "scripted lmap panic");
        // The clock's item is the first or the last of the pass.
        let last = self.longest();
        let record = match (self.clock_first, j) {
            (true, 0) => None,
            (true, j) => Some(j - 1),
            (false, j) if j == last => None,
            (false, j) => Some(j),
        };
        match record {
            None => emit(F::key(Self::CLOCK), F::value(pass + 1)),
            Some(r) => {
                if let Some(&(k, x)) = self.passes[pass as usize].get(r) {
                    emit(F::key(k), F::value(x));
                }
            }
        }
        1
    }
    fn lreduce(&self, key: &F::K, values: &[F::V], emit: &mut dyn FnMut(F::K, F::V)) -> u64 {
        if *key == F::key(Self::CLOCK) {
            emit(key.clone(), values[0].clone());
        } else {
            let fold = values.iter().fold(7u64, |h, v| h.wrapping_mul(31).wrapping_add(F::raw(v)));
            emit(key.clone(), F::value(fold));
            emit(F::key(0), F::value(fold ^ 1));
        }
        values.len() as u64
    }
    fn converged(&self, _old: &[(F::K, F::V)], new: &[(F::K, F::V)]) -> bool {
        Self::clock(new) as usize == self.passes.len()
    }
    fn max_passes(&self) -> usize {
        self.passes.len()
    }
}

/// Runs `passes` through the oracle and the framework, with the clock
/// emitted first and last, and holds the one against the other.
fn assert_script_equals_oracle<F: Flavor>(passes: &[Vec<(u32, u64)>]) {
    for clock_first in [true, false] {
        let spec = Script::<F>::new(passes, clock_first);
        let xs = spec.items();
        let oracle = oracle_gmap(&spec, &xs);
        assert_eq!(oracle.local_syncs, passes.len() as u64, "the script ran to its end");
        assert_eq!(framework_gmap(spec, xs), oracle, "clock first: {clock_first}");
    }
}

/// `base` with new values (a hit after `base`).
fn revalued(base: &[(u32, u64)]) -> Vec<(u32, u64)> {
    base.iter().map(|&(k, x)| (k, x ^ 0x5A5A)).collect()
}

/// `base` with the key of record `k` changed to one no pass holds.
fn churned_at(base: &[(u32, u64)], k: usize) -> Vec<(u32, u64)> {
    let mut pass = revalued(base);
    pass[k].0 += 100;
    pass
}

/// Every way a pass can leave the plan `base` recorded, each followed
/// by the way back: a changed key at each prefix length `k` (the first
/// record, inside and at the edge of key groups, the last record), a
/// pass that stops after `k` records, and one that runs past the plan.
fn leave_the_plan_everywhere(base: &[(u32, u64)]) -> Vec<Vec<Vec<(u32, u64)>>> {
    let mut scripts: Vec<Vec<Vec<(u32, u64)>>> = Vec::new();
    for k in 0..base.len() {
        let (hit, churned) = (revalued(base), churned_at(base, k));
        scripts.push(vec![base.to_vec(), hit.clone(), churned.clone(), churned, hit]);
        let short = base[..k].to_vec();
        scripts.push(vec![base.to_vec(), short.clone(), short, base.to_vec(), revalued(base)]);
    }
    let mut long = base.to_vec();
    long.extend([(3, 33), (base[0].0, 34)]);
    scripts.push(vec![base.to_vec(), long.clone(), long, base.to_vec(), revalued(base)]);
    scripts
}

/// A short pass with repeated keys in scrambled order.
fn base_pass() -> impl Strategy<Value = Vec<(u32, u64)>> {
    proptest::collection::vec((0u32..8, 0u64..1_000), 1..14)
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
        prop_assert_eq!(framework_gmap(Decay, xs), oracle);
    }

    #[test]
    fn eager_mapper_equals_oracle_on_carry_forward(
        xs in proptest::collection::vec(0u32..100, 0..20),
    ) {
        let oracle = oracle_gmap(&CarryForward, &xs);
        prop_assert!(oracle.pairs.contains(&(1, 200)));
        prop_assert_eq!(framework_gmap(CarryForward, xs), oracle);
    }

    #[test]
    fn eager_mapper_equals_oracle_under_key_churn(
        xs in proptest::collection::vec(0u32..50, 0..60),
        key_space in 2u32..12,
        churn in 0u64..5,
    ) {
        let oracle = oracle_gmap(&Churn { key_space, churn }, &xs);
        // Not cut off by the cap: the keys froze and the state settled.
        prop_assert!(oracle.local_syncs < churn + 4);
        prop_assert_eq!(framework_gmap(Churn { key_space, churn }, xs), oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn eager_mapper_equals_oracle_leaving_the_plan_at_every_prefix_length(base in base_pass()) {
        for script in leave_the_plan_everywhere(&base) {
            assert_script_equals_oracle::<Plain>(&script);
        }
    }

    #[test]
    fn eager_mapper_equals_oracle_on_string_keys(base in base_pass()) {
        for script in leave_the_plan_everywhere(&base) {
            assert_script_equals_oracle::<Worded>(&script);
        }
    }

    /// On a hit and on a fallback at every prefix length, each value
    /// ever made — emitted, cloned into the state, handed out — is
    /// dropped exactly once.
    #[test]
    fn every_emitted_value_is_dropped_exactly_once(base in base_pass()) {
        for script in leave_the_plan_everywhere(&base) {
            DROPS.with_borrow_mut(Vec::clear);
            assert_script_equals_oracle::<Tracked>(&script);
            let drops = DROPS.with_borrow(Vec::clone);
            prop_assert!(!drops.is_empty());
            prop_assert!(drops.iter().all(|&d| d == 1), "{:?}", drops);
        }
    }

    /// `lmap` panics in the middle of an on-plan pass, after `at`
    /// values went to their slots: they may leak, nothing may be
    /// dropped twice.
    #[test]
    fn a_panic_in_the_middle_of_an_on_plan_pass_drops_nothing_twice(
        base in base_pass(),
        at in any::<u32>(),
        clock_first in any::<bool>(),
    ) {
        DROPS.with_borrow_mut(Vec::clear);
        let mut spec = Script::<Tracked>::new(&[base.clone(), revalued(&base)], clock_first);
        spec.panic_at = Some((1, at as usize % spec.items().len()));
        let xs = spec.items();
        let unwound = catch_unwind(AssertUnwindSafe(|| framework_gmap(spec, xs)));
        prop_assert!(unwound.is_err(), "the second pass panics");
        let drops = DROPS.with_borrow(Vec::clone);
        prop_assert!(drops.iter().all(|&d| d <= 1), "{:?}", drops);
    }
}

// ---------------------------------------------------------------- (d)

/// A graph's local pass: item `(key, targets)` emits its own key (the
/// keep-alive) and then one record per target, so the keys depend on
/// the items alone and can be declared. Targets may repeat
/// (multi-edges), name the item's own key (self-loops) or a key no item
/// owns, and an item may have none (a sink).
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
    const CARRY_FORWARD: bool = true;

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
        1 + targets.len() as u64
    }
    fn lreduce(&self, key: &F::K, values: &[F::V], emit: &mut dyn FnMut(F::K, F::V)) -> u64 {
        let fold = values.iter().fold(11u64, |h, v| h.wrapping_mul(31).wrapping_add(F::raw(v)));
        emit(key.clone(), F::value(fold % 1_000));
        values.len() as u64
    }
    fn converged(&self, old: &[(F::K, F::V)], new: &[(F::K, F::V)]) -> bool {
        old == new
    }
    fn max_passes(&self) -> usize {
        6
    }
    fn keys(&self, xs: &[(u32, Vec<u32>)]) -> Option<Vec<F::K>> {
        let per_item = |(k, ts): &(u32, Vec<u32>)| {
            std::iter::once(*k).chain(ts.iter().copied()).map(F::key).collect::<Vec<_>>()
        };
        Some(xs.iter().flat_map(per_item).collect())
    }
}

/// Items over keys `0..24`: repeated, self-looped, multi-edged, sinks
/// among them; possibly none.
fn flow_items() -> impl Strategy<Value = Vec<(u32, Vec<u32>)>> {
    let item = (0u32..24, proptest::collection::vec(0u32..24, 0..5)).prop_map(|(k, mut ts)| {
        if ts.len() == 3 {
            ts.push(k); // a self-loop
        }
        if ts.len() == 2 {
            ts.push(ts[0]); // a multi-edge
        }
        (k, ts)
    });
    proptest::collection::vec(item, 0..12)
}

/// Declared, keyed and the oracle over `xs`: all three equal.
fn assert_declared_equals_keyed<F: Flavor>(xs: &[(u32, Vec<u32>)]) {
    let oracle = oracle_gmap(&Flow::<F>::new(), xs);
    assert_eq!(framework_gmap(Flow::<F>::new(), xs.to_vec()), oracle, "keyed");
    assert_eq!(run_gmap(Framework(Flow::<F>::new(), true), xs.to_vec()), oracle, "declared");
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
        assert_declared_equals_keyed::<Plain>(&xs);
        assert_declared_equals_keyed::<Worded>(&xs);
    }

    /// Every value a declared pass emits goes through a raw slot; each
    /// one ever made is dropped exactly once.
    #[test]
    fn every_declared_value_is_dropped_exactly_once(xs in flow_items()) {
        DROPS.with_borrow_mut(Vec::clear);
        assert_declared_equals_keyed::<Tracked>(&xs);
        let drops = DROPS.with_borrow(Vec::clone);
        prop_assert!(drops.iter().all(|&d| d == 1), "{:?}", drops);
    }

    /// Jobs in sequence on one engine, declared and keyed: the same
    /// pairs, meters and `JobReuse` (the local plan uses included) job
    /// by job — through a job where task 0 is handed task 1's items (a
    /// slot whose keys change re-records, never reuses a stale plan)
    /// and one where it is handed none (an empty plan is no plan).
    #[test]
    fn declared_jobs_on_one_engine_equal_keyed_jobs(
        tasks in proptest::collection::vec(flow_items(), 2..4),
    ) {
        let pool = asyncmr_runtime::ThreadPool::new(2);
        let (mut declared, mut keyed) = (Engine::in_process(&pool), Engine::in_process(&pool));
        let opts = JobOptions::with_reducers(3);
        let mut swapped = tasks.clone();
        swapped[0] = tasks[1].clone();
        let mut emptied = tasks.clone();
        emptied[0].clear();
        for inputs in [&tasks, &tasks, &swapped, &emptied, &tasks, &tasks] {
            let d = declared.run("d", inputs, &EagerMapper::new(Framework(Flow::<Plain>::new(), true)), &Sum, &opts);
            let k = keyed.run("k", inputs, &EagerMapper::new(Framework(Flow::<Plain>::new(), false)), &Sum, &opts);
            prop_assert_eq!(&d.pairs, &k.pairs);
            prop_assert_eq!(d.meter, k.meter);
            prop_assert_eq!(d.reuse, k.reuse);
            prop_assert_eq!(d.reuse.local.hits + d.reuse.local.misses, d.meter.local_syncs);
        }
    }
}

/// How a [`Liar`] breaks its declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Lie {
    /// One value more than declared keys.
    Extra,
    /// One value fewer.
    Missing,
    /// A keyed emission in a declared pass.
    Keyed,
    /// Declares nothing, emits keyed — and then one value.
    Undeclared,
}

/// Declares keys `0..records` and then its clock (the pass counter,
/// [`Liar::CLOCK`]), emits a [`Tracked`] value per key, and breaks the
/// declaration in pass `at` as `lie` says.
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
    type Item = u32;
    type Key = u32;
    type Value = Tracked;

    fn items<'a>(&self, input: &'a Vec<u32>) -> &'a [u32] {
        input
    }
    fn init_state(&self, _t: usize, _input: &Vec<u32>) -> Vec<(u32, Tracked)> {
        vec![(Self::CLOCK, Tracked::new(0))]
    }
    fn emission_keys(&self, _t: usize, input: &Vec<u32>) -> Option<Vec<u32>> {
        let keys = input.iter().map(|&j| if j == self.records { Self::CLOCK } else { j });
        (self.lie != Lie::Undeclared).then(|| keys.collect())
    }
    fn lmap(
        &self,
        _t: usize,
        _input: &Vec<u32>,
        &j: &u32,
        state: &LocalState<u32, Tracked>,
        ctx: &mut LocalMapContext<u32, Tracked>,
    ) {
        let pass = state[&Self::CLOCK].x;
        let (key, value) = if j == self.records { (Self::CLOCK, pass + 1) } else { (j, 7) };
        match (self.lie, pass == self.at) {
            (Lie::Extra, true) if j == 0 => {
                ctx.emit_value(Tracked::new(value));
                ctx.emit_value(Tracked::new(value));
            }
            (Lie::Missing, true) if j == 0 => {}
            (Lie::Keyed, true) if j == 0 => ctx.emit_local_intermediate(key, Tracked::new(value)),
            (Lie::Undeclared, false) => ctx.emit_local_intermediate(key, Tracked::new(value)),
            _ => ctx.emit_value(Tracked::new(value)),
        }
    }
    fn lreduce(
        &self,
        _t: usize,
        _input: &Vec<u32>,
        key: &u32,
        values: &[Tracked],
        ctx: &mut LocalReduceContext<u32, Tracked>,
    ) {
        ctx.emit_local(*key, values[0].clone());
    }
    fn locally_converged(
        &self,
        _old: &LocalState<u32, Tracked>,
        _new: &LocalState<u32, Tracked>,
    ) -> bool {
        false
    }
    fn max_local_iterations(&self) -> usize {
        self.at as usize + 2
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every way to break a declaration panics, in every build, naming
    /// the task and the pass — and no value is dropped twice.
    #[test]
    fn a_broken_declaration_panics_naming_its_task_and_pass(
        records in 1u32..20,
        at in 0u64..4,
        task in 0usize..9,
    ) {
        for lie in [Lie::Extra, Lie::Missing, Lie::Keyed, Lie::Undeclared] {
            DROPS.with_borrow_mut(Vec::clear);
            let input: Vec<u32> = (0..=records).collect();
            let mapper = EagerMapper::new(Liar { records, lie, at });
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                mapper.map(task, &input, &mut MapContext::default())
            }));
            let payload = unwound.expect_err("a broken declaration panics");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            let named = format!("task {task}, pass {at}:");
            prop_assert!(message.contains(&named), "{:?}: {}", lie, message);
            let drops = DROPS.with_borrow(Vec::clone);
            prop_assert!(drops.iter().all(|&d| d <= 1), "{:?}: {:?}", lie, drops);
        }
    }
}
