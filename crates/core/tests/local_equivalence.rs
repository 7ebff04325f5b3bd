//! Property tests pinning the local sync's fast structures to their
//! slow references:
//!
//! * [`LocalState`] (one sorted `Vec`) behaves like the `BTreeMap` it
//!   replaced — `insert` / `get` / traversal / `collect` / `==`, and
//!   `emit_local` streams in any order (last write wins, result
//!   key-ascending);
//! * [`Grouped::from_pairs_planned`] equals the `BTreeMap` reference
//!   [`shuffle::group`] over *sequences* of calls on one [`GroupPlan`]
//!   — a hit, every kind of miss, and a return to an earlier sequence;
//! * [`EagerMapper`] equals [`oracle_gmap`], the loop it ran before the
//!   plan and the flat state existed (`BTreeMap` state, full stable
//!   sort every pass), kept here as the reference the way
//!   `shuffle::group` is: emitted pairs, ops, local syncs and input
//!   bytes, including on an algorithm whose keys churn.

use std::collections::BTreeMap;
use std::fmt::Debug;

use asyncmr_core::prelude::*;
use asyncmr_core::shuffle::{self, GroupPlan, Grouped, ShuffleScratch};
use proptest::prelude::*;

// ---------------------------------------------------------------- (a)

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Get(u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (any::<bool>(), 0u32..40, any::<u32>()).prop_map(|(insert, k, v)| {
        if insert {
            Op::Insert(k, v)
        } else {
            Op::Get(k)
        }
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

fn collect(grouped: &Grouped<u32, u32>) -> Vec<(u32, Vec<u32>)> {
    let mut out = Vec::new();
    grouped.for_each(|g| out.push((*g.key, g.values.to_vec())));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One plan, one scratch, a scripted sequence of inputs: whatever
    /// the plan remembered, the groups are the reference's.
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
        let script = [
            first.clone(),                 // empty plan: miss
            new_values,                    // same keys, new values: hit
            one_key_changed,               // same length, one key differs: miss
            longer,                        // length differs: miss
            first[..first.len() - 1].to_vec(), // shorter: miss
            first.clone(),                 // back to the first sequence: miss …
            first,                         // … then hit
            Vec::new(),                    // empty input: miss
        ];
        let mut plan = GroupPlan::default();
        let mut scratch = ShuffleScratch::default();
        for pairs in script {
            let reference = shuffle::group(pairs.clone());
            let grouped = Grouped::from_pairs_planned(pairs, &mut plan, &mut scratch);
            prop_assert_eq!(collect(&grouped), reference);
            grouped.recycle_into(&mut scratch);
        }
    }

    /// Unscripted: arbitrary inputs, each grouped twice in a row (the
    /// second call is a hit by construction), on one plan.
    #[test]
    fn planned_grouping_equals_reference_on_arbitrary_sequences(
        inputs in proptest::collection::vec(
            proptest::collection::vec((0u32..12, any::<u32>()), 0..120), 1..6),
    ) {
        let mut plan = GroupPlan::default();
        let mut scratch = ShuffleScratch::default();
        for pairs in inputs {
            let reference = shuffle::group(pairs.clone());
            for _ in 0..2 {
                let grouped = Grouped::from_pairs_planned(pairs.clone(), &mut plan, &mut scratch);
                prop_assert_eq!(collect(&grouped), reference.clone());
                grouped.recycle_into(&mut scratch);
            }
        }
    }
}

// ---------------------------------------------------------------- (c)

/// An algorithm stated once over plain closures, so both the framework
/// ([`Framework`] → `EagerMapper`) and the oracle can run it. Keys are
/// `u32`; states are passed to `converged` as key-ascending slices.
trait Spec: Send + Sync {
    type Item: Send + Sync;
    type Value: Value + PartialEq + Debug;
    /// Whether `post_lreduce` carries old entries nothing rewrote.
    const CARRY_FORWARD: bool;

    fn init(&self, xs: &[Self::Item]) -> Vec<(u32, Self::Value)>;
    /// `lmap` over one item; returns the ops it meters.
    fn lmap(
        &self,
        x: &Self::Item,
        get: &dyn Fn(u32) -> Option<Self::Value>,
        emit: &mut dyn FnMut(u32, Self::Value),
    ) -> u64;
    /// `lreduce` over one group; returns the ops it meters.
    fn lreduce(
        &self,
        key: u32,
        values: &[Self::Value],
        emit: &mut dyn FnMut(u32, Self::Value),
    ) -> u64;
    fn converged(&self, old: &[(u32, Self::Value)], new: &[(u32, Self::Value)]) -> bool;
    fn max_passes(&self) -> usize;
}

/// What a gmap produced and what it metered.
#[derive(Debug, PartialEq)]
struct Outcome<V> {
    pairs: Vec<(u32, V)>,
    ops: u64,
    local_syncs: u64,
    input_bytes: u64,
}

/// `EagerMapper::map` as it was before grouping plans and the flat
/// state: a `BTreeMap` per pass, a full stable sort of every pass's
/// emissions, `BTreeMap::insert` for `EmitLocal`, `entry().or_insert`
/// for the carry-forward hook.
fn oracle_gmap<S: Spec>(spec: &S, xs: &[S::Item]) -> Outcome<S::Value> {
    let flat = |m: &BTreeMap<u32, S::Value>| -> Vec<(u32, S::Value)> {
        m.iter().map(|(k, v)| (*k, v.clone())).collect()
    };
    let mut state: BTreeMap<u32, S::Value> = spec.init(xs).into_iter().collect();
    let input_bytes = state.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum();
    let (mut ops, mut local_syncs) = (0u64, 0u64);
    for _ in 0..spec.max_passes() {
        let mut pairs: Vec<(u32, S::Value)> = Vec::new();
        for x in xs {
            ops += spec.lmap(x, &|k| state.get(&k).cloned(), &mut |k, v| pairs.push((k, v)));
        }
        ops += pairs.len() as u64;
        pairs.sort_by_key(|p| p.0);
        let mut new_state: BTreeMap<u32, S::Value> = BTreeMap::new();
        let mut lo = 0;
        while lo < pairs.len() {
            let hi = lo + pairs[lo..].iter().take_while(|p| p.0 == pairs[lo].0).count();
            let values: Vec<S::Value> = pairs[lo..hi].iter().map(|p| p.1.clone()).collect();
            ops += spec.lreduce(pairs[lo].0, &values, &mut |k, v| {
                new_state.insert(k, v);
            });
            lo = hi;
        }
        if S::CARRY_FORWARD {
            for (k, v) in &state {
                new_state.entry(*k).or_insert_with(|| v.clone());
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

/// A [`Spec`] as a [`LocalAlgorithm`].
struct Framework<S>(S);

impl<S: Spec> LocalAlgorithm for Framework<S> {
    type Input = Vec<S::Item>;
    type Item = S::Item;
    type Key = u32;
    type Value = S::Value;

    fn items<'a>(&self, input: &'a Self::Input) -> &'a [S::Item] {
        input
    }
    fn init_state(&self, _t: usize, input: &Self::Input) -> Vec<(u32, S::Value)> {
        self.0.init(input)
    }
    fn lmap(
        &self,
        _t: usize,
        _input: &Self::Input,
        item: &S::Item,
        state: &LocalState<u32, S::Value>,
        ctx: &mut LocalMapContext<u32, S::Value>,
    ) {
        let ops = self
            .0
            .lmap(item, &|k| state.get(&k).cloned(), &mut |k, v| ctx.emit_local_intermediate(k, v));
        ctx.add_ops(ops);
    }
    fn lreduce(
        &self,
        _t: usize,
        _input: &Self::Input,
        key: &u32,
        values: &[S::Value],
        ctx: &mut LocalReduceContext<u32, S::Value>,
    ) {
        let ops = self.0.lreduce(*key, values, &mut |k, v| ctx.emit_local(k, v));
        ctx.add_ops(ops);
    }
    fn post_lreduce(
        &self,
        _t: usize,
        _input: &Self::Input,
        old: &LocalState<u32, S::Value>,
        new: &mut LocalState<u32, S::Value>,
    ) {
        if S::CARRY_FORWARD {
            for (k, v) in old {
                if new.get(k).is_none() {
                    new.insert(*k, v.clone());
                }
            }
        }
    }
    fn locally_converged(
        &self,
        old: &LocalState<u32, S::Value>,
        new: &LocalState<u32, S::Value>,
    ) -> bool {
        let flat = |s: &LocalState<u32, S::Value>| -> Vec<(u32, S::Value)> {
            s.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        self.0.converged(&flat(old), &flat(new))
    }
    fn max_local_iterations(&self) -> usize {
        self.0.max_passes()
    }
}

fn framework_gmap<S: Spec>(spec: S, xs: Vec<S::Item>) -> Outcome<S::Value> {
    let mut ctx = MapContext::default();
    EagerMapper::new(Framework(spec)).map(0, &xs, &mut ctx);
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
    type Value = f64;
    const CARRY_FORWARD: bool = false;

    fn init(&self, xs: &[(u32, f64)]) -> Vec<(u32, f64)> {
        xs.iter().map(|&(k, _)| (k, 0.0)).collect()
    }
    fn lmap(
        &self,
        &(key, target): &(u32, f64),
        get: &dyn Fn(u32) -> Option<f64>,
        emit: &mut dyn FnMut(u32, f64),
    ) -> u64 {
        let current = get(key).expect("every key is in the state");
        emit(key, current + 0.5 * (target - current));
        1
    }
    fn lreduce(&self, key: u32, values: &[f64], emit: &mut dyn FnMut(u32, f64)) -> u64 {
        emit(key, values[0]);
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
    type Value = u64;
    const CARRY_FORWARD: bool = true;

    fn init(&self, _xs: &[u32]) -> Vec<(u32, u64)> {
        vec![(0, 100), (1, 200)]
    }
    fn lmap(
        &self,
        x: &u32,
        get: &dyn Fn(u32) -> Option<u64>,
        emit: &mut dyn FnMut(u32, u64),
    ) -> u64 {
        emit(0, get(0).expect("key 0 is always rewritten") + u64::from(*x));
        0
    }
    fn lreduce(&self, key: u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        emit(key, *values.iter().max().expect("groups are non-empty"));
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
    type Value = u64;
    const CARRY_FORWARD: bool = true;

    fn init(&self, _xs: &[u32]) -> Vec<(u32, u64)> {
        (0..self.key_space).map(|k| (k, 0)).chain([(Self::CLOCK, 0)]).collect()
    }
    fn lmap(
        &self,
        x: &u32,
        get: &dyn Fn(u32) -> Option<u64>,
        emit: &mut dyn FnMut(u32, u64),
    ) -> u64 {
        let phase = get(Self::CLOCK).expect("the clock is carried forward").min(self.churn);
        emit(Self::CLOCK, phase + 1);
        emit((x * (phase as u32 + 1) + phase as u32) % self.key_space, u64::from(*x) + phase);
        2
    }
    fn lreduce(&self, key: u32, values: &[u64], emit: &mut dyn FnMut(u32, u64)) -> u64 {
        if key == Self::CLOCK {
            emit(key, values[0].min(self.churn));
        } else {
            let sum: u64 = values.iter().sum();
            emit(key, sum);
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
