//! Property tests pinning the folding local passes of the five Eager
//! apps — PageRank, Jacobi, Connected Components, SSSP and K-Means — to
//! the keyed passes they replaced.
//!
//! Each app's groups are its local state's entries: its `lmap` emits
//! each value to its group — a graph app's local target `lt`, K-Means's
//! nearest centroid — and the value is folded into that group's
//! accumulator as it is emitted. The reference ([`KeyedPass`]) is a
//! global map of its own that shares no code with `EagerMapper`: a
//! `BTreeMap` state, each pass's emitted pairs grouped by
//! `shuffle::group`, and the keyed `lmap` and `lreduce` each app ran
//! before it folded, kept here as plain functions that emit through a
//! closure, over the items each ran on and followed by the whole-state
//! convergence test each ran after a pass ([`KeyedApp`]). Only the
//! app's `init_state` and `finalize` are the app's own. PageRank's and
//! Jacobi's keyed passes keep their state as the `PrMsg`/`JMsg` they
//! carried, tag and all, and hand the convergence test and `finalize`
//! the `f64`s inside ([`Keyed`]), where the folds' state is the plain
//! `f64`. K-Means's
//! reference also keeps the carry its after-reduce hook made, before
//! the framework dropped that hook: a centroid no point chose keeps its
//! place. Folding and keyed runs must agree bitwise (`f64`s are
//! compared by their bits) on:
//!
//! * every map task's emissions, `TaskMeter`, records and bytes — so
//!   its final local state, which `finalize` emits;
//! * a sequence of jobs on one engine: pairs, `JobMeter` and `JobReuse`
//!   (`route`, `group`, `group_by_identity`) — through a job where each
//!   task is handed another task's input.
//!
//! Every graph carries self-loops, multi-edges, a sink and vertices the
//! source cannot reach, and every partitioning a partition with no
//! internal edge and an empty one; every K-Means run a centroid no
//! point chooses and, with more partitions than points, tasks with no
//! point at all.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;

use asyncmr_apps::cc::eager::CcLocalAlgorithm;
use asyncmr_apps::cc::general::{CcGeneralInput, CcMinReducer};
use asyncmr_apps::jacobi::eager::JacobiLocalAlgorithm;
use asyncmr_apps::jacobi::general::{JMsg, JacobiInput, JacobiReducer};
use asyncmr_apps::jacobi::rule::update;
use asyncmr_apps::kmeans::eager::KmLocalAlgorithm;
use asyncmr_apps::kmeans::general::{ClusterUpdate, KmGeneralInput, KmMeanReducer};
use asyncmr_apps::kmeans::{dist2, Point};
use asyncmr_apps::pagerank::eager::{PrEagerInput, PrEagerReducer, PrLocalAlgorithm};
use asyncmr_apps::pagerank::{PageRankConfig, PrMsg};
use asyncmr_apps::sssp::eager::SpLocalAlgorithm;
use asyncmr_apps::sssp::general::{SpGeneralInput, SpMinReducer};
use asyncmr_apps::GraphPartition;
use asyncmr_core::prelude::*;
use asyncmr_core::shuffle;
use asyncmr_graph::{CsrGraph, NodeId, WeightedGraph};
use asyncmr_partition::Partitioning;
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// Where a keyed `lmap` or `lreduce` sends its `(key, value)` pairs.
type Emit<'a, V> = &'a mut dyn FnMut(NodeId, V);

/// The keyed `lmap` an app ran before it folded: one item over the
/// current state, whose values are `S`s; returns the ops it meters.
type KeyedLmap<A, S> =
    fn(&<A as LocalAlgorithm>::Input, u32, &BTreeMap<NodeId, S>, Emit<'_, S>) -> u64;

/// What an app's keyed passes read beside its `LocalAlgorithm`, from
/// before a pass was one `lmap` call that settles group by group.
trait KeyedApp: LocalAlgorithm<Key = NodeId> {
    /// The items its keyed `lmap` ran over, once each a pass.
    fn items(input: &Self::Input) -> &[u32];
    /// Its local-convergence test over the values a pass read and the
    /// ones it wrote, entry by entry.
    fn converged(&self, old: &[Self::Value], new: &[Self::Value]) -> bool;
}

impl KeyedApp for PrLocalAlgorithm {
    fn items(input: &PrEagerInput) -> &[u32] {
        &input.part.local_ids
    }
    fn converged(&self, old: &[f64], new: &[f64]) -> bool {
        old.iter().zip(new).all(|(&a, &b)| self.rule.locally_settled(a, b))
    }
}

impl KeyedApp for JacobiLocalAlgorithm {
    fn items(input: &JacobiInput) -> &[u32] {
        &input.part.local_ids
    }
    fn converged(&self, old: &[f64], new: &[f64]) -> bool {
        old.iter().zip(new).all(|(a, b)| (a - b).abs() < self.local_tolerance)
    }
}

impl KeyedApp for CcLocalAlgorithm {
    fn items(input: &CcGeneralInput) -> &[u32] {
        &input.part.local_ids
    }
    fn converged(&self, old: &[NodeId], new: &[NodeId]) -> bool {
        old == new
    }
}

impl KeyedApp for SpLocalAlgorithm {
    fn items(input: &SpGeneralInput) -> &[u32] {
        &input.part.local_ids
    }
    /// Every distance stayed put, ∞ to ∞ included.
    fn converged(&self, old: &[f64], new: &[f64]) -> bool {
        old.iter().zip(new).all(|(&a, &b)| a == b || (a.is_infinite() && b.is_infinite()))
    }
}

impl KeyedApp for KmLocalAlgorithm {
    fn items(input: &KmGeneralInput) -> &[u32] {
        &input.indices
    }
    fn converged(&self, old: &[ClusterUpdate], new: &[ClusterUpdate]) -> bool {
        old.iter()
            .zip(new)
            .all(|((c_old, _), (c_new, _))| dist2(c_old, c_new).sqrt() < self.threshold)
    }
}

/// The keyed `lreduce` it ran: one key group into the next state;
/// returns the ops it meters.
type KeyedReduce<A, S> = fn(&A, &<A as LocalAlgorithm>::Input, &NodeId, &[S], Emit<'_, S>) -> u64;

/// What an entry no value reached becomes in the next state.
type Carry<S> = fn(&S) -> S;

/// A value of the keyed pass's state, which holds an app's state value
/// `V` — as itself, or as the message its keyed passes carried:
/// PageRank's and Jacobi's kept their `Contrib` tag on every entry.
trait Keyed<V>: Value {
    /// `init_state`'s value as the keyed state stores it.
    fn wrap(value: V) -> Self;
    /// The value the app's convergence test and `finalize` read.
    fn payload(&self) -> V;
}

impl<V: Value> Keyed<V> for V {
    fn wrap(value: V) -> V {
        value
    }
    fn payload(&self) -> V {
        self.clone()
    }
}

impl Keyed<f64> for PrMsg {
    fn wrap(rank: f64) -> PrMsg {
        PrMsg::Contrib(rank)
    }
    fn payload(&self) -> f64 {
        let PrMsg::Contrib(rank) = self else { unreachable!("state always holds the vertex rank") };
        *rank
    }
}

impl Keyed<f64> for JMsg {
    fn wrap(x: f64) -> JMsg {
        JMsg::Contrib(x)
    }
    fn payload(&self) -> f64 {
        let JMsg::Contrib(x) = self else { unreachable!("state stores Contrib(x)") };
        *x
    }
}

/// `A`'s keyed local passes as a global map: `A`'s `init_state`, cap
/// and `finalize` around its old items, `lmap`, `lreduce` and
/// convergence test over a state of `S`s.
struct KeyedPass<A: KeyedApp, S> {
    algo: A,
    lmap: KeyedLmap<A, S>,
    reduce: KeyedReduce<A, S>,
    /// `None` drops an entry no value reached. The graph apps' `lmap`
    /// reaches every entry (its keep-alive).
    carry: Option<Carry<S>>,
}

impl<A: KeyedApp, S> KeyedPass<A, S> {
    fn new(algo: A, lmap: KeyedLmap<A, S>, reduce: KeyedReduce<A, S>) -> Self {
        KeyedPass { algo, lmap, reduce, carry: None }
    }
}

impl<A, S> Mapper for KeyedPass<A, S>
where
    A: KeyedApp,
    S: Keyed<A::Value>,
{
    type Input = A::Input;
    type Key = NodeId;
    type Value = A::Intermediate;

    fn map(&self, task: usize, input: &A::Input, ctx: &mut MapContext<NodeId, A::Intermediate>) {
        let algo = &self.algo;
        let init = algo.init_state(task, input);
        let bytes = algo
            .input_bytes(task, input)
            .unwrap_or_else(|| init.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum());
        ctx.meter.set_input_bytes(bytes);
        let mut state: BTreeMap<NodeId, S> =
            init.into_iter().map(|(k, v)| (k, S::wrap(v))).collect();
        // The convergence test and `finalize` read the state's values,
        // and `finalize` its keys, as key-ascending slices.
        let values = |state: &BTreeMap<NodeId, S>| -> Vec<A::Value> {
            state.values().map(S::payload).collect()
        };
        for _ in 0..algo.max_local_iterations() {
            let (mut pairs, mut ops) = (Vec::new(), 0);
            for &item in A::items(input) {
                ops += (self.lmap)(input, item, &state, &mut |k, v| pairs.push((k, v)));
            }
            ops += pairs.len() as u64; // the framework's op a record
            let mut next = BTreeMap::new();
            for (key, values) in shuffle::group(pairs) {
                ops += (self.reduce)(algo, input, &key, &values, &mut |k, v| {
                    next.insert(k, v);
                });
            }
            if let Some(carry) = self.carry {
                for (key, old) in &state {
                    next.entry(*key).or_insert_with(|| carry(old));
                }
            }
            ctx.meter.add_ops(ops);
            ctx.meter.add_local_sync();
            // Every pass reaches every entry (or carries it), so the two
            // states' slices pair entry with entry.
            assert!(next.keys().eq(state.keys()), "a keyed pass keeps its state's keys");
            let done = algo.converged(&values(&state), &values(&next));
            state = next;
            if done {
                break;
            }
        }
        let keys: Vec<NodeId> = state.keys().copied().collect();
        algo.finalize(task, input, &keys, &values(&state), ctx);
    }
}

/// Eager PageRank's keyed `lmap`.
fn pr_lmap(
    input: &PrEagerInput,
    li: u32,
    state: &BTreeMap<NodeId, PrMsg>,
    emit: Emit<'_, PrMsg>,
) -> u64 {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let PrMsg::Contrib(rank) = state[&v] else {
        unreachable!("state always holds the vertex rank");
    };
    emit(v, PrMsg::Contrib(0.0));
    let (deg, ops) = (part.out_degree[li as usize], 1 + part.internal.degree(li) as u64);
    if deg == 0 {
        return ops;
    }
    let c = rank / deg as f64;
    for (lt, _) in part.internal.edges(li) {
        emit(part.nodes[lt as usize], PrMsg::Contrib(c));
    }
    ops
}

/// Eager PageRank's keyed `lreduce`: the frozen remote sum plus the
/// contributions, through Eq. 1.
fn pr_reduce(
    algo: &PrLocalAlgorithm,
    input: &PrEagerInput,
    v: &NodeId,
    values: &[PrMsg],
    emit: Emit<'_, PrMsg>,
) -> u64 {
    let li = input.part.nodes.binary_search(v).expect("lmap emits owned vertices only");
    let mut sum = input.remote_in[li];
    for value in values {
        let PrMsg::Contrib(c) = value else { unreachable!("lmap sends contributions") };
        sum += c;
    }
    emit(*v, PrMsg::Contrib(algo.rule.rank(sum)));
    values.len() as u64
}

/// Eager Jacobi's keyed `lmap`.
fn jacobi_lmap(
    input: &JacobiInput,
    li: u32,
    state: &BTreeMap<NodeId, JMsg>,
    emit: Emit<'_, JMsg>,
) -> u64 {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let JMsg::Contrib(xv) = state[&v] else {
        unreachable!("state stores Contrib(x)");
    };
    emit(v, JMsg::Contrib(0.0));
    for (lt, _) in part.internal.edges(li) {
        emit(part.nodes[lt as usize], JMsg::Contrib(xv));
    }
    1 + part.internal.degree(li) as u64
}

/// Eager Jacobi's keyed `lreduce`: the frozen remote sum plus the
/// neighbour values, through the point update.
fn jacobi_reduce(
    _algo: &JacobiLocalAlgorithm,
    input: &JacobiInput,
    v: &NodeId,
    values: &[JMsg],
    emit: Emit<'_, JMsg>,
) -> u64 {
    let li = input.part.nodes.binary_search(v).expect("lmap emits owned vertices only");
    let mut sum = input.remote_in[li];
    for value in values {
        let JMsg::Contrib(c) = value else { unreachable!("lmap sends neighbour values") };
        sum += c;
    }
    emit(*v, JMsg::Contrib(update(input.b[li], sum, input.diag[li])));
    values.len() as u64
}

/// Eager Connected Components' keyed `lmap`.
fn cc_lmap(
    input: &CcGeneralInput,
    li: u32,
    state: &BTreeMap<NodeId, NodeId>,
    emit: Emit<'_, NodeId>,
) -> u64 {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let label = state[&v];
    emit(v, label);
    for (lt, _) in part.internal.edges(li) {
        emit(part.nodes[lt as usize], label);
    }
    1 + part.internal.degree(li) as u64
}

/// Eager Connected Components' keyed `lreduce`: the smallest label.
fn cc_reduce(
    _algo: &CcLocalAlgorithm,
    _input: &CcGeneralInput,
    v: &NodeId,
    labels: &[NodeId],
    emit: Emit<'_, NodeId>,
) -> u64 {
    emit(*v, labels.iter().copied().fold(NodeId::MAX, NodeId::min));
    labels.len() as u64
}

/// Eager SSSP's keyed `lmap`: an unreached vertex proposes only itself.
fn sssp_lmap(
    input: &SpGeneralInput,
    li: u32,
    state: &BTreeMap<NodeId, f64>,
    emit: Emit<'_, f64>,
) -> u64 {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let d = state[&v];
    emit(v, d);
    if !d.is_finite() {
        return 1;
    }
    for (lt, w) in part.internal.edges(li) {
        emit(part.nodes[lt as usize], d + w);
    }
    1 + part.internal.degree(li) as u64
}

/// Eager SSSP's keyed `lreduce`: the shortest proposal.
fn sssp_reduce(
    _algo: &SpLocalAlgorithm,
    _input: &SpGeneralInput,
    v: &NodeId,
    proposals: &[f64],
    emit: Emit<'_, f64>,
) -> u64 {
    emit(*v, proposals.iter().copied().fold(f64::INFINITY, f64::min));
    proposals.len() as u64
}

/// Eager K-Means's keyed `lmap`: each point under its nearest
/// centroid's id, over every centroid of the state, unchosen ones
/// included.
fn kmeans_lmap(
    input: &KmGeneralInput,
    i: u32,
    state: &BTreeMap<u32, ClusterUpdate>,
    emit: Emit<'_, ClusterUpdate>,
) -> u64 {
    let point = &input.points[i as usize];
    let mut best = (0, f64::INFINITY);
    for (cid, (centroid, _)) in state {
        let d = dist2(point, centroid);
        if d < best.1 {
            best = (*cid, d);
        }
    }
    emit(best.0, (point.clone(), 1));
    (state.len() * point.len()) as u64
}

/// Eager K-Means's keyed `lreduce`: each chosen centroid's mean.
fn kmeans_reduce(
    _algo: &KmLocalAlgorithm,
    _input: &KmGeneralInput,
    cid: &u32,
    members: &[ClusterUpdate],
    emit: Emit<'_, ClusterUpdate>,
) -> u64 {
    let mut sum = vec![0.0; members[0].0.len()];
    let mut count = 0;
    for (point, c) in members {
        sum.iter_mut().zip(point).for_each(|(s, x)| *s += x);
        count += c;
    }
    sum.iter_mut().for_each(|s| *s /= count as f64);
    let ops = (members.len() * sum.len()) as u64;
    emit(*cid, (sum, count));
    ops
}

/// The hook K-Means had after each `lreduce`: a centroid no point
/// chose keeps its place, with count 0.
fn kmeans_carry((centroid, _): &ClusterUpdate) -> ClusterUpdate {
    (centroid.clone(), 0)
}

/// `main` vertices over `picks` (folded into range) plus a self-loop
/// and a doubled edge, then a sink fed from vertex 0, then `lonely`
/// vertices that only point at vertex 0. The main vertices are spread
/// over `k` parts by `owners`; the lonely ones are part `k`, which has
/// no internal edge, and part `k + 1` owns nothing.
fn adversarial(
    main: usize,
    lonely: usize,
    picks: &[(u32, u32)],
    owners: &[u32],
    k: usize,
) -> (CsrGraph, Partitioning) {
    let (sink, n) = (main as NodeId, main + 1 + lonely);
    let mut edges: Vec<(NodeId, NodeId)> =
        picks.iter().map(|&(u, v)| (u % main as u32, v % main as u32)).collect();
    edges.extend([(0, 0), (0, sink), (0, sink)]);
    edges.extend(edges.first().copied());
    edges.extend((main + 1..n).map(|v| (v as NodeId, 0)));
    let mut assignment: Vec<u32> = (0..main).map(|v| owners[v % owners.len()] % k as u32).collect();
    assignment.push(owners[0] % k as u32); // the sink
    assignment.resize(n, k as u32);
    (CsrGraph::from_edges(n, &edges), Partitioning::new(assignment, k + 2))
}

fn graphs() -> impl Strategy<Value = (CsrGraph, Partitioning)> {
    (
        2usize..40,
        1usize..4,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        proptest::collection::vec(any::<u32>(), 1..40),
        1usize..5,
    )
        .prop_map(|(main, lonely, picks, owners, k)| adversarial(main, lonely, &picks, &owners, k))
}

/// A value's bits, for comparing emissions bitwise.
trait Bits {
    fn bits(&self) -> Vec<u64>;
}

impl Bits for u32 {
    fn bits(&self) -> Vec<u64> {
        vec![u64::from(*self)]
    }
}

impl Bits for f64 {
    fn bits(&self) -> Vec<u64> {
        vec![self.to_bits()]
    }
}

impl Bits for PrMsg {
    fn bits(&self) -> Vec<u64> {
        match self {
            PrMsg::Contrib(c) => vec![0, c.to_bits()],
            PrMsg::LocalSum(s) => vec![1, s.to_bits()],
        }
    }
}

impl Bits for JMsg {
    fn bits(&self) -> Vec<u64> {
        match self {
            JMsg::Contrib(c) => vec![0, c.to_bits()],
            JMsg::LocalSum(s) => vec![1, s.to_bits()],
            JMsg::Seed { b, diag } => vec![2, b.to_bits(), diag.to_bits()],
        }
    }
}

impl Bits for u64 {
    fn bits(&self) -> Vec<u64> {
        vec![*self]
    }
}

impl Bits for Vec<f64> {
    fn bits(&self) -> Vec<u64> {
        self.iter().map(|x| x.to_bits()).collect()
    }
}

impl<A: Bits, B: Bits> Bits for (A, B) {
    fn bits(&self) -> Vec<u64> {
        [self.0.bits(), self.1.bits()].concat()
    }
}

fn pair_bits<V: Bits>(pairs: &[(NodeId, V)]) -> Vec<(NodeId, Vec<u64>)> {
    pairs.iter().map(|(k, v)| (*k, v.bits())).collect()
}

/// One map task of each formulation on every input, task by task:
/// emissions bitwise, `TaskMeter`, records and bytes equal.
fn assert_same_tasks<F, K>(folded: &F, keyed: &K, inputs: &[F::Input])
where
    F: Mapper<Key = NodeId>,
    K: Mapper<Input = F::Input, Key = NodeId, Value = F::Value>,
    F::Value: Bits,
{
    for (task, input) in inputs.iter().enumerate() {
        let mut f = MapContext::default();
        folded.map(task, input, &mut f);
        let mut k = MapContext::default();
        keyed.map(task, input, &mut k);
        let (f_pairs, f_meter, f_records, f_bytes) = f.finish();
        let (k_pairs, k_meter, k_records, k_bytes) = k.finish();
        assert_eq!(pair_bits(&f_pairs), pair_bits(&k_pairs), "task {task}: emissions");
        assert_eq!(f_meter, k_meter, "task {task}: meter");
        assert_eq!((f_records, f_bytes), (k_records, k_bytes), "task {task}: records, bytes");
        assert!(f_meter.local_syncs() > 0);
    }
}

/// A sequence of jobs, one engine per formulation: pairs bitwise,
/// `JobMeter` and `JobReuse` equal job by job.
fn assert_same_jobs<F, K, R>(folded: &F, keyed: &K, reducer: &R, jobs: &[Vec<F::Input>])
where
    F: Mapper<Key = NodeId>,
    K: Mapper<Input = F::Input, Key = NodeId, Value = F::Value>,
    R: Reducer<Key = NodeId, ValueIn = F::Value>,
    R::Out: Bits + Debug,
{
    let pool = ThreadPool::new(2);
    let (mut f_engine, mut k_engine) = (Engine::in_process(&pool), Engine::in_process(&pool));
    let opts = JobOptions::with_reducers(3);
    for (job, inputs) in jobs.iter().enumerate() {
        let f = f_engine.run("folded", inputs, folded, reducer, &opts);
        let k = k_engine.run("keyed", inputs, keyed, reducer, &opts);
        assert_eq!(pair_bits(&f.pairs), pair_bits(&k.pairs), "job {job}: pairs");
        assert_eq!(f.meter, k.meter, "job {job}: meter");
        assert_eq!(f.reuse, k.reuse, "job {job}: reuse");
    }
}

/// `inputs` with task `t` handed input `t + rotate`.
fn rotated<I: Clone>(inputs: &[I], rotate: usize) -> Vec<I> {
    let k = inputs.len();
    (0..k).map(|t| inputs[(t + rotate) % k].clone()).collect()
}

/// Per-vertex values that move with `job`.
fn field(n: usize, job: usize) -> Vec<f64> {
    (0..n).map(|v| 1.0 + (v * 7 + job * 3) as f64 % 11.0 / 4.0).collect()
}

/// Jobs 0–1 on the partitions, job 2 on them rotated by one, job 3
/// back: `input(partitions, job)` builds each job's inputs.
fn job_sequence<P: Clone, I>(
    partitions: &[P],
    input: impl Fn(&[P], usize) -> Vec<I>,
) -> Vec<Vec<I>> {
    [0, 0, 1, 0].iter().enumerate().map(|(job, &r)| input(&rotated(partitions, r), job)).collect()
}

fn pr_inputs(partitions: &[Arc<GraphPartition>], n: usize, job: usize) -> Vec<PrEagerInput> {
    let (ranks, remote_in) = (field(n, job), field(n, job + 5));
    let input = |part: &Arc<GraphPartition>| {
        let slice = |values: &[f64]| part.nodes.iter().map(|&v| values[v as usize]).collect();
        PrEagerInput { part: Arc::clone(part), ranks: slice(&ranks), remote_in: slice(&remote_in) }
    };
    partitions.iter().map(input).collect()
}

fn jacobi_inputs(partitions: &[Arc<GraphPartition>], job: usize) -> Vec<JacobiInput> {
    let input = |part: &Arc<GraphPartition>| {
        let slice = |values: Vec<f64>| part.nodes.iter().map(|&v| values[v as usize]).collect();
        let n = part.nodes.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        JacobiInput {
            part: Arc::clone(part),
            x: slice(field(n, job)),
            b: slice(field(n, 9)),
            diag: part.nodes.iter().map(|&v| 4.0 + f64::from(v % 5)).collect(),
            remote_in: slice(field(n, job + 2)),
        }
    };
    partitions.iter().map(input).collect()
}

fn cc_inputs(partitions: &[Arc<GraphPartition>], job: usize) -> Vec<CcGeneralInput> {
    let input = |part: &Arc<GraphPartition>| {
        let labels = part.nodes.iter().map(|&v| v / (job as u32 + 1)).collect();
        CcGeneralInput { part: Arc::clone(part), labels }
    };
    partitions.iter().map(input).collect()
}

/// Job 0 starts from the source alone (vertex 0 at 0, every other
/// vertex unreached); later jobs from moved distances, every third
/// vertex unreached.
fn sssp_inputs(partitions: &[Arc<GraphPartition>], job: usize) -> Vec<SpGeneralInput> {
    let dist = |v: NodeId| match (v, job) {
        (0, _) => 0.0,
        (_, 0) => f64::INFINITY,
        (v, _) if (v as usize + job).is_multiple_of(3) => f64::INFINITY,
        (v, _) => 1.0 + f64::from(v % 7) * 2.5,
    };
    let input = |part: &Arc<GraphPartition>| SpGeneralInput {
        part: Arc::clone(part),
        dists: part.nodes.iter().map(|&v| dist(v)).collect(),
    };
    partitions.iter().map(input).collect()
}

/// `points` split into `parts` contiguous groups — the trailing ones
/// empty when there are more parts than points — each clustering
/// around `centroids`.
fn kmeans_inputs(
    points: &Arc<Vec<Point>>,
    parts: usize,
    centroids: &[Point],
) -> Vec<KmGeneralInput> {
    let (n, centroids) = (points.len(), Arc::new(centroids.to_vec()));
    let chunk = n.div_ceil(parts);
    let input = |p: usize| KmGeneralInput {
        points: Arc::clone(points),
        indices: ((p * chunk).min(n) as u32..((p + 1) * chunk).min(n) as u32).collect(),
        centroids: Arc::clone(&centroids),
    };
    (0..parts).map(input).collect()
}

/// Points on a small grid, and `k` centroids: the first `k − 1` points,
/// moved by `job`, and one far from every point, which none chooses.
fn kmeans_centroids(points: &[Point], k: usize, job: usize) -> Vec<Point> {
    let shift = |p: &Point| p.iter().map(|x| x + job as f64 * 0.75).collect();
    let near = (0..k - 1).map(|c| shift(&points[c % points.len()]));
    near.chain([vec![1.0e6; points[0].len()]]).collect()
}

fn kmeans_points() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(proptest::collection::vec(0u32..12, 2), 1..14).prop_map(|points| {
        points.into_iter().map(|p| p.into_iter().map(f64::from).collect()).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn declared_pagerank_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g, &parts);
        let n = g.num_nodes();
        let rule = PageRankConfig::default().rule();
        let algo = PrLocalAlgorithm { rule };
        let folded = EagerMapper::new(algo);
        let keyed = KeyedPass::new(algo, pr_lmap, pr_reduce);
        assert_same_tasks(&folded, &keyed, &pr_inputs(&partitions, n, 0));
        let jobs = job_sequence(&partitions, |p, job| pr_inputs(p, n, job));
        assert_same_jobs(&folded, &keyed, &PrEagerReducer { rule }, &jobs);
    }

    #[test]
    fn declared_jacobi_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g.to_undirected(), &parts);
        let algo = JacobiLocalAlgorithm { local_tolerance: 1e-9 };
        let folded = EagerMapper::new(algo);
        let keyed = KeyedPass::new(algo, jacobi_lmap, jacobi_reduce);
        assert_same_tasks(&folded, &keyed, &jacobi_inputs(&partitions, 0));
        let jobs = job_sequence(&partitions, jacobi_inputs);
        assert_same_jobs(&folded, &keyed, &JacobiReducer, &jobs);
    }

    #[test]
    fn declared_cc_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g.to_undirected(), &parts);
        let folded = EagerMapper::new(CcLocalAlgorithm);
        let keyed = KeyedPass::new(CcLocalAlgorithm, cc_lmap, cc_reduce);
        assert_same_tasks(&folded, &keyed, &cc_inputs(&partitions, 0));
        let jobs = job_sequence(&partitions, cc_inputs);
        assert_same_jobs(&folded, &keyed, &CcMinReducer, &jobs);
    }

    #[test]
    fn declared_sssp_equals_its_keyed_lmap((g, parts) in graphs(), seed in any::<u64>()) {
        let wg = WeightedGraph::random_weights(g, 1.0, 10.0, seed);
        let partitions = GraphPartition::build_weighted(&wg, &parts);
        let folded = EagerMapper::new(SpLocalAlgorithm);
        let keyed = KeyedPass::new(SpLocalAlgorithm, sssp_lmap, sssp_reduce);
        assert_same_tasks(&folded, &keyed, &sssp_inputs(&partitions, 0));
        let jobs = job_sequence(&partitions, sssp_inputs);
        assert_same_jobs(&folded, &keyed, &SpMinReducer, &jobs);
    }

    #[test]
    fn declared_kmeans_equals_its_keyed_lmap(
        points in kmeans_points(),
        k in 2usize..5,
        parts in 1usize..6,
    ) {
        let points = Arc::new(points);
        let algo = KmLocalAlgorithm { threshold: 1e-3 };
        let folded = EagerMapper::new(algo);
        let keyed = KeyedPass { carry: Some(kmeans_carry), ..KeyedPass::new(algo, kmeans_lmap, kmeans_reduce) };
        assert_same_tasks(&folded, &keyed, &kmeans_inputs(&points, parts, &kmeans_centroids(&points, k, 0)));
        let groups: Vec<usize> = (0..parts).collect();
        let jobs = job_sequence(&groups, |order, job| {
            let inputs = kmeans_inputs(&points, parts, &kmeans_centroids(&points, k, job));
            order.iter().map(|&p| inputs[p].clone()).collect()
        });
        assert_same_jobs(&folded, &keyed, &KmMeanReducer, &jobs);
    }
}

#[test]
fn the_adversarial_shapes_are_there() {
    let picks: Vec<(u32, u32)> = (0..60).map(|i| (i * 7, i * 13 + 1)).collect();
    let (g, parts) = adversarial(12, 3, &picks, &[0, 1, 2], 3);
    let partitions = GraphPartition::build(&g, &parts);
    assert!(partitions.last().unwrap().is_empty(), "an empty partition");
    let lonely = &partitions[3];
    assert!(lonely.len() == 3 && lonely.internal.num_edges() == 0, "no internal edge");
    assert_eq!(g.out_degree(12), 0, "a sink");
    assert!(g.out_neighbors(0).contains(&0), "a self-loop");
    let dists = asyncmr_apps::sssp::reference::dijkstra(&WeightedGraph::unit_weights(g), 0);
    assert!(dists[13..].iter().all(|d| d.is_infinite()), "vertices the source cannot reach");
    // Every partition's vertices ascend, so local vertex `li` is entry
    // `li` of its state — the group its `lmap` emits to.
    for part in &partitions {
        assert!(part.nodes.windows(2).all(|w| w[0] < w[1]));
    }
    // A centroid no point chooses, and tasks with no point.
    let points = Arc::new(vec![vec![0.0, 1.0], vec![3.0, 2.0]]);
    let inputs = kmeans_inputs(&points, 4, &kmeans_centroids(&points, 3, 0));
    assert!(inputs[2..].iter().all(|input| input.indices.is_empty()), "tasks with no point");
    let far = &inputs[0].centroids[2];
    assert!(points.iter().all(|p| dist2(p, far) > dist2(p, &inputs[0].centroids[0])));
}
