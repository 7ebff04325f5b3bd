//! Property tests pinning the declared local passes of Eager PageRank,
//! Jacobi and Connected Components to the keyed passes they replaced.
//!
//! Each app declares its emission keys ([`GraphPartition::emission_keys`])
//! and its `lmap` emits values only. The `lmap` each app ran before —
//! every key built from `part.nodes` and handed to
//! `emit_local_intermediate` — is kept here as the oracle, behind the
//! app's own `init_state`, `lreduce`, convergence test and `finalize`
//! ([`Keyed`]). Declared and keyed runs must agree bitwise (`f64`s are
//! compared by their bits) on:
//!
//! * every map task's emissions, `TaskMeter`, records and bytes — so
//!   its final local state, which `finalize` emits;
//! * a sequence of jobs on one engine: pairs, `JobMeter` and the whole
//!   `JobReuse`, the local plan uses included — through a job where
//!   each task is handed another task's partition (it must re-record,
//!   never reuse a stale plan).
//!
//! Every graph carries self-loops, multi-edges and a sink, and every
//! partitioning a partition with no internal edge and an empty one.

use std::fmt::Debug;
use std::sync::Arc;

use asyncmr_apps::cc::eager::CcLocalAlgorithm;
use asyncmr_apps::cc::general::{CcGeneralInput, CcMinReducer};
use asyncmr_apps::jacobi::eager::JacobiLocalAlgorithm;
use asyncmr_apps::jacobi::general::{JMsg, JacobiInput, JacobiReducer};
use asyncmr_apps::pagerank::eager::{PrEagerInput, PrEagerReducer, PrLocalAlgorithm};
use asyncmr_apps::pagerank::{PageRankConfig, PrMsg};
use asyncmr_apps::GraphPartition;
use asyncmr_core::prelude::*;
use asyncmr_graph::{CsrGraph, NodeId};
use asyncmr_partition::Partitioning;
use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

/// The keyed `lmap` an app ran before it declared its keys.
type KeyedLmap<A> = fn(
    &<A as LocalAlgorithm>::Input,
    &u32,
    &LocalState<NodeId, <A as LocalAlgorithm>::Value>,
    &mut LocalMapContext<NodeId, <A as LocalAlgorithm>::Value>,
);

/// `A` with no declaration and its old keyed `lmap`; everything else is
/// `A`'s own.
struct Keyed<A: LocalAlgorithm> {
    algo: A,
    lmap: KeyedLmap<A>,
}

impl<A: LocalAlgorithm<Item = u32, Key = NodeId>> LocalAlgorithm for Keyed<A> {
    type Input = A::Input;
    type Item = u32;
    type Key = NodeId;
    type Value = A::Value;

    fn items<'a>(&self, input: &'a A::Input) -> &'a [u32] {
        self.algo.items(input)
    }
    fn init_state(&self, task: usize, input: &A::Input) -> Vec<(NodeId, A::Value)> {
        self.algo.init_state(task, input)
    }
    fn lmap(
        &self,
        _task: usize,
        input: &A::Input,
        item: &u32,
        state: &LocalState<NodeId, A::Value>,
        ctx: &mut LocalMapContext<NodeId, A::Value>,
    ) {
        (self.lmap)(input, item, state, ctx);
    }
    fn lreduce(
        &self,
        task: usize,
        input: &A::Input,
        key: &NodeId,
        values: &[A::Value],
        ctx: &mut LocalReduceContext<NodeId, A::Value>,
    ) {
        self.algo.lreduce(task, input, key, values, ctx);
    }
    fn post_lreduce(
        &self,
        task: usize,
        input: &A::Input,
        old: &LocalState<NodeId, A::Value>,
        new: &mut LocalState<NodeId, A::Value>,
    ) {
        self.algo.post_lreduce(task, input, old, new);
    }
    fn locally_converged(
        &self,
        old: &LocalState<NodeId, A::Value>,
        new: &LocalState<NodeId, A::Value>,
    ) -> bool {
        self.algo.locally_converged(old, new)
    }
    fn max_local_iterations(&self) -> usize {
        self.algo.max_local_iterations()
    }
    fn input_bytes(&self, task: usize, input: &A::Input) -> Option<u64> {
        self.algo.input_bytes(task, input)
    }
    fn finalize(
        &self,
        task: usize,
        input: &A::Input,
        state: &LocalState<NodeId, A::Value>,
        ctx: &mut MapContext<NodeId, A::Value>,
    ) {
        self.algo.finalize(task, input, state, ctx);
    }
}

/// Eager PageRank's keyed `lmap`.
fn pr_lmap(
    input: &PrEagerInput,
    &li: &u32,
    state: &LocalState<NodeId, PrMsg>,
    ctx: &mut LocalMapContext<NodeId, PrMsg>,
) {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let Some(PrMsg::Contrib(rank)) = state.get(&v) else {
        unreachable!("state always holds the vertex rank");
    };
    ctx.emit_local_intermediate(v, PrMsg::Contrib(0.0));
    let deg = part.out_degree[li as usize];
    ctx.add_ops(1 + part.internal_degree(li) as u64);
    if deg == 0 {
        return;
    }
    let c = rank / deg as f64;
    for (lt, _) in part.internal_edges(li) {
        ctx.emit_local_intermediate(part.nodes[lt as usize], PrMsg::Contrib(c));
    }
}

/// Eager Jacobi's keyed `lmap`.
fn jacobi_lmap(
    input: &JacobiInput,
    &li: &u32,
    state: &LocalState<NodeId, JMsg>,
    ctx: &mut LocalMapContext<NodeId, JMsg>,
) {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let JMsg::Contrib(xv) = state[&v] else {
        unreachable!("state stores Contrib(x)");
    };
    ctx.emit_local_intermediate(v, JMsg::Contrib(0.0));
    ctx.add_ops(1 + part.internal_degree(li) as u64);
    for (lt, _) in part.internal_edges(li) {
        ctx.emit_local_intermediate(part.nodes[lt as usize], JMsg::Contrib(xv));
    }
}

/// Eager Connected Components' keyed `lmap`.
fn cc_lmap(
    input: &CcGeneralInput,
    &li: &u32,
    state: &LocalState<NodeId, NodeId>,
    ctx: &mut LocalMapContext<NodeId, NodeId>,
) {
    let part = &input.part;
    let v = part.nodes[li as usize];
    let label = state[&v];
    ctx.emit_local_intermediate(v, label);
    ctx.add_ops(1 + part.internal_degree(li) as u64);
    for (lt, _) in part.internal_edges(li) {
        ctx.emit_local_intermediate(part.nodes[lt as usize], label);
    }
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
fn assert_same_tasks<A, B>(declared: &EagerMapper<A>, keyed: &EagerMapper<B>, inputs: &[A::Input])
where
    A: LocalAlgorithm<Key = NodeId>,
    B: LocalAlgorithm<Input = A::Input, Key = NodeId, Value = A::Value>,
    A::Value: Bits,
{
    for (task, input) in inputs.iter().enumerate() {
        let mut d = MapContext::default();
        declared.map(task, input, &mut d);
        let mut k = MapContext::default();
        keyed.map(task, input, &mut k);
        let (d_pairs, d_meter, d_records, d_bytes) = d.finish();
        let (k_pairs, k_meter, k_records, k_bytes) = k.finish();
        assert_eq!(pair_bits(&d_pairs), pair_bits(&k_pairs), "task {task}: emissions");
        assert_eq!(d_meter, k_meter, "task {task}: meter");
        assert_eq!((d_records, d_bytes), (k_records, k_bytes), "task {task}: records, bytes");
        assert!(d_meter.local_syncs() > 0);
    }
}

/// A sequence of jobs, one engine per formulation: pairs bitwise,
/// `JobMeter` and `JobReuse` equal job by job.
fn assert_same_jobs<A, B, R>(
    declared: &EagerMapper<A>,
    keyed: &EagerMapper<B>,
    reducer: &R,
    jobs: &[Vec<A::Input>],
) where
    A: LocalAlgorithm<Key = NodeId>,
    B: LocalAlgorithm<Input = A::Input, Key = NodeId, Value = A::Value>,
    R: Reducer<Key = NodeId, ValueIn = A::Value>,
    R::Out: Bits + Debug,
{
    let pool = ThreadPool::new(2);
    let (mut d_engine, mut k_engine) = (Engine::in_process(&pool), Engine::in_process(&pool));
    let opts = JobOptions::with_reducers(3);
    for (job, inputs) in jobs.iter().enumerate() {
        let d = d_engine.run("declared", inputs, declared, reducer, &opts);
        let k = k_engine.run("keyed", inputs, keyed, reducer, &opts);
        assert_eq!(pair_bits(&d.pairs), pair_bits(&k.pairs), "job {job}: pairs");
        assert_eq!(d.meter, k.meter, "job {job}: meter");
        assert_eq!(d.reuse, k.reuse, "job {job}: reuse");
        let local = d.reuse.local;
        assert_eq!(local.hits + local.misses, d.meter.local_syncs, "job {job}");
    }
}

/// `partitions` with task `t` handed partition `t + rotate`.
fn rotated(partitions: &[Arc<GraphPartition>], rotate: usize) -> Vec<Arc<GraphPartition>> {
    let k = partitions.len();
    (0..k).map(|t| Arc::clone(&partitions[(t + rotate) % k])).collect()
}

/// Per-vertex values that move with `job`.
fn field(n: usize, job: usize) -> Vec<f64> {
    (0..n).map(|v| 1.0 + (v * 7 + job * 3) as f64 % 11.0 / 4.0).collect()
}

/// Jobs 0–1 on the partitions, job 2 on them rotated by one, job 3
/// back: `input(partitions, job)` builds each job's inputs.
fn job_sequence<I>(
    partitions: &[Arc<GraphPartition>],
    input: impl Fn(&[Arc<GraphPartition>], usize) -> Vec<I>,
) -> Vec<Vec<I>> {
    [0, 0, 1, 0].iter().enumerate().map(|(job, &r)| input(&rotated(partitions, r), job)).collect()
}

fn pr_inputs(partitions: &[Arc<GraphPartition>], n: usize, job: usize) -> Vec<PrEagerInput> {
    let (ranks, remote_in) = (Arc::new(field(n, job)), Arc::new(field(n, job + 5)));
    let input = |part: &Arc<GraphPartition>| PrEagerInput {
        part: Arc::clone(part),
        ranks: Arc::clone(&ranks),
        remote_in: Arc::clone(&remote_in),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn declared_pagerank_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g, &parts);
        let n = g.num_nodes();
        let rule = PageRankConfig::default().rule();
        let declared = EagerMapper::new(PrLocalAlgorithm { rule });
        let keyed = EagerMapper::new(Keyed { algo: PrLocalAlgorithm { rule }, lmap: pr_lmap });
        assert_same_tasks(&declared, &keyed, &pr_inputs(&partitions, n, 0));
        let jobs = job_sequence(&partitions, |p, job| pr_inputs(p, n, job));
        assert_same_jobs(&declared, &keyed, &PrEagerReducer { rule }, &jobs);
    }

    #[test]
    fn declared_jacobi_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g.to_undirected(), &parts);
        let algo = JacobiLocalAlgorithm { local_tolerance: 1e-9 };
        let (declared, keyed) = (EagerMapper::new(algo), EagerMapper::new(Keyed { algo, lmap: jacobi_lmap }));
        assert_same_tasks(&declared, &keyed, &jacobi_inputs(&partitions, 0));
        let jobs = job_sequence(&partitions, jacobi_inputs);
        assert_same_jobs(&declared, &keyed, &JacobiReducer, &jobs);
    }

    #[test]
    fn declared_cc_equals_its_keyed_lmap((g, parts) in graphs()) {
        let partitions = GraphPartition::build(&g.to_undirected(), &parts);
        let declared = EagerMapper::new(CcLocalAlgorithm);
        let keyed = EagerMapper::new(Keyed { algo: CcLocalAlgorithm, lmap: cc_lmap });
        assert_same_tasks(&declared, &keyed, &cc_inputs(&partitions, 0));
        let jobs = job_sequence(&partitions, cc_inputs);
        assert_same_jobs(&declared, &keyed, &CcMinReducer, &jobs);
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
    // Every partition declares one key per owned vertex and internal
    // edge.
    for part in &partitions {
        assert_eq!(part.emission_keys().len(), part.len() + part.internal.num_edges());
    }
}
