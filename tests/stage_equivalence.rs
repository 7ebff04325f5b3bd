//! Both execution paths — the **staged** schedule (barriers) and the
//! kept-for-test **reference** (sequential concat + per-reducer clone +
//! `BTreeMap` grouping) — must be byte-identical, asserted end-to-end
//! for all five applications in both General and Eager formulations.
//!
//! "Byte-identical" is literal: the outputs are `f64`/`u32` vectors and
//! we compare with `==`, so any reordering of reductions (which would
//! reassociate floating-point sums) fails the test.

use std::sync::Arc;

use asyncmr::apps::jacobi::{self, JacobiConfig};
use asyncmr::apps::kmeans::{self, KMeansConfig};
use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::apps::sssp::{self, SsspConfig};
use asyncmr::apps::{cc, cc::CcConfig};
use asyncmr::core::{Engine, IterationReport};
use asyncmr::graph::{generators, CsrGraph, WeightedGraph};
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;

fn crawl_graph(n: usize, seed: u64) -> CsrGraph {
    generators::preferential_attachment_crawled(n, 3, 2, 1, 0.95, 40, seed)
}

/// Runs `f` under both execution paths, returning (staged, reference)
/// outcomes.
fn all_strategies<T>(pool: &ThreadPool, mut f: impl FnMut(&mut Engine<'_>) -> T) -> (T, T) {
    let mut staged = Engine::in_process(pool);
    let a = f(&mut staged);
    let mut reference = Engine::with_reference_shuffle(pool);
    let b = f(&mut reference);
    (a, b)
}

/// The paths must also agree on how they got there: global iterations
/// and (for the eager formulations) partial synchronizations.
fn assert_same_counts(reports: &[&IterationReport]) {
    for r in &reports[1..] {
        assert_eq!(r.global_iterations, reports[0].global_iterations);
        assert_eq!(r.local_syncs, reports[0].local_syncs);
    }
}

#[test]
fn pagerank_both_modes_identical_across_paths() {
    let g = crawl_graph(400, 11);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(3);
    let cfg = PageRankConfig::default();

    let (a, b) = all_strategies(&pool, |e| pagerank::run_general(e, &g, &parts, &cfg));
    assert_eq!(a.ranks, b.ranks, "general ranks diverge between shuffle paths");
    assert_same_counts(&[&a.report, &b.report]);

    let (a, b) = all_strategies(&pool, |e| pagerank::run_eager(e, &g, &parts, &cfg));
    assert_eq!(a.ranks, b.ranks, "eager ranks diverge between shuffle paths");
    assert_same_counts(&[&a.report, &b.report]);
}

#[test]
fn sssp_both_modes_identical_across_paths() {
    let g = crawl_graph(350, 13);
    let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 4);
    let parts = MultilevelKWay::default().partition(wg.graph(), 5);
    let pool = ThreadPool::new(3);
    let cfg = SsspConfig::default();

    let (a, b) = all_strategies(&pool, |e| sssp::run_general(e, &wg, &parts, &cfg));
    assert_eq!(a.distances, b.distances, "general distances diverge");
    assert_same_counts(&[&a.report, &b.report]);
    let (a, b) = all_strategies(&pool, |e| sssp::run_eager(e, &wg, &parts, &cfg));
    assert_eq!(a.distances, b.distances, "eager distances diverge");
    assert_same_counts(&[&a.report, &b.report]);
}

#[test]
fn kmeans_both_modes_identical_across_paths() {
    let data = kmeans::data::census_like(600, 12, 6, 21);
    let points = Arc::new(data.points);
    let initial = kmeans::initial_centroids(&points, 5, 9);
    let cfg = KMeansConfig { k: 5, threshold: 0.001, ..Default::default() };
    let pool = ThreadPool::new(3);

    let (a, b) = all_strategies(&pool, |e| {
        kmeans::general::run_general_from(e, &points, 8, &cfg, Some(initial.clone()))
    });
    assert_eq!(a.centroids, b.centroids, "general centroids diverge");
    assert_eq!(a.sse, b.sse);
    assert_same_counts(&[&a.report, &b.report]);

    let (a, b) = all_strategies(&pool, |e| {
        kmeans::eager::run_eager_from(e, &points, 8, &cfg, Some(initial.clone()))
    });
    assert_eq!(a.centroids, b.centroids, "eager centroids diverge");
    assert_eq!(a.sse, b.sse);
    assert_same_counts(&[&a.report, &b.report]);
}

#[test]
fn cc_both_modes_identical_across_paths() {
    let g = crawl_graph(500, 17);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(3);
    let cfg = CcConfig::default();

    let (a, b) = all_strategies(&pool, |e| cc::run_general(e, &g, &parts, &cfg));
    assert_eq!(a.labels, b.labels, "general labels diverge");
    assert_same_counts(&[&a.report, &b.report]);
    let (a, b) = all_strategies(&pool, |e| cc::run_eager(e, &g, &parts, &cfg));
    assert_eq!(a.labels, b.labels, "eager labels diverge");
    assert_same_counts(&[&a.report, &b.report]);
}

#[test]
fn jacobi_both_modes_identical_across_paths() {
    let g = crawl_graph(300, 23);
    let b_vec = jacobi::seeded_rhs(g.num_nodes(), 31);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(3);
    let cfg = JacobiConfig { max_iterations: 500, ..Default::default() };

    let (a, b) = all_strategies(&pool, |e| jacobi::run_general(e, &g, &b_vec, &parts, &cfg));
    assert_eq!(a.x, b.x, "general solutions diverge");
    assert_eq!(a.residual, b.residual);
    assert_same_counts(&[&a.report, &b.report]);

    let (a, b) = all_strategies(&pool, |e| jacobi::run_eager(e, &g, &b_vec, &parts, &cfg));
    assert_eq!(a.x, b.x, "eager solutions diverge");
    assert_eq!(a.residual, b.residual);
    assert_same_counts(&[&a.report, &b.report]);
}

/// Word count over `String` keys (the non-`Copy` key path), with a
/// combiner to attach.
mod wordcount {
    pub use asyncmr::core::prelude::*;

    pub struct Tokenize;
    impl Mapper for Tokenize {
        type Input = String;
        type Key = String;
        type Value = u64;
        fn map(&self, _t: usize, doc: &String, ctx: &mut MapContext<String, u64>) {
            for w in doc.split_whitespace() {
                ctx.emit_intermediate(w.to_string(), 1);
            }
        }
    }
    pub struct Count;
    impl Reducer for Count {
        type Key = String;
        type ValueIn = u64;
        type Out = u64;
        fn reduce(&self, k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
            ctx.emit(k.clone(), vs.iter().sum());
        }
    }
    pub struct Add;
    impl Combiner for Add {
        type Key = String;
        type Value = u64;
        fn combine(&self, _k: &String, vs: &[u64]) -> u64 {
            vs.iter().sum()
        }
    }

    /// Twelve documents of forty words from a 23-word vocabulary whose
    /// words all start with `initial`.
    pub fn docs(initial: char) -> Vec<String> {
        let word = |i: usize, j: usize| format!("{initial}{}", (i * 7 + j * 13) % 23);
        (0..12).map(|i| (0..40).map(|j| word(i, j)).collect::<Vec<_>>().join(" ")).collect()
    }
}

#[test]
fn job_level_pairs_are_byte_identical_with_combiner() {
    // A raw engine-level check with a combiner in play, on string keys
    // (exercises the non-Copy key path).
    use wordcount::*;

    let docs = docs('w');
    let pool = ThreadPool::new(4);
    let opts = JobOptions::with_reducers(6).with_combiner(&Add);

    let mut staged = Engine::in_process(&pool);
    let a = staged.run("wc", &docs, &Tokenize, &Count, &opts);
    let mut reference = Engine::with_reference_shuffle(&pool);
    let b = reference.run("wc", &docs, &Tokenize, &Count, &opts);
    assert_eq!(a.pairs, b.pairs);
    // Same shuffle volume metered on both paths.
    assert_eq!(a.meter.shuffle_records, b.meter.shuffle_records);
    assert_eq!(a.meter.shuffle_bytes, b.meter.shuffle_bytes);
}

#[test]
fn job_sequence_on_one_engine_is_byte_identical_on_the_hit_path() {
    // The same job four times on one engine — first sight is shuffled
    // unplanned, the second records every plan, the third and fourth are
    // shuffled entirely through remembered plans, and that is what the
    // oracle is held against — then documents in other words (the plans
    // are dropped and sit that job out), then the first again (recorded
    // anew). String keys, with and without the combiner, both grouping
    // strategies.
    use asyncmr::core::GroupingStrategy;
    use wordcount::*;

    let (same, churned) = (docs('w'), docs('x'));
    let script = [&same, &same, &same, &same, &churned, &same];
    let pool = ThreadPool::new(4);
    for grouping in [GroupingStrategy::Sort, GroupingStrategy::Radix] {
        for combine in [false, true] {
            let plain = JobOptions::with_reducers(6).with_grouping(grouping);
            let opts = if combine { plain.with_combiner(&Add) } else { plain };
            let mut staged = Engine::in_process(&pool);
            let mut reference = Engine::with_reference_shuffle(&pool);
            for (job, docs) in script.into_iter().enumerate() {
                let a = staged.run("wc", docs, &Tokenize, &Count, &opts);
                let b = reference.run("wc", docs, &Tokenize, &Count, &opts);
                assert_eq!(a.pairs, b.pairs, "job {job}: staged vs oracle");
                let reuse = a.reuse;
                let tasks = (docs.len() as u64, a.meter.reduce_tasks as u64);
                let misses = (reuse.route.misses, reuse.group.misses);
                let recorded = (reuse.route.recorded, reuse.group.recorded);
                match job {
                    2 | 3 => assert_eq!(misses, (0, 0), "job {job} runs on remembered plans"),
                    _ => assert_eq!(misses, tasks, "job {job} meets no plan of its own"),
                }
                let want = if job == 1 || job == 5 { tasks } else { (0, 0) };
                assert_eq!(recorded, want, "job {job} clones keys only to record a plan");
            }
        }
    }
}

/// Eager jobs handed to the engine one by one: a `gmap` task's
/// local-sync plan is filed in the engine's plan store between jobs, so
/// what a job starts from depends on what the engine ran before it —
/// and its output must not.
mod eager_jobs {
    pub use asyncmr::apps::cc::eager::CcLocalAlgorithm;
    pub use asyncmr::apps::cc::general::{CcGeneralInput, CcMinReducer};
    pub use asyncmr::apps::pagerank::eager::{PrEagerInput, PrEagerReducer, PrLocalAlgorithm};
    pub use asyncmr::apps::GraphPartition;
    pub use asyncmr::core::{EagerMapper, JobOptions, JobResult, PlanUse};
    use asyncmr::graph::NodeId;

    use super::*;

    /// Label-flooding inputs: task `t` gets partition `t + rotate`, and
    /// the labels — values, not keys — depend on `job`.
    pub fn cc_inputs(
        partitions: &[Arc<GraphPartition>],
        job: u32,
        rotate: usize,
    ) -> Vec<CcGeneralInput> {
        (0..partitions.len())
            .map(|t| {
                let part = Arc::clone(&partitions[(t + rotate) % partitions.len()]);
                let labels = part.nodes.iter().map(|&v| v / (job + 1)).collect();
                CcGeneralInput { part, labels }
            })
            .collect()
    }

    pub fn pr_inputs(partitions: &[Arc<GraphPartition>], n: usize, job: u32) -> Vec<PrEagerInput> {
        let ranks = Arc::new((0..n).map(|v| 1.0 + f64::from(job) / (v + 1) as f64).collect());
        let remote_in = Arc::new(vec![0.25; n]);
        let input = |part: &Arc<GraphPartition>| PrEagerInput {
            part: Arc::clone(part),
            ranks: Arc::clone(&ranks),
            remote_in: Arc::clone(&remote_in),
        };
        partitions.iter().map(input).collect()
    }

    pub fn cc_job(engine: &mut Engine<'_>, inputs: &[CcGeneralInput]) -> JobResult<NodeId, NodeId> {
        let gmap = EagerMapper::new(CcLocalAlgorithm);
        engine.run("cc", inputs, &gmap, &CcMinReducer, &JobOptions::with_reducers(5))
    }

    pub fn pr_job(
        engine: &mut Engine<'_>,
        inputs: &[PrEagerInput],
    ) -> JobResult<NodeId, (f64, f64)> {
        // The rule `run_eager` derives for the paper's defaults.
        let rule = PageRankConfig::default().rule();
        let gmap = EagerMapper::new(PrLocalAlgorithm { rule });
        let greduce = PrEagerReducer { rule };
        engine.run("pr", inputs, &gmap, &greduce, &JobOptions::with_reducers(5))
    }

    /// `kept` ran on an engine with a history, `fresh` on a new one and
    /// `oracle` on the reference shuffle: same pairs, same meters, and
    /// one plan outcome per local sync.
    pub fn assert_same_job<K, O>(
        kept: &JobResult<K, O>,
        fresh: &JobResult<K, O>,
        oracle: &JobResult<K, O>,
    ) where
        K: PartialEq + std::fmt::Debug,
        O: PartialEq + std::fmt::Debug,
    {
        assert_eq!(kept.pairs, fresh.pairs, "a kept plan changed the output");
        assert_eq!(kept.pairs, oracle.pairs, "kept engine vs oracle");
        assert_eq!(kept.meter, fresh.meter, "a kept plan changed the meters");
        assert_eq!(kept.meter.map_ops, oracle.meter.map_ops);
        assert_eq!(kept.meter.local_syncs, oracle.meter.local_syncs);
        for job in [kept, fresh] {
            let local = job.reuse.local;
            assert_eq!(local.hits + local.misses, job.meter.local_syncs);
            assert_eq!(local.misses, local.recorded, "a local sync off its plan records one");
        }
        assert_eq!(oracle.reuse.local, PlanUse::default(), "the oracle reports no reuse");
    }
}

#[test]
fn consecutive_eager_jobs_on_one_engine_equal_fresh_engines_and_the_oracle() {
    use eager_jobs::*;

    let g = crawl_graph(400, 29).to_undirected();
    let parts = MultilevelKWay::default().partition(&g, 4);
    let partitions = GraphPartition::build(&g, &parts);
    let tasks = partitions.len() as u64;
    let pool = ThreadPool::new(3);
    let mut engine = Engine::in_process(&pool);
    let mut oracle = Engine::with_reference_shuffle(&pool);
    let mut hits_of_job_0 = 0;
    for job in 0..3 {
        let inputs = cc_inputs(&partitions, job, 0);
        let kept = cc_job(&mut engine, &inputs);
        let fresh = cc_job(&mut Engine::in_process(&pool), &inputs);
        assert_same_job(&kept, &fresh, &cc_job(&mut oracle, &inputs));
        assert_eq!(fresh.reuse.local.recorded, tasks, "a fresh engine records once a task");
        if job == 0 {
            assert_eq!(kept.reuse.local, fresh.reuse.local);
            hits_of_job_0 = kept.reuse.local.hits;
        } else {
            assert_eq!(kept.reuse.local.misses, 0, "job {job} starts on job 0's plans");
        }
    }
    assert!(hits_of_job_0 > 0, "label flooding takes more than one pass");

    // Task t now gets another partition than it had last job: same
    // key type, same slot, other keys — a verified miss in the
    // task's first pass, and the same output.
    let inputs = cc_inputs(&partitions, 3, 1);
    let kept = cc_job(&mut engine, &inputs);
    let fresh = cc_job(&mut Engine::in_process(&pool), &inputs);
    assert_same_job(&kept, &fresh, &cc_job(&mut oracle, &inputs));
    assert_eq!(kept.reuse.local, fresh.reuse.local, "one fallback a task, then hits");
    assert_eq!(kept.reuse.local.recorded, tasks);
}

#[test]
fn two_eager_mappers_sharing_a_key_type_evict_each_other_and_stay_correct() {
    use eager_jobs::*;

    // Label flooding over the symmetrized graph and PageRank over the
    // directed one: both keyed by `NodeId`, so task t of either finds
    // the other's plan in its slot, falls off it, and records its own.
    let directed = crawl_graph(300, 31);
    let undirected = directed.to_undirected();
    let parts = MultilevelKWay::default().partition(&undirected, 3);
    let cc_parts = GraphPartition::build(&undirected, &parts);
    let pr_parts = GraphPartition::build(&directed, &parts);
    let (n, tasks) = (directed.num_nodes(), cc_parts.len() as u64);
    let pool = ThreadPool::new(3);
    let mut engine = Engine::in_process(&pool);
    let mut oracle = Engine::with_reference_shuffle(&pool);
    for job in 0..3 {
        let inputs = cc_inputs(&cc_parts, job, 0);
        let kept = cc_job(&mut engine, &inputs);
        let fresh = cc_job(&mut Engine::in_process(&pool), &inputs);
        assert_same_job(&kept, &fresh, &cc_job(&mut oracle, &inputs));
        assert_eq!(kept.reuse.local, fresh.reuse.local, "job {job}: evicted, as good as new");

        let inputs = pr_inputs(&pr_parts, n, job);
        let kept = pr_job(&mut engine, &inputs);
        let fresh = pr_job(&mut Engine::in_process(&pool), &inputs);
        assert_same_job(&kept, &fresh, &pr_job(&mut oracle, &inputs));
        assert_eq!(kept.reuse.local, fresh.reuse.local, "job {job}: evicted, as good as new");
        assert_eq!(kept.reuse.local.recorded, tasks);
    }
}

#[test]
fn local_plans_and_shuffle_plans_share_slot_numbers_without_colliding() {
    use eager_jobs::*;

    // Two map tasks, five reduce partitions, `u32` keys everywhere:
    // slots 0 and 1 of the engine's plan store hold a route plan, a
    // local-sync plan *and* a reduce partition's group plan each. From
    // the third job on every one of them is a hit.
    let g = crawl_graph(300, 37).to_undirected();
    let parts = MultilevelKWay::default().partition(&g, 2);
    let partitions = GraphPartition::build(&g, &parts);
    let pool = ThreadPool::new(3);
    let mut engine = Engine::in_process(&pool);
    let mut oracle = Engine::with_reference_shuffle(&pool);
    for job in 0..4 {
        // The labels stay put, so the global emissions repeat too.
        let inputs = cc_inputs(&partitions, 0, 0);
        let kept = cc_job(&mut engine, &inputs);
        let fresh = cc_job(&mut Engine::in_process(&pool), &inputs);
        assert_same_job(&kept, &fresh, &cc_job(&mut oracle, &inputs));
        assert!(kept.meter.reduce_tasks > 2, "more reduce partitions than map tasks");
        let reuse = kept.reuse;
        assert_eq!(reuse.local.recorded, if job == 0 { 2 } else { 0 }, "job {job}");
        if job >= 2 {
            let hits = (reuse.route.hits, reuse.group.hits);
            assert_eq!(hits, (2, kept.meter.reduce_tasks as u64), "job {job}");
            assert_eq!((reuse.route.misses, reuse.group.misses, reuse.local.misses), (0, 0, 0));
        }
    }
}

#[test]
fn run_eager_records_its_local_plans_in_the_first_job_only() {
    // The driver's whole run on one engine: every gmap task sorts its
    // key sequence once, in the first pass of job 1, and every local
    // sync after it — in that job and in all later ones — is a hit.
    let g = crawl_graph(400, 11);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(3);
    let mut engine = Engine::in_process(&pool);
    let out = pagerank::run_eager(&mut engine, &g, &parts, &PageRankConfig::default());
    let local: Vec<_> = engine.history().iter().map(|job| job.reuse.local).collect();
    assert!(local.len() > 1, "more than one global iteration");
    assert_eq!((local[0].misses, local[0].recorded), (4, 4));
    assert!(local[1..].iter().all(|job| job.misses == 0), "{local:?}");
    let syncs: u64 = local.iter().map(|job| job.hits + job.misses).sum();
    assert_eq!(syncs, out.report.local_syncs);
}
