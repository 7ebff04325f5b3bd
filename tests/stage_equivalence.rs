//! All three execution strategies — **staged** (barriers), **pipelined**
//! (eager reduce scheduling, no intra-job barriers), and the
//! kept-for-test **reference** (sequential concat + per-reducer clone +
//! `BTreeMap` grouping) — must be byte-identical, asserted end-to-end
//! for all five applications in both General and Eager formulations.
//!
//! "Byte-identical" is literal: the outputs are `f64`/`u32` vectors and
//! we compare with `==`, so any reordering of reductions (which would
//! reassociate floating-point sums) fails the test. For the pipelined
//! strategy this is the strongest possible check that completion-order
//! scheduling never leaks into results.

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

/// Runs `f` under all three execution strategies, returning
/// (staged, reference, pipelined) outcomes.
fn all_strategies<T>(pool: &ThreadPool, mut f: impl FnMut(&mut Engine<'_>) -> T) -> (T, T, T) {
    let mut staged = Engine::in_process(pool);
    let a = f(&mut staged);
    let mut reference = Engine::with_reference_shuffle(pool);
    let b = f(&mut reference);
    let mut pipelined = Engine::with_pipelined_shuffle(pool);
    let c = f(&mut pipelined);
    (a, b, c)
}

/// The strategies must also agree on how they got there: global
/// iterations and (for the eager formulations) partial synchronizations.
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

    let (a, b, c) = all_strategies(&pool, |e| pagerank::run_general(e, &g, &parts, &cfg));
    assert_eq!(a.ranks, b.ranks, "general ranks diverge between shuffle paths");
    assert_eq!(a.ranks, c.ranks, "general ranks diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);

    let (a, b, c) = all_strategies(&pool, |e| pagerank::run_eager(e, &g, &parts, &cfg));
    assert_eq!(a.ranks, b.ranks, "eager ranks diverge between shuffle paths");
    assert_eq!(a.ranks, c.ranks, "eager ranks diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);
}

#[test]
fn sssp_both_modes_identical_across_paths() {
    let g = crawl_graph(350, 13);
    let wg = WeightedGraph::random_weights(g, 1.0, 9.0, 4);
    let parts = MultilevelKWay::default().partition(wg.graph(), 5);
    let pool = ThreadPool::new(3);
    let cfg = SsspConfig::default();

    let (a, b, c) = all_strategies(&pool, |e| sssp::run_general(e, &wg, &parts, &cfg));
    assert_eq!(a.distances, b.distances, "general distances diverge");
    assert_eq!(a.distances, c.distances, "general distances diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);
    let (a, b, c) = all_strategies(&pool, |e| sssp::run_eager(e, &wg, &parts, &cfg));
    assert_eq!(a.distances, b.distances, "eager distances diverge");
    assert_eq!(a.distances, c.distances, "eager distances diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);
}

#[test]
fn kmeans_both_modes_identical_across_paths() {
    let data = kmeans::data::census_like(600, 12, 6, 21);
    let points = Arc::new(data.points);
    let initial = kmeans::initial_centroids(&points, 5, 9);
    let cfg = KMeansConfig { k: 5, threshold: 0.001, ..Default::default() };
    let pool = ThreadPool::new(3);

    let (a, b, c) = all_strategies(&pool, |e| {
        kmeans::general::run_general_from(e, &points, 8, &cfg, Some(initial.clone()))
    });
    assert_eq!(a.centroids, b.centroids, "general centroids diverge");
    assert_eq!(a.centroids, c.centroids, "general centroids diverge under pipelined execution");
    assert_eq!(a.sse, b.sse);
    assert_eq!(a.sse, c.sse);
    assert_same_counts(&[&a.report, &b.report, &c.report]);

    let (a, b, c) = all_strategies(&pool, |e| {
        kmeans::eager::run_eager_from(e, &points, 8, &cfg, Some(initial.clone()))
    });
    assert_eq!(a.centroids, b.centroids, "eager centroids diverge");
    assert_eq!(a.centroids, c.centroids, "eager centroids diverge under pipelined execution");
    assert_eq!(a.sse, b.sse);
    assert_eq!(a.sse, c.sse);
    assert_same_counts(&[&a.report, &b.report, &c.report]);
}

#[test]
fn cc_both_modes_identical_across_paths() {
    let g = crawl_graph(500, 17);
    let parts = MultilevelKWay::default().partition(&g, 6);
    let pool = ThreadPool::new(3);
    let cfg = CcConfig::default();

    let (a, b, c) = all_strategies(&pool, |e| cc::run_general(e, &g, &parts, &cfg));
    assert_eq!(a.labels, b.labels, "general labels diverge");
    assert_eq!(a.labels, c.labels, "general labels diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);
    let (a, b, c) = all_strategies(&pool, |e| cc::run_eager(e, &g, &parts, &cfg));
    assert_eq!(a.labels, b.labels, "eager labels diverge");
    assert_eq!(a.labels, c.labels, "eager labels diverge under pipelined execution");
    assert_same_counts(&[&a.report, &b.report, &c.report]);
}

#[test]
fn jacobi_both_modes_identical_across_paths() {
    let g = crawl_graph(300, 23);
    let b_vec = jacobi::seeded_rhs(g.num_nodes(), 31);
    let parts = MultilevelKWay::default().partition(&g, 4);
    let pool = ThreadPool::new(3);
    let cfg = JacobiConfig { max_iterations: 500, ..Default::default() };

    let (a, b, c) = all_strategies(&pool, |e| jacobi::run_general(e, &g, &b_vec, &parts, &cfg));
    assert_eq!(a.x, b.x, "general solutions diverge");
    assert_eq!(a.x, c.x, "general solutions diverge under pipelined execution");
    assert_eq!(a.residual, b.residual);
    assert_eq!(a.residual, c.residual);
    assert_same_counts(&[&a.report, &b.report, &c.report]);

    let (a, b, c) = all_strategies(&pool, |e| jacobi::run_eager(e, &g, &b_vec, &parts, &cfg));
    assert_eq!(a.x, b.x, "eager solutions diverge");
    assert_eq!(a.x, c.x, "eager solutions diverge under pipelined execution");
    assert_eq!(a.residual, b.residual);
    assert_eq!(a.residual, c.residual);
    assert_same_counts(&[&a.report, &b.report, &c.report]);
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
    let mut pipelined = Engine::with_pipelined_shuffle(&pool);
    let c = pipelined.run("wc", &docs, &Tokenize, &Count, &opts);
    assert_eq!(a.pairs, b.pairs);
    assert_eq!(a.pairs, c.pairs, "pipelined diverges on string keys with a combiner");
    // Same shuffle volume metered on all paths.
    assert_eq!(a.meter.shuffle_records, b.meter.shuffle_records);
    assert_eq!(a.meter.shuffle_bytes, b.meter.shuffle_bytes);
    assert_eq!(a.meter, c.meter, "staged and pipelined meters are fully identical");
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
            let mut pipelined = Engine::with_pipelined_shuffle(&pool);
            let mut reference = Engine::with_reference_shuffle(&pool);
            for (job, docs) in script.into_iter().enumerate() {
                let a = staged.run("wc", docs, &Tokenize, &Count, &opts);
                let b = reference.run("wc", docs, &Tokenize, &Count, &opts);
                let c = pipelined.run("wc", docs, &Tokenize, &Count, &opts);
                assert_eq!(a.pairs, b.pairs, "job {job}: staged vs oracle");
                assert_eq!(c.pairs, b.pairs, "job {job}: pipelined vs oracle");
                assert_eq!(a.meter, c.meter, "job {job}: meters");
                for reuse in [a.reuse, c.reuse] {
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
}
