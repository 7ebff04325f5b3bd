//! PageRank on a synthetic web crawl — the paper's flagship scenario.
//!
//! Generates a Table II-style power-law graph, partitions it with the
//! multilevel (Metis stand-in) partitioner, and runs the General and
//! Eager formulations side by side on the simulated 8-node EC2/Hadoop
//! cluster, printing iteration counts, partial-sync counts, simulated
//! times, and the top-ranked pages.
//!
//! ```sh
//! cargo run --release --example pagerank_web
//! ```

use asyncmr::apps::pagerank::{self, PageRankConfig};
use asyncmr::core::Engine;
use asyncmr::graph::{presets, stats::GraphProperties};
use asyncmr::partition::{MultilevelKWay, Partitioner};
use asyncmr::runtime::ThreadPool;
use asyncmr::simcluster::{ClusterSpec, Simulation};

fn main() {
    // ~5,600-page crawl (Graph A at 2% scale — pass 1.0 for the paper's
    // full 280 K-node graph).
    let graph = presets::graph_a(0.02);
    let props = GraphProperties::measure(&graph);
    println!(
        "crawled web graph: {} pages, {} links, power-law alpha {:.2}, biggest hub has {} in-links",
        props.nodes,
        props.edges,
        props.power_law_alpha.unwrap_or(f64::NAN),
        props.max_in_degree
    );

    // Locality-enhancing partition (the paper's Metis step).
    let k = 8;
    let parts = MultilevelKWay::default().partition(&graph, k);
    println!(
        "partitioned into {k} sub-graphs: {:.1}% of links cross partitions, balance {:.2}\n",
        parts.cut_fraction(&graph) * 100.0,
        parts.balance()
    );

    let pool = ThreadPool::with_default_parallelism();
    let cfg = PageRankConfig::default(); // χ = 0.85, ∞-norm < 1e-5

    // Each engine executes in-process and replays every job on its own
    // simulated cluster, which prices the figures' wall-clock.
    let mut general_engine =
        Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 42));
    let general = pagerank::run_general(&mut general_engine, &graph, &parts, &cfg);

    let mut eager_engine =
        Engine::with_simulation(&pool, Simulation::new(ClusterSpec::ec2_2010(), 42));
    let eager = pagerank::run_eager(&mut eager_engine, &graph, &parts, &cfg);

    println!("                       General      Eager");
    println!(
        "global iterations   {:>10} {:>10}",
        general.report.global_iterations, eager.report.global_iterations
    );
    println!(
        "partial syncs       {:>10} {:>10}",
        general.report.local_syncs, eager.report.local_syncs
    );
    println!("serial operations   {:>10} {:>10}", general.report.total_ops, eager.report.total_ops);
    let gt = general.report.sim_time.unwrap().as_secs_f64();
    let et = eager.report.sim_time.unwrap().as_secs_f64();
    println!("simulated time (s)  {gt:>10.0} {et:>10.0}");
    println!("speedup                         {:>9.1}x\n", gt / et);

    // Both formulations find the same ranking.
    let top_general = pagerank::top_ranked(&general.ranks, 5);
    let top_eager = pagerank::top_ranked(&eager.ranks, 5);
    println!("top pages (general vs eager):");
    for ((vg, rg), (ve, re)) in top_general.iter().zip(&top_eager) {
        println!("  page {vg:>6} rank {rg:>8.2}   |   page {ve:>6} rank {re:>8.2}");
    }
    let agreement = top_general.iter().zip(&top_eager).all(|((a, _), (b, _))| a == b);
    println!("\nrankings agree: {agreement}");
    println!(
        "eager did {:.1}x the serial work but {:.1}x fewer global synchronizations — the paper's tradeoff.",
        eager.report.total_ops as f64 / general.report.total_ops as f64,
        general.report.global_iterations as f64 / eager.report.global_iterations as f64
    );
}
