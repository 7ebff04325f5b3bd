//! The experiments: one function per paper table/figure (or pair that
//! shares a sweep, as the paper's own runs did — an execution yields
//! both its iteration count and its wall time).

use std::sync::Arc;

use asyncmr_apps::kmeans::{self, KMeansConfig};
use asyncmr_apps::pagerank::{self, PageRankConfig};
use asyncmr_apps::sssp::{self, SsspConfig};
use asyncmr_core::{AsyncFixedPointDriver, Engine};
use asyncmr_graph::{presets, stats::GraphProperties, CsrGraph, WeightedGraph};
use asyncmr_model::{AsyncTaskSpec, AttemptFailurePlan, NodeFailurePlan, SimTime};
use asyncmr_partition::{MultilevelKWay, Partitioner, Partitioning};
use asyncmr_runtime::ThreadPool;
use asyncmr_simcluster::workloads::ring_exchange;
use asyncmr_simcluster::{
    diff_runs, ClusterSpec, Constant, RunRecord, SchedulerSpec, Simulation, TopologyAware,
};

use crate::report::{Figure, ReproConfig};

/// Which Table II graph an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphChoice {
    /// 280 K nodes, ~3 M edges.
    A,
    /// 100 K nodes, ~3 M edges.
    B,
}

impl GraphChoice {
    fn build(self, scale: f64) -> CsrGraph {
        match self {
            GraphChoice::A => presets::graph_a(scale),
            GraphChoice::B => presets::graph_b(scale),
        }
    }

    fn label(self) -> &'static str {
        match self {
            GraphChoice::A => "Graph A",
            GraphChoice::B => "Graph B",
        }
    }
}

fn sim_engine(pool: &ThreadPool, seed: u64) -> Engine<'_> {
    Engine::with_simulation(pool, Simulation::new(ClusterSpec::ec2_2010(), seed))
}

fn secs(t: Option<SimTime>) -> f64 {
    t.map(SimTime::as_secs_f64).unwrap_or(f64::NAN)
}

/// Table I — the measurement testbed. The paper ran 8 EC2 extra-large
/// instances with Hadoop 0.20.1; we print the simulated stand-in's
/// configuration side by side.
pub fn table1(cfg: &ReproConfig) -> Figure {
    let spec = ClusterSpec::ec2_2010();
    let mut fig = Figure::new(
        "table1",
        "Measurement testbed, software (simulated stand-in)",
        cfg.scale,
        vec!["property", "paper", "this reproduction"],
    );
    let rows: Vec<(&str, String, String)> = vec![
        ("platform", "Amazon EC2".into(), format!("simulated: {}", spec.name)),
        ("nodes", "8 large instances".into(), format!("{}", spec.num_nodes())),
        (
            "compute",
            "8 64-bit EC2 compute units".into(),
            format!(
                "{} map + {} reduce slots/node",
                spec.nodes[0].map_slots, spec.nodes[0].reduce_slots
            ),
        ),
        (
            "memory",
            "15 GB RAM, 4x420 GB disk".into(),
            format!("disk {} MB/s (modeled)", spec.disk_bandwidth / 1e6),
        ),
        ("software", "Hadoop 0.20.1, Java 1.6".into(), "asyncmr engine + DES cluster model".into()),
        ("job setup", "(unreported)".into(), format!("{}", spec.job_setup)),
        ("task launch", "(unreported)".into(), format!("{}", spec.task_launch)),
        (
            "network",
            "(cloud, shared)".into(),
            format!("{} MB/s NIC, {} latency", spec.nic_bandwidth / 1e6, spec.net_latency),
        ),
    ];
    for (k, p, r) in rows {
        fig.push_row(vec![k.to_string(), p, r]);
    }
    fig.note("Substitution: the EC2/Hadoop testbed is a deterministic discrete-event model (DESIGN.md §3.1).");
    fig
}

/// Table II — input graph properties at the configured scale.
pub fn table2(cfg: &ReproConfig) -> Figure {
    let mut fig = Figure::new(
        "table2",
        "PageRank input graph properties",
        cfg.scale,
        vec!["property", "Graph A (paper)", "Graph A (ours)", "Graph B (paper)", "Graph B (ours)"],
    );
    let a = GraphChoice::A.build(cfg.scale);
    let b = GraphChoice::B.build(cfg.scale);
    let pa = GraphProperties::measure(&a);
    let pb = GraphProperties::measure(&b);
    fig.push_row(vec![
        "nodes".into(),
        "280,000".into(),
        format!("{}", pa.nodes),
        "100,000".into(),
        format!("{}", pb.nodes),
    ]);
    fig.push_row(vec![
        "edges".into(),
        "~3 million".into(),
        format!("{}", pa.edges),
        "~3 million".into(),
        format!("{}", pb.edges),
    ]);
    fig.push_row(vec![
        "damping factor".into(),
        "0.85".into(),
        format!("{}", presets::DAMPING),
        "0.85".into(),
        format!("{}", presets::DAMPING),
    ]);
    fig.push_row(vec![
        "power-law fit (in-degree)".into(),
        "yes (best fit)".into(),
        format!("alpha = {:.2}", pa.power_law_alpha.unwrap_or(f64::NAN)),
        "yes (best fit)".into(),
        format!("alpha = {:.2}", pb.power_law_alpha.unwrap_or(f64::NAN)),
    ]);
    fig.push_row(vec![
        "max in-degree (hub)".into(),
        "(very few high-inlink nodes)".into(),
        format!("{}", pa.max_in_degree),
        "(very few high-inlink nodes)".into(),
        format!("{}", pb.max_in_degree),
    ]);
    fig.note(format!(
        "Nodes scale with --scale ({} here); edge densities match the paper (A ~11/node, B ~30/node).",
        cfg.scale
    ));
    fig
}

/// Per-k measurements of one PageRank sweep point.
struct PrPoint {
    paper_k: usize,
    k: usize,
    cut: f64,
    eager_iters: usize,
    general_iters: usize,
    eager_secs: f64,
    general_secs: f64,
    eager_local_syncs: u64,
}

fn pagerank_sweep(cfg: &ReproConfig, graph: GraphChoice) -> Vec<PrPoint> {
    let g = graph.build(cfg.scale);
    let pool = ThreadPool::new(cfg.threads);
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };
    let mut points = Vec::new();
    for (paper_k, k) in cfg.partition_sweep() {
        let parts = MultilevelKWay { seed: cfg.seed, ..Default::default() }.partition(&g, k);
        let cut = parts.cut_fraction(&g);
        let mut eager_engine = sim_engine(&pool, cfg.seed);
        let eager = pagerank::run_eager(&mut eager_engine, &g, &parts, &pr_cfg);
        let mut general_engine = sim_engine(&pool, cfg.seed);
        let general = pagerank::run_general(&mut general_engine, &g, &parts, &pr_cfg);
        points.push(PrPoint {
            paper_k,
            k,
            cut,
            eager_iters: eager.report.global_iterations,
            general_iters: general.report.global_iterations,
            eager_secs: secs(eager.report.sim_time),
            general_secs: secs(general.report.sim_time),
            eager_local_syncs: eager.report.local_syncs,
        });
    }
    points
}

/// Figures 2+4 (Graph A) or 3+5 (Graph B): PageRank iterations and
/// simulated time-to-converge vs number of partitions.
pub fn pagerank_figures(cfg: &ReproConfig, graph: GraphChoice) -> (Figure, Figure) {
    let points = pagerank_sweep(cfg, graph);
    let (iters_id, time_id) = match graph {
        GraphChoice::A => ("fig2", "fig4"),
        GraphChoice::B => ("fig3", "fig5"),
    };

    let mut iters = Figure::new(
        iters_id,
        format!("PageRank: iterations to converge vs partitions — {}", graph.label()),
        cfg.scale,
        vec![
            "partitions(paper)",
            "partitions(run)",
            "cut%",
            "Eager",
            "General",
            "Eager partial syncs",
        ],
    );
    for p in &points {
        iters.push_row(vec![
            p.paper_k.to_string(),
            p.k.to_string(),
            format!("{:.1}", p.cut * 100.0),
            p.eager_iters.to_string(),
            p.general_iters.to_string(),
            p.eager_local_syncs.to_string(),
        ]);
    }
    iters.note("Paper shape: General flat; Eager grows with partitions, meeting General at tiny partitions.");

    let mut time = Figure::new(
        time_id,
        format!("PageRank: time to converge vs partitions — {} (simulated)", graph.label()),
        cfg.scale,
        vec!["partitions(paper)", "partitions(run)", "Eager (s)", "General (s)", "speedup"],
    );
    let mut speedups = Vec::new();
    for p in &points {
        let speedup = p.general_secs / p.eager_secs;
        speedups.push(speedup);
        time.push_row(vec![
            p.paper_k.to_string(),
            p.k.to_string(),
            format!("{:.0}", p.eager_secs),
            format!("{:.0}", p.general_secs),
            format!("{:.1}x", speedup),
        ]);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    time.note(format!("Average speedup {avg:.1}x (paper §V-B4: ~8x average on EC2)."));
    time.note("Times are simulated seconds on the Table I cluster model.");
    (iters, time)
}

struct SpPoint {
    paper_k: usize,
    k: usize,
    eager_iters: usize,
    general_iters: usize,
    eager_secs: f64,
    general_secs: f64,
}

fn sssp_sweep(cfg: &ReproConfig) -> Vec<SpPoint> {
    // Paper §V-C2: Graph A with random edge weights.
    let g = GraphChoice::A.build(cfg.scale);
    let wg = WeightedGraph::random_weights(g, 1.0, 10.0, cfg.seed ^ 0x55);
    let pool = ThreadPool::new(cfg.threads);
    let sp_cfg = SsspConfig { source: 0, num_reducers: cfg.reducers, ..Default::default() };
    let mut points = Vec::new();
    for (paper_k, k) in cfg.partition_sweep() {
        let parts =
            MultilevelKWay { seed: cfg.seed, ..Default::default() }.partition(wg.graph(), k);
        let mut eager_engine = sim_engine(&pool, cfg.seed);
        let eager = sssp::run_eager(&mut eager_engine, &wg, &parts, &sp_cfg);
        let mut general_engine = sim_engine(&pool, cfg.seed);
        let general = sssp::run_general(&mut general_engine, &wg, &parts, &sp_cfg);
        points.push(SpPoint {
            paper_k,
            k,
            eager_iters: eager.report.global_iterations,
            general_iters: general.report.global_iterations,
            eager_secs: secs(eager.report.sim_time),
            general_secs: secs(general.report.sim_time),
        });
    }
    points
}

/// Figures 6+7: SSSP iterations and simulated time vs partitions.
pub fn sssp_figures(cfg: &ReproConfig) -> (Figure, Figure) {
    let points = sssp_sweep(cfg);
    let mut iters = Figure::new(
        "fig6",
        "SSSP: iterations to converge vs partitions — Graph A",
        cfg.scale,
        vec!["partitions(paper)", "partitions(run)", "Eager", "General"],
    );
    for p in &points {
        iters.push_row(vec![
            p.paper_k.to_string(),
            p.k.to_string(),
            p.eager_iters.to_string(),
            p.general_iters.to_string(),
        ]);
    }
    iters.note(
        "Paper shape: General flat; Eager needs fewer global iterations at fewer partitions.",
    );

    let mut time = Figure::new(
        "fig7",
        "SSSP: time to converge vs partitions — Graph A (simulated)",
        cfg.scale,
        vec!["partitions(paper)", "partitions(run)", "Eager (s)", "General (s)", "speedup"],
    );
    let mut speedups = Vec::new();
    for p in &points {
        let s = p.general_secs / p.eager_secs;
        speedups.push(s);
        time.push_row(vec![
            p.paper_k.to_string(),
            p.k.to_string(),
            format!("{:.0}", p.eager_secs),
            format!("{:.0}", p.general_secs),
            format!("{:.1}x", s),
        ]);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    time.note(format!("Average speedup {avg:.1}x (paper §V-C2: ~8x)."));
    (iters, time)
}

struct KmPoint {
    threshold: f64,
    eager_iters: usize,
    general_iters: usize,
    eager_secs: f64,
    general_secs: f64,
    eager_sse: f64,
    general_sse: f64,
}

fn kmeans_sweep(cfg: &ReproConfig) -> Vec<KmPoint> {
    // Paper §V-D: census data, 52 partitions, random initial centroids.
    let data = kmeans::data::census_sample(cfg.scale, cfg.seed ^ 0xCE);
    let points = Arc::new(data.points);
    let partitions = 52usize;
    let pool = ThreadPool::new(cfg.threads);
    let initial = kmeans::initial_centroids(&points, 10, cfg.seed);
    let mut out = Vec::new();
    for threshold in cfg.threshold_sweep() {
        let km_cfg = KMeansConfig {
            k: 10,
            threshold,
            num_reducers: cfg.reducers,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut eager_engine = sim_engine(&pool, cfg.seed);
        let eager = kmeans::eager::run_eager_from(
            &mut eager_engine,
            &points,
            partitions,
            &km_cfg,
            Some(initial.clone()),
        );
        let mut general_engine = sim_engine(&pool, cfg.seed);
        let general = kmeans::general::run_general_from(
            &mut general_engine,
            &points,
            partitions,
            &km_cfg,
            Some(initial.clone()),
        );
        out.push(KmPoint {
            threshold,
            eager_iters: eager.report.global_iterations,
            general_iters: general.report.global_iterations,
            eager_secs: secs(eager.report.sim_time),
            general_secs: secs(general.report.sim_time),
            eager_sse: eager.sse,
            general_sse: general.sse,
        });
    }
    out
}

/// Figures 8+9: K-Means iterations and simulated time vs threshold δ.
pub fn kmeans_figures(cfg: &ReproConfig) -> (Figure, Figure) {
    let points = kmeans_sweep(cfg);
    let mut iters = Figure::new(
        "fig8",
        "K-Means: iterations to converge vs threshold (52 partitions)",
        cfg.scale,
        vec!["threshold", "Eager", "General", "Eager SSE", "General SSE"],
    );
    for p in &points {
        iters.push_row(vec![
            format!("{}", p.threshold),
            p.eager_iters.to_string(),
            p.general_iters.to_string(),
            format!("{:.3e}", p.eager_sse),
            format!("{:.3e}", p.general_sse),
        ]);
    }
    iters.note("Paper: Eager converges in < 1/3 of General's global iterations.");

    let mut time = Figure::new(
        "fig9",
        "K-Means: time to converge vs threshold (simulated)",
        cfg.scale,
        vec!["threshold", "Eager (s)", "General (s)", "speedup"],
    );
    let mut speedups = Vec::new();
    for p in &points {
        let s = p.general_secs / p.eager_secs;
        speedups.push(s);
        time.push_row(vec![
            format!("{}", p.threshold),
            format!("{:.0}", p.eager_secs),
            format!("{:.0}", p.general_secs),
            format!("{:.1}x", s),
        ]);
    }
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    time.note(format!("Average speedup {avg:.1}x (paper §V-D: ~3.5x)."));
    (iters, time)
}

/// §VI fault tolerance: identical results under injected transient
/// failures, with modest (slightly larger for Eager) time overhead.
pub fn fault_tolerance(cfg: &ReproConfig) -> Figure {
    let g = GraphChoice::A.build(cfg.scale);
    let k = ((100.0 * cfg.scale).round() as usize).max(2);
    let parts = MultilevelKWay { seed: cfg.seed, ..Default::default() }.partition(&g, k);
    let pool = ThreadPool::new(cfg.threads);
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };

    let mut fig = Figure::new(
        "faults",
        "PageRank under injected failures (barrier: 1% per attempt; async session: transient + node death)",
        cfg.scale,
        vec!["variant", "failures", "time (s)", "overhead", "re-executions", "ranks identical"],
    );

    for eager in [true, false] {
        let name = if eager { "Eager" } else { "General" };
        let run = |fail: bool| {
            let sim = Simulation::new(ClusterSpec::ec2_2010(), cfg.seed)
                .with_failures(AttemptFailurePlan::transient(if fail { 0.01 } else { 0.0 }));
            let mut engine = Engine::with_simulation(&pool, sim);
            let outcome = if eager {
                pagerank::run_eager(&mut engine, &g, &parts, &pr_cfg)
            } else {
                pagerank::run_general(&mut engine, &g, &parts, &pr_cfg)
            };
            let reexec: u32 = engine
                .history()
                .iter()
                .filter_map(|r| r.sim.as_ref())
                .map(|s| s.failed_attempts)
                .sum();
            (outcome, reexec)
        };
        let (clean, _) = run(false);
        let (faulty, reexec) = run(true);
        let t_clean = secs(clean.report.sim_time);
        let t_faulty = secs(faulty.report.sim_time);
        let identical = clean.ranks.iter().zip(&faulty.ranks).all(|(a, b)| (a - b).abs() < 1e-12);
        fig.push_row(vec![
            name.into(),
            "none".into(),
            format!("{t_clean:.0}"),
            "-".into(),
            "0".into(),
            "-".into(),
        ]);
        fig.push_row(vec![
            name.into(),
            "1%/attempt".into(),
            format!("{t_faulty:.0}"),
            format!("{:+.1}%", (t_faulty / t_clean - 1.0) * 100.0),
            reexec.to_string(),
            if identical { "yes" } else { "NO" }.into(),
        ]);
    }
    async_fault_rows(&mut fig, cfg, &pool, &g, &parts, &pr_cfg);
    fig.note("Deterministic replay: results are bit-identical with and without failures (§VI).");
    fig.note("Eager tasks are coarser, so each re-execution costs more — but overall overhead stays modest.");
    fig.note("Async rows: the failure-free session's recorded schedule replayed under each regime; 'ranks identical' compares a live faulty session bitwise against the live clean one.");
    fig
}

/// A live session records its schedule in completion order, which
/// depends on thread interleaving, and the replay's greedy placement is
/// sensitive to that order among same-iteration tasks. Sorting into
/// (iteration, partition) order — still topological: dependencies only
/// point at earlier iterations — makes the replayed seconds a pure
/// function of the seed.
fn canonical_schedule(schedule: &[AsyncTaskSpec]) -> Vec<AsyncTaskSpec> {
    let mut order: Vec<usize> = (0..schedule.len()).collect();
    order.sort_by_key(|&i| (schedule[i].iteration, schedule[i].partition));
    let mut new_index = vec![0usize; schedule.len()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }
    order
        .into_iter()
        .map(|old| {
            let mut task = schedule[old].clone();
            for d in &mut task.deps {
                *d = new_index[*d];
            }
            task.deps.sort_unstable();
            task
        })
        .collect()
}

/// The asynchronous session's rows of the §VI figure: transient
/// failures (deterministic re-execution) and correlated node deaths
/// (checkpoint/rollback), priced on the simulated cluster beside the
/// barrier rows.
fn async_fault_rows(
    fig: &mut Figure,
    cfg: &ReproConfig,
    pool: &ThreadPool,
    g: &CsrGraph,
    parts: &Partitioning,
    pr_cfg: &PageRankConfig,
) {
    let live = |driver| pagerank::run_async_with_driver(pool, g, parts, pr_cfg, driver);
    let driver = AsyncFixedPointDriver::new(pr_cfg.max_iterations);
    let clean = live(driver);
    let schedule = canonical_schedule(&clean.report.schedule);
    let sim = || Simulation::new(ClusterSpec::ec2_2010(), cfg.seed);
    let t_clean = sim().run_async_schedule(&schedule).duration.as_secs_f64();
    fig.push_row(vec![
        "Async".into(),
        "none".into(),
        format!("{t_clean:.0}"),
        "-".into(),
        "0".into(),
        "-".into(),
    ]);

    let mut push_row = |failures: String, driver, replay_secs: f64, reexec: String| {
        let faulty = live(driver);
        let identical = faulty.report.global_iterations == clean.report.global_iterations
            && clean.ranks.iter().zip(&faulty.ranks).all(|(a, b)| a.to_bits() == b.to_bits());
        fig.push_row(vec![
            "Async".into(),
            failures,
            format!("{replay_secs:.0}"),
            format!("{:+.1}%", (replay_secs / t_clean - 1.0) * 100.0),
            reexec,
            if identical { "yes" } else { "NO" }.into(),
        ]);
    };
    // One regime per row, handed to both layers: the replay prices it,
    // the live session survives it.
    for prob in [0.01f64, 0.2] {
        let plan = AttemptFailurePlan::transient(prob);
        let stats = sim().with_failures(plan).run_async_schedule(&schedule);
        push_row(
            format!("{}%/attempt", prob * 100.0),
            driver.with_failures(plan, cfg.seed),
            stats.duration.as_secs_f64(),
            stats.failed_attempts.to_string(),
        );
    }
    for k in [1usize, 4] {
        let deaths = NodeFailurePlan::correlated(0.2, cfg.seed, k);
        let stats = sim().with_node_failures(deaths).run_async_schedule(&schedule);
        push_row(
            format!("node death 20%/epoch, ckpt k={k}"),
            driver.with_node_failures(deaths, 8),
            stats.duration.as_secs_f64(),
            format!("{} node deaths", stats.node_failures),
        );
    }
}

/// Ablation (DESIGN.md §6): partial synchronization *requires* the
/// locality-enhancing partition. Eager PageRank under hash/range/BFS/
/// multilevel partitionings of the same graph — cut fraction drives
/// both the global-iteration count and the simulated time.
pub fn partitioner_ablation(cfg: &ReproConfig) -> Figure {
    use asyncmr_partition::{BfsPartitioner, HashPartitioner, RangePartitioner};

    let g = GraphChoice::A.build(cfg.scale);
    let k = ((400.0 * cfg.scale).round() as usize).max(2);
    let pool = ThreadPool::new(cfg.threads);
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };

    let mut fig = Figure::new(
        "ablation",
        format!("Eager PageRank vs partitioner quality (k = {k}, Graph A)"),
        cfg.scale,
        vec!["partitioner", "cut%", "Eager iters", "Eager time (s)", "vs General"],
    );
    let general_secs;
    {
        let parts = MultilevelKWay { seed: cfg.seed, ..Default::default() }.partition(&g, k);
        let mut engine = sim_engine(&pool, cfg.seed);
        let general = pagerank::run_general(&mut engine, &g, &parts, &pr_cfg);
        general_secs = secs(general.report.sim_time);
        fig.note(format!(
            "General baseline: {} iterations, {:.0}s (partitioner-independent).",
            general.report.global_iterations, general_secs
        ));
    }
    let partitioners: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("hash (no locality)", Box::new(HashPartitioner)),
        ("range (crawl order)", Box::new(RangePartitioner)),
        ("bfs region growing", Box::new(BfsPartitioner::default())),
        ("multilevel k-way", Box::new(MultilevelKWay { seed: cfg.seed, ..Default::default() })),
    ];
    for (name, partitioner) in partitioners {
        let parts = partitioner.partition(&g, k);
        let mut engine = sim_engine(&pool, cfg.seed);
        let eager = pagerank::run_eager(&mut engine, &g, &parts, &pr_cfg);
        let t = secs(eager.report.sim_time);
        fig.push_row(vec![
            name.to_string(),
            format!("{:.1}", parts.cut_fraction(&g) * 100.0),
            eager.report.global_iterations.to_string(),
            format!("{t:.0}"),
            format!("{:.1}x", general_secs / t),
        ]);
    }
    fig.note("Paper §II: partial synchronizations 'must be augmented with suitable locality enhancing techniques'.");
    fig
}

/// §VI "Scalability": the paper reran larger datasets on the 460-node
/// NSF CluE cluster, where "high node utilization incurs heavy network
/// delays", and still saw significant improvements. Same experiment on
/// the simulated CluE model.
pub fn scalability(cfg: &ReproConfig) -> Figure {
    let g = GraphChoice::A.build(cfg.scale);
    let k = ((800.0 * cfg.scale).round() as usize).max(2);
    let parts = MultilevelKWay { seed: cfg.seed, ..Default::default() }.partition(&g, k);
    let pool = ThreadPool::new(cfg.threads);
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };

    let mut fig = Figure::new(
        "scalability",
        format!("PageRank on the 460-node CluE cluster model (k = {k})"),
        cfg.scale,
        vec!["cluster", "Eager (s)", "General (s)", "speedup"],
    );
    for (label, spec) in [("ec2-8", ClusterSpec::ec2_2010()), ("clue-460", ClusterSpec::clue_460())]
    {
        let mut e1 = Engine::with_simulation(&pool, Simulation::new(spec.clone(), cfg.seed));
        let eager = pagerank::run_eager(&mut e1, &g, &parts, &pr_cfg);
        let mut e2 = Engine::with_simulation(&pool, Simulation::new(spec, cfg.seed));
        let general = pagerank::run_general(&mut e2, &g, &parts, &pr_cfg);
        let et = secs(eager.report.sim_time);
        let gt = secs(general.report.sim_time);
        fig.push_row(vec![
            label.to_string(),
            format!("{et:.0}"),
            format!("{gt:.0}"),
            format!("{:.1}x", gt / et),
        ]);
    }
    fig.note("Paper §VI: 'By showing significant performance improvements on a huge data set even in a setting of such large scale, our approach demonstrates scalability.'");
    fig
}

/// The straggler cluster `repro sched` and `simtrace` replay on:
/// [`ClusterSpec::ec2_2010`] with half the nodes at quarter speed
/// ([`ClusterSpec::with_slow_nodes`]), placed by `sched`, on the network
/// model named `model` — `default` (NIC-serialized), `constant`
/// (uncontended) or `shared` (fair-shared NICs, the uniform fluid
/// fabric).
///
/// # Panics
///
/// On an unknown model name.
pub fn straggler_sim(seed: u64, sched: SchedulerSpec, model: &str) -> Simulation {
    let spec = ClusterSpec::ec2_2010().with_slow_nodes(4, 0.25);
    let (n, bw, lat) = (spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
    let sim = Simulation::new(spec, seed).with_scheduler(sched);
    match model {
        "default" => sim,
        "constant" => sim.with_network(Constant::new(n, bw, lat)),
        "shared" => sim.with_network(TopologyAware::uniform(n, bw, lat)),
        other => panic!("unknown model {other} (default|constant|shared)"),
    }
}

/// Scheduler × straggler-regime makespans (simulated): every placement
/// policy on the [`straggler_sim`] cluster, on the uncontended default
/// network and again under fair-share NIC contention. The DAG is the
/// ring exchange the scheduler unit tests pin (each task feeds its own
/// next iteration plus both neighbors), sized so the critical path
/// through slow nodes dominates a start-time-greedy placement.
pub fn scheduler_sweep(cfg: &ReproConfig) -> Figure {
    let tasks = ring_exchange(8, 8, 40_000_000);
    let sim = |regime: &str, sched| {
        let model = if regime == "straggler-shared-net" { "shared" } else { "default" };
        straggler_sim(cfg.seed, sched, model)
    };

    let mut fig = Figure::new(
        "sched",
        "Scheduler makespans, ring exchange 8x8 with 4 of 8 nodes at 0.25x (simulated)",
        cfg.scale,
        vec!["regime", "scheduler", "makespan (s)", "vs list", "commit overruns", "overrun (s)"],
    );
    for regime in ["straggler", "straggler-shared-net"] {
        let mut list_secs = f64::NAN;
        for sched in SchedulerSpec::ALL {
            let stats = sim(regime, sched).run_async_schedule(&tasks);
            let secs = stats.duration.as_secs_f64();
            if stats.scheduler == "list" {
                list_secs = secs;
            }
            fig.push_row(vec![
                regime.into(),
                stats.scheduler.into(),
                format!("{secs:.1}"),
                format!("{:.2}x", list_secs / secs),
                stats.commit.overruns.to_string(),
                format!("{:.1}", stats.commit.overrun_time.as_secs_f64()),
            ]);
        }
    }

    // Where the list-vs-HEFT gap comes from, by critical-path component.
    let run = |sched| {
        let mut sim = sim("straggler", sched);
        let stats = sim.run_async_schedule(&tasks);
        (sim, stats)
    };
    let (list_sim, list_stats) = run(SchedulerSpec::List);
    let (heft_sim, heft_stats) = run(SchedulerSpec::Heft);
    let nodes = list_sim.spec().num_nodes();
    let diff = diff_runs(
        &RunRecord { tasks: &tasks, stats: &list_stats, trace: list_sim.last_trace(), nodes },
        &RunRecord { tasks: &tasks, stats: &heft_stats, trace: heft_sim.last_trace(), nodes },
    );
    fig.note(format!(
        "list vs heft on 'straggler': {:.0}% of the makespan gap is {} on the critical path (`simtrace diff` prints the hop-by-hop chain).",
        diff.dominant_share * 100.0,
        diff.dominant
    ));
    fig.note("Non-greedy placement pays off when nodes are heterogeneous: greedy start-time placement anchors partition chains on the slow nodes.");
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        ReproConfig {
            scale: 0.005, // 1400-node Graph A
            threads: 2,
            seed: 7,
            reducers: 4,
            out_dir: None,
        }
    }

    #[test]
    fn table1_has_testbed_rows() {
        let fig = table1(&tiny());
        assert_eq!(fig.id, "table1");
        assert!(fig.rows.iter().any(|r| r[0] == "nodes" && r[2] == "8"));
    }

    #[test]
    fn table2_measures_both_graphs() {
        let fig = table2(&tiny());
        assert_eq!(fig.rows[0][0], "nodes");
        let a_nodes: usize = fig.rows[0][2].parse().unwrap();
        assert_eq!(a_nodes, 1400);
    }

    #[test]
    fn pagerank_figures_have_expected_shape() {
        let cfg = tiny();
        let (iters, time) = pagerank_figures(&cfg, GraphChoice::A);
        assert_eq!(iters.rows.len(), 7);
        assert_eq!(time.rows.len(), 7);
        // General column constant across partition counts.
        let general: Vec<&String> = iters.rows.iter().map(|r| &r[4]).collect();
        assert!(general.windows(2).all(|w| w[0] == w[1]), "general not flat: {general:?}");
        // Eager beats general at the smallest partition count.
        let eager_first: usize = iters.rows[0][3].parse().unwrap();
        let general_first: usize = iters.rows[0][4].parse().unwrap();
        assert!(eager_first < general_first);
        // Simulated times present and positive.
        let t: f64 = time.rows[0][2].parse().unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn fault_figure_reports_identical_results() {
        let fig = fault_tolerance(&tiny());
        assert!(
            fig.rows.iter().filter(|r| r[1] != "none").all(|r| r[5] == "yes"),
            "{:?}",
            fig.rows
        );
    }
}
