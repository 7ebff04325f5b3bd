//! The experiments: one function per paper table/figure (or pair that
//! shares a sweep, as the paper's own runs did — an execution yields
//! both its iteration count and its wall time).
//!
//! Every Eager-vs-General experiment (Figs. 2–9, §VI scalability) is one
//! comparison: a `Testbed` runs each formulation once on a fresh
//! simulated engine and reads a `Run` off it (global iterations, partial
//! syncs, simulated seconds); a `Point` holds both runs at one x-axis
//! value; and a `Pair` draws the iterations / time figures, the latter
//! with the speed-up column and the average speed-up note (the §VI
//! scalability table is that time figure alone). A figure function is
//! its sweep plus one `render`.

use std::sync::Arc;

use asyncmr_apps::kmeans::{self, eager::run_eager_from, general::run_general_from, KMeansConfig};
use asyncmr_apps::pagerank::{self, PageRankConfig, PageRankOutcome};
use asyncmr_apps::sssp::{self, SsspConfig};
use asyncmr_core::{AsyncFixedPointDriver, Engine, IterationReport};
use asyncmr_graph::{presets, stats::GraphProperties, CsrGraph, WeightedGraph};
use asyncmr_model::{AsyncTaskSpec, AttemptFailurePlan, NodeFailurePlan, SimTime};
use asyncmr_partition::{MultilevelKWay, Partitioner, Partitioning};
use asyncmr_runtime::ThreadPool;
use asyncmr_simcluster::workloads::ring_exchange;
use asyncmr_simcluster::{
    diff_runs, AsyncScheduleStats, ClusterSpec, Constant, RunRecord, SchedulerSpec, Simulation,
    TopologyAware,
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

/// A multilevel k-way partitioner at the run's seed.
fn multilevel(cfg: &ReproConfig) -> MultilevelKWay {
    MultilevelKWay { seed: cfg.seed, ..Default::default() }
}

/// What a comparison reads off one formulation's run.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Global iterations (= global synchronizations).
    iterations: usize,
    /// Partial synchronizations across all gmap tasks.
    local_syncs: u64,
    /// Simulated seconds to converge.
    secs: f64,
}

impl Run {
    fn of(report: &IterationReport) -> Run {
        let secs = report.sim_time.map(SimTime::as_secs_f64).unwrap_or(f64::NAN);
        Run { iterations: report.global_iterations, local_syncs: report.local_syncs, secs }
    }
}

/// Where a comparison runs: a pool for the in-process jobs and the
/// simulated cluster, at the run's seed, that prices them.
struct Testbed {
    pool: ThreadPool,
    spec: ClusterSpec,
    seed: u64,
}

impl Testbed {
    fn on(cfg: &ReproConfig, spec: ClusterSpec) -> Testbed {
        Testbed { pool: ThreadPool::new(cfg.threads), spec, seed: cfg.seed }
    }

    /// Runs one formulation on a fresh engine simulating this cluster.
    fn run(&self, solve: impl FnOnce(&mut Engine<'_>) -> IterationReport) -> Run {
        let sim = Simulation::new(self.spec.clone(), self.seed);
        Run::of(&solve(&mut Engine::with_simulation(&self.pool, sim)))
    }

    /// Runs Eager, then General (`solve`'s flag says which), each on a
    /// fresh engine: the paper's comparison on one input.
    fn compare(&self, mut solve: impl FnMut(&mut Engine<'_>, bool) -> IterationReport) -> [Run; 2] {
        [true, false].map(|eager| self.run(|e| solve(e, eager)))
    }
}

/// One x-axis value of an Eager-vs-General comparison.
struct Point {
    /// The x-axis cells, leading every row of both figures.
    x: Vec<String>,
    eager: Run,
    general: Run,
    /// The cells the iterations figure adds (cut %, partial syncs, SSE):
    /// as many as its layout's leading extra columns go before the
    /// iteration counts, the rest after.
    extra: Vec<String>,
}

/// How one comparison is drawn as the paper's figure pair: iterations
/// to converge, then simulated time with the speed-up.
struct Pair<'a> {
    ids: [&'a str; 2],
    titles: [String; 2],
    /// The x-axis columns.
    x: &'a [&'a str],
    /// The iterations figure's extra columns before the counts, and after.
    extra: [&'a [&'a str]; 2],
    /// The shape the paper reports, noted under the iterations figure.
    shape: &'a str,
    /// Where the paper states its average speed-up.
    paper: &'a str,
}

impl Pair<'_> {
    fn render(self, scale: f64, points: &[Point]) -> (Figure, Figure) {
        let Pair { ids, titles: [iters_title, time_title], x, extra: [lead, trail], .. } = self;
        let columns = [x, lead, &["Eager", "General"], trail].concat();
        let mut iters = Figure::new(ids[0], iters_title, scale, columns);
        for p in points {
            let (before, after) = p.extra.split_at(lead.len());
            let counts = [p.eager.iterations, p.general.iterations].map(|n| n.to_string());
            iters.push_row([&p.x[..], before, &counts, after].concat());
        }
        iters.note(self.shape);
        let mut time = time_figure(ids[1], time_title, scale, x, points);
        let speedups = points.iter().map(|p| p.general.secs / p.eager.secs);
        let avg = speedups.sum::<f64>() / points.len() as f64;
        time.note(format!("Average speedup {avg:.1}x ({}).", self.paper));
        (iters, time)
    }
}

/// A comparison's time figure: per point, the x-axis cells, both runs'
/// simulated seconds and the speed-up (General's time over Eager's).
fn time_figure(id: &str, title: String, scale: f64, x: &[&str], points: &[Point]) -> Figure {
    let mut fig =
        Figure::new(id, title, scale, [x, &["Eager (s)", "General (s)", "speedup"]].concat());
    for p in points {
        let (e, g) = (p.eager.secs, p.general.secs);
        let secs = [format!("{e:.0}"), format!("{g:.0}"), format!("{:.1}x", g / e)];
        fig.push_row([&p.x[..], &secs].concat());
    }
    fig
}

/// The x-axis of the partition sweeps (Figs. 2–7).
const PARTITIONS: [&str; 2] = ["partitions(paper)", "partitions(run)"];

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

/// PageRank's barrier formulation: Eager or General.
fn pagerank_run(
    eager: bool,
) -> fn(&mut Engine<'_>, &CsrGraph, &Partitioning, &PageRankConfig) -> PageRankOutcome {
    if eager {
        pagerank::run_eager
    } else {
        pagerank::run_general
    }
}

fn pagerank_sweep(cfg: &ReproConfig, graph: GraphChoice) -> Vec<Point> {
    let g = graph.build(cfg.scale);
    let bed = Testbed::on(cfg, ClusterSpec::ec2_2010());
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };
    let sweep = cfg.partition_sweep().into_iter().map(|(paper_k, k)| {
        let parts = multilevel(cfg).partition(&g, k);
        let [eager, general] =
            bed.compare(|e, eager| pagerank_run(eager)(e, &g, &parts, &pr_cfg).report);
        let cut = format!("{:.1}", parts.cut_fraction(&g) * 100.0);
        let extra = vec![cut, eager.local_syncs.to_string()];
        Point { x: vec![paper_k.to_string(), k.to_string()], eager, general, extra }
    });
    sweep.collect()
}

/// Figures 2+4 (Graph A) or 3+5 (Graph B): PageRank iterations and
/// simulated time-to-converge vs number of partitions.
pub fn pagerank_figures(cfg: &ReproConfig, graph: GraphChoice) -> (Figure, Figure) {
    let (iters, mut time) = Pair {
        ids: match graph {
            GraphChoice::A => ["fig2", "fig4"],
            GraphChoice::B => ["fig3", "fig5"],
        },
        titles: [
            format!("PageRank: iterations to converge vs partitions — {}", graph.label()),
            format!("PageRank: time to converge vs partitions — {} (simulated)", graph.label()),
        ],
        x: &PARTITIONS,
        extra: [&["cut%"], &["Eager partial syncs"]],
        shape: "Paper shape: General flat; Eager grows with partitions, meeting General at tiny partitions.",
        paper: "paper §V-B4: ~8x average on EC2",
    }
    .render(cfg.scale, &pagerank_sweep(cfg, graph));
    time.note("Times are simulated seconds on the Table I cluster model.");
    (iters, time)
}

fn sssp_sweep(cfg: &ReproConfig) -> Vec<Point> {
    // Paper §V-C2: Graph A with random edge weights.
    let g = GraphChoice::A.build(cfg.scale);
    let wg = WeightedGraph::random_weights(g, 1.0, 10.0, cfg.seed ^ 0x55);
    let bed = Testbed::on(cfg, ClusterSpec::ec2_2010());
    let sp_cfg = SsspConfig { source: 0, num_reducers: cfg.reducers, ..Default::default() };
    let sweep = cfg.partition_sweep().into_iter().map(|(paper_k, k)| {
        let parts = multilevel(cfg).partition(wg.graph(), k);
        let [eager, general] = bed.compare(|e, eager| {
            let run = if eager { sssp::run_eager } else { sssp::run_general };
            run(e, &wg, &parts, &sp_cfg).report
        });
        Point { x: vec![paper_k.to_string(), k.to_string()], eager, general, extra: vec![] }
    });
    sweep.collect()
}

/// Figures 6+7: SSSP iterations and simulated time vs partitions.
pub fn sssp_figures(cfg: &ReproConfig) -> (Figure, Figure) {
    Pair {
        ids: ["fig6", "fig7"],
        titles: [
            "SSSP: iterations to converge vs partitions — Graph A".into(),
            "SSSP: time to converge vs partitions — Graph A (simulated)".into(),
        ],
        x: &PARTITIONS,
        extra: [&[], &[]],
        shape:
            "Paper shape: General flat; Eager needs fewer global iterations at fewer partitions.",
        paper: "paper §V-C2: ~8x",
    }
    .render(cfg.scale, &sssp_sweep(cfg))
}

fn kmeans_sweep(cfg: &ReproConfig) -> Vec<Point> {
    // Paper §V-D: census data, 52 partitions, random initial centroids.
    let data = kmeans::data::census_sample(cfg.scale, cfg.seed ^ 0xCE);
    let points = Arc::new(data.points);
    let partitions = 52usize;
    let bed = Testbed::on(cfg, ClusterSpec::ec2_2010());
    let initial = kmeans::initial_centroids(&points, 10, cfg.seed);
    let sweep = cfg.threshold_sweep().into_iter().map(|threshold| {
        let km_cfg = KMeansConfig {
            k: 10,
            threshold,
            num_reducers: cfg.reducers,
            seed: cfg.seed,
            ..Default::default()
        };
        let mut sse = Vec::new();
        let [eager, general] = bed.compare(|e, eager| {
            let run = if eager { run_eager_from } else { run_general_from };
            let out = run(e, &points, partitions, &km_cfg, Some(initial.clone()));
            sse.push(format!("{:.3e}", out.sse));
            out.report
        });
        Point { x: vec![format!("{threshold}")], eager, general, extra: sse }
    });
    sweep.collect()
}

/// Figures 8+9: K-Means iterations and simulated time vs threshold δ.
pub fn kmeans_figures(cfg: &ReproConfig) -> (Figure, Figure) {
    Pair {
        ids: ["fig8", "fig9"],
        titles: [
            "K-Means: iterations to converge vs threshold (52 partitions)".into(),
            "K-Means: time to converge vs threshold (simulated)".into(),
        ],
        x: &["threshold"],
        extra: [&[], &["Eager SSE", "General SSE"]],
        shape: "Paper: Eager converges in < 1/3 of General's global iterations.",
        paper: "paper §V-D: ~3.5x",
    }
    .render(cfg.scale, &kmeans_sweep(cfg))
}

/// §VI fault tolerance: identical results under injected transient
/// failures, with modest (slightly larger for Eager) time overhead.
pub fn fault_tolerance(cfg: &ReproConfig) -> Figure {
    let g = GraphChoice::A.build(cfg.scale);
    let parts = multilevel(cfg).partition(&g, cfg.partitions(100));
    let bed = Testbed::on(cfg, ClusterSpec::ec2_2010());
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };

    let mut fig = Figure::new(
        "faults",
        "PageRank under injected failures (barrier: 1% per attempt; async session: transient + node death)",
        cfg.scale,
        vec!["variant", "failures", "time (s)", "overhead", "re-executions", "ranks identical"],
    );

    for eager in [true, false] {
        let variant = if eager { "Eager" } else { "General" };
        let run = |prob: f64| {
            let sim = Simulation::new(bed.spec.clone(), bed.seed)
                .with_failures(AttemptFailurePlan::transient(prob));
            let mut engine = Engine::with_simulation(&bed.pool, sim);
            let out = pagerank_run(eager)(&mut engine, &g, &parts, &pr_cfg);
            let jobs = engine.history().iter().filter_map(|r| r.sim.as_ref());
            let reexec = jobs.map(|s| s.failed_attempts).sum::<u32>().to_string();
            (Run::of(&out.report), out.ranks, reexec)
        };
        let (clean, clean_ranks, _) = run(0.0);
        let (faulty, ranks, reexec) = run(0.01);
        fig.push_row(clean_row(variant, clean.secs));
        let same = identical((clean.iterations, &clean_ranks), (faulty.iterations, &ranks));
        let failures = "1%/attempt".into();
        fig.push_row(fault_row(variant, failures, faulty.secs, clean.secs, reexec, same));
    }
    async_fault_rows(&mut fig, &bed, &g, &parts, &pr_cfg);
    fig.note("Deterministic replay: results are bit-identical with and without failures (§VI).");
    fig.note("Eager tasks are coarser, so each re-execution costs more — but overall overhead stays modest.");
    fig.note("Async rows: the failure-free session's recorded schedule replayed under each regime; 'ranks identical' compares a live faulty session bitwise against the live clean one.");
    fig
}

/// Whether two PageRank runs took as many iterations to bitwise-equal
/// ranks: what the faults figure's "ranks identical" column claims.
fn identical(a: (usize, &[f64]), b: (usize, &[f64])) -> bool {
    a.0 == b.0 && a.1.iter().map(|r| r.to_bits()).eq(b.1.iter().map(|r| r.to_bits()))
}

/// A failure-free row of the faults figure.
fn clean_row(variant: &str, secs: f64) -> Vec<String> {
    [variant, "none", &format!("{secs:.0}"), "-", "0", "-"].map(String::from).to_vec()
}

/// A faults-figure row: `variant` under `failures`, its simulated
/// seconds against the failure-free run's, its re-executions, and
/// whether its ranks are [`identical`] to the failure-free run's.
fn fault_row(
    variant: &str,
    failures: String,
    secs: f64,
    clean_secs: f64,
    reexec: String,
    same: bool,
) -> Vec<String> {
    let overhead = format!("{:+.1}%", (secs / clean_secs - 1.0) * 100.0);
    let same = if same { "yes" } else { "NO" }.into();
    vec![variant.into(), failures, format!("{secs:.0}"), overhead, reexec, same]
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
    bed: &Testbed,
    g: &CsrGraph,
    parts: &Partitioning,
    pr_cfg: &PageRankConfig,
) {
    let live = |driver| pagerank::run_async_with_driver(&bed.pool, g, parts, pr_cfg, driver);
    let driver = AsyncFixedPointDriver::new(pr_cfg.max_iterations);
    let clean = live(driver);
    let schedule = canonical_schedule(&clean.report.schedule);
    let sim = || Simulation::new(bed.spec.clone(), bed.seed);
    let t_clean = sim().run_async_schedule(&schedule).duration.as_secs_f64();
    fig.push_row(clean_row("Async", t_clean));

    let mut push_row = |failures: String, driver, replay_secs: f64, reexec: String| {
        let faulty = live(driver);
        let same = identical(
            (clean.report.global_iterations, &clean.ranks),
            (faulty.report.global_iterations, &faulty.ranks),
        );
        fig.push_row(fault_row("Async", failures, replay_secs, t_clean, reexec, same));
    };
    // One regime per row, handed to both layers: the replay prices it,
    // the live session survives it.
    for prob in [0.01f64, 0.2] {
        let plan = AttemptFailurePlan::transient(prob);
        let stats = sim().with_failures(plan).run_async_schedule(&schedule);
        push_row(
            format!("{}%/attempt", prob * 100.0),
            driver.with_failures(plan, bed.seed),
            stats.duration.as_secs_f64(),
            stats.failed_attempts.to_string(),
        );
    }
    for k in [1usize, 4] {
        let deaths = NodeFailurePlan::correlated(0.2, bed.seed, k);
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
    let k = cfg.partitions(400);
    let bed = Testbed::on(cfg, ClusterSpec::ec2_2010());
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };
    let run = |eager, parts: &Partitioning| {
        bed.run(|e| pagerank_run(eager)(e, &g, parts, &pr_cfg).report)
    };

    let mut fig = Figure::new(
        "ablation",
        format!("Eager PageRank vs partitioner quality (k = {k}, Graph A)"),
        cfg.scale,
        vec!["partitioner", "cut%", "Eager iters", "Eager time (s)", "vs General"],
    );
    let general = run(false, &multilevel(cfg).partition(&g, k));
    fig.note(format!(
        "General baseline: {} iterations, {:.0}s (partitioner-independent).",
        general.iterations, general.secs
    ));
    let partitioners: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("hash (no locality)", Box::new(HashPartitioner)),
        ("range (crawl order)", Box::new(RangePartitioner)),
        ("bfs region growing", Box::new(BfsPartitioner::default())),
        ("multilevel k-way", Box::new(multilevel(cfg))),
    ];
    for (name, partitioner) in partitioners {
        let parts = partitioner.partition(&g, k);
        let eager = run(true, &parts);
        fig.push_row(vec![
            name.to_string(),
            format!("{:.1}", parts.cut_fraction(&g) * 100.0),
            eager.iterations.to_string(),
            format!("{:.0}", eager.secs),
            format!("{:.1}x", general.secs / eager.secs),
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
    let k = cfg.partitions(800);
    let parts = multilevel(cfg).partition(&g, k);
    let pr_cfg = PageRankConfig { num_reducers: cfg.reducers, ..Default::default() };
    let clusters = [("ec2-8", ClusterSpec::ec2_2010()), ("clue-460", ClusterSpec::clue_460())];
    let points: Vec<Point> = clusters
        .into_iter()
        .map(|(label, spec)| {
            let bed = Testbed::on(cfg, spec);
            let [eager, general] =
                bed.compare(|e, eager| pagerank_run(eager)(e, &g, &parts, &pr_cfg).report);
            Point { x: vec![label.into()], eager, general, extra: vec![] }
        })
        .collect();
    let title = format!("PageRank on the 460-node CluE cluster model (k = {k})");
    let mut fig = time_figure("scalability", title, cfg.scale, &["cluster"], &points);
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

/// One replay of the headline DAG on a [`straggler_sim`] cluster, kept
/// for analysis: the ring exchange of 8 partitions over 8 iterations,
/// 40 M ops a task, that `repro sched` and `simtrace` replay.
pub struct HeadlineRun {
    /// The replayed DAG.
    pub tasks: Vec<AsyncTaskSpec>,
    /// The cluster, holding the replay's trace.
    pub sim: Simulation,
    /// What the replay returned.
    pub stats: AsyncScheduleStats,
}

impl HeadlineRun {
    /// Replays the ring on `straggler_sim(seed, sched, model)`.
    pub fn new(seed: u64, sched: SchedulerSpec, model: &str) -> HeadlineRun {
        let tasks = ring_exchange(8, 8, 40_000_000);
        let mut sim = straggler_sim(seed, sched, model);
        let stats = sim.run_async_schedule(&tasks);
        HeadlineRun { tasks, sim, stats }
    }

    /// The replay as [`diff_runs`] and the trace reports read it.
    pub fn record(&self) -> RunRecord<'_> {
        let (tasks, stats, trace) = (&self.tasks, &self.stats, self.sim.last_trace());
        RunRecord { tasks, stats, trace, nodes: self.sim.spec().num_nodes() }
    }
}

/// Scheduler × straggler-regime makespans (simulated): every placement
/// policy on the [`straggler_sim`] cluster, on the uncontended default
/// network and again under fair-share NIC contention. The DAG is the
/// ring exchange the scheduler unit tests pin (each task feeds its own
/// next iteration plus both neighbors), sized so the critical path
/// through slow nodes dominates a start-time-greedy placement.
pub fn scheduler_sweep(cfg: &ReproConfig) -> Figure {
    let mut fig = Figure::new(
        "sched",
        "Scheduler makespans, ring exchange 8x8 with 4 of 8 nodes at 0.25x (simulated)",
        cfg.scale,
        vec!["regime", "scheduler", "makespan (s)", "vs list", "commit overruns", "overrun (s)"],
    );
    for (regime, model) in [("straggler", "default"), ("straggler-shared-net", "shared")] {
        let mut list_secs = f64::NAN;
        for sched in SchedulerSpec::ALL {
            let stats = HeadlineRun::new(cfg.seed, sched, model).stats;
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
    let [list, heft] = [SchedulerSpec::List, SchedulerSpec::Heft]
        .map(|s| HeadlineRun::new(cfg.seed, s, "default"));
    let diff = diff_runs(&list.record(), &heft.record());
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
    fn sssp_figures_have_expected_shape() {
        let (iters, time) = sssp_figures(&tiny());
        assert_eq!(iters.columns, ["partitions(paper)", "partitions(run)", "Eager", "General"]);
        assert_eq!(iters.rows.len(), 7);
        assert_eq!(time.rows.len(), 7);
        // General column constant across partition counts.
        let general: Vec<&String> = iters.rows.iter().map(|r| &r[3]).collect();
        assert!(general.windows(2).all(|w| w[0] == w[1]), "general not flat: {general:?}");
        let t: f64 = time.rows[0][2].parse().unwrap();
        assert!(t > 0.0);
        assert!(time.notes[0].starts_with("Average speedup"), "{:?}", time.notes);
    }

    #[test]
    fn kmeans_figures_have_expected_shape() {
        let (iters, time) = kmeans_figures(&tiny());
        assert_eq!(iters.columns, ["threshold", "Eager", "General", "Eager SSE", "General SSE"]);
        assert_eq!(iters.rows.len(), 4);
        assert_eq!(time.columns, ["threshold", "Eager (s)", "General (s)", "speedup"]);
        assert_eq!(time.rows.len(), 4);
        let t: f64 = time.rows[0][1].parse().unwrap();
        assert!(t > 0.0);
        assert!(time.notes[0].starts_with("Average speedup"), "{:?}", time.notes);
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
