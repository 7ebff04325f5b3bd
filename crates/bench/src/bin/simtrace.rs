//! `simtrace` — post-hoc analysis of recorded simulator event traces.
//!
//! The simulator's replays leave a pop-order event trace behind
//! (`Simulation::last_trace`); `asyncmr_simcluster::trace` turns it
//! into utilization timelines, a critical-path decomposition, and a
//! run-vs-run diff. This bin is the CLI over that layer:
//!
//! ```text
//! simtrace timeline      [--sched S] [--model M] [--csv]
//! simtrace critical-path [--sched S] [--model M] [--csv]
//! simtrace diff          [--a S] [--b S] [--model M] [--json]
//! simtrace report        [--sched S] [--model M] [--dir PATH]
//! simtrace fixtures      [--dir PATH]
//! ```
//!
//! The first three subcommands replay the `repro sched` headline
//! workload — the 8×8 ring exchange on its straggler cluster
//! (`asyncmr_bench::figures::straggler_sim`: half the nodes at quarter
//! speed), at seed 7 — under one of the schedulers `repro sched`
//! compares (`list` | `heft`) and network
//! model (`default` | `constant` | `shared`, the last being fair-shared
//! NICs: the uniform fluid fabric), then render the requested analysis. `diff` aligns two schedulers on the same
//! workload (defaults: `--a list --b heft`) and names the
//! critical-path component responsible for the makespan gap.
//!
//! `report` renders two runs through the unified renderer
//! (`asyncmr_simcluster::trace::report`), each into a self-contained
//! HTML timeline report and a Chrome-trace/Perfetto JSON
//! (`chrome://tracing` / <https://ui.perfetto.dev>) under `--dir`: the
//! same simulated headline run (`sim_report.html`, `sim_trace.json`)
//! and a *live* traced PageRank session (`live_report.html`,
//! `live_trace.json`), so a simulated and a real run decompose
//! like-for-like. The live session's contracts (traced output bitwise
//! = untraced, spans sum to the meters) are pinned by
//! `tests/obs_trace.rs`; its recording overhead is the ledger's
//! `bench.trace_overhead_pct`.
//!
//! `fixtures` is the CI entry point: it re-verifies every row of the
//! golden-trace fixture file the replay-fidelity suite archives
//! (`target/golden_traces/replay_fidelity.tsv` — app, path, seed,
//! event count, trace digest) by re-running the recorded workload and
//! comparing, asserts the diff of every async fixture run against
//! itself is empty, and writes per-app `trace_analysis_<app>.json`
//! artifacts next to the fixture file.

use asyncmr_apps::pagerank::{self, PageRankConfig};
use asyncmr_bench::figures::HeadlineRun;
use asyncmr_core::{AsyncFixedPointDriver, GroupingStrategy};
use asyncmr_graph::generators;
use asyncmr_model::underflow_count;
use asyncmr_partition::{apply_locality_order, Partitioner, RangePartitioner};
use asyncmr_runtime::ThreadPool;
use asyncmr_simcluster::workloads::{async_schedule, barrier_jobs, APPS, ASYNC_SEED};
use asyncmr_simcluster::{
    diff_runs, ClusterSpec, Constant, ReportModel, RunRecord, SchedulerSpec, Simulation,
};

const USAGE: &str = "usage: simtrace <timeline|critical-path|diff|report|fixtures> \
                     [--sched S] [--a S] [--b S] [--model M] [--dir PATH] [--csv] [--json]";

/// The `repro sched` headline run at seed 7, placed by the scheduler
/// named `sched`, on the network model named `model`.
fn headline_run(model: &str, sched: &str) -> HeadlineRun {
    let spec = SchedulerSpec::ALL.into_iter().find(|s| s.name() == sched);
    let spec = spec.unwrap_or_else(|| panic!("unknown scheduler {sched} (list|heft)"));
    HeadlineRun::new(7, spec, model)
}

/// The live half of `report`: a traced lag-0 PageRank session on the
/// ledger's flagship shape (crawl-locality streamed graph, range
/// partitions + locality reorder, radix grouping), rendered by the same
/// [`ReportModel`] as the simulated run.
fn live_report(dir: &str) {
    const NODES: usize = 60_000;
    const PARTS: usize = 4;
    let g = generators::preferential_attachment_streamed(NODES, 5, 0.95, 1024, 42);
    let parts = RangePartitioner.partition(&g, PARTS);
    let (g, parts, _perm) = apply_locality_order(&g, &parts);
    let cfg = PageRankConfig { grouping: GroupingStrategy::Radix, ..PageRankConfig::default() };
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).max(4);
    let pool = ThreadPool::new(threads);
    let driver = AsyncFixedPointDriver::new(cfg.max_iterations).with_trace();
    let out = pagerank::run_async_with_driver(&pool, &g, &parts, &cfg, driver);
    let trace = out.report.trace.as_ref().expect("traced run records a trace");
    let title =
        format!("live pagerank session ({NODES} vertices, {PARTS} partitions, {threads} threads)");
    let report = ReportModel::from_session(trace, &out.report.schedule, &title);
    let html = format!("{dir}/live_report.html");
    let json = format!("{dir}/live_trace.json");
    std::fs::write(&html, report.html()).expect("write HTML report");
    std::fs::write(&json, report.chrome_trace_json()).expect("write Chrome trace");
    println!(
        "live session {:?} over {} iterations, critical path {} hops; wrote {html} and {json}",
        out.report.wall_time,
        out.report.global_iterations,
        report.critical_path.hops.len()
    );
}

/// `SimTime`'s `-` clamps in release builds and counts: a replay that
/// moved the counter (on this thread, where every simulation here runs)
/// produced a trace built on a clamped span.
fn assert_no_underflow(before: u64, what: &str) {
    let underflows = underflow_count() - before;
    assert_eq!(underflows, 0, "{what}: {underflows} SimTime subtraction(s) underflowed");
}

/// Verifies one fixture row by re-running its recorded workload.
fn verify_fixture_row(app: &str, path: &str, seed: u64, events: usize, digest: u64) {
    let underflows_before = underflow_count();
    let (len, dig) = match path {
        "barrier" => {
            let mut sim = Simulation::new(ClusterSpec::ec2_2010(), seed);
            for job in barrier_jobs(app) {
                sim.run_job(&job);
            }
            (sim.last_trace().len(), sim.trace_digest())
        }
        "async" => {
            let spec = ClusterSpec::ec2_2010();
            let model = Constant::new(spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
            let mut sim = Simulation::new(spec, seed).with_network(model);
            sim.run_async_schedule(&async_schedule(app));
            (sim.last_trace().len(), sim.trace_digest())
        }
        other => panic!("unknown fixture path {other}"),
    };
    assert_eq!(
        (len, format!("0x{dig:016x}")),
        (events, format!("0x{digest:016x}")),
        "{app}/{path} fixture at seed {seed} does not replay to the archived trace"
    );
    assert_no_underflow(underflows_before, &format!("{app}/{path} fixture at seed {seed}"));
}

/// The `fixtures` subcommand: verify the archived golden-trace fixture
/// file (when present), assert self-diff emptiness on every app's
/// async run, and write per-app trace-analysis artifacts.
fn fixtures(dir: &str) {
    let tsv = format!("{dir}/replay_fidelity.tsv");
    match std::fs::read_to_string(&tsv) {
        Ok(body) => {
            let mut rows = 0usize;
            for line in body.lines().skip(1).filter(|l| !l.trim().is_empty()) {
                let f: Vec<&str> = line.split('\t').collect();
                assert_eq!(f.len(), 5, "malformed fixture row: {line}");
                let seed: u64 = f[2].parse().expect("fixture seed");
                let events: usize = f[3].parse().expect("fixture event count");
                let digest =
                    u64::from_str_radix(f[4].trim_start_matches("0x"), 16).expect("fixture digest");
                verify_fixture_row(f[0], f[1], seed, events, digest);
                rows += 1;
            }
            println!("verified {rows} fixture rows from {tsv}");
        }
        Err(_) => println!("no fixture file at {tsv}; skipping digest verification"),
    }

    std::fs::create_dir_all(dir).expect("create artifact dir");
    for app in APPS {
        let tasks = async_schedule(app);
        let spec = ClusterSpec::ec2_2010();
        let model = Constant::new(spec.num_nodes(), spec.nic_bandwidth, spec.net_latency);
        let mut sim = Simulation::new(spec, ASYNC_SEED).with_network(model);
        let underflows_before = underflow_count();
        let stats = sim.run_async_schedule(&tasks);
        assert_no_underflow(underflows_before, &format!("{app} async run at seed {ASYNC_SEED}"));
        let rec = RunRecord {
            tasks: &tasks,
            stats: &stats,
            trace: sim.last_trace(),
            nodes: sim.spec().num_nodes(),
        };
        let self_diff = diff_runs(&rec, &rec);
        assert!(
            self_diff.is_empty(),
            "{app}: a run diffed against itself must report zero divergence: {self_diff:?}"
        );
        let analysis = sim.analyze_async_run(&tasks, &stats);
        let json = format!(
            "{{\n  \"app\": \"{app}\",\n  \"seed\": {ASYNC_SEED},\n  \"self_diff_empty\": true,\n  \"analysis\": {}\n}}\n",
            analysis.to_json()
        );
        let path = format!("{dir}/trace_analysis_{app}.json");
        std::fs::write(&path, json).expect("write trace analysis artifact");
        println!(
            "{app}: self-diff empty, critical path {} hops, wrote {path}",
            analysis.critical_path.hops.len()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("");
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };

    match cmd {
        "timeline" | "critical-path" => {
            let (sched, model) = (opt("--sched", "list"), opt("--model", "shared"));
            let run = headline_run(&model, &sched);
            let analysis = run.sim.analyze_async_run(&run.tasks, &run.stats);
            if flag("--csv") {
                print!(
                    "{}",
                    if cmd == "timeline" {
                        analysis.to_csv()
                    } else {
                        analysis.critical_path_csv()
                    }
                );
            } else {
                print!("{}", analysis.to_text());
            }
        }
        "diff" => {
            let (a, b, model) = (opt("--a", "list"), opt("--b", "heft"), opt("--model", "default"));
            let diff =
                diff_runs(&headline_run(&model, &a).record(), &headline_run(&model, &b).record());
            if flag("--json") {
                println!("{}", diff.to_json());
            } else {
                print!("{}", diff.to_text());
            }
        }
        "report" => {
            let (sched, model) = (opt("--sched", "list"), opt("--model", "shared"));
            let dir = opt("--dir", "target/trace_report");
            let run = headline_run(&model, &sched);
            let title = format!("ring 8x8 on straggler cluster ({sched}/{model}, simulated)");
            let report = ReportModel::from_run(&run.record(), &title);
            std::fs::create_dir_all(&dir).expect("create report dir");
            let html = format!("{dir}/sim_report.html");
            let json = format!("{dir}/sim_trace.json");
            std::fs::write(&html, report.html()).expect("write HTML report");
            std::fs::write(&json, report.chrome_trace_json()).expect("write Chrome trace");
            println!(
                "simulated makespan {:?}, critical path {} hops; wrote {html} and {json}",
                run.stats.duration,
                report.critical_path.hops.len()
            );
            live_report(&dir);
        }
        "fixtures" => fixtures(&opt("--dir", "target/golden_traces")),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
