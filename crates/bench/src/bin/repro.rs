//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <ARTIFACT>...
//!
//! Artifacts: table1 table2 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!            faults ablation scalability sched all
//!
//! Options:
//!   --scale <f64>    input scale vs the paper (default 0.1)
//!   --seed <u64>     master seed (default 2010)
//!   --threads <n>    worker threads, at least 1 (default: all cores)
//!   --reducers <n>   reduce tasks per job, at least 1 (default 16, = paper slots)
//!   --out <dir>      JSON output directory (default results/)
//!   --no-save        don't write JSON
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use asyncmr_bench::{
    fault_tolerance, kmeans_figures, pagerank_figures, partitioner_ablation, scalability,
    scheduler_sweep, sssp_figures, table1, table2, Figure, GraphChoice, ReproConfig,
};
use asyncmr_model::underflow_count;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale f] [--seed n] [--threads n] [--reducers n] [--out dir] [--no-save] \
         <table1|table2|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|faults|ablation|scalability|sched|all>..."
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ReproConfig::default();
    let mut artifacts: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--threads" => {
                cfg.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--reducers" => {
                cfg.reducers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--out" => cfg.out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--no-save" => cfg.out_dir = None,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        usage();
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = [
            "table1",
            "table2",
            "fig2",
            "fig4",
            "fig3",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "faults",
            "ablation",
            "scalability",
            "sched",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    eprintln!(
        "# repro: scale {} seed {} threads {} reducers {}",
        cfg.scale, cfg.seed, cfg.threads, cfg.reducers
    );

    // Figure pairs share one sweep; cache so `all` doesn't redo work.
    let mut pr_a: Option<(Figure, Figure)> = None;
    let mut pr_b: Option<(Figure, Figure)> = None;
    let mut sp: Option<(Figure, Figure)> = None;
    let mut km: Option<(Figure, Figure)> = None;

    let emit = |fig: &Figure, cfg: &ReproConfig| {
        fig.print();
        if let Some(dir) = &cfg.out_dir {
            match fig.save_json(dir) {
                Ok(path) => eprintln!("# saved {}", path.display()),
                Err(err) => eprintln!("# WARN: could not save {}: {err}", fig.id),
            }
        }
    };

    for artifact in &artifacts {
        // Every simulation below (barrier `run_job` inside the engine,
        // async replays in the figures) runs on this thread.
        let underflows_before = underflow_count();
        match artifact.as_str() {
            "table1" => emit(&table1(&cfg), &cfg),
            "table2" => emit(&table2(&cfg), &cfg),
            "fig2" => {
                let figs = pr_a.get_or_insert_with(|| pagerank_figures(&cfg, GraphChoice::A));
                let fig = figs.0.clone();
                emit(&fig, &cfg);
            }
            "fig4" => {
                let figs = pr_a.get_or_insert_with(|| pagerank_figures(&cfg, GraphChoice::A));
                let fig = figs.1.clone();
                emit(&fig, &cfg);
            }
            "fig3" => {
                let figs = pr_b.get_or_insert_with(|| pagerank_figures(&cfg, GraphChoice::B));
                let fig = figs.0.clone();
                emit(&fig, &cfg);
            }
            "fig5" => {
                let figs = pr_b.get_or_insert_with(|| pagerank_figures(&cfg, GraphChoice::B));
                let fig = figs.1.clone();
                emit(&fig, &cfg);
            }
            "fig6" => {
                let figs = sp.get_or_insert_with(|| sssp_figures(&cfg));
                let fig = figs.0.clone();
                emit(&fig, &cfg);
            }
            "fig7" => {
                let figs = sp.get_or_insert_with(|| sssp_figures(&cfg));
                let fig = figs.1.clone();
                emit(&fig, &cfg);
            }
            "fig8" => {
                let figs = km.get_or_insert_with(|| kmeans_figures(&cfg));
                let fig = figs.0.clone();
                emit(&fig, &cfg);
            }
            "fig9" => {
                let figs = km.get_or_insert_with(|| kmeans_figures(&cfg));
                let fig = figs.1.clone();
                emit(&fig, &cfg);
            }
            "faults" => emit(&fault_tolerance(&cfg), &cfg),
            "ablation" => emit(&partitioner_ablation(&cfg), &cfg),
            "scalability" => emit(&scalability(&cfg), &cfg),
            "sched" => emit(&scheduler_sweep(&cfg), &cfg),
            other => {
                eprintln!("unknown artifact: {other}");
                return ExitCode::from(2);
            }
        }
        // `SimTime`'s `-` clamps in release builds and counts: a figure
        // built on a clamped span is wrong, not slow.
        let underflows = underflow_count() - underflows_before;
        if underflows > 0 {
            eprintln!("{artifact}: {underflows} SimTime subtraction(s) underflowed in its replays");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
