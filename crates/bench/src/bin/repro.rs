//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <ARTIFACT>...
//!
//! Options:
//!   --scale <f64>    input scale vs the paper, finite and > 0 (default 0.1)
//!   --seed <u64>     master seed (default 2010)
//!   --threads <n>    worker threads, at least 1 (default: all cores)
//!   --reducers <n>   reduce tasks per job, at least 1 (default 16, = paper slots)
//!   --out <dir>      JSON output directory (default results/)
//!   --no-save        don't write JSON
//! ```
//!
//! The artifacts are `asyncmr_bench::ARTIFACTS`, which `repro --help`
//! lists; `all` runs every one of them in that table's order. A refused
//! option value or an unknown artifact exits 2 before anything runs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use asyncmr_bench::{Figure, ReproConfig, ARTIFACTS};
use asyncmr_model::underflow_count;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale f] [--seed n] [--threads n] [--reducers n] [--out dir] [--no-save] <artifact>...\n\nartifacts:"
    );
    for artifact in ARTIFACTS {
        eprintln!("  {:<13} {}", artifact.ids.join(" "), artifact.about);
    }
    eprintln!("  {:<13} every artifact above, in this order", "all");
    std::process::exit(2);
}

/// The value after `flag`: refused, by name, unless it parses and
/// passes `ok` (`rule` says what `ok` wants).
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    ok: fn(&T) -> bool,
    rule: &str,
) -> T {
    let raw = args.next().unwrap_or_else(|| usage());
    match raw.parse() {
        Ok(v) if ok(&v) => v,
        _ => {
            eprintln!("repro: {flag} {raw} is refused; it must be {rule}");
            std::process::exit(2)
        }
    }
}

fn main() -> ExitCode {
    let mut cfg = ReproConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let ok = |s: &f64| s.is_finite() && *s > 0.0;
                cfg.scale = value(&mut args, &arg, ok, "a finite number > 0")
            }
            "--seed" => cfg.seed = value(&mut args, &arg, |_| true, "an unsigned integer"),
            "--threads" => cfg.threads = value(&mut args, &arg, |&n| n > 0, "an integer >= 1"),
            "--reducers" => cfg.reducers = value(&mut args, &arg, |&n| n > 0, "an integer >= 1"),
            "--out" => cfg.out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--no-save" => cfg.out_dir = None,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if ids.iter().any(|a| a == "all") {
        ids = ARTIFACTS.iter().flat_map(|a| a.ids).map(|id| id.to_string()).collect();
    }
    // Each id's entry in the table, checked before anything runs.
    let mut entries = Vec::with_capacity(ids.len());
    for id in &ids {
        match ARTIFACTS.iter().position(|a| a.ids.contains(&id.as_str())) {
            Some(entry) => entries.push(entry),
            None => {
                eprintln!("unknown artifact: {id}");
                return ExitCode::from(2);
            }
        }
    }

    eprintln!(
        "# repro: scale {} seed {} threads {} reducers {}",
        cfg.scale, cfg.seed, cfg.threads, cfg.reducers
    );

    // An experiment runs once however many of its figures are asked for.
    let mut produced: Vec<Option<Vec<Figure>>> = vec![None; ARTIFACTS.len()];
    for (id, entry) in ids.iter().zip(entries) {
        // Every simulation below (barrier `run_job` inside the engine,
        // async replays in the figures) runs on this thread.
        let underflows_before = underflow_count();
        let figures = produced[entry].get_or_insert_with(|| (ARTIFACTS[entry].produce)(&cfg));
        let fig = figures.iter().find(|f| f.id == *id).expect("an artifact produces its ids");
        fig.print();
        if let Some(dir) = &cfg.out_dir {
            match fig.save_json(dir) {
                Ok(path) => eprintln!("# saved {}", path.display()),
                Err(err) => eprintln!("# WARN: could not save {}: {err}", fig.id),
            }
        }
        // `SimTime`'s `-` clamps in release builds and counts: a figure
        // built on a clamped span is wrong, not slow.
        let underflows = underflow_count() - underflows_before;
        if underflows > 0 {
            eprintln!("{id}: {underflows} SimTime subtraction(s) underflowed in its replays");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
