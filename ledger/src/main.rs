//! `ledger` — the repo's single benchmark.
//!
//! ```text
//! ledger run   [--seed 42] [--threads T] [--workload NAME] [--out DIR] [--quick]
//! ledger diff  A.json B.json
//! ledger bench --workload NAME --seed N --seconds S --trace 0|1 [--threads T] [--out DIR]
//! ```
//!
//! `run` measures every workload (each pass in its own child process,
//! so CPU time and peak RSS are per workload), prints every metric by
//! name with its unit and writes `<out>/ledger.json`; `diff` judges
//! two such reports against the bounds fixed in [`metrics`]; `bench`
//! is one pass over one workload and the `BENCHMARK.json` command. See
//! `README.md` next to this package's manifest.

mod diff;
mod e2e;
mod json;
mod measure;
mod metrics;
mod report;
mod trace;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use e2e::RunId;
use workloads::Workload;

const USAGE: &str = "usage:
  ledger run   [--seed 42] [--threads T] [--workload NAME] [--out DIR] [--quick]
  ledger diff  A.json B.json
  ledger bench --workload NAME [--seed 42] [--seconds S] [--trace 0|1] [--threads T] [--out DIR] [--quick]";

/// Options shared by `run` and `bench`.
pub struct Options {
    pub seed: u64,
    /// Pool workers (default `min(nproc, 4) - 1`; the caller is a lane).
    pub threads: usize,
    pub workload: Option<Workload>,
    pub out: PathBuf,
    pub quick: bool,
    /// `bench`: measure for this long instead of a fixed rep count.
    pub seconds: Option<u64>,
    /// `bench`: the traced per-layer pass instead of the end-to-end one.
    pub trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            seed: 42,
            threads: workloads::default_threads(),
            workload: None,
            out: PathBuf::from("results/ledger"),
            quick: false,
            seconds: None,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number =
                |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: bad number {v}"));
            match flag.as_str() {
                "--seed" => o.seed = number(value()?)?,
                "--threads" => o.threads = (number(value()?)? as usize).max(1),
                "--seconds" => o.seconds = Some(number(value()?)?),
                "--trace" => o.trace = number(value()?)? != 0,
                "--out" => o.out = PathBuf::from(value()?),
                "--quick" => o.quick = true,
                "--workload" => {
                    let name = value()?;
                    let known = || workloads::ALL.map(Workload::name).join(", ");
                    o.workload =
                        Some(Workload::from_name(name).ok_or_else(|| {
                            format!("unknown workload {name} (known: {})", known())
                        })?);
                }
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(o)
    }

    pub fn id(&self, workload: Workload) -> RunId {
        RunId { workload, seed: self.seed, threads: self.threads }
    }
}

fn main() -> ExitCode {
    measure::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => Options::parse(rest).and_then(|o| report::run_all(&o)),
        Some((cmd, rest)) if cmd == "bench" => Options::parse(rest).and_then(|o| report::bench(&o)),
        Some((cmd, rest)) if cmd == "diff" => match rest {
            [a, b] => diff::run(a.as_ref(), b.as_ref()),
            _ => Err("diff takes exactly two report files".to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

/// Every workload, oracle and the traced pass at `--quick` sizes, in
/// process (the `run` command only adds child processes around these).
#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::metrics::{Spec, END_TO_END, PER_LAYER};
    use crate::workloads::{build, Graph, Scale, ALL};

    fn id(workload: Workload, seed: u64) -> RunId {
        RunId { workload, seed, threads: 2 }
    }

    /// Every name of `registry` exactly once, in order, each with a
    /// numeric value and its registered unit.
    fn assert_contract_metrics(line: &str, registry: &[Spec]) {
        assert!(!line.contains('\n'), "the result is one line");
        let doc = json::parse(line).expect("result line parses");
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert!(doc.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = doc.get("metrics").and_then(Value::as_object).expect("metrics object");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = registry.iter().map(|s| s.name).collect();
        assert_eq!(names, expected, "each named metric exactly once");
        for ((name, m), spec) in metrics.iter().zip(registry) {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has no number");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit), "{name}");
        }
    }

    /// A result file: parses back to itself, and its `metrics` are
    /// registered names, each once, each with its unit.
    fn assert_file_metrics(doc: &Value, must_have: &[&str]) {
        assert_eq!(&json::parse(&doc.to_pretty()).expect("file parses"), doc);
        let metrics = doc.get("metrics").and_then(Value::as_object).expect("metrics object");
        for (i, (name, m)) in metrics.iter().enumerate() {
            let spec = metrics::spec(name).unwrap_or_else(|| panic!("{name} is not registered"));
            assert!(metrics[..i].iter().all(|(k, _)| k != name), "{name} listed twice");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(spec.unit), "{name}");
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has no number");
        }
        for name in must_have {
            assert!(metrics.iter().any(|(k, _)| k == name), "{name} is missing");
        }
    }

    #[test]
    fn every_workload_passes_every_oracle_and_reports_each_metric_once() {
        for workload in ALL {
            let e = e2e::run(id(workload, 42), e2e::Plan::quick());
            assert!(e.correct(), "{}: {:?}", workload.name(), e.failures);
            assert_eq!((e.ops_attempted, e.ops_failed), (1, 0));
            assert_file_metrics(&e.to_json(), &END_TO_END.map(|s| s.name));
            let line = report::contract_line(true, e.ops_attempted, 0, &e.metrics, &END_TO_END);
            assert_contract_metrics(&line, &END_TO_END);

            let t = traced::run(id(workload, 42), traced::Plan::quick());
            assert!(t.correct(), "{}: {:?}", workload.name(), t.failures);
            assert_eq!(t.ops_failed, 0);
            let layers: &[&str] = if workload.is_session() {
                &["session.iterations", "session.stale_solve_s", "apps.build_s", "pool.tasks"]
            } else {
                &["engine.jobs", "shuffle.records", "engine.alt_strategy_solve_s", "pool.tasks"]
            };
            let everywhere = [
                "graph.nodes",
                "sim.makespan_s",
                "baseline.quality_err",
                "bench.trace_overhead_pct",
            ];
            assert_file_metrics(&t.to_json(), &[layers, &everywhere[..]].concat());
            let line =
                report::contract_line(true, t.ops_attempted, t.ops_failed, &t.metrics, &PER_LAYER);
            assert_contract_metrics(&line, &PER_LAYER);

            // The trace file: a root span, every other span under a
            // parent that precedes nothing it contains.
            let trace = traced::trace_file(&t);
            assert_eq!(json::parse(&trace.to_pretty()).expect("trace parses"), trace);
            assert!(t.spans.len() > 1 && t.spans[0].parent.is_none());
            assert!(t.spans[1..].iter().all(|s| s.parent.is_some_and(|p| p < t.spans.len())));
            assert!(t.spans.iter().all(|s| s.start_ns <= s.end_ns));
        }
    }

    /// Layers that do no work on a workload stay out of its files.
    #[test]
    fn idle_layers_are_omitted() {
        let session = traced::run(id(Workload::SsspSessionCut, 1), traced::Plan::quick());
        assert!(session.metrics.iter().all(|m| !m.spec.name.starts_with("engine.")));
        assert!(session.metrics.iter().all(|m| !m.spec.name.starts_with("shuffle.")));
        let engine = traced::run(id(Workload::PrGeneralShuffle, 1), traced::Plan::quick());
        assert!(engine.metrics.iter().all(|m| !m.spec.name.starts_with("session.")));
        assert!(engine.metrics.get("local.syncs").is_none(), "General never syncs locally");
        let eager = traced::run(id(Workload::PrEagerEngine, 1), traced::Plan::quick());
        assert!(eager.metrics.get("local.syncs").is_some());
        assert!(eager.metrics.get("sim.eager_speedup").is_some());
    }

    #[test]
    fn the_same_seed_repeats_every_count_exactly() {
        const COUNTS: [&str; 6] = [
            "session.iterations",
            "driver.iterations",
            "apps.ops",
            "shuffle.records",
            "engine.jobs",
            "local.syncs",
        ];
        for workload in ALL {
            let a = traced::run(id(workload, 7), traced::Plan::quick());
            let b = traced::run(id(workload, 7), traced::Plan::quick());
            assert!(a.correct() && b.correct(), "{:?} {:?}", a.failures, b.failures);
            for name in COUNTS {
                let (x, y) = (a.metrics.get(name), b.metrics.get(name));
                assert_eq!(x.map(|m| m.value), y.map(|m| m.value), "{} {name}", workload.name());
            }
            if !workload.is_session() {
                // Counts in, counts out: the engine replay is exact.
                let makespan =
                    |t: &traced::Traced| t.metrics.get("sim.makespan_s").map(|m| m.value);
                assert_eq!(makespan(&a), makespan(&b), "{}", workload.name());
                assert!(makespan(&a).is_some());
            }
        }
    }

    /// FNV-1a over the edge list (and weights): the input's identity.
    fn fingerprint(graph: &Graph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        for (s, t) in graph.csr().edges() {
            eat(((s as u64) << 32) | t as u64);
        }
        if let Graph::Weighted(wg) = graph {
            wg.weights().iter().for_each(|w| eat(w.to_bits()));
        }
        h
    }

    #[test]
    fn the_seed_decides_the_input() {
        for workload in ALL {
            let build = |seed| build(workload, Scale::Quick, seed, 1);
            let (a, b, other) = (build(42), build(42), build(43));
            assert_eq!(fingerprint(&a.graph), fingerprint(&b.graph), "{}", workload.name());
            assert_eq!(a.parts.assignment(), b.parts.assignment());
            if workload == Workload::CcTinyJobs {
                // A cycle has no randomness; only its partitioner is seeded.
                assert_eq!(fingerprint(&a.graph), fingerprint(&other.graph));
            } else {
                assert_ne!(fingerprint(&a.graph), fingerprint(&other.graph), "{}", workload.name());
            }
        }
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let args = ["--workload", "cc-tiny-jobs", "--seed", "9", "--seconds", "8", "--trace", "1"];
        let o = Options::parse(&args.map(String::from)).expect("parses");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Some(Workload::CcTinyJobs), 9, Some(8), true)
        );
        assert_eq!(o.threads, workloads::default_threads());
        assert!(Options::parse(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(Options::parse(&["--seed".to_string()]).is_err());
        assert!(Options::parse(&["--frobnicate".to_string()]).is_err());
    }
}
