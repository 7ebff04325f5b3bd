//! Running passes and reporting them: the `bench` command (one pass
//! over one workload, in this process), the `run` command (every pass
//! of every workload, each in a child process) and the files and
//! tables both leave behind.

use std::path::Path;
use std::process::Command;

use crate::e2e::{self, EndToEnd};
use crate::json::{self, obj, Value};
use crate::measure::Stats;
use crate::metrics::{Metric, MetricSet, Number, Spec, END_TO_END, PER_LAYER};
use crate::traced::{self, Traced};
use crate::workloads::{self, Workload};
use crate::Options;

/// File stems under `--out`, per workload.
const E2E_FILE: &str = "e2e";
const LAYERS_FILE: &str = "layers";
const TRACE_FILE: &str = "trace";
/// The merged report `ledger diff` compares.
const REPORT_FILE: &str = "ledger.json";

fn write(out: &Path, name: &str, doc: &Value) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let path = out.join(name);
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn file_name(workload: Workload, stem: &str) -> String {
    format!("{}.{stem}.json", workload.name())
}

/// The benchmark contract's result line.
pub fn contract_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &MetricSet,
    registry: &[Spec],
) -> String {
    obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics.to_contract_json(registry)),
    ])
    .to_compact()
}

fn show_number(n: Number) -> String {
    match n {
        Number::Count(c) => c.to_string(),
        Number::Real(x) if x != 0.0 && x.abs() < 1e-3 => format!("{x:.3e}"),
        Number::Real(x) => format!("{x:.4}"),
    }
}

fn print_metric(m: &Metric) {
    let mut line = format!("  {:<30} {:>16} {}", m.spec.name, show_number(m.value), m.spec.unit);
    if !m.samples.is_empty() {
        let s = Stats::of(&m.samples);
        line.push_str(&format!(
            "   {} of n={}: min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
            m.summary, s.n, s.min, s.q1, s.median, s.q3, s.max
        ));
    }
    println!("{line}");
}

fn print_header(id: &e2e::RunId, pass: &str) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "== {}  [{pass}]  seed {}  pool workers {} (+1 lane: the calling thread helps execute)  available_parallelism {nproc}",
        id.workload.name(),
        id.seed,
        id.threads
    );
}

fn print_e2e(r: &EndToEnd) {
    print_header(&r.id, "end-to-end, nothing attached");
    r.metrics.iter().for_each(print_metric);
    println!(
        "  ops_attempted {}  ops_failed {}  iterations {}  ops {}  quality_err {:.3e}",
        r.ops_attempted, r.ops_failed, r.iterations, r.ops, r.quality_err
    );
    println!(
        "  the hypervisor withheld {:.1} % of the machine's CPU time during the timed cycles",
        r.host_steal_share * 100.0
    );
    r.failures.iter().for_each(|f| println!("  FAILED {f}"));
}

fn print_traced(r: &Traced) {
    print_header(&r.id, "per-layer, traced pass");
    r.metrics.iter().for_each(print_metric);
    println!("  solves_attempted {}  solves_failed {}", r.ops_attempted, r.ops_failed);
    r.failures.iter().for_each(|f| println!("  FAILED {f}"));
}

/// `ledger bench`: one pass over one workload, in this process. The
/// last line of standard output is the contract's result object.
pub fn bench(o: &Options) -> Result<bool, String> {
    let workload = o.workload.ok_or("bench needs --workload NAME")?;
    let id = o.id(workload);
    let line = if o.trace {
        let plan = match (o.quick, o.seconds) {
            (true, _) => traced::Plan::quick(),
            (false, Some(_)) => traced::Plan::lean(),
            (false, None) => traced::Plan::full(),
        };
        let r = traced::run(id, plan);
        write(&o.out, &file_name(workload, LAYERS_FILE), &r.to_json())?;
        write(&o.out, &file_name(workload, TRACE_FILE), &traced::trace_file(&r))?;
        print_traced(&r);
        contract_line(r.correct(), r.ops_attempted, r.ops_failed, &r.metrics, &PER_LAYER)
    } else {
        let plan = match (o.quick, o.seconds) {
            (true, _) => e2e::Plan::quick(),
            (false, Some(s)) => e2e::Plan::for_seconds(s),
            (false, None) => e2e::Plan::full(),
        };
        let r = e2e::run(id, plan);
        write(&o.out, &file_name(workload, E2E_FILE), &r.to_json())?;
        print_e2e(&r);
        contract_line(r.correct(), r.ops_attempted, r.ops_failed, &r.metrics, &END_TO_END)
    };
    println!("{line}");
    Ok(true)
}

/// The merged report: one row per workload holding both passes'
/// result documents.
pub fn merge(o: &Options, correct: bool, rows: Vec<(Workload, Value, Value)>) -> Value {
    let rows = rows
        .into_iter()
        .map(|(workload, end_to_end, per_layer)| {
            obj([
                ("workload", workload.name().into()),
                ("why", workload.why().into()),
                // Whether `BENCHMARK.json` holds the workload to its bounds.
                ("gated", workloads::GATED.contains(&workload).into()),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ])
        })
        .collect();
    obj([
        ("ledger", 1u64.into()),
        ("seed", o.seed.into()),
        ("pool_workers", o.threads.into()),
        ("quick", o.quick.into()),
        ("correct", correct.into()),
        ("workloads", Value::Arr(rows)),
    ])
}

/// `ledger run`: both passes of every selected workload, each in its
/// own child process so `cpu_s` and `peak_rss_mb` are per workload and
/// the traced pass cannot colour the end-to-end numbers.
pub fn run_all(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the ledger binary: {e}"))?;
    let selected: Vec<Workload> = o.workload.map_or(workloads::ALL.to_vec(), |w| vec![w]);
    let mut rows = Vec::new();
    let mut all_correct = true;
    for &workload in &selected {
        let mut docs = Vec::new();
        for (trace, stem) in [("0", E2E_FILE), ("1", LAYERS_FILE)] {
            let mut child = Command::new(&exe);
            child.args(["bench", "--workload", workload.name(), "--trace", trace]);
            child.args(["--seed", &o.seed.to_string(), "--threads", &o.threads.to_string()]);
            child.arg("--out").arg(&o.out);
            if o.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !status.success() {
                return Err(format!("{} --trace {trace} exited with {status}", workload.name()));
            }
            let path = o.out.join(file_name(workload, stem));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &= doc.get("correct") == Some(&Value::Bool(true));
            docs.push(doc);
        }
        let per_layer = docs.pop().expect("two passes");
        let end_to_end = docs.pop().expect("two passes");
        rows.push((workload, end_to_end, per_layer));
    }
    let report = merge(o, all_correct, rows);
    write(&o.out, REPORT_FILE, &report)?;
    println!(
        "wrote {} ({} workloads, every oracle and cross-check {})",
        o.out.join(REPORT_FILE).display(),
        selected.len(),
        if all_correct { "passed" } else { "DID NOT pass" }
    );
    Ok(all_correct)
}
