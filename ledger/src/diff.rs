//! `ledger diff A.json B.json`: B judged against A, one row per
//! (end-to-end metric, workload), by the bounds fixed in
//! [`crate::metrics`].
//!
//! * `ok` — B's value is not worse than A's by more than the bound;
//! * `regressed` — it is (and, for `setup_s`, by more than 0.05 s too);
//! * `unresolved` — the spread inside either report (inter-quartile
//!   distance of its samples ÷ their median) is wider than the bound,
//!   so the two values cannot be told apart — unless every sample of
//!   B is better than every sample of A (`ok`) or worse than every
//!   sample of A by more than the bound (`regressed`).
//!
//! Exits non-zero on a regression or on a higher
//! `ops_failed / ops_attempted`. Exact-repeat counts and per-layer
//! metrics are listed with their ratios but not judged.

use std::cmp::Ordering;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, Spec, END_TO_END, PER_LAYER};

/// `setup_s` regresses only past its bound *and* this many seconds:
/// a 3 ms set-up moves 25 % on scheduler noise alone.
const SETUP_FLOOR_S: f64 = 0.05;

/// Counts that must repeat exactly between two runs of one commit.
const EXACT_COUNTS: [&str; 6] = [
    "session.iterations",
    "apps.ops",
    "engine.jobs",
    "shuffle.records",
    "local.syncs",
    "driver.iterations",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric as a report holds it: the value and, when it summarizes
/// several samples, the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Reading {
    fn from_json(metric: &Value) -> Option<Reading> {
        let value = metric.get("value")?.as_f64()?;
        let samples = metric
            .get("samples")
            .and_then(Value::as_array)
            .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
            .unwrap_or_default();
        Some(Reading { value, samples })
    }

    fn spread(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            crate::measure::Stats::of(&self.samples).spread()
        }
    }

    fn range(&self) -> (f64, f64) {
        self.samples.iter().fold((self.value, self.value), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    }
}

/// Judges `new` against `base` for a lower-is-better metric.
pub fn judge(spec: &Spec, base: &Reading, new: &Reading) -> Verdict {
    let bound = spec.bound.expect("only end-to-end metrics are judged");
    let floor = if spec.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
    let worse = |b: f64, n: f64| n > b * (1.0 + bound) && n - b > floor;
    if base.spread().max(new.spread()) > bound {
        let (base_lo, base_hi) = base.range();
        let (new_lo, new_hi) = new.range();
        return if new_hi < base_lo {
            Verdict::Ok
        } else if worse(base_hi, new_lo) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse(base.value, new.value) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("workloads").and_then(Value::as_array).is_none() {
        return Err(format!("{} is not a ledger report (no \"workloads\")", path.display()));
    }
    Ok(doc)
}

fn workload_rows(doc: &Value) -> &[Value] {
    doc.get("workloads").and_then(Value::as_array).unwrap_or_default()
}

fn reading(row: &Value, pass: &str, metric: &str) -> Option<Reading> {
    Reading::from_json(row.get(pass)?.get("metrics")?.get(metric)?)
}

fn failure_rate(row: &Value) -> Option<f64> {
    let e2e = row.get("end_to_end")?;
    Some(e2e.get("ops_failed")?.as_f64()? / e2e.get("ops_attempted")?.as_f64()?.max(1.0))
}

fn ratio(base: f64, new: f64) -> String {
    if base == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.3}x", new / base)
    }
}

/// `ledger diff`: loads both reports and prints the comparison;
/// `Ok(true)` when nothing regressed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let (base_doc, new_doc) = (load(a)?, load(b)?);
    println!("base {}  →  new {}", a.display(), b.display());
    Ok(compare(&base_doc, &new_doc))
}

/// Prints one row per (metric, workload) of `new_doc` against
/// `base_doc`; `true` when nothing regressed.
pub fn compare(base_doc: &Value, new_doc: &Value) -> bool {
    let mut clean = true;
    for base_row in workload_rows(base_doc) {
        let name = base_row.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(new_row) = workload_rows(new_doc)
            .iter()
            .find(|r| r.get("workload").and_then(Value::as_str) == Some(name))
        else {
            println!("== {name}: missing from the new report");
            clean = false;
            continue;
        };
        println!("== {name}");
        for spec in &END_TO_END {
            let (Some(base), Some(new)) = (
                reading(base_row, "end_to_end", spec.name),
                reading(new_row, "end_to_end", spec.name),
            ) else {
                println!("  {:<30} missing", spec.name);
                clean = false;
                continue;
            };
            let verdict = judge(spec, &base, &new);
            clean &= verdict != Verdict::Regressed;
            println!(
                "  {:<30} {:<10} base {:.4} {}  new {:.4}  ratio {}  bound +{:.0}%  spread base {:.1}% new {:.1}%",
                spec.name,
                verdict.label(),
                base.value,
                spec.unit,
                new.value,
                ratio(base.value, new.value),
                spec.bound.unwrap_or(0.0) * 100.0,
                base.spread() * 100.0,
                new.spread() * 100.0
            );
        }
        match (failure_rate(base_row), failure_rate(new_row)) {
            (Some(base), Some(new)) => {
                let more = new > base;
                clean &= !more;
                println!(
                    "  {:<30} {:<10} base {base:.3}  new {new:.3}",
                    "ops_failed/ops_attempted",
                    if more { "regressed" } else { "ok" }
                );
            }
            _ => {
                println!("  {:<30} missing", "ops_failed/ops_attempted");
                clean = false;
            }
        }
        // Per-layer rows are listed, not judged: they have no bound.
        for spec in &PER_LAYER {
            let (Some(base), Some(new)) = (
                reading(base_row, "per_layer", spec.name),
                reading(new_row, "per_layer", spec.name),
            ) else {
                continue;
            };
            let moved = match (new.value.partial_cmp(&base.value), spec.better) {
                (Some(Ordering::Equal), _) | (None, _) => "same",
                (Some(Ordering::Less), Better::Lower)
                | (Some(Ordering::Greater), Better::Higher) => "better",
                _ => "worse",
            };
            let note = match EXACT_COUNTS.contains(&spec.name) {
                true if base.value == new.value => "  exact count: same",
                true => "  exact count: DIFFERS",
                false => "",
            };
            println!(
                "  {:<30} {:<10} base {:.6} {}  new {:.6}  ratio {}{note}",
                spec.name,
                moved,
                base.value,
                spec.unit,
                new.value,
                ratio(base.value, new.value)
            );
        }
    }
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::spec;

    fn steady(value: f64) -> Reading {
        Reading { value, samples: vec![value * 0.99, value, value * 1.01] }
    }

    #[test]
    fn bounds_decide_ok_and_regressed() {
        let solve = spec("solve_s").unwrap();
        let bound = solve.bound.unwrap();
        assert_eq!(judge(solve, &steady(1.0), &steady(1.0 + bound - 0.01)), Verdict::Ok);
        assert_eq!(judge(solve, &steady(1.0), &steady(1.0 + bound + 0.02)), Verdict::Regressed);
        assert_eq!(judge(solve, &steady(1.0), &steady(0.5)), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_the_samples_separate() {
        let solve = spec("solve_s").unwrap();
        let noisy = Reading { value: 1.0, samples: vec![0.6, 0.8, 1.0, 1.3, 1.7] };
        assert!(noisy.spread() > solve.bound.unwrap());
        assert_eq!(judge(solve, &noisy, &steady(1.15)), Verdict::Unresolved);
        assert_eq!(judge(solve, &noisy, &steady(0.5)), Verdict::Ok, "all of B below all of A");
        assert_eq!(judge(solve, &noisy, &steady(2.5)), Verdict::Regressed, "all of B far above A");
    }

    #[test]
    fn setup_needs_both_the_share_and_the_absolute_floor() {
        let setup = spec("setup_s").unwrap();
        assert_eq!(judge(setup, &steady(0.004), &steady(0.008)), Verdict::Ok, "+100% but 4 ms");
        assert_eq!(judge(setup, &steady(0.40), &steady(0.48)), Verdict::Ok, "+20%");
        assert_eq!(judge(setup, &steady(0.40), &steady(0.52)), Verdict::Regressed);
    }

    /// A one-workload report with the given `solve_s` samples and
    /// failure count (the other end-to-end metrics held constant).
    fn report(solve: &[f64], ops_failed: u64) -> Value {
        use crate::json::obj;
        let metric = |samples: &[f64]| {
            let value = crate::measure::Stats::of(samples).median;
            obj([
                ("value", value.into()),
                ("unit", "s".into()),
                ("samples", samples.to_vec().into()),
            ])
        };
        let metrics = obj([
            ("solve_s", metric(solve)),
            ("cpu_s", metric(&[2.0, 2.0, 2.0])),
            ("peak_rss_mb", obj([("value", 100.0.into()), ("unit", "MiB".into())])),
            ("setup_s", metric(&[0.3, 0.3, 0.3])),
        ]);
        let end_to_end = obj([
            ("ops_attempted", 3u64.into()),
            ("ops_failed", ops_failed.into()),
            ("metrics", metrics),
        ]);
        let per_layer = obj([(
            "metrics",
            obj([("engine.jobs", obj([("value", 9u64.into()), ("unit", "count".into())]))]),
        )]);
        obj([(
            "workloads",
            Value::Arr(vec![obj([
                ("workload", "pr-eager-engine".into()),
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_regressions_failures_and_missing_workloads() {
        let base = report(&[1.0, 1.01, 0.99], 0);
        assert!(compare(&base, &base), "a report never regresses against itself");
        assert!(compare(&base, &report(&[1.05, 1.06, 1.04], 0)), "+5% is inside the bound");
        assert!(!compare(&base, &report(&[1.5, 1.51, 1.49], 0)), "+50% solve_s");
        assert!(!compare(&base, &report(&[1.0, 1.01, 0.99], 1)), "a higher failure rate");
        let empty = crate::json::obj([("workloads", Value::Arr(Vec::new()))]);
        assert!(!compare(&base, &empty), "a workload that disappeared");
    }

    #[test]
    fn a_single_value_has_no_spread() {
        let rss = spec("peak_rss_mb").unwrap();
        let one = |value| Reading { value, samples: Vec::new() };
        assert_eq!(judge(rss, &one(100.0), &one(120.0)), Verdict::Ok);
        assert_eq!(judge(rss, &one(100.0), &one(130.0)), Verdict::Regressed);
    }
}
