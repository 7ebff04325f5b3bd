//! The metric registry: every name the ledger can print, with its
//! unit, the direction that is better and — for the four end-to-end
//! metrics — the regression bound. `BENCHMARK.json` lists exactly
//! these (a test holds the two together), and a [`MetricSet`] refuses
//! any name that is not registered, so no emitter can invent one.

use crate::json::{obj, Value};
use crate::measure::Stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse
    /// before `ledger diff` (and the driver) call it a regression.
    /// Only end-to-end metrics have one.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Spec {
    Spec { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, better: Better::Higher, bound: None }
}

/// What a user of the system sees. Lower is better for all four.
///
/// The issue asked for 10 % on the first three. The shared host this
/// was built on cannot resolve 10 %: whole runs sit in faster and
/// slower stretches that last minutes, and ten runs of one commit
/// spread 3–12 % (inter-quartile, `solve_s`) in a quiet hour and far
/// more in a busy one. A bound narrower than the noise would reject
/// unchanged code, so all four carry the widest bound the contract
/// allows; `README.md` records the measured spreads.
pub const END_TO_END: [Spec; 4] = [
    e2e("solve_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// Single-layer metrics from the traced pass, grouped by layer
/// (= crate/module) in pool → shuffle → engine → session → whole
/// fixed point order.
pub const PER_LAYER: [Spec; 77] = [
    // runtime
    hi("pool.workers", "count"),
    lo("pool.tasks", "count"),
    lo("pool.steals", "count"),
    lo("pool.steal_ratio", "ratio"),
    lo("pool.injector_pops", "count"),
    lo("pool.parks", "count"),
    lo("pool.park_s", "s"),
    lo("pool.spawn_ns_per_task", "ns"),
    lo("pool.wake_us", "us"),
    // core::shuffle
    lo("shuffle.records", "count"),
    lo("shuffle.bytes", "bytes"),
    lo("shuffle.records_per_job", "count"),
    hi("shuffle.route_mrec_per_s", "Mrec/s"),
    hi("shuffle.group_mrec_per_s", "Mrec/s"),
    hi("shuffle.group_alt_mrec_per_s", "Mrec/s"),
    // core::engine
    lo("engine.jobs", "count"),
    lo("engine.job_wall_s", "s"),
    lo("engine.map_s", "s"),
    lo("engine.combine_s", "s"),
    lo("engine.shuffle_s", "s"),
    lo("engine.reduce_s", "s"),
    lo("engine.unattributed_s", "s"),
    lo("engine.us_per_job", "us"),
    lo("engine.map_tasks", "count"),
    lo("engine.reduce_tasks", "count"),
    lo("engine.alt_strategy_solve_s", "s"),
    // core::local
    lo("local.syncs", "count"),
    lo("local.ops", "count"),
    hi("local.syncs_per_s", "1/s"),
    // core::driver
    lo("driver.iterations", "count"),
    hi("driver.converged", "count"),
    lo("driver.overhead_s", "s"),
    // core::session
    lo("session.iterations", "count"),
    hi("session.iterations_per_s", "1/s"),
    lo("session.gmap_tasks", "count"),
    lo("session.gmap_calls", "count"),
    hi("session.useful_gmap_ratio", "ratio"),
    lo("session.gmap_busy_s", "s"),
    lo("session.absorb_calls", "count"),
    lo("session.absorb_busy_s", "s"),
    lo("session.deliver_busy_s", "s"),
    lo("session.sched_lane_busy_share", "ratio"),
    lo("session.sched_lane_gmap_share", "ratio"),
    lo("session.worker_blocked_share", "ratio"),
    lo("session.stall_s", "s"),
    lo("session.speculative_tasks", "count"),
    lo("session.speculative_s", "s"),
    lo("session.crit_compute_s", "s"),
    lo("session.crit_queue_s", "s"),
    lo("session.msg_records", "count"),
    lo("session.msg_mb", "MiB"),
    lo("session.peak_state_mb", "MiB"),
    lo("session.stale_solve_s", "s"),
    lo("session.stale_iterations", "count"),
    // apps
    lo("apps.build_s", "s"),
    lo("apps.ops", "count"),
    hi("apps.mops_per_busy_s", "Mops/s"),
    // graph / partition
    lo("graph.nodes", "count"),
    lo("graph.edges", "count"),
    lo("graph.generate_s", "s"),
    lo("partition.parts", "count"),
    lo("partition.cut_pct", "%"),
    lo("partition.balance", "ratio"),
    lo("partition.partition_s", "s"),
    lo("partition.reorder_s", "s"),
    // simcluster
    lo("sim.makespan_s", "s"),
    lo("sim.time_underflows", "count"),
    lo("sim.general_makespan_s", "s"),
    hi("sim.eager_speedup", "ratio"),
    // baseline / bench
    lo("baseline.serial_solve_s", "s"),
    lo("baseline.slowdown_vs_serial", "ratio"),
    lo("baseline.quality_err", "abs"),
    hi("bench.reps", "count"),
    lo("bench.solve_min_s", "s"),
    lo("bench.solve_max_s", "s"),
    lo("bench.solve_iqr_s", "s"),
    lo("bench.trace_overhead_pct", "%"),
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|s| s.name == name)
}

/// One reported number: an exact count or a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    Count(u64),
    Real(f64),
}

impl Number {
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Count(c) => c as f64,
            Number::Real(x) => x,
        }
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Value {
        match n {
            Number::Count(c) => c.into(),
            Number::Real(x) => x.into(),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub spec: &'static Spec,
    pub value: Number,
    /// The samples behind a value that summarizes several, in the order
    /// taken.
    pub samples: Vec<f64>,
    /// Which statistic of `samples` the value is (`""` without samples).
    pub summary: &'static str,
}

impl Metric {
    /// `{"value": .., "unit": ..}` plus the sample statistics when the
    /// value summarizes several samples.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("value".to_string(), self.value.into()),
            ("unit".to_string(), self.spec.unit.into()),
        ];
        if !self.samples.is_empty() {
            let s = Stats::of(&self.samples);
            let stats = [
                ("summary", Value::from(self.summary)),
                ("n", Value::from(s.n)),
                ("min", s.min.into()),
                ("q1", s.q1.into()),
                ("median", s.median.into()),
                ("q3", s.q3.into()),
                ("max", s.max.into()),
                ("samples", self.samples.clone().into()),
            ];
            pairs.extend(stats.map(|(k, v)| (k.to_string(), v)));
        }
        Value::Obj(pairs)
    }
}

/// The metrics of one pass over one workload, in registry order of
/// insertion. Each name may be set once.
#[derive(Debug, Clone, Default)]
pub struct MetricSet {
    metrics: Vec<Metric>,
}

impl MetricSet {
    fn push(&mut self, name: &str, value: Number, samples: Vec<f64>, summary: &'static str) {
        let spec = spec(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric { spec, value, samples, summary });
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, Number::Count(value), Vec::new(), "");
    }

    pub fn real(&mut self, name: &str, value: f64) {
        self.push(name, Number::Real(value), Vec::new(), "");
    }

    /// A measurement reported as the median of `samples`.
    pub fn median_of(&mut self, name: &str, samples: Vec<f64>) {
        let median = Stats::of(&samples).median;
        self.push(name, Number::Real(median), samples, "median");
    }

    /// A repeated timing reported as the fast decile of `samples`
    /// (see [`Stats::fast_decile`]).
    pub fn fast_decile_of(&mut self, name: &str, samples: Vec<f64>) {
        let p10 = Stats::fast_decile(&samples);
        self.push(name, Number::Real(p10), samples, "fast decile");
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.spec.name == name)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// `{name: {value, unit, ..}}` for the report files.
    pub fn to_json(&self) -> Value {
        Value::Obj(self.metrics.iter().map(|m| (m.spec.name.to_string(), m.to_json())).collect())
    }

    /// The benchmark contract's `metrics` object: every metric of
    /// `registry` as `{value, unit}`, with 0 for a layer that did no
    /// work on this workload (the files and the tables omit those).
    pub fn to_contract_json(&self, registry: &[Spec]) -> Value {
        Value::Obj(
            registry
                .iter()
                .map(|s| {
                    let value = self.get(s.name).map_or(Number::Count(0), |m| m.value);
                    (s.name.to_string(), obj([("value", value.into()), ("unit", s.unit.into())]))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, s) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|t| t.name != s.name), "{} registered twice", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{} too long", s.name);
            assert!(s.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is written by hand; this is what keeps it and
    /// the registry (and the gated workload list) from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Value::as_f64))
                })
                .collect()
        };
        let registered = |specs: &[Spec]| -> Vec<(String, String, String, Option<f64>)> {
            specs
                .iter()
                .map(|s| {
                    let better = match s.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    (s.name.into(), s.unit.into(), better.into(), s.bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), registered(&END_TO_END));
        assert_eq!(listed("per_layer"), registered(&PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let expected: Vec<(String, String)> =
            workloads::GATED.iter().map(|w| (w.name().to_string(), w.why().to_string())).collect();
        assert_eq!(workloads, expected);
        assert!(expected.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn contract_json_fills_idle_layers_with_zero() {
        let mut set = MetricSet::default();
        set.real("solve_s", 1.25);
        let v = set.to_contract_json(&END_TO_END);
        assert_eq!(v.get("solve_s").unwrap().get("value"), Some(&Value::Num(1.25)));
        assert_eq!(v.get("cpu_s").unwrap().get("value"), Some(&Value::Int(0)));
        assert_eq!(v.as_object().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unregistered_names_are_refused() {
        MetricSet::default().real("made.up", 1.0);
    }
}
