//! Unified presentation of live and simulated runs: Chrome-trace JSON
//! and a self-contained HTML/SVG report.
//!
//! Both trace sources normalize into one [`ReportModel`]:
//!
//! * a **live** [`crate::trace::span::SessionTrace`]
//!   ([`ReportModel::from_session`]) — lanes are pool workers plus the
//!   scheduler thread, spans are gmap/deliver/absorb/rollback
//!   intervals, stalls render on one extra lane, and instant events
//!   carry launches, checkpoint commits and convergence;
//! * a **simulated** [`crate::trace::RunRecord`]
//!   ([`ReportModel::from_run`]) — lanes are cluster nodes, spans are
//!   the successful attempts of the recorded schedule, instant events
//!   carry checkpoint boundaries and node deaths/rejoins.
//!
//! From the model: [`ReportModel::chrome_trace_json`] emits the Chrome
//! trace-event format (`chrome://tracing`, Perfetto) with `ts`/`dur`
//! in fractional microseconds *and* an exact integer `dur_ns` arg per
//! span — so the conservation law (summed gmap `dur_ns` == the
//! metered busy time in the top-level `metadata`) is checkable with
//! integer arithmetic by any JSON consumer. [`ReportModel::html`]
//! renders a dependency-free single-file report: per-lane timelines
//! and the critical-path bar decomposition. Hand-formatted output throughout — the repo's
//! no-serde idiom.

use asyncmr_model::trace::span::{MarkKind, SessionTrace, SpanKind};
use asyncmr_model::trace::CriticalPath;
use asyncmr_model::{AsyncTaskSpec, SimTime};

use crate::trace::{RunRecord, TraceReader};
use crate::Ev;

/// One rendered span (already assigned to a lane).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSpan {
    /// Short human label (`p3 i2 a0`, `t17 p3 i2`).
    pub label: String,
    /// Category: `gmap`/`deliver`/`absorb`/`rollback`/`stall`/`task`.
    pub kind: &'static str,
    /// Start, nanoseconds from the run's origin.
    pub start_ns: u64,
    /// Duration, nanoseconds — exact (what the meter billed).
    pub dur_ns: u64,
}

/// One timeline lane (a worker, the scheduler, or a cluster node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportLane {
    /// Lane display name.
    pub name: String,
    /// The lane's spans, in recording order.
    pub spans: Vec<ReportSpan>,
}

/// One rendered instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportMark {
    /// Event name (kebab-case, e.g. `checkpoint-commit`).
    pub name: &'static str,
    /// Short detail string (partition/iteration/payload).
    pub detail: String,
    /// When, nanoseconds from the run's origin.
    pub at_ns: u64,
}

/// The renderer-neutral model both trace sources normalize into.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportModel {
    /// Report title (workload + configuration).
    pub title: String,
    /// `"session"` (live run) or `"simulated"` (replay).
    pub source: &'static str,
    /// Total rendered extent in nanoseconds.
    pub wall_ns: u64,
    /// Timeline lanes, display order.
    pub lanes: Vec<ReportLane>,
    /// Instant events, emission order.
    pub marks: Vec<ReportMark>,
    /// The run's critical-path decomposition.
    pub critical_path: CriticalPath,
    /// The session's metered gmap time (conservation reference); `None`
    /// for simulated runs.
    pub metered_busy_ns: Option<u64>,
}

fn us(t: SimTime) -> u64 {
    t.as_micros()
}

impl ReportModel {
    /// Normalizes a live session trace. `tasks` is the report's kept
    /// schedule (for the critical path); `title` names the run.
    pub fn from_session(
        trace: &SessionTrace,
        tasks: &[AsyncTaskSpec],
        title: impl Into<String>,
    ) -> Self {
        let mut lanes: Vec<ReportLane> = (0..trace.lanes())
            .map(|l| ReportLane {
                name: if l == trace.scheduler_lane() {
                    "scheduler".to_string()
                } else {
                    format!("worker{l}")
                },
                spans: Vec::new(),
            })
            .collect();
        for s in &trace.spans {
            lanes[s.lane as usize].spans.push(ReportSpan {
                label: format!("p{} i{} a{}", s.partition, s.iteration, s.attempt),
                kind: s.kind.label(),
                start_ns: s.start_ns,
                dur_ns: s.dur_ns,
            });
        }
        if !trace.stalls.is_empty() {
            lanes.push(ReportLane {
                name: "blocked-absorbs".to_string(),
                spans: trace
                    .stalls
                    .iter()
                    .map(|st| ReportSpan {
                        label: format!("p{} i{}", st.partition, st.iteration),
                        kind: SpanKind::Stall.label(),
                        start_ns: st.start_ns,
                        dur_ns: st.dur_ns,
                    })
                    .collect(),
            });
        }
        let marks = trace
            .marks
            .iter()
            .map(|m| ReportMark {
                name: m.kind.label(),
                detail: match m.kind {
                    MarkKind::Converged => format!("frontier {}", m.iteration),
                    MarkKind::CheckpointCommit => {
                        format!("frontier {} ({} bytes)", m.iteration, m.value)
                    }
                    _ => format!("p{} i{} v{}", m.partition, m.iteration, m.value),
                },
                at_ns: m.at_ns,
            })
            .collect();
        ReportModel {
            title: title.into(),
            source: "session",
            wall_ns: trace.wall_ns,
            lanes,
            marks,
            critical_path: trace.critical_path(tasks),
            metered_busy_ns: Some(trace.metered_gmap_ns),
        }
    }

    /// Normalizes a simulated run record (lanes = cluster nodes, spans
    /// = the recorded schedule's successful attempts).
    pub fn from_run(rec: &RunRecord<'_>, title: impl Into<String>) -> Self {
        let stats = rec.stats;
        let mut lanes: Vec<ReportLane> = (0..rec.nodes)
            .map(|n| ReportLane { name: format!("node{n}"), spans: Vec::new() })
            .collect();
        for (i, t) in rec.tasks.iter().enumerate() {
            let node = stats.task_node[i];
            if let Some(lane) = lanes.get_mut(node) {
                lane.spans.push(ReportSpan {
                    label: format!("t{i} p{} i{}", t.partition, t.iteration),
                    kind: "task",
                    start_ns: us(stats.task_start[i]) * 1_000,
                    dur_ns: us(stats.task_finish[i] - stats.task_start[i]) * 1_000,
                });
            }
        }
        let marks = rec
            .trace
            .iter()
            .filter_map(|te| {
                let (name, detail): (&'static str, String) = match te.ev {
                    Ev::Checkpoint { epoch } => ("checkpoint", format!("epoch {epoch}")),
                    Ev::NodeDeath { node } => ("node-death", format!("node {node}")),
                    Ev::NodeRejoin { node } => ("node-rejoin", format!("node {node}")),
                    _ => return None,
                };
                Some(ReportMark { name, detail, at_ns: us(te.at) * 1_000 })
            })
            .collect();
        ReportModel {
            title: title.into(),
            source: "simulated",
            wall_ns: us(stats.finished_at) * 1_000,
            lanes,
            marks,
            critical_path: TraceReader::new(*rec).critical_path(),
            metered_busy_ns: None,
        }
    }

    /// Renders the Chrome trace-event format (a JSON object with
    /// `traceEvents` + `metadata`), loadable in `chrome://tracing` and
    /// Perfetto. `ts`/`dur` are fractional microseconds; every complete
    /// event additionally carries its exact integer duration as
    /// `args.dur_ns`, and `metadata.metered_busy_ns` carries the
    /// session's metered gmap time, so the conservation law is
    /// checkable from the JSON alone with integer arithmetic.
    pub fn chrome_trace_json(&self) -> String {
        let frac_us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
        let mut events: Vec<String> = Vec::new();
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
            json_str(&self.title)
        ));
        for (tid, lane) in self.lanes.iter().enumerate() {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                json_str(&lane.name)
            ));
        }
        for (tid, lane) in self.lanes.iter().enumerate() {
            for s in &lane.spans {
                events.push(format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{\"dur_ns\":{}}}}}",
                    s.kind,
                    json_str(&s.label),
                    frac_us(s.start_ns),
                    frac_us(s.dur_ns),
                    s.dur_ns,
                ));
            }
        }
        for m in &self.marks {
            events.push(format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"s\":\"p\",\"name\":\"{}\",\"ts\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                m.name,
                frac_us(m.at_ns),
                json_str(&m.detail),
            ));
        }
        let metered =
            self.metered_busy_ns.map(|n| n.to_string()).unwrap_or_else(|| "null".to_string());
        format!(
            "{{\n\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n{}\n],\n\"metadata\":{{\"source\":\"{}\",\"wall_ns\":{},\"metered_busy_ns\":{}}}\n}}\n",
            events.join(",\n"),
            self.source,
            self.wall_ns,
            metered,
        )
    }

    /// Renders the self-contained HTML report: per-lane timelines and
    /// the critical-path bar decomposition. No external assets, no scripts — inline SVG
    /// only, so the file opens anywhere and diffs cleanly.
    pub fn html(&self) -> String {
        const W: u64 = 1160; // drawable timeline width in px
        let wall = self.wall_ns.max(1);
        let x = |ns: u64| 20 + (ns.min(wall) as u128 * W as u128 / wall as u128) as u64;
        let color = |kind: &str| match kind {
            "gmap" | "task" => "#4caf7d",
            "absorb" => "#3a6ecf",
            "deliver" => "#e0a33a",
            "rollback" => "#d64545",
            "stall" => "#b9b9c4",
            _ => "#888888",
        };

        let mut out = String::with_capacity(64 * 1024);
        out.push_str("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n");
        out.push_str(&format!("<title>{}</title>\n", html_text(&self.title)));
        out.push_str(
            "<style>body{font:13px/1.5 system-ui,sans-serif;margin:24px;color:#222}\
             h1{font-size:18px}h2{font-size:15px;margin-top:28px}\
             .meta{color:#666}svg{background:#fafafa;border:1px solid #ddd}\
             table{border-collapse:collapse}td,th{padding:2px 10px;text-align:right;\
             border-bottom:1px solid #eee}th{text-align:left}</style>\n</head><body>\n",
        );
        out.push_str(&format!(
            "<h1>{}</h1>\n<p class=\"meta\">source: {} &middot; wall {:.3} ms &middot; {} lanes, {} spans, {} instant events</p>\n",
            html_text(&self.title),
            self.source,
            self.wall_ns as f64 / 1e6,
            self.lanes.len(),
            self.lanes.iter().map(|l| l.spans.len()).sum::<usize>(),
            self.marks.len(),
        ));

        // ---- Per-lane timelines ----
        out.push_str("<h2>Timelines</h2>\n");
        let lane_h = 24u64;
        let height = self.lanes.len() as u64 * lane_h + 24;
        out.push_str(&format!("<svg width=\"{}\" height=\"{height}\" role=\"img\">\n", W + 40));
        // Span budget: beyond it, elide the shortest spans so the file
        // stays openable (count reported below the chart).
        const MAX_RECTS: usize = 30_000;
        let total: usize = self.lanes.iter().map(|l| l.spans.len()).sum();
        let min_dur = if total > MAX_RECTS { wall / 50_000 } else { 0 };
        let mut drawn = 0usize;
        for (li, lane) in self.lanes.iter().enumerate() {
            let y = li as u64 * lane_h + 18;
            out.push_str(&format!(
                "<text x=\"2\" y=\"{}\" font-size=\"10\" fill=\"#555\">{}</text>\n",
                y + 12,
                html_text(&lane.name)
            ));
            for s in &lane.spans {
                if s.dur_ns < min_dur {
                    continue;
                }
                drawn += 1;
                let (x0, x1) = (x(s.start_ns), x(s.start_ns + s.dur_ns));
                out.push_str(&format!(
                    "<rect x=\"{x0}\" y=\"{y}\" width=\"{}\" height=\"{}\" fill=\"{}\"><title>{} {} [{:.3}..{:.3} ms]</title></rect>\n",
                    (x1 - x0).max(1),
                    lane_h - 6,
                    color(s.kind),
                    s.kind,
                    html_text(&s.label),
                    s.start_ns as f64 / 1e6,
                    (s.start_ns + s.dur_ns) as f64 / 1e6,
                ));
            }
        }
        for m in &self.marks {
            let mx = x(m.at_ns);
            out.push_str(&format!(
                "<line x1=\"{mx}\" y1=\"14\" x2=\"{mx}\" y2=\"{}\" stroke=\"#a258c4\" stroke-dasharray=\"2,3\"><title>{} {}</title></line>\n",
                height - 6,
                m.name,
                html_text(&m.detail),
            ));
        }
        out.push_str("</svg>\n");
        out.push_str(&format!(
            "<p class=\"meta\">{} of {} spans drawn{}; dashed lines are instant events (launches, checkpoints, convergence).</p>\n",
            drawn,
            total,
            if drawn < total { " (shortest elided for file size)" } else { "" },
        ));

        // ---- Critical path ----
        let cp = &self.critical_path;
        out.push_str("<h2>Critical path</h2>\n");
        let total_us = us(cp.total()).max(1);
        let mut bar_x = 20u64;
        out.push_str(&format!("<svg width=\"{}\" height=\"56\">\n", W + 40));
        for (name, val, fill) in [
            ("compute", us(cp.compute), "#4caf7d"),
            ("wire", us(cp.wire), "#e0a33a"),
            ("queue", us(cp.queue), "#d64545"),
            ("overhead", us(cp.overhead), "#b9b9c4"),
        ] {
            let w = val as u128 * W as u128 / total_us as u128;
            out.push_str(&format!(
                "<rect x=\"{bar_x}\" y=\"10\" width=\"{w}\" height=\"22\" fill=\"{fill}\"><title>{name} {:.3} ms ({:.1}%)</title></rect>\n",
                val as f64 / 1e3,
                val as f64 * 100.0 / total_us as f64,
            ));
            bar_x += w as u64;
        }
        out.push_str(&format!(
            "<text x=\"20\" y=\"48\" font-size=\"11\" fill=\"#555\">compute {:.3} ms &#183; wire {:.3} ms &#183; queue {:.3} ms &#183; overhead {:.3} ms &#183; total {:.3} ms ({} hops)</text>\n",
            us(cp.compute) as f64 / 1e3,
            us(cp.wire) as f64 / 1e3,
            us(cp.queue) as f64 / 1e3,
            us(cp.overhead) as f64 / 1e3,
            total_us as f64 / 1e3,
            cp.hops.len(),
        ));
        out.push_str("</svg>\n");
        out.push_str("<table><tr><th>hop</th><th>task</th><th>partition</th><th>iteration</th><th>compute (ms)</th><th>queue (ms)</th><th>wire (ms)</th></tr>\n");
        for (i, h) in cp.hops.iter().enumerate().take(24) {
            out.push_str(&format!(
                "<tr><th>{i}</th><td>t{}</td><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td></tr>\n",
                h.task,
                h.partition,
                h.iteration,
                us(h.compute) as f64 / 1e3,
                us(h.queue) as f64 / 1e3,
                us(h.wire) as f64 / 1e3,
            ));
        }
        if cp.hops.len() > 24 {
            out.push_str(&format!(
                "<tr><td colspan=\"7\">&#8230; {} more hops</td></tr>\n",
                cp.hops.len() - 24
            ));
        }
        out.push_str("</table>\n");
        if let Some(metered) = self.metered_busy_ns {
            out.push_str(&format!(
                "<p class=\"meta\">conservation: metered gmap time {metered} ns (span sum equals this exactly).</p>\n"
            ));
        }
        out.push_str("</body></html>\n");
        out
    }
}

/// Escapes `s` for the inside of a JSON string (labels are generated,
/// but titles may carry arbitrary workload names): `"` and `\` take a
/// backslash, every control character below U+0020 becomes `\u00XX`.
/// The workspace's one JSON string escaper (`repro`'s figures use it
/// too).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes `s` for HTML element text: `&`, `<` and `>` become entities,
/// a control character becomes a space.
fn html_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            c if c.is_control() => out.push(' '),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::sim::Simulation;
    use crate::trace::span::{Mark, Span};

    fn tiny_session() -> (SessionTrace, Vec<AsyncTaskSpec>) {
        let tasks =
            vec![AsyncTaskSpec::new(0, 0, 1, 1), AsyncTaskSpec::new(0, 1, 1, 1).with_deps(vec![0])];
        let trace = SessionTrace {
            workers: 1,
            wall_ns: 10_000,
            spans: vec![
                Span {
                    kind: SpanKind::Gmap,
                    partition: 0,
                    iteration: 0,
                    attempt: 0,
                    lane: 0,
                    start_ns: 500,
                    dur_ns: 2_000,
                },
                Span {
                    kind: SpanKind::Absorb,
                    partition: 0,
                    iteration: 0,
                    attempt: 0,
                    lane: 1,
                    start_ns: 3_000,
                    dur_ns: 1_000,
                },
                Span {
                    kind: SpanKind::Gmap,
                    partition: 0,
                    iteration: 1,
                    attempt: 0,
                    lane: 0,
                    start_ns: 4_500,
                    dur_ns: 3_000,
                },
            ],
            park_ns: vec![1_000],
            marks: vec![Mark {
                kind: MarkKind::CheckpointCommit,
                partition: 0,
                iteration: 1,
                at_ns: 4_000,
                value: 16,
            }],
            task_start_ns: vec![500, 4_500],
            task_finish_ns: vec![2_500, 7_500],
            metered_gmap_ns: 5_000,
            ..SessionTrace::default()
        };
        (trace, tasks)
    }

    #[test]
    fn session_model_renders_both_formats() {
        let (trace, tasks) = tiny_session();
        let model = ReportModel::from_session(&trace, &tasks, "tiny");
        assert_eq!(model.source, "session");
        assert_eq!(model.lanes.len(), 2, "one worker + the scheduler lane");
        assert_eq!(model.metered_busy_ns, Some(5_000));

        let json = model.chrome_trace_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"metered_busy_ns\":5000"));
        assert!(json.contains("\"dur_ns\":2000"));
        // Fractional-microsecond timestamps preserve the nanosecond.
        assert!(json.contains("\"ts\":0.500"), "{json}");

        let html = model.html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("checkpoint-commit"));
        assert!(html.contains("Critical path"));
        assert!(html.contains("worker0") && html.contains("scheduler"));
    }

    #[test]
    fn chrome_span_dur_ns_sum_matches_the_metered_busy_time() {
        let (trace, tasks) = tiny_session();
        let model = ReportModel::from_session(&trace, &tasks, "tiny");
        let json = model.chrome_trace_json();
        // Integer conservation straight from the JSON text: sum every
        // gmap event's dur_ns arg.
        let sum: u64 = json
            .lines()
            .filter(|l| l.contains("\"cat\":\"gmap\""))
            .map(|l| {
                let tail = l.split("\"dur_ns\":").nth(1).expect("gmap event carries dur_ns");
                tail.trim_end_matches(['}', ','].as_ref())
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect::<String>()
                    .parse::<u64>()
                    .expect("dur_ns is an integer")
            })
            .sum();
        assert_eq!(sum, trace.metered_gmap_ns);
    }

    #[test]
    fn simulated_model_renders_node_lanes() {
        let tasks: Vec<AsyncTaskSpec> = (0..4)
            .map(|i| {
                let t = AsyncTaskSpec::new(0, i, 1 << 16, 1_000_000).with_output(10, 1 << 10);
                if i > 0 {
                    t.with_deps(vec![i - 1])
                } else {
                    t
                }
            })
            .collect();
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 3);
        let stats = sim.run_async_schedule(&tasks);
        let rec = RunRecord {
            tasks: &tasks,
            stats: &stats,
            trace: sim.last_trace(),
            nodes: sim.spec().num_nodes(),
        };
        let model = ReportModel::from_run(&rec, "sim chain");
        assert_eq!(model.source, "simulated");
        assert_eq!(model.lanes.len(), rec.nodes);
        assert_eq!(model.lanes.iter().map(|l| l.spans.len()).sum::<usize>(), tasks.len());
        assert_eq!(model.metered_busy_ns, None);
        let json = model.chrome_trace_json();
        assert!(json.contains("\"metered_busy_ns\":null"));
        assert!(model.html().contains("node0"));
    }

    #[test]
    fn escapes_hostile_titles() {
        assert_eq!(json_str("a<b>&\"c\\d\u{1}\n"), "a<b>&\\\"c\\\\d\\u0001\\u000a");
        // One character at a time: a quote, a backslash, a newline and
        // U+0001 — the newline as `\u000a`, like every control character.
        assert_eq!(json_str("\""), r#"\""#);
        assert_eq!(json_str("\\"), r"\\");
        assert_eq!(json_str("\n"), r"\u000a");
        assert_eq!(json_str("\u{1}"), r"\u0001");
        assert_eq!(html_text("a<b>&\"c\\d\u{1}"), "a&lt;b&gt;&amp;\"c\\d ");
    }

    #[test]
    fn each_format_escapes_a_hostile_title_its_own_way() {
        let (trace, tasks) = tiny_session();
        let model = ReportModel::from_session(&trace, &tasks, "a<b \"c\"\u{1}");
        let json = model.chrome_trace_json();
        assert!(json.contains(r#""name":"a<b \"c\"\u0001""#), "{json}");
        let html = model.html();
        assert!(html.contains("<title>a&lt;b \"c\" </title>"), "{html}");
        assert!(!html.contains('\\'), "no JSON escapes in the HTML: {html}");
    }
}
