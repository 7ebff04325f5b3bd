//! Post-hoc analysis of recorded event traces — where a schedule's
//! simulated time actually went.
//!
//! `repro sched` shows *that* HEFT's finish-aware placement beats the
//! greedy list placement on straggler clusters; this module shows
//! *where*. It never re-runs the network model: everything is derived
//! from the artifacts a completed [`crate::Simulation::run_async_schedule`]
//! call already left behind — the pop-order event trace
//! ([`crate::Simulation::last_trace`]: [`Ev::LinkUtil`] snapshots,
//! [`Ev::TransferDone`] marks, epoch boundaries) and the per-task
//! schedule record in [`AsyncScheduleStats`] (`task_start`,
//! `task_finish`, `task_node`, `task_crit_dep`).
//!
//! Three analyses:
//!
//! * **Timelines** ([`TraceReader::link_timelines`]): per-link
//!   utilization step functions from the boundary + closing
//!   [`Ev::LinkUtil`] snapshots, per-node busy occupancy
//!   ([`TraceReader::node_occupancy`]), per-epoch queue depth
//!   ([`TraceReader::queue_depths`]), and the per-pair traffic matrix
//!   from [`Ev::TransferDone`] marks ([`TraceReader::traffic`] —
//!   its total equals [`AsyncScheduleStats::network_bytes`] exactly,
//!   the conservation law `tests/trace_analysis.rs` pins).
//!
//! * **Critical path** ([`TraceReader::critical_path`]): the recorded
//!   schedule is walked backwards from the last-finishing task along
//!   each task's latest-arriving input edge
//!   ([`AsyncScheduleStats::task_crit_dep`]). Every hop decomposes
//!   exactly — compute (`finish - start`), queue wait
//!   (`start - arrival`: slot contention, dispatch gates, retry
//!   delays), wire (`arrival - dep finish`) — and the decomposition
//!   telescopes: [`CriticalPath::total`] equals the makespan to the
//!   microsecond, while the contention-free [`CriticalPath::bound`]
//!   (compute + wire + envelope overhead) is a lower bound that meets
//!   the makespan on a single-chain DAG.
//!
//! * **Diff** ([`diff_runs`]): two runs of the *same* workload under
//!   different [`crate::SchedulerSpec`]s, aligned task-by-task — the
//!   first divergent placement, per-link traffic deltas, and the
//!   critical-path composition shift. Because both runs share the
//!   cluster envelope, `Δcompute + Δwire + Δqueue = Δmakespan`
//!   exactly, so the diff *names* the component (and the chain and the
//!   hottest link) responsible for the gap. Diffing a run against
//!   itself reports zero divergence ([`TraceDiff::is_empty`]).
//!
//! Renderings: `to_text` for humans, `to_csv`/`critical_path_csv` for
//! plotting, `to_json` for embedding in bench artifacts (the repo's
//! hand-formatted JSON idiom — no serde_json). The [`span`] submodule
//! holds the *live* session's span model ([`span::SessionTrace`] — what
//! `asyncmr-core`'s traced driver records), and [`report`] renders
//! either source into Chrome-trace JSON or a self-contained HTML
//! report.

pub mod report;

// The ledger names the live span model at this path.
pub use asyncmr_model::trace::span;
pub use report::{ReportLane, ReportMark, ReportModel, ReportSpan};

use asyncmr_model::trace::{CritHop, CriticalPath};
use asyncmr_model::{AsyncTaskSpec, SimTime};

use crate::asyncsched::AsyncScheduleStats;
use crate::event_core::{Ev, TraceEvent};

/// Everything one completed async replay left behind, borrowed for
/// analysis: the task specs, the schedule record, and the event trace.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord<'a> {
    /// The replayed schedule's task specs (dependency graph).
    pub tasks: &'a [AsyncTaskSpec],
    /// The schedule record the replay returned.
    pub stats: &'a AsyncScheduleStats,
    /// The replay's event trace ([`crate::Simulation::last_trace`]).
    pub trace: &'a [TraceEvent],
    /// Cluster node count (labels the link indices: `0..nodes` are
    /// transmit sides, `nodes..2*nodes` receive sides, anything above
    /// is model-specific — the [`crate::NetworkModel::utilization`]
    /// layout convention).
    pub nodes: usize,
}

/// One link's recorded utilization timeline: a step function sampled
/// at every snapshot instant (epoch boundaries plus the closing
/// snapshot at simulation end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTimeline {
    /// Link index in the model's utilization vector.
    pub link: usize,
    /// The link's capacity in bytes/s.
    pub cap_bps: u64,
    /// `(instant, used bytes/s)` samples, one per snapshot, in time
    /// order; links idle at a snapshot sample as 0.
    pub points: Vec<(SimTime, u64)>,
}

impl LinkTimeline {
    /// Peak sampled utilization as a fraction of capacity.
    pub fn peak_frac(&self) -> f64 {
        if self.cap_bps == 0 {
            return 0.0;
        }
        self.points.iter().map(|&(_, u)| u).max().unwrap_or(0) as f64 / self.cap_bps as f64
    }
}

/// One node's recorded occupancy: summed busy time of the successful
/// attempts placed on it (failed attempts hold slots but are not in
/// the schedule record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeOccupancy {
    /// Node id.
    pub node: usize,
    /// Tasks whose successful attempt ran here.
    pub tasks: usize,
    /// Summed `finish - start` of those attempts (task-seconds; can
    /// exceed the work span on multi-slot nodes).
    pub busy: SimTime,
}

/// Queue depth at one epoch boundary: tasks admitted (iteration at or
/// below the epoch) and not yet completed when the boundary fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepth {
    /// The boundary's global iteration.
    pub epoch: usize,
    /// Admitted-but-incomplete tasks at the boundary instant.
    pub depth: usize,
}

/// Committed traffic of one directed node pair, from the
/// [`Ev::TransferDone`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairTraffic {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Bytes committed across the pair.
    pub bytes: u64,
    /// Transfers committed across the pair.
    pub transfers: usize,
}

/// The per-pair traffic matrix of one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Total bytes across all pairs — equals
    /// [`AsyncScheduleStats::network_bytes`] (the conservation law).
    pub total_bytes: u64,
    /// Per-pair totals, sorted by `(src, dst)`.
    pub pairs: Vec<PairTraffic>,
}

/// The full analysis of one run — what [`TraceReader::analyze`]
/// returns and `simtrace` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Name of the scheduler that placed the run.
    pub scheduler: &'static str,
    /// End-to-end duration ([`AsyncScheduleStats::duration`]).
    pub makespan: SimTime,
    /// The critical path through the recorded schedule.
    pub critical_path: CriticalPath,
    /// Per-node busy occupancy, node order.
    pub occupancy: Vec<NodeOccupancy>,
    /// The per-pair traffic matrix.
    pub traffic: Traffic,
    /// Per-link utilization step functions (empty under models without
    /// a utilization notion).
    pub timelines: Vec<LinkTimeline>,
    /// Queue depth at each epoch boundary, boundary order.
    pub queue_depths: Vec<QueueDepth>,
    /// Cluster node count (for link labels).
    pub nodes: usize,
}

/// Replays a recorded run's artifacts into analysis views. Pure reads:
/// the reader never touches the network model or the RNG.
#[derive(Debug, Clone, Copy)]
pub struct TraceReader<'a> {
    record: RunRecord<'a>,
}

impl<'a> TraceReader<'a> {
    /// Wraps a completed run's record for analysis.
    pub fn new(record: RunRecord<'a>) -> Self {
        TraceReader { record }
    }

    /// Per-link utilization step functions from the [`Ev::LinkUtil`]
    /// snapshots (one group per epoch boundary plus the closing
    /// snapshot). Every link ever observed gets a sample at every
    /// snapshot instant — 0 when it was idle — so the series align.
    pub fn link_timelines(&self) -> Vec<LinkTimeline> {
        // A snapshot is a maximal consecutive run of LinkUtil marks
        // (snapshots are always separated by the next popped event or
        // the next boundary's own trace entry).
        type Snapshot = (SimTime, Vec<(usize, u64, u64)>);
        let mut snapshots: Vec<Snapshot> = Vec::new();
        let mut open = false;
        for te in self.record.trace {
            if let Ev::LinkUtil { link, used_bps, cap_bps } = te.ev {
                if !open {
                    snapshots.push((te.at, Vec::new()));
                    open = true;
                }
                let snap = snapshots.last_mut().expect("snapshot group just opened");
                snap.0 = te.at;
                snap.1.push((link, used_bps, cap_bps));
            } else {
                open = false;
            }
        }
        let mut links: Vec<(usize, u64)> =
            snapshots.iter().flat_map(|(_, s)| s.iter().map(|&(l, _, c)| (l, c))).collect();
        links.sort_unstable();
        links.dedup_by_key(|e| e.0);
        links
            .into_iter()
            .map(|(link, cap_bps)| LinkTimeline {
                link,
                cap_bps,
                points: snapshots
                    .iter()
                    .map(|(at, s)| {
                        let used = s.iter().find(|&&(l, _, _)| l == link).map_or(0, |&(_, u, _)| u);
                        (*at, used)
                    })
                    .collect(),
            })
            .collect()
    }

    /// Per-node busy occupancy of the recorded schedule, node order.
    pub fn node_occupancy(&self) -> Vec<NodeOccupancy> {
        let stats = self.record.stats;
        let mut occ: Vec<NodeOccupancy> = (0..self.record.nodes)
            .map(|node| NodeOccupancy { node, tasks: 0, busy: SimTime::ZERO })
            .collect();
        for i in 0..stats.task_finish.len() {
            let node = stats.task_node[i];
            if let Some(o) = occ.get_mut(node) {
                o.tasks += 1;
                o.busy += stats.task_finish[i] - stats.task_start[i];
            }
        }
        occ
    }

    /// Queue depth at each [`Ev::EpochStart`] boundary: tasks admitted
    /// by that boundary (spec iteration at or below its epoch) minus
    /// tasks already completed when it fired, in pop order.
    pub fn queue_depths(&self) -> Vec<QueueDepth> {
        let tasks = self.record.tasks;
        let mut completed = vec![false; tasks.len()];
        let mut done = 0usize;
        let mut depths = Vec::new();
        for te in self.record.trace {
            match te.ev {
                Ev::EpochStart { epoch } => {
                    let admitted = tasks.iter().filter(|t| t.iteration <= epoch).count();
                    depths.push(QueueDepth { epoch, depth: admitted - done.min(admitted) });
                }
                Ev::TaskDone { task, .. } if !te.is_mark() => {
                    if let Some(c) = completed.get_mut(task) {
                        if !*c {
                            *c = true;
                            done += 1;
                        }
                    }
                }
                _ => {}
            }
        }
        depths
    }

    /// The per-pair traffic matrix from the [`Ev::TransferDone`]
    /// marks. `total_bytes` equals the run's metered
    /// [`AsyncScheduleStats::network_bytes`] — both count exactly the
    /// committed cross-node message shares (refetches by failed
    /// attempts included).
    pub fn traffic(&self) -> Traffic {
        let mut pairs: Vec<PairTraffic> = Vec::new();
        let mut total = 0u64;
        for te in self.record.trace {
            if let Ev::TransferDone { src, dst, bytes } = te.ev {
                total += bytes;
                match pairs.iter_mut().find(|p| p.src == src && p.dst == dst) {
                    Some(p) => {
                        p.bytes += bytes;
                        p.transfers += 1;
                    }
                    None => pairs.push(PairTraffic { src, dst, bytes, transfers: 1 }),
                }
            }
        }
        pairs.sort_unstable_by_key(|p| (p.src, p.dst));
        Traffic { total_bytes: total, pairs }
    }

    /// Walks the recorded schedule's critical path: from the
    /// last-finishing task backwards along each task's recorded
    /// latest-arriving input edge, to a source task. See the
    /// [module docs](self) for the exact per-hop decomposition and the
    /// `total() == makespan` identity.
    pub fn critical_path(&self) -> CriticalPath {
        let stats = self.record.stats;
        let mut cp = CriticalPath {
            overhead: (stats.setup_done - stats.submitted_at)
                + (stats.finished_at - stats.work_end),
            ..CriticalPath::default()
        };
        // Sink: latest finish, ties toward the lowest task index.
        let Some(sink) = stats
            .task_finish
            .iter()
            .enumerate()
            .max_by_key(|&(i, f)| (*f, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
        else {
            return cp;
        };
        let mut cur = sink;
        loop {
            let start = stats.task_start[cur];
            let finish = stats.task_finish[cur];
            let compute = finish - start;
            let (queue, wire, next) = match stats.task_crit_dep[cur] {
                Some((dep, arrival)) => {
                    (start - arrival, arrival - stats.task_finish[dep], Some(dep))
                }
                None => (start - stats.setup_done, SimTime::ZERO, None),
            };
            let t = &self.record.tasks[cur];
            cp.hops.push(CritHop {
                task: cur,
                partition: t.partition,
                iteration: t.iteration,
                node: stats.task_node[cur],
                compute,
                queue,
                wire,
            });
            cp.compute += compute;
            cp.queue += queue;
            cp.wire += wire;
            match next {
                Some(dep) => cur = dep,
                None => break,
            }
        }
        cp.hops.reverse();
        cp
    }

    /// Runs every analysis and bundles the results.
    pub fn analyze(&self) -> TraceAnalysis {
        TraceAnalysis {
            scheduler: self.record.stats.scheduler,
            makespan: self.record.stats.duration,
            critical_path: self.critical_path(),
            occupancy: self.node_occupancy(),
            traffic: self.traffic(),
            timelines: self.link_timelines(),
            queue_depths: self.queue_depths(),
            nodes: self.record.nodes,
        }
    }
}

/// Human label for a link index under the
/// [`crate::NetworkModel::utilization`] layout convention.
pub fn link_label(link: usize, nodes: usize) -> String {
    if link < nodes {
        format!("tx{link}")
    } else if link < 2 * nodes {
        format!("rx{}", link - nodes)
    } else {
        format!("link{link}")
    }
}

// ---------------------------------------------------------------------
// Diff mode
// ---------------------------------------------------------------------

/// The first task where two runs of the same workload diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Task index in the shared schedule.
    pub task: usize,
    /// The task's partition.
    pub partition: usize,
    /// The task's global iteration.
    pub iteration: usize,
    /// Placement in run A.
    pub node_a: usize,
    /// Placement in run B.
    pub node_b: usize,
    /// Completion in run A.
    pub finish_a: SimTime,
    /// Completion in run B.
    pub finish_b: SimTime,
}

/// One directed pair's traffic delta between two runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDelta {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// `bytes(B) - bytes(A)` across the pair.
    pub delta_bytes: i64,
}

/// Where two runs of the same workload under different schedulers
/// diverge, and which critical-path component the makespan gap lives
/// in. Built by [`diff_runs`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// Scheduler of run A.
    pub scheduler_a: &'static str,
    /// Scheduler of run B.
    pub scheduler_b: &'static str,
    /// Makespan of run A.
    pub makespan_a: SimTime,
    /// Makespan of run B.
    pub makespan_b: SimTime,
    /// `makespan(B) - makespan(A)` in microseconds, signed.
    pub gap_us: i64,
    /// First task (index order) whose placement or completion differs.
    pub first_divergence: Option<Divergence>,
    /// Per-pair traffic deltas, non-zero pairs only, sorted by
    /// descending magnitude.
    pub pair_deltas: Vec<PairDelta>,
    /// Critical-path composition shift, `B - A`, in microseconds:
    /// compute, wire, queue. Their sum equals `gap_us` exactly when
    /// both runs share the cluster envelope.
    pub d_compute_us: i64,
    /// Wire-component shift (see [`TraceDiff::d_compute_us`]).
    pub d_wire_us: i64,
    /// Queue-component shift (see [`TraceDiff::d_compute_us`]).
    pub d_queue_us: i64,
    /// The component with the largest absolute shift ("compute",
    /// "wire", or "queue"; empty when the runs are identical).
    pub dominant: &'static str,
    /// `|dominant shift| / |gap|` — the fraction of the makespan gap
    /// the dominant component accounts for (0 when the gap is zero).
    pub dominant_share: f64,
    /// Task chain (task indices, source first) of the slower run's
    /// critical path — the chain responsible for its makespan.
    pub slower_chain: Vec<usize>,
}

impl TraceDiff {
    /// True iff the runs are observably identical: same makespan, no
    /// divergent task, no traffic delta, no composition shift.
    pub fn is_empty(&self) -> bool {
        self.gap_us == 0
            && self.first_divergence.is_none()
            && self.pair_deltas.is_empty()
            && self.d_compute_us == 0
            && self.d_wire_us == 0
            && self.d_queue_us == 0
    }
}

fn us(t: SimTime) -> i64 {
    t.as_micros() as i64
}

/// Aligns two runs of the *same* workload (panics if the task lists
/// differ in length) and reports where they diverge. See
/// [`TraceDiff`].
pub fn diff_runs(a: &RunRecord<'_>, b: &RunRecord<'_>) -> TraceDiff {
    assert_eq!(
        a.tasks.len(),
        b.tasks.len(),
        "diff mode aligns runs of the same workload task-by-task"
    );
    let first_divergence = (0..a.tasks.len())
        .find(|&i| {
            a.stats.task_node[i] != b.stats.task_node[i]
                || a.stats.task_finish[i] != b.stats.task_finish[i]
        })
        .map(|i| Divergence {
            task: i,
            partition: a.tasks[i].partition,
            iteration: a.tasks[i].iteration,
            node_a: a.stats.task_node[i],
            node_b: b.stats.task_node[i],
            finish_a: a.stats.task_finish[i],
            finish_b: b.stats.task_finish[i],
        });

    let (ra, rb) = (TraceReader::new(*a), TraceReader::new(*b));
    let (ta, tb) = (ra.traffic(), rb.traffic());
    let mut pair_deltas: Vec<PairDelta> = Vec::new();
    let mut add = |src: usize, dst: usize, delta: i64| match pair_deltas
        .iter_mut()
        .find(|p| p.src == src && p.dst == dst)
    {
        Some(p) => p.delta_bytes += delta,
        None => pair_deltas.push(PairDelta { src, dst, delta_bytes: delta }),
    };
    for p in &tb.pairs {
        add(p.src, p.dst, p.bytes as i64);
    }
    for p in &ta.pairs {
        add(p.src, p.dst, -(p.bytes as i64));
    }
    pair_deltas.retain(|p| p.delta_bytes != 0);
    pair_deltas.sort_by_key(|p| (std::cmp::Reverse(p.delta_bytes.abs()), p.src, p.dst));

    let (cpa, cpb) = (ra.critical_path(), rb.critical_path());
    let d_compute_us = us(cpb.compute) - us(cpa.compute);
    let d_wire_us = us(cpb.wire) - us(cpa.wire);
    let d_queue_us = us(cpb.queue) - us(cpa.queue);
    let gap_us = us(b.stats.duration) - us(a.stats.duration);
    let (dominant, d_dom) = [("compute", d_compute_us), ("wire", d_wire_us), ("queue", d_queue_us)]
        .into_iter()
        .max_by_key(|&(_, d)| d.abs())
        .filter(|&(_, d)| d != 0)
        .unwrap_or(("", 0));
    let dominant_share = if gap_us == 0 { 0.0 } else { d_dom.abs() as f64 / gap_us.abs() as f64 };
    let slower = if gap_us >= 0 { &cpb } else { &cpa };
    let slower_chain = if gap_us == 0 && first_divergence.is_none() {
        Vec::new()
    } else {
        slower.hops.iter().map(|h| h.task).collect()
    };

    TraceDiff {
        scheduler_a: a.stats.scheduler,
        scheduler_b: b.stats.scheduler,
        makespan_a: a.stats.duration,
        makespan_b: b.stats.duration,
        gap_us,
        first_divergence,
        pair_deltas,
        d_compute_us,
        d_wire_us,
        d_queue_us,
        dominant,
        dominant_share,
        slower_chain,
    }
}

// ---------------------------------------------------------------------
// Renderings
// ---------------------------------------------------------------------

fn secs(t: SimTime) -> f64 {
    t.as_secs_f64()
}

impl TraceAnalysis {
    /// Human-readable summary (the `simtrace` default output).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let cp = &self.critical_path;
        out.push_str(&format!(
            "run: scheduler={} makespan={:.3}s tasks={}\n",
            self.scheduler,
            secs(self.makespan),
            self.occupancy.iter().map(|o| o.tasks).sum::<usize>(),
        ));
        out.push_str(&format!(
            "critical path ({} hops): compute {:.3}s + wire {:.3}s + queue {:.3}s + overhead {:.3}s = {:.3}s\n",
            cp.hops.len(),
            secs(cp.compute),
            secs(cp.wire),
            secs(cp.queue),
            secs(cp.overhead),
            secs(cp.total()),
        ));
        let chain: Vec<String> = cp
            .hops
            .iter()
            .map(|h| format!("t{}(p{}i{}@n{})", h.task, h.partition, h.iteration, h.node))
            .collect();
        out.push_str(&format!("  chain: {}\n", chain.join(" -> ")));
        out.push_str("node occupancy (busy task-seconds of successful attempts):\n");
        for o in &self.occupancy {
            out.push_str(&format!(
                "  n{}: {:>4} tasks {:>10.3}s busy\n",
                o.node,
                o.tasks,
                secs(o.busy)
            ));
        }
        out.push_str(&format!(
            "traffic: {} bytes across {} node pairs\n",
            self.traffic.total_bytes,
            self.traffic.pairs.len()
        ));
        if self.timelines.is_empty() {
            out.push_str("timelines: none (model reports no utilization)\n");
        } else {
            out.push_str(&format!(
                "timelines: {} links, {} snapshots; busiest:\n",
                self.timelines.len(),
                self.timelines.first().map_or(0, |t| t.points.len()),
            ));
            let mut by_peak: Vec<&LinkTimeline> = self.timelines.iter().collect();
            by_peak
                .sort_by(|x, y| y.peak_frac().total_cmp(&x.peak_frac()).then(x.link.cmp(&y.link)));
            for t in by_peak.iter().take(4) {
                out.push_str(&format!(
                    "  {}: peak {:.0}% of {} B/s\n",
                    link_label(t.link, self.nodes),
                    t.peak_frac() * 100.0,
                    t.cap_bps,
                ));
            }
        }
        let depths: Vec<String> =
            self.queue_depths.iter().map(|q| format!("e{}:{}", q.epoch, q.depth)).collect();
        out.push_str(&format!("queue depth at boundaries: {}\n", depths.join(" ")));
        out
    }

    /// Timeline CSV: `link,label,time_s,used_bps,cap_bps` rows, one per
    /// (link, snapshot) sample.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("link,label,time_s,used_bps,cap_bps\n");
        for t in &self.timelines {
            for &(at, used) in &t.points {
                out.push_str(&format!(
                    "{},{},{:.6},{},{}\n",
                    t.link,
                    link_label(t.link, self.nodes),
                    secs(at),
                    used,
                    t.cap_bps
                ));
            }
        }
        out
    }

    /// Critical-path CSV: `hop,task,partition,iteration,node,compute_s,queue_s,wire_s`.
    pub fn critical_path_csv(&self) -> String {
        let mut out = String::from("hop,task,partition,iteration,node,compute_s,queue_s,wire_s\n");
        for (i, h) in self.critical_path.hops.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6}\n",
                i,
                h.task,
                h.partition,
                h.iteration,
                h.node,
                secs(h.compute),
                secs(h.queue),
                secs(h.wire)
            ));
        }
        out
    }

    /// Machine-readable JSON (hand-formatted, the repo's bench-artifact
    /// idiom), for embedding under a `trace_analysis` key.
    pub fn to_json(&self) -> String {
        let cp = &self.critical_path;
        let chain: Vec<String> = cp.hops.iter().map(|h| h.task.to_string()).collect();
        let busiest = {
            let mut by_peak: Vec<&LinkTimeline> = self.timelines.iter().collect();
            by_peak
                .sort_by(|x, y| y.peak_frac().total_cmp(&x.peak_frac()).then(x.link.cmp(&y.link)));
            by_peak
                .first()
                .map(|t| {
                    format!(
                        "{{\"link\": \"{}\", \"peak_frac\": {:.3}}}",
                        link_label(t.link, self.nodes),
                        t.peak_frac()
                    )
                })
                .unwrap_or_else(|| "null".to_string())
        };
        format!(
            "{{\"scheduler\": \"{}\", \"makespan_secs\": {:.3}, \"critical_path\": {{\"hops\": {}, \"chain\": [{}], \"compute_secs\": {:.3}, \"wire_secs\": {:.3}, \"queue_secs\": {:.3}, \"overhead_secs\": {:.3}}}, \"traffic_bytes\": {}, \"snapshots\": {}, \"busiest_link\": {}}}",
            self.scheduler,
            secs(self.makespan),
            cp.hops.len(),
            chain.join(", "),
            secs(cp.compute),
            secs(cp.wire),
            secs(cp.queue),
            secs(cp.overhead),
            self.traffic.total_bytes,
            self.timelines.first().map_or(0, |t| t.points.len()),
            busiest,
        )
    }
}

impl TraceDiff {
    /// Human-readable diff summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "diff: {} ({:.3}s) vs {} ({:.3}s) — gap {:+.3}s\n",
            self.scheduler_a,
            secs(self.makespan_a),
            self.scheduler_b,
            secs(self.makespan_b),
            self.gap_us as f64 / 1e6,
        ));
        if self.is_empty() {
            out.push_str("  runs are identical (zero divergence)\n");
            return out;
        }
        match &self.first_divergence {
            Some(d) => out.push_str(&format!(
                "  first divergence: task {} (p{} i{}) placed n{} vs n{}, finished {:.3}s vs {:.3}s\n",
                d.task,
                d.partition,
                d.iteration,
                d.node_a,
                d.node_b,
                secs(d.finish_a),
                secs(d.finish_b),
            )),
            None => out.push_str("  no divergent placement or completion\n"),
        }
        out.push_str(&format!(
            "  critical-path shift (B - A): compute {:+.3}s, wire {:+.3}s, queue {:+.3}s\n",
            self.d_compute_us as f64 / 1e6,
            self.d_wire_us as f64 / 1e6,
            self.d_queue_us as f64 / 1e6,
        ));
        if !self.dominant.is_empty() {
            out.push_str(&format!(
                "  dominant component: {} ({:.0}% of the gap)\n",
                self.dominant,
                self.dominant_share * 100.0,
            ));
        }
        if let Some(p) = self.pair_deltas.first() {
            out.push_str(&format!(
                "  hottest traffic shift: n{} -> n{} ({:+} bytes)\n",
                p.src, p.dst, p.delta_bytes
            ));
        }
        let chain: Vec<String> = self.slower_chain.iter().map(|t| format!("t{t}")).collect();
        out.push_str(&format!("  slower run's chain: {}\n", chain.join(" -> ")));
        out
    }

    /// Machine-readable JSON (hand-formatted), for embedding under a
    /// `trace_analysis.diff` key.
    pub fn to_json(&self) -> String {
        let div = self
            .first_divergence
            .as_ref()
            .map(|d| {
                format!(
                    "{{\"task\": {}, \"node_a\": {}, \"node_b\": {}, \"finish_a_secs\": {:.3}, \"finish_b_secs\": {:.3}}}",
                    d.task,
                    d.node_a,
                    d.node_b,
                    secs(d.finish_a),
                    secs(d.finish_b)
                )
            })
            .unwrap_or_else(|| "null".to_string());
        let chain: Vec<String> = self.slower_chain.iter().map(|t| t.to_string()).collect();
        format!(
            "{{\"scheduler_a\": \"{}\", \"scheduler_b\": \"{}\", \"makespan_a_secs\": {:.3}, \"makespan_b_secs\": {:.3}, \"gap_secs\": {:.3}, \"first_divergence\": {}, \"d_compute_secs\": {:.3}, \"d_wire_secs\": {:.3}, \"d_queue_secs\": {:.3}, \"dominant\": \"{}\", \"dominant_share\": {:.3}, \"slower_chain\": [{}]}}",
            self.scheduler_a,
            self.scheduler_b,
            secs(self.makespan_a),
            secs(self.makespan_b),
            self.gap_us as f64 / 1e6,
            div,
            self.d_compute_us as f64 / 1e6,
            self.d_wire_us as f64 / 1e6,
            self.d_queue_us as f64 / 1e6,
            self.dominant,
            self.dominant_share,
            chain.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::sim::Simulation;

    fn chain(n: usize) -> Vec<AsyncTaskSpec> {
        (0..n)
            .map(|i| {
                let mut t = AsyncTaskSpec::new(0, i, 1 << 20, 5_000_000).with_output(100, 1 << 16);
                if i > 0 {
                    t = t.with_deps(vec![i - 1]);
                }
                t
            })
            .collect()
    }

    #[test]
    fn critical_path_total_is_exactly_the_makespan() {
        let tasks = chain(6);
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 3);
        let stats = sim.run_async_schedule(&tasks);
        let analysis = sim.analyze_async_run(&tasks, &stats);
        assert_eq!(analysis.critical_path.total(), stats.duration);
        assert_eq!(analysis.critical_path.hops.len(), tasks.len(), "a chain is its own path");
        // Single chain: no slot contention, so the contention-free
        // bound meets the makespan.
        assert_eq!(analysis.critical_path.bound(), stats.duration);
    }

    #[test]
    fn empty_schedule_paths_reduce_to_the_envelope() {
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 1);
        let stats = sim.run_async_schedule(&[]);
        let analysis = sim.analyze_async_run(&[], &stats);
        assert!(analysis.critical_path.hops.is_empty());
        assert_eq!(analysis.critical_path.total(), stats.duration);
    }

    #[test]
    fn self_diff_is_empty_and_renders() {
        let tasks = chain(4);
        let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 5);
        let stats = sim.run_async_schedule(&tasks);
        let rec = RunRecord {
            tasks: &tasks,
            stats: &stats,
            trace: sim.last_trace(),
            nodes: sim.spec().num_nodes(),
        };
        let diff = diff_runs(&rec, &rec);
        assert!(diff.is_empty(), "a run diffed against itself must be empty: {diff:?}");
        assert!(diff.to_text().contains("zero divergence"));
        assert!(diff.to_json().contains("\"gap_secs\": 0.000"));
    }

    #[test]
    fn link_labels_follow_the_layout_convention() {
        assert_eq!(link_label(0, 8), "tx0");
        assert_eq!(link_label(9, 8), "rx1");
        assert_eq!(link_label(16, 8), "link16");
    }
}
