//! The async replay's placement policy: in which order an epoch's
//! pending tasks are placed, and which slot each one takes.
//!
//! Two policies, one enum, no trait:
//!
//! | [`SchedulerSpec`] | ordering | slot choice |
//! |---|---|---|
//! | `List` (default) | list (topological) order | earliest estimated **start** |
//! | `Heft` | upward rank (critical path first) | earliest estimated **finish** (speed-aware) |
//!
//! `List` is the greedy [`crate::Simulation::run_async_schedule`] was
//! written with; the replay-fidelity goldens are pinned under it.
//! `Heft` is Heterogeneous-Earliest-Finish-Time (Topcuoglu et al.), the
//! point of `repro sched`: on a cluster with slow nodes it stops
//! anchoring partition chains on early-free slow slots.
//!
//! Both decide from **estimates only** — pure reads of the network
//! model and the slot table, ties to the lowest task index or slot —
//! and draw no randomness, so the replay stays a pure function of
//! `(ClusterSpec, AttemptFailurePlan, NodeFailurePlan, NetworkModel,
//! SchedulerSpec, seed, tasks)` (pinned by `tests/determinism_prop.rs`
//! over the scheduler × model matrix). The replay prices every
//! admissible slot ([`crate::asyncsched`]), keeps the one
//! the policy's slot key ranks lowest, and then *commits* its
//! edges through the mutable network model, where contention may push
//! the real start past the estimate (metered by
//! [`crate::AsyncScheduleStats::commit`]).

use asyncmr_model::{AsyncTaskSpec, SimTime};

use crate::cluster::ClusterSpec;
use crate::network::NetworkModel;

/// The async replay's placement policy, set with
/// [`crate::Simulation::with_scheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedulerSpec {
    /// The default greedy: list order, earliest estimated start. The
    /// replay-fidelity goldens are pinned under it.
    #[default]
    List,
    /// Heterogeneous-Earliest-Finish-Time: upward-rank order,
    /// earliest-finish slot choice. The classic win on clusters with
    /// heterogeneous node speeds.
    Heft,
}

impl SchedulerSpec {
    /// Every policy, in the order `repro sched` and `simtrace` list
    /// them.
    pub const ALL: [SchedulerSpec; 2] = [SchedulerSpec::List, SchedulerSpec::Heft];

    /// Short stable name (bench/JSON keys, stats labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedulerSpec::List => "list",
            SchedulerSpec::Heft => "heft",
        }
    }

    /// The per-task priorities [`SchedulerSpec::order`] reads: HEFT's
    /// upward ranks, nothing under list order. Computed once per
    /// replay — the schedule and [`NetworkModel::wire_time`] are fixed.
    pub(crate) fn ranks(
        self,
        tasks: &[AsyncTaskSpec],
        share: &[u64],
        spec: &ClusterSpec,
        net: &dyn NetworkModel,
    ) -> Vec<f64> {
        match self {
            SchedulerSpec::List => Vec::new(),
            SchedulerSpec::Heft => upward_ranks(tasks, share, spec, net),
        }
    }

    /// Puts an epoch's pending tasks (ascending indices) in dispatch
    /// order: unchanged under list order, rank descending then index
    /// ascending under HEFT. Either way every task stays after the
    /// dependencies it has in the batch.
    pub(crate) fn order(self, ranks: &[f64], pending: &mut [usize]) {
        if self == SchedulerSpec::Heft {
            // f64 ranks are finite by construction, so the comparison
            // is total.
            pending.sort_by(|&a, &b| {
                ranks[b].partial_cmp(&ranks[a]).expect("ranks are finite").then(a.cmp(&b))
            });
        }
    }

    /// What a slot is ranked by, lower first (the replay keeps the
    /// first slot on ties): its estimated start under list order, its
    /// estimated finish at the node's speed under HEFT, so slow nodes
    /// are charged their real compute cost instead of winning on an
    /// early free slot.
    pub(crate) fn slot_key(self, est_start: SimTime, est_finish: SimTime) -> SimTime {
        match self {
            SchedulerSpec::List => est_start,
            SchedulerSpec::Heft => est_finish,
        }
    }
}

/// HEFT's upward rank per task, in seconds: its nominal execution time
/// at the cluster's mean speed plus the heaviest communication-inclusive
/// path to a sink (`share[d]` is producer `d`'s bytes per consumer).
///
/// One reverse-index sweep computes every rank: `deps` always point
/// backwards, so by the time `i` is visited (descending), every
/// dependent of each of its deps with a higher index has already pushed
/// its `comm + rank` maximum down. Rank order is therefore topological:
/// for a dependency `d` of `i`, `rank(d) ≥ comm(d→i) + rank(i) ≥
/// rank(i)`, and the index tie-break keeps `d < i` when ranks are equal.
fn upward_ranks(
    tasks: &[AsyncTaskSpec],
    share: &[u64],
    spec: &ClusterSpec,
    net: &dyn NetworkModel,
) -> Vec<f64> {
    let avg_speed = spec.nodes.iter().map(|nd| nd.speed).sum::<f64>() / spec.nodes.len() as f64;
    let mut rank = vec![0.0f64; tasks.len()];
    for (i, t) in tasks.iter().enumerate().rev() {
        // rank[i] currently holds max over dependents of (comm + their
        // full rank); add this task's own weight.
        let w = spec.cost.compute_time(t.ops, t.output_records, avg_speed)
            + spec.cost.sort_time(t.output_bytes, avg_speed)
            + spec.task_launch;
        rank[i] += w.as_secs_f64();
        for &d in &t.deps {
            let comm = net.wire_time(share[d]).as_secs_f64();
            if comm + rank[i] > rank[d] {
                rank[d] = comm + rank[i];
            }
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Constant;

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(SchedulerSpec::List.name(), "list");
        assert_eq!(SchedulerSpec::Heft.name(), "heft");
        assert_eq!(SchedulerSpec::ALL.map(SchedulerSpec::name), ["list", "heft"]);
    }

    #[test]
    fn heft_rank_order_is_topological() {
        // A diamond: 0 → {1, 2} → 3, all same cost. Whatever the ranks,
        // the order must keep deps first.
        let tasks = vec![
            AsyncTaskSpec::new(0, 0, 1 << 20, 1_000_000).with_output(10, 1 << 16),
            AsyncTaskSpec::new(0, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(1, 1, 0, 1_000_000).with_output(10, 1 << 16).with_deps(vec![0]),
            AsyncTaskSpec::new(0, 2, 0, 1_000_000).with_deps(vec![1, 2]),
        ];
        let share = [1 << 15, 1 << 16, 1 << 16, 0];
        let spec = ClusterSpec::ec2_2010();
        let net = Constant::new(8, spec.nic_bandwidth, spec.net_latency);
        let ranks = SchedulerSpec::Heft.ranks(&tasks, &share, &spec, &net);
        let mut order = [0, 1, 2, 3];
        SchedulerSpec::Heft.order(&ranks, &mut order);
        let pos = |t: usize| order.iter().position(|&x| x == t).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2), "source first");
        assert!(pos(1) < pos(3) && pos(2) < pos(3), "sink last");
        assert!(pos(1) < pos(2), "equal ranks tie-break by index");
    }
}
