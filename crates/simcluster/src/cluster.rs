//! Cluster topology and capacity: nodes, slots, speeds, overheads.
//!
//! The defaults mirror the paper's Table I testbed — 8 "extra large"
//! EC2 instances (8 EC2 compute units, 15 GB RAM each) running Hadoop
//! 0.20.1 with Java 1.6 — using Hadoop-0.20-era cost constants: multi-
//! second job setup at the JobTracker, ~1 s JVM launch per task, a
//! shared gigabit NIC per node, and HDFS 3-way replicated writes.

use asyncmr_model::SimTime;

use crate::costmodel::CostModel;
use crate::dfs::DfsModel;

/// One machine in the simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Concurrent map tasks this node can run (Hadoop map slots).
    pub map_slots: u32,
    /// Concurrent reduce tasks this node can run (Hadoop reduce slots).
    pub reduce_slots: u32,
    /// Relative CPU speed (1.0 = baseline; <1 slower, >1 faster).
    pub speed: f64,
}

/// Full description of the simulated cluster and its cost constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Human-readable label (appears in traces and repro output).
    pub name: String,
    /// The machines.
    pub nodes: Vec<NodeSpec>,
    /// One-time per-job overhead at the JobTracker (job submission,
    /// split computation, task distribution). Hadoop 0.20: O(10 s).
    pub job_setup: SimTime,
    /// Per-job cleanup/commit overhead.
    pub job_cleanup: SimTime,
    /// Per-task-attempt launch overhead (JVM start, localization).
    pub task_launch: SimTime,
    /// Per-node NIC bandwidth in bytes/second (full duplex; tx and rx
    /// are modeled as separate serialized pipes).
    pub nic_bandwidth: f64,
    /// One-way network latency between distinct nodes, per transfer.
    pub net_latency: SimTime,
    /// Local disk streaming bandwidth in bytes/second.
    pub disk_bandwidth: f64,
    /// Log-normal straggler spread (sigma of ln-duration); 0 disables.
    pub straggler_sigma: f64,
    /// CPU / record-processing cost constants.
    pub cost: CostModel,
    /// Distributed-filesystem behaviour.
    pub dfs: DfsModel,
}

impl ClusterSpec {
    /// The paper's Table I testbed: 8 EC2 extra-large instances,
    /// Hadoop 0.20.1-era overheads.
    pub fn ec2_2010() -> Self {
        ClusterSpec {
            name: "ec2-2010 (8x m1.xlarge, Hadoop 0.20.1)".to_string(),
            nodes: vec![NodeSpec { map_slots: 4, reduce_slots: 2, speed: 1.0 }; 8],
            job_setup: SimTime::from_secs_f64(12.0),
            job_cleanup: SimTime::from_secs_f64(3.0),
            task_launch: SimTime::from_secs_f64(1.5),
            nic_bandwidth: 110e6,                   // ~1 GbE effective
            net_latency: SimTime::from_micros(400), // intra-AZ cloud RTT/2
            disk_bandwidth: 70e6,                   // 2010 magnetic disks
            straggler_sigma: 0.25,                  // cloud noisy neighbours
            cost: CostModel::java_2010(),
            dfs: DfsModel::hdfs_2010(),
        }
    }

    /// The 460-node IBM/Google CluE cluster the paper's §VI scalability
    /// experiment ran on; heavier network contention, same era.
    pub fn clue_460() -> Self {
        ClusterSpec {
            name: "clue-460 (NSF CluE, 460 nodes)".to_string(),
            nodes: vec![NodeSpec { map_slots: 2, reduce_slots: 2, speed: 0.8 }; 460],
            job_setup: SimTime::from_secs_f64(20.0),
            job_cleanup: SimTime::from_secs_f64(5.0),
            task_launch: SimTime::from_secs_f64(2.0),
            nic_bandwidth: 60e6, // oversubscribed shared switching fabric
            net_latency: SimTime::from_millis(1),
            disk_bandwidth: 50e6,
            straggler_sigma: 0.35,
            cost: CostModel::java_2010(),
            dfs: DfsModel::hdfs_2010(),
        }
    }

    /// A tiny, fast, overhead-free cluster for unit tests: one node,
    /// generous slots, zero fixed overheads, no stragglers.
    pub fn test_local(map_slots: u32, reduce_slots: u32) -> Self {
        ClusterSpec {
            name: "test-local".to_string(),
            nodes: vec![NodeSpec { map_slots, reduce_slots, speed: 1.0 }],
            job_setup: SimTime::ZERO,
            job_cleanup: SimTime::ZERO,
            task_launch: SimTime::ZERO,
            nic_bandwidth: 1e12,
            net_latency: SimTime::ZERO,
            disk_bandwidth: 1e12,
            straggler_sigma: 0.0,
            cost: CostModel::java_2010(),
            dfs: DfsModel::local_test(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Marks a subset of nodes as slow (heterogeneous cluster), the
    /// scenario of the paper's load-imbalance discussion.
    pub fn with_slow_nodes(mut self, count: usize, speed: f64) -> Self {
        for node in self.nodes.iter_mut().take(count) {
            node.speed = speed;
        }
        self
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::ec2_2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec2_preset_matches_table_i() {
        let spec = ClusterSpec::ec2_2010();
        assert_eq!(spec.num_nodes(), 8); // Table I: 8 large instances
        assert_eq!(spec.nodes.iter().map(|n| n.map_slots).sum::<u32>(), 32);
        assert_eq!(spec.nodes.iter().map(|n| n.reduce_slots).sum::<u32>(), 16);
        assert!(spec.job_setup > SimTime::ZERO);
    }

    #[test]
    fn with_slow_nodes_marks_prefix() {
        let spec = ClusterSpec::ec2_2010().with_slow_nodes(2, 0.5);
        assert_eq!(spec.nodes[0].speed, 0.5);
        assert_eq!(spec.nodes[1].speed, 0.5);
        assert_eq!(spec.nodes[2].speed, 1.0);
    }

    #[test]
    fn test_local_has_no_overheads() {
        let spec = ClusterSpec::test_local(8, 8);
        assert_eq!(spec.job_setup, SimTime::ZERO);
        assert_eq!(spec.task_launch, SimTime::ZERO);
        assert_eq!(spec.straggler_sigma, 0.0);
    }

    #[test]
    fn clue_preset_is_large() {
        let spec = ClusterSpec::clue_460();
        assert_eq!(spec.num_nodes(), 460);
        assert!(spec.nic_bandwidth < ClusterSpec::ec2_2010().nic_bandwidth);
    }
}
