//! HDFS-like distributed filesystem model.
//!
//! Iterative Hadoop 0.20 jobs round-trip all state through the DFS
//! between iterations (paper §VIII "System-level enhancements" calls
//! this out as a dominant overhead). The model charges:
//!
//! * **reads**: namenode lookup + disk streaming; *local* reads (a
//!   replica lives on the reading node — the common case thanks to
//!   locality-aware scheduling) skip the network, *remote* reads occupy
//!   NIC pipes;
//! * **writes**: namenode allocation + pipelined replication — the
//!   writer streams to a local replica and `replication - 1` remote
//!   replicas; the slowest leg gates completion.
//!
//! Block placement is deterministic from the task index, emulating
//! HDFS's round-robin-with-local-first placement.

use asyncmr_model::SimTime;

use crate::network::NetworkModel;

/// DFS behaviour constants.
#[derive(Debug, Clone, PartialEq)]
pub struct DfsModel {
    /// Copies of each block (HDFS default: 3).
    pub replication: u32,
    /// Namenode metadata round-trip per open/create.
    pub namenode_latency: SimTime,
    /// Fraction of map inputs scheduled data-local (Hadoop typically
    /// achieves 0.8–0.95 with FIFO + locality preference).
    pub locality_fraction: f64,
}

impl DfsModel {
    /// HDFS circa Hadoop 0.20.1.
    pub fn hdfs_2010() -> Self {
        DfsModel {
            replication: 3,
            namenode_latency: SimTime::from_millis(2),
            locality_fraction: 0.9,
        }
    }

    /// Zero-overhead single-replica DFS for unit tests.
    pub fn local_test() -> Self {
        DfsModel { replication: 1, namenode_latency: SimTime::ZERO, locality_fraction: 1.0 }
    }

    /// Time for node `reader` to read `bytes` of input. `local` says
    /// whether a replica is co-located (decided by the scheduler).
    /// Remote reads come from `remote_src` and occupy NIC pipes.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        net: &mut dyn NetworkModel,
        reader: usize,
        remote_src: usize,
        bytes: u64,
        local: bool,
        disk_bandwidth: f64,
        now: SimTime,
    ) -> SimTime {
        let disk = SimTime::from_secs_f64(bytes as f64 / disk_bandwidth);
        let opened = now + self.namenode_latency;
        if local || net.nodes() == 1 {
            opened + disk
        } else {
            // Remote replica streams over the network; disk and wire
            // pipeline, so the slower of the two gates completion.
            let wire_done = net.transfer(remote_src, reader, bytes, opened);
            wire_done.max(opened + disk)
        }
    }

    /// Time for node `writer` to write `bytes` with pipeline
    /// replication. Remote replicas are charged to the writer's tx pipe
    /// and each replica's rx pipe; `replica_nodes` yields the remote
    /// targets (deterministic placement chosen by the caller).
    pub fn write(
        &self,
        net: &mut dyn NetworkModel,
        writer: usize,
        replica_nodes: &[usize],
        bytes: u64,
        disk_bandwidth: f64,
        now: SimTime,
    ) -> SimTime {
        let opened = now + self.namenode_latency;
        let disk = SimTime::from_secs_f64(bytes as f64 / disk_bandwidth);
        let mut done = opened + disk; // local replica
                                      // The writer already holds the local replica; if the caller's
                                      // placement list includes it, skip it rather than charging a
                                      // phantom self-transfer toward the `replication - 1` remotes.
        let remotes = (self.replication as usize).saturating_sub(1);
        for &replica in replica_nodes.iter().filter(|&&r| r != writer).take(remotes) {
            let wire = net.transfer(writer, replica, bytes, opened);
            // The remote replica also spills to its disk; pipelined.
            done = done.max(wire.max(opened + disk));
        }
        done
    }
}

impl Default for DfsModel {
    fn default() -> Self {
        DfsModel::hdfs_2010()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkState;

    fn net4() -> NetworkState {
        NetworkState::new(4, 1e6, SimTime::from_millis(1))
    }

    #[test]
    fn local_read_skips_network() {
        let dfs = DfsModel::hdfs_2010();
        let mut net = net4();
        let t = dfs.read(&mut net, 0, 1, 1_000_000, true, 1e6, SimTime::ZERO);
        // namenode 2ms + 1s disk
        assert_eq!(t, SimTime::from_millis(2) + SimTime::from_secs(1));
        // Network untouched: a fresh transfer starts at its earliest.
        let free = net.transfer(1, 0, 0, SimTime::ZERO);
        assert_eq!(free, SimTime::from_millis(1));
    }

    #[test]
    fn remote_read_pays_the_wire() {
        let dfs = DfsModel::hdfs_2010();
        let mut net = net4();
        // Disk much faster than wire: wire gates.
        let t = dfs.read(&mut net, 0, 1, 1_000_000, false, 1e9, SimTime::ZERO);
        assert!(t >= SimTime::from_secs(1), "remote read must stream over NIC: {t}");
    }

    #[test]
    fn write_replicates_to_remotes() {
        let dfs = DfsModel::hdfs_2010(); // replication 3
        let mut idle = net4();
        let t_local_only = dfs.write(&mut idle, 0, &[], 1_000_000, 1e9, SimTime::ZERO);
        let mut net = net4();
        let t = dfs.write(&mut net, 0, &[1, 2], 1_000_000, 1e9, SimTime::ZERO);
        assert!(t > t_local_only, "replication must cost more than a local write");
        // Two pipeline legs serialize on the writer's tx pipe.
        assert!(t >= SimTime::from_secs(2));
    }

    #[test]
    fn writer_in_replica_list_is_not_double_counted() {
        let dfs = DfsModel::hdfs_2010(); // replication 3
                                         // Fast disk so the wire gates: a phantom writer->writer leg or a
                                         // dropped genuine remote would shift completion time.
        let mut with_writer = net4();
        let t_with = dfs.write(&mut with_writer, 0, &[0, 1, 2], 1_000_000, 1e9, SimTime::ZERO);
        let mut without_writer = net4();
        let t_without = dfs.write(&mut without_writer, 0, &[1, 2], 1_000_000, 1e9, SimTime::ZERO);
        assert_eq!(t_with, t_without, "local replica in the list must be skipped, not counted");
        // Both nets must carry identical residual occupancy: a follow-up
        // transfer over the writer's tx pipe finishes at the same time.
        let probe_with = with_writer.transfer(0, 3, 1_000_000, SimTime::ZERO);
        let probe_without = without_writer.transfer(0, 3, 1_000_000, SimTime::ZERO);
        assert_eq!(probe_with, probe_without, "no phantom occupancy from the skipped self-leg");
    }

    #[test]
    fn single_replica_writes_locally() {
        let dfs = DfsModel::local_test();
        let mut net = net4();
        let t = dfs.write(&mut net, 0, &[1, 2, 3], 2_000_000, 1e6, SimTime::ZERO);
        assert_eq!(t, SimTime::from_secs(2)); // disk only, no namenode, no net
    }
}
