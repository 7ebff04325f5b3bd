//! Job descriptions: the metered profile of one MapReduce execution.
//!
//! A [`JobSpec`] is produced by the engine after it has *actually run*
//! the map and reduce functions in-process: every task carries its real
//! input bytes, abstract operation count, and output bytes. The
//! simulator replays the job's schedule on the modeled cluster. An
//! asynchronous session records one [`AsyncTaskSpec`] per `gmap` the
//! same way.

/// Metered profile of a single map task (a paper `gmap` invocation —
/// which may internally contain many local map/reduce iterations, all
/// folded into `ops`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapTaskSpec {
    /// Bytes read from the DFS (the task's input split).
    pub input_bytes: u64,
    /// Abstract operations performed (engine-metered).
    pub ops: u64,
    /// Bytes of intermediate output to shuffle to reducers.
    pub output_bytes: u64,
    /// Records emitted (framework per-record overhead).
    pub output_records: u64,
}

impl MapTaskSpec {
    /// Convenience constructor; records default to `output_bytes / 16`
    /// (a typical key+value pair of two longs).
    pub fn new(input_bytes: u64, ops: u64, output_bytes: u64) -> Self {
        MapTaskSpec { input_bytes, ops, output_bytes, output_records: output_bytes / 16 }
    }

    /// Sets the emitted record count explicitly.
    pub fn with_records(mut self, records: u64) -> Self {
        self.output_records = records;
        self
    }
}

/// Metered profile of a single reduce task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceTaskSpec {
    /// Abstract operations performed by the reduce function.
    pub ops: u64,
    /// Bytes written to the DFS as job output (pre-replication).
    pub output_bytes: u64,
}

impl ReduceTaskSpec {
    /// Convenience constructor.
    pub fn new(ops: u64, output_bytes: u64) -> Self {
        ReduceTaskSpec { ops, output_bytes }
    }
}

/// A complete MapReduce job profile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobSpec {
    /// Label for traces (e.g. `pagerank-eager-iter-3`).
    pub name: String,
    /// Map-side task profiles (one per partition / input split).
    pub maps: Vec<MapTaskSpec>,
    /// Reduce-side task profiles.
    pub reduces: Vec<ReduceTaskSpec>,
}

impl JobSpec {
    /// Creates an empty job with a name.
    pub fn named(name: impl Into<String>) -> Self {
        JobSpec { name: name.into(), ..Default::default() }
    }

    /// Sets the map task profiles.
    pub fn with_maps(mut self, maps: Vec<MapTaskSpec>) -> Self {
        self.maps = maps;
        self
    }

    /// Sets the reduce task profiles.
    pub fn with_reduces(mut self, reduces: Vec<ReduceTaskSpec>) -> Self {
        self.reduces = reduces;
        self
    }

    /// Total bytes shuffled by the job: what its map tasks emit (the
    /// engine meters what a task emits, after any combining its map
    /// did).
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.maps.iter().map(|m| m.output_bytes).sum()
    }

    /// Total abstract operations across all tasks.
    pub fn total_ops(&self) -> u64 {
        self.maps.iter().map(|m| m.ops).sum::<u64>()
            + self.reduces.iter().map(|r| r.ops).sum::<u64>()
    }
}

/// Metered profile of one asynchronous `gmap` task (one partition at
/// one global iteration), plus its dependency edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncTaskSpec {
    /// The partition this task advanced.
    pub partition: usize,
    /// The global iteration it computed.
    pub iteration: usize,
    /// Input split bytes. Read from the DFS only at iteration 0 — the
    /// session keeps partition state resident afterwards.
    pub input_bytes: u64,
    /// Abstract operations performed (engine-metered).
    pub ops: u64,
    /// Messages emitted (framework per-record overhead).
    pub output_records: u64,
    /// Message bytes emitted to dependent partitions.
    pub output_bytes: u64,
    /// Indices (into the schedule's task list) of the producer tasks
    /// this task waited for. Must all be smaller than this task's own
    /// index — the list is a topological order by construction.
    pub deps: Vec<usize>,
}

impl AsyncTaskSpec {
    /// Convenience constructor; records default from bytes like
    /// [`MapTaskSpec::new`].
    pub fn new(partition: usize, iteration: usize, input_bytes: u64, ops: u64) -> Self {
        AsyncTaskSpec {
            partition,
            iteration,
            input_bytes,
            ops,
            output_records: 0,
            output_bytes: 0,
            deps: Vec::new(),
        }
    }

    /// Sets the emitted message volume.
    pub fn with_output(mut self, records: u64, bytes: u64) -> Self {
        self.output_records = records;
        self.output_bytes = bytes;
        self
    }

    /// Sets the dependency edges.
    pub fn with_deps(mut self, deps: Vec<usize>) -> Self {
        self.deps = deps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_job() {
        let job = JobSpec::named("j")
            .with_maps(vec![MapTaskSpec::new(100, 10, 64); 3])
            .with_reduces(vec![ReduceTaskSpec::new(5, 32); 2]);
        assert_eq!(job.maps.len(), 3);
        assert_eq!(job.reduces.len(), 2);
        assert_eq!(job.total_ops(), 3 * 10 + 2 * 5);
        assert_eq!(job.total_shuffle_bytes(), 3 * 64);
    }

    #[test]
    fn default_records_estimated_from_bytes() {
        let m = MapTaskSpec::new(0, 0, 160);
        assert_eq!(m.output_records, 10);
        let m = m.with_records(3);
        assert_eq!(m.output_records, 3);
    }
}
