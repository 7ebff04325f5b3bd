//! # asyncmr-simcluster — a Hadoop-era distributed cluster, simulated
//!
//! The CLUSTER 2010 paper *"Asynchronous Algorithms in MapReduce"*
//! evaluates on an 8-node Amazon EC2 cluster running Hadoop 0.20.1
//! (paper Table I). This crate is the reproduction's stand-in for that
//! testbed: a deterministic discrete-event simulator of
//!
//! * cluster **nodes** with per-node map/reduce **task slots** and
//!   (optional) heterogeneous speeds,
//! * per-task overheads of the era (job setup, JVM/task launch),
//! * a store-and-forward **network model** with per-node NIC
//!   serialization (shuffle contention emerges naturally),
//! * a replicated **DFS model** (HDFS-like reads with locality and
//!   pipeline writes) — iterative jobs pay the iteration-state
//!   round-trip through the DFS exactly as Hadoop 0.20 did,
//! * FIFO + data-locality **scheduling** of map waves,
//! * log-normal **stragglers** and injected **transient task failures**
//!   with bounded re-execution (Hadoop's deterministic replay).
//!
//! The simulator never executes user code. The MapReduce engine
//! (`asyncmr-core`) runs the real algorithm in-process, *meters* each
//! task (input/output bytes, abstract operation counts), and submits the
//! resulting [`JobSpec`](asyncmr_model::JobSpec) here to obtain the
//! simulated wall-clock cost of that job on the paper's platform.
//! Iteration counts are therefore exact, and times have the platform's
//! cost *shape* (global synchronizations dominating useful compute).
//! The job specs, their stats, simulated time and the failure plans
//! are `asyncmr-model`'s vocabulary; this crate defines only the
//! cluster that prices them.
//!
//! ```
//! use asyncmr_model::{JobSpec, MapTaskSpec, ReduceTaskSpec};
//! use asyncmr_simcluster::{ClusterSpec, Simulation};
//!
//! let mut sim = Simulation::new(ClusterSpec::ec2_2010(), 42);
//! let job = JobSpec::named("tiny")
//!     .with_maps(vec![MapTaskSpec::new(64 << 20, 10_000_000, 8 << 20); 16])
//!     .with_reduces(vec![ReduceTaskSpec::new(2_000_000, 16 << 20); 8]);
//! let stats = sim.run_job(&job);
//! assert!(stats.duration.as_secs_f64() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod asyncsched;
pub mod cluster;
pub mod costmodel;
pub mod dfs;
pub mod event_core;
pub mod events;
pub mod failure;
pub mod network;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;

// The ledger names these `asyncmr-model` types at these paths.
pub use asyncmr_model::{underflow_count, AsyncTaskSpec};

pub use asyncsched::AsyncScheduleStats;
pub use cluster::{ClusterSpec, NodeSpec};
pub use costmodel::CostModel;
pub use dfs::DfsModel;
pub use event_core::{ComponentId, Ev, EventCore, TraceEvent};
pub use failure::{NODE_DETECTION_DELAY, TASK_DETECTION_DELAY};
pub use network::{Constant, NetworkModel, NetworkState, TopologyAware};
pub use sched::SchedulerSpec;
pub use sim::Simulation;
pub use stats::CommitAccounting;
pub use trace::{diff_runs, ReportModel, RunRecord, TraceAnalysis, TraceDiff, TraceReader};
