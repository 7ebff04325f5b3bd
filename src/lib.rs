//! # asyncmr — Asynchronous Algorithms in MapReduce
//!
//! Umbrella crate for the reproduction of *"Asynchronous Algorithms in
//! MapReduce"* (Kambatla, Rapolu, Jagannathan, Grama — IEEE CLUSTER
//! 2010): an iterative MapReduce engine extended with **partial
//! synchronizations** (`lmap`/`lreduce` inside `gmap`) and **eager
//! scheduling**, evaluated on PageRank, Single-Source Shortest Path,
//! and K-Means against fully synchronous baselines.
//!
//! This crate only re-exports the workspace members under friendly
//! names; see each module for its own documentation:
//!
//! * [`model`] — the plain data the engine and the testbed share
//!   (simulated time, metered job profiles, job statistics, failure
//!   verdicts, the session trace model); depends on nothing;
//! * [`core`] — the MapReduce programming model and engine
//!   ([`core::Mapper`], [`core::Reducer`], [`core::LocalAlgorithm`],
//!   [`core::EagerMapper`], [`core::Engine`]), on [`runtime`] + [`model`];
//! * [`runtime`] — the work-stealing thread pool executing tasks;
//! * [`simcluster`] — the discrete-event model of the paper's 8-node
//!   EC2/Hadoop testbed (simulated time for the evaluation figures), on
//!   [`model`] alone;
//! * [`graph`] — CSR graphs and the paper's preferential-attachment
//!   generators (Table II presets);
//! * [`partition`] — locality-enhancing multilevel k-way partitioning
//!   (the Metis stand-in) plus baselines;
//! * [`apps`] — PageRank / SSSP / K-Means in General and Eager
//!   formulations with sequential references.
//!
//! ## Quick taste
//!
//! ```
//! use asyncmr::apps::pagerank::{run_eager, run_general, PageRankConfig};
//! use asyncmr::core::Engine;
//! use asyncmr::graph::generators;
//! use asyncmr::partition::{MultilevelKWay, Partitioner};
//! use asyncmr::runtime::ThreadPool;
//!
//! let graph = generators::preferential_attachment_crawled(800, 3, 1, 1, 0.95, 40, 7);
//! let parts = MultilevelKWay::default().partition(&graph, 4);
//! let pool = ThreadPool::new(2);
//!
//! let mut engine = Engine::in_process(&pool);
//! let eager = run_eager(&mut engine, &graph, &parts, &PageRankConfig::default());
//! let general = run_general(&mut engine, &graph, &parts, &PageRankConfig::default());
//! assert!(eager.report.global_iterations < general.report.global_iterations);
//! ```

#![warn(missing_docs)]

pub use asyncmr_apps as apps;
pub use asyncmr_core as core;
pub use asyncmr_graph as graph;
pub use asyncmr_model as model;
pub use asyncmr_partition as partition;
pub use asyncmr_runtime as runtime;
pub use asyncmr_simcluster as simcluster;
