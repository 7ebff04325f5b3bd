//! # asyncmr-apps — the paper's benchmark applications
//!
//! General (fully synchronous) and Eager (partial-sync + eager
//! scheduling) implementations of the three applications evaluated in
//! *"Asynchronous Algorithms in MapReduce"* (CLUSTER 2010), built on
//! the `asyncmr-core` API, barrier-free session formulations of the two
//! graph applications, and sequential reference implementations used
//! for correctness checks:
//!
//! | Application | General | Eager | Async session | Reference |
//! |---|---|---|---|---|
//! | PageRank (§V-B) | [`pagerank::run_general`] | [`pagerank::run_eager`] | [`pagerank::run_async`] | [`pagerank::reference::pagerank_sequential`] |
//! | Single-Source Shortest Path (§V-C) | [`sssp::run_general`] | [`sssp::run_eager`] | [`sssp::run_async`] | [`sssp::reference::dijkstra`] |
//! | K-Means (§V-D) | [`kmeans::run_general`] | [`kmeans::run_eager`] | — | [`kmeans::reference::lloyd`] |
//!
//! Two further applications from the paper's broader-applicability
//! discussion (§V-E, §VI) are implemented as extensions:
//!
//! | Application | General | Eager | Reference |
//! |---|---|---|---|
//! | Connected Components (§V-E) | [`cc::run_general`] | [`cc::run_eager`] | [`cc::reference::components`] |
//! | Jacobi linear solver (§VI) | [`jacobi::run_general`] | [`jacobi::run_eager`] | [`jacobi::reference::jacobi_sequential`] |
//!
//! Each application writes its math once, in a `rule` module that every
//! formulation calls, and every entry point refuses a config that fails
//! its `validate`, panicking with the field's name and value.
//!
//! The General and Eager drivers run on an [`asyncmr_core::Engine`] and
//! return an [`asyncmr_core::IterationReport`] (global iterations =
//! global synchronizations, partial-sync counts, simulated and real
//! time) beside the result; the session drivers run on a
//! [`asyncmr_runtime::ThreadPool`] and return an
//! [`asyncmr_core::session::SessionReport`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cc;
pub mod common;
pub mod jacobi;
pub mod kmeans;
pub mod pagerank;
pub mod sssp;

pub use common::GraphPartition;
