//! # asyncmr-runtime — work-stealing task runtime
//!
//! This crate is the in-process stand-in for Hadoop's per-node task slots
//! in the CLUSTER 2010 *"Asynchronous Algorithms in MapReduce"*
//! reproduction. The MapReduce engine (`asyncmr-core`) executes its map
//! and reduce tasks on this pool; the paper's *eager scheduling* (next
//! local map iterations scheduled without waiting on other partitions) is
//! realized simply by submitting independent coarse tasks here.
//!
//! The design follows the classic work-stealing architecture, written on
//! `std::sync` alone: every spawn enters one shared injector; a worker
//! refills its own deque from it in batches; a starved worker tries the
//! injector, then its peers' deques in index order (every queue is a
//! `Mutex<VecDeque>`, not lock-free). On top of it:
//!
//! * [`ThreadPool::scope`] — structured (borrow-friendly) task spawning
//!   with panic propagation, in the spirit of `rayon::scope` /
//!   `std::thread::scope`; every task belongs to a scope;
//! * [`ThreadPool::par_map`] / [`ThreadPool::par_map_indexed`] /
//!   [`ThreadPool::par_map_vec`] — order-preserving data-parallel
//!   barriers built on `scope` (the engine's map and reduce stages);
//! * [`ThreadPool::par_multiwave`] — the completion-driven scheduler
//!   behind the asynchronous session: tasks stream their results to a
//!   caller-side scheduler that can inject new [`Wave`]s while earlier
//!   ones drain, keeping one scope alive across the global iterations
//!   of an iterative driver;
//! * cooperative waiting: a thread blocked waiting for its [`Scope`] to
//!   drain *helps*
//!   execute queued tasks, so nested scopes cannot deadlock the pool.
//!
//! A pool can be dropped only once every scope on it has returned, so
//! dropping it just stops its idle workers.
//!
//! ```
//! use asyncmr_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod metrics;
mod parallel;
mod pipeline;
mod pool;
mod scope;

pub use metrics::PoolMetrics;
pub use pipeline::Wave;
pub use pool::{current_worker, ParkObserver, ThreadPool};
pub use scope::Scope;
