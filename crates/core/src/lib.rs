//! # asyncmr-core — iterative MapReduce with partial synchronization
//!
//! This crate implements the primary contribution of *"Asynchronous
//! Algorithms in MapReduce"* (Kambatla, Rapolu, Jagannathan, Grama —
//! IEEE CLUSTER 2010): a MapReduce programming model extended with
//! **partial synchronizations** and **eager scheduling** for iterative,
//! asynchrony-tolerant algorithms.
//!
//! ## The paper's API (§IV)
//!
//! | Paper construct | Here |
//! |---|---|
//! | `map` / `reduce` (global) | [`Mapper::map`] / [`Reducer::reduce`] |
//! | `EmitIntermediate(k, v)` | [`MapContext::emit_intermediate`]; in a `gmap`, [`LocalAlgorithm::finalize`]'s, of type [`LocalAlgorithm::Intermediate`] (a local pass folds [`LocalAlgorithm::Value`]s) |
//! | `Emit(k, v)` | [`ReduceContext::emit`] |
//! | `for each element x in xs { lmap(x); }` (Fig. 1) | one [`LocalAlgorithm::lmap`] call a pass, over the whole partition |
//! | `lreduce` (local), a fold over each group | [`LocalAlgorithm::init`] (every group's accumulator at once) / [`LocalAlgorithm::fold`] / [`LocalAlgorithm::finish`] |
//! | `EmitLocalIntermediate(k, v)` | [`LocalMapContext::emit_to`], to the group of `k`, or [`LocalMapContext::scatter`], a value from every group along a [`csr::LocalCsr`] over the groups |
//! | `EmitLocal(k, v)` | [`LocalAlgorithm::finish`]'s in-place write of `k`'s next value |
//! | no-local-convergence-intimated | every group's [`LocalAlgorithm::finish`] said it settled |
//! | the local hashtable (§V-A) | the map call's value array, keys fixed once from [`LocalAlgorithm::init_state`] (strictly ascending): group `g` is entry `g` |
//! | `gmap` built from `lmap`+`lreduce` (Fig. 1) | [`EagerMapper`] |
//! | combiner | in-mapper combining: a [`Mapper`] folds before it emits (K-Means General) |
//!
//! A *general* (fully synchronous) iterative algorithm implements
//! [`Mapper`] + [`Reducer`] and runs one global MapReduce per
//! iteration. An *eager* (partial-sync) algorithm implements
//! [`LocalAlgorithm`]; wrapping it in [`EagerMapper`] produces a `gmap`
//! that iterates `lmap` and its folding `lreduce` on its partition **to
//! local convergence** — with no cross-partition barrier (that is the
//! eager scheduling) — before the single global reduce.
//!
//! ## Execution backends
//!
//! [`Engine`] always executes the real computation in-process on the
//! work-stealing [`asyncmr_runtime::ThreadPool`] (map tasks and reduce
//! tasks in parallel). The job body is written once ([`plan`]) and run
//! under one schedule — **staged**, a barrier per stage — with a
//! kept-for-test **oracle** ([`Engine::with_reference_shuffle`]) beside
//! it; the two are byte-identical in output. Optionally the
//! engine *also* meters every task (bytes, records, abstract ops) and replays the
//! job on an attached [`asyncmr_model::JobReplay`] — in practice
//! `asyncmr_simcluster::Simulation`, the paper's 8-node EC2/Hadoop
//! testbed — yielding the simulated wall-clock each figure reports.
//! Algorithmic results are identical under both backends by
//! construction — the replay never touches the data. What this crate
//! shares with the simulator lives in `asyncmr-model`; it does not
//! depend on the simulator itself.
//!
//! ```
//! use asyncmr_core::prelude::*;
//! use asyncmr_runtime::ThreadPool;
//!
//! // Word count: the "hello world" of MapReduce.
//! struct Tokenize;
//! impl Mapper for Tokenize {
//!     type Input = String;
//!     type Key = String;
//!     type Value = u64;
//!     fn map(&self, _task: usize, doc: &String, ctx: &mut MapContext<String, u64>) {
//!         for word in doc.split_whitespace() {
//!             ctx.emit_intermediate(word.to_string(), 1);
//!         }
//!     }
//! }
//! struct Count;
//! impl Reducer for Count {
//!     type Key = String;
//!     type ValueIn = u64;
//!     type Out = u64;
//!     fn reduce(&self, key: &String, values: &[u64], ctx: &mut ReduceContext<String, u64>) {
//!         ctx.emit(key.clone(), values.iter().sum());
//!     }
//! }
//!
//! let pool = ThreadPool::new(2);
//! let mut engine = Engine::in_process(&pool);
//! let docs = vec!["a b a".to_string(), "b c".to_string()];
//! let out = engine.run("wordcount", &docs, &Tokenize, &Count, &JobOptions::with_reducers(2));
//! let mut pairs = out.pairs;
//! pairs.sort();
//! assert_eq!(pairs, vec![("a".into(), 2), ("b".into(), 2), ("c".into(), 1)]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod csr;
pub mod driver;
pub mod emitter;
pub mod engine;
pub mod hash;
pub mod kv;
pub mod local;
pub mod obs;
pub mod plan;
pub mod session;
pub mod shuffle;
pub mod traits;

pub use asyncmr_model::{AttemptFailurePlan, NodeFailurePlan};
pub use driver::{FixedPointDriver, IterationReport, StepStatus};
pub use emitter::{MapContext, ReduceContext, TaskMeter};
pub use engine::{Engine, JobMeter, JobOptions, JobResult, JobReuse, PlanUse};
pub use kv::{Key, Meterable, Value};
pub use local::{EagerMapper, LocalAlgorithm, LocalMapContext};
pub use obs::SpanRecorder;
pub use plan::StageTimings;
pub use session::{
    Absorbed, AsyncFixedPointDriver, AsyncIterative, Dependence, GmapOutput, Outbox,
    SessionOutcome, SessionReport,
};
pub use shuffle::{GroupPlan, GroupView, Grouped, GroupingStrategy, ShuffleScratch};
pub use traits::{Mapper, Reducer};

/// Glob import for application code.
pub mod prelude {
    pub use crate::driver::{FixedPointDriver, IterationReport, StepStatus};
    pub use crate::emitter::{MapContext, ReduceContext};
    pub use crate::engine::{Engine, JobOptions, JobResult};
    pub use crate::kv::{Key, Meterable, Value};
    pub use crate::local::{EagerMapper, LocalAlgorithm, LocalMapContext};
    pub use crate::session::{
        Absorbed, AsyncFixedPointDriver, AsyncIterative, Dependence, GmapOutput, Outbox,
        SessionOutcome, SessionReport,
    };
    pub use crate::shuffle::GroupingStrategy;
    pub use crate::traits::{Mapper, Reducer};
    pub use asyncmr_model::{AttemptFailurePlan, NodeFailurePlan};
}
