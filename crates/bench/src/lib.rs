//! # asyncmr-bench — the reproduction and trace-analysis tools
//!
//! Every measurement in the repository has exactly one owner:
//!
//! | Job | Owner |
//! |---|---|
//! | performance (host wall-clock, per-layer attribution) | the `ledger/` package — not this crate |
//! | seed-deterministic paper/experiment tables | `repro` (`src/bin/repro.rs`), through the one [`Figure`] writer |
//! | trace analysis and rendering (timelines, critical paths, diffs, HTML/Chrome-trace reports of live and simulated runs) | `simtrace` (`src/bin/simtrace.rs`) |
//! | contracts (byte-identity, failure invisibility, replay determinism) | the test suites |
//!
//! `repro` regenerates the paper's evaluation section and the simulated
//! experiments grown around it:
//!
//! | Command | Artifact |
//! |---|---|
//! | `repro table1` | Table I — measurement testbed (simulated) |
//! | `repro table2` | Table II — input graph properties |
//! | `repro fig2` / `fig3` | PageRank iterations vs partitions (Graphs A, B) |
//! | `repro fig4` / `fig5` | PageRank time vs partitions (Graphs A, B) |
//! | `repro fig6` / `fig7` | SSSP iterations / time vs partitions (Graph A) |
//! | `repro fig8` / `fig9` | K-Means iterations / time vs threshold δ |
//! | `repro faults` | §VI fault tolerance: Eager/General barrier jobs and the async session under transient failures and node death |
//! | `repro ablation` | Eager PageRank vs partitioner quality |
//! | `repro scalability` | §VI scalability on the 460-node cluster model |
//! | `repro sched` | scheduler × straggler-regime simulated makespans |
//! | `repro all` | everything above |
//!
//! Runs are pure functions of `--seed` (two runs print byte-identical
//! tables: simulated seconds and seed-determined counts only — no host
//! wall-clock); `--scale` shrinks the inputs proportionally (partition
//! counts scale along, preserving partition *sizes* — the quantity the
//! algorithms actually respond to). Every figure is printed as an
//! aligned table and saved as JSON under `results/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod report;

pub use figures::{
    fault_tolerance, kmeans_figures, pagerank_figures, partitioner_ablation, scalability,
    scheduler_sweep, sssp_figures, table1, table2, GraphChoice,
};
pub use report::{Figure, ReproConfig};
