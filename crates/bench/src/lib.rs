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
//! experiments grown around it. [`ARTIFACTS`] lists them, in the order
//! `repro all` runs them: each entry names the figures one experiment
//! produces and what they show, and `repro`'s usage, `all` and dispatch
//! all read it. Every Eager-vs-General experiment (Figs. 2–9, §VI
//! scalability) is one comparison in [`figures`]: each formulation runs
//! once on a fresh simulated engine, and one renderer draws the
//! iterations / time figures with the speed-up column.
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

/// One experiment `repro` runs.
#[derive(Debug, Clone, Copy)]
pub struct Artifact {
    /// The ids of the figures [`Artifact::produce`] returns, in order:
    /// a figure pair shares one sweep, as the paper's own runs did.
    pub ids: &'static [&'static str],
    /// What the figures show.
    pub about: &'static str,
    /// Runs the experiment.
    pub produce: fn(&ReproConfig) -> Vec<Figure>,
}

/// Every artifact `repro` regenerates, in `repro all`'s order.
pub const ARTIFACTS: &[Artifact] = &[
    Artifact {
        ids: &["table1"],
        about: "Table I: measurement testbed (simulated)",
        produce: |c| vec![table1(c)],
    },
    Artifact {
        ids: &["table2"],
        about: "Table II: input graph properties",
        produce: |c| vec![table2(c)],
    },
    Artifact {
        ids: &["fig2", "fig4"],
        about: "PageRank iterations / time vs partitions, Graph A",
        produce: |c| pair(pagerank_figures(c, GraphChoice::A)),
    },
    Artifact {
        ids: &["fig3", "fig5"],
        about: "PageRank iterations / time vs partitions, Graph B",
        produce: |c| pair(pagerank_figures(c, GraphChoice::B)),
    },
    Artifact {
        ids: &["fig6", "fig7"],
        about: "SSSP iterations / time vs partitions, Graph A",
        produce: |c| pair(sssp_figures(c)),
    },
    Artifact {
        ids: &["fig8", "fig9"],
        about: "K-Means iterations / time vs threshold",
        produce: |c| pair(kmeans_figures(c)),
    },
    Artifact {
        ids: &["faults"],
        about: "§VI fault tolerance: barrier jobs and the async session under transient failures and node death",
        produce: |c| vec![fault_tolerance(c)],
    },
    Artifact {
        ids: &["ablation"],
        about: "Eager PageRank vs partitioner quality",
        produce: |c| vec![partitioner_ablation(c)],
    },
    Artifact {
        ids: &["scalability"],
        about: "§VI scalability on the 460-node cluster model",
        produce: |c| vec![scalability(c)],
    },
    Artifact {
        ids: &["sched"],
        about: "scheduler x straggler-regime simulated makespans",
        produce: |c| vec![scheduler_sweep(c)],
    },
];

fn pair((iters, time): (Figure, Figure)) -> Vec<Figure> {
    vec![iters, time]
}
