//! The five paper apps' workload shapes, as pure functions of the app
//! name.
//!
//! The replay-fidelity goldens (`tests/replay_fidelity.rs`), the
//! `simtrace` analysis bin, and CI's golden-trace fixtures all need the
//! *same* deterministic workloads: task counts, byte volumes, and
//! dependency shapes modeled on how the paper's five applications
//! (PageRank, SSSP, connected components, K-Means, Jacobi) meter on the
//! engine. Keeping them here — in the library, not copy-pasted per
//! consumer — is what makes "the fixture digest matches the test
//! digest" a meaningful cross-check.
//!
//! Everything is a pure function of the app name (plus the fixed
//! [`jitter`] stream), so the generated workloads are bit-stable across
//! processes and platforms — a prerequisite for golden pinning.

use asyncmr_model::{splitmix64, AsyncTaskSpec, JobSpec, MapTaskSpec, ReduceTaskSpec};

/// The five paper apps, in golden-table order.
pub const APPS: [&str; 5] = ["pagerank", "sssp", "cc", "kmeans", "jacobi"];

/// Seed the barrier golden tables are pinned at.
pub const BARRIER_SEED: u64 = 42;

/// Seed the async golden tables are pinned at.
pub const ASYNC_SEED: u64 = 1007;

/// Deterministic per-(app, partition, iteration) jitter so tasks are
/// not all identical (wave boundaries and shuffle shapes stay
/// app-like) while the workload remains a pure function of the name.
pub fn jitter(app_id: u64, p: u64, i: u64, range: u64) -> u64 {
    if range == 0 {
        return 0;
    }
    splitmix64(app_id.wrapping_mul(0x9e37_79b9) ^ (p << 20) ^ i) % range
}

/// Cross-iteration dependency shape of an app's async schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepShape {
    /// p waits on {p-1, p, p+1} of the previous iteration (PageRank-ish
    /// locality-partitioned cut).
    Ring,
    /// p waits on {p, p+3} (SSSP frontier-ish sparse cut).
    Sparse,
    /// p waits on every partition of the previous iteration (global
    /// coupling: CC label broadcast, K-Means centroids).
    Full,
    /// 2-D grid neighbours (Jacobi stencil).
    Grid {
        /// Grid width in partitions.
        cols: usize,
    },
}

/// One app's metered profile: the numbers [`barrier_jobs`] and
/// [`async_schedule`] expand into task lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppShape {
    /// Jitter-stream id (distinct per app).
    pub id: u64,
    /// Partitions per iteration.
    pub parts: usize,
    /// Global iterations.
    pub iters: usize,
    /// Input split bytes per partition.
    pub input_bytes: u64,
    /// Base abstract operations per task.
    pub ops: u64,
    /// Jitter range added to `ops` per (partition, iteration).
    pub ops_jitter: u64,
    /// Map output bytes per task.
    pub map_out: u64,
    /// Reduce tasks per barrier job.
    pub reduces: usize,
    /// Abstract operations per reduce task.
    pub reduce_ops: u64,
    /// Reduce output bytes per task.
    pub reduce_out: u64,
    /// The async schedule's cross-iteration dependency shape.
    pub deps: DepShape,
}

/// The shape of one of the five paper apps.
///
/// # Panics
///
/// Panics on an unknown app name — [`APPS`] lists the valid ones.
pub fn shape(app: &str) -> AppShape {
    match app {
        "pagerank" => AppShape {
            id: 1,
            parts: 16,
            iters: 10,
            input_bytes: 48 << 20,
            ops: 30_000_000,
            ops_jitter: 8_000_000,
            map_out: 6 << 20,
            reduces: 8,
            reduce_ops: 2_000_000,
            reduce_out: 12 << 20,
            deps: DepShape::Ring,
        },
        "sssp" => AppShape {
            id: 2,
            parts: 12,
            iters: 8,
            input_bytes: 24 << 20,
            ops: 18_000_000,
            ops_jitter: 12_000_000,
            map_out: 2 << 20,
            reduces: 6,
            reduce_ops: 1_200_000,
            reduce_out: 4 << 20,
            deps: DepShape::Sparse,
        },
        "cc" => AppShape {
            id: 3,
            parts: 8,
            iters: 6,
            input_bytes: 32 << 20,
            ops: 22_000_000,
            ops_jitter: 5_000_000,
            map_out: 4 << 20,
            reduces: 8,
            reduce_ops: 1_500_000,
            reduce_out: 8 << 20,
            deps: DepShape::Full,
        },
        "kmeans" => AppShape {
            id: 4,
            parts: 16,
            iters: 5,
            input_bytes: 64 << 20,
            ops: 45_000_000,
            ops_jitter: 3_000_000,
            map_out: 512 << 10,
            reduces: 1,
            reduce_ops: 800_000,
            reduce_out: 64 << 10,
            deps: DepShape::Full,
        },
        "jacobi" => AppShape {
            id: 5,
            parts: 9,
            iters: 7,
            input_bytes: 16 << 20,
            ops: 12_000_000,
            ops_jitter: 2_000_000,
            map_out: 1 << 20,
            reduces: 9,
            reduce_ops: 900_000,
            reduce_out: 2 << 20,
            deps: DepShape::Grid { cols: 3 },
        },
        other => panic!("unknown app {other}"),
    }
}

/// One barrier-synchronized [`JobSpec`] per global iteration, shaped
/// like the app's metered profile.
pub fn barrier_jobs(app: &str) -> Vec<JobSpec> {
    let s = shape(app);
    (0..s.iters)
        .map(|i| {
            let maps = (0..s.parts)
                .map(|p| {
                    let ops = s.ops + jitter(s.id, p as u64, i as u64, s.ops_jitter);
                    MapTaskSpec::new(s.input_bytes, ops, s.map_out)
                })
                .collect();
            let reduces =
                (0..s.reduces).map(|_| ReduceTaskSpec::new(s.reduce_ops, s.reduce_out)).collect();
            JobSpec::named(format!("{app}-iter-{i}")).with_maps(maps).with_reduces(reduces)
        })
        .collect()
}

/// The same work as one cross-iteration eager schedule: one
/// [`AsyncTaskSpec`] per (partition, iteration) with the app's
/// dependency shape, splits read only at iteration 0.
pub fn async_schedule(app: &str) -> Vec<AsyncTaskSpec> {
    let s = shape(app);
    let k = s.parts;
    let mut tasks = Vec::with_capacity(k * s.iters);
    for i in 0..s.iters {
        for p in 0..k {
            let ops = s.ops + jitter(s.id, p as u64, i as u64, s.ops_jitter);
            let mut t =
                AsyncTaskSpec::new(p, i, s.input_bytes, ops).with_output(s.map_out / 64, s.map_out);
            if i > 0 {
                let base = (i - 1) * k;
                let mut deps: Vec<usize> = match s.deps {
                    DepShape::Ring => vec![(p + k - 1) % k, p, (p + 1) % k],
                    DepShape::Sparse => vec![p, (p + 3) % k],
                    DepShape::Full => (0..k).collect(),
                    DepShape::Grid { cols } => {
                        let (r, c) = (p / cols, p % cols);
                        let rows = k / cols;
                        let mut d = vec![p];
                        if r > 0 {
                            d.push(p - cols);
                        }
                        if r + 1 < rows {
                            d.push(p + cols);
                        }
                        if c > 0 {
                            d.push(p - 1);
                        }
                        if c + 1 < cols {
                            d.push(p + 1);
                        }
                        d
                    }
                };
                deps.sort_unstable();
                deps.dedup();
                t = t.with_deps(deps.into_iter().map(|d| base + d).collect());
            }
            tasks.push(t);
        }
    }
    tasks
}

/// The scheduler-sweep ring workload (`repro sched` and the
/// `simtrace` default): `parts` partitions × `iters` iterations,
/// 16 MiB splits, 64 KB of messages per task, each task feeding its
/// own next iteration plus both ring neighbours. Sized so the critical
/// path through slow nodes dominates a start-time-greedy placement on
/// the straggler cluster.
pub fn ring_exchange(parts: usize, iters: usize, ops: u64) -> Vec<AsyncTaskSpec> {
    let mut tasks = Vec::with_capacity(parts * iters);
    for it in 0..iters {
        for p in 0..parts {
            let mut spec = AsyncTaskSpec::new(p, it, 16 << 20, ops).with_output(1_000, 64_000);
            if it > 0 {
                let base = (it - 1) * parts;
                let mut deps =
                    vec![base + (p + parts - 1) % parts, base + p, base + (p + 1) % parts];
                deps.sort_unstable();
                deps.dedup();
                spec = spec.with_deps(deps);
            }
            tasks.push(spec);
        }
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_exchange_is_topological() {
        let tasks = ring_exchange(8, 8, 40_000_000);
        assert_eq!(tasks.len(), 64);
        for (i, t) in tasks.iter().enumerate() {
            for &d in &t.deps {
                assert!(d < i, "task {i} has a forward dep {d}");
            }
        }
    }

    #[test]
    fn schedules_are_topological_and_stable() {
        for app in APPS {
            let a = async_schedule(app);
            let b = async_schedule(app);
            assert_eq!(a, b, "{app}: workload must be a pure function of the name");
            for (i, t) in a.iter().enumerate() {
                for &d in &t.deps {
                    assert!(d < i, "{app}: task {i} has a forward dep {d}");
                }
            }
            assert_eq!(a.len(), shape(app).parts * shape(app).iters);
            assert_eq!(barrier_jobs(app).len(), shape(app).iters);
        }
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_is_rejected() {
        let _ = shape("wordcount");
    }
}
