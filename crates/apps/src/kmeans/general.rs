//! General (fully synchronous) MapReduce K-Means — the baseline.
//!
//! "In the map phase, every point chooses its closest cluster centroid
//! and in the reduce phase, every centroid is updated to be the mean of
//! all the points that chose the particular centroid" (§V-D, after
//! Chu et al. \[2\] / Mahout). One Lloyd step per global iteration, with
//! the classic sum/count combiner to keep the shuffle small.

use std::sync::Arc;

use asyncmr_core::prelude::*;

use super::rule::{fold, mean};
use super::{nearest, sse, ConvergenceTracker, KMeansConfig, KMeansOutcome, Point};
use crate::common::step_status;

/// A partial cluster update: element-wise sum of member points plus
/// their count. The reducer divides at the end.
pub type ClusterUpdate = (Vec<f64>, u64);

/// Map-task input: a contiguous chunk of the point set plus the
/// iteration's shared centroids.
#[derive(Debug, Clone)]
pub struct KmGeneralInput {
    /// The full (shared) point set.
    pub points: Arc<Vec<Point>>,
    /// This task's chunk: `points[start..end]`.
    pub start: usize,
    /// Chunk end (exclusive).
    pub end: usize,
    /// The common input centroids for this iteration.
    pub centroids: Arc<Vec<Point>>,
}

/// The general mapper: nearest-centroid assignment.
#[derive(Debug, Clone, Copy, Default)]
pub struct KmGeneralMapper;

impl Mapper for KmGeneralMapper {
    type Input = KmGeneralInput;
    type Key = u32;
    type Value = ClusterUpdate;

    fn map(&self, _task: usize, input: &KmGeneralInput, ctx: &mut MapContext<u32, ClusterUpdate>) {
        let centroids = &input.centroids;
        let dims = centroids.first().map_or(0, Vec::len);
        for p in &input.points[input.start..input.end] {
            let c = nearest(p, centroids);
            ctx.add_ops((centroids.len() * dims) as u64);
            ctx.emit_intermediate(c as u32, (p.clone(), 1));
        }
    }

    fn input_size_hint(&self, input: &KmGeneralInput) -> u64 {
        let dims = input.centroids.first().map_or(0, Vec::len) as u64;
        (input.end - input.start) as u64 * dims * 8
    }
}

/// Sum/count combiner — the aggregation Mahout applies map-side.
#[derive(Debug, Clone, Copy, Default)]
pub struct KmCombiner;

impl Combiner for KmCombiner {
    type Key = u32;
    type Value = ClusterUpdate;

    fn combine(&self, _key: &u32, values: &[ClusterUpdate]) -> ClusterUpdate {
        fold(values)
    }
}

/// The reducer of both variants: the mean of all member points. Eager's
/// gmaps emit count-scaled local centroids, so it pools their members
/// too.
#[derive(Debug, Clone, Copy, Default)]
pub struct KmMeanReducer;

impl Reducer for KmMeanReducer {
    type Key = u32;
    type ValueIn = ClusterUpdate;
    type Out = Vec<f64>;

    fn reduce(&self, key: &u32, values: &[ClusterUpdate], ctx: &mut ReduceContext<u32, Vec<f64>>) {
        let (centroid, count) = mean(values);
        ctx.add_ops((values.len() * centroid.len()) as u64);
        if count > 0 {
            ctx.emit(*key, centroid);
        }
        // count == 0 cannot happen (keys exist only when emitted), but
        // the guard documents the "empty cluster keeps position" rule
        // enforced by the driver.
    }
}

/// Runs General K-Means from seeded random initial centroids.
pub fn run_general(
    engine: &mut Engine<'_>,
    points: &Arc<Vec<Point>>,
    num_partitions: usize,
    cfg: &KMeansConfig,
) -> KMeansOutcome {
    run_general_from(engine, points, num_partitions, cfg, None)
}

/// Like [`run_general`] but from explicit initial centroids (used by
/// tests and the figure harness so both variants start identically).
pub fn run_general_from(
    engine: &mut Engine<'_>,
    points: &Arc<Vec<Point>>,
    num_partitions: usize,
    cfg: &KMeansConfig,
    initial: Option<Vec<Point>>,
) -> KMeansOutcome {
    let n = points.len();
    assert!(num_partitions >= 1 && n > 0, "need points and at least one partition");
    let mut centroids = cfg.start(points, initial);
    // Fixed contiguous chunks (the general variant never repartitions).
    // Both bounds are clamped: with more partitions than chunks the
    // trailing tasks legitimately receive empty ranges.
    let chunk = n.div_ceil(num_partitions);
    let ranges: Vec<(usize, usize)> =
        (0..num_partitions).map(|p| ((p * chunk).min(n), ((p + 1) * chunk).min(n))).collect();
    let opts = JobOptions::with_reducers(cfg.num_reducers).with_combiner(&KmCombiner);
    // General convergence: Euclidean threshold only (no oscillation
    // detection — that refinement belongs to the eager variant).
    let mut tracker = ConvergenceTracker::new(cfg.threshold, 0);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        let shared = Arc::new(centroids.clone());
        let inputs: Vec<KmGeneralInput> = ranges
            .iter()
            .map(|&(start, end)| KmGeneralInput {
                points: Arc::clone(points),
                start,
                end,
                centroids: Arc::clone(&shared),
            })
            .collect();
        let out = engine.run(
            &format!("kmeans-general-iter{iter}"),
            &inputs,
            &KmGeneralMapper,
            &KmMeanReducer,
            &opts,
        );
        step_status(tracker.advance(&mut centroids, out.pairs))
    });
    let sse_value = sse(points, &centroids);
    KMeansOutcome { centroids, sse: sse_value, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::data::census_like;
    use crate::kmeans::max_movement;
    use crate::kmeans::reference::lloyd;
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn matches_sequential_lloyd_exactly() {
        let data = census_like(1200, 16, 5, 3);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 5, 7);
        let cfg = KMeansConfig { k: 5, threshold: 0.001, ..Default::default() };
        let pool = ThreadPool::new(4);
        let mut engine = Engine::in_process(&pool);
        let out = run_general_from(&mut engine, &points, 6, &cfg, Some(initial.clone()));
        let (expected, seq_iters) = lloyd(&points, &initial, 0.001, 300);
        // One MapReduce job = one Lloyd step, identical arithmetic.
        assert_eq!(out.report.global_iterations, seq_iters);
        assert!(max_movement(&out.centroids, &expected) < 1e-9, "centroids deviate from Lloyd");
    }

    #[test]
    fn iteration_count_is_partition_independent() {
        let data = census_like(800, 12, 4, 5);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 4, 2);
        let cfg = KMeansConfig { k: 4, threshold: 0.01, ..Default::default() };
        let pool = ThreadPool::new(4);
        let mut iters = Vec::new();
        for parts in [1, 4, 13] {
            let mut engine = Engine::in_process(&pool);
            let out = run_general_from(&mut engine, &points, parts, &cfg, Some(initial.clone()));
            iters.push(out.report.global_iterations);
        }
        assert_eq!(iters[0], iters[1]);
        assert_eq!(iters[1], iters[2]);
    }

    #[test]
    fn more_partitions_than_chunk_coverage_is_safe() {
        // Regression: 52 partitions of 1,000 points once produced an
        // out-of-range chunk start (1020..1000). Trailing partitions
        // must simply be empty.
        let data = census_like(1000, 8, 3, 1);
        let points = Arc::new(data.points);
        let cfg = KMeansConfig { k: 3, threshold: 0.01, ..Default::default() };
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_general(&mut engine, &points, 52, &cfg);
        assert!(out.report.converged);
    }

    #[test]
    fn tighter_threshold_takes_more_iterations() {
        let data = census_like(1000, 16, 5, 9);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 5, 4);
        let pool = ThreadPool::new(4);
        let mut last = 0usize;
        for threshold in [0.1, 0.01, 0.001] {
            let cfg = KMeansConfig { k: 5, threshold, ..Default::default() };
            let mut engine = Engine::in_process(&pool);
            let out = run_general_from(&mut engine, &points, 5, &cfg, Some(initial.clone()));
            assert!(
                out.report.global_iterations >= last,
                "iterations should not decrease as δ tightens"
            );
            last = out.report.global_iterations;
        }
    }

    /// K-Means is the workload whose shuffle keys (the assigned cluster
    /// ids) change from one job to the next, so the engine's remembered
    /// route and group plans are recorded, go stale, are dropped and
    /// back off to the unplanned shuffle — and none of it may show. Every number below was captured at the
    /// commit before the engine remembered anything. The first run is
    /// the application as shipped (combiner on: post-combine keys
    /// barely move); the second drives the same mapper and reducer
    /// without the combiner, one emitted key per point, so the key
    /// sequences churn job after job.
    #[test]
    fn key_churn_across_jobs_matches_golden_run() {
        const APP_BITS: [[u64; 5]; 6] = [
            [
                0x3fdc46231188c462,
                0x3fd73b9dcee773ba,
                0x3fd0e070381c0e07,
                0x40207abd5eaf57ac,
                0x3fe150a8542a150b,
            ],
            [
                0x3fe2d2d2d2d2d2d3,
                0x3fe0000000000000,
                0x40125a5a5a5a5a5a,
                0x40065a5a5a5a5a5a,
                0x3ff52d2d2d2d2d2d,
            ],
            [0, 0, 0x3fcdac37dac37dac, 0x40206d61bed61bed, 0],
            [
                0x3fd75d75d75d75d7,
                0x3fd1451451451451,
                0x3fe2cb2cb2cb2cb3,
                0x3ffb2cb2cb2cb2cb,
                0x3febefbefbefbefc,
            ],
            [
                0x3fd8b4fc6d8b4fc7,
                0x3fd0ab75e10ab75e,
                0x3fd0f7aa450f7aa4,
                0x401ab29aca6b29ad,
                0x3fd7d05f417d05f4,
            ],
            [
                0x3fd79435e50d7943,
                0x3fd435e50d79435e,
                0x4011435e50d79436,
                0x401e79435e50d794,
                0x3fe1435e50d79436,
            ],
        ];
        const RAW_BITS: [[u64; 5]; 6] = [
            [
                0x3fdc46231188c462,
                0x3fd73b9dcee773ba,
                0x3fd0e070381c0e07,
                0x40207abd5eaf57ac,
                0x3fe150a8542a150b,
            ],
            [
                0x3fe2492492492492,
                0x3fe0750750750750,
                0x4011249249249249,
                0x4015075075075075,
                0x3fef15f15f15f15f,
            ],
            [0, 0, 0x3fcdac37dac37dac, 0x40206d61bed61bed, 0],
            [
                0x3fd9ec8e951033d9,
                0x3fd1d2a2067b23a5,
                0x3ff6e2d5df984dc6,
                0x3ff9b8b577e61371,
                0x3ff0000000000000,
            ],
            [
                0x3fd8d28ac42fd9b8,
                0x3fd0bf66e0e5aea7,
                0x3fce81323e34a2b1,
                0x401aa2b10bf66e0e,
                0x3fd6ba9de81323e3,
            ],
            [
                0x3fd4444444444444,
                0x3fd3333333333333,
                0x401199999999999a,
                0x4020000000000000,
                0x3fe1111111111111,
            ],
        ];
        let bits = |centroids: &[Point]| -> Vec<Vec<u64>> {
            centroids.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect()
        };
        let data = census_like(900, 5, 6, 13);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 6, 4);
        let cfg = KMeansConfig { k: 6, threshold: 1e-9, ..Default::default() };
        let pool = ThreadPool::new(2);

        let mut engine = Engine::in_process(&pool);
        let out = run_general_from(&mut engine, &points, 3, &cfg, Some(initial.clone()));
        assert_eq!(bits(&out.centroids), APP_BITS);
        assert!(out.report.converged);
        assert_eq!(out.report.global_iterations, 17);
        assert_eq!(out.report.total_ops, 460_515);

        let mut engine = Engine::in_process(&pool);
        let mut centroids = initial.clone();
        let opts = JobOptions::with_reducers(4);
        let (mut map_ops, mut reduce_ops, mut records, mut reduce_tasks) = (0, 0, 0, 0);
        let mut churned_jobs = 0;
        for iter in 0..10 {
            let shared = Arc::new(centroids.clone());
            let inputs: Vec<KmGeneralInput> = [(0, 300), (300, 600), (600, 900)]
                .into_iter()
                .map(|(start, end)| KmGeneralInput {
                    points: Arc::clone(&points),
                    start,
                    end,
                    centroids: Arc::clone(&shared),
                })
                .collect();
            let name = format!("kmeans-raw-iter{iter}");
            let out = engine.run(&name, &inputs, &KmGeneralMapper, &KmMeanReducer, &opts);
            map_ops += out.meter.map_ops;
            reduce_ops += out.meter.reduce_ops;
            records += out.meter.shuffle_records;
            reduce_tasks += out.meter.reduce_tasks;
            churned_jobs += usize::from(iter > 0 && out.reuse.route.misses > 0);
            for (cid, mean) in out.pairs {
                centroids[cid as usize] = mean;
            }
        }
        assert_eq!(bits(&centroids), RAW_BITS);
        assert_eq!((map_ops, reduce_ops, records, reduce_tasks), (270_000, 45_000, 9_000, 39));
        assert!(churned_jobs >= 5, "the keys must actually churn: {churned_jobs} of 9 jobs");
    }
}
