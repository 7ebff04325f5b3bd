//! General (fully synchronous) MapReduce K-Means — the baseline.
//!
//! "In the map phase, every point chooses its closest cluster centroid
//! and in the reduce phase, every centroid is updated to be the mean of
//! all the points that chose the particular centroid" (§V-D, after
//! Chu et al. \[2\] / Mahout). One Lloyd step per global iteration. The
//! map combines in the mapper (Lin & Schatz's in-mapper combining): a
//! task sums its points per chosen centroid and ships one `(sum, count)`
//! record per centroid, which keeps the shuffle small.

use std::sync::Arc;

use asyncmr_core::prelude::*;

use super::rule::{add_sum, mean};
use super::{
    nearest, partition_indices, sse, ConvergenceTracker, KMeansConfig, KMeansOutcome, Point,
};
use crate::common::step_status;

/// A partial cluster update: element-wise sum of member points plus
/// their count. The reducer divides at the end.
pub type ClusterUpdate = (Vec<f64>, u64);

/// Map-task input of both formulations: this task's point subset plus
/// the iteration's shared centroids.
#[derive(Debug, Clone)]
pub struct KmGeneralInput {
    /// The full (shared) point set.
    pub points: Arc<Vec<Point>>,
    /// Positions in `points` of the points this task owns, shared
    /// across iterations until the next re-partitioning.
    pub indices: Arc<[u32]>,
    /// The common input centroids for this iteration.
    pub centroids: Arc<Vec<Point>>,
}

impl KmGeneralInput {
    /// One job's inputs: a task per group, each reading `centroids`.
    pub(crate) fn for_groups(
        points: &Arc<Vec<Point>>,
        groups: &[Arc<[u32]>],
        centroids: &[Point],
    ) -> Vec<Self> {
        let centroids = Arc::new(centroids.to_vec());
        let input = |indices: &Arc<[u32]>| KmGeneralInput {
            points: Arc::clone(points),
            indices: Arc::clone(indices),
            centroids: Arc::clone(&centroids),
        };
        groups.iter().map(input).collect()
    }

    /// Size of the task's split: its points' coordinates.
    pub(crate) fn approx_bytes(&self) -> u64 {
        let dims = self.centroids.first().map_or(0, Vec::len) as u64;
        self.indices.len() as u64 * dims * 8
    }
}

/// The general mapper: nearest-centroid assignment, combined in the
/// mapper. Each point is summed into its nearest centroid's `(sum,
/// count)` slot, in index order from zeros, and the task emits one
/// record per centroid some point chose, ids ascending.
#[derive(Debug, Clone, Copy, Default)]
pub struct KmGeneralMapper;

impl Mapper for KmGeneralMapper {
    type Input = KmGeneralInput;
    type Key = u32;
    type Value = ClusterUpdate;

    fn map(&self, _task: usize, input: &KmGeneralInput, ctx: &mut MapContext<u32, ClusterUpdate>) {
        ctx.meter.set_input_bytes(input.approx_bytes());
        let centroids = &input.centroids;
        let dims = centroids.first().map_or(0, Vec::len);
        let mut sums = vec![(vec![0.0; dims], 0); centroids.len()];
        for &i in input.indices.iter() {
            let p = &input.points[i as usize];
            let c = nearest(p, centroids);
            ctx.add_ops((centroids.len() * dims) as u64);
            add_sum(&mut sums[c], p, 1);
        }
        for (c, update) in sums.into_iter().enumerate().filter(|(_, (_, count))| *count > 0) {
            ctx.emit_intermediate(c as u32, update);
        }
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
    let mut centroids = cfg.start(points, num_partitions, initial);
    let opts = JobOptions::with_reducers(cfg.num_reducers);
    // General convergence: Euclidean threshold only (no oscillation
    // detection — that refinement belongs to the eager variant).
    let mut tracker = ConvergenceTracker::new(cfg.threshold, 0);
    // Fixed contiguous chunks (the general variant never repartitions).
    let groups = partition_indices(n, num_partitions, None);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        let inputs = KmGeneralInput::for_groups(points, &groups, &centroids);
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
    use crate::kmeans::rule::fold;
    use asyncmr_runtime::ThreadPool;
    use proptest::prelude::*;

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

    /// [`KmGeneralMapper`] before it combined: one `(centroid, (point,
    /// 1))` record per point, in index order.
    struct PerPointMapper;

    impl Mapper for PerPointMapper {
        type Input = KmGeneralInput;
        type Key = u32;
        type Value = ClusterUpdate;

        fn map(
            &self,
            _task: usize,
            input: &KmGeneralInput,
            ctx: &mut MapContext<u32, ClusterUpdate>,
        ) {
            ctx.meter.set_input_bytes(input.approx_bytes());
            let centroids = &input.centroids;
            let dims = centroids.first().map_or(0, Vec::len);
            for &i in input.indices.iter() {
                let p = &input.points[i as usize];
                let c = nearest(p, centroids);
                ctx.add_ops((centroids.len() * dims) as u64);
                ctx.emit_intermediate(c as u32, (p.clone(), 1));
            }
        }
    }

    /// One map task's emitted pairs, and its records and bytes.
    fn emitted(
        mapper: &impl Mapper<Input = KmGeneralInput, Key = u32, Value = ClusterUpdate>,
        input: &KmGeneralInput,
    ) -> (Vec<(u32, ClusterUpdate)>, u64, u64) {
        let mut ctx = MapContext::default();
        mapper.map(0, input, &mut ctx);
        let (pairs, _, records, bytes) = ctx.finish();
        (pairs, records, bytes)
    }

    /// A pair's bits: the key, the sum's coordinates and the count.
    fn pair_bits((cid, (sum, count)): &(u32, ClusterUpdate)) -> (u32, Vec<u64>, u64) {
        (*cid, sum.iter().map(|v| v.to_bits()).collect(), *count)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In-mapper combining is the per-point pairs grouped by
        /// `shuffle::group` and each group folded with `rule::fold`:
        /// the same keys in the same (ascending) order, the same sums
        /// bit for bit, the same records and bytes. Coordinates on a
        /// half-step grid make ties in `nearest` common; tasks may be
        /// empty, hold fewer points than there are centroids, and leave
        /// centroids unchosen.
        #[test]
        fn in_mapper_combining_folds_the_per_point_groups(
            points in proptest::collection::vec(proptest::collection::vec(0u8..5, 2), 0..40),
            centroids in proptest::collection::vec(proptest::collection::vec(0u8..5, 2), 1..9),
            tasks in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..12), 1..5),
        ) {
            let grid = |cs: Vec<Vec<u8>>| -> Vec<Point> {
                cs.into_iter().map(|c| c.into_iter().map(|x| f64::from(x) * 0.5).collect()).collect()
            };
            let points = Arc::new(grid(points));
            let centroids = grid(centroids);
            let n = points.len();
            let groups: Vec<Arc<[u32]>> = tasks
                .into_iter()
                .map(|t| t.into_iter().filter(|_| n > 0).map(|i| (i % n) as u32).collect())
                .collect();
            for input in KmGeneralInput::for_groups(&points, &groups, &centroids) {
                let (combined, records, bytes) = emitted(&KmGeneralMapper, &input);
                let (per_point, _, _) = emitted(&PerPointMapper, &input);
                let folded: Vec<(u32, ClusterUpdate)> = asyncmr_core::shuffle::group(per_point)
                    .into_iter()
                    .map(|(cid, updates)| (cid, fold(&updates)))
                    .collect();
                let want_bytes: u64 =
                    folded.iter().map(|(k, v)| k.approx_bytes() + v.approx_bytes()).sum();
                prop_assert_eq!(
                    combined.iter().map(pair_bits).collect::<Vec<_>>(),
                    folded.iter().map(pair_bits).collect::<Vec<_>>()
                );
                prop_assert_eq!((records, bytes), (folded.len() as u64, want_bytes));
            }
        }
    }

    /// K-Means is the workload whose shuffle keys (the assigned cluster
    /// ids) change from one job to the next, so the engine's remembered
    /// route and group plans are recorded, go stale and are recorded
    /// again — and none of it may show. Every number below was captured
    /// at the commit before the engine remembered anything. The first run is
    /// the application as shipped (in-mapper combining: a task's keys
    /// barely move); the second drives [`PerPointMapper`], one emitted
    /// key per point, with the same reducer, so the key sequences churn
    /// job after job.
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
        // Three chunks of 300 points: 0..300, 300..600, 600..900.
        let groups = partition_indices(900, 3, None);
        for iter in 0..10 {
            let inputs = KmGeneralInput::for_groups(&points, &groups, &centroids);
            let name = format!("kmeans-raw-iter{iter}");
            let out = engine.run(&name, &inputs, &PerPointMapper, &KmMeanReducer, &opts);
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
