//! Eager K-Means — partial synchronization per Yom-Tov & Slonim (§V-D).
//!
//! "In Eager K-Means, each global map handles a unique subset of the
//! input points. The local map and local reduce iterations inside the
//! global map cluster the given subset of the points using the common
//! input-cluster centroids. Once the local iterations converge, the
//! global map emits the input-centroids and their associated
//! updated-centroids. The global reduce calculates the final-centroids,
//! which is the mean of all updated-centroids corresponding to a single
//! input-centroid."
//!
//! Both refinements the paper takes from \[12\] are implemented: points
//! are **re-partitioned across gmaps every few global iterations**, and
//! global convergence adds **oscillation detection** to the Euclidean
//! threshold.

use std::sync::Arc;

use asyncmr_core::prelude::*;

use super::general::{ClusterUpdate, KmGeneralInput, KmMeanReducer};
use super::rule::{add_update, divide};
use super::{partition_indices, sse, ConvergenceTracker, KMeansConfig, KMeansOutcome, Point};
use crate::common::step_status;

/// Points are re-partitioned across gmaps every this many global
/// iterations (paper/\[12\]).
pub const REPARTITION_EVERY: usize = 5;

/// Oscillation-detection window: the number of previous centroid sets
/// a new one is compared against.
pub const OSCILLATION_WINDOW: usize = 6;

/// `lmap` and its fold: local Lloyd iterations over the subset.
///
/// Local state: `cid → (centroid, member count)`, every centroid id
/// `0..k`, so group `g` is centroid `g`. `lmap` assigns one point
/// against the *current local* centroids and folds it into its
/// centroid's sum; the end of the pass takes each centroid as the mean
/// of its local members. A centroid that attracts no local point keeps
/// its previous position, with count 0.
#[derive(Debug, Clone, Copy)]
pub struct KmLocalAlgorithm {
    /// Local convergence threshold (same δ as global, per the paper).
    pub threshold: f64,
}

impl LocalAlgorithm for KmLocalAlgorithm {
    type Input = KmGeneralInput;
    type Key = u32; // input-centroid id
    type Value = ClusterUpdate;
    type Intermediate = ClusterUpdate;

    fn init_state(&self, _task: usize, input: &KmGeneralInput) -> Vec<(u32, ClusterUpdate)> {
        input.centroids.iter().enumerate().map(|(cid, c)| (cid as u32, (c.clone(), 0))).collect()
    }

    fn lmap(
        &self,
        _task: usize,
        input: &KmGeneralInput,
        state: &[ClusterUpdate],
        ctx: &mut LocalMapContext<Self>,
    ) {
        let mut ops = 0;
        for &i in input.indices.iter() {
            let point = &input.points[i as usize];
            // Nearest over the *local* evolving centroids, in cid order.
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (g, (centroid, _)) in state.iter().enumerate() {
                let d = super::dist2(point, centroid);
                if d < best_d {
                    best = g;
                    best_d = d;
                }
            }
            // The distances, and the point's share of its centroid's sum.
            ops += ((state.len() + 1) * point.len()) as u64;
            ctx.emit_to(best, (point.clone(), 1));
        }
        ctx.add_ops(ops);
    }

    /// `lreduce` as a fold: the sum and count of the members, from
    /// zeros — General's in-mapper fold, a point at a time.
    fn init(&self, input: &KmGeneralInput, sums: &mut Vec<ClusterUpdate>) {
        sums.extend(input.centroids.iter().map(|c| (vec![0.0; c.len()], 0)));
    }

    fn fold(acc: &mut ClusterUpdate, update: ClusterUpdate) {
        add_update(acc, &update);
    }

    /// The members' mean, divided as the mean reducer divides; a
    /// centroid with no member keeps its `old` position, with count 0
    /// so `finalize` won't weight it into the global mean. It settled
    /// if it moved less than the threshold.
    fn finish(
        &self,
        _input: &KmGeneralInput,
        _g: usize,
        old: &ClusterUpdate,
        acc: &mut ClusterUpdate,
    ) -> bool {
        if acc.1 == 0 {
            acc.0.clone_from(&old.0);
        } else {
            *acc = divide(std::mem::take(acc));
        }
        super::dist2(&old.0, &acc.0).sqrt() < self.threshold
    }

    /// Emit `(input-centroid id, count-weighted updated centroid)` so
    /// the global mean pools member points across gmaps.
    fn finalize(
        &self,
        _task: usize,
        _input: &KmGeneralInput,
        cids: &[u32],
        state: &[ClusterUpdate],
        ctx: &mut MapContext<u32, ClusterUpdate>,
    ) {
        for (cid, (centroid, count)) in cids.iter().zip(state) {
            if *count == 0 {
                continue; // this gmap has no opinion on the centroid
            }
            let scaled: Vec<f64> = centroid.iter().map(|v| v * *count as f64).collect();
            ctx.add_ops(centroid.len() as u64);
            ctx.emit_intermediate(*cid, (scaled, *count));
        }
    }

    fn input_bytes(&self, _task: usize, input: &KmGeneralInput) -> Option<u64> {
        Some(input.approx_bytes())
    }
}

/// Runs Eager K-Means from seeded random initial centroids.
pub fn run_eager(
    engine: &mut Engine<'_>,
    points: &Arc<Vec<Point>>,
    num_partitions: usize,
    cfg: &KMeansConfig,
) -> KMeansOutcome {
    run_eager_from(engine, points, num_partitions, cfg, None)
}

/// Like [`run_eager`] but from explicit initial centroids.
pub fn run_eager_from(
    engine: &mut Engine<'_>,
    points: &Arc<Vec<Point>>,
    num_partitions: usize,
    cfg: &KMeansConfig,
    initial: Option<Vec<Point>>,
) -> KMeansOutcome {
    let n = points.len();
    let mut centroids = cfg.start(points, num_partitions, initial);
    let algo = KmLocalAlgorithm { threshold: cfg.threshold };
    let gmap = EagerMapper::new(algo);
    let opts = JobOptions::with_reducers(cfg.num_reducers);
    let mut tracker = ConvergenceTracker::new(cfg.threshold, OSCILLATION_WINDOW);
    let mut groups = partition_indices(n, num_partitions, None);

    let driver = FixedPointDriver::new(cfg.max_iterations);
    let report = driver.run(engine, |engine, iter| {
        // Paper/[12]: "Every few iterations, the input points need to
        // be partitioned differently across global maps."
        if iter > 0 && iter.is_multiple_of(REPARTITION_EVERY) {
            groups = partition_indices(
                n,
                num_partitions,
                Some(cfg.seed ^ (iter as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
        }
        let inputs = KmGeneralInput::for_groups(points, &groups, &centroids);
        // The greduce pools the gmaps' count-scaled centroids: the mean
        // reducer General runs.
        let out =
            engine.run(&format!("kmeans-eager-iter{iter}"), &inputs, &gmap, &KmMeanReducer, &opts);
        step_status(tracker.advance(&mut centroids, out.pairs))
    });
    let sse_value = sse(points, &centroids);
    KMeansOutcome { centroids, sse: sse_value, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::data::census_like;
    use crate::kmeans::general::run_general_from;
    use asyncmr_runtime::ThreadPool;

    #[test]
    fn clusters_census_data_with_reasonable_quality() {
        let data = census_like(1500, 16, 5, 3);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 5, 7);
        let cfg = KMeansConfig { k: 5, threshold: 0.001, ..Default::default() };
        let pool = ThreadPool::new(4);
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager_from(&mut e1, &points, 8, &cfg, Some(initial.clone()));
        let mut e2 = Engine::in_process(&pool);
        let general = run_general_from(&mut e2, &points, 8, &cfg, Some(initial));
        assert!(eager.report.converged);
        // Same data, same init: cluster quality must be comparable
        // (paper claims no loss; allow some slack — different optima).
        assert!(
            eager.sse < general.sse * 1.4,
            "eager SSE {:.1} vs general SSE {:.1}",
            eager.sse,
            general.sse
        );
    }

    #[test]
    fn fewer_global_iterations_than_general() {
        // Paper Fig. 8: "Eager K-Means converges in less than one-third
        // of the global iterations taken by general K-Means."
        let data = census_like(2000, 20, 6, 11);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 6, 5);
        let cfg = KMeansConfig { k: 6, threshold: 0.0001, ..Default::default() };
        let pool = ThreadPool::new(4);
        let mut e1 = Engine::in_process(&pool);
        let eager = run_eager_from(&mut e1, &points, 8, &cfg, Some(initial.clone()));
        let mut e2 = Engine::in_process(&pool);
        let general = run_general_from(&mut e2, &points, 8, &cfg, Some(initial));
        assert!(
            eager.report.global_iterations < general.report.global_iterations,
            "eager {} vs general {} global iterations",
            eager.report.global_iterations,
            general.report.global_iterations
        );
        assert!(eager.report.local_syncs > eager.report.global_iterations as u64);
    }

    #[test]
    fn single_partition_converges_fast() {
        let data = census_like(600, 10, 3, 2);
        let points = Arc::new(data.points);
        let cfg = KMeansConfig { k: 3, threshold: 0.001, ..Default::default() };
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager(&mut engine, &points, 1, &cfg);
        // One gmap = full Lloyd locally; needs very few global rounds.
        assert!(out.report.global_iterations <= 3, "{}", out.report.global_iterations);
    }

    #[test]
    fn partition_indices_cover_everything() {
        let groups = partition_indices(103, 7, Some(42));
        let mut all: Vec<u32> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // Shuffled version differs from unshuffled.
        let plain = partition_indices(103, 7, None);
        assert_ne!(groups, plain);
    }

    #[test]
    fn every_partition_gets_a_group_as_in_general() {
        for (n, k) in [(100, 52), (9, 6), (3, 5)] {
            let groups = partition_indices(n, k, Some(3));
            assert_eq!(groups.len(), k, "n = {n}, k = {k}");
            let sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
            let ranges: Vec<usize> = crate::kmeans::split(n, k).map(|r| r.len()).collect();
            assert_eq!(sizes, ranges, "n = {n}, k = {k}");
        }
        // Both formulations' first jobs: one task per partition, reading
        // every point once.
        let (n, dims, k) = (100, 4, 52);
        let points = Arc::new(census_like(n, dims, 2, 1).points);
        let cfg = KMeansConfig { k: 2, max_iterations: 1, ..Default::default() };
        let pool = ThreadPool::new(2);
        let (mut e1, mut e2) = (Engine::in_process(&pool), Engine::in_process(&pool));
        run_general_from(&mut e1, &points, k, &cfg, None);
        run_eager_from(&mut e2, &points, k, &cfg, None);
        let (general, eager) = (&e1.history()[0].meter, &e2.history()[0].meter);
        assert_eq!((general.map_tasks, eager.map_tasks), (k, k));
        assert_eq!(general.input_bytes, (n * dims * 8) as u64);
        assert_eq!(eager.input_bytes, general.input_bytes);
    }

    #[test]
    fn repartitioning_changes_groups_between_rounds() {
        let a = partition_indices(50, 4, Some(1));
        let b = partition_indices(50, 4, Some(2));
        assert_ne!(a, b);
    }

    /// K-Means is the workload whose `lmap` groups (the assigned
    /// cluster ids) change from one local pass to the next and only
    /// freeze as a gmap converges; it folds each point into its group's
    /// accumulator and carries an unchosen centroid from its old value.
    /// None of that may show: every number below was captured from the
    /// commit before plan reuse and the flat local state (full sort +
    /// `BTreeMap` on every pass). The reference engine shares
    /// `EagerMapper`, so only constants can pin this.
    #[test]
    fn key_churn_across_local_passes_matches_golden_run() {
        const CENTROID_BITS: [[u64; 6]; 4] = [
            [
                0x3ff26c9b26c9b26d,
                0x401345d1745d1746,
                0x3fe64d9364d9364e,
                0x3fe64d9364d9364e,
                0x4010000000000000,
                0x40162e8ba2e8ba2f,
            ],
            [
                0x3ff5a8cdb1bf295d,
                0x3fd07d348a9ebe0b,
                0x3fe7324e40d6a337,
                0x3fe9927206b519b6,
                0x40101ad466d8df95,
                0x401acb756141f4d2,
            ],
            [
                0x3ff23ee08fb823ee,
                0x401698b3a62ce98b,
                0x3fe79435e50d7943,
                0x3fe9d31674c59d31,
                0x4011c11f7047dc12,
                0x3fd5555555555555,
            ],
            [
                0x3ff29161f9add3c1,
                0x3fe2f684bda12f68,
                0x3fe3c0ca4587e6b7,
                0x3fe5ba781948b0fd,
                0x40103f35ba781949,
                0x3ff684bda12f684c,
            ],
        ];
        let data = census_like(400, 6, 4, 5);
        let points = Arc::new(data.points);
        let initial = crate::kmeans::initial_centroids(&points, 4, 3);
        let cfg = KMeansConfig { k: 4, threshold: 0.001, ..Default::default() };
        let pool = ThreadPool::new(2);
        let mut engine = Engine::in_process(&pool);
        let out = run_eager_from(&mut engine, &points, 3, &cfg, Some(initial));
        let bits: Vec<Vec<u64>> =
            out.centroids.iter().map(|c| c.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(bits, CENTROID_BITS);
        assert!(out.report.converged);
        assert_eq!(out.report.global_iterations, 3);
        assert_eq!(out.report.local_syncs, 35);
        assert_eq!(out.report.total_ops, 145_016);
    }
}
