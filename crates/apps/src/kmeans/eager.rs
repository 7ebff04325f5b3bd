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
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::general::{ClusterUpdate, KmMeanReducer};
use super::rule::mean;
use super::{sse, ConvergenceTracker, KMeansConfig, KMeansOutcome, Point};
use crate::common::step_status;

/// Points are re-partitioned across gmaps every this many global
/// iterations (paper/\[12\]).
pub const REPARTITION_EVERY: usize = 5;

/// Oscillation-detection window: the number of previous centroid sets
/// a new one is compared against.
pub const OSCILLATION_WINDOW: usize = 6;

/// `gmap` input: this task's point subset plus the common centroids.
#[derive(Debug, Clone)]
pub struct KmEagerInput {
    /// The full (shared) point set.
    pub points: Arc<Vec<Point>>,
    /// Indices of the points this gmap owns this iteration.
    pub indices: Vec<u32>,
    /// The common input centroids.
    pub centroids: Arc<Vec<Point>>,
}

/// `lmap`/`lreduce` pair: local Lloyd iterations over the subset.
///
/// Local state: `cid → (centroid, member count)`. `lmap` assigns one
/// point against the *current local* centroids; `lreduce` recomputes a
/// centroid as the mean of its local members. Centroids that attract no
/// local points are carried forward with count 0 (`post_lreduce`).
#[derive(Debug, Clone, Copy)]
pub struct KmLocalAlgorithm {
    /// Local convergence threshold (same δ as global, per the paper).
    pub threshold: f64,
}

impl LocalAlgorithm for KmLocalAlgorithm {
    type Input = KmEagerInput;
    type Item = u32; // point index
    type Key = u32; // input-centroid id
    type Value = ClusterUpdate;

    fn items<'a>(&self, input: &'a KmEagerInput) -> &'a [u32] {
        &input.indices
    }

    fn init_state(&self, _task: usize, input: &KmEagerInput) -> Vec<(u32, ClusterUpdate)> {
        input.centroids.iter().enumerate().map(|(cid, c)| (cid as u32, (c.clone(), 0))).collect()
    }

    fn lmap(
        &self,
        _task: usize,
        input: &KmEagerInput,
        item: &u32,
        state: &LocalState<u32, ClusterUpdate>,
        ctx: &mut LocalMapContext<u32, ClusterUpdate>,
    ) {
        let point = &input.points[*item as usize];
        // Nearest over the *local* evolving centroids, in cid order.
        let mut best_cid = 0u32;
        let mut best_d = f64::INFINITY;
        for (cid, (centroid, _)) in state {
            let d = super::dist2(point, centroid);
            if d < best_d {
                best_cid = *cid;
                best_d = d;
            }
        }
        ctx.add_ops((state.len() * point.len()) as u64);
        ctx.emit_local_intermediate(best_cid, (point.clone(), 1));
    }

    fn lreduce(
        &self,
        _task: usize,
        _input: &KmEagerInput,
        key: &u32,
        values: &[ClusterUpdate],
        ctx: &mut LocalReduceContext<u32, ClusterUpdate>,
    ) {
        let (centroid, count) = mean(values);
        ctx.add_ops((values.len() * centroid.len()) as u64);
        ctx.emit_local(*key, (centroid, count));
    }

    fn post_lreduce(
        &self,
        _task: usize,
        _input: &KmEagerInput,
        old: &LocalState<u32, ClusterUpdate>,
        new: &mut LocalState<u32, ClusterUpdate>,
    ) {
        // Empty clusters keep their previous position, with count 0 so
        // `finalize` won't weight them into the global mean.
        for (cid, (centroid, _)) in old {
            if new.get(cid).is_none() {
                new.insert(*cid, (centroid.clone(), 0));
            }
        }
    }

    fn locally_converged(
        &self,
        old: &LocalState<u32, ClusterUpdate>,
        new: &LocalState<u32, ClusterUpdate>,
    ) -> bool {
        old.iter().all(|(cid, (c_old, _))| match new.get(cid) {
            Some((c_new, _)) => super::dist2(c_old, c_new).sqrt() < self.threshold,
            None => false,
        })
    }

    /// Emit `(input-centroid id, count-weighted updated centroid)` so
    /// the global mean pools member points across gmaps.
    fn finalize(
        &self,
        _task: usize,
        _input: &KmEagerInput,
        state: &LocalState<u32, ClusterUpdate>,
        ctx: &mut MapContext<u32, ClusterUpdate>,
    ) {
        for (cid, (centroid, count)) in state {
            if *count == 0 {
                continue; // this gmap has no opinion on the centroid
            }
            let scaled: Vec<f64> = centroid.iter().map(|v| v * *count as f64).collect();
            ctx.add_ops(centroid.len() as u64);
            ctx.emit_intermediate(*cid, (scaled, *count));
        }
    }

    fn input_bytes(&self, _task: usize, input: &KmEagerInput) -> Option<u64> {
        let dims = input.centroids.first().map_or(0, Vec::len) as u64;
        Some(input.indices.len() as u64 * dims * 8)
    }
}

/// Splits point indices into `num_partitions` groups; `shuffle_seed`
/// (when `Some`) permutes the points first — the paper's periodic
/// re-partitioning.
fn partition_indices(n: usize, num_partitions: usize, shuffle_seed: Option<u64>) -> Vec<Vec<u32>> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    if let Some(seed) = shuffle_seed {
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    let chunk = n.div_ceil(num_partitions);
    idx.chunks(chunk.max(1)).map(<[u32]>::to_vec).collect()
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
    assert!(num_partitions >= 1 && n > 0, "need points and at least one partition");
    let mut centroids = cfg.start(points, initial);
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
        let shared = Arc::new(centroids.clone());
        let inputs: Vec<KmEagerInput> = groups
            .iter()
            .map(|indices| KmEagerInput {
                points: Arc::clone(points),
                indices: indices.clone(),
                centroids: Arc::clone(&shared),
            })
            .collect();
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
    fn repartitioning_changes_groups_between_rounds() {
        let a = partition_indices(50, 4, Some(1));
        let b = partition_indices(50, 4, Some(2));
        assert_ne!(a, b);
    }

    /// K-Means is the workload whose `lmap` keys (the assigned cluster
    /// ids) change from one local pass to the next and only freeze as
    /// a gmap converges, so the local sync's grouping plan misses, then
    /// hits. Both must be invisible: every number below was captured
    /// from the commit before plan reuse and the flat `LocalState`
    /// (full sort + `BTreeMap` on every pass). The reference engine
    /// shares `EagerMapper`, so only constants can pin this.
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
