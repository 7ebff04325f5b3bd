//! K-Means's math, written once: the sum/count fold that pools member
//! points into a centroid, and the config check.
//!
//! General's mapper ([`super::general::KmGeneralMapper`]) folds each
//! task's points into per-centroid sums, a borrowed point at a time
//! ([`add_sum`]); the reducer General and Eager share
//! ([`super::general::KmMeanReducer`]) takes the [`mean`] of the fold,
//! and Eager's `lreduce` ([`super::eager::KmLocalAlgorithm`]) is the
//! same fold taken a point at a time ([`add_update`]), then [`divide`]d. Eager's `finalize`
//! scales each local centroid back by its count, so the global mean
//! pools member points across gmaps. The sequential reference
//! ([`super::reference::lloyd`]) sums point by point, so it is not
//! bitwise this fold and keeps its own loop as the independent oracle.
//! `run_general_from` and `run_eager_from`, behind every entry point,
//! start from `KMeansConfig::start`, which checks the partition count
//! and calls [`KMeansConfig::validate`].

use super::general::ClusterUpdate;
use super::{KMeansConfig, Point};
use crate::common::check_bound;

impl KMeansConfig {
    /// Checks the config, and the explicit initial centroids if given,
    /// against the points to cluster.
    ///
    /// # Panics
    ///
    /// Naming the field or argument and its value, if `k` is 0, if
    /// `threshold` is not finite and > 0, if there are no points, if
    /// `initial` does not hold `k` centroids of the points' dimension
    /// (a shorter centroid would be compared on its prefix only), or,
    /// with no `initial`, if there are fewer than `k` points to draw
    /// the seeded start from.
    pub fn validate(&self, points: &[Point], initial: Option<&[Point]>) {
        assert!(self.k > 0, "KMeansConfig::k is 0; clustering needs ≥ 1 centroid");
        check_bound("KMeansConfig::threshold", self.threshold);
        assert!(!points.is_empty(), "points is empty; clustering needs ≥ 1 point");
        let Some(initial) = initial else {
            return check_seeded_start(self.k, points.len());
        };
        assert!(
            initial.len() == self.k,
            "initial has {} centroids; KMeansConfig::k is {}",
            initial.len(),
            self.k
        );
        let dims = points[0].len();
        if let Some(i) = initial.iter().position(|c| c.len() != dims) {
            panic!(
                "initial centroid {i} has {} dimensions; the points have {dims}",
                initial[i].len()
            );
        }
    }

    /// The centroids a run over `num_partitions` gmaps starts from:
    /// `initial`, validated with the config, or `k` seeded random
    /// points.
    ///
    /// # Panics
    ///
    /// If `num_partitions` is 0, and as [`KMeansConfig::validate`] does.
    pub(crate) fn start(
        &self,
        points: &[Point],
        num_partitions: usize,
        initial: Option<Vec<Point>>,
    ) -> Vec<Point> {
        assert!(num_partitions > 0, "num_partitions is 0; K-Means needs ≥ 1 partition");
        self.validate(points, initial.as_deref());
        initial.unwrap_or_else(|| super::initial_centroids(points, self.k, self.seed))
    }
}

/// Panics unless `k` distinct points can be drawn from `n`: the seeded
/// start's check, naming both.
pub(crate) fn check_seeded_start(k: usize, n: usize) {
    assert!((1..=n).contains(&k), "k is {k}; a seeded start draws 1 ≤ k ≤ {n} of the {n} points");
}

/// Adds `sum`, element by element, and `count` into `acc`: a borrowed
/// point is `add_sum(acc, point, 1)`.
#[inline]
pub(crate) fn add_sum(acc: &mut ClusterUpdate, sum: &[f64], count: u64) {
    for (s, v) in acc.0.iter_mut().zip(sum) {
        *s += v;
    }
    acc.1 += count;
}

/// Adds `update`'s sum, element by element, and its count into `acc`.
#[inline]
pub(crate) fn add_update(acc: &mut ClusterUpdate, (vec, c): &ClusterUpdate) {
    add_sum(acc, vec, *c);
}

/// The element-wise sum and the total count of partial cluster updates,
/// folded in the order given.
pub(crate) fn fold(updates: &[ClusterUpdate]) -> ClusterUpdate {
    let mut acc = (vec![0.0f64; updates[0].0.len()], 0);
    updates.iter().for_each(|update| add_update(&mut acc, update));
    acc
}

/// A folded sum divided by its count unless the count is 0: the mean of
/// the pooled member points, and how many there were.
pub(crate) fn divide((mut sum, count): ClusterUpdate) -> ClusterUpdate {
    if count > 0 {
        sum.iter_mut().for_each(|s| *s /= count as f64);
    }
    (sum, count)
}

/// [`divide`] of the [`fold`].
pub(crate) fn mean(updates: &[ClusterUpdate]) -> ClusterUpdate {
    divide(fold(updates))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::kmeans::eager::{run_eager, run_eager_from};
    use crate::kmeans::general::{run_general, run_general_from};
    use asyncmr_core::Engine;
    use asyncmr_runtime::ThreadPool;

    fn run(f: impl FnOnce(&mut Engine<'_>, &Arc<Vec<Point>>)) {
        let points = Arc::new(vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![4.0, 4.0]]);
        let pool = ThreadPool::new(1);
        f(&mut Engine::in_process(&pool), &points);
    }

    #[test]
    fn mean_pools_counts_and_keeps_an_empty_sum() {
        assert_eq!(mean(&[(vec![2.0, 4.0], 1), (vec![4.0, 2.0], 3)]), (vec![1.5, 1.5], 4));
        assert_eq!(mean(&[(vec![0.0], 0)]), (vec![0.0], 0));
    }

    #[test]
    #[should_panic(expected = "KMeansConfig::k is 0; clustering needs ≥ 1 centroid")]
    fn zero_centroids_are_refused() {
        let cfg = KMeansConfig { k: 0, ..Default::default() };
        run(|engine, points| drop(run_general(engine, points, 2, &cfg)));
    }

    #[test]
    #[should_panic(expected = "KMeansConfig::threshold is NaN; it must be finite and > 0")]
    fn a_nan_threshold_is_refused() {
        let cfg = KMeansConfig { k: 2, threshold: f64::NAN, ..Default::default() };
        run(|engine, points| drop(run_eager(engine, points, 2, &cfg)));
    }

    #[test]
    #[should_panic(expected = "num_partitions is 0; K-Means needs ≥ 1 partition")]
    fn zero_partitions_are_refused() {
        let cfg = KMeansConfig { k: 2, ..Default::default() };
        run(|engine, points| drop(run_eager(engine, points, 0, &cfg)));
    }

    #[test]
    #[should_panic(expected = "points is empty; clustering needs ≥ 1 point")]
    fn no_points_are_refused() {
        let cfg = KMeansConfig { k: 1, ..Default::default() };
        let pool = ThreadPool::new(1);
        drop(run_general(&mut Engine::in_process(&pool), &Arc::new(Vec::new()), 2, &cfg));
    }

    #[test]
    #[should_panic(expected = "k is 4; a seeded start draws 1 ≤ k ≤ 3 of the 3 points")]
    fn more_centroids_than_points_are_refused() {
        let cfg = KMeansConfig { k: 4, ..Default::default() };
        run(|engine, points| drop(run_general(engine, points, 2, &cfg)));
    }

    #[test]
    #[should_panic(expected = "initial has 1 centroids; KMeansConfig::k is 2")]
    fn too_few_initial_centroids_are_refused() {
        let cfg = KMeansConfig { k: 2, ..Default::default() };
        let initial = Some(vec![vec![0.0, 0.0]]);
        run(|engine, points| drop(run_general_from(engine, points, 2, &cfg, initial)));
    }

    #[test]
    #[should_panic(expected = "initial centroid 1 has 1 dimensions; the points have 2")]
    fn a_short_initial_centroid_is_refused() {
        // `dist2` zips: unchecked, it would be compared on the prefix.
        let cfg = KMeansConfig { k: 2, ..Default::default() };
        let initial = Some(vec![vec![0.0, 0.0], vec![4.0]]);
        run(|engine, points| drop(run_eager_from(engine, points, 2, &cfg, initial)));
    }
}
