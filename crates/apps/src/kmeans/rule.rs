//! K-Means's math, written once: the sum/count fold that pools member
//! points into a centroid, and the config check.
//!
//! General's combiner ([`super::general::KmCombiner`]) folds; the
//! reducer General and Eager share ([`super::general::KmMeanReducer`])
//! and Eager's `lreduce` ([`super::eager::KmLocalAlgorithm`]) take the
//! [`mean`] of the fold. Eager's `finalize` scales each local centroid
//! back by its count, so the global mean pools member points across
//! gmaps. The sequential reference ([`super::reference::lloyd`]) sums
//! point by point, so it is not bitwise this fold and keeps its own loop
//! as the independent oracle. `run_general_from` and `run_eager_from`,
//! behind every entry point, start from `KMeansConfig::start`, which
//! calls [`KMeansConfig::validate`].

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
    /// `threshold` is not finite and > 0, or if `initial` does not hold
    /// `k` centroids of the points' dimension (a shorter centroid would
    /// be compared on its prefix only).
    pub fn validate(&self, points: &[Point], initial: Option<&[Point]>) {
        assert!(self.k > 0, "KMeansConfig::k is 0; clustering needs ≥ 1 centroid");
        check_bound("KMeansConfig::threshold", self.threshold);
        let Some(initial) = initial else { return };
        assert!(
            initial.len() == self.k,
            "initial has {} centroids; KMeansConfig::k is {}",
            initial.len(),
            self.k
        );
        let dims = points.first().map_or(0, Vec::len);
        if let Some(i) = initial.iter().position(|c| c.len() != dims) {
            panic!(
                "initial centroid {i} has {} dimensions; the points have {dims}",
                initial[i].len()
            );
        }
    }

    /// The centroids a run starts from: `initial`, validated with the
    /// config, or `k` seeded random points.
    pub(crate) fn start(&self, points: &[Point], initial: Option<Vec<Point>>) -> Vec<Point> {
        self.validate(points, initial.as_deref());
        initial.unwrap_or_else(|| super::initial_centroids(points, self.k, self.seed))
    }
}

/// The element-wise sum and the total count of partial cluster updates,
/// folded in the order given.
pub(crate) fn fold(updates: &[ClusterUpdate]) -> ClusterUpdate {
    let mut sum = vec![0.0f64; updates[0].0.len()];
    let mut count = 0u64;
    for (vec, c) in updates {
        for (s, v) in sum.iter_mut().zip(vec) {
            *s += v;
        }
        count += c;
    }
    (sum, count)
}

/// [`fold`], its sum divided by the count unless the count is 0: the
/// mean of the pooled member points, and how many there were.
pub(crate) fn mean(updates: &[ClusterUpdate]) -> ClusterUpdate {
    let (mut sum, count) = fold(updates);
    if count > 0 {
        sum.iter_mut().for_each(|s| *s /= count as f64);
    }
    (sum, count)
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
