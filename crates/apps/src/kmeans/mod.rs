//! K-Means clustering (paper §V-D).
//!
//! The general variant is the Mahout-style iterative MapReduce: "in
//! the map phase, every point chooses its closest cluster centroid and
//! in the reduce phase, every centroid is updated to be the mean of
//! all the points that chose the particular centroid", iterating until
//! the maximum centroid movement (Euclidean) falls below a threshold δ.
//!
//! The eager variant follows Yom-Tov & Slonim \[12\]: each `gmap`
//! clusters *its own subset of points* to local convergence with the
//! common input centroids, emits `(input-centroid, updated-centroid)`
//! pairs, and the `greduce` averages them into the final centroids.
//! Two refinements from the paper: the points are **re-partitioned
//! across gmaps every few iterations** ("to avoid the algorithm's move
//! towards local optima"), and the global convergence test **detects
//! oscillations** in addition to the Euclidean threshold.
//!
//! Both variants read one map input, [`general::KmGeneralInput`]: the
//! shared points, a task's group of point indices and the iteration's
//! centroids. General's groups are `split`'s ranges, built once; they
//! are also Eager's until its first re-partitioning, which builds new
//! ones. The two drivers stay separate, because re-partitioning and
//! oscillation detection are Eager's alone.
//!
//! The sum/count fold both variants pool points with lives in `rule`.

pub mod data;
pub mod eager;
pub mod general;
pub mod reference;
mod rule;

pub use eager::run_eager;
pub use general::run_general;

use std::ops::Range;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::common::gap;

/// A data point / centroid: a dense vector.
pub type Point = Vec<f64>;

/// Configuration shared by the K-Means variants; each entry point
/// refuses one that fails [`KMeansConfig::validate`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Convergence threshold δ on centroid movement (paper sweeps
    /// 0.1 … 0.0001 in Figs. 8–9).
    pub threshold: f64,
    /// Cap on global iterations.
    pub max_iterations: usize,
    /// Reduce tasks per job.
    pub num_reducers: usize,
    /// Seed for initial centroids and re-partitioning.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 10,
            threshold: 0.001,
            max_iterations: 300,
            num_reducers: 16,
            seed: 0x5EED,
        }
    }
}

/// Result of a K-Means run.
#[derive(Debug, Clone)]
pub struct KMeansOutcome {
    /// Final centroids (`k` of them).
    pub centroids: Vec<Point>,
    /// Sum of squared distances of every point to its centroid.
    pub sse: f64,
    /// Global iterations, sync counts, simulated/real time.
    pub report: asyncmr_core::IterationReport,
}

/// Squared Euclidean distance.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Index of the nearest centroid (ties break to the lowest id).
#[inline]
pub fn nearest(point: &[f64], centroids: &[Point]) -> usize {
    debug_assert!(!centroids.is_empty());
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = dist2(point, c);
        if d < best_d {
            best = i;
            best_d = d;
        }
    }
    best
}

/// Maximum Euclidean movement between two centroid sets; +∞ if a
/// centroid's movement is NaN (the gap between it and no movement).
pub fn max_movement(old: &[Point], new: &[Point]) -> f64 {
    debug_assert_eq!(old.len(), new.len());
    old.iter().zip(new).map(|(a, b)| gap(dist2(a, b).sqrt(), 0.0)).fold(0.0, f64::max)
}

/// Sum of squared errors of `points` under `centroids`.
pub fn sse(points: &[Point], centroids: &[Point]) -> f64 {
    points.iter().map(|p| dist2(p, &centroids[nearest(p, centroids)])).sum()
}

/// Paper's initialization: "initial centroids are chosen at random for
/// the sake of generality" — `k` distinct points, seeded.
///
/// # Panics
///
/// Naming both, unless `1 ≤ k ≤ points.len()`.
pub fn initial_centroids(points: &[Point], k: usize, seed: u64) -> Vec<Point> {
    rule::check_seeded_start(k, points.len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.shuffle(&mut rng);
    idx.into_iter().take(k).map(|i| points[i].clone()).collect()
}

/// The one split of `n` points among `num_partitions` gmaps, which
/// General and Eager share: partition `p` takes positions
/// `p·⌈n/k⌉ .. (p+1)·⌈n/k⌉`, both bounds clamped to `n`, so there are
/// always `num_partitions` ranges and the trailing ones may be empty.
pub(crate) fn split(n: usize, num_partitions: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = n.div_ceil(num_partitions);
    (0..num_partitions).map(move |p| (p * chunk).min(n)..((p + 1) * chunk).min(n))
}

/// The gmaps' point-index groups: [`split`]'s ranges over the point
/// positions, permuted first when `shuffle_seed` is `Some` (Eager's
/// periodic re-partitioning). `None` gives General's groups, which are
/// also Eager's until its first re-partitioning.
pub(crate) fn partition_indices(
    n: usize,
    num_partitions: usize,
    shuffle_seed: Option<u64>,
) -> Vec<Arc<[u32]>> {
    let mut idx: Vec<u32> = (0..n as u32).collect();
    if let Some(seed) = shuffle_seed {
        idx.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    split(n, num_partitions).map(|range| Arc::from(&idx[range])).collect()
}

/// Global convergence state shared by the drivers: threshold plus
/// bounded-window oscillation detection (paper §V-D).
#[derive(Debug, Clone)]
pub(crate) struct ConvergenceTracker {
    threshold: f64,
    window: usize,
    history: Vec<Vec<Point>>,
}

impl ConvergenceTracker {
    pub(crate) fn new(threshold: f64, window: usize) -> Self {
        ConvergenceTracker { threshold, window, history: Vec::new() }
    }

    /// Feeds the new centroid set; returns `true` when converged either
    /// by movement or by revisiting a recent configuration (oscillation).
    pub(crate) fn converged(&mut self, old: &[Point], new: &[Point]) -> bool {
        if max_movement(old, new) < self.threshold {
            return true;
        }
        let oscillating = self.history.iter().any(|past| max_movement(past, new) < self.threshold);
        if self.window > 0 {
            self.history.push(new.to_vec());
            if self.history.len() > self.window {
                self.history.remove(0);
            }
        }
        oscillating
    }

    /// Writes a job's `(centroid id, mean)` pairs into `centroids` (an
    /// empty cluster keeps its position); returns whether the move
    /// [`ConvergenceTracker::converged`].
    pub(crate) fn advance(&mut self, centroids: &mut Vec<Point>, pairs: Vec<(u32, Point)>) -> bool {
        let mut next = centroids.clone();
        for (cid, mean) in pairs {
            next[cid as usize] = mean;
        }
        let done = self.converged(centroids, &next);
        *centroids = next;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist2_and_nearest() {
        let cs = vec![vec![0.0, 0.0], vec![10.0, 0.0]];
        assert_eq!(dist2(&[3.0, 4.0], &[0.0, 0.0]), 25.0);
        assert_eq!(nearest(&[1.0, 0.0], &cs), 0);
        assert_eq!(nearest(&[9.0, 0.0], &cs), 1);
        // Tie breaks low.
        assert_eq!(nearest(&[5.0, 0.0], &cs), 0);
    }

    #[test]
    fn movement_is_max_over_centroids() {
        let old = vec![vec![0.0], vec![0.0]];
        let new = vec![vec![1.0], vec![3.0]];
        assert_eq!(max_movement(&old, &new), 3.0);
    }

    #[test]
    fn a_nan_movement_is_infinite_not_settled() {
        // A NaN coordinate, in either set and in any centroid: never
        // below a threshold, whatever the other centroids moved.
        let (old, new) = (vec![vec![0.0], vec![0.0]], vec![vec![1.0], vec![f64::NAN]]);
        assert_eq!(max_movement(&old, &new), f64::INFINITY);
        assert_eq!(max_movement(&new, &old), f64::INFINITY);
        let (old, new) = (vec![vec![f64::NAN, 0.0], vec![2.0, 0.0]], vec![vec![0.0; 2]; 2]);
        assert_eq!(max_movement(&old, &new), f64::INFINITY);
        // Finite sets: the plain largest distance, bit for bit.
        let (old, new) =
            (vec![vec![0.1, 0.2], vec![3.0, 1.0]], vec![vec![0.4, 0.6], vec![2.5, 1.5]]);
        let plain = old.iter().zip(&new).map(|(a, b)| dist2(a, b).sqrt()).fold(0.0, f64::max);
        assert_eq!(max_movement(&old, &new).to_bits(), plain.to_bits());
    }

    #[test]
    fn sse_zero_when_points_are_centroids() {
        let points = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(sse(&points, &points.clone()), 0.0);
    }

    #[test]
    fn initial_centroids_distinct_and_deterministic() {
        let points: Vec<Point> = (0..20).map(|i| vec![i as f64]).collect();
        let a = initial_centroids(&points, 5, 1);
        let b = initial_centroids(&points, 5, 1);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| x[0].partial_cmp(&y[0]).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "initial centroids must be distinct points");
    }

    #[test]
    fn tracker_detects_plain_convergence() {
        let mut t = ConvergenceTracker::new(0.1, 4);
        let a = vec![vec![0.0]];
        let b = vec![vec![0.05]];
        assert!(t.converged(&a, &b));
    }

    #[test]
    fn tracker_detects_oscillation() {
        let mut t = ConvergenceTracker::new(0.1, 4);
        let a = vec![vec![0.0]];
        let b = vec![vec![5.0]];
        assert!(!t.converged(&a, &b)); // history: [b]
        assert!(!t.converged(&b, &a)); // history: [b, a]
                                       // Back to (≈) b: a → b again is a period-2 oscillation.
        assert!(t.converged(&a, &[vec![5.01]]));
    }

    #[test]
    fn tracker_window_zero_disables_oscillation_check() {
        let mut t = ConvergenceTracker::new(0.1, 0);
        let a = vec![vec![0.0]];
        let b = vec![vec![5.0]];
        assert!(!t.converged(&a, &b));
        assert!(!t.converged(&b, &a));
        assert!(!t.converged(&a, &b), "no history ⇒ no oscillation detection");
    }
}
