//! SSSP's math, written once: the min-reduce over distance proposals,
//! the settle test every fixpoint check applies, and the config check.
//!
//! General's reducer ([`super::general::SpMinReducer`]) takes
//! [`shortest`], and Eager's `lreduce` ([`super::eager::SpLocalAlgorithm`])
//! is the same fold taken a proposal at a time; Eager's `finish`, both
//! barrier drivers ([`settle_pairs`]) and the
//! flat session kernel's `gmap` and `absorb` ([`super::session::SpAsync`])
//! test [`settled`]. The barrier drivers start from
//! `SsspConfig::initial_distances`, which validates, and the session
//! kernel calls [`SsspConfig::validate`].

use asyncmr_graph::NodeId;

use super::SsspConfig;

impl SsspConfig {
    /// Checks the config against a graph of `n` vertices.
    ///
    /// # Panics
    ///
    /// Naming the field and its value, if `source` is not a vertex of a
    /// non-empty graph.
    pub fn validate(&self, n: usize) {
        let source = self.source;
        assert!(
            n == 0 || (source as usize) < n,
            "SsspConfig::source is {source}; the graph has {n} vertices"
        );
    }

    /// The starting distances on a graph of `n` vertices, validated
    /// first: the source at 0, every other vertex unreachable.
    pub(crate) fn initial_distances(&self, n: usize) -> Vec<f64> {
        self.validate(n);
        let mut dists = vec![f64::INFINITY; n];
        if n > 0 {
            dists[self.source as usize] = 0.0;
        }
        dists
    }
}

/// The best of a vertex's distance proposals (∞ when there are none).
#[inline]
pub(crate) fn shortest(proposals: &[f64]) -> f64 {
    proposals.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Whether a distance stayed put from `old` to `new` (∞ to ∞
/// included). Distances only ever decrease, so "no vertex changed" is a
/// sound fixpoint test.
#[inline]
pub(crate) fn settled(old: f64, new: f64) -> bool {
    old == new || (old.is_infinite() && new.is_infinite())
}

/// Writes a barrier job's `(vertex, distance)` pairs into `dists`;
/// returns whether every distance settled. Every vertex proposes its own
/// distance every iteration, so the pairs cover the whole vector.
pub(crate) fn settle_pairs(dists: &mut [f64], pairs: Vec<(NodeId, f64)>) -> bool {
    let mut done = true;
    for (v, d) in pairs {
        done &= settled(dists[v as usize], d);
        dists[v as usize] = d;
    }
    done
}

/// Whether every distance of `old` settled in `new`.
pub(crate) fn all_settled(old: &[f64], new: &[f64]) -> bool {
    debug_assert_eq!(old.len(), new.len());
    old.iter().zip(new).all(|(&a, &b)| settled(a, b))
}
