//! Connected Components' math, written once: the min-label fold every
//! reduce applies.
//!
//! General's reducer ([`super::general::CcMinReducer`]) folds a group
//! with [`min_label`] from [`UNHEARD`]; Eager's folding `lreduce`
//! ([`super::eager::CcLocalAlgorithm`]) is that fold, label by label as
//! each is emitted. [`super::CcConfig`] holds only counts, which the
//! engine and the driver already refuse at 0, so it has nothing of its
//! own to validate.

use asyncmr_graph::NodeId;

/// What a vertex has heard before its first label: the identity of
/// [`min_label`].
pub(crate) const UNHEARD: NodeId = NodeId::MAX;

/// The smallest label a vertex heard: `smallest` so far, and `heard`.
#[inline]
pub(crate) fn min_label(smallest: NodeId, heard: NodeId) -> NodeId {
    smallest.min(heard)
}
