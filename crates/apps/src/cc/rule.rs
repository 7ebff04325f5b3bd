//! Connected Components' math, written once: the min-label fold every
//! reduce applies.
//!
//! General's reducer ([`super::general::CcMinReducer`]) and Eager's
//! `lreduce` ([`super::eager::CcLocalAlgorithm`]) take [`min_label`].
//! [`super::CcConfig`] holds only counts, which the engine and the
//! driver already refuse at 0, so it has nothing of its own to validate.

use asyncmr_graph::NodeId;

/// The smallest label a vertex heard.
#[inline]
pub(crate) fn min_label(heard: &[NodeId]) -> NodeId {
    *heard.iter().min().expect("non-empty group")
}
