//! Jacobi's math, written once: the point update, its inverse and the
//! tolerance the block solves stop at.
//!
//! General's and Eager's shared reducer ([`super::general::JacobiReducer`])
//! and Eager's `lreduce` take [`update`]; Eager's `finalize` takes
//! [`local_sum`]; `run_eager` derives its block solves' tolerance with
//! [`JacobiConfig::local_tolerance`], and both entry points call
//! [`JacobiConfig::validate`]. The sequential reference folds `b` into
//! its sum first, so it is not bitwise this update and keeps its own
//! loop as the independent oracle.

use super::JacobiConfig;
use crate::common::check_bound;

impl JacobiConfig {
    /// Checks the values the solver depends on.
    ///
    /// # Panics
    ///
    /// Naming the field and its value, unless `tolerance` is finite and
    /// > 0.
    pub fn validate(&self) {
        check_bound("JacobiConfig::tolerance", self.tolerance);
    }

    /// The ∞-norm bound a block solve stops at, `tolerance · 0.05`: well
    /// inside the global bound.
    pub fn local_tolerance(&self) -> f64 {
        self.tolerance * 0.05
    }
}

/// The Jacobi update `x'(v) = (b(v) + Σ_{w∈N(v)} x(w)) / A(v, v)`, given
/// the neighbour sum.
#[inline]
pub fn update(b: f64, sum: f64, diag: f64) -> f64 {
    (b + sum) / diag
}

/// The update inverted: the internal neighbour sum `S` of a vertex
/// whose value solves `x = (b + S + remote) / diag`.
#[inline]
pub fn local_sum(x: f64, b: f64, diag: f64, remote: f64) -> f64 {
    x * diag - b - remote
}
