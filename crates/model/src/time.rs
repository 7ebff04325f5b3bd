//! Simulated time: a monotone microsecond counter.
//!
//! All simulator arithmetic is integral (µs) so event ordering is exact
//! and runs are bit-reproducible across platforms; floating point only
//! appears at the boundary (converting modeled costs in seconds).

use std::cell::Cell;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

thread_local! {
    /// Underflow observations of the bare `-` operator on this thread
    /// (a simulation runs on one thread, so per-run deltas are exact).
    static UNDERFLOWS: Cell<u64> = const { Cell::new(0) };
}

/// Total `SimTime - SimTime` underflows observed on the current thread
/// since it started.
///
/// Instants are monotone, so a bare `-` that would go negative is a
/// simulator bug: debug builds panic at the site, release builds clamp
/// the span to zero and bump this counter instead of silently losing
/// the evidence. Drivers snapshot it around a run and surface the delta
/// next to the other promoted invariants (see the simulator's
/// `CommitAccounting::time_underflows`). Intentional clamps use
/// [`SimTime::saturating_sub`], which never counts.
pub fn underflow_count() -> u64 {
    UNDERFLOWS.with(|c| c.get())
}

/// A point in (or span of) simulated time, in microseconds.
///
/// `SimTime` is used for both instants and durations; the simulator
/// never needs a distinct duration type and the paper's figures are in
/// plain seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Constructs from fractional seconds, rounding to the nearest
    /// microsecond; negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e6).round() as u64)
    }

    /// Microseconds since simulation start (or span length).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction — spans never go negative.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self.0 >= rhs.0 {
            self
        } else {
            rhs
        }
    }

    /// Scales a span by a non-negative factor (used for stragglers).
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// Panics on underflow in debug builds (instants are monotone; a
    /// negative span is a simulator bug). Release builds clamp to zero
    /// but *count* the underflow ([`underflow_count`]) so the bug is a
    /// checked error, not a silent one. Spans that may legitimately go
    /// negative must use [`SimTime::saturating_sub`].
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        if self.0 < rhs.0 {
            UNDERFLOWS.with(|c| c.set(c.get() + 1));
            debug_assert!(self.0 >= rhs.0, "SimTime underflow: {} - {}", self.0, rhs.0);
            return SimTime::ZERO;
        }
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_micros(1_500_000));
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(b.max(a), a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "SimTime underflow")]
    fn bare_sub_underflow_panics_in_debug() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn bare_sub_underflow_clamps_and_counts_in_release() {
        let before = underflow_count();
        assert_eq!(SimTime::from_secs(1) - SimTime::from_secs(2), SimTime::ZERO);
        assert_eq!(underflow_count(), before + 1, "bare - must count its underflow");
        // The intentional clamp stays silent.
        let base = underflow_count();
        assert_eq!(SimTime::from_secs(1).saturating_sub(SimTime::from_secs(2)), SimTime::ZERO);
        assert_eq!(underflow_count(), base, "saturating_sub is the sanctioned clamp");
    }

    #[test]
    fn in_range_sub_never_counts() {
        let before = underflow_count();
        assert_eq!(SimTime::from_secs(3) - SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(underflow_count(), before);
    }

    #[test]
    fn scale_rounds_to_micros() {
        let t = SimTime::from_secs(1);
        assert_eq!(t.scale(0.5), SimTime::from_millis(500));
        assert_eq!(t.scale(0.0), SimTime::ZERO);
    }

    #[test]
    fn sum_and_display() {
        let total: SimTime = [SimTime::from_secs(1), SimTime::from_millis(500)].into_iter().sum();
        assert_eq!(total, SimTime::from_millis(1500));
        assert_eq!(format!("{total}"), "1.500s");
    }
}
