//! Lightweight execution counters for the pool.
//!
//! The counters are updated with [`Ordering::Relaxed`]: they are purely
//! observational (tests, benches, the simulator's sanity checks) and
//! never used for synchronization.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Internal atomic counters shared by all workers of a pool.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Tasks handed to a thread to run (counted as each starts).
    pub executed: AtomicUsize,
    /// Successful steals from *another worker's* deque.
    pub steals: AtomicUsize,
    /// Successful grabs from the shared injector queue.
    pub injector_pops: AtomicUsize,
    /// Completed park intervals (a worker found no work and slept).
    pub parks: AtomicUsize,
    /// Total nanoseconds workers spent parked.
    pub park_nanos: AtomicU64,
}

impl Counters {
    #[inline]
    pub(crate) fn snapshot(&self, threads: usize) -> PoolMetrics {
        PoolMetrics {
            threads,
            executed: self.executed.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            injector_pops: self.injector_pops.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_nanos: self.park_nanos.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a pool's execution counters.
///
/// Obtained from [`crate::ThreadPool::metrics`]. All counts are
/// monotonically non-decreasing over the pool's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Number of worker threads in the pool.
    pub threads: usize,
    /// Total tasks handed to a thread for execution so far (counted as
    /// each task starts, so the count is exact the moment a
    /// [`crate::ThreadPool::scope`] returns).
    pub executed: usize,
    /// Successful worker-to-worker steals.
    pub steals: usize,
    /// Successful pops from the shared injector.
    pub injector_pops: usize,
    /// Completed park intervals (a worker found no work and slept).
    pub parks: usize,
    /// Total nanoseconds workers spent parked.
    pub park_nanos: u64,
}

impl PoolMetrics {
    /// Fraction of tasks that migrated between workers via stealing.
    ///
    /// Returns `0.0` when nothing has executed yet.
    pub fn steal_ratio(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.steals as f64 / self.executed as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same pool — what
    /// one bounded stretch of work (a session run, a bench rep) cost.
    ///
    /// # Panics
    ///
    /// The counters only grow, so `before` exceeding `self` in any
    /// field means the snapshots were passed in the wrong order (or
    /// come from different pools): that is a caller bug, reported by
    /// panicking with the field's name rather than clamped to zero.
    pub fn since(&self, before: &PoolMetrics) -> PoolMetrics {
        macro_rules! delta {
            ($field:ident) => {
                self.$field.checked_sub(before.$field).unwrap_or_else(|| {
                    panic!(
                        "PoolMetrics::since: `{}` went backwards ({} -> {}); \
                         pass the earlier snapshot as `before`",
                        stringify!($field),
                        before.$field,
                        self.$field
                    )
                })
            };
        }
        PoolMetrics {
            threads: self.threads,
            executed: delta!(executed),
            steals: delta!(steals),
            injector_pops: delta!(injector_pops),
            parks: delta!(parks),
            park_nanos: delta!(park_nanos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let c = Counters::default();
        c.executed.store(10, Ordering::Relaxed);
        c.steals.store(4, Ordering::Relaxed);
        c.parks.store(2, Ordering::Relaxed);
        c.park_nanos.store(1_500, Ordering::Relaxed);
        let m = c.snapshot(3);
        assert_eq!(m.threads, 3);
        assert_eq!(m.executed, 10);
        assert_eq!(m.steals, 4);
        assert_eq!(m.parks, 2);
        assert_eq!(m.park_nanos, 1_500);
    }

    #[test]
    fn steal_ratio_handles_zero() {
        let m = PoolMetrics {
            threads: 1,
            executed: 0,
            steals: 0,
            injector_pops: 0,
            parks: 0,
            park_nanos: 0,
        };
        assert_eq!(m.steal_ratio(), 0.0);
        let m2 = PoolMetrics { executed: 8, steals: 2, ..m };
        assert!((m2.steal_ratio() - 0.25).abs() < 1e-12);
    }

    const ZERO: PoolMetrics = PoolMetrics {
        threads: 2,
        executed: 0,
        steals: 0,
        injector_pops: 0,
        parks: 0,
        park_nanos: 0,
    };

    const BEFORE: PoolMetrics = PoolMetrics { executed: 5, steals: 1, park_nanos: 100, ..ZERO };
    const AFTER: PoolMetrics =
        PoolMetrics { executed: 9, steals: 4, parks: 2, park_nanos: 350, ..ZERO };

    #[test]
    fn since_is_a_fieldwise_delta() {
        let d = AFTER.since(&BEFORE);
        assert_eq!(d.executed, 4);
        assert_eq!(d.steals, 3);
        assert_eq!(d.parks, 2);
        assert_eq!(d.park_nanos, 250);
        assert_eq!(AFTER.since(&AFTER), ZERO);
    }

    #[test]
    #[should_panic(expected = "`executed` went backwards (9 -> 5)")]
    fn since_panics_on_reversed_snapshots() {
        let _ = BEFORE.since(&AFTER);
    }
}
