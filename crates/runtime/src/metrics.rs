//! Lightweight execution counters for the pool.
//!
//! The counters are updated with [`Ordering::Relaxed`]: they are purely
//! observational (tests, benches, the simulator's sanity checks) and
//! never used for synchronization.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Internal atomic counters shared by all workers of a pool.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Tasks that finished running (including panicked ones).
    pub executed: AtomicUsize,
    /// Tasks whose closure panicked (the panic is captured, not lost).
    pub panicked: AtomicUsize,
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
            panicked: self.panicked.load(Ordering::Relaxed),
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
    /// Tasks that panicked; their payloads were captured by the
    /// submitting scope (or counted, for detached tasks).
    pub panicked: usize,
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
    /// Saturates at zero per field, so a stale `before` never wraps.
    pub fn since(&self, before: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            threads: self.threads,
            executed: self.executed.saturating_sub(before.executed),
            panicked: self.panicked.saturating_sub(before.panicked),
            steals: self.steals.saturating_sub(before.steals),
            injector_pops: self.injector_pops.saturating_sub(before.injector_pops),
            parks: self.parks.saturating_sub(before.parks),
            park_nanos: self.park_nanos.saturating_sub(before.park_nanos),
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
        assert_eq!(m.panicked, 0);
        assert_eq!(m.parks, 2);
        assert_eq!(m.park_nanos, 1_500);
    }

    #[test]
    fn steal_ratio_handles_zero() {
        let m = PoolMetrics {
            threads: 1,
            executed: 0,
            panicked: 0,
            steals: 0,
            injector_pops: 0,
            parks: 0,
            park_nanos: 0,
        };
        assert_eq!(m.steal_ratio(), 0.0);
        let m2 = PoolMetrics { executed: 8, steals: 2, ..m };
        assert!((m2.steal_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn since_is_a_saturating_fieldwise_delta() {
        let zero = PoolMetrics {
            threads: 2,
            executed: 0,
            panicked: 0,
            steals: 0,
            injector_pops: 0,
            parks: 0,
            park_nanos: 0,
        };
        let before = PoolMetrics { executed: 5, steals: 1, park_nanos: 100, ..zero };
        let after = PoolMetrics { executed: 9, steals: 4, parks: 2, park_nanos: 350, ..zero };
        let d = after.since(&before);
        assert_eq!(d.executed, 4);
        assert_eq!(d.steals, 3);
        assert_eq!(d.parks, 2);
        assert_eq!(d.park_nanos, 250);
        // Stale "before" saturates instead of wrapping.
        assert_eq!(before.since(&after).executed, 0);
    }
}
