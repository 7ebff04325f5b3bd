//! Property tests for the work-stealing pool: parallel execution must
//! be observationally equivalent to sequential execution.

use std::sync::atomic::{AtomicUsize, Ordering};

use asyncmr_runtime::ThreadPool;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `par_map` equals the sequential map, for any input and any
    /// thread count (including 1).
    #[test]
    fn par_map_equals_serial_map(
        input in proptest::collection::vec(any::<u32>(), 0..500),
        threads in 1usize..6,
    ) {
        let pool = ThreadPool::new(threads);
        let parallel = pool.par_map(&input, |x| u64::from(*x) * 3 + 1);
        let serial: Vec<u64> = input.iter().map(|x| u64::from(*x) * 3 + 1).collect();
        prop_assert_eq!(parallel, serial);
    }

    /// Every scope task runs exactly once.
    #[test]
    fn scope_runs_each_task_exactly_once(
        tasks in 0usize..200,
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(threads);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..tasks {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        prop_assert_eq!(counter.load(Ordering::SeqCst), tasks);
    }

    /// `par_map_vec` hands every element over exactly once, with the
    /// right index, and returns the results in input order.
    #[test]
    fn par_map_vec_indices_correct(
        len in 0usize..300,
        threads in 1usize..5,
    ) {
        let pool = ThreadPool::new(threads);
        let data: Vec<usize> = (0..len).collect();
        let out = pool.par_map_vec(data, |i, x| (i, x * 2));
        for (i, v) in out.iter().enumerate() {
            prop_assert_eq!(*v, (i, i * 2));
        }
        prop_assert_eq!(out.len(), len);
    }

    /// Metrics count at least the submitted tasks.
    #[test]
    fn metrics_monotone(tasks in 1usize..100) {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {});
            }
        });
        prop_assert!(pool.metrics().executed >= tasks);
    }
}

/// Regression for the pool-metrics race: `executed` must be exact the
/// moment each `scope()` returns, not eventually. (It used to be bumped
/// after the task's completion signal, so the scope owner could read
/// the counter one short.)
#[test]
fn executed_is_exact_when_each_scope_returns() {
    let pool = ThreadPool::new(4);
    let mut spawned = 0;
    for round in 0..8000 {
        let tasks = 1 + round % 8;
        pool.scope(|s| {
            for _ in 0..tasks {
                s.spawn(|| {});
            }
        });
        spawned += tasks;
        assert_eq!(pool.metrics().executed, spawned, "scope {round} returned before its count");
    }
}
