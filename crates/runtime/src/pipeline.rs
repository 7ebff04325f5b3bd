//! Completion-driven waves: one scope alive across many dependent
//! phases.
//!
//! [`ThreadPool::par_map_vec`] and friends are *barriers*: nothing
//! downstream of the call observes any result until every task has
//! finished. [`ThreadPool::par_multiwave`] removes that barrier. It runs
//! one pool task per item and streams each completion — in
//! *completion* order, not input order — to a scheduler closure on the
//! calling thread, which may enqueue new items (a [`Wave`]) in response;
//! they run on the same scope and stream their completions back the
//! same way. The call returns only when no produced item remains in
//! flight and no wave is pending. One invocation can therefore keep a
//! single scope alive across the *global iterations* of an iterative
//! algorithm — the cross-iteration analogue of the paper's eager
//! scheduling, used by `asyncmr_core::session`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::pool::{lock, ThreadPool};

/// The completion queue: produced tasks push, the caller batch-drains.
/// A purpose-built inbox instead of a general channel so the steady
/// state allocates nothing per completion.
struct Inbox<U> {
    queue: Mutex<Vec<(usize, U)>>,
    ready: Condvar,
    /// Produced tasks that unwound before reporting a completion. The
    /// caller counts these toward termination so a panicking task
    /// cannot hang the completion loop (the scope re-raises the panic
    /// afterwards).
    aborted: AtomicUsize,
}

/// Bumps [`Inbox::aborted`] if the producing task unwinds before its
/// completion is pushed.
struct AbortGuard<'a, U>(&'a Inbox<U>);

impl<U> Drop for AbortGuard<'_, U> {
    fn drop(&mut self) {
        self.0.aborted.fetch_add(1, Ordering::SeqCst);
        // Pair with the caller's locked condition check, then wake it.
        drop(lock(&self.0.queue));
        self.0.ready.notify_one();
    }
}

/// New items a [`ThreadPool::par_multiwave`] scheduler wants launched
/// in response to a completion. Each entry is `(id, item)`; the id is
/// passed back to `produce` and `schedule` verbatim (it need not be
/// unique — callers typically encode their own task identity inside the
/// item and ignore it).
#[derive(Debug)]
pub struct Wave<T> {
    items: Vec<(usize, T)>,
}

impl<T> Wave<T> {
    /// Enqueues one new item for the produce phase.
    #[inline]
    pub fn push(&mut self, id: usize, item: T) {
        self.items.push((id, item));
    }

    /// Items enqueued so far in this scheduler call.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no item has been enqueued in this scheduler call.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl ThreadPool {
    /// Runs `produce` over the `initial` wave of `(id, item)` pairs (one
    /// pool task per item — no chunking, so completions stream
    /// individually) and calls `schedule` on the **calling thread** for
    /// each completion, in completion order. The scheduler may push
    /// *new items* onto the provided [`Wave`]; they are spawned
    /// immediately and stream their completions back through the same
    /// scheduler. The call returns once every produced item — initial
    /// or wave-injected — has been scheduled.
    ///
    /// This keeps one scope (and therefore one set of borrows) alive
    /// across arbitrarily many dependent waves: an iterative driver can
    /// launch iteration *i+1*'s task for a partition the moment the
    /// completions it depends on have arrived, with no global barrier
    /// between iterations.
    ///
    /// The wave mechanism doubles as a **requeue** primitive: a
    /// completion value may carry a failure marker, and the scheduler
    /// may push the same logical task back onto the wave to retry it —
    /// the abort/requeue pattern `asyncmr_core::session`'s
    /// attempt-tracking fault tolerance is built on. Termination
    /// accounting is per *produced item*, so a retried task is simply
    /// one more produced item; nothing special is needed for the call
    /// to drain.
    ///
    /// While waiting for completions the calling thread *helps* execute
    /// queued pool tasks, so the caller is a full compute participant
    /// just as in the barrier primitives. Panics in `produce` propagate
    /// to the caller after the scope drains, like [`ThreadPool::scope`].
    ///
    /// # Example
    ///
    /// ```
    /// use asyncmr_runtime::ThreadPool;
    ///
    /// // Three dependent "iterations" of one task: each completion
    /// // launches the next wave until the value reaches 3.
    /// let pool = ThreadPool::new(2);
    /// let mut last = 0u64;
    /// pool.par_multiwave(
    ///     vec![(0usize, 0u64)],
    ///     |_id, x| x + 1,
    ///     |id, x, wave| {
    ///         last = x;
    ///         if x < 3 {
    ///             wave.push(id, x); // next iteration, same borrow scope
    ///         }
    ///     },
    /// );
    /// assert_eq!(last, 3);
    /// ```
    pub fn par_multiwave<'env, T, U, F, C>(
        &'env self,
        initial: Vec<(usize, T)>,
        produce: F,
        mut schedule: C,
    ) where
        T: Send + 'env,
        U: Send + 'env,
        F: Fn(usize, T) -> U + Sync + 'env,
        C: FnMut(usize, U, &mut Wave<T>),
    {
        if initial.is_empty() {
            return;
        }
        let inbox: Inbox<U> = Inbox {
            queue: Mutex::new(Vec::new()),
            ready: Condvar::new(),
            aborted: AtomicUsize::new(0),
        };
        let inbox = &inbox;
        let produce = &produce;
        self.scope(|s| {
            let spawn_item = |id: usize, item: T| {
                s.spawn(move || {
                    let guard = AbortGuard(inbox);
                    let value = produce(id, item);
                    std::mem::forget(guard); // completing normally
                    lock(&inbox.queue).push((id, value));
                    inbox.ready.notify_one();
                });
            };
            // Produced items in flight = spawned − received − aborted.
            // Only the scheduler (this thread) spawns, so `spawned` needs
            // no synchronization.
            let mut spawned = 0usize;
            for (id, item) in initial {
                spawn_item(id, item);
                spawned += 1;
            }
            // Completion loop: batch-drain, dispatch (which may grow the
            // wave set), help, repeat until every produced item has
            // reported (or aborted).
            let mut received = 0usize;
            let mut batch: Vec<(usize, U)> = Vec::new();
            let mut wave = Wave { items: Vec::new() };
            while received + inbox.aborted.load(Ordering::SeqCst) < spawned {
                // Dispatching queued completions beats helping with
                // someone else's task.
                std::mem::swap(&mut *lock(&inbox.queue), &mut batch);
                if !batch.is_empty() {
                    received += batch.len();
                    for (i, value) in batch.drain(..) {
                        schedule(i, value, &mut wave);
                        for (id, item) in wave.items.drain(..) {
                            spawn_item(id, item);
                            spawned += 1;
                        }
                    }
                    continue;
                }
                // Nothing to dispatch: help run a queued task, or wait
                // briefly for the next completion. The timed wait bounds
                // the benign race with a task finishing between our
                // drain and here.
                if let Some(job) = self.shared().find_task(None) {
                    self.shared().run_job(job);
                } else {
                    let queue = lock(&inbox.queue);
                    if queue.is_empty() && received + inbox.aborted.load(Ordering::SeqCst) < spawned
                    {
                        let _ = inbox.ready.wait_timeout(queue, Duration::from_micros(200));
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_completes_exactly_once() {
        let pool = ThreadPool::new(4);
        let mut seen = vec![0u32; 100];
        pool.par_multiwave(
            (0..100usize).map(|i| (i, i)).collect(),
            |i, x| {
                assert_eq!(i, x);
                x * 2
            },
            |i, doubled, _wave| {
                assert_eq!(doubled, i * 2);
                seen[i] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1), "each completion dispatched once");
    }

    #[test]
    fn single_thread_pool_does_not_deadlock() {
        // The caller and the one worker share all the work.
        let pool = ThreadPool::new(1);
        let mut got = Vec::new();
        pool.par_multiwave(
            (0..20usize).map(|i| (i, i)).collect(),
            |_i, x| x + 100,
            |_i, v, _wave| got.push(v),
        );
        got.sort_unstable();
        assert_eq!(got, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn many_waves_of_items() {
        // Far more items than workers: completions arrive in many
        // batches and the scheduler keeps dispatching throughout.
        let pool = ThreadPool::new(2);
        let mut ran = 0usize;
        pool.par_multiwave(
            (0..500usize).map(|i| (i, i)).collect(),
            |_i, x| x,
            |_i, _x, _wave| ran += 1,
        );
        assert_eq!(ran, 500);
    }

    #[test]
    fn moves_non_clone_items() {
        struct NoClone(u64);
        let pool = ThreadPool::new(4);
        let items: Vec<(usize, NoClone)> = (0..64).map(|i| (i as usize, NoClone(i))).collect();
        let mut sum = 0u64;
        pool.par_multiwave(items, |_i, x| x.0, |_i, v, _wave| sum += v);
        assert_eq!(sum, (0..64).sum());
    }

    #[test]
    fn produce_panic_propagates() {
        let pool = ThreadPool::new(2);
        let mut drained = 0;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_multiwave(
                vec![(0usize, 0u32), (1, 1), (2, 2)],
                |_i, x| {
                    if x == 1 {
                        panic!("initial task exploded");
                    }
                    x
                },
                |_i, _x, _wave| drained += 1,
            );
        }));
        assert!(caught.is_err(), "a panic in an initial item must reach the caller");
        assert_eq!(drained, 2, "the other items completed before the panic surfaced");
    }

    #[test]
    fn multiwave_chains_dependent_iterations() {
        // Each of 8 chains runs 50 dependent "iterations"; every
        // completion schedules the chain's next wave. One call, one
        // scope, 400 produced tasks.
        let pool = ThreadPool::new(4);
        let mut progress = vec![0u32; 8];
        pool.par_multiwave(
            (0..8usize).map(|c| (c, 0u32)).collect(),
            |_c, step| step + 1,
            |c, step, wave| {
                progress[c] = step;
                if step < 50 {
                    wave.push(c, step);
                }
            },
        );
        assert_eq!(progress, vec![50; 8]);
    }

    #[test]
    fn multiwave_fans_out_from_one_completion() {
        let pool = ThreadPool::new(3);
        let mut produced = 0usize;
        pool.par_multiwave(
            vec![(0usize, 3u32)],
            |_id, fanout| fanout,
            |_id, fanout, wave| {
                produced += 1;
                for i in 0..fanout {
                    wave.push(i as usize, fanout - 1); // geometric fan-out
                }
            },
        );
        // 1 + 3 + 3·2 + 6·1 + 6·0-children = 1 + 3 + 6 + 6 = 16 tasks.
        assert_eq!(produced, 16);
    }

    #[test]
    fn multiwave_requeues_transiently_failing_items_to_completion() {
        // The fault-tolerance contract the session layer's attempt
        // tracking relies on: a completion may report "this attempt
        // died", and the scheduler re-pushes the same logical task onto
        // the wave. Every item here fails its first two attempts (the
        // produce closure sees (id, attempt) and succeeds only at
        // attempt 2); the call must still drain with every item
        // eventually succeeding exactly once.
        let pool = ThreadPool::new(4);
        let k = 12usize;
        let mut succeeded = vec![0u32; k];
        let mut failures_seen = vec![0u32; k];
        pool.par_multiwave(
            (0..k).map(|id| (id, 0u32)).collect(),
            |id, attempt| {
                let ok = attempt >= 2;
                (id, attempt, ok)
            },
            |_id, (id, attempt, ok), wave| {
                if ok {
                    succeeded[id] += 1;
                } else {
                    failures_seen[id] += 1;
                    wave.push(id, attempt + 1); // requeue the attempt
                }
            },
        );
        assert_eq!(succeeded, vec![1; k], "each item must succeed exactly once");
        assert_eq!(failures_seen, vec![2; k], "each item must burn its two doomed attempts");
    }

    #[test]
    fn multiwave_empty_initial_is_a_no_op() {
        let pool = ThreadPool::new(2);
        let mut called = false;
        pool.par_multiwave(Vec::<(usize, u32)>::new(), |_i, x| x, |_i, _x, _wave| called = true);
        assert!(!called);
    }

    #[test]
    fn multiwave_single_thread_does_not_deadlock() {
        let pool = ThreadPool::new(1);
        let mut total = 0u64;
        pool.par_multiwave(
            (0..10usize).map(|i| (i, 1u64)).collect(),
            |_i, x| x,
            |i, x, wave| {
                total += x;
                if total < 200 && i % 2 == 0 {
                    wave.push(i, 1);
                }
            },
        );
        assert!(total >= 10);
    }

    #[test]
    fn multiwave_panic_in_wave_task_propagates() {
        let pool = ThreadPool::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.par_multiwave(
                vec![(0usize, 0u32)],
                |_i, x| {
                    if x == 1 {
                        panic!("wave task exploded");
                    }
                    x
                },
                |i, x, wave| {
                    if x == 0 {
                        wave.push(i, 1); // second wave panics
                    }
                },
            );
        }));
        assert!(caught.is_err(), "second-wave panic must reach the caller");
    }
}
