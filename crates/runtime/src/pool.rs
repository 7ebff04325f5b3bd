//! The work-stealing thread pool itself.
//!
//! Architecture (one instance per [`ThreadPool`]):
//!
//! ```text
//!                 +--------------------+
//!     spawners -> |  injector (FIFO)   |   every spawn enters here
//!                 +--------------------+
//!                    |     |       |        a starved worker moves a
//!                 deque0 deque1 deque2 ...  batch onto its own deque;
//!                    \______steal______/    thieves take deque fronts
//! ```
//!
//! Every queue is a `Mutex<VecDeque<Job>>` owned by [`Shared`]: one
//! injector plus one deque per worker. The order in which work is taken
//! lives here and nowhere else:
//!
//! * every spawn enters the injector ([`Shared::inject`] is the only
//!   place a job is pushed);
//! * a worker pops its own deque's back;
//! * if that is empty, it takes the injector's front job, moves half of
//!   the jobs behind it (at most [`REFILL_CAP`]) onto its deque so that
//!   its pops from the back see them in injector order, and runs the
//!   front job ([`Shared::pop_own`]);
//! * a starved worker, or a thread helping while it waits on a scope,
//!   takes the injector's front, then the other deques' fronts by
//!   ascending index ([`Shared::find_task`]) — so which victim loses a
//!   task depends only on which queues are non-empty at that moment, not
//!   on a random draw.
//!
//! Idle workers park on a `Condvar` with a short timeout; a spawn rings
//! the condvar when a worker is parked, and before parking a worker
//! re-checks the injector under the lock, so wakeups cannot be lost.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{Counters, PoolMetrics};

/// A heap-allocated unit of work.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// At most this many injector jobs move onto a starved worker's deque
/// in one refill, besides the one it runs.
const REFILL_CAP: usize = 16;

/// Locks `mutex`, recovering the guard if a thread panicked while
/// holding it. No lock in this crate is held across user code, and every
/// critical section is one push, pop, swap or store that leaves the data
/// valid at every step, so a poisoned lock still guards valid data.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// The pool worker index of the current thread, set once at worker
    /// startup. `None` on every non-worker thread (submitters, helpers).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The pool worker index of the calling thread, or `None` when called
/// from outside a worker (e.g. a driver thread helping out while it
/// waits on a [`crate::Scope`]). Stable for the thread's lifetime;
/// span recorders use it to pick an uncontended per-worker buffer.
pub fn current_worker() -> Option<usize> {
    WORKER_INDEX.with(Cell::get)
}

/// Observer notified each time a pool worker finishes one park interval
/// (it found no runnable work and slept on the condvar). Called on the
/// worker thread right after it wakes, outside all pool locks.
///
/// Installed per pool via [`ThreadPool::set_park_observer`]; recorders
/// use it to attribute idle gaps in per-worker timelines to *blocked*
/// (no work available) rather than unexplained idle time.
pub trait ParkObserver: Send + Sync {
    /// One completed park on `worker`, spanning `start..end`.
    fn parked(&self, worker: usize, start: Instant, end: Instant);
}

/// State shared between the pool handle and every worker.
pub(crate) struct Shared {
    /// Where every spawn enters; refills and helpers take its front.
    injector: Mutex<VecDeque<Job>>,
    /// One per worker, holding the batch of its last refill: the owner
    /// pops the back, thieves take the front.
    deques: Vec<Mutex<VecDeque<Job>>>,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    /// Set when the pool is dropped, after every scope has returned.
    shutdown: AtomicBool,
    /// Workers currently parked on `wakeup` (see [`Shared::park`]).
    sleepers: AtomicUsize,
    pub(crate) counters: Counters,
    /// Optional per-park callback (see [`ParkObserver`]). Behind its own
    /// lock, read only on the park slow path — never on task dispatch.
    park_observer: Mutex<Option<Arc<dyn ParkObserver>>>,
}

impl Shared {
    fn new(threads: usize) -> Self {
        Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            counters: Counters::default(),
            park_observer: Mutex::new(None),
        }
    }

    /// Pushes a job onto the injector and wakes a sleeping worker, if any.
    pub(crate) fn inject(&self, job: Job) {
        lock(&self.injector).push_back(job);
        // Skip the lock + notify when nobody is parked — fine-grained
        // submitters (one task per map split, per session gmap)
        // otherwise pay a wakeup syscall per spawn while every worker is
        // already busy. A worker that is *about to* park increments
        // `sleepers` and then re-checks the injector under the lock
        // (both SeqCst), so either we observe it here or it observes our
        // push there — no lost wakeups.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Lock/unlock pairs with the re-check a parking worker
            // performs under the same lock.
            drop(lock(&self.sleep_lock));
            self.wakeup.notify_one();
        }
    }

    /// Worker `me`'s next job from its own deque: the back, or else the
    /// front of a refill from the injector.
    fn pop_own(&self, me: usize) -> Option<Job> {
        // Bound first: the deque's lock must be released before a refill
        // takes it again.
        let own = lock(&self.deques[me]).pop_back();
        if own.is_some() {
            return own;
        }
        let mut injector = lock(&self.injector);
        let first = injector.pop_front()?;
        let batch = (injector.len() / 2).min(REFILL_CAP);
        if batch > 0 {
            let mut deque = lock(&self.deques[me]);
            for job in injector.drain(..batch) {
                deque.push_front(job);
            }
        }
        self.counters.injector_pops.fetch_add(1, Ordering::Relaxed);
        Some(first)
    }

    /// Takes one job from the injector's front, or else from the front
    /// of the first non-empty deque by ascending index.
    ///
    /// Used both by starved workers and by threads *helping* while they
    /// wait on a scope. `skip` is the caller's own worker index, if any
    /// (its deque is popped by [`Shared::pop_own`]).
    pub(crate) fn find_task(&self, skip: Option<usize>) -> Option<Job> {
        let front = lock(&self.injector).pop_front();
        if front.is_some() {
            self.counters.injector_pops.fetch_add(1, Ordering::Relaxed);
            return front;
        }
        let stolen = self
            .deques
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .find_map(|(_, deque)| lock(deque).pop_front())?;
        self.counters.steals.fetch_add(1, Ordering::Relaxed);
        Some(stolen)
    }

    /// Runs a job. Every job is a scope task, which captures its own
    /// closure's panic for the scope to re-raise, so none unwinds here.
    pub(crate) fn run_job(&self, job: Job) {
        // Counted *before* the job runs: a job's last act is usually a
        // completion signal (`ScopeState::complete_one`, an inbox
        // push), and whoever observes that signal must also observe
        // this increment.
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        job();
    }

    fn park(&self, worker: usize) {
        let start = Instant::now();
        let guard = lock(&self.sleep_lock);
        // Declare intent *before* the final injector check: a submitter
        // that misses this increment (sees `sleepers == 0`) pushed its
        // job before our re-check below, so we see the job instead.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check under the lock: a submitter that saw us holds this
        // lock while notifying, so either we see its job or we hear its
        // notify.
        if !lock(&self.injector).is_empty() || self.shutdown.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // Timed wait bounds the cost of the (benign) race with deque
        // stealing, which cannot be checked under the lock.
        let guard = self
            .wakeup
            .wait_timeout(guard, Duration::from_millis(1))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        let end = Instant::now();
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        self.counters.park_nanos.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        let observer = lock(&self.park_observer).clone();
        if let Some(obs) = observer {
            obs.parked(worker, start, end);
        }
    }
}

fn worker_loop(index: usize, shared: Arc<Shared>) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    loop {
        if let Some(job) = shared.pop_own(index).or_else(|| shared.find_task(Some(index))) {
            shared.run_job(job);
        } else if shared.shutdown.load(Ordering::SeqCst) {
            // Every scope has returned, so no queue holds a job.
            return;
        } else {
            shared.park(index);
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// See the [crate-level documentation](crate) for an overview. Cheap
/// handles are not provided on purpose: the pool is meant to be owned by
/// a driver (the MapReduce engine) and shared by reference; wrap it in
/// an [`Arc`] if shared ownership is needed.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.num_threads())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers, named
    /// `asyncmr-worker-<index>`.
    ///
    /// # Panics
    ///
    /// If `threads` is zero, or a worker thread cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker thread, got {threads}");
        let shared = Arc::new(Shared::new(threads));
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("asyncmr-worker-{index}"))
                    .spawn(move || worker_loop(index, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Creates a pool with one worker per available CPU.
    pub fn with_default_parallelism() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.deques.len()
    }

    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Returns a snapshot of the execution counters.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.counters.snapshot(self.num_threads())
    }

    /// Installs (or, with `None`, removes) the pool's [`ParkObserver`].
    ///
    /// The observer is invoked on worker threads for every park interval
    /// that *completes* while it is installed; a park already in
    /// progress at install time reports its full interval. Drivers that
    /// trace one bounded run install before submitting work and remove
    /// after their scope completes.
    pub fn set_park_observer(&self, observer: Option<Arc<dyn ParkObserver>>) {
        *lock(&self.shared.park_observer) = observer;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Every scope borrows the pool and returns only once its tasks
        // have run, so no queue holds a job: stop the workers.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(lock(&self.shared.sleep_lock));
        self.shared.wakeup.notify_all();
        for handle in self.handles.drain(..) {
            // Workers never panic (scope tasks capture panics), but a
            // drop must not panic even if one somehow did.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::mpsc;

    /// A pool's queues with no threads behind them; every job reports
    /// its tag, so a test can see which job a pop returned.
    struct Queues {
        shared: Shared,
        tx: mpsc::Sender<usize>,
        rx: mpsc::Receiver<usize>,
    }

    impl Queues {
        fn new(workers: usize) -> Self {
            let (tx, rx) = mpsc::channel();
            Queues { shared: Shared::new(workers), tx, rx }
        }

        fn job(&self, tag: usize) -> Job {
            let tx = self.tx.clone();
            Box::new(move || tx.send(tag).unwrap())
        }

        fn inject(&self, tags: std::ops::Range<usize>) {
            tags.for_each(|tag| self.shared.inject(self.job(tag)));
        }

        /// Test set-up only: the pool itself pushes onto a deque nowhere
        /// but in a refill.
        fn fill_deque(&self, worker: usize, tag: usize) {
            lock(&self.shared.deques[worker]).push_back(self.job(tag));
        }

        fn tag(&self, job: Option<Job>) -> Option<usize> {
            job.map(|job| {
                job();
                self.rx.try_recv().unwrap()
            })
        }

        fn pop_own(&self, me: usize) -> Option<usize> {
            self.tag(self.shared.pop_own(me))
        }

        fn find_task(&self, skip: Option<usize>) -> Option<usize> {
            self.tag(self.shared.find_task(skip))
        }

        fn lens(&self) -> (usize, Vec<usize>) {
            let deques = self.shared.deques.iter().map(|d| lock(d).len()).collect();
            (lock(&self.shared.injector).len(), deques)
        }
    }

    #[test]
    fn refill_moves_half_the_rest_capped_at_16() {
        let q = Queues::new(2);
        q.inject(0..10);
        assert_eq!(q.pop_own(0), Some(0), "a refill runs the injector's front");
        assert_eq!(q.lens(), (5, vec![4, 0]), "and moves 9 / 2 of the rest");
        let q = Queues::new(2);
        q.inject(0..100);
        assert_eq!(q.pop_own(1), Some(0));
        assert_eq!(q.lens(), (83, vec![0, 16]), "99 / 2 capped at 16");
        assert_eq!(q.shared.counters.injector_pops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn owner_pops_a_refill_in_injector_order() {
        let q = Queues::new(1);
        q.inject(0..10);
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop_own(0)).collect();
        assert_eq!(popped, (0..10).collect::<Vec<_>>());
        // Refills of 1 + 4, 1 + 2, 1 + 0 and 1 job.
        assert_eq!(q.shared.counters.injector_pops.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn a_steal_takes_a_deques_front() {
        let q = Queues::new(2);
        q.inject(0..10);
        assert_eq!(q.pop_own(0), Some(0));
        // The injector (5..10) goes before any deque.
        for tag in 5..10 {
            assert_eq!(q.find_task(Some(1)), Some(tag));
        }
        assert_eq!(q.find_task(Some(1)), Some(4), "the front holds the last job moved");
        assert_eq!(q.pop_own(0), Some(1), "the owner keeps popping in injector order");
        let counters = &q.shared.counters;
        assert_eq!(counters.steals.load(Ordering::Relaxed), 1);
        assert_eq!(counters.injector_pops.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn find_task_tries_the_injector_then_deques_by_ascending_index_skipping_its_own() {
        let q = Queues::new(3);
        for worker in 0..3 {
            q.fill_deque(worker, 10 + worker);
        }
        q.inject(0..1);
        let order: Vec<usize> = std::iter::from_fn(|| q.find_task(Some(1))).collect();
        assert_eq!(order, vec![0, 10, 12], "deque 1 is the caller's own");
        assert_eq!(q.find_task(None), Some(11), "a helper skips no deque");
        let counters = &q.shared.counters;
        assert_eq!(counters.injector_pops.load(Ordering::Relaxed), 1);
        assert_eq!(counters.steals.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_queues_yield_none() {
        let q = Queues::new(2);
        assert_eq!(q.pop_own(0), None);
        assert_eq!(q.find_task(Some(0)), None);
        assert_eq!(q.find_task(None), None);
        assert_eq!(q.shared.counters.snapshot(2), Counters::default().snapshot(2));
    }

    #[test]
    fn executes_detached_tasks() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    #[should_panic(expected = "a pool needs at least one worker thread, got 0")]
    fn zero_threads_are_refused() {
        ThreadPool::new(0);
    }

    #[test]
    fn panicked_tasks_are_counted_and_do_not_kill_workers() {
        // Each task reports before the scope waits, so the worker — not
        // this thread, helping — runs it.
        let pool = ThreadPool::new(1);
        let (tx, rx) = mpsc::channel();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let tx = tx.clone();
                s.spawn(move || {
                    tx.send(current_worker()).unwrap();
                    panic!("boom");
                });
                assert_eq!(rx.recv().unwrap(), Some(0));
            });
        }));
        assert!(caught.is_err(), "the scope re-raises the task's panic");
        pool.scope(|s| {
            s.spawn(move || tx.send(current_worker()).unwrap());
            assert_eq!(rx.recv().unwrap(), Some(0), "the worker survived the panic");
        });
        assert_eq!(pool.metrics().executed, 2);
    }

    #[test]
    fn metrics_count_executions() {
        let pool = ThreadPool::new(3);
        pool.scope(|s| {
            for _ in 0..50 {
                s.spawn(|| {});
            }
        });
        assert_eq!(pool.metrics().executed, 50);
        assert_eq!(pool.metrics().threads, 3);
    }

    #[test]
    fn worker_index_is_set_on_workers_and_absent_elsewhere() {
        assert_eq!(current_worker(), None, "test thread is not a pool worker");
        let pool = ThreadPool::new(2);
        pool.scope(|s| {
            let (tx, rx) = mpsc::sync_channel(16);
            for _ in 0..16 {
                let tx = tx.clone();
                s.spawn(move || {
                    let name = std::thread::current().name().map(str::to_owned);
                    tx.send((current_worker(), name)).unwrap();
                });
            }
            // Receive before the scope waits: helping from this thread
            // would legitimately run tasks where current_worker() is None.
            for _ in 0..16 {
                let (idx, name) = rx.recv().unwrap();
                let idx = idx.expect("pool task ran on a worker thread");
                assert!(idx < 2, "worker index {idx} out of range");
                assert_eq!(name, Some(format!("asyncmr-worker-{idx}")));
            }
        });
    }

    #[test]
    fn parks_are_counted_and_observed() {
        struct Tally(AtomicUsize);
        impl ParkObserver for Tally {
            fn parked(&self, worker: usize, start: Instant, end: Instant) {
                assert!(end >= start);
                assert!(worker < 2);
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let pool = ThreadPool::new(2);
        let tally = Arc::new(Tally(AtomicUsize::new(0)));
        pool.set_park_observer(Some(tally.clone()));
        // Idle workers park on a 1 ms timed wait; give them a chance to.
        std::thread::sleep(Duration::from_millis(20));
        pool.set_park_observer(None);
        let m = pool.metrics();
        assert!(m.parks > 0, "idle workers never parked");
        assert!(m.park_nanos > 0, "parks recorded no time");
        assert!(tally.0.load(Ordering::SeqCst) > 0, "observer never invoked");
        // Observed parks are a subset of counted parks (the counter also
        // covers parks before install/after removal).
        assert!(tally.0.load(Ordering::SeqCst) <= pool.metrics().parks);
    }
}
