//! The work-stealing thread pool itself.
//!
//! Architecture (one instance per [`ThreadPool`]):
//!
//! ```text
//!                 +--------------------+
//!   submitters -> |  Injector (FIFO)   |   shared, one mutex
//!                 +--------------------+
//!                    |     |       |
//!                 worker0 worker1 worker2 ...   each owns a LIFO deque,
//!                    \______steal______/        steals when starved
//! ```
//!
//! The queues are the in-tree `crossbeam-deque` stand-in: each is a
//! `Mutex<VecDeque>`, not a lock-free deque, and never reports
//! `Steal::Retry`. A starved worker (or a thread helping while it waits
//! on a scope) looks for work in a fixed order — the injector first,
//! then the other workers' deques by ascending index, skipping its own
//! (`Shared::find_task`) — so which victim loses a task depends only on
//! which deques are non-empty at that moment, not on a random draw.
//!
//! Idle workers park on a `Condvar` with a short timeout; every task
//! submission rings the condvar, and before parking a worker re-checks
//! the injector under the lock, so wakeups cannot be lost.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use crate::metrics::{Counters, PoolMetrics};

/// A heap-allocated unit of work.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

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

/// Configures and builds a [`ThreadPool`].
///
/// ```
/// use asyncmr_runtime::ThreadPoolBuilder;
/// let pool = ThreadPoolBuilder::new()
///     .num_threads(2)
///     .thread_name("mr-slot")
///     .build();
/// assert_eq!(pool.num_threads(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
    thread_name: String,
    stack_size: Option<usize>,
}

impl Default for ThreadPoolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadPoolBuilder {
    /// Starts a builder with default settings (one thread per available
    /// CPU, 8 MiB default stacks, threads named `asyncmr-worker-<i>`).
    pub fn new() -> Self {
        ThreadPoolBuilder {
            num_threads: None,
            thread_name: "asyncmr-worker".to_string(),
            stack_size: None,
        }
    }

    /// Sets the number of worker threads. Zero is clamped to one.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n.max(1));
        self
    }

    /// Sets the base name for worker threads (`<name>-<index>`).
    pub fn thread_name(mut self, name: impl Into<String>) -> Self {
        self.thread_name = name.into();
        self
    }

    /// Sets the stack size, in bytes, for each worker thread.
    pub fn stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = Some(bytes);
        self
    }

    /// Builds the pool, spawning the worker threads immediately.
    pub fn build(self) -> ThreadPool {
        let threads = self
            .num_threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Job>> = workers.iter().map(Worker::stealer).collect();

        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            counters: Counters::default(),
            park_observer: Mutex::new(None),
        });

        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                let mut builder =
                    std::thread::Builder::new().name(format!("{}-{index}", self.thread_name));
                if let Some(bytes) = self.stack_size {
                    builder = builder.stack_size(bytes);
                }
                builder
                    .spawn(move || worker_loop(index, local, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        ThreadPool { shared, handles, threads }
    }
}

/// State shared between the pool handle and every worker.
pub(crate) struct Shared {
    pub(crate) injector: Injector<Job>,
    pub(crate) stealers: Vec<Stealer<Job>>,
    sleep_lock: Mutex<()>,
    wakeup: Condvar,
    shutdown: AtomicBool,
    /// Jobs submitted but not yet finished executing.
    in_flight: AtomicUsize,
    /// Workers currently parked on `wakeup` (see [`Shared::park`]).
    sleepers: AtomicUsize,
    pub(crate) counters: Counters,
    /// Optional per-park callback (see [`ParkObserver`]). Behind its own
    /// lock, read only on the park slow path — never on task dispatch.
    park_observer: Mutex<Option<Arc<dyn ParkObserver>>>,
}

impl Shared {
    /// Pushes a job and wakes a sleeping worker, if any.
    pub(crate) fn inject(&self, job: Job) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.injector.push(job);
        // Skip the lock + notify when nobody is parked — fine-grained
        // submitters (one task per map split, per-reduce-task
        // follow-ups) otherwise pay a wakeup syscall per spawn while
        // every worker is already busy. A worker that is *about to*
        // park increments `sleepers` and then re-checks the injector
        // under the lock (both SeqCst), so either we observe it here or
        // it observes our push there — no lost wakeups.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Lock/unlock pairs with the re-check a parking worker
            // performs under the same lock.
            drop(self.sleep_lock.lock());
            self.wakeup.notify_one();
        }
    }

    /// Attempts to grab one job from the injector or any worker's deque.
    ///
    /// Used both by starved workers and by threads *helping* while they
    /// wait in [`crate::Scope::wait`]. `skip` is the caller's own worker
    /// index, if any (its deque is popped by the worker loop directly).
    pub(crate) fn find_task(&self, skip: Option<usize>) -> Option<Job> {
        loop {
            let mut retry = false;
            match self.injector.steal() {
                Steal::Success(job) => {
                    self.counters.injector_pops.fetch_add(1, Ordering::Relaxed);
                    return Some(job);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
            for (i, stealer) in self.stealers.iter().enumerate() {
                if Some(i) == skip {
                    continue;
                }
                match stealer.steal() {
                    Steal::Success(job) => {
                        self.counters.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(job);
                    }
                    Steal::Retry => retry = true,
                    Steal::Empty => {}
                }
            }
            if !retry {
                return None;
            }
        }
    }

    /// Runs a job, capturing panics so a worker thread never dies.
    pub(crate) fn run_job(&self, job: Job) {
        // Counted *before* the job runs: a job's last act is usually a
        // completion signal (`ScopeState::complete_one`, a channel
        // send), and whoever observes that signal must also observe
        // this increment.
        self.counters.executed.fetch_add(1, Ordering::Relaxed);
        // The panic (if any) is surfaced through the owning `Scope`; for
        // detached `execute` jobs it is counted and dropped.
        if panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.counters.panicked.fetch_add(1, Ordering::Relaxed);
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    fn park(&self, worker: usize) {
        let start = Instant::now();
        let mut guard = self.sleep_lock.lock();
        // Declare intent *before* the final injector check: a submitter
        // that misses this increment (sees `sleepers == 0`) pushed its
        // job before our re-check below, so we see the job instead.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Re-check under the lock: a submitter that saw us holds this
        // lock while notifying, so either we see its job or we hear its
        // notify.
        if !self.injector.is_empty() || self.shutdown.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        // Timed wait bounds the cost of the (benign) race with deque
        // stealing, which cannot be checked under the lock.
        self.wakeup.wait_for(&mut guard, Duration::from_millis(1));
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        let end = Instant::now();
        self.counters.parks.fetch_add(1, Ordering::Relaxed);
        self.counters.park_nanos.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        let observer = self.park_observer.lock().clone();
        if let Some(obs) = observer {
            obs.parked(worker, start, end);
        }
    }

    pub(crate) fn notify_all(&self) {
        drop(self.sleep_lock.lock());
        self.wakeup.notify_all();
    }
}

fn worker_loop(index: usize, local: Worker<Job>, shared: Arc<Shared>) {
    WORKER_INDEX.with(|w| w.set(Some(index)));
    loop {
        // Fast path: own deque (LIFO keeps caches warm for fork-join).
        if let Some(job) = local.pop() {
            shared.run_job(job);
            continue;
        }
        // Refill from the injector in a batch, then steal from peers.
        match shared.injector.steal_batch_and_pop(&local) {
            Steal::Success(job) => {
                shared.counters.injector_pops.fetch_add(1, Ordering::Relaxed);
                shared.run_job(job);
                continue;
            }
            Steal::Retry => continue,
            Steal::Empty => {}
        }
        if let Some(job) = shared.find_task(Some(index)) {
            shared.run_job(job);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            // Only exit once every queue is drained; `find_task` just
            // returned None and nothing new can arrive after shutdown.
            if shared.in_flight.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Someone is still running a job that may spawn more work.
            std::thread::yield_now();
            continue;
        }
        shared.park(index);
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
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `threads` workers (zero is clamped to one).
    pub fn new(threads: usize) -> Self {
        ThreadPoolBuilder::new().num_threads(threads).build()
    }

    /// Creates a pool with one worker per available CPU.
    pub fn with_default_parallelism() -> Self {
        ThreadPoolBuilder::new().build()
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Submits a detached ("fire and forget") task.
    ///
    /// The task is guaranteed to run before the pool is dropped. Panics
    /// inside the task are caught and counted (see [`PoolMetrics`]).
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.inject(Box::new(f));
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Returns a snapshot of the execution counters.
    pub fn metrics(&self) -> PoolMetrics {
        self.shared.counters.snapshot(self.threads)
    }

    /// Installs (or, with `None`, removes) the pool's [`ParkObserver`].
    ///
    /// The observer is invoked on worker threads for every park interval
    /// that *completes* while it is installed; a park already in
    /// progress at install time reports its full interval. Drivers that
    /// trace one bounded run install before submitting work and remove
    /// after their scope completes.
    pub fn set_park_observer(&self, observer: Option<Arc<dyn ParkObserver>>) {
        *self.shared.park_observer.lock() = observer;
    }

    /// Blocks until every job submitted so far has finished.
    ///
    /// Mostly useful in tests and before reading side effects of
    /// [`ThreadPool::execute`] tasks; `scope`-based APIs wait inherently.
    pub fn wait_idle(&self) {
        while self.shared.in_flight.load(Ordering::SeqCst) != 0 {
            // Help instead of spinning: drain one task if available.
            if let Some(job) = self.shared.find_task(None) {
                self.shared.run_job(job);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Graceful shutdown: let queued work finish, then stop workers.
        self.wait_idle();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.notify_all();
        for handle in self.handles.drain(..) {
            // Workers never panic (jobs are caught), but don't double
            // panic during drop if one somehow did.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn executes_detached_tasks() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_completes_queued_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..64 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(Duration::from_micros(100));
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop here
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.num_threads(), 1);
        let flag = Arc::new(AtomicUsize::new(0));
        let f = Arc::clone(&flag);
        pool.execute(move || {
            f.store(7, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn panicked_tasks_are_counted_and_do_not_kill_workers() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("boom"));
        pool.wait_idle();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.store(1, Ordering::SeqCst);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.metrics().panicked, 1);
        assert!(pool.metrics().executed >= 2);
    }

    #[test]
    fn metrics_count_executions() {
        let pool = ThreadPool::new(3);
        for _ in 0..50 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        assert!(pool.metrics().executed >= 50);
        assert_eq!(pool.metrics().threads, 3);
    }

    #[test]
    fn worker_index_is_set_on_workers_and_absent_elsewhere() {
        assert_eq!(current_worker(), None, "test thread is not a pool worker");
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::sync_channel(16);
        for _ in 0..16 {
            let tx = tx.clone();
            pool.execute(move || {
                tx.send(current_worker()).unwrap();
            });
        }
        // Receive without wait_idle: helping from this thread would
        // legitimately run jobs where current_worker() is None.
        for _ in 0..16 {
            let idx = rx.recv().unwrap().expect("pool job ran on a worker thread");
            assert!(idx < 2, "worker index {idx} out of range");
        }
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

    #[test]
    fn builder_names_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(1).thread_name("custom").build();
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        pool.execute(move || {
            tx.send(std::thread::current().name().map(str::to_owned)).unwrap();
        });
        let name = rx.recv().unwrap().unwrap();
        assert!(name.starts_with("custom-"), "unexpected thread name {name}");
    }
}
