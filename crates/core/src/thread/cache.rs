//! The thread cache (§4.3.1).
//!
//! glibcv avoids the cost of repeatedly creating and destroying pthreads (the pattern of the
//! BLIS pthread backend, Table 2) with the intra-process caching-and-reuse strategy of Dice
//! and Kogan: when a thread's user function ends it is *not* destroyed; it parks in a cache
//! and the next `pthread_create` of the same process reuses the most recently cached thread
//! (LIFO).
//!
//! A parked worker stays what it was while it ran: attached to its process domain, with its
//! task. It pushes itself onto the domain's idle stack and `pause`s in the scheduler. A
//! spawn pops it, stores the job in its slot and `submit`s its task, so the new thread is
//! ready — counted by `has_ready()`, which is what a busy-wait barrier's yielders consult —
//! before `spawn` returns. Only an empty stack costs a fresh OS thread. Parked workers are
//! drained when their domain is killed or deregistered and when the cache shuts down; the
//! OS threads are joined for real at shutdown.

use crate::current::{clear_current, set_current, CurrentCtx};
use crate::park::Event;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usf_nosv::{NosvError, NosvInstance, ProcessId, TaskRef};

/// One spawn, type-erased: the user function and the join packet it reports to.
pub(crate) trait Job: Send {
    /// Run the user function on the calling worker, attached as `task`, and keep the
    /// outcome; or keep the attach error without running it.
    fn run(&mut self, attached: Result<&TaskRef, NosvError>);
    /// Hand the kept outcome to the joiner.
    fn finish(self: Box<Self>);
}

/// What a parked worker finds when its pause returns. Whoever pops a worker off its stack
/// fills the slot before releasing the stack lock, so a worker that is no longer on its
/// stack always finds the slot filled.
enum Slot {
    /// Nothing yet.
    Empty,
    /// Run this job (stored before the task is submitted).
    Run(Box<dyn Job>),
    /// Drained: detach and end.
    Retire,
}

/// An attached worker, parked on or popped from its domain's idle stack.
struct Worker {
    task: TaskRef,
    slot: Mutex<Slot>,
    /// Set once the worker has detached for good.
    exited: Event,
}

/// The idle stacks, under one lock.
#[derive(Default)]
struct Domains {
    idle: HashMap<ProcessId, Vec<Arc<Worker>>>,
    /// Killed or deregistered domains: their workers exit instead of parking.
    closed: HashSet<ProcessId>,
    shutdown: bool,
}

/// Outcome of a bounded [`ThreadCache::shutdown_timeout`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadShutdownReport {
    /// Worker threads joined within the deadline.
    pub joined: usize,
    /// Names of the worker threads still running when the deadline expired (`<unnamed>`
    /// for anonymous workers). They were left running detached, not joined.
    pub stragglers: Vec<String>,
}

impl ThreadShutdownReport {
    /// Whether every worker was joined before the deadline.
    pub fn clean(&self) -> bool {
        self.stragglers.is_empty()
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCacheStats {
    /// Fresh OS threads created: spawns that found their domain's idle stack empty. Each
    /// attaches to the scheduler once (unless its domain is already gone), so this is the
    /// scheduler's attach count for spawned threads.
    pub created: u64,
    /// Spawns served by popping a parked worker off its domain's idle stack (no OS thread
    /// created, no attach).
    pub reused: u64,
    /// Workers currently parked, summed over every domain's idle stack.
    pub idle: u64,
}

/// Per-process LIFO stacks of attached, paused workers. See the module documentation.
pub struct ThreadCache {
    nosv: NosvInstance,
    domains: Mutex<Domains>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    capacity: usize,
    created: AtomicU64,
    reused: AtomicU64,
}

impl std::fmt::Debug for ThreadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ThreadCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl ThreadCache {
    /// Create a cache for threads of `nosv` keeping at most `capacity` parked workers per
    /// process domain (`0` disables reuse: every spawn creates a fresh OS thread that
    /// detaches and exits when its job ends).
    pub fn new(nosv: NosvInstance, capacity: usize) -> Arc<Self> {
        Arc::new(ThreadCache {
            nosv,
            domains: Mutex::new(Domains::default()),
            handles: Mutex::new(Vec::new()),
            capacity,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }

    /// Cache effectiveness counters.
    pub fn stats(&self) -> ThreadCacheStats {
        let idle: usize = self.domains.lock().idle.values().map(Vec::len).sum();
        ThreadCacheStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            idle: idle as u64,
        }
    }

    /// Run `job` in process `pid`: on the domain's most recently parked worker if there is
    /// one (made ready before this returns), otherwise on a fresh OS thread that attaches
    /// first.
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        pid: ProcessId,
        name: Option<String>,
        job: Box<dyn Job>,
    ) {
        let mut domains = self.domains.lock();
        if let Some(worker) = domains.idle.get_mut(&pid).and_then(Vec::pop) {
            *worker.slot.lock() = Slot::Run(job);
            drop(domains);
            self.reused.fetch_add(1, Ordering::Relaxed);
            // A worker that has not reached its pause yet counts this as a pending
            // wake-up, and its pause returns at once.
            self.nosv.submit(&worker.task);
            return;
        }
        drop(domains);
        self.created.fetch_add(1, Ordering::Relaxed);
        let cache = Arc::clone(self);
        let mut builder = std::thread::Builder::new();
        if let Some(n) = &name {
            builder = builder.name(n.clone());
        }
        let handle = builder
            .spawn(move || cache.serve(pid, name, job))
            .expect("failed to spawn worker thread");
        self.handles.lock().push(handle);
    }

    /// Body of a cache OS thread: attach to `pid`, then serve jobs until retired. The
    /// attach can fail (the domain was killed or deregistered, the scheduler shut down);
    /// the job then reports the error to its joiner and runs nowhere. A worker released
    /// while holding an unrun job attaches afresh for it, which fails the same way.
    fn serve(&self, pid: ProcessId, label: Option<String>, mut job: Box<dyn Job>) {
        loop {
            let handle = match self.nosv.try_attach(pid, label.as_deref()) {
                Ok(handle) => handle,
                Err(e) => {
                    job.run(Err(e));
                    job.finish();
                    return;
                }
            };
            let worker = Arc::new(Worker {
                task: handle.task().clone(),
                slot: Mutex::new(Slot::Empty),
                exited: Event::new(),
            });
            let unrun = loop {
                set_current(CurrentCtx {
                    task: worker.task.clone(),
                    nosv: self.nosv.clone(),
                    process: pid,
                });
                job.run(Ok(&worker.task));
                clear_current();
                // Park before signalling: a spawn that follows the join finds this worker
                // on the stack.
                if !self.park(pid, &worker) {
                    handle.detach();
                    job.finish();
                    return;
                }
                job.finish();
                match self.await_job(pid, &worker) {
                    Some(next) if !worker.task.is_released() => job = next,
                    other => break other,
                }
            };
            handle.detach();
            worker.exited.set();
            match unrun {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Push `worker` onto its domain's idle stack. `false` when it must exit instead: the
    /// cache is shutting down, the domain is closed, or the stack is full.
    fn park(&self, pid: ProcessId, worker: &Arc<Worker>) -> bool {
        let mut domains = self.domains.lock();
        if domains.shutdown || domains.closed.contains(&pid) {
            return false;
        }
        let stack = domains.idle.entry(pid).or_default();
        if stack.len() >= self.capacity {
            return false;
        }
        stack.push(Arc::clone(worker));
        true
    }

    /// Pause until a spawn hands `worker` a job (`Some`) or the worker must go (`None`).
    fn await_job(&self, pid: ProcessId, worker: &Arc<Worker>) -> Option<Box<dyn Job>> {
        loop {
            // Pause first: it consumes exactly the one submit a popping spawn owes, and
            // returns at once for a released task.
            self.nosv.scheduler().pause(&worker.task);
            // Let go of the slot lock before the stack lock is taken below: spawns and
            // drains take the two in the other order.
            let slot = std::mem::replace(&mut *worker.slot.lock(), Slot::Empty);
            match slot {
                Slot::Run(job) => return Some(job),
                Slot::Retire => return None,
                Slot::Empty if worker.task.is_released() => {
                    // Released by the scheduler (a kill, deregister or shutdown the cache
                    // was not told about) while parked: leave the stack. If someone
                    // popped us first, the slot is already filled and the next pause
                    // returns at once.
                    let mut domains = self.domains.lock();
                    if let Some(stack) = domains.idle.get_mut(&pid) {
                        if let Some(i) = stack.iter().position(|w| Arc::ptr_eq(w, worker)) {
                            stack.remove(i);
                            return None;
                        }
                    }
                }
                // A stale wake-up: pause again.
                Slot::Empty => {}
            }
        }
    }

    /// Take the parked workers of `pid` (of every domain when `None`) off their stacks and
    /// retire them: each leaves its pause at once, detaches and ends. The slots are filled
    /// under the stack lock (see [`Slot`]).
    fn retire(&self, domains: &mut Domains, pid: Option<ProcessId>) -> Vec<Arc<Worker>> {
        let drained: Vec<Arc<Worker>> = match pid {
            Some(pid) => domains.idle.remove(&pid).unwrap_or_default(),
            None => domains.idle.drain().flat_map(|(_, stack)| stack).collect(),
        };
        for w in &drained {
            *w.slot.lock() = Slot::Retire;
            self.nosv.scheduler().release_task(&w.task);
        }
        drained
    }

    /// Close domain `pid` before the scheduler reclaims it (kill or deregister): its parked
    /// workers have detached when this returns, and workers finishing a job there exit
    /// instead of parking. Spawns into the domain create fresh threads, whose attach then
    /// reports why the domain is gone.
    pub(crate) fn close_domain(&self, pid: ProcessId) {
        let drained = {
            let mut domains = self.domains.lock();
            domains.closed.insert(pid);
            self.retire(&mut domains, Some(pid))
        };
        for w in &drained {
            w.exited.wait();
        }
    }

    /// Ask cached threads to terminate without joining them (safe to call from any thread,
    /// including a cached worker itself): parked workers are drained, and workers still
    /// running a job exit when it ends.
    pub fn request_shutdown(&self) {
        let mut domains = self.domains.lock();
        domains.shutdown = true;
        self.retire(&mut domains, None);
    }

    /// Terminate and join every thread ever created by the cache. Must not be called from a
    /// cached worker thread.
    ///
    /// Joins are bounded: a worker wedged in user code (deadlocked, stalled on external
    /// I/O) is abandoned after a generous deadline instead of hanging the teardown
    /// forever. Use [`ThreadCache::shutdown_timeout`] to pick the deadline and learn who
    /// straggled.
    pub fn shutdown(&self) {
        let _ = self.shutdown_timeout(DEFAULT_SHUTDOWN_TIMEOUT);
    }

    /// Like [`ThreadCache::shutdown`], but with an explicit deadline: joins every worker
    /// that finishes within `timeout` and reports the ones that did not. Stragglers are
    /// left running detached (they exit on their own once their job returns — the
    /// shutdown flag keeps them out of the cache), so calling this again later can no
    /// longer join them.
    pub fn shutdown_timeout(&self, timeout: std::time::Duration) -> ThreadShutdownReport {
        self.request_shutdown();
        let mut handles = std::mem::take(&mut *self.handles.lock());
        let deadline = std::time::Instant::now() + timeout;
        let mut report = ThreadShutdownReport::default();
        loop {
            let mut still_running = Vec::new();
            for h in handles {
                if h.is_finished() {
                    let _ = h.join();
                    report.joined += 1;
                } else {
                    still_running.push(h);
                }
            }
            handles = still_running;
            if handles.is_empty() || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for h in &handles {
            report
                .stragglers
                .push(h.thread().name().unwrap_or("<unnamed>").to_string());
        }
        report
    }
}

/// Deadline used by the convenience [`ThreadCache::shutdown`]: long enough that any
/// healthy worker joins, short enough that a wedged one cannot hang teardown forever.
pub const DEFAULT_SHUTDOWN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::spawn_on;
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::Duration;
    use usf_nosv::NosvConfig;

    fn setup(cores: usize, capacity: usize) -> (NosvInstance, Arc<ThreadCache>, ProcessId) {
        let nosv = NosvInstance::new(NosvConfig::with_cores(cores));
        let pid = nosv.register_process("cache-test");
        (nosv.clone(), ThreadCache::new(nosv, capacity), pid)
    }

    #[test]
    fn jobs_run_and_threads_are_reused() {
        let (nosv, cache, pid) = setup(2, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            spawn_on(&cache, pid, None, move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .join()
            .unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        // The worker parks before it signals the join, so every later spawn hits the cache.
        let stats = cache.stats();
        assert_eq!((stats.created, stats.reused, stats.idle), (1, 3, 1));
        assert_eq!(nosv.metrics().attaches, 1);
        cache.shutdown();
        assert_eq!(nosv.metrics().detaches, 1);
        assert_eq!(cache.stats().idle, 0);
    }

    #[test]
    fn zero_capacity_disables_reuse() {
        let (nosv, cache, pid) = setup(2, 0);
        for i in 0..3 {
            assert_eq!(spawn_on(&cache, pid, None, move || i).join().unwrap(), i);
        }
        let stats = cache.stats();
        assert_eq!((stats.created, stats.reused, stats.idle), (3, 0, 0));
        // Without a cache every worker detaches before it signals its join.
        let m = nosv.metrics();
        assert_eq!((m.attaches, m.detaches), (3, 3));
        cache.shutdown();
    }

    #[test]
    fn stacks_are_per_process() {
        let (nosv, cache, a) = setup(2, 8);
        let b = nosv.register_process("other");
        spawn_on(&cache, a, None, || ()).join().unwrap();
        // A parked worker of `a` is never handed a job of `b`.
        let task_b = spawn_on(&cache, b, None, || {
            crate::current::current().unwrap().process
        });
        assert_eq!(task_b.join().unwrap(), b);
        let stats = cache.stats();
        assert_eq!((stats.created, stats.reused, stats.idle), (2, 0, 2));
        cache.shutdown();
    }

    #[test]
    fn named_threads_get_their_name() {
        let (_nosv, cache, pid) = setup(2, 1);
        let h = spawn_on(&cache, pid, Some("usf-worker-x".to_string()), || {
            std::thread::current().name().map(str::to_owned)
        });
        assert_eq!(h.join().unwrap().as_deref(), Some("usf-worker-x"));
        cache.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_everything() {
        let (nosv, cache, pid) = setup(2, 4);
        let handles: Vec<_> = (0..3).map(|_| spawn_on(&cache, pid, None, || ())).collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = cache.shutdown_timeout(Duration::from_secs(10));
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.joined as u64, cache.stats().created);
        cache.shutdown();
        assert_eq!(cache.stats().idle, 0);
        let m = nosv.metrics();
        assert_eq!(m.detaches, m.attaches);
    }

    #[test]
    fn shutdown_timeout_reports_wedged_workers_instead_of_hanging() {
        let (_nosv, cache, pid) = setup(2, 4);
        let release = Arc::new(AtomicBool::new(false));
        let rel = Arc::clone(&release);
        let _wedged = spawn_on(&cache, pid, Some("wedged-worker".to_string()), move || {
            while !rel.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        spawn_on(&cache, pid, None, || ()).join().unwrap();
        let report = cache.shutdown_timeout(Duration::from_millis(100));
        assert_eq!(
            report.joined, 1,
            "the parked healthy worker is drained and joins"
        );
        assert_eq!(report.stragglers, vec!["wedged-worker".to_string()]);
        assert!(!report.clean());
        release.store(true, Ordering::SeqCst); // let the abandoned thread exit
    }

    #[test]
    fn closing_a_domain_retires_its_parked_workers() {
        let (nosv, cache, pid) = setup(2, 8);
        let handles: Vec<_> = (0..3).map(|_| spawn_on(&cache, pid, None, || ())).collect();
        for h in handles {
            h.join().unwrap();
        }
        let parked = cache.stats().idle;
        assert!(parked >= 1);
        cache.close_domain(pid);
        // Drained workers have detached by the time close_domain returns.
        let m = nosv.metrics();
        assert_eq!(cache.stats().idle, 0);
        assert_eq!(m.detaches, parked);
        cache.shutdown();
        let m = nosv.metrics();
        assert_eq!(m.detaches, m.attaches);
    }

    #[test]
    fn concurrent_dispatches_all_run() {
        let (nosv, cache, pid) = setup(2, 16);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut outer = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let counter = Arc::clone(&counter);
            outer.push(std::thread::spawn(move || {
                let handles: Vec<_> = (0..16)
                    .map(|_| {
                        let c = Arc::clone(&counter);
                        spawn_on(&cache, pid, None, move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }
            }));
        }
        for h in outer {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        let stats = cache.stats();
        assert_eq!(stats.created + stats.reused, 64);
        assert_eq!(nosv.metrics().attaches, stats.created);
        cache.shutdown();
        let m = nosv.metrics();
        assert_eq!(m.detaches, m.attaches);
    }
}
