//! Cooperative thread creation — the `pthread_create` extension of glibcv (§4.3.1).
//!
//! [`ProcessHandle::spawn`](crate::runtime::ProcessHandle::spawn) runs the user function on
//! a worker attached to the nOS-V scheduler (an OS thread with an associated task), pinned
//! to the virtual core the scheduler granted it. A fresh OS thread attaches before its first
//! job; when a job returns, the worker stays attached and parks, paused, in the
//! [`cache::ThreadCache`], and the next spawn in the same process submits it again. `join`
//! is *masked* — it waits on an event set by the worker rather than on OS thread
//! termination, exactly like glibcv masks `pthread_join` when a thread is placed in the
//! cache.

pub mod cache;

pub use cache::{ThreadCache, ThreadCacheStats, ThreadShutdownReport, DEFAULT_SHUTDOWN_TIMEOUT};

use crate::error::UsfError;
use crate::park::Event;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;
use usf_nosv::{NosvError, ProcessId, TaskRef};

/// Shared completion slot between a spawned thread and its [`JoinHandle`].
struct Packet<T> {
    result: Mutex<Option<std::thread::Result<T>>>,
    done: Event,
    task: Mutex<Option<TaskRef>>,
}

/// Handle to a cooperative thread, returned by
/// [`ProcessHandle::spawn`](crate::runtime::ProcessHandle::spawn).
///
/// Unlike `std::thread::JoinHandle`, joining does not wait for the OS thread to exit (the
/// thread is recycled into the cache); it waits for the user function to finish.
pub struct JoinHandle<T> {
    packet: Arc<Packet<T>>,
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> JoinHandle<T> {
    /// Whether the thread's user function has finished.
    pub fn is_finished(&self) -> bool {
        self.packet.done.is_set()
    }

    /// The nOS-V task associated with the thread, once it has attached.
    pub fn task(&self) -> Option<TaskRef> {
        self.packet.task.lock().clone()
    }

    /// Wait (cooperatively, if the caller is itself a USF thread) for the thread to finish
    /// and return its result. Mirrors `std::thread::JoinHandle::join`: a panic in the
    /// spawned thread is reported as `Err`.
    pub fn join(self) -> std::thread::Result<T> {
        self.packet.done.wait();
        self.packet
            .result
            .lock()
            .take()
            .expect("join called twice or result stolen")
    }

    /// Like [`JoinHandle::join`], but gives up after `timeout`. On timeout the handle is
    /// returned so the caller can keep waiting later.
    pub fn join_timeout(self, timeout: Duration) -> Result<std::thread::Result<T>, JoinHandle<T>> {
        if self.packet.done.wait_timeout(timeout) {
            Ok(self
                .packet
                .result
                .lock()
                .take()
                .expect("join called twice or result stolen"))
        } else {
            Err(self)
        }
    }

    /// Convenience wrapper around [`JoinHandle::join`] mapping panics to [`UsfError`].
    pub fn join_result(self) -> Result<T, UsfError> {
        self.join().map_err(|e| {
            let msg = e
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| e.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_string());
            UsfError::ThreadPanicked(msg)
        })
    }
}

/// The typed side of a spawn: the user function and its join packet.
struct Spawn<F, T> {
    f: Option<F>,
    packet: Arc<Packet<T>>,
}

impl<F, T> cache::Job for Spawn<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    fn run(&mut self, attached: Result<&TaskRef, NosvError>) {
        let result = match attached {
            Ok(task) => {
                *self.packet.task.lock() = Some(task.clone());
                let f = self.f.take().expect("a spawn runs once");
                catch_unwind(AssertUnwindSafe(f))
            }
            Err(e) => Err(Box::new(format!("usf spawn: attach failed: {e}")) as _),
        };
        *self.packet.result.lock() = Some(result);
    }

    fn finish(self: Box<Self>) {
        self.packet.done.set();
    }
}

/// Spawn a cooperative thread in process `pid` through `cache`. Used by
/// [`crate::runtime::ProcessHandle::spawn`].
pub(crate) fn spawn_on<F, T>(
    cache: &Arc<ThreadCache>,
    pid: ProcessId,
    name: Option<String>,
    f: F,
) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let packet = Arc::new(Packet::<T> {
        result: Mutex::new(None),
        done: Event::new(),
        task: Mutex::new(None),
    });
    let job = Spawn {
        f: Some(f),
        packet: Arc::clone(&packet),
    };
    cache.dispatch(pid, name, Box::new(job));
    JoinHandle { packet }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usf_nosv::{NosvConfig, NosvInstance};

    fn setup(cores: usize) -> (NosvInstance, Arc<ThreadCache>, ProcessId) {
        let nosv = NosvInstance::new(NosvConfig::with_cores(cores));
        let pid = nosv.register_process("test");
        (nosv.clone(), ThreadCache::new(nosv, 32), pid)
    }

    #[test]
    fn spawn_and_join_returns_value() {
        let (_, cache, pid) = setup(2);
        let h = spawn_on(&cache, pid, Some("t1".into()), || 21 * 2);
        assert_eq!(h.join().unwrap(), 42);
        cache.shutdown();
    }

    #[test]
    fn join_reports_panics() {
        let (_, cache, pid) = setup(2);
        let h = spawn_on(&cache, pid, None, || panic!("boom"));
        let err = h.join_result().unwrap_err();
        assert!(matches!(err, UsfError::ThreadPanicked(msg) if msg.contains("boom")));
        cache.shutdown();
    }

    #[test]
    fn join_timeout_returns_handle_when_still_running() {
        let (_, cache, pid) = setup(2);
        let h = spawn_on(&cache, pid, None, || {
            std::thread::sleep(Duration::from_millis(100));
            5
        });
        let h = match h.join_timeout(Duration::from_millis(5)) {
            Err(h) => h,
            Ok(_) => panic!("join should have timed out"),
        };
        assert_eq!(h.join().unwrap(), 5);
        cache.shutdown();
    }

    #[test]
    fn oversubscribed_spawns_all_complete() {
        // 1 virtual core, 8 threads: they must run one at a time and all complete.
        let (nosv, cache, pid) = setup(1);
        let handles: Vec<_> = (0..8)
            .map(|i| spawn_on(&cache, pid, None, move || i))
            .collect();
        let sum: i32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(sum, (0..8).sum());
        // Exact cache accounting: every spawn was served by a fresh thread or a parked
        // one, only fresh threads attach, and every attached worker detaches by the end
        // of the shutdown.
        let stats = cache.stats();
        assert_eq!(stats.created + stats.reused, 8);
        assert_eq!(nosv.metrics().attaches, stats.created);
        cache.shutdown();
        let m = nosv.metrics();
        assert_eq!(m.detaches, m.attaches);
    }

    #[test]
    fn spawned_thread_is_attached_and_reports_task() {
        let (_, cache, pid) = setup(2);
        let h = spawn_on(&cache, pid, None, crate::current::is_attached);
        let attached = h.join().unwrap();
        assert!(attached, "spawned closure must observe an attached context");
        cache.shutdown();
    }

    #[test]
    fn is_finished_becomes_true() {
        let (_, cache, pid) = setup(2);
        let h = spawn_on(&cache, pid, None, || ());
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !h.is_finished() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(h.is_finished());
        h.join().unwrap();
        cache.shutdown();
    }
}
