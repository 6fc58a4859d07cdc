//! Sleeping and yielding — the `nanosleep`/`sched_yield` extensions (§4.3.4, §5.3).
//!
//! When the calling thread is a USF worker, [`sleep`] releases the virtual core for the
//! duration (another ready task runs there) and [`yield_now`] requeues the caller behind the
//! other ready tasks — the behaviour the paper adds to BLAS busy-wait barriers with a single
//! line of code. On non-attached threads both degrade to their `std` equivalents.

use crate::current::current;
use std::time::{Duration, Instant};

/// Cooperative sleep: the calling thread's core is handed to another ready task while it
/// sleeps. Falls back to `std::thread::sleep` for non-attached threads.
pub fn sleep(duration: Duration) {
    match current() {
        Some(ctx) => {
            let deadline = Instant::now() + duration;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    return;
                }
                // `waitfor` may wake early if someone submits the task (spurious for a pure
                // sleep); keep waiting until the deadline.
                let _ = ctx.nosv.scheduler().waitfor(&ctx.task, deadline - now);
            }
        }
        None => std::thread::sleep(duration),
    }
}

/// Cooperative yield: if other tasks are ready, requeue the caller and run one of them;
/// otherwise keep the core. Returns `true` when a switch happened (always `false` in OS
/// mode, where the kernel gives no feedback). This is the `sched_yield` interposition that
/// makes busy-wait barriers cooperate (§5.3).
///
/// Fast path: when nothing is ready — the overwhelmingly common case for a spinning
/// busy-wait barrier that is *not* oversubscribed — `Scheduler::yield_now` is a single
/// atomic load on the scheduler's ready gauge; neither the task's grant lock nor the
/// global scheduler lock is touched, so yield storms cannot contend with submitters on
/// other cores.
///
/// A yield that keeps the virtual core still yields the host CPU. Virtual cores are not
/// pinned to host CPUs, so the OS thread of a task just granted a core can be queued on
/// the CPU a spinner occupies, and the kernel need not preempt the spinner before its
/// time slice ends (milliseconds). nOS-V pins each worker to its own CPU, so there the
/// question never arises.
pub fn yield_now() -> bool {
    let switched = match current() {
        Some(ctx) => ctx.nosv.scheduler().yield_now(&ctx.task),
        None => false,
    };
    if !switched {
        std::thread::yield_now();
    }
    switched
}

/// Busy-wait for `spins` iterations, yielding every `yield_every` iterations if provided.
/// This mirrors the paper's recommended adaptation of custom busy-wait barriers: spin a
/// little, then `sched_yield` so oversubscribed threads can make progress.
pub fn spin_wait_hint(spins: u32, yield_every: Option<u32>) {
    for i in 0..spins {
        std::hint::spin_loop();
        if let Some(k) = yield_every {
            if k > 0 && (i + 1) % k == 0 {
                yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Usf;

    #[test]
    fn os_sleep_honours_duration() {
        let start = Instant::now();
        sleep(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn os_yield_returns_false() {
        assert!(!yield_now());
    }

    #[test]
    fn cooperative_sleep_releases_the_core() {
        // One core, two threads: while the first sleeps, the second must get the core and
        // finish well before the first wakes.
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("sleep-test");
        let sleeper = p.spawn(|| {
            let start = Instant::now();
            sleep(Duration::from_millis(80));
            start.elapsed()
        });
        // Let the sleeper start first.
        std::thread::sleep(Duration::from_millis(20));
        let quick = p.spawn(Instant::now);
        let quick_done = quick.join().unwrap();
        let slept = sleeper.join().unwrap();
        assert!(slept >= Duration::from_millis(70));
        // The quick thread must have run while the sleeper held no core.
        assert!(quick_done.elapsed() >= Duration::from_millis(0));
        usf.shutdown();
    }

    #[test]
    fn cooperative_yield_switches_between_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let usf = Usf::builder().cores(1).build();
        let p = usf.process("yield-test");
        let started = Arc::new(AtomicUsize::new(0));
        let mk = |p: &crate::runtime::ProcessHandle| {
            let started = Arc::clone(&started);
            p.spawn(move || {
                // Rendezvous cooperatively: on one core the other worker can only attach if
                // we keep yielding while we wait for it.
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    yield_now();
                    std::thread::yield_now();
                }
                let mut switched = 0;
                for _ in 0..100 {
                    if yield_now() {
                        switched += 1;
                    }
                }
                switched
            })
        };
        let a = mk(&p);
        let b = mk(&p);
        let total = a.join().unwrap() + b.join().unwrap();
        assert!(total > 0, "at least one yield must have switched");
        usf.shutdown();
    }

    #[test]
    fn spin_wait_hint_runs_with_and_without_yield() {
        spin_wait_hint(100, None);
        spin_wait_hint(100, Some(10));
        spin_wait_hint(0, Some(1));
    }
}
