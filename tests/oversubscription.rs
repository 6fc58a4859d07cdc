//! Integration tests: the core SCHED_COOP behaviours under oversubscription, spanning
//! `usf-nosv`, `usf-core` and `usf-runtimes`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use usf::prelude::*;
use usf_core::sync::{Barrier, Condvar, Mutex, Semaphore};

/// Many more threads than virtual cores, across two process domains: everything completes,
/// no involuntary preemption is ever recorded, and both processes' threads got served.
#[test]
fn two_process_domains_oversubscribed_complete() {
    let usf = Usf::builder()
        .cores(2)
        .quantum(Duration::from_millis(2))
        .build();
    let a = usf.process("proc-a");
    let b = usf.process("proc-b");
    let counter = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for i in 0..12 {
        let domain = if i % 2 == 0 { &a } else { &b };
        let counter = Arc::clone(&counter);
        handles.push(domain.spawn(move || {
            // A little compute, a yield, a little sleep: several scheduling points.
            let mut acc = 0u64;
            for k in 0..5_000 {
                acc = acc.wrapping_add(k);
            }
            usf_core::timing::yield_now();
            usf_core::timing::sleep(Duration::from_millis(1));
            counter.fetch_add(1, Ordering::SeqCst);
            acc
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::SeqCst), 12);
    // Exact cache accounting: each spawn ran on a fresh thread (which attached once) or on
    // a parked worker of its domain (which did not attach again).
    let stats = usf.thread_cache_stats();
    assert_eq!(stats.created + stats.reused, 12);
    let m = usf.metrics();
    assert_eq!(m.attaches, stats.created);
    assert!(m.grants >= 12);
    // The sleeps guarantee real scheduling points happened.
    assert!(m.waitfors >= 12);
    usf.shutdown();
    // Every attached worker, parked or not, has detached once the instance is shut down.
    let m = usf.metrics();
    assert_eq!(m.detaches, m.attaches);
}

/// The full set of blocking primitives used together on one virtual core: if any of them
/// failed to release the core while blocked, this test would deadlock.
#[test]
fn primitives_release_cores_on_single_core_instance() {
    let usf = Usf::builder().cores(1).build();
    let p = usf.process("primitives");
    let state = Arc::new((Mutex::new(0u32), Condvar::new()));
    let sem = Arc::new(Semaphore::new(0));
    let barrier = Arc::new(Barrier::new(3));

    let mut handles = Vec::new();
    for _ in 0..2 {
        let state = Arc::clone(&state);
        let sem = Arc::clone(&sem);
        let barrier = Arc::clone(&barrier);
        handles.push(p.spawn(move || {
            // Wait for the go signal through the condvar.
            {
                let (m, cv) = &*state;
                let _g = cv.wait_while(m.lock(), |v| *v == 0);
            }
            sem.acquire();
            barrier.wait();
        }));
    }
    let signaller = {
        let state = Arc::clone(&state);
        let sem = Arc::clone(&sem);
        let barrier = Arc::clone(&barrier);
        p.spawn(move || {
            usf_core::timing::sleep(Duration::from_millis(5));
            {
                let (m, cv) = &*state;
                *m.lock() = 1;
                cv.notify_all();
            }
            sem.release_n(2);
            barrier.wait();
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    signaller.join().unwrap();
    usf.shutdown();
}

/// SCHED_COOP threads never preempt each other: a long-running compute thread on a single
/// core delays later-submitted threads until it blocks (run-to-block semantics), unlike the
/// time-slicing OS baseline.
#[test]
fn run_to_block_ordering_on_one_core() {
    let usf = Usf::builder().cores(1).build();
    let p = usf.process("order");
    let order = Arc::new(Mutex::new(Vec::<&'static str>::new()));

    let o1 = Arc::clone(&order);
    let first = p.spawn(move || {
        // Runs uninterrupted: no USF scheduling point inside.
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        o1.lock().push("first-done");
    });
    // Give the first thread time to be granted the single core.
    std::thread::sleep(Duration::from_millis(10));
    let o2 = Arc::clone(&order);
    let second = p.spawn(move || {
        o2.lock().push("second-done");
    });
    first.join().unwrap();
    second.join().unwrap();
    let order = order.lock().clone();
    assert_eq!(
        order,
        vec!["first-done", "second-done"],
        "the running thread must not be preempted by the second"
    );
    usf.shutdown();
}

/// Runtime composition end-to-end: an outer task runtime plus inner fork-join teams on a
/// 2-core USF instance, with more live threads than cores throughout.
#[test]
fn nested_runtime_composition_under_sched_coop() {
    let usf = Usf::builder().cores(2).build();
    let p = usf.process("nested");
    let exec = ExecMode::Usf(p.clone());
    let rt = TaskRuntime::with_workers(3, exec.clone());
    let total = Arc::new(AtomicUsize::new(0));
    for _ in 0..6 {
        let total = Arc::clone(&total);
        let exec = exec.clone();
        rt.submit_independent(move || {
            let team = Team::with_threads(3, exec.clone());
            team.parallel(3, |_ctx| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
    }
    rt.taskwait();
    assert_eq!(total.load(Ordering::SeqCst), 18);
    drop(rt);
    usf.shutdown();
}

/// The thread cache masks joins and reuses workers across spawn waves (§4.3.1) — the effect
/// behind the Table 2 "pth" speedups.
#[test]
fn thread_cache_reuse_across_transient_pool_waves() {
    let usf = Usf::builder().cores(2).cache_capacity(32).build();
    let p = usf.process("pth");
    let pool = TransientPool::new(ExecMode::Usf(p));
    for wave in 0..4 {
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        pool.run(4, move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4, "wave {wave}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let stats = usf.thread_cache_stats();
    assert_eq!(stats.created + stats.reused, 16);
    assert!(
        stats.reused > 0,
        "later waves must reuse cached workers: {stats:?}"
    );
    usf.shutdown();
}

/// Affinity hints are stored and echoed back but the scheduler keeps control (§4.3.2).
/// Hints are validated against the instance topology: cores that cannot exist are
/// clamped away instead of round-tripping as silently dead hints.
#[test]
fn affinity_hints_are_stored_not_applied() {
    use usf_core::affinity::{get_affinity_hint, set_affinity_hint, CpuSet};
    let usf = Usf::builder().cores(2).build();
    let p = usf.process("affinity");
    let h = p.spawn(|| {
        let mut mask = CpuSet::single(1);
        mask.set(99); // outside the 2-core instance: clamped
        set_affinity_hint(mask);
        let echoed = get_affinity_hint();
        let actual = usf_core::affinity::current_scheduler_core();
        (echoed, actual)
    });
    let (echoed, actual) = h.join().unwrap();
    assert_eq!(
        echoed,
        Some(CpuSet::single(1)),
        "in-range cores echo back, out-of-range cores are clamped"
    );
    assert!(
        actual.unwrap() < 2,
        "the scheduler placement ignores the hint"
    );
    usf.shutdown();
}
