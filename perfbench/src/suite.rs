//! What every workload shares: the stack it runs on, the outcome of one measured window,
//! and the obs-plane probe taken around it.

use crate::stats::LogHist;
use crate::trace::{Span, Tracer};
use std::sync::Arc;
use std::time::Duration;
use usf_core::exec::ExecMode;
use usf_core::runtime::Usf;
use usf_core::thread::cache::ThreadCacheStats;
use usf_nosv::StatsSnapshot;

/// One named value with its unit.
pub type Metric = (String, f64, &'static str);

/// Which thread backend the real-stack workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// Cooperative threads of one USF instance (SCHED_COOP).
    Usf,
    /// Plain OS threads under the kernel scheduler; context runs of the traced pass only.
    Os,
}

impl Stack {
    /// A USF instance with one virtual core per host CPU, or none on the OS stack.
    pub fn instance(self) -> Option<Usf> {
        (self == Stack::Usf).then(|| {
            Usf::builder()
                .cores(crate::host::nproc())
                .numa_nodes(crate::host::numa_nodes())
                .build()
        })
    }
}

/// The thread backend of process `name` of `usf`, or plain OS threads without one.
pub fn exec_for(usf: &Option<Usf>, name: &str) -> ExecMode {
    usf.as_ref()
        .map_or(ExecMode::Os, |u| ExecMode::Usf(u.process(name)))
}

/// Attach the calling thread to the process behind `exec` while the guard lives.
pub fn attach(exec: &ExecMode) -> Option<usf_core::runtime::AttachGuard> {
    exec.process().map(|p| p.attach_current())
}

/// The result of one measured window.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (units, requests, round trips, simulations).
    pub attempted: u64,
    /// Operations that failed their output check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// The workload's rate of useful work per second (see `README.md`).
    pub throughput: f64,
    /// Per-operation latencies, microseconds.
    pub latencies_us: LogHist,
    /// The workload's end-to-end figures under their own names, for the log.
    pub report: Vec<Metric>,
    /// Per-layer values the workload measures itself.
    pub layer: Vec<Metric>,
    /// Scheduler obs-plane activity over the window (USF stack only).
    pub sched: Option<StatsSnapshot>,
    /// Thread-cache activity over the window: (threads created, spawns served from cache).
    pub cache: Option<(u64, u64)>,
    /// Digest of every output the window checked, where outputs must not differ between
    /// processes (sim-matrix).
    pub digest: Option<u64>,
}

impl Outcome {
    /// Count `n` failed operations, described by `what`.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Record the obs-plane and thread-cache activity since `before`.
    pub fn probe_end(
        &mut self,
        usf: &Option<Usf>,
        before: Option<(StatsSnapshot, ThreadCacheStats)>,
    ) {
        if let (Some(u), Some((stats, cache))) = (usf, before) {
            self.sched = Some(u.stats_snapshot().delta(&stats));
            let now = u.thread_cache_stats();
            self.cache = Some((now.created - cache.created, now.reused - cache.reused));
        }
    }
}

/// Snapshot taken before a window, for [`Outcome::probe_end`].
pub fn probe_begin(usf: &Option<Usf>) -> Option<(StatsSnapshot, ThreadCacheStats)> {
    usf.as_ref()
        .map(|u| (u.stats_snapshot(), u.thread_cache_stats()))
}

/// A set-up workload.
pub trait Bench {
    /// Run one measured window of at least `window`.
    fn run(&mut self, window: Duration, tracer: &Arc<Tracer>) -> Outcome;
    /// Per-layer values derived from the spans of a traced window.
    fn span_metrics(&self, spans: &[Span]) -> Vec<Metric>;
    /// Stop every thread the workload started and release its instance.
    fn finish(self: Box<Self>);
}

/// SplitMix64: the seeded generator behind every input the benchmark makes.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
