//! `service-batch`: an open-loop request stream beside a closed-loop MD batch (§5.5).
//!
//! Requests arrive as a seeded Poisson stream; each is one `TransientPool::run` region
//! served by a cooperative generator thread that sleeps with `timing::sleep` until the
//! request is due. Latency runs from the due time, so a stalled generator shows in every
//! request queued behind the stall. Beside it an imbalanced (9:1) fork-join MD batch runs
//! steps back to back on every core; its steps per second show what the service's
//! latency cost the batch.

use crate::stats::{self, LogHist};
use crate::suite::{attach, exec_for, probe_begin, us, Bench, Metric, Outcome, Stack};
use crate::trace::{children, durations_us, Span, Tracer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_core::exec::ExecMode;
use usf_core::runtime::Usf;
use usf_runtimes::TransientPool;
use usf_workloads::poisson::PoissonProcess;
use usf_workloads::workload::{spin_for, RuntimeFlavor, SyntheticWorkload, Workload};

/// Mean arrival rate, requests per second.
const RATE: f64 = 500.0;
/// On-core work of one request, summed over its threads.
const REQUEST_WORK: Duration = Duration::from_micros(200);
/// On-core work of one batch step, summed over its threads.
const BATCH_STEP: Duration = Duration::from_millis(4);
/// Heaviest to lightest thread of a batch step.
const IMBALANCE: f64 = 9.0;
/// A request due inside the window must be served this long after the window closes,
/// or it counts as failed.
const GRACE: Duration = Duration::from_secs(1);
const WARMUP_REQUESTS: usize = 50;
const WARMUP_STEPS: usize = 10;
/// The tail percentile reported as `latency_tail_us`. The p99 (logged) sits where a
/// request waits out a batch step or a quantum, and moves by a third from run to run;
/// the p95 is the highest tail that holds still.
pub const TAIL_Q: f64 = 0.95;

const REQUEST_SPAN: &str = "service.request";
const POOL_SPAN: &str = "runtimes.pool_run";
const BODY_SPAN: &str = "service.body";
const SLEEP_SPAN: &str = "core.sleep";
const STEP_SPAN: &str = "workloads.md_step";

pub struct ServiceBatch {
    usf: Option<Usf>,
    svc_exec: ExecMode,
    batch_exec: ExecMode,
    pool: TransientPool,
    batch: SyntheticWorkload,
    arrivals: PoissonProcess,
    request_threads: usize,
}

/// Build the instance, the request pool and the batch team, and warm both up.
pub fn setup(seed: u64, stack: Stack) -> Box<dyn Bench> {
    let usf = stack.instance();
    let cores = crate::host::nproc();
    let svc_exec = exec_for(&usf, "service");
    let batch_exec = exec_for(&usf, "batch");
    let mut batch = SyntheticWorkload::md_steps(
        cores,
        RuntimeFlavor::ForkJoin,
        batch_exec.clone(),
        BATCH_STEP,
        IMBALANCE,
    );
    batch.setup();
    let mut sb = ServiceBatch {
        usf,
        pool: TransientPool::new(svc_exec.clone()),
        svc_exec,
        batch_exec,
        batch,
        arrivals: PoissonProcess::new(RATE, seed),
        request_threads: cores.div_ceil(2),
    };
    {
        let _g = attach(&sb.svc_exec);
        let idle = Tracer::new(false);
        for _ in 0..WARMUP_REQUESTS {
            serve(&sb.pool, sb.request_threads, &idle, 0, 0);
        }
    }
    {
        let _g = attach(&sb.batch_exec);
        for step in 0..WARMUP_STEPS {
            sb.batch.run_unit(step);
        }
    }
    Box::new(sb)
}

/// Serve one request: a pool region whose threads split the request's work.
fn serve(pool: &TransientPool, threads: usize, tracer: &Tracer, op: u64, parent: u64) {
    let region = tracer.open(POOL_SPAN, op, parent);
    let region_id = region.id();
    let per_thread = REQUEST_WORK / threads as u32;
    pool.run(threads, |_| {
        let body = tracer.open(BODY_SPAN, op, region_id);
        spin_for(per_thread);
        tracer.close(body);
    });
    tracer.close(region);
}

/// What the generator did in a window.
struct Served {
    latencies_us: LogHist,
    lateness_us: LogHist,
    sleep_late_us: LogHist,
    due: u64,
    unserved: u64,
}

impl Bench for ServiceBatch {
    fn run(&mut self, window: Duration, tracer: &Arc<Tracer>) -> Outcome {
        let before = probe_begin(&self.usf);
        let start = Instant::now();
        let stop = AtomicBool::new(false);
        let ServiceBatch {
            usf: _,
            svc_exec,
            batch_exec,
            pool,
            batch,
            arrivals,
            request_threads,
        } = self;
        let (batch_exec, pool, threads) = (&*batch_exec, &*pool, *request_threads);
        let (served, (steps, wall)) = std::thread::scope(|s| {
            let stop = &stop;
            let b = s.spawn(move || {
                let _g = attach(batch_exec);
                let mut steps = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let span = tracer.open(STEP_SPAN, steps, 0);
                    batch.run_unit(steps as usize);
                    tracer.close(span);
                    steps += 1;
                }
                (steps, start.elapsed())
            });
            let window = (start, start + window);
            let served = generate(svc_exec, arrivals, window, tracer, |op, parent| {
                serve(pool, threads, tracer, op, parent)
            });
            stop.store(true, Ordering::Release);
            (served, b.join().expect("batch loop panicked"))
        });
        let mut out = Outcome::default();
        out.probe_end(&self.usf, before);
        // Throughput is the batch's completed steps per second of wall time, until it
        // stopped; latency is every request's, including those served after the window.
        out.throughput = steps as f64 / wall.as_secs_f64();
        out.latencies_us = served.latencies_us;
        out.attempted = served.due;
        if served.unserved > 0 {
            out.fail(
                served.unserved,
                format!(
                    "{} of {} due requests unserved {GRACE:?} after the window",
                    served.unserved, served.due
                ),
            );
        }
        let lat = &out.latencies_us;
        out.report = vec![
            ("latency_p50_us".into(), lat.quantile(0.5), "us"),
            ("latency_p99_us".into(), lat.quantile(0.99), "us"),
            ("requests".into(), served.due as f64, "count"),
            ("batch_steps".into(), steps as f64, "count"),
            ("batch_steps_per_s".into(), out.throughput, "1/s"),
            (
                "generator_late_p50_us".into(),
                served.lateness_us.quantile(0.5),
                "us",
            ),
            (
                "generator_late_p99_us".into(),
                served.lateness_us.quantile(0.99),
                "us",
            ),
        ];
        out.layer = vec![
            (
                "core.sleep_late_us_p50".into(),
                served.sleep_late_us.quantile(0.5),
                "us",
            ),
            (
                "core.sleep_late_us_p99".into(),
                served.sleep_late_us.quantile(0.99),
                "us",
            ),
        ];
        out
    }

    fn span_metrics(&self, spans: &[Span]) -> Vec<Metric> {
        let kids = children(spans);
        let (mut fork, mut join) = (Vec::new(), Vec::new());
        for region in spans.iter().filter(|s| s.name == POOL_SPAN) {
            let Some(bodies) = kids.get(&region.id) else {
                continue;
            };
            let first = bodies
                .iter()
                .map(|b| b.start_ns)
                .min()
                .unwrap_or(region.start_ns);
            let last = bodies
                .iter()
                .map(|b| b.end_ns)
                .max()
                .unwrap_or(region.end_ns);
            fork.push(first.saturating_sub(region.start_ns) as f64 / 1e3);
            join.push(region.end_ns.saturating_sub(last) as f64 / 1e3);
        }
        vec![
            (
                "runtimes.fork_wait_us_p50".into(),
                stats::quantile(&fork, 0.5),
                "us",
            ),
            (
                "runtimes.fork_wait_us_p99".into(),
                stats::quantile(&fork, 0.99),
                "us",
            ),
            (
                "runtimes.join_wait_us_p50".into(),
                stats::quantile(&join, 0.5),
                "us",
            ),
            (
                "runtimes.join_wait_us_p99".into(),
                stats::quantile(&join, 0.99),
                "us",
            ),
            (
                "workloads.md_step_ms_p50".into(),
                stats::median(&durations_us(spans, STEP_SPAN)) / 1e3,
                "ms",
            ),
        ]
    }

    fn finish(self: Box<Self>) {
        let ServiceBatch {
            usf, pool, batch, ..
        } = *self;
        drop((pool, batch));
        if let Some(u) = usf {
            u.shutdown();
        }
    }
}

/// The open-loop generator: on a thread attached to `exec`, wait for each request's due
/// time and serve it with `serve(op, request span)`. Requests due before `deadline` are
/// all served; one still waiting `GRACE` after it counts as unserved.
fn generate(
    exec: &ExecMode,
    arrivals: &mut PoissonProcess,
    (start, deadline): (Instant, Instant),
    tracer: &Tracer,
    mut serve: impl FnMut(u64, u64),
) -> Served {
    let _g = attach(exec);
    let mut s = Served {
        latencies_us: LogHist::default(),
        lateness_us: LogHist::default(),
        sleep_late_us: LogHist::default(),
        due: 0,
        unserved: 0,
    };
    let mut due = start + arrivals.next_gap();
    while due < deadline {
        let op = s.due;
        s.due += 1;
        let now = Instant::now();
        if now > deadline + GRACE {
            s.unserved += 1;
        } else {
            if due > now {
                let sleep = tracer.open(SLEEP_SPAN, op, 0);
                usf_core::timing::sleep(due - now);
                tracer.close(sleep);
                s.sleep_late_us
                    .record(us(Instant::now().saturating_duration_since(due)));
            }
            let issued = Instant::now();
            let request = tracer.open(REQUEST_SPAN, op, 0);
            serve(op, request.id());
            tracer.close(request);
            let done = Instant::now();
            s.lateness_us
                .record(us(issued.saturating_duration_since(due)));
            s.latencies_us.record(us(done - due));
        }
        due += arrivals.next_gap();
    }
    s
}
