//! `hpc-pair`: a nested matmul co-runs with a Cholesky factorization, both full width
//! (closed loop, 2× oversubscription), in the `library::hpc_pair` shape.
//!
//! The matmul is a task-runtime outer runtime whose tasks open OpenMP-like inner BLAS
//! teams with busy-yield barriers; the Cholesky's inner BLAS spawns a transient pool per
//! call. Each process runs units back to back until the window closes; the last product
//! and factor are verified after timing. The matrices are fixed by the instance
//! constructors, so the seed changes nothing here.

use crate::stats::{self, LogHist};
use crate::suite::{attach, exec_for, probe_begin, us, Bench, Metric, Outcome, Stack};
use crate::trace::{durations_us, Span, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_blas::{BarrierKind, BlasThreading};
use usf_core::exec::ExecMode;
use usf_core::runtime::Usf;
use usf_workloads::{CholeskyConfig, CholeskyInstance, MatmulConfig, MatmulInstance};

/// `(matrix, tile)` dimensions: `ProblemSize::Small` of the scenario library.
const N: usize = 128;
const TILE: usize = 32;
/// Largest absolute error accepted in `C = A·B` and in `L·Lᵀ = A`; a wrong tile or a
/// lost update is off by far more.
const TOLERANCE: f64 = 1e-9;
const WARMUP_UNITS: usize = 4;
/// The tail percentile reported as `latency_tail_us`, taken over every matmul unit of a
/// process: about 150 on 2 CPUs, so 15 lie beyond it.
pub const TAIL_Q: f64 = 0.9;

const MATMUL_SPAN: &str = "workloads.matmul_unit";
const CHOLESKY_SPAN: &str = "workloads.cholesky_unit";

pub struct HpcPair {
    usf: Option<Usf>,
    mm_exec: ExecMode,
    ch_exec: ExecMode,
    mm: MatmulInstance,
    ch: CholeskyInstance,
}

/// Build the instance, generate the inputs, and run warm-up units in each process: the
/// first unit spawns the runtimes' threads and fills the thread cache.
pub fn setup(stack: Stack) -> Box<dyn Bench> {
    let usf = stack.instance();
    let cores = crate::host::nproc();
    let inner = if cores > 1 { 2 } else { 1 };
    let outer = cores.div_ceil(2);
    let mm_exec = exec_for(&usf, "matmul");
    let ch_exec = exec_for(&usf, "cholesky");
    let barrier = BarrierKind::BusyYield { yield_every: 64 };
    let mut mm = MatmulInstance::new(&MatmulConfig {
        matrix_size: N,
        task_size: TILE,
        inner_threads: inner,
        outer_workers: outer,
        inner_threading: BlasThreading::OpenMpLike,
        barrier,
        exec: mm_exec.clone(),
        iterations: 1,
    });
    let mut ch = CholeskyInstance::new(&CholeskyConfig {
        matrix_size: N,
        tile_size: TILE,
        outer_workers: outer,
        inner_threads: inner,
        inner_threading: BlasThreading::PthreadPerCall,
        barrier,
        exec: ch_exec.clone(),
    });
    {
        let _g = attach(&mm_exec);
        (0..WARMUP_UNITS).for_each(|_| mm.run_once());
    }
    {
        let _g = attach(&ch_exec);
        (0..WARMUP_UNITS).for_each(|_| ch.factorize_once());
    }
    Box::new(HpcPair {
        usf,
        mm_exec,
        ch_exec,
        mm,
        ch,
    })
}

/// What one process's unit loop did in a window.
struct Drive {
    units: u64,
    panics: u64,
    /// Time of every unit, microseconds.
    latencies_us: LogHist,
    /// When the last unit completed.
    end: Instant,
}

/// Run `unit` back to back on a thread attached to `exec` until `deadline`, timing each;
/// a panicking unit is lost and counted. Unit `i` is traced as `span` with op id
/// `op_base + i`.
fn drive(
    exec: &ExecMode,
    deadline: Instant,
    (tracer, span, op_base): (&Tracer, &'static str, u64),
    mut unit: impl FnMut(),
) -> Drive {
    let _g = attach(exec);
    let (mut units, mut panics, mut latencies_us) = (0, 0, LogHist::default());
    let mut end = Instant::now();
    while end < deadline {
        let s = tracer.open(span, op_base + units, 0);
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(&mut unit));
        end = Instant::now();
        tracer.close(s);
        latencies_us.record(us(end - t0));
        units += 1;
        panics += u64::from(ran.is_err());
    }
    Drive {
        units,
        panics,
        latencies_us,
        end,
    }
}

impl Bench for HpcPair {
    fn run(&mut self, window: Duration, tracer: &Arc<Tracer>) -> Outcome {
        let before = probe_begin(&self.usf);
        let start = Instant::now();
        let deadline = start + window;
        let n = N as f64;
        let (mm_mflop, ch_mflop) = (2.0 * n.powi(3) / 1e6, n.powi(3) / 3.0 / 1e6);
        let HpcPair {
            mm_exec,
            ch_exec,
            mm,
            ch,
            ..
        } = self;
        let (m, c) = std::thread::scope(|s| {
            let m = s.spawn(move || {
                drive(mm_exec, deadline, (tracer, MATMUL_SPAN, 0), || {
                    mm.run_once()
                })
            });
            let c = s.spawn(move || {
                drive(ch_exec, deadline, (tracer, CHOLESKY_SPAN, 1 << 40), || {
                    ch.factorize_once()
                })
            });
            (
                m.join().expect("matmul loop panicked"),
                c.join().expect("cholesky loop panicked"),
            )
        });
        let mut out = Outcome::default();
        out.probe_end(&self.usf, before);
        out.attempted = m.units + c.units;
        for (what, panics) in [("matmul", m.panics), ("cholesky", c.panics)] {
            if panics > 0 {
                out.fail(panics, format!("{panics} {what} unit(s) panicked"));
            }
        }
        for (what, err) in [
            ("matmul C = A·B", self.mm.verify_last()),
            ("cholesky L·Lᵀ = A", self.ch.verify_last()),
        ] {
            match err {
                Some(e) if e <= TOLERANCE => {}
                other => out.fail(1, format!("{what}: max error {other:?} > {TOLERANCE:e}")),
            }
        }
        // Throughput is the verified MFLOP of every completed unit over the wall time until
        // both loops stopped. The matmul's unit time, over every unit, is the workload's
        // latency; the Cholesky co-runner's shows in its per-layer unit time.
        let mflop = m.units as f64 * mm_mflop + c.units as f64 * ch_mflop;
        out.throughput = mflop / (m.end.max(c.end) - start).as_secs_f64();
        out.latencies_us = m.latencies_us;
        out.report = vec![
            ("gflops".into(), out.throughput / 1e3, "GFLOP/s"),
            ("matmul_units".into(), m.units as f64, "count"),
            ("cholesky_units".into(), c.units as f64, "count"),
        ];
        out
    }

    fn span_metrics(&self, spans: &[Span]) -> Vec<Metric> {
        [
            ("workloads.matmul_unit_ms_p50", MATMUL_SPAN),
            ("workloads.cholesky_unit_ms_p50", CHOLESKY_SPAN),
        ]
        .into_iter()
        .map(|(name, span)| {
            (
                name.to_string(),
                stats::median(&durations_us(spans, span)) / 1e3,
                "ms",
            )
        })
        .collect()
    }

    fn finish(self: Box<Self>) {
        let HpcPair { usf, mm, ch, .. } = *self;
        drop((mm, ch));
        if let Some(u) = usf {
            u.shutdown();
        }
    }
}
