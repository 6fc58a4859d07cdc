//! The USF stack's benchmark: four workloads on the real stack and the simulator, one
//! command, every metric printed by name with its unit, outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hpc-pair|service-batch|handoff|sim-matrix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures in four fresh processes of this program, one after another, each
//! setting the workload up several times (the median is `setup_s`) and measuring a
//! quarter of `--seconds`; it reports the end-to-end metrics. `--trace 1` is the separate
//! per-layer run: it covers all four workloads, each with an untraced and a traced window,
//! so that every per-layer metric has a value. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod handoff;
mod host;
mod hpc_pair;
mod service_batch;
mod sim_matrix;
mod stats;
mod suite;
mod trace;

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};
use suite::{Bench, Metric, Outcome, Stack};
use trace::{Span, Tracer};

const WORKLOADS: [&str; 4] = ["hpc-pair", "service-batch", "handoff", "sim-matrix"];
/// Processes an untraced run measures in, one after another. The program's speed
/// differs from process to process, by up to a half on the heaviest simulations, with
/// memory layout and hash seeds; one process per run would make that the run's noise.
const PROCESSES: u32 = 4;
/// Set-ups per measuring process; `setup_s` is the median over all processes.
const SETUP_REPS: usize = 5;
/// Windows per workload in the traced run: one untraced, one traced.
const TRACED_SHARE: u32 = 8;
/// Where the traced run writes its spans, relative to the checkout root.
const SPANS_PATH: &str = "perfbench/out/spans.tsv";

const USAGE: &str = "usage: usf-perfbench --workload <hpc-pair|service-batch|handoff|sim-matrix> \
                     --seed <u64> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the processes an untraced run measures in.
    process: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut process = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.into_iter().find(|w| w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--process" => process = Some(value.parse::<u32>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        process,
    })
}

fn setup(workload: &str, seed: u64, stack: Stack) -> Box<dyn Bench> {
    match workload {
        "hpc-pair" => hpc_pair::setup(stack),
        "service-batch" => service_batch::setup(seed, stack),
        "handoff" => handoff::setup(seed),
        "sim-matrix" => sim_matrix::setup(seed),
        other => unreachable!("unknown workload {other}"),
    }
}

fn tail_q(workload: &str) -> f64 {
    match workload {
        "hpc-pair" => hpc_pair::TAIL_Q,
        "service-batch" => service_batch::TAIL_Q,
        "handoff" => handoff::TAIL_Q,
        _ => sim_matrix::TAIL_Q,
    }
}

/// The result line's counts and metrics.
#[derive(Default)]
struct Record {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Record {
    fn count(&mut self, workload: &str, out: &Outcome) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        for f in &out.failures {
            println!("FAILED {workload}: {f}");
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn print_metric((name, value, unit): &Metric) {
    println!("  {name} = {value:.6} {unit}");
}

/// Set up `SETUP_REPS` times (keeping the last), measure one window, and print the
/// record the parent run reads: one line per set-up time, logged figure and failure,
/// then the totals.
fn measure_in_child(args: &Args) {
    let mut setups = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(b) = bench.take() {
            b.finish();
        }
        let t0 = Instant::now();
        bench = Some(setup(args.workload, args.seed, Stack::Usf));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let out = bench.run(
        Duration::from_secs_f64(args.seconds),
        &Arc::new(Tracer::new(false)),
    );
    bench.finish();
    for t in setups {
        println!("setup {t}");
    }
    for (name, value, unit) in &out.report {
        println!("report {name} {value} {unit}");
    }
    for f in &out.failures {
        println!("failure {f}");
    }
    if let Some(d) = out.digest {
        println!("digest {d:016x}");
    }
    let lat = &out.latencies_us;
    println!(
        "result {} {} {} {} {} {} {}",
        out.throughput,
        host::peak_rss_mib(),
        out.attempted,
        out.failed,
        lat.quantile(0.5),
        lat.quantile(tail_q(args.workload)),
        lat.len()
    );
}

/// Measure the workload in `PROCESSES` fresh processes, one after another, each for an
/// equal share of the window, and report the end-to-end metrics: the median over the
/// processes of each one's figure, so that one disturbed process moves none of them.
fn untraced(args: &Args) -> Record {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let window = args.seconds / f64::from(PROCESSES);
    let mut rec = Record::default();
    let mut setups = Vec::new();
    // Per process: throughput, peak RSS, p50, tail, latency samples.
    let mut figures: [Vec<f64>; 5] = Default::default();
    let mut digests = std::collections::BTreeSet::new();
    println!(
        "workload {} seed {}: {PROCESSES} processes of {window:.3} s each",
        args.workload, args.seed
    );
    for k in 0..PROCESSES {
        let seed = args
            .seed
            .wrapping_mul(u64::from(PROCESSES))
            .wrapping_add(u64::from(k));
        let out = std::process::Command::new(&exe)
            .args(["--workload", args.workload, "--trace", "0", "--process"])
            .args([k.to_string(), "--seed".into(), seed.to_string()])
            .args(["--seconds".to_string(), window.to_string()])
            .output()
            .expect("the benchmark can start itself");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut result = None;
        for line in stdout.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums: Vec<f64> = rest.split(' ').filter_map(|x| x.parse().ok()).collect();
            match kind {
                "setup" => setups.extend(nums),
                "report" => println!("  [{k}] {rest}"),
                "failure" => println!("FAILED {} process {k}: {rest}", args.workload),
                "digest" => {
                    digests.insert(rest.to_string());
                }
                "result" => result = Some(nums),
                _ => {}
            }
        }
        let Some(&[throughput, peak, attempted, failed, p50, tail, n]) = result.as_deref() else {
            panic!("measuring process {k} failed: {:?}\n{stdout}", out.status);
        };
        for (list, v) in figures.iter_mut().zip([throughput, peak, p50, tail, n]) {
            list.push(v);
        }
        rec.attempted += attempted as u64;
        rec.failed += failed as u64;
    }
    if digests.len() > 1 {
        println!("FAILED {}: outputs differ between processes", args.workload);
        rec.failed += 1;
    }
    let [throughput, rss, p50, tail, samples] = figures.map(|list| stats::median(&list));
    rec.metrics = vec![
        ("setup_s".into(), stats::median(&setups), "s"),
        ("throughput".into(), throughput, "1/s"),
        ("latency_p50_us".into(), p50, "us"),
        ("latency_tail_us".into(), tail, "us"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ];
    println!("  {} attempted, {} failed", rec.attempted, rec.failed);
    print_metric(&(
        "failed_share".into(),
        rec.failed as f64 / rec.attempted.max(1) as f64,
        "ratio",
    ));
    rec.metrics.iter().for_each(print_metric);
    let q = tail_q(args.workload);
    println!(
        "  latency_tail_us is p{} of a median {samples} samples per process, {} beyond it",
        q * 100.0,
        stats::samples_beyond(samples as u64, q)
    );
    rec
}

/// Obs-plane metrics of one real-stack workload's untraced window.
fn nosv_metrics(w: &str, out: &Outcome) -> Vec<Metric> {
    let Some(d) = &out.sched else {
        return Vec::new();
    };
    let (st, c) = (&d.stages, &d.counters);
    let q = |h, p| stats::hist_quantile_ns(h, p) / 1e3;
    let mut m: Vec<Metric> = vec![
        (
            format!("nosv.dispatch_p50_us.{w}"),
            q(&st.dispatch, 0.5),
            "us",
        ),
        (
            format!("nosv.dispatch_p99_us.{w}"),
            q(&st.dispatch, 0.99),
            "us",
        ),
        (format!("nosv.wake_p50_us.{w}"), q(&st.wake, 0.5), "us"),
        (format!("nosv.wake_p99_us.{w}"), q(&st.wake, 0.99), "us"),
        (
            format!("nosv.intake_wait_p50_us.{w}"),
            q(&st.intake_wait, 0.5),
            "us",
        ),
        (
            format!("nosv.intake_wait_p99_us.{w}"),
            q(&st.intake_wait, 0.99),
            "us",
        ),
        (
            format!("nosv.pause_block_p50_us.{w}"),
            q(&st.pause_block, 0.5),
            "us",
        ),
        (
            format!("nosv.grants_per_op.{w}"),
            c.grants as f64 / out.attempted as f64,
            "ratio",
        ),
        (
            format!("nosv.lock_acquisitions_per_grant.{w}"),
            c.lock_acquisitions as f64 / c.grants as f64,
            "ratio",
        ),
    ];
    if w == "handoff" {
        m.push((
            format!("nosv.steals.{w}"),
            d.shards.iter().map(|s| s.steals).sum::<u64>() as f64,
            "count",
        ));
    } else {
        // Nothing yields in the handoff workload, and its threads are spawned at set-up.
        m.push((
            format!("nosv.yield_block_p99_us.{w}"),
            q(&st.yield_block, 0.99),
            "us",
        ));
        m.push((
            format!("nosv.yield_switch_ratio.{w}"),
            c.yields as f64 / (c.yields + c.yields_noop) as f64,
            "ratio",
        ));
        if let Some((created, reused)) = out.cache {
            m.push((
                format!("core.thread_cache_hit_ratio.{w}"),
                reused as f64 / (created + reused) as f64,
                "ratio",
            ));
            m.push((
                format!("core.thread_cache_spawns.{w}"),
                (created + reused) as f64,
                "count",
            ));
        }
    }
    m
}

/// A solo single-thread calibration of the BLAS tile kernel for `dur`: GFLOP/s, and the
/// kernel's computed arithmetic intensity.
fn blas_calibration(dur: Duration) -> Vec<Metric> {
    const TS: usize = 32;
    let a = usf_blas::Matrix::pseudo_random(TS, TS, 3);
    let b = usf_blas::Matrix::pseudo_random(TS, TS, 4);
    let mut c = vec![0.0; TS * TS];
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < dur {
        for _ in 0..64 {
            usf_blas::kernels::gemm_acc(
                TS,
                TS,
                TS,
                std::hint::black_box(a.as_slice()),
                std::hint::black_box(b.as_slice()),
                &mut c,
            );
        }
        calls += 64;
    }
    std::hint::black_box(&c);
    let flops = usf_blas::kernels::gemm_flops(TS, TS, TS) as f64;
    let bytes = (3 * TS * TS * std::mem::size_of::<f64>()) as f64;
    vec![
        (
            "blas.gemm_tile_gflops".into(),
            calls as f64 * flops / start.elapsed().as_secs_f64() / 1e9,
            "GFLOP/s",
        ),
        (
            "blas.gemm_tile_flops_per_byte_computed".into(),
            flops / bytes,
            "FLOP/B",
        ),
    ]
}

/// Per-span-name count, total and self time of one workload's traced window.
fn print_self_times(w: &str, spans: &[Span], dropped: u64) {
    println!("  spans of {w}: {} kept, {dropped} dropped", spans.len());
    for (name, count, total, own) in trace::self_times(spans) {
        println!(
            "    {name:<26} n={count:<8} total {:>10.3} ms  self {:>10.3} ms ({:.1}%)",
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / total.max(1) as f64
        );
    }
}

/// The per-layer run: every workload, an untraced then a traced window each, then the
/// BLAS calibration and the OS-stack context runs; spans are written out at the end.
fn traced(args: &Args) -> Record {
    let window = Duration::from_secs_f64(args.seconds) / TRACED_SHARE;
    let mut rec = Record::default();
    let mut all_spans: Vec<(&str, Vec<Span>)> = Vec::new();
    let mut usf_runs: Vec<(&str, Outcome)> = Vec::new();
    println!(
        "traced run (--workload {} selects nothing: every workload is covered), {:.3} s windows",
        args.workload,
        window.as_secs_f64()
    );
    for w in WORKLOADS {
        let mut bench = setup(w, args.seed, Stack::Usf);
        let plain = bench.run(window, &Arc::new(Tracer::new(false)));
        let tracer = Arc::new(Tracer::new(true));
        let traced = bench.run(window, &tracer);
        let (spans, dropped) = tracer.take();
        rec.count(w, &plain);
        rec.count(w, &traced);
        rec.metrics.extend(nosv_metrics(w, &plain));
        rec.metrics.extend(bench.span_metrics(&spans));
        rec.metrics.extend(traced.layer.iter().cloned());
        rec.metrics.push((
            format!("trace.overhead_share.{w}"),
            1.0 - traced.throughput / plain.throughput,
            "ratio",
        ));
        bench.finish();
        print_self_times(w, &spans, dropped);
        all_spans.push((w, spans));
        usf_runs.push((w, plain));
    }
    rec.metrics.extend(blas_calibration(window / 4));

    // Context only, never gated: the same window on plain OS threads.
    for (w, usf_out) in usf_runs
        .iter()
        .filter(|(w, _)| *w != "handoff" && *w != "sim-matrix")
    {
        let mut bench = setup(w, args.seed, Stack::Os);
        let os_out = bench.run(window, &Arc::new(Tracer::new(false)));
        bench.finish();
        rec.count(w, &os_out);
        for ((name, usf_v, unit), (_, os_v, _)) in usf_out.report.iter().zip(&os_out.report) {
            println!(
                "  context {w} {name}: usf {usf_v:.3} {unit}, os {os_v:.3} {unit}, usf/os {:.3}",
                usf_v / os_v
            );
        }
    }

    if let Err(e) = write_spans(&all_spans) {
        println!("could not write {SPANS_PATH}: {e}");
    }
    rec
}

fn write_spans(all: &[(&str, Vec<Span>)]) -> std::io::Result<()> {
    let path = std::path::Path::new(SPANS_PATH);
    std::fs::create_dir_all(path.parent().expect("the spans path has a directory"))?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "# host {}", host::fingerprint_json())?;
    writeln!(f, "# workload\tid\tparent\top\tname\tstart_ns\tend_ns")?;
    for (w, spans) in all {
        trace::write_tsv(&mut f, w, spans)?;
    }
    f.flush()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.process.is_some() {
        measure_in_child(&args);
        return;
    }
    println!("host {}", host::fingerprint_json());
    let rec = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", rec.to_json());
}
