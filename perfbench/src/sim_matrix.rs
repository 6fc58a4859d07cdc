//! `sim-matrix`: every canned `library::all` scenario under all four scheduling models
//! through `SimExecutor`, at the paper's core count (closed loop, single thread).
//!
//! A window runs whole passes over the 32 scenario × model simulations, each pass in a
//! seeded order, and at least two passes: the simulator is deterministic, so every
//! repetition of a simulation must report exactly what the set-up's pass reported. Each
//! simulation is timed by its fastest repetition, the one the shared host disturbed
//! least; the latency samples are those 32 times.

use crate::suite::{us, Bench, Metric, Outcome, SplitMix};
use crate::trace::{Span, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_scenarios::{
    library, Executor, ModelSel, ProblemSize, ScenarioReport, ScenarioSpec, SimExecutor,
};
use usf_simsched::Machine;

/// Simulated cores: the two-socket 16-core machine of `fig7_models`' default sweep.
const CORES: usize = 16;
/// Nominal work per unit and thread, as in `fig7_models`.
const UNIT_MS_PER_THREAD: u64 = 10;
const MIN_PASSES: usize = 2;
/// The tail percentile reported as `latency_tail_us`: the highest with ten of a
/// process's 32 simulation times beyond it.
pub const TAIL_Q: f64 = 0.65;

const RUN_SPAN: &str = "simsched.run";

struct Case {
    spec: ScenarioSpec,
    sel: ModelSel,
    exec: SimExecutor,
}

pub struct SimMatrix {
    cases: Vec<Case>,
    rng: SplitMix,
    /// Digest of each case's report in the set-up's pass.
    reference: Vec<u64>,
}

/// Build the scenario library and one executor per scenario and model, then run one
/// warm-up pass, whose reports every later repetition must reproduce.
pub fn setup(seed: u64) -> Box<dyn Bench> {
    let size = ProblemSize::Custom {
        unit_work_us: UNIT_MS_PER_THREAD * 1_000 * CORES as u64,
    };
    let machine = Machine::small_numa(CORES, 2);
    let cases: Vec<Case> = library::all(CORES, size)
        .into_iter()
        .flat_map(|spec| {
            let machine = machine.clone();
            ModelSel::ALL.map(move |sel| Case {
                exec: SimExecutor::for_model(machine.clone(), sel, &spec),
                spec: spec.clone(),
                sel,
            })
        })
        .collect();
    let reference = cases
        .iter()
        .map(|case| digest(&case.exec.run_spec(&case.spec)))
        .collect();
    Box::new(SimMatrix {
        cases,
        rng: SplitMix(seed),
        reference,
    })
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in words.flat_map(u64::to_le_bytes) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of everything a report measures: makespans, unit latencies and counters.
fn digest(r: &ScenarioReport) -> u64 {
    let procs = r.processes.iter().flat_map(|p| {
        [
            p.makespan.as_nanos() as u64,
            p.migrations.unwrap_or(u64::MAX),
        ]
        .into_iter()
        .chain(p.unit_latencies_s.iter().map(|l| l.to_bits()))
    });
    let counters = r
        .sched
        .iter()
        .flat_map(|s| &s.counters)
        .map(|(_, v)| v.to_bits());
    fnv(std::iter::once(r.total_makespan.as_nanos() as u64)
        .chain(procs)
        .chain(counters))
}

impl Bench for SimMatrix {
    fn run(&mut self, window: Duration, tracer: &Arc<Tracer>) -> Outcome {
        let mut out = Outcome::default();
        let mut best = vec![f64::INFINITY; self.cases.len()];
        let (mut switches, mut preemptions) = (0.0, 0.0);
        let start = Instant::now();
        let mut passes = 0;
        while passes < MIN_PASSES || start.elapsed() < window {
            let mut order: Vec<usize> = (0..self.cases.len()).collect();
            self.rng.shuffle(&mut order);
            for i in order {
                let case = &self.cases[i];
                let op = (passes * self.cases.len() + i) as u64;
                let span = tracer.open(RUN_SPAN, op, 0);
                let t0 = Instant::now();
                let report = case.exec.run_spec(&case.spec);
                let dt = t0.elapsed();
                tracer.close(span);
                best[i] = best[i].min(us(dt));
                out.attempted += 1;
                if passes == 0 {
                    let sched = report.sched.as_ref();
                    let get = |n| sched.and_then(|s| s.get(n)).unwrap_or(0.0);
                    switches += get("context_switches");
                    preemptions += get("preemptions");
                }
                if self.reference[i] != digest(&report) {
                    out.fail(
                        1,
                        format!(
                            "{} under {} changed between runs",
                            case.spec.name,
                            case.sel.label()
                        ),
                    );
                }
            }
            passes += 1;
        }
        out.digest = Some(fnv(self.reference.iter().copied()));
        best.iter().for_each(|&t| out.latencies_us.record(t));
        // Throughput is simulations per second.
        out.throughput = best.len() as f64 / (best.iter().sum::<f64>() / 1e6);
        out.report = vec![
            ("sim_runs_per_s".into(), out.throughput, "1/s"),
            ("passes".into(), passes as f64, "count"),
        ];
        // Each model's pass over the library, from every simulation's fastest run.
        let model_ms = |m: &ModelSel| -> f64 {
            let picked = self.cases.iter().zip(&best).filter(|(c, _)| c.sel == *m);
            picked.map(|(_, t)| t / 1e3).sum()
        };
        out.layer = ModelSel::ALL
            .iter()
            .map(|m| (format!("simsched.run_ms.{}", m.label()), model_ms(m), "ms"))
            .chain([
                ("simsched.context_switches".into(), switches, "count"),
                ("simsched.preemptions".into(), preemptions, "count"),
            ])
            .collect();
        out
    }

    fn span_metrics(&self, _spans: &[Span]) -> Vec<Metric> {
        Vec::new()
    }

    fn finish(self: Box<Self>) {}
}
