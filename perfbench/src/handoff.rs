//! `handoff`: pairs of cooperative threads bounce a checked, incrementing token through
//! bounded channels (closed loop, no compute).
//!
//! Each send wakes a paused peer and each receive pauses the caller, so every round trip
//! is two pause → submit → intake drain → grant → dispatch cycles of the scheduler, with
//! no runtime or BLAS in the way. The pairs outnumber the virtual cores.

use crate::stats::{self, LogHist};
use crate::suite::{probe_begin, us, Bench, Metric, Outcome, SplitMix, Stack};
use crate::trace::{durations_us, Span, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use usf_core::runtime::Usf;
use usf_core::sync::{channel, Receiver, Sender};
use usf_core::thread::JoinHandle;

const PAIRS: usize = 4;
/// Round trips per pair before the first window: the threads and channels are warm.
const WARMUP_ROUND_TRIPS: u64 = 2_000;
/// The tail percentile reported as `latency_tail_us`.
pub const TAIL_Q: f64 = 0.99;

const ROUND_TRIP_SPAN: &str = "handoff.round_trip";
const SEND_SPAN: &str = "core.send";
const RECV_SPAN: &str = "core.recv";

/// The end of one window, and the tracer to record into.
type Cmd = (Instant, Arc<Tracer>);

/// What one initiator did in a window.
#[derive(Default)]
struct PairRun {
    round_trips: u64,
    broken: u64,
    /// Time of every round trip, microseconds.
    latencies_us: LogHist,
}

struct Pair {
    cmd: Sender<Cmd>,
    done: Receiver<PairRun>,
    /// Tokens the echo thread received out of sequence.
    echo_broken: Arc<AtomicU64>,
    threads: [JoinHandle<()>; 2],
}

pub struct Handoff {
    usf: Option<Usf>,
    pairs: Vec<Pair>,
    /// Echo-side sequence breaks already counted against a window.
    broken_reported: u64,
    /// The initiators' warm-up sequence breaks, counted against the first window.
    warmup_broken: u64,
}

/// Build the instance, start the pairs from seeded tokens, and warm them up.
pub fn setup(seed: u64) -> Box<dyn Bench> {
    let usf = Stack::Usf
        .instance()
        .expect("the USF stack has an instance");
    let proc = usf.process("handoff");
    let mut rng = SplitMix(seed);
    let pairs: Vec<Pair> = (0..PAIRS as u64)
        .map(|p| {
            let first = rng.next_u64() >> 2;
            let (to_echo, from_init) = channel::<u64>(1);
            let (to_init, from_echo) = channel::<u64>(1);
            let (cmd, cmds) = channel::<Cmd>(1);
            let (done_tx, done) = channel::<PairRun>(1);
            let echo_broken = Arc::new(AtomicU64::new(0));
            let broken = Arc::clone(&echo_broken);
            let echo = proc.spawn_named(format!("echo-{p}"), move || {
                echo_loop(first, &from_init, &to_init, &broken)
            });
            let init = proc.spawn_named(format!("init-{p}"), move || {
                initiator(p, first, &to_echo, &from_echo, &cmds, &done_tx)
            });
            Pair {
                cmd,
                done,
                echo_broken,
                threads: [init, echo],
            }
        })
        .collect();
    let warmup_broken = pairs
        .iter()
        .map(|pair| pair.done.recv().expect("a pair died during warm-up").broken)
        .sum();
    Box::new(Handoff {
        usf: Some(usf),
        pairs,
        broken_reported: 0,
        warmup_broken,
    })
}

/// Op id of round trip `seq` of pair `p`.
fn op(p: u64, seq: u64) -> u64 {
    (p << 48) | seq
}

/// The initiator: send `token`, expect `token + 1` back, advance by two. Warms up, then
/// runs one window per command until the command channel closes.
fn initiator(
    p: u64,
    first: u64,
    tx: &Sender<u64>,
    rx: &Receiver<u64>,
    cmds: &Receiver<Cmd>,
    done: &Sender<PairRun>,
) {
    let mut token = first;
    let idle = Tracer::new(false);
    let mut warmup = PairRun::default();
    for _ in 0..WARMUP_ROUND_TRIPS {
        warmup.broken += u64::from(!round_trip(p, first, &mut token, tx, rx, &idle));
    }
    if done.send(warmup).is_err() {
        return;
    }
    while let Ok((deadline, tracer)) = cmds.recv() {
        let mut run = PairRun::default();
        while Instant::now() < deadline {
            let t0 = Instant::now();
            run.broken += u64::from(!round_trip(p, first, &mut token, tx, rx, &tracer));
            run.latencies_us.record(us(t0.elapsed()));
            run.round_trips += 1;
        }
        if done.send(run).is_err() {
            return;
        }
    }
}

/// One checked round trip; `false` if the reply was out of sequence.
fn round_trip(
    p: u64,
    first: u64,
    token: &mut u64,
    tx: &Sender<u64>,
    rx: &Receiver<u64>,
    tracer: &Tracer,
) -> bool {
    let op = op(p, (*token - first) / 2);
    let rt = tracer.open(ROUND_TRIP_SPAN, op, 0);
    let s = tracer.open(SEND_SPAN, op, rt.id());
    tx.send(*token).expect("echo thread gone");
    tracer.close(s);
    let r = tracer.open(RECV_SPAN, op, rt.id());
    let reply = rx.recv().expect("echo thread gone");
    tracer.close(r);
    tracer.close(rt);
    let in_sequence = reply == *token + 1;
    *token += 2;
    in_sequence
}

/// The echo thread: expect the next token in sequence, answer `token + 1`, until the
/// initiator hangs up. The initiator's spans time both directions of the round trip.
fn echo_loop(first: u64, rx: &Receiver<u64>, tx: &Sender<u64>, broken: &AtomicU64) {
    let mut expected = first;
    while let Ok(token) = rx.recv() {
        if token != expected {
            broken.fetch_add(1, Ordering::Relaxed);
        }
        expected = token + 2;
        if tx.send(token + 1).is_err() {
            return;
        }
    }
}

impl Bench for Handoff {
    fn run(&mut self, window: Duration, tracer: &Arc<Tracer>) -> Outcome {
        let before = probe_begin(&self.usf);
        let start = Instant::now();
        for pair in &self.pairs {
            if pair.cmd.send((start + window, Arc::clone(tracer))).is_err() {
                panic!("a handoff initiator is gone");
            }
        }
        let runs: Vec<PairRun> = self
            .pairs
            .iter()
            .map(|p| p.done.recv().expect("initiator died mid-window"))
            .collect();
        let wall = start.elapsed();
        let mut out = Outcome::default();
        out.probe_end(&self.usf, before);
        let mut broken = std::mem::take(&mut self.warmup_broken);
        for r in runs {
            out.attempted += r.round_trips;
            broken += r.broken;
            out.latencies_us.merge(&r.latencies_us);
        }
        let echo_broken: u64 = self
            .pairs
            .iter()
            .map(|p| p.echo_broken.load(Ordering::Relaxed))
            .sum();
        broken += echo_broken - std::mem::replace(&mut self.broken_reported, echo_broken);
        if broken > 0 {
            out.fail(
                broken,
                format!("{broken} tokens or replies out of sequence"),
            );
        }
        // Throughput is round trips per second of wall time, until every pair stopped.
        out.throughput = out.attempted as f64 / wall.as_secs_f64();
        let lat = &out.latencies_us;
        out.report = vec![
            ("latency_p50_us".into(), lat.quantile(0.5), "us"),
            ("latency_p99_us".into(), lat.quantile(0.99), "us"),
            ("round_trips".into(), out.attempted as f64, "count"),
            ("handoffs_per_s".into(), out.throughput, "1/s"),
        ];
        out
    }

    fn span_metrics(&self, spans: &[Span]) -> Vec<Metric> {
        let send = durations_us(spans, SEND_SPAN);
        let recv = durations_us(spans, RECV_SPAN);
        vec![
            (
                "core.send_ns_p50".into(),
                stats::quantile(&send, 0.5) * 1e3,
                "ns",
            ),
            (
                "core.recv_wait_us_p50".into(),
                stats::quantile(&recv, 0.5),
                "us",
            ),
            (
                "core.recv_wait_us_p99".into(),
                stats::quantile(&recv, 0.99),
                "us",
            ),
        ]
    }

    fn finish(self: Box<Self>) {
        let Handoff { usf, pairs, .. } = *self;
        for Pair { cmd, threads, .. } in pairs {
            drop(cmd);
            for t in threads {
                t.join().expect("handoff thread panicked");
            }
        }
        if let Some(u) = usf {
            u.shutdown();
        }
    }
}
