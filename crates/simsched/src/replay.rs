//! Deterministic replay of recorded scheduler traces.
//!
//! A trace recorded by the real runtime ([`usf_nosv::sched_trace`], behind its
//! `sched-trace` feature) is re-executed here through the *simulator's* instantiation of
//! the shared SCHED_COOP generic — [`CoopCore`]`<ProcessId, TaskId, SimTime>` — and every
//! recorded pop is compared against what the simulated policy picks at the same logical
//! step. A mismatch means the simulator and the runtime have drifted apart, which the
//! equivalence tests turn into a CI failure.
//!
//! The replay consumes the state-mutating events (`RegisterProcess`, `DeregisterProcess`,
//! `SetDomain`, `Enqueue`, `Pop`, `PopEmpty` — an empty pick re-arms the aging valve, so
//! it must be replayed too) as its script; `Grant` events are cross-checked against
//! the preceding pop (every non-immediate grant must hand out exactly the task the policy
//! just popped); the remaining events (`Submit`, `IntakeDrain`, `Yield`, `Migrate`,
//! `FaultInjected`, `Shutdown`) are context and are ignored — an injected fault's
//! *effects* show up as ordinary events, so a faulty trace replays like any other. Timestamps are mapped nanosecond-exact —
//! `SimTime::from_nanos(entry.at_nanos)` — which reproduces every quantum rotation and
//! aging-valve decision of the original run (see the recording-side documentation on why
//! the recorded instant is authoritative).
//!
//! # Split-lock traces
//!
//! A trace whose `meta.policy` is `"sched_coop_split"` was recorded by the per-NUMA-node
//! split-lock scheduler: one policy instance per node, with `Scheduler::split_pick_once`
//! arbitrating between the local shard, the rate-limited cross-shard aging valve, and
//! cross-shard stealing. The replay keeps one [`CoopCore`] plus one [`CrossValve`] per
//! node and drives them through [`split_pick`], the ladder function the scheduler itself
//! calls, once per recorded `Pop`/`PopEmpty` (the recording side guarantees one trace
//! event per `split_pick_once` call). Two recording-side properties make this
//! deterministic for the serial traces the fuzzer produces:
//!
//! * the `shard_ready > 0` victim probe guard is equivalent to the victim policy's
//!   `has_ready()` (both count exactly the shard's queued entries), and a serial
//!   recorder never loses a `try_lock`, so victim probes always succeed here too;
//! * enqueue shard routing is recoverable from the trace: a yielding task is requeued
//!   into the *yield core's* shard (its `Enqueue` immediately follows the `Yield`),
//!   every other enqueue lands in the preferred core's node, or shard 0 without a
//!   usable preference — the same rule as `Scheduler::home_shard`.
//!
//! Concurrent multi-shard recordings are seq-stamped best-effort (see
//! `usf_nosv::sched_trace`) and are not fed through `assert_replays_clean`.

use crate::time::SimTime;
use usf_nosv::{split_pick, CoopCore, CrossValve, PickTier, ProcessId, ShardVisit, TaskId};
use usf_nosv::{TraceEntry, TraceEvent, TraceMeta};

/// The first step at which the simulated policy disagreed with the recorded schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Logical step (the trace entry's index) of the disagreeing pop.
    pub step: u64,
    /// What the recording scheduler popped (task, tier; tier is `None` for tier-less
    /// policies), or `None` for a recorded empty pick ([`TraceEvent::PopEmpty`]).
    pub recorded: Option<(TaskId, Option<PickTier>)>,
    /// What the simulated policy popped instead (`None`: nothing was ready).
    pub replayed: Option<(TaskId, PickTier)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: recorded pop {:?}, simulated policy picked {:?}",
            self.step, self.recorded, self.replayed
        )
    }
}

/// Outcome of replaying one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Pops replayed (and compared) before stopping.
    pub pops: u64,
    /// Grant events seen (immediate and popped).
    pub grants: u64,
    /// Logical steps of the pops the *simulated* policy served from the aging valve.
    pub aged_steps: Vec<u64>,
    /// Non-immediate grants whose task did not match the latest replayed pop (always 0
    /// for a well-formed trace).
    pub mismatched_grants: u64,
    /// The first divergence, if the simulated policy ever disagreed with the recording.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the whole trace replayed without drift.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none() && self.mismatched_grants == 0
    }
}

/// The replayed side of the scheduler: one policy core per shard (exactly one for flat
/// traces, one per NUMA node for `"sched_coop_split"` traces) plus the cross-shard aging
/// valves that rate-limit foreign probes.
struct ShardSet {
    shards: Vec<CoopCore<ProcessId, TaskId, SimTime>>,
    valves: Vec<CrossValve<SimTime>>,
    /// `core_nodes` from the trace meta: maps a core to its owning shard in split mode.
    core_nodes: Vec<usize>,
    quantum: SimTime,
}

impl ShardSet {
    fn new(meta: &TraceMeta) -> Self {
        let quantum = SimTime::from_nanos(meta.quantum_nanos);
        let nshards = if meta.policy == "sched_coop_split" {
            meta.core_nodes.iter().copied().max().map_or(1, |m| m + 1)
        } else {
            1
        };
        ShardSet {
            shards: (0..nshards).map(|_| CoopCore::new(meta, quantum)).collect(),
            valves: (0..nshards).map(|_| CrossValve::new()).collect(),
            core_nodes: meta.core_nodes.clone(),
            quantum,
        }
    }

    /// The shard owning `core` (mirrors `Scheduler::shard_of`; out-of-range → 0).
    fn shard_of(&self, core: usize) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        self.core_nodes.get(core).copied().unwrap_or(0)
    }

    /// The shard an `Enqueue` lands in. A yield requeue goes to the *yield core's*
    /// shard (`last_yield` carries the immediately preceding `Yield`, whose `Enqueue`
    /// the recorder emits back-to-back under the same shard lock); everything else
    /// follows `Scheduler::home_shard`: preferred core's node, or shard 0.
    fn enqueue_shard(
        &self,
        task: TaskId,
        preferred: Option<usize>,
        last_yield: Option<(TaskId, usize)>,
    ) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        if let Some((yt, yc)) = last_yield {
            if yt == task {
                return self.shard_of(yc);
            }
        }
        preferred
            .filter(|&c| c < self.core_nodes.len())
            .map_or(0, |c| self.shard_of(c))
    }

    /// Re-execute one `Scheduler::split_pick_once` for `core`: the shared [`split_pick`]
    /// ladder, with foreign shards guarded by `has_ready` (the replay-side equivalent of
    /// the `shard_ready` probe guard). With one shard this is exactly `pick_tiered`,
    /// matching the flat scheduler.
    fn pick_once(&mut self, core: usize, now: SimTime) -> Option<(TaskId, PickTier)> {
        let n = self.shards.len();
        let si = self.shard_of(core);
        let valve_due = n > 1 && self.valves[si].crossed(now, self.quantum);
        let shards = &mut self.shards;
        split_pick(si, n, valve_due, |vi, visit| {
            let shard = &mut shards[vi];
            if vi != si && !shard.has_ready() {
                return None;
            }
            match visit {
                ShardVisit::Aged => shard.pick_aged_for(core, now).map(|t| (t, PickTier::Aged)),
                ShardVisit::Tiered => shard.pick_tiered(core, now),
            }
        })
    }
}

/// Replay `entries` (recorded against the scheduler described by `meta`) through the
/// simulator's SCHED_COOP instantiation, stopping at the first divergence.
pub fn replay(meta: &TraceMeta, entries: &[TraceEntry]) -> ReplayReport {
    let mut set = ShardSet::new(meta);
    let mut report = ReplayReport {
        pops: 0,
        grants: 0,
        aged_steps: Vec::new(),
        mismatched_grants: 0,
        divergence: None,
    };
    let mut last_pop: Option<TaskId> = None;
    // The immediately preceding event, when it was a `Yield` (task, core) — the routing
    // key for the yield-requeue `Enqueue` that directly follows it.
    let mut last_yield: Option<(TaskId, usize)> = None;
    for entry in entries {
        let now = SimTime::from_nanos(entry.at_nanos);
        let this_yield = match &entry.event {
            TraceEvent::Yield { task, core } => Some((*task, *core)),
            _ => None,
        };
        match &entry.event {
            TraceEvent::RegisterProcess { process } => {
                for shard in &mut set.shards {
                    shard.register_process(*process);
                }
            }
            TraceEvent::DeregisterProcess { process } => {
                for shard in &mut set.shards {
                    shard.deregister_process(*process);
                }
            }
            TraceEvent::SetDomain { process, cores } => {
                for shard in &mut set.shards {
                    shard.set_process_domain(*process, cores.clone());
                }
            }
            TraceEvent::Enqueue {
                process,
                task,
                preferred,
            } => {
                let si = set.enqueue_shard(*task, *preferred, last_yield);
                set.shards[si].enqueue(*process, *task, *preferred, now);
            }
            TraceEvent::Pop {
                core: at_core,
                tier,
                task,
            } => {
                let picked = set.pick_once(*at_core, now);
                let matches = match picked {
                    Some((t, picked_tier)) => {
                        t == *task && tier.map_or(true, |rec| rec == picked_tier)
                    }
                    None => false,
                };
                if !matches {
                    report.divergence = Some(Divergence {
                        step: entry.step,
                        recorded: Some((*task, *tier)),
                        replayed: picked,
                    });
                    return report;
                }
                if let Some((_, PickTier::Aged)) = picked {
                    report.aged_steps.push(entry.step);
                }
                report.pops += 1;
                last_pop = Some(*task);
            }
            TraceEvent::PopEmpty { core: at_core } => {
                // Re-execute the empty pick: it must serve nothing here too, and its
                // side effects (re-arming the local and cross-shard aging valves) keep
                // later pops in lockstep.
                if let Some(picked) = set.pick_once(*at_core, now) {
                    report.divergence = Some(Divergence {
                        step: entry.step,
                        recorded: None,
                        replayed: Some(picked),
                    });
                    return report;
                }
            }
            TraceEvent::Grant {
                task, immediate, ..
            } => {
                report.grants += 1;
                if !*immediate && last_pop != Some(*task) {
                    report.mismatched_grants += 1;
                }
            }
            TraceEvent::Submit { .. }
            | TraceEvent::IntakeDrain { .. }
            | TraceEvent::Yield { .. }
            | TraceEvent::Migrate { .. }
            | TraceEvent::FaultInjected { .. }
            | TraceEvent::Shutdown => {}
        }
        last_yield = this_yield;
    }
    report
}

/// [`replay`], but panic with a readable message on any drift — the form the equivalence
/// tests and the fuzz smoke harness use to gate CI.
pub fn assert_replays_clean(meta: &TraceMeta, entries: &[TraceEntry]) -> ReplayReport {
    let report = replay(meta, entries);
    if let Some(d) = &report.divergence {
        panic!("sim-vs-real schedule drift: {d}");
    }
    assert_eq!(
        report.mismatched_grants, 0,
        "trace granted tasks that were not the latest pop"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_2x2() -> TraceMeta {
        TraceMeta {
            core_nodes: vec![0, 0, 1, 1],
            quantum_nanos: 50_000,
            policy: "sched_coop".to_string(),
        }
    }

    fn entry(step: u64, at_nanos: u64, event: TraceEvent) -> TraceEntry {
        TraceEntry {
            step,
            at_nanos,
            event,
        }
    }

    #[test]
    fn scripted_trace_replays_clean() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: Some(2),
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 7,
                },
            ),
            entry(
                3,
                20,
                TraceEvent::Grant {
                    task: 7,
                    core: 2,
                    immediate: false,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 1);
        assert_eq!(report.grants, 1);
        assert!(report.aged_steps.is_empty());
    }

    #[test]
    fn wrong_recorded_pop_is_reported_as_divergence() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: None,
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 0,
                    tier: None,
                    task: 99, // the recorded scheduler claims a task the queues never saw
                },
            ),
        ];
        let report = replay(&meta, &entries);
        let d = report.divergence.expect("divergence must be detected");
        assert_eq!(d.step, 2);
        assert_eq!(d.recorded, Some((99, None)));
        assert_eq!(d.replayed.map(|(t, _)| t), Some(7));
    }

    fn meta_split_2x2() -> TraceMeta {
        TraceMeta {
            core_nodes: vec![0, 0, 1, 1],
            quantum_nanos: 50_000,
            policy: "sched_coop_split".to_string(),
        }
    }

    #[test]
    fn scripted_split_trace_replays_local_picks_and_steal() {
        let meta = meta_split_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            // Preferred cores route the enqueues to their home shards.
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 7,
                    preferred: Some(0),
                },
            ),
            entry(
                2,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 8,
                    preferred: Some(2),
                },
            ),
            // Each shard serves its own affinity pick.
            entry(
                3,
                20,
                TraceEvent::Pop {
                    core: 0,
                    tier: Some(PickTier::Affinity),
                    task: 7,
                },
            ),
            entry(
                4,
                20,
                TraceEvent::Grant {
                    task: 7,
                    core: 0,
                    immediate: false,
                },
            ),
            entry(
                5,
                25,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 8,
                },
            ),
            // Work lands in shard 0 while shard 1 goes idle: core 3 steals it.
            entry(
                6,
                30,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 9,
                    preferred: Some(1),
                },
            ),
            entry(
                7,
                40,
                TraceEvent::Pop {
                    core: 3,
                    tier: Some(PickTier::Remote),
                    task: 9,
                },
            ),
            // Everything drained: the empty pick must be empty here too.
            entry(8, 45, TraceEvent::PopEmpty { core: 1 }),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 3);
        assert!(report.aged_steps.is_empty());
    }

    #[test]
    fn split_yield_requeue_routes_to_the_yield_cores_shard() {
        let meta = meta_split_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                10,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: Some(2),
                },
            ),
            entry(
                2,
                20,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Affinity),
                    task: 1,
                },
            ),
            entry(
                3,
                20,
                TraceEvent::Grant {
                    task: 1,
                    core: 2,
                    immediate: false,
                },
            ),
            // Task 1 yields on core 2: its unbound requeue must land in shard 1 (the
            // yield core's shard), not shard 0 (the no-preference default).
            entry(4, 30, TraceEvent::Yield { task: 1, core: 2 }),
            entry(
                5,
                30,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: None,
                },
            ),
            // A later unbound enqueue with no preceding yield takes the default route
            // to shard 0.
            entry(
                6,
                35,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 2,
                    preferred: None,
                },
            ),
            // Core 0's local pick sees only task 2 — if the yield requeue had been
            // misrouted to shard 0, the older task 1 would be popped here instead and
            // the replay would diverge.
            entry(
                7,
                40,
                TraceEvent::Pop {
                    core: 0,
                    tier: Some(PickTier::Node),
                    task: 2,
                },
            ),
            entry(
                8,
                45,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Node),
                    task: 1,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 3);
    }

    #[test]
    fn split_cross_shard_valve_serves_foreign_aged_work() {
        let meta = meta_split_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            // An early empty pick on core 2 arms shard 1's cross-shard valve.
            entry(1, 10, TraceEvent::PopEmpty { core: 2 }),
            entry(
                2,
                20,
                TraceEvent::Enqueue {
                    process: 1,
                    task: 1,
                    preferred: Some(0),
                },
            ),
            // A quantum later the valve fires and core 2 takes shard 0's over-aged
            // task through the valve tier, ahead of the ordinary steal path.
            entry(
                3,
                60_000,
                TraceEvent::Pop {
                    core: 2,
                    tier: Some(PickTier::Aged),
                    task: 1,
                },
            ),
        ];
        let report = assert_replays_clean(&meta, &entries);
        assert_eq!(report.pops, 1);
        assert_eq!(report.aged_steps, vec![3]);
    }

    #[test]
    fn non_immediate_grant_must_match_last_pop() {
        let meta = meta_2x2();
        let entries = vec![
            entry(0, 0, TraceEvent::RegisterProcess { process: 1 }),
            entry(
                1,
                5,
                TraceEvent::Grant {
                    task: 3,
                    core: 0,
                    immediate: true, // idle-core grants bypass the queues: always fine
                },
            ),
            entry(
                2,
                9,
                TraceEvent::Grant {
                    task: 4,
                    core: 1,
                    immediate: false, // ...but a popped grant with no pop is malformed
                },
            ),
        ];
        let report = replay(&meta, &entries);
        assert_eq!(report.mismatched_grants, 1);
        assert!(!report.is_clean());
    }
}
