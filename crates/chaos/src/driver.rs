//! The chaos driver: compiles a [`Scenario`] onto the `Cluster` facade,
//! replays its workload through pinned client sessions, and records a
//! per-client operation history for the post-hoc checkers.
//!
//! Reads are engine-honest: a client never observes a replica that is down
//! (the operation is refused, like a connection timeout), and at
//! [`Consistency::Strong`] a read first *barriers* — it waits until its
//! entry replica has applied every write submitted so far, the moment a real
//! strongly consistent store would acknowledge the read. A barrier that
//! cannot complete (the replica is partitioned away from the quorum) times
//! out and the read is dropped from the history, exactly as a client-side
//! timeout would be. Barrier reads make the recorded history genuinely
//! linearizable for a correct implementation: the read's interval starts at
//! the barrier's start, so every write acknowledged before it was submitted
//! before it, and the barrier waits those writes in.

use ec_core::etob_omega::EtobConfig;
use ec_core::tob_consensus::ConsensusTobConfig;
use ec_core::types::{AppMessage, MsgId};
use ec_replication::{
    Cluster, ClusterBuilder, ClusterReport, Consistency, Engine, KvStore, Session, StateMachine,
};
use ec_sim::{ProcessId, ProcessSet, Time};
use ec_telemetry::Event;

use crate::scenario::{NemesisOp, Scenario, WorkloadOp};

/// The key–value surface the chaos workload drives: any state machine that
/// can encode a put and answer a lookup. Implemented by the stock
/// [`KvStore`] and by the deliberately broken fixtures.
pub trait KvInterface: StateMachine + Send + 'static {
    /// Encodes a `put key value` command.
    fn put_command(key: &str, value: &str) -> Vec<u8>;
    /// Reads a key from the current state.
    fn lookup(&self, key: &str) -> Option<String>;
}

impl KvInterface for KvStore {
    fn put_command(key: &str, value: &str) -> Vec<u8> {
        KvStore::put(key, value)
    }
    fn lookup(&self, key: &str) -> Option<String> {
        self.get(key).map(str::to_string)
    }
}

/// One recorded client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpRecord {
    /// A write: invoked when submitted, acknowledged when its entry replica
    /// first applied it (`None` if it never was by the end of the run).
    Write {
        /// Issuing session.
        session: usize,
        /// The session's entry replica.
        entry: ProcessId,
        /// The identifier the cluster assigned.
        id: MsgId,
        /// Written key.
        key: String,
        /// Written value.
        value: String,
        /// Submission tick.
        invoked: u64,
        /// First tick the entry replica had applied the write, if ever.
        acked: Option<u64>,
    },
    /// A read that returned: observed `value` for `key` at the entry
    /// replica. (Refused and timed-out reads are not recorded — the client
    /// learned nothing.)
    Read {
        /// Issuing session.
        session: usize,
        /// The session's entry replica.
        entry: ProcessId,
        /// Read key.
        key: String,
        /// Observed value.
        value: Option<String>,
        /// Invocation tick (barrier start at strong consistency).
        invoked: u64,
        /// Return tick.
        returned: u64,
    },
}

/// Everything a finished chaos run exposes to the checkers.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The scenario name.
    pub name: String,
    /// Consistency level of the run.
    pub consistency: Consistency,
    /// Number of replicas.
    pub n: usize,
    /// The recorded operation history, in issue order.
    pub history: Vec<OpRecord>,
    /// Replicas that are eventually always up.
    pub correct: ProcessSet,
    /// Replicas that were down at any point (their sessions' unacknowledged
    /// writes carry no delivery guarantee).
    pub ever_down: ProcessSet,
    /// Final state-machine snapshot, per replica.
    pub snapshots: Vec<Vec<u8>>,
    /// Final delivered sequence of the broadcast layer, per replica.
    pub delivered: Vec<Vec<AppMessage>>,
    /// Reads that were refused (down entry replica) or timed out at the
    /// barrier and therefore observed nothing. Surfaced so lost checking
    /// coverage is visible: a permanently lost write makes every later
    /// strong barrier read time out, which would otherwise silently leave
    /// the linearizability check with nothing to constrain it.
    pub reads_dropped: usize,
    /// Digest pulls performed by the delta-sync wire layer — update gaps
    /// (lost, reordered or rejoin-missed deltas) that were detected from a
    /// received digest and repaired. A lossy scenario with zero pulls did
    /// not actually exercise the resync machinery.
    pub sync_pulls: u64,
    /// The facade's cluster report (convergence, fault counters).
    pub report: ClusterReport,
    /// Per-replica flight-recorder rings harvested at the horizon: the last
    /// few hundred lifecycle events each replica recorded, plus the
    /// simulator's crash/recovery marks. Causally merged and dumped next to
    /// the counterexample when a checker fails (see [`crate::artifact`]).
    pub flight: Vec<Vec<Event>>,
}

impl RunOutcome {
    /// Iterates over the recorded writes.
    pub fn writes(&self) -> impl Iterator<Item = &OpRecord> {
        self.history
            .iter()
            .filter(|r| matches!(r, OpRecord::Write { .. }))
    }

    /// The final delivered identifier sequence of replica `p`.
    pub fn delivered_ids(&self, p: ProcessId) -> Vec<MsgId> {
        self.delivered[p.index()].iter().map(|m| m.id).collect()
    }
}

/// How long a strong read barriers before the client gives up, in ticks.
const READ_DEADLINE: u64 = 500;
/// Clock advance granularity while a read barriers.
const READ_CHUNK: u64 = 25;
/// Anti-entropy retransmission period handed to Algorithm 5 in chaos runs.
const CHAOS_RESEND: u64 = 15;
/// Facade ticks (wall-clock milliseconds) a real-time smoke run may take
/// past its horizon to finish applying what it accepted.
const SMOKE_GRACE: u64 = 5_000;

/// The cluster a scenario asks for, on whatever engine runs it.
fn builder_for<S: KvInterface>(scenario: &Scenario) -> ClusterBuilder<S> {
    let builder = ClusterBuilder::new(scenario.n)
        .consistency(scenario.consistency)
        .etob(EtobConfig::default().with_resend(CHAOS_RESEND))
        .tob(ConsensusTobConfig::default().with_catch_up());
    match &scenario.durable {
        Some(dir) => builder.durable(dir),
        None => builder,
    }
}

/// Runs a scenario to completion on the deterministic simulator and returns
/// the recorded outcome. Bit-reproducible: the same scenario always returns
/// the same outcome.
///
/// # Panics
///
/// Panics if the scenario is not well-formed (see
/// [`Scenario::assert_well_formed`]).
pub fn run_scenario<S: KvInterface>(scenario: &Scenario) -> RunOutcome {
    scenario.assert_well_formed();
    let failures = scenario.failure_pattern();
    let mut cluster: Cluster<S> = builder_for(scenario).deploy(&scenario.engine());
    let mut sessions: Vec<Session> = (0..scenario.sessions).map(|_| cluster.session()).collect();

    let mut history: Vec<OpRecord> = Vec::new();
    let mut writes_submitted = 0usize;
    let mut reads_dropped = 0usize;
    for op in &scenario.workload {
        cluster.run_until(op.at);
        let entry = sessions[op.session].entry();
        let now = cluster.clock();
        if !failures.is_alive(entry, Time::new(now)) {
            // the replica is down: the client's request is refused
            if matches!(op.op, WorkloadOp::Read { .. }) {
                reads_dropped += 1;
            }
            continue;
        }
        match &op.op {
            WorkloadOp::Put { key, value } => {
                let id = cluster.submit(&mut sessions[op.session], S::put_command(key, value), now);
                writes_submitted += 1;
                history.push(OpRecord::Write {
                    session: op.session,
                    entry,
                    id,
                    key: key.clone(),
                    value: value.clone(),
                    invoked: now,
                    acked: None,
                });
            }
            WorkloadOp::Read { key } => {
                let invoked = now;
                if scenario.consistency == Consistency::Strong {
                    // barrier: wait until the entry replica has applied every
                    // write submitted so far, or give up
                    let deadline = invoked + READ_DEADLINE;
                    while cluster.applied(entry) < writes_submitted
                        && cluster.clock() < deadline
                        && failures.is_alive(entry, Time::new(cluster.clock()))
                    {
                        let next = (cluster.clock() + READ_CHUNK).min(deadline);
                        cluster.run_until(next);
                    }
                    if cluster.applied(entry) < writes_submitted {
                        reads_dropped += 1;
                        continue; // client-side timeout; nothing observed
                    }
                }
                if !failures.is_alive(entry, Time::new(cluster.clock())) {
                    // the replica went down mid-barrier: no client could
                    // observe it, even if it had caught up first
                    reads_dropped += 1;
                    continue;
                }
                let returned = cluster.clock();
                let value = cluster.state(entry).and_then(|state| state.lookup(key));
                history.push(OpRecord::Read {
                    session: op.session,
                    entry,
                    key: key.clone(),
                    value,
                    invoked,
                    returned,
                });
            }
        }
    }
    cluster.run_until(scenario.horizon());

    let snapshots = cluster.replica_ids().map(|p| cluster.snapshot(p)).collect();
    let delivered: Vec<Vec<AppMessage>> = cluster
        .replica_ids()
        .map(|p| cluster.delivered(p).expect("sim deployment"))
        .collect();

    // Reconstruct write acknowledgement times from the output history: a
    // write is acknowledged the first time its entry replica's applied count
    // exceeds the write's position in that replica's delivered sequence.
    cluster.with_history(|outputs| {
        for record in &mut history {
            let OpRecord::Write {
                entry, id, acked, ..
            } = record
            else {
                continue;
            };
            let sequence = delivered.get(entry.index());
            if let Some(pos) = sequence.and_then(|s| s.iter().position(|m| m.id == *id)) {
                *acked = outputs
                    .first_time_where(*entry, |o| o.applied > pos)
                    .map(Time::as_u64);
            }
        }
    });
    RunOutcome {
        name: scenario.name.clone(),
        consistency: scenario.consistency,
        n: scenario.n,
        history,
        correct: cluster.correct(),
        ever_down: scenario.ever_down(),
        snapshots,
        delivered,
        reads_dropped,
        sync_pulls: cluster.sync_pulls(),
        report: cluster.report(),
        flight: cluster.flight_events(),
    }
}

/// Runs the crash smoke subset of a scenario on a real-time engine
/// ([`ec_replication::ThreadEngine`] or [`ec_replication::NetEngine`]): the
/// write workload is replayed against OS threads or real TCP nodes, with
/// [`NemesisOp::Crash`] ops killing replicas at their scripted facade times
/// and [`NemesisOp::CrashRecover`] ops additionally **restarting** them — a
/// fresh incarnation behind the same inbox or address, empty (or recovered
/// from disk, for a durable scenario) until the broadcast layer's
/// anti-entropy re-fills it. Returns the final cluster report after every
/// replica thread has been joined; the caller asserts convergence.
///
/// Network-level faults and Ω lies are simulator-only (the real-time
/// engines have no scripted network), so scenarios carrying them are
/// rejected — the cross-engine claim the smoke subset protects is that the
/// chaos *workload and checker plumbing*, and process-style recovery, are
/// not simulator artifacts.
///
/// # Panics
///
/// Panics if the scenario scripts anything other than crashes and
/// crash–recoveries, or is otherwise malformed.
pub fn run_realtime_smoke<S: KvInterface, E: Engine>(
    scenario: &Scenario,
    engine: &E,
) -> ClusterReport {
    // the dynamic faults as `(at, is_restart, replica)`: sorted, a crash
    // precedes a restart scripted for the same tick
    let mut faults: Vec<(u64, bool, ProcessId)> = Vec::new();
    for op in &scenario.nemesis {
        match op {
            NemesisOp::Crash { process, at } => faults.push((*at, false, *process)),
            NemesisOp::CrashRecover {
                process,
                at,
                back_at,
            } => faults.extend([(*at, false, *process), (*back_at, true, *process)]),
            other => {
                panic!(
                    "a real-time smoke supports crash and crash-recover faults only, got: {other}"
                )
            }
        }
    }
    scenario.assert_well_formed();
    faults.sort();
    let mut cluster: Cluster<S> = builder_for(scenario).deploy(engine);
    let mut sessions: Vec<Session> = (0..scenario.sessions).map(|_| cluster.session()).collect();
    let apply = |cluster: &mut Cluster<S>, restart: bool, p: ProcessId| {
        let _applied = if restart {
            cluster.restart(p)
        } else {
            cluster.crash(p)
        };
    };
    let mut faults = faults.into_iter().peekable();
    let mut accepted = 0usize;
    for op in &scenario.workload {
        while let Some((at, restart, p)) = faults.next_if(|(at, ..)| *at <= op.at) {
            cluster.run_until(at);
            apply(&mut cluster, restart, p);
        }
        cluster.run_until(op.at);
        if let WorkloadOp::Put { key, value } = &op.op {
            let entry = sessions[op.session].entry();
            if !cluster.correct().contains(entry) {
                continue; // refused, as on the simulator
            }
            cluster.submit(&mut sessions[op.session], S::put_command(key, value), op.at);
            accepted += 1;
        }
        // reads are skipped: the smoke subset checks final convergence only
    }
    for (at, restart, p) in faults {
        cluster.run_until(at);
        apply(&mut cluster, restart, p);
    }
    cluster.run_until(scenario.horizon());
    // The horizon is wall-clock time here, and a loaded host can eat all of
    // the settle window: wait (bounded) on what the caller asserts — every
    // accepted write applied at every correct replica — rather than trust
    // the fixed sleep. A run that cannot get there still ends, and fails in
    // the caller.
    let _ = cluster.run_until_applied(accepted, scenario.horizon() + SMOKE_GRACE);
    cluster.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ClientOp;

    fn put(at: u64, session: usize, key: &str, value: &str) -> ClientOp {
        ClientOp {
            at,
            session,
            op: WorkloadOp::Put {
                key: key.into(),
                value: value.into(),
            },
        }
    }

    fn read(at: u64, session: usize, key: &str) -> ClientOp {
        ClientOp {
            at,
            session,
            op: WorkloadOp::Read { key: key.into() },
        }
    }

    #[test]
    fn quiet_runs_record_acked_writes_and_reads() {
        for consistency in [Consistency::Eventual, Consistency::Strong] {
            let mut s = Scenario::quiet("driver-quiet", 3, consistency);
            s.workload = vec![
                put(10, 0, "k", "v1"),
                put(60, 0, "k", "v2"),
                read(3_000, 1, "k"),
            ];
            let outcome = run_scenario::<KvStore>(&s);
            assert_eq!(outcome.history.len(), 3, "{consistency}");
            match &outcome.history[1] {
                OpRecord::Write { acked, value, .. } => {
                    assert!(acked.is_some(), "{consistency}: write never applied");
                    assert_eq!(value, "v2");
                }
                other => panic!("expected a write, got {other:?}"),
            }
            match &outcome.history[2] {
                OpRecord::Read { value, .. } => {
                    assert_eq!(value.as_deref(), Some("v2"), "{consistency}")
                }
                other => panic!("expected a read, got {other:?}"),
            }
            assert_eq!(outcome.correct.len(), 3);
            assert!(outcome.report.all_converged(), "{consistency}");
            // delivered sequences agree across replicas
            let reference = outcome.delivered_ids(ProcessId::new(0));
            assert_eq!(reference.len(), 2);
            for p in 1..3 {
                assert_eq!(outcome.delivered_ids(ProcessId::new(p)), reference);
            }
        }
    }

    #[test]
    fn operations_at_down_replicas_are_refused() {
        let mut s = Scenario::quiet("driver-refused", 3, Consistency::Eventual);
        // session 1 enters through replica 1, which is down at t = 100
        s.nemesis.push(crate::scenario::NemesisOp::CrashRecover {
            process: ProcessId::new(1),
            at: 50,
            back_at: 300,
        });
        s.workload = vec![put(100, 1, "k", "lost"), put(400, 1, "k", "kept")];
        let outcome = run_scenario::<KvStore>(&s);
        assert_eq!(outcome.history.len(), 1, "first write must be refused");
        assert!(outcome.ever_down.contains(ProcessId::new(1)));
        match &outcome.history[0] {
            OpRecord::Write { value, acked, .. } => {
                assert_eq!(value, "kept");
                assert!(acked.is_some());
            }
            other => panic!("expected a write, got {other:?}"),
        }
    }
}
