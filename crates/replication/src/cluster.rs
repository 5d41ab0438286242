//! The engine-agnostic deployment facade: one service API over every
//! execution engine.
//!
//! A replicated service in the style of the paper's motivating systems
//! (Dynamo, PNUTS, Bigtable) is three orthogonal choices:
//!
//! 1. **What** is replicated — any deterministic [`StateMachine`];
//! 2. **How strongly** it is replicated — [`Consistency::Eventual`]
//!    (Algorithm 5 over Ω, partition-available) or [`Consistency::Strong`]
//!    (the Ω + Σ quorum sequencer, partition-blocked);
//! 3. **Where** it runs — the deterministic simulator, or real OS threads
//!    joined by channels or by sockets (an [`Engine`]).
//!
//! [`ClusterBuilder`] makes all three configuration rather than code: it
//! deploys a state machine at a consistency level on an engine and returns a
//! [`Cluster`] with uniform [`Session`] client handles, a uniform
//! [`ClusterReport`], and uniform read/probe accessors. The cross-engine
//! conformance suite (`tests/conformance.rs`) is the payoff: the same
//! workload script, driven through this API on all engines at both
//! consistency levels, converges to byte-identical state-machine snapshots.
//!
//! ```
//! use ec_replication::{ClusterBuilder, Consistency, KvStore, SimEngine};
//!
//! let mut cluster = ClusterBuilder::<KvStore>::new(3)
//!     .consistency(Consistency::Eventual)
//!     .deploy(&SimEngine::new());
//! let mut session = cluster.session();
//! cluster.submit(&mut session, KvStore::put("greeting", "hello"), 10);
//! cluster.submit(&mut session, KvStore::put("greeting", "world"), 20);
//! cluster.run_until(2_000);
//! // the session's writes are causally chained: "world" wins everywhere
//! for p in cluster.replica_ids() {
//!     assert_eq!(cluster.state(p).unwrap().get("greeting"), Some("world"));
//! }
//! assert!(cluster.report().all_converged());
//! ```

use std::fmt;
use std::marker::PhantomData;

use ec_core::etob_omega::EtobConfig;
use ec_core::tob_consensus::ConsensusTobConfig;
use ec_core::types::{AppMessage, MsgId};
use ec_sim::{Metrics, OutputHistory, ProcessId, ProcessSet, Time};

use crate::convergence::ConvergenceReport;
use crate::engine::{DeployError, DeployPlan, Deployment, Engine, EngineKind, ReplicaView};
use crate::replica::{ReplicaCommand, ReplicaOutput};
use crate::session::Session;
use crate::state_machine::StateMachine;

/// How strongly a [`Cluster`] replicates its state machine — the choice the
/// paper quantifies the cost of.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Eventual consistency: Algorithm 5 over Ω alone. Replicas keep
    /// serving through partitions and converge afterwards; delivery takes
    /// two communication steps under a stable leader.
    Eventual,
    /// Strong consistency: the quorum-gated sequencer over Ω + Σ. Replicas
    /// agree at all times but block whenever a Σ quorum is unreachable;
    /// delivery takes three communication steps.
    Strong,
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consistency::Eventual => write!(f, "eventual"),
            Consistency::Strong => write!(f, "strong"),
        }
    }
}

/// Builder for a [`Cluster`]: group size, consistency level and
/// broadcast-layer configuration, deployed onto any [`Engine`].
#[derive(Clone, Debug)]
pub struct ClusterBuilder<S> {
    plan: DeployPlan,
    _state: PhantomData<fn() -> S>,
}

impl<S: StateMachine + Send + 'static> ClusterBuilder<S> {
    /// Starts building a cluster of `replicas` replicas of `S`, eventually
    /// consistent by default.
    ///
    /// # Panics
    ///
    /// Panics if `replicas < 2` (the system model requires `n ≥ 2`).
    pub fn new(replicas: usize) -> Self {
        assert!(
            replicas >= 2,
            "the system model requires at least two replicas"
        );
        ClusterBuilder {
            plan: DeployPlan {
                replicas,
                consistency: Consistency::Eventual,
                etob: EtobConfig::default(),
                tob: ConsensusTobConfig::default(),
                durable: None,
            },
            _state: PhantomData,
        }
    }

    /// Sets the consistency level.
    pub fn consistency(mut self, consistency: Consistency) -> Self {
        self.plan.consistency = consistency;
        self
    }

    /// Sets the Algorithm 5 configuration (promotion period, eager
    /// promotion, batching) used at [`Consistency::Eventual`].
    pub fn etob(mut self, etob: EtobConfig) -> Self {
        self.plan.etob = etob;
        self
    }

    /// Sets the quorum-sequencer configuration used at
    /// [`Consistency::Strong`].
    pub fn tob(mut self, tob: ConsensusTobConfig) -> Self {
        self.plan.tob = tob;
        self
    }

    /// Makes every replica durable under `dir` (replica `i` persists in
    /// `dir/i/`): delivered state is logged and checkpointed, and a
    /// restarted replica recovers from disk, using anti-entropy only for
    /// the suffix it missed.
    pub fn durable(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.plan.durable = Some(crate::durable::DurableOptions::new(dir));
        self
    }

    /// Deploys the cluster on `engine`.
    ///
    /// # Panics
    ///
    /// Panics with the [`DeployError`] if the engine cannot deploy (a
    /// loopback socket could not be set up); [`ClusterBuilder::try_deploy`]
    /// returns it instead.
    pub fn deploy<E: Engine>(self, engine: &E) -> Cluster<S> {
        match self.try_deploy(engine) {
            Ok(cluster) => cluster,
            Err(err) => panic!("{err}"),
        }
    }

    /// Deploys the cluster on `engine`, or says what the engine's substrate
    /// refused.
    pub fn try_deploy<E: Engine>(self, engine: &E) -> Result<Cluster<S>, DeployError> {
        let deployment = engine.deploy::<S>(&self.plan)?;
        let n = deployment.n();
        Ok(Cluster {
            deployment,
            consistency: self.plan.consistency,
            n,
            clock: 0,
            next_seq: vec![0; n],
            next_entry: 0,
            submitted: 0,
            crashed: ProcessSet::new(),
        })
    }
}

/// A deployed replica group: the uniform handle over a state machine `S`
/// replicated at a [`Consistency`] level on an [`Engine`].
///
/// All submissions flow through the cluster, which assigns globally unique
/// message identifiers and keeps facade time (`clock`) monotone, so the same
/// workload script drives a simulated and a threaded deployment identically.
#[derive(Debug)]
pub struct Cluster<S>
where
    S: StateMachine + Send + 'static,
{
    deployment: Box<dyn Deployment<S> + Send>,
    consistency: Consistency,
    n: usize,
    clock: u64,
    next_seq: Vec<u64>,
    next_entry: usize,
    submitted: u64,
    crashed: ProcessSet,
}

impl<S: StateMachine + Send + 'static> Cluster<S> {
    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The identifiers of all replicas.
    pub fn replica_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.n).map(ProcessId::new)
    }

    /// The consistency level this cluster was deployed at.
    pub fn consistency(&self) -> Consistency {
        self.consistency
    }

    /// The engine this cluster runs on.
    pub fn engine(&self) -> EngineKind {
        self.deployment.kind()
    }

    /// Current facade time: the largest time passed to
    /// [`Cluster::run_until`] / [`Cluster::submit`] so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// A new client session entering through the next replica (round-robin
    /// over entry replicas, like clients spread over front ends).
    pub fn session(&mut self) -> Session {
        let entry = ProcessId::new(self.next_entry);
        self.next_entry = (self.next_entry + 1) % self.n;
        Session::at(entry)
    }

    /// A new client session pinned to replica `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn session_at(&self, entry: ProcessId) -> Session {
        assert!(entry.index() < self.n, "no such replica: {entry}");
        Session::at(entry)
    }

    fn assign_id(&mut self, entry: ProcessId) -> MsgId {
        let counter = &mut self.next_seq[entry.index()];
        *counter += 1;
        MsgId::new(entry, *counter)
    }

    /// Submits a command through `session` at facade time `at`, declaring
    /// the session's previous command as a causal dependency (`C(m)` of the
    /// paper). Returns the identifier assigned to the command.
    ///
    /// Submissions should be made in non-decreasing `at` order — the thread
    /// engine paces them against the wall clock.
    pub fn submit(
        &mut self,
        session: &mut Session,
        command: impl Into<ReplicaCommand>,
        at: u64,
    ) -> MsgId {
        let mut command = command.into();
        if let Some(frontier) = session.frontier() {
            if !command.deps.contains(&frontier) {
                command.deps.push(frontier);
            }
        }
        let entry = session.entry();
        let id = self.assign_id(entry);
        command.id = Some(id);
        self.clock = self.clock.max(at);
        self.submitted += 1;
        self.deployment.submit(entry, command, at);
        session.advance(id);
        id
    }

    /// Advances the cluster to facade time `t`: virtual time on the
    /// simulator, wall-clock-paced time on the thread engine.
    pub fn run_until(&mut self, t: u64) {
        self.clock = self.clock.max(t);
        self.deployment.run_until(t);
    }

    /// Advances time in small steps until every correct replica has applied
    /// at least `target` commands, or facade time `max_t` is reached.
    /// Returns `true` if the target was reached — the uniform way to wait
    /// for convergence without guessing a horizon per engine.
    pub fn run_until_applied(&mut self, target: usize, max_t: u64) -> bool {
        const CHUNK: u64 = 25;
        loop {
            let correct = self.correct();
            if correct.iter().all(|p| self.deployment.applied(p) >= target) {
                return true;
            }
            if self.clock >= max_t {
                return false;
            }
            let next = (self.clock + CHUNK).min(max_t);
            self.run_until(next);
        }
    }

    /// Commands applied by replica `p` so far (see [`Deployment::applied`]:
    /// cheap enough to poll; 0 for a `p` outside the group).
    pub fn applied(&self, p: ProcessId) -> usize {
        self.deployment.applied(p)
    }

    /// Commands replica `p` had applied at facade time `t` (for probing
    /// availability during a partition window; 0 for a `p` outside the
    /// group).
    pub fn applied_at(&self, p: ProcessId, t: u64) -> usize {
        let mut applied = 0;
        self.with_history(|history| {
            if p.index() < history.n() {
                applied = history.value_at(p, Time::new(t)).map_or(0, |o| o.applied);
            }
        });
        applied
    }

    /// Commands each replica had applied at facade time `t`.
    pub fn applied_at_all(&self, t: u64) -> Vec<usize> {
        self.replica_ids().map(|p| self.applied_at(p, t)).collect()
    }

    /// Lends `f` the timed replica-output history so far, in facade ticks,
    /// without copying it — what the history-based chaos checkers
    /// reconstruct acknowledgement times from. On the real-time engines `f`
    /// runs under the lock the replicas take to record an output, so it must
    /// only read: no call back into the cluster, no I/O.
    pub fn with_history(&self, mut f: impl FnMut(&OutputHistory<ReplicaOutput>)) {
        self.deployment.with_history(&mut f);
    }

    /// A copy of the timed replica-output history so far, in facade ticks
    /// (for tests that keep a history; [`Cluster::with_history`] reads one
    /// without the copy).
    pub fn output_history(&self) -> OutputHistory<ReplicaOutput> {
        let mut copy = OutputHistory::new(0);
        self.with_history(|history| copy = history.clone());
        copy
    }

    /// Asks replica `p` `question` through [`Deployment::look`] and brings
    /// the answer back; `None` if the replica could not be reached.
    fn ask<R: Send + 'static>(
        &self,
        p: ProcessId,
        question: impl FnOnce(&dyn ReplicaView<S>) -> R + Send + 'static,
    ) -> Option<R> {
        let (reply, answer) = std::sync::mpsc::channel();
        let asked = self.deployment.look(
            p,
            Box::new(move |replica| {
                let _ = reply.send(question(replica));
            }),
        );
        asked.then(|| answer.try_recv().ok()).flatten()
    }

    /// Asks every replica `question`, in replica order, skipping those that
    /// could not be reached.
    fn ask_all<R: Send + 'static>(
        &self,
        question: impl Fn(&dyn ReplicaView<S>) -> R + Copy + Send + 'static,
    ) -> impl Iterator<Item = R> + '_ {
        self.replica_ids()
            .filter_map(move |p| self.ask(p, question))
    }

    /// The canonical snapshot of replica `p`'s state machine (of an empty
    /// one if the replica cannot be reached, see [`Cluster::state`]).
    pub fn snapshot(&self, p: ProcessId) -> Vec<u8> {
        let snapshot = self.ask(p, |r| r.state().snapshot());
        snapshot.unwrap_or_else(|| S::default().snapshot())
    }

    /// A typed copy of replica `p`'s state machine; of a replica that is
    /// down, the state it went down with. `None` if there is no replica
    /// `p`, or if a real-time node's thread died or did not get to the
    /// question within [`ec_runtime::GOODBYE_WAIT_MS`].
    pub fn state(&self, p: ProcessId) -> Option<S> {
        self.ask(p, |r| r.state().clone())
    }

    /// Reads the state machine at `session`'s entry replica — a local,
    /// eventually consistent read, as in the Dynamo-style systems the paper
    /// cites.
    pub fn read(&self, session: &Session) -> Option<S> {
        self.state(session.entry())
    }

    /// The stable delivered sequence of replica `p`'s broadcast layer
    /// (`None` as for [`Cluster::state`]).
    pub fn delivered(&self, p: ProcessId) -> Option<Vec<AppMessage>> {
        self.ask(p, |r| r.delivered().to_vec())
    }

    /// Crashes replica `p` if the engine supports dynamic crashes (thread
    /// and net engines; on the simulator crashes are scripted via
    /// [`crate::engine::SimEngine::failures`]). Returns whether the crash
    /// was applied.
    pub fn crash(&mut self, p: ProcessId) -> bool {
        let applied = self.deployment.crash(p);
        if applied {
            self.crashed.insert(p);
        }
        applied
    }

    /// Restarts a previously crashed replica as a fresh incarnation, if the
    /// engine supports it (thread and net engines: the new incarnation
    /// rejoins behind the same inbox or address — recovered from disk if
    /// the cluster is durable, empty otherwise — and is re-filled by
    /// anti-entropy). On success `p` counts as correct again. Returns
    /// whether the restart was applied.
    pub fn restart(&mut self, p: ProcessId) -> bool {
        let applied = self.deployment.restart(p);
        if applied {
            self.crashed.remove(p);
        }
        applied
    }

    /// Frames rejected as malformed by the net engine's connection readers
    /// so far (always 0 on the other engines, which have no wire to
    /// corrupt).
    pub fn malformed_frames(&self) -> u64 {
        self.deployment.malformed_frames()
    }

    /// The TCP listen address of replica `p`'s node (net engine only; the
    /// adversarial codec tests dial it to inject raw bytes).
    pub fn node_addr(&self, p: ProcessId) -> Option<std::net::SocketAddr> {
        self.deployment.node_addr(p)
    }

    /// The replicas correct so far.
    pub fn correct(&self) -> ProcessSet {
        self.deployment.correct(&self.crashed)
    }

    /// Message counters so far.
    pub fn metrics(&self) -> Metrics {
        self.deployment.metrics()
    }

    /// Total digest pulls of the Algorithm 5 layers so far — wire-level
    /// update gaps (lost, reordered or rejoin-missed deltas) that the
    /// delta-sync machinery detected and repaired (0 for strong clusters).
    pub fn sync_pulls(&self) -> u64 {
        self.ask_all(|r| r.sync_pulls()).sum()
    }

    /// The merged latency summary of the cluster so far.
    pub fn telemetry(&self) -> ec_telemetry::TelemetryReport {
        let mut telemetry = ec_telemetry::TelemetryReport::default();
        for report in self.ask_all(|r| r.telemetry()) {
            telemetry.merge(&report);
        }
        telemetry
    }

    /// The per-replica flight-recorder traces so far, each with the crash
    /// and recovery events that befell its replica (the chaos harness dumps
    /// these next to a failing counterexample).
    pub fn flight_events(&self) -> Vec<Vec<ec_telemetry::Event>> {
        let events = |p| self.ask(p, |r| r.flight_events()).unwrap_or_default();
        let mut flight: Vec<_> = self.replica_ids().map(events).collect();
        for event in self.deployment.fault_events() {
            if let Some(slot) = flight.get_mut(event.origin as usize) {
                slot.push(event);
            }
        }
        flight
    }

    /// Scrapes the live text metrics exposition of replica `p`'s node over
    /// its socket (net engine only; `None` elsewhere or if `p` is down).
    pub fn scrape(&self, p: ProcessId) -> Option<String> {
        self.deployment.scrape(p)
    }

    /// The uniform cluster report, computed live: per-replica applied
    /// counts and snapshots, convergence of the replica outputs, and
    /// message costs.
    pub fn report(&self) -> ClusterReport {
        let correct = self.correct();
        let mut convergence = ConvergenceReport::default();
        self.with_history(|history| {
            convergence = ConvergenceReport::from_history(history, &correct);
        });
        let metrics = self.metrics();
        let shard = ShardReport {
            shard: 0,
            ops_routed: self.submitted,
            applied: self.replica_ids().map(|p| self.applied(p)).collect(),
            snapshots: self.replica_ids().map(|p| self.snapshot(p)).collect(),
            converged_at: convergence.converged_at,
            divergences: convergence.divergence_count(),
            messages_sent: metrics.messages_sent,
            bytes_sent: metrics.bytes_sent,
            updates_sent: self.ask_all(|r| r.updates_sent()).sum(),
            faults_dropped: metrics.faults_dropped,
            faults_duplicated: metrics.faults_duplicated,
            telemetry: self.telemetry(),
        };
        ClusterReport {
            engine: self.engine(),
            consistency: self.consistency,
            shards: vec![shard],
            totals: metrics,
        }
    }

    /// Stops the cluster and returns the final report: what
    /// [`Cluster::report`] says once every replica of a real-time engine has
    /// drained its inbox and stopped.
    pub fn finish(mut self) -> ClusterReport {
        self.deployment.stop();
        self.report()
    }
}

/// Convergence and cost summary of the replica group of a [`Cluster`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardReport {
    /// The group's index: always 0, since a [`Cluster`] is one group.
    pub shard: usize,
    /// Operations routed to this group.
    pub ops_routed: u64,
    /// Applied-command count per replica.
    pub applied: Vec<usize>,
    /// Canonical state-machine snapshot per replica — the quantity the
    /// cross-engine conformance suite compares byte for byte.
    pub snapshots: Vec<Vec<u8>>,
    /// When the group's replicas (re-)converged, if they did.
    pub converged_at: Option<Time>,
    /// Number of divergence episodes observed.
    pub divergences: usize,
    /// Messages sent inside the group.
    pub messages_sent: u64,
    /// Encoded wire bytes sent inside the group (see
    /// `ec_sim::Metrics::bytes_sent`) — the quantity the delta wire format
    /// (experiment E12) shrinks.
    pub bytes_sent: u64,
    /// `update` broadcasts performed inside the group (ops ÷ this ratio is
    /// the batching amortization the E11 experiment reports; 0 for strong
    /// groups).
    pub updates_sent: u64,
    /// Messages lost to injected link faults inside the group (chaos runs;
    /// 0 when no faults are scripted).
    pub faults_dropped: u64,
    /// Extra message copies injected by link-fault duplication inside the
    /// group.
    pub faults_duplicated: u64,
    /// Merged latency summary of the group's replicas: submit→deliver,
    /// promote→stable and stability-lag histograms.
    pub telemetry: ec_telemetry::TelemetryReport,
}

impl ShardReport {
    /// Returns `true` if the group's replicas agree at the end of the run.
    pub fn is_converged(&self) -> bool {
        self.converged_at.is_some()
    }

    /// Returns `true` if every replica's snapshot is byte-identical.
    pub fn snapshots_agree(&self) -> bool {
        self.snapshots.windows(2).all(|w| w[0] == w[1])
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: {} ops, applied {:?}, converged at {}, {} divergence(s), {} msgs, \
             {} B, {} updates, {} lost, {} duped",
            self.shard,
            self.ops_routed,
            self.applied,
            self.converged_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
            self.divergences,
            self.messages_sent,
            self.bytes_sent,
            self.updates_sent,
            self.faults_dropped,
            self.faults_duplicated,
        )?;
        if !self.telemetry.is_empty() {
            write!(f, "; {}", self.telemetry)?;
        }
        Ok(())
    }
}

/// The uniform cluster-level report: the [`ShardReport`] of the replica
/// group plus its message counters, tagged with the engine and consistency
/// level that produced it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterReport {
    /// The engine the cluster ran on.
    pub engine: EngineKind,
    /// The consistency level the cluster was deployed at.
    pub consistency: Consistency,
    /// The report of the cluster's one replica group (always exactly one
    /// entry).
    pub shards: Vec<ShardReport>,
    /// The group's message counters.
    pub totals: Metrics,
}

impl ClusterReport {
    /// Returns `true` if every group converged.
    pub fn all_converged(&self) -> bool {
        self.shards.iter().all(ShardReport::is_converged)
    }

    /// Total operations routed across groups.
    pub fn total_ops_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.ops_routed).sum()
    }

    /// Total commands applied across all replicas of all groups.
    pub fn total_applied(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.applied.iter().sum::<usize>())
            .sum()
    }

    /// The cluster-level convergence time: the latest per-group convergence
    /// time, or `None` if any group has not converged.
    ///
    /// Note that the underlying groups never go *quiescent*: the paper's
    /// Algorithm 5 has the stable leader gossip its promotion sequence
    /// forever, so convergence of the delivered state — not absence of
    /// traffic — is the right completion signal.
    pub fn converged_at(&self) -> Option<Time> {
        self.shards
            .iter()
            .map(|s| s.converged_at)
            .collect::<Option<Vec<Time>>>()
            .and_then(|times| times.into_iter().max())
    }

    /// The merged latency summary across all groups (histogram merge is
    /// associative and commutative, so the grouping does not matter).
    pub fn telemetry(&self) -> ec_telemetry::TelemetryReport {
        let mut merged = ec_telemetry::TelemetryReport::default();
        for shard in &self.shards {
            merged.merge(&shard.telemetry);
        }
        merged
    }

    /// The stable JSON export of the report's latency data: engine,
    /// consistency, one telemetry object per shard and the merged totals.
    /// Integer-only and timestamp-free, so two identical deterministic runs
    /// export byte-identical strings.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"consistency\":\"{}\",\"engine\":\"{}\",\"shards\":[",
            self.consistency, self.engine
        );
        for (i, shard) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            shard.telemetry.write_json(&mut out);
        }
        out.push_str("],\"telemetry\":");
        self.telemetry().write_json(&mut out);
        out.push('}');
        out
    }
}

impl fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} cluster on {} engine: {} ops, {} applied, converged: {}",
            self.consistency,
            self.engine,
            self.total_ops_routed(),
            self.total_applied(),
            self.converged_at()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "no".into()),
        )?;
        for shard in &self.shards {
            writeln!(f, "  {shard}")?;
        }
        write!(
            f,
            "  totals: {} msgs sent ({} B), {} delivered ({} B), {} outputs; faults: {} lost, \
             {} duped, {} crash(es), {} recovery(ies)",
            self.totals.messages_sent,
            self.totals.bytes_sent,
            self.totals.messages_delivered,
            self.totals.bytes_delivered,
            self.totals.outputs,
            self.totals.faults_dropped,
            self.totals.faults_duplicated,
            self.totals.crashes,
            self.totals.recoveries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{NetEngine, SimEngine, ThreadEngine};
    use crate::state_machine::{Counter, KvStore};
    use ec_sim::{NetworkModel, PartitionSpec};

    #[test]
    fn builder_defaults() {
        let cluster = ClusterBuilder::<KvStore>::new(3).deploy(&SimEngine::new());
        assert_eq!(cluster.consistency(), Consistency::Eventual);
        assert_eq!(format!("{}", Consistency::Eventual), "eventual");
        assert_eq!(format!("{}", Consistency::Strong), "strong");
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn builder_rejects_singleton_groups() {
        let _ = ClusterBuilder::<KvStore>::new(1);
    }

    #[test]
    fn sessions_round_robin_over_entry_replicas() {
        let mut cluster = ClusterBuilder::<KvStore>::new(3).deploy(&SimEngine::new());
        let entries: Vec<usize> = (0..5).map(|_| cluster.session().entry().index()).collect();
        assert_eq!(entries, vec![0, 1, 2, 0, 1]);
        assert_eq!(cluster.session_at(ProcessId::new(2)).entry().index(), 2);
    }

    #[test]
    #[should_panic(expected = "no such replica")]
    fn pinned_sessions_check_bounds() {
        let cluster = ClusterBuilder::<KvStore>::new(2).deploy(&SimEngine::new());
        let _ = cluster.session_at(ProcessId::new(9));
    }

    /// A replica id outside the group names a replica nobody can reach, and
    /// every engine answers so: no read panics, no crash or restart applies.
    #[test]
    fn a_replica_outside_the_group_is_unreachable_on_every_engine() {
        fn probe<E: Engine>(engine: &E) {
            let mut cluster = ClusterBuilder::<KvStore>::new(2).deploy(engine);
            let stranger = ProcessId::new(9);
            assert_eq!(cluster.applied(stranger), 0, "{}", cluster.engine());
            assert_eq!(cluster.applied_at(stranger, 0), 0);
            assert_eq!(cluster.state(stranger), None);
            assert_eq!(cluster.delivered(stranger), None);
            assert_eq!(cluster.snapshot(stranger), KvStore::default().snapshot());
            assert!(!cluster.crash(stranger), "{}", cluster.engine());
            assert!(!cluster.restart(stranger));
            assert_eq!(cluster.finish().shards[0].applied, vec![0, 0]);
        }
        probe(&SimEngine::new());
        probe(&ThreadEngine::new());
        probe(&NetEngine::new());
    }

    #[test]
    fn session_writes_are_causally_chained_and_win_in_order() {
        let mut cluster = ClusterBuilder::<KvStore>::new(3)
            .etob(EtobConfig::batched(6))
            .deploy(&SimEngine::new());
        let mut session = cluster.session();
        let first = cluster.submit(&mut session, KvStore::put("k", "first"), 10);
        let second = cluster.submit(&mut session, KvStore::put("k", "second"), 12);
        assert_eq!(session.frontier(), Some(second));
        assert_ne!(first, second);
        cluster.run_until(2_000);
        // even inside one batch, the causal chain fixes the delivered order
        for p in cluster.replica_ids() {
            assert_eq!(cluster.state(p).unwrap().get("k"), Some("second"), "{p}");
        }
        let delivered = cluster.delivered(ProcessId::new(0)).expect("sim read");
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].id, first);
        assert_eq!(*delivered[1].deps, [first]);
        assert_eq!(cluster.read(&session).unwrap().get("k"), Some("second"));
    }

    #[test]
    fn strong_clusters_deploy_and_converge_on_the_simulator() {
        let mut cluster = ClusterBuilder::<Counter>::new(3)
            .consistency(Consistency::Strong)
            .deploy(&SimEngine::new());
        let mut session = cluster.session();
        cluster.submit(&mut session, Counter::add(5), 10);
        cluster.submit(&mut session, Counter::sub(2), 20);
        assert!(cluster.run_until_applied(2, 5_000));
        for p in cluster.replica_ids() {
            assert_eq!(cluster.state(p).unwrap().value(), 3);
        }
        let report = cluster.finish();
        assert_eq!(report.consistency, Consistency::Strong);
        assert_eq!(report.engine, EngineKind::Sim);
        assert!(report.all_converged());
        assert!(report.shards[0].snapshots_agree());
        assert_eq!(report.shards[0].updates_sent, 0);
    }

    #[test]
    fn reports_render_and_aggregate() {
        let mut cluster = ClusterBuilder::<KvStore>::new(2).deploy(&SimEngine::new());
        let mut session = cluster.session();
        cluster.submit(&mut session, KvStore::put("a", "1"), 10);
        cluster.run_until(1_500);
        let report = cluster.report();
        assert_eq!(report.total_ops_routed(), 1);
        assert_eq!(report.total_applied(), 2);
        assert!(report.converged_at().is_some());
        let rendered = format!("{report}");
        assert!(rendered.contains("eventual cluster on sim engine"));
        assert!(rendered.contains("shard 0"));
        let line = format!("{}", report.shards[0]);
        assert!(line.contains("1 ops"));
    }

    #[test]
    fn recovering_replicas_converge_at_both_consistency_levels() {
        use ec_sim::FailurePattern;
        for consistency in [Consistency::Eventual, Consistency::Strong] {
            let failures = FailurePattern::no_failures(3).with_crash_recovery(
                ProcessId::new(2),
                Time::new(60),
                Time::new(700),
            );
            let mut cluster = ClusterBuilder::<KvStore>::new(3)
                .consistency(consistency)
                .etob(EtobConfig::default().with_resend(12))
                .tob(ConsensusTobConfig::default().with_catch_up())
                .deploy(&SimEngine::new().failures(failures));
            let mut session = cluster.session_at(ProcessId::new(0));
            for k in 0..5u64 {
                cluster.submit(
                    &mut session,
                    KvStore::put(&format!("k{k}"), &format!("v{k}")),
                    30 + 40 * k,
                );
            }
            cluster.run_until(4_000);
            let report = cluster.report();
            assert!(
                report.shards[0].snapshots_agree(),
                "rejoined replica diverged at {consistency}"
            );
            assert_eq!(
                cluster.state(ProcessId::new(2)).unwrap().get("k4"),
                Some("v4"),
                "{consistency}"
            );
            assert_eq!(report.totals.crashes, 1);
            assert_eq!(report.totals.recoveries, 1);
        }
    }

    #[test]
    fn scripted_omega_lies_are_absorbed_after_the_window() {
        // p2 trusts the wrong leader for a finite window at Eventual; after
        // the lie ends it re-adopts the real leader's promotions and the
        // cluster converges as if nothing happened.
        let observers: ProcessSet = [2].into_iter().collect();
        let engine = SimEngine::new().omega_lie(40, 300, observers, ProcessId::new(2));
        let mut cluster = ClusterBuilder::<KvStore>::new(3).deploy(&engine);
        let mut session = cluster.session_at(ProcessId::new(0));
        cluster.submit(&mut session, KvStore::put("a", "1"), 50);
        cluster.submit(&mut session, KvStore::put("b", "2"), 120);
        cluster.run_until(2_000);
        let report = cluster.report();
        assert!(report.shards[0].snapshots_agree(), "lie must be absorbed");
        assert_eq!(
            cluster.state(ProcessId::new(2)).unwrap().get("b"),
            Some("2")
        );
    }

    #[test]
    fn eventual_clusters_survive_partitions_strong_ones_block() {
        let minority: ProcessSet = [0].into_iter().collect();
        let network = NetworkModel::fixed_delay(2).with_partition(
            Time::new(30),
            Time::new(600),
            PartitionSpec::isolate(minority, 3),
        );
        let probe = 550;

        let mut eventual =
            ClusterBuilder::<KvStore>::new(3).deploy(&SimEngine::new().network(network.clone()));
        let mut strong = ClusterBuilder::<KvStore>::new(3)
            .consistency(Consistency::Strong)
            .deploy(&SimEngine::new().network(network));
        for cluster in [&mut eventual, &mut strong] {
            let mut session = cluster.session_at(ProcessId::new(0));
            cluster.submit(&mut session, KvStore::put("k", "v"), 50);
        }
        eventual.run_until(2_500);
        strong.run_until(2_500);

        // the isolated leader-side replica serves under eventual consistency…
        assert!(eventual.applied_at(ProcessId::new(0), probe) >= 1);
        // …and is blocked under strong consistency (no Σ quorum)
        assert_eq!(strong.applied_at_all(probe), vec![0, 0, 0]);
        assert_eq!(
            strong.applied_at(ProcessId::new(0), probe),
            strong.applied_at_all(probe)[0]
        );
        // both converge after the heal
        assert!(eventual.report().all_converged());
        assert!(strong.report().all_converged());
        assert!(eventual.report().shards[0].divergences >= 1);
    }
}
