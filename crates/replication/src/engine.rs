//! Execution engines: *where* a replicated service runs.
//!
//! The paper's headline claim is substrate-independence: Ω suffices for
//! eventual consistency in any environment, and the algorithms are not
//! simulator artifacts. This module turns that claim into an API: an
//! [`Engine`] is a deployment target for a replica group, and the same
//! [`crate::cluster::Cluster`] facade drives any of the three provided
//! engines —
//!
//! * [`SimEngine`] — the deterministic simulator of `ec-sim`
//!   ([`WorldBuilder`]/[`World`]): virtual time, scripted Ω/Σ oracles,
//!   scriptable partitions and crash patterns, bit-reproducible runs;
//! * [`ThreadEngine`] — the real-time runtime of `ec-runtime`
//!   ([`Runtime`]) over its channel transport: one OS thread per replica,
//!   wall-clock ticks, heartbeat-based Ω, messages moved in memory;
//! * [`NetEngine`] — the same runtime over the TCP transport of
//!   [`crate::net`]: each replica an independent node speaking the
//!   length-prefixed binary frame format over loopback TCP, heartbeats on
//!   the same connections; the facade reaches the nodes in-process, as on
//!   the thread engine.
//!
//! The two real-time engines are one type, [`RealTimeEngine`], and differ
//! only in the [`Transport`] they name. Every engine hands the facade a
//! [`Deployment`]: one trait, implemented once for a simulated [`World`]
//! and once for a real-time [`RealTimeDeployment`].
//!
//! Engine choice is configuration, not code: the cross-engine conformance
//! suite drives the *same* workload through the same facade on all engines
//! and checks that the replicas converge to byte-identical state-machine
//! snapshots, under both consistency levels.
//!
//! Time units are engine-relative: the simulator interprets facade times as
//! virtual ticks, on the real-time engines a facade tick is one millisecond
//! of wall clock since deployment.

use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::net::SocketAddr;
use std::sync::Arc;

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::types::{AppMessage, Compactable, EventualTotalOrderBroadcast, Instrumented};
use ec_detectors::omega::OmegaOracle;
use ec_detectors::scripted::{LieWindow, OverlayFd};
use ec_detectors::sigma::SigmaOracle;
use ec_detectors::PairFd;
use ec_runtime::{sleep_ms, ChannelTransport, Runtime, RuntimeConfig, Stopwatch, Transport};
use ec_sim::{
    FailureDetector, FailurePattern, Metrics, NetworkModel, OutputHistory, ProcessId, ProcessSet,
    RecoveryPolicy, Time, World, WorldBuilder,
};
use ec_telemetry::{Event, Recorder, TelemetryReport, TimeSource, FLIGHT_CAPACITY};

use crate::cluster::Consistency;
use crate::durable::DurableOptions;
use crate::net::TcpTransport;
use crate::replica::{Replica, ReplicaCommand, ReplicaOutput};
use crate::state_machine::StateMachine;

/// What a [`crate::cluster::ClusterBuilder`] asks an engine to deploy: the
/// group size, the consistency level, and the broadcast-layer configurations
/// (the one matching the consistency level is used).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeployPlan {
    /// Number of replicas in the group.
    pub replicas: usize,
    /// Consistency level, selecting the broadcast layer (and with it the
    /// failure detector the deployment must supply).
    pub consistency: Consistency,
    /// Algorithm 5 configuration, used at [`Consistency::Eventual`].
    pub etob: EtobConfig,
    /// Quorum-sequencer configuration, used at [`Consistency::Strong`].
    pub tob: ConsensusTobConfig,
    /// Durability options; `Some` makes every replica persist under
    /// `durable.dir/<replica index>/` and recover from it on (re)start.
    pub durable: Option<DurableOptions>,
}

/// What the engines need of a broadcast layer beyond running it: the
/// Algorithm-5-only counters the reports carry (0 for any other layer).
pub trait BroadcastLayer:
    EventualTotalOrderBroadcast<Msg: Send> + Compactable + Instrumented + fmt::Debug + Send + 'static
{
    /// The stable delivered sequence (its resident tail under compaction).
    fn delivered(&self) -> &[AppMessage];

    /// `update` broadcasts performed so far.
    fn updates_sent(&self) -> u64 {
        0
    }

    /// Digest pulls (delta-sync update-gap repairs) performed so far.
    fn sync_pulls(&self) -> u64 {
        0
    }
}

impl BroadcastLayer for EtobOmega {
    fn delivered(&self) -> &[AppMessage] {
        EtobOmega::delivered(self)
    }

    fn updates_sent(&self) -> u64 {
        EtobOmega::updates_sent(self)
    }

    fn sync_pulls(&self) -> u64 {
        EtobOmega::sync_pulls(self)
    }
}

impl BroadcastLayer for ConsensusTob {
    fn delivered(&self) -> &[AppMessage] {
        ConsensusTob::delivered(self)
    }
}

/// Builds one replica for a deployment, durable when the plan says so. The
/// broadcast layer gets its telemetry recorder attached *before* the replica
/// wraps it, so durable recovery at `on_start` is already observed.
fn make_replica<S: StateMachine, B: BroadcastLayer>(
    p: ProcessId,
    mut broadcast: B,
    durable: &Option<DurableOptions>,
    source: &TimeSource,
) -> Replica<S, B> {
    broadcast.attach_recorder(Recorder::new(
        p.index() as u32,
        source.clone(),
        FLIGHT_CAPACITY,
    ));
    match durable {
        Some(options) => Replica::durable(broadcast, options.for_replica(p.index())),
        None => Replica::new(broadcast),
    }
}

/// A deployment target for a replica group: turns a [`DeployPlan`] into a
/// running [`Deployment`] the [`crate::cluster::Cluster`] facade can drive
/// uniformly.
pub trait Engine {
    /// Deploys `plan.replicas` replicas of state machine `S` at
    /// `plan.consistency`.
    fn deploy<S>(&self, plan: &DeployPlan) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static;
}

/// Why an engine could not deploy: the substrate it runs on refused
/// something it needs (a listener, a connection). The simulator never fails.
#[derive(Debug)]
pub struct DeployError {
    /// The engine that failed.
    pub engine: EngineKind,
    /// The I/O error, whose message names the step that failed.
    pub source: io::Error,
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "the {} engine could not deploy: {}",
            self.engine, self.source
        )
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Which engine a deployment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Deterministic simulation (`ec-sim`).
    Sim,
    /// Thread-per-process real-time runtime (`ec-runtime`) over channels.
    Thread,
    /// Socket deployment: the same runtime, node-per-process over loopback
    /// TCP ([`crate::net`]).
    Net,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::Sim => write!(f, "sim"),
            EngineKind::Thread => write!(f, "thread"),
            EngineKind::Net => write!(f, "net"),
        }
    }
}

// ---------------------------------------------------------------------------
// SimEngine
// ---------------------------------------------------------------------------

/// The deterministic simulation engine: deploys replica groups as
/// [`World`]s, with Ω (and Σ, at [`Consistency::Strong`]) supplied by
/// scripted oracles over the configured [`FailurePattern`].
///
/// Everything scenario-shaped lives here: the network model (including
/// scripted partitions and link-fault windows), the crash pattern (including
/// crash–recovery windows and the rejoin [`RecoveryPolicy`]), the seed, and
/// scripted Ω lie windows. Runs are bit-reproducible for a fixed
/// configuration.
#[derive(Clone, Debug)]
pub struct SimEngine {
    network: NetworkModel,
    failures: Option<FailurePattern>,
    seed: u64,
    omega_lies: Vec<LieWindow<ProcessId>>,
    recovery: RecoveryPolicy,
}

impl Default for SimEngine {
    fn default() -> Self {
        SimEngine {
            network: NetworkModel::fixed_delay(2),
            failures: None,
            seed: 7,
            omega_lies: Vec::new(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl SimEngine {
    /// An engine with a 2-tick fixed-delay network, no failures, seed 7 and
    /// Ω stable from the start.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the network model (e.g. to script a partition).
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the failure pattern. Defaults to no failures; the pattern must
    /// cover exactly the number of replicas later deployed on this engine.
    pub fn failures(mut self, failures: FailurePattern) -> Self {
        self.failures = Some(failures);
        self
    }

    /// Sets the seed of the deterministic random source for link delays.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scripts an Ω lie: during `[from, until)`, the `observers` trust
    /// `leader` instead of the oracle's honest output. The window must be
    /// finite, so the lied-at Ω still stabilizes — Algorithm 5 then absorbs
    /// the lie (delivered sequences may diverge during the window and
    /// reconverge after it). Note the quorum sequencer's documented scope:
    /// it handles leader *changes*, not ballot-based dueling-leader
    /// recovery, so chaos scenarios script Ω lies only at
    /// [`Consistency::Eventual`].
    pub fn omega_lie(
        mut self,
        from: u64,
        until: u64,
        observers: ProcessSet,
        leader: ProcessId,
    ) -> Self {
        assert!(from < until, "lie window must be non-empty and finite");
        self.omega_lies.push(LieWindow {
            from: Time::new(from),
            until: Time::new(until),
            observers,
            value: leader,
        });
        self
    }

    /// Sets what a replica rejoining after a scripted crash–recovery window
    /// resumes with (defaults to [`RecoveryPolicy::RetainState`]).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    fn pattern(&self, n: usize) -> FailurePattern {
        let failures = self
            .failures
            .clone()
            .unwrap_or_else(|| FailurePattern::no_failures(n));
        assert_eq!(
            failures.n(),
            n,
            "failure pattern must cover exactly the replicas of the cluster"
        );
        failures
    }

    fn omega(&self, failures: &FailurePattern) -> OverlayFd<OmegaOracle> {
        let mut fd = OverlayFd::new(OmegaOracle::stable_from_start(failures.clone()));
        for lie in &self.omega_lies {
            fd = fd.with_lie(lie.from, lie.until, lie.observers.clone(), lie.value);
        }
        fd
    }

    /// Builds the world of one deployment: `layer` makes each replica's
    /// broadcast layer, `fd` is the oracle its processes query.
    fn world<S, B, D>(
        &self,
        plan: &DeployPlan,
        failures: FailurePattern,
        fd: D,
        layer: impl Fn(ProcessId) -> B,
    ) -> Box<dyn Deployment<S> + Send>
    where
        S: StateMachine + Send + 'static,
        B: BroadcastLayer,
        D: FailureDetector<Output = B::Fd> + Send + 'static,
    {
        let replica = |p| make_replica(p, layer(p), &plan.durable, &TimeSource::Logical);
        Box::new(
            WorldBuilder::new(plan.replicas)
                .network(self.network.clone())
                .failures(failures)
                .seed(self.seed)
                .recovery_policy(self.recovery)
                .build_with(replica, fd),
        )
    }
}

impl Engine for SimEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static,
    {
        let failures = self.pattern(plan.replicas);
        let omega = self.omega(&failures);
        let (etob, tob) = (plan.etob, plan.tob);
        Ok(match plan.consistency {
            Consistency::Eventual => self.world(plan, failures, omega, |p| EtobOmega::new(p, etob)),
            Consistency::Strong => {
                let fd = PairFd::new(omega, SigmaOracle::majority(failures.clone()));
                self.world(plan, failures, fd, |p| ConsensusTob::new(p, tob))
            }
        })
    }
}

// ---------------------------------------------------------------------------
// The real-time engines
// ---------------------------------------------------------------------------

/// A real-time engine: deploys replica groups on the thread-per-process
/// [`Runtime`] over the transport `T`, with Ω supplied by per-process
/// heartbeat modules. [`ThreadEngine`] and [`NetEngine`] are this type.
///
/// At [`Consistency::Strong`] the Σ component is the static full-membership
/// quorum derived alongside the heartbeat leader: sound while no process
/// crashes (any two copies intersect and contain only correct processes),
/// but a crash makes the quorum permanently unreachable and the deployment
/// stops delivering. That is a limitation of a static full-membership Σ,
/// not the price of strong consistency the paper quantifies: the paper's Σ
/// gap is an environment *without* a correct majority, and majorities
/// implement Σ wherever a majority is correct (ROADMAP item 8). Use
/// [`Consistency::Eventual`] for crash-tolerant real-time deployments.
///
/// Both engines crash and restart replicas dynamically
/// ([`crate::cluster::Cluster::restart`]): the fresh incarnation rejoins
/// behind the same inbox or address — recovered from disk if the plan is
/// durable, empty otherwise — and the broadcast layer's anti-entropy
/// re-fills what it missed.
#[derive(Debug)]
pub struct RealTimeEngine<T>(PhantomData<fn() -> T>);

/// The thread engine: replicas as OS threads joined by in-memory channels
/// ([`ChannelTransport`]) — no codec and no sockets in the loop.
pub type ThreadEngine = RealTimeEngine<ChannelTransport>;

/// The socket engine: replicas as independent nodes joined by loopback TCP
/// connections ([`TcpTransport`]), every message crossing a real socket in
/// the [`crate::net::codec`] frame format: length-prefixed binary frames,
/// per-peer connections with reconnect, and a malformed-input counter
/// ([`crate::cluster::Cluster::malformed_frames`]) fed by every connection
/// reader.
pub type NetEngine = RealTimeEngine<TcpTransport>;

impl<T> Default for RealTimeEngine<T> {
    fn default() -> Self {
        RealTimeEngine(PhantomData)
    }
}

impl<T> Clone for RealTimeEngine<T> {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl<T> RealTimeEngine<T> {
    /// An engine running the default [`RuntimeConfig`].
    pub fn new() -> Self {
        Self::default()
    }

    fn deploy_as<S>(
        kind: EngineKind,
        plan: &DeployPlan,
    ) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static,
        T: Transport<Replica<S, EtobOmega>> + Transport<Replica<S, ConsensusTob>>,
        T: fmt::Debug + Send + 'static,
    {
        let (etob, tob) = (plan.etob, plan.tob);
        match plan.consistency {
            Consistency::Eventual => Self::launch(
                kind,
                plan,
                move |p| EtobOmega::new(p, etob),
                |leader, _n| leader,
            ),
            Consistency::Strong => Self::launch(
                kind,
                plan,
                move |p| ConsensusTob::new(p, tob),
                |leader, n| (leader, ProcessSet::all(n)),
            ),
        }
    }

    /// Launches the runtime of one deployment: `layer` makes each
    /// incarnation's broadcast layer, `derive` its failure-detector value
    /// from the heartbeat leader.
    fn launch<S, B>(
        kind: EngineKind,
        plan: &DeployPlan,
        layer: impl Fn(ProcessId) -> B + Send + 'static,
        derive: impl Fn(ProcessId, usize) -> B::Fd + Send + Sync + 'static,
    ) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static,
        B: BroadcastLayer,
        T: Transport<Replica<S, B>> + fmt::Debug + Send + 'static,
    {
        let durable = plan.durable.clone();
        // one stopwatch, started now and copied into every replica's
        // recorder: all flight-event timestamps share one epoch
        let clock = TimeSource::External(Arc::new(Stopwatch::start()));
        let runtime = Runtime::<Replica<S, B>, T>::launch(
            plan.replicas,
            RuntimeConfig::default(),
            move |p| make_replica(p, layer(p), &durable, &clock),
            derive,
        );
        Ok(Box::new(RealTimeDeployment {
            runtime: runtime.map_err(|source| DeployError {
                engine: kind,
                source,
            })?,
            kind,
        }))
    }
}

impl Engine for ThreadEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static,
    {
        Self::deploy_as(EngineKind::Thread, plan)
    }
}

impl Engine for NetEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
    where
        S: StateMachine + Send + 'static,
    {
        Self::deploy_as(EngineKind::Net, plan)
    }
}

// ---------------------------------------------------------------------------
// The uniform deployment handle
// ---------------------------------------------------------------------------

/// What the facade reads of one replica, on any engine: the one view
/// [`Deployment::look`] lends a question, implemented by every [`Replica`].
pub trait ReplicaView<S> {
    /// The replica's state machine.
    fn state(&self) -> &S;

    /// The stable delivered sequence of its broadcast layer.
    fn delivered(&self) -> &[AppMessage];

    /// `update` broadcasts its layer performed so far (see
    /// [`BroadcastLayer::updates_sent`]).
    fn updates_sent(&self) -> u64;

    /// Digest pulls its layer performed so far (see
    /// [`BroadcastLayer::sync_pulls`]).
    fn sync_pulls(&self) -> u64;

    /// The latency summary of its recorder.
    fn telemetry(&self) -> TelemetryReport;

    /// Its flight-recorder trace.
    fn flight_events(&self) -> Vec<Event>;
}

impl<S: StateMachine, B: BroadcastLayer> ReplicaView<S> for Replica<S, B> {
    fn state(&self) -> &S {
        Replica::state(self)
    }

    fn delivered(&self) -> &[AppMessage] {
        self.broadcast_layer().delivered()
    }

    fn updates_sent(&self) -> u64 {
        self.broadcast_layer().updates_sent()
    }

    fn sync_pulls(&self) -> u64 {
        self.broadcast_layer().sync_pulls()
    }

    fn telemetry(&self) -> TelemetryReport {
        Replica::telemetry(self)
    }

    fn flight_events(&self) -> Vec<Event> {
        Replica::flight_events(self)
    }
}

/// A question for one replica, put to it through [`Deployment::look`].
pub type Question<S> = Box<dyn FnOnce(&dyn ReplicaView<S>) + Send>;

/// A running replica group behind the uniform driving interface the
/// [`crate::cluster::Cluster`] facade uses: its verbs, and one read,
/// [`Deployment::look`], that every read of a replica goes through. The
/// defaults are the answers of a deployment that lacks the capability:
/// dynamic crashes, and what only a wire (addresses, malformed frames,
/// scrapes) can provide. A `p` outside the group is a replica that cannot be
/// reached: `applied` 0, no answer to `look`, no crash or restart.
pub trait Deployment<S: StateMachine>: fmt::Debug {
    /// Which engine this deployment runs on.
    fn kind(&self) -> EngineKind;

    /// Number of replicas.
    fn n(&self) -> usize;

    /// Submits a command to replica `entry` at facade time `at`. The
    /// simulator schedules it; a real-time engine sleeps until the wall
    /// clock reaches `at` and then submits, so callers should submit in
    /// non-decreasing time order.
    fn submit(&mut self, entry: ProcessId, command: ReplicaCommand, at: u64);

    /// Advances the deployment to facade time `t` (virtual time on the
    /// simulator, paced wall-clock time on the real-time engines).
    fn run_until(&mut self, t: u64);

    /// Commands applied by replica `p`'s current incarnation so far. The
    /// one read that does not ask the replica: callers poll it on their
    /// latency path, so on the real-time engines it is the count in the
    /// replica's latest recorded output (O(1), never queued behind the
    /// node's inbox; 0 until a restarted incarnation has output).
    fn applied(&self, p: ProcessId) -> usize;

    /// Runs `question` on replica `p` and says whether it ran: at once on
    /// the simulator; on a real-time engine between two steps of a live
    /// node, or on the automaton a down one left behind. `false` if there is
    /// no replica `p`, or if a real-time node's thread died or did not get
    /// to the question within [`ec_runtime::GOODBYE_WAIT_MS`].
    fn look(&self, p: ProcessId, question: Question<S>) -> bool;

    /// Crashes replica `p` if the engine supports dynamic crashes. `true`
    /// on the real-time engines; `false` on the simulator, where crashes
    /// are scripted up front via [`SimEngine::failures`].
    fn crash(&mut self, _p: ProcessId) -> bool {
        false
    }

    /// Restarts a crashed replica as a fresh incarnation — empty, or
    /// recovered from disk if the deployment is durable — which the
    /// broadcast layer's anti-entropy then re-fills. Real-time engines
    /// only; `false` on the simulator, if `p` is not down, or if its links
    /// could not be re-opened.
    fn restart(&mut self, _p: ProcessId) -> bool {
        false
    }

    /// Frames rejected as malformed so far by the connection readers of a
    /// wire (0 where there is none to corrupt).
    fn malformed_frames(&self) -> u64 {
        0
    }

    /// The TCP listen address of replica `p`'s node (net engine only; the
    /// adversarial codec tests use it to inject raw bytes).
    fn node_addr(&self, _p: ProcessId) -> Option<SocketAddr> {
        None
    }

    /// Message counters so far (application messages only on the real-time
    /// engines; the simulator has no separate heartbeat traffic to
    /// exclude).
    fn metrics(&self) -> Metrics;

    /// Lends `f` the timed output history so far, in facade ticks, without
    /// copying it. On the real-time engines `f` runs under the lock the node
    /// threads take to record an output, so it must only read: no call back
    /// into the deployment, no I/O.
    fn with_history(&self, f: &mut dyn FnMut(&OutputHistory<ReplicaOutput>));

    /// The processes correct for the whole run: from the failure pattern on
    /// the simulator, everything minus `facade_crashed` elsewhere.
    fn correct(&self, facade_crashed: &ProcessSet) -> ProcessSet;

    /// Crash and recovery events the replicas' own recorders cannot see,
    /// oldest first, each tagged with the replica it befell (the simulator's
    /// scripted faults; none elsewhere).
    fn fault_events(&self) -> Vec<Event> {
        Vec::new()
    }

    /// Scrapes the live metrics exposition of replica `p`'s node over its
    /// socket (net engine only; `None` elsewhere, and on a node that is
    /// down).
    fn scrape(&self, _p: ProcessId) -> Option<String> {
        None
    }

    /// Stops the deployment: a real-time engine lets every replica drain
    /// its inbox and joins its thread; the simulator has nothing to stop.
    /// Every read still answers afterwards, from what the replicas left.
    fn stop(&mut self) {}
}

impl<S, B, D> Deployment<S> for World<Replica<S, B>, D>
where
    S: StateMachine,
    B: BroadcastLayer,
    D: FailureDetector<Output = B::Fd>,
{
    fn kind(&self) -> EngineKind {
        EngineKind::Sim
    }

    fn n(&self) -> usize {
        World::n(self)
    }

    fn submit(&mut self, entry: ProcessId, command: ReplicaCommand, at: u64) {
        self.schedule_input(entry, command, at);
    }

    fn run_until(&mut self, t: u64) {
        World::run_until(self, t);
    }

    fn applied(&self, p: ProcessId) -> usize {
        if p.index() < self.n() {
            self.algorithm(p).applied()
        } else {
            0
        }
    }

    fn look(&self, p: ProcessId, question: Question<S>) -> bool {
        let reachable = p.index() < self.n();
        if reachable {
            question(self.algorithm(p));
        }
        reachable
    }

    fn metrics(&self) -> Metrics {
        World::metrics(self).clone()
    }

    fn with_history(&self, f: &mut dyn FnMut(&OutputHistory<ReplicaOutput>)) {
        f(World::output_history(self));
    }

    fn correct(&self, _facade_crashed: &ProcessSet) -> ProcessSet {
        self.failures().correct()
    }

    fn fault_events(&self) -> Vec<Event> {
        World::fault_events(self)
    }
}

/// A replica group running on the real-time [`Runtime`] over transport `T`,
/// with facade times paced against the wall clock: a facade tick is a
/// millisecond of the runtime's clock, the unit its output history is
/// stamped in. Reads ask the replica ([`Runtime::look`]), running or down.
#[derive(Debug)]
pub struct RealTimeDeployment<S: StateMachine, B: BroadcastLayer, T> {
    runtime: Runtime<Replica<S, B>, T>,
    kind: EngineKind,
}

impl<S: StateMachine, B: BroadcastLayer, T> RealTimeDeployment<S, B, T> {
    /// Sleeps until `t` milliseconds of wall-clock time have elapsed since
    /// deployment (no-op if that moment has already passed).
    fn pace_to(&self, t: u64) {
        loop {
            let now_ms = self.runtime.elapsed_ms();
            if now_ms >= t {
                return;
            }
            sleep_ms((t - now_ms).min(20));
        }
    }
}

impl<S, B, T> Deployment<S> for RealTimeDeployment<S, B, T>
where
    S: StateMachine + Send + 'static,
    B: BroadcastLayer,
    T: Transport<Replica<S, B>> + fmt::Debug,
{
    fn kind(&self) -> EngineKind {
        self.kind
    }

    fn n(&self) -> usize {
        self.runtime.n()
    }

    fn submit(&mut self, entry: ProcessId, command: ReplicaCommand, at: u64) {
        self.pace_to(at);
        self.runtime.submit(entry, command);
    }

    fn run_until(&mut self, t: u64) {
        self.pace_to(t);
    }

    fn applied(&self, p: ProcessId) -> usize {
        self.runtime.latest_output_of(p).map_or(0, |o| o.applied)
    }

    fn look(&self, p: ProcessId, question: Question<S>) -> bool {
        self.runtime.look(p, move |r| question(r)).is_some()
    }

    fn crash(&mut self, p: ProcessId) -> bool {
        let exists = p.index() < self.n();
        if exists {
            self.runtime.crash(p);
        }
        exists
    }

    fn restart(&mut self, p: ProcessId) -> bool {
        self.runtime.restart(p)
    }

    fn malformed_frames(&self) -> u64 {
        self.runtime.malformed()
    }

    fn node_addr(&self, p: ProcessId) -> Option<SocketAddr> {
        self.runtime.transport().addr(p)
    }

    fn metrics(&self) -> Metrics {
        self.runtime.metrics()
    }

    fn with_history(&self, f: &mut dyn FnMut(&OutputHistory<ReplicaOutput>)) {
        self.runtime.with_outputs(f);
    }

    fn correct(&self, facade_crashed: &ProcessSet) -> ProcessSet {
        ProcessSet::all(self.n()).difference(facade_crashed)
    }

    fn scrape(&self, p: ProcessId) -> Option<String> {
        if self.runtime.is_down(p) {
            return None;
        }
        self.runtime.transport().scrape(p)
    }

    fn stop(&mut self) {
        self.runtime.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::state_machine::KvStore;
    use ec_runtime::{ChannelLinks, Hub};

    /// A transport whose substrate refuses everything.
    #[derive(Debug)]
    struct NoSockets;

    impl<S: StateMachine + Send + 'static, B: BroadcastLayer> Transport<Replica<S, B>> for NoSockets {
        type Links = ChannelLinks<Replica<S, B>>;

        fn bind(_hub: &Arc<Hub<Replica<S, B>>>) -> io::Result<Self> {
            Err(io::Error::other(
                "could not bind a loopback listener: no sockets here",
            ))
        }

        fn open(
            &mut self,
            _p: ProcessId,
            _hub: &Arc<Hub<Replica<S, B>>>,
        ) -> io::Result<Self::Links> {
            unreachable!("never bound")
        }
    }

    impl Engine for RealTimeEngine<NoSockets> {
        fn deploy<S>(&self, plan: &DeployPlan) -> Result<Box<dyn Deployment<S> + Send>, DeployError>
        where
            S: StateMachine + Send + 'static,
        {
            Self::deploy_as(EngineKind::Net, plan)
        }
    }

    #[test]
    fn a_substrate_that_refuses_is_a_typed_deploy_error_not_an_abort() {
        for consistency in [Consistency::Eventual, Consistency::Strong] {
            let builder = ClusterBuilder::<KvStore>::new(3).consistency(consistency);
            let err = builder
                .try_deploy(&RealTimeEngine::<NoSockets>::new())
                .expect_err("nothing to deploy on");
            assert_eq!(err.engine, EngineKind::Net);
            assert_eq!(
                err.to_string(),
                "the net engine could not deploy: could not bind a loopback listener: no sockets here"
            );
            assert!(std::error::Error::source(&err).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "the net engine could not deploy")]
    fn deploy_panics_with_the_deploy_error() {
        let _ = ClusterBuilder::<KvStore>::new(2).deploy(&RealTimeEngine::<NoSockets>::new());
    }
}
