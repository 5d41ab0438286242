//! Execution engines: *where* a replicated service runs.
//!
//! The paper's headline claim is substrate-independence: Ω suffices for
//! eventual consistency in any environment, and the algorithms are not
//! simulator artifacts. This module turns that claim into an API: an
//! [`Engine`] is a deployment target for a replica group, and the same
//! [`crate::cluster::Cluster`] facade drives either of the two provided
//! engines —
//!
//! * [`SimEngine`] — the deterministic simulator of `ec-sim`
//!   ([`WorldBuilder`]/[`World`]): virtual time, scripted Ω/Σ oracles,
//!   scriptable partitions and crash patterns, bit-reproducible runs;
//! * [`ThreadEngine`] — the real-time runtime of `ec-runtime`
//!   ([`Runtime`]): one OS thread per replica, channel links, wall-clock
//!   ticks, heartbeat-based Ω;
//! * [`NetEngine`] — the socket deployment of [`crate::net`]: each replica
//!   an independent node speaking the length-prefixed binary frame format
//!   over loopback TCP, heartbeats on the same connections, the facade
//!   attached over per-node control connections.
//!
//! Engine choice is configuration, not code: the cross-engine conformance
//! suite drives the *same* workload through the same facade on all engines
//! and checks that the replicas converge to byte-identical state-machine
//! snapshots, under both consistency levels.
//!
//! Time units are engine-relative: the simulator interprets facade times as
//! virtual ticks, the thread and net engines map each facade tick to
//! [`ThreadEngine::tick`] / [`NetEngine::tick`] of wall-clock (1 ms by
//! default).

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::types::{AppMessage, Compactable, EventualTotalOrderBroadcast, Instrumented};
use ec_detectors::omega::OmegaOracle;
use ec_detectors::scripted::{LieWindow, OverlayFd};
use ec_detectors::sigma::SigmaOracle;
use ec_detectors::PairFd;
use ec_runtime::{sleep_ms, Runtime, RuntimeConfig, Stopwatch};
use ec_sim::{
    FailureDetector, FailurePattern, Metrics, NetworkModel, OutputHistory, ProcessId, ProcessSet,
    RecoveryPolicy, Time, World, WorldBuilder,
};
use ec_telemetry::{Recorder, TelemetryReport, TimeSource, FLIGHT_CAPACITY};

use crate::cluster::Consistency;
use crate::durable::DurableOptions;
use crate::net::codec::WireCodec;
use crate::net::node::{NetCluster, NetFinal};
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

/// Builds one replica for a deployment, durable when the plan says so. The
/// broadcast layer gets its telemetry recorder attached *before* the replica
/// wraps it, so durable recovery at `on_start` is already observed.
fn make_replica<S, B>(
    p: ProcessId,
    mut broadcast: B,
    durable: &Option<DurableOptions>,
    source: &TimeSource,
) -> Replica<S, B>
where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
{
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

/// The shared-epoch external clock of one real-time deployment: a single
/// stopwatch started at deploy time, copied into every replica's recorder.
fn wall_clock_source() -> TimeSource {
    TimeSource::External(Arc::new(Stopwatch::start()))
}

/// A deployment target for a replica group: turns a [`DeployPlan`] into a
/// running [`EngineDeployment`] the [`crate::cluster::Cluster`] facade can
/// drive uniformly.
pub trait Engine {
    /// Deploys `plan.replicas` replicas of state machine `S` at
    /// `plan.consistency`.
    fn deploy<S>(&self, plan: &DeployPlan) -> EngineDeployment<S>
    where
        S: StateMachine + Send + 'static;
}

/// Which engine a deployment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Deterministic simulation (`ec-sim`).
    Sim,
    /// Thread-per-process real-time runtime (`ec-runtime`).
    Thread,
    /// Socket deployment: node-per-process over loopback TCP
    /// ([`crate::net`]).
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
/// crash–recovery windows and the rejoin [`RecoveryPolicy`]), the seed,
/// when Ω stabilizes, and scripted Ω lie windows. Runs are bit-reproducible
/// for a fixed configuration.
#[derive(Clone, Debug)]
pub struct SimEngine {
    network: NetworkModel,
    failures: Option<FailurePattern>,
    seed: u64,
    omega_stabilizes_at: Option<u64>,
    omega_lies: Vec<LieWindow<ProcessId>>,
    recovery: RecoveryPolicy,
}

impl Default for SimEngine {
    fn default() -> Self {
        SimEngine {
            network: NetworkModel::fixed_delay(2),
            failures: None,
            seed: 7,
            omega_stabilizes_at: None,
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

    /// Makes the Ω oracle stabilize only at time `t` (before that, every
    /// process trusts itself). Default: stable from the start.
    pub fn omega_stabilizes_at(mut self, t: u64) -> Self {
        self.omega_stabilizes_at = Some(t);
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
        let oracle = match self.omega_stabilizes_at {
            Some(t) => OmegaOracle::stabilizing_at(failures.clone(), Time::new(t)),
            None => OmegaOracle::stable_from_start(failures.clone()),
        };
        let mut fd = OverlayFd::new(oracle);
        for lie in &self.omega_lies {
            fd = fd.with_lie(lie.from, lie.until, lie.observers.clone(), lie.value);
        }
        fd
    }
}

impl Engine for SimEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> EngineDeployment<S>
    where
        S: StateMachine + Send + 'static,
    {
        let n = plan.replicas;
        let failures = self.pattern(n);
        let omega = self.omega(&failures);
        match plan.consistency {
            Consistency::Eventual => {
                let etob = plan.etob;
                let durable = plan.durable.clone();
                let world = WorldBuilder::new(n)
                    .network(self.network.clone())
                    .failures(failures)
                    .seed(self.seed)
                    .recovery_policy(self.recovery)
                    .build_with(
                        move |p| {
                            make_replica(p, EtobOmega::new(p, etob), &durable, &TimeSource::Logical)
                        },
                        omega,
                    );
                EngineDeployment::SimEventual(Box::new(world))
            }
            Consistency::Strong => {
                let fd = PairFd::new(omega, SigmaOracle::majority(failures.clone()));
                let tob = plan.tob;
                let durable = plan.durable.clone();
                let world = WorldBuilder::new(n)
                    .network(self.network.clone())
                    .failures(failures)
                    .seed(self.seed)
                    .recovery_policy(self.recovery)
                    .build_with(
                        move |p| {
                            make_replica(
                                p,
                                ConsensusTob::new(p, tob),
                                &durable,
                                &TimeSource::Logical,
                            )
                        },
                        fd,
                    );
                EngineDeployment::SimStrong(Box::new(world))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ThreadEngine
// ---------------------------------------------------------------------------

/// The real-time engine: deploys replica groups on the thread-per-process
/// [`Runtime`], with Ω supplied by per-process heartbeat modules.
///
/// At [`Consistency::Strong`] the Σ component is the static full-membership
/// quorum derived alongside the heartbeat leader: sound while no process
/// crashes (any two copies intersect and contain only correct processes),
/// but a crash makes the quorum permanently unreachable — the deployment
/// stops delivering, which is precisely the availability price of strong
/// consistency the paper quantifies. Use [`Consistency::Eventual`] for
/// crash-tolerant thread deployments.
#[derive(Clone, Debug)]
pub struct ThreadEngine {
    config: RuntimeConfig,
    tick: Duration,
}

impl Default for ThreadEngine {
    fn default() -> Self {
        ThreadEngine {
            config: RuntimeConfig::default(),
            tick: Duration::from_millis(1),
        }
    }
}

impl ThreadEngine {
    /// An engine with the default [`RuntimeConfig`] and 1 ms per facade
    /// tick.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the runtime configuration (timer tick, heartbeat periods).
    pub fn runtime_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how much wall-clock time one facade tick corresponds to.
    /// Facade calls like `run_until(t)` sleep until `t * tick` of wall time
    /// has elapsed since deployment.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    fn tick_ms(&self) -> u64 {
        (self.tick.as_millis() as u64).max(1)
    }
}

impl Engine for ThreadEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> EngineDeployment<S>
    where
        S: StateMachine + Send + 'static,
    {
        match plan.consistency {
            Consistency::Eventual => {
                let etob = plan.etob;
                let durable = plan.durable.clone();
                let clock = wall_clock_source();
                let runtime = Runtime::spawn(plan.replicas, self.config, move |p| {
                    make_replica(p, EtobOmega::new(p, etob), &durable, &clock)
                });
                EngineDeployment::ThreadEventual(ThreadDeployment::new(
                    runtime,
                    self.tick_ms(),
                    plan.replicas,
                ))
            }
            Consistency::Strong => {
                let tob = plan.tob;
                let durable = plan.durable.clone();
                let clock = wall_clock_source();
                let runtime = Runtime::spawn_with_fd(
                    plan.replicas,
                    self.config,
                    move |p| make_replica(p, ConsensusTob::new(p, tob), &durable, &clock),
                    |leader, n| (leader, ProcessSet::all(n)),
                );
                EngineDeployment::ThreadStrong(ThreadDeployment::new(
                    runtime,
                    self.tick_ms(),
                    plan.replicas,
                ))
            }
        }
    }
}

/// A replica group running on the thread runtime, with facade times paced
/// against the wall clock.
pub struct ThreadDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
{
    runtime: Runtime<Replica<S, B>>,
    tick_ms: u64,
    n: usize,
}

impl<S, B> fmt::Debug for ThreadDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadDeployment")
            .field("n", &self.n)
            .field("tick_ms", &self.tick_ms)
            .finish()
    }
}

impl<S, B> ThreadDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: Send,
{
    fn new(runtime: Runtime<Replica<S, B>>, tick_ms: u64, n: usize) -> Self {
        ThreadDeployment {
            runtime,
            tick_ms,
            n,
        }
    }

    /// Sleeps until `t` facade ticks of wall-clock time have elapsed since
    /// deployment (no-op if that moment has already passed).
    fn pace_to(&self, t: u64) {
        let target_ms = t.saturating_mul(self.tick_ms);
        let now_ms = self.runtime.elapsed_ms();
        if now_ms < target_ms {
            // analysis:allow(determinism::wall-clock, reason = "ThreadEngine paces facade ticks against real time by design; the deterministic SimEngine never reaches this path")
            std::thread::sleep(Duration::from_millis(target_ms - now_ms));
        }
    }

    fn latest_output(&self, p: ProcessId) -> Option<ReplicaOutput> {
        self.runtime.latest_output_of(p)
    }

    fn output_history(&self) -> OutputHistory<ReplicaOutput> {
        let mut history = OutputHistory::new(self.n);
        for (p, ms, out) in self.runtime.outputs_so_far() {
            history.record(p, Time::new(ms / self.tick_ms), out);
        }
        history
    }
}

// ---------------------------------------------------------------------------
// NetEngine
// ---------------------------------------------------------------------------

/// The socket engine: deploys replica groups as independent nodes joined by
/// loopback TCP connections, every message crossing a real socket in the
/// [`crate::net::codec`] frame format.
///
/// Operationally a [`ThreadEngine`] sibling — wall-clock ticks, heartbeat
/// Ω, same Σ caveat at [`Consistency::Strong`] (a crash makes the static
/// full-membership quorum permanently unreachable) — but with the in-memory
/// channels replaced by the real wire: length-prefixed binary frames,
/// per-peer connections with reconnect, and a malformed-input counter
/// ([`crate::cluster::Cluster::malformed_frames`]) fed by every connection
/// reader. Unlike the other engines it also supports restarting a crashed
/// replica ([`crate::cluster::Cluster::restart`]): the fresh incarnation
/// rejoins behind the same address and is re-filled by the broadcast
/// layer's anti-entropy.
#[derive(Clone, Debug)]
pub struct NetEngine {
    config: RuntimeConfig,
    tick: Duration,
}

impl Default for NetEngine {
    fn default() -> Self {
        NetEngine {
            config: RuntimeConfig::default(),
            tick: Duration::from_millis(1),
        }
    }
}

impl NetEngine {
    /// An engine with the default [`RuntimeConfig`] and 1 ms per facade
    /// tick.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the runtime configuration (timer tick, heartbeat periods).
    pub fn runtime_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets how much wall-clock time one facade tick corresponds to.
    pub fn tick(mut self, tick: Duration) -> Self {
        self.tick = tick;
        self
    }

    fn tick_ms(&self) -> u64 {
        (self.tick.as_millis() as u64).max(1)
    }
}

impl Engine for NetEngine {
    fn deploy<S>(&self, plan: &DeployPlan) -> EngineDeployment<S>
    where
        S: StateMachine + Send + 'static,
    {
        match plan.consistency {
            Consistency::Eventual => {
                let etob = plan.etob;
                let durable = plan.durable.clone();
                let clock = wall_clock_source();
                let cluster = NetCluster::launch(
                    plan.replicas,
                    self.config,
                    move |p| make_replica(p, EtobOmega::new(p, etob), &durable, &clock),
                    |leader, _n| leader,
                );
                EngineDeployment::NetEventual(NetDeployment::attach(
                    cluster,
                    self.tick_ms(),
                    plan.replicas,
                ))
            }
            Consistency::Strong => {
                let tob = plan.tob;
                let durable = plan.durable.clone();
                let clock = wall_clock_source();
                let cluster = NetCluster::launch(
                    plan.replicas,
                    self.config,
                    move |p| make_replica(p, ConsensusTob::new(p, tob), &durable, &clock),
                    |leader, n| (leader, ProcessSet::all(n)),
                );
                EngineDeployment::NetStrong(NetDeployment::attach(
                    cluster,
                    self.tick_ms(),
                    plan.replicas,
                ))
            }
        }
    }
}

/// A replica group running as socket nodes, with facade times paced against
/// the wall clock.
pub struct NetDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    cluster: NetCluster<S, B>,
    tick_ms: u64,
    n: usize,
}

impl<S, B> fmt::Debug for NetDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetDeployment")
            .field("n", &self.n)
            .field("tick_ms", &self.tick_ms)
            .finish()
    }
}

impl<S, B> NetDeployment<S, B>
where
    S: StateMachine + Send + 'static,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
    B::Msg: WireCodec + Send,
{
    fn attach(cluster: NetCluster<S, B>, tick_ms: u64, n: usize) -> Self {
        NetDeployment {
            cluster,
            tick_ms,
            n,
        }
    }

    /// Sleeps until `t` facade ticks of wall-clock time have elapsed since
    /// deployment (no-op if that moment has already passed).
    fn pace_to(&self, t: u64) {
        let target_ms = t.saturating_mul(self.tick_ms);
        loop {
            let now_ms = self.cluster.elapsed_ms();
            if now_ms >= target_ms {
                return;
            }
            sleep_ms((target_ms - now_ms).min(20));
        }
    }

    fn latest_output(&self, p: ProcessId) -> Option<ReplicaOutput> {
        self.cluster.latest_output_of(p)
    }

    fn output_history(&self) -> OutputHistory<ReplicaOutput> {
        let mut history = OutputHistory::new(self.n);
        for (p, ms, out) in self.cluster.outputs_so_far() {
            history.record(p, Time::new(ms / self.tick_ms), out);
        }
        history
    }
}

// ---------------------------------------------------------------------------
// The uniform deployment handle
// ---------------------------------------------------------------------------

/// The failure detector of simulated strong deployments: Ω behind a
/// scripted lie overlay, paired with the quorum oracle Σ.
pub type SimStrongFd = PairFd<OverlayFd<OmegaOracle>, SigmaOracle>;

/// A running replica group behind the uniform driving interface the
/// [`crate::cluster::Cluster`] facade uses. One variant per (engine,
/// consistency) combination; the variant is selected by
/// [`Engine::deploy`] and never changes afterwards.
#[derive(Debug)]
pub enum EngineDeployment<S>
where
    S: StateMachine + Send + 'static,
{
    /// Simulated Algorithm 5 group (Ω oracle behind a lie overlay).
    SimEventual(Box<World<Replica<S, EtobOmega>, OverlayFd<OmegaOracle>>>),
    /// Simulated quorum-sequencer group (Ω + Σ oracles; Ω behind a lie
    /// overlay).
    SimStrong(Box<World<Replica<S, ConsensusTob>, SimStrongFd>>),
    /// Threaded Algorithm 5 group (heartbeat Ω).
    ThreadEventual(ThreadDeployment<S, EtobOmega>),
    /// Threaded quorum-sequencer group (heartbeat Ω + static quorum Σ).
    ThreadStrong(ThreadDeployment<S, ConsensusTob>),
    /// Socket-node Algorithm 5 group (heartbeat Ω over TCP).
    NetEventual(NetDeployment<S, EtobOmega>),
    /// Socket-node quorum-sequencer group (heartbeat Ω + static quorum Σ
    /// over TCP).
    NetStrong(NetDeployment<S, ConsensusTob>),
}

/// Everything a deployment can say about itself once it has been stopped:
/// per-replica applied counts, canonical snapshots, typed final states, the
/// full output history, message counters, the correct-process set, and the
/// number of `update` broadcasts (Algorithm 5 only; 0 otherwise).
pub struct EngineFinal<S> {
    /// Commands applied, per replica.
    pub applied: Vec<usize>,
    /// Canonical state-machine snapshot, per replica.
    pub snapshots: Vec<Vec<u8>>,
    /// Typed final state machine, per replica (always available at finish).
    pub states: Vec<Option<S>>,
    /// Timed output history of the whole run, in facade ticks.
    pub history: OutputHistory<ReplicaOutput>,
    /// Message counters of the run.
    pub metrics: Metrics,
    /// Processes that were correct for the whole run.
    pub correct: ProcessSet,
    /// `update` broadcasts sent by the Algorithm 5 layers (0 for strong
    /// deployments, which have no batching amortization to report).
    pub updates_sent: u64,
    /// Merged latency summary of all replicas (submit→deliver,
    /// promote→stable, stability lag).
    pub telemetry: TelemetryReport,
    /// Per-replica flight-recorder traces: the retained lifecycle events of
    /// each replica, oldest first (plus, on the simulator, the world-level
    /// crash/recover events of that replica).
    pub flight: Vec<Vec<ec_telemetry::Event>>,
}

impl<S: fmt::Debug> fmt::Debug for EngineFinal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineFinal")
            .field("applied", &self.applied)
            .field("correct", &self.correct)
            .field("updates_sent", &self.updates_sent)
            .finish_non_exhaustive()
    }
}

/// Applies polymorphic code to whichever variant is live: `$world` arms see
/// a `&(mut) World<Replica<S, _>, _>`, `$thread` arms a `ThreadDeployment`,
/// `$net` arms a `NetDeployment`.
macro_rules! by_engine {
    ($self:expr, $world:ident => $sim:expr, $thread:ident => $th:expr, $net:ident => $nt:expr) => {
        match $self {
            EngineDeployment::SimEventual($world) => $sim,
            EngineDeployment::SimStrong($world) => $sim,
            EngineDeployment::ThreadEventual($thread) => $th,
            EngineDeployment::ThreadStrong($thread) => $th,
            EngineDeployment::NetEventual($net) => $nt,
            EngineDeployment::NetStrong($net) => $nt,
        }
    };
}

fn sim_correct<A, D>(world: &World<A, D>) -> ProcessSet
where
    A: ec_sim::Algorithm,
    D: FailureDetector<Output = A::Fd>,
{
    world.failures().correct()
}

/// Merges the recorders of `n` replicas (some possibly crashed or
/// uninstrumented) into one report plus per-replica flight traces.
fn harvest_telemetry<'a>(
    recorders: impl Iterator<Item = Option<&'a Recorder>>,
) -> (TelemetryReport, Vec<Vec<ec_telemetry::Event>>) {
    let mut telemetry = TelemetryReport::default();
    let flight = recorders
        .map(|recorder| match recorder {
            Some(r) => {
                telemetry.merge(&r.report());
                r.events()
            }
            None => Vec::new(),
        })
        .collect();
    (telemetry, flight)
}

/// Live sim-side telemetry: merged recorder reports of every replica.
fn sim_telemetry<S, B, D>(world: &World<Replica<S, B>, D>) -> TelemetryReport
where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
    D: FailureDetector<Output = B::Fd>,
{
    let mut telemetry = TelemetryReport::default();
    for p in world.process_ids() {
        if let Some(r) = world.algorithm(p).broadcast_layer().recorder() {
            telemetry.merge(&r.report());
        }
    }
    telemetry
}

/// Live sim-side flight traces: per-replica recorder events plus the
/// world's crash/recover events routed to the affected replica.
fn sim_flight<S, B, D>(world: &World<Replica<S, B>, D>) -> Vec<Vec<ec_telemetry::Event>>
where
    S: StateMachine,
    B: EventualTotalOrderBroadcast + Compactable + Instrumented,
    D: FailureDetector<Output = B::Fd>,
{
    let mut flight: Vec<Vec<ec_telemetry::Event>> = world
        .process_ids()
        .map(|p| {
            world
                .algorithm(p)
                .broadcast_layer()
                .recorder()
                .map(Recorder::events)
                .unwrap_or_default()
        })
        .collect();
    for event in world.fault_events() {
        if let Some(slot) = flight.get_mut(event.origin as usize) {
            slot.push(event);
        }
    }
    flight
}

impl<S> EngineDeployment<S>
where
    S: StateMachine + Send + 'static,
{
    /// Which engine this deployment runs on.
    pub fn kind(&self) -> EngineKind {
        by_engine!(self, _w => EngineKind::Sim, _t => EngineKind::Thread, _n => EngineKind::Net)
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        by_engine!(self, w => w.n(), t => t.n, d => d.n)
    }

    /// Submits a command to replica `entry` at facade time `at`. The
    /// simulator schedules it; the thread engine sleeps until the wall
    /// clock reaches `at` and then submits, so callers should submit in
    /// non-decreasing time order.
    pub fn submit(&mut self, entry: ProcessId, command: ReplicaCommand, at: u64) {
        by_engine!(self,
            w => w.schedule_input(entry, command, at),
            t => { t.pace_to(at); t.runtime.submit(entry, command); },
            d => { d.pace_to(at); d.cluster.submit(entry, command); })
    }

    /// Advances the deployment to facade time `t` (virtual time on the
    /// simulator, paced wall-clock time on the thread engine).
    pub fn run_until(&mut self, t: u64) {
        by_engine!(self, w => w.run_until(t), t_ => t_.pace_to(t), d => d.pace_to(t))
    }

    /// Commands applied by replica `p` so far.
    pub fn applied(&self, p: ProcessId) -> usize {
        by_engine!(self,
            w => w.algorithm(p).applied(),
            t => t.latest_output(p).map(|o| o.applied).unwrap_or(0),
            d => d.latest_output(p).map(|o| o.applied).unwrap_or(0))
    }

    /// Commands replica `p` had applied at facade time `t` (from the output
    /// history — how the partition experiments probe availability).
    pub fn applied_at(&self, p: ProcessId, t: u64) -> usize {
        let history = self.output_history();
        history
            .value_at(p, Time::new(t))
            .map(|o| o.applied)
            .unwrap_or(0)
    }

    /// The canonical snapshot of replica `p`'s state machine.
    pub fn snapshot(&self, p: ProcessId) -> Vec<u8> {
        by_engine!(self,
            w => w.algorithm(p).state().snapshot(),
            t => t.latest_output(p).map_or_else(|| S::default().snapshot(), |o| o.snapshot.to_vec()),
            d => d.latest_output(p).map_or_else(|| S::default().snapshot(), |o| o.snapshot.to_vec()))
    }

    /// A typed copy of replica `p`'s state machine. Direct on the
    /// simulator; reconstructed from the latest emitted snapshot on the
    /// thread engine (`None` if `S` does not support
    /// [`StateMachine::from_snapshot`]).
    pub fn state(&self, p: ProcessId) -> Option<S> {
        by_engine!(self,
        w => Some(w.algorithm(p).state().clone()),
        t => match t.latest_output(p) {
            Some(out) => S::from_snapshot(&out.snapshot),
            None => Some(S::default()),
        },
        d => match d.latest_output(p) {
            Some(out) => S::from_snapshot(&out.snapshot),
            None => Some(S::default()),
        })
    }

    /// The stable delivered sequence of replica `p`'s broadcast layer.
    /// Available live on the simulator only (`None` on the thread and net
    /// engines, whose replicas are observable only through their outputs
    /// until [`EngineDeployment::finish`]).
    pub fn delivered(&self, p: ProcessId) -> Option<Vec<AppMessage>> {
        match self {
            EngineDeployment::SimEventual(w) => {
                Some(w.algorithm(p).broadcast_layer().delivered().to_vec())
            }
            EngineDeployment::SimStrong(w) => {
                Some(w.algorithm(p).broadcast_layer().delivered().to_vec())
            }
            EngineDeployment::ThreadEventual(_)
            | EngineDeployment::ThreadStrong(_)
            | EngineDeployment::NetEventual(_)
            | EngineDeployment::NetStrong(_) => None,
        }
    }

    /// Crashes replica `p` if the engine supports dynamic crashes. Returns
    /// `true` on the thread and net engines; `false` on the simulator,
    /// where crashes are scripted up front via [`SimEngine::failures`].
    pub fn crash(&mut self, p: ProcessId) -> bool {
        by_engine!(self,
            _w => { let _ = p; false },
            t => { t.runtime.crash(p); true },
            d => { d.cluster.crash(p); true })
    }

    /// Restarts a crashed replica as a fresh incarnation, if the engine
    /// supports it. Only the net engine does: the new node rejoins behind
    /// the crashed one's address with empty state and is re-filled by the
    /// broadcast layer's anti-entropy. Returns `false` everywhere else,
    /// and on the net engine if `p` is not down.
    pub fn restart(&mut self, p: ProcessId) -> bool {
        match self {
            EngineDeployment::NetEventual(d) => d.cluster.restart(p),
            EngineDeployment::NetStrong(d) => d.cluster.restart(p),
            _ => false,
        }
    }

    /// Frames rejected as malformed so far by the net engine's connection
    /// readers (0 on the other engines, which have no wire to corrupt).
    pub fn malformed_frames(&self) -> u64 {
        match self {
            EngineDeployment::NetEventual(d) => d.cluster.malformed_frames(),
            EngineDeployment::NetStrong(d) => d.cluster.malformed_frames(),
            _ => 0,
        }
    }

    /// The TCP listen address of replica `p`'s node, on the net engine
    /// (`None` elsewhere — only the net engine has sockets to dial). The
    /// adversarial codec tests use this to inject raw bytes.
    pub fn node_addr(&self, p: ProcessId) -> Option<std::net::SocketAddr> {
        match self {
            EngineDeployment::NetEventual(d) => d.cluster.addr(p),
            EngineDeployment::NetStrong(d) => d.cluster.addr(p),
            _ => None,
        }
    }

    /// Message counters so far (application messages only on the thread and
    /// net engines; the simulator has no separate heartbeat traffic to
    /// exclude).
    pub fn metrics(&self) -> Metrics {
        by_engine!(self, w => w.metrics().clone(), t => t.runtime.metrics(), d => d.cluster.metrics())
    }

    /// The timed output history so far, in facade ticks.
    pub fn output_history(&self) -> OutputHistory<ReplicaOutput> {
        by_engine!(self, w => w.trace().output_history(), t => t.output_history(), d => d.output_history())
    }

    /// The processes correct for the whole run: from the failure pattern on
    /// the simulator, everything minus `facade_crashed` on the thread and
    /// net engines.
    pub fn correct(&self, facade_crashed: &ProcessSet) -> ProcessSet {
        by_engine!(self,
            w => sim_correct(w),
            t => ProcessSet::all(t.n).difference(facade_crashed),
            d => ProcessSet::all(d.n).difference(facade_crashed))
    }

    /// Total `update` broadcasts of the Algorithm 5 layers so far (0 for
    /// strong deployments, and 0 live on the thread engine where replica
    /// internals are only harvested at finish).
    pub fn updates_sent(&self) -> u64 {
        match self {
            EngineDeployment::SimEventual(w) => w
                .process_ids()
                .map(|p| w.algorithm(p).broadcast_layer().updates_sent())
                .sum(),
            _ => 0,
        }
    }

    /// Total digest pulls (delta-sync update-gap repairs, see
    /// `EtobOmega::sync_pulls`) of the Algorithm 5 layers so far — each one
    /// is a wire-level gap that was detected and healed. 0 for strong
    /// deployments and live thread deployments.
    pub fn sync_pulls(&self) -> u64 {
        match self {
            EngineDeployment::SimEventual(w) => w
                .process_ids()
                .map(|p| w.algorithm(p).broadcast_layer().sync_pulls())
                .sum(),
            _ => 0,
        }
    }

    /// The merged latency summary so far. Live on the simulator (merged
    /// recorder reports of every replica); empty on the thread and net
    /// engines, whose replica internals are only harvested at
    /// [`EngineDeployment::finish`] — scrape a live net node with
    /// [`EngineDeployment::scrape`] instead.
    pub fn telemetry(&self) -> TelemetryReport {
        match self {
            EngineDeployment::SimEventual(w) => sim_telemetry(w),
            EngineDeployment::SimStrong(w) => sim_telemetry(w),
            _ => TelemetryReport::default(),
        }
    }

    /// The per-replica flight-recorder traces so far (simulator only; empty
    /// vectors on the real-time engines, which harvest at finish).
    pub fn flight_events(&self) -> Vec<Vec<ec_telemetry::Event>> {
        match self {
            EngineDeployment::SimEventual(w) => sim_flight(w),
            EngineDeployment::SimStrong(w) => sim_flight(w),
            _ => vec![Vec::new(); self.n()],
        }
    }

    /// Scrapes the live metrics exposition of replica `p`'s node over its
    /// socket (net engine only; `None` elsewhere, and on a node that is
    /// down).
    pub fn scrape(&self, p: ProcessId) -> Option<String> {
        match self {
            EngineDeployment::NetEventual(d) => d.cluster.scrape(p),
            EngineDeployment::NetStrong(d) => d.cluster.scrape(p),
            _ => None,
        }
    }

    /// Stops the deployment and harvests its final state. On the thread
    /// engine this joins every replica thread and reads the exact final
    /// automata; on the simulator it reads the live state.
    pub fn finish(self, facade_crashed: &ProcessSet) -> EngineFinal<S> {
        fn from_sim<S, B, D>(
            world: World<Replica<S, B>, D>,
            updates: impl Fn(&B) -> u64,
        ) -> EngineFinal<S>
        where
            S: StateMachine,
            B: EventualTotalOrderBroadcast + Compactable + Instrumented,
            D: FailureDetector<Output = B::Fd>,
        {
            let telemetry = sim_telemetry(&world);
            let flight = sim_flight(&world);
            EngineFinal {
                applied: world
                    .process_ids()
                    .map(|p| world.algorithm(p).applied())
                    .collect(),
                snapshots: world
                    .process_ids()
                    .map(|p| world.algorithm(p).state().snapshot())
                    .collect(),
                states: world
                    .process_ids()
                    .map(|p| Some(world.algorithm(p).state().clone()))
                    .collect(),
                history: world.trace().output_history(),
                metrics: world.metrics().clone(),
                correct: sim_correct(&world),
                updates_sent: world
                    .process_ids()
                    .map(|p| updates(world.algorithm(p).broadcast_layer()))
                    .collect::<Vec<u64>>()
                    .iter()
                    .sum(),
                telemetry,
                flight,
            }
        }

        fn from_thread<S, B>(
            deployment: ThreadDeployment<S, B>,
            facade_crashed: &ProcessSet,
            updates: impl Fn(&B) -> u64,
        ) -> EngineFinal<S>
        where
            S: StateMachine + Send + 'static,
            B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
            B::Msg: Send,
        {
            let ThreadDeployment {
                runtime,
                tick_ms,
                n,
            } = deployment;
            let report = runtime.shutdown();
            let history = report.output_history(tick_ms);
            let finals = &report.final_states;
            let replica = |i: usize| finals.get(i).and_then(Option::as_ref);
            let (telemetry, flight) = harvest_telemetry(
                (0..n).map(|i| replica(i).and_then(|r| r.broadcast_layer().recorder())),
            );
            EngineFinal {
                applied: (0..n)
                    .map(|i| replica(i).map_or(0, Replica::applied))
                    .collect(),
                snapshots: (0..n)
                    .map(|i| {
                        replica(i)
                            .map(|r| r.state().snapshot())
                            .unwrap_or_else(|| S::default().snapshot())
                    })
                    .collect(),
                states: (0..n)
                    .map(|i| replica(i).map(|r| r.state().clone()))
                    .collect(),
                history,
                metrics: report.metrics.clone(),
                correct: ProcessSet::all(n).difference(facade_crashed),
                updates_sent: (0..n)
                    .filter_map(|i| replica(i).map(|r| updates(r.broadcast_layer())))
                    .sum(),
                telemetry,
                flight,
            }
        }

        fn from_net<S, B>(
            deployment: NetDeployment<S, B>,
            facade_crashed: &ProcessSet,
            updates: impl Fn(&B) -> u64,
        ) -> EngineFinal<S>
        where
            S: StateMachine + Send + 'static,
            B: EventualTotalOrderBroadcast + Compactable + Instrumented + Send + 'static,
            B::Msg: WireCodec + Send,
        {
            let NetDeployment {
                cluster,
                tick_ms,
                n,
            } = deployment;
            let NetFinal {
                final_states,
                outputs,
                metrics,
            } = cluster.shutdown();
            let mut history = OutputHistory::new(n);
            for (p, ms, out) in outputs {
                history.record(p, Time::new(ms / tick_ms), out);
            }
            let replica = |i: usize| final_states.get(i).and_then(Option::as_ref);
            let (telemetry, flight) = harvest_telemetry(
                (0..n).map(|i| replica(i).and_then(|r| r.broadcast_layer().recorder())),
            );
            EngineFinal {
                applied: (0..n)
                    .map(|i| replica(i).map_or(0, Replica::applied))
                    .collect(),
                snapshots: (0..n)
                    .map(|i| {
                        replica(i)
                            .map(|r| r.state().snapshot())
                            .unwrap_or_else(|| S::default().snapshot())
                    })
                    .collect(),
                states: (0..n)
                    .map(|i| replica(i).map(|r| r.state().clone()))
                    .collect(),
                history,
                metrics,
                correct: ProcessSet::all(n).difference(facade_crashed),
                updates_sent: (0..n)
                    .filter_map(|i| replica(i).map(|r| updates(r.broadcast_layer())))
                    .sum(),
                telemetry,
                flight,
            }
        }

        match self {
            EngineDeployment::SimEventual(w) => from_sim(*w, EtobOmega::updates_sent),
            EngineDeployment::SimStrong(w) => from_sim(*w, |_| 0),
            EngineDeployment::ThreadEventual(t) => {
                from_thread(t, facade_crashed, EtobOmega::updates_sent)
            }
            EngineDeployment::ThreadStrong(t) => from_thread(t, facade_crashed, |_| 0),
            EngineDeployment::NetEventual(d) => {
                from_net(d, facade_crashed, EtobOmega::updates_sent)
            }
            EngineDeployment::NetStrong(d) => from_net(d, facade_crashed, |_| 0),
        }
    }
}
