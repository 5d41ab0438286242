//! The nemesis scenario DSL: a declarative, fully seeded description of one
//! adversarial run.
//!
//! A [`Scenario`] bundles everything that shapes a chaos run — replica count,
//! consistency level, seed, engine, the client workload, and a script of
//! [`NemesisOp`] faults. On the simulator it compiles onto the deterministic
//! [`SimEngine`], so a scenario value *is* a replayable artifact: running it
//! twice produces bit-identical outcomes, and a failing scenario printed by
//! the shrinker can be pasted back into a test verbatim.
//!
//! Every fault is windowed and every window must close at or before the
//! scenario's [`fault_horizon`](Scenario::fault_horizon); the run then gets
//! [`settle`](Scenario::settle) quiet ticks, which is the "after faults
//! cease" premise of the eventual-consistency convergence checker.

use std::fmt;

use ec_replication::{Consistency, EngineKind, SimEngine};
use ec_sim::{
    FailurePattern, LinkFaults, LinkScope, NetworkModel, ProcessId, ProcessSet, RecoveryPolicy,
    Time,
};

/// One scripted fault of the nemesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NemesisOp {
    /// Isolate `minority` from the rest during `[from, until)`.
    Partition {
        /// First tick of the partition.
        from: u64,
        /// Heal tick.
        until: u64,
        /// The isolated group.
        minority: ProcessSet,
    },
    /// Crash `process` at `at`, permanently.
    Crash {
        /// The crashing process.
        process: ProcessId,
        /// Crash tick.
        at: u64,
    },
    /// Crash `process` at `at` and rejoin it at `back_at` (with durable
    /// state retained or cleared, per [`Scenario::recovery`]).
    CrashRecover {
        /// The crashing process.
        process: ProcessId,
        /// Crash tick.
        at: u64,
        /// Rejoin tick.
        back_at: u64,
    },
    /// Probabilistic loss/duplication/jitter on the scoped links during
    /// `[from, until)`. Probabilities are in permille (`0..1000`), keeping
    /// scenarios exactly comparable and printable.
    Lossy {
        /// First tick of the fault window.
        from: u64,
        /// Last tick (exclusive) of the fault window.
        until: u64,
        /// The affected links.
        scope: LinkScope,
        /// Drop probability in permille (must be `< 1000`: fairness).
        drop_permille: u16,
        /// Duplication probability in permille.
        dup_permille: u16,
        /// Extra uniform delivery jitter in ticks (reorders messages).
        jitter: u64,
    },
    /// During `[from, until)`, the `observers`' Ω module outputs `leader`
    /// instead of the honest oracle value. Only meaningful at
    /// [`Consistency::Eventual`]: the quorum sequencer's documented scope
    /// excludes ballot-based dueling-leader recovery.
    OmegaLie {
        /// First tick of the lie.
        from: u64,
        /// Last tick (exclusive) of the lie.
        until: u64,
        /// The processes lied to.
        observers: ProcessSet,
        /// The wrong leader they observe.
        leader: ProcessId,
    },
}

impl NemesisOp {
    /// The tick at which this fault has fully ceased (for a permanent crash,
    /// the crash tick itself — the process simply stays down).
    pub fn ceases_at(&self) -> u64 {
        match self {
            NemesisOp::Partition { until, .. } => *until,
            NemesisOp::Crash { at, .. } => *at,
            NemesisOp::CrashRecover { back_at, .. } => *back_at,
            NemesisOp::Lossy { until, .. } => *until,
            NemesisOp::OmegaLie { until, .. } => *until,
        }
    }
}

impl fmt::Display for NemesisOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NemesisOp::Partition {
                from,
                until,
                minority,
            } => write!(f, "partition {minority:?} during [{from}, {until})"),
            NemesisOp::Crash { process, at } => write!(f, "crash {process} at {at}"),
            NemesisOp::CrashRecover {
                process,
                at,
                back_at,
            } => write!(f, "crash {process} at {at}, rejoin at {back_at}"),
            NemesisOp::Lossy {
                from,
                until,
                scope,
                drop_permille,
                dup_permille,
                jitter,
            } => write!(
                f,
                "lossy {scope:?} during [{from}, {until}): drop {drop_permille}‰, \
                 dup {dup_permille}‰, jitter {jitter}"
            ),
            NemesisOp::OmegaLie {
                from,
                until,
                observers,
                leader,
            } => write!(
                f,
                "Ω lies to {observers:?} during [{from}, {until}): leader = {leader}"
            ),
        }
    }
}

/// One client operation of the scripted workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Write `value` under `key` through the session's entry replica.
    Put {
        /// The written key.
        key: String,
        /// The written value.
        value: String,
    },
    /// Read `key` at the session's entry replica.
    Read {
        /// The read key.
        key: String,
    },
}

/// A workload operation scheduled at a facade time, issued through one of
/// the scenario's client sessions (each session is pinned to one entry
/// replica, round-robin at deployment).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientOp {
    /// Facade tick the operation is issued at.
    pub at: u64,
    /// Index of the issuing session (`< Scenario::sessions`).
    pub session: usize,
    /// The operation.
    pub op: WorkloadOp,
}

/// A complete, replayable chaos scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Human-readable identifier (shown in verdicts and artifacts).
    pub name: String,
    /// Number of replicas.
    pub n: usize,
    /// Simulator seed (drives link delays and fault sampling).
    pub seed: u64,
    /// Consistency level of the deployment under test.
    pub consistency: Consistency,
    /// The engine the scenario runs on ([`EngineKind::Sim`] unless set; on
    /// the real-time engines `seed` and `max_delay` shape nothing).
    pub engine: EngineKind,
    /// Rejoin semantics for [`NemesisOp::CrashRecover`] windows.
    pub recovery: RecoveryPolicy,
    /// Durable storage root for the deployment, if any: each replica then
    /// logs delivered records and checkpoints under `<dir>/<index>/`. With
    /// [`RecoveryPolicy::ClearState`] this turns a blank-slate rejoin into a
    /// disk recovery — the replayed replica reads its crashed incarnation's
    /// log + snapshot and uses anti-entropy only for the missed suffix.
    pub durable: Option<std::path::PathBuf>,
    /// Number of client sessions (pinned round-robin to entry replicas).
    pub sessions: usize,
    /// Maximum base link delay (delays are uniform in `[1, max_delay]`).
    pub max_delay: u64,
    /// The fault script.
    pub nemesis: Vec<NemesisOp>,
    /// The client workload, in non-decreasing `at` order.
    pub workload: Vec<ClientOp>,
    /// Tick by which every fault window must have closed.
    pub fault_horizon: u64,
    /// Quiet ticks granted after the fault horizon for convergence.
    pub settle: u64,
}

impl Scenario {
    /// A fault-free template over `n` replicas: fixed defaults a test or the
    /// generator then fills in.
    pub fn quiet(name: &str, n: usize, consistency: Consistency) -> Self {
        Scenario {
            name: name.to_string(),
            n,
            seed: 1,
            consistency,
            engine: EngineKind::Sim,
            recovery: RecoveryPolicy::RetainState,
            durable: None,
            sessions: 2,
            max_delay: 3,
            nemesis: Vec::new(),
            workload: Vec::new(),
            fault_horizon: 600,
            settle: 3_000,
        }
    }

    /// The run horizon: fault horizon plus settle time.
    pub fn horizon(&self) -> u64 {
        self.fault_horizon + self.settle
    }

    /// The failure pattern the nemesis script induces.
    pub fn failure_pattern(&self) -> FailurePattern {
        let mut failures = FailurePattern::no_failures(self.n);
        for op in &self.nemesis {
            match op {
                NemesisOp::Crash { process, at } => failures.set_crash(*process, Time::new(*at)),
                NemesisOp::CrashRecover {
                    process,
                    at,
                    back_at,
                } => failures.add_crash_recovery(*process, Time::new(*at), Time::new(*back_at)),
                _ => {}
            }
        }
        failures
    }

    /// The processes that are down at any point of the run (their sessions'
    /// operations carry no delivery guarantee — an unacknowledged write at a
    /// crashing replica may be lost).
    pub fn ever_down(&self) -> ProcessSet {
        let failures = self.failure_pattern();
        (0..self.n)
            .map(ProcessId::new)
            .filter(|p| !failures.down_windows(*p).is_empty())
            .collect()
    }

    /// Compiles the scenario onto the deterministic simulation engine.
    pub fn sim_engine(&self) -> SimEngine {
        let mut network = NetworkModel::uniform_delay(1, self.max_delay.max(1));
        let mut engine = SimEngine::new().seed(self.seed).recovery(self.recovery);
        for op in &self.nemesis {
            match op {
                NemesisOp::Partition {
                    from,
                    until,
                    minority,
                } => {
                    network = network.with_partition(
                        Time::new(*from),
                        Time::new(*until),
                        ec_sim::PartitionSpec::isolate(minority.clone(), self.n),
                    );
                }
                NemesisOp::Lossy {
                    from,
                    until,
                    scope,
                    drop_permille,
                    dup_permille,
                    jitter,
                } => {
                    network = network.with_faults(
                        Time::new(*from),
                        Time::new(*until),
                        scope.clone(),
                        LinkFaults::new(
                            f64::from(*drop_permille) / 1_000.0,
                            f64::from(*dup_permille) / 1_000.0,
                            *jitter,
                        ),
                    );
                }
                NemesisOp::OmegaLie {
                    from,
                    until,
                    observers,
                    leader,
                } => {
                    engine = engine.omega_lie(*from, *until, observers.clone(), *leader);
                }
                NemesisOp::Crash { .. } | NemesisOp::CrashRecover { .. } => {}
            }
        }
        engine.network(network).failures(self.failure_pattern())
    }

    /// Validates the scenario's structural invariants; the driver calls this
    /// before running.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant: fault windows
    /// must close by the fault horizon, processes must be in range, the
    /// correct processes must stay a non-empty set (a majority at
    /// [`Consistency::Strong`]), at most one crash op per process, Ω lies
    /// are [`Consistency::Eventual`]-only, strong scenarios must retain
    /// durable state across rejoins, loss must stay below certainty, and the
    /// workload must be time-sorted with session indices in range. A
    /// scenario on a real-time engine scripts crashes and crash–recoveries
    /// only, and declares [`RecoveryPolicy::ClearState`] for a rejoin.
    pub fn assert_well_formed(&self) {
        assert!(self.n >= 2, "{}: need at least two replicas", self.name);
        assert!(self.sessions >= 1, "{}: need a session", self.name);
        let real_time = self.engine != EngineKind::Sim;
        let mut crash_ops: Vec<ProcessId> = Vec::new();
        for op in &self.nemesis {
            assert!(
                op.ceases_at() <= self.fault_horizon,
                "{}: fault {op} outlives the fault horizon {}",
                self.name,
                self.fault_horizon
            );
            // the real-time engines have no scripted network or oracle
            assert!(
                !real_time
                    || matches!(op, NemesisOp::Crash { .. } | NemesisOp::CrashRecover { .. }),
                "{}: a real-time scenario supports crash and crash-recover faults only, got: {op}",
                self.name
            );
            match op {
                NemesisOp::Crash { process, .. } | NemesisOp::CrashRecover { process, .. } => {
                    assert!(
                        process.index() < self.n,
                        "{}: {op}: no such process",
                        self.name
                    );
                    assert!(
                        !crash_ops.contains(process),
                        "{}: at most one crash op per process",
                        self.name
                    );
                    crash_ops.push(*process);
                    assert!(
                        !real_time
                            || matches!(op, NemesisOp::Crash { .. })
                            || self.recovery == RecoveryPolicy::ClearState,
                        "{}: a real-time restart is a fresh incarnation, blank or recovered \
                         from disk: declare RecoveryPolicy::ClearState",
                        self.name
                    );
                }
                NemesisOp::Lossy { drop_permille, .. } => {
                    assert!(
                        *drop_permille < 1_000,
                        "{}: certain loss violates the fairness assumption",
                        self.name
                    );
                }
                NemesisOp::OmegaLie {
                    observers, leader, ..
                } => {
                    assert_eq!(
                        self.consistency,
                        Consistency::Eventual,
                        "{}: Ω lies are eventual-consistency-only (the quorum \
                         sequencer does not implement dueling-leader recovery)",
                        self.name
                    );
                    assert!(
                        leader.index() < self.n && observers.iter().all(|p| p.index() < self.n),
                        "{}: {op}: no such process",
                        self.name
                    );
                }
                NemesisOp::Partition { minority, .. } => {
                    assert!(
                        minority.iter().all(|p| p.index() < self.n),
                        "{}: {op}: no such process",
                        self.name
                    );
                }
            }
        }
        let failures = self.failure_pattern();
        assert!(
            !failures.correct().is_empty(),
            "{}: Ω needs a correct process",
            self.name
        );
        if self.consistency == Consistency::Strong {
            assert!(
                failures.has_correct_majority(),
                "{}: strong consistency needs a correct majority",
                self.name
            );
            assert_eq!(
                self.recovery,
                RecoveryPolicy::RetainState,
                "{}: strong consistency requires durable state across rejoins \
                 (a sequencer that forgets slot assignments may reassign them)",
                self.name
            );
        }
        let mut last = 0;
        for op in &self.workload {
            assert!(op.at >= last, "{}: workload must be time-sorted", self.name);
            last = op.at;
            assert!(
                op.session < self.sessions,
                "{}: workload references session {} of {}",
                self.name,
                op.session,
                self.sessions
            );
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario {} (n = {}, seed = {}, {}, {:?}, {} session(s), \
             delay 1..={}, horizon {} + settle {})",
            self.name,
            self.n,
            self.seed,
            self.consistency,
            self.recovery,
            self.sessions,
            self.max_delay,
            self.fault_horizon,
            self.settle,
        )?;
        if let Some(dir) = &self.durable {
            writeln!(f, "  durable: {}", dir.display())?;
        }
        if self.engine != EngineKind::Sim {
            writeln!(f, "  engine: {}", self.engine)?;
        }
        for op in &self.nemesis {
            writeln!(f, "  nemesis: {op}")?;
        }
        for op in &self.workload {
            match &op.op {
                WorkloadOp::Put { key, value } => {
                    writeln!(f, "  t{:>5} s{}: put {key} = {value}", op.at, op.session)?
                }
                WorkloadOp::Read { key } => {
                    writeln!(f, "  t{:>5} s{}: read {key}", op.at, op.session)?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(at: u64, session: usize, key: &str, value: &str) -> ClientOp {
        ClientOp {
            at,
            session,
            op: WorkloadOp::Put {
                key: key.into(),
                value: value.into(),
            },
        }
    }

    #[test]
    fn quiet_scenarios_are_well_formed_and_compile() {
        let mut s = Scenario::quiet("t", 3, Consistency::Eventual);
        s.workload.push(write(10, 0, "k", "v"));
        s.assert_well_formed();
        let _ = s.sim_engine();
        assert_eq!(s.horizon(), 3_600);
        assert!(s.ever_down().is_empty());
    }

    #[test]
    fn nemesis_ops_compile_into_pattern_and_engine() {
        let mut s = Scenario::quiet("t", 4, Consistency::Eventual);
        s.nemesis.push(NemesisOp::Partition {
            from: 50,
            until: 200,
            minority: [0].into_iter().collect(),
        });
        s.nemesis.push(NemesisOp::CrashRecover {
            process: ProcessId::new(3),
            at: 100,
            back_at: 400,
        });
        s.nemesis.push(NemesisOp::Lossy {
            from: 100,
            until: 300,
            scope: LinkScope::All,
            drop_permille: 200,
            dup_permille: 100,
            jitter: 3,
        });
        s.nemesis.push(NemesisOp::OmegaLie {
            from: 60,
            until: 120,
            observers: [1].into_iter().collect(),
            leader: ProcessId::new(1),
        });
        s.assert_well_formed();
        let failures = s.failure_pattern();
        assert!(!failures.is_alive(ProcessId::new(3), Time::new(200)));
        assert!(failures.is_alive(ProcessId::new(3), Time::new(500)));
        assert_eq!(s.ever_down().len(), 1);
        let _ = s.sim_engine();
        let rendered = format!("{s}");
        assert!(rendered.contains("partition"));
        assert!(rendered.contains("rejoin at 400"));
        assert!(rendered.contains("drop 200‰"));
        assert!(rendered.contains("Ω lies"));
    }

    #[test]
    #[should_panic(expected = "outlives the fault horizon")]
    fn faults_must_end_before_the_horizon() {
        let mut s = Scenario::quiet("t", 3, Consistency::Eventual);
        s.nemesis.push(NemesisOp::Lossy {
            from: 0,
            until: 10_000,
            scope: LinkScope::All,
            drop_permille: 10,
            dup_permille: 0,
            jitter: 0,
        });
        s.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "no such process")]
    fn out_of_range_partition_members_are_rejected() {
        let mut s = Scenario::quiet("t", 3, Consistency::Eventual);
        s.nemesis.push(NemesisOp::Partition {
            from: 10,
            until: 50,
            minority: [5].into_iter().collect(),
        });
        s.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "no such process")]
    fn out_of_range_lie_observers_are_rejected() {
        let mut s = Scenario::quiet("t", 3, Consistency::Eventual);
        s.nemesis.push(NemesisOp::OmegaLie {
            from: 10,
            until: 50,
            observers: [7].into_iter().collect(),
            leader: ProcessId::new(0),
        });
        s.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "eventual-consistency-only")]
    fn omega_lies_are_rejected_at_strong() {
        let mut s = Scenario::quiet("t", 3, Consistency::Strong);
        s.nemesis.push(NemesisOp::OmegaLie {
            from: 10,
            until: 20,
            observers: [0].into_iter().collect(),
            leader: ProcessId::new(1),
        });
        s.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "correct majority")]
    fn strong_scenarios_need_a_correct_majority() {
        let mut s = Scenario::quiet("t", 3, Consistency::Strong);
        s.nemesis.push(NemesisOp::Crash {
            process: ProcessId::new(0),
            at: 10,
        });
        s.nemesis.push(NemesisOp::Crash {
            process: ProcessId::new(1),
            at: 10,
        });
        s.assert_well_formed();
    }

    /// A real-time scenario whose nemesis is `op`.
    fn real_time(engine: EngineKind, op: NemesisOp) -> Scenario {
        let mut s = Scenario::quiet("t", 3, Consistency::Eventual);
        s.engine = engine;
        s.recovery = RecoveryPolicy::ClearState;
        s.nemesis.push(op);
        s
    }

    #[test]
    fn real_time_scenarios_crash_and_restart_and_name_their_engine() {
        let crash = NemesisOp::Crash {
            process: ProcessId::new(2),
            at: 100,
        };
        let restart = NemesisOp::CrashRecover {
            process: ProcessId::new(2),
            at: 60,
            back_at: 140,
        };
        real_time(EngineKind::Thread, crash).assert_well_formed();
        let s = real_time(EngineKind::Net, restart);
        s.assert_well_formed();
        assert!(format!("{s}").contains("  engine: net\n"), "{s}");
        // the simulator is the default and goes unnamed
        let sim = Scenario::quiet("t", 3, Consistency::Eventual);
        assert!(!format!("{sim}").contains("engine"), "{sim}");
    }

    #[test]
    #[should_panic(expected = "crash and crash-recover faults only")]
    fn partitions_are_rejected_on_the_thread_engine() {
        let partition = NemesisOp::Partition {
            from: 10,
            until: 50,
            minority: [0].into_iter().collect(),
        };
        real_time(EngineKind::Thread, partition).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "crash and crash-recover faults only")]
    fn lossy_links_are_rejected_on_the_net_engine() {
        let lossy = NemesisOp::Lossy {
            from: 10,
            until: 50,
            scope: LinkScope::All,
            drop_permille: 100,
            dup_permille: 0,
            jitter: 0,
        };
        real_time(EngineKind::Net, lossy).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "crash and crash-recover faults only")]
    fn omega_lies_are_rejected_on_real_time_engines() {
        let lie = NemesisOp::OmegaLie {
            from: 10,
            until: 50,
            observers: [1].into_iter().collect(),
            leader: ProcessId::new(1),
        };
        real_time(EngineKind::Thread, lie).assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "declare RecoveryPolicy::ClearState")]
    fn real_time_restarts_must_clear_state() {
        let mut s = real_time(
            EngineKind::Thread,
            NemesisOp::CrashRecover {
                process: ProcessId::new(2),
                at: 60,
                back_at: 140,
            },
        );
        s.recovery = RecoveryPolicy::RetainState;
        s.assert_well_formed();
    }

    #[test]
    #[should_panic(expected = "durable state")]
    fn strong_scenarios_must_retain_state() {
        let mut s = Scenario::quiet("t", 3, Consistency::Strong);
        s.recovery = RecoveryPolicy::ClearState;
        s.nemesis.push(NemesisOp::CrashRecover {
            process: ProcessId::new(2),
            at: 10,
            back_at: 50,
        });
        s.assert_well_formed();
    }
}
