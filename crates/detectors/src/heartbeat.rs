//! A message-based implementation of Ω for partially synchronous periods.
//!
//! The oracle detectors in this crate are *histories*: they answer queries
//! directly from the failure pattern. [`HeartbeatOmega`] is instead an
//! *algorithm* that emulates Ω with messages: every process periodically
//! broadcasts a heartbeat, suspects processes whose heartbeats stop arriving,
//! and trusts the smallest-index unsuspected process. In runs whose message
//! delays are eventually bounded (which is the case for the simulator's delay
//! models, and for real deployments after a global stabilization time), the
//! emitted leader estimate stabilizes on the smallest-index correct process —
//! i.e. the output history satisfies the Ω specification.
//!
//! The ablation experiment A1 compares this implementation against the oracle
//! on stabilization time and message cost; the real-time runtime in
//! `ec-runtime` uses it as its leader election service.

use ec_sim::{Algorithm, Context, ProcessId};

/// Messages exchanged by [`HeartbeatOmega`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeartbeatMsg {
    /// "I am alive" — broadcast every period.
    Heartbeat,
}

impl ec_storage::WireCodec for HeartbeatMsg {
    fn encode<S: ec_storage::Sink>(&self, out: &mut S) {
        match self {
            HeartbeatMsg::Heartbeat => ec_storage::codec::push_u8(out, 0),
        }
    }

    fn decode(r: &mut ec_storage::Reader<'_>) -> Result<Self, ec_storage::DecodeError> {
        match r.read_u8()? {
            0 => Ok(HeartbeatMsg::Heartbeat),
            tag => Err(ec_storage::DecodeError::BadTag {
                context: "HeartbeatMsg",
                tag,
            }),
        }
    }
}

/// Configuration of [`HeartbeatOmega`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Ticks between heartbeat broadcasts (and between suspicion checks).
    pub period: u64,
    /// Number of consecutive missed periods after which a process is
    /// suspected.
    pub suspect_after: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: 10,
            suspect_after: 3,
        }
    }
}

/// Heartbeat-based eventual leader election (an implementation of Ω).
///
/// The algorithm outputs its current leader estimate every time it changes,
/// so the run's output history is the emulated Ω history; `ec_detectors::checks`
/// can then verify it against the Ω specification.
#[derive(Clone, Debug)]
pub struct HeartbeatOmega {
    me: ProcessId,
    n: usize,
    config: HeartbeatConfig,
    /// Consecutive periods without a heartbeat, per process.
    missed: Vec<u64>,
    suspected: Vec<bool>,
    leader: ProcessId,
}

impl HeartbeatOmega {
    /// Creates the module for process `me` in a system of `n` processes.
    pub fn new(me: ProcessId, n: usize, config: HeartbeatConfig) -> Self {
        assert!(config.period >= 1, "heartbeat period must be at least 1");
        assert!(
            config.suspect_after >= 1,
            "suspicion threshold must be at least 1"
        );
        HeartbeatOmega {
            me,
            n,
            config,
            missed: vec![0; n],
            suspected: vec![false; n],
            leader: ProcessId::new(0),
        }
    }

    /// The current leader estimate.
    pub fn leader(&self) -> ProcessId {
        self.leader
    }

    /// The processes currently suspected of having crashed.
    pub fn suspected(&self) -> Vec<ProcessId> {
        self.suspected
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.then_some(ProcessId::new(i)))
            .collect()
    }

    fn recompute_leader(&mut self, ctx: &mut Context<'_, Self>) {
        let new_leader = (0..self.n)
            .map(ProcessId::new)
            .find(|p| *p == self.me || !self.suspected.get(p.index()).copied().unwrap_or(false))
            .unwrap_or(self.me);
        if new_leader != self.leader {
            self.leader = new_leader;
            ctx.output(new_leader);
        }
    }
}

impl Algorithm for HeartbeatOmega {
    type Msg = HeartbeatMsg;
    type Input = ();
    type Output = ProcessId;
    type Fd = ();

    fn on_start(&mut self, ctx: &mut Context<'_, Self>) {
        ctx.output(self.leader);
        ctx.broadcast_others(HeartbeatMsg::Heartbeat);
        ctx.set_timer(self.config.period);
    }

    fn on_message(&mut self, from: ProcessId, msg: HeartbeatMsg, ctx: &mut Context<'_, Self>) {
        // Exhaustive by name, so a future variant cannot be silently ignored;
        // `from` is peer-derived, so the per-process tables are accessed with
        // .get() rather than indexed.
        match msg {
            HeartbeatMsg::Heartbeat => {
                if let Some(missed) = self.missed.get_mut(from.index()) {
                    *missed = 0;
                }
                if let Some(suspected) = self.suspected.get_mut(from.index()) {
                    if *suspected {
                        *suspected = false;
                        self.recompute_leader(ctx);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self>) {
        for i in 0..self.n {
            if i == self.me.index() {
                continue;
            }
            self.missed[i] = self.missed[i].saturating_add(1);
            if self.missed[i] > self.config.suspect_after {
                self.suspected[i] = true;
            }
        }
        self.recompute_leader(ctx);
        ctx.broadcast_others(HeartbeatMsg::Heartbeat);
        ctx.set_timer(self.config.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::check_omega_history;
    use ec_sim::{
        FailurePattern, FdHistory, NetworkModel, NullFd, OutputHistory, Time, WorldBuilder,
    };

    fn run(
        n: usize,
        failures: FailurePattern,
        delay: NetworkModel,
        horizon: u64,
    ) -> OutputHistory<ProcessId> {
        let mut world = WorldBuilder::new(n)
            .network(delay)
            .failures(failures)
            .seed(11)
            .build_with(
                |p| HeartbeatOmega::new(p, n, HeartbeatConfig::default()),
                NullFd,
            );
        world.run_until(horizon);
        world.output_history().clone()
    }

    /// Converts the leader-estimate output history of a heartbeat run into an
    /// Ω-style failure detector history for the property checker.
    fn to_fd_history(outputs: &OutputHistory<ProcessId>, n: usize) -> FdHistory<ProcessId> {
        let mut h = FdHistory::new(n);
        for p in (0..n).map(ProcessId::new) {
            for (t, leader) in outputs.outputs(p) {
                h.record(p, *t, *leader);
            }
        }
        h
    }

    #[test]
    fn failure_free_run_elects_process_zero_immediately() {
        let n = 4;
        let outputs = run(
            n,
            FailurePattern::no_failures(n),
            NetworkModel::fixed_delay(2),
            2_000,
        );
        for p in (0..n).map(ProcessId::new) {
            assert_eq!(outputs.last(p), Some(&ProcessId::new(0)));
        }
    }

    #[test]
    fn leader_crash_triggers_re_election_of_next_correct_process() {
        let n = 4;
        let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(300));
        let outputs = run(n, failures.clone(), NetworkModel::fixed_delay(2), 5_000);
        let history = to_fd_history(&outputs, n);
        let (_, leader) =
            check_omega_history(&history, &failures).expect("heartbeat run must satisfy Omega");
        assert_eq!(leader, ProcessId::new(1));
        // Re-election (the switch of the output to p1) happens only after the
        // crash of p0 at t = 300.
        for p in failures.correct().iter() {
            let switched_at = outputs
                .first_time_where(p, |leader| *leader == ProcessId::new(1))
                .expect("every correct process eventually trusts p1");
            assert!(
                switched_at > Time::new(300),
                "{p} switched at {switched_at:?}"
            );
        }
    }

    #[test]
    fn cascading_crashes_eventually_elect_the_smallest_correct_process() {
        let n = 5;
        let failures = FailurePattern::no_failures(n)
            .with_crash(ProcessId::new(0), Time::new(200))
            .with_crash(ProcessId::new(1), Time::new(600))
            .with_crash(ProcessId::new(2), Time::new(1_000));
        let outputs = run(n, failures.clone(), NetworkModel::fixed_delay(3), 10_000);
        let history = to_fd_history(&outputs, n);
        let (_, leader) =
            check_omega_history(&history, &failures).expect("heartbeat run must satisfy Omega");
        assert_eq!(leader, ProcessId::new(3));
    }

    #[test]
    fn slow_links_cause_only_transient_false_suspicions() {
        // Delays occasionally exceed the suspicion threshold, so leaders may
        // flap, but with bounded delays the estimate must still stabilize.
        let n = 3;
        let failures = FailurePattern::no_failures(n);
        let mut world = WorldBuilder::new(n)
            .network(NetworkModel::uniform_delay(1, 25))
            .failures(failures.clone())
            .seed(3)
            .build_with(
                |p| {
                    HeartbeatOmega::new(
                        p,
                        n,
                        HeartbeatConfig {
                            period: 10,
                            suspect_after: 2,
                        },
                    )
                },
                NullFd,
            );
        world.run_until(20_000);
        let history = to_fd_history(world.output_history(), n);
        let result = check_omega_history(&history, &failures);
        assert!(result.is_ok(), "leader did not stabilize: {result:?}");
    }

    #[test]
    fn accessors_report_state() {
        let hb = HeartbeatOmega::new(ProcessId::new(1), 3, HeartbeatConfig::default());
        assert_eq!(hb.leader(), ProcessId::new(0));
        assert!(hb.suspected().is_empty());
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn zero_period_panics() {
        let _ = HeartbeatOmega::new(
            ProcessId::new(0),
            2,
            HeartbeatConfig {
                period: 0,
                suspect_after: 1,
            },
        );
    }
}
