//! The open-loop load generator: operations are sent on a fixed schedule
//! whether or not earlier ones have completed, and each is timed from the
//! moment it was *due*, not from the moment it was actually sent. A system
//! that stalls therefore sees its backlog and its measured latency grow; it
//! never sees less offered load (no coordinated omission).
//!
//! The generator is one thread. It alternates between sending what is due,
//! firing scheduled fault actions, and polling how far the system under test
//! has applied, sleeping at most [`POLL`] in between. How late it ran itself
//! is recorded per operation (`gen_lag_ms`), so a reader can tell whether a
//! latency measures the program or the generator.

use std::time::{Duration, Instant};

/// Longest sleep between two polls of the applied count.
pub const POLL: Duration = Duration::from_millis(1);

/// The latency limit of the rate ladder: a step passes only if its p90 is
/// within this many milliseconds.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// A step passes only if the backlog when arrivals stop is within this many
/// seconds of offered load.
pub const BACKLOG_LIMIT_S: f64 = 0.25;

/// Monotonic time the generator runs against (real in production, manual in
/// the unit tests).
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once if already past).
    fn sleep_until(&mut self, t: Duration);
}

/// The real monotonic clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock whose origin is now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        let now = self.0.elapsed();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// The system under test, as the generator sees it.
pub trait Target {
    /// Sends operation `index` of the current phase (must not wait for it
    /// to complete).
    fn submit(&mut self, index: usize);
    /// How many operations of the current phase are applied at every
    /// replica the workload counts.
    fn applied(&mut self) -> usize;
    /// Fires scheduled fault action `id` (crash, restart, …).
    fn action(&mut self, id: usize) {
        let _ = id;
    }
}

/// One open-loop phase: operations due at fixed offsets from its start.
#[derive(Clone, Debug)]
pub struct Phase {
    /// When each operation is due, relative to the phase start, ascending.
    pub due: Vec<Duration>,
    /// How long to keep polling after the last operation was sent before
    /// the remaining ones count as failed.
    pub drain: Duration,
    /// Fault actions as `(offset from phase start, id)`, in time order.
    pub actions: Vec<(Duration, usize)>,
    /// Stop sending as soon as more than this many sent operations are
    /// unapplied (`None` = send the whole schedule regardless). A ladder
    /// step is decided at that moment — its backlog is over the limit — and
    /// pushing this engine further past its knee can tip it into a resend
    /// storm it never leaves, which would turn a measurement of overload
    /// into lost operations.
    pub backlog_limit: Option<usize>,
}

impl Phase {
    /// `count` operations evenly spaced at `rate` per second.
    pub fn uniform(rate: f64, count: usize, drain: Duration) -> Self {
        let due = (0..count)
            .map(|i| Duration::from_secs_f64(i as f64 / rate))
            .collect();
        Phase {
            due,
            drain,
            actions: Vec::new(),
            backlog_limit: None,
        }
    }

    /// Poisson arrivals at `rate` per second over `seconds`, conditioned on
    /// their count: `rate × seconds` sorted uniform points. That is the
    /// arrival process of independent users, with exactly the same offered
    /// load under every seed. A fixed spacing would lock the arrivals to the
    /// program's own timer period (at 200 op/s both are 5 ms) and make the
    /// result depend on their phase.
    pub fn poisson(rng: &mut crate::inputs::Rng, rate: f64, seconds: f64, drain: Duration) -> Self {
        let count = (rate * seconds).round() as usize;
        let mut offsets: Vec<f64> = (0..count)
            .map(|_| (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * seconds)
            .collect();
        offsets.sort_by(f64::total_cmp);
        Phase {
            due: offsets.into_iter().map(Duration::from_secs_f64).collect(),
            drain,
            actions: Vec::new(),
            backlog_limit: None,
        }
    }

    /// Number of operations.
    pub fn count(&self) -> usize {
        self.due.len()
    }
}

/// When one fault action ran, relative to the phase start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ActionSpan {
    /// The action's identifier.
    pub id: usize,
    /// When the call into the system started.
    pub start: Duration,
    /// When it returned.
    pub end: Duration,
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Per operation, in schedule order: due → applied-everywhere in ms, or
    /// `None` if it was not applied when the drain deadline expired.
    pub latency_ms: Vec<Option<f64>>,
    /// Per operation: how late the generator sent it, in ms.
    pub gen_lag_ms: Vec<f64>,
    /// Operations sent but not yet applied at the moment arrivals stopped.
    pub backlog_at_stop: usize,
    /// When the last operation was sent, relative to the phase start.
    pub arrivals_end: Duration,
    /// When the phase ended (everything applied, or drain deadline).
    pub end: Duration,
    /// The fault actions that ran.
    pub actions: Vec<ActionSpan>,
    /// Wall time spent inside `Target::submit`, in total.
    pub submit_busy: Duration,
    /// Wall time spent inside `Target::applied`, in total.
    pub poll_busy: Duration,
    /// Number of `Target::applied` calls.
    pub polls: usize,
    /// Whether sending stopped early because the backlog limit was passed
    /// (the per-operation vectors then cover only what was sent).
    pub cut_short: bool,
}

impl PhaseResult {
    /// Latencies of the operations that were applied.
    pub fn applied_latencies(&self) -> Vec<f64> {
        self.latency_ms.iter().flatten().copied().collect()
    }

    /// Operations not applied by the drain deadline.
    pub fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }
}

/// Runs one open-loop phase against `target`.
pub fn run_phase(target: &mut dyn Target, phase: &Phase, clock: &mut dyn Clock) -> PhaseResult {
    let start = clock.now();
    let since_start = |clock: &dyn Clock| clock.now().saturating_sub(start);
    let mut result = PhaseResult {
        latency_ms: vec![None; phase.count()],
        gen_lag_ms: Vec::with_capacity(phase.count()),
        ..PhaseResult::default()
    };
    // operations that will be sent: the whole schedule unless cut short
    let mut count = phase.count();
    let mut sent = 0usize;
    let mut done = 0usize;
    let mut next_action = 0usize;
    let mut stopped = false;
    loop {
        while let Some(&(at, id)) = phase.actions.get(next_action) {
            if at > since_start(clock) {
                break;
            }
            let begun = since_start(clock);
            target.action(id);
            result.actions.push(ActionSpan {
                id,
                start: begun,
                end: since_start(clock),
            });
            next_action += 1;
        }
        while sent < count {
            let now = since_start(clock);
            let due = phase.due[sent];
            if due > now {
                break;
            }
            result.gen_lag_ms.push((now - due).as_secs_f64() * 1e3);
            target.submit(sent);
            result.submit_busy += since_start(clock) - now;
            sent += 1;
        }
        if done < sent {
            let before = since_start(clock);
            let applied = target.applied().min(sent);
            let seen = since_start(clock);
            result.poll_busy += seen - before;
            result.polls += 1;
            for index in done..applied {
                let latency = seen.saturating_sub(phase.due[index]);
                result.latency_ms[index] = Some(latency.as_secs_f64() * 1e3);
            }
            done = done.max(applied);
        }
        if phase.backlog_limit.is_some_and(|limit| sent - done > limit) && sent < count {
            count = sent;
            result.cut_short = true;
        }
        let now = since_start(clock);
        if sent == count && !stopped {
            stopped = true;
            result.backlog_at_stop = sent - done;
            result.arrivals_end = now;
        }
        let actions_left = next_action < phase.actions.len();
        if done == count && !actions_left {
            break;
        }
        if stopped && !actions_left && now > result.arrivals_end + phase.drain {
            break;
        }
        // poll while something is outstanding; otherwise sleep straight to
        // the next send or action
        let mut wake = if done < sent {
            now + POLL
        } else {
            Duration::MAX
        };
        if sent < count {
            wake = wake.min(phase.due[sent]);
        }
        if let Some(&(at, _)) = phase.actions.get(next_action) {
            wake = wake.min(at);
        }
        clock.sleep_until(start + wake);
    }
    result.latency_ms.truncate(count);
    result.end = since_start(clock);
    result
}

/// What the ladder verdict needs to know about one step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StepVerdict {
    /// Offered load of the step.
    pub rate: u32,
    /// p90 of due → applied-everywhere, in ms (over applied operations).
    pub p90_ms: f64,
    /// Backlog when arrivals stopped.
    pub backlog_at_stop: usize,
    /// Operations that were never applied.
    pub failed: usize,
}

impl StepVerdict {
    /// Whether the step meets the latency limit without a growing backlog
    /// and without a failed operation.
    pub fn passes(&self) -> bool {
        self.failed == 0
            && self.p90_ms <= LATENCY_LIMIT_MS
            && self.backlog_at_stop as f64 <= BACKLOG_LIMIT_S * f64::from(self.rate)
    }
}

/// The highest rate such that its step and every lower step pass; 0 if the
/// lowest step already fails. `steps` may be in any order.
pub fn max_rate_ok(steps: &[StepVerdict]) -> u32 {
    let mut sorted = steps.to_vec();
    sorted.sort_by_key(|s| s.rate);
    sorted
        .iter()
        .take_while(|s| s.passes())
        .last()
        .map_or(0, |s| s.rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that only moves when told to (or slept on).
    #[derive(Clone)]
    struct ManualClock(Rc<Cell<Duration>>);

    impl Clock for ManualClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&mut self, t: Duration) {
            if t > self.0.get() {
                self.0.set(t);
            }
        }
    }

    /// Applies nothing until `release`, then everything sent so far; records
    /// when each operation was sent; `submit_cost` of manual time passes
    /// inside every `submit`, `action_cost` inside every action.
    struct Stalled {
        clock: ManualClock,
        release: Duration,
        sent_at: Vec<Duration>,
        submit_cost: Duration,
        action_cost: Duration,
    }

    impl Target for Stalled {
        fn submit(&mut self, index: usize) {
            assert_eq!(index, self.sent_at.len());
            self.sent_at.push(self.clock.now());
            let t = self.clock.now() + self.submit_cost;
            self.clock.sleep_until(t);
        }
        fn applied(&mut self) -> usize {
            if self.clock.now() >= self.release {
                self.sent_at.len()
            } else {
                0
            }
        }
        fn action(&mut self, _id: usize) {
            let t = self.clock.now() + self.action_cost;
            self.clock.sleep_until(t);
        }
    }

    fn stalled(release_ms: u64) -> (Stalled, ManualClock) {
        let clock = ManualClock(Rc::new(Cell::new(Duration::from_secs(5))));
        let target = Stalled {
            clock: clock.clone(),
            release: Duration::from_secs(5) + Duration::from_millis(release_ms),
            sent_at: Vec::new(),
            submit_cost: Duration::ZERO,
            action_cost: Duration::ZERO,
        };
        (target, clock)
    }

    #[test]
    fn a_stalled_consumer_raises_latency_and_not_lowers_offered_load() {
        // 100 op/s for 1 s; nothing is applied until t = 3 s
        let (mut target, mut clock) = stalled(3_000);
        let phase = Phase::uniform(100.0, 100, Duration::from_secs(5));
        let result = run_phase(&mut target, &phase, &mut clock);
        // every operation was still sent on schedule, within one poll
        for (i, at) in target.sent_at.iter().enumerate() {
            let due = Duration::from_secs(5) + phase.due[i];
            assert!(*at >= due && *at <= due + POLL, "op {i} sent at {at:?}");
        }
        assert_eq!(result.backlog_at_stop, 100);
        assert_eq!(result.failed(), 0);
        // latency runs from the due time: the first op waited ~3 s, the
        // last ~2 s — the stall is charged to every operation behind it
        let first = result.latency_ms[0].expect("applied");
        let last = result.latency_ms[99].expect("applied");
        assert!((first - 3_000.0).abs() <= 2.0, "{first}");
        assert!((last - 2_010.0).abs() <= 2.0, "{last}");
        assert!(result.gen_lag_ms.iter().all(|lag| *lag <= 1.0));
    }

    #[test]
    fn a_blocked_generator_shows_as_lag_and_still_times_from_due() {
        // an action at 100 ms blocks the generator for 500 ms
        let (mut target, mut clock) = stalled(0);
        target.action_cost = Duration::from_millis(500);
        let mut phase = Phase::uniform(100.0, 100, Duration::from_secs(1));
        phase.actions.push((Duration::from_millis(100), 7));
        let result = run_phase(&mut target, &phase, &mut clock);
        assert_eq!(result.actions.len(), 1);
        assert_eq!(result.actions[0].id, 7);
        assert_eq!(
            result.actions[0].end - result.actions[0].start,
            Duration::from_millis(500)
        );
        // op 10 was due at 100 ms, sent at ~600 ms: lag and latency say so
        assert!((result.gen_lag_ms[10] - 500.0).abs() <= 1.5);
        assert!(result.latency_ms[10].expect("applied") >= 500.0);
        // ops due after the block are on time again
        assert!(result.gen_lag_ms[70] <= 1.0);
        assert_eq!(target.sent_at.len(), 100);
    }

    #[test]
    fn unapplied_operations_fail_at_the_drain_deadline() {
        let (mut target, mut clock) = stalled(60_000);
        let phase = Phase::uniform(200.0, 50, Duration::from_millis(300));
        let result = run_phase(&mut target, &phase, &mut clock);
        assert_eq!(result.failed(), 50);
        assert!(result.applied_latencies().is_empty());
        assert!(result.end >= result.arrivals_end + Duration::from_millis(300));
        assert!(result.end <= result.arrivals_end + Duration::from_millis(305));
    }

    #[test]
    fn a_backlog_limit_cuts_the_step_short_without_losing_an_operation() {
        // 800 op/s for 4 s against a consumer that applies nothing for 1 s:
        // the limit of 200 is passed after a quarter second of arrivals
        let (mut target, mut clock) = stalled(1_000);
        let mut phase = Phase::uniform(800.0, 3_200, Duration::from_secs(2));
        phase.backlog_limit = Some(200);
        let result = run_phase(&mut target, &phase, &mut clock);
        assert!(result.cut_short);
        assert_eq!(target.sent_at.len(), 201, "sending stops at the limit");
        assert_eq!(result.latency_ms.len(), 201);
        assert_eq!(result.failed(), 0, "what was sent is still waited for");
        assert_eq!(result.backlog_at_stop, 201);
        // the step is decided: its backlog is over 0.25 s of offered load
        assert!(!step(800, 0.0, result.backlog_at_stop, 0).passes());
        // without a limit the same phase sends all 3200
        let (mut target, mut clock) = stalled(1_000);
        phase.backlog_limit = None;
        let result = run_phase(&mut target, &phase, &mut clock);
        assert!(!result.cut_short);
        assert_eq!(target.sent_at.len(), 3_200);
    }

    fn step(rate: u32, p90_ms: f64, backlog: usize, failed: usize) -> StepVerdict {
        StepVerdict {
            rate,
            p90_ms,
            backlog_at_stop: backlog,
            failed,
        }
    }

    #[test]
    fn max_rate_is_the_last_step_of_the_passing_prefix() {
        let steps = [
            step(200, 60.0, 9, 0),
            step(400, 110.0, 40, 0),
            step(800, 2_600.0, 3_100, 0),
            step(1_600, 40.0, 3, 0), // passes alone, but 800 below it failed
        ];
        assert_eq!(max_rate_ok(&steps), 400);
        assert_eq!(max_rate_ok(&steps[..1]), 200);
        assert_eq!(max_rate_ok(&[step(200, 251.0, 0, 0)]), 0);
        assert_eq!(max_rate_ok(&[step(200, 10.0, 0, 1)]), 0);
        assert_eq!(max_rate_ok(&[step(200, 10.0, 51, 0)]), 0);
        assert_eq!(max_rate_ok(&[step(200, 250.0, 50, 0)]), 200);
        assert_eq!(max_rate_ok(&[]), 0);
    }

    #[test]
    fn everything_completing_at_the_end_fails_the_step() {
        // the shape of the rejected PR-11 numbers: a 4 s step at 800 op/s
        // where nothing is applied until arrivals stop, then all at once
        let (mut target, mut clock) = stalled(4_000);
        let phase = Phase::uniform(800.0, 3_200, Duration::from_secs(2));
        let result = run_phase(&mut target, &phase, &mut clock);
        assert_eq!(result.failed(), 0, "every op does complete");
        let latencies = result.applied_latencies();
        let p90 = crate::stats::percentile(&latencies, 90.0).value;
        let verdict = step(800, p90, result.backlog_at_stop, result.failed());
        assert!(p90 > 3_000.0, "p90 is most of the step length: {p90}");
        assert_eq!(verdict.backlog_at_stop, 3_200);
        assert!(!verdict.passes());
        assert_eq!(max_rate_ok(&[step(200, 60.0, 9, 0), verdict]), 200);
    }
}
