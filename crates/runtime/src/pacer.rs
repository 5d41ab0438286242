//! Deadline-driven tick pacing for the real-time node loop.
//!
//! Everything Algorithm 5 does on a clock — the leader's periodic
//! `promote`, the batch flush, anti-entropy resend, and above all the
//! heartbeat Ω — is counted in `on_timer` calls. A loop that fires the
//! timer only when its inbox has been *quiet* for a tick stops firing under
//! load: the node stops sending heartbeats while its peers keep counting
//! them missing. [`Pacer`] fires against a wall-clock deadline instead, so
//! a tick is due whether or not events keep arriving.
//!
//! The rule, one decision per loop turn ([`Pacer::turn`]):
//!
//! * `now >= next_tick` → [`Turn::Fire`]; `next_tick += tick`, and if that
//!   is still not in the future (the loop was more than one tick late)
//!   re-anchor to `now + tick`. Missed ticks are **skipped, never replayed**
//!   in a burst: a tick is a period, not a count to catch up on.
//! * otherwise → [`Turn::Recv`]`(next_tick - now)`: block for one event at
//!   most that long.
//! * a fire is always followed by a `Recv` turn (with a zero wait if the
//!   next tick is already due), so a slow `on_timer` cannot starve the
//!   inbox either: between any two fires the loop takes an event if one is
//!   queued.
//!
//! The one node loop of both real-time engines runs on this type.

use std::time::{Duration, Instant};

/// What a node loop does on its next turn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Turn {
    /// A tick is due: run `on_timer` now, before taking another event.
    Fire,
    /// Block for at most this long waiting for one event (zero: take an
    /// event only if one is already queued).
    Recv(Duration),
}

/// Paces `on_timer` calls of a node loop against wall-clock deadlines (see
/// the module docs for the rule).
#[derive(Debug)]
pub struct Pacer {
    tick: Duration,
    next_tick: Instant,
    /// The previous turn was a fire; this one must offer the inbox a turn.
    fired: bool,
}

impl Pacer {
    /// A pacer whose first tick is due one `tick` from now.
    pub fn start(tick: Duration) -> Self {
        Self::start_at(tick, Instant::now())
    }

    /// [`Pacer::start`] on an explicit clock reading.
    fn start_at(tick: Duration, now: Instant) -> Self {
        Pacer {
            tick,
            next_tick: now + tick,
            fired: false,
        }
    }

    /// Decides the loop's next turn at the current wall-clock time.
    pub fn turn(&mut self) -> Turn {
        self.turn_at(Instant::now())
    }

    /// [`Pacer::turn`] on an explicit clock reading (what the tests drive).
    fn turn_at(&mut self, now: Instant) -> Turn {
        if now < self.next_tick || self.fired {
            self.fired = false;
            return Turn::Recv(self.next_tick.saturating_duration_since(now));
        }
        self.fired = true;
        self.next_tick += self.tick;
        if self.next_tick <= now {
            self.next_tick = now + self.tick;
        }
        Turn::Fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: Duration = Duration::from_millis(5);

    /// A manual clock: offsets from one fixed reading, no sleeping.
    struct Clock {
        origin: Instant,
        now: Instant,
    }

    impl Clock {
        fn new() -> Self {
            let origin = Instant::now();
            Clock {
                origin,
                now: origin,
            }
        }

        fn advance(&mut self, by: Duration) {
            self.now += by;
        }

        fn elapsed(&self) -> Duration {
            self.now - self.origin
        }
    }

    #[test]
    fn saturated_inbox_still_fires_once_per_tick() {
        // an event is always queued and takes 300 µs to handle: the old
        // loop (fire on receive *timeout*) never fires here
        let mut clock = Clock::new();
        let mut pacer = Pacer::start_at(TICK, clock.now);
        let (mut fires, mut events) = (0u32, 0u32);
        let mut events_since_fire = 0u32;
        let ticks = 200;
        while clock.elapsed() < TICK * ticks {
            match pacer.turn_at(clock.now) {
                Turn::Fire => {
                    assert!(fires == 0 || events_since_fire > 0, "fires back to back");
                    fires += 1;
                    events_since_fire = 0;
                }
                Turn::Recv(_) => {
                    events += 1;
                    events_since_fire += 1;
                    clock.advance(Duration::from_micros(300));
                }
            }
        }
        // 300 µs does not divide the tick, so fires land a little late and
        // the schedule must not drift: N ticks of time give N fires (± the
        // one in flight)
        assert!((ticks - 1..=ticks).contains(&fires), "{fires} fires");
        assert!(events > fires * 10);
    }

    #[test]
    fn a_late_loop_fires_once_and_re_anchors() {
        let mut clock = Clock::new();
        let mut pacer = Pacer::start_at(TICK, clock.now);
        // the loop was stuck in a handler for 7.4 ticks
        clock.advance(TICK * 7 + Duration::from_millis(2));
        assert_eq!(pacer.turn_at(clock.now), Turn::Fire);
        // no burst: the next tick is a full period away, the six missed
        // ticks are gone
        assert_eq!(pacer.turn_at(clock.now), Turn::Recv(TICK));
        assert_eq!(pacer.turn_at(clock.now), Turn::Recv(TICK));
        clock.advance(TICK);
        assert_eq!(pacer.turn_at(clock.now), Turn::Fire);
        assert_eq!(pacer.turn_at(clock.now), Turn::Recv(TICK));
    }

    #[test]
    fn less_than_one_tick_late_keeps_the_schedule() {
        let mut clock = Clock::new();
        let mut pacer = Pacer::start_at(TICK, clock.now);
        clock.advance(TICK + Duration::from_millis(2));
        assert_eq!(pacer.turn_at(clock.now), Turn::Fire);
        // the next deadline stays on the grid (2 × tick), not 2 ms after it
        assert_eq!(
            pacer.turn_at(clock.now),
            Turn::Recv(TICK - Duration::from_millis(2))
        );
    }

    #[test]
    fn idle_inbox_fires_on_every_multiple_of_the_tick() {
        // nothing ever arrives: every receive runs into its timeout, which
        // is when the old loop fired too — at tick, 2 × tick, 3 × tick, …
        let mut clock = Clock::new();
        let mut pacer = Pacer::start_at(TICK, clock.now);
        let mut fire_times = Vec::new();
        while fire_times.len() < 50 {
            match pacer.turn_at(clock.now) {
                Turn::Fire => fire_times.push(clock.elapsed()),
                Turn::Recv(wait) => clock.advance(wait),
            }
        }
        let expected: Vec<Duration> = (1..=50).map(|k| TICK * k).collect();
        assert_eq!(fire_times, expected);
    }

    #[test]
    fn a_slow_timer_handler_cannot_starve_the_inbox() {
        // on_timer itself takes two ticks: every turn finds a tick due, and
        // still every second turn goes to the inbox (with a zero wait)
        let mut clock = Clock::new();
        let mut pacer = Pacer::start_at(TICK, clock.now);
        clock.advance(TICK);
        let mut turns = Vec::new();
        for _ in 0..6 {
            let turn = pacer.turn_at(clock.now);
            if turn == Turn::Fire {
                clock.advance(TICK * 2);
            }
            turns.push(turn);
        }
        let recv = Turn::Recv(Duration::ZERO);
        assert_eq!(
            turns,
            [Turn::Fire, recv, Turn::Fire, recv, Turn::Fire, recv]
        );
    }

    #[test]
    fn start_reads_the_wall_clock() {
        let mut pacer = Pacer::start(Duration::from_secs(3600));
        match pacer.turn() {
            Turn::Recv(wait) => assert!(wait <= Duration::from_secs(3600)),
            Turn::Fire => unreachable!("an hour cannot have passed"),
        }
        assert!(format!("{pacer:?}").contains("Pacer"));
    }
}
