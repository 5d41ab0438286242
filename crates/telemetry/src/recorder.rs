//! The per-replica recorder: timestamps lifecycle events into the flight
//! ring and matches submit/admit/promote times against deliveries to feed
//! the latency histograms.
//!
//! A recorder is attached to one broadcast automaton (or one replica-level
//! component). The automaton pushes the current logical tick at every
//! handler entry ([`Recorder::set_tick`]); on the deterministic engine that
//! tick *is* the timestamp, on the real-time engines the attached external
//! [`crate::clock::Clock`] is read instead.
//!
//! Each message has at most one pending record, keyed by its identity and
//! holding the start times of its open clocks. Memory stays bounded by the
//! number of in-flight messages because no record outlives its message:
//!
//! - [`Recorder::delivered`] settles the clocks and removes the record, so a
//!   message delivered twice (e.g. after a divergence window is absorbed) is
//!   only measured once;
//! - a message delivered *before* this replica promoted it (a follower that
//!   gets the leader's promote ahead of the update carrying the message) is
//!   reported through [`Recorder::delivered_ahead`]: its record stays as a
//!   marker, the admission and promote that follow start no clock, and the
//!   promote removes it;
//! - a marker whose promote never comes (the message was folded first) is
//!   dropped with the fold ([`Recorder::folded`]).

use std::collections::btree_map::{BTreeMap, Entry};

use crate::clock::TimeSource;
use crate::event::{Event, EventKind, EventRing};
use crate::report::TelemetryReport;

/// The open clocks of one message at this replica — or, once it was
/// delivered ahead of its own promote, a marker that starts none.
#[derive(Debug, Default)]
struct Pending {
    submit: Option<u64>,
    admit: Option<u64>,
    promote: Option<u64>,
    /// Delivered already: the events still to come start no clock.
    delivered: bool,
}

/// Per-replica telemetry state: an event ring plus the three latency
/// histograms and the pending record of every in-flight message.
#[derive(Debug)]
pub struct Recorder {
    replica: u32,
    source: TimeSource,
    tick: u64,
    ring: EventRing,
    report: TelemetryReport,
    pending: BTreeMap<(u32, u64), Pending>,
    /// Absolute count of delivered-sequence entries already recorded, so
    /// wholesale sequence adoptions only scan their new suffix.
    delivered_watermark: u64,
}

impl Recorder {
    /// A recorder for replica `replica` timestamping from `source`,
    /// retaining the newest `capacity` events.
    pub fn new(replica: u32, source: TimeSource, capacity: usize) -> Self {
        Recorder {
            replica,
            source,
            tick: 0,
            ring: EventRing::new(capacity),
            report: TelemetryReport::default(),
            pending: BTreeMap::new(),
            delivered_watermark: 0,
        }
    }

    /// The replica this recorder is attached to.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Pushes the current logical tick. Handlers call this on entry; it is
    /// the timestamp source on [`TimeSource::Logical`] and ignored (beyond
    /// bookkeeping) on an external clock.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// The current timestamp in this recorder's time unit.
    pub fn now(&self) -> u64 {
        match &self.source {
            TimeSource::Logical => self.tick,
            TimeSource::External(clock) => clock.now(),
        }
    }

    fn event(&mut self, kind: EventKind, origin: u32, seq: u64) {
        let at = self.now();
        self.ring.record(Event {
            at,
            kind,
            origin,
            seq,
        });
    }

    /// Starts the clock `clock` picks out of the message's record, unless
    /// it runs already or the message was delivered.
    fn start(&mut self, origin: u32, seq: u64, clock: fn(&mut Pending) -> &mut Option<u64>) {
        let at = self.now();
        let record = self.pending.entry((origin, seq)).or_default();
        if !record.delivered {
            clock(record).get_or_insert(at);
        }
    }

    /// A client submitted message (`origin`, `seq`) here; starts the
    /// submit→deliver clock.
    pub fn submitted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Submitted, origin, seq);
        self.start(origin, seq, |r| &mut r.submit);
    }

    /// The message was admitted into the local causal graph; starts the
    /// stability-lag clock.
    pub fn admitted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Broadcast, origin, seq);
        self.start(origin, seq, |r| &mut r.admit);
    }

    /// The message entered the local promotion sequence; starts the
    /// promote→deliver clock — or, for a message delivered ahead of it,
    /// removes the marker.
    pub fn promoted(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Promoted, origin, seq);
        let at = self.now();
        match self.pending.entry((origin, seq)) {
            Entry::Occupied(marker) if marker.get().delivered => {
                marker.remove();
            }
            record => {
                record.or_default().promote.get_or_insert(at);
            }
        }
    }

    /// The message entered the local delivered sequence, and this replica
    /// records nothing more for it; settles every clock that was started
    /// for it and drops its record.
    pub fn delivered(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Delivered, origin, seq);
        self.settle(origin, seq);
    }

    /// The message entered the local delivered sequence before this replica
    /// promoted it; settles every clock that was started for it and leaves
    /// a marker, so its admission and promote start none. The promote (or
    /// the fold of the message) removes the marker.
    pub fn delivered_ahead(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Delivered, origin, seq);
        self.settle(origin, seq);
        let marker = Pending {
            delivered: true,
            ..Pending::default()
        };
        self.pending.insert((origin, seq), marker);
    }

    fn settle(&mut self, origin: u32, seq: u64) {
        let Some(record) = self.pending.remove(&(origin, seq)) else {
            return;
        };
        if record.delivered {
            return;
        }
        let at = self.now();
        let report = &mut self.report;
        for (start, histogram) in [
            (record.submit, &mut report.submit_deliver),
            (record.admit, &mut report.stability_lag),
            (record.promote, &mut report.promote_stable),
        ] {
            if let Some(t0) = start {
                histogram.record(at.saturating_sub(t0));
            }
        }
    }

    /// The state machine applied the message.
    pub fn applied(&mut self, origin: u32, seq: u64) {
        self.event(EventKind::Applied, origin, seq);
    }

    /// The stable prefix was folded up to absolute base `base`; `ids` are
    /// the `(origin, seq)` of the messages folded. A folded message is
    /// delivered here and never promoted again, so whatever record it still
    /// holds is a marker no event will remove: it is dropped.
    pub fn folded(&mut self, base: u64, ids: impl IntoIterator<Item = (u32, u64)>) {
        let replica = self.replica;
        self.event(EventKind::Folded, replica, base);
        if !self.pending.is_empty() {
            for id in ids {
                self.pending.remove(&id);
            }
        }
    }

    /// Messages with a record here: clocks started and not yet settled,
    /// plus markers of messages delivered ahead of their promote. The
    /// in-flight gauge of this replica — it returns to 0 once everything it
    /// has seen is delivered and promoted here, or folded.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// A digest gap was detected and a sync pull issued.
    pub fn sync_pull(&mut self) {
        let replica = self.replica;
        self.event(EventKind::SyncPull, replica, 0);
    }

    /// This replica crashed.
    pub fn crashed(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Crashed, replica, 0);
    }

    /// This replica recovered / rejoined.
    pub fn recovered(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Recovered, replica, 0);
    }

    /// A malformed peer message was rejected.
    pub fn malformed(&mut self) {
        let replica = self.replica;
        self.event(EventKind::Malformed, replica, 0);
    }

    /// Absolute count of delivered-sequence entries this recorder has seen.
    /// Automata that adopt whole delivered sequences (catch-up, verified
    /// suffixes) compare against this to record only the new suffix, then
    /// advance it via [`Recorder::set_delivered_watermark`].
    pub fn delivered_watermark(&self) -> u64 {
        self.delivered_watermark
    }

    /// Advances the delivered watermark (monotonic; lowering is ignored).
    pub fn set_delivered_watermark(&mut self, watermark: u64) {
        self.delivered_watermark = self.delivered_watermark.max(watermark);
    }

    /// The retained flight events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.events()
    }

    /// The mergeable latency summary recorded so far.
    pub fn report(&self) -> TelemetryReport {
        let mut report = self.report.clone();
        report.events_recorded = self.ring.recorded();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_latencies_are_tick_differences() {
        let mut r = Recorder::new(0, TimeSource::Logical, 16);
        r.set_tick(10);
        r.submitted(0, 1);
        r.admitted(0, 1);
        r.set_tick(12);
        r.promoted(0, 1);
        r.set_tick(17);
        r.delivered(0, 1);
        let report = r.report();
        assert_eq!(report.submit_deliver.count(), 1);
        assert_eq!(report.submit_deliver.max(), 7);
        assert_eq!(report.stability_lag.max(), 7);
        assert_eq!(report.promote_stable.max(), 5);
        assert_eq!(report.events_recorded, 4);
        assert_eq!(r.pending(), 0, "delivery ends the record");
    }

    #[test]
    fn redelivery_is_measured_once() {
        let mut r = Recorder::new(1, TimeSource::Logical, 16);
        r.set_tick(1);
        r.submitted(2, 9);
        r.set_tick(4);
        r.delivered(2, 9);
        r.set_tick(9);
        r.delivered(2, 9);
        let report = r.report();
        assert_eq!(report.submit_deliver.count(), 1);
        assert_eq!(report.submit_deliver.max(), 3);
        assert_eq!(r.pending(), 0);
    }

    /// The Ω leader's own batched message at a follower: the leader's
    /// promote delivers it before the update that carries it is admitted.
    #[test]
    fn events_after_a_delivery_ahead_start_no_clock() {
        let mut r = Recorder::new(1, TimeSource::Logical, 16);
        r.set_tick(3);
        r.delivered_ahead(0, 5);
        assert_eq!(r.pending(), 1, "a marker waits for the promote");
        r.set_tick(6);
        r.admitted(0, 5);
        r.set_tick(8);
        r.promoted(0, 5);
        assert_eq!(r.pending(), 0, "the promote consumes the marker");
        r.set_tick(20);
        r.delivered(0, 5);
        let report = r.report();
        assert_eq!(report.stability_lag.count(), 0);
        assert_eq!(report.promote_stable.count(), 0);
        assert_eq!(report.events_recorded, 4);
    }

    /// Admitted, held back on a missing dependency, delivered through the
    /// leader's promote, promoted last: the clock that ran settles, the
    /// promote starts none.
    #[test]
    fn a_promote_after_delivery_settles_nothing() {
        let mut r = Recorder::new(1, TimeSource::Logical, 16);
        r.set_tick(2);
        r.admitted(2, 1);
        r.set_tick(9);
        r.delivered_ahead(2, 1);
        r.promoted(2, 1);
        let report = r.report();
        assert_eq!(report.stability_lag.count(), 1);
        assert_eq!(report.stability_lag.max(), 7);
        assert_eq!(report.promote_stable.count(), 0);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn a_fold_drops_the_marker_of_a_message_never_admitted() {
        let mut r = Recorder::new(2, TimeSource::Logical, 16);
        r.set_tick(1);
        r.delivered_ahead(0, 1);
        r.delivered_ahead(0, 2);
        r.submitted(2, 1);
        r.folded(2, [(0, 1), (0, 2)]);
        assert_eq!(r.pending(), 1, "only the folded markers go");
        assert_eq!(r.report().submit_deliver.count(), 0);
    }

    #[test]
    fn watermark_is_monotonic() {
        let mut r = Recorder::new(0, TimeSource::Logical, 4);
        assert_eq!(r.delivered_watermark(), 0);
        r.set_delivered_watermark(5);
        r.set_delivered_watermark(3);
        assert_eq!(r.delivered_watermark(), 5);
    }

    #[test]
    fn replica_events_carry_the_replica_index() {
        let mut r = Recorder::new(7, TimeSource::Logical, 8);
        r.set_tick(2);
        r.crashed();
        r.recovered();
        r.sync_pull();
        r.malformed();
        r.folded(40, []);
        let events = r.events();
        assert!(events.iter().all(|e| e.origin == 7 && e.at == 2));
        assert_eq!(events.last().map(|e| e.seq), Some(40));
    }
}
