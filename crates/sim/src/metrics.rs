//! Aggregate counters of a run, used by the benchmark harness.

use crate::ProcessId;

/// Aggregate counters of a simulation run.
///
/// The experiment harness uses these to report message complexity and step
/// counts next to latency figures (e.g. the transformation-overhead and
/// heartbeat-Ω ablations in EXPERIMENTS.md).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Messages delivered to live destinations.
    pub messages_delivered: u64,
    /// Messages discarded because their destination had crashed.
    pub messages_dropped: u64,
    /// Outputs produced by all processes.
    pub outputs: u64,
    /// Local timeouts fired.
    pub timer_fires: u64,
    /// Application inputs delivered.
    pub inputs: u64,
    /// Total steps executed (message, timer and input steps).
    pub steps: u64,
    /// Messages lost to an injected link fault (chaos testing), as opposed to
    /// `messages_dropped`, which counts deliveries to crashed destinations.
    pub faults_dropped: u64,
    /// Extra message copies injected by link-fault duplication.
    pub faults_duplicated: u64,
    /// Process crashes that occurred during the run (every down window that
    /// opened, including permanent crashes).
    pub crashes: u64,
    /// Crash–recovery rejoins that occurred during the run.
    pub recoveries: u64,
    /// Wire bytes handed to the network (one count per send attempt; see
    /// `Algorithm::wire_size` — 0 for algorithms that do not report message
    /// sizes).
    pub bytes_sent: u64,
    /// Wire bytes delivered to live destinations (duplicated copies
    /// each count; lost and crash-dropped copies do not).
    pub bytes_delivered: u64,
    /// Messages sent, per sending process.
    pub sends_per_process: Vec<u64>,
}

impl Metrics {
    /// Creates zeroed metrics for `n` processes.
    pub fn new(n: usize) -> Self {
        Metrics {
            sends_per_process: vec![0; n],
            ..Default::default()
        }
    }

    /// Records a message sent by `from`.
    pub fn record_send(&mut self, from: ProcessId) {
        self.messages_sent += 1;
        if let Some(c) = self.sends_per_process.get_mut(from.index()) {
            *c += 1;
        }
    }

    /// Messages sent by process `p`.
    pub fn sends_of(&self, p: ProcessId) -> u64 {
        self.sends_per_process.get(p.index()).copied().unwrap_or(0)
    }

    /// Accumulates another run's counters into this one.
    ///
    /// Used by the sharded service layer to aggregate the metrics of its
    /// per-shard worlds into one cluster-level figure. The per-process send
    /// vectors are concatenated in merge order, so on a merged value
    /// [`Metrics::sends_of`] no longer corresponds to any single world's
    /// [`ProcessId`] numbering — worlds reuse ids `0..n`, and only the
    /// aggregate counters (`messages_sent`, `steps`, …) remain meaningful
    /// across a merge.
    pub fn merge(&mut self, other: &Metrics) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.outputs += other.outputs;
        self.timer_fires += other.timer_fires;
        self.inputs += other.inputs;
        self.steps += other.steps;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.bytes_sent += other.bytes_sent;
        self.bytes_delivered += other.bytes_delivered;
        self.sends_per_process
            .extend(other.sends_per_process.iter().copied());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_send_updates_totals_and_per_process() {
        let mut m = Metrics::new(3);
        m.record_send(ProcessId::new(1));
        m.record_send(ProcessId::new(1));
        m.record_send(ProcessId::new(2));
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.sends_of(ProcessId::new(1)), 2);
        assert_eq!(m.sends_of(ProcessId::new(0)), 0);
        assert_eq!(m.sends_of(ProcessId::new(9)), 0);
    }

    #[test]
    fn merge_sums_counters_and_concatenates_send_vectors() {
        let mut a = Metrics::new(2);
        a.record_send(ProcessId::new(0));
        a.messages_delivered = 1;
        a.steps = 3;
        let mut b = Metrics::new(2);
        b.record_send(ProcessId::new(1));
        b.record_send(ProcessId::new(1));
        b.outputs = 5;
        b.faults_dropped = 4;
        b.faults_duplicated = 2;
        b.crashes = 1;
        b.recoveries = 1;
        a.bytes_sent = 100;
        b.bytes_sent = 20;
        b.bytes_delivered = 15;
        a.merge(&b);
        assert_eq!(a.messages_sent, 3);
        assert_eq!(a.messages_delivered, 1);
        assert_eq!(a.outputs, 5);
        assert_eq!(a.steps, 3);
        assert_eq!(a.faults_dropped, 4);
        assert_eq!(a.faults_duplicated, 2);
        assert_eq!(a.crashes, 1);
        assert_eq!(a.recoveries, 1);
        assert_eq!(a.bytes_sent, 120);
        assert_eq!(a.bytes_delivered, 15);
        assert_eq!(a.sends_per_process, vec![1, 0, 0, 2]);
    }

    #[test]
    fn default_is_zeroed() {
        let m = Metrics::new(2);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.steps, 0);
        assert_eq!(m.sends_per_process, vec![0, 0]);
    }
}
