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
    fn default_is_zeroed() {
        let m = Metrics::new(2);
        assert_eq!(m.messages_sent, 0);
        assert_eq!(m.steps, 0);
        assert_eq!(m.sends_per_process, vec![0, 0]);
    }
}
