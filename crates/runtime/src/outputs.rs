//! The driver-side record of what the processes of a real-time run output.

use ec_sim::ProcessId;

/// Every `(process, elapsed_ms, output)` of a run in arrival order, plus a
/// per-process slot holding the newest one — so the "where is replica `p`
/// now" polls of the service facade are O(1) under the lock the recorders
/// push through, whatever the length of the run and however long ago `p`
/// (perhaps crashed since) last produced anything.
#[derive(Debug)]
pub struct OutputLog<O> {
    all: Vec<(ProcessId, u64, O)>,
    latest: Vec<Option<O>>,
}

impl<O: Clone> OutputLog<O> {
    /// An empty log for `n` processes.
    pub fn new(n: usize) -> Self {
        OutputLog {
            all: Vec::new(),
            latest: vec![None; n],
        }
    }

    /// Records that `p` produced `output` at `elapsed_ms`.
    pub fn push(&mut self, p: ProcessId, elapsed_ms: u64, output: O) {
        if let Some(slot) = self.latest.get_mut(p.index()) {
            *slot = Some(output.clone());
        }
        self.all.push((p, elapsed_ms, output));
    }

    /// The newest output of `p`, if it produced any.
    pub fn latest_of(&self, p: ProcessId) -> Option<&O> {
        self.latest.get(p.index()).and_then(Option::as_ref)
    }

    /// Every recorded output, in arrival order.
    pub fn all(&self) -> &[(ProcessId, u64, O)] {
        &self.all
    }

    /// Moves the recorded outputs out (the latest slots stay readable).
    pub fn take_all(&mut self) -> Vec<(ProcessId, u64, O)> {
        std::mem::take(&mut self.all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latest_slot_tracks_the_newest_output_per_process() {
        let (p0, p1) = (ProcessId::new(0), ProcessId::new(1));
        let mut log = OutputLog::new(2);
        assert_eq!(log.latest_of(p0), None);
        log.push(p0, 1, "a");
        log.push(p1, 2, "b");
        log.push(p0, 3, "c");
        assert_eq!(log.latest_of(p0), Some(&"c"));
        assert_eq!(log.latest_of(p1), Some(&"b"));
        // out of range: recorded, but there is no slot to read it from
        log.push(ProcessId::new(7), 4, "d");
        assert_eq!(log.latest_of(ProcessId::new(7)), None);
        assert_eq!(log.all().len(), 4);
        assert_eq!(log.take_all().len(), 4);
        assert!(log.all().is_empty());
        assert_eq!(log.latest_of(p0), Some(&"c"));
    }
}
