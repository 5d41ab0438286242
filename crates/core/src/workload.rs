//! Broadcast workload generators shared by tests, examples and benches.
//!
//! A workload is a schedule of `broadcastETOB(m, C(m))` invocations together
//! with the [`BroadcastRecord`]s the specification checkers need. Keeping the
//! two in one place guarantees that what the checker believes was broadcast
//! is exactly what the run was fed.

use ec_sim::{Algorithm, FailureDetector, ProcessId, Time, World};

use crate::spec::BroadcastRecord;
use crate::types::{EtobBroadcast, MsgId};

/// A scheduled broadcast workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastWorkload {
    entries: Vec<(ProcessId, u64, EtobBroadcast)>,
}

impl BroadcastWorkload {
    /// An empty workload to extend manually.
    pub fn new() -> Self {
        BroadcastWorkload {
            entries: Vec::new(),
        }
    }

    /// `count` broadcasts with round-robin origins `p_0, p_1, …`, submitted at
    /// times `start, start + spacing, start + 2·spacing, …`, with payloads
    /// `b"m<k>"` and no causal dependencies.
    pub fn uniform(n: usize, count: usize, start: u64, spacing: u64) -> Self {
        let mut w = Self::new();
        for k in 0..count {
            let origin = ProcessId::new(k % n);
            let at = start + spacing * k as u64;
            w.push(origin, at, format!("m{k}").into_bytes(), vec![]);
        }
        w
    }

    /// `chains` causal chains of `chain_len` messages each. Message `j` of
    /// chain `i` originates at process `(i + j) % n` and causally depends on
    /// message `j - 1` of the same chain, so causality crosses processes.
    pub fn causal_chains(
        n: usize,
        chains: usize,
        chain_len: usize,
        start: u64,
        spacing: u64,
    ) -> Self {
        let mut w = Self::new();
        let mut at = start;
        for i in 0..chains {
            let mut prev: Option<MsgId> = None;
            for j in 0..chain_len {
                let origin = ProcessId::new((i + j) % n);
                let deps = prev.into_iter().collect();
                let id = w.push(origin, at, format!("c{i}-{j}").into_bytes(), deps);
                prev = Some(id);
                at += spacing;
            }
        }
        w
    }

    /// Appends one broadcast and returns the identifier assigned to it.
    pub fn push(
        &mut self,
        origin: ProcessId,
        at: u64,
        payload: Vec<u8>,
        deps: Vec<MsgId>,
    ) -> MsgId {
        let seq = self.entries.iter().filter(|(p, _, _)| *p == origin).count() as u64 + 1;
        let broadcast = EtobBroadcast::with_deps(origin, seq, payload, deps);
        let id = broadcast.message.id;
        self.entries.push((origin, at, broadcast));
        id
    }

    /// Number of scheduled broadcasts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The identifiers of all scheduled broadcasts, in schedule order.
    pub fn ids(&self) -> Vec<MsgId> {
        self.entries.iter().map(|(_, _, b)| b.message.id).collect()
    }

    /// The scheduled `(origin, time, broadcast)` entries.
    pub fn entries(&self) -> &[(ProcessId, u64, EtobBroadcast)] {
        &self.entries
    }

    /// The [`BroadcastRecord`]s the specification checkers need.
    pub fn records(&self) -> Vec<BroadcastRecord> {
        self.entries
            .iter()
            .map(|(origin, at, b)| BroadcastRecord {
                id: b.message.id,
                by: *origin,
                at: Time::new(*at),
                deps: b.message.deps.to_vec(),
            })
            .collect()
    }

    /// Schedules every broadcast of the workload into the world.
    pub fn submit_to<A, D>(&self, world: &mut World<A, D>)
    where
        A: Algorithm<Input = EtobBroadcast>,
        D: FailureDetector<Output = A::Fd>,
    {
        for (origin, at, broadcast) in &self.entries {
            world.schedule_input(*origin, broadcast.clone(), *at);
        }
    }

    /// The time of the last scheduled broadcast (0 for an empty workload).
    pub fn last_submission_time(&self) -> u64 {
        self.entries.iter().map(|(_, at, _)| *at).max().unwrap_or(0)
    }
}

impl Default for BroadcastWorkload {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_workload_round_robins_origins_and_spaces_times() {
        let w = BroadcastWorkload::uniform(3, 7, 10, 5);
        assert_eq!(w.len(), 7);
        assert!(!w.is_empty());
        let origins: Vec<usize> = w.entries().iter().map(|(p, _, _)| p.index()).collect();
        assert_eq!(origins, vec![0, 1, 2, 0, 1, 2, 0]);
        let times: Vec<u64> = w.entries().iter().map(|(_, t, _)| *t).collect();
        assert_eq!(times, vec![10, 15, 20, 25, 30, 35, 40]);
        assert_eq!(w.last_submission_time(), 40);
        // ids are unique
        let mut ids = w.ids();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 7);
    }

    #[test]
    fn causal_chains_declare_cross_process_dependencies() {
        let w = BroadcastWorkload::causal_chains(3, 2, 3, 0, 1);
        assert_eq!(w.len(), 6);
        let records = w.records();
        // first message of each chain has no deps, later ones depend on the
        // previous message of the same chain
        let chain0: Vec<_> = records.iter().take(3).collect();
        assert!(chain0[0].deps.is_empty());
        assert_eq!(chain0[1].deps, vec![chain0[0].id]);
        assert_eq!(chain0[2].deps, vec![chain0[1].id]);
        // origins rotate across processes within a chain
        assert_ne!(chain0[0].by, chain0[1].by);
    }

    #[test]
    fn per_origin_sequence_numbers_are_dense() {
        let mut w = BroadcastWorkload::new();
        let a = w.push(ProcessId::new(0), 0, vec![], vec![]);
        let b = w.push(ProcessId::new(0), 1, vec![], vec![]);
        let c = w.push(ProcessId::new(1), 2, vec![], vec![]);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_eq!(c.seq, 1);
        assert_eq!(w.records().len(), 3);
    }
}
