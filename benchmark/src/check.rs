//! The correctness gate every workload runs in the same command as its
//! measurement. A failed check counts in `failed`, clears `correct` and
//! makes the process exit non-zero — a fast wrong answer is not a result.

use std::collections::BTreeMap;

use ec_core::types::AppMessage;
use ec_replication::{KvStore, ReplicaCommand, StateMachine};

/// The failures a check found (empty = passed).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// One line per violated expectation.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Whether nothing failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records a failure unless `holds`.
    pub fn expect(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    /// Folds another verdict in.
    pub fn merge(&mut self, other: Verdict) {
        self.failures.extend(other.failures);
    }
}

/// `(key, value)` of a `put key value` command.
fn parse_put(command: &[u8]) -> Option<(&str, &str)> {
    let text = std::str::from_utf8(command).ok()?;
    let mut parts = text.splitn(3, ' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some("put"), Some(key), Some(value)) => Some((key, value)),
        _ => None,
    }
}

/// Every counted replica applied exactly `submitted` commands and all their
/// snapshots are byte-identical. `counted` indexes `applied`/`snapshots`.
pub fn agreement(
    applied: &[usize],
    snapshots: &[Vec<u8>],
    counted: &[usize],
    submitted: usize,
) -> Verdict {
    let mut verdict = Verdict::default();
    for &p in counted {
        let got = applied.get(p).copied().unwrap_or(0);
        verdict.expect(got == submitted, || {
            format!("replica {p} applied {got} of {submitted} commands")
        });
    }
    let mut states = counted.iter().filter_map(|&p| snapshots.get(p));
    if let Some(first) = states.next() {
        verdict.expect(states.all(|s| s == first), || {
            "replica snapshots are not byte-identical".to_string()
        });
    }
    verdict
}

/// What a put-only stream allows the final store to be, without knowing the
/// delivery order. Every entry replica's commands go through one `Session`,
/// which chains each on its predecessor (the paper's `C(m)`), so per-entry
/// submission order is a guarantee of the broadcast layer; hence each key
/// must hold the *last* value some entry replica wrote to it, and exactly
/// the keys ever written exist. `by_entry[e]` lists entry `e`'s commands in
/// submission order.
pub fn last_writer_wins(snapshot: &[u8], by_entry: &[Vec<&ReplicaCommand>]) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(store) = KvStore::from_snapshot(snapshot) else {
        verdict
            .failures
            .push("final snapshot does not decode".into());
        return verdict;
    };
    let mut allowed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for commands in by_entry {
        let mut last: BTreeMap<&str, &str> = BTreeMap::new();
        for command in commands {
            if let Some((key, value)) = parse_put(&command.command) {
                last.insert(key, value);
            }
        }
        for (key, value) in last {
            allowed.entry(key).or_default().push(value);
        }
    }
    verdict.expect(store.len() == allowed.len(), || {
        format!(
            "store holds {} keys, {} were written",
            store.len(),
            allowed.len()
        )
    });
    for (key, values) in &allowed {
        let got = store.get(key);
        verdict.expect(got.is_some_and(|v| values.contains(&v)), || {
            format!("key {key} holds {got:?}, not the last write of any entry replica")
        });
    }
    verdict
}

/// The delivered sequences (or resident tails) of all replicas are
/// identical and keep every origin's submission order.
pub fn delivered_order(delivered: &[Vec<AppMessage>]) -> Verdict {
    let mut verdict = Verdict::default();
    let Some(first) = delivered.first() else {
        return verdict;
    };
    for (p, other) in delivered.iter().enumerate().skip(1) {
        let same = other.len() == first.len() && other.iter().zip(first).all(|(a, b)| a.id == b.id);
        verdict.expect(same, || {
            format!("replica {p} delivered a different sequence than replica 0")
        });
    }
    let mut last_seq: BTreeMap<usize, u64> = BTreeMap::new();
    for m in first {
        let previous = last_seq.insert(m.id.origin.index(), m.id.seq);
        verdict.expect(previous.is_none_or(|seq| seq < m.id.seq), || {
            format!(
                "origin {} delivered out of submission order at seq {}",
                m.id.origin, m.id.seq
            )
        });
    }
    verdict
}

/// Replaying the complete delivered sequence through a fresh `KvStore`
/// gives exactly `snapshot`.
pub fn replay_matches(delivered: &[AppMessage], snapshot: &[u8]) -> Verdict {
    let mut verdict = Verdict::default();
    let replayed = KvStore::replay(delivered.iter().map(|m| m.payload.as_ref()));
    verdict.expect(replayed.snapshot() == snapshot, || {
        "replaying replica 0's delivered sequence does not reproduce its state".to_string()
    });
    verdict
}

/// Splits submission phases into per-entry-replica streams, in submission
/// order. Each phase is `(entry replicas it round-robins over, commands)`;
/// `replicas` is the group size.
pub fn by_entry<'a>(
    phases: &[(&[usize], &'a [ReplicaCommand])],
    replicas: usize,
) -> Vec<Vec<&'a ReplicaCommand>> {
    let mut streams = vec![Vec::new(); replicas];
    for (entries, ops) in phases {
        for (i, op) in ops.iter().enumerate() {
            streams[entries[i % entries.len()]].push(op);
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_core::types::MsgId;
    use ec_sim::ProcessId;

    fn put(key: &str, value: &str) -> ReplicaCommand {
        ReplicaCommand::new(KvStore::put(key, value))
    }

    fn message(origin: usize, seq: u64, key: &str, value: &str) -> AppMessage {
        AppMessage::new(
            MsgId::new(ProcessId::new(origin), seq),
            KvStore::put(key, value),
        )
    }

    #[test]
    fn agreement_flags_short_and_divergent_replicas() {
        let snaps = vec![b"a=1;".to_vec(), b"a=1;".to_vec(), b"a=2;".to_vec()];
        assert!(agreement(&[5, 5, 5], &snaps, &[0, 1], 5).ok());
        assert!(!agreement(&[5, 4, 5], &snaps, &[0, 1], 5).ok());
        assert!(!agreement(&[5, 5, 5], &snaps, &[0, 1, 2], 5).ok());
        // an uncounted (crashed) replica may lag and differ
        assert!(agreement(&[5, 5, 0], &snaps, &[0, 1], 5).ok());
    }

    #[test]
    fn last_writer_accepts_any_interleaving_and_nothing_else() {
        let ops = [put("a", "1"), put("a", "2"), put("b", "3"), put("a", "4")];
        // entries: e0 = [a=1, b=3], e1 = [a=2, a=4]
        let lists = by_entry(&[(&[0, 1], &ops)], 2);
        assert!(last_writer_wins(b"a=4;b=3;", &lists).ok());
        assert!(last_writer_wins(b"a=1;b=3;", &lists).ok());
        // a=2 was overwritten by its own entry replica: never the final value
        assert!(!last_writer_wins(b"a=2;b=3;", &lists).ok());
        assert!(!last_writer_wins(b"a=4;", &lists).ok());
        assert!(!last_writer_wins(b"a=4;b=3;c=9;", &lists).ok());
        assert!(!last_writer_wins(b"garbage", &lists).ok());
    }

    #[test]
    fn delivered_order_needs_identical_sequences_in_origin_order() {
        let good = vec![
            message(0, 1, "a", "1"),
            message(1, 1, "a", "2"),
            message(0, 2, "b", "3"),
        ];
        assert!(delivered_order(&[good.clone(), good.clone()]).ok());
        let mut swapped = good.clone();
        swapped.swap(0, 1);
        assert!(!delivered_order(&[good.clone(), swapped]).ok());
        let reordered = vec![message(0, 2, "b", "3"), message(0, 1, "a", "1")];
        assert!(!delivered_order(&[reordered]).ok());
        assert!(replay_matches(&good, b"a=2;b=3;").ok());
        assert!(!replay_matches(&good, b"a=1;b=3;").ok());
    }
}
