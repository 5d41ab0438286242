//! The output path encodes no state.
//!
//! Every replica output carries a fingerprint of the state. A machine that
//! keeps its digest up to date ([`KvStore`]) must therefore never be asked
//! for a snapshot while a run submits, delivers, applies and outputs — at 64
//! keys or at 4 096, the cost of an output does not depend on the size of
//! the state. Reads after the run (what final-agreement checks compare) do
//! encode it, and are counted to show that the counter counts.

use std::cell::Cell;

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, SimEngine, StateMachine};

thread_local! {
    /// `snapshot` calls and bytes of every [`Counted`] machine on this
    /// thread (the simulator runs a whole cluster on the calling thread).
    static SNAPSHOTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

fn snapshots() -> (usize, usize) {
    SNAPSHOTS.with(Cell::get)
}

/// A key–value store that counts every snapshot it is asked for.
#[derive(Clone, Debug, Default)]
struct Counted(KvStore);

impl StateMachine for Counted {
    fn apply(&mut self, command: &[u8]) {
        self.0.apply(command);
    }

    fn snapshot(&self) -> Vec<u8> {
        let snapshot = self.0.snapshot();
        SNAPSHOTS.with(|s| {
            let (calls, bytes) = s.get();
            s.set((calls + 1, bytes + snapshot.len()));
        });
        snapshot
    }

    fn digest(&self) -> u64 {
        self.0.digest()
    }

    fn from_snapshot(snapshot: &[u8]) -> Option<Self> {
        KvStore::from_snapshot(snapshot).map(Counted)
    }
}

/// Fills `keys` keys, then overwrites them, on a batched and compacted sim
/// cluster; returns the snapshots taken from the first submit until every
/// replica applied everything.
fn snapshots_while_running(keys: usize) -> (usize, usize) {
    let mut cluster: Cluster<Counted> = ClusterBuilder::new(3)
        .etob(EtobConfig::batched(5).with_compaction(64))
        .deploy(&SimEngine::new());
    let mut sessions: Vec<_> = cluster
        .replica_ids()
        .map(|p| cluster.session_at(p))
        .collect();
    let ops = keys + 500;
    let before = snapshots();
    for k in 0..ops {
        let put = KvStore::put(&format!("k{}", k % keys), &format!("v{k:07}"));
        cluster.submit(&mut sessions[k % 3], put, 10 + k as u64);
    }
    assert!(cluster.run_until_applied(ops, 10 + ops as u64 + 100_000));
    let (calls, bytes) = snapshots();
    let during = (calls - before.0, bytes - before.1);

    // the reads that follow are excluded, and do encode the state
    let states: Vec<Vec<u8>> = cluster.replica_ids().map(|p| cluster.snapshot(p)).collect();
    assert!(states.windows(2).all(|w| w[0] == w[1]), "replicas diverged");
    let after = snapshots();
    assert_eq!(after.0 - calls, 3);
    assert_eq!(after.1 - bytes, 3 * states[0].len());
    let read_back = KvStore::from_snapshot(&states[0]).expect("round trip");
    assert_eq!(read_back.len(), keys);
    let history = cluster.output_history();
    let newest = cluster
        .replica_ids()
        .map(|p| history.last(p).map(|o| o.digest));
    assert!(newest.into_iter().all(|d| d == Some(read_back.digest())));
    during
}

#[test]
fn outputs_take_no_snapshot_at_64_keys() {
    assert_eq!(snapshots_while_running(64), (0, 0));
}

#[test]
fn outputs_take_no_snapshot_at_4096_keys() {
    assert_eq!(snapshots_while_running(4_096), (0, 0));
}
