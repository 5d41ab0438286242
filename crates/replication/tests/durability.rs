//! Durable recovery on the socket engine: a `NetEngine` node is killed and
//! restarted behind the same address with `ClusterBuilder::durable(dir)`,
//! and must converge **byte-identically** to a never-crashed control
//! cluster running the same workload — recovering its pre-crash state from
//! the record log + snapshot store and using anti-entropy only for the
//! suffix it missed while down.
//!
//! The compaction variant is the sharp end: with stable-prefix compaction
//! enabled, the surviving peers may have folded the prefix out of resident
//! state, so a blank-slate restart could never be healed by anti-entropy —
//! only disk recovery can seat the restarted node back into the group.
//!
//! The `checkpoint_cost` pair runs on the simulator (deterministic) and
//! watches the directories themselves: an uncompacted replica's checkpoints
//! sync its log in place and never rewrite it, a compacting one anchors its
//! folds with snapshots and rewrites, and both recover from disk.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, NetEngine, StateMachine};
use ec_sim::ProcessId;

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ec-durability-{}-{tag}-{n}", std::process::id()))
}

/// Phase 1 of the shared workload: six puts spread over two sessions.
fn phase_one(cluster: &mut Cluster<KvStore>) {
    let mut a = cluster.session();
    let mut b = cluster.session();
    for k in 0..3u64 {
        cluster.submit(&mut a, KvStore::put(&format!("a{k}"), &format!("v{k}")), 5);
        cluster.submit(&mut b, KvStore::put(&format!("b{k}"), &format!("w{k}")), 5);
    }
}

/// Phase 2: four more puts, entering through replica 0 (which is alive in
/// both runs — in the crash run, replica 2 is down at this point).
fn phase_two(cluster: &mut Cluster<KvStore>) {
    let mut s = cluster.session_at(ProcessId::new(0));
    for k in 0..4u64 {
        cluster.submit(&mut s, KvStore::put(&format!("late{k}"), "z"), 5);
    }
}

const TOTAL_OPS: usize = 10;
const MAX_T: u64 = 30_000;

/// Runs the workload with a crash + durable restart of replica 2 between
/// the phases, and returns the byte-identical converged snapshot.
fn crash_run(etob: EtobConfig, dir: PathBuf) -> Vec<u8> {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3)
        .etob(etob)
        .durable(&dir)
        .deploy(&NetEngine::default());
    phase_one(&mut cluster);
    assert!(
        cluster.run_until_applied(6, MAX_T),
        "phase one did not converge"
    );

    let victim = ProcessId::new(2);
    assert!(cluster.crash(victim), "net engine supports crashes");
    // the victim's durable directory must hold a non-trivial record log
    let log = dir.join("2").join("replica.eclog");
    let log_len = std::fs::metadata(&log).expect("victim log exists").len();
    assert!(log_len > 8, "victim logged its delivered state: {log_len}");

    phase_two(&mut cluster);
    assert!(
        cluster.run_until_applied(TOTAL_OPS, MAX_T),
        "survivors did not converge while the victim was down"
    );

    assert!(cluster.restart(victim), "victim restarts");
    assert!(
        cluster.run_until_applied(TOTAL_OPS, MAX_T),
        "restarted replica did not catch up"
    );

    let report = cluster.finish();
    assert_eq!(report.shards[0].applied, vec![TOTAL_OPS; 3]);
    assert!(
        report.shards[0].snapshots_agree(),
        "snapshots diverged after durable recovery"
    );
    let _ = std::fs::remove_dir_all(&dir);
    report.shards[0].snapshots[0].clone()
}

/// The never-crashed control: same workload, no durability, no faults.
fn control_run(etob: EtobConfig) -> Vec<u8> {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3)
        .etob(etob)
        .deploy(&NetEngine::default());
    phase_one(&mut cluster);
    assert!(cluster.run_until_applied(6, MAX_T), "control phase one");
    phase_two(&mut cluster);
    assert!(
        cluster.run_until_applied(TOTAL_OPS, MAX_T),
        "control phase two"
    );
    let report = cluster.finish();
    assert!(report.shards[0].snapshots_agree());
    report.shards[0].snapshots[0].clone()
}

/// The expected state is also computable directly — both runs must land on
/// exactly these bytes, so "byte-identical" is anchored to ground truth,
/// not merely to each other.
fn expected_snapshot() -> Vec<u8> {
    let mut state = KvStore::default();
    for k in 0..3u64 {
        state.apply(&KvStore::put(&format!("a{k}"), &format!("v{k}")));
        state.apply(&KvStore::put(&format!("b{k}"), &format!("w{k}")));
    }
    for k in 0..4u64 {
        state.apply(&KvStore::put(&format!("late{k}"), "z"));
    }
    state.snapshot()
}

#[test]
fn net_restart_with_durable_dir_matches_never_crashed_control() {
    let etob = EtobConfig::default();
    let crashed = crash_run(etob, unique_dir("plain"));
    let control = control_run(etob);
    assert_eq!(
        crashed, control,
        "durable restart must be byte-identical to the control"
    );
    assert_eq!(crashed, expected_snapshot());
}

#[test]
fn net_restart_recovers_under_stable_prefix_compaction() {
    // Aggressive folding: every 2 delivered entries are eligible, so by the
    // time the victim restarts the survivors have folded most of the
    // history out of resident state — the restarted node *must* come back
    // from disk to rejoin.
    let etob = EtobConfig::default().with_compaction(2);
    let crashed = crash_run(etob, unique_dir("compacted"));
    let control = control_run(etob);
    assert_eq!(
        crashed, control,
        "durable restart under compaction must match the control"
    );
    assert_eq!(crashed, expected_snapshot());
}

#[test]
fn durable_dirs_are_created_per_replica_and_survive_finish() {
    let dir = unique_dir("layout");
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(2)
        .durable(&dir)
        .deploy(&NetEngine::default());
    let mut s = cluster.session();
    cluster.submit(&mut s, KvStore::put("k", "v"), 5);
    assert!(cluster.run_until_applied(1, MAX_T));
    let report = cluster.finish();
    assert!(report.shards[0].snapshots_agree());
    for replica in 0..2 {
        let log = dir.join(replica.to_string()).join("replica.eclog");
        assert!(log.is_file(), "replica {replica} has a record log");
        assert!(
            dir.join(replica.to_string()).join("snapshots").is_dir(),
            "replica {replica} has a snapshot directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
mod checkpoint_cost {
    use std::collections::BTreeSet;
    use std::ops::Range;
    use std::os::unix::fs::MetadataExt;
    use std::path::Path;

    use ec_core::etob_omega::EtobConfig;
    use ec_replication::{Cluster, ClusterBuilder, KvStore, SimEngine, StateMachine};
    use ec_sim::{FailurePattern, ProcessId, RecoveryPolicy, Time};
    use ec_storage::log::{scan_records, LOG_MAGIC};
    use ec_storage::SnapshotStore;

    use super::unique_dir;

    const PUTS: u64 = 1_000;
    /// Every put is applied everywhere long before replica 2 crashes; it
    /// rejoins blank (`ClearState`) at `BACK`, so whatever it applies at
    /// that instant it read from disk.
    const CRASH: u64 = 1_600;
    const BACK: u64 = 1_700;
    const END: u64 = 2_000;
    const SAMPLE: u64 = 25;

    fn victim() -> ProcessId {
        ProcessId::new(2)
    }

    /// One look at a replica's directory.
    struct Disk {
        inode: u64,
        records: usize,
        /// Snapshots published so far (ids count up from 1).
        published: u64,
    }

    fn look(dir: &Path, p: usize) -> Disk {
        let dir = dir.join(p.to_string());
        let log = dir.join("replica.eclog");
        let bytes = std::fs::read(&log).expect("read log");
        let snapshots = SnapshotStore::open(dir.join("snapshots"), 3).expect("snapshots");
        Disk {
            inode: std::fs::metadata(&log).expect("log metadata").ino(),
            records: scan_records(&bytes[LOG_MAGIC.len()..]).records.len(),
            published: snapshots.ids().expect("ids").last().copied().unwrap_or(0),
        }
    }

    struct Sample {
        at: u64,
        disks: Vec<Disk>,
        resident: Vec<usize>,
    }

    /// `PUTS` puts to distinct keys over three sessions, sampled every
    /// `SAMPLE` ticks; returns the samples after checking that the victim
    /// recovered everything from disk and the group converged on the
    /// ground truth.
    fn run(etob: EtobConfig, dir: &Path) -> Vec<Sample> {
        let failures = FailurePattern::no_failures(3).with_crash_recovery(
            victim(),
            Time::new(CRASH),
            Time::new(BACK),
        );
        let engine = SimEngine::new()
            .failures(failures)
            .recovery(RecoveryPolicy::ClearState);
        let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3)
            .etob(etob)
            .durable(dir)
            .deploy(&engine);
        let mut sessions = [cluster.session(), cluster.session(), cluster.session()];
        let mut expected = KvStore::default();
        for k in 0..PUTS {
            let put = KvStore::put(&format!("k{k}"), &format!("v{k}"));
            expected.apply(&put);
            cluster.submit(&mut sessions[(k % 3) as usize], put, 10 + k);
        }
        let mut samples = Vec::new();
        for at in (SAMPLE..=END).step_by(SAMPLE as usize) {
            cluster.run_until(at);
            samples.push(Sample {
                at,
                disks: (0..3).map(|p| look(dir, p)).collect(),
                resident: cluster
                    .replica_ids()
                    .map(|p| cluster.delivered(p).map_or(0, |d| d.len()))
                    .collect(),
            });
        }
        assert_eq!(
            cluster.applied_at(victim(), BACK),
            PUTS as usize,
            "the victim rejoined with every put, read from disk"
        );
        let report = cluster.finish();
        assert_eq!(report.shards[0].applied, vec![PUTS as usize; 3]);
        for snapshot in &report.shards[0].snapshots {
            assert_eq!(snapshot, &expected.snapshot(), "recovered byte-identically");
        }
        samples
    }

    /// The distinct log inodes replica `p` had at the samples taken in
    /// `during`.
    fn inodes(samples: &[Sample], p: usize, during: Range<u64>) -> BTreeSet<u64> {
        samples
            .iter()
            .filter(|s| during.contains(&s.at))
            .map(|s| s.disks[p].inode)
            .collect()
    }

    /// Prints what each replica's directory holds at the end (deterministic:
    /// CI runs this suite twice and diffs the output).
    fn print_final(tag: &str, samples: &[Sample]) {
        if let Some(last) = samples.last() {
            for (p, disk) in last.disks.iter().enumerate() {
                let peak = samples.iter().map(|s| s.disks[p].records).max();
                println!(
                    "{tag} replica {p}: {} log records (peak {}), {} snapshots published",
                    disk.records,
                    peak.unwrap_or(0),
                    disk.published
                );
            }
        }
    }

    #[test]
    fn an_uncompacted_run_never_rewrites_its_log() {
        let dir = unique_dir("sim-uncompacted");
        let samples = run(EtobConfig::default(), &dir);
        print_final("uncompacted", &samples);
        let v = victim().index();
        for p in 0..3 {
            // within an incarnation: one log file, only ever appended to (a
            // rewrite would drop the superseded own-seq marks)
            let incarnations = if p == v {
                vec![(0, CRASH), (BACK, u64::MAX)]
            } else {
                vec![(0, u64::MAX)]
            };
            for (from, until) in incarnations {
                let life = from..until;
                assert_eq!(inodes(&samples, p, life.clone()).len(), 1, "replica {p}");
                let records: Vec<usize> = samples
                    .iter()
                    .filter(|s| life.contains(&s.at))
                    .map(|s| s.disks[p].records)
                    .collect();
                assert!(records.windows(2).all(|w| w[0] <= w[1]), "replica {p}");
            }
            for s in &samples {
                assert_eq!(s.disks[p].published, 0, "replica {p} at {}", s.at);
            }
            // the log mirrors the whole history: `Base` + every put
            let last = samples.last().map_or(0, |s| s.disks[p].records);
            assert!(last > PUTS as usize, "replica {p}: {last} records");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_compacting_run_anchors_its_folds_and_keeps_its_log_small() {
        const CHUNK: u64 = 64;
        let dir = unique_dir("sim-compacted");
        let samples = run(EtobConfig::default().with_compaction(CHUNK), &dir);
        print_final("compacted", &samples);
        for p in 0..3 {
            assert!(inodes(&samples, p, 0..u64::MAX).len() > 1, "replica {p}");
            let published = samples.last().map_or(0, |s| s.disks[p].published);
            assert!(published >= PUTS / CHUNK - 1, "replica {p}: {published}");
            for s in &samples {
                // twice what a rewrite would write (`Base`, the resident
                // tail, the own-seq mark), plus a fold not yet checkpointed
                let bound = 2 * (s.resident[p] + CHUNK as usize + 2);
                assert!(
                    s.disks[p].records <= bound,
                    "replica {p} at {}: {} records, resident {}",
                    s.at,
                    s.disks[p].records,
                    s.resident[p]
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
