//! Reads of a restarted replica answer for the incarnation that is running,
//! on both real-time engines.
//!
//! A blank incarnation emits nothing until it delivers, so the newest output
//! on record for its node is its predecessor's. `applied` used to be read
//! off that output and `state` / `snapshot` decoded from it: right after a
//! restart a reader saw the dead incarnation's 20 entries, and
//! `run_until_applied` returned before the new one held any of them.

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, Engine, KvStore, NetEngine, ThreadEngine};
use ec_sim::ProcessId;

fn reads_after_a_blank_restart_answer_for_the_new_incarnation<E: Engine>(engine: &E) {
    const OPS: usize = 20;
    let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
    let victim = ids[2];
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(3)
        .etob(EtobConfig::default().with_resend(10))
        .deploy(engine);
    let mut session = cluster.session();
    for k in 0..OPS {
        cluster.submit(&mut session, KvStore::put(&format!("k{k}"), "v"), k as u64);
    }
    assert!(cluster.run_until_applied(OPS, 30_000));

    // a replica that is down answers for the state it went down with
    assert!(cluster.crash(victim));
    assert_eq!(cluster.state(victim).map(|s| s.len()), Some(OPS));
    // restarted among live peers, it is re-filled, and the reads follow the
    // new incarnation once it outputs
    assert!(cluster.restart(victim));
    assert!(cluster.run_until_applied(OPS, 30_000));
    assert_eq!(cluster.applied(victim), OPS);
    assert_eq!(cluster.snapshot(victim), cluster.snapshot(ids[0]));

    // restarted with no peer left to re-fill it, it stays blank: no read
    // may answer with what its predecessors held
    for p in &ids {
        assert!(cluster.crash(*p));
    }
    assert!(cluster.restart(victim));
    assert_eq!(cluster.applied(victim), 0);
    assert_eq!(cluster.state(victim), Some(KvStore::default()));
    assert!(cluster.snapshot(victim).is_empty());
    let before = cluster.clock();
    assert!(
        !cluster.run_until_applied(OPS, before + 200),
        "nothing can have re-filled the only live replica"
    );
    assert_eq!(
        cluster.clock(),
        before + 200,
        "the wait ran its full length"
    );
    // the stopped cluster says the same
    let report = cluster.finish();
    assert_eq!(report.shards[0].applied, vec![OPS, OPS, 0]);
    assert!(report.shards[0].snapshots[2].is_empty());
    assert_eq!(report.shards[0].snapshots[0], report.shards[0].snapshots[1]);
}

#[test]
fn thread_reads_after_a_blank_restart_answer_for_the_new_incarnation() {
    reads_after_a_blank_restart_answer_for_the_new_incarnation(&ThreadEngine::new());
}

#[test]
fn net_reads_after_a_blank_restart_answer_for_the_new_incarnation() {
    reads_after_a_blank_restart_answer_for_the_new_incarnation(&NetEngine::new());
}
