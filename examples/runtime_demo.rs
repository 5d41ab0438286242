//! The service facade over real OS threads: the same `Cluster`/`Session`
//! API that drives the simulator deploys a replicated key–value store as
//! one thread per replica with a heartbeat-based Ω. The demo writes through
//! a session, crashes the leader midway, and shows that the surviving
//! replicas re-elect a leader, keep serving, and converge to identical
//! state — eventual consistency surviving a real crash on real threads.
//! Then it restarts the crashed replica: a fresh, empty incarnation that
//! the broadcast layer's anti-entropy re-fills from its peers.
//!
//! Run with: `cargo run --example runtime_demo`

use ec_core::etob_omega::EtobConfig;
use ec_replication::{Cluster, ClusterBuilder, KvStore, ThreadEngine};
use ec_sim::ProcessId;

fn main() {
    let n = 4;
    // periodic resend is the anti-entropy a restarted replica is re-filled by
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(n)
        .etob(EtobConfig::default().with_resend(20))
        .deploy(&ThreadEngine::default());
    println!("spawned {n} replicas (threads); writing 4 keys through one session…");

    // the session enters through p1, which survives the crash below
    let mut session = cluster.session_at(ProcessId::new(1));
    for k in 0..4u64 {
        cluster.submit(
            &mut session,
            KvStore::put(&format!("key{k}"), &format!("value{k}")),
            10 + 10 * k,
        );
    }
    cluster.run_until(300);

    println!("crashing the current leader p0…");
    cluster.crash(ProcessId::new(0));
    cluster.run_until(700);

    cluster.submit(&mut session, KvStore::put("after-crash", "served"), 710);
    let survivors_converged = cluster.run_until_applied(5, 5_000);
    println!("survivors applied all 5 commands after re-election: {survivors_converged}");

    println!("restarting p0 as a fresh incarnation…");
    assert!(cluster.restart(ProcessId::new(0)));
    let refilled = cluster.run_until_applied(5, 10_000);
    println!("the restarted replica caught up by anti-entropy: {refilled}");

    println!("\nfinal state of all replicas:");
    for p in cluster.replica_ids() {
        let state = cluster.state(p).expect("snapshot decodes");
        println!(
            "  {p}: applied = {}, after-crash = {:?}",
            cluster.applied(p),
            state.get("after-crash")
        );
    }

    let report = cluster.finish();
    println!("\n{report}");
    assert!(
        report.shards[0].applied.iter().all(|&a| a == 5),
        "every replica, the restarted one included, must apply every command"
    );
}
