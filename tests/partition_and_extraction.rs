//! Ω's side of the paper: experiments E2 and E7 and the ablation A1.
//!
//! E2: during a minority partition containing the leader, the Ω-only
//! replicated KV store keeps serving on the leader's side while the Ω + Σ
//! store serves nothing; both converge after the heal.
//!
//! E7: the CHT extraction emulates Ω end to end from the failure-detector
//! samples of a real run of Algorithm 4 across a leader crash.
//!
//! A1: a heartbeat implementation of Ω re-elects within its detection
//! window after the leader crashes.

use ec_bench::experiments::{
    a1_heartbeat, e2_partition, e7_cht_extraction, A1_SIZES, E2_PROCESSES,
};
use ec_detectors::heartbeat::HeartbeatConfig;
use ec_replication::Consistency;
use ec_sim::ProcessId;

#[test]
fn eventual_store_serves_during_partition_strong_store_blocks() {
    // the same service code at both levels: only the builder's
    // `consistency` knob differs
    let eventual = e2_partition(Consistency::Eventual);
    let strong = e2_partition(Consistency::Strong);

    // E2 headline: the eventually consistent leader-side replica made
    // progress during the partition, the strongly consistent one did not.
    assert!(
        eventual.during[1] >= 1,
        "Ω-only replica must serve during the partition"
    );
    assert_eq!(
        strong.during,
        vec![0; E2_PROCESSES],
        "every Ω+Σ replica must be blocked during the partition"
    );

    // both converge after the heal
    let (eventual, strong) = (&eventual.report, &strong.report);
    assert_eq!(eventual.shards[0].applied, vec![6; E2_PROCESSES]);
    assert_eq!(strong.shards[0].applied, vec![6; E2_PROCESSES]);
    assert!(eventual.all_converged());
    assert!(
        eventual.shards[0].divergences >= 1,
        "the partition must show up as a divergence episode"
    );
    assert!(eventual.shards[0].snapshots_agree());
    assert!(strong.all_converged());
    // both levels end in the same state on this conflict-free workload
    assert_eq!(eventual.shards[0].snapshots, strong.shards[0].snapshots);
}

#[test]
fn cht_extraction_emulates_omega_across_a_leader_crash() {
    let row = e7_cht_extraction(77);
    assert!(row.samples > 20, "the run must produce enough samples");
    assert_eq!(
        row.leader,
        Ok(ProcessId::new(1)),
        "the emulated history satisfies the Omega specification and elects the surviving process"
    );
}

#[test]
fn heartbeat_omega_reelects_within_its_detection_window() {
    let config = HeartbeatConfig::default();
    let window = config.period * (config.suspect_after + 1);
    for row in a1_heartbeat(&A1_SIZES) {
        assert!(row.reelection_delay <= window, "{row:?} (window {window})");
    }
}
