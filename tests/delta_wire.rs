//! Experiment E12, acceptance form: the delta-state wire format against the
//! paper-literal full-graph reference.
//!
//! Two claims, on both execution engines:
//!
//! * **Equivalence** — for the same workload, the full-graph and delta wire
//!   formats converge every replica to byte-identical state-machine
//!   snapshots (and, on the simulator, *identical* stable delivered
//!   sequences — every engine answers `delivered(p)`, but only the
//!   simulator delivers in a deterministic order, so the sequence
//!   comparison stays there).
//! * **The win** — at history length 500 on a 5-process group, delta sync
//!   sends at least 5× fewer encoded wire bytes than full-graph (the actual
//!   deterministic ratio is pinned in `BENCH_delta.json`; the bound here is
//!   the acceptance floor, robust to workload tweaks).

use ec_core::etob_omega::EtobConfig;
use ec_core::types::MsgId;
use ec_replication::{Cluster, ClusterBuilder, Engine, KvStore, Session, SimEngine, ThreadEngine};
use ec_sim::ProcessId;

const REPLICAS: usize = 5;

/// Drives `ops` session-chained puts through the facade in the chosen wire
/// format; returns the cluster for inspection after everything applied.
fn drive<E: Engine>(engine: &E, delta: bool, ops: usize, spacing: u64) -> Cluster<KvStore> {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(REPLICAS)
        .etob(EtobConfig::default().with_delta_sync(delta))
        .deploy(engine);
    let mut sessions: Vec<Session> = (0..REPLICAS).map(|_| cluster.session()).collect();
    for k in 0..ops {
        let at = 10 + spacing * k as u64;
        let session = &mut sessions[k % REPLICAS];
        // A key is written through one session only, so the session's causal
        // chain orders every write to it: the final state is the same under
        // every delivery order the engines may legally pick (on the thread
        // engine the order of *concurrent* writes is up to the scheduler).
        let key = format!("s{}-k{}", k % REPLICAS, (k / REPLICAS) % 2);
        cluster.submit(session, KvStore::put(&key, &format!("v{k}")), at);
    }
    let horizon = 10 + spacing * ops as u64 + 30_000;
    assert!(
        cluster.run_until_applied(ops, horizon),
        "replicas did not apply all {ops} commands (delta = {delta}) on the {} engine",
        cluster.engine(),
    );
    cluster
}

#[test]
fn delta_sync_cuts_wire_bytes_5x_at_history_500_with_identical_outcomes() {
    let ops = 500;
    let full = drive(&SimEngine::new(), false, ops, 2);
    let delta = drive(&SimEngine::new(), true, ops, 2);

    // byte-identical snapshots, within each mode and across modes
    let full_snapshots: Vec<Vec<u8>> = full.replica_ids().map(|p| full.snapshot(p)).collect();
    let delta_snapshots: Vec<Vec<u8>> = delta.replica_ids().map(|p| delta.snapshot(p)).collect();
    assert!(full_snapshots.windows(2).all(|w| w[0] == w[1]));
    assert_eq!(full_snapshots, delta_snapshots);

    // identical stable sequences, at every replica
    let ids = |c: &Cluster<KvStore>, p: usize| -> Vec<MsgId> {
        c.delivered(ProcessId::new(p))
            .unwrap_or_default()
            .iter()
            .map(|m| m.id)
            .collect()
    };
    for p in 0..REPLICAS {
        assert_eq!(ids(&full, p), ids(&delta, p), "sequences differ at p{p}");
        assert_eq!(ids(&delta, p).len(), ops);
    }

    // the acceptance floor: ≥ 5× fewer wire bytes at history 500
    let full_bytes = full.metrics().bytes_sent;
    let delta_bytes = delta.metrics().bytes_sent;
    assert!(
        full_bytes >= 5 * delta_bytes,
        "delta sync must cut wire bytes ≥ 5x at history {ops}: full {full_bytes} B vs \
         delta {delta_bytes} B ({:.1}x)",
        full_bytes as f64 / delta_bytes as f64
    );
}

#[test]
fn wire_formats_converge_to_identical_snapshots_on_the_thread_engine() {
    // Real OS threads, heartbeat Ω, wall-clock pacing: the wire format must
    // still be invisible in the final state. Session chains fix the per-key
    // outcome, so full and delta runs — and both engines — must agree byte
    // for byte.
    let ops = 40;
    let sim_reference: Vec<Vec<u8>> = {
        let c = drive(&SimEngine::new(), true, ops, 2);
        c.replica_ids().map(|p| c.snapshot(p)).collect()
    };
    for delta in [false, true] {
        let cluster = drive(&ThreadEngine::default(), delta, ops, 2);
        let report = cluster.finish();
        assert!(
            report.shards[0].snapshots_agree(),
            "thread replicas diverged (delta = {delta}): {report}"
        );
        assert!(
            report.totals.bytes_sent > 0,
            "the thread runtime must account wire bytes"
        );
        assert_eq!(
            report.shards[0].snapshots[0], sim_reference[0],
            "thread engine (delta = {delta}) disagrees with the simulator"
        );
    }
}
