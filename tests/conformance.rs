//! Cross-engine conformance: the paper's "not a simulator artifact" claim as
//! an executable test.
//!
//! One workload script, written once against the `Cluster`/`Session` facade,
//! is driven through the deterministic simulator (`SimEngine`), the
//! thread-per-process runtime (`ThreadEngine`) and the socket deployment
//! (`NetEngine`), at both consistency levels. Each client session threads
//! its commands into a causal chain (`C(m)`), so the per-key outcome is
//! fixed by the workload alone — any correct engine must converge every
//! replica to the *byte-identical* state-machine snapshot, even though
//! message interleavings, Ω implementations (scripted oracle vs heartbeats),
//! clocks (virtual vs wall) and links (queues vs channels vs real TCP
//! frames) all differ.

use ec_replication::{
    Cluster, ClusterBuilder, Consistency, Engine, KvStore, NetEngine, Session, SimEngine,
    StateMachine, ThreadEngine,
};

const REPLICAS: usize = 3;
const SESSIONS: usize = 3;
const ROUNDS: u64 = 4;
const OPS: usize = SESSIONS * ROUNDS as usize;

/// The workload script: each session owns its keys `s<c>-k{0,1}` and
/// overwrites them across rounds, so the final value of every key is
/// determined by the session's causal chain — not by cross-session timing.
fn drive<E: Engine>(engine: &E, consistency: Consistency) -> Vec<Vec<u8>> {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(REPLICAS)
        .consistency(consistency)
        .deploy(engine);
    let mut sessions: Vec<Session> = (0..SESSIONS).map(|_| cluster.session()).collect();
    for round in 0..ROUNDS {
        for (c, session) in sessions.iter_mut().enumerate() {
            let at = 20 + round * 40 + c as u64 * 5;
            let key = format!("s{c}-k{}", round % 2);
            cluster.submit(session, KvStore::put(&key, &format!("r{round}")), at);
        }
    }
    assert!(
        cluster.run_until_applied(OPS, 30_000),
        "replicas did not apply all {OPS} commands on the {} engine ({consistency}); applied: {:?}",
        cluster.engine(),
        cluster
            .replica_ids()
            .map(|p| cluster.applied(p))
            .collect::<Vec<_>>(),
    );
    // every engine keeps one output record, read the same way: its newest
    // entry is where the replica is now, and under a leader that stayed
    // stable the applied count it gives for a past time never falls
    let history = cluster.output_history();
    for p in cluster.replica_ids() {
        let newest = history.last(p).map(|output| output.applied);
        assert_eq!(newest, Some(cluster.applied(p)), "{p}");
        let probes = (0..=cluster.clock()).step_by(10);
        let applied: Vec<usize> = probes.map(|t| cluster.applied_at(p, t)).collect();
        assert!(applied.is_sorted(), "{p} went backwards: {applied:?}");
        // an output fingerprints the state, the replica answers for it: the
        // digest on record is that of the state read back from the bytes the
        // replica gives, and the typed read is those bytes decoded
        let snapshot = cluster.snapshot(p);
        let read_back = KvStore::from_snapshot(&snapshot);
        let newest = history.last(p).map(|output| output.digest);
        assert_eq!(newest, read_back.as_ref().map(KvStore::digest), "{p}");
        assert_eq!(cluster.state(p), read_back, "{p}");
    }
    // a report taken from the running cluster says what the stopped one
    // says, on every engine
    let live = cluster.report();
    let report = cluster.finish();
    let (live, stopped) = (&live.shards[0], &report.shards[0]);
    assert_eq!(live.applied, stopped.applied);
    assert_eq!(live.snapshots, stopped.snapshots);
    assert_eq!(live.updates_sent, stopped.updates_sent);
    assert_eq!(live.converged_at, stopped.converged_at);
    assert_eq!(live.divergences, stopped.divergences);
    assert_eq!(report.consistency, consistency);
    assert!(
        report.shards[0].snapshots_agree(),
        "replicas diverged within one engine: {report}"
    );
    assert_eq!(report.total_ops_routed(), OPS as u64);
    report.shards[0].snapshots.clone()
}

/// The state the workload must reach, computed by direct replay: rounds are
/// causally ordered within a session, so the last round's value wins.
fn expected_snapshot() -> Vec<u8> {
    let mut expected = KvStore::default();
    for round in 0..ROUNDS {
        for c in 0..SESSIONS {
            expected.apply(&KvStore::put(
                &format!("s{c}-k{}", round % 2),
                &format!("r{round}"),
            ));
        }
    }
    expected.snapshot()
}

fn assert_conforms(consistency: Consistency) {
    let sim = drive(&SimEngine::new(), consistency);
    let thread = drive(&ThreadEngine::default(), consistency);
    let net = drive(&NetEngine::default(), consistency);
    let expected = expected_snapshot();
    for (p, snapshot) in sim.iter().enumerate() {
        assert_eq!(
            snapshot, &expected,
            "sim replica {p} ({consistency}) missed the expected state"
        );
    }
    for (p, snapshot) in thread.iter().enumerate() {
        assert_eq!(
            snapshot, &expected,
            "thread replica {p} ({consistency}) missed the expected state"
        );
    }
    for (p, snapshot) in net.iter().enumerate() {
        assert_eq!(
            snapshot, &expected,
            "net replica {p} ({consistency}) missed the expected state"
        );
    }
    assert_eq!(sim, thread, "engines disagree at {consistency} consistency");
    assert_eq!(sim, net, "engines disagree at {consistency} consistency");
}

#[test]
fn eventual_clusters_conform_across_engines() {
    assert_conforms(Consistency::Eventual);
}

#[test]
fn strong_clusters_conform_across_engines() {
    assert_conforms(Consistency::Strong);
}

#[test]
fn consistency_levels_agree_on_session_chained_workloads() {
    // Conflict-free per-session chains make the consistency level invisible
    // in the final state: Ω alone reaches the same snapshots Ω + Σ does —
    // the paper's availability argument with nothing given up at the end.
    let eventual = drive(&SimEngine::new(), Consistency::Eventual);
    let strong = drive(&SimEngine::new(), Consistency::Strong);
    assert_eq!(eventual, strong);
}
