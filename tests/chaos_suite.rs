//! The seeded randomized chaos suite: the explorer generates adversarial
//! scenarios — partitions, message loss/duplication/reordering,
//! crash–recovery, Ω lies — and every run must satisfy the history checkers
//! appropriate to its consistency level. A deliberately broken state
//! machine must, in turn, be *caught*, shrunk to a minimal scenario, and
//! replay deterministically. The same driver and checkers judge the
//! real-time rows: crashes and restarts on OS threads and on TCP nodes.
//!
//! The suite prints one verdict line per scenario; the CI `chaos` job runs
//! it twice with `--nocapture` and diffs the outputs, so any
//! nondeterminism in the nemesis, the driver or the checkers fails CI.

use eventual_consistency::chaos::shrink::shrink;
use eventual_consistency::chaos::{
    check_outcome, run_scenario, write_flight_artifact, ClientOp, MergingKv, NemesisOp, Scenario,
    ScenarioGen, WorkloadOp,
};
use eventual_consistency::replication::{Consistency, EngineKind, KvStore};
use eventual_consistency::sim::{LinkScope, ProcessId, RecoveryPolicy};

/// One fixed seed = the whole suite. Bump deliberately, never accidentally.
const SUITE_SEED: u64 = 2015;
/// Scenarios per consistency level (≥ 25 total).
const EVENTUAL_SCENARIOS: usize = 14;
const STRONG_SCENARIOS: usize = 13;

fn kind_of(op: &NemesisOp) -> &'static str {
    match op {
        NemesisOp::Partition { .. } => "partition",
        NemesisOp::Crash { .. } => "crash",
        NemesisOp::CrashRecover { .. } => "crash-recover",
        NemesisOp::Lossy { .. } => "lossy",
        NemesisOp::OmegaLie { .. } => "omega-lie",
    }
}

#[test]
fn seeded_explorer_suite_passes_the_checkers_at_both_levels() {
    let mut explorer = ScenarioGen::new(SUITE_SEED);
    let mut kinds: Vec<&'static str> = Vec::new();
    let mut with_duplication = 0usize;

    for i in 0..(EVENTUAL_SCENARIOS + STRONG_SCENARIOS) {
        let consistency = if i % 2 == 0 {
            Consistency::Eventual
        } else {
            Consistency::Strong
        };
        let scenario = explorer.generate(consistency);
        for op in &scenario.nemesis {
            kinds.push(kind_of(op));
            if matches!(op, NemesisOp::Lossy { dup_permille, .. } if *dup_permille > 0) {
                with_duplication += 1;
            }
        }
        let outcome = run_scenario::<KvStore>(&scenario);
        let verdict = check_outcome(&outcome);
        println!(
            "{verdict} | {} write(s), {} read(s) ({} dropped), {} lost, {} duped, \
             {} crash(es), {} recovery(ies)",
            outcome.writes().count(),
            outcome.history.len() - outcome.writes().count(),
            outcome.reads_dropped,
            outcome.report.totals.faults_dropped,
            outcome.report.totals.faults_duplicated,
            outcome.report.totals.crashes,
            outcome.report.totals.recoveries,
        );
        assert!(verdict.ok(), "scenario failed:\n{scenario}\n{verdict}");
    }

    // the suite must actually have exercised every fault class
    for kind in ["partition", "lossy", "crash-recover", "omega-lie"] {
        assert!(
            kinds.contains(&kind),
            "suite seed {SUITE_SEED} never generated a {kind} fault"
        );
    }
    assert!(
        kinds.contains(&"crash") || kinds.contains(&"crash-recover"),
        "suite never crashed anything"
    );
    assert!(with_duplication > 0, "suite never duplicated messages");
}

/// The killer workload for the injected non-commutativity bug: a long value
/// is written and acknowledged, then a *shorter* value is written by the
/// same session, and a read after both must observe the shorter one — which
/// the buggy merge ("largest value wins") can never produce.
fn bug_witness_scenario() -> Scenario {
    let mut s = Scenario::quiet("merging-kv-bug", 3, Consistency::Strong);
    s.recovery = RecoveryPolicy::RetainState;
    // nemesis noise the shrinker should strip away
    s.nemesis.push(NemesisOp::Partition {
        from: 200,
        until: 320,
        minority: [2].into_iter().collect(),
    });
    s.nemesis.push(NemesisOp::Lossy {
        from: 350,
        until: 500,
        scope: LinkScope::All,
        drop_permille: 150,
        dup_permille: 100,
        jitter: 2,
    });
    let put = |at, session, key: &str, value: &str| ClientOp {
        at,
        session,
        op: WorkloadOp::Put {
            key: key.into(),
            value: value.into(),
        },
    };
    let read = |at, session, key: &str| ClientOp {
        at,
        session,
        op: WorkloadOp::Read { key: key.into() },
    };
    s.workload = vec![
        put(10, 0, "victim", "long-initial-value"),
        put(20, 1, "noise", "n1"),
        // t = 600: the first write is long acknowledged
        put(600, 0, "victim", "v2"),
        put(620, 1, "noise", "n2"),
        read(2_800, 1, "victim"),
        read(3_200, 0, "victim"),
    ];
    s
}

#[test]
fn broken_state_machine_is_caught_shrunk_and_replayable() {
    let scenario = bug_witness_scenario();

    // the very same scenario passes on the correct state machine…
    let honest = check_outcome(&run_scenario::<KvStore>(&scenario));
    assert!(honest.ok(), "control run must pass: {honest}");

    // …and fails on the buggy one, at the linearizability check
    let fails = |s: &Scenario| !check_outcome(&run_scenario::<MergingKv>(s)).ok();
    let buggy = check_outcome(&run_scenario::<MergingKv>(&scenario));
    assert!(!buggy.ok(), "the injected bug must be caught");
    assert!(
        buggy
            .violations
            .iter()
            .any(|v| v.check == "linearizability"),
        "expected a linearizability violation, got {buggy}"
    );

    // the shrinker strips the irrelevant noise and yields a minimal,
    // replayable counterexample
    let shrunk = shrink(&scenario, fails);
    println!("shrunk counterexample:\n{shrunk}");
    assert!(fails(&shrunk), "the shrunk scenario must still fail");
    assert!(
        shrunk.nemesis.is_empty(),
        "no fault is needed to expose the bug: {shrunk}"
    );
    assert!(
        shrunk.workload.len() <= 3,
        "expected a minimal witness (two writes + one read), got:\n{shrunk}"
    );

    // replayability: two runs of the artifact produce identical verdicts
    let first = check_outcome(&run_scenario::<MergingKv>(&shrunk));
    let second = check_outcome(&run_scenario::<MergingKv>(&shrunk));
    assert_eq!(first, second, "the counterexample must replay exactly");
    assert!(!first.ok());

    // the failure also emits a flight-recorder artifact next to the
    // counterexample: the causally merged last-N-events trace of every
    // replica, headed by the violations and the replayable scenario
    let failed = run_scenario::<MergingKv>(&shrunk);
    let verdict = check_outcome(&failed);
    let dir = std::env::temp_dir().join(format!("ec-chaos-flight-{}", std::process::id()));
    let path = write_flight_artifact(&dir, &shrunk, &verdict, &failed)
        .expect("artifact write must succeed")
        .expect("a failing run must emit a flight artifact");
    let trace = std::fs::read_to_string(&path).expect("artifact must be readable");
    // the file name only: the directory carries the pid, which would make
    // two runs of the suite print different lines
    let file = path.file_name().unwrap_or_default().to_string_lossy();
    println!("flight artifact {file}:\n{trace}");
    assert!(trace.contains("# chaos counterexample: merging-kv-bug-shrunk"));
    assert!(trace.contains("linearizability"), "{trace}");
    // the timeline shows the witness writes being submitted and delivered
    assert!(trace.contains("submitted"), "{trace}");
    assert!(trace.contains("delivered"), "{trace}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One real-time row of the scenario table: five writes through two
/// sessions (entry replicas 0 and 1) and one fault at replica 2, on the
/// thread or the net engine, judged by every check of `check_outcome` like
/// the explorer's scenarios. A restart is a fresh incarnation behind the
/// same inbox or address; it comes back empty, so the row converges only if
/// the broadcast layer's anti-entropy re-fills it.
///
/// The rows are eventual-only. On the real-time engines Σ is the static
/// full-membership quorum, which one crash makes unreachable for good — a
/// limitation of that Σ, not the price of strong consistency the paper
/// quantifies (ROADMAP item 8). Each row prints only its verdict line, no
/// wall-clock-dependent counter, so two runs of the suite print the same.
fn realtime_row(name: &str, engine: EngineKind, fault: NemesisOp) {
    let mut s = Scenario::quiet(name, 3, Consistency::Eventual);
    s.engine = engine;
    s.recovery = RecoveryPolicy::ClearState;
    s.fault_horizon = 200;
    s.settle = 800; // wall-clock paced: 1 ms per tick
    s.nemesis.push(fault);
    s.workload = (0..5)
        .map(|i| ClientOp {
            at: 10 + 25 * i as u64,
            session: i % 2,
            op: WorkloadOp::Put {
                key: "k".into(),
                value: format!("v{i}"),
            },
        })
        .collect();
    let verdict = check_outcome(&run_scenario::<KvStore>(&s));
    println!("{verdict}");
    assert!(verdict.ok(), "{s}{verdict}");
}

/// Replica 2 crashes mid-workload and rejoins after the last write.
fn crash_restart() -> NemesisOp {
    NemesisOp::CrashRecover {
        process: ProcessId::new(2),
        at: 60,
        back_at: 140,
    }
}

#[test]
fn realtime_row_thread_crash() {
    let crash = NemesisOp::Crash {
        process: ProcessId::new(2),
        at: 100,
    };
    realtime_row("thread-crash", EngineKind::Thread, crash);
}

#[test]
fn realtime_row_thread_crash_restart() {
    realtime_row("thread-crash-restart", EngineKind::Thread, crash_restart());
}

#[test]
fn realtime_row_net_crash_restart() {
    // a real TCP node, restarted behind the same address and re-filled
    // over the wire
    realtime_row("net-crash-restart", EngineKind::Net, crash_restart());
}

#[test]
fn lossy_links_trigger_digest_resync_and_still_converge() {
    // The delta wire format is the default, so a heavily lossy window drops
    // suffix deltas; receivers must then *detect* the gaps from the exact
    // digests carried by later deltas and anti-entropy beacons, pull the
    // missing nodes, and converge. The scenario asserts both that the run
    // passes every checker and that the digest-triggered resync machinery
    // actually fired — a lossy run with zero pulls would mean the window
    // never exercised the repair path.
    let mut s = Scenario::quiet("delta-resync-lossy", 4, Consistency::Eventual);
    s.nemesis.push(NemesisOp::Lossy {
        from: 5,
        until: 550,
        scope: LinkScope::All,
        drop_permille: 500,
        dup_permille: 100,
        jitter: 3,
    });
    s.workload = (0..10)
        .map(|i| ClientOp {
            at: 20 + 45 * i as u64,
            session: i % 2,
            op: WorkloadOp::Put {
                key: format!("k{}", i % 3),
                value: format!("v{i}"),
            },
        })
        .chain([ClientOp {
            at: 3_200,
            session: 0,
            op: WorkloadOp::Read { key: "k0".into() },
        }])
        .collect();
    let outcome = run_scenario::<KvStore>(&s);
    let verdict = check_outcome(&outcome);
    assert!(verdict.ok(), "{s}\n{verdict}");
    assert!(
        outcome.report.totals.faults_dropped > 0,
        "the window must actually drop messages"
    );
    assert!(
        outcome.sync_pulls > 0,
        "heavy loss must exercise digest-triggered resync (0 pulls recorded)"
    );
    // every write reached every replica despite the loss
    let reference = outcome.delivered_ids(ProcessId::new(0));
    assert_eq!(reference.len(), 10);
    for p in 1..4 {
        assert_eq!(outcome.delivered_ids(ProcessId::new(p)), reference);
    }
}

#[test]
fn clear_state_recovery_converges_at_eventual() {
    // a replica rejoins from a blank slate mid-run and must still end up
    // byte-identical to the always-up replicas
    let mut s = Scenario::quiet("clear-state-rejoin", 3, Consistency::Eventual);
    s.recovery = RecoveryPolicy::ClearState;
    s.nemesis.push(NemesisOp::CrashRecover {
        process: ProcessId::new(2),
        at: 80,
        back_at: 450,
    });
    s.workload = (0..6)
        .map(|i| ClientOp {
            at: 20 + 60 * i as u64,
            session: i % 2,
            op: WorkloadOp::Put {
                key: "k".into(),
                value: format!("v{i}"),
            },
        })
        .collect();
    let outcome = run_scenario::<KvStore>(&s);
    let verdict = check_outcome(&outcome);
    assert!(verdict.ok(), "{verdict}");
    assert_eq!(outcome.report.totals.recoveries, 1);
    assert_eq!(outcome.snapshots[2], outcome.snapshots[0]);
}
