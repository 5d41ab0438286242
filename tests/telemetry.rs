//! Cross-engine telemetry: every engine surfaces submit→deliver latency
//! percentiles through the same `ClusterReport` and the same live reads of
//! a running cluster, the simulator's telemetry
//! is byte-deterministic (two identical runs export identical JSON), and a
//! live socket node answers a metrics scrape over its own wire protocol.
//!
//! The latency clocks differ by design — logical ticks on `SimEngine`
//! (reproducible), monotonic wall-clock milliseconds on `ThreadEngine` and
//! `NetEngine` (real) — but the report shape, the merge semantics and the
//! JSON export are identical, so one dashboard reads all three.

use ec_replication::{
    Cluster, ClusterBuilder, ClusterReport, Consistency, Engine, KvStore, NetEngine, SimEngine,
    ThreadEngine,
};
use ec_sim::ProcessId;

const REPLICAS: usize = 3;
const OPS: usize = 8;

/// One session overwrites one key `OPS` times; every engine must apply the
/// full chain before the cluster is handed back for inspection.
fn drive<E: Engine>(engine: &E, consistency: Consistency) -> Cluster<KvStore> {
    let mut cluster: Cluster<KvStore> = ClusterBuilder::new(REPLICAS)
        .consistency(consistency)
        .deploy(engine);
    let mut session = cluster.session();
    for i in 0..OPS {
        let at = 10 + 25 * i as u64;
        cluster.submit(&mut session, KvStore::put("k", &format!("v{i}")), at);
    }
    assert!(
        cluster.run_until_applied(OPS, 30_000),
        "replicas did not apply all {OPS} commands on the {} engine",
        cluster.engine(),
    );
    cluster
}

#[test]
fn identical_sim_runs_export_byte_identical_json() {
    for consistency in [Consistency::Eventual, Consistency::Strong] {
        let first = drive(&SimEngine::new(), consistency).finish();
        let second = drive(&SimEngine::new(), consistency).finish();
        let a = first.to_json();
        let b = second.to_json();
        assert_eq!(a, b, "{consistency}: sim telemetry must be deterministic");
        assert!(
            !first.telemetry().is_empty(),
            "{consistency}: the instrumented run must have recorded something"
        );
        assert!(a.contains("\"submit_deliver\""), "{a}");
        assert!(a.contains("\"events_recorded\""), "{a}");
    }
}

#[test]
fn sim_clusters_report_live_latency_and_flight_events() {
    let cluster = drive(&SimEngine::new(), Consistency::Eventual);
    // live (pre-shutdown) telemetry: the merged per-replica report
    let live = cluster.telemetry();
    assert!(
        live.submit_deliver.count() > 0,
        "no latency samples: {live}"
    );
    let p50 = live.submit_deliver.quantile(500);
    let p99 = live.submit_deliver.quantile(990);
    assert!(p50 > 0, "logical-tick latency cannot be zero: {live}");
    assert!(p99 >= p50);
    // the flight recorder holds each replica's recent lifecycle events
    let flight = cluster.flight_events();
    assert_eq!(flight.len(), REPLICAS);
    for (replica, ring) in flight.iter().enumerate() {
        assert!(!ring.is_empty(), "replica {replica} recorded no events");
    }
}

/// The running cluster's latency summary and flight traces, then its final
/// report: every engine answers all three.
fn live_then_finished<E: Engine>(engine: &E) -> ClusterReport {
    let cluster = drive(engine, Consistency::Eventual);
    let name = cluster.engine();
    let live = cluster.telemetry();
    assert!(live.submit_deliver.count() > 0, "{name}: {live}");
    let flight = cluster.flight_events();
    assert_eq!(flight.len(), REPLICAS);
    for (replica, ring) in flight.iter().enumerate() {
        assert!(!ring.is_empty(), "{name}: replica {replica} has no events");
    }
    cluster.finish()
}

#[test]
fn all_three_engines_report_submit_deliver_percentiles() {
    let reports = [
        ("sim", live_then_finished(&SimEngine::new())),
        ("thread", live_then_finished(&ThreadEngine::default())),
        ("net", live_then_finished(&NetEngine::default())),
    ];
    for (name, report) in &reports {
        let telemetry = report.telemetry();
        assert!(
            telemetry.submit_deliver.count() > 0,
            "{name}: no submit→deliver samples in the final report"
        );
        let p50 = telemetry.submit_deliver.quantile(500);
        let p99 = telemetry.submit_deliver.quantile(990);
        assert!(p99 >= p50, "{name}: quantiles must be monotone");
        assert!(
            report.to_json().contains("\"submit_deliver\""),
            "{name}: the JSON export must carry the latency histograms"
        );
        println!("{name}: {telemetry}");
    }
}

#[test]
fn net_nodes_answer_live_metrics_scrapes() {
    let cluster = drive(&NetEngine::default(), Consistency::Eventual);
    // a scrape opens its own connection and reads the node's exposition
    let text = cluster
        .scrape(ProcessId::new(0))
        .expect("a live node must answer a scrape");
    assert!(text.contains("ec_events_recorded{replica=\"0\"}"), "{text}");
    assert!(
        text.contains("ec_submit_deliver{replica=\"0\",quantile=\"0.5\"}"),
        "{text}"
    );
    assert!(text.contains("quantile=\"0.99\""), "{text}");
    // scraping is read-only: the run still finishes and reports normally
    let report = cluster.finish();
    assert!(report.telemetry().submit_deliver.count() > 0);
    // the other engines have no socket to scrape
    let sim = drive(&SimEngine::new(), Consistency::Eventual);
    assert_eq!(sim.scrape(ProcessId::new(0)), None);
}
