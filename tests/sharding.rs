//! Integration tests of the sharded eventually consistent KV service:
//! horizontal scale over independent ETOB groups.
//!
//! The load-bearing claim: shards are *independent* Algorithm-5 groups, so a
//! partition inside one shard delays convergence of that shard only — every
//! other shard's throughput and convergence are bit-identical to a run with
//! no partition at all.

use eventual_consistency::core::etob_omega::EtobConfig;
use eventual_consistency::core::workload::{KvWorkload, ZipfMix};
use eventual_consistency::replication::shard::{shard_of, ShardConfig, ShardedKv};
use eventual_consistency::sim::{NetworkModel, PartitionSpec, ProcessSet, Time};

const SHARDS: usize = 4;
const REPLICAS: usize = 3;

fn workload() -> KvWorkload {
    KvWorkload::zipf(ZipfMix {
        keys: 32,
        ops: 80,
        skew: 1.0,
        clients: REPLICAS,
        start: 20,
        spacing: 1,
        seed: 5,
        del_every: 0,
    })
}

fn cluster(partitioned_shard: Option<usize>) -> ShardedKv {
    let config = ShardConfig {
        shards: SHARDS,
        replicas_per_shard: REPLICAS,
        etob: EtobConfig::batched(6),
        ..Default::default()
    };
    let mut builder = ShardedKv::builder(config);
    if let Some(shard) = partitioned_shard {
        // isolate replica 2 of that shard for most of the run (replica 0 is
        // the stable leader, so the connected majority keeps serving)
        let isolated: ProcessSet = [2].into_iter().collect();
        builder = builder.shard_network(
            shard,
            NetworkModel::fixed_delay(2).with_partition(
                Time::new(10),
                Time::new(5_000),
                PartitionSpec::isolate(isolated, REPLICAS),
            ),
        );
    }
    let mut cluster = builder.build();
    // route clients through replicas 0/1 so submissions land on the
    // connected side of the partitioned shard as well
    for op in workload().ops() {
        let mut op = op.clone();
        op.client %= REPLICAS - 1;
        cluster.submit(&op);
    }
    cluster
}

#[test]
fn partitioning_one_shard_leaves_the_other_shards_throughput_unaffected() {
    let probe = 2_500; // inside the partition window
    let mut control = cluster(None);
    let mut partitioned = cluster(Some(1));
    control.run_until(probe);
    partitioned.run_until(probe);

    // Unaffected shards behave *identically* to the control run: same
    // applied counts on every replica, same message counts, converged.
    let control_report = control.report();
    let partitioned_report = partitioned.report();
    for s in (0..SHARDS).filter(|s| *s != 1) {
        assert_eq!(
            partitioned_report.shards[s], control_report.shards[s],
            "shard {s} must be untouched by shard 1's partition"
        );
        assert!(partitioned_report.shards[s].is_converged());
    }

    // The affected shard serves its connected majority (eventual consistency
    // keeps it available!) but its isolated replica lags…
    let applied = partitioned.applied(1);
    let routed = partitioned.ops_routed(1) as usize;
    assert!(routed > 0, "workload must hit shard 1");
    assert!(applied[0] == routed && applied[1] == routed);
    assert!(
        applied[2] < routed,
        "isolated replica should lag: {applied:?}"
    );
    assert!(!partitioned_report.shards[1].is_converged());

    // …and after the heal the cluster converges everywhere.
    partitioned.run_until(8_000);
    let healed = partitioned.report();
    assert!(healed.all_converged());
    assert!(partitioned.applied(1).iter().all(|&a| a == routed));
}

/// `submit_batch` is `submit` per operation: the same seeded zipf mix
/// through either intake produces identical routing, byte-identical
/// per-shard delivered sequences and replica snapshots, and an identical
/// merged-telemetry/report JSON export.
#[test]
fn submit_batch_is_identical_to_per_op_submit() {
    let run = |batched: bool| {
        let mut cluster = ShardedKv::builder(ShardConfig {
            shards: SHARDS,
            replicas_per_shard: REPLICAS,
            etob: EtobConfig::batched(6),
            ..Default::default()
        })
        .build();
        let workload = workload();
        let routed: Vec<usize> = if batched {
            cluster.submit_batch(workload.ops())
        } else {
            workload.ops().iter().map(|op| cluster.submit(op)).collect()
        };
        cluster.run_until(workload.last_submission_time() + 2_000);
        let delivered: Vec<Vec<_>> = (0..SHARDS)
            .map(|s| {
                cluster
                    .cluster(s)
                    .delivered(eventual_consistency::sim::ProcessId::new(0))
                    .expect("simulated shards expose their stable sequence")
            })
            .collect();
        let report = cluster.finish();
        (routed, delivered, report)
    };
    let (op_routed, op_delivered, op_report) = run(false);
    let (batch_routed, batch_delivered, batch_report) = run(true);
    assert!(op_report.all_converged());
    assert_eq!(op_routed, batch_routed);
    for s in 0..SHARDS {
        assert_eq!(
            op_delivered[s], batch_delivered[s],
            "shard {s} delivered sequence must not depend on the intake"
        );
        assert_eq!(
            op_report.shards[s].snapshots, batch_report.shards[s].snapshots,
            "shard {s} replica snapshots must be byte-identical across intakes"
        );
    }
    // the whole aggregated export — counters, convergence data and the
    // merged telemetry histograms — is identical, byte for byte
    assert_eq!(op_report.to_json(), batch_report.to_json());
}

#[test]
fn router_agrees_with_the_public_hash_partitioner() {
    let cluster = ShardedKv::new(ShardConfig {
        shards: SHARDS,
        replicas_per_shard: REPLICAS,
        ..Default::default()
    });
    for k in 0..50 {
        let key = format!("k{k}");
        assert_eq!(cluster.shard_of_key(&key), shard_of(&key, SHARDS));
    }
}

#[test]
fn sharded_reads_reflect_the_zipf_client_mix() {
    let mut cluster = ShardedKv::new(ShardConfig {
        shards: SHARDS,
        replicas_per_shard: REPLICAS,
        etob: EtobConfig::batched(25),
        ..Default::default()
    });
    let workload = workload();
    cluster.submit_workload(&workload);
    cluster.run_until(workload.last_submission_time() + 2_000);
    // Last write in *delivery* order wins (batching may reorder concurrent
    // writers across clients — that is eventual consistency's contract):
    // reads must agree with the stable sequence of the owning shard.
    let mut expected = std::collections::BTreeMap::new();
    for shard in 0..SHARDS {
        let delivered = cluster
            .cluster(shard)
            .delivered(eventual_consistency::sim::ProcessId::new(0))
            .expect("simulated shards expose their stable sequence");
        for m in &delivered {
            let text = String::from_utf8(m.payload.to_vec()).unwrap();
            let mut parts = text.splitn(3, ' ');
            let (Some("put"), Some(key), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                panic!("unexpected command {text:?}");
            };
            expected.insert(key.to_string(), value.to_string());
        }
    }
    let distinct_keys: std::collections::BTreeSet<&str> =
        workload.ops().iter().map(|op| op.key.as_str()).collect();
    assert_eq!(
        expected.len(),
        distinct_keys.len(),
        "every written key was delivered"
    );
    for (key, value) in expected {
        assert_eq!(cluster.get(&key).as_deref(), Some(value.as_str()));
    }
    let report = cluster.report();
    assert!(report.all_converged());
    assert_eq!(report.total_ops_routed(), 80);
    assert_eq!(report.total_applied(), 80 * REPLICAS);
    // batching: far fewer update broadcasts than operations
    assert!(
        report.total_updates_sent() < 80,
        "updates = {}",
        report.total_updates_sent()
    );
}
