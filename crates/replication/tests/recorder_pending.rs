//! No telemetry record outlives its message.
//!
//! A replica's recorder holds one pending record per message it has seen
//! and not yet settled, so once a run is quiescent every replica must hold
//! none — on a batched cluster too, where a follower delivers the Ω leader's
//! own messages from its promote before the update that carries them
//! arrives, and admits and promotes them after delivering them. Those late
//! events start no clock, so the histograms keep exactly the samples of the
//! clocks that settle: every message for the leader, and on each follower
//! every message but the leader's batched ones. The counts printed here are
//! seed-deterministic (run twice and diffed in CI).

use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::types::{Instrumented, MsgId};
use ec_detectors::omega::OmegaOracle;
use ec_replication::{KvStore, Replica, ReplicaCommand};
use ec_sim::{FailurePattern, NetworkModel, ProcessId, WorldBuilder};
use ec_telemetry::{Recorder, TimeSource};

const REPLICAS: usize = 3;
const OPS: usize = 3_000;

/// What one replica's recorder holds after the run.
#[derive(Debug, PartialEq)]
struct Tally {
    pending: usize,
    stability_lag: u64,
    submit_deliver: u64,
}

/// Runs `OPS` session-chained puts, one per tick round-robin over the
/// replicas, well past quiescence, and tallies every replica's recorder.
fn run(config: EtobConfig) -> Vec<Tally> {
    let failures = FailurePattern::no_failures(REPLICAS);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(REPLICAS)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(7)
        .build_with(
            |p| {
                let mut layer = EtobOmega::new(p, config);
                layer.attach_recorder(Recorder::new(p.index() as u32, TimeSource::Logical, 64));
                Replica::<KvStore, EtobOmega>::new(layer)
            },
            omega,
        );
    let mut next_seq = [0u64; REPLICAS];
    for k in 0..OPS {
        let entry = ProcessId::new(k % REPLICAS);
        let seq = &mut next_seq[entry.index()];
        let deps = match *seq {
            0 => Vec::new(),
            last => vec![MsgId::new(entry, last)],
        };
        *seq += 1;
        let put = KvStore::put(&format!("k{}", k % 64), &format!("v{k:07}"));
        let command = ReplicaCommand::with_deps(put, deps).with_id(MsgId::new(entry, *seq));
        world.schedule_input(entry, command, 10 + k as u64);
    }
    world.run_until(10 + OPS as u64 + 2_000);
    world
        .process_ids()
        .map(|p| {
            let replica = world.algorithm(p);
            assert_eq!(replica.applied(), OPS, "{p} did not apply everything");
            let recorder = replica.broadcast_layer().recorder().expect("attached");
            let report = recorder.report();
            Tally {
                pending: recorder.pending(),
                stability_lag: report.stability_lag.count(),
                submit_deliver: report.submit_deliver.count(),
            }
        })
        .collect()
}

fn check(label: &str, config: EtobConfig, followers_lag: u64) {
    let tallies = run(config);
    for (p, tally) in tallies.iter().enumerate() {
        println!("{label}: p{p} {tally:?}");
    }
    for (p, tally) in tallies.iter().enumerate() {
        assert_eq!(tally.pending, 0, "{label}: p{p} kept records");
        // each replica submitted a third of the operations and measures them
        assert_eq!(
            tally.submit_deliver,
            (OPS / REPLICAS) as u64,
            "{label}: p{p}"
        );
        let lag = if p == 0 { OPS as u64 } else { followers_lag };
        assert_eq!(tally.stability_lag, lag, "{label}: p{p}");
    }
}

#[test]
fn batched_followers_settle_or_drop_every_record() {
    check("batched(5)", EtobConfig::batched(5), 2_501);
}

#[test]
fn compacted_followers_settle_or_drop_every_record() {
    check(
        "batched(5).with_compaction(64)",
        EtobConfig::batched(5).with_compaction(64),
        2_501,
    );
}
