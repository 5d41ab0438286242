//! The compaction evidence path of Algorithm 5's delta wire format.
//!
//! A delivered prefix folds only on two evidences from **every** peer: its
//! graph digest covers every folded identifier, and it claimed the prefix
//! as delivered with a hash that matches the folder's own lineage. Both
//! ride on every `Delta` — no message exists only to carry them, except the
//! *beacon*, a node-less `Delta` sent at promote cadence over a link that
//! was quiet for a whole period. These tests pin what that buys and what it
//! must not cost:
//!
//! * under steady traffic the evidence costs no message at all: no pulls,
//!   no beacons while updates flow, about two messages per operation;
//! * a replica that never submits still lets the group fold (its beacons
//!   fire), and a crashed peer blocks every fold (unanimity);
//! * neither evidence folds without the other, and a delivered claim is
//!   hash-checked against the receiver's own lineage before it counts: one
//!   ahead of the receiver counts once the receiver caught up, one with a
//!   wrong hash never does, one below the fold point is ignored;
//! * over lossy, duplicating links a process pulls a peer at most once per
//!   promote period, and the group still converges.
//!
//! Every assertion is on a deterministic count of a seeded run — CI runs
//! this file twice in release mode and diffs the output, so a change that
//! brings routine pulls or per-period beacons back fails on a count, not on
//! a wall clock.

use ec_core::etob_omega::{EtobConfig, EtobMsg, EtobOmega};
use ec_core::types::{seq_hash_step, AppMessage, MsgId, SEQ_HASH_SEED};
use ec_core::version::VersionVector;
use ec_core::workload::BroadcastWorkload;
use ec_detectors::omega::OmegaOracle;
use ec_sim::{
    Actions, Algorithm, Context, FailurePattern, LinkFaults, LinkScope, NetworkModel, ProcessId,
    Time, World, WorldBuilder,
};

const N: usize = 3;

type EtobWorld = World<EtobOmega, OmegaOracle>;

fn run(
    workload: &BroadcastWorkload,
    failures: FailurePattern,
    network: NetworkModel,
    config: EtobConfig,
    horizon: u64,
) -> EtobWorld {
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut world = WorldBuilder::new(N)
        .network(network)
        .failures(failures)
        .seed(42)
        .build_with(|p| EtobOmega::new(p, config), omega);
    workload.submit_to(&mut world);
    world.run_until(horizon);
    world
}

/// Asserts that every live process delivered `ops` entries in one order.
fn assert_converged(world: &EtobWorld, ops: usize) {
    let live: Vec<ProcessId> = world.failures().correct().iter().collect();
    for p in &live {
        let alg = world.algorithm(*p);
        assert_eq!(alg.delivered_total(), ops as u64, "{p} is incomplete");
        assert_eq!(
            alg.delivered_hash(),
            world.algorithm(live[0]).delivered_hash(),
            "{p} diverged"
        );
        assert_eq!(alg.compact_conflicts(), 0);
        assert_eq!(alg.malformed(), 0);
    }
}

#[test]
fn steady_traffic_carries_the_evidence_without_pulls_or_beacons() {
    let ops = 3_000;
    // one submission per tick from tick 1, round-robin: at every cadence
    // fire every process has flushed a batch to everyone within the period
    // or is about to
    let workload = BroadcastWorkload::uniform(N, ops, 1, 1);
    let config = EtobConfig::batched(5).with_compaction(64);
    let busy_until = workload.last_submission_time();
    for network in [
        NetworkModel::fixed_delay(2),
        NetworkModel::uniform_delay(1, 6),
    ] {
        let label = format!("{:?}", network.base());
        let mut world = run(
            &workload,
            FailurePattern::no_failures(N),
            network,
            config,
            busy_until,
        );
        for p in world.process_ids() {
            assert_eq!(
                world.algorithm(p).beacons_sent(),
                0,
                "{label}: {p} beaconed a busy link"
            );
        }
        let busy_messages = world.metrics().messages_sent;

        // let the tail drain and fold
        world.run_until(busy_until + 100);
        assert_converged(&world, ops);
        for p in world.process_ids() {
            let alg = world.algorithm(p);
            assert_eq!(alg.sync_pulls(), 0, "{label}: {p} pulled without a loss");
            assert_eq!(alg.promote_pulls(), 0);
            assert!(
                alg.folded() >= (ops - 128) as u64,
                "{label}: {p} folded only {} of {ops}",
                alg.folded()
            );
        }
        let messages = world.metrics().messages_sent;
        println!("{label}: {busy_messages} messages while busy, {messages} in all, {ops} ops");
        assert!(
            messages as f64 <= 2.2 * ops as f64,
            "{label}: {messages} messages for {ops} ops"
        );
    }
}

#[test]
fn a_silent_replica_beacons_and_a_crashed_one_blocks_every_fold() {
    // p2 never submits: the only deltas it ever sends are beacons
    let ops = 400;
    let mut workload = BroadcastWorkload::new();
    for k in 0..ops {
        let origin = ProcessId::new(k % 2);
        workload.push(origin, 10 + k as u64, format!("m{k}").into_bytes(), vec![]);
    }
    let config = EtobConfig::batched(5).with_compaction(16);
    let horizon = workload.last_submission_time() + 100;

    let world = run(
        &workload,
        FailurePattern::no_failures(N),
        NetworkModel::fixed_delay(2),
        config,
        horizon,
    );
    assert_converged(&world, ops);
    let silent = world.algorithm(ProcessId::new(2));
    assert_eq!(silent.updates_sent(), 0);
    // one beacon per peer per promote period, give or take the edges
    let periods = horizon / config.promote_period;
    let beacons = silent.beacons_sent();
    assert!(
        (2 * (periods - 2)..=2 * periods).contains(&beacons),
        "{beacons} beacons in {periods} periods"
    );
    for p in world.process_ids() {
        let alg = world.algorithm(p);
        assert!(
            alg.folded() >= (ops - 32) as u64,
            "{p} folded {}",
            alg.folded()
        );
        assert_eq!(alg.sync_pulls(), 0, "{p} pulled without a loss");
    }
    println!(
        "silent replica: {beacons} beacons, folded {}",
        silent.folded()
    );

    // the same workload with p2 crashed from the start: the survivors
    // deliver everything and fold nothing — no evidence from p2, no fold
    let crashed = FailurePattern::with_crashes(N, &[(ProcessId::new(2), Time::ZERO)]);
    let world = run(
        &workload,
        crashed,
        NetworkModel::fixed_delay(2),
        config,
        horizon,
    );
    assert_converged(&world, ops);
    for p in world.failures().correct().iter() {
        let alg = world.algorithm(p);
        assert_eq!(alg.compactions(), 0, "{p} folded without p2's evidence");
        assert_eq!(alg.delivered().len(), ops);
    }
}

#[test]
fn lossy_links_pull_a_peer_at_most_once_per_period_and_still_converge() {
    let ops = 600;
    let workload = BroadcastWorkload::uniform(N, ops, 10, 2);
    let fault_until = workload.last_submission_time() + 50;
    let network = NetworkModel::uniform_delay(1, 4).with_faults(
        Time::ZERO,
        Time::new(fault_until),
        LinkScope::All,
        LinkFaults::new(0.25, 0.2, 2),
    );
    let config = EtobConfig::batched(5).with_compaction(16).with_resend(20);
    let horizon = fault_until + 1_000;
    let world = run(
        &workload,
        FailurePattern::no_failures(N),
        network,
        config,
        horizon,
    );
    assert_converged(&world, ops);
    let metrics = world.metrics();
    assert!(metrics.faults_dropped > 0 && metrics.faults_duplicated > 0);
    // after a pull, the next one to the same peer waits a promote period —
    // whatever arrives meanwhile, duplicated and reordered deltas included
    let bound = (N as u64 - 1) * horizon.div_ceil(config.promote_period);
    let mut total = 0;
    for p in world.process_ids() {
        let pulls = world.algorithm(p).sync_pulls();
        assert!(pulls <= bound, "{p} pulled {pulls} times (bound {bound})");
        total += pulls;
    }
    assert!(total > 0, "the faults never opened a gap");
    println!(
        "lossy links: {total} pulls, {} dropped, {} duplicated, {} messages",
        metrics.faults_dropped, metrics.faults_duplicated, metrics.messages_sent
    );
}

/// Six messages of p1, the rolling hashes of their prefixes, and the digest
/// of all of them.
fn lineage() -> (Vec<AppMessage>, Vec<u64>, VersionVector) {
    let history: Vec<AppMessage> = (1..=6u64)
        .map(|seq| AppMessage::new(MsgId::new(ProcessId::new(1), seq), b"x".to_vec()))
        .collect();
    let mut hashes = vec![SEQ_HASH_SEED];
    let mut frontier = VersionVector::new();
    for m in &history {
        hashes.push(seq_hash_step(hashes[hashes.len() - 1], m.id));
        frontier.insert(m.id);
    }
    (history, hashes, frontier)
}

/// p0 of a two-process group that trusts p1, driven by hand.
struct Follower {
    alg: EtobOmega,
    now: u64,
}

impl Follower {
    fn new(chunk: u64) -> Self {
        Follower {
            alg: EtobOmega::new(
                ProcessId::new(0),
                EtobConfig::default().with_compaction(chunk),
            ),
            now: 0,
        }
    }

    fn step(&mut self, handler: impl FnOnce(&mut EtobOmega, &mut Context<'_, EtobOmega>)) {
        self.now += 10;
        let mut actions = Actions::<EtobOmega>::new();
        let mut ctx = Context::new(
            ProcessId::new(0),
            Time::new(self.now),
            2,
            ProcessId::new(1),
            &mut actions,
        );
        handler(&mut self.alg, &mut ctx);
    }

    /// Adopts `sequence` from the leader.
    fn promote(&mut self, sequence: &[AppMessage]) {
        let msg = EtobMsg::Promote(sequence.to_vec());
        self.step(|alg, ctx| alg.on_message(ProcessId::new(1), msg, ctx));
    }

    /// Receives p1's beacon: its full digest and the given delivered claim.
    fn beacon(&mut self, frontier: &VersionVector, delivered: u64, hash: u64) {
        let msg = EtobMsg::Delta {
            nodes: Vec::new(),
            frontier: frontier.clone(),
            delivered,
            hash,
        };
        self.step(|alg, ctx| alg.on_message(ProcessId::new(1), msg, ctx));
    }

    /// Fires the promote-cadence timer and returns the fold point after it.
    fn fold(&mut self) -> u64 {
        self.step(|alg, ctx| alg.on_timer(ctx));
        self.alg.folded()
    }
}

#[test]
fn a_delivered_claim_counts_only_once_it_matches_the_receivers_lineage() {
    let (history, hashes, frontier) = lineage();

    // neither evidence folds alone: not digest coverage without a claim …
    let mut p0 = Follower::new(2);
    p0.promote(&history[..4]);
    p0.beacon(&frontier, 0, SEQ_HASH_SEED);
    assert_eq!(p0.fold(), 0, "digest coverage alone must not fold");
    p0.beacon(&frontier, 4, hashes[4]);
    assert_eq!(p0.fold(), 4);
    assert_eq!(p0.alg.delivered_hash(), hashes[4]);

    // … nor a matching claim without digest coverage of every folded id
    // (p0 itself delivered these through the promote, never holding a node)
    let mut partial = VersionVector::new();
    partial.insert(history[0].id);
    partial.insert(history[1].id);
    let mut p0 = Follower::new(2);
    p0.promote(&history[..4]);
    p0.beacon(&VersionVector::new(), 4, hashes[4]);
    assert_eq!(p0.fold(), 0, "a delivered claim alone must not fold");
    p0.beacon(&partial, 4, hashes[4]);
    assert_eq!(p0.fold(), 0, "the digest must cover all of the fold");
    p0.beacon(&frontier, 4, hashes[4]);
    assert_eq!(p0.fold(), 4);
    assert_eq!(p0.alg.compactions(), 1);
    assert!(p0.alg.delivered().is_empty(), "the whole sequence folded");
    assert_eq!(p0.alg.delivered_total(), 4);
    for m in &history[..4] {
        assert!(p0.alg.causal_graph().is_compacted(m.id));
        assert!(p0.alg.causal_graph().digest().contains(m.id));
    }

    // a claim below the fold point is ignored (its hash is no longer
    // checkable), and evidence never regresses
    p0.beacon(&frontier, 2, hashes[2] ^ 1);
    p0.beacon(&frontier, 2, hashes[2]);
    p0.promote(&history);
    assert_eq!(p0.fold(), 4, "p1 acked 4, not 6");
    p0.beacon(&frontier, 6, hashes[6]);
    assert_eq!(p0.fold(), 6);
    assert_eq!(p0.alg.compactions(), 2);
    assert_eq!(p0.alg.compact_conflicts(), 0);

    // a claim ahead of the receiver counts once the receiver caught up …
    let mut p0 = Follower::new(2);
    p0.promote(&history[..2]);
    p0.beacon(&frontier, 6, hashes[6]);
    assert_eq!(
        p0.fold(),
        0,
        "a claim beyond our prefix is not evidence yet"
    );
    p0.promote(&history[..5]);
    assert_eq!(p0.fold(), 0, "still beyond our prefix");
    p0.promote(&history);
    assert_eq!(p0.fold(), 6, "checked and counted on arrival at 6");
    assert_eq!(p0.alg.delivered_hash(), hashes[6]);

    // … the lowest pending claim is the one kept — a higher one does not
    // displace it, a lower one does — and a wrong hash never counts
    let mut p0 = Follower::new(2);
    p0.promote(&history[..2]);
    p0.beacon(&frontier, 4, hashes[4]);
    p0.beacon(&frontier, 6, hashes[6] ^ 1);
    p0.promote(&history);
    assert_eq!(p0.fold(), 4, "the claim reached first is the one checked");
    let mut p0 = Follower::new(2);
    p0.beacon(&frontier, 6, hashes[6]);
    p0.beacon(&frontier, 4, hashes[4] ^ 1);
    p0.promote(&history);
    assert_eq!(p0.fold(), 0, "a divergent claim is not evidence");
    assert_eq!(p0.fold(), 0, "and is not kept either");
    p0.beacon(&frontier, 2, hashes[3]);
    assert_eq!(p0.fold(), 0, "nor is one that mismatches on arrival");
    p0.beacon(&frontier, 6, hashes[6]);
    assert_eq!(p0.fold(), 6);
}
