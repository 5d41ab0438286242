//! The benchmark harness: one Criterion group per experiment of
//! `EXPERIMENTS.md` (E1–E13 except the retired E10, plus the ablations A1–A2).
//!
//! Besides the timing samples collected by Criterion, every experiment prints
//! the table rows / series described in EXPERIMENTS.md (hop counts,
//! throughput during partitions, convergence times, extraction stages, …) so
//! that `cargo bench | tee bench_output.txt` regenerates the qualitative
//! results of the paper in one go.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ec_cht::{OmegaEmulation, OmegaExtractor, TreeConfig};
use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::harness::MultiInstanceProposer;
use ec_core::spec::{EcChecker, EicChecker, EtobChecker, ProposalRecord};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::transforms::{EcToEic, EcToEtob};
use ec_core::types::{materialize, AppMessage, DeliveryDelta, EicInput, EicOutput, MsgId};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::heartbeat::{HeartbeatConfig, HeartbeatOmega};
use ec_detectors::omega::{OmegaOracle, PreStabilization};
use ec_detectors::{check_omega_history, sigma::SigmaOracle, PairFd};
use ec_replication::{KvStore, Replica, ReplicaCommand};
use ec_sim::{
    FailurePattern, FdHistory, NetworkModel, OutputHistory, PartitionSpec, ProcessId, ProcessSet,
    RecordingFd, Time, WorldBuilder,
};

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn first_delivery(history: &OutputHistory<DeliveryDelta>, id: MsgId, n: usize, from: u64) -> u64 {
    // d_i(t): the delivery deltas folded back into sequences
    let history = materialize(history);
    let mut first: Option<Time> = None;
    for p in (0..n).map(ProcessId::new) {
        if let Some(t) = history.first_time_where(p, |seq| seq.iter().any(|m| m.id == id)) {
            first = Some(first.map_or(t, |x| x.min(t)));
        }
    }
    first
        .map(|t| t.saturating_since(Time::new(from)))
        .unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// E1: delivery latency in communication steps (2 for ETOB vs 3 for consensus)
// ---------------------------------------------------------------------------

fn etob_latency(n: usize, delay: u64) -> u64 {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let mut workload = BroadcastWorkload::new();
    workload.push(ProcessId::new(n - 1), 100, b"probe".to_vec(), vec![]);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(delay))
        .failures(failures)
        .build_with(|p| EtobOmega::new(p, EtobConfig::eager()), omega);
    workload.submit_to(&mut world);
    world.run_until(1_500);
    first_delivery(world.output_history(), workload.ids()[0], n, 100)
}

fn consensus_latency(n: usize, delay: u64) -> u64 {
    let failures = FailurePattern::no_failures(n);
    let fd = PairFd::new(
        OmegaOracle::stable_from_start(failures.clone()),
        SigmaOracle::majority(failures.clone()),
    );
    let mut workload = BroadcastWorkload::new();
    workload.push(ProcessId::new(n - 1), 100, b"probe".to_vec(), vec![]);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(delay))
        .failures(failures)
        .build_with(|p| ConsensusTob::new(p, ConsensusTobConfig::default()), fd);
    workload.submit_to(&mut world);
    world.run_until(1_500);
    first_delivery(world.output_history(), workload.ids()[0], n, 100)
}

fn e1_delivery_latency(c: &mut Criterion) {
    let delay = 10;
    println!("\n[E1] broadcast→stable-delivery latency (link delay = {delay} ticks)");
    println!(
        "{:<6} {:>22} {:>22}",
        "n", "ETOB (Alg. 5) [hops]", "consensus TOB [hops]"
    );
    for n in [3usize, 5, 7, 9] {
        let e = etob_latency(n, delay);
        let s = consensus_latency(n, delay);
        println!(
            "{:<6} {:>16} ({} t) {:>16} ({} t)",
            n,
            e / delay,
            e,
            s / delay,
            s
        );
    }
    let mut group = configure(c).benchmark_group("e1_delivery_latency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::new("etob_omega", n), &n, |b, &n| {
            b.iter(|| etob_latency(n, delay))
        });
        group.bench_with_input(BenchmarkId::new("consensus_tob", n), &n, |b, &n| {
            b.iter(|| consensus_latency(n, delay))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// E2: partition tolerance (progress during a minority partition)
// ---------------------------------------------------------------------------

fn partition_progress(strong: bool) -> (usize, usize) {
    let n = 5;
    let heal = 900;
    let failures = FailurePattern::no_failures(n);
    let minority: ProcessSet = [0, 1].into_iter().collect();
    let network = NetworkModel::fixed_delay(2).with_partition(
        Time::new(50),
        Time::new(heal),
        PartitionSpec::isolate(minority, n),
    );
    let writes: Vec<(ProcessId, ReplicaCommand, u64)> = (0..6u64)
        .map(|k| {
            (
                ProcessId::new((k % 2) as usize),
                ReplicaCommand::new(KvStore::put(&format!("k{k}"), "v")),
                100 + 25 * k,
            )
        })
        .collect();
    let probe = Time::new(heal - 20);
    if strong {
        let fd = PairFd::new(
            OmegaOracle::stable_from_start(failures.clone()),
            SigmaOracle::majority(failures.clone()),
        );
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(1)
            .build_with(
                |p| Replica::<KvStore, _>::new(ConsensusTob::new(p, ConsensusTobConfig::default())),
                fd,
            );
        for (p, cmd, at) in writes {
            world.schedule_input(p, cmd, at);
        }
        world.run_until(2_500);
        let during = world
            .output_history()
            .value_at(ProcessId::new(1), probe)
            .map(|o| o.applied)
            .unwrap_or(0);
        (during, world.algorithm(ProcessId::new(3)).applied())
    } else {
        let omega = OmegaOracle::stable_from_start(failures.clone());
        let mut world = WorldBuilder::new(n)
            .network(network)
            .failures(failures)
            .seed(1)
            .build_with(
                |p| Replica::<KvStore, _>::new(EtobOmega::new(p, EtobConfig::default())),
                omega,
            );
        for (p, cmd, at) in writes {
            world.schedule_input(p, cmd, at);
        }
        world.run_until(2_500);
        let during = world
            .output_history()
            .value_at(ProcessId::new(1), probe)
            .map(|o| o.applied)
            .unwrap_or(0);
        (during, world.algorithm(ProcessId::new(3)).applied())
    }
}

fn e2_partition_tolerance(c: &mut Criterion) {
    let (eventual_during, eventual_after) = partition_progress(false);
    let (strong_during, strong_after) = partition_progress(true);
    println!("\n[E2] commands applied by a leader-side replica (minority partition, 6 writes)");
    println!(
        "{:<28} {:>18} {:>14}",
        "service", "during partition", "after heal"
    );
    println!(
        "{:<28} {:>18} {:>14}",
        "eventually consistent (Ω)", eventual_during, eventual_after
    );
    println!(
        "{:<28} {:>18} {:>14}",
        "strongly consistent (Ω+Σ)", strong_during, strong_after
    );
    let mut group = configure(c).benchmark_group("e2_partition_tolerance");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("eventual_kv", |b| b.iter(|| partition_progress(false)));
    group.bench_function("strong_kv", |b| b.iter(|| partition_progress(true)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E3: stable leader from the start ⇒ full TOB (checker pass rate)
// ---------------------------------------------------------------------------

fn stable_leader_run(n: usize, seed: u64) -> bool {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, 10, 10, 7);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::uniform_delay(1, 4))
        .failures(failures.clone())
        .seed(seed)
        .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
    workload.submit_to(&mut world);
    world.run_until(3_000);
    EtobChecker::from_delivered(
        world.output_history(),
        workload.records(),
        failures.correct(),
        Time::ZERO,
    )
    .check_all_with_causal()
    .is_ok()
}

fn e3_stable_leader(c: &mut Criterion) {
    println!("\n[E3] Algorithm 5 with Ω stable from t=0: strong-TOB checker verdict (τ = 0)");
    for n in [3usize, 5, 7] {
        let passes = (0..5u64).filter(|seed| stable_leader_run(n, *seed)).count();
        println!("  n = {n}: {passes}/5 adversarial schedules satisfy full TOB");
    }
    let mut group = configure(c).benchmark_group("e3_stable_leader");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("run_and_check_n5", |b| b.iter(|| stable_leader_run(5, 42)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E4: causal order during leader divergence
// ---------------------------------------------------------------------------

fn causal_violations(n: usize, divergence_until: u64) -> (usize, usize) {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(divergence_until))
        .with_pre_stabilization(PreStabilization::RoundRobin { period: 25 });
    let workload = BroadcastWorkload::causal_chains(n, 3, 4, 5, 9);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::uniform_delay(1, 4))
        .failures(failures.clone())
        .seed(5)
        .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
    workload.submit_to(&mut world);
    world.run_until(divergence_until + 3_000);
    let checker = EtobChecker::from_delivered(
        world.output_history(),
        workload.records(),
        failures.correct(),
        Time::new(divergence_until + 50),
    );
    (
        checker.check_causal_order().len(),
        checker.check_ordering().len(),
    )
}

fn e4_causal_divergence(c: &mut Criterion) {
    println!("\n[E4] causal-order violations of Algorithm 5 while leaders diverge (must be 0)");
    for divergence in [100u64, 300, 600] {
        let (causal, ordering) = causal_violations(5, divergence);
        println!(
            "  divergence until t={divergence}: causal violations = {causal}, post-τ ordering violations = {ordering}"
        );
    }
    let mut group = configure(c).benchmark_group("e4_causal_divergence");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("run_and_check", |b| b.iter(|| causal_violations(5, 300)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E5: the equivalence transformations (Theorem 1) and their overhead
// ---------------------------------------------------------------------------

fn transformed_etob_messages(n: usize) -> (u64, u64) {
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, 8, 10, 9);
    let mut transformed = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(4)
        .build_with(
            |_p| {
                EcToEtob::new(
                    EcOmega::<Vec<AppMessage>>::new(EcConfig { poll_period: 3 }),
                    4,
                )
            },
            omega.clone(),
        );
    workload.submit_to(&mut transformed);
    transformed.run_until(2_000);
    let mut direct = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(4)
        .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
    workload.submit_to(&mut direct);
    direct.run_until(2_000);
    (
        transformed.metrics().messages_sent,
        direct.metrics().messages_sent,
    )
}

fn e5_transformations(c: &mut Criterion) {
    println!("\n[E5] Theorem 1 transformations: message cost over a 2 000-tick run, 8 broadcasts");
    println!(
        "{:<6} {:>26} {:>22}",
        "n", "ETOB from EC (Alg. 1+4)", "direct ETOB (Alg. 5)"
    );
    for n in [3usize, 5] {
        let (transformed, direct) = transformed_etob_messages(n);
        println!("{:<6} {:>26} {:>22}", n, transformed, direct);
    }
    let mut group = configure(c).benchmark_group("e5_transformations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("ec_to_etob_n3", |b| b.iter(|| transformed_etob_messages(3)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E6: EC from Ω in any environment (crash sweep)
// ---------------------------------------------------------------------------

fn ec_run(n: usize, crashes: usize, instances: u64) -> (bool, u64) {
    let mut failures = FailurePattern::no_failures(n);
    for i in 0..crashes {
        failures.set_crash(ProcessId::new(n - 1 - i), Time::new(40));
    }
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let correct = failures.correct();
    let mut proposals = Vec::new();
    for p in 0..n {
        for inst in 1..=instances {
            proposals.push(ProposalRecord {
                instance: inst,
                by: ProcessId::new(p),
                value: 10 * p as u64 + inst,
                at: Time::ZERO,
            });
        }
    }
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(5)
        .build_with(
            |p| {
                let values: Vec<u64> = (1..=instances)
                    .map(|inst| 10 * p.index() as u64 + inst)
                    .collect();
                MultiInstanceProposer::new(EcOmega::new(EcConfig::default()), values)
            },
            omega,
        );
    world.run_until(instances * 20 + 1_000);
    let checker = EcChecker::new(world.output_history().clone(), proposals, correct);
    (
        checker.check_all(instances, 1).is_ok(),
        checker.agreement_index(),
    )
}

fn e6_ec_omega(c: &mut Criterion) {
    println!("\n[E6] Algorithm 4 (EC from Ω) under crashes, n = 5, 10 instances");
    println!(
        "{:<18} {:>10} {:>18}",
        "crashed processes", "EC holds", "agreement from k"
    );
    for crashes in [0usize, 1, 2, 3, 4] {
        let (ok, k) = ec_run(5, crashes, 10);
        let majority_note = if crashes >= 3 {
            " (no correct majority)"
        } else {
            ""
        };
        println!("{:<18} {:>10} {:>18}{}", crashes, ok, k, majority_note);
    }
    let mut group = configure(c).benchmark_group("e6_ec_omega");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("ten_instances_majority_faulty", |b| {
        b.iter(|| ec_run(5, 3, 10))
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// E7: the CHT extraction (Lemma 1)
// ---------------------------------------------------------------------------

fn cht_samples(n: usize) -> (FdHistory<ProcessId>, FailurePattern) {
    let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(120));
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(150))
        .with_pre_stabilization(PreStabilization::Fixed(ProcessId::new(0)));
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(13)
        .build_with(
            |p| {
                MultiInstanceProposer::new(
                    EcOmega::<bool>::new(EcConfig::default()),
                    vec![p.index() % 2 == 0; 4],
                )
            },
            RecordingFd::new(omega, n),
        );
    world.run_until(600);
    (world.fd().history().clone(), failures)
}

fn cht_extract(samples: &FdHistory<ProcessId>, failures: &FailurePattern, n: usize) -> ProcessId {
    let extractor = OmegaExtractor::new(
        n,
        Box::new(|_p| EcOmega::<bool>::new(EcConfig { poll_period: 1 })),
    )
    .with_window(6)
    .with_tree_config(TreeConfig {
        max_depth: 6,
        closure_steps: 40,
        max_instance: 1,
        max_vertices: 2_000,
    });
    let emulation = OmegaEmulation::run(&extractor, samples, failures, 6);
    check_omega_history(&emulation.history, failures)
        .map(|(_, leader)| leader)
        .unwrap_or(ProcessId::new(usize::MAX - 1))
}

fn e7_cht_extraction(c: &mut Criterion) {
    let n = 2;
    let (samples, failures) = cht_samples(n);
    let leader = cht_extract(&samples, &failures, n);
    println!(
        "\n[E7] CHT extraction over a leader-crash run: {} samples → emulated Ω elects {leader}",
        samples.len()
    );
    println!("  (the crashed process is p0; the extraction must elect the surviving p1)");
    let mut group = configure(c).benchmark_group("e7_cht_extraction");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("emulate_omega_n2", |b| {
        b.iter(|| cht_extract(&samples, &failures, n))
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// E8: convergence time vs the τ = τ_Ω + Δ_t + Δ_c bound
// ---------------------------------------------------------------------------

fn measured_convergence(tau_omega: u64, delay: u64, period: u64) -> (u64, u64) {
    let n = 4;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(tau_omega));
    let workload = BroadcastWorkload::uniform(n, 10, 5, 13);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(delay))
        .failures(failures.clone())
        .seed(21)
        .build_with(
            |p| {
                EtobOmega::new(
                    p,
                    EtobConfig {
                        promote_period: period,
                        eager_promote: false,
                        ..EtobConfig::default()
                    },
                )
            },
            omega,
        );
    workload.submit_to(&mut world);
    world.run_until(tau_omega + 3_000);
    let checker = EtobChecker::from_delivered(
        world.output_history(),
        workload.records(),
        failures.correct(),
        Time::ZERO,
    );
    let measured = checker
        .find_stabilization_time()
        .map(|t| t.as_u64())
        .unwrap_or(u64::MAX);
    (measured, tau_omega + period + delay + 1)
}

fn e8_convergence_bound(c: &mut Criterion) {
    println!("\n[E8] measured ETOB convergence vs the bound τ_Ω + Δ_t + Δ_c");
    println!(
        "{:<12} {:<8} {:<8} {:>12} {:>10}",
        "τ_Ω", "Δ_c", "Δ_t", "measured τ", "bound"
    );
    for (tau, delay, period) in [(100u64, 3u64, 5u64), (250, 3, 5), (250, 8, 5), (500, 3, 12)] {
        let (measured, bound) = measured_convergence(tau, delay, period);
        println!(
            "{:<12} {:<8} {:<8} {:>12} {:>10}",
            tau, delay, period, measured, bound
        );
    }
    let mut group = configure(c).benchmark_group("e8_convergence_bound");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("tau250", |b| b.iter(|| measured_convergence(250, 3, 5)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E9: EC ≡ EIC (revocations are finite)
// ---------------------------------------------------------------------------

fn eic_revocations(divergence_until: u64, instances: u64) -> (usize, bool) {
    let n = 3;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(divergence_until));
    let mut proposals = Vec::new();
    for p in 0..n {
        for inst in 1..=instances {
            proposals.push(ProposalRecord {
                instance: inst,
                by: ProcessId::new(p),
                value: vec![p as u8, inst as u8],
                at: Time::ZERO,
            });
        }
    }
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(37)
        .build_with(
            |p| {
                let values: Vec<Vec<u8>> = (1..=instances)
                    .map(|inst| vec![p.index() as u8, inst as u8])
                    .collect();
                EicBenchDriver {
                    inner: EcToEic::new(EcOmega::new(EcConfig { poll_period: 3 })),
                    values,
                    proposed: 0,
                }
            },
            omega,
        );
    world.run_until(instances * 20 + 2_000);
    let checker = EicChecker::new(
        world.output_history().clone(),
        proposals,
        failures.correct(),
    );
    (
        checker.revocation_count(),
        checker.check_agreement().is_empty() && checker.check_validity().is_empty(),
    )
}

fn e9_eic(c: &mut Criterion) {
    println!("\n[E9] EIC layer (Algorithm 6 over Algorithm 4): revocations vs divergence length, 40 instances");
    println!(
        "{:<22} {:>14} {:>22}",
        "divergence until", "revocations", "final agreement+validity"
    );
    for divergence in [0u64, 30, 60, 90] {
        let (revocations, ok) = eic_revocations(divergence, 40);
        println!("{:<22} {:>14} {:>22}", divergence, revocations, ok);
    }
    let mut group = configure(c).benchmark_group("e9_eic");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("forty_instances", |b| b.iter(|| eic_revocations(60, 40)));
    group.finish();
}

/// Minimal EIC driver (same shape as the one used in the unit tests).
struct EicBenchDriver<I: ec_core::types::EventualIrrevocableConsensus> {
    inner: I,
    values: Vec<I::Value>,
    proposed: u64,
}

impl<I: ec_core::types::EventualIrrevocableConsensus> EicBenchDriver<I> {
    /// Runs `f` on the wrapped EIC, re-emits its responses and says whether
    /// one answered the current instance.
    fn run<F>(&mut self, ctx: &mut ec_sim::Context<'_, Self>, f: F) -> bool
    where
        F: FnOnce(&mut I, &mut ec_sim::Context<'_, I>),
    {
        let responses = ctx.nest(&mut self.inner, |m| m, f);
        let answered = responses.iter().any(|out| out.instance == self.proposed);
        for out in responses {
            ctx.output(out);
        }
        answered
    }

    fn drive<F>(&mut self, ctx: &mut ec_sim::Context<'_, Self>, f: F)
    where
        F: FnOnce(&mut I, &mut ec_sim::Context<'_, I>),
    {
        if self.run(ctx, f) {
            self.propose_next(ctx);
        }
    }

    fn propose_next(&mut self, ctx: &mut ec_sim::Context<'_, Self>) {
        if (self.proposed as usize) >= self.values.len() {
            return;
        }
        self.proposed += 1;
        let value = self.values[self.proposed as usize - 1].clone();
        let instance = self.proposed;
        self.run(ctx, |inner, ictx| {
            inner.on_input(EicInput { instance, value }, ictx)
        });
    }
}

impl<I: ec_core::types::EventualIrrevocableConsensus> ec_sim::Algorithm for EicBenchDriver<I> {
    type Msg = I::Msg;
    type Input = ();
    type Output = EicOutput<I::Value>;
    type Fd = I::Fd;

    fn on_start(&mut self, ctx: &mut ec_sim::Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_start(ictx));
        self.propose_next(ctx);
        ctx.set_timer(3);
    }

    fn on_message(&mut self, from: ProcessId, msg: I::Msg, ctx: &mut ec_sim::Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_message(from, msg, ictx));
    }

    fn on_timer(&mut self, ctx: &mut ec_sim::Context<'_, Self>) {
        self.drive(ctx, |inner, ictx| inner.on_timer(ictx));
        ctx.set_timer(3);
    }
}

// ---------------------------------------------------------------------------
// A1: oracle Ω vs heartbeat Ω
// ---------------------------------------------------------------------------

fn heartbeat_stats(n: usize) -> (u64, u64) {
    let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(300));
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(11)
        .build_with(
            |p| HeartbeatOmega::new(p, n, HeartbeatConfig::default()),
            ec_sim::NullFd,
        );
    world.run_until(3_000);
    let mut history = FdHistory::new(n);
    for p in (0..n).map(ProcessId::new) {
        for (t, leader) in world.output_history().outputs(p) {
            history.record(p, *t, *leader);
        }
    }
    let switch = failures
        .correct()
        .iter()
        .filter_map(|p| {
            world
                .output_history()
                .first_time_where(p, |leader| *leader == ProcessId::new(1))
                .map(Time::as_u64)
        })
        .max()
        .unwrap_or(u64::MAX);
    (switch.saturating_sub(300), world.metrics().messages_sent)
}

fn a1_omega_implementations(c: &mut Criterion) {
    println!("\n[A1] heartbeat-based Ω: re-election delay after a leader crash and message cost (3 000 ticks)");
    println!(
        "{:<6} {:>24} {:>18}",
        "n", "re-election delay [ticks]", "messages sent"
    );
    for n in [3usize, 5, 7] {
        let (delay, messages) = heartbeat_stats(n);
        println!("{:<6} {:>24} {:>18}", n, delay, messages);
    }
    println!("  (the oracle Ω switches instantaneously and sends zero messages — its cost is the assumption itself)");
    let mut group = configure(c).benchmark_group("a1_omega_implementations");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("heartbeat_n5", |b| b.iter(|| heartbeat_stats(5)));
    group.finish();
}

// ---------------------------------------------------------------------------
// A2: promote period vs convergence and message overhead
// ---------------------------------------------------------------------------

fn promote_period_tradeoff(period: u64) -> (u64, u64) {
    let n = 5;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(200));
    let workload = BroadcastWorkload::uniform(n, 10, 10, 11);
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(3)
        .build_with(
            |p| {
                EtobOmega::new(
                    p,
                    EtobConfig {
                        promote_period: period,
                        eager_promote: false,
                        ..EtobConfig::default()
                    },
                )
            },
            omega,
        );
    workload.submit_to(&mut world);
    world.run_until(3_000);
    let checker = EtobChecker::from_delivered(
        world.output_history(),
        workload.records(),
        failures.correct(),
        Time::ZERO,
    );
    (
        checker
            .find_stabilization_time()
            .map(|t| t.as_u64())
            .unwrap_or(u64::MAX),
        world.metrics().messages_sent,
    )
}

fn a2_promote_period(c: &mut Criterion) {
    println!("\n[A2] Algorithm 5 promote-period ablation (τ_Ω = 200, 3 000-tick run)");
    println!(
        "{:<16} {:>16} {:>16}",
        "promote period", "convergence τ", "messages sent"
    );
    for period in [2u64, 5, 10, 25] {
        let (tau, messages) = promote_period_tradeoff(period);
        println!("{:<16} {:>16} {:>16}", period, tau, messages);
    }
    let mut group = configure(c).benchmark_group("a2_promote_period");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("period5", |b| b.iter(|| promote_period_tradeoff(5)));
    group.finish();
}

// ---------------------------------------------------------------------------
// E11: batching — broadcasts per delivered op vs flush interval
// ---------------------------------------------------------------------------

/// Runs one ETOB group under a dense broadcast workload and returns
/// `(update_broadcasts, messages_sent, delivered_ops)`.
fn batched_run(batch: u64, ops: usize) -> (u64, u64, usize) {
    let n = 4;
    let failures = FailurePattern::no_failures(n);
    let omega = OmegaOracle::stable_from_start(failures.clone());
    let workload = BroadcastWorkload::uniform(n, ops, 10, 1);
    let config = EtobConfig {
        batch,
        ..Default::default()
    };
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures)
        .seed(23)
        .build_with(|p| EtobOmega::new(p, config), omega);
    workload.submit_to(&mut world);
    world.run_until(workload.last_submission_time() + 1_000);
    let delivered = world.algorithm(ProcessId::new(0)).delivered().len();
    assert_eq!(delivered, ops, "all ops must be delivered");
    let updates: u64 = (0..n)
        .map(|p| world.algorithm(ProcessId::new(p)).updates_sent())
        .sum();
    (updates, world.metrics().messages_sent, delivered)
}

fn e11_batching(c: &mut Criterion) {
    let ops = 160;
    println!("\n[E11] batching: {ops} ops, n = 4, spacing 1 tick (flush interval 0 = off)");
    println!(
        "{:<10} {:>10} {:>20} {:>12}",
        "batch", "updates", "broadcasts per op", "messages"
    );
    for batch in [0u64, 2, 5, 10, 20] {
        let (updates, messages, delivered) = batched_run(batch, ops);
        println!(
            "{:<10} {:>10} {:>20.3} {:>12}",
            batch,
            updates,
            updates as f64 / delivered as f64,
            messages
        );
    }
    let mut group = configure(c).benchmark_group("e11_batching");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for batch in [0u64, 5, 20] {
        group.bench_with_input(BenchmarkId::new("flush", batch), &batch, |b, &batch| {
            b.iter(|| batched_run(batch, ops))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// E12: delta-state wire format — bytes and tick latency vs history length
// ---------------------------------------------------------------------------

fn e12_delta_wire(c: &mut Criterion) {
    println!("\n[E12] delta vs full-graph wire format: 5 processes, loss-free fixed-delay 2");
    ec_bench::delta::print_table(&ec_bench::delta::run_grid());
    println!("  (full-graph update/promote payloads grow with history; deltas carry the suffix)");
    let mut group = configure(c).benchmark_group("e12_delta_wire");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for delta in [false, true] {
        let label = if delta { "delta" } else { "full" };
        group.bench_with_input(BenchmarkId::new(label, 500usize), &delta, |b, &d| {
            b.iter(|| ec_bench::delta::delta_run(500, d))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// E13: stable-prefix compaction — resident state and op cost vs history
// ---------------------------------------------------------------------------

fn e13_compaction(c: &mut Criterion) {
    println!(
        "\n[E13] stable-prefix compaction: 3 processes, loss-free fixed-delay 2, fold chunk {}",
        ec_bench::compaction::E13_CHUNK
    );
    // the Criterion loop uses a reduced grid; the full artifact grid (up to
    // 100k ops) is the e13_compaction binary's job
    let pairs = ec_bench::compaction::run_grid_over(&[2_000, 6_000]);
    ec_bench::compaction::print_table(&pairs);
    println!("  (folded prefixes leave residency bounded by fold cadence + in-flight traffic)");
    let mut group = configure(c).benchmark_group("e13_compaction");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for chunk in [0u64, ec_bench::compaction::E13_CHUNK] {
        let label = if chunk > 0 { "on" } else { "off" };
        group.bench_with_input(BenchmarkId::new(label, 2_000usize), &chunk, |b, &chunk| {
            b.iter(|| ec_bench::compaction::compaction_run(2_000, chunk))
        });
    }
    group.finish();
}

criterion_group!(
    experiments,
    e1_delivery_latency,
    e2_partition_tolerance,
    e3_stable_leader,
    e4_causal_divergence,
    e5_transformations,
    e6_ec_omega,
    e7_cht_extraction,
    e8_convergence_bound,
    e9_eic,
    e11_batching,
    e12_delta_wire,
    e13_compaction,
    a1_omega_implementations,
    a2_promote_period
);
criterion_main!(experiments);
