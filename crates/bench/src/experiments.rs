//! The drivers of experiments E1–E9 and E11 and of the ablations A1–A2 (see
//! `EXPERIMENTS.md`), and the printers of their tables.
//!
//! Each experiment is one function that runs its simulations and returns
//! one plain row per grid point; the `E*_`/`A*_` constants are the grid the
//! `experiments` binary prints. The root integration suites assert the
//! paper's claims on these same rows, so the printed tables and the checked
//! claims come from one driver. Every run is a seeded simulation in virtual
//! time, so every row is bit-reproducible.

use ec_cht::{OmegaEmulation, OmegaExtractor, TreeConfig};
use ec_core::ec_omega::{EcConfig, EcOmega};
use ec_core::etob_omega::{EtobConfig, EtobOmega};
use ec_core::harness::{EicProposer, MultiInstanceProposer};
use ec_core::spec::{EcChecker, EcViolation, EicChecker, EicViolation, EtobChecker};
use ec_core::spec::{ProposalRecord, TobViolation};
use ec_core::tob_consensus::{ConsensusTob, ConsensusTobConfig};
use ec_core::transforms::{EcToEic, EcToEtob};
use ec_core::types::{materialize, AppMessage, DeliveryDelta, MsgId};
use ec_core::workload::BroadcastWorkload;
use ec_detectors::heartbeat::{HeartbeatConfig, HeartbeatOmega};
use ec_detectors::omega::{OmegaOracle, PreStabilization};
use ec_detectors::{check_omega_history, sigma::SigmaOracle, OmegaViolation, PairFd};
use ec_replication::{ClusterBuilder, ClusterReport, Consistency, KvStore, SimEngine};
use ec_sim::{
    DelayModel, FailurePattern, FdHistory, NetworkModel, OutputHistory, PartitionSpec, ProcessId,
    ProcessSet, RecordingFd, Time, WorldBuilder,
};

use crate::{compaction, delta};

/// The violations a checker's `Result` carries, empty when the run passed.
fn violations<V>(verdict: Result<(), Vec<V>>) -> Vec<V> {
    verdict.err().unwrap_or_default()
}

// ---------------------------------------------------------------------------
// E1: delivery latency in communication steps (2 for ETOB vs 3 for consensus)
// ---------------------------------------------------------------------------

/// E1's group sizes.
pub const E1_SIZES: [usize; 4] = [3, 5, 7, 9];
/// E1's link delay in ticks: one communication step.
pub const E1_DELAY: u64 = 10;
/// E1's run length in ticks.
pub const E1_HORIZON: u64 = 1_500;

/// One E1 row: ticks from the broadcast of one message by a non-leader to
/// its first delivery anywhere (`u64::MAX` if it was never delivered).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyRow {
    /// Group size.
    pub n: usize,
    /// Algorithm 5 with eager promotion.
    pub etob: u64,
    /// The quorum sequencer over Ω + Σ.
    pub consensus: u64,
}

/// Ticks from the broadcast at tick 100 to the first delivery of `id`.
fn first_delivery(history: &OutputHistory<DeliveryDelta>, id: MsgId, n: usize) -> u64 {
    // d_i(t): the delivery deltas folded back into sequences
    let history = materialize(history);
    (0..n)
        .map(ProcessId::new)
        .filter_map(|p| history.first_time_where(p, |seq| seq.iter().any(|m| m.id == id)))
        .min()
        .map_or(u64::MAX, |t| t.saturating_since(Time::new(100)))
}

/// Runs E1: one probe broadcast by the last process at tick 100, under Ω
/// stable from the start, on a fixed-delay network, for each group size.
pub fn e1_latency(sizes: &[usize], horizon: u64) -> Vec<LatencyRow> {
    let probe = |n: usize| {
        let mut workload = BroadcastWorkload::new();
        workload.push(ProcessId::new(n - 1), 100, b"probe".to_vec(), vec![]);
        workload
    };
    sizes
        .iter()
        .map(|&n| {
            let failures = FailurePattern::no_failures(n);
            let builder = || {
                WorldBuilder::new(n)
                    .network(NetworkModel::fixed_delay(E1_DELAY))
                    .failures(failures.clone())
            };
            let omega = OmegaOracle::stable_from_start(failures.clone());

            let workload = probe(n);
            let mut world =
                builder().build_with(|p| EtobOmega::new(p, EtobConfig::eager()), omega.clone());
            workload.submit_to(&mut world);
            world.run_until(horizon);
            let etob = first_delivery(world.output_history(), workload.ids()[0], n);

            let fd = PairFd::new(omega, SigmaOracle::majority(failures.clone()));
            let workload = probe(n);
            let mut world =
                builder().build_with(|p| ConsensusTob::new(p, ConsensusTobConfig::default()), fd);
            workload.submit_to(&mut world);
            world.run_until(horizon);
            let consensus = first_delivery(world.output_history(), workload.ids()[0], n);
            LatencyRow { n, etob, consensus }
        })
        .collect()
}

/// Prints the E1 table.
pub fn print_e1(rows: &[LatencyRow]) {
    println!("[E1] broadcast→stable-delivery latency (link delay = {E1_DELAY} ticks)");
    println!(
        "{:<6} {:>22} {:>22}",
        "n", "ETOB (Alg. 5) [hops]", "consensus TOB [hops]"
    );
    for row in rows {
        println!(
            "{:<6} {:>16} ({} t) {:>16} ({} t)",
            row.n,
            row.etob / E1_DELAY,
            row.etob,
            row.consensus / E1_DELAY,
            row.consensus
        );
    }
}

// ---------------------------------------------------------------------------
// E2: partition tolerance (progress during a minority partition)
// ---------------------------------------------------------------------------

/// E2's group size.
pub const E2_PROCESSES: usize = 5;
/// The tick E2's partition heals at.
pub const E2_HEAL: u64 = 900;
/// The tick E2 reads the replicas at during the partition.
pub const E2_PROBE: u64 = E2_HEAL - 20;

/// One E2 row: a replicated KV store at one consistency level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionRow {
    /// Commands applied by each replica at [`E2_PROBE`].
    pub during: Vec<usize>,
    /// The cluster's report at the end of the run (applied counts,
    /// snapshots, convergence, divergence episodes).
    pub report: ClusterReport,
}

/// Runs E2 at one consistency level: a 5-replica KV store whose minority
/// `{p0, p1}` — the leader's side — is cut off from tick 50 to
/// [`E2_HEAL`], while two sessions on that side write six keys.
pub fn e2_partition(consistency: Consistency) -> PartitionRow {
    let minority: ProcessSet = [0, 1].into_iter().collect();
    let network = NetworkModel::fixed_delay(2).with_partition(
        Time::new(50),
        Time::new(E2_HEAL),
        PartitionSpec::isolate(minority, E2_PROCESSES),
    );
    let engine = SimEngine::new().network(network).seed(1);
    let mut cluster = ClusterBuilder::<KvStore>::new(E2_PROCESSES)
        .consistency(consistency)
        .deploy(&engine);
    let mut sessions = [
        cluster.session_at(ProcessId::new(0)),
        cluster.session_at(ProcessId::new(1)),
    ];
    for k in 0..6u64 {
        let session = &mut sessions[(k % 2) as usize];
        cluster.submit(session, KvStore::put(&format!("k{k}"), "v"), 100 + 25 * k);
    }
    cluster.run_until(2_500);
    PartitionRow {
        during: cluster.applied_at_all(E2_PROBE),
        report: cluster.finish(),
    }
}

/// Prints the E2 table: commands applied by p1 (leader side) during the
/// partition and by p3 after the heal.
pub fn print_e2(rows: &[PartitionRow]) {
    println!("[E2] commands applied by a leader-side replica (minority partition, 6 writes)");
    println!(
        "{:<28} {:>18} {:>14}",
        "service", "during partition", "after heal"
    );
    for row in rows {
        let service = match row.report.consistency {
            Consistency::Eventual => "eventually consistent (Ω)",
            Consistency::Strong => "strongly consistent (Ω+Σ)",
        };
        println!(
            "{:<28} {:>18} {:>14}",
            service, row.during[1], row.report.shards[0].applied[3]
        );
    }
}

// ---------------------------------------------------------------------------
// E3: stable leader from the start ⇒ full TOB
// ---------------------------------------------------------------------------

/// E3's group sizes.
pub const E3_SIZES: [usize; 3] = [3, 5, 7];
/// E3's seeds: one adversarial schedule each.
pub const E3_SEEDS: [u64; 5] = [0, 1, 2, 3, 4];
/// E3's link delays.
pub const E3_DELAY: DelayModel = DelayModel::Uniform { min: 1, max: 4 };
/// E3's broadcasts per run, ten ticks apart.
pub const E3_BROADCASTS: usize = 10;
/// E3's run length in ticks.
pub const E3_HORIZON: u64 = 3_000;

/// One E3 row: the runs of one group size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StableLeaderRow {
    /// Group size.
    pub n: usize,
    /// Runs made, one per seed.
    pub runs: usize,
    /// Each seed whose run broke TOB (with causal order), with the
    /// violations found.
    pub failures: Vec<(u64, Vec<TobViolation>)>,
}

/// Runs E3: Algorithm 5 under Ω stable from t = 0, `broadcasts` broadcasts
/// ten ticks apart over `delay` links for `horizon` ticks, one run per size
/// and seed, each checked against the full TOB specification (ETOB with
/// τ = 0, plus causal order).
pub fn e3_stable_leader(
    sizes: &[usize],
    seeds: &[u64],
    delay: &DelayModel,
    broadcasts: usize,
    horizon: u64,
) -> Vec<StableLeaderRow> {
    sizes
        .iter()
        .map(|&n| {
            let failures = FailurePattern::no_failures(n);
            let workload = BroadcastWorkload::uniform(n, broadcasts, 10, 7);
            let broken = seeds
                .iter()
                .filter_map(|&seed| {
                    let omega = OmegaOracle::stable_from_start(failures.clone());
                    let mut world = WorldBuilder::new(n)
                        .network(NetworkModel::with_delay_model(delay.clone()))
                        .failures(failures.clone())
                        .seed(seed)
                        .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
                    workload.submit_to(&mut world);
                    world.run_until(horizon);
                    let verdict = EtobChecker::from_delivered(
                        world.output_history(),
                        workload.records(),
                        failures.correct(),
                        Time::ZERO,
                    )
                    .check_all_with_causal();
                    verdict.err().map(|v| (seed, v))
                })
                .collect();
            StableLeaderRow {
                n,
                runs: seeds.len(),
                failures: broken,
            }
        })
        .collect()
}

/// Prints the E3 table.
pub fn print_e3(rows: &[StableLeaderRow]) {
    println!("[E3] Algorithm 5 with Ω stable from t=0: strong-TOB checker verdict (τ = 0)");
    for row in rows {
        println!(
            "  n = {}: {}/{} adversarial schedules satisfy full TOB",
            row.n,
            row.runs - row.failures.len(),
            row.runs
        );
    }
}

// ---------------------------------------------------------------------------
// E4: causal order during leader divergence
// ---------------------------------------------------------------------------

/// E4's divergence lengths: Ω stabilizes at these ticks.
pub const E4_DIVERGENCES: [u64; 3] = [100, 300, 600];

/// The run E4 makes at each divergence length.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalRun {
    /// Causal chains of four broadcasts each, nine ticks apart.
    pub chains: usize,
    /// Ticks between the leader rotations of Ω before it stabilizes.
    pub rotation: u64,
    /// Link delays.
    pub delay: DelayModel,
    /// The simulation seed.
    pub seed: u64,
    /// Ticks run after Ω stabilizes.
    pub run_for: u64,
    /// Ticks after Ω stabilizes from which the ordering properties must
    /// hold.
    pub settle: u64,
}

/// The run the E4 table makes.
pub const E4_RUN: CausalRun = CausalRun {
    chains: 3,
    rotation: 25,
    delay: DelayModel::Uniform { min: 1, max: 4 },
    seed: 5,
    run_for: 3_000,
    settle: 50,
};

/// One E4 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalRow {
    /// The tick Ω stabilizes at; before it, the trusted leader rotates.
    pub divergence: u64,
    /// Causal-order violations over the whole run.
    pub causal: Vec<TobViolation>,
    /// Stability and total-order violations from `divergence + settle` on.
    pub ordering: Vec<TobViolation>,
    /// Broadcasts some correct process never delivered.
    pub undelivered: Vec<TobViolation>,
}

/// Runs E4: Algorithm 5 on 5 processes under causal chains of broadcasts,
/// with Ω rotating its leader until it stabilizes, once per divergence.
pub fn e4_causal(run: &CausalRun, divergences: &[u64]) -> Vec<CausalRow> {
    let n = 5;
    let failures = FailurePattern::no_failures(n);
    let workload = BroadcastWorkload::causal_chains(n, run.chains, 4, 5, 9);
    divergences
        .iter()
        .map(|&divergence| {
            let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(divergence))
                .with_pre_stabilization(PreStabilization::RoundRobin {
                    period: run.rotation,
                });
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::with_delay_model(run.delay.clone()))
                .failures(failures.clone())
                .seed(run.seed)
                .build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
            workload.submit_to(&mut world);
            world.run_until(divergence + run.run_for);
            let checker = EtobChecker::from_delivered(
                world.output_history(),
                workload.records(),
                failures.correct(),
                Time::new(divergence + run.settle),
            );
            CausalRow {
                divergence,
                causal: checker.check_causal_order(),
                ordering: checker.check_ordering(),
                undelivered: checker.check_eventual_delivery(),
            }
        })
        .collect()
}

/// Prints the E4 table.
pub fn print_e4(rows: &[CausalRow]) {
    println!("[E4] causal-order violations of Algorithm 5 while leaders diverge (must be 0)");
    for row in rows {
        println!(
            "  divergence until t={}: causal violations = {}, post-τ ordering violations = {}",
            row.divergence,
            row.causal.len(),
            row.ordering.len()
        );
    }
}

// ---------------------------------------------------------------------------
// E5: the equivalence transformations (Theorem 1) and their overhead
// ---------------------------------------------------------------------------

/// E5's group sizes.
pub const E5_SIZES: [usize; 2] = [3, 5];
/// E5's broadcasts per run, ten ticks apart.
pub const E5_BROADCASTS: usize = 8;
/// E5's run length in ticks.
pub const E5_HORIZON: u64 = 2_000;

/// One E5 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransformRow {
    /// Group size.
    pub n: usize,
    /// Messages sent by ETOB built from EC (Algorithm 1 over Algorithm 4).
    pub transformed_messages: u64,
    /// Messages sent by Algorithm 5 on the same workload.
    pub direct_messages: u64,
    /// ETOB violations of the transformed stack.
    pub transformed_violations: Vec<TobViolation>,
}

/// Runs E5: `broadcasts` broadcasts over `horizon` ticks under Ω stable
/// from the start, through the transformed stack and through Algorithm 5.
pub fn e5_transformations(sizes: &[usize], broadcasts: usize, horizon: u64) -> Vec<TransformRow> {
    sizes
        .iter()
        .map(|&n| {
            let failures = FailurePattern::no_failures(n);
            let omega = OmegaOracle::stable_from_start(failures.clone());
            let workload = BroadcastWorkload::uniform(n, broadcasts, 10, 9);
            let builder = || {
                WorldBuilder::new(n)
                    .network(NetworkModel::fixed_delay(2))
                    .failures(failures.clone())
                    .seed(4)
            };
            let mut transformed = builder().build_with(
                |_p| {
                    EcToEtob::new(
                        EcOmega::<Vec<AppMessage>>::new(EcConfig { poll_period: 3 }),
                        4,
                    )
                },
                omega.clone(),
            );
            workload.submit_to(&mut transformed);
            transformed.run_until(horizon);
            let verdict = EtobChecker::from_delivered(
                transformed.output_history(),
                workload.records(),
                failures.correct(),
                Time::ZERO,
            )
            .check_all();
            let mut direct =
                builder().build_with(|p| EtobOmega::new(p, EtobConfig::default()), omega);
            workload.submit_to(&mut direct);
            direct.run_until(horizon);
            TransformRow {
                n,
                transformed_messages: transformed.metrics().messages_sent,
                direct_messages: direct.metrics().messages_sent,
                transformed_violations: violations(verdict),
            }
        })
        .collect()
}

/// Prints the E5 table.
pub fn print_e5(rows: &[TransformRow]) {
    println!("[E5] Theorem 1 transformations: message cost over a 2 000-tick run, 8 broadcasts");
    println!(
        "{:<6} {:>26} {:>22}",
        "n", "ETOB from EC (Alg. 1+4)", "direct ETOB (Alg. 5)"
    );
    for row in rows {
        println!(
            "{:<6} {:>26} {:>22}",
            row.n, row.transformed_messages, row.direct_messages
        );
    }
}

// ---------------------------------------------------------------------------
// E6: EC from Ω in any environment (crash sweep)
// ---------------------------------------------------------------------------

/// E6's group size.
pub const E6_PROCESSES: usize = 5;
/// Consensus instances each E6 process proposes in.
pub const E6_INSTANCES: u64 = 10;
/// E6's crash counts: the last `k` processes crash at tick 40.
pub const E6_CRASHES: [usize; 5] = [0, 1, 2, 3, 4];

/// One E6 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcRow {
    /// Processes crashed.
    pub crashes: usize,
    /// EC violations (termination, integrity, validity, agreement from
    /// instance 1).
    pub violations: Vec<EcViolation<u64>>,
    /// The first instance from which every instance agrees.
    pub agreement_from: u64,
}

/// Runs E6: Algorithm 4 under Ω stable from the start, every process
/// proposing in [`E6_INSTANCES`] sequential instances, for each crash count.
pub fn e6_ec_omega(crash_counts: &[usize]) -> Vec<EcRow> {
    let (n, instances) = (E6_PROCESSES, E6_INSTANCES);
    let value = |p: usize, instance: u64| 10 * p as u64 + instance;
    crash_counts
        .iter()
        .map(|&crashes| {
            let mut failures = FailurePattern::no_failures(n);
            for i in 0..crashes {
                failures.set_crash(ProcessId::new(n - 1 - i), Time::new(40));
            }
            let omega = OmegaOracle::stable_from_start(failures.clone());
            let correct = failures.correct();
            let proposals = (0..n)
                .flat_map(|p| {
                    (1..=instances).map(move |instance| ProposalRecord {
                        instance,
                        by: ProcessId::new(p),
                        value: value(p, instance),
                        at: Time::ZERO,
                    })
                })
                .collect();
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures)
                .seed(5)
                .build_with(
                    |p| {
                        let values = (1..=instances).map(|i| value(p.index(), i)).collect();
                        MultiInstanceProposer::new(EcOmega::new(EcConfig::default()), values)
                    },
                    omega,
                );
            world.run_until(instances * 20 + 1_000);
            let checker = EcChecker::new(world.output_history().clone(), proposals, correct);
            EcRow {
                crashes,
                violations: violations(checker.check_all(instances, 1)),
                agreement_from: checker.agreement_index(),
            }
        })
        .collect()
}

/// Prints the E6 table.
pub fn print_e6(rows: &[EcRow]) {
    println!(
        "[E6] Algorithm 4 (EC from Ω) under crashes, n = {E6_PROCESSES}, {E6_INSTANCES} instances"
    );
    println!(
        "{:<18} {:>10} {:>18}",
        "crashed processes", "EC holds", "agreement from k"
    );
    for row in rows {
        let majority_note = if 2 * row.crashes >= E6_PROCESSES {
            " (no correct majority)"
        } else {
            ""
        };
        println!(
            "{:<18} {:>10} {:>18}{}",
            row.crashes,
            row.violations.is_empty(),
            row.agreement_from,
            majority_note
        );
    }
}

// ---------------------------------------------------------------------------
// E7: the CHT extraction (Lemma 1)
// ---------------------------------------------------------------------------

/// The seed of E7's sampled run.
pub const E7_SEED: u64 = 13;

/// The E7 result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtractionRow {
    /// Failure-detector samples recorded by the run.
    pub samples: usize,
    /// The leader the emulated Ω history elects, or why it is not an Ω
    /// history.
    pub leader: Result<ProcessId, OmegaViolation>,
}

/// Runs E7: records the Ω samples of a 2-process run of Algorithm 4 in which
/// the early leader p0 crashes at tick 120, then emulates Ω from those
/// samples alone with the CHT extraction.
pub fn e7_cht_extraction(seed: u64) -> ExtractionRow {
    let n = 2;
    let failures = FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(120));
    let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(150))
        .with_pre_stabilization(PreStabilization::Fixed(ProcessId::new(0)));
    let mut world = WorldBuilder::new(n)
        .network(NetworkModel::fixed_delay(2))
        .failures(failures.clone())
        .seed(seed)
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
    let samples: &FdHistory<ProcessId> = world.fd().history();
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
    let emulation = OmegaEmulation::run(&extractor, samples, &failures, 6);
    ExtractionRow {
        samples: samples.len(),
        leader: check_omega_history(&emulation.history, &failures).map(|(_, leader)| leader),
    }
}

/// Prints the E7 result.
pub fn print_e7(row: &ExtractionRow) {
    let leader = match &row.leader {
        Ok(leader) => leader.to_string(),
        Err(violation) => format!("no leader ({violation:?})"),
    };
    println!(
        "[E7] CHT extraction over a leader-crash run: {} samples → emulated Ω elects {leader}",
        row.samples
    );
    println!("  (the crashed process is p0; the extraction must elect the surviving p1)");
}

// ---------------------------------------------------------------------------
// E8: convergence time vs the τ = τ_Ω + Δ_t + Δ_c bound
// ---------------------------------------------------------------------------

/// E8's grid: `(τ_Ω, Δ_c, Δ_t)` — the tick Ω stabilizes at, the link delay
/// and the promote period.
pub const E8_GRID: [(u64, u64, u64); 4] = [(100, 3, 5), (250, 3, 5), (250, 8, 5), (500, 3, 12)];
/// Ticks E8 runs after Ω stabilizes.
pub const E8_RUN_FOR: u64 = 3_000;

/// One E8 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConvergenceRow {
    /// The tick Ω stabilizes at.
    pub tau_omega: u64,
    /// Link delay `Δ_c`.
    pub delay: u64,
    /// Promote period `Δ_t`.
    pub period: u64,
    /// The first tick from which the ordering properties hold, if any.
    pub measured: Option<u64>,
    /// The paper's bound `τ_Ω + Δ_t + Δ_c`, plus one tick for the
    /// simulator's delivery-step granularity.
    pub bound: u64,
}

/// Runs E8: Algorithm 5 on 4 processes, ten broadcasts 13 ticks apart, for
/// each grid point until `run_for` ticks after Ω stabilizes.
pub fn e8_convergence(grid: &[(u64, u64, u64)], run_for: u64) -> Vec<ConvergenceRow> {
    let n = 4;
    let failures = FailurePattern::no_failures(n);
    let workload = BroadcastWorkload::uniform(n, 10, 5, 13);
    grid.iter()
        .map(|&(tau_omega, delay, period)| {
            let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(tau_omega));
            let config = EtobConfig {
                promote_period: period,
                eager_promote: false,
                ..EtobConfig::default()
            };
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(delay))
                .failures(failures.clone())
                .seed(21)
                .build_with(|p| EtobOmega::new(p, config), omega);
            workload.submit_to(&mut world);
            world.run_until(tau_omega + run_for);
            let measured = EtobChecker::from_delivered(
                world.output_history(),
                workload.records(),
                failures.correct(),
                Time::ZERO,
            )
            .find_stabilization_time()
            .map(Time::as_u64);
            ConvergenceRow {
                tau_omega,
                delay,
                period,
                measured,
                bound: tau_omega + period + delay + 1,
            }
        })
        .collect()
}

/// Prints the E8 table (`u64::MAX` where the run never stabilized).
pub fn print_e8(rows: &[ConvergenceRow]) {
    println!("[E8] measured ETOB convergence vs the bound τ_Ω + Δ_t + Δ_c");
    println!(
        "{:<12} {:<8} {:<8} {:>12} {:>10}",
        "τ_Ω", "Δ_c", "Δ_t", "measured τ", "bound"
    );
    for row in rows {
        println!(
            "{:<12} {:<8} {:<8} {:>12} {:>10}",
            row.tau_omega,
            row.delay,
            row.period,
            row.measured.unwrap_or(u64::MAX),
            row.bound
        );
    }
}

// ---------------------------------------------------------------------------
// E9: EC ≡ EIC (revocations are finite)
// ---------------------------------------------------------------------------

/// E9's divergence lengths: Ω stabilizes at these ticks.
pub const E9_DIVERGENCES: [u64; 4] = [0, 30, 60, 90];
/// Instances each E9 process proposes in.
pub const E9_INSTANCES: u64 = 40;

/// One E9 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EicRow {
    /// The tick Ω stabilizes at.
    pub divergence: u64,
    /// Responses that revoked an earlier response.
    pub revocations: usize,
    /// Violations of EIC agreement and validity on the final responses.
    pub violations: Vec<EicViolation<Vec<u8>>>,
}

/// Runs E9: Algorithm 6 over Algorithm 4 on 3 processes, driven through
/// [`E9_INSTANCES`] instances, for each divergence length.
pub fn e9_eic(divergences: &[u64]) -> Vec<EicRow> {
    let n = 3;
    let instances = E9_INSTANCES;
    let failures = FailurePattern::no_failures(n);
    let value = |p: usize, instance: u64| vec![p as u8, instance as u8];
    divergences
        .iter()
        .map(|&divergence| {
            let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(divergence));
            let proposals = (0..n)
                .flat_map(|p| {
                    (1..=instances).map(move |instance| ProposalRecord {
                        instance,
                        by: ProcessId::new(p),
                        value: value(p, instance),
                        at: Time::ZERO,
                    })
                })
                .collect();
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(37)
                .build_with(
                    |p| {
                        let values = (1..=instances).map(|i| value(p.index(), i)).collect();
                        let ec = EcOmega::new(EcConfig { poll_period: 3 });
                        EicProposer::new(EcToEic::new(ec), values)
                    },
                    omega,
                );
            world.run_until(instances * 20 + 2_000);
            let checker = EicChecker::new(
                world.output_history().clone(),
                proposals,
                failures.correct(),
            );
            let mut violations = checker.check_agreement();
            violations.extend(checker.check_validity());
            EicRow {
                divergence,
                revocations: checker.revocation_count(),
                violations,
            }
        })
        .collect()
}

/// Prints the E9 table.
pub fn print_e9(rows: &[EicRow]) {
    println!("[E9] EIC layer (Algorithm 6 over Algorithm 4): revocations vs divergence length, {E9_INSTANCES} instances");
    println!(
        "{:<22} {:>14} {:>22}",
        "divergence until", "revocations", "final agreement+validity"
    );
    for row in rows {
        println!(
            "{:<22} {:>14} {:>22}",
            row.divergence,
            row.revocations,
            row.violations.is_empty()
        );
    }
}

// ---------------------------------------------------------------------------
// E11: batching — broadcasts per delivered op vs flush interval
// ---------------------------------------------------------------------------

/// E11's flush intervals (0 = batching off).
pub const E11_BATCHES: [u64; 5] = [0, 2, 5, 10, 20];
/// Operations broadcast in each E11 run.
pub const E11_OPS: usize = 160;

/// One E11 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRow {
    /// Flush interval in ticks.
    pub batch: u64,
    /// `update` broadcasts, summed over processes.
    pub updates: u64,
    /// Messages sent.
    pub messages: u64,
    /// Operations delivered at p0.
    pub delivered: usize,
}

impl BatchRow {
    /// `update` broadcasts per delivered operation.
    pub fn broadcasts_per_op(&self) -> f64 {
        self.updates as f64 / self.delivered as f64
    }
}

/// Runs E11: [`E11_OPS`] broadcasts one tick apart on 4 processes under Ω
/// stable from the start, for each flush interval.
pub fn e11_batching(batches: &[u64]) -> Vec<BatchRow> {
    let n = 4;
    let failures = FailurePattern::no_failures(n);
    let workload = BroadcastWorkload::uniform(n, E11_OPS, 10, 1);
    batches
        .iter()
        .map(|&batch| {
            let omega = OmegaOracle::stable_from_start(failures.clone());
            let config = EtobConfig {
                batch,
                ..Default::default()
            };
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(23)
                .build_with(|p| EtobOmega::new(p, config), omega);
            workload.submit_to(&mut world);
            world.run_until(workload.last_submission_time() + 1_000);
            BatchRow {
                batch,
                updates: world
                    .process_ids()
                    .map(|p| world.algorithm(p).updates_sent())
                    .sum(),
                messages: world.metrics().messages_sent,
                delivered: world.algorithm(ProcessId::new(0)).delivered().len(),
            }
        })
        .collect()
}

/// Prints the E11 table.
pub fn print_e11(rows: &[BatchRow]) {
    println!("[E11] batching: {E11_OPS} ops, n = 4, spacing 1 tick (flush interval 0 = off)");
    println!(
        "{:<10} {:>10} {:>20} {:>12}",
        "batch", "updates", "broadcasts per op", "messages"
    );
    for row in rows {
        println!(
            "{:<10} {:>10} {:>20.3} {:>12}",
            row.batch,
            row.updates,
            row.broadcasts_per_op(),
            row.messages
        );
    }
}

// ---------------------------------------------------------------------------
// E12 and E13: their drivers are `delta` and `compaction`
// ---------------------------------------------------------------------------

/// E13's table grid, smaller than the `e13_compaction` artifact grid (up to
/// 100k operations).
pub const E13_TABLE_GRID: [usize; 2] = [2_000, 6_000];

/// Prints the E12 table of [`delta::run_grid`].
pub fn print_e12(pairs: &[(delta::DeltaPoint, delta::DeltaPoint)]) {
    println!("[E12] delta vs full-graph wire format: 5 processes, loss-free fixed-delay 2");
    delta::print_table(pairs);
    println!("  (full-graph update/promote payloads grow with history; deltas carry the suffix)");
}

/// Prints the E13 table of [`compaction::run_grid_over`].
pub fn print_e13(pairs: &[(compaction::CompactionPoint, compaction::CompactionPoint)]) {
    println!(
        "[E13] stable-prefix compaction: 3 processes, loss-free fixed-delay 2, fold chunk {}",
        compaction::E13_CHUNK
    );
    compaction::print_table(pairs);
    println!("  (folded prefixes leave residency bounded by fold cadence + in-flight traffic)");
}

// ---------------------------------------------------------------------------
// A1: oracle Ω vs heartbeat Ω
// ---------------------------------------------------------------------------

/// A1's group sizes.
pub const A1_SIZES: [usize; 3] = [3, 5, 7];
/// The tick A1's leader p0 crashes at.
pub const A1_CRASH: u64 = 300;

/// One A1 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeartbeatRow {
    /// Group size.
    pub n: usize,
    /// Ticks from the crash until every correct process trusts p1
    /// (saturating at `u64::MAX - A1_CRASH` if some never does).
    pub reelection_delay: u64,
    /// Messages sent over the 3 000-tick run.
    pub messages: u64,
}

/// Runs A1: the heartbeat Ω with its default configuration, p0 crashing at
/// [`A1_CRASH`], for each group size.
pub fn a1_heartbeat(sizes: &[usize]) -> Vec<HeartbeatRow> {
    sizes
        .iter()
        .map(|&n| {
            let failures =
                FailurePattern::no_failures(n).with_crash(ProcessId::new(0), Time::new(A1_CRASH));
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(11)
                .build_with(
                    |p| HeartbeatOmega::new(p, n, HeartbeatConfig::default()),
                    ec_sim::NullFd,
                );
            world.run_until(3_000);
            let switch = failures
                .correct()
                .iter()
                .map(|p| {
                    world
                        .output_history()
                        .first_time_where(p, |leader| *leader == ProcessId::new(1))
                        .map_or(u64::MAX, Time::as_u64)
                })
                .max()
                .unwrap_or(u64::MAX);
            HeartbeatRow {
                n,
                reelection_delay: switch.saturating_sub(A1_CRASH),
                messages: world.metrics().messages_sent,
            }
        })
        .collect()
}

/// Prints the A1 table.
pub fn print_a1(rows: &[HeartbeatRow]) {
    println!("[A1] heartbeat-based Ω: re-election delay after a leader crash and message cost (3 000 ticks)");
    println!(
        "{:<6} {:>24} {:>18}",
        "n", "re-election delay [ticks]", "messages sent"
    );
    for row in rows {
        println!(
            "{:<6} {:>24} {:>18}",
            row.n, row.reelection_delay, row.messages
        );
    }
    println!("  (the oracle Ω switches instantaneously and sends zero messages — its cost is the assumption itself)");
}

// ---------------------------------------------------------------------------
// A2: promote period vs convergence and message overhead
// ---------------------------------------------------------------------------

/// A2's promote periods.
pub const A2_PERIODS: [u64; 4] = [2, 5, 10, 25];

/// One A2 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromoteRow {
    /// Promote period in ticks.
    pub period: u64,
    /// The first tick from which the ordering properties hold, if any.
    pub convergence: Option<u64>,
    /// Messages sent over the 3 000-tick run.
    pub messages: u64,
}

/// Runs A2: Algorithm 5 on 5 processes with Ω stabilizing at tick 200, ten
/// broadcasts, for each promote period.
pub fn a2_promote_period(periods: &[u64]) -> Vec<PromoteRow> {
    let n = 5;
    let failures = FailurePattern::no_failures(n);
    let workload = BroadcastWorkload::uniform(n, 10, 10, 11);
    periods
        .iter()
        .map(|&period| {
            let omega = OmegaOracle::stabilizing_at(failures.clone(), Time::new(200));
            let config = EtobConfig {
                promote_period: period,
                eager_promote: false,
                ..EtobConfig::default()
            };
            let mut world = WorldBuilder::new(n)
                .network(NetworkModel::fixed_delay(2))
                .failures(failures.clone())
                .seed(3)
                .build_with(|p| EtobOmega::new(p, config), omega);
            workload.submit_to(&mut world);
            world.run_until(3_000);
            let convergence = EtobChecker::from_delivered(
                world.output_history(),
                workload.records(),
                failures.correct(),
                Time::ZERO,
            )
            .find_stabilization_time()
            .map(Time::as_u64);
            PromoteRow {
                period,
                convergence,
                messages: world.metrics().messages_sent,
            }
        })
        .collect()
}

/// Prints the A2 table (`u64::MAX` where the run never stabilized).
pub fn print_a2(rows: &[PromoteRow]) {
    println!("[A2] Algorithm 5 promote-period ablation (τ_Ω = 200, 3 000-tick run)");
    println!(
        "{:<16} {:>16} {:>16}",
        "promote period", "convergence τ", "messages sent"
    );
    for row in rows {
        println!(
            "{:<16} {:>16} {:>16}",
            row.period,
            row.convergence.unwrap_or(u64::MAX),
            row.messages
        );
    }
}
