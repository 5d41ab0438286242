//! Algorithm 5 (ETOB from Ω): experiments E3, E4 and E8 — properties P2
//! (stable leader from the start ⇒ full TOB), P3 (causal order even while
//! leaders diverge) and the convergence bound τ = τ_Ω + Δ_t + Δ_c — and what
//! its two timing knobs buy: batching (E11) and the promote period (A2).

use ec_bench::experiments::{
    a2_promote_period, e11_batching, e3_stable_leader, e4_causal, e8_convergence, CausalRun,
    A2_PERIODS, E11_BATCHES, E11_OPS, E3_BROADCASTS, E3_DELAY, E3_HORIZON, E3_SEEDS, E3_SIZES,
    E4_DIVERGENCES, E4_RUN, E8_GRID, E8_RUN_FOR,
};
use ec_sim::DelayModel;

/// E3 / property P2: with Ω stable from time 0, the run satisfies the full
/// (strong) TOB specification, i.e. the checker passes with τ = 0 — for
/// several system sizes and seeds, on the table's runs and on twelve
/// broadcasts over a fixed delay of 2 for 4 000 ticks.
#[test]
fn stable_leader_from_start_yields_strong_tob() {
    let table = e3_stable_leader(&E3_SIZES, &E3_SEEDS, &E3_DELAY, E3_BROADCASTS, E3_HORIZON);
    let fixed = e3_stable_leader(
        &[3, 5, 7],
        &[1, 2, 3],
        &DelayModel::Fixed { ticks: 2 },
        12,
        4_000,
    );
    for row in table.iter().chain(&fixed) {
        assert!(row.failures.is_empty(), "n = {}: {:?}", row.n, row.failures);
    }
}

/// E4 / property P3: causal order holds at every time, even while processes
/// trust different leaders, and the run still converges to ETOB afterwards —
/// on the table's run and on a longer one: four chains, the leader rotating
/// every 30 ticks over a fixed delay of 3 until tick 400, checked from 500.
#[test]
fn causal_order_survives_leader_divergence() {
    let longer = CausalRun {
        chains: 4,
        rotation: 30,
        delay: DelayModel::Fixed { ticks: 3 },
        seed: 11,
        run_for: 7_600,
        settle: 100,
    };
    let table = e4_causal(&E4_RUN, &E4_DIVERGENCES);
    for row in table.iter().chain(&e4_causal(&longer, &[400])) {
        assert!(row.causal.is_empty(), "{row:?}");
        assert!(row.ordering.is_empty(), "{row:?}");
        assert!(row.undelivered.is_empty(), "{row:?}");
    }
}

/// E8: the measured stabilization time of the ordering properties is bounded
/// by the paper's τ = τ_Ω + Δ_t + Δ_c (plus one tick for the delivery step
/// granularity of the simulator) — on the table's grid and on Δ_c = 3,
/// Δ_t = 5 runs of 4 000 ticks past τ_Ω.
#[test]
fn measured_convergence_respects_the_paper_bound() {
    let table = e8_convergence(&E8_GRID, E8_RUN_FOR);
    let longer = e8_convergence(&[(100, 3, 5), (250, 3, 5), (500, 3, 5)], 4_000);
    for row in table.iter().chain(&longer) {
        let measured = row.measured.expect("ordering must stabilize");
        assert!(measured <= row.bound, "{row:?}");
    }
}

/// E11: a longer flush interval never costs more `update` broadcasts per
/// delivered operation, and the longest one costs fewer than none at all.
#[test]
fn batching_amortizes_broadcasts_over_operations() {
    let rows = e11_batching(&E11_BATCHES);
    for row in &rows {
        assert_eq!(row.delivered, E11_OPS, "all ops must be delivered: {row:?}");
    }
    for pair in rows.windows(2) {
        assert!(
            pair[1].broadcasts_per_op() <= pair[0].broadcasts_per_op(),
            "{pair:?}"
        );
    }
    let (off, longest) = (&rows[0], &rows[rows.len() - 1]);
    assert_eq!(off.batch, 0);
    assert!(
        longest.broadcasts_per_op() < off.broadcasts_per_op(),
        "{rows:?}"
    );
}

/// A2: a longer promote period sends strictly fewer messages.
#[test]
fn longer_promote_periods_send_fewer_messages() {
    let rows = a2_promote_period(&A2_PERIODS);
    for pair in rows.windows(2) {
        assert!(pair[1].messages < pair[0].messages, "{pair:?}");
    }
}
