//! Experiment E1: delivery latency in communication steps.
//!
//! Under a stable leader, the ETOB of Algorithm 5 delivers a broadcast of a
//! non-leader process after **two** message hops (update → promote), while the
//! strongly consistent quorum sequencer needs **three** (forward → accept →
//! acknowledge), matching the bounds the paper cites.

use ec_bench::experiments::{e1_latency, E1_DELAY, E1_HORIZON, E1_SIZES};

/// On the table's runs and on runs of 2 000 ticks.
#[test]
fn etob_delivers_in_two_hops_and_consensus_in_three() {
    let table = e1_latency(&E1_SIZES, E1_HORIZON);
    for row in table.iter().chain(&e1_latency(&E1_SIZES, 2_000)) {
        let n = row.n;
        assert_eq!(
            row.etob / E1_DELAY,
            2,
            "n = {n}: eventual latency {}",
            row.etob
        );
        assert_eq!(
            row.consensus / E1_DELAY,
            3,
            "n = {n}: strong latency {}",
            row.consensus
        );
        assert!(
            row.etob < row.consensus,
            "eventual consistency must be strictly faster"
        );
    }
}
