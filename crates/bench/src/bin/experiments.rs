//! Prints the table of every experiment in `EXPERIMENTS.md` (E1–E9, E11–E13,
//! A1–A2), in that order. Every run is a seeded simulation, so two runs
//! print the same bytes.

use ec_bench::experiments::*;
use ec_bench::{compaction, delta};
use ec_replication::Consistency;

fn main() {
    let tables: [fn(); 14] = [
        || print_e1(&e1_latency(&E1_SIZES, E1_HORIZON)),
        || {
            print_e2(&[
                e2_partition(Consistency::Eventual),
                e2_partition(Consistency::Strong),
            ])
        },
        || {
            let rows = e3_stable_leader(&E3_SIZES, &E3_SEEDS, &E3_DELAY, E3_BROADCASTS, E3_HORIZON);
            print_e3(&rows)
        },
        || print_e4(&e4_causal(&E4_RUN, &E4_DIVERGENCES)),
        || print_e5(&e5_transformations(&E5_SIZES, E5_BROADCASTS, E5_HORIZON)),
        || print_e6(&e6_ec_omega(&E6_CRASHES)),
        || print_e7(&e7_cht_extraction(E7_SEED)),
        || print_e8(&e8_convergence(&E8_GRID, E8_RUN_FOR)),
        || print_e9(&e9_eic(&E9_DIVERGENCES)),
        || print_e11(&e11_batching(&E11_BATCHES)),
        || print_e12(&delta::run_grid()),
        || print_e13(&compaction::run_grid_over(&E13_TABLE_GRID)),
        || print_a1(&a1_heartbeat(&A1_SIZES)),
        || print_a2(&a2_promote_period(&A2_PERIODS)),
    ];
    for (i, table) in tables.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        table();
    }
}
