//! The `perf-smoke` entry point for E13: runs the compaction grid
//! (resident graph size and wire bytes, compaction on vs off,
//! ops ∈ {10k, 30k, 100k} on 3 processes) once and writes the deterministic
//! artifact `BENCH_compaction.json` to the current directory, and the same
//! numbers as a human-readable table to stdout.

use ec_bench::compaction::{grid_json, print_table, run_grid};

fn main() {
    println!(
        "[E13] resident state vs history length: 3 processes, fixed-delay 2, \
         loss-free, fold chunk 64"
    );
    let pairs = run_grid();
    print_table(&pairs);
    let json = grid_json(&pairs);
    std::fs::write("BENCH_compaction.json", &json).expect("write BENCH_compaction.json");
    println!("wrote BENCH_compaction.json");
}
