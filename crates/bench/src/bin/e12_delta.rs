//! The `perf-smoke` entry point: runs the E12 grid (wire bytes, full-graph
//! vs delta wire format, history ∈ {100, 250, 500} on 5 processes) once and
//! writes the deterministic artifact `BENCH_delta.json` to the current
//! directory, and the same numbers as a human-readable table to stdout.

use ec_bench::delta::{grid_json, print_table, run_grid};

fn main() {
    println!("[E12] wire bytes vs history length: 5 processes, fixed-delay 2, loss-free");
    let pairs = run_grid();
    print_table(&pairs);
    let json = grid_json(&pairs);
    std::fs::write("BENCH_delta.json", &json).expect("write BENCH_delta.json");
    println!("wrote BENCH_delta.json");
}
