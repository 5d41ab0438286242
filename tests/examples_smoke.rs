//! Smoke test: every example binary must run to completion.
//!
//! Examples are documentation that compiles; this test makes them
//! documentation that *runs*, so example rot is caught by `cargo test` / CI
//! rather than by the next reader.

use std::process::Command;

const EXAMPLES: [&str; 7] = [
    "quickstart",
    "leader_extraction",
    "partitioned_kv",
    "runtime_demo",
    "chaos_demo",
    "net_kv",
    "telemetry_demo",
];

/// Runs all examples sequentially in one test so concurrent `cargo run`
/// invocations don't contend for the build lock mid-test.
#[test]
fn all_examples_run_to_completion() {
    let cargo = env!("CARGO");
    for example in EXAMPLES {
        let output = Command::new(cargo)
            .args(["run", "--quiet", "--example", example])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {example}: {e}"));
        assert!(
            output.status.success(),
            "example `{example}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
