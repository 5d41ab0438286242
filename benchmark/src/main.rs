//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ec-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one run; the last line of stdout is the result object
//! ec-benchmark [--seed <n>] [--seconds <s>] [--quick]
//!     the whole suite: every workload untraced, then traced, each in a
//!     fresh child process, never two at once; prints every metric by name
//! ec-benchmark --calibrate [N]     N untraced suites → CALIBRATION.md
//! ec-benchmark --selfcheck         determinism of the simulator workloads
//! ec-benchmark --emit-spec         prints BENCHMARK.json
//! ```

mod check;
mod inputs;
mod json;
mod lockstep;
mod net;
mod openloop;
mod probes;
mod procfs;
mod report;
mod sim;
mod spans;
mod spec;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunResult;

/// What one run of one workload is configured with.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time to aim for, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the timed one.
    pub trace: bool,
    /// Tenth-size inputs and times: same code paths, numbers not gated.
    pub quick: bool,
    /// Where data directories and trace files go.
    pub out_dir: PathBuf,
}

/// `benchmark/out`, next to this crate's manifest.
fn out_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest.join("out")
}

/// Runs `workload` once in this process.
fn run_workload(workload: &str, options: &Options) -> Option<RunResult> {
    match workload {
        "sim-steady" | "sim-history" => Some(sim::run(workload, options)),
        "net-ladder" => Some(net::ladder(options)),
        "net-durable" => Some(net::durable(options)),
        "net-failover" => Some(net::failover(options)),
        _ => None,
    }
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    calibrate: Option<usize>,
    selfcheck: bool,
    emit_spec: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--emit-spec" => args.emit_spec = true,
            "--calibrate" => {
                // the count is optional: `--calibrate` alone means 5
                let n = it.clone().next().and_then(|v| v.parse::<usize>().ok());
                if n.is_some() {
                    it.next();
                }
                args.calibrate = Some(n.unwrap_or(5).max(2));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ec-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        let violations = spec::violations();
        if !violations.is_empty() {
            eprintln!("ec-benchmark: the spec tables break the contract: {violations:?}");
            return ExitCode::FAILURE;
        }
        print!("{}", spec::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    let seed = args.seed.unwrap_or(1);
    if args.selfcheck {
        let findings = sim::selfcheck(seed, args.quick);
        for finding in &findings {
            eprintln!("selfcheck FAILED: {finding}");
        }
        println!(
            "selfcheck: {}",
            if findings.is_empty() { "ok" } else { "FAILED" }
        );
        return if findings.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let default_seconds = if args.quick {
        spec::RUN_SECONDS as f64 / 10.0
    } else {
        spec::RUN_SECONDS as f64
    };
    let seconds = args.seconds.unwrap_or(default_seconds);
    if let Some(runs) = args.calibrate {
        return suite::calibrate(runs, seed, seconds);
    }
    let Some(workload) = args.workload else {
        return suite::run_all(seed, seconds, args.quick);
    };
    let options = Options {
        seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    };
    let Some(result) = run_workload(&workload, &options) else {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "ec-benchmark: no workload {workload}; choose one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    for note in &result.notes {
        eprintln!("[{workload}] {note}");
    }
    for failure in &result.verdict.failures {
        eprintln!("[{workload}] CHECK FAILED: {failure}");
    }
    println!("{}", result.result_line(options.trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
