//! The whole suite, and calibration over repeated suites. Every workload
//! runs in a fresh child process of this same binary, one at a time: the
//! box has two cores, and a fresh process gives every run a fresh heap and
//! a meaningful `VmHWM`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::spec::{bound_of, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{iqr_share, median};

/// The metrics of one child run, by name.
type Metrics = BTreeMap<String, f64>;

/// The number after `"name":{"value":` in a result line. The line is this
/// binary's own output, so a full JSON parser is not needed.
pub fn extract_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// Runs one workload in a child process; `None` if it failed, produced no
/// result line, or reported an incorrect run or a failed operation.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, quick: bool) -> Option<Metrics> {
    let exe = std::env::current_exe().ok()?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if quick {
        command.arg("--quick");
    }
    let output = command.output().ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?;
    let clean = line.contains("\"correct\":true") && line.contains("\"failed\":0,");
    if !output.status.success() || !clean {
        eprintln!("[{workload}] run FAILED: {line}");
        return None;
    }
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    names
        .into_iter()
        .map(|name| extract_value(line, name).map(|v| (name.to_string(), v)))
        .collect()
}

/// Runs every workload untraced, then traced, and prints every metric by
/// name with its unit. Non-zero exit if any run failed its checks.
pub fn run_all(seed: u64, seconds: f64, quick: bool) -> ExitCode {
    let mut timed: Vec<Option<Metrics>> = Vec::new();
    let mut traced: Vec<Option<Metrics>> = Vec::new();
    for workload in &WORKLOADS {
        eprintln!("== {} (untraced, seed {seed}, {seconds} s)", workload.name);
        timed.push(child(workload.name, seed, seconds, false, quick));
        eprintln!("== {} (traced)", workload.name);
        traced.push(child(workload.name, seed, seconds, true, quick));
    }
    let mut out = String::new();
    let header = |out: &mut String, title: &str| {
        let _ = write!(out, "\n{title:<36} {:>6}", "unit");
        for workload in &WORKLOADS {
            let _ = write!(out, " {:>14}", workload.name);
        }
        out.push('\n');
    };
    let row = |out: &mut String, name: &str, unit: &str, runs: &[Option<Metrics>]| {
        let _ = write!(out, "{name:<36} {unit:>6}");
        for run in runs {
            match run.as_ref().and_then(|m| m.get(name)) {
                Some(v) => {
                    let _ = write!(out, " {:>14}", format_value(*v));
                }
                None => {
                    let _ = write!(out, " {:>14}", "FAILED");
                }
            }
        }
        out.push('\n');
    };
    header(&mut out, "end-to-end (untraced run)");
    for (m, _) in &END_TO_END {
        row(&mut out, m.name, m.unit, &timed);
    }
    header(
        &mut out,
        "per layer (traced run; 0 = layer not on this workload's path)",
    );
    for m in PER_LAYER {
        row(&mut out, m.name, m.unit, &traced);
    }
    print!("{out}");
    if quick {
        println!("\n--quick: tenth-size inputs, numbers are for smoke-testing only");
    }
    let ok = timed.iter().chain(&traced).all(Option::is_some);
    println!("\nsuite: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Four significant digits, no exponent.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
    format!("{v:.digits$}")
}

/// Runs the untraced suite `runs` times with consecutive seeds, prints the
/// spread of every end-to-end metric and writes `CALIBRATION.md`.
pub fn calibrate(runs: usize, seed: u64, seconds: f64) -> ExitCode {
    let mut samples: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut failed_runs = 0usize;
    for r in 0..runs {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let run_seed = seed + r as u64;
            eprintln!(
                "== calibration run {}/{runs}: {} (seed {run_seed})",
                r + 1,
                workload.name
            );
            match child(workload.name, run_seed, seconds, false, false) {
                Some(metrics) => {
                    for (m, _) in &END_TO_END {
                        if let Some(v) = metrics.get(m.name) {
                            samples.entry((w, m.name)).or_default().push(*v);
                        }
                    }
                }
                None => failed_runs += 1,
            }
        }
    }
    let mut table = String::new();
    let _ = writeln!(
        table,
        "| workload | metric | unit | median | min | max | (max-min)/median | IQR/median | bound | within a third |"
    );
    let _ = writeln!(table, "|---|---|---|---|---|---|---|---|---|---|");
    let mut over = 0usize;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, _) in &END_TO_END {
            let Some(values) = samples.get(&(w, m.name)) else {
                continue;
            };
            let med = median(values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = iqr_share(values);
            let bound = bound_of(m.name).unwrap_or(0.0);
            // set-up time is compared by medians only: its spread is shown
            // but not held against the bound
            let gated = m.name != "setup_s";
            if gated && spread > bound {
                over += 1;
            }
            let verdict = if spread <= bound / 3.0 {
                "yes"
            } else if spread <= bound || !gated {
                "no"
            } else {
                "OVER BOUND"
            };
            let _ = writeln!(
                table,
                "| {} | {} | {} | {} | {} | {} | {:.1} % | {:.1} % | {:.0} % | {verdict} |",
                workload.name,
                m.name,
                m.unit,
                format_value(med),
                format_value(min),
                format_value(max),
                (max - min) / med * 100.0,
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    print!("{table}");
    let direction = |b: Better| match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let mut doc = String::new();
    let _ = writeln!(doc, "# Calibration\n");
    let _ = writeln!(
        doc,
        "Written by `cargo run --release --manifest-path benchmark/Cargo.toml -- --calibrate {runs} --seed {seed}`: \
         {runs} untraced suites of {seconds} s runs, seeds {seed}..={}, every workload in a fresh process, one at a time, \
         on a machine with {} hardware threads. `IQR/median` is the distance between the first and third quartile \
         (Python's `statistics.quantiles(values, n=4)`) as a share of the median — the spread the acceptance rule \
         compares with each metric's bound; the aim is a third of the bound. {failed_runs} run(s) failed their checks.\n",
        seed + runs as u64 - 1,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    doc.push_str(&table);
    let _ = writeln!(
        doc,
        "\nDirections: {}.",
        END_TO_END
            .iter()
            .map(|(m, _)| format!("`{}` {} is better", m.name, direction(m.better)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = crate::out_dir().with_file_name("CALIBRATION.md");
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    if failed_runs == 0 && over == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_read_back_from_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
                    \"latency_p50_ms\":{\"value\":45.125,\"unit\":\"ms\"},\
                    \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
                    \"net.p99_ms.r200\":{\"value\":0,\"unit\":\"ms\"}}}";
        assert_eq!(extract_value(line, "latency_p50_ms"), Some(45.125));
        assert_eq!(extract_value(line, "setup_s"), Some(0.5));
        assert_eq!(extract_value(line, "net.p99_ms.r200"), Some(0.0));
        assert_eq!(extract_value(line, "latency_p90_ms"), None);
    }

    #[test]
    fn values_print_with_four_significant_digits() {
        assert_eq!(format_value(91_234.56), "91235");
        assert_eq!(format_value(45.1251), "45.13");
        assert_eq!(format_value(0.24131), "0.2413");
        assert_eq!(format_value(0.0), "0");
    }
}
