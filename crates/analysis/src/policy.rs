//! The per-crate policy matrix and the workspace walker.
//!
//! Policies are keyed by the directory name under `crates/`. The matrix is
//! the enforcement contract of the workspace:
//!
//! | crate            | determinism | panic-safety | lock-discipline | wire-hygiene |
//! |------------------|-------------|--------------|-----------------|--------------|
//! | `core`           | ✓           | ✓            |                 | ✓            |
//! | `sim`            | ✓           | ✓            |                 | ✓            |
//! | `detectors`      | ✓           | ✓            |                 | ✓            |
//! | `cht`            | ✓           | ✓            |                 | ✓            |
//! | `replication`    | ✓           | ✓            | ✓               | ✓            |
//! | `storage`        | ✓           | ✓            |                 | ✓            |
//! | `telemetry`      | ✓           | ✓            |                 | ✓            |
//! | `chaos`          | ✓           | ✓            |                 | ✓            |
//! | root `src/`      | ✓           | ✓            |                 | ✓            |
//! | `runtime`        |             | ✓            | ✓               | ✓            |
//! | `bench`          | exempt (measures wall-clock by design)              |
//! | `analysis`       | exempt (the analyzer itself)                        |
//!
//! `ec-runtime` is the real-time runtime of both real-time engines: wall
//! clock and OS scheduling are its whole point, so determinism rules would be
//! noise there — but its node loop takes every peer message of a deployment,
//! so nothing reachable from it may panic. `ec-replication` also spawns OS
//! threads (the socket-backed net engine's accept, reader and writer
//! threads), so it carries lock-discipline on top of the strict
//! deterministic row. Vendored stubs under `vendor/` are not walked.

use crate::model::FileModel;
use crate::report::{Finding, Report};
use crate::rules::{self, RuleSet, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Returns the rule families enforced for a crate directory name under
/// `crates/`, or `None` if the crate is exempt.
pub fn crate_policy(dir_name: &str) -> Option<RuleSet> {
    let deterministic = RuleSet {
        determinism: true,
        panic_safety: true,
        lock_discipline: false,
        wire_hygiene: true,
    };
    match dir_name {
        // `storage` is on the strict row deliberately: it talks to the
        // filesystem, but recovery must still be a pure function of the bytes
        // on disk — no wall clock, no ambient randomness, no unordered maps.
        // `telemetry` likewise: it *abstracts* time behind `Clock`, and must
        // never read a wall clock itself, or sim runs lose reproducibility.
        "core" | "sim" | "detectors" | "cht" | "storage" | "telemetry" | "chaos" => {
            Some(deterministic)
        }
        // `replication` spawns OS threads (the socket net engine), so it
        // gets lock-discipline on top of the strict deterministic row.
        "replication" => Some(RuleSet {
            lock_discipline: true,
            ..deterministic
        }),
        // the real-time node loop lives here: everything but determinism
        "runtime" => Some(RuleSet {
            determinism: false,
            ..RuleSet::all()
        }),
        "bench" | "analysis" => None,
        // an unknown crate gets the strict policy by default: opting out must
        // be a deliberate edit here, not an accident of naming
        _ => Some(deterministic),
    }
}

/// Analyzes the whole workspace rooted at `root`: every non-exempt crate
/// under `crates/`, plus the umbrella sources under `src/`.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let mut report = Report {
        root: root.display().to_string(),
        findings: Vec::new(),
    };
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let path = entry?.path();
            if path.is_dir() {
                crate_dirs.push(path);
            }
        }
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let Some(name) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        let Some(policy) = crate_policy(&name) else {
            continue;
        };
        analyze_tree_into(&dir.join("src"), root, &policy, &mut report)?;
    }
    // the umbrella crate's sources live at the workspace root
    analyze_tree_into(&root.join("src"), root, &RuleSet::all(), &mut report)?;
    report.sort();
    Ok(report)
}

/// Analyzes one directory tree (all `.rs` files, recursively) as a single
/// crate under the given rule set. Paths in findings are reported relative to
/// `rel_base`. Used both by the workspace walk and by the fixture tests.
pub fn analyze_tree(tree: &Path, rel_base: &Path, rules: &RuleSet) -> io::Result<Report> {
    let mut report = Report {
        root: rel_base.display().to_string(),
        findings: Vec::new(),
    };
    analyze_tree_into(tree, rel_base, rules, &mut report)?;
    report.sort();
    Ok(report)
}

fn analyze_tree_into(
    tree: &Path,
    rel_base: &Path,
    rules: &RuleSet,
    report: &mut Report,
) -> io::Result<()> {
    if !tree.is_dir() {
        return Ok(());
    }
    let mut paths = Vec::new();
    collect_rs_files(tree, &mut paths)?;
    paths.sort();

    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        let source = fs::read_to_string(p)?;
        let rel = p
            .strip_prefix(rel_base)
            .unwrap_or(p)
            .display()
            .to_string()
            .replace('\\', "/");
        files.push(SourceFile {
            path: rel,
            model: FileModel::build(&source),
        });
    }

    let mut findings = rules::run(&files, rules);
    let mut meta: Vec<Finding> = Vec::new();
    for f in &files {
        let allows = rules::parse_allows(&f.model.comments);
        meta.extend(rules::apply_allows(&mut findings, &allows, &f.path));
    }
    report.findings.extend(findings);
    report.findings.extend(meta);
    Ok(())
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_matrix_matches_the_contract() {
        for strict in [
            "core",
            "sim",
            "detectors",
            "cht",
            "storage",
            "telemetry",
            "chaos",
        ] {
            let p = crate_policy(strict).expect("strict crates have a policy");
            assert!(p.determinism && p.panic_safety && p.wire_hygiene);
            assert!(!p.lock_discipline);
        }
        // replication is strict *plus* lock-discipline: it spawns the
        // socket net engine threads
        let rep = crate_policy("replication").expect("replication has a policy");
        assert!(rep.determinism && rep.panic_safety && rep.wire_hygiene);
        assert!(rep.lock_discipline);
        let rt = crate_policy("runtime").expect("runtime has a policy");
        assert!(rt.lock_discipline && rt.wire_hygiene && rt.panic_safety);
        assert!(!rt.determinism);
        assert!(crate_policy("bench").is_none());
        assert!(crate_policy("analysis").is_none());
        // unknown crates default to strict
        assert!(crate_policy("netengine").is_some());
    }
}
