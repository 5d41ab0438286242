//! End-to-end tests: the fixture corpus under `tests/fixtures/src/` pins
//! every rule family (positives and allowlisted negatives with exact line
//! numbers), and the live workspace must come back clean.

use ec_analysis::{analyze_tree, analyze_workspace, rule_ids, RuleSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn fixture_corpus_pins_every_rule_family() {
    let dir = fixtures_root().join("src");
    let report = analyze_tree(&dir, &dir, &RuleSet::all()).expect("fixtures readable");
    let got: Vec<(&str, u32, &str, bool)> = report
        .findings
        .iter()
        .map(|f| {
            (
                f.file.as_str(),
                f.line,
                f.rule.as_str(),
                f.allowed.is_some(),
            )
        })
        .collect();
    let expected = vec![
        ("determinism.rs", 3, rule_ids::HASH_COLLECTIONS, false),
        ("determinism.rs", 6, rule_ids::WALL_CLOCK, false),
        ("determinism.rs", 11, rule_ids::AMBIENT_RAND, false),
        ("determinism.rs", 17, rule_ids::WALL_CLOCK, true),
        // the declaration and the constructor call on the same line
        ("determinism.rs", 22, rule_ids::HASH_COLLECTIONS, true),
        ("determinism.rs", 22, rule_ids::HASH_COLLECTIONS, true),
        ("lock_discipline.rs", 5, rule_ids::NESTED_LOCK, false),
        ("lock_discipline.rs", 11, rule_ids::SEND_UNDER_LOCK, false),
        ("lock_discipline.rs", 24, rule_ids::NESTED_LOCK, true),
        ("meta_allows.rs", 3, rule_ids::MALFORMED_ALLOW, false),
        ("meta_allows.rs", 6, rule_ids::UNUSED_ALLOW, false),
        ("panic_safety.rs", 4, rule_ids::UNWRAP, false),
        ("panic_safety.rs", 10, rule_ids::PANIC, false),
        ("panic_safety.rs", 16, rule_ids::INDEX, true),
        ("panic_safety_loop.rs", 4, rule_ids::INDEX, false),
        ("panic_safety_loop.rs", 9, rule_ids::EXPECT, true),
        ("wire_hygiene.rs", 6, rule_ids::UNHANDLED_VARIANT, false),
        ("wire_hygiene.rs", 8, rule_ids::UNHANDLED_VARIANT, true),
    ];
    assert_eq!(got, expected);
}

#[test]
fn fixture_counts_and_allow_reasons() {
    let dir = fixtures_root().join("src");
    let report = analyze_tree(&dir, &dir, &RuleSet::all()).expect("fixtures readable");
    assert_eq!(report.denied().count(), 9);
    assert_eq!(report.allowed().count(), 7);
    assert_eq!(report.meta().count(), 2);
    for f in report.allowed() {
        let reason = f.allowed.as_deref().expect("allowed finding has a reason");
        assert!(
            !reason.trim().is_empty(),
            "empty allow reason on {}:{}",
            f.file,
            f.line
        );
    }
}

#[test]
fn workspace_has_no_denied_findings() {
    let report = analyze_workspace(&workspace_root()).expect("workspace readable");
    let denied: Vec<String> = report
        .denied()
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.rule))
        .collect();
    assert!(
        denied.is_empty(),
        "denied findings in workspace: {denied:#?}"
    );
    let meta: Vec<String> = report
        .meta()
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.rule))
        .collect();
    assert!(meta.is_empty(), "meta findings in workspace: {meta:#?}");
    // every deliberate exception must carry a non-empty justification
    for f in report.allowed() {
        let reason = f.allowed.as_deref().expect("allowed finding has a reason");
        assert!(
            !reason.trim().is_empty(),
            "empty allow reason on {}:{}",
            f.file,
            f.line
        );
    }
}

#[test]
fn cli_exit_codes_and_json_report() {
    let bin = env!("CARGO_BIN_EXE_ec-analysis");
    let json_path = std::env::temp_dir().join("ec-analysis-fixture-report.json");

    // the fixture tree (shaped like a workspace: just a src/) must fail
    let out = Command::new(bin)
        .arg("--root")
        .arg(fixtures_root())
        .arg("--deny-all")
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "fixtures must be denied");
    let json = std::fs::read_to_string(&json_path).expect("json report written");
    assert!(
        json.contains("\"counts\": { \"total\": 18, \"denied\": 9, \"allowed\": 7, \"meta\": 2 }"),
        "unexpected counts in: {json}"
    );

    // the live workspace must pass, even under --deny-all
    let out = Command::new(bin)
        .arg("--root")
        .arg(workspace_root())
        .arg("--deny-all")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
