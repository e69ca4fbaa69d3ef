//! End-to-end exit-code contract of the `report_diff` binary.
//!
//! Regressions exit 1; every kind of broken input exits 2 with a
//! one-line typed error on stderr. Each error category has an on-disk
//! fixture under `tests/fixtures/` so the classification is pinned to
//! real bytes, not just in-process constructions.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report_diff"))
        .args(args)
        .output()
        .expect("spawn report_diff")
}

/// stderr must be exactly one line, starting with `error: <kind>:`.
fn assert_one_line_error(out: &Output, kind: &str) {
    assert_eq!(out.status.code(), Some(2), "expected exit 2, got {:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "expected one stderr line, got: {stderr:?}");
    let prefix = format!("error: {kind}: ");
    assert!(lines[0].starts_with(&prefix), "expected `{prefix}...`, got: {}", lines[0]);
}

/// A real report on disk, produced by the same serializer the engine
/// uses, so the happy path is exercised against genuine bytes too.
fn valid_report_file(dir: &std::path::Path, name: &str, busy: u64) -> PathBuf {
    let mut rec = phj_obs::Recorder::new();
    let mut cursor = phj_memsim::Snapshot::default();
    let id = rec.begin("run", cursor);
    cursor.breakdown.busy = busy;
    rec.end(id, cursor);
    let mut r = phj_obs::RunReport::from_recorder("join", rec, cursor, 0);
    r.simulated = true;
    let path = dir.join(name);
    std::fs::write(&path, r.render()).expect("write report");
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("report_diff_errors_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn missing_file_is_a_typed_unreadable_error() {
    let out = run(&["--check", "/nonexistent/definitely_missing.json"]);
    assert_one_line_error(&out, "unreadable file");
}

#[test]
fn truncated_json_fixture_is_typed_and_exits_2() {
    let path = fixture("truncated.json");
    let out = run(&["--check", path.to_str().unwrap()]);
    assert_one_line_error(&out, "truncated JSON");
}

#[test]
fn malformed_json_fixture_is_typed_and_exits_2() {
    let path = fixture("malformed.json");
    let out = run(&["--check", path.to_str().unwrap()]);
    assert_one_line_error(&out, "malformed JSON");
}

#[test]
fn invalid_report_fixture_is_typed_and_exits_2() {
    let path = fixture("invalid.json");
    let out = run(&["--check", path.to_str().unwrap()]);
    assert_one_line_error(&out, "invalid report");
}

#[test]
fn compare_mode_reports_broken_input_the_same_way() {
    let dir = temp_dir("cmp");
    let good = valid_report_file(&dir, "good.json", 1_000);
    // Broken new-side input: typed exit 2, not a bogus regression.
    let out = run(&[good.to_str().unwrap(), fixture("truncated.json").to_str().unwrap()]);
    assert_one_line_error(&out, "truncated JSON");
    let out = run(&[fixture("malformed.json").to_str().unwrap(), good.to_str().unwrap()]);
    assert_one_line_error(&out, "malformed JSON");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exit_codes_separate_regression_from_broken_input() {
    let dir = temp_dir("codes");
    let old = valid_report_file(&dir, "old.json", 1_000);
    let slow = valid_report_file(&dir, "slow.json", 2_000);
    // Healthy comparison of identical runs: exit 0.
    let out = run(&[old.to_str().unwrap(), old.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "identical runs should pass");
    // Genuine regression: exit 1, and stderr stays silent.
    let out = run(&[old.to_str().unwrap(), slow.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "100% slowdown should trip the tripwire");
    assert!(out.stderr.is_empty(), "regressions report on stdout only");
    // Usage errors share the broken-input exit code.
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_spellings_are_usage_errors() {
    let dir = temp_dir("retired");
    let old = valid_report_file(&dir, "old.json", 1_000);
    let slow = valid_report_file(&dir, "slow.json", 2_000);
    // The history modes and `--threshold-pct` are gone: their spellings
    // exit 2 as usage errors, and are neither read as file paths nor
    // silently compared.
    let (old, slow) = (old.to_str().unwrap(), slow.to_str().unwrap());
    for args in [
        &["--history", "3", old][..],
        &["--history-append", old, slow],
        &[old, slow, "--threshold-pct", "5"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: report_diff"), "{args:?}: {stderr:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
