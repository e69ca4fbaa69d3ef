//! `--flightrec` takes `off` or `phase`: the recorder has one
//! granularity, so any other value is a usage error, and its journal is
//! read only through a postmortem, never through a run report.

use std::process::Command;

#[test]
fn flightrec_full_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("phj-flightrec-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_phj"))
        .args(["join", "--build-mb", "1", "--mem-mb", "1", "--flightrec", "full"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let postmortem = dir.join("postmortem.json").exists();
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--flightrec: unknown mode `full` (off|phase)"), "stderr: {stderr}");
    assert!(stderr.contains("USAGE:"), "usage follows: {stderr}");
    assert!(stderr.contains("--flightrec off|phase "), "usage names off|phase: {stderr}");
    assert!(out.stdout.is_empty(), "no join ran");
    assert!(!postmortem, "a usage error writes no postmortem");
}

/// With the recorder on (the default) a run report carries nothing from
/// it: the journal is read only through a postmortem.
#[test]
fn reports_carry_no_flightrec_section() {
    let dir = std::env::temp_dir().join(format!("phj-flightrec-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_phj"))
        .args(["join", "--build-mb", "1", "--mem-mb", "1", "--json", "run.json"])
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let text = std::fs::read_to_string(dir.join("run.json"));
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(out.status.success(), "{:?}; stderr: {stderr}", out.status);
    let text = text.unwrap_or_else(|e| panic!("no --json report: {e}; stderr: {stderr}"));
    assert!(text.contains("\"spans\""), "a full report was written");
    assert!(!text.contains("\"flightrec\""), "the report carries a flightrec section");
}
