//! A reader that closes its end of `phj`'s stdout (`phj help | head -1`)
//! does not cut the run short: the rest of the output is dropped, the
//! command finishes and exits cleanly — no panic, no postmortem in the
//! working directory.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("phj-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // The reader end is closed before the child starts, so its first
    // write to stdout fails with EPIPE whatever the timing.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_phj"))
        .arg("help")
        .current_dir(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let postmortem = dir.join("postmortem.json").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!postmortem, "a postmortem was written; stderr: {stderr}");
    assert!(out.status.success(), "{:?}; stderr: {stderr}", out.status);
}

/// A command whose reader has gone still runs to its end: `phj disk`
/// writes its `--json` report, removes its scratch directory and exits
/// with its own status.
#[test]
fn closed_stdout_still_writes_the_report_and_cleans_up() {
    let dir = std::env::temp_dir().join(format!("phj-closed-stdout-disk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scratch = dir.join("scratch");
    let report = dir.join("run.json");
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_phj"))
        .args(["disk", "--build-mb", "1", "--mem-mb", "1", "--dir"])
        .arg(&scratch)
        .arg("--json")
        .arg(&report)
        .current_dir(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let text = std::fs::read_to_string(&report);
    let scratch_left = scratch.exists();
    let postmortem = dir.join("postmortem.json").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!postmortem, "a postmortem was written; stderr: {stderr}");
    assert!(out.status.success(), "{:?}; stderr: {stderr}", out.status);
    let text = text.unwrap_or_else(|e| panic!("no --json report: {e}; stderr: {stderr}"));
    let run = phj_obs::RunReport::parse(&text).expect("the report parses");
    run.validate().expect("and validates");
    assert_eq!(run.command, "disk");
    assert!(!scratch_left, "the scratch directory was left behind");
}
