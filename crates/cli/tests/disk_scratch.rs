//! `phj disk` owns only the scratch directory it creates, and removes it
//! on every exit path. Each case runs in its own working directory: a
//! typed failure writes `postmortem.json` there.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory for one case.
fn workdir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phj-disk-scratch-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn phj_disk(cwd: &Path, extra: &[&str], scratch: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_phj"))
        .args(["disk", "--build-mb", "1", "--mem-mb", "1"])
        .args(extra)
        .arg("--dir")
        .arg(scratch)
        .current_dir(cwd)
        .output()
        .unwrap()
}

#[test]
fn an_existing_dir_is_refused_and_left_alone() {
    let cwd = workdir("existing");
    let scratch = cwd.join("mine");
    std::fs::create_dir(&scratch).unwrap();
    let sentinel = scratch.join("keep.txt");
    std::fs::write(&sentinel, "not phj's").unwrap();

    let out = phj_disk(&cwd, &[], &scratch);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let kept = std::fs::read_to_string(&sentinel);
    let staged = std::fs::read_dir(&scratch).map(|d| d.count()).unwrap_or(0);
    std::fs::remove_dir_all(&cwd).unwrap();

    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(&scratch.display().to_string()), "error names the dir: {stderr}");
    assert!(stderr.contains("already exists"), "stderr: {stderr}");
    assert_eq!(kept.as_deref().ok(), Some("not phj's"), "the sentinel survives");
    assert_eq!(staged, 1, "nothing was staged next to the sentinel");
}

#[test]
fn a_failed_run_removes_the_dir_it_created() {
    let cwd = workdir("failed");
    let scratch = cwd.join("scratch");

    let out = phj_disk(&cwd, &["--fault-plan", "permanent=10000"], &scratch);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let left = scratch.exists();
    std::fs::remove_dir_all(&cwd).unwrap();

    assert!(!out.status.success(), "every I/O fails permanently; stderr: {stderr}");
    assert!(stderr.contains("error:"), "a typed error, not a panic: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(!left, "the scratch directory outlived the failed run");
}
