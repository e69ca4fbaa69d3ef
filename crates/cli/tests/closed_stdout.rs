//! A reader that closes its end of `phj`'s stdout (`phj help | head -1`)
//! ends the run cleanly: no panic, no postmortem in the working directory.

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
