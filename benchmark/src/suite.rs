//! The whole benchmark in one command: every workload, an untraced run
//! then a traced run, each in its own child process (so `peak_rss_mb`
//! is the workload's own), gathered into one summary file.

use std::path::Path;
use std::process::{Command, Stdio};

use phj_obs::{json, Json};

use crate::harness::nproc;
use crate::spec;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One contract run in a child process; its output is passed through
/// and its last line parsed.
fn child_run(workload: &str, seed: u64, trace: bool, out_dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &spec::RUN_SECONDS.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{workload}: no output"))?;
    json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

pub fn run(
    only: Option<&str>,
    seed: u64,
    out_file: Option<&str>,
    out_dir: &Path,
) -> Result<bool, String> {
    if let Some(w) = only {
        if !spec::WORKLOADS.iter().any(|x| x.name == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let header = Json::obj(vec![
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("nproc", Json::U64(nproc() as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("seed", Json::U64(seed)),
        ("run_seconds", Json::U64(spec::RUN_SECONDS)),
        ("warmup_ops", Json::U64(crate::harness::WARMUP_OPS as u64)),
        ("setup_reps", Json::U64(crate::harness::SETUP_REPS as u64)),
        ("scratch", Json::Str(out_dir.display().to_string())),
    ]);
    println!("{}", header.render());

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let untraced = child_run(w.name, seed, false, out_dir)?;
        let traced = child_run(w.name, seed, true, out_dir)?;
        let sum = |key: &str| {
            [&untraced, &traced]
                .iter()
                .filter_map(|r| r.get(key)?.as_u64())
                .sum::<u64>()
        };
        let correct = [&untraced, &traced]
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let metrics = |r: &Json| r.get("metrics").cloned().unwrap_or(Json::Obj(Vec::new()));
        workloads.push((
            w.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::U64(sum("attempted"))),
                ("failed", Json::U64(sum("failed"))),
                ("end_to_end", metrics(&untraced)),
                ("per_layer", metrics(&traced)),
            ]),
        ));
    }
    // This benchmark describes the system; it makes no performance claim.
    let summary = Json::obj(vec![
        ("header", header),
        ("workloads", Json::Obj(workloads)),
        ("claim", Json::Null),
    ]);
    let default_out = out_dir.join("summary.json");
    let path = out_file.map_or(default_out.as_path(), Path::new);
    std::fs::write(path, summary.render_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "summary: {} (correct: {all_correct}, \"claim\": null)",
        path.display()
    );
    Ok(all_correct)
}
