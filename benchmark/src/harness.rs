//! Pieces every workload shares: the timed loop, the result of a run,
//! scratch directories, and peak memory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::spec;
use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// Iterations run and discarded before the first timed one.
pub const WARMUP_OPS: usize = 2;

/// Times the set-up runs at the least; `setup_s` is the median. A
/// set-up of milliseconds repeats until [`SETUP_MIN_TOTAL`] has passed,
/// so its median is not that of a few cold calls.
pub const SETUP_REPS: usize = 5;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);
const SETUP_MAX_REPS: usize = 500;

/// What one invocation was asked to do.
pub struct RunArgs {
    /// The workload's committed name.
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: scratch directories and trace files live here.
    pub out_dir: PathBuf,
}

/// Latencies of the operations of one measured window.
#[derive(Default)]
pub struct Samples {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub failed: u64,
}

impl Samples {
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.lat_ms)
    }
}

/// Run `op` for `seconds` (and at least `min_ops` times) after
/// [`WARMUP_OPS`] discarded calls. `op` returns whether its answer
/// matched the oracle; what it does outside `timed` is not measured.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(&mut OpTimer) -> bool,
) -> Samples {
    let mut timer = OpTimer::default();
    for _ in 0..WARMUP_OPS {
        op(&mut timer);
    }
    let mut out = Samples::default();
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline || out.lat_ms.len() < min_ops {
        timer.ns = 0;
        if !op(&mut timer) {
            out.failed += 1;
        }
        out.lat_ms.push(timer.ns as f64 / 1e6);
    }
    out.wall_s = window.elapsed().as_secs_f64();
    out
}

/// Accumulates the measured part of one operation.
#[derive(Default)]
pub struct OpTimer {
    ns: u64,
}

impl OpTimer {
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(t0.elapsed());
        r
    }

    pub fn add(&mut self, took: Duration) {
        self.ns += took.as_nanos() as u64;
    }
}

/// Per-layer metric values of a traced run. Setting a name that is not
/// in the committed table is a bug in the benchmark.
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: spec::per_layer()
                .into_iter()
                .map(|m| (m.name, 0.0))
                .collect(),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"));
        // Adding 0.0 turns the -0.0 an empty sum yields into 0.0.
        *slot = if value.is_finite() { value + 0.0 } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One sample per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced window (empty on a traced run).
    pub samples: Samples,
    /// Input tuples per second over the window, in millions.
    pub mtuples_per_s: f64,
    /// Percentile `op_tail_ms` is read at.
    pub tail_pct: f64,
    pub layers: Layers,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(tail_pct: f64) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            samples: Samples::default(),
            mtuples_per_s: 0.0,
            tail_pct,
            layers: Layers::new(),
            notes: Vec::new(),
        }
    }

    /// Record the set-up repetitions and whether the oracle agreed with
    /// the workload's own `expected_matches`.
    pub fn record_setup(&mut self, setup_s: Vec<f64>, oracle_ok: bool) {
        self.setup_s = setup_s;
        self.verify(oracle_ok);
    }

    /// Count one checked operation outside a timed window.
    pub fn verify(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Write the trace file and list each span name's self time.
    pub fn finish_trace(&mut self, tr: &Tracer, args: &RunArgs) {
        let path = args.out_dir.join(format!("{}.trace.json", args.workload));
        self.notes.push(match tr.write_chrome(&path) {
            Ok(()) => format!("trace: {} spans -> {}", tr.spans().len(), path.display()),
            Err(e) => format!("trace: could not write {}: {e}", path.display()),
        });
        for (name, (count, total, own)) in tr.totals() {
            self.notes.push(format!(
                "span {name}: n {count} total {:.3} ms self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
    }

    /// Record the untraced window; `tuples_per_op` gives throughput as
    /// input tuples over the median operation.
    pub fn set_window(&mut self, samples: Samples, tuples_per_op: f64) {
        self.mtuples_per_s = tuples_per_op / (samples.median_ms() * 1e3);
        self.count(&samples);
        self.samples = samples;
    }

    pub fn count(&mut self, samples: &Samples) {
        self.attempted += samples.lat_ms.len() as u64;
        self.failed += samples.failed;
    }

    /// The end-to-end metrics, in table order, with quartiles for the
    /// printed report.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, String)> {
        let lat = Summary::of(&self.samples.lat_ms);
        let mut sorted = self.samples.lat_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let setup = Summary::of(&self.setup_s);
        let spread = |s: &Summary| format!("q1 {:.4} q3 {:.4} n {}", s.q1, s.q3, s.n);
        vec![
            ("setup_s", setup.median, spread(&setup)),
            ("op_p50_ms", lat.median, spread(&lat)),
            (
                "op_tail_ms",
                stats::percentile(&sorted, self.tail_pct),
                format!(
                    "p{} of n {} (p90 {:.4} p95 {:.4} p99 {:.4})",
                    self.tail_pct,
                    lat.n,
                    stats::percentile(&sorted, 90.0),
                    stats::percentile(&sorted, 95.0),
                    stats::percentile(&sorted, 99.0)
                ),
            ),
            (
                "ops_per_s",
                lat.n as f64 / self.samples.wall_s,
                format!("{} ops in {:.3} s", lat.n, self.samples.wall_s),
            ),
            ("mtuples_per_s", self.mtuples_per_s, String::new()),
            ("peak_rss_mb", peak_rss_mb(), "VmHWM".to_string()),
        ]
    }
}

/// Run the set-up repeatedly, dropping each result before the next so
/// peak memory is that of one; returns the last and the times.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_REPS
        || (start.elapsed() < SETUP_MIN_TOTAL && times.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), times)
}

/// High-water resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A directory under `out_dir` that is removed when dropped, on
/// success and on failure alike.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create(args: &RunArgs) -> Scratch {
        let path = args
            .out_dir
            .join(format!("scratch-{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir under benchmark/out");
        Scratch { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory (re-created on each call).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create scratch sub-dir");
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Worker threads / client connections a load generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(traced - untraced) / untraced`, percent.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced - untraced) / untraced * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_committed_metric_is_emitted_and_no_other() {
        let mut out = Outcome::new(50.0);
        out.setup_s = vec![1.0];
        out.set_window(
            Samples {
                lat_ms: vec![1.0, 2.0, 3.0],
                wall_s: 1.0,
                failed: 0,
            },
            10.0,
        );
        let emitted: Vec<&str> = out.end_to_end().iter().map(|m| m.0).collect();
        let committed: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(emitted, committed);
        let layers = Layers::new();
        assert_eq!(layers.values.len(), spec::per_layer().len());
        assert!(spec::per_layer().iter().all(|m| layers.get(&m.name) == 0.0));
    }

    #[test]
    fn timed_loop_discards_warm_up_and_counts_failures() {
        let mut calls = 0;
        let s = timed_loop(0.0, 4, |t| {
            calls += 1;
            t.timed(|| calls % 2 == 0)
        });
        assert_eq!(calls, WARMUP_OPS + 4);
        assert_eq!((s.lat_ms.len(), s.failed), (4, 2));
    }
}
