//! Append-only perf-trajectory archive.
//!
//! One JSON line per run, keyed by a config fingerprint, so a slug's
//! history can mix configurations without trend detection comparing
//! apples to oranges: `bench_out/history/<slug>.jsonl` accumulates
//! forever, and [`trend`] only reads the last `N` records whose
//! fingerprint matches the newest one. A regression is a *monotone*
//! worsening across that whole window — one slow run is noise, `N`
//! successively slower runs are a trajectory.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use phj_obs::json::{FromJson, ToJson};
use phj_obs::{json_record, RunReport};

/// Format version stamped into every record.
pub const HISTORY_VERSION: u64 = 1;

/// How many same-fingerprint records [`trend`] considers by default.
pub const DEFAULT_WINDOW: usize = 3;

/// One archived run: identity (slug + config fingerprint + timestamp)
/// and the headline metrics the trend detector watches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistoryRecord {
    /// Record format version ([`HISTORY_VERSION`]).
    pub version: u64,
    /// The archive name (CLI command or bench slug).
    pub slug: String,
    /// FNV-1a 64 hex digest of the run's config fingerprint.
    pub fingerprint: String,
    /// Unix seconds when the record was appended.
    pub unix_s: u64,
    /// Whether the run drove the cycle simulator.
    pub simulated: bool,
    /// Total simulated cycles (0 for native runs).
    pub cycles: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// Input tuples processed.
    pub tuples: u64,
    /// Measured prefetch coverage in `[0, 1]`.
    pub coverage: f64,
    /// Measured pollution rate in `[0, 1]`.
    pub pollution: f64,
}

// One archive line, key by key.
json_record! {
    impl HistoryRecord {
        "v" => rw(version),
        "slug" => rw(slug),
        "fingerprint" => rw(fingerprint),
        "unix_s" => rw(unix_s),
        "simulated" => rw(simulated),
        "cycles" => rw(cycles),
        "wall_ns" => rw(wall_ns),
        "tuples" => rw(tuples),
        "coverage" => rw(coverage),
        "pollution" => rw(pollution),
    }
}

/// FNV-1a 64 over a run's identity: command, simulated flag, and every
/// config key–value pair in recorded order. Two runs with the same
/// digest are comparable points on one trajectory.
pub fn fingerprint(command: &str, simulated: bool, config: &[(String, String)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(command.as_bytes());
    eat(&[simulated as u8, 0x1f]);
    for (k, v) in config {
        eat(k.as_bytes());
        eat(b"=");
        eat(v.as_bytes());
        eat(&[0x1f]);
    }
    format!("{h:016x}")
}

impl HistoryRecord {
    /// Build a record from a run report. `unix_s` is passed in rather
    /// than read here so library code stays clock-free (and tests stay
    /// deterministic).
    pub fn from_report(slug: &str, report: &RunReport, unix_s: u64) -> HistoryRecord {
        HistoryRecord {
            version: HISTORY_VERSION,
            slug: slug.to_string(),
            fingerprint: fingerprint(&report.command, report.simulated, &report.config),
            unix_s,
            simulated: report.simulated,
            cycles: report.totals.breakdown.total(),
            wall_ns: report.wall_ns,
            tuples: report.tuples,
            coverage: report.prefetch_coverage(),
            pollution: report.pollution_rate(),
        }
    }

    /// Build a record from raw metrics (the bench runner path, which has
    /// snapshots but no full report).
    #[allow(clippy::too_many_arguments)]
    pub fn from_metrics(
        slug: &str,
        config: &[(String, String)],
        unix_s: u64,
        cycles: u64,
        wall_ns: u64,
        tuples: u64,
        coverage: f64,
        pollution: f64,
    ) -> HistoryRecord {
        HistoryRecord {
            version: HISTORY_VERSION,
            slug: slug.to_string(),
            fingerprint: fingerprint(slug, cycles > 0, config),
            unix_s,
            simulated: cycles > 0,
            cycles,
            wall_ns,
            tuples,
            coverage,
            pollution,
        }
    }

    /// Serialize as one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().render()
    }

    /// Parse one archive line.
    pub fn parse_line(line: &str) -> Result<HistoryRecord, String> {
        let doc = phj_obs::json::parse(line).map_err(|e| e.to_string())?;
        let rec = HistoryRecord::from_json(&doc)?;
        if rec.version != HISTORY_VERSION {
            return Err(format!("unsupported history version {}", rec.version));
        }
        Ok(rec)
    }
}

/// Append one record to an archive file, creating parent directories as
/// needed. Append-only by construction: the file is never rewritten.
pub fn append(path: &Path, rec: &HistoryRecord) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{}", rec.to_line())
}

/// Load an archive file (blank lines are skipped; a malformed line is an
/// error naming its line number).
pub fn load(path: &Path) -> Result<Vec<HistoryRecord>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| {
            HistoryRecord::parse_line(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The trend verdict over one archive.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// The fingerprint of the newest record (the trajectory examined).
    pub fingerprint: String,
    /// How many same-fingerprint records were actually compared.
    pub considered: usize,
    /// Metrics regressing monotonically across the whole window, worst
    /// first by relative change. Empty means the trajectory is healthy.
    pub regressing: Vec<String>,
}

/// Monotone-trend detection: take the last `n` records sharing the
/// newest record's fingerprint and flag every metric that worsened at
/// *every* step and by more than a noise floor in total (1% relative for
/// cycles, 5% for wall time, 0.01 absolute for the rate metrics). Fewer
/// than `n` comparable records — or `n < 2` — flags nothing: a
/// trajectory needs points.
pub fn trend(records: &[HistoryRecord], n: usize) -> Trend {
    let Some(last) = records.last() else {
        return Trend { fingerprint: String::new(), considered: 0, regressing: Vec::new() };
    };
    let window: Vec<&HistoryRecord> = records
        .iter()
        .filter(|r| r.fingerprint == last.fingerprint)
        .collect();
    let window = &window[window.len().saturating_sub(n)..];
    let mut regressing = Vec::new();
    if n >= 2 && window.len() >= n {
        // (name, per-record value, true = higher is worse, total-change floor,
        // floor is relative rather than absolute)
        type Metric = (&'static str, fn(&HistoryRecord) -> f64, bool, f64, bool);
        let metrics: [Metric; 4] = [
            ("cycles", |r| r.cycles as f64, true, 0.01, true),
            ("wall_ns", |r| r.wall_ns as f64, true, 0.05, true),
            ("coverage", |r| r.coverage, false, 0.01, false),
            ("pollution", |r| r.pollution, true, 0.01, false),
        ];
        for (name, get, higher_worse, floor, relative) in metrics {
            let vals: Vec<f64> = window.iter().map(|r| get(r)).collect();
            let monotone = vals
                .windows(2)
                .all(|w| if higher_worse { w[1] > w[0] } else { w[1] < w[0] });
            if !monotone {
                continue;
            }
            let (first, last_v) = (vals[0], vals[vals.len() - 1]);
            let change = if higher_worse { last_v - first } else { first - last_v };
            let threshold = if relative { floor * first.abs().max(1.0) } else { floor };
            if change > threshold {
                regressing.push(name.to_string());
            }
        }
    }
    Trend { fingerprint: last.fingerprint.clone(), considered: window.len(), regressing }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(unix_s: u64, cycles: u64, coverage: f64) -> HistoryRecord {
        HistoryRecord {
            version: HISTORY_VERSION,
            slug: "join".into(),
            fingerprint: "abcd".into(),
            unix_s,
            simulated: true,
            cycles,
            wall_ns: 1_000_000,
            tuples: 1000,
            coverage,
            pollution: 0.01,
        }
    }

    #[test]
    fn record_round_trips() {
        let r = rec(7, 123, 0.5);
        let back = HistoryRecord::parse_line(&r.to_line()).unwrap();
        assert_eq!(back, r);
        assert!(HistoryRecord::parse_line("{}").is_err());
        assert!(HistoryRecord::parse_line("not json").is_err());
    }

    #[test]
    fn fingerprint_depends_on_config() {
        let a = fingerprint("join", true, &[("g".into(), "16".into())]);
        let b = fingerprint("join", true, &[("g".into(), "8".into())]);
        let c = fingerprint("join", false, &[("g".into(), "16".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint("join", true, &[("g".into(), "16".into())]));
    }

    #[test]
    fn flat_trajectory_is_healthy() {
        let recs = vec![rec(1, 100, 0.9), rec(2, 100, 0.9), rec(3, 100, 0.9)];
        let t = trend(&recs, 3);
        assert_eq!(t.considered, 3);
        assert!(t.regressing.is_empty());
    }

    #[test]
    fn monotone_slowdown_is_flagged() {
        let recs = vec![rec(1, 100, 0.9), rec(2, 120, 0.8), rec(3, 150, 0.7)];
        let t = trend(&recs, 3);
        assert_eq!(t.regressing, vec!["cycles".to_string(), "coverage".to_string()]);
    }

    #[test]
    fn non_monotone_or_tiny_changes_are_not_flagged() {
        // Dip-then-recover is not a trend.
        let recs = vec![rec(1, 100, 0.9), rec(2, 150, 0.9), rec(3, 120, 0.9)];
        assert!(trend(&recs, 3).regressing.is_empty());
        // Monotone but under the 1% floor.
        let recs = vec![rec(1, 100_000, 0.9), rec(2, 100_100, 0.9), rec(3, 100_200, 0.9)];
        assert!(trend(&recs, 3).regressing.is_empty());
    }

    #[test]
    fn foreign_fingerprints_do_not_mix() {
        let mut other = rec(2, 1_000_000, 0.1);
        other.fingerprint = "ffff".into();
        // Only two comparable records in a window of 3: no verdict.
        let recs = vec![rec(1, 100, 0.9), other, rec(3, 200, 0.5)];
        let t = trend(&recs, 3);
        assert_eq!(t.considered, 2);
        assert!(t.regressing.is_empty());
    }

    #[test]
    fn append_and_load_round_trip() {
        let dir = std::env::temp_dir().join("phj_history_test");
        let path = dir.join("nested").join("join.jsonl");
        let _ = std::fs::remove_file(&path);
        append(&path, &rec(1, 100, 0.9)).unwrap();
        append(&path, &rec(2, 110, 0.8)).unwrap();
        let recs = load(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].cycles, 110);
        let _ = std::fs::remove_file(&path);
    }
}
