//! Compare two structured run reports (`phj ... --json`) or validate one.
//!
//! ```text
//! report_diff --check RUN.json
//! report_diff OLD.json NEW.json [--tolerance P]
//! ```
//!
//! Compare mode prints the total-cycle (or wall-clock, for native runs)
//! delta plus the derived-rate changes, and exits non-zero when the new
//! run regresses beyond the tolerance (default 5%) — a CI tripwire for
//! "did this change make the join slower?".
//!
//! A per-phase breakdown diffs spans by name. The two runs' span sets
//! may differ — a `--threads N` run has worker-lane spans a sequential
//! run lacks — so only the shared names are diffed, and the unmatched
//! ones are listed in a warning rather than treated as an error.
//!
//! Exit codes: 0 = ok, 1 = regression beyond tolerance, 2 = usage /
//! unreadable / invalid report. Exit 2 load failures print one line on
//! stderr, `error: <kind>: <detail>`, where `<kind>` is a stable
//! category (`unreadable file`, `truncated JSON`, `malformed JSON`,
//! `invalid report`) CI scripts can match on — a truncated artifact
//! upload and a genuine regression must never look alike.
//!
//! Performance *trajectory* across commits is not this tool's job:
//! `benchmark/run.sh --compare` owns it.

use phj_obs::RunReport;
use std::fmt;
use std::process::ExitCode;

const DEFAULT_TOLERANCE_PCT: f64 = 5.0;

/// Why a report failed to load. Every variant exits 2; the category
/// keeps "your input is broken" distinct from "your join got slower"
/// (exit 1) in CI logs.
#[derive(Debug, PartialEq, Eq)]
enum LoadError {
    /// The file could not be read at all (missing, permissions, ...).
    Unreadable(String),
    /// JSON syntax failed at end of input: the document was cut short.
    TruncatedJson(String),
    /// JSON syntax failed mid-document.
    MalformedJson(String),
    /// Syntactically valid JSON that is not a well-formed run report.
    InvalidReport(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Unreadable(d) => write!(f, "unreadable file: {d}"),
            LoadError::TruncatedJson(d) => write!(f, "truncated JSON: {d}"),
            LoadError::MalformedJson(d) => write!(f, "malformed JSON: {d}"),
            LoadError::InvalidReport(d) => write!(f, "invalid report: {d}"),
        }
    }
}

/// Classify a JSON syntax error: failure at (or past) the last
/// non-whitespace byte means the document simply stopped early.
fn classify_syntax(path: &str, text: &str, e: &phj_obs::json::ParseError) -> LoadError {
    let detail = format!("{path}: {e}");
    if e.offset >= text.trim_end().len() {
        LoadError::TruncatedJson(detail)
    } else {
        LoadError::MalformedJson(detail)
    }
}

fn load(path: &str) -> Result<RunReport, LoadError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LoadError::Unreadable(format!("{path}: {e}")))?;
    if let Err(e) = phj_obs::json::parse(&text) {
        return Err(classify_syntax(path, &text, &e));
    }
    let report =
        RunReport::parse(&text).map_err(|e| LoadError::InvalidReport(format!("{path}: {e}")))?;
    report
        .validate()
        .map_err(|e| LoadError::InvalidReport(format!("{path}: {e}")))?;
    Ok(report)
}

fn describe(label: &str, r: &RunReport) {
    let cycles = r.totals.breakdown.total();
    println!(
        "{label}: command={} simulated={} spans={} cycles={} wall_ns={}",
        r.command,
        r.simulated,
        r.spans.len(),
        cycles,
        r.wall_ns
    );
    if r.simulated {
        println!(
            "  coverage={:.3} pollution={:.3} busy={} dcache_stall={} dtlb_stall={}",
            r.prefetch_coverage(),
            r.pollution_rate(),
            r.totals.breakdown.busy,
            r.totals.breakdown.dcache_stall,
            r.totals.breakdown.dtlb_stall,
        );
    }
    if let Some(f) = &r.faults {
        println!(
            "  faults: injected={} read_retries={} write_retries={} slow_stall_us={} degradation_events={}",
            f.faults_injected,
            f.read_retries,
            f.write_retries,
            f.slow_stall_us,
            f.degradation.len()
        );
    }
}

/// How the two reports' fault sections relate, as a printable note.
/// Retry/stall counters are resilience diagnostics, not costs — they are
/// surfaced but never turn the verdict. `None` when neither run carries
/// a section.
fn fault_note(old: &RunReport, new: &RunReport) -> Option<String> {
    match (&old.faults, &new.faults) {
        (None, None) => None,
        (Some(o), Some(n)) => Some(format!(
            "  faults: injected {} -> {}, retries {} -> {}, degradation events {} -> {}",
            o.faults_injected,
            n.faults_injected,
            o.read_retries + o.write_retries,
            n.read_retries + n.write_retries,
            o.degradation.len(),
            n.degradation.len()
        )),
        (None, Some(n)) => Some(format!(
            "note: only the new run carries a fault section (injected={}, retries={}, degradation events={}); informational, not a regression",
            n.faults_injected,
            n.read_retries + n.write_retries,
            n.degradation.len()
        )),
        (Some(o), None) => Some(format!(
            "note: only the old run carries a fault section (injected={}); the new run injected no faults",
            o.faults_injected
        )),
    }
}

/// How the two reports' `query_trace` sections relate, as a printable
/// note. Admission waits are scheduling diagnostics of the daemon the
/// report came from, not kernel costs — like faults, they are surfaced
/// but never turn the verdict. `None` when neither run was traced.
fn query_trace_note(old: &RunReport, new: &RunReport) -> Option<String> {
    let us = |ns: u64| ns / 1_000;
    match (&old.query_trace, &new.query_trace) {
        (None, None) => None,
        (Some(o), Some(n)) => Some(format!(
            "  query_trace: queue {} -> {} us, grant {} -> {} us, exec {} -> {} us, sheds {} -> {}",
            us(o.queue_wait_ns),
            us(n.queue_wait_ns),
            us(o.grant_wait_ns),
            us(n.grant_wait_ns),
            us(o.exec_ns),
            us(n.exec_ns),
            o.shed_count,
            n.shed_count,
        )),
        (None, Some(n)) => Some(format!(
            "note: only the new run carries a query_trace section (queue {} us, grant {} us, \
             sheds {}); informational, not a regression",
            us(n.queue_wait_ns),
            us(n.grant_wait_ns),
            n.shed_count
        )),
        (Some(o), None) => Some(format!(
            "note: only the old run carries a query_trace section (trace {:#018x}); \
             the new run was not traced",
            o.trace_id
        )),
    }
}

/// The headline cost of a run: simulated cycles when available, wall-clock
/// nanoseconds for native runs (cycles are all zero there).
fn cost_of(r: &RunReport) -> (u64, &'static str) {
    let cycles = r.totals.breakdown.total();
    if cycles > 0 {
        (cycles, "cycles")
    } else {
        (r.wall_ns, "wall_ns")
    }
}

/// Outcome of comparing two reports at a given tolerance.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within tolerance; the signed delta in percent.
    Ok { delta_pct: f64 },
    /// New run is more than `tolerance` percent more expensive.
    Regression { delta_pct: f64 },
}

/// Pure comparison: the new run regresses when its cost exceeds the old
/// by strictly more than `tolerance_pct` percent (a delta exactly at the
/// tolerance passes). Refuses mixed units — a simulated run's cycles say
/// nothing about a native run's nanoseconds — and a zero-cost baseline.
fn verdict(old: &RunReport, new: &RunReport, tolerance_pct: f64) -> Result<Verdict, String> {
    let (oc, ounit) = cost_of(old);
    let (nc, nunit) = cost_of(new);
    if ounit != nunit {
        return Err("cannot compare a simulated run against a native run".to_string());
    }
    if oc == 0 {
        return Err("old report has zero cost; nothing to compare against".to_string());
    }
    let delta_pct = (nc as f64 - oc as f64) / oc as f64 * 100.0;
    if delta_pct > tolerance_pct {
        Ok(Verdict::Regression { delta_pct })
    } else {
        Ok(Verdict::Ok { delta_pct })
    }
}

/// Per-span-name cost totals: summed cycles (or wall ns for native
/// spans) and occurrence count.
type SpanTotals = std::collections::BTreeMap<String, (u64, usize)>;

fn span_totals(r: &RunReport) -> SpanTotals {
    let mut m = SpanTotals::new();
    for s in &r.spans {
        let cost = if r.simulated { s.delta.breakdown.total() } else { s.wall_ns };
        let e = m.entry(s.name.clone()).or_insert((0, 0));
        e.0 += cost;
        e.1 += 1;
    }
    m
}

/// A span name both reports have: its (cost, span count) on each side.
type SharedSpan = (String, (u64, usize), (u64, usize));

/// The name-keyed comparison of two span sets: per-name costs for the
/// names both reports have, plus the names unique to each side.
struct SpanDiff {
    shared: Vec<SharedSpan>,
    only_old: Vec<String>,
    only_new: Vec<String>,
}

fn span_diff(old: &RunReport, new: &RunReport) -> SpanDiff {
    let o = span_totals(old);
    let n = span_totals(new);
    let shared = o
        .iter()
        .filter_map(|(name, &oc)| n.get(name).map(|&nc| (name.clone(), oc, nc)))
        .collect();
    let only_old = o.keys().filter(|k| !n.contains_key(*k)).cloned().collect();
    let only_new = n.keys().filter(|k| !o.contains_key(*k)).cloned().collect();
    SpanDiff { shared, only_old, only_new }
}

fn print_span_diff(d: &SpanDiff) {
    for (name, (oc, on), (nc, nn)) in &d.shared {
        let delta_pct = if *oc > 0 { (*nc as f64 - *oc as f64) / *oc as f64 * 100.0 } else { 0.0 };
        println!("  span {name}: {oc} -> {nc} ({delta_pct:+.2}%) [{on} -> {nn} spans]");
    }
    if !d.only_old.is_empty() || !d.only_new.is_empty() {
        println!("warning: span sets differ; diffed the shared names only");
        if !d.only_old.is_empty() {
            println!("  only in old: {}", d.only_old.join(", "));
        }
        if !d.only_new.is_empty() {
            println!("  only in new: {}", d.only_new.join(", "));
        }
    }
}

fn compare(old: &RunReport, new: &RunReport, tolerance_pct: f64) -> ExitCode {
    describe("old", old);
    describe("new", new);
    let v = match verdict(old, new, tolerance_pct) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (_, unit) = cost_of(old);
    let delta_pct = match v {
        Verdict::Ok { delta_pct } | Verdict::Regression { delta_pct } => delta_pct,
    };
    println!("delta: {delta_pct:+.2}% total {unit} (tolerance {tolerance_pct:.2}%)");
    print_span_diff(&span_diff(old, new));
    if let Some(note) = fault_note(old, new) {
        println!("{note}");
    }
    if let Some(note) = query_trace_note(old, new) {
        println!("{note}");
    }
    if old.simulated && new.simulated {
        println!(
            "  coverage {:.3} -> {:.3}, pollution {:.3} -> {:.3}",
            old.prefetch_coverage(),
            new.prefetch_coverage(),
            old.pollution_rate(),
            new.pollution_rate(),
        );
    }
    match v {
        Verdict::Regression { delta_pct } => {
            println!("REGRESSION: new run is {delta_pct:.2}% more expensive");
            ExitCode::from(1)
        }
        Verdict::Ok { .. } => {
            println!("ok");
            ExitCode::SUCCESS
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: report_diff --check RUN.json");
    eprintln!("       report_diff OLD.json NEW.json [--tolerance P]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path) {
                Ok(r) => {
                    describe("report", &r);
                    println!("ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some(_) => {
            let mut tolerance = DEFAULT_TOLERANCE_PCT;
            let paths = match args.as_slice() {
                [old, new] => [old, new],
                [old, new, flag, p] if flag == "--tolerance" => {
                    match p.parse::<f64>() {
                        Ok(v) if v >= 0.0 => tolerance = v,
                        _ => {
                            eprintln!("error: bad tolerance {p:?}");
                            return ExitCode::from(2);
                        }
                    }
                    [old, new]
                }
                _ => return usage(),
            };
            match (load(paths[0]), load(paths[1])) {
                (Ok(old), Ok(new)) => compare(&old, &new, tolerance),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_obs::Recorder;

    /// A minimal report whose headline cost is `cycles` (simulated) or
    /// `wall_ns` (native, when `cycles` is zero).
    fn report(cycles: u64, wall_ns: u64) -> RunReport {
        let rec = Recorder::new();
        let mut snap = phj_memsim::Snapshot::default();
        snap.breakdown.busy = cycles;
        let mut r = RunReport::from_recorder("join", rec, snap, 0);
        r.simulated = cycles > 0;
        r.wall_ns = wall_ns;
        r
    }

    #[test]
    fn syntax_errors_classify_truncated_vs_malformed() {
        // Failure at end of input: the document was cut short.
        let text = "{\"schema_version\": 1, \"command\": ";
        let e = phj_obs::json::parse(text).unwrap_err();
        let c = classify_syntax("r.json", text, &e);
        assert!(matches!(c, LoadError::TruncatedJson(_)), "got {c:?}");
        // Trailing whitespace after the cut must not mask truncation.
        let text = "{\"schema_version\": 1,\n";
        let e = phj_obs::json::parse(text).unwrap_err();
        assert!(matches!(classify_syntax("r.json", text, &e), LoadError::TruncatedJson(_)));
        // Failure mid-document: the bytes are wrong, not missing.
        let text = "{\"schema_version\": 1,, \"command\": \"join\"}";
        let e = phj_obs::json::parse(text).unwrap_err();
        let c = classify_syntax("r.json", text, &e);
        assert!(matches!(c, LoadError::MalformedJson(_)), "got {c:?}");
    }

    #[test]
    fn load_errors_render_as_single_lines() {
        for e in [
            LoadError::Unreadable("a.json: no such file".into()),
            LoadError::TruncatedJson("a.json: JSON parse error at byte 9: eof".into()),
            LoadError::MalformedJson("a.json: JSON parse error at byte 3: bad".into()),
            LoadError::InvalidReport("a.json: missing spans array".into()),
        ] {
            let line = format!("error: {e}");
            assert_eq!(line.lines().count(), 1, "multi-line: {line:?}");
        }
        assert_eq!(
            LoadError::TruncatedJson("x".into()).to_string(),
            "truncated JSON: x"
        );
    }

    #[test]
    fn tolerance_boundary_is_inclusive() {
        let old = report(1_000, 0);
        // Exactly +5% on a 5% tolerance: passes (regression is strict).
        let new = report(1_050, 0);
        assert_eq!(verdict(&old, &new, 5.0).unwrap(), Verdict::Ok { delta_pct: 5.0 });
        // One cycle past the boundary: regression.
        let worse = report(1_051, 0);
        match verdict(&old, &worse, 5.0).unwrap() {
            Verdict::Regression { delta_pct } => assert!(delta_pct > 5.0),
            v => panic!("expected regression, got {v:?}"),
        }
        // Improvements always pass, whatever the tolerance.
        let better = report(900, 0);
        assert!(matches!(verdict(&old, &better, 0.0).unwrap(), Verdict::Ok { .. }));
    }

    #[test]
    fn zero_tolerance_flags_any_slowdown() {
        let old = report(1_000, 0);
        let new = report(1_001, 0);
        assert!(matches!(verdict(&old, &new, 0.0).unwrap(), Verdict::Regression { .. }));
        assert!(matches!(verdict(&old, &old, 0.0).unwrap(), Verdict::Ok { delta_pct } if delta_pct == 0.0));
    }

    #[test]
    fn refuses_mixed_units() {
        let sim = report(1_000, 0);
        let native = report(0, 5_000);
        let err = verdict(&sim, &native, 5.0).unwrap_err();
        assert!(err.contains("simulated"), "unexpected message: {err}");
        assert!(verdict(&native, &sim, 5.0).is_err());
    }

    #[test]
    fn refuses_zero_cost_baseline() {
        let empty = report(0, 0);
        let new = report(0, 10);
        let err = verdict(&empty, &new, 5.0).unwrap_err();
        assert!(err.contains("zero cost"), "unexpected message: {err}");
    }

    /// A simulated report with one span per (name, cycles) entry.
    fn report_with_spans(spans: &[(&str, u64)]) -> RunReport {
        let mut rec = Recorder::new();
        let mut cursor = phj_memsim::Snapshot::default();
        for (name, cycles) in spans {
            let id = rec.begin(name, cursor);
            cursor.breakdown.busy += cycles;
            rec.end(id, cursor);
        }
        let mut r = RunReport::from_recorder("join", rec, cursor, 0);
        r.simulated = true;
        r
    }

    #[test]
    fn span_diff_covers_shared_names_and_reports_unmatched() {
        let old = report_with_spans(&[("partition_pass", 100), ("pair", 50), ("pair", 30)]);
        let new = report_with_spans(&[("partition_pass", 90), ("pair", 70), ("build", 10)]);
        let d = span_diff(&old, &new);
        // Shared names diff on summed cost and span count...
        assert_eq!(
            d.shared,
            vec![
                ("pair".to_string(), (80, 2), (70, 1)),
                ("partition_pass".to_string(), (100, 1), (90, 1)),
            ]
        );
        // ...and differing span sets warn instead of erroring.
        assert!(d.only_old.is_empty());
        assert_eq!(d.only_new, vec!["build".to_string()]);
        let identical = span_diff(&old, &old);
        assert!(identical.only_old.is_empty() && identical.only_new.is_empty());
        assert_eq!(identical.shared.len(), 2);
    }

    #[test]
    fn native_runs_compare_on_wall_clock() {
        let old = report(0, 10_000);
        let new = report(0, 12_000);
        assert!(matches!(verdict(&old, &new, 5.0).unwrap(), Verdict::Regression { delta_pct } if (delta_pct - 20.0).abs() < 1e-9));
    }

    #[test]
    fn fault_sections_are_noted_but_never_turn_the_verdict() {
        use phj_obs::FaultsSection;
        let plain = report(1_000, 0);
        let mut faulty = report(1_000, 0);
        faulty.faults = Some(FaultsSection {
            faults_injected: 12,
            read_retries: 8,
            write_retries: 1,
            slow_stall_us: 300,
            degradation: Vec::new(),
        });
        // No sections: nothing to say.
        assert_eq!(fault_note(&plain, &plain), None);
        // Asymmetric sections get an informational note, either way round.
        let note = fault_note(&plain, &faulty).expect("new-only note");
        assert!(note.contains("only the new run"), "{note}");
        assert!(note.contains("injected=12"), "{note}");
        let note = fault_note(&faulty, &plain).expect("old-only note");
        assert!(note.contains("only the old run"), "{note}");
        // Symmetric sections diff the counters.
        let note = fault_note(&faulty, &faulty).expect("both note");
        assert!(note.contains("12 -> 12"), "{note}");
        assert!(note.contains("retries 9 -> 9"), "{note}");
        // And none of this sways the cost verdict.
        assert!(matches!(verdict(&plain, &faulty, 0.0).unwrap(), Verdict::Ok { .. }));
    }

    /// A valid `query_trace` section for the note/fixture tests.
    fn trace_section(queue_us: u64, grant_us: u64) -> phj_obs::QueryTraceSection {
        phj_obs::QueryTraceSection {
            trace_id: 0xABCD,
            query_id: 7,
            queue_wait_ns: queue_us * 1_000,
            grant_wait_ns: grant_us * 1_000,
            exec_ns: 5_000_000,
            serialize_ns: 10_000,
            shed_count: 1,
            states: vec![("received".into(), 0), ("done".into(), 5_000_000)],
        }
    }

    #[test]
    fn query_trace_sections_are_noted_but_never_turn_the_verdict() {
        let plain = report(1_000, 0);
        let mut traced = report(1_000, 0);
        traced.query_trace = Some(trace_section(120, 340));
        // No sections: nothing to say.
        assert_eq!(query_trace_note(&plain, &plain), None);
        // Asymmetric sections get an informational note, either way round.
        let note = query_trace_note(&plain, &traced).expect("new-only note");
        assert!(note.contains("only the new run"), "{note}");
        assert!(note.contains("not a regression"), "{note}");
        let note = query_trace_note(&traced, &plain).expect("old-only note");
        assert!(note.contains("only the old run"), "{note}");
        // Symmetric sections diff the wait breakdown.
        let mut slower = report(1_000, 0);
        slower.query_trace = Some(trace_section(900, 2_000));
        let note = query_trace_note(&traced, &slower).expect("both note");
        assert!(note.contains("queue 120 -> 900 us"), "{note}");
        assert!(note.contains("grant 340 -> 2000 us"), "{note}");
        // A massive admission-wait increase still never sways the cost
        // verdict: the section is informational, not a gate.
        assert!(matches!(verdict(&traced, &slower, 0.0).unwrap(), Verdict::Ok { .. }));
    }

    #[test]
    fn traced_reports_round_trip_and_malformed_sections_are_rejected() {
        let mut r = report_with_spans(&[("run", 1_000)]);
        r.query_trace = Some(trace_section(10, 20));
        // The --check path holds for a traced report...
        let text = r.render();
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.query_trace, r.query_trace);
        back.validate().expect("report with query_trace validates");
        // ...and a malformed section (unknown state name) is an invalid
        // report, the same exit-2 category as any other bad input.
        let mut bad = report_with_spans(&[("run", 1_000)]);
        let mut sec = trace_section(10, 20);
        sec.states = vec![("received".into(), 0), ("warp-speed".into(), 5)];
        bad.query_trace = Some(sec);
        let text = bad.render();
        let parsed = RunReport::parse(&text).expect("syntactically fine");
        let err = parsed.validate().expect_err("unknown state must not validate");
        assert!(err.contains("warp-speed"), "unhelpful error: {err}");
    }

    #[test]
    fn faulty_reports_load_like_any_other() {
        use phj_obs::{DegradationRow, FaultsSection};
        let mut r = report_with_spans(&[("run", 1_000)]);
        r.faults = Some(FaultsSection {
            faults_injected: 2,
            read_retries: 1,
            write_retries: 0,
            slow_stall_us: 0,
            degradation: vec![DegradationRow {
                partition: "0".into(),
                depth: 0,
                bytes: 65_536,
                budget: 32_768,
                action: "repartition".into(),
                detail: 2,
            }],
        });
        // Guard the --check path: render → parse → validate still holds
        // for a report carrying the fault section.
        let text = r.render();
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.faults, r.faults);
        back.validate().expect("report with faults validates");
    }
}
