//! Byte-level goldens for `RunReport::{parse, render}`.
//!
//! The report is diffed as text (`report_diff`, the analyze goldens, the
//! `setarch -R` byte-identity gate), so key order, float formatting and
//! section order are part of the contract. These tests pin them against
//! committed files: `parse(text).render() == text` for every analyze
//! fixture and for one kitchen-sink report carrying every optional
//! section, plus a table of minimally broken documents that must keep
//! being rejected.

use phj_memsim::{Breakdown, CacheStats, LatencyHistogram, RegionStats, Snapshot};
use phj_obs::{
    AnalysisSection, DegradationRow, FaultsSection, PhasePrediction, QueryTraceSection, Recorder,
    RegionReport, RegionsSection, ResidualRow, RuleOutcome, RunReport, SkewRow, SpanRecord,
};
use std::path::Path;

const FULL_REPORT: &str = include_str!("fixtures/full_report.json");

fn hist(samples: &[(u64, usize)]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &(value, n) in samples {
        for _ in 0..n {
            h.record(value);
        }
    }
    h
}

/// The report `fixtures/full_report.json` was rendered from: spans with
/// latency histograms and `worker` lanes, and all five optional sections
/// non-empty and mutually consistent (it must pass `validate`).
fn full_report() -> RunReport {
    let totals = Snapshot {
        breakdown: Breakdown { busy: 100, dcache_stall: 150, dtlb_stall: 12, other_stall: 3 },
        stats: CacheStats {
            visits: 10,
            visit_lines: 10,
            l1_hits: 5,
            l1_inflight_hits: 1,
            l2_hits: 3,
            mem_misses: 1,
            l1_conflict_misses: 1,
            prefetches: 10,
            pf_dropped: 1,
            pf_from_l2: 4,
            pf_from_mem: 5,
            pf_evicted_unused: 2,
            pf_hidden_cycles: 90,
            tlb_demand_walks: 2,
            tlb_prefetch_walks: 1,
            hw_prefetches: 3,
            writebacks: 2,
            flushes: 1,
        },
    };
    let cells_hist = hist(&[(0, 5), (3, 1), (8, 1)]);
    let other_hist = hist(&[(8, 2), (150, 1)]);
    let mut run_hist = cells_hist;
    run_hist.merge(&other_hist);

    let mut rec = Recorder::new();
    let root = rec.begin_profiled("run", Snapshot::default(), Some(LatencyHistogram::default()));
    rec.meta("note", "quotes \" and \\ survive");
    rec.end_profiled(root, totals, Some(run_hist));
    let mut r = RunReport::from_recorder("join", rec, totals, 5_000);
    for (worker, busy, h) in [(0u64, 60u64, cells_hist), (1, 40, other_hist)] {
        let lane = Snapshot {
            breakdown: Breakdown { busy, dcache_stall: 7, ..Default::default() },
            stats: CacheStats { pf_hidden_cycles: 21, ..Default::default() },
        };
        let mut s = SpanRecord::reconstruct("pair".into(), Some(0), 1, 0, 0, lane);
        s.latency = Some(h);
        s.meta.push(("index".into(), worker.to_string()));
        s.meta.push(("worker".into(), worker.to_string()));
        r.spans.push(s);
    }
    for (i, s) in r.spans.iter_mut().enumerate() {
        s.start_ns = 1_000 * i as u64;
        s.wall_ns = 1_000;
    }
    r.simulated = true;
    r.tuples = 1_000;
    r.matches = 500;
    r.config_kv("scheme", "group(G=16)");
    r.config_kv("tuple_size", 100);

    r.regions = Some(RegionsSection {
        regions: vec![
            RegionReport {
                name: "hash_cells".into(),
                stats: RegionStats {
                    l1_hits: 5,
                    l1_inflight_hits: 1,
                    l2_hits: 1,
                    stall_cycles: 11,
                    prefetches: 6,
                    pf_dropped: 1,
                    tlb_prefetch_walks: 1,
                    pf_hidden: 3,
                    pf_partial: 1,
                    pf_late: 1,
                    pf_polluting: 1,
                    pf_hidden_cycles: 60,
                    ..Default::default()
                },
                hist: cells_hist,
            },
            RegionReport {
                name: "other".into(),
                stats: RegionStats {
                    l2_hits: 2,
                    mem_misses: 1,
                    tlb_demand_walks: 2,
                    stall_cycles: 166,
                    ..Default::default()
                },
                hist: other_hist,
            },
        ],
        skew: vec![
            SkewRow { index: 0, build_tuples: 4, probe_tuples: 6, cycles: 67, l2_hits: 1, mem_misses: 0 },
            SkewRow { index: 1, build_tuples: 400, probe_tuples: 590, cycles: 47, l2_hits: 2, mem_misses: 1 },
        ],
    });
    r.faults = Some(FaultsSection {
        faults_injected: 17,
        read_retries: 9,
        write_retries: 3,
        slow_stall_us: 420,
        degradation: vec![
            DegradationRow {
                partition: "3".into(),
                depth: 0,
                bytes: 180_224,
                budget: 32_768,
                action: "repartition".into(),
                detail: 6,
            },
            DegradationRow {
                partition: "3.1".into(),
                depth: 1,
                bytes: 172_032,
                budget: 32_768,
                action: "nlj_fallback".into(),
                detail: 6,
            },
        ],
    });
    r.analysis = Some(AnalysisSection {
        t_full: 150,
        t_next: 10,
        scheme: "group(G=16)".into(),
        cost_model: vec![("hash_fn".into(), 30), ("mod".into(), 68)],
        predictions: vec![PhasePrediction {
            phase: "probe".into(),
            stage_costs: vec![114, 8, 23, 115],
            g_min: 16,
            first_miss_hidden: true,
            d_min: 1,
            predicted_coverage: 1.0,
        }],
        residuals: vec![
            ResidualRow {
                metric: "prefetch_coverage".into(),
                predicted: 1.0,
                measured: 0.375,
                residual: -0.625,
            },
            ResidualRow {
                metric: "pf_hidden_cycles".into(),
                predicted: 1.5e-7,
                measured: 90.0,
                residual: 90.0 - 1.5e-7,
            },
        ],
        primary: "latency_bound".into(),
        evidence: vec!["dcache stalls are 57% of cycles".into()],
        rules: vec![
            RuleOutcome { class: "degraded".into(), fired: false, evidence: vec![] },
            RuleOutcome {
                class: "latency_bound".into(),
                fired: true,
                evidence: vec!["dcache stalls are 57% of cycles".into()],
            },
        ],
    });
    r.query_trace = Some(QueryTraceSection {
        trace_id: 0xABCD_1234,
        query_id: 7,
        queue_wait_ns: 1_500,
        grant_wait_ns: 2_500,
        exec_ns: 90_000,
        serialize_ns: 1_000,
        shed_count: 1,
        states: vec![
            ("received".into(), 0),
            ("queued".into(), 10),
            ("admitted".into(), 4_010),
            ("executing".into(), 4_020),
            ("responding".into(), 94_020),
            ("done".into(), 95_020),
        ],
    });
    r
}

#[test]
fn analyze_fixtures_reparse_to_the_same_bytes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../analyze/tests/fixtures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("analyze fixtures dir") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let report = RunReport::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(report.render(), text, "{} drifted", path.display());
        seen += 1;
    }
    assert_eq!(seen, 8, "expected the eight analyze fixtures");
}

#[test]
fn full_report_renders_and_reparses_to_the_committed_bytes() {
    let built = full_report();
    built.validate().expect("kitchen-sink report is consistent");
    assert_eq!(built.render(), FULL_REPORT, "struct -> bytes drifted");
    let parsed = RunReport::parse(FULL_REPORT).expect("fixture parses");
    parsed.validate().expect("parsed fixture validates");
    assert_eq!(parsed.render(), FULL_REPORT, "bytes -> struct -> bytes drifted");
    for sec in ["regions", "faults", "analysis", "query_trace"] {
        assert!(FULL_REPORT.contains(&format!("\n  \"{sec}\": {{")), "fixture lacks {sec}");
    }
    assert_eq!(parsed.spans[1].latency, built.spans[1].latency);
    assert_eq!(parsed.regions, built.regions);
    assert_eq!(parsed.analysis, built.analysis);
}

/// Replace the first occurrence of `from` (which must exist) with `to`.
fn broken(from: &str, to: &str) -> String {
    assert!(FULL_REPORT.contains(from), "fixture has no {from:?} to break");
    FULL_REPORT.replacen(from, to, 1)
}

#[test]
fn minimally_broken_documents_are_still_rejected() {
    let one_bucket_short = {
        let start = FULL_REPORT.find("\"buckets\": [").unwrap();
        let first = FULL_REPORT[start..].find("\n").unwrap() + start;
        let second = FULL_REPORT[first + 1..].find("\n").unwrap() + first + 1;
        format!("{}{}", &FULL_REPORT[..first], &FULL_REPORT[second..])
    };
    let cases: Vec<(&str, String)> = vec![
        ("wrong schema_version", broken("\"schema_version\": 1", "\"schema_version\": 2")),
        ("report without command", broken("\"command\"", "\"kommand\"")),
        ("config value not a string", broken("\"tuple_size\": \"100\"", "\"tuple_size\": 100")),
        ("breakdown without busy", broken("\"busy\"", "\"bizzy\"")),
        ("cache without visits", broken("\"visits\"", "\"visitz\"")),
        ("span without depth", broken("\"depth\"", "\"depht\"")),
        ("span parent not an integer", broken("\"parent\": 0", "\"parent\": \"root\"")),
        ("non-integer histogram bucket", broken("\"buckets\": [\n          5,", "\"buckets\": [\n          5.5,")),
        ("histogram one bucket short", one_bucket_short),
        ("latency present but null", broken("\"latency\": {", "\"latency\": null, \"was\": {")),
        ("region without hist", broken("\"hist\"", "\"hits\"")),
        ("skew row without cycles", broken("\"cycles\": 67", "\"cycle\": 67")),
        ("degradation row without action", broken("\"action\"", "\"auction\"")),
        ("faults without degradation", broken("\"degradation\"", "\"degradations\"")),
        ("prediction with non-integer stage cost", broken("114,", "114.5,")),
        ("residual without measured", broken("\"measured\"", "\"pleasured\"")),
        ("rule evidence holding a number", broken("\"evidence\": []", "\"evidence\": [3]")),
        ("analysis cost_model not an object", broken("\"cost_model\": {", "\"cost_model\": [], \"was\": {")),
        ("query_trace state without t_ns", broken("\"t_ns\": 4010", "\"t_nz\": 4010")),
        ("optional section present but null", broken("\"faults\": {", "\"faults\": null, \"was\": {")),
    ];
    for (what, doc) in cases {
        phj_obs::json::parse(&doc).unwrap_or_else(|e| panic!("{what}: not even JSON: {e}"));
        assert!(RunReport::parse(&doc).is_err(), "accepted a document with {what}");
    }
}
