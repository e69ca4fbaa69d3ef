//! Regenerate the golden fixtures under `tests/fixtures/`.
//!
//! ```text
//! cargo run -p phj-analyze --example gen_fixtures
//! ```
//!
//! One report per bottleneck class plus a minimal native report with no
//! optional sections. Every fixture is deterministic (fixed counters, span
//! clocks overwritten with `start_ns = 1000 * index`, `wall_ns = 1000`),
//! so the committed `.json` and `.txt` files only change when the
//! diagnosis engine or `RunReport::render` itself does — which is exactly
//! when the golden test (and CI's `git diff --exit-code` on this
//! directory) should fail and force a deliberate re-commit.

use phj::cost::CostModel;
use phj_analyze::{analyze, render};
use phj_memsim::{Breakdown, CacheStats, Snapshot};
use phj_obs::report::{DegradationRow, FaultsSection, RegionsSection, SkewRow};
use phj_obs::span::Recorder;
use phj_obs::RunReport;

fn sim_report(scheme: &str, snapshot: Snapshot) -> RunReport {
    let mut rec = Recorder::new();
    let root = rec.begin("run", Snapshot::default());
    let inner = rec.begin("probe", Snapshot::default());
    rec.end(inner, snapshot);
    rec.end(root, snapshot);
    let mut r = RunReport::from_recorder("join", rec, snapshot, 5_000);
    r.simulated = true;
    r.tuples = 1_000;
    r.matches = 500;
    r.config_kv("scheme", scheme);
    r.config_kv("tuple_size", 100);
    r.config_kv("t_full", 150);
    r.config_kv("t_next", 10);
    r
}

fn healthy_snapshot() -> Snapshot {
    Snapshot {
        breakdown: Breakdown { busy: 1_000, dcache_stall: 50, ..Default::default() },
        stats: CacheStats {
            prefetches: 100,
            pf_hidden_cycles: 900,
            mem_misses: 10,
            ..Default::default()
        },
    }
}

/// `(name, report)` for every fixture; `name` doubles as the expected
/// primary bottleneck class (except `minimal`, which is compute_bound).
pub fn fixtures() -> Vec<(&'static str, RunReport)> {
    let mut out: Vec<(&'static str, RunReport)> = Vec::new();

    // A native run with no optional sections at all: the smallest report
    // the engine must survive.
    let mut rec = Recorder::new();
    let root = rec.begin("run", Snapshot::default());
    rec.end(root, Snapshot::default());
    let mut minimal = RunReport::from_recorder("join", rec, Snapshot::default(), 2_000_000);
    minimal.config_kv("scheme", "baseline");
    out.push(("minimal", minimal));

    out.push(("compute_bound", sim_report("group(G=16)", healthy_snapshot())));

    out.push((
        "latency_bound",
        sim_report(
            "baseline",
            Snapshot {
                breakdown: Breakdown { busy: 100, dcache_stall: 300, ..Default::default() },
                stats: CacheStats { mem_misses: 50, ..Default::default() },
            },
        ),
    ));

    out.push((
        "tlb_bound",
        sim_report(
            "baseline",
            Snapshot {
                breakdown: Breakdown { busy: 100, dtlb_stall: 300, ..Default::default() },
                stats: CacheStats { tlb_demand_walks: 40, ..Default::default() },
            },
        ),
    ));

    out.push((
        "bandwidth_bound",
        sim_report(
            "group(G=16)",
            Snapshot {
                breakdown: Breakdown { busy: 100, dcache_stall: 900, ..Default::default() },
                stats: CacheStats {
                    prefetches: 100,
                    pf_dropped: 40,
                    pf_evicted_unused: 30,
                    pf_hidden_cycles: 100,
                    ..Default::default()
                },
            },
        ),
    ));

    // A regions section must account for every demand line in the run
    // totals, so this snapshot declares 10 visited lines and the hot
    // hash-cell region carries all 10 as memory misses.
    let mut skew_snap = healthy_snapshot();
    skew_snap.stats.visit_lines = 10;
    let mut skewed = sim_report("group(G=16)", skew_snap);
    skewed.regions = Some(RegionsSection {
        regions: vec![phj_obs::report::RegionReport {
            name: "hash_cells".into(),
            stats: phj_memsim::RegionStats { mem_misses: 10, ..Default::default() },
            hist: {
                let mut h = phj_memsim::LatencyHistogram::default();
                for _ in 0..10 {
                    h.record(150);
                }
                h
            },
        }],
        skew: vec![
            SkewRow { index: 0, build_tuples: 10, probe_tuples: 10, cycles: 100, l2_hits: 0, mem_misses: 0 },
            SkewRow { index: 1, build_tuples: 900, probe_tuples: 900, cycles: 5_000, l2_hits: 0, mem_misses: 0 },
            SkewRow { index: 2, build_tuples: 10, probe_tuples: 10, cycles: 100, l2_hits: 0, mem_misses: 0 },
        ],
    });
    out.push(("skew_bound", skewed));

    let mut faulty = sim_report("group(G=16)", healthy_snapshot());
    faulty.faults = Some(FaultsSection {
        faults_injected: 9,
        read_retries: 3,
        write_retries: 1,
        slow_stall_us: 400,
        degradation: vec![],
    });
    out.push(("fault_stalled", faulty));

    let mut degraded = sim_report("group(G=16)", healthy_snapshot());
    degraded.faults = Some(FaultsSection {
        faults_injected: 9,
        read_retries: 3,
        write_retries: 0,
        slow_stall_us: 0,
        degradation: vec![DegradationRow {
            partition: "p3".into(),
            depth: 2,
            bytes: 1 << 20,
            budget: 1 << 19,
            action: "nlj_fallback".into(),
            detail: 0,
        }],
    });
    out.push(("degraded", degraded));

    out
}

fn main() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).expect("create fixtures dir");
    for (name, mut report) in fixtures() {
        // The recorder stamps real clocks; pin them so regeneration is a
        // no-op unless the writer or the engine changed.
        for (i, span) in report.spans.iter_mut().enumerate() {
            span.start_ns = 1_000 * i as u64;
            span.wall_ns = 1_000;
        }
        report.validate().expect("fixture validates");
        let sec = analyze(&report, &CostModel::default());
        std::fs::write(dir.join(format!("{name}.json")), report.render()).unwrap();
        std::fs::write(dir.join(format!("{name}.txt")), render(&report, &sec)).unwrap();
        println!("wrote {name}.json + {name}.txt (primary: {})", sec.primary);
    }
}
