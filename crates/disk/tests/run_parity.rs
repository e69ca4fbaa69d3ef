//! A stripe unit written as one run injects, retries and charges exactly
//! what writing its pages one by one does: fault decisions are a pure
//! hash of (seed, file name, page, attempt), so the same plan over the
//! same file names must give the same faults either way. The metrics
//! registry and the flight recorder are process-global, so this check
//! has its own test binary and one test function.

use std::path::Path;
use std::sync::atomic::Ordering;

use phj_disk::{BackgroundWriter, Fault, FaultPlan, IoOp, IoStats, RetryPolicy, StripeSet};
use phj_flightrec::EventKind;
use phj_metrics::names;
use phj_storage::{Frame, Page, PAGE_SIZE};

/// Seed 337 puts a slow (page 8), a torn (21) and a transient (28) write
/// in unit 0 and no other fault in pages 0..64.
fn plan() -> FaultPlan {
    FaultPlan::seeded(337).transient(300).torn_writes(300).slow(300, 100)
}

fn sealed(marker: u32) -> Frame {
    let mut p = Page::new();
    p.insert(&marker.to_le_bytes(), marker).unwrap();
    p.sealed_image()
}

fn counts(s: &IoStats) -> [u64; 8] {
    [
        &s.injected_transient,
        &s.injected_short,
        &s.injected_torn,
        &s.injected_slow,
        &s.injected_permanent,
        &s.read_retries,
        &s.write_retries,
        &s.slow_stall_us,
    ]
    .map(|c| c.load(Ordering::Relaxed))
}

#[test]
fn a_unit_written_as_one_run_matches_page_by_page_writes() {
    let written = phj_metrics::install().counter(names::DISK_BYTES_WRITTEN, "");
    let rec = phj_flightrec::install();
    let base = std::env::temp_dir().join(format!("phj-run-parity-{}", std::process::id()));
    let (runs_dir, pages_dir) = (base.join("runs"), base.join("pages"));

    let probe = plan();
    let faults: Vec<_> = (0..64u64)
        .filter_map(|p| {
            let tag = FaultPlan::tag(Path::new(&format!("runs.{}", p / 32)));
            probe.decide(IoOp::Write, tag, p, 0).map(|f| (p, f))
        })
        .collect();
    assert_eq!(faults, [(8, Fault::Slow), (21, Fault::TornWrite), (28, Fault::Transient)]);

    // 2 stripes of 32-page units; a 128-page window leaves 64 per stripe,
    // so each unit goes to its worker as one run.
    let run_plan = plan();
    let runs = StripeSet::create(&runs_dir, "runs", 2, 32)
        .unwrap()
        .with_faults(run_plan.clone(), RetryPolicy::default());
    let before = written.value();
    let w = BackgroundWriter::start(runs, 128);
    for p in 0..64u64 {
        w.write(p, sealed(p as u32)).unwrap();
    }
    w.finish().unwrap();
    let run_bytes = written.value() - before;
    let retried: Vec<u64> = rec
        .timeline()
        .iter()
        .filter(|e| e.kind == EventKind::Retry && e.code == 1)
        .map(|e| e.a)
        .collect();

    // The same ids page by page under an equal plan, same file names.
    let page_plan = plan();
    let pages = StripeSet::create(&pages_dir, "runs", 2, 32)
        .unwrap()
        .with_faults(page_plan.clone(), RetryPolicy::default());
    let before = written.value();
    for p in 0..64u64 {
        pages.write_image_checked(p, sealed(p as u32)).unwrap();
    }
    let page_bytes = written.value() - before;

    assert_eq!(run_bytes, 64 * PAGE_SIZE as u64, "every page is written once");
    assert_eq!(run_bytes, page_bytes);
    // A transient fault fires on attempts 0 and 1, so page 28 is retried
    // twice; no other page is retried.
    assert_eq!(retried, [28, 28]);
    assert_eq!(counts(run_plan.stats()), counts(page_plan.stats()));
    assert_eq!(run_plan.stats().write_retries.load(Ordering::Relaxed), 2);

    // Identical images on disk; only the torn page fails verification.
    let runs = StripeSet::open(&runs_dir, "runs", 2, 32).unwrap();
    for p in 0..64u64 {
        assert_eq!(runs.read_page(p).unwrap()[..], pages.read_page(p).unwrap()[..], "page {p}");
        match runs.read_page_verified(p) {
            Ok(page) => {
                assert_ne!(p, 21, "the torn page verified");
                assert_eq!(page.hash_code(0), p as u32);
            }
            Err(e) => assert!(p == 21 && e.is_corruption(), "page {p}: {e}"),
        }
    }
    std::fs::remove_dir_all(&base).ok();
}
