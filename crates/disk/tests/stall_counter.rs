//! `phj_disk_stall_ns_total` counts main-thread waits only. The metrics
//! registry is process-global, so this check has its own test binary
//! and one test function.

use phj_disk::{BackgroundWriter, FaultPlan, RetryPolicy, StripeSet};
use phj_metrics::names;
use phj_storage::Page;

fn sealed(marker: u32) -> phj_storage::Frame {
    let mut p = Page::new();
    p.insert(&marker.to_le_bytes(), marker).unwrap();
    p.sealed_image()
}

#[test]
fn stall_counter_counts_only_main_thread_waits() {
    let reg = phj_metrics::install();
    let stall = reg.counter(names::DISK_STALL_NS, "");
    let dir = std::env::temp_dir().join(format!("phj-stall-counter-{}", std::process::id()));
    let retry = RetryPolicy::default();

    // Every write sleeps 2 ms on the worker, but a 64-page window never
    // fills with 16 pages: the main thread never waits.
    let slow = FaultPlan::seeded(1).slow(10_000, 2_000);
    let s = StripeSet::create(&dir, "slow", 1, 4).unwrap().with_faults(slow.clone(), retry);
    let before = stall.value();
    let w = BackgroundWriter::start(s, 64);
    for p in 0..16u64 {
        w.write(p, sealed(p as u32)).unwrap();
    }
    assert_eq!(stall.value(), before, "slow writes on the worker are not main-thread stall");
    w.finish().unwrap();
    assert!(slow.stats().slow_stall_us.load(std::sync::atomic::Ordering::Relaxed) > 0);

    // A capped disk behind a one-page window: sends block. The frames
    // are sealed before the writer starts, so the send loop offers pages
    // faster than the cap drains them even in a debug build.
    let capped = FaultPlan::disabled().stripe_mb_per_s(20.0);
    let s = StripeSet::create(&dir, "capped", 1, 4).unwrap().with_faults(capped, retry);
    let frames: Vec<_> = (0..64u32).map(sealed).collect();
    let before = stall.value();
    let w = BackgroundWriter::start(s, 1);
    for (p, frame) in (0..64u64).zip(frames) {
        w.write(p, frame).unwrap();
    }
    w.finish().unwrap();
    assert!(stall.value() > before, "a full write-back window is main-thread stall");
    std::fs::remove_dir_all(&dir).ok();
}
