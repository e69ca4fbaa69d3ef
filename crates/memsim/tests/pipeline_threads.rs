//! The engine's worker thread exists only while it is needed: an engine
//! whose calls fit in one log batch never starts one, and a dropped
//! engine leaves none behind.
//!
//! This is the only test in its binary, so no other test's threads come
//! and go while it counts the entries of `/proc/self/task`. Hosts
//! without `/proc` skip it.

use std::time::{Duration, Instant};

use phj_memsim::engine::LOG_BATCH;
use phj_memsim::SimEngine;

fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn calls(e: &mut SimEngine, n: usize) {
    for i in 0..n {
        e.visit(0x1000_0000 + (i % 4096) * 64, 8);
    }
}

#[test]
fn short_engines_start_no_thread_and_dropped_ones_leave_none() {
    let Some(base) = threads() else {
        eprintln!("skipped: no /proc/self/task on this host");
        return;
    };

    let mut short = SimEngine::paper();
    calls(&mut short, LOG_BATCH - 1);
    assert_eq!(short.stats().visits, (LOG_BATCH - 1) as u64);
    assert_eq!(threads(), Some(base), "a stream that fits one batch runs inline");
    drop(short);
    assert_eq!(threads(), Some(base));

    let mut long = SimEngine::paper();
    calls(&mut long, 3 * LOG_BATCH + 10);
    assert_eq!(threads(), Some(base + 1), "the first full batch starts one worker");
    assert_eq!(long.stats().visits, (3 * LOG_BATCH + 10) as u64);
    drop(long);
    // The drop joins the worker; the kernel drops its task entry an
    // instant after the join returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != Some(base) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), Some(base), "the dropped engine's worker is gone");
}
