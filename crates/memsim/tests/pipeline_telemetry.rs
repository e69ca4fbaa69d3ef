//! An engine dropped with more than one batch of its call log still
//! queued publishes exactly its own counter deltas: the calling thread's
//! access and prefetch counts and the worker's outcome counts.
//!
//! This is the only test in its binary because the metrics registry is
//! process-wide: another engine publishing concurrently would make the
//! deltas inexact.

use phj_memsim::engine::LOG_BATCH;
use phj_memsim::{CacheStats, SimEngine};
use phj_metrics::names;

/// Two and a half batches of prefetches, visits, writes and busy time
/// over 64 MB: memory misses, TLB walks and hidden latency all occur.
fn stream(e: &mut SimEngine) {
    let addr = |i: usize| 0x1000_0000 + (i * 7919 % (1 << 20)) * 64;
    for i in 0..2 * LOG_BATCH + LOG_BATCH / 2 {
        match i % 5 {
            0 => e.prefetch(addr(i + 11), 8), // visited 11 calls later
            1 | 2 => e.visit(addr(i), 16),
            3 => e.write(addr(i + 3), 8),
            _ => e.busy(20),
        }
    }
}

#[test]
fn dropped_engine_publishes_exact_deltas() {
    let reg = phj_metrics::install();
    let scrape = |name: &str| {
        reg.scrape().into_iter().find(|f| f.name == name).map_or(0, |f| f.value)
    };
    let families = [
        names::MEMSIM_ACCESSES,
        names::MEMSIM_L1_MISSES,
        names::MEMSIM_L2_MISSES,
        names::MEMSIM_TLB_MISSES,
        names::MEMSIM_PREFETCHES,
        names::MEMSIM_PF_HIDDEN_CYCLES,
    ];
    let want = |s: CacheStats| {
        let (misses, walks) = (s.l1_misses(), s.tlb_demand_walks);
        [s.visits, misses, s.mem_misses, walks, s.prefetches, s.pf_hidden_cycles]
    };

    let mut reference = SimEngine::paper();
    stream(&mut reference);
    let expected = want(reference.stats());
    drop(reference);
    assert!(expected.iter().all(|&v| v > 0), "every family moves: {expected:?}");

    let before = families.map(scrape);
    let mut e = SimEngine::paper();
    stream(&mut e);
    drop(e); // no query: the log is applied and published by the drop
    let after = families.map(scrape);
    for (i, name) in families.iter().enumerate() {
        assert_eq!(after[i] - before[i], expected[i], "{name}");
    }
}
