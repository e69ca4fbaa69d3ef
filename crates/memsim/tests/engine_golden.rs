//! Golden values of the timing engine over a fixed synthetic stream.
//!
//! A seeded stream of every engine call — visits, writes, prefetches
//! (most of them later visited, some hidden, some late, some wasted),
//! busy and other charges, multi-line references, region registrations
//! and clears — runs through each configuration below, with queries at
//! fixed positions in the stream. Every `Breakdown` and `CacheStats`
//! field, the clock and the latency histogram at each query, plus the
//! final region profile of the profiled run, must equal
//! `golden/engine.txt` byte for byte.
//!
//! The addresses are fixed integers, never heap pointers, so the values
//! repeat on any host and in any process. The engine applies its calls
//! from a log in [`LOG_BATCH`]-event batches, and the query points fall
//! both on and between batch boundaries, so the golden also shows that
//! where the log is cut never changes a result. A refactor of the engine
//! must leave this file alone; a change of what the engine models
//! rewrites it in its own commit, saying which fields moved and why. On
//! a mismatch the test writes the values it computed to the build's
//! temporary directory for integration tests and names the path.

use std::fmt::Write as _;

use phj_memsim::engine::LOG_BATCH;
use phj_memsim::{MemConfig, RegionKind, RegionProfiler, SimEngine};

/// Calls in the stream.
const OPS: usize = 100_000;

/// Stream positions (calls made so far) at which the engine is queried.
/// A query applies the unfilled tail of the log, so the next batch
/// boundary is a whole number of batches after it: the first two points
/// are on a boundary (after one batch, then after two more with nothing
/// queried between), the rest are mid-batch.
const QUERY_AT: [usize; 5] = [16_384, 49_152, 54_152, 77_777, OPS];

/// One engine call.
#[derive(Debug, Clone, Copy)]
enum Op {
    Visit(usize, usize),
    Write(usize, usize),
    Prefetch(usize, usize),
    Busy(u64),
    Other(u64),
    Register(RegionKind, usize, usize),
    Clear(RegionKind),
}

/// SplitMix64: a fixed, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Hot 48 KB (mostly L1), warm 3 MB (L2-sized and beyond), cold 256 MB
/// (memory and TLB misses), and a sequential scan cursor.
const HOT: usize = 0x1000_0000;
const WARM: usize = 0x2000_0000;
const COLD: usize = 0x4000_0000;
const SCAN: usize = 0x8000_0000;

/// The stream: a fixed function of nothing.
fn stream() -> Vec<Op> {
    let mut rng = Rng(0x5EED_0001);
    let mut ops = Vec::with_capacity(OPS);
    let mut scan = SCAN;
    // Prefetched addresses awaiting their demand visit.
    let mut pending: Vec<(usize, usize)> = Vec::new();
    let kinds = RegionKind::ALL;
    while ops.len() < OPS {
        let len = match rng.below(10) {
            0 => 65 + rng.below(256) as usize, // spans 2–6 lines
            1 => 1,
            _ => 4 + rng.below(60) as usize,
        };
        let addr = match rng.below(8) {
            0..=2 => HOT + rng.below(48 << 10) as usize,
            3..=4 => WARM + rng.below(3 << 20) as usize,
            5..=6 => COLD + rng.below(256 << 20) as usize,
            _ => {
                scan += 24 + rng.below(64) as usize;
                scan
            }
        };
        let op = match rng.below(100) {
            0..=29 => Op::Visit(addr, len),
            30..=39 => Op::Write(addr, len),
            40..=59 => {
                pending.push((addr, len));
                Op::Prefetch(addr, len)
            }
            60..=74 if !pending.is_empty() => {
                // Visit a prefetched object: the oldest (hidden or
                // evicted) or the newest (late).
                let i = if rng.below(3) == 0 { pending.len() - 1 } else { 0 };
                let (a, l) = pending.remove(i);
                Op::Visit(a, l)
            }
            60..=89 => Op::Busy(rng.below(200)),
            90..=96 => Op::Other(rng.below(20)),
            97..=98 => {
                let kind = kinds[rng.below(kinds.len() as u64) as usize];
                let base = [HOT, WARM, COLD, SCAN][rng.below(4) as usize];
                let off = rng.below(1 << 20) as usize;
                Op::Register(kind, base + off, 1 + rng.below(4 << 20) as usize)
            }
            _ => Op::Clear(kinds[rng.below(kinds.len() as u64) as usize]),
        };
        if pending.len() > 64 {
            // Never visited: a wasted prefetch unless it is still resident.
            pending.remove(0);
        }
        ops.push(op);
    }
    ops
}

fn apply(e: &mut SimEngine, op: Op) {
    match op {
        Op::Visit(a, l) => e.visit(a, l),
        Op::Write(a, l) => e.write(a, l),
        Op::Prefetch(a, l) => e.prefetch(a, l),
        Op::Busy(c) => e.busy(c),
        Op::Other(c) => e.other(c),
        Op::Register(k, a, l) => e.region_register(k, a, l),
        Op::Clear(k) => e.region_clear(k),
    }
}

/// Every query an engine answers through `&self`, rendered as text.
fn query(out: &mut String, name: &str, at: usize, e: &SimEngine) {
    let snap = e.snapshot();
    assert_eq!(snap.breakdown, e.breakdown(), "{name}@{at}: snapshot pairs breakdown");
    assert_eq!(snap.stats, e.stats(), "{name}@{at}: snapshot pairs stats");
    assert_eq!(snap.breakdown.total(), e.now(), "{name}@{at}: breakdown partitions time");
    writeln!(out, "{name}@{at} now={}", e.now()).unwrap();
    writeln!(out, "  {:?}", snap.breakdown).unwrap();
    writeln!(out, "  {:?}", snap.stats).unwrap();
    if let Some(h) = e.latency_hist() {
        writeln!(out, "  latency {:?}", h.buckets).unwrap();
    }
}

fn render_profile(out: &mut String, name: &str, p: &RegionProfiler) {
    for kind in RegionKind::ALL {
        writeln!(out, "{name} region {} {:?}", kind.name(), p.stats(kind)).unwrap();
        writeln!(out, "{name} region {} latency {:?}", kind.name(), p.hist(kind).buckets).unwrap();
    }
}

/// The configurations the golden covers.
fn configs() -> Vec<(&'static str, MemConfig, bool)> {
    let paper = MemConfig::paper;
    vec![
        ("paper", paper(), false),
        ("paper_t1000", MemConfig::paper_t1000(), false),
        ("flush_period", MemConfig { flush_period: Some(200_000), ..paper() }, false),
        ("classify_conflicts", MemConfig { classify_conflicts: true, ..paper() }, false),
        ("model_writebacks", MemConfig { model_writebacks: true, ..paper() }, false),
        ("hw_prefetch", MemConfig { hw_prefetch_streams: 8, ..paper() }, false),
        ("miss_handlers_2", MemConfig { miss_handlers: 2, ..paper() }, false),
        ("paper_profiled", paper(), true),
    ]
}

/// Run the stream through `cfg`, querying at `points`.
fn run(name: &str, cfg: MemConfig, profiled: bool, ops: &[Op], points: &[usize]) -> String {
    let mut out = String::new();
    let mut e = SimEngine::new(cfg);
    if profiled {
        e.enable_region_profiling();
    }
    let mut next = points.iter().copied().peekable();
    for (i, &op) in ops.iter().enumerate() {
        apply(&mut e, op);
        if next.peek() == Some(&(i + 1)) {
            next.next();
            query(&mut out, name, i + 1, &e);
        }
    }
    if let Some(p) = e.region_profile() {
        render_profile(&mut out, name, &p);
    }
    out
}

#[test]
fn queries_land_on_and_between_batch_boundaries() {
    assert_eq!(QUERY_AT[0], LOG_BATCH, "first query right after the first batch ships");
    assert_eq!(QUERY_AT[1] - QUERY_AT[0], 2 * LOG_BATCH, "two whole batches, no tail");
    for gap in QUERY_AT[1..].windows(2).skip(1).map(|w| w[1] - w[0]) {
        assert_ne!(gap % LOG_BATCH, 0, "mid-batch query");
        assert!(gap > LOG_BATCH, "at least one batch goes to the worker first");
    }
}

#[test]
fn engine_matches_golden() {
    let ops = stream();
    let mut got = String::new();
    for (name, cfg, profiled) in configs() {
        got.push_str(&run(name, cfg, profiled, &ops, &QUERY_AT));
    }
    let want = include_str!("golden/engine.txt");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("engine_golden.txt");
        std::fs::write(&path, &got).unwrap();
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        panic!(
            "engine output differs from golden/engine.txt (first differing line: {line:?}); \
             computed values written to {}",
            path.display()
        );
    }
}

#[test]
fn stream_exercises_every_outcome() {
    // The golden is only as strong as the stream: make sure it reaches
    // every counter the engine keeps.
    let ops = stream();
    let mut e = SimEngine::new(MemConfig {
        classify_conflicts: true,
        flush_period: Some(200_000),
        hw_prefetch_streams: 8,
        ..MemConfig::paper()
    });
    e.enable_region_profiling();
    for &op in &ops {
        apply(&mut e, op);
    }
    let s = e.stats();
    for (field, v) in [
        ("l1_hits", s.l1_hits),
        ("l1_inflight_hits", s.l1_inflight_hits),
        ("l2_hits", s.l2_hits),
        ("mem_misses", s.mem_misses),
        ("l1_conflict_misses", s.l1_conflict_misses),
        ("pf_dropped", s.pf_dropped),
        ("pf_from_l2", s.pf_from_l2),
        ("pf_from_mem", s.pf_from_mem),
        ("pf_evicted_unused", s.pf_evicted_unused),
        ("pf_hidden_cycles", s.pf_hidden_cycles),
        ("tlb_demand_walks", s.tlb_demand_walks),
        ("tlb_prefetch_walks", s.tlb_prefetch_walks),
        ("hw_prefetches", s.hw_prefetches),
        ("writebacks", s.writebacks),
        ("flushes", s.flushes),
    ] {
        assert!(v > 0, "stream never produces {field}: {s:?}");
    }
    assert!(s.visit_lines > s.visits, "multi-line references present");
    let p = e.region_profile().unwrap();
    let charged = RegionKind::ALL.iter().filter(|&&k| p.stats(k).demand_lines() > 0).count();
    assert!(charged >= 3, "registrations route lines to several regions");
}
