//! Memory-access attribution end to end: profiling must be free when
//! off (cycle-identical runs, byte-identical reports) and exact when on
//! (per-region counters partition the global cache stats, and the join
//! phase's misses land on the hash-table regions).

use phj::grace::{grace_join_with_sink_rec, hybrid_join, GraceConfig};
use phj::profile::skew_profile;
use phj::sink::CountSink;
use phj_memsim::{RegionKind, SimEngine};
use phj_obs::{RegionsSection, Recorder, RunReport};
use phj_workload::JoinSpec;

fn spec() -> JoinSpec {
    JoinSpec {
        build_tuples: 3_000,
        tuple_size: 40,
        matches_per_build: 1,
        // Mostly-missing probes hammer the bucket headers and cell
        // arrays without the matched-tuple visits diluting them.
        pct_match: 20,
        seed: 7,
    }
}

fn cfg() -> GraceConfig {
    GraceConfig { mem_budget: 32 * 1024, ..Default::default() }
}

/// Run the GRACE join under the simulator, optionally profiling,
/// returning the engine and the finished report. Takes the generated
/// workload by reference: the simulator indexes caches by *real*
/// addresses, so comparable runs must touch the very same allocations.
fn run_grace(gen: &phj_workload::GeneratedJoin, profiled: bool) -> (SimEngine, RunReport) {
    let mut mem = SimEngine::paper();
    if profiled {
        mem.enable_region_profiling();
    }
    let mut rec = Recorder::new();
    let mut sink = CountSink::new();
    let root = rec.begin_profiled("run", mem.snapshot(), mem.latency_hist());
    grace_join_with_sink_rec(&mut mem, &cfg(), &gen.build, &gen.probe, &mut sink, Some(&mut rec));
    rec.end_profiled(root, mem.snapshot(), mem.latency_hist());
    let mut report = RunReport::from_recorder("join", rec, mem.snapshot(), 1);
    report.simulated = true;
    if profiled {
        let mut sec = RegionsSection::from_profiler(&mem.region_profile().expect("profiled"));
        sec.skew = skew_profile(&report.spans);
        report.regions = Some(sec);
    }
    (mem, report)
}

#[test]
fn unprofiled_reports_carry_no_attribution_keys() {
    // Byte-identity with the pre-attribution report format: a run that
    // never enabled profiling must not mention it anywhere — no
    // `regions` section, no per-span `latency` histograms.
    let gen = spec().generate();
    let (_, off) = run_grace(&gen, false);
    let text = off.render();
    assert!(!text.contains("regions"), "unprofiled report mentions regions");
    assert!(!text.contains("latency"), "unprofiled report mentions latency");
    // And it still parses and validates as before.
    RunReport::parse(&text).expect("parse").validate().expect("validate");
}

#[test]
fn profiling_on_never_changes_the_algorithm() {
    // The simulator's caches index on *real* addresses, and the profiler's
    // own allocations shift where the join's table and buffers land, so
    // stall cycles can drift a hair between processes. The exact
    // cycle-identity guard therefore lives in phj-memsim
    // (`profiling_never_changes_timing`, synthetic addresses); here we pin
    // everything address-independent: the memory references the algorithm
    // issues, the prefetches it schedules, and the phase structure.
    let gen = spec().generate();
    let (_, off) = run_grace(&gen, false);
    let (_, on) = run_grace(&gen, true);
    assert_eq!(off.totals.stats.visits, on.totals.stats.visits);
    assert_eq!(off.totals.stats.prefetches, on.totals.stats.prefetches);
    assert_eq!(off.spans.len(), on.spans.len());
    for (a, b) in off.spans.iter().zip(&on.spans) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.delta.stats.visits, b.delta.stats.visits, "span '{}'", a.name);
        assert!(a.latency.is_none(), "unprofiled span grew a histogram");
    }
}

#[test]
fn grace_regions_sum_to_totals_and_hotspot_is_the_hash_table() {
    let gen = spec().generate();
    let (_, report) = run_grace(&gen, true);
    report.validate().expect("regions section internally consistent");
    let sec = report.regions.as_ref().unwrap();

    // Every demand line is charged somewhere: the validate() above proved
    // the sums; here we pin the qualitative claim of the paper — among the
    // structures the join phase touches, it is the hash table (random
    // bucket/cell accesses), not the sequentially scanned tuples, that
    // leaves the cache.
    let join_kinds = [
        RegionKind::HashBucketHeaders,
        RegionKind::HashCells,
        RegionKind::BuildTuples,
        RegionKind::ProbeTuples,
    ];
    let hottest = join_kinds
        .iter()
        .map(|k| &sec.regions[k.index()])
        .max_by_key(|r| (r.stats.mem_misses, r.stats.l2_hits))
        .unwrap();
    assert!(
        hottest.name == "hash_cells" || hottest.name == "hash_bucket_headers",
        "expected the hash table to dominate join-phase misses, got '{}'",
        hottest.name
    );

    // The skew profile covers every partition pair and its misses are a
    // subset of the run's.
    assert!(!sec.skew.is_empty());
    let pair_spans = report.spans.iter().filter(|s| s.name == "pair").count();
    assert_eq!(sec.skew.len(), pair_spans);
    let skew_misses: u64 = sec.skew.iter().map(|r| r.mem_misses).sum();
    let total_misses: u64 = sec.regions.iter().map(|r| r.stats.mem_misses).sum();
    assert!(skew_misses <= total_misses);
    assert!(sec.skew.iter().all(|r| r.build_tuples > 0 && r.probe_tuples > 0));

    // Span latency histograms ride along and nest: the root span's
    // histogram holds every demand line of the run.
    let root = &report.spans[0];
    let root_hist = root.latency.as_ref().expect("profiled spans carry latency");
    assert_eq!(root_hist.count(), report.totals.stats.visit_lines);

    // And the report (with regions) round-trips through JSON.
    let back = RunReport::parse(&report.render()).expect("parse");
    assert_eq!(back.regions, report.regions);
    back.validate().expect("still consistent after round trip");
}

#[test]
fn hybrid_regions_stay_consistent() {
    let gen = spec().generate();
    let mut mem = SimEngine::paper();
    mem.enable_region_profiling();
    let mut rec = Recorder::new();
    let mut sink = CountSink::new();
    let cfg = GraceConfig { mem_budget: 32 * 1024, ..Default::default() };
    let root = rec.begin_profiled("run", mem.snapshot(), mem.latency_hist());
    let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, Some(&mut rec));
    rec.end_profiled(root, mem.snapshot(), mem.latency_hist());
    assert!(p > 1, "expected spill partitions");
    let mut report = RunReport::from_recorder("join", rec, mem.snapshot(), 1);
    report.simulated = true;
    let mut sec = RegionsSection::from_profiler(&mem.region_profile().unwrap());
    sec.skew = skew_profile(&report.spans);
    report.regions = Some(sec);
    report.validate().expect("hybrid regions consistent");
    // Both the fused passes and the spilled pairs charged their
    // structures: tuple inputs and the table all saw demand lines.
    let sec = report.regions.as_ref().unwrap();
    let lines = |kind: RegionKind| {
        sec.regions[kind.index()].stats.demand_lines()
    };
    assert!(lines(RegionKind::BuildTuples) > 0);
    assert!(lines(RegionKind::ProbeTuples) > 0);
    assert!(lines(RegionKind::HashBucketHeaders) > 0);
    assert!(lines(RegionKind::PartitionBuffers) > 0);
}
