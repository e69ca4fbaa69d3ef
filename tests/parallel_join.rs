//! Parallel executor invariants, end to end:
//!
//! * the correctness invariant — for `--threads 1..=8`, native and
//!   simulated parallel joins produce the identical match count and
//!   order-independent checksum as the sequential GRACE join, and
//!   parallel aggregation the identical group digest;
//! * simulated determinism — two `--threads N` sim runs render
//!   byte-identical reports once wall-clock fields are zeroed;
//! * merged observability — a parallel sim report (with region
//!   profiling) passes every [`RunReport::validate`] structural check,
//!   including region conservation and the per-worker lane rule.

use std::collections::HashMap;

use phj::aggregate::{aggregate, AggScheme};
use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::sink::{pair_digest, CountSink, JoinSink};
use phj_exec::{agg_checksum, parallel_agg_native, parallel_agg_sim};
use phj_exec::{parallel_join_native, parallel_join_sim, SimJoinOutcome};
use phj_memsim::NativeModel;
use phj_obs::RunReport;
use phj_storage::{Relation, RelationBuilder, Schema};
use phj_workload::JoinSpec;

fn workload() -> (Relation, Relation, u64) {
    let spec = JoinSpec {
        build_tuples: 1500,
        tuple_size: 40,
        matches_per_build: 2,
        pct_match: 80,
        seed: 7,
    };
    let gen = spec.generate();
    (gen.build, gen.probe, gen.expected_matches)
}

fn small_cfg() -> GraceConfig {
    // Small budget: forces a real multi-partition first pass.
    GraceConfig { mem_budget: 16 * 1024, ..Default::default() }
}

#[test]
fn parallel_join_matches_sequential_for_threads_1_to_8() {
    let (build, probe, expected) = workload();
    let cfg = small_cfg();
    let mut seq = CountSink::new();
    grace_join_with_sink(&mut NativeModel, &cfg, &build, &probe, &mut seq);
    assert_eq!(seq.matches(), expected);
    for threads in 1..=8 {
        let nat = parallel_join_native(&cfg, &build, &probe, threads, false);
        assert_eq!(nat.sink, seq, "native threads={threads}");
        let sim = parallel_join_sim(&cfg, &build, &probe, threads, false, false);
        assert_eq!(sim.sink, seq, "sim threads={threads}");
        // One driver behind both: same fan-out, not just the same answer.
        assert_eq!(nat.partitions, sim.partitions, "threads={threads}");
    }
}

/// Everything about a sim outcome that is independent of where the heap
/// happens to place pages: result, scheduling, and the full span-tree
/// skeleton (names, nesting, metadata). Exact cycle counts are a
/// *process-level* invariant — the set-indexed cache model keys off real
/// addresses, so byte-identical breakdowns hold across repeated CLI
/// runs (the CI threads matrix asserts this) but not across two runs
/// inside one already-fragmented heap.
fn sim_skeleton(out: SimJoinOutcome) -> (u64, u64, usize, Vec<(usize, u64)>, String) {
    let lanes = out.lanes.iter().map(|l| (l.lane, l.tasks)).collect();
    let spans = out
        .recorder
        .unwrap()
        .finish()
        .iter()
        .map(|s| format!("{}|{:?}|{}|{:?}", s.name, s.parent, s.depth, s.meta))
        .collect::<Vec<_>>()
        .join("\n");
    (out.sink.matches(), out.sink.checksum(), out.partitions, lanes, spans)
}

#[test]
fn simulated_parallel_join_is_deterministic() {
    let (build, probe, _) = workload();
    let cfg = small_cfg();
    for threads in [2, 4] {
        let a = parallel_join_sim(&cfg, &build, &probe, threads, true, true);
        let b = parallel_join_sim(&cfg, &build, &probe, threads, true, true);
        assert_eq!(sim_skeleton(a), sim_skeleton(b), "threads={threads}");
    }
}

#[test]
fn merged_sim_report_passes_validation_with_regions() {
    let (build, probe, _) = workload();
    let cfg = small_cfg();
    let out = parallel_join_sim(&cfg, &build, &probe, 3, true, true);
    let mut report = RunReport::from_recorder("join", out.recorder.unwrap(), out.totals, 1);
    report.simulated = true;
    report.regions = out.regions;
    report.validate().expect("merged parallel report (with regions) validates");
    // Worker lanes actually appear in the merged span tree.
    for w in 0..3 {
        let tag = w.to_string();
        assert!(
            report
                .spans
                .iter()
                .any(|s| s.meta.iter().any(|(k, v)| k == "worker" && *v == tag)),
            "no spans tagged worker={w}"
        );
    }
    // And the lane accounting is consistent: critical path ≤ lane sum.
    let lane_sum: u64 = out.lanes.iter().map(|l| l.cycles).sum();
    assert!(out.totals.breakdown.total() <= lane_sum);
    assert!(out.totals.breakdown.total() > 0);
}

#[test]
fn parallel_agg_matches_sequential_for_threads_1_to_8() {
    let (build, _, _) = workload();
    let buckets = 101;
    let extract = |t: &[u8]| t[6] as i64;
    let seq = aggregate(&mut NativeModel, AggScheme::Group { g: 8 }, &build, buckets, extract);
    for threads in 1..=8 {
        let nat =
            parallel_agg_native(AggScheme::Group { g: 8 }, &build, buckets, extract, threads, false);
        assert_eq!(nat.table.num_groups(), seq.num_groups(), "native threads={threads}");
        assert_eq!(agg_checksum(&nat.table), agg_checksum(&seq), "native threads={threads}");
        let sim = parallel_agg_sim(
            AggScheme::Group { g: 8 },
            &build,
            buckets,
            extract,
            threads,
            false,
            false,
        );
        assert_eq!(agg_checksum(&sim.table), agg_checksum(&seq), "sim threads={threads}");
    }
}

/// 2 000 copies of one key (40-byte tuples, distinct payloads) against 3
/// probes of it: 6 000 matches in one partition that no repartitioning
/// can split.
fn dominant_key() -> (Relation, Relation) {
    let rel = |copies: u32| {
        let mut b = RelationBuilder::new(Schema::key_payload(40));
        for i in 0..copies {
            let mut t = [0u8; 40];
            t[..4].copy_from_slice(&7u32.to_le_bytes());
            t[4..8].copy_from_slice(&i.to_le_bytes());
            b.push(&t);
        }
        b.finish()
    };
    (rel(2_000), rel(3))
}

/// Matches and pair checksum of a `HashMap` join, which shares no join
/// code with the engine.
fn hash_map_join(build: &Relation, probe: &Relation) -> (u64, u64) {
    let mut table: HashMap<&[u8], Vec<&[u8]>> = HashMap::new();
    for (_, t, _) in build.iter() {
        table.entry(&t[..4]).or_default().push(t);
    }
    let (mut matches, mut checksum) = (0u64, 0u64);
    for (_, p, _) in probe.iter() {
        for b in table.get(&p[..4]).into_iter().flatten() {
            matches += 1;
            checksum = checksum.wrapping_add(pair_digest(b, p));
        }
    }
    (matches, checksum)
}

/// The dominant key through the parallel driver at 2 threads: its pair
/// task goes down the same overflow ladder as the sequential join.
#[test]
fn dominant_key_joins_in_chunks_in_parallel() {
    let (build, probe) = dominant_key();
    let want = hash_map_join(&build, &probe);
    assert_eq!(want.0, 6_000);
    let out = parallel_join_native(&small_cfg(), &build, &probe, 2, false);
    assert_eq!((out.sink.matches(), out.sink.checksum()), want);
}
