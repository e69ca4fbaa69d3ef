//! End-to-end GRACE runs against the workload oracle, plus agreement of
//! the cache-partitioning variants with GRACE on the same inputs.

use std::collections::HashMap;

use phj::cachepart::{
    direct_cache_join, direct_cache_partition, two_step_join, two_step_partition,
    CachePartConfig,
};
use phj::grace::{grace_join, grace_join_with_sink, hybrid_join, GraceConfig};
use phj::hash::{hash_key, partition_of};
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::partition::PartitionScheme;
use phj::plan;
use phj::sink::{pair_digest, CountSink, JoinSink};
use phj_memsim::{NativeModel, SimEngine};
use phj_obs::{Recorder, SpanRecord};
use phj_storage::{Relation, RelationBuilder, Schema, TupleView};
use phj_workload::JoinSpec;

fn spec() -> JoinSpec {
    JoinSpec {
        build_tuples: 6_000,
        tuple_size: 48,
        matches_per_build: 2,
        pct_match: 75,
        seed: 99,
    }
}

#[test]
fn grace_matches_workload_oracle_for_all_schemes() {
    let gen = spec().generate();
    let mut reference: Option<CountSink> = None;
    for ps in [
        PartitionScheme::Baseline,
        PartitionScheme::Simple,
        PartitionScheme::Group { g: 12 },
        PartitionScheme::Swp { d: 2 },
        PartitionScheme::combined_default(),
    ] {
        for js in [
            JoinScheme::Baseline,
            JoinScheme::Simple,
            JoinScheme::Group { g: 16 },
            JoinScheme::Swp { d: 1 },
        ] {
            let cfg = GraceConfig {
                mem_budget: 64 * 1024,
                partition_scheme: ps,
                join_scheme: js,
                ..Default::default()
            };
            let mut mem = NativeModel;
            let mut sink = CountSink::new();
            let p = grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            assert!(p > 1, "expected multiple partitions");
            assert_eq!(sink.matches(), gen.expected_matches);
            match &reference {
                None => reference = Some(sink),
                Some(r) => assert_eq!(&sink, r, "{ps:?}+{js:?}"),
            }
        }
    }
}

#[test]
fn cache_partitioning_agrees_with_grace() {
    let gen = spec().generate();
    let mut mem = NativeModel;
    let mut grace_sink = CountSink::new();
    grace_join_with_sink(
        &mut mem,
        &GraceConfig { mem_budget: 96 * 1024, ..Default::default() },
        &gen.build,
        &gen.probe,
        &mut grace_sink,
    );
    assert_eq!(grace_sink.matches(), gen.expected_matches);

    let cp = CachePartConfig {
        cache_budget: 16 * 1024,
        mem_budget: 96 * 1024,
        ..Default::default()
    };
    let (bp, pp, p) = direct_cache_partition(&mut mem, &cp, &gen.build, &gen.probe)
        .expect("within partition limit");
    let mut direct_sink = CountSink::new();
    direct_cache_join(&mut mem, &cp, &bp, &pp, p, &mut direct_sink);
    assert_eq!(direct_sink, grace_sink, "direct cache");

    let (bp, pp, p) = two_step_partition(&mut mem, &cp, &gen.build, &gen.probe);
    let mut ts_sink = CountSink::new();
    two_step_join(&mut mem, &cp, &bp, &pp, p, &mut ts_sink);
    assert_eq!(ts_sink, grace_sink, "two-step cache");
}

#[test]
fn materialized_output_is_well_formed() {
    let gen = spec().generate();
    let cfg = GraceConfig { mem_budget: 64 * 1024, ..Default::default() };
    let mut mem = NativeModel;
    let res = grace_join(&mut mem, &cfg, &gen.build, &gen.probe);
    assert_eq!(res.output.num_tuples() as u64, gen.expected_matches);
    let schema = res.output.schema().clone();
    assert_eq!(schema.arity(), 4); // key+payload from each side
    for (_, t, _) in res.output.iter() {
        let v = TupleView::new(&schema, t);
        assert_eq!(v.u32(0), v.u32(2), "build key == probe key in output");
        assert_eq!(t.len(), 96);
    }
}

#[test]
fn single_partition_budget_still_works() {
    let gen = JoinSpec {
        build_tuples: 500,
        tuple_size: 20,
        matches_per_build: 1,
        pct_match: 100,
        seed: 5,
    }
    .generate();
    let cfg = GraceConfig { mem_budget: 1 << 30, ..Default::default() };
    let mut mem = NativeModel;
    let res = grace_join(&mut mem, &cfg, &gen.build, &gen.probe);
    assert_eq!(res.num_partitions, 1);
    assert_eq!(res.output.num_tuples() as u64, gen.expected_matches);
}

/// 2 000 copies of `key` (40-byte tuples, distinct payloads) against 3
/// probes of it: 6 000 matches in one partition that no repartitioning
/// can split.
fn dominant_key(key: u32) -> (Relation, Relation) {
    let rel = |copies: u32| {
        let mut b = RelationBuilder::new(Schema::key_payload(40));
        for i in 0..copies {
            let mut t = [0u8; 40];
            t[..4].copy_from_slice(&key.to_le_bytes());
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

/// One key far over the budget: repartitioning cannot shrink its
/// partition, so the overflow ladder joins it in budget-sized chunks
/// instead of recursing.
#[test]
fn dominant_key_joins_in_chunks() {
    let (build, probe) = dominant_key(7);
    let want = hash_map_join(&build, &probe);
    assert_eq!(want.0, 6_000);
    let cfg = GraceConfig { mem_budget: 16 * 1024, ..Default::default() };
    let mut sink = CountSink::new();
    grace_join_with_sink(&mut NativeModel, &cfg, &build, &probe, &mut sink);
    assert_eq!((sink.matches(), sink.checksum()), want);
}

/// The hybrid join of [`dominant_key`]`(key)` at a 16 KiB budget (six
/// partitions) under a group, a pipelined and a sequential schedule: each
/// run equals the `HashMap` join. Returns the partition the key lands in
/// and each run's spans.
fn hybrid_dominant_key(key: u32) -> (usize, Vec<Vec<SpanRecord>>) {
    let (build, probe) = dominant_key(key);
    let want = hash_map_join(&build, &probe);
    let mut runs = Vec::new();
    for join_scheme in [JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 2 }, JoinScheme::Baseline] {
        let cfg = GraceConfig { mem_budget: 16 * 1024, join_scheme, ..Default::default() };
        let (mut sink, mut rec) = (CountSink::new(), Recorder::new());
        let p = hybrid_join(&mut NativeModel, &cfg, &build, &probe, &mut sink, Some(&mut rec));
        assert_eq!(p, 6);
        assert_eq!((sink.matches(), sink.checksum()), want, "{join_scheme:?}");
        runs.push(rec.finish());
    }
    (partition_of(hash_key(&key.to_le_bytes()), 6), runs)
}

/// The key resident in partition 0: its table holds the whole build side.
#[test]
fn hybrid_dominant_key_in_the_resident_partition() {
    let (part, _) = hybrid_dominant_key(24);
    assert_eq!(part, 0);
}

/// The key in a spilled partition 6x the budget: the pair goes through
/// the overflow ladder and joins in chunks.
#[test]
fn hybrid_dominant_key_in_a_spilled_partition_joins_in_chunks() {
    let (part, runs) = hybrid_dominant_key(7);
    assert_eq!(part, 4);
    for spans in runs {
        assert_eq!(spans[0].name, "hybrid_join");
        let nlj: Vec<_> = spans.iter().filter(|s| s.name == "nlj_fallback").collect();
        assert_eq!(nlj.len(), 1, "one chunked join under hybrid_join");
        assert!(nlj[0].meta.contains(&("partition".into(), "4".into())));
    }
}

/// A one-pair join of `build_tuples` 100-byte tuples, each matched once.
fn cache_edge_spec(build_tuples: usize) -> JoinSpec {
    JoinSpec {
        build_tuples,
        tuple_size: 100,
        matches_per_build: 1,
        pct_match: 100,
        seed: 17,
    }
}

/// §7.4's combined rule, join half, end to end: a staged scheme joins a
/// pair whose build pages and table fit the L2 with simple prefetching
/// (its only prefetches are one per input page), and a pair just past
/// the L2 with its own access pattern (as many prefetches as the staged
/// kernels make when called directly). Both answers equal the oracle.
#[test]
fn staged_join_falls_back_to_simple_just_under_the_cache() {
    let per_page = cache_edge_spec(200).generate().build.page(0).nslots() as usize;
    let fits = |n: usize| plan::join_working_set(n.div_ceil(per_page), n) <= plan::L2_BYTES;
    let page_ends = (1..).map(|pages| pages * per_page);
    let under = page_ends.take_while(|&n| fits(n)).last().unwrap();
    let over = under + per_page;
    for scheme in [JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 2 }] {
        for n in [under, over] {
            let gen = cache_edge_spec(n).generate();
            let (build, probe) = (&gen.build, &gen.probe);
            assert_eq!(fits(n), n == under, "{n} tuples on {} pages", build.num_pages());
            let cfg = GraceConfig { join_scheme: scheme, ..Default::default() };
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            let p = grace_join_with_sink(&mut mem, &cfg, build, probe, &mut sink);
            assert_eq!(p, 1, "one pair");
            assert_eq!((sink.matches(), sink.checksum()), hash_map_join(build, probe));
            let prefetches = mem.stats().prefetches;
            if n == under {
                let input_pages = (build.num_pages() + probe.num_pages()) as u64;
                assert_eq!(prefetches, input_pages, "{} at {n} tuples", scheme.label());
            } else {
                let mut staged = SimEngine::paper();
                let params = JoinParams { scheme, use_stored_hash: false };
                join_pair(&mut staged, &params, build, probe, 1, &mut CountSink::new(), None);
                let want = staged.stats().prefetches;
                assert!(want > 2 * n as u64, "{} prefetches per tuple", scheme.label());
                assert_eq!(prefetches, want, "{} at {n} tuples", scheme.label());
            }
        }
    }
}
