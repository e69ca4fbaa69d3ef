//! Graceful-degradation tests: build partitions that cannot fit the
//! memory budget must still produce the right answer — via recursive
//! repartitioning on the stashed hash codes (coprime fan-out) at any
//! depth while that shrinks them, and via the block nested-loop fallback
//! when it cannot (one dominant key). Correctness is checked against the
//! in-memory engine on both the match count and the order-insensitive
//! pair checksum, and the in-memory engine at each case's own tight
//! budget — the same overflow ladder — must agree with it. The tests pin
//! the GRACE policy: it sends every partition down the ladder, so the
//! shapes asserted here do not depend on what happens to stay resident.

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::sink::{CountSink, JoinSink};
use phj_disk::{
    grace_join_files, DegradationEvent, DegradationKind, DiskGraceConfig, DiskJoinMode,
    FileRelation,
};
use phj_memsim::NativeModel;
use phj_storage::{Relation, RelationBuilder, Schema, PAGE_SIZE};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phj-degrade-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rel_from_keys(keys: &[u32], size: usize) -> Relation {
    let schema = Schema::key_payload(size);
    let mut b = RelationBuilder::new(schema);
    let mut t = vec![0u8; size];
    for &k in keys {
        t[..4].copy_from_slice(&k.to_le_bytes());
        b.push_hashed(&t, phj::hash::hash_key(&k.to_le_bytes()));
    }
    b.finish()
}

/// Reference run: the in-memory GRACE with a budget large enough to
/// never degrade, collecting the match count and pair checksum.
fn reference(build: &Relation, probe: &Relation) -> (u64, u64) {
    let mut sink = CountSink::new();
    grace_join_with_sink(
        &mut NativeModel,
        &GraceConfig { mem_budget: 1 << 30, ..Default::default() },
        build,
        probe,
        &mut sink,
    );
    (sink.matches(), sink.checksum())
}

/// The in-memory GRACE at a case's own tight budget: its overflow ladder
/// must reach the reference answer too.
fn in_memory_at(budget: usize, build: &Relation, probe: &Relation) -> (u64, u64) {
    let mut sink = CountSink::new();
    let cfg = GraceConfig { mem_budget: budget, ..Default::default() };
    grace_join_with_sink(&mut NativeModel, &cfg, build, probe, &mut sink);
    (sink.matches(), sink.checksum())
}

#[test]
fn all_same_key_falls_back_to_block_nlj() {
    let dir = temp_dir("samekey");
    // 2000 copies of one key: no hash seed can ever split this build
    // partition, so the ladder must land on the nested-loop fallback.
    let build_keys = vec![42u32; 2000];
    let mut probe_keys = vec![42u32; 10];
    probe_keys.extend(1000..1200u32); // non-matching tail
    let build = rel_from_keys(&build_keys, 48);
    let probe = rel_from_keys(&probe_keys, 48);
    let (want_matches, want_checksum) = reference(&build, &probe);
    assert_eq!(want_matches, 2000 * 10);
    assert_eq!(in_memory_at(4 * PAGE_SIZE, &build, &probe), (want_matches, want_checksum));

    let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
    let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
    let cfg = DiskGraceConfig {
        mem_budget: 4 * PAGE_SIZE,
        num_stripes: 2,
        stripe_pages: 2,
        mode: DiskJoinMode::Grace,
        ..DiskGraceConfig::new(&dir)
    };
    let report = grace_join_files(&cfg, &fb, &fp).unwrap();
    assert_eq!(report.matches, want_matches);
    assert_eq!(report.checksum, want_checksum);
    assert!(
        report
            .degradation
            .iter()
            .any(|e| matches!(e.kind, DegradationKind::NljFallback { .. })),
        "expected an NLJ fallback, got {:?}",
        report.degradation
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_key_degrades_recursively_then_falls_back() {
    let dir = temp_dir("hotkey");
    // One key with 3000 copies (~21 pages on its own) plus 2000 distinct
    // keys. The hot partition repartitions at depth 0 (shedding the
    // distinct keys), but the hot key itself can never shrink under the
    // 4-page budget — deeper rungs of the ladder must engage.
    let hot = 7u32;
    let mut build_keys = vec![hot; 3000];
    build_keys.extend(10_000..12_000u32);
    let mut probe_keys = vec![hot; 5];
    probe_keys.extend(10_000..12_000u32);
    let build = rel_from_keys(&build_keys, 48);
    let probe = rel_from_keys(&probe_keys, 48);
    let (want_matches, want_checksum) = reference(&build, &probe);
    assert_eq!(want_matches, 3000 * 5 + 2000);
    assert_eq!(in_memory_at(4 * PAGE_SIZE, &build, &probe), (want_matches, want_checksum));

    let fb = FileRelation::create(&dir, "b", &build, 3, 2).unwrap();
    let fp = FileRelation::create(&dir, "p", &probe, 3, 2).unwrap();
    let cfg = DiskGraceConfig {
        mem_budget: 4 * PAGE_SIZE,
        num_stripes: 2,
        stripe_pages: 2,
        mode: DiskJoinMode::Grace,
        ..DiskGraceConfig::new(&dir)
    };
    let report = grace_join_files(&cfg, &fb, &fp).unwrap();
    assert_eq!(report.matches, want_matches);
    assert_eq!(report.checksum, want_checksum);
    let depth0_repart = report
        .degradation
        .iter()
        .any(|e| e.depth == 0 && matches!(e.kind, DegradationKind::Repartition { .. }));
    let deeper = report.degradation.iter().any(|e| e.depth >= 1);
    let nlj = report
        .degradation
        .iter()
        .any(|e| matches!(e.kind, DegradationKind::NljFallback { .. }));
    assert!(
        depth0_repart && deeper && nlj,
        "expected depth-0 repartition, a deeper event, and an NLJ fallback; got {:?}",
        report.degradation
    );
    // Hierarchical labels name the ancestry of degraded partitions.
    for e in &report.degradation {
        assert_eq!(e.partition.split('.').count() as u32, e.depth + 1, "{e:?}");
        assert!(e.bytes > e.budget, "{e:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lumpy_keys_complete_via_recursive_repartition() {
    let dir = temp_dir("lumpy");
    // 50 distinct keys x 60 copies: partitions are lumpy (each key is an
    // indivisible ~0.4-page clump) so some top-level partitions overflow
    // a 3-page budget, but every clump fits — coprime repartitioning
    // alone must finish the join, no fallback needed.
    let build_keys: Vec<u32> = (0..50u32).flat_map(|k| std::iter::repeat_n(k * 17 + 3, 60)).collect();
    let probe_keys: Vec<u32> = (0..50u32).map(|k| k * 17 + 3).collect();
    let build = rel_from_keys(&build_keys, 48);
    let probe = rel_from_keys(&probe_keys, 48);
    let (want_matches, want_checksum) = reference(&build, &probe);
    assert_eq!(want_matches, 50 * 60);
    assert_eq!(in_memory_at(3 * PAGE_SIZE, &build, &probe), (want_matches, want_checksum));

    let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
    let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
    let cfg = DiskGraceConfig {
        mem_budget: 3 * PAGE_SIZE,
        num_stripes: 2,
        stripe_pages: 2,
        mode: DiskJoinMode::Grace,
        ..DiskGraceConfig::new(&dir)
    };
    let report = grace_join_files(&cfg, &fb, &fp).unwrap();
    assert_eq!(report.matches, want_matches);
    assert_eq!(report.checksum, want_checksum);
    assert!(
        !report.degradation.is_empty(),
        "budget below largest partition must trigger degradation"
    );
    assert!(
        report
            .degradation
            .iter()
            .all(|e| matches!(e.kind, DegradationKind::Repartition { .. })),
        "splittable keys should never need the NLJ fallback: {:?}",
        report.degradation
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pair_that_still_shrinks_at_depth_2_repartitions_again() {
    let dir = temp_dir("depth2");
    // Keys picked by hash residue so that, under a 4-page budget, the
    // 33-page build lands whole in top-level partition 4 of 9; most of
    // it in sub-partition 7 of the depth-0 fan-out of 10; most of that
    // in sub-partition 3 of the depth-1 fan-out of 11. The 24-page
    // partition 4.7.3 is still distinct keys, so a depth-2 pass shrinks
    // it and no pair needs the chunked join.
    let h = |k: &u32| phj::hash::hash_key(&k.to_le_bytes()) as usize;
    let pick = |n: usize, keep: &dyn Fn(usize) -> bool| {
        (0u32..).filter(|k| h(k) % 9 == 4 && keep(h(k))).take(n).collect::<Vec<_>>()
    };
    let mut keys = pick(3500, &|h| h % 10 == 7 && h % 11 == 3);
    keys.extend(pick(700, &|h| h % 10 == 7 && h % 11 != 3));
    keys.extend(pick(600, &|h| h % 10 != 7));
    let build = rel_from_keys(&keys, 48);
    let probe = rel_from_keys(&keys, 48);
    let (want_matches, want_checksum) = reference(&build, &probe);
    assert_eq!(want_matches, keys.len() as u64);
    assert_eq!(in_memory_at(4 * PAGE_SIZE, &build, &probe), (want_matches, want_checksum));

    let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
    let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
    let cfg = DiskGraceConfig {
        mem_budget: 4 * PAGE_SIZE,
        num_stripes: 2,
        stripe_pages: 2,
        mode: DiskJoinMode::Grace,
        ..DiskGraceConfig::new(&dir)
    };
    let report = grace_join_files(&cfg, &fb, &fp).unwrap();
    assert_eq!((report.matches, report.checksum), (want_matches, want_checksum));
    let events = &report.degradation;
    let repartition = |e: &&DegradationEvent| matches!(e.kind, DegradationKind::Repartition { .. });
    assert!(
        events.iter().filter(repartition).any(|e| e.depth == 2),
        "expected a repartition at depth 2, got {events:?}"
    );
    assert!(
        !events.iter().any(|e| matches!(e.kind, DegradationKind::NljFallback { .. })),
        "a shrinking pair fell to the chunked join: {events:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Sanity for the reference itself: the disk engine on a roomy budget
/// (no degradation) produces the same checksum the references use.
#[test]
fn checksum_is_degradation_invariant() {
    let dir = temp_dir("invariant");
    let build_keys: Vec<u32> = (0..1500u32).map(|k| k % 300).collect();
    let probe_keys: Vec<u32> = (0..900u32).map(|k| k % 450).collect();
    let build = rel_from_keys(&build_keys, 32);
    let probe = rel_from_keys(&probe_keys, 32);
    let (want_matches, want_checksum) = reference(&build, &probe);

    let mut got = Vec::new();
    for (tag, budget) in [("roomy", 1usize << 30), ("tight", 2 * PAGE_SIZE)] {
        assert_eq!(in_memory_at(budget, &build, &probe), (want_matches, want_checksum), "{tag}");
        let d = temp_dir(&format!("invariant-{tag}"));
        let fb = FileRelation::create(&d, "b", &build, 2, 2).unwrap();
        let fp = FileRelation::create(&d, "p", &probe, 2, 2).unwrap();
        let cfg = DiskGraceConfig {
            mem_budget: budget,
            num_stripes: 2,
            stripe_pages: 2,
            mode: DiskJoinMode::Grace,
            ..DiskGraceConfig::new(&d)
        };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!(report.matches, want_matches, "{tag}");
        got.push((tag, report.checksum, report.degradation.len()));
        std::fs::remove_dir_all(&d).ok();
    }
    for (tag, checksum, _) in &got {
        assert_eq!(*checksum, want_checksum, "{tag}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
