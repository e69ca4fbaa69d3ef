//! Property-based tests for the disk substrate: arbitrary relations,
//! stripe geometries, and read-ahead windows must round-trip exactly,
//! and the on-disk join — under every residency policy — must agree with
//! the in-memory engine.

use proptest::collection::vec;
use proptest::prelude::*;

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_disk::{grace_join_files, DiskGraceConfig, DiskJoinMode, FileRelation, StripeSet};
use phj_memsim::NativeModel;
use phj_storage::{Page, Relation, RelationBuilder, Schema, PAGE_SIZE};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    // Unique per test-case to avoid collisions under parallel cases.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "phj-diskprop-{tag}-{}-{n}",
        std::process::id()
    ));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn file_relation_roundtrips(
        keys in vec(any::<u32>(), 0..3000),
        size in 8usize..120,
        stripes in 1usize..5,
        stripe_pages in 1u64..8,
        read_ahead in 1usize..32,
    ) {
        let dir = temp_dir("roundtrip");
        let rel = rel_from_keys(&keys, size);
        let fr = FileRelation::create(&dir, "r", &rel, stripes, stripe_pages).unwrap();
        prop_assert_eq!(fr.num_tuples() as usize, keys.len());
        // Page-ordered scan.
        let mut scan = fr.scan(read_ahead);
        let mut tuples = Vec::new();
        while let Some(page) = scan.next_page().unwrap() {
            for (_, t, h) in page.iter() {
                let k = u32::from_le_bytes(t[..4].try_into().unwrap());
                prop_assert_eq!(h, phj::hash::hash_key(&k.to_le_bytes()));
                tuples.push(t.to_vec());
            }
        }
        prop_assert_eq!(tuples, rel.to_tuple_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stripe_mapping_is_a_bijection(
        stripes in 1usize..6,
        stripe_pages in 1u64..10,
        pages in 1u64..200,
    ) {
        let dir = temp_dir("bijection");
        let s = StripeSet::create(&dir, "b", stripes, stripe_pages).unwrap();
        // No two pages may map to the same (file, offset).
        let mut seen = std::collections::HashSet::new();
        for p in 0..pages {
            prop_assert!(seen.insert((s.stripe_of(p), s.offset_of(p))), "page {} collides", p);
            prop_assert_eq!(s.offset_of(p) % PAGE_SIZE as u64, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_grace_agrees_with_memory(
        build_keys in vec(0u32..512, 1..800),
        probe_keys in vec(0u32..512, 0..800),
        budget_pages in 2usize..10,
    ) {
        let dir = temp_dir("grace");
        let build = rel_from_keys(&build_keys, 32);
        let probe = rel_from_keys(&probe_keys, 32);
        let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
        let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
        let cfg = DiskGraceConfig {
            mem_budget: budget_pages * PAGE_SIZE,
            num_stripes: 2,
            stripe_pages: 2,
            ..DiskGraceConfig::new(&dir)
        };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        // Reference: count key-equal pairs.
        let mut counts = std::collections::HashMap::new();
        for k in &build_keys {
            *counts.entry(*k).or_insert(0u64) += 1;
        }
        let want: u64 = probe_keys.iter().map(|k| counts.get(k).copied().unwrap_or(0)).sum();
        prop_assert_eq!(report.matches, want);
        prop_assert_eq!(report.output.num_tuples(), want);
        std::fs::remove_dir_all(&dir).ok();
    }

    // GRACE, hybrid and dynamic are policies of one driver: on any input
    // and budget they must produce the oracle's answer, and each policy's
    // residency contract must hold.
    #[test]
    fn policies_agree_with_each_other_and_the_memory_oracle(
        seed in any::<u32>(),
        size in 8usize..120,
        multiplicity in 1u32..4,
        // 0: ordinary, 1: empty build, 2: empty probe, 3: all one key.
        shape in 0u8..4,
    ) {
        let key = |i: u32| (i / multiplicity).wrapping_mul(0x9E37_79B1) ^ seed;
        let (build_keys, probe_keys): (Vec<u32>, Vec<u32>) = match shape {
            1 => (Vec::new(), (0..300).map(key).collect()),
            2 => ((0..600).map(key).collect(), Vec::new()),
            3 => (vec![seed; 600], vec![seed; 5]),
            _ => ((0..600).map(key).collect(), (300..900).map(key).collect()),
        };
        let build = rel_from_keys(&build_keys, size);
        let probe = rel_from_keys(&probe_keys, size);
        let mut oracle = CountSink::new();
        grace_join_with_sink(
            &mut NativeModel,
            &GraceConfig { mem_budget: 1 << 30, ..Default::default() },
            &build,
            &probe,
            &mut oracle,
        );

        // One page, a few pages, half the build, and roomy: twice the
        // build plus slack, so the quarter-budget reserve and the open
        // append pages fit beside a fully resident build side.
        let roomy = 2 * build.size_bytes() + 8 * PAGE_SIZE;
        for budget in [PAGE_SIZE, 3 * PAGE_SIZE, (build.size_bytes() / 2).max(PAGE_SIZE), roomy] {
            for mode in [DiskJoinMode::Grace, DiskJoinMode::Hybrid, DiskJoinMode::Dynamic] {
                let dir = temp_dir("policy");
                let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
                let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
                let cfg = DiskGraceConfig {
                    mem_budget: budget,
                    mode,
                    num_stripes: 2,
                    stripe_pages: 2,
                    ..DiskGraceConfig::new(&dir)
                };
                let r = grace_join_files(&cfg, &fb, &fp).unwrap();
                prop_assert_eq!(
                    (r.matches, r.checksum),
                    (oracle.matches(), oracle.checksum()),
                    "{} at budget {}", mode.label(), budget
                );
                if mode == DiskJoinMode::Grace {
                    prop_assert_eq!(r.resident_partitions, 0);
                    prop_assert!(r.transitions.is_empty());
                    prop_assert_eq!(
                        r.num_partitions,
                        plan::num_partitions(fb.size_bytes() as usize, budget)
                    );
                }
                if mode == DiskJoinMode::Dynamic && budget == roomy {
                    prop_assert_eq!(r.resident_partitions, r.num_partitions);
                    let spilled_bytes: u64 = std::fs::read_dir(&dir)
                        .unwrap()
                        .map(|e| e.unwrap())
                        .filter(|e| e.file_name().to_string_lossy().contains("_spill."))
                        .map(|e| e.metadata().unwrap().len())
                        .sum();
                    prop_assert_eq!(spilled_bytes, 0, "a fully resident run wrote spill pages");
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }

    #[test]
    fn page_images_survive_arbitrary_contents(
        fills in vec((any::<u8>(), 1usize..200), 1..40),
    ) {
        // Pages with arbitrary tuple bytes round-trip through disk images.
        let dir = temp_dir("pages");
        let s = StripeSet::create(&dir, "pg", 3, 2).unwrap();
        let mut originals = Vec::new();
        for (i, (byte, len)) in fills.iter().enumerate() {
            let mut page = Page::new();
            let tuple = vec![*byte; *len];
            while page.insert(&tuple, *byte as u32).is_some() {}
            s.write_page(i as u64, page.as_bytes()).unwrap();
            originals.push(page);
        }
        for (i, orig) in originals.iter().enumerate() {
            let img = s.read_page(i as u64).unwrap();
            let got = Page::from_bytes(img);
            prop_assert_eq!(got.nslots(), orig.nslots());
            for (slot, t, h) in got.iter() {
                prop_assert_eq!(t, orig.tuple(slot));
                prop_assert_eq!(h, orig.hash_code(slot));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
