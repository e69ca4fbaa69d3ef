//! Property-based tests (proptest) on the core invariants:
//!
//! * any scheme × any parameters == the reference join, for arbitrary
//!   key multisets (including adversarial duplicates);
//! * partitioning preserves the tuple multiset and the placement
//!   invariant for arbitrary tuples and partition counts;
//! * the hash table behaves as a multimap under arbitrary insert
//!   sequences, via either insert protocol;
//! * slotted pages round-trip arbitrary tuple sequences.

use std::collections::HashMap;

use proptest::collection::vec;
use proptest::prelude::*;

use phj::hash::hash_key;
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::partition::{partition_relation, PartitionScheme};
use phj::sink::{CountSink, JoinSink};
use phj::table::{HashCell, HashTable, InsertStep};
use phj_memsim::NativeModel;
use phj_storage::tuple::key_bytes_of;
use phj_storage::{Page, Relation, RelationBuilder, Schema};

fn rel_from_keys(keys: &[u32], size: usize) -> Relation {
    let schema = Schema::key_payload(size);
    let mut b = RelationBuilder::new(schema);
    let mut t = vec![0u8; size];
    for &k in keys {
        t[..4].copy_from_slice(&k.to_le_bytes());
        b.push_hashed(&t, hash_key(&k.to_le_bytes()));
    }
    b.finish()
}

/// The join through a `HashMap` over key bytes, sharing no code with the
/// kernels.
fn reference(build: &Relation, probe: &Relation) -> CountSink {
    let mut index: HashMap<&[u8], Vec<&[u8]>> = HashMap::new();
    for (_, bt, _) in build.iter() {
        index.entry(key_bytes_of(build.schema(), bt)).or_default().push(bt);
    }
    let mut sink = CountSink::new();
    for (_, pt, _) in probe.iter() {
        for bt in index.get(key_bytes_of(probe.schema(), pt)).into_iter().flatten() {
            sink.emit(&mut NativeModel, bt, pt);
        }
    }
    sink
}

/// Expected number of key-equal pairs between two key multisets.
fn expected_pairs(build: &[u32], probe: &[u32]) -> u64 {
    let mut counts = HashMap::new();
    for &k in build {
        *counts.entry(k).or_insert(0u64) += 1;
    }
    probe.iter().map(|k| counts.get(k).copied().unwrap_or(0)).sum()
}

fn scheme_strategy() -> impl Strategy<Value = JoinScheme> {
    prop_oneof![
        Just(JoinScheme::Baseline),
        Just(JoinScheme::Simple),
        (2usize..64).prop_map(|g| JoinScheme::Group { g }),
        (1usize..16).prop_map(|d| JoinScheme::Swp { d }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_equals_reference(
        build_keys in vec(0u32..64, 0..300),
        probe_keys in vec(0u32..64, 0..300),
        scheme in scheme_strategy(),
    ) {
        // Small key universe forces heavy duplication: multi-cell
        // buckets, build conflicts, multi-match probes.
        let build = rel_from_keys(&build_keys, 20);
        let probe = rel_from_keys(&probe_keys, 20);
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme, use_stored_hash: true },
            &build,
            &probe,
            1,
            &mut sink,
            None,
        );
        prop_assert_eq!(sink.matches(), expected_pairs(&build_keys, &probe_keys));
        // And the exact pair multiset matches the reference join's.
        prop_assert_eq!(sink, reference(&build, &probe));
    }

    #[test]
    fn partition_preserves_multiset(
        keys in vec(any::<u32>(), 1..400),
        nparts in 1usize..40,
        scheme_pick in 0usize..4,
        param in 1usize..32,
    ) {
        let scheme = match scheme_pick {
            0 => PartitionScheme::Baseline,
            1 => PartitionScheme::Simple,
            2 => PartitionScheme::Group { g: param.max(2) },
            _ => PartitionScheme::Swp { d: param },
        };
        let input = rel_from_keys(&keys, 36);
        let mut mem = NativeModel;
        let parts = partition_relation(&mut mem, scheme, &input, nparts, false);
        let total: usize = parts.iter().map(|r| r.num_tuples()).sum();
        prop_assert_eq!(total, input.num_tuples());
        for (p, rel) in parts.iter().enumerate() {
            for (_, t, h) in rel.iter() {
                prop_assert_eq!(phj::hash::partition_of(h, nparts), p);
                let k = u32::from_le_bytes(t[..4].try_into().unwrap());
                prop_assert_eq!(hash_key(&k.to_le_bytes()), h);
            }
        }
        let mut a = input.to_tuple_vec();
        let mut b: Vec<Vec<u8>> = parts.iter().flat_map(|r| r.to_tuple_vec()).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hash_table_is_a_multimap(
        items in vec((0u32..128, 1u32..1000), 0..300),
        buckets in 1usize..64,
        staged in any::<bool>(),
    ) {
        let mut table = HashTable::new(buckets, items.len());
        let mut reference: std::collections::HashMap<u32, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &(hash, len)) in items.iter().enumerate() {
            let addr = 0x1_0000 + i * 0x100;
            let cell = HashCell::new(hash, addr, len);
            if staged {
                let b = table.bucket_of(hash);
                let mut grown = 0;
                match table.begin_insert(b, cell, 7, &mut grown) {
                    InsertStep::DoneInline => {}
                    InsertStep::WriteCell(idx) => table.finish_overflow_insert(b, idx, cell),
                    InsertStep::Busy(_) => prop_assert!(false, "no concurrency here"),
                }
            } else {
                table.insert(cell);
            }
            reference.entry(hash).or_default().push(addr);
        }
        table.assert_quiescent();
        prop_assert_eq!(table.len(), items.len());
        for (hash, addrs) in &reference {
            let got: Vec<usize> = table.lookup(*hash).map(|c| c.tuple_addr()).collect();
            prop_assert_eq!(&got, addrs, "hash {} preserves insert order", hash);
        }
        // Absent hashes find nothing.
        for h in 128u32..140 {
            prop_assert_eq!(table.lookup(h).count(), 0);
        }
    }

    #[test]
    fn slotted_page_roundtrip(
        tuples in vec((vec(any::<u8>(), 0..300), any::<u32>()), 0..60),
    ) {
        let mut page = Page::new();
        let mut stored = Vec::new();
        for (bytes, hash) in &tuples {
            match page.insert(bytes, *hash) {
                Some(slot) => stored.push((slot, bytes.clone(), *hash)),
                None => break, // page full; everything stored so far must hold
            }
        }
        prop_assert_eq!(page.nslots() as usize, stored.len());
        for (slot, bytes, hash) in &stored {
            prop_assert_eq!(page.tuple(*slot), &bytes[..]);
            prop_assert_eq!(page.hash_code(*slot), *hash);
        }
        // Iteration yields exactly the stored tuples in slot order.
        let via_iter: Vec<(u16, Vec<u8>, u32)> =
            page.iter().map(|(s, t, h)| (s, t.to_vec(), h)).collect();
        prop_assert_eq!(via_iter, stored);
    }

    #[test]
    fn grace_any_budget_matches_oracle(
        build_n in 1usize..400,
        m in 1usize..4,
        pct in 0u8..=100,
        budget_pages in 1usize..20,
    ) {
        let spec = phj_workload::JoinSpec {
            build_tuples: build_n,
            tuple_size: 20,
            matches_per_build: m,
            pct_match: pct,
            seed: build_n as u64,
        };
        let gen = spec.generate();
        let cfg = phj::grace::GraceConfig {
            mem_budget: budget_pages * 8192,
            ..Default::default()
        };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        phj::grace::grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
        prop_assert_eq!(sink.matches(), gen.expected_matches);
    }
}
