//! Every join scheme, over a grid of workloads and parameters, must
//! produce exactly the multiset of (build, probe) pairs that a
//! nested-loop reference join produces.

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::NativeModel;
use phj_storage::tuple::key_bytes_of;
use phj_workload::{GeneratedJoin, JoinSpec};

/// Nested-loop reference: emit every key-equal pair into a CountSink.
fn reference(gen: &GeneratedJoin) -> CountSink {
    let mut sink = CountSink::new();
    let mut mem = NativeModel;
    let bs = gen.build.schema().clone();
    let ps = gen.probe.schema().clone();
    // Index build keys to keep the reference O(n+m).
    let mut index: std::collections::HashMap<&[u8], Vec<&[u8]>> =
        std::collections::HashMap::new();
    let build_tuples: Vec<&[u8]> = gen.build.iter().map(|(_, t, _)| t).collect();
    for t in &build_tuples {
        index.entry(key_bytes_of(&bs, t)).or_default().push(t);
    }
    for (_, pt, _) in gen.probe.iter() {
        if let Some(bts) = index.get(key_bytes_of(&ps, pt)) {
            for bt in bts {
                sink.emit(&mut mem, bt, pt);
            }
        }
    }
    sink
}

fn run(gen: &GeneratedJoin, scheme: JoinScheme, use_stored: bool) -> CountSink {
    let mut mem = NativeModel;
    let mut sink = CountSink::new();
    join_pair(
        &mut mem,
        &JoinParams { scheme, use_stored_hash: use_stored },
        &gen.build,
        &gen.probe,
        1,
        &mut sink,
        None,
    );
    sink
}

fn all_schemes() -> Vec<JoinScheme> {
    let mut v = vec![JoinScheme::Baseline, JoinScheme::Simple];
    for g in [2usize, 3, 16, 19, 61, 128] {
        v.push(JoinScheme::Group { g });
    }
    for d in [1usize, 2, 3, 5, 8, 16] {
        v.push(JoinScheme::Swp { d });
    }
    v
}

#[test]
fn schemes_match_reference_across_workload_grid() {
    for (bt, m, pct) in [
        (1000usize, 1usize, 100u8),
        (1000, 2, 100),
        (777, 3, 50),
        (500, 4, 25),
        (2048, 2, 75),
        (100, 1, 0), // no matches at all
    ] {
        let spec = JoinSpec {
            build_tuples: bt,
            tuple_size: 24,
            matches_per_build: m,
            pct_match: pct,
            seed: (bt + m) as u64,
        };
        let gen = spec.generate();
        let want = reference(&gen);
        assert_eq!(want.matches(), gen.expected_matches, "oracle sanity");
        for scheme in all_schemes() {
            let got = run(&gen, scheme, true);
            assert_eq!(got, want, "bt={bt} m={m} pct={pct} {scheme:?}");
        }
    }
}

#[test]
fn stored_and_recomputed_hashes_agree() {
    let spec = JoinSpec {
        build_tuples: 3000,
        tuple_size: 60,
        matches_per_build: 2,
        pct_match: 80,
        seed: 404,
    };
    let gen = spec.generate();
    let want = reference(&gen);
    for scheme in [JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 2 }] {
        assert_eq!(run(&gen, scheme, true), want, "{scheme:?} stored");
        assert_eq!(run(&gen, scheme, false), want, "{scheme:?} recomputed");
    }
}

#[test]
fn extreme_parameters_still_correct() {
    let spec = JoinSpec {
        build_tuples: 97,
        tuple_size: 16,
        matches_per_build: 2,
        pct_match: 100,
        seed: 1,
    };
    let gen = spec.generate();
    let want = reference(&gen);
    // G / D larger than the relation; G = relation size; D pushing the
    // circular state array to many slots.
    for scheme in [
        JoinScheme::Group { g: 97 },
        JoinScheme::Group { g: 500 },
        JoinScheme::Swp { d: 40 },
        JoinScheme::Swp { d: 97 },
    ] {
        assert_eq!(run(&gen, scheme, true), want, "{scheme:?}");
    }
}

#[test]
fn empty_relations() {
    let empty = JoinSpec {
        build_tuples: 0,
        tuple_size: 16,
        matches_per_build: 1,
        pct_match: 100,
        seed: 0,
    }
    .generate();
    for scheme in all_schemes() {
        let got = run(&empty, scheme, true);
        assert_eq!(got.matches(), 0, "{scheme:?}");
    }
}

#[test]
fn skewed_duplicate_keys_all_pairs_produced() {
    // 100 identical build keys x 50 identical probes of the same key:
    // 5000 output pairs, all through one bucket (maximal conflicts).
    use phj_storage::{RelationBuilder, Schema};
    let schema = Schema::key_payload(16);
    let h = phj::hash::hash_key(&7u32.to_le_bytes());
    let mut b = RelationBuilder::new(schema.clone());
    let mut p = RelationBuilder::new(schema);
    let mut t = [0u8; 16];
    t[..4].copy_from_slice(&7u32.to_le_bytes());
    for _ in 0..100 {
        b.push_hashed(&t, h);
    }
    for _ in 0..50 {
        p.push_hashed(&t, h);
    }
    let (build, probe) = (b.finish(), p.finish());
    for scheme in all_schemes() {
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
        assert_eq!(sink.matches(), 5000, "{scheme:?}");
    }
}
