//! Property-based tests for the extension modules: hash aggregation,
//! hybrid hash join, the chained-bucket ablation table, and the latency
//! histograms behind memory-access attribution.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

use phj_memsim::LatencyHistogram;

use phj::aggregate::{aggregate, AggScheme};
use phj::hash::hash_key;
use phj::grace::{grace_join_with_sink, hybrid_join, GraceConfig};
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::NativeModel;
use phj_storage::tuple::key_bytes_of;
use phj_storage::{Relation, RelationBuilder, Schema};

fn rel_from_keys(keys: &[u32], size: usize) -> Relation {
    let schema = Schema::key_payload(size);
    let mut b = RelationBuilder::new(schema);
    let mut t = vec![0u8; size];
    for (i, &k) in keys.iter().enumerate() {
        t[..4].copy_from_slice(&k.to_le_bytes());
        t[4] = i as u8;
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

fn agg_scheme() -> impl Strategy<Value = AggScheme> {
    prop_oneof![
        Just(AggScheme::Baseline),
        Just(AggScheme::Simple),
        (2usize..32).prop_map(|g| AggScheme::Group { g }),
        (1usize..8).prop_map(|d| AggScheme::Swp { d }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn aggregation_equals_hashmap(
        keys in vec(0u32..96, 0..400),
        buckets in 1usize..48,
        scheme in agg_scheme(),
    ) {
        let input = rel_from_keys(&keys, 16);
        let mut mem = NativeModel;
        let table = aggregate(&mut mem, scheme, &input, buckets, |t| t[4] as i64);
        let mut want: HashMap<u32, (u64, i64)> = HashMap::new();
        for (_, t, _) in input.iter() {
            let k = u32::from_le_bytes(t[..4].try_into().unwrap());
            let e = want.entry(k).or_default();
            e.0 += 1;
            e.1 += t[4] as i64;
        }
        prop_assert_eq!(table.num_groups(), want.len());
        for (k, (count, sum)) in want {
            let kb = k.to_le_bytes();
            let e = table.lookup(hash_key(&kb), &kb).expect("group present");
            prop_assert_eq!(e.count, count);
            prop_assert_eq!(e.sum, sum);
        }
        // Totals via iteration agree too.
        prop_assert_eq!(table.iter().map(|e| e.count).sum::<u64>() as usize, keys.len());
    }

    #[test]
    fn hybrid_equals_grace_and_plain_join(
        build_keys in vec(0u32..128, 1..250),
        probe_keys in vec(0u32..128, 0..250),
        budget_pages in 1usize..8,
        g in 2usize..24,
    ) {
        let build = rel_from_keys(&build_keys, 28);
        let probe = rel_from_keys(&probe_keys, 28);
        let js = JoinScheme::Group { g };
        let cfg = GraceConfig {
            mem_budget: budget_pages * 8192,
            partition_scheme: js.schedule().partition_scheme(),
            join_scheme: js,
            ..Default::default()
        };
        let mut mem = NativeModel;
        let mut hybrid_sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut hybrid_sink, None);
        let mut grace_sink = CountSink::new();
        grace_join_with_sink(&mut mem, &cfg, &build, &probe, &mut grace_sink);
        prop_assert_eq!(hybrid_sink, grace_sink);
        // Against a single-pair group join as well.
        let mut plain = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme: JoinScheme::Group { g }, use_stored_hash: true },
            &build,
            &probe,
            1,
            &mut plain,
            None,
        );
        prop_assert_eq!(hybrid_sink.matches(), plain.matches());
    }

    #[test]
    fn chained_probe_equals_array_probe(
        build_keys in vec(0u32..64, 0..200),
        probe_keys in vec(0u32..64, 0..200),
        buckets in 1usize..32,
        g in 2usize..24,
    ) {
        use phj::chained::{build_chained, probe_chained};
        let build = rel_from_keys(&build_keys, 20);
        let probe = rel_from_keys(&probe_keys, 20);
        let params = JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true };
        let mut mem = NativeModel;
        let table = build_chained(&mut mem, &params, &build, buckets);
        prop_assert_eq!(table.len(), build.num_tuples());
        let mut a = CountSink::new();
        probe_chained(&mut mem, &params, &table, &build, &probe, &mut a);
        let mut b = CountSink::new();
        let group = JoinParams { scheme: JoinScheme::Group { g }, ..params };
        probe_chained(&mut mem, &group, &table, &build, &probe, &mut b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a, reference(&build, &probe));
    }
}

fn hist_from(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::default();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Span nesting and region totals both rely on histograms combining
    // like counters: merging must be order-insensitive.
    #[test]
    fn histogram_merge_is_commutative_and_associative(
        a in vec(0u64..1_000_000, 0..200),
        b in vec(0u64..1_000_000, 0..200),
        c in vec(0u64..1_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_from(&a), hist_from(&b), hist_from(&c));
        let mut ab = ha;
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab.buckets, ba.buckets);
        let mut ab_c = ab;
        ab_c.merge(&hc);
        let mut bc = hb;
        bc.merge(&hc);
        let mut a_bc = ha;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.buckets, a_bc.buckets);
        prop_assert_eq!(ab_c.count(), (a.len() + b.len() + c.len()) as u64);
    }

    // The log2 histogram's nearest-rank quantile agrees with the exact
    // nearest-rank sample to bucket resolution: it reports the upper
    // bound of the bucket the exact answer falls in (and thus never
    // under-reports the latency).
    #[test]
    fn histogram_quantile_is_within_one_bucket_of_exact(
        samples in vec(0u64..1_000_000, 1..300),
        q_pct in 0u32..101,
    ) {
        let q = q_pct as f64 / 100.0;
        let h = hist_from(&samples);
        let mut samples = samples;
        samples.sort_unstable();
        let n = samples.len() as u64;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let exact = samples[(rank - 1) as usize];
        let got = h.quantile(q).expect("non-empty");
        prop_assert_eq!(
            got,
            LatencyHistogram::bucket_bound(LatencyHistogram::bucket_index(exact))
        );
        prop_assert!(got >= exact);
    }
}
