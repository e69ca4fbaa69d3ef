//! Joins over variable-length keys and mixed schemas: the engine
//! "supports fixed length and variable length attributes in tuples"
//! (§7.1), and the hash function takes "join keys of any length". Every
//! scheme must handle var-length keys — including keys of differing
//! lengths that share prefixes — identically.

use phj::grace::{grace_join, grace_join_with_sink, GraceConfig};
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::partition::PartitionScheme;
use phj::sink::{CountSink, JoinSink};
use phj_memsim::NativeModel;
use phj_storage::{AttrType, Attribute, Relation, RelationBuilder, Schema, TupleAssembler, TupleView};

/// Customers keyed by a var-length name.
fn customers(names: &[&str]) -> Relation {
    let schema = Schema::new(
        vec![
            Attribute::new("name", AttrType::VarBytes),
            Attribute::new("region", AttrType::U32),
        ],
        0,
    );
    let mut b = RelationBuilder::new(schema.clone());
    let mut asm = TupleAssembler::new(&schema);
    for (i, n) in names.iter().enumerate() {
        asm.set_var_bytes(0, n.as_bytes()).set_u32(1, i as u32);
        b.push(asm.finish());
    }
    b.finish()
}

/// Orders keyed by the same var-length name plus an amount.
fn orders(names: &[&str]) -> Relation {
    let schema = Schema::new(
        vec![
            Attribute::new("cust", AttrType::VarBytes),
            Attribute::new("amount", AttrType::I64),
        ],
        0,
    );
    let mut b = RelationBuilder::new(schema.clone());
    let mut asm = TupleAssembler::new(&schema);
    for (i, n) in names.iter().enumerate() {
        asm.set_var_bytes(0, n.as_bytes()).set_i64(1, i as i64);
        b.push(asm.finish());
    }
    b.finish()
}

fn expected_pairs(build: &[&str], probe: &[&str]) -> u64 {
    let mut counts = std::collections::HashMap::new();
    for n in build {
        *counts.entry(*n).or_insert(0u64) += 1;
    }
    probe.iter().map(|n| counts.get(n).copied().unwrap_or(0)).sum()
}

fn name_pool() -> Vec<String> {
    // Shared prefixes and varied lengths stress byte-wise comparison.
    let mut v = Vec::new();
    for i in 0..400 {
        v.push(format!("cust-{i}"));
        v.push(format!("cust-{i}-extended-suffix"));
        v.push(format!("c{i}"));
    }
    v
}

#[test]
fn varlen_keys_all_schemes_agree() {
    let pool = name_pool();
    let build_names: Vec<&str> = pool.iter().map(|s| s.as_str()).collect();
    let probe_names: Vec<&str> =
        pool.iter().cycle().skip(100).take(2000).map(|s| s.as_str()).collect();
    let build = customers(&build_names);
    let probe = orders(&probe_names);
    let want = expected_pairs(&build_names, &probe_names);
    assert!(want > 0);
    // Var-key relations have no stashed hashes: recompute.
    for scheme in [
        JoinScheme::Baseline,
        JoinScheme::Simple,
        JoinScheme::Group { g: 16 },
        JoinScheme::Swp { d: 2 },
    ] {
        let mut sink = CountSink::new();
        join_pair(
            &mut NativeModel,
            &JoinParams { scheme, use_stored_hash: false },
            &build,
            &probe,
            1,
            &mut sink,
            None,
        );
        assert_eq!(sink.matches(), want, "{scheme:?}");
    }
}

#[test]
fn varlen_grace_end_to_end_materialized() {
    let pool = name_pool();
    let build_names: Vec<&str> = pool.iter().map(|s| s.as_str()).collect();
    let probe_names: Vec<&str> =
        pool.iter().cycle().take(1500).map(|s| s.as_str()).collect();
    let build = customers(&build_names);
    let probe = orders(&probe_names);
    let cfg = GraceConfig {
        mem_budget: 16 * 1024,
        partition_scheme: PartitionScheme::Group { g: 8 },
        join_scheme: JoinScheme::Group { g: 16 },
        ..Default::default()
    };
    let mut mem = NativeModel;
    let res = grace_join(&mut mem, &cfg, &build, &probe);
    assert!(res.num_partitions > 1);
    assert_eq!(res.output.num_tuples() as u64, expected_pairs(&build_names, &probe_names));
    // Output tuples re-encode var regions correctly: the two name
    // attributes must be byte-identical.
    let schema = res.output.schema().clone();
    for (_, t, _) in res.output.iter() {
        let v = TupleView::new(&schema, t);
        assert_eq!(v.attr_bytes(0), v.attr_bytes(2), "join keys equal");
        assert!(!v.attr_bytes(0).is_empty());
    }
}

#[test]
fn prefix_collisions_do_not_false_match() {
    // "ab" + "c" vs "abc": distinct keys that concatenate identically.
    let build = customers(&["ab", "abc", "abcd"]);
    let probe = orders(&["abc", "ab", "abx", ""]);
    let mut sink = CountSink::new();
    grace_join_with_sink(
        &mut NativeModel,
        &GraceConfig { mem_budget: 1 << 20, ..Default::default() },
        &build,
        &probe,
        &mut sink,
    );
    assert_eq!(sink.matches(), 2); // "abc" and "ab" only
}

#[test]
fn empty_string_keys_join() {
    let build = customers(&["", "x"]);
    let probe = orders(&["", "", "y"]);
    let mut sink = CountSink::new();
    join_pair(
        &mut NativeModel,
        &JoinParams { scheme: JoinScheme::Swp { d: 1 }, use_stored_hash: false },
        &build,
        &probe,
        1,
        &mut sink,
        None,
    );
    assert_eq!(sink.matches(), 2);
}
