//! Access-stream golden for every join, partition and aggregate kernel.
//!
//! A test-only [`MemoryModel`] records the exact sequence of memory
//! operations a kernel issues: each `visit`/`write`/`prefetch` is hashed
//! as (op, address renamed to the order of its first appearance, length).
//! Computation charges between two memory operations are hashed as one
//! run of two sums (`busy`, `other`), because the simulator's clock only
//! ever sees those sums. The digests are therefore independent of where
//! the heap put anything, yet change whenever a kernel touches a
//! different address, in a different order, with a different extent, or
//! at a different point of its computation. Names restart at every phase
//! boundary (`region_clear`), so a dead structure's address reused by a
//! later one does not tie the two together.
//!
//! This file is its own test binary with a single `#[test]`, so the
//! process-wide page-frame free list and the allocator are not shared
//! with concurrently running tests: recycled frames come back in a fixed
//! order and the renaming sees the same address identities every run.

use std::collections::HashMap;

use phj::aggregate::{aggregate, AggScheme};
use phj::chained::{build_chained, probe_chained};
use phj::grace::{hybrid_join, GraceConfig};
use phj::hash::{hash_key, partition_of};
use phj::join::{dispatch_build, dispatch_probe, JoinParams, JoinScheme};
use phj::partition::{partition_relation, PartitionScheme};
use phj::plan;
use phj::sink::{CountSink, JoinSink, OutputWriter};
use phj::stage::Schedule;
use phj::table::HashTable;
use phj_memsim::{MemoryModel, RegionKind};
use phj_storage::{Relation, RelationBuilder, Schema};

/// Hashes the memory-operation stream of whatever runs against it.
#[derive(Default)]
struct TraceModel {
    ids: HashMap<usize, u64>,
    hash: u64,
    ops: u64,
    busy: u64,
    other: u64,
}

impl TraceModel {
    fn mix(&mut self, x: u64) {
        let h = (self.hash ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        self.hash = h ^ (h >> 29);
    }

    /// Close the current run of computation charges.
    fn end_run(&mut self) {
        if self.busy != 0 || self.other != 0 {
            let (busy, other) = (self.busy, self.other);
            self.mix(0xC0);
            self.mix(busy);
            self.mix(other);
            self.busy = 0;
            self.other = 0;
        }
    }

    fn op(&mut self, code: u64, addr: usize, len: usize) {
        self.end_run();
        let next = self.ids.len() as u64;
        let id = *self.ids.entry(addr).or_insert(next);
        self.mix(code);
        self.mix(id);
        self.mix(len as u64);
        self.ops += 1;
    }

    fn digest(mut self) -> u64 {
        self.end_run();
        let ops = self.ops;
        self.mix(ops);
        self.hash
    }
}

impl MemoryModel for TraceModel {
    const SIMULATED: bool = false;

    fn visit(&mut self, addr: usize, len: usize) {
        self.op(1, addr, len);
    }

    fn write(&mut self, addr: usize, len: usize) {
        self.op(2, addr, len);
    }

    fn prefetch(&mut self, addr: usize, len: usize) {
        self.op(3, addr, len);
    }

    fn busy(&mut self, cycles: u64) {
        self.busy += cycles;
    }

    fn other(&mut self, cycles: u64) {
        self.other += cycles;
    }

    /// A phase ends and its structures die: later allocations may reuse
    /// their addresses, so names restart. Without this, whether a spilled
    /// pair's hash table lands on a dead table's lines would depend on
    /// the sizes of unrelated allocations in between.
    fn region_clear(&mut self, _kind: RegionKind) {
        self.ids.clear();
    }
}

fn join_rel(keys: impl IntoIterator<Item = u32>) -> Relation {
    let mut b = RelationBuilder::new(Schema::key_payload(24));
    let mut t = [0u8; 24];
    for (i, k) in keys.into_iter().enumerate() {
        t[..4].copy_from_slice(&k.to_le_bytes());
        t[4..8].copy_from_slice(&(i as u32).to_le_bytes());
        b.push_hashed(&t, hash_key(&k.to_le_bytes()));
    }
    b.finish()
}

fn plain_rel(keys: impl IntoIterator<Item = u32>, size: usize) -> Relation {
    let mut b = RelationBuilder::new(Schema::key_payload(size));
    let mut t = vec![0u8; size];
    for (i, k) in keys.into_iter().enumerate() {
        t[..4].copy_from_slice(&k.to_le_bytes());
        t[4..12].copy_from_slice(&(i as u64).to_le_bytes());
        b.push(&t);
    }
    b.finish()
}

/// Collects `(case, digest)` pairs and compares them with the goldens.
struct Golden {
    want: HashMap<&'static str, u64>,
    got: Vec<(String, u64)>,
}

impl Golden {
    fn record(&mut self, case: String, mem: TraceModel) {
        self.got.push((case, mem.digest()));
    }

    fn check(self) {
        let mut bad = Vec::new();
        for (case, digest) in &self.got {
            if self.want.get(case.as_str()) != Some(digest) {
                bad.push(format!("        (\"{case}\", {digest:#018x}),"));
            }
        }
        assert!(bad.is_empty(), "access streams changed:\n{}", bad.join("\n"));
        assert_eq!(self.got.len(), self.want.len(), "case list and golden table differ");
    }
}

/// One digest per case. Changing one is a deliberate act: the commit that
/// does it says which kernel moved and why.
const GOLDEN: &[(&str, u64)] = &[
    ("build/baseline/unique", 0x14db989cfad8ad5d),
    ("probe/baseline/unique", 0x6ec7f8469b46d758),
    ("build/simple/unique", 0x59a6d5d28cba67fb),
    ("probe/simple/unique", 0xe68a74e8fd650318),
    ("build/baseline/hot", 0x4eea9444ae57aab1),
    ("probe/baseline/hot", 0x0a61b2a46b4c8c2d),
    ("build/simple/hot", 0x2bff0007c89f859d),
    ("probe/simple/hot", 0x0e65edba69178d68),
    ("build/baseline/odd", 0xb6f2c47d88661d3b),
    ("probe/baseline/odd", 0x902b6cf6d40134b0),
    ("build/simple/odd", 0xf60f0ecb70adccdb),
    ("probe/simple/odd", 0xb680aab4f5ad5260),
    ("build/group(G=2)/unique", 0x0543803e785bda6c),
    ("probe/group(G=2)/unique", 0xd24fb3f3925f6082),
    ("build/group(G=16)/unique", 0x41baf628b0922593),
    ("probe/group(G=16)/unique", 0x85cb0c2c18151a19),
    ("build/swp(D=1)/unique", 0xdca694b5642a9b40),
    ("probe/swp(D=1)/unique", 0xa78635ef4b94da28),
    ("build/swp(D=3)/unique", 0x0652876b4feaa966),
    ("probe/swp(D=3)/unique", 0x4691342e8b6e64b2),
    ("build/group(G=2)/hot", 0x82afc9caf6a8d3a6),
    ("probe/group(G=2)/hot", 0xa23611b9f329bf28),
    ("build/group(G=16)/hot", 0x359662b68b8896b6),
    ("probe/group(G=16)/hot", 0x031850549b8b5351),
    ("build/swp(D=1)/hot", 0x341010cb9499563d),
    ("probe/swp(D=1)/hot", 0xc02c02f669efa6cc),
    ("build/swp(D=3)/hot", 0xc1b0f4ec17857205),
    ("probe/swp(D=3)/hot", 0x581e6f5a4ffbe828),
    ("build/group(G=2)/odd", 0xe89f903c7606f320),
    ("probe/group(G=2)/odd", 0xff540da92d3adff7),
    ("build/group(G=16)/odd", 0xb592b60b61c61502),
    ("probe/group(G=16)/odd", 0x765e40dbf424c32e),
    ("build/swp(D=1)/odd", 0xb6c76774142089f8),
    ("probe/swp(D=1)/odd", 0x0fa3ccfa175676cd),
    ("build/swp(D=3)/odd", 0xdcde41fe466cdcd7),
    ("probe/swp(D=3)/odd", 0xc9127e247d9fb521),
    ("probe-output/group(G=16)", 0xffcb695e5bd4746e),
    ("probe-output/swp(D=1)", 0x34c177fe01e82f44),
    ("partition/baseline/1x100", 0x0cfa939ec12be563),
    ("partition/baseline/11x100", 0x533b40dc91f04d06),
    ("partition/baseline/400x100", 0xc8b3e43bc31fbde2),
    ("partition/baseline/3x2000", 0x14f96ad49553a691),
    ("partition/simple/1x100", 0x25ba2593d53db448),
    ("partition/simple/11x100", 0xbc4e116540122362),
    ("partition/simple/400x100", 0x7830d7eb60b5dc16),
    ("partition/simple/3x2000", 0x2180f906de474fd9),
    ("partition/group(G=12)/1x100", 0x7b3bdec56b6329c1),
    ("partition/group(G=12)/11x100", 0x5fc959a325f995fa),
    ("partition/group(G=12)/400x100", 0x18ef9cefa3aa2fae),
    ("partition/group(G=12)/3x2000", 0x5504eb4b9e696f76),
    ("partition/swp(D=1)/1x100", 0xd59a48d92451021a),
    ("partition/swp(D=1)/11x100", 0x80693e9f5f943dd3),
    ("partition/swp(D=1)/400x100", 0xae527427546c5a8f),
    ("partition/swp(D=1)/3x2000", 0x8190c71240b3c7e7),
    ("partition/swp(D=4)/1x100", 0x6a80dd1fb7a5641e),
    ("partition/swp(D=4)/11x100", 0x17cdbd379d14df09),
    ("partition/swp(D=4)/400x100", 0x341cec324196bc53),
    ("partition/swp(D=4)/3x2000", 0xd049dd8651647c9b),
    ("aggregate/Baseline", 0xd91fedcbe56cd01a),
    ("aggregate/Simple", 0x370f436d342983a9),
    ("aggregate/Group { g: 2 }", 0x1be9739c1e5128f4),
    ("aggregate/Group { g: 16 }", 0xfa0a0fb17bcd1aa1),
    ("aggregate/Swp { d: 1 }", 0x3ae77d51a72d67f6),
    ("aggregate/Swp { d: 4 }", 0xfa118c47e57be820),
    ("hybrid/group(G=4)", 0xe37fcc712a0bff78),
    ("hybrid/swp(D=3)", 0xb8d7556684b10fc1),
    ("chained/baseline", 0x43a49c6b042b5fb6),
    ("chained/group(G=16)", 0x9e8041efdc6f1413),
];

#[test]
fn staged_kernels_issue_the_golden_access_streams() {
    let mut golden = Golden { want: GOLDEN.iter().copied().collect(), got: Vec::new() };

    // Build + probe on unique keys, one hot key, and a size that is not a
    // multiple of any group size used.
    let join_inputs = [
        ("unique", join_rel(0..1000), join_rel((500..1500).map(|k| k % 1200))),
        ("hot", join_rel(std::iter::repeat_n(7, 200)), join_rel(std::iter::repeat_n(7, 3))),
        ("odd", join_rel(0..97), join_rel(0..101)),
    ];
    let join_schemes = [
        JoinScheme::Baseline,
        JoinScheme::Simple,
        JoinScheme::Group { g: 2 },
        JoinScheme::Group { g: 16 },
        JoinScheme::Swp { d: 1 },
        JoinScheme::Swp { d: 3 },
    ];
    for (name, build, probe) in &join_inputs {
        let mut want = None;
        for scheme in join_schemes {
            let params = JoinParams { scheme, use_stored_hash: true };
            let n = build.num_tuples();
            let mut table = HashTable::new(plan::hash_table_buckets(n, 1), n);
            let mut mem = TraceModel::default();
            dispatch_build(&mut mem, &params, &mut table, build);
            golden.record(format!("build/{}/{name}", scheme.label()), mem);
            let mut mem = TraceModel::default();
            let mut sink = CountSink::new();
            dispatch_probe(&mut mem, &params, &table, build, probe, &mut sink);
            golden.record(format!("probe/{}/{name}", scheme.label()), mem);
            assert_eq!(*want.get_or_insert(sink), sink, "{name}");
        }
    }

    // The probe into the materialising sink the simulated figures use.
    let (_, build, probe) = &join_inputs[0];
    for scheme in [JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 1 }] {
        let params = JoinParams { scheme, use_stored_hash: true };
        let mut table = HashTable::new(plan::hash_table_buckets(1000, 1), 1000);
        dispatch_build(&mut phj_memsim::NativeModel, &params, &mut table, build);
        let mut sink = OutputWriter::new(build.schema().clone(), probe.schema().clone())
            .with_output_prefetch();
        let mut mem = TraceModel::default();
        dispatch_probe(&mut mem, &params, &table, build, probe, &mut sink);
        golden.record(format!("probe-output/{}", scheme.label()), mem);
        assert_eq!(sink.finish().num_tuples(), 800);
    }

    // Partition at 1, 11 and 400 partitions, plus 2000-byte tuples.
    let small = plain_rel(0..4000, 100);
    let large = plain_rel(0..500, 2000);
    let part_schemes = [
        PartitionScheme::Baseline,
        PartitionScheme::Simple,
        PartitionScheme::Group { g: 12 },
        PartitionScheme::Swp { d: 1 },
        PartitionScheme::Swp { d: 4 },
    ];
    for scheme in part_schemes {
        for (input, parts) in [(&small, 1), (&small, 11), (&small, 400), (&large, 3)] {
            let mut mem = TraceModel::default();
            let out = partition_relation(&mut mem, scheme, input, parts, false);
            let size = input.schema().fixed_size();
            golden.record(format!("partition/{}/{parts}x{size}", scheme.label()), mem);
            assert_eq!(out.iter().map(|r| r.num_tuples()).sum::<usize>(), input.num_tuples());
        }
    }

    // Aggregate 10 distinct keys into 3 buckets: overflow entries are
    // touched and buckets are busy.
    let agg_input = plain_rel((0..600).map(|i| i % 10), 16);
    for scheme in [
        AggScheme::Baseline,
        AggScheme::Simple,
        AggScheme::Group { g: 2 },
        AggScheme::Group { g: 16 },
        AggScheme::Swp { d: 1 },
        AggScheme::Swp { d: 4 },
    ] {
        let mut mem = TraceModel::default();
        let table = aggregate(&mut mem, scheme, &agg_input, 3, |t| t[4] as i64);
        golden.record(format!("aggregate/{scheme:?}"), mem);
        assert_eq!(table.num_groups(), 10);
    }

    // The hybrid's fused passes at a 16 KB budget with 1500-byte tuples:
    // full output buffers on every few tuples, and repeated keys in
    // partition 0's table. 9 of its 19 spilled pairs exceed the budget
    // and take a rung of the overflow ladder.
    let hb = plain_rel((0..200).map(|i| i % 37), 1500);
    let hp = plain_rel((0..200).map(|i| (i * 7) % 37), 1500);
    let mem_budget = 16 * 1024;
    let hybrid = |s: Schedule| GraceConfig {
        mem_budget,
        partition_scheme: s.partition_scheme(),
        join_scheme: s.join_scheme(),
        ..Default::default()
    };
    let mut mem = TraceModel::default();
    let mut group_sink = CountSink::new();
    let cfg = hybrid(Schedule::Group { g: 4 });
    let p = hybrid_join(&mut mem, &cfg, &hb, &hp, &mut group_sink, None);
    golden.record("hybrid/group(G=4)".to_string(), mem);
    let in_p0 = (0..37u32).filter(|k| partition_of(hash_key(&k.to_le_bytes()), p) == 0).count();
    assert!(p > 1 && in_p0 > 0, "{p} partitions, {in_p0} keys resident");
    let mut mem = TraceModel::default();
    let mut swp_sink = CountSink::new();
    let cfg = hybrid(Schedule::Pipelined { d: 3 });
    hybrid_join(&mut mem, &cfg, &hb, &hp, &mut swp_sink, None);
    golden.record("hybrid/swp(D=3)".to_string(), mem);
    assert_eq!(group_sink, swp_sink);

    // The chained-bucket probes over chains of about 8 nodes.
    let cb = join_rel(0..2000);
    let cp = join_rel((0..3000).map(|k| k % 2500));
    let params = JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true };
    let table =
        build_chained(&mut phj_memsim::NativeModel, &params, &cb, plan::hash_table_buckets(250, 1));
    let mut mem = TraceModel::default();
    let mut sink = CountSink::new();
    probe_chained(&mut mem, &params, &table, &cb, &cp, &mut sink);
    golden.record("chained/baseline".to_string(), mem);
    assert_eq!(sink.matches(), 2500);
    let mut mem = TraceModel::default();
    let mut sink = CountSink::new();
    let params = JoinParams { scheme: JoinScheme::Group { g: 16 }, ..params };
    probe_chained(&mut mem, &params, &table, &cb, &cp, &mut sink);
    golden.record("chained/group(G=16)".to_string(), mem);
    assert_eq!(sink.matches(), 2500);

    golden.check();
}
