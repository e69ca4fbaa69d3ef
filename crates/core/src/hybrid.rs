//! Hybrid hash join with group prefetching.
//!
//! §2 of the paper: "many refinements of \[GRACE\] have been proposed for
//! the sake of avoiding I/O by keeping as many intermediate partitions in
//! memory as possible [10, 16, 23, 27, 29]. All of these hash join
//! algorithms, however, share two common building blocks: (1)
//! partitioning and (2) joining with in-memory hash tables. [...] our
//! techniques should be directly applicable to the other hash join
//! algorithms." This module demonstrates that claim on the classic
//! *hybrid* hash join: partition 0 is never written out — its build
//! tuples go straight into an in-memory hash table during the build-side
//! partition pass, and its probe tuples are joined on the fly during the
//! probe-side pass.
//!
//! The interesting part is the **mixed code paths inside one loop**: a
//! tuple either takes the hash-table path (`k = 2` for insert, `k = 3`
//! for probe) or the output-buffer path (`k = 1`). That is precisely the
//! multiple-code-path situation §4.4 describes — per-tuple state records
//! the path, and each stage dispatches on it. Both conflict protocols
//! coexist: busy flags on hash buckets, deferred tuples on full output
//! buffers, both resolved at the group boundary.

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::Relation;

use crate::cost;
use crate::hash::partition_of;
use crate::join::{self, JoinParams, JoinScheme, Scan};
use crate::partition::{OutputBuffers, PartitionScheme};
use crate::plan;
use crate::profile;
use crate::sink::JoinSink;
use crate::table::{BucketHeader, HashCell, HashTable, InsertStep};

/// Hybrid hash join configuration.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Memory for the join phase; also bounds partition 0 + its table.
    pub mem_budget: usize,
    /// Group size for the fused partition/build and partition/probe
    /// passes. The fused passes use group prefetching: their two
    /// conflict kinds (busy buckets, full output buffers) both resolve
    /// naturally at the group boundary, which a software pipeline lacks
    /// (§5.4).
    pub g: usize,
    /// Join scheme for the spilled partition pairs (any in-memory
    /// scheme).
    pub spill_join: JoinScheme,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            mem_budget: 50 * 1024 * 1024,
            g: 16,
            spill_join: JoinScheme::Group { g: 16 },
        }
    }
}

/// Per-tuple state of the fused build pass.
#[derive(Clone, Copy)]
enum BuildPath {
    /// Partition 0: overflow cell reserved, write in stage 2.
    TableWrite(u32),
    /// Partition 0: insert finished inline (or not started).
    Done,
    /// Partition 0: bucket busy — resolve at group boundary.
    TableDelayed,
    /// Spill partition: output location reserved, copy in stage 2.
    Spill(usize, (usize, usize)),
    /// Spill partition: buffer full — resolve at group boundary.
    SpillDelayed(usize),
}

struct BuildSlot {
    pi: usize,
    slot: u16,
    cell: HashCell,
    bucket: usize,
    path: BuildPath,
}

/// Per-tuple state of the fused probe pass.
enum ProbePath {
    /// Partition 0: probing; header copied, candidates accumulate.
    Probe(BucketHeader, Vec<HashCell>),
    /// Spill partition: output location reserved.
    Spill(usize, (usize, usize)),
    /// Spill partition: buffer full — resolve at group boundary.
    SpillDelayed(usize),
    /// Nothing left to do.
    Done,
}

struct ProbeSlot {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    path: ProbePath,
}

/// Run the hybrid hash join: returns the number of partitions used
/// (including the in-memory partition 0). With a span recorder, the fused
/// partition+build pass, the fused partition+probe pass, and each spilled
/// pair get their own spans under a `"hybrid_join"` root.
pub fn hybrid_join<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &HybridConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    mut rec: Option<&mut Recorder>,
) -> usize {
    let p = plan::num_partitions(build.size_bytes(), cfg.mem_budget).max(1);
    let g = cfg.g.max(2);
    let whole = obs::span_begin(&mut rec, mem, "hybrid_join");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "g", g);

    // ---- Pass 1: partition the build side, building partition 0's hash
    // table on the fly. ----
    let pass1 = obs::span_begin(&mut rec, mem, "hybrid_build_pass");
    obs::span_meta(&mut rec, "tuples", build.num_tuples());
    let expected_p0 = build.num_tuples() / p + 1;
    let buckets = plan::hash_table_buckets(expected_p0.max(1), p);
    let mut table = HashTable::new(buckets, expected_p0 * 2 + 16);
    let mut build_out = OutputBuffers::new(build, p);
    profile::register_table(mem, &table);
    profile::register_relation(mem, RegionKind::BuildTuples, build);
    build_out.register_regions(mem);
    {
        let mut slots: Vec<BuildSlot> = (0..g)
            .map(|_| BuildSlot {
                pi: 0,
                slot: 0,
                cell: HashCell::new(0, 0, 0),
                bucket: 0,
                path: BuildPath::Done,
            })
            .collect();
        let mut delayed: Vec<usize> = Vec::new();
        let mut scan = Scan::new(build, true);
        loop {
            // Stage 0: hash; dispatch on partition; prefetch the path's
            // next reference.
            let mut n = 0usize;
            delayed.clear();
            for s in slots.iter_mut().take(g) {
                let Some((pi, slot)) = scan.next(mem) else { break };
                mem.busy(cost::code0_cost(false) + cost::STAGE_BOOKKEEPING);
                let hash = crate::partition::phase_hash(build, pi, slot, false);
                let t = build.page(pi).tuple(slot);
                s.pi = pi;
                s.slot = slot;
                s.cell = HashCell::new(hash, t.as_ptr() as usize, t.len() as u32);
                let part = partition_of(hash, p);
                if part == 0 {
                    s.bucket = table.bucket_of(hash);
                    s.path = BuildPath::Done;
                    mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
                } else {
                    match build_out.try_reserve(part, t.len()) {
                        Some(addrs) => {
                            mem.prefetch(addrs.0, t.len());
                            mem.prefetch(addrs.1, 8);
                            s.path = BuildPath::Spill(part, addrs);
                        }
                        None => {
                            mem.other(cost::BRANCH_MISS);
                            s.path = BuildPath::SpillDelayed(part);
                        }
                    }
                }
                n += 1;
            }
            if n == 0 {
                break;
            }
            // Stage 1: table path examines headers; spill path copies.
            for (i, s) in slots.iter_mut().enumerate().take(n) {
                mem.busy(cost::STAGE_BOOKKEEPING);
                match s.path {
                    BuildPath::Done => {
                        mem.visit(table.header_addr(s.bucket), HashTable::header_len());
                        mem.busy(cost::HEADER_CHECK);
                        let mut grown = 0usize;
                        match table.begin_insert(s.bucket, s.cell, i as u32, &mut grown) {
                            InsertStep::DoneInline => {
                                mem.write(table.header_addr(s.bucket), HashTable::header_len());
                                mem.busy(cost::CELL_WRITE);
                            }
                            InsertStep::WriteCell(idx) => {
                                if grown > 0 {
                                    let (addr, len) =
                                        table.array_span(s.bucket).expect("array");
                                    mem.visit(addr, len.min(grown));
                                    mem.busy(cost::copy_cost(grown));
                                }
                                mem.prefetch(table.arena().cell_addr(idx), 16);
                                s.path = BuildPath::TableWrite(idx);
                            }
                            InsertStep::Busy(_) => {
                                mem.other(cost::BRANCH_MISS);
                                s.path = BuildPath::TableDelayed;
                                delayed.push(i);
                            }
                        }
                    }
                    BuildPath::Spill(part, addrs) => {
                        let t = build.page(s.pi).tuple(s.slot);
                        build_out.commit(mem, part, t, s.cell.hash, addrs);
                        s.path = BuildPath::Done;
                    }
                    BuildPath::SpillDelayed(_) => delayed.push(i),
                    BuildPath::TableWrite(_) | BuildPath::TableDelayed => unreachable!(),
                }
            }
            // Stage 2: land reserved table writes.
            for s in slots.iter_mut().take(n) {
                mem.busy(cost::STAGE_BOOKKEEPING);
                if let BuildPath::TableWrite(idx) = s.path {
                    mem.write(table.arena().cell_addr(idx), 16);
                    mem.busy(cost::CELL_WRITE);
                    table.finish_overflow_insert(s.bucket, idx, s.cell);
                    s.path = BuildPath::Done;
                }
            }
            // Group boundary: resolve both kinds of conflicts warm.
            for &i in &delayed {
                let s = &slots[i];
                match s.path {
                    BuildPath::TableDelayed => {
                        join::baseline::insert_one(mem, &mut table, s.cell);
                    }
                    BuildPath::SpillDelayed(part) => {
                        let t = build.page(s.pi).tuple(s.slot);
                        build_out.append_direct(mem, part, t, s.cell.hash);
                    }
                    _ => unreachable!("only delayed paths queued"),
                }
                slots[i].path = BuildPath::Done;
            }
            if n < g {
                break;
            }
        }
    }
    let build_parts = build_out.finish();
    table.assert_quiescent();
    obs::span_end(&mut rec, mem, pass1);
    mem.region_clear(RegionKind::PartitionBuffers);

    // ---- Pass 2: partition the probe side, probing partition 0 on the
    // fly. ----
    let pass2 = obs::span_begin(&mut rec, mem, "hybrid_probe_pass");
    obs::span_meta(&mut rec, "tuples", probe.num_tuples());
    let mut probe_out = OutputBuffers::new(probe, p);
    profile::register_relation(mem, RegionKind::ProbeTuples, probe);
    probe_out.register_regions(mem);
    {
        let mut slots: Vec<ProbeSlot> = (0..g)
            .map(|_| ProbeSlot {
                pi: 0,
                slot: 0,
                hash: 0,
                bucket: 0,
                path: ProbePath::Done,
            })
            .collect();
        let mut delayed: Vec<usize> = Vec::new();
        let empty_header = BucketHeader {
            inline_cell: HashCell::new(0, 0, 0),
            count: 0,
            busy: 0,
            array: u32::MAX,
            cap: 0,
        };
        let mut scan = Scan::new(probe, true);
        loop {
            let mut n = 0usize;
            delayed.clear();
            // Stage 0.
            for s in slots.iter_mut().take(g) {
                let Some((pi, slot)) = scan.next(mem) else { break };
                mem.busy(cost::code0_cost(false) + cost::STAGE_BOOKKEEPING);
                let hash = crate::partition::phase_hash(probe, pi, slot, false);
                let t = probe.page(pi).tuple(slot);
                s.pi = pi;
                s.slot = slot;
                s.hash = hash;
                let part = partition_of(hash, p);
                if part == 0 {
                    s.bucket = table.bucket_of(hash);
                    s.path = ProbePath::Probe(empty_header, Vec::new());
                    mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
                } else {
                    match probe_out.try_reserve(part, t.len()) {
                        Some(addrs) => {
                            mem.prefetch(addrs.0, t.len());
                            mem.prefetch(addrs.1, 8);
                            s.path = ProbePath::Spill(part, addrs);
                        }
                        None => {
                            mem.other(cost::BRANCH_MISS);
                            s.path = ProbePath::SpillDelayed(part);
                        }
                    }
                }
                n += 1;
            }
            if n == 0 {
                break;
            }
            // Stage 1: probe path visits headers; spill path copies.
            for (i, s) in slots.iter_mut().enumerate().take(n) {
                mem.busy(cost::STAGE_BOOKKEEPING);
                match &mut s.path {
                    ProbePath::Probe(header, cands) => {
                        mem.visit(table.header_addr(s.bucket), HashTable::header_len());
                        mem.busy(cost::HEADER_CHECK);
                        *header = *table.header(s.bucket);
                        cands.clear();
                        if header.count > 0 {
                            if header.inline_cell.hash == s.hash {
                                mem.other(cost::BRANCH_MISS);
                                mem.prefetch(
                                    header.inline_cell.tuple_addr(),
                                    header.inline_cell.tuple_len(),
                                );
                                cands.push(header.inline_cell);
                            }
                            if header.count > 1 {
                                let (addr, len) =
                                    table.array_span(s.bucket).expect("array");
                                mem.prefetch(addr, len);
                            }
                        }
                    }
                    ProbePath::Spill(part, addrs) => {
                        let (part, addrs) = (*part, *addrs);
                        let t = probe.page(s.pi).tuple(s.slot);
                        probe_out.commit(mem, part, t, s.hash, addrs);
                        s.path = ProbePath::Done;
                    }
                    ProbePath::SpillDelayed(_) => delayed.push(i),
                    ProbePath::Done => {}
                }
            }
            // Stage 2: scan cell arrays, prefetch matched build tuples.
            for s in slots.iter_mut().take(n) {
                mem.busy(cost::STAGE_BOOKKEEPING);
                if let ProbePath::Probe(header, cands) = &mut s.path {
                    if header.count > 1 {
                        let (addr, len) = table.array_span(s.bucket).expect("array");
                        mem.visit(addr, len);
                        mem.busy(cost::CELL_CHECK * (header.count as u64 - 1));
                        for c in table.overflow_cells(s.bucket) {
                            if c.hash == s.hash {
                                mem.other(cost::BRANCH_MISS);
                                mem.prefetch(c.tuple_addr(), c.tuple_len());
                                cands.push(*c);
                            }
                        }
                    }
                }
            }
            // Stage 3: visit matched build tuples, emit output.
            for s in slots.iter_mut().take(n) {
                mem.busy(cost::STAGE_BOOKKEEPING);
                if let ProbePath::Probe(_, cands) = &s.path {
                    if !cands.is_empty() {
                        let pt = probe.page(s.pi).tuple(s.slot);
                        for c in cands {
                            mem.visit(c.tuple_addr(), c.tuple_len());
                            mem.busy(cost::KEY_COMPARE);
                            // SAFETY: cells point into `build`, which is
                            // borrowed for the whole join.
                            let bt = unsafe { c.tuple_bytes() };
                            if join::keys_equal(build, probe, bt, pt) {
                                sink.emit(mem, bt, pt);
                            }
                        }
                    }
                    s.path = ProbePath::Done;
                }
            }
            // Group boundary: flush-conflicted spills.
            for &i in &delayed {
                let s = &slots[i];
                if let ProbePath::SpillDelayed(part) = s.path {
                    let t = probe.page(s.pi).tuple(s.slot);
                    probe_out.append_direct(mem, part, t, s.hash);
                }
                slots[i].path = ProbePath::Done;
            }
            if n < g {
                break;
            }
        }
    }
    let probe_parts = probe_out.finish();
    obs::span_end(&mut rec, mem, pass2);
    mem.region_clear(RegionKind::PartitionBuffers);
    profile::clear_join_regions(mem);

    // ---- Join the spilled pairs (partitions 1..p) with the configured
    // in-memory scheme. ----
    let params = JoinParams { scheme: cfg.spill_join, use_stored_hash: true };
    for part in 1..p {
        let span = obs::span_begin(&mut rec, mem, "pair");
        obs::span_meta(&mut rec, "index", part);
        join::join_pair(
            mem,
            &params,
            &build_parts[part],
            &probe_parts[part],
            p,
            sink,
            rec.as_deref_mut(),
        );
        obs::span_end(&mut rec, mem, span);
    }
    obs::span_end(&mut rec, mem, whole);
    p
}

/// GRACE with the same parameters, for comparisons: partition both
/// relations fully, then join every pair.
pub fn grace_equivalent<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &HybridConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
) -> usize {
    let grace = crate::grace::GraceConfig {
        mem_budget: cfg.mem_budget,
        partition_scheme: PartitionScheme::Group { g: cfg.g },
        join_scheme: JoinScheme::Group { g: cfg.g },
        ..Default::default()
    };
    crate::grace::grace_join_with_sink(mem, &grace, build, probe, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_workload::JoinSpec;

    fn spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 321,
        }
    }

    #[test]
    fn hybrid_matches_grace() {
        let gen = spec(4000).generate();
        let cfg = HybridConfig { mem_budget: 64 * 1024, g: 16, ..Default::default() };
        let mut mem = NativeModel;
        let mut hybrid_sink = CountSink::new();
        let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut hybrid_sink, None);
        assert!(p > 1, "expected spill partitions, got {p}");
        assert_eq!(hybrid_sink.matches(), gen.expected_matches);
        let mut grace_sink = CountSink::new();
        grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
        assert_eq!(hybrid_sink, grace_sink);
    }

    #[test]
    fn hybrid_all_in_memory() {
        // Budget big enough that p == 1: everything joins on the fly.
        let gen = spec(1000).generate();
        let cfg = HybridConfig { mem_budget: 1 << 30, g: 8, ..Default::default() };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(p, 1);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_heavy_duplicates() {
        use phj_storage::{RelationBuilder, Schema};
        let schema = Schema::key_payload(24);
        let mut b = RelationBuilder::new(schema.clone());
        let mut pr = RelationBuilder::new(schema);
        let mut t = [0u8; 24];
        for _ in 0..300 {
            t[..4].copy_from_slice(&5u32.to_le_bytes());
            b.push(&t);
            pr.push(&t);
            t[..4].copy_from_slice(&9u32.to_le_bytes());
            pr.push(&t);
        }
        let (build, probe) = (b.finish(), pr.finish());
        let cfg = HybridConfig { mem_budget: 8 * 1024, g: 4, ..Default::default() };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut sink, None);
        assert_eq!(sink.matches(), 300 * 300);
    }

    #[test]
    fn hybrid_with_swp_spill_join_matches() {
        let gen = spec(3000).generate();
        let cfg = HybridConfig {
            mem_budget: 64 * 1024,
            g: 8,
            spill_join: crate::join::JoinScheme::Swp { d: 2 },
        };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_saves_cycles_over_grace_in_sim() {
        // Partition 0 skips one write+read round trip per tuple, so the
        // hybrid spends fewer CPU cycles end to end.
        let gen = spec(20_000).generate();
        let cfg = HybridConfig { mem_budget: 256 * 1024, g: 16, ..Default::default() };
        let run = |hybrid: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if hybrid {
                hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
            } else {
                grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let hybrid = run(true);
        assert!(hybrid < grace, "hybrid {hybrid} vs grace {grace}");
    }
}
