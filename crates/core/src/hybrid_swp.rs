//! Software-pipelined hybrid hash join.
//!
//! The software-pipelined counterpart of [`crate::hybrid`]: the same
//! fused passes (partition 0's hash table built and probed on the fly
//! while the other partitions spill), but scheduled as one pipeline per
//! pass instead of groups. Both §5.3-style conflict protocols run
//! *simultaneously*: busy buckets queue waiters through the state slots,
//! and full output buffers queue waiters on their partition — the most
//! demanding composition of the paper's machinery in this crate, which
//! is exactly why it exists (it proves the waiting-queue protocols
//! compose).

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::cost;
use crate::hash::partition_of;
use crate::hybrid::HybridConfig;
use crate::join::{self, JoinParams, Scan};
use crate::model::swp_state_slots;
use crate::partition::{phase_hash, OutputBuffers};
use crate::plan;
use crate::sink::JoinSink;
use crate::table::{BucketHeader, HashCell, HashTable, InsertStep};

const NIL: u32 = u32::MAX;

/// Run the hybrid hash join with software-pipelined fused passes
/// (prefetch distance `d`); the spilled pairs use `cfg.spill_join`.
/// Returns the number of partitions (including in-memory partition 0).
pub fn hybrid_join_swp<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &HybridConfig,
    d: usize,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
) -> usize {
    let p = plan::num_partitions(build.size_bytes(), cfg.mem_budget).max(1);
    let d = d.max(1);

    let expected_p0 = build.num_tuples() / p + 1;
    let buckets = plan::hash_table_buckets(expected_p0.max(1), p);
    let mut table = HashTable::new(buckets, expected_p0 * 2 + 16);
    let mut build_out = OutputBuffers::new(build, p);
    build_pass(mem, build, &mut table, &mut build_out, p, d);
    let build_parts = build_out.finish();
    table.assert_quiescent();

    let mut probe_out = OutputBuffers::new(probe, p);
    probe_pass(mem, probe, build, &table, &mut probe_out, p, d, sink);
    let probe_parts = probe_out.finish();

    let params = JoinParams { scheme: cfg.spill_join, use_stored_hash: true };
    for part in 1..p {
        join::join_pair(mem, &params, &build_parts[part], &probe_parts[part], p, sink, None);
    }
    p
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildPath {
    Done,
    /// Partition 0: examine the header at stage 1.
    TablePending,
    /// Partition 0: write the reserved overflow cell at stage 2.
    TableWrite(u32),
    /// Partition 0: parked on the bucket's waiting queue.
    TableWaiting,
    /// Spill: copy into the reserved buffer location at stage 1.
    SpillCopy(usize, (usize, usize)),
    /// Spill: parked on the partition's waiting queue.
    SpillWaiting(usize),
}

struct BuildSlot {
    pi: usize,
    slot: u16,
    cell: HashCell,
    bucket: usize,
    path: BuildPath,
    next_waiting: u32,
}

#[allow(clippy::too_many_arguments)]
fn build_pass<M: MemoryModel>(
    mem: &mut M,
    build: &Relation,
    table: &mut HashTable,
    out: &mut OutputBuffers,
    p: usize,
    d: usize,
) {
    let size = swp_state_slots(2, d);
    let mask = size - 1;
    let mut slots: Vec<BuildSlot> = (0..size)
        .map(|_| BuildSlot {
            pi: 0,
            slot: 0,
            cell: HashCell::new(0, 0, 0),
            bucket: 0,
            path: BuildPath::Done,
            next_waiting: NIL,
        })
        .collect();
    let mut scan = Scan::new(build, true);
    let mut total: Option<usize> = None;
    let mut it = 0usize;
    let bk = cost::STAGE_BOOKKEEPING + cost::SWP_EXTRA;
    loop {
        // Stage 0 for element `it`: hash, dispatch, prefetch/reserve.
        if total.is_none() {
            match scan.next(mem) {
                Some((pi, slot)) => {
                    let me = (it & mask) as u32;
                    mem.busy(cost::code0_cost(false) + bk);
                    let hash = phase_hash(build, pi, slot, false);
                    let t = build.page(pi).tuple(slot);
                    {
                        let s = &mut slots[me as usize];
                        debug_assert_eq!(s.path, BuildPath::Done, "slot reused too early");
                        s.pi = pi;
                        s.slot = slot;
                        s.cell = HashCell::new(hash, t.as_ptr() as usize, t.len() as u32);
                        s.next_waiting = NIL;
                    }
                    let part = partition_of(hash, p);
                    if part == 0 {
                        let b = table.bucket_of(hash);
                        slots[me as usize].bucket = b;
                        slots[me as usize].path = BuildPath::TablePending;
                        mem.prefetch(table.header_addr(b), HashTable::header_len());
                    } else {
                        slots[me as usize].path =
                            reserve_or_park(mem, out, &mut slots, me, part, t.len());
                    }
                }
                None => total = Some(it),
            }
        }
        // Stage 1 for element `it - D`.
        if it >= d {
            let e = it - d;
            if total.is_none_or(|t| e < t) {
                let me = (e & mask) as u32;
                mem.busy(bk);
                match slots[me as usize].path {
                    BuildPath::TablePending => {
                        let (bucket, cell) =
                            (slots[me as usize].bucket, slots[me as usize].cell);
                        mem.visit(table.header_addr(bucket), HashTable::header_len());
                        mem.busy(cost::HEADER_CHECK);
                        let mut grown = 0usize;
                        match table.begin_insert(bucket, cell, me, &mut grown) {
                            InsertStep::DoneInline => {
                                mem.write(table.header_addr(bucket), HashTable::header_len());
                                mem.busy(cost::CELL_WRITE);
                                slots[me as usize].path = BuildPath::Done;
                            }
                            InsertStep::WriteCell(idx) => {
                                if grown > 0 {
                                    let (addr, len) =
                                        table.array_span(bucket).expect("array");
                                    mem.visit(addr, len.min(grown));
                                    mem.busy(cost::copy_cost(grown));
                                }
                                mem.prefetch(table.arena().cell_addr(idx), 16);
                                slots[me as usize].path = BuildPath::TableWrite(idx);
                            }
                            InsertStep::Busy(owner) => {
                                mem.other(cost::BRANCH_MISS);
                                mem.busy(cost::SWP_EXTRA);
                                append_waiter(&mut slots, owner, me);
                                slots[me as usize].path = BuildPath::TableWaiting;
                            }
                        }
                    }
                    BuildPath::SpillCopy(part, addrs) => {
                        let t = build.page(slots[me as usize].pi).tuple(slots[me as usize].slot);
                        out.commit(mem, part, t, slots[me as usize].cell.hash, addrs);
                        slots[me as usize].path = BuildPath::Done;
                        drain_partition_queue(mem, out, &mut slots, part, build, |s| {
                            matches!(s, BuildPath::SpillWaiting(_))
                        });
                    }
                    _ => {}
                }
            }
        }
        // Stage 2 for element `it - 2D`.
        if it >= 2 * d {
            let e = it - 2 * d;
            if total.is_none_or(|t| e < t) {
                let me = e & mask;
                mem.busy(bk);
                if let BuildPath::TableWrite(idx) = slots[me].path {
                    let (bucket, cell) = (slots[me].bucket, slots[me].cell);
                    mem.write(table.arena().cell_addr(idx), 16);
                    mem.busy(cost::CELL_WRITE);
                    table.finish_overflow_insert(bucket, idx, cell);
                    slots[me].path = BuildPath::Done;
                    // Drain this bucket's waiting queue warm.
                    let mut w = slots[me].next_waiting;
                    slots[me].next_waiting = NIL;
                    while w != NIL {
                        let next = slots[w as usize].next_waiting;
                        slots[w as usize].next_waiting = NIL;
                        debug_assert_eq!(slots[w as usize].path, BuildPath::TableWaiting);
                        join::baseline::insert_one(mem, table, slots[w as usize].cell);
                        slots[w as usize].path = BuildPath::Done;
                        w = next;
                    }
                }
            }
        }
        if let Some(t) = total {
            if t == 0 || it >= t - 1 + 2 * d {
                break;
            }
        }
        it += 1;
    }
}

/// Reserve an output location for a spill tuple, or park it on the
/// partition's waiting queue (flushing immediately when nothing is in
/// flight).
fn reserve_or_park<M: MemoryModel>(
    mem: &mut M,
    out: &mut OutputBuffers,
    slots: &mut [BuildSlot],
    me: u32,
    part: usize,
    len: usize,
) -> BuildPath {
    match out.try_reserve(part, len) {
        Some(addrs) => {
            mem.prefetch(addrs.0, len);
            mem.prefetch(addrs.1, 8);
            BuildPath::SpillCopy(part, addrs)
        }
        None if out.pending(part) == 0 => {
            out.flush(part);
            let addrs = out.try_reserve(part, len).expect("fresh page fits");
            mem.prefetch(addrs.0, len);
            mem.prefetch(addrs.1, 8);
            BuildPath::SpillCopy(part, addrs)
        }
        None => {
            mem.other(cost::BRANCH_MISS);
            mem.busy(cost::SWP_EXTRA);
            let head = out.waiting(part);
            if head == NIL {
                out.set_waiting(part, me);
            } else {
                let mut cur = head;
                while slots[cur as usize].next_waiting != NIL {
                    cur = slots[cur as usize].next_waiting;
                }
                slots[cur as usize].next_waiting = me;
            }
            BuildPath::SpillWaiting(part)
        }
    }
}

/// When a partition's last in-flight copy lands, write the buffer out
/// and process its waiting queue warm.
fn drain_partition_queue<M: MemoryModel>(
    mem: &mut M,
    out: &mut OutputBuffers,
    slots: &mut [BuildSlot],
    part: usize,
    input: &Relation,
    is_waiting: impl Fn(BuildPath) -> bool,
) {
    if out.pending(part) != 0 || out.waiting(part) == NIL {
        return;
    }
    out.flush(part);
    let mut w = out.waiting(part);
    out.set_waiting(part, NIL);
    while w != NIL {
        let next = slots[w as usize].next_waiting;
        slots[w as usize].next_waiting = NIL;
        debug_assert!(is_waiting(slots[w as usize].path));
        let t = input.page(slots[w as usize].pi).tuple(slots[w as usize].slot);
        out.append_direct(mem, part, t, slots[w as usize].cell.hash);
        slots[w as usize].path = BuildPath::Done;
        w = next;
    }
}

/// Per-element probe-pass state.
struct ProbeSlot {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    path: ProbePath,
    next_waiting: u32,
    header: BucketHeader,
    cands: Vec<HashCell>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProbePath {
    Done,
    /// Partition 0: probing the in-memory table.
    Probe,
    /// Spill: copy at stage 1.
    SpillCopy(usize, (usize, usize)),
    /// Spill: parked on the partition's waiting queue.
    SpillWaiting(usize),
}

#[allow(clippy::too_many_arguments)]
fn probe_pass<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    probe: &Relation,
    build: &Relation,
    table: &HashTable,
    out: &mut OutputBuffers,
    p: usize,
    d: usize,
    sink: &mut S,
) {
    let size = swp_state_slots(3, d);
    let mask = size - 1;
    let empty_header = BucketHeader {
        inline_cell: HashCell::new(0, 0, 0),
        count: 0,
        busy: 0,
        array: NIL,
        cap: 0,
    };
    let mut slots: Vec<ProbeSlot> = (0..size)
        .map(|_| ProbeSlot {
            pi: 0,
            slot: 0,
            hash: 0,
            bucket: 0,
            path: ProbePath::Done,
            next_waiting: NIL,
            header: empty_header,
            cands: Vec::new(),
        })
        .collect();
    let mut scan = Scan::new(probe, true);
    let mut total: Option<usize> = None;
    let mut it = 0usize;
    let bk = cost::STAGE_BOOKKEEPING + cost::SWP_EXTRA;
    loop {
        // Stage 0: hash, dispatch, prefetch/reserve.
        if total.is_none() {
            match scan.next(mem) {
                Some((pi, slot)) => {
                    let me = (it & mask) as u32;
                    mem.busy(cost::code0_cost(false) + bk);
                    let hash = phase_hash(probe, pi, slot, false);
                    let t = probe.page(pi).tuple(slot);
                    {
                        let s = &mut slots[me as usize];
                        debug_assert_eq!(s.path, ProbePath::Done, "slot reused too early");
                        s.pi = pi;
                        s.slot = slot;
                        s.hash = hash;
                        s.next_waiting = NIL;
                        s.cands.clear();
                    }
                    let part = partition_of(hash, p);
                    if part == 0 {
                        let b = table.bucket_of(hash);
                        slots[me as usize].bucket = b;
                        slots[me as usize].path = ProbePath::Probe;
                        mem.prefetch(table.header_addr(b), HashTable::header_len());
                    } else {
                        slots[me as usize].path =
                            probe_reserve_or_park(mem, out, &mut slots, me, part, t.len());
                    }
                }
                None => total = Some(it),
            }
        }
        // Stage 1.
        if it >= d {
            let e = it - d;
            if total.is_none_or(|t| e < t) {
                let me = e & mask;
                mem.busy(bk);
                match slots[me].path {
                    ProbePath::Probe => {
                        let bucket = slots[me].bucket;
                        mem.visit(table.header_addr(bucket), HashTable::header_len());
                        mem.busy(cost::HEADER_CHECK);
                        let header = *table.header(bucket);
                        if header.count > 0 {
                            if header.inline_cell.hash == slots[me].hash {
                                mem.other(cost::BRANCH_MISS);
                                mem.prefetch(
                                    header.inline_cell.tuple_addr(),
                                    header.inline_cell.tuple_len(),
                                );
                                slots[me].cands.push(header.inline_cell);
                            }
                            if header.count > 1 {
                                let (addr, len) = table.array_span(bucket).expect("array");
                                mem.prefetch(addr, len);
                            }
                        }
                        slots[me].header = header;
                    }
                    ProbePath::SpillCopy(part, addrs) => {
                        let t = probe.page(slots[me].pi).tuple(slots[me].slot);
                        out.commit(mem, part, t, slots[me].hash, addrs);
                        slots[me].path = ProbePath::Done;
                        probe_drain_queue(mem, out, &mut slots, part, probe);
                    }
                    _ => {}
                }
            }
        }
        // Stage 2: scan cell arrays.
        if it >= 2 * d {
            let e = it - 2 * d;
            if total.is_none_or(|t| e < t) {
                let me = e & mask;
                mem.busy(bk);
                if slots[me].path == ProbePath::Probe && slots[me].header.count > 1 {
                    let bucket = slots[me].bucket;
                    let (addr, len) = table.array_span(bucket).expect("array");
                    mem.visit(addr, len);
                    mem.busy(cost::CELL_CHECK * (slots[me].header.count as u64 - 1));
                    let hash = slots[me].hash;
                    for c in table.overflow_cells(bucket) {
                        if c.hash == hash {
                            mem.other(cost::BRANCH_MISS);
                            mem.prefetch(c.tuple_addr(), c.tuple_len());
                            slots[me].cands.push(*c);
                        }
                    }
                }
            }
        }
        // Stage 3: emit matches.
        if it >= 3 * d {
            let e = it - 3 * d;
            if total.is_none_or(|t| e < t) {
                let me = e & mask;
                mem.busy(bk);
                if slots[me].path == ProbePath::Probe {
                    if !slots[me].cands.is_empty() {
                        let pt = probe.page(slots[me].pi).tuple(slots[me].slot);
                        for c in &slots[me].cands {
                            mem.visit(c.tuple_addr(), c.tuple_len());
                            mem.busy(cost::KEY_COMPARE);
                            // SAFETY: cells point into `build`, borrowed
                            // for the duration of the join.
                            let bt = unsafe { c.tuple_bytes() };
                            if join::keys_equal(build, probe, bt, pt) {
                                sink.emit(mem, bt, pt);
                            }
                        }
                    }
                    slots[me].path = ProbePath::Done;
                }
            }
        }
        if let Some(t) = total {
            if t == 0 || it >= t - 1 + 3 * d {
                break;
            }
        }
        it += 1;
    }
}

fn probe_reserve_or_park<M: MemoryModel>(
    mem: &mut M,
    out: &mut OutputBuffers,
    slots: &mut [ProbeSlot],
    me: u32,
    part: usize,
    len: usize,
) -> ProbePath {
    match out.try_reserve(part, len) {
        Some(addrs) => {
            mem.prefetch(addrs.0, len);
            mem.prefetch(addrs.1, 8);
            ProbePath::SpillCopy(part, addrs)
        }
        None if out.pending(part) == 0 => {
            out.flush(part);
            let addrs = out.try_reserve(part, len).expect("fresh page fits");
            mem.prefetch(addrs.0, len);
            mem.prefetch(addrs.1, 8);
            ProbePath::SpillCopy(part, addrs)
        }
        None => {
            mem.other(cost::BRANCH_MISS);
            mem.busy(cost::SWP_EXTRA);
            let head = out.waiting(part);
            if head == NIL {
                out.set_waiting(part, me);
            } else {
                let mut cur = head;
                while slots[cur as usize].next_waiting != NIL {
                    cur = slots[cur as usize].next_waiting;
                }
                slots[cur as usize].next_waiting = me;
            }
            ProbePath::SpillWaiting(part)
        }
    }
}

fn probe_drain_queue<M: MemoryModel>(
    mem: &mut M,
    out: &mut OutputBuffers,
    slots: &mut [ProbeSlot],
    part: usize,
    input: &Relation,
) {
    if out.pending(part) != 0 || out.waiting(part) == NIL {
        return;
    }
    out.flush(part);
    let mut w = out.waiting(part);
    out.set_waiting(part, NIL);
    while w != NIL {
        let next = slots[w as usize].next_waiting;
        slots[w as usize].next_waiting = NIL;
        debug_assert!(matches!(slots[w as usize].path, ProbePath::SpillWaiting(_)));
        let t = input.page(slots[w as usize].pi).tuple(slots[w as usize].slot);
        out.append_direct(mem, part, t, slots[w as usize].hash);
        slots[w as usize].path = ProbePath::Done;
        w = next;
    }
}

fn append_waiter(slots: &mut [BuildSlot], owner: u32, me: u32) {
    let mut cur = owner;
    while slots[cur as usize].next_waiting != NIL {
        cur = slots[cur as usize].next_waiting;
    }
    slots[cur as usize].next_waiting = me;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::{grace_equivalent, hybrid_join};
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_workload::JoinSpec;

    fn spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 654,
        }
    }

    #[test]
    fn swp_hybrid_matches_group_hybrid_and_grace() {
        let gen = spec(4000).generate();
        let cfg = HybridConfig { mem_budget: 64 * 1024, g: 16, ..Default::default() };
        let mut mem = NativeModel;
        let mut swp_sink = CountSink::new();
        let p = hybrid_join_swp(&mut mem, &cfg, 2, &gen.build, &gen.probe, &mut swp_sink);
        assert!(p > 1);
        assert_eq!(swp_sink.matches(), gen.expected_matches);
        let mut grp_sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut grp_sink, None);
        assert_eq!(swp_sink, grp_sink);
        let mut grace_sink = CountSink::new();
        grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
        assert_eq!(swp_sink, grace_sink);
    }

    #[test]
    fn swp_hybrid_various_distances() {
        let gen = spec(1500).generate();
        let cfg = HybridConfig { mem_budget: 32 * 1024, g: 8, ..Default::default() };
        let mut reference: Option<CountSink> = None;
        for d in [1usize, 2, 4, 7] {
            let mut mem = NativeModel;
            let mut sink = CountSink::new();
            hybrid_join_swp(&mut mem, &cfg, d, &gen.build, &gen.probe, &mut sink);
            assert_eq!(sink.matches(), gen.expected_matches, "D={d}");
            match &reference {
                None => reference = Some(sink),
                Some(r) => assert_eq!(&sink, r, "D={d}"),
            }
        }
    }

    #[test]
    fn swp_hybrid_heavy_duplicates_and_tiny_buffers() {
        use phj_storage::{RelationBuilder, Schema};
        // Duplicate keys force bucket queues; large tuples force constant
        // buffer-full parking: both protocols at once.
        let schema = Schema::key_payload(1500);
        let mut b = RelationBuilder::new(schema.clone());
        let mut pr = RelationBuilder::new(schema);
        let mut t = vec![0u8; 1500];
        for i in 0..200u32 {
            t[..4].copy_from_slice(&(i % 3).to_le_bytes());
            b.push(&t);
            pr.push(&t);
        }
        let (build, probe) = (b.finish(), pr.finish());
        let cfg = HybridConfig { mem_budget: 16 * 1024, g: 4, ..Default::default() };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join_swp(&mut mem, &cfg, 3, &build, &probe, &mut sink);
        // Each key appears ~67 times on both sides within its class.
        let mut want = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..200u32 {
            *counts.entry(i % 3).or_insert(0u64) += 1;
        }
        for i in 0..200u32 {
            want += counts[&(i % 3)];
        }
        assert_eq!(sink.matches(), want);
    }

    #[test]
    fn swp_hybrid_beats_grace_in_sim() {
        let gen = spec(20_000).generate();
        let cfg = HybridConfig { mem_budget: 256 * 1024, g: 16, ..Default::default() };
        let run = |swp: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if swp {
                hybrid_join_swp(&mut mem, &cfg, 2, &gen.build, &gen.probe, &mut sink);
            } else {
                grace_equivalent(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let swp = run(true);
        assert!(swp < grace, "swp hybrid {swp} vs grace {grace}");
    }
}
