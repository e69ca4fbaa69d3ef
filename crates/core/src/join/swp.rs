//! Software-pipelined prefetching for the join phase (§5 of the paper).
//!
//! Where group prefetching processes stages group-by-group with a barrier
//! between groups, software pipelining runs one iteration of a single loop
//! per element *slot*: iteration `it` executes stage 0 for element `it`,
//! stage 1 for element `it - D`, stage 2 for `it - 2D`, and stage 3 for
//! `it - 3D` (Figure 7). The pipeline never drains between groups, hiding
//! the intermittent stalls group prefetching can suffer at transitions.
//!
//! Implementation follows §5.3: per-element state lives in a circular
//! array whose size is a power of two of at least `kD + 1` (bit-mask
//! modular indexing); read-write conflicts during build use **waiting
//! queues** — the bucket's busy word names the in-flight inserter's state
//! slot, and conflicting tuples chain themselves onto it via a
//! `next_waiting` link. When the owner completes its insert it processes
//! the queued tuples (their bucket lines are warm by then).

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::cost;
use crate::model::swp_state_slots;
use crate::sink::JoinSink;
use crate::table::{BucketHeader, HashCell, HashTable, InsertStep};

use super::baseline::insert_one;
use super::{charge_code0, keys_equal, tuple_hash, JoinParams, Scan};

const NIL: u32 = u32::MAX;

struct ProbeSlot {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    header: BucketHeader,
    cands: Vec<HashCell>,
}

impl ProbeSlot {
    fn empty() -> Self {
        ProbeSlot {
            pi: 0,
            slot: 0,
            hash: 0,
            bucket: 0,
            header: BucketHeader {
                inline_cell: HashCell::new(0, 0, 0),
                count: 0,
                busy: 0,
                array: NIL,
                cap: 0,
            },
            cands: Vec::new(),
        }
    }
}

/// Software-pipelined probe with prefetch distance `d`.
pub fn probe<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    table: &HashTable,
    build_rel: &Relation,
    probe_rel: &Relation,
    d: usize,
    sink: &mut S,
) {
    let d = d.max(1);
    let size = swp_state_slots(3, d);
    let mask = size - 1;
    let mut slots: Vec<ProbeSlot> = (0..size).map(|_| ProbeSlot::empty()).collect();
    let mut scan = Scan::new(probe_rel, true);
    let mut total: Option<usize> = None;
    let mut it = 0usize;
    let bk = cost::STAGE_BOOKKEEPING + cost::SWP_EXTRA;
    loop {
        // Stage 0 for element `it`.
        if total.is_none() {
            match scan.next(mem) {
                Some((pi, slot)) => {
                    let s = &mut slots[it & mask];
                    charge_code0(mem, params.use_stored_hash);
                    mem.busy(bk);
                    s.pi = pi;
                    s.slot = slot;
                    s.hash = tuple_hash(probe_rel, pi, slot, params.use_stored_hash);
                    s.bucket = table.bucket_of(s.hash);
                    mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
                }
                None => total = Some(it),
            }
        }
        // Stage 1 for element `it - D`.
        if it >= d {
            let e = it - d;
            if total.is_none_or(|t| e < t) {
                let s = &mut slots[e & mask];
                mem.visit(table.header_addr(s.bucket), HashTable::header_len());
                mem.busy(cost::HEADER_CHECK + bk);
                s.header = *table.header(s.bucket);
                s.cands.clear();
                if s.header.count > 0 {
                    if s.header.inline_cell.hash == s.hash {
                        mem.other(cost::BRANCH_MISS);
                        mem.prefetch(
                            s.header.inline_cell.tuple_addr(),
                            s.header.inline_cell.tuple_len(),
                        );
                        s.cands.push(s.header.inline_cell);
                    }
                    if s.header.count > 1 {
                        let (addr, len) =
                            table.array_span(s.bucket).expect("count > 1 implies array");
                        mem.prefetch(addr, len);
                    }
                }
            }
        }
        // Stage 2 for element `it - 2D`.
        if it >= 2 * d {
            let e = it - 2 * d;
            if total.is_none_or(|t| e < t) {
                let s = &mut slots[e & mask];
                mem.busy(bk);
                if s.header.count > 1 {
                    let (addr, len) =
                        table.array_span(s.bucket).expect("count > 1 implies array");
                    mem.visit(addr, len);
                    mem.busy(cost::CELL_CHECK * (s.header.count as u64 - 1));
                    for c in table.overflow_cells(s.bucket) {
                        if c.hash == s.hash {
                            mem.other(cost::BRANCH_MISS);
                            mem.prefetch(c.tuple_addr(), c.tuple_len());
                            s.cands.push(*c);
                        }
                    }
                }
            }
        }
        // Stage 3 for element `it - 3D`.
        if it >= 3 * d {
            let e = it - 3 * d;
            if total.is_none_or(|t| e < t) {
                let s = &mut slots[e & mask];
                mem.busy(bk);
                if !s.cands.is_empty() {
                    let pt = probe_rel.page(s.pi).tuple(s.slot);
                    for c in &s.cands {
                        mem.visit(c.tuple_addr(), c.tuple_len());
                        mem.busy(cost::KEY_COMPARE);
                        // SAFETY: cells point into `build_rel`, borrowed
                        // for the duration of the probe.
                        let bt = unsafe { c.tuple_bytes() };
                        if keys_equal(build_rel, probe_rel, bt, pt) {
                            sink.emit(mem, bt, pt);
                        }
                    }
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildState {
    Done,
    Write(u32),
    Waiting,
}

struct BuildSlot {
    cell: HashCell,
    bucket: usize,
    state: BuildState,
    next_waiting: u32,
}

/// Software-pipelined build with prefetch distance `d`.
pub fn build<M: MemoryModel>(
    mem: &mut M,
    params: &JoinParams,
    table: &mut HashTable,
    build: &Relation,
    d: usize,
) {
    let d = d.max(1);
    let size = swp_state_slots(2, d);
    let mask = size - 1;
    let mut slots: Vec<BuildSlot> = (0..size)
        .map(|_| BuildSlot {
            cell: HashCell::new(0, 0, 0),
            bucket: 0,
            state: BuildState::Done,
            next_waiting: NIL,
        })
        .collect();
    let mut scan = Scan::new(build, true);
    let mut total: Option<usize> = None;
    let mut it = 0usize;
    let bk = cost::STAGE_BOOKKEEPING + cost::SWP_EXTRA;
    loop {
        // Stage 0 for element `it`.
        if total.is_none() {
            match scan.next(mem) {
                Some((pi, slot)) => {
                    let me = it & mask;
                    charge_code0(mem, params.use_stored_hash);
                    mem.busy(bk);
                    let hash = tuple_hash(build, pi, slot, params.use_stored_hash);
                    let t = build.page(pi).tuple(slot);
                    let s = &mut slots[me];
                    debug_assert_eq!(s.state, BuildState::Done, "slot reused too early");
                    s.cell = HashCell::new(hash, t.as_ptr() as usize, t.len() as u32);
                    s.bucket = table.bucket_of(hash);
                    s.next_waiting = NIL;
                    mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
                }
                None => total = Some(it),
            }
        }
        // Stage 1 for element `it - D`.
        if it >= d {
            let e = it - d;
            if total.is_none_or(|t| e < t) {
                let me = (e & mask) as u32;
                let (bucket, cell) = {
                    let s = &slots[me as usize];
                    (s.bucket, s.cell)
                };
                mem.visit(table.header_addr(bucket), HashTable::header_len());
                mem.busy(cost::HEADER_CHECK + bk);
                let mut grown = 0usize;
                match table.begin_insert(bucket, cell, me, &mut grown) {
                    InsertStep::DoneInline => {
                        mem.write(table.header_addr(bucket), HashTable::header_len());
                        mem.busy(cost::CELL_WRITE);
                        slots[me as usize].state = BuildState::Done;
                    }
                    InsertStep::WriteCell(idx) => {
                        if grown > 0 {
                            let (addr, len) =
                                table.array_span(bucket).expect("growth implies array");
                            mem.visit(addr, len.min(grown));
                            mem.busy(cost::copy_cost(grown));
                        }
                        mem.prefetch(table.arena().cell_addr(idx), 16);
                        slots[me as usize].state = BuildState::Write(idx);
                    }
                    InsertStep::Busy(owner) => {
                        // §5.3: append to the bucket's waiting queue.
                        mem.other(cost::BRANCH_MISS);
                        let mut cur = owner;
                        while slots[cur as usize].next_waiting != NIL {
                            cur = slots[cur as usize].next_waiting;
                        }
                        slots[cur as usize].next_waiting = me;
                        slots[me as usize].state = BuildState::Waiting;
                        // Queue-walk bookkeeping.
                        mem.busy(cost::SWP_EXTRA);
                    }
                }
            }
        }
        // Stage 2 for element `it - 2D`.
        if it >= 2 * d {
            let e = it - 2 * d;
            if total.is_none_or(|t| e < t) {
                let me = e & mask;
                mem.busy(bk);
                if let BuildState::Write(idx) = slots[me].state {
                    let (bucket, cell) = (slots[me].bucket, slots[me].cell);
                    mem.write(table.arena().cell_addr(idx), 16);
                    mem.busy(cost::CELL_WRITE);
                    table.finish_overflow_insert(bucket, idx, cell);
                    slots[me].state = BuildState::Done;
                    // Drain this element's waiting queue: the bucket lines
                    // are warm, so queued inserts run without prefetching.
                    let mut w = slots[me].next_waiting;
                    slots[me].next_waiting = NIL;
                    while w != NIL {
                        let next = slots[w as usize].next_waiting;
                        slots[w as usize].next_waiting = NIL;
                        debug_assert_eq!(slots[w as usize].state, BuildState::Waiting);
                        insert_one(mem, table, slots[w as usize].cell);
                        slots[w as usize].state = BuildState::Done;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{join_pair, JoinParams, JoinScheme};
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{RelationBuilder, Schema};

    fn rel(keys: &[u32]) -> Relation {
        let schema = Schema::key_payload(24);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 24];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, crate::hash::hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    fn run(scheme: JoinScheme, build_keys: &[u32], probe_keys: &[u32]) -> CountSink {
        let build_rel = rel(build_keys);
        let probe_rel = rel(probe_keys);
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut sink,
            None,
        );
        sink
    }

    #[test]
    fn swp_equals_baseline() {
        let build_keys: Vec<u32> = (0..1000).collect();
        let probe_keys: Vec<u32> = (500..1500).map(|k| k % 1200).collect();
        let base = run(JoinScheme::Baseline, &build_keys, &probe_keys);
        for d in [1, 2, 3, 5, 8] {
            let got = run(JoinScheme::Swp { d }, &build_keys, &probe_keys);
            assert_eq!(got, base, "D={d}");
        }
    }

    #[test]
    fn swp_handles_heavy_duplicates() {
        // Everything in one bucket: every insert conflicts, exercising
        // the waiting-queue protocol heavily.
        let build_keys = vec![7u32; 200];
        let probe_keys = vec![7u32; 3];
        let base = run(JoinScheme::Baseline, &build_keys, &probe_keys);
        for d in [1, 2, 4] {
            let got = run(JoinScheme::Swp { d }, &build_keys, &probe_keys);
            assert_eq!(got, base, "D={d}");
            assert_eq!(got.matches(), 600);
        }
    }

    #[test]
    fn swp_empty_and_tiny_relations() {
        let empty: Vec<u32> = vec![];
        let got = run(JoinScheme::Swp { d: 2 }, &empty, &[1, 2, 3]);
        assert_eq!(got.matches(), 0);
        let got = run(JoinScheme::Swp { d: 2 }, &[1, 2, 3], &empty);
        assert_eq!(got.matches(), 0);
        let got = run(JoinScheme::Swp { d: 3 }, &[1], &[1]);
        assert_eq!(got.matches(), 1);
    }

    #[test]
    fn swp_beats_baseline_in_sim() {
        let build_keys: Vec<u32> = (0..4000).collect();
        let probe_keys: Vec<u32> = (0..8000).map(|k| k % 4000).collect();
        let build_rel = rel(&build_keys);
        let probe_rel = rel(&probe_keys);
        let time = |scheme| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            join_pair(
                &mut mem,
                &JoinParams { scheme, use_stored_hash: true },
                &build_rel,
                &probe_rel,
                1,
                &mut sink,
                None,
            );
            assert_eq!(sink.matches(), 8000);
            mem.breakdown()
        };
        let base = time(JoinScheme::Baseline);
        // With a counting sink C_k is small, so Theorem 2 needs D = 2.
        // This workload half-fits in L2, capping the speedup; the full
        // Fig-10-scale runs in the bench harness show the paper's 2-3x.
        let swp = time(JoinScheme::Swp { d: 2 });
        assert!(
            swp.total() * 3 < base.total() * 2,
            "swp {} vs baseline {}",
            swp.total(),
            base.total()
        );
    }
}
