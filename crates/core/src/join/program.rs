//! The join phase's stage programs: hash table build (`k = 2`) and probe
//! (`k = 3`), run by either scheduler of [`crate::stage`].
//!
//! Complexities handled exactly as §4.4 describes:
//!
//! * **multiple code paths** — per-tuple state records which path the
//!   tuple is on (empty bucket / inline cell only / overflow array; match
//!   or no match), and each stage dispatches on it;
//! * **multiple independent lines in one stage** — a probe that matches
//!   several cells prefetches all matched build tuples in stage 2 and
//!   visits them in stage 3;
//! * **read-write conflicts in build** — the busy word in the bucket
//!   header names the in-flight inserter's state slot; a conflicting tuple
//!   is reported to the scheduler and later inserted without prefetching,
//!   since the earlier access has already warmed the bucket's lines.

use phj_memsim::MemoryModel;
use phj_storage::{KeySpan, Relation};

use crate::cost::{self, CostModel};
use crate::sink::JoinSink;
use crate::stage::{StageProgram, Step};
use crate::table::{HashCell, HashTable, InsertStep};

use super::{charge_code0, keys_equal, tuple_hash};

/// A table program the hybrid's fused passes can hand a tuple whose
/// hash code the partition program already computed and charged.
pub(crate) trait TableProgram: StageProgram {
    /// Set up `s` for tuple `(pi, slot)` with join-key hash `hash`.
    fn enter(&mut self, s: &mut Self::State, pi: usize, slot: u16, hash: u32);
}

/// Hash table build: hash + bucket → header (insert inline, or reserve an
/// overflow cell) → cell write.
pub(crate) struct Build<'a> {
    table: &'a mut HashTable,
    rel: &'a Relation,
    use_stored_hash: bool,
}

#[derive(Default)]
pub(crate) struct BuildState {
    cell: HashCell,
    bucket: usize,
    /// Overflow cell reserved in stage 1, written in stage 2.
    write: u32,
}

impl<'a> Build<'a> {
    pub(crate) fn new(table: &'a mut HashTable, rel: &'a Relation, use_stored_hash: bool) -> Self {
        Build { table, rel, use_stored_hash }
    }

    /// `[C_0, C_1, C_2]`: hash + bucket, header examination, cell write.
    pub(crate) fn stage_costs(m: &CostModel, reuse_stored_hash: bool) -> [u64; 3] {
        [m.code0_cost(reuse_stored_hash), m.header_check, m.cell_write]
    }
}

impl TableProgram for Build<'_> {
    #[inline]
    fn enter(&mut self, s: &mut BuildState, pi: usize, slot: u16, hash: u32) {
        let t = self.rel.page(pi).tuple(slot);
        s.cell = HashCell::new(hash, t.as_ptr() as usize, t.len() as u32);
        s.bucket = self.table.bucket_of(hash);
    }
}

impl StageProgram for Build<'_> {
    type State = BuildState;
    const K: usize = 2;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut BuildState,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        charge_code0(mem, self.use_stored_hash);
        mem.busy(bk);
        let hash = tuple_hash(self.rel, pi, slot, self.use_stored_hash);
        self.enter(s, pi, slot, hash);
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut BuildState,
        me: u32,
        bk: u64,
    ) -> Step {
        let table = &mut *self.table;
        match k {
            // Prefetch the bucket header.
            0 => {
                mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
                Step::Next
            }
            // Examine the header; insert inline, or reserve the overflow
            // cell and prefetch it.
            1 => {
                mem.visit(table.header_addr(s.bucket), HashTable::header_len());
                mem.busy(cost::HEADER_CHECK + bk);
                let mut grown = 0usize;
                match table.begin_insert(s.bucket, s.cell, me, &mut grown) {
                    InsertStep::DoneInline => {
                        mem.write(table.header_addr(s.bucket), HashTable::header_len());
                        mem.busy(cost::CELL_WRITE);
                        Step::Done
                    }
                    InsertStep::WriteCell(idx) => {
                        if grown > 0 {
                            let (addr, len) =
                                table.array_span(s.bucket).expect("growth implies an array");
                            mem.visit(addr, len.min(grown));
                            mem.busy(cost::copy_cost(grown));
                        }
                        mem.prefetch(table.arena().cell_addr(idx), 16);
                        s.write = idx;
                        Step::Next
                    }
                    InsertStep::Busy(owner) => Step::Owner(owner),
                }
            }
            // Write the reserved cell.
            _ => {
                mem.busy(bk);
                mem.write(table.arena().cell_addr(s.write), 16);
                mem.busy(cost::CELL_WRITE);
                table.finish_overflow_insert(s.bucket, s.write, s.cell);
                Step::Done
            }
        }
    }

    /// Straight-line insert of the cell, all memory accesses charged: the
    /// bucket is already warm.
    fn resolve<M: MemoryModel>(&mut self, mem: &mut M, s: &mut BuildState) {
        let table = &mut *self.table;
        let b = s.bucket;
        mem.visit(table.header_addr(b), HashTable::header_len());
        mem.busy(cost::HEADER_CHECK);
        let mut grown = 0usize;
        match table.begin_insert(b, s.cell, 0, &mut grown) {
            InsertStep::DoneInline => {
                // The cell write lands in the header line just visited.
                mem.write(table.header_addr(b), HashTable::header_len());
                mem.busy(cost::CELL_WRITE);
            }
            InsertStep::WriteCell(idx) => {
                if grown > 0 {
                    // The growth copy streamed old cells into the new block.
                    let (addr, len) = table.array_span(b).expect("growth implies an array");
                    mem.visit(addr, len.min(grown));
                    mem.busy(cost::copy_cost(grown));
                }
                mem.write(table.arena().cell_addr(idx), 16);
                mem.busy(cost::CELL_WRITE);
                table.finish_overflow_insert(b, idx, s.cell);
            }
            InsertStep::Busy(_) => unreachable!("a resolved insert is atomic"),
        }
    }
}

/// Probe: hash + bucket → header (inline-cell match, prefetch the cell
/// array) → cell array (prefetch matching build tuples) → key compare and
/// output.
pub(crate) struct Probe<'a, S> {
    table: &'a HashTable,
    /// The build and probe schemas' key spans, read once per probe.
    build_key: KeySpan,
    probe_key: KeySpan,
    probe_rel: &'a Relation,
    use_stored_hash: bool,
    sink: &'a mut S,
}

#[derive(Default)]
pub(crate) struct ProbeState {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    /// Cell count read from the header in stage 1 (the table is
    /// immutable during the probe).
    count: u32,
    /// Matching cells found in stages 1–2 (candidates for stage 3).
    cands: Vec<HashCell>,
}

impl<'a, S> Probe<'a, S> {
    pub(crate) fn new(
        table: &'a HashTable,
        build_rel: &'a Relation,
        probe_rel: &'a Relation,
        use_stored_hash: bool,
        sink: &'a mut S,
    ) -> Self {
        Probe {
            table,
            build_key: build_rel.schema().key_span(),
            probe_key: probe_rel.schema().key_span(),
            probe_rel,
            use_stored_hash,
            sink,
        }
    }

    /// `[C_0, C_1, C_2, C_3]`: hash + bucket, header check, cell scan,
    /// key compare + output materialization of `out_len` bytes.
    pub(crate) fn stage_costs(m: &CostModel, reuse_stored_hash: bool, out_len: usize) -> [u64; 4] {
        [
            m.code0_cost(reuse_stored_hash),
            m.header_check,
            m.cell_check,
            m.key_compare + m.copy_cost(out_len),
        ]
    }
}

impl<S: JoinSink> TableProgram for Probe<'_, S> {
    #[inline]
    fn enter(&mut self, s: &mut ProbeState, pi: usize, slot: u16, hash: u32) {
        s.pi = pi;
        s.slot = slot;
        s.hash = hash;
        s.bucket = self.table.bucket_of(hash);
    }
}

impl<S: JoinSink> StageProgram for Probe<'_, S> {
    type State = ProbeState;
    const K: usize = 3;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut ProbeState,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        charge_code0(mem, self.use_stored_hash);
        mem.busy(bk);
        let hash = tuple_hash(self.probe_rel, pi, slot, self.use_stored_hash);
        self.enter(s, pi, slot, hash);
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut ProbeState,
        _me: u32,
        bk: u64,
    ) -> Step {
        let table = self.table;
        match k {
            // Prefetch the bucket header.
            0 => mem.prefetch(table.header_addr(s.bucket), HashTable::header_len()),
            // Visit the header; prefetch the cell array and an
            // inline-match build tuple.
            1 => {
                mem.visit(table.header_addr(s.bucket), HashTable::header_len());
                mem.busy(cost::HEADER_CHECK + bk);
                let h = table.header(s.bucket);
                s.count = h.count;
                s.cands.clear();
                if h.count > 0 && h.inline_cell.hash == s.hash {
                    mem.other(cost::BRANCH_MISS);
                    mem.prefetch(h.inline_cell.tuple_addr(), h.inline_cell.tuple_len());
                    s.cands.push(h.inline_cell);
                }
                if h.count > 1 {
                    let (addr, len) = table.array_span(s.bucket).expect("count > 1 implies array");
                    mem.prefetch(addr, len);
                }
            }
            // Visit the cell array; prefetch matching build tuples.
            2 => {
                mem.busy(bk);
                if s.count > 1 {
                    let (addr, len) = table.array_span(s.bucket).expect("count > 1 implies array");
                    mem.visit(addr, len);
                    mem.busy(cost::CELL_CHECK * (s.count as u64 - 1));
                    for c in table.overflow_cells(s.bucket) {
                        if c.hash == s.hash {
                            mem.other(cost::BRANCH_MISS);
                            mem.prefetch(c.tuple_addr(), c.tuple_len());
                            s.cands.push(*c);
                        }
                    }
                }
            }
            // Visit the build tuples, compare keys, produce output.
            _ => {
                mem.busy(bk);
                if !s.cands.is_empty() {
                    let pt = self.probe_rel.page(s.pi).tuple(s.slot);
                    for c in &s.cands {
                        mem.visit(c.tuple_addr(), c.tuple_len());
                        mem.busy(cost::KEY_COMPARE);
                        // SAFETY: cells point into the build relation,
                        // borrowed for the duration of the probe; pages
                        // never move.
                        let bt = unsafe { c.tuple_bytes() };
                        if keys_equal(self.build_key, self.probe_key, bt, pt) {
                            self.sink.emit(mem, bt, pt);
                        }
                    }
                }
                return Step::Done;
            }
        }
        Step::Next
    }
}
