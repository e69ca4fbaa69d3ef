//! Group prefetching for the join phase (§4 of the paper).
//!
//! The loop over tuples is strip-mined into groups of `G`; within a group,
//! the work is loop-distributed into stages separated by the dependent
//! memory references (Figure 3(b)/(d)). Each stage performs one critical-
//! path step for *all* tuples of the group and issues prefetches for the
//! next stage's addresses, so the miss latency of one tuple overlaps the
//! computation and misses of the `G-1` others.
//!
//! Complexities handled exactly as §4.4 describes:
//!
//! * **multiple code paths** — per-tuple state records which path the
//!   tuple is on (empty bucket / inline cell only / overflow array; match
//!   or no match), and each stage dispatches on it;
//! * **multiple independent lines in one stage** — a probe that matches
//!   several cells prefetches all matched build tuples in stage 2 and
//!   visits them in stage 3;
//! * **read-write conflicts in build** — a busy flag in the bucket header
//!   detects an in-flight insert to the same bucket; the conflicting
//!   tuple is *delayed* to the end of the group body and inserted there
//!   without prefetching, since the earlier access has already warmed the
//!   bucket's lines.

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::cost;
use crate::sink::JoinSink;
use crate::table::{BucketHeader, HashCell, HashTable, InsertStep};

use super::baseline::insert_one;
use super::{charge_code0, keys_equal, tuple_hash, JoinParams, Scan};

/// Per-tuple probe state across the four stages.
struct ProbeSlot {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    /// Header copy taken in stage 1 (the table is immutable during probe).
    header: BucketHeader,
    /// Matching cells found in stages 1–2 (candidates for stage 3).
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
                array: u32::MAX,
                cap: 0,
            },
            cands: Vec::new(),
        }
    }
}

/// Group-prefetching probe with group size `g`.
pub fn probe<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    table: &HashTable,
    build_rel: &Relation,
    probe_rel: &Relation,
    g: usize,
    sink: &mut S,
) {
    let mut gp = GroupProbe::new(params, table, build_rel, probe_rel, g);
    while gp.run_group(mem, sink) {}
}

/// A **resumable** group-prefetching probe.
///
/// §5.4: "the join phase can pause at group boundaries and send outputs
/// to the parent operator to support pipelined query processing." Each
/// [`GroupProbe::run_group`] call processes exactly one group of up to
/// `G` probe tuples through all four stages and returns; the caller (a
/// parent operator) can consume the sink's output between calls without
/// paying any pipeline restart cost — the group boundary is a natural
/// pause point, which is one of the paper's arguments for preferring
/// group prefetching over software pipelining in an engine.
pub struct GroupProbe<'a> {
    params: &'a JoinParams,
    table: &'a HashTable,
    build_rel: &'a Relation,
    probe_rel: &'a Relation,
    g: usize,
    slots: Vec<ProbeSlot>,
    scan: Scan<'a>,
    exhausted: bool,
    batches: u64,
}

impl<'a> GroupProbe<'a> {
    /// Set up a probe of `probe_rel` against `table` over `build_rel`.
    pub fn new(
        params: &'a JoinParams,
        table: &'a HashTable,
        build_rel: &'a Relation,
        probe_rel: &'a Relation,
        g: usize,
    ) -> Self {
        let g = g.max(2);
        GroupProbe {
            params,
            table,
            build_rel,
            probe_rel,
            g,
            slots: (0..g).map(|_| ProbeSlot::empty()).collect(),
            scan: Scan::new(probe_rel, true),
            exhausted: false,
            batches: 0,
        }
    }

    /// Process one group; returns `false` once the probe input is
    /// exhausted (no further matches will be emitted).
    pub fn run_group<M: MemoryModel, S: JoinSink>(&mut self, mem: &mut M, sink: &mut S) -> bool {
        if self.exhausted {
            return false;
        }
        let (g, table, build_rel, probe_rel) =
            (self.g, self.table, self.build_rel, self.probe_rel);
        // Stage 0: hash, bucket number, prefetch bucket headers.
        let mut n = 0usize;
        for s in self.slots.iter_mut().take(g) {
            let Some((pi, slot)) = self.scan.next(mem) else { break };
            charge_code0(mem, self.params.use_stored_hash);
            mem.busy(cost::STAGE_BOOKKEEPING);
            s.pi = pi;
            s.slot = slot;
            s.hash = tuple_hash(probe_rel, pi, slot, self.params.use_stored_hash);
            s.bucket = table.bucket_of(s.hash);
            mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
            n += 1;
        }
        if n == 0 {
            self.exhausted = true;
            return false;
        }
        // Stage 1: visit headers; prefetch cell arrays and inline-match
        // build tuples.
        for s in self.slots.iter_mut().take(n) {
            mem.visit(table.header_addr(s.bucket), HashTable::header_len());
            mem.busy(cost::HEADER_CHECK + cost::STAGE_BOOKKEEPING);
            s.header = *table.header(s.bucket);
            s.cands.clear();
            if s.header.count == 0 {
                continue;
            }
            if s.header.inline_cell.hash == s.hash {
                mem.other(cost::BRANCH_MISS);
                mem.prefetch(s.header.inline_cell.tuple_addr(), s.header.inline_cell.tuple_len());
                s.cands.push(s.header.inline_cell);
            }
            if s.header.count > 1 {
                let (addr, len) =
                    table.array_span(s.bucket).expect("count > 1 implies array");
                mem.prefetch(addr, len);
            }
        }
        // Stage 2: visit cell arrays; prefetch matched build tuples.
        for s in self.slots.iter_mut().take(n) {
            mem.busy(cost::STAGE_BOOKKEEPING);
            if s.header.count <= 1 {
                continue;
            }
            let (addr, len) = table.array_span(s.bucket).expect("count > 1 implies array");
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
        // Stage 3: visit build tuples, compare keys, produce output.
        for s in self.slots.iter_mut().take(n) {
            mem.busy(cost::STAGE_BOOKKEEPING);
            if s.cands.is_empty() {
                continue;
            }
            let pt = probe_rel.page(s.pi).tuple(s.slot);
            for c in &s.cands {
                mem.visit(c.tuple_addr(), c.tuple_len());
                mem.busy(cost::KEY_COMPARE);
                // SAFETY: cells point into `build_rel`, borrowed for the
                // duration of the probe; pages never move.
                let bt = unsafe { c.tuple_bytes() };
                if keys_equal(build_rel, probe_rel, bt, pt) {
                    sink.emit(mem, bt, pt);
                }
            }
        }
        // Host-side batch mark (flight recorder full mode only; never a
        // simulated-cycle cost).
        phj_flightrec::event_full(phj_flightrec::EventKind::Batch, 2, self.batches, g as u64);
        self.batches += 1;
        if n < g {
            self.exhausted = true;
        }
        true
    }
}

/// Per-tuple build state.
#[derive(Clone, Copy)]
enum BuildState {
    /// Insert completed (inline) during stage 1.
    Done,
    /// Overflow cell reserved; write it in stage 2.
    Write(u32),
    /// Bucket was busy; resolve at the group boundary.
    Delayed,
}

struct BuildSlot {
    cell: HashCell,
    bucket: usize,
    state: BuildState,
}

/// Group-prefetching build with group size `g`.
pub fn build<M: MemoryModel>(
    mem: &mut M,
    params: &JoinParams,
    table: &mut HashTable,
    build: &Relation,
    g: usize,
) {
    let g = g.max(2);
    let mut slots: Vec<BuildSlot> = (0..g)
        .map(|_| BuildSlot {
            cell: HashCell::new(0, 0, 0),
            bucket: 0,
            state: BuildState::Done,
        })
        .collect();
    let mut delayed: Vec<usize> = Vec::new();
    let mut scan = Scan::new(build, true);
    let mut batches = 0u64;
    loop {
        // Stage 0: hash, bucket, prefetch headers.
        let mut n = 0usize;
        for s in slots.iter_mut().take(g) {
            let Some((pi, slot)) = scan.next(mem) else { break };
            charge_code0(mem, params.use_stored_hash);
            mem.busy(cost::STAGE_BOOKKEEPING);
            let hash = tuple_hash(build, pi, slot, params.use_stored_hash);
            let t = build.page(pi).tuple(slot);
            s.cell = HashCell::new(hash, t.as_ptr() as usize, t.len() as u32);
            s.bucket = table.bucket_of(hash);
            s.state = BuildState::Done;
            mem.prefetch(table.header_addr(s.bucket), HashTable::header_len());
            n += 1;
        }
        if n == 0 {
            break;
        }
        // Stage 1: examine headers; reserve overflow slots and prefetch
        // them, or detect conflicts.
        delayed.clear();
        for (i, s) in slots.iter_mut().enumerate().take(n) {
            mem.visit(table.header_addr(s.bucket), HashTable::header_len());
            mem.busy(cost::HEADER_CHECK + cost::STAGE_BOOKKEEPING);
            let mut grown = 0usize;
            match table.begin_insert(s.bucket, s.cell, i as u32, &mut grown) {
                InsertStep::DoneInline => {
                    mem.write(table.header_addr(s.bucket), HashTable::header_len());
                    mem.busy(cost::CELL_WRITE);
                    s.state = BuildState::Done;
                }
                InsertStep::WriteCell(idx) => {
                    if grown > 0 {
                        let (addr, len) = table
                            .array_span(s.bucket)
                            .expect("growth implies an array");
                        mem.visit(addr, len.min(grown));
                        mem.busy(cost::copy_cost(grown));
                    }
                    mem.prefetch(table.arena().cell_addr(idx), 16);
                    s.state = BuildState::Write(idx);
                }
                InsertStep::Busy(_) => {
                    // §4.4: "If a tuple is to be inserted into a busy
                    // bucket, we delay its processing until the end of the
                    // group prefetching loop body."
                    mem.other(cost::BRANCH_MISS);
                    s.state = BuildState::Delayed;
                    delayed.push(i);
                }
            }
        }
        // Stage 2: write the reserved cells.
        for s in slots.iter_mut().take(n) {
            mem.busy(cost::STAGE_BOOKKEEPING);
            if let BuildState::Write(idx) = s.state {
                mem.write(table.arena().cell_addr(idx), 16);
                mem.busy(cost::CELL_WRITE);
                table.finish_overflow_insert(s.bucket, idx, s.cell);
                s.state = BuildState::Done;
            }
        }
        // Group boundary: insert delayed tuples without prefetching —
        // the conflicting earlier insert warmed the bucket lines (§4.4).
        for &i in &delayed {
            insert_one(mem, table, slots[i].cell);
            slots[i].state = BuildState::Done;
        }
        phj_flightrec::event_full(phj_flightrec::EventKind::Batch, 1, batches, g as u64);
        batches += 1;
        if n < g {
            break;
        }
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
    fn group_equals_baseline() {
        let build_keys: Vec<u32> = (0..1000).collect();
        let probe_keys: Vec<u32> = (500..1500).map(|k| k % 1200).collect();
        let base = run(JoinScheme::Baseline, &build_keys, &probe_keys);
        for g in [2, 3, 16, 19, 64] {
            let got = run(JoinScheme::Group { g }, &build_keys, &probe_keys);
            assert_eq!(got, base, "G={g}");
        }
    }

    #[test]
    fn group_handles_heavy_duplicates() {
        // All build tuples in one bucket: forces busy-flag conflicts in
        // every group and exercises the delayed-tuple path.
        let build_keys = vec![7u32; 200];
        let probe_keys = vec![7u32; 3];
        let base = run(JoinScheme::Baseline, &build_keys, &probe_keys);
        let got = run(JoinScheme::Group { g: 16 }, &build_keys, &probe_keys);
        assert_eq!(got, base);
        assert_eq!(got.matches(), 600);
    }

    #[test]
    fn group_non_multiple_sizes() {
        // Relation size not a multiple of G exercises the tail group.
        let build_keys: Vec<u32> = (0..97).collect();
        let probe_keys: Vec<u32> = (0..101).collect();
        let base = run(JoinScheme::Baseline, &build_keys, &probe_keys);
        let got = run(JoinScheme::Group { g: 16 }, &build_keys, &probe_keys);
        assert_eq!(got, base);
        assert_eq!(got.matches(), 97);
    }

    #[test]
    fn resumable_probe_pauses_at_group_boundaries() {
        // §5.4 pipelined processing: run_group yields after every group,
        // the per-group match count is bounded, and the concatenation of
        // per-group outputs equals the one-shot probe's output.
        let build_keys: Vec<u32> = (0..500).collect();
        let probe_keys: Vec<u32> = (0..500).map(|k| 499 - k).collect();
        let build_rel = rel(&build_keys);
        let probe_rel = rel(&probe_keys);
        let params = JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true };
        let mut mem = NativeModel;
        let mut table = crate::table::HashTable::new(503, 500);
        build(&mut mem, &params, &mut table, &build_rel, 16);
        let mut gp = GroupProbe::new(&params, &table, &build_rel, &probe_rel, 16);
        let mut sink = CountSink::new();
        let mut groups = 0;
        let mut last = 0;
        while gp.run_group(&mut mem, &mut sink) {
            groups += 1;
            let emitted = sink.matches() - last;
            assert!(emitted <= 16 * 2, "bounded output per group");
            last = sink.matches();
        }
        assert_eq!(groups, 500usize.div_ceil(16));
        assert_eq!(sink.matches(), 500);
        // Resuming after exhaustion stays exhausted.
        assert!(!gp.run_group(&mut mem, &mut sink));
        // One-shot probe agrees.
        let mut oneshot = CountSink::new();
        probe(&mut mem, &params, &table, &build_rel, &probe_rel, 16, &mut oneshot);
        assert_eq!(oneshot, sink);
    }

    #[test]
    fn group_beats_baseline_in_sim() {
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
        // This workload half-fits in L2, capping the speedup; the full
        // Fig-10-scale runs in the bench harness show the paper's 2-3x.
        let grp = time(JoinScheme::Group { g: 16 });
        assert!(
            grp.total() * 3 < base.total() * 2,
            "group {} vs baseline {}",
            grp.total(),
            base.total()
        );
        assert!(
            grp.dcache_stall * 3 < base.dcache_stall,
            "group hides most dcache stalls: {} vs {}",
            grp.dcache_stall,
            base.dcache_stall
        );
    }
}
