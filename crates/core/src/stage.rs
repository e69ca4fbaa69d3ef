//! Every scheme of the paper, written once as a schedule of one loop.
//!
//! The paper presents group prefetching and software-pipelined
//! prefetching as generic transformations of a loop whose body has `k`
//! dependent memory references (§4, §5): split the body into stages
//! `0..=k` at those references, let each stage prefetch what the next one
//! dereferences, and overlap the stages of different tuples. This module
//! holds that loop's three schedules; the operations themselves (hash
//! build, probe, partition, aggregate upsert, chained probe, the hybrid's
//! fused passes) are `StageProgram`s that only say what one stage does
//! for one tuple.
//!
//! * `Sequential` runs one tuple at a time through all its stages, with
//!   the program's prefetches dropped: the GRACE baseline (§2), or with
//!   `prefetch_input` the simple prefetching of §7.1, which adds only the
//!   input-page prefetch.
//! * `Group` strip-mines the input into groups of `G` and runs one
//!   stage at a time across the group (Figure 3(b)/(d)). A tuple that hits
//!   a read-write conflict is delayed to the group boundary, where the
//!   program resolves it warm (§4.4).
//! * `Pipelined` runs stage `i` of tuple `j` in the same iteration as
//!   stage 0 of tuple `j + i·D` (Figure 7), with per-tuple state in a
//!   circular array of [`swp_state_slots`] slots. Conflicts park on
//!   waiting queues that drain when the conflict clears (§5.3).
//!
//! Every scheduler is generic over the program, so each (program,
//! scheduler) pair compiles to its own loop with no dynamic dispatch on
//! the per-tuple path.

use phj_memsim::{LatencyHistogram, MemoryModel, RegionKind, Snapshot};
use phj_storage::Relation;

use crate::cost;
use crate::join::{JoinScheme, Scan};
use crate::model::swp_state_slots;
use crate::partition::PartitionScheme;

/// How a staged loop is scheduled: one scheme of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// One tuple at a time, no prefetching inside the loop body: the
    /// baseline, or simple prefetching with `prefetch_input` (§7.1).
    Sequential {
        /// Prefetch each input page as it is read.
        prefetch_input: bool,
    },
    /// Group prefetching with group size `g` (§4).
    Group {
        /// Group size `G`.
        g: usize,
    },
    /// Software-pipelined prefetching with prefetch distance `d` (§5).
    Pipelined {
        /// Prefetch distance `D`.
        d: usize,
    },
}

impl Schedule {
    /// The join-phase scheme with this schedule.
    pub fn join_scheme(self) -> JoinScheme {
        match self {
            Schedule::Sequential { prefetch_input: false } => JoinScheme::Baseline,
            Schedule::Sequential { prefetch_input: true } => JoinScheme::Simple,
            Schedule::Group { g } => JoinScheme::Group { g },
            Schedule::Pipelined { d } => JoinScheme::Swp { d },
        }
    }

    /// The partition-phase scheme with this schedule.
    pub fn partition_scheme(self) -> PartitionScheme {
        match self {
            Schedule::Sequential { prefetch_input: false } => PartitionScheme::Baseline,
            Schedule::Sequential { prefetch_input: true } => PartitionScheme::Simple,
            Schedule::Group { g } => PartitionScheme::Group { g },
            Schedule::Pipelined { d } => PartitionScheme::Swp { d },
        }
    }
}

/// What a stage reports about its tuple.
pub(crate) enum Step {
    /// Run the next stage; the stage prefetched what that one needs.
    Next,
    /// The tuple is finished.
    Done,
    /// Read-write conflict: the bucket is busy with the in-flight tuple in
    /// state slot `owner` (the slot index the stage was passed as `me`).
    Owner(u32),
    /// Read-write conflict: the buffer named `key` is full. Only stage 0
    /// reports it, and runs again unchanged once the program has
    /// [released](StageProgram::try_release) the key.
    Keyed(usize),
}

/// One operation written as `K + 1` stages over per-tuple state.
///
/// The scheduler reads each input tuple, calls [`Self::load`] and then
/// [`Self::stage`] for `k = 0..=K` until the stage reports
/// [`Step::Done`] or a conflict. A conflicting tuple is later finished by
/// [`Self::resolve`], which must not prefetch: the conflicting access has
/// already brought the lines into the cache.
///
/// `bk` is the scheduler's bookkeeping cost per tuple per stage. `load`
/// charges stage 0's share; stage `k ≥ 1` charges it with its own
/// computation. A scheduler charges `bk` itself for the stages of a tuple
/// it no longer runs. The sequential schedule passes `bk = 0` and never
/// parks a tuple.
pub(crate) trait StageProgram {
    /// Per-tuple state: one per group slot or pipeline slot.
    type State: Default;
    /// Number of dependent memory references: stages run `0..=K`.
    const K: usize;
    /// Stage code of the flight recorder's per-group `Batch` mark
    /// (partition 0, build 1, probe 2), if the program emits one.
    const BATCH: Option<u16> = None;

    /// Read input tuple `(pi, slot)` into `s`: stage 0's computation.
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut Self::State,
        pi: usize,
        slot: u16,
        bk: u64,
    );

    /// Run stage `k` for the tuple in slot `me`.
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut Self::State,
        me: u32,
        bk: u64,
    ) -> Step;

    /// Finish a tuple that hit a conflict, without prefetching.
    fn resolve<M: MemoryModel>(&mut self, _mem: &mut M, _s: &mut Self::State) {
        unreachable!("this program never reports a conflict")
    }

    /// Empty the buffer named `key` so any tuple fits again, unless
    /// reservations under `key` are still in flight. Returns whether it
    /// did.
    fn try_release(&mut self, _key: usize) -> bool {
        unreachable!("this program never reports a keyed conflict")
    }
}

/// Run `prog` over the tuples of `rel`'s pages in `pages` under
/// `schedule`. The prefetching schedules prefetch each input page as it
/// is read; `Sequential` does so only with `prefetch_input`.
pub(crate) fn run<P: StageProgram, M: MemoryModel>(
    schedule: Schedule,
    mem: &mut M,
    prog: &mut P,
    rel: &Relation,
    pages: std::ops::Range<usize>,
) {
    let prefetch_input = match schedule {
        Schedule::Sequential { prefetch_input } => prefetch_input,
        Schedule::Group { .. } | Schedule::Pipelined { .. } => true,
    };
    let scan = Scan::range(rel, prefetch_input, pages);
    match schedule {
        Schedule::Sequential { .. } => sequential(mem, prog, scan),
        Schedule::Group { g } => Group::new(g).run(mem, prog, scan),
        Schedule::Pipelined { d } => Pipelined::run(d, mem, prog, scan),
    }
}

/// The sequential scheduler: `load` and stages `0..=K` back to back per
/// tuple, with no bookkeeping charge. The program sees a model whose
/// prefetches do nothing; the scan keeps the real one, so its input-page
/// prefetch still lands.
fn sequential<P: StageProgram, M: MemoryModel>(mem: &mut M, prog: &mut P, mut scan: Scan<'_>) {
    let mut s = P::State::default();
    while let Some((pi, slot)) = scan.next(mem) {
        let mem = &mut NoPrefetch(&mut *mem);
        prog.load(mem, &mut s, pi, slot, 0);
        let mut k = 0;
        loop {
            match prog.stage(mem, k, &mut s, 0, 0) {
                Step::Next => k += 1,
                Step::Done => break,
                // Nothing else is in flight: the buffer always empties,
                // and stage 0 runs again.
                Step::Keyed(key) => assert!(prog.try_release(key), "a lone tuple is never waited on"),
                Step::Owner(_) => unreachable!("a lone tuple finds no bucket busy"),
            }
        }
    }
}

/// A model whose prefetches do nothing; every other hook forwards.
struct NoPrefetch<'m, M>(&'m mut M);

impl<M: MemoryModel> MemoryModel for NoPrefetch<'_, M> {
    const SIMULATED: bool = M::SIMULATED;

    #[inline(always)]
    fn visit(&mut self, addr: usize, len: usize) {
        self.0.visit(addr, len)
    }

    #[inline(always)]
    fn write(&mut self, addr: usize, len: usize) {
        self.0.write(addr, len)
    }

    #[inline(always)]
    fn prefetch(&mut self, _addr: usize, _len: usize) {}

    #[inline(always)]
    fn busy(&mut self, cycles: u64) {
        self.0.busy(cycles)
    }

    #[inline(always)]
    fn other(&mut self, cycles: u64) {
        self.0.other(cycles)
    }

    #[inline(always)]
    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    #[inline(always)]
    fn region_register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        self.0.region_register(kind, addr, len)
    }

    #[inline(always)]
    fn region_clear(&mut self, kind: RegionKind) {
        self.0.region_clear(kind)
    }

    #[inline(always)]
    fn latency_hist(&self) -> Option<LatencyHistogram> {
        self.0.latency_hist()
    }
}

/// Where a tuple is in its stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// No tuple, or its tuple is finished.
    Idle,
    /// The next stage runs in turn.
    Active,
    /// Delayed by a conflict (group) or waiting on a queue (pipeline).
    Parked,
}

/// The group-prefetching scheduler (§4).
pub(crate) struct Group<S> {
    slots: Vec<Slot<S>>,
    batches: u64,
    exhausted: bool,
}

impl<S: Default> Group<S> {
    /// A scheduler with group size `g` (at least 2).
    pub(crate) fn new(g: usize) -> Self {
        Group { slots: Slot::array(g.max(2)), batches: 0, exhausted: false }
    }

    /// Run every group of `scan`.
    pub(crate) fn run<P: StageProgram<State = S>, M: MemoryModel>(
        mut self,
        mem: &mut M,
        prog: &mut P,
        mut scan: Scan<'_>,
    ) {
        while self.step(mem, prog, &mut scan) {}
    }

    /// Run one group of up to `G` tuples through all stages and resolve
    /// its delayed tuples. Returns `false` once the input is exhausted;
    /// the group boundary is a pause point (§5.4).
    pub(crate) fn step<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        scan: &mut Scan<'_>,
    ) -> bool {
        if self.exhausted {
            return false;
        }
        let g = self.slots.len();
        let mut n = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some((pi, page_slot)) = scan.next(mem) else {
                break;
            };
            prog.load(mem, &mut slot.state, pi, page_slot, cost::STAGE_BOOKKEEPING);
            slot.status = Status::Active;
            slot.advance(mem, prog, 0, i);
            n += 1;
        }
        if n == 0 {
            self.exhausted = true;
            return false;
        }
        let group = &mut self.slots[..n];
        for k in 1..=P::K {
            for (i, slot) in group.iter_mut().enumerate() {
                if slot.status == Status::Active {
                    slot.advance(mem, prog, k, i);
                } else {
                    mem.busy(cost::STAGE_BOOKKEEPING);
                }
            }
        }
        // Group boundary: delayed tuples, warm, in slot order (§4.4).
        for slot in group.iter_mut() {
            if slot.status == Status::Parked {
                prog.resolve(mem, &mut slot.state);
            }
            slot.status = Status::Idle;
        }
        if let Some(code) = P::BATCH {
            // Host-side mark (flight recorder full mode only; never a
            // simulated-cycle cost).
            phj_flightrec::event_full(
                phj_flightrec::EventKind::Batch,
                code,
                self.batches,
                g as u64,
            );
            self.batches += 1;
        }
        if n < g {
            self.exhausted = true;
        }
        true
    }
}

impl<S> Slot<S> {
    /// Stage `k` for this group slot, `i`.
    #[inline(always)]
    fn advance<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        k: usize,
        i: usize,
    ) {
        match prog.stage(mem, k, &mut self.state, i as u32, cost::STAGE_BOOKKEEPING) {
            Step::Next => {}
            Step::Done => self.status = Status::Idle,
            Step::Owner(_) | Step::Keyed(_) => {
                // §4.4: "we delay its processing until the end of the
                // group prefetching loop body."
                mem.other(cost::BRANCH_MISS);
                self.status = Status::Parked;
            }
        }
    }
}

const NIL: u32 = u32::MAX;

/// One tuple's state in a group or pipeline slot.
struct Slot<S> {
    state: S,
    status: Status,
    /// Pipeline only. Owner: head of its waiting queue. Parked: the next
    /// waiter.
    next: u32,
}

impl<S: Default> Slot<S> {
    fn array(n: usize) -> Vec<Slot<S>> {
        (0..n).map(|_| Slot { state: S::default(), status: Status::Idle, next: NIL }).collect()
    }
}

/// The software-pipelining scheduler (§5).
pub(crate) struct Pipelined<S> {
    slots: Vec<Slot<S>>,
    /// Waiting queues on full buffers: `(key, head slot)`.
    keyed: Vec<(usize, u32)>,
}

impl<S: Default> Pipelined<S> {
    /// Run `prog` over `scan` with prefetch distance `d` (at least 1).
    pub(crate) fn run<P: StageProgram<State = S>, M: MemoryModel>(
        d: usize,
        mem: &mut M,
        prog: &mut P,
        mut scan: Scan<'_>,
    ) {
        let d = d.max(1);
        let size = swp_state_slots(P::K, d);
        let mask = size - 1;
        let mut pipe = Pipelined { slots: Slot::array(size), keyed: Vec::new() };
        let bk = cost::STAGE_BOOKKEEPING + cost::SWP_EXTRA;
        let mut total: Option<usize> = None;
        let mut it = 0usize;
        loop {
            // Stage 0 for tuple `it`.
            if total.is_none() {
                match scan.next(mem) {
                    Some((pi, slot)) => {
                        let me = it & mask;
                        let s = &mut pipe.slots[me];
                        debug_assert_eq!(s.status, Status::Idle, "slot reused too early");
                        prog.load(mem, &mut s.state, pi, slot, bk);
                        s.status = Status::Active;
                        s.next = NIL;
                        pipe.advance(mem, prog, 0, me, bk);
                    }
                    None => total = Some(it),
                }
            }
            // Stage k for tuple `it - k·D`.
            for k in 1..=P::K {
                if it < k * d {
                    break;
                }
                let e = it - k * d;
                if total.is_none_or(|t| e < t) {
                    let me = e & mask;
                    if pipe.slots[me].status == Status::Active {
                        pipe.advance(mem, prog, k, me, bk);
                    } else {
                        mem.busy(bk);
                    }
                }
            }
            if let Some(t) = total {
                if t == 0 || it >= t - 1 + P::K * d {
                    break;
                }
            }
            it += 1;
        }
        debug_assert!(pipe.keyed.is_empty(), "tuples left waiting on a full buffer");
    }

    #[inline(always)]
    fn advance<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        k: usize,
        me: usize,
        bk: u64,
    ) {
        match prog.stage(mem, k, &mut self.slots[me].state, me as u32, bk) {
            Step::Next => {}
            Step::Done => self.finish(mem, prog, me),
            Step::Owner(owner) => {
                // §5.3: append to the owner's waiting queue.
                mem.other(cost::BRANCH_MISS);
                self.slots[me].status = Status::Parked;
                self.append(owner, me as u32);
                // Queue-walk bookkeeping.
                mem.busy(cost::SWP_EXTRA);
            }
            Step::Keyed(key) => self.park_keyed(mem, prog, k, me, bk, key),
        }
    }

    /// A full buffer: with nothing in flight under `key`, empty it and
    /// run the stage again; otherwise wait until the last in-flight
    /// reservation lands.
    #[cold]
    fn park_keyed<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        k: usize,
        me: usize,
        bk: u64,
        key: usize,
    ) {
        if prog.try_release(key) {
            debug_assert_eq!(k, 0, "only stage 0 reserves buffer space");
            match prog.stage(mem, k, &mut self.slots[me].state, me as u32, bk) {
                Step::Next => {}
                Step::Done => self.finish(mem, prog, me),
                _ => unreachable!("a released buffer fits any tuple"),
            }
            return;
        }
        mem.other(cost::BRANCH_MISS);
        mem.busy(cost::SWP_EXTRA);
        self.slots[me].status = Status::Parked;
        match self.keyed.iter().find(|q| q.0 == key) {
            Some(&(_, head)) => self.append(head, me as u32),
            None => self.keyed.push((key, me as u32)),
        }
    }

    /// Link `me` at the end of the queue that starts after `head`.
    fn append(&mut self, head: u32, me: u32) {
        let mut cur = head;
        while self.slots[cur as usize].next != NIL {
            cur = self.slots[cur as usize].next;
        }
        self.slots[cur as usize].next = me;
    }

    /// The tuple in `me` finished: its waiters run warm, then every
    /// buffer whose last in-flight reservation just landed is emptied and
    /// its queue drained.
    #[inline(always)]
    fn finish<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        me: usize,
    ) {
        let s = &mut self.slots[me];
        s.status = Status::Idle;
        if s.next != NIL {
            let head = std::mem::replace(&mut s.next, NIL);
            self.drain(mem, prog, head);
        }
        if !self.keyed.is_empty() {
            self.drain_keyed(mem, prog);
        }
    }

    #[cold]
    fn drain_keyed<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
    ) {
        let mut q = 0;
        while q < self.keyed.len() {
            let (key, head) = self.keyed[q];
            if prog.try_release(key) {
                self.keyed.remove(q);
                self.drain(mem, prog, head);
            } else {
                q += 1;
            }
        }
    }

    #[cold]
    fn drain<P: StageProgram<State = S>, M: MemoryModel>(
        &mut self,
        mem: &mut M,
        prog: &mut P,
        mut w: u32,
    ) {
        while w != NIL {
            let s = &mut self.slots[w as usize];
            debug_assert_eq!(s.status, Status::Parked);
            w = std::mem::replace(&mut s.next, NIL);
            prog.resolve(mem, &mut s.state);
            s.status = Status::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    use phj_storage::{RelationBuilder, Schema};

    use super::*;
    use crate::cost::CostModel;
    use crate::hash::hash_key;
    use crate::join::program::{Build, Probe};
    use crate::join::{dispatch_build, JoinParams};
    use crate::partition::program::Partition;
    use crate::partition::OutputBuffers;
    use crate::sink::{JoinSink, OutputWriter};
    use crate::table::HashTable;

    /// Busy cycles per stage; `load` charges stage 0's slot.
    struct StageBusy {
        k: usize,
        busy: Vec<u64>,
    }

    impl MemoryModel for StageBusy {
        const SIMULATED: bool = false;

        fn visit(&mut self, _addr: usize, _len: usize) {}

        fn prefetch(&mut self, _addr: usize, _len: usize) {}

        fn busy(&mut self, cycles: u64) {
            self.busy[self.k] += cycles;
        }

        fn other(&mut self, _cycles: u64) {}
    }

    /// Tuple `(pi, slot)` through `prog` as [`sequential`] runs it, with
    /// the busy cycles of `load` + stage 0 and of each later stage kept
    /// apart. Also returns whether stage 0 emptied a full buffer.
    fn charges<P: StageProgram>(prog: &mut P, pi: usize, slot: u16) -> (Vec<u64>, bool) {
        let mut mem = StageBusy { k: 0, busy: vec![0; P::K + 1] };
        let mut s = P::State::default();
        let mut released = false;
        prog.load(&mut mem, &mut s, pi, slot, 0);
        loop {
            let k = mem.k;
            match prog.stage(&mut mem, k, &mut s, 0, 0) {
                Step::Next => mem.k += 1,
                Step::Done => return (mem.busy, released),
                Step::Keyed(key) => released = prog.try_release(key),
                Step::Owner(_) => unreachable!(),
            }
        }
    }

    fn rel(keys: &[u32], size: usize) -> Relation {
        let mut b = RelationBuilder::new(Schema::key_payload(size));
        let mut t = vec![0u8; size];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    /// A one-bucket table over `build`, so every key shares the bucket.
    fn one_bucket(build: &Relation) -> HashTable {
        let mut table = HashTable::new(1, build.num_tuples());
        let params = JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true };
        dispatch_build(&mut phj_memsim::NativeModel, &params, &mut table, build);
        table
    }

    #[test]
    fn each_stage_charges_its_declared_cost() {
        let m = CostModel::default();
        for reuse in [true, false] {
            // Build: the first tuple lands inline, where its cell write
            // is part of the header visit; the second reserves the
            // overflow array's first cell.
            let c = Build::stage_costs(&m, reuse);
            let build = rel(&[1, 2], 20);
            let mut table = HashTable::new(1, 2);
            let mut prog = Build::new(&mut table, &build, reuse);
            assert_eq!(charges(&mut prog, 0, 0).0, [c[0], c[1] + c[2], 0], "inline insert");
            assert_eq!(charges(&mut prog, 0, 1).0, [c[0], c[1], c[2]], "overflow insert");

            // Probe keys 1, 3 and 2 into an empty bucket, a bucket holding
            // only key 1, and one holding keys 1 and 2.
            let probe = rel(&[1, 3, 2], 20);
            let out_len = Schema::join_output(build.schema(), probe.schema()).fixed_size();
            let c = Probe::<()>::stage_costs(&m, reuse, out_len);
            let mut sink = OutputWriter::new(build.schema().clone(), probe.schema().clone());
            let tables = [one_bucket(&rel(&[], 20)), one_bucket(&rel(&[1], 20)), one_bucket(&build)];
            let mut run = |table: &HashTable, slot| {
                charges(&mut Probe::new(table, &build, &probe, reuse, &mut sink), 0, slot).0
            };
            assert_eq!(run(&tables[0], 0), [c[0], c[1], 0, 0], "empty bucket");
            assert_eq!(run(&tables[1], 0), [c[0], c[1], 0, c[3]], "inline-only match");
            assert_eq!(run(&tables[1], 1), [c[0], c[1], 0, 0], "inline-only miss");
            assert_eq!(run(&tables[2], 2), [c[0], c[1], c[2], c[3]], "overflow array");
            assert_eq!(sink.matches(), 2);

            // Partition 2000-byte tuples into one buffer page, which holds
            // four: the fifth finds it full and empties it first.
            let input = rel(&[0, 1, 2, 3, 4, 5], 2000);
            let c = Partition::stage_costs(&m, reuse, 2000);
            let mut out = OutputBuffers::new(&input, 1);
            let mut prog = Partition::new(&input, &mut out, reuse);
            let tuples = (0..input.num_pages())
                .flat_map(|pi| (0..input.page(pi).nslots()).map(move |slot| (pi, slot)));
            for (i, (pi, slot)) in tuples.enumerate() {
                let (busy, released) = charges(&mut prog, pi, slot);
                assert_eq!(busy, c, "tuple {i}, reuse {reuse}");
                assert_eq!(released, i == 4, "tuple {i}, reuse {reuse}");
            }
            assert_eq!(out.finish()[0].num_tuples(), 6);
        }
    }
}
