//! The partition phase's stage program (`k = 1`).
//!
//! The single dependent reference of a tuple is its output-buffer
//! location, whose exact addresses are known at stage 0 via the
//! reservation protocol of [`OutputBuffers`]: stage 0 hashes the tuple,
//! reserves its output location and prefetches it; stage 1 performs the
//! copy. A buffer-full event is the phase's read-write conflict (§6),
//! reported as a keyed conflict on the partition: the group scheduler
//! defers the tuple to the group boundary, where every in-flight copy has
//! committed; the pipeline parks it on the partition's waiting queue until
//! the last in-flight copy lands. Either way the buffer is then written
//! out and the tuple appended without prefetching.
//!
//! [`Fused`] is the hybrid hash join's mixed-path pass: partition 0 goes
//! to a join-phase table program (`k = 2` insert, `k = 3` probe), every
//! other partition to [`Partition`]. Per-tuple state records the path and
//! each stage dispatches on it — the multiple-code-path situation of §4.4
//! — so busy buckets and full output buffers coexist in one loop under
//! either scheduler's conflict protocol (§5.3).

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::cost::{self, CostModel};
use crate::join::program::TableProgram;
use crate::stage::{StageProgram, Step};

use super::{phase_hash, OutputBuffers, PartitionStore};

/// Hash + partition number + reservation → tuple copy.
pub(crate) struct Partition<'a, S> {
    input: &'a Relation,
    out: &'a mut OutputBuffers<S>,
    use_stored_hash: bool,
}

#[derive(Default)]
pub(crate) struct PartState {
    pi: usize,
    slot: u16,
    hash: u32,
    /// Output partition of the tuple.
    p: usize,
    /// Output `(data_addr, slot_addr)` reserved in stage 0.
    reserved: (usize, usize),
}

impl<'a, S> Partition<'a, S> {
    pub(crate) fn new(
        input: &'a Relation,
        out: &'a mut OutputBuffers<S>,
        use_stored_hash: bool,
    ) -> Self {
        Partition { input, out, use_stored_hash }
    }
}

impl Partition<'_, Vec<Relation>> {
    /// `[C_0, C_1]`: hash + partition number, tuple copy into the output
    /// buffer.
    pub(crate) fn stage_costs(m: &CostModel, reuse_stored_hash: bool, tuple_len: usize) -> [u64; 2] {
        [m.code0_cost(reuse_stored_hash), m.copy_cost(tuple_len)]
    }
}

impl<S: PartitionStore> StageProgram for Partition<'_, S> {
    type State = PartState;
    const K: usize = 1;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut PartState,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        mem.busy(cost::code0_cost(self.use_stored_hash) + bk);
        s.pi = pi;
        s.slot = slot;
        s.hash = phase_hash(self.input, pi, slot, self.use_stored_hash);
        s.p = self.out.partition_of(s.hash);
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut PartState,
        _me: u32,
        bk: u64,
    ) -> Step {
        let t = self.input.page(s.pi).tuple(s.slot);
        if k == 0 {
            // Reserve the output location and prefetch it.
            let Some(addrs) = self.out.try_reserve(s.p, t.len()) else {
                return Step::Keyed(s.p);
            };
            mem.prefetch(addrs.0, t.len());
            mem.prefetch(addrs.1, 8);
            s.reserved = addrs;
            return Step::Next;
        }
        // Copy the tuple into its reserved location.
        mem.busy(bk);
        self.out.commit(mem, s.p, t, s.hash, s.reserved);
        Step::Done
    }

    fn resolve<M: MemoryModel>(&mut self, mem: &mut M, s: &mut PartState) {
        let t = self.input.page(s.pi).tuple(s.slot);
        self.out.append_direct(mem, s.p, t, s.hash);
    }

    fn try_release(&mut self, p: usize) -> bool {
        let idle = self.out.pending(p) == 0;
        if idle {
            self.out.flush(p);
        }
        idle
    }
}

/// One hybrid pass: partition 0 goes to `table`, the rest to `part`.
pub(crate) struct Fused<'a, T> {
    pub(crate) table: T,
    pub(crate) part: Partition<'a, Vec<Relation>>,
}

#[derive(Default)]
pub(crate) struct FusedState<S> {
    resident: bool,
    table: S,
    part: PartState,
}

impl<T: TableProgram> StageProgram for Fused<'_, T> {
    type State = FusedState<T::State>;
    const K: usize = T::K;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut Self::State,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        self.part.load(mem, &mut s.part, pi, slot, bk);
        s.resident = s.part.p == 0;
        if s.resident {
            self.table.enter(&mut s.table, pi, slot, s.part.hash);
        }
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut Self::State,
        me: u32,
        bk: u64,
    ) -> Step {
        if s.resident {
            self.table.stage(mem, k, &mut s.table, me, bk)
        } else {
            self.part.stage(mem, k, &mut s.part, me, bk)
        }
    }

    fn resolve<M: MemoryModel>(&mut self, mem: &mut M, s: &mut Self::State) {
        if s.resident {
            self.table.resolve(mem, &mut s.table)
        } else {
            self.part.resolve(mem, &mut s.part)
        }
    }

    fn try_release(&mut self, p: usize) -> bool {
        self.part.try_release(p)
    }
}
