//! Chained-bucket hash table — the design the paper *rejects*.
//!
//! Footnote 3 of §3: "The structure in Figure 2 improves upon chained
//! bucket hashing, which uses a linked list of hash cells in a bucket. It
//! avoids the pointer chasing problem of linked lists." This module
//! implements the rejected design so the ablation harness can demonstrate
//! the claim: with a linked list, the address of node *i+1* lives inside
//! node *i*, so inter-node prefetching is impossible — a staged probe can
//! hide the bucket-head miss and the *first* node miss, but every further
//! node of a chain is a fully exposed dependent miss, no matter how large
//! `G` is.

use phj_memsim::MemoryModel;
use phj_storage::{KeySpan, Relation};

use crate::cost;
use crate::hash::Modulus;
use crate::join::{charge_code0, keys_equal, tuple_hash, JoinParams, Scan};
use crate::sink::JoinSink;
use crate::stage::{self, StageProgram, Step};
use crate::table::HashCell;

const NIL: u32 = u32::MAX;

/// One chain node: a hash cell plus the next pointer. 24 bytes.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct ChainNode {
    /// The cell (hash code + tuple pointer).
    pub cell: HashCell,
    next: u32,
    pad: u32,
}

/// Chained-bucket hash table: an array of list heads into a node arena.
///
/// Nodes are arena-allocated in insertion order, which is the *best case*
/// for a linked structure (a malloc-per-node layout would be worse); the
/// pointer-chasing penalty measured by the ablation is therefore a lower
/// bound.
pub struct ChainedTable {
    heads: Vec<u32>,
    /// `hash % heads.len()` without a division.
    modulus: Modulus,
    arena: Vec<ChainNode>,
    items: usize,
}

impl ChainedTable {
    /// A table with `num_buckets` buckets, reserving arena space.
    pub fn new(num_buckets: usize, expected_tuples: usize) -> Self {
        let arena = Vec::with_capacity(expected_tuples.max(16));
        ChainedTable {
            heads: vec![NIL; num_buckets],
            modulus: Modulus::new(num_buckets),
            arena,
            items: 0,
        }
    }

    /// Number of inserted cells.
    pub fn len(&self) -> usize {
        self.items
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Bucket number for a hash code.
    #[inline]
    pub fn bucket_of(&self, hash: u32) -> usize {
        self.modulus.of(hash)
    }

    /// Address of the head pointer of bucket `b`.
    #[inline]
    pub fn head_addr(&self, b: usize) -> usize {
        self.heads.as_ptr() as usize + b * 4
    }

    /// Address of node `idx`.
    #[inline]
    pub fn node_addr(&self, idx: u32) -> usize {
        self.arena.as_ptr() as usize + idx as usize * std::mem::size_of::<ChainNode>()
    }

    /// Prepend a cell to its bucket's chain (classic chained hashing).
    pub fn insert(&mut self, cell: HashCell) -> u32 {
        let b = self.bucket_of(cell.hash);
        debug_assert!(
            self.arena.len() < self.arena.capacity(),
            "chained arena reservation exceeded"
        );
        let idx = self.arena.len() as u32;
        self.arena.push(ChainNode { cell, next: self.heads[b], pad: 0 });
        self.heads[b] = idx;
        self.items += 1;
        idx
    }

    /// Head node index of bucket `b`, if any.
    #[inline]
    pub fn head(&self, b: usize) -> Option<u32> {
        let h = self.heads[b];
        (h != NIL).then_some(h)
    }

    /// Node at `idx`.
    #[inline]
    pub fn node(&self, idx: u32) -> &ChainNode {
        &self.arena[idx as usize]
    }

    /// Next node after `idx`, if any.
    #[inline]
    pub fn next(&self, idx: u32) -> Option<u32> {
        let n = self.arena[idx as usize].next;
        (n != NIL).then_some(n)
    }
}

/// Build a chained table over the build partition (baseline-style loop;
/// the ablation focuses on the probe side, where pointer chasing bites).
pub fn build_chained<M: MemoryModel>(
    mem: &mut M,
    params: &JoinParams,
    build: &Relation,
    num_buckets: usize,
) -> ChainedTable {
    let mut table = ChainedTable::new(num_buckets, build.num_tuples());
    let mut scan = Scan::new(build, false);
    while let Some((pi, slot)) = scan.next(mem) {
        charge_code0(mem, params.use_stored_hash);
        let hash = tuple_hash(build, pi, slot, params.use_stored_hash);
        let t = build.page(pi).tuple(slot);
        let b = table.bucket_of(hash);
        // Read the head, write the node, write the head.
        mem.visit(table.head_addr(b), 4);
        mem.busy(cost::HEADER_CHECK);
        let idx = table.insert(HashCell::new(hash, t.as_ptr() as usize, t.len() as u32));
        mem.write(table.node_addr(idx), std::mem::size_of::<ChainNode>());
        mem.write(table.head_addr(b), 4);
        mem.busy(cost::CELL_WRITE);
    }
    table
}

/// Probe a chained table under `params.scheme`'s schedule. The best a
/// staged scheme can do against a linked list: stage 0 prefetches head
/// pointers; stage 1 reads heads and prefetches the *first* node of each
/// chain; stage 2 must then walk the rest of each chain with **no
/// prefetching possible** — each `next` pointer is only known after the
/// previous node arrives (§3's pointer-chasing problem, made measurable).
pub fn probe_chained<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    table: &ChainedTable,
    build_rel: &Relation,
    probe_rel: &Relation,
    sink: &mut S,
) {
    let (build_key, probe_key) = (build_rel.schema().key_span(), probe_rel.schema().key_span());
    let mut prog = ChainProbe { params, table, build_key, probe_key, probe_rel, sink };
    stage::run(params.scheme.schedule(), mem, &mut prog, probe_rel, 0..probe_rel.num_pages());
}

/// The chained probe as a stage program (`k = 2`).
struct ChainProbe<'a, S> {
    params: &'a JoinParams,
    table: &'a ChainedTable,
    build_key: KeySpan,
    probe_key: KeySpan,
    probe_rel: &'a Relation,
    sink: &'a mut S,
}

#[derive(Default)]
struct ChainState {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    first: Option<u32>,
}

impl<S: JoinSink> StageProgram for ChainProbe<'_, S> {
    type State = ChainState;
    const K: usize = 2;

    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut ChainState,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        charge_code0(mem, self.params.use_stored_hash);
        mem.busy(bk);
        s.pi = pi;
        s.slot = slot;
        s.hash = tuple_hash(self.probe_rel, pi, slot, self.params.use_stored_hash);
        s.bucket = self.table.bucket_of(s.hash);
    }

    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut ChainState,
        _me: u32,
        bk: u64,
    ) -> Step {
        let table = self.table;
        match k {
            // Prefetch the head pointer.
            0 => mem.prefetch(table.head_addr(s.bucket), 4),
            // Read the head, prefetch the first node.
            1 => {
                mem.visit(table.head_addr(s.bucket), 4);
                mem.busy(cost::HEADER_CHECK + bk);
                s.first = table.head(s.bucket);
                if let Some(idx) = s.first {
                    mem.prefetch(table.node_addr(idx), std::mem::size_of::<ChainNode>());
                }
            }
            // Walk the chain — only the first node was hidden.
            _ => {
                mem.busy(bk);
                let pt = self.probe_rel.page(s.pi).tuple(s.slot);
                let mut cur = s.first;
                while let Some(idx) = cur {
                    mem.visit(table.node_addr(idx), std::mem::size_of::<ChainNode>());
                    mem.busy(cost::CELL_CHECK);
                    let node = table.node(idx);
                    if node.cell.hash == s.hash {
                        mem.visit(node.cell.tuple_addr(), node.cell.tuple_len());
                        mem.busy(cost::KEY_COMPARE);
                        // SAFETY: cells point into the build relation,
                        // borrowed for the duration of the probe.
                        let bt = unsafe { node.cell.tuple_bytes() };
                        if keys_equal(self.build_key, self.probe_key, bt, pt) {
                            self.sink.emit(mem, bt, pt);
                        }
                    }
                    cur = table.next(idx);
                }
                return Step::Done;
            }
        }
        Step::Next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinScheme;
    use crate::plan;
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_workload::JoinSpec;

    fn gen(n: usize) -> phj_workload::GeneratedJoin {
        JoinSpec {
            build_tuples: n,
            tuple_size: 24,
            matches_per_build: 2,
            pct_match: 100,
            seed: 8,
        }
        .generate()
    }

    fn params() -> JoinParams {
        JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true }
    }

    #[test]
    fn chained_probe_matches_cell_array_probe() {
        let g = gen(2000);
        let buckets = plan::hash_table_buckets(2000, 1);
        let mut mem = NativeModel;
        let table = build_chained(&mut mem, &params(), &g.build, buckets);
        assert_eq!(table.len(), 2000);
        let mut chained = CountSink::new();
        probe_chained(&mut mem, &params(), &table, &g.build, &g.probe, &mut chained);
        let mut grouped = CountSink::new();
        let group = JoinParams { scheme: JoinScheme::Group { g: 16 }, ..params() };
        probe_chained(&mut mem, &group, &table, &g.build, &g.probe, &mut grouped);
        let reference = crate::join::tests::reference(&g.build, &g.probe);
        assert_eq!(chained, reference);
        assert_eq!(grouped, reference);
    }

    #[test]
    fn chain_order_is_lifo() {
        let mut t = ChainedTable::new(1, 4);
        t.insert(HashCell::new(1, 0x100, 4));
        t.insert(HashCell::new(2, 0x200, 4));
        let head = t.head(0).unwrap();
        assert_eq!(t.node(head).cell.hash, 2, "last insert at head");
        let second = t.next(head).unwrap();
        assert_eq!(t.node(second).cell.hash, 1);
        assert!(t.next(second).is_none());
    }

    #[test]
    fn pointer_chasing_limits_group_prefetching() {
        // Long chains (load factor 8): the cell-array probe with group
        // prefetching must clearly beat the chained probe with group
        // prefetching, because only the chain *head* can be prefetched.
        let g = gen(20_000);
        let buckets = plan::hash_table_buckets(20_000 / 8, 1);
        let chained_cycles = {
            let mut mem = SimEngine::paper();
            let table = build_chained(&mut mem, &params(), &g.build, buckets);
            let start = mem.breakdown();
            let mut sink = CountSink::new();
            let group = JoinParams { scheme: JoinScheme::Group { g: 16 }, ..params() };
            probe_chained(&mut mem, &group, &table, &g.build, &g.probe, &mut sink);
            assert_eq!(sink.matches(), g.expected_matches);
            (mem.breakdown() - start).total()
        };
        let array_cycles = {
            let mut mem = SimEngine::paper();
            let jp = JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true };
            let mut table = crate::table::HashTable::new(buckets, 20_000);
            crate::join::dispatch_build(&mut mem, &jp, &mut table, &g.build);
            let start = mem.breakdown();
            let mut sink = CountSink::new();
            crate::join::dispatch_probe(&mut mem, &jp, &table, &g.build, &g.probe, &mut sink);
            assert_eq!(sink.matches(), g.expected_matches);
            (mem.breakdown() - start).total()
        };
        assert!(
            array_cycles * 3 < chained_cycles * 2,
            "cell arrays {array_cycles} vs chains {chained_cycles}"
        );
    }
}
