//! The I/O partition phase (§6 of the paper).
//!
//! "An input relation is divided into multiple output partitions by
//! hashing on the join keys. Typically an output buffer per partition and
//! an input buffer are allocated in main memory. [...] Every input tuple
//! is examined. Its partition number is computed from the join key. The
//! relevant columns of the input tuple are then extracted and copied to
//! the target output buffer."
//!
//! The loop is one stage program (`k = 1` dependent reference: the
//! output-buffer location), and each scheme of §6/§7.4 is one of
//! [`crate::stage`]'s schedules of it:
//!
//! * **baseline** — no prefetching;
//! * **simple** — prefetch each input page after its disk read; best when
//!   all output buffers fit in cache (≲ 100 partitions in Fig 14);
//! * **group / software-pipelined** — when the buffers outgrow the cache,
//!   every output-buffer visit misses; these exploit inter-tuple
//!   parallelism exactly like the join phase. Buffer-full events are the
//!   phase's read-write conflicts: group prefetching defers the tuple to
//!   the group boundary where the buffer is safely flushed; software
//!   pipelining parks it on the partition's waiting queue until in-flight
//!   copies drain;
//! * **combined** — picks simple vs group from the partition count and
//!   cache size ("we choose the prefetching algorithm based on the cache
//!   size and the number of partitions", §7.4).
//!
//! The partition phase computes each tuple's hash code once and **stashes
//! it in the output page's slot area** so the join phase can reuse it
//! (§7.1).

mod group;
pub(crate) mod program;
mod swp;

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::{tuple::key_bytes_of, Page, Relation, PAGE_SIZE};

use crate::cost;
use crate::hash::{hash_key, Modulus};
use crate::plan;
use crate::profile;
use crate::stage::{self, Schedule};

use program::Partition;

/// Which partition-phase algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// No prefetching.
    Baseline,
    /// Prefetch each input page after reading it.
    Simple,
    /// Group prefetching with group size `g`.
    Group {
        /// Group size `G`.
        g: usize,
    },
    /// Software-pipelined prefetching with prefetch distance `d`.
    Swp {
        /// Prefetch distance `D`.
        d: usize,
    },
    /// Simple when the output buffers fit in cache, a staged schedule
    /// otherwise.
    Combined {
        /// Schedule for the many-partitions regime: group in the paper's
        /// combined scheme.
        staged: Schedule,
        /// Use simple prefetching when `num_partitions` ≤ this. The
        /// default ([`PartitionScheme::combined_default`]) derives it
        /// from the 1 MB L2 ([`plan::CACHED_OUTPUT_BUFFERS`]).
        cache_pages: usize,
    },
}

impl PartitionScheme {
    /// The paper's combined scheme with the Table-2 cache geometry:
    /// simple up to [`plan::CACHED_OUTPUT_BUFFERS`] (64) partitions,
    /// group prefetching with `G = 12` beyond.
    pub fn combined_default() -> Self {
        PartitionScheme::combined(Schedule::Group { g: 12 })
    }

    /// The combined scheme with `staged` for the many-partitions regime.
    pub fn combined(staged: Schedule) -> Self {
        PartitionScheme::Combined { staged, cache_pages: plan::CACHED_OUTPUT_BUFFERS }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            PartitionScheme::Baseline => "baseline".into(),
            PartitionScheme::Simple => "simple".into(),
            PartitionScheme::Group { g } => format!("group(G={g})"),
            PartitionScheme::Swp { d } => format!("swp(D={d})"),
            PartitionScheme::Combined { staged, cache_pages } => {
                let knob = match staged {
                    Schedule::Group { g } => format!("G={g}"),
                    Schedule::Pipelined { d } => format!("D={d}"),
                    Schedule::Sequential { .. } => staged.partition_scheme().label(),
                };
                format!("combined({knob},≤{cache_pages}p→simple)")
            }
        }
    }

    /// The schedule this scheme runs the partition program under when
    /// splitting into `num_partitions` partitions.
    pub fn schedule(self, num_partitions: usize) -> Schedule {
        match self {
            PartitionScheme::Baseline => Schedule::Sequential { prefetch_input: false },
            PartitionScheme::Simple => Schedule::Sequential { prefetch_input: true },
            PartitionScheme::Group { g } => Schedule::Group { g },
            PartitionScheme::Swp { d } => Schedule::Pipelined { d },
            PartitionScheme::Combined { staged, cache_pages } => {
                if num_partitions <= cache_pages {
                    Schedule::Sequential { prefetch_input: true }
                } else {
                    staged
                }
            }
        }
    }
}

/// Divide `input` into `num_partitions` partitions by join-key hash.
/// Returns one relation per partition, with hash codes stashed in the
/// page slot areas.
///
/// ```
/// use phj::partition::{partition_relation, PartitionScheme};
/// use phj_memsim::NativeModel;
/// use phj_storage::{RelationBuilder, Schema};
///
/// let mut b = RelationBuilder::new(Schema::key_payload(16));
/// for k in 0u32..1000 {
///     let mut t = [0u8; 16];
///     t[..4].copy_from_slice(&k.to_le_bytes());
///     b.push(&t);
/// }
/// let input = b.finish();
/// let mut mem = NativeModel;
/// let parts = partition_relation(
///     &mut mem,
///     PartitionScheme::Group { g: 12 },
///     &input,
///     8,
///     false,
/// );
/// assert_eq!(parts.len(), 8);
/// assert_eq!(parts.iter().map(|p| p.num_tuples()).sum::<usize>(), 1000);
/// ```
pub fn partition_relation<M: MemoryModel>(
    mem: &mut M,
    scheme: PartitionScheme,
    input: &Relation,
    num_partitions: usize,
    use_stored_hash: bool,
) -> Vec<Relation> {
    let pages = 0..input.num_pages();
    partition_page_range(mem, scheme, input, pages, num_partitions, use_stored_hash, None)
}

/// Partition only the pages in `pages` — the morsel a parallel partition
/// phase hands to one worker. Each worker runs this on its own page
/// ranges into private buffers; concatenating the per-worker outputs per
/// partition (in any order) reproduces a sequential partitioning's tuple
/// multiset, because tuple placement depends only on the hash. With a
/// span recorder, the pass becomes one `"partition"` span annotated with
/// the scheme, fan-out, and tuple count.
pub fn partition_page_range<M: MemoryModel>(
    mem: &mut M,
    scheme: PartitionScheme,
    input: &Relation,
    pages: std::ops::Range<usize>,
    num_partitions: usize,
    use_stored_hash: bool,
    mut rec: Option<&mut Recorder>,
) -> Vec<Relation> {
    assert!(num_partitions > 0);
    let pages = pages.start.min(input.num_pages())..pages.end.min(input.num_pages());
    let expect: usize = pages
        .clone()
        .map(|pi| input.page(pi).nslots() as usize)
        .sum();
    let span = obs::span_begin(&mut rec, mem, "partition");
    obs::span_meta(&mut rec, "scheme", scheme.label());
    obs::span_meta(&mut rec, "partitions", num_partitions);
    obs::span_meta(&mut rec, "tuples", expect);
    let mut out = OutputBuffers::new(input, num_partitions);
    profile::register_relation(mem, RegionKind::SlottedPages, input);
    out.register_regions(mem);
    out.feed(mem, scheme, input, pages, use_stored_hash);
    debug_assert_eq!(out.tuples() as usize, expect, "tuples lost");
    let parts = out.finish();
    obs::span_end(&mut rec, mem, span);
    profile::clear_partition_regions(mem);
    parts
}

/// Where a partition pass's sealed output-buffer pages go: one
/// [`Relation`] per partition in memory; kept, probed or spilled by
/// residency in the disk join.
pub trait PartitionStore {
    /// Take partition `p`'s sealed `page`: full mid-pass, or partly
    /// filled at the pass's final flush (`last`). The store copies the
    /// page or takes it (leaving a fresh one); the buffer is then reset.
    fn seal(&mut self, p: usize, page: &mut Page, last: bool);
}

/// The in-memory store: each sealed page is copied onto its partition's
/// relation (our stand-in for the disk, uncharged like a DMA write) and
/// the buffer is reused in place — its cache lines stay where they are,
/// which is why few-partition runs keep their buffers cache-resident
/// (Fig 14's left region). The copy goes into a [`phj_storage::Frame`]
/// off the process-wide free list, so once an earlier join has dropped
/// its pages the flush faults in no fresh memory.
impl PartitionStore for Vec<Relation> {
    fn seal(&mut self, p: usize, page: &mut Page, _last: bool) {
        self[p].push_page(page.clone());
    }
}

/// Read or recompute a tuple's partition-phase hash code.
#[inline]
pub(crate) fn phase_hash(input: &Relation, pi: usize, slot: u16, use_stored: bool) -> u32 {
    if use_stored {
        input.page(pi).hash_code(slot)
    } else {
        hash_key(key_bytes_of(input.schema(), input.page(pi).tuple(slot)))
    }
}

/// The per-partition output buffers of one pass, sealing pages into a
/// [`PartitionStore`]; input fed in chunks fills pages as one relation
/// would. Inside is the reservation protocol the staged schemes need:
/// stage 0 *reserves* an insertion position (so its exact addresses can
/// be prefetched) and stage 1 *commits* the copy, in the same
/// per-partition order, so a reservation's addresses are exact.
pub struct OutputBuffers<S> {
    parts: Vec<PartBuf>,
    /// `hash % parts.len()` without a division.
    modulus: Modulus,
    store: S,
    tuples: u64,
}

struct PartBuf {
    page: Page,
    /// Slots handed out including uncommitted reservations.
    reserved_slots: u16,
    /// Data cursor including uncommitted reservations.
    reserved_data: u16,
    /// Reservations not yet committed.
    pending: u32,
}

impl PartBuf {
    fn fresh() -> Self {
        PartBuf {
            page: Page::new(),
            reserved_slots: 0,
            reserved_data: PAGE_SIZE as u16,
            pending: 0,
        }
    }
}

impl OutputBuffers<Vec<Relation>> {
    /// Buffers writing into one in-memory relation per partition.
    pub(crate) fn new(input: &Relation, num_partitions: usize) -> Self {
        let parts = (0..num_partitions).map(|_| Relation::new(input.schema().clone()));
        OutputBuffers::with_store(parts.collect(), num_partitions)
    }
}

impl<S: PartitionStore> OutputBuffers<S> {
    /// One buffer page for each of `num_partitions` partitions.
    pub fn with_store(store: S, num_partitions: usize) -> Self {
        OutputBuffers {
            parts: (0..num_partitions).map(|_| PartBuf::fresh()).collect(),
            modulus: Modulus::new(num_partitions),
            store,
            tuples: 0,
        }
    }

    /// Run the partition program under `scheme` over `input`'s pages in
    /// `pages`, reading stashed hash codes when `use_stored_hash`.
    pub fn feed<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        scheme: PartitionScheme,
        input: &Relation,
        pages: std::ops::Range<usize>,
        use_stored_hash: bool,
    ) {
        let schedule = scheme.schedule(self.num_partitions());
        stage::run(schedule, mem, &mut Partition::new(input, self, use_stored_hash), input, pages);
    }

    /// The store, between calls to [`OutputBuffers::feed`].
    pub fn store(&mut self) -> &mut S {
        &mut self.store
    }

    pub(crate) fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Partition number of a hash code: the hash code modulo the fan-out.
    #[inline]
    pub(crate) fn partition_of(&self, hash: u32) -> usize {
        self.modulus.of(hash)
    }

    /// Tag every partition's output-buffer page for region attribution
    /// (no-op unless `mem` profiles). The buffer pages are reused in
    /// place across flushes, so one registration covers the whole pass.
    pub(crate) fn register_regions<M: MemoryModel>(&self, mem: &mut M) {
        if !profile::profiling(mem) {
            return;
        }
        for pb in &self.parts {
            mem.region_register(RegionKind::PartitionBuffers, pb.page.base_addr(), PAGE_SIZE);
        }
    }

    /// Straight append: flush if full, then copy. Charges the output-side
    /// memory writes and copy cost. The conflict-resolution path of the
    /// prefetching schedules (no prefetching there: the buffer page is
    /// either fresh or warm).
    pub(crate) fn append_direct<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        p: usize,
        tuple: &[u8],
        hash: u32,
    ) {
        let pb = &mut self.parts[p];
        debug_assert_eq!(pb.pending, 0, "direct append with reservations in flight");
        if !pb.page.fits(tuple.len()) {
            Self::flush_buf(&mut self.store, p, pb, false);
        }
        let (data_addr, slot_addr) = pb.page.next_insert_addrs(tuple.len());
        mem.write(data_addr, tuple.len());
        mem.write(slot_addr, 8);
        mem.busy(cost::copy_cost(tuple.len()));
        pb.page.insert(tuple, hash).expect("fits after flush");
        pb.reserved_slots = pb.page.nslots();
        pb.reserved_data = (data_addr - pb.page.base_addr()) as u16;
        self.tuples += 1;
    }

    /// Stage-0 reservation: returns the exact `(data_addr, slot_addr)` the
    /// commit will write, or `None` when the buffer page is full.
    pub(crate) fn try_reserve(&mut self, p: usize, len: usize) -> Option<(usize, usize)> {
        let pb = &mut self.parts[p];
        let free = pb.reserved_data as usize
            - (phj_storage::PAGE_HEADER_BYTES + 8 * pb.reserved_slots as usize);
        if free < len + 8 {
            return None;
        }
        pb.reserved_data -= len as u16;
        let data_addr = pb.page.base_addr() + pb.reserved_data as usize;
        let slot_addr = pb.page.slot_addr(pb.reserved_slots);
        pb.reserved_slots += 1;
        pb.pending += 1;
        Some((data_addr, slot_addr))
    }

    /// Stage-1 commit of a reservation made by [`Self::try_reserve`].
    /// Commits must arrive in reservation order per partition (the staged
    /// loops guarantee this). Charges the writes and the copy.
    pub(crate) fn commit<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        p: usize,
        tuple: &[u8],
        hash: u32,
        reserved: (usize, usize),
    ) {
        let pb = &mut self.parts[p];
        debug_assert!(pb.pending > 0, "commit without reservation");
        mem.write(reserved.0, tuple.len());
        mem.write(reserved.1, 8);
        mem.busy(cost::copy_cost(tuple.len()));
        let slot = pb.page.insert(tuple, hash).expect("reservation guaranteed space");
        debug_assert_eq!(pb.page.tuple_addr(slot), reserved.0, "commit out of order");
        debug_assert_eq!(pb.page.slot_addr(slot), reserved.1);
        pb.pending -= 1;
        self.tuples += 1;
    }

    /// Number of uncommitted reservations on partition `p`.
    pub(crate) fn pending(&self, p: usize) -> u32 {
        self.parts[p].pending
    }

    /// Flush partition `p`'s buffer page (requires no pending
    /// reservations: the staged schemes only flush at safe points — that
    /// is exactly the read-write-conflict discipline of §6).
    pub(crate) fn flush(&mut self, p: usize) {
        let pb = &mut self.parts[p];
        assert_eq!(pb.pending, 0, "flush with in-flight copies (conflict bug)");
        Self::flush_buf(&mut self.store, p, pb, false);
    }

    /// "Write out" partition `p`'s buffer page through the store, then
    /// reset the buffer for reuse.
    fn flush_buf(store: &mut S, p: usize, pb: &mut PartBuf, last: bool) {
        if pb.page.nslots() > 0 {
            store.seal(p, &mut pb.page, last);
            pb.page.reset();
        }
        pb.reserved_slots = 0;
        pb.reserved_data = PAGE_SIZE as u16;
    }

    /// Total tuples written so far.
    #[allow(dead_code)] // used in debug assertions and tests
    pub(crate) fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Flush every partly filled buffer and return the store.
    pub fn finish(mut self) -> S {
        for (p, pb) in self.parts.iter_mut().enumerate() {
            assert_eq!(pb.pending, 0, "finish with in-flight copies");
            Self::flush_buf(&mut self.store, p, pb, true);
        }
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::partition_of;
    use phj_memsim::NativeModel;
    use phj_storage::{RelationBuilder, Schema};

    pub(crate) fn input_rel(n: usize, size: usize) -> Relation {
        let schema = Schema::key_payload(size);
        let mut b = RelationBuilder::new(schema);
        let mut t = vec![0u8; size];
        for i in 0..n {
            t[..4].copy_from_slice(&(i as u32).to_le_bytes());
            b.push(&t);
        }
        b.finish()
    }

    /// Each partition's tuples in input order, placed directly by
    /// `partition_of(hash_key(key))`: the expected value of every scheme
    /// test, sharing no code with the kernels.
    pub(crate) fn reference(input: &Relation, num_partitions: usize) -> Vec<Vec<Vec<u8>>> {
        let mut parts = vec![Vec::new(); num_partitions];
        for (_, t, _) in input.iter() {
            let p = partition_of(hash_key(key_bytes_of(input.schema(), t)), num_partitions);
            parts[p].push(t.to_vec());
        }
        parts
    }

    /// [`reference`] with each partition sorted, for the prefetching
    /// schemes, whose conflicts reorder tuples within a partition.
    pub(crate) fn reference_multisets(input: &Relation, n: usize) -> Vec<Vec<Vec<u8>>> {
        let mut parts = reference(input, n);
        parts.iter_mut().for_each(|p| p.sort());
        parts
    }

    fn check_partitioning(input: &Relation, parts: &[Relation]) {
        // Every tuple lands in the partition its hash prescribes, with the
        // hash stashed; the multiset of tuples is preserved.
        let total: usize = parts.iter().map(|r| r.num_tuples()).sum();
        assert_eq!(total, input.num_tuples());
        for (p, rel) in parts.iter().enumerate() {
            for (_, t, h) in rel.iter() {
                let expect = hash_key(key_bytes_of(input.schema(), t));
                assert_eq!(h, expect, "stashed hash");
                assert_eq!(partition_of(h, parts.len()), p, "placement");
            }
        }
        let mut a = input.to_tuple_vec();
        let mut b: Vec<Vec<u8>> =
            parts.iter().flat_map(|r| r.to_tuple_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "tuple multiset preserved");
    }

    #[test]
    fn baseline_partitions_correctly() {
        let input = input_rel(5000, 100);
        let mut mem = NativeModel;
        let parts = partition_relation(&mut mem, PartitionScheme::Baseline, &input, 13, false);
        assert_eq!(parts.len(), 13);
        check_partitioning(&input, &parts);
    }

    #[test]
    fn simple_matches_baseline() {
        let input = input_rel(3000, 64);
        let mut mem = NativeModel;
        let a = partition_relation(&mut mem, PartitionScheme::Baseline, &input, 7, false);
        let b = partition_relation(&mut mem, PartitionScheme::Simple, &input, 7, false);
        let want = reference(&input, 7);
        for ((x, y), w) in a.iter().zip(&b).zip(&want) {
            assert_eq!(&x.to_tuple_vec(), w);
            assert_eq!(&y.to_tuple_vec(), w);
        }
    }

    #[test]
    fn combined_picks_by_partition_count() {
        let input = input_rel(2000, 100);
        let mut mem = NativeModel;
        let scheme = PartitionScheme::combined_default();
        for nparts in [3, 300] {
            let parts = partition_relation(&mut mem, scheme, &input, nparts, false);
            check_partitioning(&input, &parts);
        }
    }

    #[test]
    fn single_partition_degenerate() {
        let input = input_rel(100, 100);
        let mut mem = NativeModel;
        let parts = partition_relation(&mut mem, PartitionScheme::Baseline, &input, 1, false);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].num_tuples(), 100);
    }

    #[test]
    fn reservation_protocol_addresses_are_exact() {
        let input = input_rel(1, 40);
        let mut out = OutputBuffers::new(&input, 2);
        let mut mem = NativeModel;
        let r1 = out.try_reserve(0, 40).unwrap();
        let r2 = out.try_reserve(0, 40).unwrap();
        assert_eq!(r1.0 - 40, r2.0, "data grows downward");
        assert_eq!(r2.1 - 8, r1.1, "slots grow upward");
        let t = vec![9u8; 40];
        out.commit(&mut mem, 0, &t, 1, r1);
        out.commit(&mut mem, 0, &t, 2, r2);
        assert_eq!(out.pending(0), 0);
        assert_eq!(out.tuples(), 2);
        let rels = out.finish();
        assert_eq!(rels[0].num_tuples(), 2);
        assert_eq!(rels[1].num_tuples(), 0);
    }

    #[test]
    fn reservation_fails_when_page_reserved_full() {
        let input = input_rel(1, 2000);
        let mut out = OutputBuffers::new(&input, 1);
        let mut n = 0;
        while out.try_reserve(0, 2000).is_some() {
            n += 1;
        }
        // 8184 / 2008 = 4 reservations per 8 KB page.
        assert_eq!(n, 4);
    }

    #[test]
    #[should_panic(expected = "flush with in-flight")]
    fn flush_with_pending_panics() {
        let input = input_rel(1, 16);
        let mut out = OutputBuffers::new(&input, 1);
        out.try_reserve(0, 16).unwrap();
        out.flush(0);
    }
}
