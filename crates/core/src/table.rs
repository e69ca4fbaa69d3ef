//! The in-memory hash table (Figure 2 of the paper).
//!
//! "It consists of an array of hash buckets, each composed of a header and
//! (possibly) an array of hash cells pointed to by the header. A hash cell
//! represents a build tuple hashed to the bucket. It contains the tuple
//! pointer and a fixed-length (e.g., 4-byte) hash code computed from the
//! join key, which serves as a filter for the actual key comparisons. A
//! single hash cell is put into the bucket header. When more tuples are
//! hashed to the bucket, a hash cell array is allocated, the size of which
//! can be dynamically increased." (§3)
//!
//! Faithful to the paper, a [`HashCell`] stores a **direct pointer** to
//! the build tuple (address + length), not a page/slot reference: the
//! whole point of the staged probe is that once the cell is read, the
//! build tuple's address is known and can be prefetched without any
//! further dependent reference. The pointer is valid while the build
//! partition it was created from is alive and unmoved (its pages are
//! individually boxed); [`HashTable`] is only ever used inside one
//! build+probe over a borrowed `&Relation`, which guarantees that.
//!
//! The structure deliberately avoids chained bucket hashing: cell *arrays*
//! rather than linked lists sidestep the pointer-chasing problem (§3,
//! footnote 3). Overflow arrays live in a bump [`CellArena`] whose backing
//! storage is pre-reserved so cell addresses stay stable for the duration
//! of a build+probe (the memory model keys its cache simulation off those
//! addresses).
//!
//! The `busy` word in each header supports the read-write-conflict
//! protocols of the prefetching build loops (§4.4 busy flag + delayed
//! tuples; §5.3 waiting queues). The baseline build never leaves it set.

use crate::hash::Modulus;

/// Sentinel for "no overflow array".
pub const NO_ARRAY: u32 = u32::MAX;

/// Sentinel for "bucket not busy".
pub const NOT_BUSY: u32 = 0;

/// One hash cell: the 4-byte hash-code filter plus the tuple pointer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct HashCell {
    /// Hash code of the build tuple's join key.
    pub hash: u32,
    /// Byte length of the build tuple.
    pub len: u32,
    /// Virtual address of the build tuple's bytes.
    pub addr: u64,
}

impl HashCell {
    /// Construct a cell pointing at a tuple of `len` bytes at `addr`.
    #[inline]
    pub fn new(hash: u32, addr: usize, len: u32) -> Self {
        HashCell { hash, len, addr: addr as u64 }
    }

    /// Tuple address (prefetch/visit hook).
    #[inline]
    pub fn tuple_addr(&self) -> usize {
        self.addr as usize
    }

    /// Tuple length in bytes.
    #[inline]
    pub fn tuple_len(&self) -> usize {
        self.len as usize
    }

    /// The tuple bytes behind the stored pointer.
    ///
    /// # Safety
    /// The relation whose tuple this cell was built from must still be
    /// alive and unmoved. All uses inside this crate are within a single
    /// `join_pair` over a borrowed build relation, which guarantees it.
    #[inline]
    pub(crate) unsafe fn tuple_bytes<'a>(&self) -> &'a [u8] {
        std::slice::from_raw_parts(self.addr as *const u8, self.len as usize)
    }
}

const EMPTY_CELL: HashCell = HashCell { hash: 0, len: 0, addr: 0 };

/// One bucket header: an inline first cell plus overflow-array metadata.
/// 32 bytes → two headers per cache line, as in a careful C layout.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct BucketHeader {
    /// The first cell of the bucket (valid when `count > 0`).
    pub inline_cell: HashCell,
    /// Number of cells in the bucket (inline + overflow).
    pub count: u32,
    /// Conflict word: [`NOT_BUSY`], or `1 + owner` where `owner` is the
    /// group slot / pipeline state index of the in-flight inserter.
    pub busy: u32,
    /// Arena offset of the overflow array (cells `1..count`), or
    /// [`NO_ARRAY`].
    pub array: u32,
    /// Capacity of the overflow array, in cells.
    pub cap: u32,
}

const EMPTY_HEADER: BucketHeader = BucketHeader {
    inline_cell: EMPTY_CELL,
    count: 0,
    busy: NOT_BUSY,
    array: NO_ARRAY,
    cap: 0,
};

/// Bump arena for overflow cell arrays.
///
/// Growth allocates a doubled block and copies; the abandoned block is
/// wasted until the table is dropped (bounded: total waste < 3× live
/// cells). The backing `Vec` is reserved up front so it never reallocates
/// (stable addresses for the memory model); exceeding the reservation is a
/// planner bug and panics in debug builds.
pub struct CellArena {
    cells: Vec<HashCell>,
}

impl CellArena {
    fn with_capacity(cells: usize) -> Self {
        CellArena { cells: Vec::with_capacity(cells) }
    }

    /// Allocate a block of `n` cells, returning its offset.
    #[inline]
    fn alloc(&mut self, n: usize) -> u32 {
        let off = self.cells.len();
        debug_assert!(
            off + n <= self.cells.capacity(),
            "cell arena reservation exceeded (planner bug)"
        );
        self.cells.resize(off + n, EMPTY_CELL);
        off as u32
    }

    /// Address of cell `idx` (memory-model hook).
    #[inline]
    pub fn cell_addr(&self, idx: u32) -> usize {
        self.cells.as_ptr() as usize + (idx as usize) * std::mem::size_of::<HashCell>()
    }

    /// Borrow `n` cells starting at `off`.
    #[inline]
    pub fn slice(&self, off: u32, n: usize) -> &[HashCell] {
        &self.cells[off as usize..off as usize + n]
    }

    /// Mutably borrow one cell.
    #[inline]
    fn cell_mut(&mut self, idx: u32) -> &mut HashCell {
        &mut self.cells[idx as usize]
    }

    /// Live + abandoned cells allocated so far.
    pub fn allocated(&self) -> usize {
        self.cells.len()
    }
}

/// Outcome of examining a bucket header for an insert (stage 1 of the
/// build loops): either the insert completed inline, or the caller must
/// write the given overflow cell (whose address it can prefetch), or the
/// bucket is busy with a conflicting in-flight insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertStep {
    /// The cell went into the header inline; insert complete.
    DoneInline,
    /// Write the cell at this arena index, then call
    /// [`HashTable::finish_overflow_insert`].
    WriteCell(u32),
    /// The bucket's busy word names another in-flight inserter (the
    /// `owner` passed to its `begin_insert`).
    Busy(u32),
}

/// The Figure-2 hash table.
pub struct HashTable {
    buckets: Vec<BucketHeader>,
    /// `hash % buckets.len()` without a division.
    modulus: Modulus,
    arena: CellArena,
    items: usize,
    /// Initial overflow-array capacity (doubles on growth).
    initial_cap: u32,
}

impl HashTable {
    /// A table with `num_buckets` buckets, reserving arena space for about
    /// `expected_tuples` build tuples.
    pub fn new(num_buckets: usize, expected_tuples: usize) -> Self {
        assert!(num_buckets > 0);
        // Worst-case arena usage: every overflow array wastes < 2× its
        // final size in abandoned doublings, plus the live cells.
        let reserve = expected_tuples.saturating_mul(4).max(64);
        HashTable {
            buckets: vec![EMPTY_HEADER; num_buckets],
            modulus: Modulus::new(num_buckets),
            arena: CellArena::with_capacity(reserve),
            items: 0,
            initial_cap: 2,
        }
    }

    /// Number of buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of inserted cells.
    #[inline]
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

    /// Address of bucket `b`'s header (prefetch hook).
    #[inline]
    pub fn header_addr(&self, b: usize) -> usize {
        self.buckets.as_ptr() as usize + b * std::mem::size_of::<BucketHeader>()
    }

    /// Size of a bucket header in bytes.
    #[inline]
    pub fn header_len() -> usize {
        std::mem::size_of::<BucketHeader>()
    }

    /// Borrow bucket `b`'s header.
    #[inline]
    pub fn header(&self, b: usize) -> &BucketHeader {
        &self.buckets[b]
    }

    /// The overflow-array address and byte length of bucket `b`
    /// (prefetch hook). Returns `None` when the bucket has no overflow
    /// cells yet.
    #[inline]
    pub fn array_span(&self, b: usize) -> Option<(usize, usize)> {
        let h = &self.buckets[b];
        if h.array == NO_ARRAY || h.count <= 1 {
            return None;
        }
        let n = (h.count - 1) as usize;
        Some((self.arena.cell_addr(h.array), n * std::mem::size_of::<HashCell>()))
    }

    /// The overflow cells of bucket `b` (cells `1..count`).
    #[inline]
    pub fn overflow_cells(&self, b: usize) -> &[HashCell] {
        let h = &self.buckets[b];
        if h.array == NO_ARRAY || h.count <= 1 {
            &[]
        } else {
            self.arena.slice(h.array, (h.count - 1) as usize)
        }
    }

    /// The arena (for staged algorithms prefetching cell addresses).
    #[inline]
    pub fn arena(&self) -> &CellArena {
        &self.arena
    }

    /// Address and byte length of the whole bucket-header array (region
    /// tagging for miss attribution).
    #[inline]
    pub fn headers_span(&self) -> (usize, usize) {
        (
            self.buckets.as_ptr() as usize,
            self.buckets.len() * std::mem::size_of::<BucketHeader>(),
        )
    }

    /// Address and byte length of the arena's *reserved* cell storage
    /// (region tagging). Covers the full reservation rather than the cells
    /// allocated so far, so overflow arrays allocated later still fall in
    /// the tagged range (the backing `Vec` never reallocates).
    #[inline]
    pub fn arena_span(&self) -> (usize, usize) {
        (
            self.arena.cells.as_ptr() as usize,
            self.arena.cells.capacity() * std::mem::size_of::<HashCell>(),
        )
    }

    /// Stage-1 of an insert: examine the header and either complete an
    /// inline insert, reserve the overflow slot to write, or report the
    /// bucket busy.
    ///
    /// On `WriteCell(idx)`, the header's busy word is set to `1 + owner`
    /// and `count` is *not* yet incremented; the caller writes the cell
    /// (possibly a stage later, after prefetching `cell_addr(idx)`) and
    /// then calls [`Self::finish_overflow_insert`]. Growth of the overflow
    /// array happens here (it must: the slot address is the prefetch
    /// target). Growth copy bytes are reported via `grown` so the caller
    /// can charge the memcpy.
    pub fn begin_insert(
        &mut self,
        b: usize,
        cell: HashCell,
        owner: u32,
        grown: &mut usize,
    ) -> InsertStep {
        let hdr = self.buckets[b];
        if hdr.busy != NOT_BUSY {
            return InsertStep::Busy(hdr.busy - 1);
        }
        if hdr.count == 0 {
            let h = &mut self.buckets[b];
            h.inline_cell = cell;
            h.count = 1;
            self.items += 1;
            return InsertStep::DoneInline;
        }
        let over = (hdr.count - 1) as usize; // overflow cells present
        let (mut array, mut cap) = (hdr.array, hdr.cap);
        if array == NO_ARRAY {
            cap = self.initial_cap;
            array = self.arena.alloc(cap as usize);
        } else if over as u32 == cap {
            // Double, copying the old cells.
            let new_cap = cap * 2;
            let new = self.arena.alloc(new_cap as usize);
            for i in 0..cap {
                let c = *self.arena.slice(array + i, 1).first().unwrap();
                *self.arena.cell_mut(new + i) = c;
            }
            *grown += (cap as usize) * std::mem::size_of::<HashCell>();
            array = new;
            cap = new_cap;
        }
        let h = &mut self.buckets[b];
        h.busy = owner + 1;
        h.array = array;
        h.cap = cap;
        InsertStep::WriteCell(array + over as u32)
    }

    /// Stage-2 of an overflow insert: write the reserved cell, bump the
    /// count, and release the busy word.
    pub fn finish_overflow_insert(&mut self, b: usize, idx: u32, cell: HashCell) {
        *self.arena.cell_mut(idx) = cell;
        let h = &mut self.buckets[b];
        debug_assert_ne!(h.busy, NOT_BUSY, "finish without begin");
        debug_assert_eq!(h.array + (h.count - 1), idx, "out-of-order overflow write");
        h.count += 1;
        h.busy = NOT_BUSY;
        self.items += 1;
    }

    /// Straight-line insert without memory accounting (the build program
    /// charges its accesses itself). Returns bytes copied by any array
    /// growth so the caller can charge the memcpy.
    pub fn insert(&mut self, cell: HashCell) -> usize {
        let b = self.bucket_of(cell.hash);
        let mut grown = 0usize;
        match self.begin_insert(b, cell, 0, &mut grown) {
            InsertStep::DoneInline => {}
            InsertStep::WriteCell(idx) => self.finish_overflow_insert(b, idx, cell),
            InsertStep::Busy(_) => unreachable!("straight-line insert saw busy bucket"),
        }
        grown
    }

    /// Iterate the cells whose hash codes match, in bucket order
    /// (reference lookup used by tests and the cache-partitioned join;
    /// the staged probes do this work in stages).
    pub fn lookup(&self, hash: u32) -> impl Iterator<Item = &HashCell> + '_ {
        let b = self.bucket_of(hash);
        let h = &self.buckets[b];
        let inline =
            (h.count > 0 && h.inline_cell.hash == hash).then_some(&h.inline_cell);
        inline
            .into_iter()
            .chain(self.overflow_cells(b).iter().filter(move |c| c.hash == hash))
    }

    /// Diagnostic: distribution of bucket sizes `(size → bucket count)`.
    pub fn bucket_histogram(&self) -> std::collections::BTreeMap<u32, usize> {
        let mut m = std::collections::BTreeMap::new();
        for h in &self.buckets {
            *m.entry(h.count).or_insert(0) += 1;
        }
        m
    }

    /// Assert every busy word is released (end-of-build invariant for the
    /// conflict protocols).
    pub fn assert_quiescent(&self) {
        for (b, h) in self.buckets.iter().enumerate() {
            assert_eq!(h.busy, NOT_BUSY, "bucket {b} left busy");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(hash: u32, i: usize) -> HashCell {
        HashCell::new(hash, 0x1000 + i * 100, 10)
    }

    #[test]
    fn header_is_32_bytes() {
        assert_eq!(std::mem::size_of::<BucketHeader>(), 32);
        assert_eq!(std::mem::size_of::<HashCell>(), 16);
    }

    #[test]
    fn inline_then_overflow() {
        let mut t = HashTable::new(1, 16);
        t.insert(cell(7, 0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.header(0).count, 1);
        assert_eq!(t.header(0).array, NO_ARRAY);
        t.insert(cell(7, 1));
        t.insert(cell(9, 2));
        assert_eq!(t.len(), 3);
        assert_eq!(t.header(0).count, 3);
        assert_ne!(t.header(0).array, NO_ARRAY);
        let found: Vec<_> = t.lookup(7).map(|c| c.tuple_addr()).collect();
        assert_eq!(found, vec![0x1000, 0x1000 + 100]);
        let found9: Vec<_> = t.lookup(9).map(|c| c.tuple_addr()).collect();
        assert_eq!(found9, vec![0x1000 + 200]);
        assert!(t.lookup(8).next().is_none());
    }

    #[test]
    fn overflow_array_growth_preserves_cells() {
        let mut t = HashTable::new(1, 64);
        for i in 0..20usize {
            t.insert(cell(i as u32, i));
        }
        assert_eq!(t.len(), 20);
        for i in 0..20usize {
            let found: Vec<_> = t.lookup(i as u32).map(|c| c.tuple_addr()).collect();
            assert_eq!(found, vec![0x1000 + i * 100], "hash {i}");
        }
        // Growth doublings: 2→4→8→16→32 for 19 overflow cells.
        assert!(t.header(0).cap >= 19);
    }

    #[test]
    fn growth_reports_copied_bytes() {
        let mut t = HashTable::new(1, 64);
        t.insert(cell(1, 0)); // inline
        assert_eq!(t.insert(cell(2, 1)), 0); // allocates cap-2 array
        assert_eq!(t.insert(cell(3, 2)), 0); // fits
        let copied = t.insert(cell(4, 3)); // grows 2→4, copies 2 cells
        assert_eq!(copied, 2 * std::mem::size_of::<HashCell>());
    }

    #[test]
    fn staged_insert_protocol() {
        let mut t = HashTable::new(1, 16);
        let mut grown = 0;
        // First insert: inline, completes in stage 1.
        assert_eq!(
            t.begin_insert(0, cell(5, 0), 3, &mut grown),
            InsertStep::DoneInline
        );
        assert_eq!(t.header(0).busy, NOT_BUSY);
        // Second insert: must write an overflow cell; bucket becomes busy.
        let step = t.begin_insert(0, cell(6, 1), 3, &mut grown);
        let idx = match step {
            InsertStep::WriteCell(i) => i,
            other => panic!("expected WriteCell, got {other:?}"),
        };
        assert_eq!(t.header(0).busy, 4);
        // A conflicting insert sees Busy(owner).
        assert_eq!(t.begin_insert(0, cell(7, 2), 9, &mut grown), InsertStep::Busy(3));
        // Finish releases the bucket.
        t.finish_overflow_insert(0, idx, cell(6, 1));
        assert_eq!(t.header(0).busy, NOT_BUSY);
        assert_eq!(t.header(0).count, 2);
        assert_eq!(t.lookup(6).count(), 1);
        t.assert_quiescent();
    }

    #[test]
    fn lookup_filters_by_hash_code() {
        let mut t = HashTable::new(4, 16);
        // Hashes 1 and 5 share bucket 1 (mod 4) but differ in code.
        t.insert(cell(1, 0));
        t.insert(cell(5, 1));
        assert_eq!(t.lookup(1).map(|c| c.tuple_addr()).collect::<Vec<_>>(), vec![0x1000]);
        assert_eq!(
            t.lookup(5).map(|c| c.tuple_addr()).collect::<Vec<_>>(),
            vec![0x1000 + 100]
        );
    }

    #[test]
    fn cell_bytes_roundtrip() {
        // The pointer stored in a cell really reads the original tuple.
        let data = [42u8; 24];
        let c = HashCell::new(9, data.as_ptr() as usize, data.len() as u32);
        let bytes = unsafe { c.tuple_bytes() };
        assert_eq!(bytes, &data[..]);
    }

    #[test]
    fn addresses_are_real() {
        let mut t = HashTable::new(8, 16);
        t.insert(cell(0, 0));
        let b = t.bucket_of(0);
        assert_eq!(t.header_addr(b), t.header(b) as *const _ as usize);
        t.insert(cell(0, 1));
        t.insert(cell(0, 2));
        let (addr, len) = t.array_span(b).unwrap();
        assert_eq!(len, 2 * 16);
        assert_eq!(addr, t.overflow_cells(b).as_ptr() as usize);
    }

    #[test]
    fn histogram_counts() {
        let mut t = HashTable::new(4, 16);
        t.insert(cell(0, 0));
        t.insert(cell(4, 1)); // bucket 0 again
        t.insert(cell(1, 2));
        let h = t.bucket_histogram();
        assert_eq!(h[&0], 2);
        assert_eq!(h[&1], 1);
        assert_eq!(h[&2], 1);
    }
}
