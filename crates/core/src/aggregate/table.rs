//! The aggregation hash table: Figure-2 structure with group entries.
//!
//! Same bucket anatomy as the join's [`crate::table::HashTable`] — an
//! inline first entry in the header, overflow entries in a growable
//! arena-backed array — but the cells are **group entries** carrying the
//! grouping key (inline, ≤ 8 bytes) and the running COUNT/SUM
//! accumulators, and the insert protocol is an **upsert**: stage 1 only
//! examines the header (and guarantees capacity so stage 2's addresses
//! are prefetchable); the match-or-append resolution happens in stage 2
//! when the entry array is actually visited.

use crate::hash::Modulus;

/// Maximum inline group-key length in bytes.
pub const MAX_KEY: usize = 8;

/// Sentinel for "no overflow array".
const NO_ARRAY: u32 = u32::MAX;
/// Sentinel for "bucket not busy".
const NOT_BUSY: u32 = 0;

/// One group's entry: key, hash-code filter, and accumulators. 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct AggEntry {
    /// Hash code of the group key.
    pub hash: u32,
    /// Length of the key bytes.
    pub key_len: u8,
    key: [u8; MAX_KEY],
    pad: [u8; 3],
    /// COUNT(*) of the group.
    pub count: u64,
    /// SUM(expr) of the group.
    pub sum: i64,
}

impl AggEntry {
    fn new(hash: u32, key: &[u8]) -> Self {
        assert!(key.len() <= MAX_KEY, "group keys longer than 8 bytes unsupported");
        let mut k = [0u8; MAX_KEY];
        k[..key.len()].copy_from_slice(key);
        AggEntry { hash, key_len: key.len() as u8, key: k, pad: [0; 3], count: 0, sum: 0 }
    }

    /// The group's key bytes.
    pub fn key(&self) -> &[u8] {
        &self.key[..self.key_len as usize]
    }

    #[inline]
    fn matches(&self, hash: u32, key: &[u8]) -> bool {
        self.hash == hash && self.key() == key
    }

    #[inline]
    fn accumulate(&mut self, value: i64) {
        self.count += 1;
        self.sum += value;
    }
}

const EMPTY_ENTRY: AggEntry = AggEntry {
    hash: 0,
    key_len: 0,
    key: [0; MAX_KEY],
    pad: [0; 3],
    count: 0,
    sum: 0,
};

#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct AggHeader {
    inline: AggEntry,
    count: u32,
    busy: u32,
    array: u32,
    cap: u32,
}

const EMPTY_HEADER: AggHeader = AggHeader {
    inline: EMPTY_ENTRY,
    count: 0,
    busy: NOT_BUSY,
    array: NO_ARRAY,
    cap: 0,
};

/// Outcome of stage-1 header examination for an upsert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsertStep {
    /// The inline entry matched; accumulate via
    /// [`AggTable::apply_pending`].
    UpdatedInline,
    /// The bucket was empty; a fresh inline entry was created —
    /// accumulate via [`AggTable::apply_pending`].
    InsertedInline,
    /// Scan the overflow array in stage 2 and call
    /// [`AggTable::finish_overflow_upsert`]; if no entry matches, the new
    /// group lands at this (pre-reserved, prefetchable) arena index.
    TouchEntry(u32),
    /// Another in-flight upsert owns this bucket.
    Busy(u32),
}

/// Hash table of group entries.
pub struct AggTable {
    buckets: Vec<AggHeader>,
    /// `hash % buckets.len()` without a division.
    modulus: Modulus,
    arena: Vec<AggEntry>,
    groups: usize,
    initial_cap: u32,
}

impl AggTable {
    /// A table with `num_buckets` buckets, reserving arena space for about
    /// `expected_groups` groups.
    pub fn new(num_buckets: usize, expected_groups: usize) -> Self {
        assert!(num_buckets > 0);
        let arena = Vec::with_capacity(expected_groups.saturating_mul(4).max(64));
        AggTable {
            buckets: vec![EMPTY_HEADER; num_buckets],
            modulus: Modulus::new(num_buckets),
            arena,
            groups: 0,
            initial_cap: 2,
        }
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Bucket number for a hash code.
    #[inline]
    pub fn bucket_of(&self, hash: u32) -> usize {
        self.modulus.of(hash)
    }

    /// Address of bucket `b`'s header (prefetch hook).
    #[inline]
    pub fn header_addr(&self, b: usize) -> usize {
        self.buckets.as_ptr() as usize + b * std::mem::size_of::<AggHeader>()
    }

    /// Header size in bytes.
    pub fn header_len() -> usize {
        std::mem::size_of::<AggHeader>()
    }

    /// Entry size in bytes.
    pub fn entry_len() -> usize {
        std::mem::size_of::<AggEntry>()
    }

    /// Address of arena entry `idx` (prefetch hook).
    #[inline]
    pub fn entry_addr(&self, idx: u32) -> usize {
        self.arena.as_ptr() as usize + idx as usize * std::mem::size_of::<AggEntry>()
    }

    /// Address span of the bucket-header array (region attribution).
    pub fn headers_span(&self) -> (usize, usize) {
        (self.buckets.as_ptr() as usize, self.buckets.len() * std::mem::size_of::<AggHeader>())
    }

    /// Address span of the entry arena's full reservation (region
    /// attribution). The arena never outgrows its reservation
    /// ([`Self::assert_quiescent`] checks), so the span stays valid.
    pub fn arena_span(&self) -> (usize, usize) {
        (self.arena.as_ptr() as usize, self.arena.capacity() * std::mem::size_of::<AggEntry>())
    }

    /// Overflow-array span of bucket `b` (address, bytes), if any entries
    /// or reserved capacity exist.
    pub fn array_span(&self, b: usize) -> Option<(usize, usize)> {
        let h = &self.buckets[b];
        if h.array == NO_ARRAY {
            return None;
        }
        let n = (h.count.max(1) - 1).max(1) as usize;
        Some((self.entry_addr(h.array), n * std::mem::size_of::<AggEntry>()))
    }

    /// Number of overflow entries in bucket `b`.
    pub fn overflow_len(&self, b: usize) -> usize {
        (self.buckets[b].count.max(1) - 1) as usize
    }

    /// Stage 1: examine the header. Sets the busy word when the upsert
    /// must continue into the overflow array (released by
    /// [`Self::finish_overflow_upsert`]). Growth copy bytes are reported
    /// via `grown`.
    pub fn begin_upsert(
        &mut self,
        b: usize,
        hash: u32,
        key: &[u8],
        owner: u32,
        grown: &mut usize,
    ) -> UpsertStep {
        let hdr = self.buckets[b];
        if hdr.busy != NOT_BUSY {
            return UpsertStep::Busy(hdr.busy - 1);
        }
        if hdr.count == 0 {
            let h = &mut self.buckets[b];
            h.inline = AggEntry::new(hash, key);
            h.count = 1;
            self.groups += 1;
            return UpsertStep::InsertedInline;
        }
        if hdr.inline.matches(hash, key) {
            return UpsertStep::UpdatedInline;
        }
        // Continue into the overflow array; guarantee capacity for a
        // possible append so stage 2's addresses are fixed now.
        let over = (hdr.count - 1) as usize;
        let (mut array, mut cap) = (hdr.array, hdr.cap);
        if array == NO_ARRAY {
            cap = self.initial_cap;
            array = self.alloc(cap as usize);
        } else if over as u32 == cap {
            let new_cap = cap * 2;
            let new = self.alloc(new_cap as usize);
            for i in 0..cap {
                self.arena[(new + i) as usize] = self.arena[(array + i) as usize];
            }
            *grown += cap as usize * std::mem::size_of::<AggEntry>();
            array = new;
            cap = new_cap;
        }
        let h = &mut self.buckets[b];
        h.busy = owner + 1;
        h.array = array;
        h.cap = cap;
        // Stash the pending (hash, key) in the reserved slot itself —
        // stage 2 needs them and there may be one in-flight upsert per
        // bucket. The slot is beyond `count`, so lookups never see it;
        // the accumulators stay zero until the upsert commits. (In the
        // C engine this state lives in the per-element state array.)
        let idx = array + over as u32;
        self.arena[idx as usize] = AggEntry::new(hash, key);
        UpsertStep::TouchEntry(idx)
    }

    /// Accumulate into the inline entry after `UpdatedInline` /
    /// `InsertedInline`.
    pub fn apply_pending(&mut self, b: usize, value: i64) {
        let h = &mut self.buckets[b];
        debug_assert!(h.count >= 1);
        h.inline.accumulate(value);
    }

    /// Stage 2: scan the overflow array for the pending `(hash, key)`
    /// stashed at `idx` by [`Self::begin_upsert`]; accumulate into the
    /// matching entry, or commit the new group at `idx`. Releases the
    /// busy word.
    pub fn finish_overflow_upsert(&mut self, b: usize, idx: u32, value: i64) {
        self.finish_overflow_acc(b, idx, 1, value)
    }

    /// [`Self::finish_overflow_upsert`] generalized to fold in a whole
    /// group's accumulators at once (table merging).
    fn finish_overflow_acc(&mut self, b: usize, idx: u32, count: u64, sum: i64) {
        let (array, over) = {
            let h = &self.buckets[b];
            debug_assert_ne!(h.busy, NOT_BUSY, "finish without begin");
            debug_assert_eq!(h.array + (h.count - 1), idx, "stale reservation");
            (h.array, (h.count - 1) as usize)
        };
        let pending = self.arena[idx as usize];
        for i in 0..over {
            let e = &mut self.arena[(array + i as u32) as usize];
            if e.matches(pending.hash, pending.key()) {
                e.count += count;
                e.sum += sum;
                let h = &mut self.buckets[b];
                h.busy = NOT_BUSY;
                return;
            }
        }
        let e = &mut self.arena[idx as usize];
        e.count += count;
        e.sum += sum;
        let h = &mut self.buckets[b];
        h.count += 1;
        h.busy = NOT_BUSY;
        self.groups += 1;
    }

    /// Fold every group of `other` into this table. No memory model is
    /// charged: merging per-worker tables happens at the parallel
    /// barrier, off the simulated (and measured) per-tuple path. The
    /// result equals aggregating the concatenated inputs sequentially —
    /// COUNT and SUM are commutative and associative.
    pub fn merge_from(&mut self, other: &AggTable) {
        for e in other.iter() {
            let b = self.bucket_of(e.hash);
            let mut grown = 0usize;
            match self.begin_upsert(b, e.hash, e.key(), 0, &mut grown) {
                UpsertStep::UpdatedInline => {
                    let h = &mut self.buckets[b];
                    h.inline.count += e.count;
                    h.inline.sum += e.sum;
                }
                UpsertStep::InsertedInline => {
                    let h = &mut self.buckets[b];
                    // The fresh inline entry starts zeroed; install the
                    // merged group's accumulators directly.
                    h.inline.count = e.count;
                    h.inline.sum = e.sum;
                }
                UpsertStep::TouchEntry(idx) => {
                    self.finish_overflow_acc(b, idx, e.count, e.sum)
                }
                UpsertStep::Busy(_) => unreachable!("merge is single-threaded"),
            }
        }
    }

    /// Look up a group by hash and key.
    pub fn lookup(&self, hash: u32, key: &[u8]) -> Option<&AggEntry> {
        let h = &self.buckets[self.bucket_of(hash)];
        if h.count == 0 {
            return None;
        }
        if h.inline.matches(hash, key) {
            return Some(&h.inline);
        }
        if h.array == NO_ARRAY {
            return None;
        }
        self.arena[h.array as usize..(h.array + h.count - 1) as usize]
            .iter()
            .find(|e| e.matches(hash, key))
    }

    /// Iterate all group entries.
    pub fn iter(&self) -> impl Iterator<Item = &AggEntry> + '_ {
        self.buckets.iter().flat_map(move |h| {
            let inline = (h.count > 0).then_some(&h.inline);
            let over = if h.array == NO_ARRAY || h.count <= 1 {
                &[][..]
            } else {
                &self.arena[h.array as usize..(h.array + h.count - 1) as usize]
            };
            inline.into_iter().chain(over.iter())
        })
    }

    /// Assert every busy word is released.
    pub fn assert_quiescent(&self) {
        for (b, h) in self.buckets.iter().enumerate() {
            assert_eq!(h.busy, NOT_BUSY, "bucket {b} left busy");
        }
    }

    fn alloc(&mut self, n: usize) -> u32 {
        let off = self.arena.len();
        debug_assert!(
            off + n <= self.arena.capacity(),
            "agg arena reservation exceeded"
        );
        self.arena.resize(off + n, EMPTY_ENTRY);
        off as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_and_header_sizes() {
        assert_eq!(std::mem::size_of::<AggEntry>(), 32);
        assert_eq!(std::mem::size_of::<AggHeader>(), 48);
    }

    #[test]
    fn inline_upsert_cycle() {
        let mut t = AggTable::new(4, 8);
        let b = t.bucket_of(9);
        let mut grown = 0;
        assert_eq!(t.begin_upsert(b, 9, b"k", 0, &mut grown), UpsertStep::InsertedInline);
        t.apply_pending(b, 5);
        assert_eq!(t.begin_upsert(b, 9, b"k", 0, &mut grown), UpsertStep::UpdatedInline);
        t.apply_pending(b, 7);
        let e = t.lookup(9, b"k").unwrap();
        assert_eq!((e.count, e.sum), (2, 12));
        assert_eq!(t.num_groups(), 1);
        t.assert_quiescent();
    }

    #[test]
    fn overflow_upsert_finds_and_appends() {
        let mut t = AggTable::new(1, 16);
        let mut grown = 0;
        // First key inline.
        assert_eq!(t.begin_upsert(0, 1, b"a", 0, &mut grown), UpsertStep::InsertedInline);
        t.apply_pending(0, 10);
        // Second key goes to overflow (append path).
        let step = t.begin_upsert(0, 2, b"b", 3, &mut grown);
        let idx = match step {
            UpsertStep::TouchEntry(i) => i,
            other => panic!("{other:?}"),
        };
        // Busy while in flight.
        assert_eq!(t.begin_upsert(0, 3, b"c", 9, &mut grown), UpsertStep::Busy(3));
        t.finish_overflow_upsert(0, idx, 20);
        assert_eq!(t.num_groups(), 2);
        // Update path through the overflow array.
        let step = t.begin_upsert(0, 2, b"b", 0, &mut grown);
        let idx = match step {
            UpsertStep::TouchEntry(i) => i,
            other => panic!("{other:?}"),
        };
        t.finish_overflow_upsert(0, idx, 22);
        let e = t.lookup(2, b"b").unwrap();
        assert_eq!((e.count, e.sum), (2, 42));
        assert_eq!(t.num_groups(), 2, "update did not add a group");
        t.assert_quiescent();
    }

    #[test]
    fn key_bytes_disambiguate_hash_collisions() {
        let mut t = AggTable::new(1, 8);
        let mut grown = 0;
        assert_eq!(t.begin_upsert(0, 7, b"x", 0, &mut grown), UpsertStep::InsertedInline);
        t.apply_pending(0, 1);
        // Same hash, different key: a distinct group.
        let idx = match t.begin_upsert(0, 7, b"y", 0, &mut grown) {
            UpsertStep::TouchEntry(i) => i,
            other => panic!("{other:?}"),
        };
        t.finish_overflow_upsert(0, idx, 2);
        assert_eq!(t.num_groups(), 2);
        assert_eq!(t.lookup(7, b"x").unwrap().sum, 1);
        assert_eq!(t.lookup(7, b"y").unwrap().sum, 2);
    }

    #[test]
    fn merge_from_equals_sequential() {
        let upsert = |t: &mut AggTable, k: u32, v: i64| {
            let key = k.to_le_bytes();
            let b = t.bucket_of(k);
            let mut grown = 0;
            match t.begin_upsert(b, k, &key, 0, &mut grown) {
                UpsertStep::InsertedInline | UpsertStep::UpdatedInline => t.apply_pending(b, v),
                UpsertStep::TouchEntry(idx) => t.finish_overflow_upsert(b, idx, v),
                UpsertStep::Busy(_) => unreachable!(),
            }
        };
        // Sequential reference over 40 upserts of 13 keys.
        let mut seq = AggTable::new(3, 64);
        let mut a = AggTable::new(3, 64);
        let mut b = AggTable::new(3, 64);
        for i in 0u32..40 {
            let (k, v) = (i % 13, i as i64);
            upsert(&mut seq, k, v);
            upsert(if i % 2 == 0 { &mut a } else { &mut b }, k, v);
        }
        let mut merged = AggTable::new(3, 64);
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.num_groups(), seq.num_groups());
        for e in seq.iter() {
            let m = merged.lookup(e.hash, e.key()).expect("group present");
            assert_eq!((m.count, m.sum), (e.count, e.sum));
        }
        merged.assert_quiescent();
    }

    #[test]
    fn iter_visits_every_group() {
        let mut t = AggTable::new(3, 32);
        let mut grown = 0;
        for k in 0u32..20 {
            let key = k.to_le_bytes();
            let b = t.bucket_of(k);
            match t.begin_upsert(b, k, &key, 0, &mut grown) {
                UpsertStep::InsertedInline | UpsertStep::UpdatedInline => {
                    t.apply_pending(b, k as i64)
                }
                UpsertStep::TouchEntry(idx) => t.finish_overflow_upsert(b, idx, k as i64),
                UpsertStep::Busy(_) => unreachable!(),
            }
        }
        assert_eq!(t.iter().count(), 20);
        let total: i64 = t.iter().map(|e| e.sum).sum();
        assert_eq!(total, (0..20).sum::<i64>());
    }
}
