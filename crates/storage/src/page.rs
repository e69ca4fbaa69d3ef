//! Slotted pages.
//!
//! The engine "employs slotted page structure" (§7.1). A page is a fixed
//! 8 KB buffer (matching the simulated system's page size, Table 2) with:
//!
//! ```text
//! +--------+--------+------------------ ... -------------------+
//! | header | slots →                         ← tuple data      |
//! +--------+--------+------------------ ... -------------------+
//! ```
//!
//! * header: `nslots: u16`, `data_start: u16`, `checksum: u32` (8 bytes).
//!   The checksum word covers every other byte of the page and is written
//!   only when a page image is **sealed** for disk ([`Page::sealed_image`]);
//!   in-memory pages carry a stale/zero checksum. Readers verify it with
//!   [`Page::try_from_image`], so a torn or bit-flipped on-disk page is
//!   detected instead of silently joining garbage;
//! * slot `i` (8 bytes, growing upward): `offset: u16`, `len: u16`,
//!   `hash: u32` — the 4-byte **stashed hash code**. For base relations it
//!   is unused; for intermediate partitions the partition phase writes the
//!   join-key hash code here so the join phase can reuse it without
//!   re-reading the key (§7.1: "storing hash codes in the page slot area in
//!   the intermediate partitions and reusing them in the join phase");
//! * tuple data grows downward from the end of the page.

use crate::frame::Frame;

/// Page size in bytes (Table 2 of the paper).
pub const PAGE_SIZE: usize = 8192;

/// Header bytes at the front of every page (`nslots`, `data_start`,
/// `checksum`).
pub const PAGE_HEADER_BYTES: usize = 8;

const HDR: usize = PAGE_HEADER_BYTES;
const SLOT: usize = 8;
/// Byte range of the header checksum word (read as 0 when checksumming).
const CKSUM_RANGE: std::ops::Range<usize> = 4..8;
/// Independent checksum lanes, one `u32` word each per block.
const LANES: usize = 8;
/// Bytes the checksum consumes per round: one word for every lane.
const CKSUM_BLOCK: usize = 4 * LANES;
const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;
const _: () = assert!(PAGE_SIZE.is_multiple_of(CKSUM_BLOCK));
/// Distinct per-lane starting states.
const LANE_SEEDS: [u32; LANES] = {
    let mut seeds = [0; LANES];
    let mut i = 0;
    while i < LANES {
        seeds[i] = FNV_OFFSET ^ (i as u32).wrapping_mul(0x9E37_79B9);
        i += 1;
    }
    seeds
};

/// Why a disk page image failed verification.
///
/// Carries no file/page location — the I/O layer that read the image adds
/// that context when it wraps the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The header is structurally impossible (slot area and data area
    /// overlap, or `data_start` past the page end), or a slot points
    /// outside the data area — a torn write, a hole in the file, or a
    /// foreign page.
    Torn {
        /// Slot count found in the header.
        nslots: u16,
        /// Data-start offset found in the header.
        data_start: u16,
    },
    /// Header structure is plausible but the checksum word does not match
    /// the page contents — corruption inside the slot or data area.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum recomputed from the image.
        computed: u32,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Torn { nslots, data_start } => write!(
                f,
                "torn page image: {nslots} slots, data_start {data_start}"
            ),
            PageError::ChecksumMismatch { stored, computed } => write!(
                f,
                "page checksum mismatch: header {stored:#010x}, contents {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for PageError {}

/// Index of a tuple slot within one page.
pub type SlotId = u16;

/// A fixed-size slotted page.
///
/// The buffer is a [`Frame`]: an 8 KB heap box recycled through the
/// process-wide free list, so `Vec<Page>` growth moves only thin handles,
/// each page's bytes stay at a stable heap address while the page lives —
/// the memory model keys its cache simulation off those addresses — and a
/// dropped page's buffer serves the next page allocated on any thread.
///
/// `Clone` deep-copies the buffer into another frame (used when an output
/// buffer is "written to disk": the engine copies the page out and keeps
/// reusing the same buffer, as a real buffer manager would — the copy
/// stands in for the DMA transfer and is not charged to the memory model).
#[derive(Clone)]
pub struct Page {
    buf: Frame,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("nslots", &self.nslots())
            .field("data_start", &self.data_start())
            .field("checksum", &self.checksum())
            .finish_non_exhaustive()
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut buf = Frame::zeroed();
        buf[2..4].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        Page { buf }
    }

    /// Remove all tuples, returning the page to its empty state.
    pub fn reset(&mut self) {
        self.set_nslots(0);
        self.set_data_start(PAGE_SIZE as u16);
    }

    /// Number of tuples stored.
    #[inline]
    pub fn nslots(&self) -> u16 {
        u16::from_le_bytes([self.buf[0], self.buf[1]])
    }

    /// Free bytes available for one more `insert` (slot + data).
    #[inline]
    pub fn free_space(&self) -> usize {
        self.data_start() as usize - (HDR + SLOT * self.nslots() as usize)
    }

    /// Whether a tuple of `len` bytes fits.
    #[inline]
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT
    }

    /// Append a tuple with its stashed hash code. Returns the slot id, or
    /// `None` if the page is full.
    pub fn insert(&mut self, tuple: &[u8], hash: u32) -> Option<SlotId> {
        if !self.fits(tuple.len()) {
            return None;
        }
        let n = self.nslots();
        let start = self.data_start() as usize - tuple.len();
        self.buf[start..start + tuple.len()].copy_from_slice(tuple);
        let so = HDR + SLOT * n as usize;
        self.buf[so..so + 2].copy_from_slice(&(start as u16).to_le_bytes());
        self.buf[so + 2..so + 4].copy_from_slice(&(tuple.len() as u16).to_le_bytes());
        self.buf[so + 4..so + 8].copy_from_slice(&hash.to_le_bytes());
        self.set_data_start(start as u16);
        self.set_nslots(n + 1);
        Some(n)
    }

    /// Tuple bytes at `slot`.
    ///
    /// # Panics
    /// Panics (in debug) or returns garbage-free but arbitrary data (never
    /// out of bounds) if `slot >= nslots()`; callers iterate valid slots.
    #[inline]
    pub fn tuple(&self, slot: SlotId) -> &[u8] {
        debug_assert!(slot < self.nslots());
        let so = HDR + SLOT * slot as usize;
        let off = u16::from_le_bytes([self.buf[so], self.buf[so + 1]]) as usize;
        let len = u16::from_le_bytes([self.buf[so + 2], self.buf[so + 3]]) as usize;
        &self.buf[off..off + len]
    }

    /// Stashed hash code at `slot`.
    #[inline]
    pub fn hash_code(&self, slot: SlotId) -> u32 {
        debug_assert!(slot < self.nslots());
        let so = HDR + SLOT * slot as usize;
        u32::from_le_bytes(self.buf[so + 4..so + 8].try_into().unwrap())
    }

    /// Overwrite the stashed hash code at `slot`.
    pub fn set_hash_code(&mut self, slot: SlotId, hash: u32) {
        assert!(slot < self.nslots());
        let so = HDR + SLOT * slot as usize;
        self.buf[so + 4..so + 8].copy_from_slice(&hash.to_le_bytes());
    }

    /// Address of the start of the page buffer (memory-model hook).
    #[inline]
    pub fn base_addr(&self) -> usize {
        self.buf.as_ptr() as usize
    }

    /// Address of slot `slot`'s 8-byte entry (memory-model hook).
    #[inline]
    pub fn slot_addr(&self, slot: SlotId) -> usize {
        self.base_addr() + HDR + SLOT * slot as usize
    }

    /// Address of the tuple bytes at `slot` (memory-model hook). This reads
    /// the slot entry, mirroring the real dependency chain slot → tuple.
    #[inline]
    pub fn tuple_addr(&self, slot: SlotId) -> usize {
        let so = HDR + SLOT * slot as usize;
        let off = u16::from_le_bytes([self.buf[so], self.buf[so + 1]]) as usize;
        self.base_addr() + off
    }

    /// Address where the *next* inserted tuple's data would start, given its
    /// length, plus the address of the next slot entry. Used by the
    /// partition phase to prefetch the output-buffer locations it is about
    /// to write (§6).
    #[inline]
    pub fn next_insert_addrs(&self, len: usize) -> (usize, usize) {
        let data = self.base_addr() + self.data_start() as usize - len;
        let slot = self.slot_addr(self.nslots());
        (data, slot)
    }

    /// Iterate `(slot, tuple_bytes, hash_code)`.
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &[u8], u32)> + '_ {
        (0..self.nslots()).map(move |s| (s, self.tuple(s), self.hash_code(s)))
    }

    /// The raw page image (for writing the page to disk).
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Word-wise checksum of the page image, with the checksum word read
    /// as 0.
    ///
    /// Little-endian `u32` word `i` feeds lane `i % LANES`; each lane (and
    /// the final combine over the lanes) steps `h = (h ^ w) * FNV_PRIME`.
    /// That step is a bijection of the 32-bit state for a fixed word and
    /// of the word for a fixed state, so any corruption confined to one
    /// aligned 4-byte word — every single-bit flip included — changes the
    /// result by construction, not with 2⁻³² probability. Changing this
    /// function changes the on-disk format: bump the description version
    /// in `phj-disk`'s catalog and the known-answer test below.
    fn compute_checksum(buf: &[u8; PAGE_SIZE]) -> u32 {
        #[inline(always)]
        fn step(h: u32, w: u32) -> u32 {
            (h ^ w).wrapping_mul(FNV_PRIME)
        }
        let mut lanes = LANE_SEEDS;
        let mut absorb = |block: &[u8]| {
            for (h, w) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *h = step(*h, u32::from_le_bytes(w.try_into().unwrap()));
            }
        };
        let mut first = [0u8; CKSUM_BLOCK];
        first.copy_from_slice(&buf[..CKSUM_BLOCK]);
        first[CKSUM_RANGE].fill(0);
        absorb(&first);
        buf[CKSUM_BLOCK..]
            .chunks_exact(CKSUM_BLOCK)
            .for_each(absorb);
        lanes.iter().fold(FNV_OFFSET, |h, &l| step(h, l))
    }

    /// Checksum word currently stored in the header. Only meaningful after
    /// [`seal`](Page::seal) — in-memory pages carry a stale or zero word.
    #[inline]
    pub fn checksum(&self) -> u32 {
        u32::from_le_bytes(self.buf[CKSUM_RANGE].try_into().unwrap())
    }

    /// Stamp the header checksum word from the current page contents.
    /// Any later mutation invalidates it; prefer [`sealed_image`]
    /// (Page::sealed_image) at the point a page leaves for disk.
    pub fn seal(&mut self) {
        let c = Self::compute_checksum(&self.buf);
        self.buf[CKSUM_RANGE].copy_from_slice(&c.to_le_bytes());
        if let Some(m) = crate::telemetry::storage_metrics() {
            m.pages_sealed.inc();
        }
    }

    /// A copy of the page image with a freshly computed checksum — the form
    /// every page takes on its way to disk. Copying here (rather than
    /// sealing in place) means a buffer that keeps being reused in memory
    /// never carries a checksum that has silently gone stale.
    pub fn sealed_image(&self) -> Frame {
        let mut img = Frame::copy_of(self.as_bytes());
        let c = Self::compute_checksum(&img);
        img[CKSUM_RANGE].copy_from_slice(&c.to_le_bytes());
        if let Some(m) = crate::telemetry::storage_metrics() {
            m.pages_sealed.inc();
        }
        img
    }

    /// Verify and reconstruct a page from a sealed disk image.
    ///
    /// Structural validation first (a torn write or file hole rarely leaves
    /// a plausible header), then the checksum word. Use this on every page
    /// that crossed a disk boundary; [`from_bytes`](Page::from_bytes) stays
    /// available for trusted in-memory images.
    pub fn try_from_image(buf: Frame) -> Result<Page, PageError> {
        let page = Page { buf };
        let verdict = page.verify();
        if let Some(m) = crate::telemetry::storage_metrics() {
            match verdict {
                Ok(()) => m.pages_verified.inc(),
                Err(_) => m.checksum_failures.inc(),
            }
        }
        verdict.map(|()| page)
    }

    /// Header structure, then the checksum word, then the slot table: a
    /// page whose checksum holds (a buggy or foreign writer sealed it)
    /// must still never make [`tuple`](Page::tuple) slice out of range.
    fn verify(&self) -> Result<(), PageError> {
        let nslots = self.nslots();
        let data_start = self.data_start();
        let torn = PageError::Torn { nslots, data_start };
        let ds = data_start as usize;
        if !(HDR..=PAGE_SIZE).contains(&ds) || HDR + SLOT * nslots as usize > ds {
            return Err(torn);
        }
        let stored = self.checksum();
        let computed = Self::compute_checksum(&self.buf);
        if stored != computed {
            return Err(PageError::ChecksumMismatch { stored, computed });
        }
        let slots = &self.buf[HDR..HDR + SLOT * nslots as usize];
        if slots.chunks_exact(SLOT).any(|e| {
            let off = u16::from_le_bytes([e[0], e[1]]) as usize;
            let len = u16::from_le_bytes([e[2], e[3]]) as usize;
            off < ds || off + len > PAGE_SIZE
        }) {
            return Err(torn);
        }
        Ok(())
    }

    /// Reconstruct a page from a disk image.
    ///
    /// # Panics
    /// Panics if the header is structurally invalid (slot area and data
    /// area overlapping) — a torn or foreign page.
    pub fn from_bytes(buf: Frame) -> Page {
        let page = Page { buf };
        let ds = page.data_start() as usize;
        assert!(
            ds <= PAGE_SIZE && HDR + SLOT * page.nslots() as usize <= ds,
            "corrupt page image: {} slots, data_start {}",
            page.nslots(),
            ds
        );
        page
    }

    #[inline]
    fn data_start(&self) -> u16 {
        u16::from_le_bytes([self.buf[2], self.buf[3]])
    }

    fn set_nslots(&mut self, n: u16) {
        self.buf[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn set_data_start(&mut self, d: u16) {
        self.buf[2..4].copy_from_slice(&d.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_page() {
        let p = Page::new();
        assert_eq!(p.nslots(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HDR);
        assert!(p.fits(PAGE_SIZE - HDR - SLOT));
        assert!(!p.fits(PAGE_SIZE - HDR - SLOT + 1));
    }

    #[test]
    fn insert_and_read_back() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello", 0x1111).unwrap();
        let s1 = p.insert(b"world!!", 0x2222).unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.tuple(0), b"hello");
        assert_eq!(p.tuple(1), b"world!!");
        assert_eq!(p.hash_code(0), 0x1111);
        assert_eq!(p.hash_code(1), 0x2222);
        assert_eq!(p.nslots(), 2);
    }

    #[test]
    fn fill_to_capacity() {
        let mut p = Page::new();
        let tuple = [7u8; 100];
        let mut n = 0;
        while p.insert(&tuple, n).is_some() {
            n += 1;
        }
        // 8184 / 108 = 75 tuples of 100 B (+8 B slot) fit in an 8 KB page.
        assert_eq!(n as usize, (PAGE_SIZE - HDR) / (100 + SLOT));
        assert_eq!(p.nslots() as u32, n);
        assert!(p.free_space() < 100 + SLOT);
        for s in 0..p.nslots() {
            assert_eq!(p.tuple(s), &tuple);
            assert_eq!(p.hash_code(s), s as u32);
        }
    }

    #[test]
    fn reset_empties() {
        let mut p = Page::new();
        p.insert(b"x", 1).unwrap();
        p.reset();
        assert_eq!(p.nslots(), 0);
        assert_eq!(p.free_space(), PAGE_SIZE - HDR);
        assert_eq!(p.insert(b"y", 2), Some(0));
        assert_eq!(p.tuple(0), b"y");
    }

    #[test]
    fn set_hash_code_updates() {
        let mut p = Page::new();
        p.insert(b"t", 0).unwrap();
        p.set_hash_code(0, 42);
        assert_eq!(p.hash_code(0), 42);
        assert_eq!(p.tuple(0), b"t");
    }

    #[test]
    fn addresses_are_consistent() {
        let mut p = Page::new();
        p.insert(&[1u8; 16], 9).unwrap();
        let base = p.base_addr();
        assert_eq!(p.slot_addr(0), base + HDR);
        assert_eq!(p.tuple_addr(0), base + PAGE_SIZE - 16);
        let (data, slot) = p.next_insert_addrs(32);
        assert_eq!(data, base + PAGE_SIZE - 16 - 32);
        assert_eq!(slot, base + HDR + SLOT);
        // The tuple slice really lives at tuple_addr.
        assert_eq!(p.tuple(0).as_ptr() as usize, p.tuple_addr(0));
    }

    #[test]
    fn iter_yields_all() {
        let mut p = Page::new();
        for i in 0..10u32 {
            p.insert(&i.to_le_bytes(), i * 7).unwrap();
        }
        let collected: Vec<_> = p.iter().map(|(s, t, h)| (s, t.to_vec(), h)).collect();
        assert_eq!(collected.len(), 10);
        for (i, (s, t, h)) in collected.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(t, &(i as u32).to_le_bytes());
            assert_eq!(*h, i as u32 * 7);
        }
    }

    #[test]
    fn zero_length_tuple() {
        let mut p = Page::new();
        let s = p.insert(b"", 5).unwrap();
        assert_eq!(p.tuple(s), b"");
        assert_eq!(p.hash_code(s), 5);
    }
}

#[cfg(test)]
mod io_tests {
    use super::*;

    #[test]
    fn page_image_roundtrip() {
        let mut p = Page::new();
        for i in 0..20u32 {
            p.insert(&i.to_le_bytes(), i * 3).unwrap();
        }
        let image = Frame::copy_of(p.as_bytes());
        let q = Page::from_bytes(image);
        assert_eq!(q.nslots(), 20);
        for (s, t, h) in q.iter() {
            assert_eq!(t, (s as u32).to_le_bytes());
            assert_eq!(h, s as u32 * 3);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt page image")]
    fn corrupt_image_rejected() {
        let mut buf = Frame::zeroed();
        buf[0..2].copy_from_slice(&2000u16.to_le_bytes()); // 2000 slots
        buf[2..4].copy_from_slice(&8u16.to_le_bytes()); // data_start 8
        let _ = Page::from_bytes(buf);
    }

    #[test]
    fn sealed_image_roundtrips() {
        let mut p = Page::new();
        for i in 0..30u32 {
            p.insert(&i.to_le_bytes(), i).unwrap();
        }
        let q = Page::try_from_image(p.sealed_image()).expect("sealed image verifies");
        assert_eq!(q.nslots(), 30);
        for (s, t, h) in q.iter() {
            assert_eq!(t, (s as u32).to_le_bytes());
            assert_eq!(h, s as u32);
        }
        // sealed_image leaves the source page itself untouched.
        assert_eq!(p.checksum(), 0);
    }

    #[test]
    fn seal_in_place_matches_sealed_image() {
        let mut p = Page::new();
        p.insert(b"abc", 7).unwrap();
        let img = p.sealed_image();
        p.seal();
        assert_eq!(&img[..], &p.as_bytes()[..]);
        assert_ne!(p.checksum(), 0);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut p = Page::new();
        p.insert(&[0xAB; 64], 1).unwrap();
        let mut img = p.sealed_image();
        img[PAGE_SIZE - 17] ^= 0x04; // one bit in the data area
        match Page::try_from_image(img) {
            Err(PageError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn unsealed_image_is_rejected() {
        let mut p = Page::new();
        p.insert(b"x", 0).unwrap();
        // Raw (never sealed) image: structurally fine, checksum word zero.
        let err = Page::try_from_image(Frame::copy_of(p.as_bytes())).unwrap_err();
        assert!(matches!(err, PageError::ChecksumMismatch { stored: 0, .. }));
    }

    #[test]
    fn zeroed_image_is_torn() {
        // A hole in a sparse file reads back as zeroes: data_start 0 is
        // structurally impossible (it would sit inside the header).
        let err = Page::try_from_image(Frame::zeroed()).unwrap_err();
        assert_eq!(err, PageError::Torn { nslots: 0, data_start: 0 });
        assert!(err.to_string().contains("torn page"));
    }

    #[test]
    fn garbage_header_is_torn() {
        let mut buf = Frame::zeroed();
        buf[0..2].copy_from_slice(&2000u16.to_le_bytes());
        buf[2..4].copy_from_slice(&8u16.to_le_bytes());
        assert!(matches!(
            Page::try_from_image(buf),
            Err(PageError::Torn { nslots: 2000, data_start: 8 })
        ));
    }

    #[test]
    fn empty_sealed_page_verifies() {
        let p = Page::new();
        let q = Page::try_from_image(p.sealed_image()).unwrap();
        assert_eq!(q.nslots(), 0);
        assert_eq!(q.free_space(), PAGE_SIZE - HDR);
    }

    /// `n` distinct 100-byte tuples (75 fill the page).
    fn filled(n: u32) -> Page {
        let mut p = Page::new();
        for i in 0..n {
            let t: Vec<u8> = (0..100u32).map(|j| (i * 100 + j) as u8 | 1).collect();
            p.insert(&t, i.wrapping_mul(0x9E37_79B9)).unwrap();
        }
        p
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let sealed = filled(75).sealed_image();
        for byte in (0..PAGE_SIZE).filter(|b| !CKSUM_RANGE.contains(b)) {
            for bit in 0..8 {
                let mut img = sealed.clone();
                img[byte] ^= 1 << bit;
                assert!(
                    Page::try_from_image(img).is_err(),
                    "flip of bit {bit} in byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn torn_tail_is_detected_at_every_fill() {
        for n in [1, 20, 75] {
            let mut img = filled(n).sealed_image();
            // The tail-half tear of `phj_disk::FaultPlan::corrupt_image`.
            img[PAGE_SIZE / 2..].fill(0);
            assert!(
                Page::try_from_image(img).is_err(),
                "tear at {n} tuples went undetected"
            );
        }
    }

    #[test]
    fn checksum_word_is_excluded_from_the_checksum() {
        let mut img = filled(20).sealed_image();
        let sealed = u32::from_le_bytes(img[CKSUM_RANGE].try_into().unwrap());
        for stored in [0, 1, sealed ^ 0x8000_0000, u32::MAX] {
            img[CKSUM_RANGE].copy_from_slice(&stored.to_le_bytes());
            assert_eq!(Page::compute_checksum(&img), sealed);
            assert_eq!(
                Page::try_from_image(img.clone()).unwrap_err(),
                PageError::ChecksumMismatch {
                    stored,
                    computed: sealed
                }
            );
        }
    }

    /// Pinned on-disk format: a change here is a format change and must
    /// bump `phj-relation v2` in `phj-disk`'s catalog.
    #[test]
    fn checksum_known_answers() {
        let word = |p: &Page| u32::from_le_bytes(p.sealed_image()[CKSUM_RANGE].try_into().unwrap());
        assert_eq!(word(&Page::new()), 0x713E_9DE5);
        assert_eq!(word(&filled(75)), 0x44FE_0458);
    }

    #[test]
    fn slot_pointing_past_the_page_is_torn() {
        let mut p = Page::new();
        p.insert(&[0xAB; 16], 1).unwrap();
        let mut img = Frame::copy_of(p.as_bytes());
        img[HDR + 2..HDR + 4].copy_from_slice(&9000u16.to_le_bytes()); // slot 0 len
        let mut forged = Page::from_bytes(img);
        forged.seal();
        assert_eq!(
            Page::try_from_image(Frame::copy_of(forged.as_bytes())).unwrap_err(),
            PageError::Torn {
                nslots: 1,
                data_start: (PAGE_SIZE - 16) as u16
            }
        );
    }

    #[test]
    fn slot_pointing_into_the_slot_area_is_torn() {
        let mut p = filled(3);
        p.buf[HDR + SLOT..HDR + SLOT + 2].copy_from_slice(&(HDR as u16).to_le_bytes()); // slot 1 off
        p.seal();
        assert!(matches!(
            Page::try_from_image(Frame::copy_of(p.as_bytes())),
            Err(PageError::Torn { nslots: 3, .. })
        ));
    }

    #[test]
    fn inserted_pages_pass_slot_validation() {
        // Zero-length tuples on an empty page sit at offset PAGE_SIZE;
        // var-len tuples fill the page to its last byte.
        let mut p = Page::new();
        p.insert(b"", 0).unwrap();
        let mut len = 0usize;
        while p.insert(&vec![7u8; len % 61], len as u32).is_some() {
            len += 1;
        }
        let _ = p.insert(b"", 0); // at data_start, if a slot still fits
        let q = Page::try_from_image(p.sealed_image()).expect("insert-built page verifies");
        assert_eq!(q.iter().count(), p.nslots() as usize);
    }
}
