//! Join output sinks: where matched tuple pairs go.
//!
//! The paper's experiments materialize full output tuples ("an output
//! tuple contains all the fields of the matching build and probe tuples",
//! §7.1); [`OutputWriter`] does that into an output [`Relation`], charging
//! the memory model for the output-buffer writes (these sequential writes
//! are a real part of the join's cache behaviour). [`CountSink`] is a
//! non-materializing sink for tests and micro-benchmarks: it keeps an
//! order-insensitive checksum — a word-wise pair digest, additive fold —
//! so any two correct schemes can be compared exactly.

use phj_memsim::MemoryModel;
use phj_storage::{tuple::materialize_join_output, Page, Relation, Schema};

use crate::cost;

/// Consumer of join matches.
pub trait JoinSink {
    /// A probe tuple matched a build tuple.
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]);

    /// Number of matches emitted so far.
    fn matches(&self) -> u64;
}

/// Materializes output tuples into a relation.
pub struct OutputWriter {
    build_schema: Schema,
    probe_schema: Schema,
    out: Relation,
    page: Page,
    buf: Vec<u8>,
    matches: u64,
    prefetch_ahead: bool,
}

impl OutputWriter {
    /// A writer joining tuples of the given schemas.
    pub fn new(build_schema: Schema, probe_schema: Schema) -> Self {
        let out_schema = Schema::join_output(&build_schema, &probe_schema);
        OutputWriter {
            build_schema,
            probe_schema,
            out: Relation::new(out_schema),
            page: Page::new(),
            buf: Vec::new(),
            matches: 0,
            prefetch_ahead: false,
        }
    }

    /// Enable output-buffer prefetching: after each emit, prefetch the
    /// location the *next* output tuple will occupy. Output is strictly
    /// sequential, so this is one of the "multiple independent prefetches"
    /// a staged scheme issues per stage (§4.4); the baseline and simple
    /// schemes leave it off.
    pub fn with_output_prefetch(mut self) -> Self {
        self.prefetch_ahead = true;
        self
    }

    /// Finish, returning the output relation.
    pub fn finish(mut self) -> Relation {
        if self.page.nslots() > 0 {
            self.out.push_page(self.page.clone());
        }
        self.out
    }
}

impl JoinSink for OutputWriter {
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]) {
        materialize_join_output(
            &self.build_schema,
            &self.probe_schema,
            build,
            probe,
            &mut self.buf,
        );
        if !self.page.fits(self.buf.len()) {
            // "Write out" the full buffer (uncharged, DMA-like) and keep
            // reusing the same buffer page, as the engine's buffer
            // manager would — its lines stay cache-resident.
            self.out.push_page(self.page.clone());
            self.page.reset();
        }
        let (data_addr, slot_addr) = self.page.next_insert_addrs(self.buf.len());
        mem.write(data_addr, self.buf.len());
        mem.write(slot_addr, 8);
        mem.busy(cost::copy_cost(self.buf.len()));
        self.page
            .insert(&self.buf, 0)
            .expect("output tuple larger than a page");
        self.matches += 1;
        if self.prefetch_ahead {
            // Two tuples of lead time: back-to-back emits (group stage 3)
            // are closer together than the memory latency, so one emit of
            // lead would leave the fill chronically half-finished.
            let span = 2 * self.buf.len();
            if self.page.fits(span) {
                let (next_data, next_slot) = self.page.next_insert_addrs(span);
                mem.prefetch(next_data, span);
                mem.prefetch(next_slot, 16);
            }
        }
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

/// Hands matches to a parent operator in bounded batches — the hook for
/// pipelined query processing. §5.4: "the join phase can pause at group
/// boundaries and send outputs to the parent operator to support
/// pipelined query processing" — a staged probe emits at most `G`
/// matches' worth of output per stage, so a batch of a few `G` keeps the
/// parent fed without unbounded buffering.
pub struct BatchingSink<F: FnMut(&[(Vec<u8>, Vec<u8>)])> {
    batch: Vec<(Vec<u8>, Vec<u8>)>,
    capacity: usize,
    consumer: F,
    matches: u64,
}

impl<F: FnMut(&[(Vec<u8>, Vec<u8>)])> BatchingSink<F> {
    /// A sink delivering batches of up to `capacity` (build, probe) pairs
    /// to `consumer`.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, consumer: F) -> Self {
        assert!(capacity > 0, "batch capacity must be non-zero");
        BatchingSink { batch: Vec::with_capacity(capacity), capacity, consumer, matches: 0 }
    }

    /// Deliver any buffered matches and return the total count.
    pub fn finish(mut self) -> u64 {
        self.flush();
        self.matches
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            (self.consumer)(&self.batch);
            self.batch.clear();
        }
    }
}

impl<F: FnMut(&[(Vec<u8>, Vec<u8>)])> JoinSink for BatchingSink<F> {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, build: &[u8], probe: &[u8]) {
        self.batch.push((build.to_vec(), probe.to_vec()));
        self.matches += 1;
        if self.batch.len() == self.capacity {
            self.flush();
        }
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;
/// Distinct starting states of the digest lanes.
const LANE_SEEDS: [u64; 4] = [
    FNV_OFFSET,
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
];
const LANES: usize = LANE_SEEDS.len();

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The zero-padded word of a 1–7 byte side: two overlapping loads of
/// the widest power-of-two width that fits, the second shifted to its
/// byte position. Bytes both loads read land on themselves, so the OR
/// is the byte string itself.
#[inline(always)]
fn short_word(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!((1..8).contains(&n));
    if n >= 4 {
        let lo = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as u64;
        let hi = u32::from_le_bytes(bytes[n - 4..].try_into().expect("4 bytes")) as u64;
        lo | hi << (8 * (n - 4))
    } else if n >= 2 {
        let lo = u16::from_le_bytes(bytes[..2].try_into().expect("2 bytes")) as u64;
        let hi = u16::from_le_bytes(bytes[n - 2..].try_into().expect("2 bytes")) as u64;
        lo | hi << (8 * (n - 2))
    } else {
        bytes[0] as u64
    }
}

/// Feed `bytes` to the lanes as little-endian `u64` words, word `i` to
/// lane `i % LANES`, the 0–7 byte tail zero-padded into one last word.
///
/// Every whole word is one load at a fixed offset. The tail is one
/// overlapping load of the side's last 8 bytes, shifted right past the
/// bytes the whole words already took: the tail bytes land in the low
/// end with zeros above them, which is the zero-padded word without a
/// copy. The load stays inside the side, since a side with a tail and
/// at least 8 bytes ends at least 8 bytes past its start. Only a side
/// shorter than 8 bytes has no such window ([`short_word`]).
#[inline(always)]
fn absorb(lanes: &mut [u64; LANES], bytes: &[u8]) {
    let mut blocks = bytes.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (h, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *h = step(*h, u64::from_le_bytes(w.try_into().unwrap()));
        }
    }
    // Under a block: at most LANES - 1 whole words and one tail word.
    let mut words = blocks.remainder().chunks_exact(8);
    let mut lane = lanes.iter_mut();
    for w in &mut words {
        let h = lane.next().expect("a lane per remaining word");
        *h = step(*h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    let tail = words.remainder().len();
    if tail > 0 {
        let n = bytes.len();
        let w = if n >= 8 {
            u64::from_le_bytes(bytes[n - 8..].try_into().expect("8 bytes")) >> (8 * (8 - tail))
        } else {
            short_word(bytes)
        };
        let h = lane.next().expect("a lane for the tail word");
        *h = step(*h, w);
    }
}

/// murmur3's 64-bit finaliser: a bijection that spreads every input bit
/// over the whole word. The xor-multiply steps only carry upward, so
/// without it the low bits of a digest would depend only on the low bits
/// of each word — and digests are summed.
#[inline(always)]
fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    k ^= k >> 33;
    k = k.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    k ^ (k >> 33)
}

/// Word-wise digest of one (build, probe) pair — the per-pair term of
/// [`CountSink`]'s checksum, and of any other result checksum that wants
/// the same format (e.g. an aggregation's (key, accumulators) groups).
///
/// Four `u64` lanes step `h = (h ^ w) * FNV_PRIME` over the build bytes
/// and then the probe bytes, each side read as little-endian words from
/// its own start. The two lengths enter as separate steps, so
/// `("ab", "c")` and `("a", "bc")` — or a zero-padded tail and real
/// zeros — differ. The lanes are folded with the same step and finished
/// with murmur3's `fmix64`. Every step is a bijection of the state for a
/// fixed word and of the word for a fixed state, so any change confined
/// to one aligned 8-byte word of either side — every single-bit flip
/// included — changes the digest by construction. Changing this function
/// changes every result checksum: update the known-answer test below.
#[inline]
pub fn pair_digest(build: &[u8], probe: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    absorb(&mut lanes, build);
    absorb(&mut lanes, probe);
    // The lengths are known up front, so their steps are off the
    // lanes' dependency chains.
    let h = step(step(FNV_OFFSET, build.len() as u64), probe.len() as u64);
    fmix64(lanes.iter().fold(h, |h, &l| step(h, l)))
}

/// Order-insensitive counting/checksumming sink.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountSink {
    matches: u64,
    /// Wrapping sum of the word-wise [`pair_digest`] of every emitted
    /// pair: equal multisets of (build, probe) pairs — multiplicities
    /// included — produce equal checksums regardless of emission order.
    checksum: u64,
}

impl CountSink {
    /// A fresh sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order-insensitive checksum.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Fold another sink's matches into this one. Because the checksum is
    /// an additive fold of per-pair digests, merging per-worker sinks
    /// yields exactly the checksum a single sequential sink would have
    /// produced.
    pub fn merge(&mut self, other: CountSink) {
        self.matches += other.matches;
        self.checksum = self.checksum.wrapping_add(other.checksum);
    }
}

impl JoinSink for CountSink {
    fn emit<M: MemoryModel>(&mut self, _mem: &mut M, build: &[u8], probe: &[u8]) {
        self.matches += 1;
        self.checksum = self.checksum.wrapping_add(pair_digest(build, probe));
    }

    fn matches(&self) -> u64 {
        self.matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_memsim::NativeModel;

    #[test]
    fn count_sink_is_order_insensitive() {
        let mut m = NativeModel;
        let mut a = CountSink::new();
        a.emit(&mut m, b"b1", b"p1");
        a.emit(&mut m, b"b2", b"p2");
        let mut b = CountSink::new();
        b.emit(&mut m, b"b2", b"p2");
        b.emit(&mut m, b"b1", b"p1");
        assert_eq!(a, b);
        assert_eq!(a.matches(), 2);
    }

    #[test]
    fn count_sink_detects_difference() {
        let mut m = NativeModel;
        let mut a = CountSink::new();
        a.emit(&mut m, b"b1", b"p1");
        let mut b = CountSink::new();
        b.emit(&mut m, b"b1", b"p2");
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn count_sink_merge_equals_sequential() {
        let mut m = NativeModel;
        let mut seq = CountSink::new();
        let mut w0 = CountSink::new();
        let mut w1 = CountSink::new();
        for i in 0u32..20 {
            let t = i.to_le_bytes();
            seq.emit(&mut m, &t, &t);
            if i % 2 == 0 { &mut w0 } else { &mut w1 }.emit(&mut m, &t, &t);
        }
        let mut merged = CountSink::new();
        merged.merge(w1);
        merged.merge(w0);
        assert_eq!(merged, seq);
    }

    fn checksum_of(pairs: &[(&[u8], &[u8])]) -> u64 {
        let mut s = CountSink::new();
        for (b, p) in pairs {
            s.emit(&mut NativeModel, b, p);
        }
        s.checksum()
    }

    #[test]
    fn count_sink_multiset_semantics() {
        // Every multiplicity counts: a pair emitted an even number of
        // times must not cancel out, and substituting one duplicated pair
        // for another must show.
        let (a, b): (&[u8], &[u8]) = (b"x", b"y");
        let once = checksum_of(&[(a, b)]);
        let thrice = checksum_of(&[(a, b), (a, b), (a, b)]);
        assert_ne!(once, thrice);
        let (c, d): (&[u8], &[u8]) = (b"u", b"v");
        let aabb = checksum_of(&[(a, b), (a, b), (c, d), (c, d)]);
        let aaaa = checksum_of(&[(a, b), (a, b), (a, b), (a, b)]);
        assert_ne!(aabb, aaaa);
        assert_ne!(aabb, 0);
    }

    #[test]
    fn pair_digest_known_answers() {
        // Pinned: a change here changes every result checksum.
        let build: Vec<u8> = (0u8..100).collect();
        let probe: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(7) ^ 0x5A).collect();
        assert_eq!(checksum_of(&[(&build, &probe)]), 0x3F95_0ED9_E86B_F569);
        assert_eq!(
            checksum_of(&[(b"key1", b"probe tuple")]),
            0x8C39_E2E5_61E3_3E70
        );
    }

    /// The byte-wise reference the word loads must equal: `chunks` over
    /// each block and a zero-padded copy of every remainder word.
    fn absorb_reference(lanes: &mut [u64; LANES], bytes: &[u8]) {
        let mut blocks = bytes.chunks_exact(8 * LANES);
        for block in &mut blocks {
            for (h, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *h = step(*h, u64::from_le_bytes(w.try_into().unwrap()));
            }
        }
        for (h, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
            let mut word = [0u8; 8];
            word[..w.len()].copy_from_slice(w);
            *h = step(*h, u64::from_le_bytes(word));
        }
    }

    fn pair_digest_reference(build: &[u8], probe: &[u8]) -> u64 {
        let mut lanes = LANE_SEEDS;
        absorb_reference(&mut lanes, build);
        absorb_reference(&mut lanes, probe);
        let h = step(step(FNV_OFFSET, build.len() as u64), probe.len() as u64);
        fmix64(lanes.iter().fold(h, |h, &l| step(h, l)))
    }

    #[test]
    fn pair_digest_equals_the_byte_wise_reference() {
        // Every length pair 0..=130 (four whole blocks and every tail) at
        // all 8 start offsets from an 8-aligned address. No byte is zero,
        // so a tail shifted by a byte either way reads a different word.
        const MAX: usize = 130;
        let fill = |seed: u8| -> Vec<u8> {
            (0..MAX + 16).map(|i| (i as u8).wrapping_mul(131).wrapping_add(seed) | 1).collect()
        };
        let (bbuf, pbuf) = (fill(7), fill(90));
        let (ba, pa) = (bbuf.as_ptr().align_offset(8), pbuf.as_ptr().align_offset(8));
        for off in 0..8 {
            let bside = &bbuf[ba + off..];
            let pside = &pbuf[pa + 7 - off..];
            for lb in 0..=MAX {
                for lp in 0..=MAX {
                    let (b, p) = (&bside[..lb], &pside[..lp]);
                    assert_eq!(
                        pair_digest(b, p),
                        pair_digest_reference(b, p),
                        "build len {lb}, probe len {lp}, offset {off}"
                    );
                }
            }
        }
        // The aggregation checksum's shape: a 4-byte key against a
        // 16-byte count ‖ sum accumulator.
        for k in 0u32..2000 {
            let key = k.wrapping_mul(0x9E37_79B9).to_le_bytes();
            let mut acc = [0u8; 16];
            acc[..8].copy_from_slice(&(k as u64 + 1).to_le_bytes());
            acc[8..].copy_from_slice(&(k as i64 * -7919).to_le_bytes());
            assert_eq!(pair_digest(&key, &acc), pair_digest_reference(&key, &acc), "key {k}");
        }
    }

    #[test]
    fn pair_digest_detects_every_single_bit_flip() {
        let build: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(37)).collect();
        let probe: Vec<u8> = (0u8..100).map(|i| i.wrapping_mul(91) ^ 0xC3).collect();
        let clean = checksum_of(&[(&build, &probe)]);
        // 2 sides × 800 bits: all 1 600 single-bit flips.
        for side in 0..2 {
            for bit in 0..800 {
                let (mut b, mut p) = (build.clone(), probe.clone());
                let t = if side == 0 { &mut b } else { &mut p };
                t[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum_of(&[(&b, &p)]), clean, "side {side} bit {bit}");
            }
        }
    }

    #[test]
    fn pair_digest_every_tail_length() {
        // All-zero tuples: only the lengths tell 0..=17 bytes apart, so
        // zero padding of the tail word must not alias real zeros.
        let zeros = [0u8; 17];
        let mut seen = std::collections::HashSet::new();
        for lb in 0..=17 {
            for lp in 0..=17 {
                let d = pair_digest(&zeros[..lb], &zeros[..lp]);
                assert!(seen.insert(d), "({lb}, {lp}) collides");
            }
        }
        // The last byte of every tail length is read, on either side.
        let bytes: Vec<u8> = (1u8..=17).collect();
        for len in 1..=17 {
            let mut flipped = bytes[..len].to_vec();
            flipped[len - 1] ^= 0x80;
            let d = pair_digest(&bytes[..len], &bytes[..len]);
            assert_ne!(d, pair_digest(&flipped, &bytes[..len]), "build len {len}");
            assert_ne!(d, pair_digest(&bytes[..len], &flipped), "probe len {len}");
        }
        // A zero-length pair still counts.
        let empty = checksum_of(&[(b"", b"")]);
        assert_ne!(empty, 0);
        assert_ne!(checksum_of(&[(b"", b""), (b"", b"")]), empty);
    }

    #[test]
    fn pair_digest_keeps_the_build_probe_boundary() {
        assert_ne!(pair_digest(b"ab", b"c"), pair_digest(b"a", b"bc"));
        assert_ne!(pair_digest(b"abcdefgh", b""), pair_digest(b"", b"abcdefgh"));
    }

    #[test]
    fn output_redigested_at_build_width_equals_count_sink() {
        // The benchmark's simulated pass checks materialised output by
        // splitting each output tuple at the build schema's fixed size and
        // digesting the halves as a CountSink would.
        use crate::join::{join_pair, JoinParams, JoinScheme};
        let gen = phj_workload::JoinSpec {
            build_tuples: 700,
            tuple_size: 52,
            matches_per_build: 2,
            pct_match: 80,
            seed: 5,
        }
        .generate();
        let params = JoinParams {
            scheme: JoinScheme::Group { g: 8 },
            use_stored_hash: true,
        };
        let mut m = NativeModel;
        let mut count = CountSink::new();
        join_pair(&mut m, &params, &gen.build, &gen.probe, 1, &mut count, None);
        let mut out = OutputWriter::new(gen.build.schema().clone(), gen.probe.schema().clone());
        join_pair(&mut m, &params, &gen.build, &gen.probe, 1, &mut out, None);
        let split = gen.build.schema().fixed_size();
        let mut redigest = CountSink::new();
        for (_, t, _) in out.finish().iter() {
            redigest.emit(&mut m, &t[..split], &t[split..]);
        }
        assert_eq!(count.matches(), gen.expected_matches);
        assert_eq!(redigest, count);
    }

    #[test]
    fn batching_sink_delivers_everything_in_order() {
        let mut m = NativeModel;
        let mut seen: Vec<u32> = Vec::new();
        let mut batches = 0usize;
        {
            let mut sink = BatchingSink::new(7, |batch| {
                batches += 1;
                assert!(batch.len() <= 7);
                for (b, p) in batch {
                    assert_eq!(b, p);
                    seen.push(u32::from_le_bytes(b[..4].try_into().unwrap()));
                }
            });
            for i in 0u32..23 {
                let t = i.to_le_bytes().to_vec();
                sink.emit(&mut m, &t, &t);
            }
            assert_eq!(sink.matches(), 23);
            assert_eq!(sink.finish(), 23);
        }
        assert_eq!(batches, 4, "3 full + 1 tail batch");
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn batching_sink_empty() {
        let mut called = false;
        let sink = BatchingSink::new(4, |_| called = true);
        assert_eq!(sink.finish(), 0);
        assert!(!called, "no empty batches delivered");
    }

    #[test]
    fn output_prefetch_writer_equals_plain() {
        let bs = Schema::key_payload(8);
        let ps = Schema::key_payload(8);
        let mut m = phj_memsim::SimEngine::paper();
        let mut plain = OutputWriter::new(bs.clone(), ps.clone());
        let mut pf = OutputWriter::new(bs.clone(), ps.clone()).with_output_prefetch();
        for i in 0u32..500 {
            let t = i.to_le_bytes().repeat(2);
            plain.emit(&mut m, &t, &t);
            pf.emit(&mut m, &t, &t);
        }
        assert_eq!(plain.finish().to_tuple_vec(), pf.finish().to_tuple_vec());
    }

    #[test]
    fn output_writer_materializes() {
        let bs = Schema::key_payload(8);
        let ps = Schema::key_payload(12);
        let mut w = OutputWriter::new(bs.clone(), ps.clone());
        let mut m = NativeModel;
        let bt = [1u8; 8];
        let pt = [2u8; 12];
        for _ in 0..1000 {
            w.emit(&mut m, &bt, &pt);
        }
        assert_eq!(w.matches(), 1000);
        let rel = w.finish();
        assert_eq!(rel.num_tuples(), 1000);
        assert!(rel.num_pages() > 1);
        for (_, t, _) in rel.iter() {
            assert_eq!(t.len(), 20);
            assert_eq!(&t[..8], &bt);
            assert_eq!(&t[8..], &pt);
        }
    }
}
