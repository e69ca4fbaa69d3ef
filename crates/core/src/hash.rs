//! Hashing: the join-key hash function and hash-code arithmetic.
//!
//! Per §7.1 of the paper: "A simple XOR and shift based hash function is
//! used to convert join keys of any length to 4-byte hash codes. [...]
//! Partition numbers in the partition phase are the hash codes modulo the
//! total number of partitions. Hash bucket numbers in the join phase are
//! the hash codes modulo the hash table size. Our algorithms ensure that
//! the hash table size is a relative prime to the number of partitions."

/// Compute the 4-byte hash code of a join key of any length.
///
/// XOR-and-shift over 4-byte words (with a tail fold), followed by an
/// avalanche so that low-entropy keys still spread across both partition
/// numbers and bucket numbers.
#[inline]
pub fn hash_key(key: &[u8]) -> u32 {
    let mut h: u32 = 0x9E37_79B9;
    let mut chunks = key.chunks_exact(4);
    for c in &mut chunks {
        let w = u32::from_le_bytes(c.try_into().unwrap());
        h ^= w;
        h = h.rotate_left(13).wrapping_mul(5).wrapping_add(0xE654_6B64);
    }
    for &b in chunks.remainder() {
        h ^= b as u32;
        h = h.rotate_left(7).wrapping_mul(0x85EB_CA6B);
    }
    // Final avalanche (xorshift-multiply).
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// A divisor with its multiply-shift constant: [`Modulus::of`] returns
/// exactly `hash % n` for every `u32` hash without a division
/// (Lemire, Kaser & Kurz, "Faster Remainder by Direct Computation",
/// 2019: with `m = ⌈2^64 / n⌉`, `hash % n` is the high word of
/// `(m · hash mod 2^64) · n` for every 32-bit `hash` and `n`). Tables
/// and partition buffers compute it once for their size, so the
/// per-tuple bucket and partition numbers cost two multiplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Modulus {
    /// `⌈2^64 / n⌉`, wrapped: 0 for `n = 1`, where every remainder is 0.
    m: u64,
    n: u32,
}

impl Modulus {
    /// The modulus for divisor `n`.
    ///
    /// # Panics
    /// Panics unless `1 <= n <= u32::MAX`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "modulus of zero");
        let n = u32::try_from(n).expect("divisor exceeds u32::MAX");
        Modulus { m: (u64::MAX / n as u64).wrapping_add(1), n }
    }

    /// `hash % n`.
    #[inline]
    pub(crate) fn of(self, hash: u32) -> usize {
        let low = self.m.wrapping_mul(hash as u64);
        ((low as u128 * self.n as u128) >> 64) as usize
    }
}

/// Partition number of a hash code (partition phase): the hash code
/// modulo the number of partitions. A one-off form; partition passes
/// hold a `Modulus` for their fan-out.
#[inline]
pub fn partition_of(hash: u32, num_partitions: usize) -> usize {
    Modulus::new(num_partitions).of(hash)
}

/// Bucket number of a hash code (join phase): the hash code modulo the
/// hash table size. A one-off form; tables hold a `Modulus` for their
/// size.
#[inline]
pub fn bucket_of(hash: u32, num_buckets: usize) -> usize {
    Modulus::new(num_buckets).of(hash)
}

/// Greatest common divisor (for the relative-primality constraint between
/// hash table size and partition count).
pub fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_key(b"abcd"), hash_key(b"abcd"));
        assert_ne!(hash_key(b"abcd"), hash_key(b"abce"));
    }

    #[test]
    fn handles_any_length() {
        // Keys of length 0..16 all hash without panicking and differ from
        // their neighbours (not a collision guarantee; a smoke check).
        let keys: Vec<Vec<u8>> = (0..16usize).map(|n| vec![7u8; n]).collect();
        let hashes: Vec<u32> = keys.iter().map(|k| hash_key(k)).collect();
        for i in 1..hashes.len() {
            assert_ne!(hashes[i - 1], hashes[i], "len {} vs {}", i - 1, i);
        }
    }

    #[test]
    fn spreads_sequential_u32_keys() {
        // Sequential keys must spread over both partitions and buckets:
        // no partition should get more than 3x its fair share.
        let n = 10_000u32;
        let parts = 31usize;
        let mut counts = vec![0usize; parts];
        for k in 0..n {
            counts[partition_of(hash_key(&k.to_le_bytes()), parts)] += 1;
        }
        let fair = n as usize / parts;
        for (p, &c) in counts.iter().enumerate() {
            assert!(c < fair * 3, "partition {p} got {c} of fair {fair}");
            assert!(c > fair / 3, "partition {p} got {c} of fair {fair}");
        }
    }

    #[test]
    fn bucket_and_partition_are_moduli() {
        let h = 1_000_000_007u32;
        assert_eq!(partition_of(h, 800), (h as usize) % 800);
        assert_eq!(bucket_of(h, 499_979), (h as usize) % 499_979);
    }

    /// A seeded sample of hash codes: both ends, the values around every
    /// power of two, and splitmix64 draws.
    fn sample_hashes() -> Vec<u32> {
        let mut v = vec![0, 1, u32::MAX, u32::MAX - 1];
        for b in 1..32 {
            let p = 1u32 << b;
            v.extend([p - 1, p, p + 1]);
        }
        let mut x = 0x5EED_u64;
        for _ in 0..200 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            v.push((z ^ (z >> 31)) as u32);
        }
        v
    }

    #[test]
    fn modulus_equals_remainder() {
        let hashes = sample_hashes();
        let divisors = (1..=4096usize).chain([(1 << 31) - 1, 1 << 31, u32::MAX as usize]);
        for n in divisors {
            let m = Modulus::new(n);
            for &h in &hashes {
                // The remainder is the test's reference, not the code's.
                assert_eq!(m.of(h), h as usize % n, "{h} mod {n}");
            }
        }
    }

    #[test]
    fn modulus_by_one_is_zero_without_a_special_case() {
        let m = Modulus::new(1);
        assert_eq!(m.m, 0, "the wrapped constant does the work");
        for h in sample_hashes() {
            assert_eq!(m.of(h), 0);
        }
    }

    #[test]
    fn coprime_fanout_splits_a_partition() {
        // Keys stuck in one partition of a first pass must spread evenly
        // over a coprime second-level fan-out of the same hash code — the
        // property recursive repartitioning on stashed codes depends on.
        let (parts, sub) = (8usize, 9usize);
        let stuck: Vec<u32> = (0..40_000u32)
            .map(|k| hash_key(&k.to_le_bytes()))
            .filter(|&h| partition_of(h, parts) == 3)
            .collect();
        assert!(stuck.len() > 1_000);
        let mut counts = vec![0usize; sub];
        for &h in &stuck {
            counts[partition_of(h, sub)] += 1;
        }
        let fair = stuck.len() / sub;
        for (p, &c) in counts.iter().enumerate() {
            assert!(c < fair * 3, "sub-partition {p} got {c} of fair {fair}");
            assert!(c > fair / 3, "sub-partition {p} got {c} of fair {fair}");
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 31), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(48, 36), 12);
    }
}
