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

/// Partition number of a hash code (partition phase).
#[inline]
pub fn partition_of(hash: u32, num_partitions: usize) -> usize {
    debug_assert!(num_partitions > 0);
    hash as usize % num_partitions
}

/// Bucket number of a hash code (join phase).
#[inline]
pub fn bucket_of(hash: u32, num_buckets: usize) -> usize {
    debug_assert!(num_buckets > 0);
    hash as usize % num_buckets
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
