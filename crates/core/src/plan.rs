//! Planning: partition counts and hash-table sizing.
//!
//! The engine keeps "schemas and statistics in separate description files
//! [...] which are used by the hash join algorithms to compute numbers of
//! partitions and hash table sizes" (§7.1). Here the statistics come from
//! the in-memory relations directly.
//!
//! It is also where §7.4's combined scheme reads the cache size: "we
//! choose the prefetching algorithm based on the cache size and the
//! number of partitions". Prefetching only pays when a phase's working
//! set misses the cache, so both phases fall back to simple prefetching
//! when theirs fits [`L2_BYTES`]: the partition phase when its output
//! buffers do ([`crate::partition::PartitionScheme::combined_default`]),
//! the join phase when a pair's build pages and hash table do
//! ([`crate::join::JoinScheme::for_pair`]).

use phj_storage::PAGE_SIZE;

use crate::hash::gcd;
use crate::table::HashTable;

/// The L2 capacity of the paper's simulated machine (Table 2: 1 MB), the
/// one cache size the combined scheme's switch points derive from. A
/// constant until the host's own geometry can supply it.
pub const L2_BYTES: usize = 1 << 20;

/// Output buffers up to which the partition phase runs simple
/// prefetching: the L2 holds [`L2_BYTES`] / 8 KB = 128 pages, and half of
/// it goes to output buffers (the rest streams input and holds metadata),
/// which is where the simulated Fig-14 curves cross.
pub const CACHED_OUTPUT_BUFFERS: usize = L2_BYTES / PAGE_SIZE / 2;

/// Bytes a pair's join phase works in: its `build_pages` of build
/// partition plus the hash table over its `build_tuples` tuples, whose
/// [`hash_table_buckets`] come to about one bucket header per tuple.
pub fn join_working_set(build_pages: usize, build_tuples: usize) -> usize {
    build_pages * PAGE_SIZE + build_tuples * HashTable::header_len()
}

/// Number of I/O partitions so that each build partition (plus slack for
/// its hash table) fits in `mem_budget` bytes of join-phase memory.
///
/// The paper's experiments make a build partition "fit tightly in the
/// 50 MB memory", so the default slack is none: partitions are sized to
/// the budget.
pub fn num_partitions(build_bytes: usize, mem_budget: usize) -> usize {
    assert!(mem_budget > 0);
    build_bytes.div_ceil(mem_budget).max(1)
}

/// Partition fan-out for a (dynamic) hybrid hash join. Unlike
/// [`num_partitions`] — which sizes partitions to exactly fill the
/// budget, so *zero* of them can stay resident alongside the join-phase
/// working space — hybrid partitions are sized to roughly a quarter of
/// the budget: several fit in memory at once, and spilling one victim
/// under pressure frees a useful fraction of the budget instead of all
/// of it. Never coarser than the GRACE fan-out (each partition must
/// still fit the budget alone for the join phase to load it), and never
/// more than a few partitions finer: when the budget is a small
/// fraction of the build, residency can only ever hold a sliver, and
/// paying GRACE's per-pair join overhead 4x over would put the hybrid
/// *above* the static GRACE robustness curve exactly where memory is
/// tightest.
pub fn hybrid_fanout(build_bytes: usize, mem_budget: usize) -> usize {
    assert!(mem_budget > 0);
    let grace = num_partitions(build_bytes, mem_budget);
    let fine = num_partitions(build_bytes, (mem_budget / 4).max(1));
    fine.min(grace + 4).max(grace)
}

/// Bytes a hybrid join holds back from partition residency: working
/// space for the spilled-pair join phase and the per-partition probe
/// batch buffers. A quarter of the budget — one partition target's
/// worth under [`hybrid_fanout`] sizing.
pub fn hybrid_reserve(mem_budget: usize) -> usize {
    (mem_budget / 4).max(1)
}

/// Hash-table bucket count for a build partition of `ntuples` tuples:
/// approximately one bucket per tuple (load factor ~1), adjusted upward
/// until it is **relatively prime to the number of partitions** — since
/// both the partition number and the bucket number are moduli of the same
/// hash code (§7.1), a shared factor would leave most buckets of a
/// partition's table unused.
pub fn hash_table_buckets(ntuples: usize, num_partitions: usize) -> usize {
    let mut n = ntuples.max(1);
    while gcd(n, num_partitions.max(1)) != 1 {
        n += 1;
    }
    n
}

/// Smallest partition count ≥ `needed` that is relatively prime to the
/// product of the moduli already applied to these tuples' hash codes.
/// Recursive (multi-pass) partitioning reuses the same hash code at every
/// level (§7.1), so a level sharing a factor with an earlier level would
/// leave some of its partitions empty and others doubled.
pub fn coprime_partitions(needed: usize, prior_moduli: usize) -> usize {
    let mut p = needed.max(2);
    while gcd(p, prior_moduli.max(1)) != 1 {
        p += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{bucket_of, partition_of};

    #[test]
    fn partition_count_covers_relation() {
        assert_eq!(num_partitions(100, 50), 2);
        assert_eq!(num_partitions(101, 50), 3);
        assert_eq!(num_partitions(1, 50), 1);
        assert_eq!(num_partitions(0, 50), 1);
        // Paper Fig 9: 1.5 GB build with ~50 MB memory → 31 partitions.
        let gb = 1024 * 1024 * 1024;
        let p = num_partitions(3 * gb / 2, 50 * 1024 * 1024);
        assert_eq!(p, 31);
    }

    #[test]
    fn table_size_coprime_to_partitions() {
        let n = hash_table_buckets(500_000, 800);
        assert_eq!(gcd(n, 800), 1);
        assert!(n >= 500_000);
        assert!(n < 500_010, "adjustment should be small");
    }

    #[test]
    fn coprime_matters_for_coverage() {
        // With the same hash used for partitioning and bucketing, a table
        // size sharing a factor g with the partition count would use only
        // 1/g of its buckets. Verify our sizing avoids that.
        let nparts = 8;
        let nbuckets = hash_table_buckets(64, nparts);
        assert_eq!(gcd(nbuckets, nparts), 1);
        // All residues mod nbuckets are reachable from hashes ≡ 3 mod 8:
        // check a decent sample hits > 90% of buckets.
        let mut hit = vec![false; nbuckets];
        let mut h: u64 = 3;
        for _ in 0..nbuckets * 64 {
            hit[bucket_of(h as u32, nbuckets)] = true;
            h += nparts as u64; // stays ≡ 3 mod 8
            h &= 0xFFFF_FFFF;
        }
        let covered = hit.iter().filter(|&&b| b).count();
        assert!(covered * 10 > nbuckets * 9, "covered {covered}/{nbuckets}");
        // Sanity: partition_of is stable for those hashes.
        assert_eq!(partition_of(3, nparts), 3);
    }

    #[test]
    fn coprime_partition_levels() {
        assert_eq!(coprime_partitions(8, 1), 8);
        // Level 2 after an 8-way level 1: 8,9 → 9 is coprime.
        assert_eq!(coprime_partitions(8, 8), 9);
        assert_eq!(coprime_partitions(6, 15), 7);
        assert_eq!(gcd(coprime_partitions(100, 360), 360), 1);
    }

    #[test]
    fn hybrid_fanout_is_finer_than_grace_and_leaves_reserve() {
        // 100 MB build, 50 MB budget: GRACE says 2 partitions of 50 MB
        // (none can stay resident); hybrid caps the finer sweep at
        // GRACE + 4 — 6 partitions of ~16.7 MB, two of which fit beside
        // the reserve.
        let mb = 1 << 20;
        assert_eq!(num_partitions(100 * mb, 50 * mb), 2);
        assert_eq!(hybrid_fanout(100 * mb, 50 * mb), 6);
        assert_eq!(hybrid_reserve(50 * mb), 50 * mb / 4);
        // Modest build: quarter-budget partitions, uncapped.
        assert_eq!(hybrid_fanout(50 * mb, 50 * mb), 4);
        // Tiny build: one partition, fully resident.
        assert_eq!(hybrid_fanout(mb / 8, mb), 1);
        // Hybrid is never coarser than GRACE, never finer than GRACE + 4.
        for (build, budget) in [(7, 3), (1000, 1), (64 * mb, 3 * mb)] {
            let g = num_partitions(build, budget);
            assert!(hybrid_fanout(build, budget) >= g);
            assert!(hybrid_fanout(build, budget) <= g + 4);
        }
    }

    #[test]
    fn cache_switch_points_derive_from_the_l2() {
        assert_eq!(CACHED_OUTPUT_BUFFERS, 64);
        // 32-byte bucket headers: 27 pages of 2 000 100-byte tuples plus
        // their table is ~280 KB; 80 pages of 6 000 is ~840 KB.
        assert_eq!(join_working_set(27, 2000), 27 * PAGE_SIZE + 2000 * 32);
        assert!(join_working_set(80, 6000) <= L2_BYTES);
        assert!(join_working_set(128, 1) > L2_BYTES);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(hash_table_buckets(0, 4), 1);
        assert_eq!(hash_table_buckets(5, 1), 5);
    }
}
