//! Cache partitioning comparators (§7.5 of the paper).
//!
//! Cache partitioning "generates cache-sized build partitions so that
//! every build partition and its hash table can fit in cache and cache
//! misses in the join phase can be greatly reduced". The paper implements
//! two disk-oriented variants and compares both against its prefetching
//! schemes:
//!
//! * **direct cache** — the I/O partition phase directly produces
//!   cache-sized partitions. Limited by how many concurrently active
//!   partitions a storage manager can handle (hundreds, per the IBM DB2
//!   experience the paper cites — beyond ~1 GB relations it stops
//!   applying);
//! * **two-step cache** — the I/O partition phase produces memory-sized
//!   partitions, which are then re-partitioned *in memory* into
//!   cache-sized chunks as a preprocessing step of the join phase. The
//!   extra copying pass is why the paper measures it 50–150% slower than
//!   the prefetching schemes.
//!
//! Per §7.5, the I/O partition phase of every scheme uses the combined
//! prefetching scheme, and the cache-partitioned joins are enhanced with
//! (simple) prefetching wherever possible.

use phj_memsim::MemoryModel;
use phj_storage::Relation;

use crate::join::{join_pair, JoinParams, JoinScheme};
use crate::partition::{partition_relation, PartitionScheme};
use crate::plan;
use crate::sink::JoinSink;

/// Cache-partitioning configuration.
#[derive(Debug, Clone, Copy)]
pub struct CachePartConfig {
    /// Bytes of tuple data per cache-sized build partition. The partition
    /// plus its hash table (~45% overhead at 100 B tuples) must stay
    /// resident in the 1 MB L2 *while the probe stream and output buffers
    /// also flow through it* — empirically that caps useful residency
    /// near 256 KB of tuple data (≈ 630 KB total footprint). Larger
    /// budgets thrash and forfeit the scheme's advantage.
    pub cache_budget: usize,
    /// Join-phase memory (bounds the two-step scheme's first pass; same
    /// meaning as [`crate::grace::GraceConfig::mem_budget`]).
    pub mem_budget: usize,
    /// I/O partition scheme ("the I/O partition phases of all schemes use
    /// the combined prefetching scheme", §7.5).
    pub io_partition_scheme: PartitionScheme,
    /// In-memory re-partition scheme for the two-step variant's second
    /// pass.
    pub mem_partition_scheme: PartitionScheme,
    /// Join scheme for the cache-resident joins ("we employ prefetching in
    /// the join phase to enhance the cache partitioning schemes wherever
    /// possible", §7.5): simple input-page prefetching. Cache partitioning
    /// exists to make staged prefetching unnecessary — its hash table is
    /// cache-resident — which is also exactly why it is fragile when the
    /// cache is flushed (Fig 18): nothing re-covers the evicted lines.
    pub join_scheme: JoinScheme,
    /// Upper bound on concurrently active partitions the storage manager
    /// tolerates (the paper quotes "hundreds", optimistically 1000).
    pub max_io_partitions: usize,
}

impl Default for CachePartConfig {
    fn default() -> Self {
        CachePartConfig {
            cache_budget: 256 * 1024,
            mem_budget: 50 * 1024 * 1024,
            io_partition_scheme: PartitionScheme::combined_default(),
            mem_partition_scheme: PartitionScheme::combined_default(),
            join_scheme: JoinScheme::Simple,
            max_io_partitions: 1000,
        }
    }
}

/// Error returned when "direct cache" cannot apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooManyPartitions {
    /// Partitions the relation would need.
    pub needed: usize,
    /// What the storage manager tolerates.
    pub max: usize,
}

impl std::fmt::Display for TooManyPartitions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "direct cache partitioning needs {} active partitions, storage manager handles {}",
            self.needed, self.max
        )
    }
}

impl std::error::Error for TooManyPartitions {}

/// **Direct cache**, partition phase: split both relations straight into
/// cache-sized partitions. Fails when the partition count exceeds what
/// the storage manager can keep active (the paper's hard ~1 GB limit).
pub fn direct_cache_partition<M: MemoryModel>(
    mem: &mut M,
    cfg: &CachePartConfig,
    build: &Relation,
    probe: &Relation,
) -> Result<(Vec<Relation>, Vec<Relation>, usize), TooManyPartitions> {
    let p = plan::num_partitions(build.size_bytes(), cfg.cache_budget);
    if p > cfg.max_io_partitions {
        return Err(TooManyPartitions { needed: p, max: cfg.max_io_partitions });
    }
    let bp = partition_relation(mem, cfg.io_partition_scheme, build, p, false);
    let pp = partition_relation(mem, cfg.io_partition_scheme, probe, p, false);
    Ok((bp, pp, p))
}

/// **Direct cache**, join phase: join each cache-resident pair.
pub fn direct_cache_join<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &CachePartConfig,
    build_parts: &[Relation],
    probe_parts: &[Relation],
    num_partitions: usize,
    sink: &mut S,
) {
    let params = JoinParams { scheme: cfg.join_scheme, use_stored_hash: true };
    for (bp, pp) in build_parts.iter().zip(probe_parts) {
        join_pair(mem, &params, bp, pp, num_partitions, sink, None);
    }
}

/// **Two-step cache**, partition phase: memory-sized I/O partitions (same
/// as GRACE).
pub fn two_step_partition<M: MemoryModel>(
    mem: &mut M,
    cfg: &CachePartConfig,
    build: &Relation,
    probe: &Relation,
) -> (Vec<Relation>, Vec<Relation>, usize) {
    let p = plan::num_partitions(build.size_bytes(), cfg.mem_budget);
    let bp = partition_relation(mem, cfg.io_partition_scheme, build, p, false);
    let pp = partition_relation(mem, cfg.io_partition_scheme, probe, p, false);
    (bp, pp, p)
}

/// **Two-step cache**, join phase: re-partition each memory-sized pair
/// into cache-sized sub-partitions in memory (the extra copying pass,
/// counted as join-phase time per §7.5), then join the sub-pairs.
pub fn two_step_join<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &CachePartConfig,
    build_parts: &[Relation],
    probe_parts: &[Relation],
    num_io_partitions: usize,
    sink: &mut S,
) {
    let params = JoinParams { scheme: cfg.join_scheme, use_stored_hash: true };
    for (bp, pp) in build_parts.iter().zip(probe_parts) {
        let pc = plan::num_partitions(bp.size_bytes(), cfg.cache_budget);
        if pc <= 1 {
            join_pair(mem, &params, bp, pp, num_io_partitions, sink, None);
            continue;
        }
        // Second partition pass: intermediate partitions carry stashed
        // hash codes, so the re-partition reuses them.
        let sub_b = partition_relation(mem, cfg.mem_partition_scheme, bp, pc, true);
        let sub_p = partition_relation(mem, cfg.mem_partition_scheme, pp, pc, true);
        for (sb, sp) in sub_b.iter().zip(&sub_p) {
            // Bucket count must be coprime to *both* moduli applied so
            // far; the product covers both.
            join_pair(mem, &params, sb, sp, num_io_partitions * pc, sink, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grace::{grace_join_with_sink, GraceConfig};
    use crate::sink::CountSink;
    use phj_memsim::NativeModel;
    use phj_storage::{RelationBuilder, Schema};

    fn rel(keys: &[u32], size: usize) -> Relation {
        let schema = Schema::key_payload(size);
        let mut b = RelationBuilder::new(schema);
        let mut t = vec![0u8; size];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push(&t);
        }
        b.finish()
    }

    fn small_cfg() -> CachePartConfig {
        CachePartConfig {
            cache_budget: 8 * 1024,
            mem_budget: 32 * 1024,
            ..Default::default()
        }
    }

    fn reference(build: &Relation, probe: &Relation) -> CountSink {
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        grace_join_with_sink(
            &mut mem,
            &GraceConfig { mem_budget: 32 * 1024, ..Default::default() },
            build,
            probe,
            &mut sink,
        );
        sink
    }

    #[test]
    fn direct_cache_agrees_with_grace() {
        let build = rel(&(0..3000).collect::<Vec<_>>(), 24);
        let probe = rel(&(1500..4500).collect::<Vec<_>>(), 24);
        let mut mem = NativeModel;
        let cfg = small_cfg();
        let (bp, pp, p) = direct_cache_partition(&mut mem, &cfg, &build, &probe).unwrap();
        assert!(p > 4, "cache-sized partitions should be many, got {p}");
        let mut sink = CountSink::new();
        direct_cache_join(&mut mem, &cfg, &bp, &pp, p, &mut sink);
        assert_eq!(sink, reference(&build, &probe));
    }

    #[test]
    fn two_step_agrees_with_grace() {
        let build = rel(&(0..3000).collect::<Vec<_>>(), 24);
        let probe = rel(&(1500..4500).collect::<Vec<_>>(), 24);
        let mut mem = NativeModel;
        let cfg = small_cfg();
        let (bp, pp, p) = two_step_partition(&mut mem, &cfg, &build, &probe);
        assert!(p > 1);
        let mut sink = CountSink::new();
        two_step_join(&mut mem, &cfg, &bp, &pp, p, &mut sink);
        assert_eq!(sink, reference(&build, &probe));
    }

    #[test]
    fn direct_cache_respects_partition_limit() {
        let build = rel(&(0..2000).collect::<Vec<_>>(), 100);
        let probe = rel(&(0..2000).collect::<Vec<_>>(), 100);
        let cfg = CachePartConfig {
            cache_budget: 8 * 1024,
            max_io_partitions: 3,
            ..Default::default()
        };
        let mut mem = NativeModel;
        let err = match direct_cache_partition(&mut mem, &cfg, &build, &probe) {
            Err(e) => e,
            Ok(_) => panic!("expected TooManyPartitions"),
        };
        assert!(err.needed > 3);
        assert_eq!(err.max, 3);
    }
}
