//! The GRACE hash join driver: I/O partition phase + join phase.
//!
//! "The GRACE hash join algorithm begins by partitioning the two joining
//! relations such that each build partition and its hash table can fit
//! within memory; pairs of build and probe partitions are then joined
//! separately as in the simple algorithm." (§1) The paper uses GRACE as
//! the baseline because its two phases — (1) partitioning and (2) joining
//! with in-memory hash tables — are the common building blocks of all
//! hash join variants (§2).

use phj_memsim::MemoryModel;
use phj_obs::{self as obs, Recorder};
use phj_storage::Relation;

use crate::join::{join_pair, JoinParams, JoinScheme};
use crate::partition::{partition_relation_rec, PartitionScheme};
use crate::plan;
use crate::sink::{JoinSink, OutputWriter};

/// End-to-end GRACE configuration.
#[derive(Debug, Clone, Copy)]
pub struct GraceConfig {
    /// Join-phase memory budget: each build partition (and its hash
    /// table) must fit here. The paper's experiments use 50 MB (§7.1).
    pub mem_budget: usize,
    /// Partition-phase algorithm.
    pub partition_scheme: PartitionScheme,
    /// Join-phase algorithm.
    pub join_scheme: JoinScheme,
    /// Maximum concurrently active partitions per pass — "storage
    /// managers can handle only hundreds of active partitions per hash
    /// join" (§1.1, citing the IBM DB2 experience). Relations too large
    /// for one pass are partitioned **recursively**: each overweight
    /// partition pair is re-partitioned (reusing its stashed hash codes)
    /// in an additional pass, exactly the "additional passes through the
    /// data" the paper describes.
    pub max_active_partitions: usize,
}

impl Default for GraceConfig {
    fn default() -> Self {
        GraceConfig {
            mem_budget: 50 * 1024 * 1024,
            partition_scheme: PartitionScheme::combined_default(),
            join_scheme: JoinScheme::Group { g: 16 },
            max_active_partitions: 1000,
        }
    }
}

/// Summary of a GRACE run.
pub struct GraceResult {
    /// The materialized join output.
    pub output: Relation,
    /// Number of I/O partitions used.
    pub num_partitions: usize,
}

/// Run the full GRACE hash join, materializing the output.
pub fn grace_join<M: MemoryModel>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
) -> GraceResult {
    let mut sink = OutputWriter::new(build.schema().clone(), probe.schema().clone());
    let num_partitions = grace_join_with_sink(mem, cfg, build, probe, &mut sink);
    GraceResult { output: sink.finish(), num_partitions }
}

/// Run the full GRACE hash join into an arbitrary sink. Returns the
/// number of first-pass I/O partitions used.
pub fn grace_join_with_sink<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
) -> usize {
    grace_join_with_sink_rec(mem, cfg, build, probe, sink, None)
}

/// [`grace_join_with_sink`] with an optional span recorder. The whole
/// join becomes a `"grace_join"` span; each partitioning pass records a
/// `"partition_pass"` span (two nested `"partition"` spans, one per
/// relation) and each partition pair a `"pair"` span with nested
/// `"build"`/`"probe"` spans — the shape of the paper's phase breakdowns.
pub fn grace_join_with_sink_rec<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    mut rec: Option<&mut Recorder>,
) -> usize {
    let span = obs::span_begin(&mut rec, mem, "grace_join");
    obs::span_meta(&mut rec, "partition_scheme", cfg.partition_scheme.label());
    obs::span_meta(&mut rec, "join_scheme", cfg.join_scheme.label());
    let p = join_level(mem, cfg, build, probe, sink, 1, 0, false, rec.as_deref_mut());
    obs::span_end(&mut rec, mem, span);
    p
}

/// Join one partition pair produced by a `moduli`-way (product over
/// passes) partitioning, recursing into additional passes if the build
/// side still exceeds the memory budget.
///
/// This is the task a *parallel* join driver schedules per partition
/// pair: unlike [`grace_join_with_sink_rec`] it does not reset the moduli
/// to 1, so an oversized (skewed) pair re-partitions with fresh coprime
/// fan-out instead of degenerating. `index` labels the pair's `"pair"`
/// span so merged parallel reports keep per-partition skew attribution.
/// The pair's tuples must carry stashed hash codes (every
/// partition-phase output does).
#[allow(clippy::too_many_arguments)]
pub fn grace_join_pair<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    moduli: usize,
    index: usize,
    rec: Option<&mut Recorder>,
) -> usize {
    join_level(mem, cfg, build, probe, sink, moduli, index, true, rec)
}

/// One partitioning pass: split the pair, then join (or recurse into)
/// each sub-pair. `moduli` is the product of partition counts already
/// applied to these tuples' hash codes; `index` labels a directly-joined
/// pair's span; `use_stored` whether this level's input carries stashed
/// hash codes (true for every level but the first).
#[allow(clippy::too_many_arguments)]
fn join_level<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    moduli: usize,
    index: usize,
    use_stored: bool,
    mut rec: Option<&mut Recorder>,
) -> usize {
    assert!(cfg.max_active_partitions >= 2, "need at least two partitions per pass");
    let needed = plan::num_partitions(build.size_bytes(), cfg.mem_budget);
    if needed <= 1 {
        let params = JoinParams { scheme: cfg.join_scheme, use_stored_hash: use_stored };
        let span = obs::span_begin(&mut rec, mem, "pair");
        obs::span_meta(&mut rec, "index", index);
        join_pair(mem, &params, build, probe, moduli, sink, rec.as_deref_mut());
        obs::span_end(&mut rec, mem, span);
        return 1;
    }
    let p = plan::coprime_partitions(needed.min(cfg.max_active_partitions), moduli);
    let pass = obs::span_begin(&mut rec, mem, "partition_pass");
    obs::span_meta(&mut rec, "fanout", p);
    obs::span_meta(&mut rec, "moduli", moduli);
    let build_parts =
        partition_relation_rec(mem, cfg.partition_scheme, build, p, use_stored, rec.as_deref_mut());
    let probe_parts =
        partition_relation_rec(mem, cfg.partition_scheme, probe, p, use_stored, rec.as_deref_mut());
    obs::span_end(&mut rec, mem, pass);
    for (i, (bp, pp)) in build_parts.iter().zip(&probe_parts).enumerate() {
        // A pair that fits the budget joins directly; one that still exceeds
        // memory (cap hit, or skew) takes an additional pass over it (§1.1).
        join_level(mem, cfg, bp, pp, sink, moduli * p, i, true, rec.as_deref_mut());
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn grace_multi_partition_end_to_end() {
        // Tiny memory budget forces several partitions.
        let build_keys: Vec<u32> = (0..2000).collect();
        let probe_keys: Vec<u32> = (1000..3000).collect();
        let build = rel(&build_keys, 40);
        let probe = rel(&probe_keys, 40);
        let cfg = GraceConfig {
            mem_budget: 16 * 1024,
            ..Default::default()
        };
        let mut mem = NativeModel;
        let res = grace_join(&mut mem, &cfg, &build, &probe);
        assert!(res.num_partitions > 1, "expected multiple partitions");
        assert_eq!(res.output.num_tuples(), 1000);
        // Output tuples carry build then probe fields.
        for (_, t, _) in res.output.iter() {
            assert_eq!(t.len(), 80);
            let bk = u32::from_le_bytes(t[..4].try_into().unwrap());
            let pk = u32::from_le_bytes(t[40..44].try_into().unwrap());
            assert_eq!(bk, pk);
            assert!((1000..2000).contains(&bk));
        }
    }

    #[test]
    fn recursive_partitioning_when_capped() {
        // Cap at 2 active partitions with a tiny budget: forces several
        // recursive passes, and the result must still be exact.
        let keys: Vec<u32> = (0..4000).collect();
        let build = rel(&keys, 24);
        let probe = rel(&keys, 24);
        let capped = GraceConfig {
            mem_budget: 8 * 1024,
            max_active_partitions: 2,
            ..Default::default()
        };
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        let p = grace_join_with_sink(&mut mem, &capped, &build, &probe, &mut sink);
        assert_eq!(p, 2, "first pass capped");
        assert_eq!(sink.matches(), 4000);
        // Same answer as the single-pass configuration.
        let mut single = CountSink::new();
        let uncapped = GraceConfig { mem_budget: 8 * 1024, ..Default::default() };
        grace_join_with_sink(&mut mem, &uncapped, &build, &probe, &mut single);
        assert_eq!(sink, single);
    }

    #[test]
    fn all_scheme_combinations_agree() {
        let build_keys: Vec<u32> = (0..500).collect();
        let probe_keys: Vec<u32> = (250..750).map(|k| k % 600).collect();
        let build = rel(&build_keys, 32);
        let probe = rel(&probe_keys, 32);
        let want = crate::join::tests::reference(&build, &probe);
        for ps in [
            PartitionScheme::Baseline,
            PartitionScheme::Simple,
            PartitionScheme::Group { g: 8 },
            PartitionScheme::Swp { d: 2 },
        ] {
            for js in [
                JoinScheme::Baseline,
                JoinScheme::Simple,
                JoinScheme::Group { g: 11 },
                JoinScheme::Swp { d: 1 },
            ] {
                let cfg = GraceConfig {
                    mem_budget: 8 * 1024,
                    partition_scheme: ps,
                    join_scheme: js,
                    ..Default::default()
                };
                let mut mem = NativeModel;
                let mut sink = CountSink::new();
                grace_join_with_sink(&mut mem, &cfg, &build, &probe, &mut sink);
                assert_eq!(sink, want, "{} + {}", ps.label(), js.label());
            }
        }
        assert!(want.matches() > 0);
    }
}
