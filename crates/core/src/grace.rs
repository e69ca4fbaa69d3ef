//! The GRACE hash join driver: I/O partition phase + join phase, its
//! hybrid variant with partition 0 resident, and the overflow ladder every
//! driver joins its partition pairs through.
//!
//! "The GRACE hash join algorithm begins by partitioning the two joining
//! relations such that each build partition and its hash table can fit
//! within memory; pairs of build and probe partitions are then joined
//! separately as in the simple algorithm." (§1) The paper uses GRACE as
//! the baseline because its two phases — (1) partitioning and (2) joining
//! with in-memory hash tables — are the common building blocks of all
//! hash join variants (§2). [`hybrid_join`] is the classic variant on the
//! same blocks: GRACE's fan-out, but partition 0 never leaves memory.
//!
//! **Overflow ladder.** A build partition may still exceed the memory
//! budget after its pass: the `max_active_partitions` cap, skew, or an
//! under-estimated partition count. [`Ladder::join`] is the one rule for
//! such a pair, whichever driver produced it — the sequential and the
//! parallel in-memory joins, and the disk join's spilled pairs (a
//! [`PairStore`] says where a pair's pages live):
//!
//! 1. join the pair if the build partition fits the budget — under simple
//!    prefetching when its working set fits the cache
//!    ([`JoinScheme::for_pair`]), else under the configured scheme;
//! 2. otherwise repartition both sides on the stashed hash codes through
//!    the partition program, with a fan-out coprime to the moduli already
//!    applied ([`plan::coprime_partitions`]) — at any depth, as long as
//!    every build sub-partition is smaller than the partition it came from;
//! 3. otherwise join in budget-sized build chunks, streaming the probe
//!    side past each chunk (each chunk's scheme picked as in step 1).
//!
//! The rule has no knobs: each repartitioning level strictly shrinks the
//! pages left to split, so the ladder always ends in a join. Steps 2 and
//! 3 leave a [`DegradationEvent`] each.

use std::borrow::Cow;
use std::ops::Range;

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::{Relation, PAGE_SIZE};

use crate::join::program::{Build, Probe};
use crate::join::{join_pair, JoinParams, JoinScheme};
use crate::partition::program::{Fused, Partition};
use crate::partition::{OutputBuffers, PartitionScheme, PartitionStore};
use crate::plan;
use crate::profile;
use crate::sink::{JoinSink, OutputWriter};
use crate::stage;
use crate::table::HashTable;

/// End-to-end GRACE configuration.
#[derive(Debug, Clone, Copy)]
pub struct GraceConfig {
    /// Join-phase memory budget: each build partition (and its hash
    /// table) must fit here. The paper's experiments use 50 MB (§7.1).
    pub mem_budget: usize,
    /// Partition-phase algorithm.
    pub partition_scheme: PartitionScheme,
    /// Join-phase algorithm. A staged scheme joins only the pairs whose
    /// working set misses the cache; the rest run simple prefetching
    /// ([`JoinScheme::for_pair`]). The hybrid's fused passes run it as
    /// given.
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

impl GraceConfig {
    /// The overflow ladder of the in-memory drivers: the budget and the
    /// fan-out cap.
    fn ladder<'s, S>(&self, sink: &'s mut S) -> Ladder<'s, InMemory, S> {
        assert!(self.max_active_partitions >= 2, "need at least two partitions per pass");
        Ladder {
            budget: self.mem_budget as u64,
            max_fanout: self.max_active_partitions,
            partition_scheme: self.partition_scheme,
            join_scheme: self.join_scheme,
            store: InMemory,
            sink,
            events: Vec::new(),
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
    let p = cfg.ladder(sink).join(mem, build, probe, 1, &mut Vec::new(), &mut rec);
    obs::span_end(&mut rec, mem, span);
    p.unwrap_or_else(|never| match never {})
}

/// Join one partition pair produced by a `moduli`-way (product over
/// passes) partitioning through the overflow ladder.
///
/// This is the task a *parallel* join driver schedules per partition
/// pair: an oversized (skewed) pair re-partitions with fan-out coprime
/// to `moduli`, or joins in chunks when that cannot shrink it. `index`
/// labels the pair's `"pair"` span so merged parallel reports keep
/// per-partition skew attribution. The pair's tuples must carry stashed
/// hash codes (every partition-phase output does).
#[allow(clippy::too_many_arguments)]
pub fn grace_join_pair<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    moduli: usize,
    index: usize,
    mut rec: Option<&mut Recorder>,
) -> usize {
    let p = cfg.ladder(sink).join(mem, build, probe, moduli, &mut vec![index], &mut rec);
    p.unwrap_or_else(|never| match never {})
}

/// Run the hybrid hash join: the GRACE pipeline with partition 0 resident.
///
/// §2: "many refinements of \[GRACE\] have been proposed for the sake of
/// avoiding I/O by keeping as many intermediate partitions in memory as
/// possible [...] our techniques should be directly applicable to the
/// other hash join algorithms." Partition 0 is never written out: its
/// build tuples go straight into a hash table during the build-side
/// partition pass, and its probe tuples are joined on the fly during the
/// probe-side pass. Both passes are one [`Fused`] stage program under
/// `cfg.join_scheme`'s schedule. The fan-out is GRACE's first pass
/// ([`plan::num_partitions`] capped by `max_active_partitions`), and every
/// spilled pair joins through the overflow ladder ([`grace_join_pair`]).
///
/// Returns the number of partitions (including partition 0). With a span
/// recorder, the two fused passes and each spilled pair get their own
/// spans under a `"hybrid_join"` root.
pub fn hybrid_join<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
    mut rec: Option<&mut Recorder>,
) -> usize {
    let schedule = cfg.join_scheme.schedule();
    let p = plan::num_partitions(build.size_bytes(), cfg.mem_budget).min(cfg.max_active_partitions);
    let whole = obs::span_begin(&mut rec, mem, "hybrid_join");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "schedule", cfg.join_scheme.label());

    // Pass 1: partition the build side, building partition 0's table on
    // the fly. Its buckets are sized for a 1/p share, its arena for the
    // whole build side (a dominant key may land every tuple in it): the
    // arena must never reallocate behind registered addresses.
    let pass1 = obs::span_begin(&mut rec, mem, "hybrid_build_pass");
    obs::span_meta(&mut rec, "tuples", build.num_tuples());
    let buckets = plan::hash_table_buckets(build.num_tuples() / p + 1, p);
    let mut table = HashTable::new(buckets, build.num_tuples());
    let mut build_out = OutputBuffers::new(build, p);
    profile::register_table(mem, &table);
    profile::register_relation(mem, RegionKind::BuildTuples, build);
    build_out.register_regions(mem);
    let mut pass = Fused {
        table: Build::new(&mut table, build, false),
        part: Partition::new(build, &mut build_out, false),
    };
    stage::run(schedule, mem, &mut pass, build, 0..build.num_pages());
    let build_parts = build_out.finish();
    table.assert_quiescent();
    obs::span_end(&mut rec, mem, pass1);
    mem.region_clear(RegionKind::PartitionBuffers);

    // Pass 2: partition the probe side, probing partition 0 on the fly.
    let pass2 = obs::span_begin(&mut rec, mem, "hybrid_probe_pass");
    obs::span_meta(&mut rec, "tuples", probe.num_tuples());
    let mut probe_out = OutputBuffers::new(probe, p);
    profile::register_relation(mem, RegionKind::ProbeTuples, probe);
    probe_out.register_regions(mem);
    let mut pass = Fused {
        table: Probe::new(&table, build, probe, false, sink),
        part: Partition::new(probe, &mut probe_out, false),
    };
    stage::run(schedule, mem, &mut pass, probe, 0..probe.num_pages());
    let probe_parts = probe_out.finish();
    obs::span_end(&mut rec, mem, pass2);
    mem.region_clear(RegionKind::PartitionBuffers);
    profile::clear_join_regions(mem);

    for (i, (b, pr)) in build_parts.iter().zip(&probe_parts).enumerate().skip(1) {
        grace_join_pair(mem, cfg, b, pr, sink, p, i, rec.as_deref_mut());
    }
    obs::span_end(&mut rec, mem, whole);
    p
}

/// One degradation step taken for an oversized build partition.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// Hierarchical partition label: `"3"`, then `"3.1"` for its sub-partition 1, …
    pub partition: String,
    /// Repartition depth at which the step was taken (0 = first pass).
    pub depth: u32,
    /// Size of the oversized build partition in bytes (whole pages).
    pub bytes: u64,
    /// The budget it failed to fit (on disk, the *live* budget at the pair).
    pub budget: u64,
    /// What the ladder did about it.
    pub kind: DegradationKind,
}

/// What the overflow ladder did at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationKind {
    /// Re-partitioned into `fanout` sub-partitions.
    Repartition {
        /// Number of sub-partitions.
        fanout: usize,
    },
    /// Joined in `chunks` build chunks of at most the budget each.
    NljFallback {
        /// Number of build chunks.
        chunks: usize,
    },
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match &self.kind {
            DegradationKind::Repartition { fanout } => format!("repartitioned x{fanout}"),
            DegradationKind::NljFallback { chunks } => {
                format!("block nested-loop fallback in {chunks} chunk(s)")
            }
        };
        write!(
            f,
            "partition {} ({} B > budget {} B): {action} at depth {}",
            self.partition, self.bytes, self.budget, self.depth
        )
    }
}

/// Where the overflow ladder reads a partition pair's pages and writes
/// the ones it repartitions.
pub trait PairStore {
    /// One side of one partition.
    type Part;
    /// Where a repartitioning pass writes.
    type Store: PartitionStore;
    /// A failed read or write.
    type Error;

    /// Pages in `part`.
    fn pages(&self, part: &Self::Part) -> usize;
    /// Most pages to bring into memory at once to stream a side under `budget`.
    fn stream_pages(&self, budget: u64) -> usize;
    /// `part`'s pages in `pages`: a relation, and the range of it that holds them.
    fn read<'a>(&'a self, part: &'a Self::Part, pages: Range<usize>) -> Pages<'a, Self::Error>;
    /// A store for `fanout` sub-partitions of `part`.
    fn store(&mut self, part: &Self::Part, fanout: usize) -> Result<Self::Store, Self::Error>;
    /// The sub-partitions a finished store holds.
    fn parts(&mut self, store: Self::Store) -> Result<Vec<Self::Part>, Self::Error>;
}

/// What [`PairStore::read`] returns.
pub type Pages<'a, E> = Result<(Cow<'a, Relation>, Range<usize>), E>;

/// Partitions that are relations in memory: reads borrow them whole.
struct InMemory;

impl PairStore for InMemory {
    type Part = Relation;
    type Store = Vec<Relation>;
    type Error = std::convert::Infallible;

    fn pages(&self, part: &Relation) -> usize {
        part.num_pages()
    }
    fn stream_pages(&self, _budget: u64) -> usize {
        usize::MAX
    }
    fn read<'a>(&'a self, part: &'a Relation, pages: Range<usize>) -> Pages<'a, Self::Error> {
        Ok((Cow::Borrowed(part), pages))
    }
    fn store(&mut self, part: &Relation, fanout: usize) -> Result<Vec<Relation>, Self::Error> {
        Ok((0..fanout).map(|_| Relation::new(part.schema().clone())).collect())
    }
    fn parts(&mut self, store: Vec<Relation>) -> Result<Vec<Relation>, Self::Error> {
        Ok(store)
    }
}

/// The overflow ladder over one [`PairStore`]: its bounds, its sink, and
/// the steps taken so far.
pub struct Ladder<'s, P, S> {
    /// A build partition of at most this many bytes (whole pages) joins;
    /// a driver may change it between pairs.
    pub budget: u64,
    /// Most sub-partitions one repartitioning pass writes.
    pub max_fanout: usize,
    /// Schedule of the repartitioning passes.
    pub partition_scheme: PartitionScheme,
    /// Scheme of the joins, per pair or chunk as
    /// [`JoinScheme::for_pair`] picks it from the working set.
    pub join_scheme: JoinScheme,
    /// Where the pairs' pages live.
    pub store: P,
    /// The sink every pair joins into.
    pub sink: &'s mut S,
    /// Degradation steps, in the order they were taken.
    pub events: Vec<DegradationEvent>,
}

impl<P: PairStore, S: JoinSink> Ladder<'_, P, S> {
    /// Join `build` with `probe` (see the module docs for the rungs).
    /// `path` names the pair by its partition index at every level, or
    /// is empty for a driver's whole input: that input carries no stashed
    /// hash codes, and its repartitioning is its first pass rather than a
    /// degradation. `moduli` is the product of the fan-outs already
    /// applied to the pair's hash codes. Returns this level's fan-out (1
    /// when the pair joined without repartitioning).
    pub fn join<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        build: &P::Part,
        probe: &P::Part,
        moduli: usize,
        path: &mut Vec<usize>,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<usize, P::Error> {
        let (budget, stored) = (self.budget, !path.is_empty());
        let pages = self.store.pages(build);
        let bytes = (pages * PAGE_SIZE) as u64;
        if bytes <= budget {
            let (b, _) = self.store.read(build, 0..pages)?;
            let (p, _) = self.store.read(probe, 0..self.store.pages(probe))?;
            let scheme = self.join_scheme.for_pair(pages, b.num_tuples());
            let params = JoinParams { scheme, use_stored_hash: stored };
            let span = obs::span_begin(rec, mem, "pair");
            obs::span_meta(rec, "index", path.last().copied().unwrap_or(0));
            join_pair(mem, &params, &b, &p, moduli, self.sink, rec.as_deref_mut());
            obs::span_end(rec, mem, span);
            return Ok(1);
        }
        let needed = plan::num_partitions(bytes as usize, budget as usize);
        let fanout = plan::coprime_partitions(needed.min(self.max_fanout), moduli);
        let pass = obs::span_begin(rec, mem, "partition_pass");
        obs::span_meta(rec, "fanout", fanout);
        obs::span_meta(rec, "moduli", moduli);
        let sub_build = self.split(mem, build, fanout, stored, rec)?;
        if sub_build.iter().all(|sub| self.store.pages(sub) < pages) {
            if stored {
                self.record(path, bytes, DegradationKind::Repartition { fanout });
            }
            let sub_probe = self.split(mem, probe, fanout, stored, rec)?;
            obs::span_end(rec, mem, pass);
            for (i, (b, p)) in sub_build.iter().zip(&sub_probe).enumerate() {
                path.push(i);
                self.join(mem, b, p, moduli * fanout, path, rec)?;
                path.pop();
            }
            return Ok(fanout);
        }
        obs::span_end(rec, mem, pass);
        let span = obs::span_begin(rec, mem, "nlj_fallback");
        obs::span_meta(rec, "partition", label(path));
        let chunks = self.chunked(mem, build, probe, moduli, stored)?;
        obs::span_end(rec, mem, span);
        self.record(path, bytes, DegradationKind::NljFallback { chunks });
        Ok(1)
    }

    /// Run `part` through the partition program into a fresh store of
    /// `fanout` partitions, as one `"partition"` span.
    fn split<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        part: &P::Part,
        fanout: usize,
        stored: bool,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<Vec<P::Part>, P::Error> {
        let scheme = self.partition_scheme;
        let span = obs::span_begin(rec, mem, "partition");
        obs::span_meta(rec, "scheme", scheme.label());
        obs::span_meta(rec, "partitions", fanout);
        let mut out = OutputBuffers::with_store(self.store.store(part, fanout)?, fanout);
        let (pages, step) = (self.store.pages(part), self.store.stream_pages(self.budget));
        out.register_regions(mem);
        let mut tuples = 0usize;
        for start in (0..pages).step_by(step) {
            let (rel, range) = self.store.read(part, start..start.saturating_add(step).min(pages))?;
            tuples += range.clone().map(|pi| rel.page(pi).nslots() as usize).sum::<usize>();
            profile::register_relation(mem, RegionKind::SlottedPages, &rel);
            out.feed(mem, scheme, &rel, range, stored);
        }
        obs::span_meta(rec, "tuples", tuples);
        let parts = self.store.parts(out.finish());
        obs::span_end(rec, mem, span);
        profile::clear_partition_regions(mem);
        parts
    }

    /// Join in build chunks of at most the budget, streaming the probe
    /// side past each chunk's table. Returns the number of chunks.
    fn chunked<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        build: &P::Part,
        probe: &P::Part,
        moduli: usize,
        stored: bool,
    ) -> Result<usize, P::Error> {
        let chunk = (self.budget as usize / PAGE_SIZE).max(1);
        let step = self.store.stream_pages(self.budget);
        let (bpages, ppages) = (self.store.pages(build), self.store.pages(probe));
        for start in (0..bpages).step_by(chunk) {
            let (b, brange) = self.store.read(build, start..(start + chunk).min(bpages))?;
            let n: usize = brange.clone().map(|pi| b.page(pi).nslots() as usize).sum();
            let schedule = self.join_scheme.for_pair(brange.len(), n).schedule();
            let mut table = HashTable::new(plan::hash_table_buckets(n, moduli), n);
            stage::run(schedule, mem, &mut Build::new(&mut table, &b, stored), &b, brange);
            table.assert_quiescent();
            for start in (0..ppages).step_by(step) {
                let prange = start..start.saturating_add(step).min(ppages);
                let (p, prange) = self.store.read(probe, prange)?;
                let mut prog = Probe::new(&table, &b, &p, stored, &mut *self.sink);
                stage::run(schedule, mem, &mut prog, &p, prange);
            }
        }
        Ok(bpages.div_ceil(chunk))
    }

    /// Log one step: the event trail and the flight recorder (code 0 =
    /// repartition with its fan-out, code 1 = chunked join with its chunk
    /// count).
    fn record(&mut self, path: &[usize], bytes: u64, kind: DegradationKind) {
        let depth = path.len().saturating_sub(1) as u32;
        let (code, detail) = match kind {
            DegradationKind::Repartition { fanout } => (0, fanout),
            DegradationKind::NljFallback { chunks } => (1, chunks),
        };
        let (a, b) = (depth as u64 + 1, detail as u64);
        phj_flightrec::event(phj_flightrec::EventKind::Degrade, code, a, b);
        let (partition, budget) = (label(path), self.budget);
        self.events.push(DegradationEvent { partition, depth, bytes, budget, kind });
    }
}

/// `"3.1"` for the path `[3, 1]`.
fn label(path: &[usize]) -> String {
    path.iter().map(usize::to_string).collect::<Vec<_>>().join(".")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountSink;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{RelationBuilder, Schema};
    use phj_workload::JoinSpec;

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

    fn spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 321,
        }
    }

    /// A hybrid configuration, and the GRACE one to compare it with: both
    /// phases under `js`'s schedule.
    fn hybrid_cfg(mem_budget: usize, js: JoinScheme) -> GraceConfig {
        let partition_scheme = js.schedule().partition_scheme();
        GraceConfig { mem_budget, partition_scheme, join_scheme: js, ..Default::default() }
    }

    #[test]
    fn hybrid_matches_grace() {
        let gen = spec(4000).generate();
        for js in [JoinScheme::Group { g: 16 }, JoinScheme::Baseline] {
            let cfg = hybrid_cfg(64 * 1024, js);
            let mut mem = NativeModel;
            let mut hybrid_sink = CountSink::new();
            let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut hybrid_sink, None);
            assert!(p > 1, "expected spill partitions, got {p}");
            assert_eq!(hybrid_sink.matches(), gen.expected_matches);
            let mut grace_sink = CountSink::new();
            grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
            assert_eq!(hybrid_sink, grace_sink);
        }
    }

    #[test]
    fn hybrid_all_in_memory() {
        // Budget big enough that p == 1: everything joins on the fly.
        let gen = spec(1000).generate();
        let cfg = hybrid_cfg(1 << 30, JoinScheme::Group { g: 8 });
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(p, 1);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_heavy_duplicates() {
        let mut b = RelationBuilder::new(Schema::key_payload(24));
        let mut pr = RelationBuilder::new(Schema::key_payload(24));
        let mut t = [0u8; 24];
        for _ in 0..300 {
            t[..4].copy_from_slice(&5u32.to_le_bytes());
            b.push(&t);
            pr.push(&t);
            t[..4].copy_from_slice(&9u32.to_le_bytes());
            pr.push(&t);
        }
        let (build, probe) = (b.finish(), pr.finish());
        let cfg = hybrid_cfg(8 * 1024, JoinScheme::Group { g: 4 });
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut sink, None);
        assert_eq!(sink.matches(), 300 * 300);
    }

    #[test]
    fn hybrid_with_swp_spill_join_matches() {
        let gen = spec(3000).generate();
        let cfg = hybrid_cfg(64 * 1024, JoinScheme::Swp { d: 2 });
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(sink.matches(), gen.expected_matches);
    }

    #[test]
    fn hybrid_saves_cycles_over_grace_in_sim() {
        // Partition 0 skips one write+read round trip per tuple, so the
        // hybrid spends fewer CPU cycles end to end.
        let gen = spec(20_000).generate();
        let cfg = hybrid_cfg(256 * 1024, JoinScheme::Group { g: 16 });
        let run = |hybrid: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if hybrid {
                hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
            } else {
                grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let hybrid = run(true);
        assert!(hybrid < grace, "hybrid {hybrid} vs grace {grace}");
    }

    fn swp_spec(n: usize) -> JoinSpec {
        JoinSpec {
            build_tuples: n,
            tuple_size: 40,
            matches_per_build: 2,
            pct_match: 75,
            seed: 654,
        }
    }

    #[test]
    fn swp_hybrid_matches_group_hybrid_and_grace() {
        let gen = swp_spec(4000).generate();
        let cfg = hybrid_cfg(64 * 1024, JoinScheme::Group { g: 16 });
        let mut mem = NativeModel;
        let mut swp_sink = CountSink::new();
        let swp = GraceConfig { join_scheme: JoinScheme::Swp { d: 2 }, ..cfg };
        let p = hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut swp_sink, None);
        assert!(p > 1);
        assert_eq!(swp_sink.matches(), gen.expected_matches);
        let mut grp_sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut grp_sink, None);
        assert_eq!(swp_sink, grp_sink);
        let mut grace_sink = CountSink::new();
        grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut grace_sink);
        assert_eq!(swp_sink, grace_sink);
    }

    #[test]
    fn swp_hybrid_various_distances() {
        let gen = swp_spec(1500).generate();
        let cfg = hybrid_cfg(32 * 1024, JoinScheme::Group { g: 8 });
        let mut reference: Option<CountSink> = None;
        for d in [1usize, 2, 4, 7] {
            let mut mem = NativeModel;
            let mut sink = CountSink::new();
            let swp = GraceConfig { join_scheme: JoinScheme::Swp { d }, ..cfg };
            hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut sink, None);
            assert_eq!(sink.matches(), gen.expected_matches, "D={d}");
            match &reference {
                None => reference = Some(sink),
                Some(r) => assert_eq!(&sink, r, "D={d}"),
            }
        }
    }

    #[test]
    fn swp_hybrid_heavy_duplicates_and_tiny_buffers() {
        // Duplicate keys force bucket queues; large tuples force constant
        // buffer-full parking: both protocols at once.
        let keys: Vec<u32> = (0..200u32).map(|i| i % 3).collect();
        let (build, probe) = (rel(&keys, 1500), rel(&keys, 1500));
        let cfg = hybrid_cfg(16 * 1024, JoinScheme::Swp { d: 3 });
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &build, &probe, &mut sink, None);
        // Each key appears ~67 times on both sides within its class.
        let mut want = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..200u32 {
            *counts.entry(i % 3).or_insert(0u64) += 1;
        }
        for i in 0..200u32 {
            want += counts[&(i % 3)];
        }
        assert_eq!(sink.matches(), want);
    }

    #[test]
    fn swp_hybrid_beats_grace_in_sim() {
        let gen = swp_spec(20_000).generate();
        let cfg = hybrid_cfg(256 * 1024, JoinScheme::Group { g: 16 });
        let run = |swp: bool| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            if swp {
                let swp = GraceConfig { join_scheme: JoinScheme::Swp { d: 2 }, ..cfg };
                hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut sink, None);
            } else {
                grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
            }
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let grace = run(false);
        let swp = run(true);
        assert!(swp < grace, "swp hybrid {swp} vs grace {grace}");
    }
}
