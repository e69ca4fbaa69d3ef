//! Morsel-driven parallel GRACE join, and the lane executors it (and the
//! parallel aggregation in [`crate::agg`]) runs on.
//!
//! Both phases parallelize without touching the single-threaded kernels:
//!
//! * **Partition**: the input is split into page-range morsels
//!   ([`page_morsels`]); each lane runs
//!   the ordinary partition loop over its morsels into *private* output
//!   buffers, and the per-morsel partition outputs are concatenated (a
//!   page move, not a copy) at the phase barrier. Tuple placement depends
//!   only on the hash, so the concatenation reproduces a sequential
//!   partitioning's per-partition tuple multisets.
//! * **Build + probe**: partition pairs are scheduled largest-first
//!   ([`lpt_assign`] over pair bytes — the
//!   skew data the partition phase just produced); each pair is joined
//!   with the unmodified sequential kernel into a private
//!   [`CountSink`], merged at the end (the checksum — word-wise pair
//!   digest, additive fold — and match count are order-independent). An oversized (skewed) pair goes
//!   down the overflow ladder inside its task via [`grace_join_pair`]:
//!   it re-partitions, or joins in chunks when that cannot shrink it.
//!
//! The driver is written once, generic over a `Lanes` executor with
//! exactly two implementations: `ThreadLanes` (real threads with work
//! stealing, behind [`parallel_join_native`]) and `VirtualLanes`
//! (deterministic simulated lanes, behind [`parallel_join_sim`]).

use phj::grace::{grace_join_pair, grace_join_with_sink, GraceConfig};
use phj::partition::partition_page_range;
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemoryModel, NativeModel, SimEngine, Snapshot};
use phj_obs::{Recorder, RegionsSection, SpanId};
use phj_storage::{Relation, RelationBuilder};

use crate::pool::{Pool, WorkerStats};
use crate::schedule::{lpt_assign, page_morsels};

/// Morsels per worker per relation: enough over-decomposition that
/// stealing can rebalance, small enough that per-morsel overhead stays
/// negligible.
pub(crate) const MORSELS_PER_WORKER: usize = 4;

/// One virtual lane's share of a simulated parallel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Lane (virtual worker) index.
    pub lane: usize,
    /// Tasks the lane executed.
    pub tasks: u64,
    /// Simulated cycles the lane consumed across all phases.
    pub cycles: u64,
}

/// Result of [`parallel_join_native`].
pub struct NativeJoinOutcome {
    /// Merged match count + order-independent checksum.
    pub sink: CountSink,
    /// First-pass partition fan-out.
    pub partitions: usize,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Per-worker counters for the partition phase.
    pub partition_stats: Vec<WorkerStats>,
    /// Per-worker counters for the build+probe phase.
    pub join_stats: Vec<WorkerStats>,
}

/// Result of [`parallel_join_sim`].
pub struct SimJoinOutcome {
    /// Merged match count + order-independent checksum.
    pub sink: CountSink,
    /// First-pass partition fan-out.
    pub partitions: usize,
    /// Merged run totals: critical-path breakdown, summed event counts.
    pub totals: Snapshot,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Merged per-region attribution (present when profiling was on).
    pub regions: Option<RegionsSection>,
    /// Per-lane share of the simulated work.
    pub lanes: Vec<LaneStats>,
}

/// Runs a phase's tasks over a fixed number of lanes and merges what the
/// lanes recorded. The parallel drivers are generic over this; the two
/// implementations are real threads and deterministic virtual lanes.
pub(crate) trait Lanes {
    /// The memory model each lane's kernels run against.
    type Model: MemoryModel;

    /// Position of the phase barrier on the merged timeline — the
    /// snapshot a driver-level span opens or closes at.
    fn cursor(&self) -> Snapshot;

    /// Run every task exactly once, heaviest first by `weights`, and
    /// return the results indexed like `tasks`. When `rec` is recording
    /// (its phase span must be open), each lane records into its own
    /// recorder, grafted under that span tagged `worker=N`.
    fn run_phase<T: Sync, R: Send>(
        &mut self,
        rec: &mut Option<Recorder>,
        tasks: &[T],
        weights: &[u64],
        f: impl Fn(&mut Self::Model, Option<&mut Recorder>, &T) -> R + Sync,
    ) -> Vec<R>;
}

/// Real threads over one [`Pool`] (native model, real prefetches, work
/// stealing): the caller plus `threads - 1` pool threads, started once
/// and reused by every phase. Worker recorders share the driving
/// recorder's wall-clock origin, so the merged trace shows genuine
/// overlap.
pub(crate) struct ThreadLanes {
    threads: usize,
    pool: Pool,
    /// Per-worker counters, one entry per phase run so far.
    pub(crate) phase_stats: Vec<Vec<WorkerStats>>,
}

impl ThreadLanes {
    pub(crate) fn new(threads: usize) -> Self {
        ThreadLanes { threads, pool: Pool::new(threads - 1), phase_stats: Vec::new() }
    }
}

impl Lanes for ThreadLanes {
    type Model = NativeModel;

    fn cursor(&self) -> Snapshot {
        Snapshot::default()
    }

    fn run_phase<T: Sync, R: Send>(
        &mut self,
        rec: &mut Option<Recorder>,
        tasks: &[T],
        weights: &[u64],
        f: impl Fn(&mut NativeModel, Option<&mut Recorder>, &T) -> R + Sync,
    ) -> Vec<R> {
        let origin = rec.as_ref().map(|r| r.origin());
        let states: Vec<Option<Recorder>> =
            (0..self.threads).map(|_| origin.map(Recorder::with_origin)).collect();
        let (results, states, stats) =
            self.pool.execute(states, tasks, weights, |wrec, _i, task| {
                f(&mut NativeModel, wrec.as_mut(), task)
            });
        if let Some(r) = rec.as_mut() {
            for (w, wrec) in states.into_iter().enumerate() {
                if let Some(wr) = wrec {
                    r.graft(w, Snapshot::default(), wr.finish());
                }
            }
        }
        self.phase_stats.push(stats);
        results
    }
}

/// Deterministic virtual lanes under the cycle simulator (no OS threads
/// — byte-identical breakdowns across repeated runs): tasks are
/// statically LPT-assigned, each lane runs sequentially on a fresh
/// engine per phase, and a phase advances the merged timeline by its
/// **critical path** (the slowest lane's breakdown) while event counters
/// are *summed* over lanes, so region conservation checks keep holding
/// on merged reports.
pub(crate) struct VirtualLanes {
    threads: usize,
    want_regions: bool,
    /// Merged run totals so far.
    pub(crate) cursor: Snapshot,
    /// Merged per-region attribution (present when profiling is on).
    pub(crate) regions: Option<RegionsSection>,
    /// Per-lane share of the simulated work.
    pub(crate) lanes: Vec<LaneStats>,
}

impl VirtualLanes {
    pub(crate) fn new(threads: usize, want_regions: bool) -> Self {
        VirtualLanes {
            threads,
            want_regions,
            cursor: Snapshot::default(),
            regions: want_regions.then(RegionsSection::default),
            lanes: (0..threads).map(|lane| LaneStats { lane, ..Default::default() }).collect(),
        }
    }
}

impl Lanes for VirtualLanes {
    type Model = SimEngine;

    fn cursor(&self) -> Snapshot {
        self.cursor
    }

    fn run_phase<T: Sync, R: Send>(
        &mut self,
        rec: &mut Option<Recorder>,
        tasks: &[T],
        weights: &[u64],
        f: impl Fn(&mut SimEngine, Option<&mut Recorder>, &T) -> R + Sync,
    ) -> Vec<R> {
        let assignment = lpt_assign(weights, self.threads);
        let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
        let mut phase = Snapshot::default();
        for (w, list) in assignment.iter().enumerate() {
            let mut engine = SimEngine::paper();
            if self.want_regions {
                engine.enable_region_profiling();
            }
            let mut lane_rec = rec.as_ref().map(|_| Recorder::new());
            for &i in list {
                slots[i] = Some(f(&mut engine, lane_rec.as_mut(), &tasks[i]));
            }
            let snap = engine.snapshot();
            self.lanes[w].tasks += list.len() as u64;
            self.lanes[w].cycles += snap.breakdown.total();
            phase.stats = phase.stats + snap.stats;
            if snap.breakdown.total() > phase.breakdown.total() {
                phase.breakdown = snap.breakdown;
            }
            if let (Some(reg), Some(prof)) = (self.regions.as_mut(), engine.region_profile()) {
                reg.merge(&RegionsSection::from_profiler(&prof));
            }
            // Lane spans start at the phase start on the merged timeline.
            if let (Some(r), Some(lr)) = (rec.as_mut(), lane_rec) {
                r.graft(w, self.cursor, lr.finish());
            }
        }
        self.cursor = self.cursor + phase;
        slots.into_iter().map(|r| r.expect("task assigned")).collect()
    }
}

/// Open a driver-level span at the barrier position `at`.
pub(crate) fn open_span(
    rec: &mut Option<Recorder>,
    name: &str,
    at: Snapshot,
    meta: &[(&str, usize)],
) -> Option<SpanId> {
    rec.as_mut().map(|r| {
        let id = r.begin(name, at);
        for (key, value) in meta {
            r.meta(key, value);
        }
        id
    })
}

/// Close a span opened by [`open_span`].
pub(crate) fn close_span(rec: &mut Option<Recorder>, id: Option<SpanId>, at: Snapshot) {
    if let (Some(r), Some(id)) = (rec.as_mut(), id) {
        r.end(id, at);
    }
}

/// First-pass fan-out: what the memory budget needs, but at least two
/// pairs per worker so the join phase has something to schedule.
fn fanout(cfg: &GraceConfig, build: &Relation, threads: usize) -> usize {
    let needed = plan::num_partitions(build.size_bytes(), cfg.mem_budget);
    let target = needed.max(2 * threads).max(2);
    plan::coprime_partitions(target.min(cfg.max_active_partitions), 1)
}

/// The partition-phase task list: page-range morsels over both inputs.
/// `true` marks build-side morsels. Weights are page counts.
fn partition_tasks(
    build: &Relation,
    probe: &Relation,
    threads: usize,
) -> (Vec<(bool, std::ops::Range<usize>)>, Vec<u64>) {
    let mut tasks: Vec<(bool, std::ops::Range<usize>)> = Vec::new();
    for r in page_morsels(build.num_pages(), threads, MORSELS_PER_WORKER) {
        tasks.push((true, r));
    }
    for r in page_morsels(probe.num_pages(), threads, MORSELS_PER_WORKER) {
        tasks.push((false, r));
    }
    let weights = tasks.iter().map(|(_, r)| r.len() as u64).collect();
    (tasks, weights)
}

/// Concatenate per-morsel partition outputs (in task order) into one
/// relation per partition and side. Pages move; nothing is copied.
fn concat_parts(
    build: &Relation,
    probe: &Relation,
    p: usize,
    tasks: &[(bool, std::ops::Range<usize>)],
    outputs: Vec<Vec<Relation>>,
) -> (Vec<Relation>, Vec<Relation>) {
    let empty = |rel: &Relation| -> Vec<Relation> {
        (0..p).map(|_| RelationBuilder::new(rel.schema().clone()).finish()).collect()
    };
    let mut bp = empty(build);
    let mut pp = empty(probe);
    for ((is_build, _), out) in tasks.iter().zip(outputs) {
        let dst = if *is_build { &mut bp } else { &mut pp };
        for (j, part) in out.into_iter().enumerate() {
            dst[j].absorb(part);
        }
    }
    (bp, pp)
}

/// In debug builds, replay the join sequentially and require the exact
/// same match count and checksum — the parallel driver's correctness
/// invariant, enforced on every debug-build run.
fn debug_check_against_sequential(cfg: &GraceConfig, build: &Relation, probe: &Relation, got: &CountSink) {
    if cfg!(debug_assertions) {
        let mut seq = CountSink::new();
        grace_join_with_sink(&mut NativeModel, cfg, build, probe, &mut seq);
        debug_assert_eq!(
            (seq.matches(), seq.checksum()),
            (got.matches(), got.checksum()),
            "parallel join diverged from sequential"
        );
    }
}

/// The parallel GRACE join over `threads` (≥ 1) lanes: partition pass →
/// concat → LPT join pass. Returns the executor, the merged sink, the
/// first-pass fan-out, and the merged recorder (when `want_obs`): a
/// `"run"` span over `"partition_pass"` and `"join_pass"` spans holding
/// their lanes' span trees. `start` creates the executor once the root
/// span is open: the simulator's set-indexed caches key on heap
/// addresses, and this allocation order keeps `--sim --threads N`
/// reports byte-stable.
fn run_join<L: Lanes>(
    start: impl FnOnce() -> L,
    threads: usize,
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    want_obs: bool,
) -> (L, CountSink, usize, Option<Recorder>) {
    let p = fanout(cfg, build, threads);
    let mut rec = want_obs.then(Recorder::new);
    let root = open_span(&mut rec, "run", Snapshot::default(), &[("threads", threads)]);
    let mut lanes = start();

    // Phase 1: partition both relations from page-range morsels into
    // per-task private buffers.
    let (tasks, weights) = partition_tasks(build, probe, threads);
    let meta = [("fanout", p), ("moduli", 1), ("threads", threads)];
    let pass = open_span(&mut rec, "partition_pass", lanes.cursor(), &meta);
    let scheme = cfg.partition_scheme;
    let outputs = lanes.run_phase(&mut rec, &tasks, &weights, |mem, lane_rec, (is_build, range)| {
        let rel = if *is_build { build } else { probe };
        partition_page_range(mem, scheme, rel, range.clone(), p, false, lane_rec)
    });
    close_span(&mut rec, pass, lanes.cursor());
    let (bp, pp) = concat_parts(build, probe, p, &tasks, outputs);

    // Phase 2: join pairs, heaviest first, into per-pair sinks.
    let pairs: Vec<(Relation, Relation, usize)> =
        bp.into_iter().zip(pp).enumerate().map(|(i, (b, q))| (b, q, i)).collect();
    let weights: Vec<u64> =
        pairs.iter().map(|(b, q, _)| (b.size_bytes() + q.size_bytes()).max(1) as u64).collect();
    let meta = [("pairs", pairs.len()), ("threads", threads)];
    let pass = open_span(&mut rec, "join_pass", lanes.cursor(), &meta);
    let sinks = lanes.run_phase(&mut rec, &pairs, &weights, |mem, lane_rec, (b, q, idx)| {
        let mut s = CountSink::new();
        grace_join_pair(mem, cfg, b, q, &mut s, p, *idx, lane_rec);
        s
    });
    close_span(&mut rec, pass, lanes.cursor());
    let mut sink = CountSink::new();
    for s in sinks {
        sink.merge(s);
    }
    close_span(&mut rec, root, lanes.cursor());
    debug_check_against_sequential(cfg, build, probe, &sink);
    (lanes, sink, p, rec)
}

/// Parallel GRACE join on real threads (native model, real prefetches).
///
/// `want_obs` turns on span recording: each worker records into its own
/// [`Recorder`] sharing the main recorder's wall-clock origin, and the
/// worker span trees are grafted under the phase spans (tagged
/// `worker=N`) at each barrier, so the merged report shows per-worker
/// lanes without losing any span.
pub fn parallel_join_native(
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    threads: usize,
    want_obs: bool,
) -> NativeJoinOutcome {
    let threads = threads.max(1);
    let (lanes, sink, partitions, recorder) =
        run_join(|| ThreadLanes::new(threads), threads, cfg, build, probe, want_obs);
    let [partition_stats, join_stats] =
        <[_; 2]>::try_from(lanes.phase_stats).expect("the join runs two phases");
    NativeJoinOutcome { sink, partitions, recorder, partition_stats, join_stats }
}

/// Parallel GRACE join under the cycle simulator, with `threads`
/// deterministic virtual lanes (no OS threads — byte-identical
/// breakdowns across repeated runs).
pub fn parallel_join_sim(
    cfg: &GraceConfig,
    build: &Relation,
    probe: &Relation,
    threads: usize,
    want_obs: bool,
    want_regions: bool,
) -> SimJoinOutcome {
    let threads = threads.max(1);
    let start = || VirtualLanes::new(threads, want_regions);
    let (lanes, sink, partitions, recorder) = run_join(start, threads, cfg, build, probe, want_obs);
    let VirtualLanes { cursor: totals, regions, lanes, .. } = lanes;
    SimJoinOutcome { sink, partitions, totals, recorder, regions, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_storage::{RelationBuilder, Schema};

    fn rel(keys: impl Iterator<Item = u32>, size: usize) -> Relation {
        let mut b = RelationBuilder::new(Schema::key_payload(size));
        let mut t = vec![0u8; size];
        for k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push(&t);
        }
        b.finish()
    }

    fn small_cfg() -> GraceConfig {
        GraceConfig { mem_budget: 16 * 1024, ..Default::default() }
    }

    #[test]
    fn native_matches_sequential_across_thread_counts() {
        let build = rel(0..1500, 40);
        let probe = rel((500..2500).map(|k| k % 2000), 40);
        let cfg = small_cfg();
        let mut seq = CountSink::new();
        grace_join_with_sink(&mut NativeModel, &cfg, &build, &probe, &mut seq);
        for threads in [1, 2, 3, 4] {
            let out = parallel_join_native(&cfg, &build, &probe, threads, false);
            assert_eq!(out.sink, seq, "threads={threads}");
            assert!(out.partitions >= 2);
        }
    }

    #[test]
    fn sim_lanes_match_sequential_and_report_validates() {
        let build = rel(0..800, 40);
        let probe = rel(0..800, 40);
        let cfg = small_cfg();
        let mut seq = CountSink::new();
        grace_join_with_sink(&mut NativeModel, &cfg, &build, &probe, &mut seq);
        let out = parallel_join_sim(&cfg, &build, &probe, 3, true, false);
        assert_eq!(out.sink, seq);
        // Critical path ≤ sum of lane cycles; every lane did something.
        let lane_sum: u64 = out.lanes.iter().map(|l| l.cycles).sum();
        assert!(out.totals.breakdown.total() <= lane_sum);
        assert!(out.totals.breakdown.total() > 0);
        let mut report = phj_obs::RunReport::from_recorder(
            "join",
            out.recorder.unwrap(),
            out.totals,
            1,
        );
        report.simulated = true;
        report.validate().expect("merged parallel report validates");
        // Worker-tagged spans exist under both phases.
        assert!(report
            .spans
            .iter()
            .any(|s| s.meta.iter().any(|(k, v)| k == "worker" && v == "2")));
    }

    #[test]
    fn empty_inputs_join_to_nothing() {
        let build = rel(0..0, 40);
        let probe = rel(0..0, 40);
        let cfg = small_cfg();
        let out = parallel_join_native(&cfg, &build, &probe, 2, false);
        assert_eq!(out.sink.matches(), 0);
        let out = parallel_join_sim(&cfg, &build, &probe, 2, false, false);
        assert_eq!(out.sink.matches(), 0);
    }
}
