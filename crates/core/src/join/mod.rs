//! The join phase: hash table build + probe in four flavours.
//!
//! * baseline — the GRACE join loop, no prefetching (§2);
//! * simple — "simple prefetching": prefetch each input page after its
//!   disk read (§7.1's enhanced baseline);
//! * [`group`] — group prefetching (§4): process `G` tuples per outer
//!   iteration, one dependent-reference stage at a time, prefetching the
//!   next stage's addresses; read-write conflicts during build are handled
//!   with busy flags and a delayed-tuple list resolved at the group
//!   boundary (§4.4);
//! * swp — software-pipelined prefetching (§5): stage `i` of element
//!   `j` runs `D` iterations after stage `i-1`, with a circular state
//!   array and per-bucket waiting queues for build conflicts (§5.3).
//!
//! Build (`k = 2`) and probe (`k = 3`) are each written once as a stage
//! program (`program`); every scheme is one of [`crate::stage`]'s
//! schedules of that program ([`JoinScheme::schedule`]). Baseline and
//! simple are the sequential schedule, so a reported speedup compares two
//! schedules of one loop body, as in the paper.
//!
//! All variants share [`join_pair`], which builds the table on the build
//! partition and probes it with the probe partition — the per-partition
//! step of the GRACE algorithm's second phase.

pub mod group;
pub(crate) mod program;
mod swp;

pub use group::GroupProbe;

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::{tuple::key_bytes_of, KeySpan, Relation, PAGE_SIZE};

use crate::cost;
use crate::hash::hash_key;
use crate::partition::PartitionScheme;
use crate::plan;
use crate::profile;
use crate::sink::JoinSink;
use crate::stage::{self, Schedule};
use crate::table::HashTable;

use program::{Build, Probe};

/// Which join-phase algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinScheme {
    /// GRACE baseline: no prefetching.
    Baseline,
    /// Prefetch each input page after reading it.
    Simple,
    /// Group prefetching with group size `g`.
    Group {
        /// Group size `G` (Theorem 1 predicts the minimum; see
        /// [`crate::model::min_group_size`]).
        g: usize,
    },
    /// Software-pipelined prefetching with prefetch distance `d`.
    Swp {
        /// Prefetch distance `D` (see
        /// [`crate::model::min_prefetch_distance`]).
        d: usize,
    },
}

impl JoinScheme {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            JoinScheme::Baseline => "baseline".into(),
            JoinScheme::Simple => "simple".into(),
            JoinScheme::Group { g } => format!("group(G={g})"),
            JoinScheme::Swp { d } => format!("swp(D={d})"),
        }
    }

    /// The schedule this scheme runs the build and probe programs under.
    pub fn schedule(self) -> Schedule {
        match self {
            JoinScheme::Baseline => Schedule::Sequential { prefetch_input: false },
            JoinScheme::Simple => Schedule::Sequential { prefetch_input: true },
            JoinScheme::Group { g } => Schedule::Group { g },
            JoinScheme::Swp { d } => Schedule::Pipelined { d },
        }
    }

    fn staged(self) -> bool {
        matches!(self, JoinScheme::Group { .. } | JoinScheme::Swp { .. })
    }

    /// The scheme a driver joins one pair under — §7.4's combined rule,
    /// join half. A staged scheme hides cache misses, and a pair whose
    /// working set (its `build_pages` plus the hash table over its
    /// `build_tuples`, [`plan::join_working_set`]) fits the L2
    /// ([`plan::L2_BYTES`]) has none to hide, so it runs simple
    /// prefetching instead. Baseline and simple are returned as they
    /// are.
    pub fn for_pair(self, build_pages: usize, build_tuples: usize) -> JoinScheme {
        if self.staged() && plan::join_working_set(build_pages, build_tuples) <= plan::L2_BYTES {
            JoinScheme::Simple
        } else {
            self
        }
    }

    /// The partition-pass scheme of a run that joins under `self` — the
    /// combined rule's partition half: a staged scheme partitions with
    /// simple prefetching at up to [`plan::CACHED_OUTPUT_BUFFERS`]
    /// partitions and under its own schedule beyond; baseline and simple
    /// partition as they join.
    pub fn partition_scheme(self) -> PartitionScheme {
        if self.staged() {
            PartitionScheme::combined(self.schedule())
        } else {
            self.schedule().partition_scheme()
        }
    }
}

/// Join-phase knobs shared by all schemes.
#[derive(Debug, Clone, Copy)]
pub struct JoinParams {
    /// The algorithm.
    pub scheme: JoinScheme,
    /// Reuse the hash codes stashed in the partition pages' slot areas
    /// (§7.1 optimization) instead of rehashing the join key. Must be
    /// false for relations that were not produced by our partition phase.
    pub use_stored_hash: bool,
}

impl Default for JoinParams {
    fn default() -> Self {
        JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true }
    }
}

/// Build the hash table for a build partition and probe it with the probe
/// partition, sending matches to `sink`. This is the unit of work the
/// join phase performs per partition pair.
///
/// ```
/// use phj::join::{join_pair, JoinParams, JoinScheme};
/// use phj::sink::{CountSink, JoinSink};
/// use phj_memsim::NativeModel;
/// use phj_workload::JoinSpec;
///
/// let gen = JoinSpec {
///     build_tuples: 500,
///     tuple_size: 20,
///     matches_per_build: 2,
///     pct_match: 100,
///     seed: 1,
/// }
/// .generate();
/// let mut sink = CountSink::new();
/// join_pair(
///     &mut NativeModel,
///     &JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true },
///     &gen.build,
///     &gen.probe,
///     1,
///     &mut sink,
///     None,
/// );
/// assert_eq!(sink.matches(), gen.expected_matches);
/// ```
///
/// With a span recorder, the build and probe sub-phases each get their
/// own span (with tuple counts in the meta), nested under whatever span
/// the caller holds open.
pub fn join_pair<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    build: &Relation,
    probe: &Relation,
    num_partitions: usize,
    sink: &mut S,
    mut rec: Option<&mut Recorder>,
) -> HashTable {
    let buckets = plan::hash_table_buckets(build.num_tuples(), num_partitions);
    let mut table = HashTable::new(buckets, build.num_tuples());
    profile::register_table(mem, &table);
    profile::register_relation(mem, RegionKind::BuildTuples, build);
    profile::register_relation(mem, RegionKind::ProbeTuples, probe);
    let span = obs::span_begin(&mut rec, mem, "build");
    obs::span_meta(&mut rec, "tuples", build.num_tuples());
    dispatch_build(mem, params, &mut table, build);
    obs::span_end(&mut rec, mem, span);
    let span = obs::span_begin(&mut rec, mem, "probe");
    obs::span_meta(&mut rec, "tuples", probe.num_tuples());
    dispatch_probe(mem, params, &table, build, probe, sink);
    obs::span_end(&mut rec, mem, span);
    table.assert_quiescent();
    profile::clear_join_regions(mem);
    table
}

/// Build-side dispatch on the scheme — the build half of [`join_pair`],
/// public so harnesses that phase build and probe separately (the bench
/// runner, partition-sweep experiments) share one dispatch point.
pub fn dispatch_build<M: MemoryModel>(
    mem: &mut M,
    params: &JoinParams,
    table: &mut HashTable,
    build: &Relation,
) {
    let mut prog = Build::new(table, build, params.use_stored_hash);
    stage::run(params.scheme.schedule(), mem, &mut prog, build, 0..build.num_pages());
}

/// Probe-side dispatch on the scheme — the probe half of [`join_pair`].
pub fn dispatch_probe<M: MemoryModel, S: JoinSink>(
    mem: &mut M,
    params: &JoinParams,
    table: &HashTable,
    build: &Relation,
    probe: &Relation,
    sink: &mut S,
) {
    let mut prog = Probe::new(table, build, probe, params.use_stored_hash, sink);
    stage::run(params.scheme.schedule(), mem, &mut prog, probe, 0..probe.num_pages());
}

/// A page/slot cursor over a relation that models the input-buffer
/// behaviour all schemes share: tuples stream in page order, and schemes
/// that want it can prefetch each page as it is "read from disk".
pub(crate) struct Scan<'r> {
    rel: &'r Relation,
    pi: usize,
    end: usize,
    slot: u16,
    prefetch_pages: bool,
}

impl<'r> Scan<'r> {
    pub(crate) fn new(rel: &'r Relation, prefetch_pages: bool) -> Self {
        Scan::range(rel, prefetch_pages, 0..rel.num_pages())
    }

    /// A cursor over the pages in `pages` only — the unit of work a
    /// morsel-driven parallel scan hands to one worker. The range is
    /// clamped to the relation's page count.
    pub(crate) fn range(
        rel: &'r Relation,
        prefetch_pages: bool,
        pages: std::ops::Range<usize>,
    ) -> Self {
        let end = pages.end.min(rel.num_pages());
        Scan { rel, pi: pages.start.min(end), end, slot: 0, prefetch_pages }
    }

    /// Advance to the next tuple: returns its `(page, slot)` and performs
    /// the input-side memory accesses (slot entry + tuple bytes) plus the
    /// page prefetch on page boundaries when enabled.
    pub(crate) fn next<M: MemoryModel>(&mut self, mem: &mut M) -> Option<(usize, u16)> {
        loop {
            if self.pi >= self.end {
                return None;
            }
            let page = self.rel.page(self.pi);
            if self.slot == 0 && page.nslots() > 0 && self.prefetch_pages {
                // "Simple prefetching [...] such as prefetching an entire
                // input page after a disk page read" (§7.1).
                mem.prefetch(page.base_addr(), PAGE_SIZE);
            }
            if self.slot < page.nslots() {
                let s = self.slot;
                self.slot += 1;
                mem.visit(page.slot_addr(s), 8);
                let t = page.tuple(s);
                mem.visit(t.as_ptr() as usize, t.len());
                return Some((self.pi, s));
            }
            self.pi += 1;
            self.slot = 0;
        }
    }
}

/// Read a tuple's hash code: stashed (partition-phase optimization) or
/// recomputed from the join key. The caller charges [`cost::code0_cost`].
#[inline]
pub(crate) fn tuple_hash(
    rel: &Relation,
    pi: usize,
    slot: u16,
    use_stored: bool,
) -> u32 {
    let page = rel.page(pi);
    if use_stored {
        page.hash_code(slot)
    } else {
        hash_key(key_bytes_of(rel.schema(), page.tuple(slot)))
    }
}

/// Compare the join keys of a build and probe tuple byte-wise, given
/// each side's key span.
#[inline]
pub(crate) fn keys_equal(build_key: KeySpan, probe_key: KeySpan, bt: &[u8], pt: &[u8]) -> bool {
    build_key.bytes(bt) == probe_key.bytes(pt)
}

/// Charge the input-side code-0 cost for one tuple.
#[inline]
pub(crate) fn charge_code0<M: MemoryModel>(mem: &mut M, use_stored: bool) {
    mem.busy(cost::code0_cost(use_stored));
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::HashMap;

    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{tuple::key_bytes_of, Relation, RelationBuilder, Schema};

    use super::*;
    use crate::sink::{CountSink, JoinSink};

    #[test]
    fn staged_schemes_fall_back_to_simple_in_cache() {
        let staged = [JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 2 }];
        for scheme in staged {
            // 2 000 100-byte tuples on 27 pages: ~280 KB.
            assert_eq!(scheme.for_pair(27, 2000), JoinScheme::Simple);
            assert_eq!(scheme.for_pair(128, 2000), scheme);
            let partition = scheme.partition_scheme();
            assert_eq!(partition.schedule(64), Schedule::Sequential { prefetch_input: true });
            assert_eq!(partition.schedule(65), scheme.schedule());
        }
        for scheme in [JoinScheme::Baseline, JoinScheme::Simple] {
            assert_eq!(scheme.for_pair(1, 1), scheme);
            for p in [1, 65] {
                assert_eq!(scheme.partition_scheme().schedule(p), scheme.schedule());
            }
        }
        let label = |scheme: JoinScheme| scheme.partition_scheme().label();
        assert_eq!(label(JoinScheme::Group { g: 16 }), "combined(G=16,≤64p→simple)");
        assert_eq!(label(JoinScheme::Swp { d: 2 }), "combined(D=2,≤64p→simple)");
    }

    #[test]
    fn schedule_round_trips_every_scheme() {
        for (scheme, schedule) in [
            (JoinScheme::Baseline, Schedule::Sequential { prefetch_input: false }),
            (JoinScheme::Simple, Schedule::Sequential { prefetch_input: true }),
            (JoinScheme::Group { g: 8 }, Schedule::Group { g: 8 }),
            (JoinScheme::Swp { d: 2 }, Schedule::Pipelined { d: 2 }),
        ] {
            assert_eq!(scheme.schedule(), schedule);
            assert_eq!(schedule.join_scheme(), scheme);
        }
    }

    /// The join through a `HashMap` over key bytes, sharing no code with
    /// the kernels: the expected value of every scheme test.
    pub(crate) fn reference(build: &Relation, probe: &Relation) -> CountSink {
        let mut index: HashMap<&[u8], Vec<&[u8]>> = HashMap::new();
        for (_, bt, _) in build.iter() {
            index.entry(key_bytes_of(build.schema(), bt)).or_default().push(bt);
        }
        let mut sink = CountSink::new();
        for (_, pt, _) in probe.iter() {
            for bt in index.get(key_bytes_of(probe.schema(), pt)).into_iter().flatten() {
                sink.emit(&mut NativeModel, bt, pt);
            }
        }
        sink
    }

    fn make_rel(keys: &[u32], size: usize) -> Relation {
        let schema = Schema::key_payload(size);
        let mut b = RelationBuilder::new(schema);
        let mut t = vec![0u8; size];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, crate::hash::hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    #[test]
    fn build_and_probe_counts_matches() {
        let build_rel = make_rel(&[1, 2, 3, 4, 5], 20);
        let probe_rel = make_rel(&[1, 1, 3, 9, 9, 5], 20);
        let mut mem = NativeModel;
        let params = JoinParams {
            scheme: JoinScheme::Baseline,
            use_stored_hash: true,
        };
        let mut table = HashTable::new(7, 5);
        dispatch_build(&mut mem, &params, &mut table, &build_rel);
        assert_eq!(table.len(), 5);
        let mut sink = CountSink::new();
        dispatch_probe(&mut mem, &params, &table, &build_rel, &probe_rel, &mut sink);
        assert_eq!(sink.matches(), 4); // 1,1,3,5
    }

    #[test]
    fn recomputed_hash_agrees_with_stored() {
        let build_rel = make_rel(&[10, 20, 30], 16);
        let probe_rel = make_rel(&[20, 30, 40], 16);
        let mut mem = NativeModel;
        for use_stored in [true, false] {
            let params = JoinParams {
                scheme: JoinScheme::Baseline,
                use_stored_hash: use_stored,
            };
            let mut table = HashTable::new(5, 3);
            dispatch_build(&mut mem, &params, &mut table, &build_rel);
            let mut sink = CountSink::new();
            dispatch_probe(&mut mem, &params, &table, &build_rel, &probe_rel, &mut sink);
            assert_eq!(sink.matches(), 2, "use_stored={use_stored}");
        }
    }

    #[test]
    fn duplicate_build_keys_all_match() {
        let build_rel = make_rel(&[7, 7, 7], 12);
        let probe_rel = make_rel(&[7], 12);
        let mut mem = NativeModel;
        let params = JoinParams {
            scheme: JoinScheme::Baseline,
            use_stored_hash: true,
        };
        let mut table = HashTable::new(3, 3);
        dispatch_build(&mut mem, &params, &mut table, &build_rel);
        let mut sink = CountSink::new();
        dispatch_probe(&mut mem, &params, &table, &build_rel, &probe_rel, &mut sink);
        assert_eq!(sink.matches(), 3);
    }

    #[test]
    fn hash_code_collision_rejected_by_key_compare() {
        // Force two different keys into the same cell-filter situation by
        // storing an identical fake hash for both; only the key compare
        // separates them.
        let schema = Schema::key_payload(12);
        let mut b = RelationBuilder::new(schema.clone());
        let mut t = [0u8; 12];
        t[..4].copy_from_slice(&1u32.to_le_bytes());
        b.push_hashed(&t, 42);
        t[..4].copy_from_slice(&2u32.to_le_bytes());
        b.push_hashed(&t, 42);
        let build_rel = b.finish();
        let mut p = RelationBuilder::new(schema);
        t[..4].copy_from_slice(&1u32.to_le_bytes());
        p.push_hashed(&t, 42);
        let probe_rel = p.finish();
        let mut mem = NativeModel;
        let params = JoinParams {
            scheme: JoinScheme::Baseline,
            use_stored_hash: true,
        };
        let mut table = HashTable::new(3, 2);
        dispatch_build(&mut mem, &params, &mut table, &build_rel);
        let mut sink = CountSink::new();
        dispatch_probe(&mut mem, &params, &table, &build_rel, &probe_rel, &mut sink);
        assert_eq!(sink.matches(), 1, "only the true key-equal pair");
    }

    fn rel(keys: &[u32]) -> Relation {
        let schema = Schema::key_payload(32);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 32];
        for &k in keys {
            t[..4].copy_from_slice(&k.to_le_bytes());
            b.push_hashed(&t, crate::hash::hash_key(&k.to_le_bytes()));
        }
        b.finish()
    }

    #[test]
    fn simple_matches_baseline_results() {
        let build_rel = rel(&(0..500).collect::<Vec<_>>());
        let probe_rel = rel(&(250..750).collect::<Vec<_>>());
        let mut mem = NativeModel;
        let mut s1 = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme: JoinScheme::Baseline, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut s1,
            None,
        );
        let mut s2 = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme: JoinScheme::Simple, use_stored_hash: true },
            &build_rel,
            &probe_rel,
            1,
            &mut s2,
            None,
        );
        let want = reference(&build_rel, &probe_rel);
        assert_eq!(s1, want);
        assert_eq!(s2, want);
        assert_eq!(s1.matches(), 250);
    }

    #[test]
    fn simple_prefetch_reduces_input_stalls_in_sim() {
        let build_rel = rel(&(0..2000).collect::<Vec<_>>());
        let probe_rel = rel(&(0..2000).collect::<Vec<_>>());
        let run = |scheme| {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            join_pair(
                &mut mem,
                &JoinParams { scheme, use_stored_hash: true },
                &build_rel,
                &probe_rel,
                1,
                &mut sink,
                None,
            );
            (mem.breakdown().total(), sink.matches())
        };
        let (t_base, m1) = run(JoinScheme::Baseline);
        let (t_simple, m2) = run(JoinScheme::Simple);
        assert_eq!(m1, m2);
        assert!(
            t_simple < t_base,
            "simple ({t_simple}) should beat baseline ({t_base})"
        );
    }
}
