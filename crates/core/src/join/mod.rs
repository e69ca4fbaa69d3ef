//! The join phase: hash table build + probe in four flavours.
//!
//! * [`baseline`] — the GRACE join loop, no prefetching (§2);
//! * [`simple`] — "simple prefetching": prefetch each input page after its
//!   disk read (§7.1's enhanced baseline);
//! * [`group`] — group prefetching (§4): process `G` tuples per outer
//!   iteration, one dependent-reference stage at a time, prefetching the
//!   next stage's addresses; read-write conflicts during build are handled
//!   with busy flags and a delayed-tuple list resolved at the group
//!   boundary (§4.4);
//! * [`swp`] — software-pipelined prefetching (§5): stage `i` of element
//!   `j` runs `D` iterations after stage `i-1`, with a circular state
//!   array and per-bucket waiting queues for build conflicts (§5.3).
//!
//! The two prefetching schemes share their stages: build (`k = 2`) and
//! probe (`k = 3`) are each written once as a stage program (`program`),
//! and [`crate::stage`]'s two schedulers turn a program into the group or
//! the software-pipelined loop. Baseline and simple stay hand-written:
//! they are the reference the schedulers are tested against.
//!
//! All variants share [`join_pair`], which builds the table on the build
//! partition and probes it with the probe partition — the per-partition
//! step of the GRACE algorithm's second phase.

pub mod baseline;
pub mod group;
pub(crate) mod program;
pub mod simple;
pub mod swp;

pub use group::GroupProbe;

use phj_memsim::{MemoryModel, RegionKind};
use phj_obs::{self as obs, Recorder};
use phj_storage::{tuple::key_bytes_of, Relation, PAGE_SIZE};

use crate::cost;
use crate::hash::hash_key;
use crate::plan;
use crate::profile;
use crate::sink::JoinSink;
use crate::table::HashTable;

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
    match params.scheme {
        JoinScheme::Baseline => baseline::build(mem, params, table, build),
        JoinScheme::Simple => simple::build(mem, params, table, build),
        JoinScheme::Group { g } => group::build(mem, params, table, build, g),
        JoinScheme::Swp { d } => swp::build(mem, params, table, build, d),
    }
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
    match params.scheme {
        JoinScheme::Baseline => baseline::probe(mem, params, table, build, probe, sink),
        JoinScheme::Simple => simple::probe(mem, params, table, build, probe, sink),
        JoinScheme::Group { g } => group::probe(mem, params, table, build, probe, g, sink),
        JoinScheme::Swp { d } => swp::probe(mem, params, table, build, probe, d, sink),
    }
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

/// Compare the join keys of a build and probe tuple byte-wise.
#[inline]
pub(crate) fn keys_equal(build_rel: &Relation, probe_rel: &Relation, bt: &[u8], pt: &[u8]) -> bool {
    key_bytes_of(build_rel.schema(), bt) == key_bytes_of(probe_rel.schema(), pt)
}

/// Charge the input-side code-0 cost for one tuple.
#[inline]
pub(crate) fn charge_code0<M: MemoryModel>(mem: &mut M, use_stored: bool) {
    mem.busy(cost::code0_cost(use_stored));
}
