//! Memory-access attribution: tagging address ranges with logical region
//! kinds and charging every cache/TLB/prefetch event to its region.
//!
//! The paper's §6 evidence is a breakdown of *where* the join stalls —
//! hash-table buckets vs. tuples vs. partition output buffers. The
//! aggregate [`CacheStats`](crate::CacheStats) cannot answer that; this
//! module can. The engine/algorithms register the address ranges of their
//! data structures under a [`RegionKind`], and when profiling is enabled
//! ([`SimEngine::enable_region_profiling`](crate::SimEngine::enable_region_profiling))
//! every demand L1 hit, in-flight hit, L2 hit, memory miss, demand D-TLB
//! walk, and prefetch outcome (hidden / partial / late / polluting) is
//! charged to the region containing the touched line, alongside a
//! fixed-bucket log2 histogram of the exposed fill latency.
//!
//! Attribution is strictly observational: it never advances simulated
//! time, so cycle counts with profiling on are identical to profiling
//! off — and when profiling is disabled (the default) the only cost is
//! one `Option` test per line event.

use std::ops::Sub;

/// Logical data-structure kinds an address range can be tagged with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegionKind {
    /// The hash table's bucket-header array (Figure 2).
    HashBucketHeaders,
    /// The hash table's overflow cell arena.
    HashCells,
    /// Build-partition tuple pages (visited via cell pointers at probe).
    BuildTuples,
    /// Probe-relation tuple pages (streamed sequentially).
    ProbeTuples,
    /// Partition-phase output buffer pages.
    PartitionBuffers,
    /// Slotted input pages streamed by the partition phase.
    SlottedPages,
    /// Anything not covered by a registered range.
    Other,
}

/// Number of [`RegionKind`] variants (array dimension for per-kind data).
pub const NUM_REGION_KINDS: usize = 7;

impl RegionKind {
    /// Every kind, in report order.
    pub const ALL: [RegionKind; NUM_REGION_KINDS] = [
        RegionKind::HashBucketHeaders,
        RegionKind::HashCells,
        RegionKind::BuildTuples,
        RegionKind::ProbeTuples,
        RegionKind::PartitionBuffers,
        RegionKind::SlottedPages,
        RegionKind::Other,
    ];

    /// Stable snake_case name (report/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            RegionKind::HashBucketHeaders => "hash_bucket_headers",
            RegionKind::HashCells => "hash_cells",
            RegionKind::BuildTuples => "build_tuples",
            RegionKind::ProbeTuples => "probe_tuples",
            RegionKind::PartitionBuffers => "partition_buffers",
            RegionKind::SlottedPages => "slotted_pages",
            RegionKind::Other => "other",
        }
    }

    /// Parse the stable name back (inverse of [`Self::name`]).
    pub fn from_name(s: &str) -> Option<RegionKind> {
        RegionKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Dense index in `0..NUM_REGION_KINDS` (position in [`Self::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RegionKind::HashBucketHeaders => 0,
            RegionKind::HashCells => 1,
            RegionKind::BuildTuples => 2,
            RegionKind::ProbeTuples => 3,
            RegionKind::PartitionBuffers => 4,
            RegionKind::SlottedPages => 5,
            RegionKind::Other => 6,
        }
    }
}

/// Number of buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds exact zeros (cache hits); bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]`, with the last bucket absorbing everything above.
/// 28 buckets cover exposed latencies up to ~2^27 cycles — far beyond any
/// single fill even under heavy bus serialization.
pub const LATENCY_BUCKETS: usize = 28;

/// A fixed-bucket log2 histogram of exposed access latencies (cycles).
///
/// `Copy` and cheap to snapshot: the observability layer records one per
/// span boundary and diffs them, exactly like
/// [`Snapshot`](crate::Snapshot). Merging histograms is bucket-wise
/// addition, which is associative and commutative; quantiles are resolved
/// to the upper bound of the bucket containing the nearest-rank sample, so
/// estimates are always within one log2 bucket of the exact value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per log2 bucket.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; LATENCY_BUCKETS] }
    }
}

impl LatencyHistogram {
    /// Bucket index for a latency value.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
        }
    }

    /// Inclusive upper bound of bucket `i` (0 for bucket 0).
    pub fn bucket_bound(i: usize) -> u64 {
        assert!(i < LATENCY_BUCKETS);
        if i == 0 {
            0
        } else if i == LATENCY_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Bucket-wise merge of another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Nearest-rank quantile, resolved to the upper bound of the bucket
    /// containing the `ceil(q·n)`-th smallest sample. `q` is clamped to
    /// `[0, 1]`; returns `None` on an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1).min(n);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Self::bucket_bound(i));
            }
        }
        unreachable!("cumulative count covers every rank");
    }

    /// The p50 / p95 / p99 quantile bounds (zeros when empty).
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.quantile(0.50).unwrap_or(0),
            self.quantile(0.95).unwrap_or(0),
            self.quantile(0.99).unwrap_or(0),
        )
    }
}

impl Sub for LatencyHistogram {
    type Output = LatencyHistogram;
    /// Bucket-wise saturating delta — monotone snapshots diff like the
    /// counters in [`CacheStats`](crate::CacheStats).
    fn sub(self, rhs: LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for i in 0..LATENCY_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(rhs.buckets[i]);
        }
        out
    }
}

/// Per-region event counters (the attribution mirror of
/// [`CacheStats`](crate::CacheStats)).
///
/// For every demand line access exactly one of `l1_hits`,
/// `l1_inflight_hits`, `l2_hits`, `mem_misses` is incremented, so the
/// per-region sums of those four counters reconcile exactly with the
/// engine's global totals — the invariant the report validator checks.
///
/// `stall_cycles` is the per-line *exposed* fill latency. Lines of one
/// reference fill concurrently, so summed per-region stall cycles can
/// exceed the wall-clock `dcache_stall` (which counts overlap once).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RegionStats {
    /// Demand lines that hit a completed L1 line.
    pub l1_hits: u64,
    /// Demand lines that hit an in-flight L1 fill.
    pub l1_inflight_hits: u64,
    /// Demand lines filled from L2.
    pub l2_hits: u64,
    /// Demand lines filled from memory.
    pub mem_misses: u64,
    /// Demand D-TLB walks on this region's lines.
    pub tlb_demand_walks: u64,
    /// Exposed fill latency on this region's lines (see type docs).
    pub stall_cycles: u64,
    /// Software-prefetched lines issued for this region (drops excluded).
    pub prefetches: u64,
    /// Prefetched lines already resident or in flight (dropped).
    pub pf_dropped: u64,
    /// D-TLB walks triggered by this region's prefetches (off the
    /// critical path).
    pub tlb_prefetch_walks: u64,
    /// Prefetch outcome: fill completed before the first demand use.
    pub pf_hidden: u64,
    /// Prefetch outcome: demand use found the fill in flight with some
    /// latency already elapsed.
    pub pf_partial: u64,
    /// Prefetch outcome: demand use arrived before any latency elapsed —
    /// the prefetch was issued too late to help.
    pub pf_late: u64,
    /// Prefetch outcome: line evicted before any demand use (pollution).
    pub pf_polluting: u64,
    /// Miss-latency cycles prefetching hid on this region's lines.
    pub pf_hidden_cycles: u64,
}

impl RegionStats {
    /// Demand line accesses charged to this region.
    pub fn demand_lines(&self) -> u64 {
        self.l1_hits + self.l1_inflight_hits + self.l2_hits + self.mem_misses
    }

    /// Demand lines that missed L1 (needed any fill).
    pub fn l1_misses(&self) -> u64 {
        self.l1_inflight_hits + self.l2_hits + self.mem_misses
    }

    /// Fold another region's counters into this one (merging per-worker
    /// profiles; every counter is a conserved event count, so the merge is
    /// exact).
    pub fn merge(&mut self, other: &RegionStats) {
        self.l1_hits += other.l1_hits;
        self.l1_inflight_hits += other.l1_inflight_hits;
        self.l2_hits += other.l2_hits;
        self.mem_misses += other.mem_misses;
        self.tlb_demand_walks += other.tlb_demand_walks;
        self.stall_cycles += other.stall_cycles;
        self.prefetches += other.prefetches;
        self.pf_dropped += other.pf_dropped;
        self.tlb_prefetch_walks += other.tlb_prefetch_walks;
        self.pf_hidden += other.pf_hidden;
        self.pf_partial += other.pf_partial;
        self.pf_late += other.pf_late;
        self.pf_polluting += other.pf_polluting;
        self.pf_hidden_cycles += other.pf_hidden_cycles;
    }
}

#[derive(Debug, Clone, Copy)]
struct Range {
    start: u64,
    end: u64,
    kind: RegionKind,
}

/// Maps address ranges to [`RegionKind`]s.
///
/// Ranges are expected to be disjoint (distinct allocations), though
/// widening them to line boundaries can make neighbours share a line;
/// lookup resolves an address via the range with the greatest start not
/// above it, falling back to [`RegionKind::Other`]. Registration appends and
/// defers sorting to the first lookup; clearing a kind between phases
/// (the table dies, the buffers flush) keeps the set small and disjoint.
#[derive(Debug, Default, Clone)]
pub struct RegionRegistry {
    ranges: Vec<Range>,
    sorted: bool,
    /// One-entry lookup cache: consecutive accesses overwhelmingly land
    /// in the same page/range. It covers only the addresses the cached
    /// range answers for — up to the next range's start where ranges
    /// overlap — so a lookup never depends on the lookups before it.
    last: Option<Range>,
}

impl RegionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tag `len` bytes at `addr` as `kind`. Zero-length ranges are
    /// ignored.
    pub fn register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.ranges.push(Range { start: addr as u64, end: addr as u64 + len as u64, kind });
        self.sorted = false;
        self.last = None;
    }

    /// Drop every range tagged `kind` (a phase boundary: the structure is
    /// dead or its addresses are being re-registered).
    pub fn clear(&mut self, kind: RegionKind) {
        self.ranges.retain(|r| r.kind != kind);
        if self.last.is_some_and(|r| r.kind == kind) {
            self.last = None;
        }
    }

    /// Number of registered ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether no ranges are registered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The kind of the range containing `addr`, or
    /// [`RegionKind::Other`].
    pub fn lookup(&mut self, addr: usize) -> RegionKind {
        let a = addr as u64;
        if let Some(r) = self.last {
            if r.start <= a && a < r.end {
                return r.kind;
            }
        }
        if !self.sorted {
            self.ranges.sort_by_key(|r| r.start);
            self.sorted = true;
        }
        let i = self.ranges.partition_point(|r| r.start <= a);
        if i > 0 {
            let r = self.ranges[i - 1];
            if a < r.end {
                let end = self.ranges.get(i).map_or(r.end, |next| next.start.min(r.end));
                self.last = Some(Range { end, ..r });
                return r.kind;
            }
        }
        RegionKind::Other
    }
}

/// The profiler the engine charges into when region profiling is on:
/// a registry plus per-kind counters and latency histograms, and a
/// run-wide histogram the observability layer snapshots at span
/// boundaries.
#[derive(Debug, Default, Clone)]
pub struct RegionProfiler {
    pub(crate) registry: RegionRegistry,
    pub(crate) stats: [RegionStats; NUM_REGION_KINDS],
    pub(crate) hists: [LatencyHistogram; NUM_REGION_KINDS],
    pub(crate) total_hist: LatencyHistogram,
}

impl RegionProfiler {
    /// A fresh profiler with an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters charged to `kind` so far.
    pub fn stats(&self, kind: RegionKind) -> RegionStats {
        self.stats[kind.index()]
    }

    /// Latency histogram of `kind`'s demand line accesses.
    pub fn hist(&self, kind: RegionKind) -> &LatencyHistogram {
        &self.hists[kind.index()]
    }

    /// Run-wide latency histogram over every demand line access.
    pub fn total_hist(&self) -> &LatencyHistogram {
        &self.total_hist
    }

    /// The registry (range inspection / direct registration in tests).
    pub fn registry(&self) -> &RegionRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_and_index_matches_all() {
        for (i, k) in RegionKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(RegionKind::from_name(k.name()), Some(k));
        }
        assert_eq!(RegionKind::from_name("bogus"), None);
    }

    #[test]
    fn registry_lookup_resolves_disjoint_ranges() {
        let mut r = RegionRegistry::new();
        r.register(RegionKind::BuildTuples, 0x1000, 0x100);
        r.register(RegionKind::HashCells, 0x2000, 0x80);
        assert_eq!(r.lookup(0x1000), RegionKind::BuildTuples);
        assert_eq!(r.lookup(0x10ff), RegionKind::BuildTuples);
        assert_eq!(r.lookup(0x1100), RegionKind::Other);
        assert_eq!(r.lookup(0x2040), RegionKind::HashCells);
        assert_eq!(r.lookup(0x0), RegionKind::Other);
        assert_eq!(r.lookup(0x9999), RegionKind::Other);
    }

    #[test]
    fn registry_clear_by_kind_and_reregister() {
        let mut r = RegionRegistry::new();
        r.register(RegionKind::PartitionBuffers, 0x4000, 64);
        r.register(RegionKind::SlottedPages, 0x5000, 64);
        assert_eq!(r.lookup(0x4000), RegionKind::PartitionBuffers);
        r.clear(RegionKind::PartitionBuffers);
        assert_eq!(r.lookup(0x4000), RegionKind::Other);
        assert_eq!(r.lookup(0x5000), RegionKind::SlottedPages);
        assert_eq!(r.len(), 1);
        // The same addresses can be re-registered under a new kind.
        r.register(RegionKind::ProbeTuples, 0x4000, 64);
        assert_eq!(r.lookup(0x4000), RegionKind::ProbeTuples);
    }

    #[test]
    fn registry_lookup_cache_survives_interleaving() {
        let mut r = RegionRegistry::new();
        r.register(RegionKind::BuildTuples, 0x1000, 0x1000);
        r.register(RegionKind::ProbeTuples, 0x8000, 0x1000);
        for _ in 0..3 {
            assert_eq!(r.lookup(0x1004), RegionKind::BuildTuples);
            assert_eq!(r.lookup(0x8abc), RegionKind::ProbeTuples);
            assert_eq!(r.lookup(0x7000), RegionKind::Other);
        }
    }

    #[test]
    fn registry_lookup_of_overlapping_ranges_ignores_history() {
        // Two ranges sharing 0x1f00..0x2000 (neighbours widened to one
        // line): the later start owns the overlap whatever was looked up
        // before.
        let mut r = RegionRegistry::new();
        r.register(RegionKind::BuildTuples, 0x1000, 0x1000);
        r.register(RegionKind::ProbeTuples, 0x1f00, 0x1000);
        assert_eq!(r.lookup(0x1f80), RegionKind::ProbeTuples);
        assert_eq!(r.lookup(0x1004), RegionKind::BuildTuples);
        assert_eq!(r.lookup(0x1f80), RegionKind::ProbeTuples, "not the cached range");
        assert_eq!(r.lookup(0x1efc), RegionKind::BuildTuples);
        assert_eq!(r.lookup(0x2efc), RegionKind::ProbeTuples);
    }

    #[test]
    fn zero_length_register_is_ignored() {
        let mut r = RegionRegistry::new();
        r.register(RegionKind::Other, 0x1000, 0);
        assert!(r.is_empty());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(150), 8);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        // Bounds bracket their bucket.
        for v in [1u64, 2, 3, 150, 1 << 20] {
            let i = LatencyHistogram::bucket_index(v);
            assert!(v <= LatencyHistogram::bucket_bound(i));
            if i > 1 {
                assert!(v > LatencyHistogram::bucket_bound(i - 1));
            }
        }
    }

    #[test]
    fn histogram_record_count_and_quantiles() {
        let mut h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.record(0); // hits
        }
        for _ in 0..10 {
            h.record(150); // full-latency misses → bucket 8, bound 255
        }
        assert_eq!(h.count(), 100);
        let (p50, p95, p99) = h.percentiles();
        assert_eq!(p50, 0);
        assert_eq!(p95, 255);
        assert_eq!(p99, 255);
    }

    #[test]
    fn histogram_merge_and_sub() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        a.record(5);
        b.record(5);
        b.record(1000);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        let d = merged - a;
        assert_eq!(d, b);
        // Saturating the other way round.
        assert_eq!(a - merged, LatencyHistogram::default());
    }

    #[test]
    fn region_stats_derived_counters() {
        let s = RegionStats {
            l1_hits: 5,
            l1_inflight_hits: 1,
            l2_hits: 2,
            mem_misses: 3,
            ..Default::default()
        };
        assert_eq!(s.demand_lines(), 11);
        assert_eq!(s.l1_misses(), 6);
    }
}
