//! Morsel-driven parallel aggregation.
//!
//! Each worker aggregates its page-range morsels into private
//! [`AggTable`]s with the unmodified sequential kernel
//! ([`aggregate_page_range`]); the per-morsel tables are folded together
//! at the barrier with [`AggTable::merge_from`] (COUNT and SUM are
//! commutative and associative, so the merged table equals the
//! sequential one for any morsel split). The driver is written once
//! over the join's `Lanes` executors: real threads natively, static
//! LPT lanes with critical-path cycles and summed event counts under
//! the simulator.

use phj::aggregate::{aggregate, aggregate_page_range, AggScheme, AggTable};
use phj::sink::pair_digest;
use phj_memsim::{MemoryModel, NativeModel, Snapshot};
use phj_obs::{Recorder, RegionsSection};
use phj_storage::Relation;

use crate::join::{
    close_span, open_span, LaneStats, Lanes, ThreadLanes, VirtualLanes, MORSELS_PER_WORKER,
};
use crate::pool::WorkerStats;
use crate::schedule::page_morsels;

/// Result of [`parallel_agg_native`].
pub struct NativeAggOutcome {
    /// The merged aggregation table.
    pub table: AggTable,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Per-worker execution counters.
    pub stats: Vec<WorkerStats>,
}

/// Result of [`parallel_agg_sim`].
pub struct SimAggOutcome {
    /// The merged aggregation table.
    pub table: AggTable,
    /// Merged run totals: critical-path breakdown, summed event counts.
    pub totals: Snapshot,
    /// Merged span recorder (present when observability was requested).
    pub recorder: Option<Recorder>,
    /// Merged per-region attribution (present when profiling was on).
    pub regions: Option<RegionsSection>,
    /// Per-lane share of the simulated work.
    pub lanes: Vec<LaneStats>,
}

/// Order-independent digest of an aggregation result: the join's
/// word-wise pair digest ([`pair_digest`]) of (key, count ‖ sum) per
/// group, additive fold. Two tables built from the same input in any
/// morsel/merge order digest identically.
pub fn agg_checksum(table: &AggTable) -> u64 {
    table
        .iter()
        .map(|e| {
            let mut acc = [0u8; 16];
            acc[..8].copy_from_slice(&e.count.to_le_bytes());
            acc[8..].copy_from_slice(&e.sum.to_le_bytes());
            pair_digest(e.key(), &acc)
        })
        .fold(0u64, u64::wrapping_add)
}

/// Fold per-morsel tables (in task order) into one, sized for the sum of
/// the per-morsel group counts.
fn merge_tables(buckets: usize, parts: Vec<AggTable>) -> AggTable {
    let groups: usize = parts.iter().map(|t| t.num_groups()).sum();
    let mut table = AggTable::new(buckets, groups.max(1));
    for part in &parts {
        table.merge_from(part);
    }
    table
}

/// In debug builds, replay the aggregation sequentially and require the
/// identical group set.
fn debug_check_against_sequential<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: &F,
    got: &AggTable,
) where
    F: Fn(&[u8]) -> i64,
{
    if cfg!(debug_assertions) {
        let seq = aggregate(&mut NativeModel, scheme, input, buckets, extract);
        debug_assert_eq!(
            (seq.num_groups(), agg_checksum(&seq)),
            (got.num_groups(), agg_checksum(got)),
            "parallel aggregation diverged from sequential"
        );
    }
}

/// The morsel aggregation over `threads` (≥ 1) lanes: one `"aggregate"`
/// phase of page-range morsels into private tables, folded together at
/// the barrier. `start` and the return value are as in the join driver.
fn run_agg<L: Lanes, F>(
    start: impl FnOnce() -> L,
    threads: usize,
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: &F,
    want_obs: bool,
) -> (L, AggTable, Option<Recorder>)
where
    F: Fn(&[u8]) -> i64 + Sync,
{
    let mut rec = want_obs.then(Recorder::new);
    let root = open_span(&mut rec, "run", Snapshot::default(), &[("threads", threads)]);
    let mut lanes = start();
    let pass = open_span(&mut rec, "aggregate", lanes.cursor(), &[("threads", threads)]);
    let tasks = page_morsels(input.num_pages(), threads, MORSELS_PER_WORKER);
    let weights: Vec<u64> = tasks.iter().map(|r| r.len() as u64).collect();
    let parts = lanes.run_phase(&mut rec, &tasks, &weights, |mem, mut lane_rec, range| {
        let span = lane_rec.as_mut().map(|r| {
            let id = r.begin("agg_morsel", mem.snapshot());
            r.meta("pages", range.len());
            id
        });
        let t = aggregate_page_range(mem, scheme, input, range.clone(), buckets, extract);
        if let (Some(r), Some(id)) = (lane_rec, span) {
            r.end(id, mem.snapshot());
        }
        t
    });
    close_span(&mut rec, pass, lanes.cursor());
    let table = merge_tables(buckets, parts);
    close_span(&mut rec, root, lanes.cursor());
    debug_check_against_sequential(scheme, input, buckets, extract, &table);
    (lanes, table, rec)
}

/// Parallel aggregation on real threads (native model).
pub fn parallel_agg_native<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: F,
    threads: usize,
    want_obs: bool,
) -> NativeAggOutcome
where
    F: Fn(&[u8]) -> i64 + Sync,
{
    let threads = threads.max(1);
    let start = || ThreadLanes::new(threads);
    let (mut lanes, table, recorder) =
        run_agg(start, threads, scheme, input, buckets, &extract, want_obs);
    let stats = lanes.phase_stats.pop().expect("the aggregation runs one phase");
    NativeAggOutcome { table, recorder, stats }
}

/// Parallel aggregation under the cycle simulator on `threads`
/// deterministic virtual lanes.
pub fn parallel_agg_sim<F>(
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: F,
    threads: usize,
    want_obs: bool,
    want_regions: bool,
) -> SimAggOutcome
where
    F: Fn(&[u8]) -> i64 + Sync,
{
    let threads = threads.max(1);
    let start = || VirtualLanes::new(threads, want_regions);
    let (lanes, table, recorder) =
        run_agg(start, threads, scheme, input, buckets, &extract, want_obs);
    let VirtualLanes { cursor: totals, regions, lanes, .. } = lanes;
    SimAggOutcome { table, totals, recorder, regions, lanes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj::hash::hash_key;
    use phj_storage::{RelationBuilder, Schema};

    fn input(rows: usize, keys: usize) -> Relation {
        let mut b = RelationBuilder::new(Schema::key_payload(24));
        let mut t = [0u8; 24];
        for i in 0..rows {
            t[..4].copy_from_slice(&((i % keys) as u32).to_le_bytes());
            t[4] = (i % 7) as u8;
            b.push(&t);
        }
        b.finish()
    }

    #[test]
    fn parallel_agg_equals_sequential() {
        let rel = input(5000, 97);
        let extract = |t: &[u8]| t[4] as i64;
        let seq = aggregate(&mut NativeModel, AggScheme::Group { g: 8 }, &rel, 101, extract);
        for threads in [1, 2, 4] {
            let nat = parallel_agg_native(AggScheme::Group { g: 8 }, &rel, 101, extract, threads, false);
            assert_eq!(nat.table.num_groups(), seq.num_groups(), "threads={threads}");
            assert_eq!(agg_checksum(&nat.table), agg_checksum(&seq), "threads={threads}");
            let sim = parallel_agg_sim(AggScheme::Swp { d: 2 }, &rel, 101, extract, threads, false, false);
            assert_eq!(sim.table.num_groups(), seq.num_groups());
            assert_eq!(agg_checksum(&sim.table), agg_checksum(&seq));
            assert!(threads == 1 || sim.totals.breakdown.total() > 0);
        }
        // Every group's accumulators survive the merge exactly.
        let key = 11u32.to_le_bytes();
        let nat = parallel_agg_native(AggScheme::Baseline, &rel, 101, extract, 3, false);
        let a = nat.table.lookup(hash_key(&key), &key).unwrap();
        let b = seq.lookup(hash_key(&key), &key).unwrap();
        assert_eq!((a.count, a.sum), (b.count, b.sum));
    }

    #[test]
    fn checksum_is_order_independent_but_value_sensitive() {
        let rel = input(400, 13);
        let extract = |t: &[u8]| t[4] as i64;
        let a = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 17, extract);
        let b = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 5, extract);
        // Different bucket counts order entries differently; same digest.
        assert_eq!(agg_checksum(&a), agg_checksum(&b));
        let other = aggregate(&mut NativeModel, AggScheme::Baseline, &rel, 17, |t| t[4] as i64 + 1);
        assert_ne!(agg_checksum(&a), agg_checksum(&other));
    }
}
