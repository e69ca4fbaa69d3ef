//! Hash-based group-by / aggregation with prefetching.
//!
//! The paper's conclusion (§8) claims the techniques "can improve other
//! hash-based algorithms such as hash-based group-by and aggregation
//! algorithms". This module substantiates that: a grouping operator
//! (COUNT(*) + SUM(expr) per key) over the same slotted-page relations,
//! with the same four schemes.
//!
//! The dependency structure per input tuple is the join build's plus a
//! read-modify-write: hash the group key → visit the bucket header →
//! (maybe) visit the entry array → update or insert the group entry.
//! Because an update *mutates* shared state, the staged schemes reuse the
//! build-side conflict machinery: a busy flag guards a bucket from stage 1
//! until the tuple's update lands; conflicting tuples are delayed to the
//! group boundary (group prefetching) or parked on waiting queues
//! (software pipelining), exactly as in §4.4 / §5.3. The upsert is one
//! stage program; each scheme is one of [`crate::stage`]'s schedules of
//! it.

mod table;

pub use table::{AggEntry, AggTable, UpsertStep};

use phj_memsim::{MemoryModel, RegionKind};
use phj_storage::{tuple::key_bytes_of, Relation};

use crate::cost;
use crate::hash::hash_key;
use crate::profile;
use crate::stage::{self, Schedule, StageProgram, Step};

/// Which aggregation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggScheme {
    /// One tuple at a time, no prefetching.
    Baseline,
    /// Prefetch each input page after reading it.
    Simple,
    /// Group prefetching with group size `g`.
    Group {
        /// Group size `G`.
        g: usize,
    },
    /// Software-pipelined prefetching with prefetch distance `d`.
    Swp {
        /// Prefetch distance `D`.
        d: usize,
    },
}

impl AggScheme {
    /// The schedule this scheme runs the upsert program under.
    pub fn schedule(self) -> Schedule {
        match self {
            AggScheme::Baseline => Schedule::Sequential { prefetch_input: false },
            AggScheme::Simple => Schedule::Sequential { prefetch_input: true },
            AggScheme::Group { g } => Schedule::Group { g },
            AggScheme::Swp { d } => Schedule::Pipelined { d },
        }
    }
}

/// Aggregate `input` by join key: COUNT(*) and SUM(`extract(tuple)`).
///
/// `buckets` sizes the hash table (≈ expected distinct keys). The
/// extractor is the aggregated expression; its evaluation is charged as
/// part of the per-tuple stage cost.
///
/// ```
/// use phj::aggregate::{aggregate, AggScheme};
/// use phj::hash::hash_key;
/// use phj_memsim::NativeModel;
/// use phj_storage::{RelationBuilder, Schema};
///
/// let mut b = RelationBuilder::new(Schema::key_payload(12));
/// for i in 0u32..100 {
///     let mut t = [0u8; 12];
///     t[..4].copy_from_slice(&(i % 10).to_le_bytes());
///     t[4] = 1;
///     b.push(&t);
/// }
/// let input = b.finish();
/// let table = aggregate(
///     &mut NativeModel,
///     AggScheme::Group { g: 8 },
///     &input,
///     13,
///     |t| t[4] as i64,
/// );
/// assert_eq!(table.num_groups(), 10);
/// let key = 3u32.to_le_bytes();
/// let e = table.lookup(hash_key(&key), &key).unwrap();
/// assert_eq!((e.count, e.sum), (10, 10));
/// ```
pub fn aggregate<M, F>(
    mem: &mut M,
    scheme: AggScheme,
    input: &Relation,
    buckets: usize,
    extract: F,
) -> AggTable
where
    M: MemoryModel,
    F: Fn(&[u8]) -> i64,
{
    aggregate_page_range(mem, scheme, input, 0..input.num_pages(), buckets, extract)
}

/// [`aggregate`] over only the pages in `pages` — the morsel a parallel
/// aggregation hands to one worker. Each worker aggregates its page
/// ranges into a private table; [`AggTable::merge_from`] folds the
/// per-worker tables together at the barrier, reproducing the sequential
/// result exactly (COUNT and SUM are commutative and associative).
pub fn aggregate_page_range<M, F>(
    mem: &mut M,
    scheme: AggScheme,
    input: &Relation,
    pages: std::ops::Range<usize>,
    buckets: usize,
    extract: F,
) -> AggTable
where
    M: MemoryModel,
    F: Fn(&[u8]) -> i64,
{
    let pages = pages.start.min(input.num_pages())..pages.end.min(input.num_pages());
    // Worst case every tuple is a distinct group; the arena reservation
    // must cover that (plus doubling waste, handled inside AggTable).
    let expect: usize = pages
        .clone()
        .map(|pi| input.page(pi).nslots() as usize)
        .sum();
    let mut table = AggTable::new(buckets, expect);
    if profile::profiling(mem) {
        let (addr, len) = table.headers_span();
        mem.region_register(RegionKind::HashBucketHeaders, addr, len);
        let (addr, len) = table.arena_span();
        mem.region_register(RegionKind::HashCells, addr, len);
    }
    profile::register_relation(mem, RegionKind::SlottedPages, input);
    let mut prog = Upsert { input, table: &mut table, extract: &extract };
    stage::run(scheme.schedule(), mem, &mut prog, input, pages);
    table.assert_quiescent();
    mem.region_clear(RegionKind::HashBucketHeaders);
    mem.region_clear(RegionKind::HashCells);
    mem.region_clear(RegionKind::SlottedPages);
    table
}

/// Straight-line upsert of one tuple's `value` under its group key, all
/// memory accesses charged: the conflict-resolution path of the
/// prefetching schedules (bucket warm), which reuse the hash and value
/// their stage 0 computed.
fn upsert_one<M: MemoryModel>(
    mem: &mut M,
    table: &mut AggTable,
    hash: u32,
    key: &[u8],
    value: i64,
) {
    let b = table.bucket_of(hash);
    mem.visit(table.header_addr(b), AggTable::header_len());
    mem.busy(cost::HEADER_CHECK);
    let mut grown = 0usize;
    match table.begin_upsert(b, hash, key, 0, &mut grown) {
        UpsertStep::UpdatedInline | UpsertStep::InsertedInline => {
            mem.write(table.header_addr(b), AggTable::header_len());
            mem.busy(cost::CELL_WRITE);
            table.apply_pending(b, value);
        }
        UpsertStep::TouchEntry(idx) => {
            if grown > 0 {
                let (addr, len) = table.array_span(b).expect("grown implies array");
                mem.visit(addr, len.min(grown));
                mem.busy(cost::copy_cost(grown));
            }
            let (addr, len) = table.array_span(b).expect("overflow entry implies array");
            mem.visit(addr, len);
            mem.busy(cost::CELL_CHECK * table.overflow_len(b).max(1) as u64);
            mem.write(table.entry_addr(idx), AggTable::entry_len());
            mem.busy(cost::CELL_WRITE);
            table.finish_overflow_upsert(b, idx, value);
        }
        UpsertStep::Busy(_) => unreachable!("straight-line upsert is atomic"),
    }
}

/// Upsert: hash the group key → header (update or insert inline, or
/// reserve capacity in the entry array) → entry array (update the match
/// or append the new group).
struct Upsert<'a, F> {
    input: &'a Relation,
    table: &'a mut AggTable,
    extract: &'a F,
}

#[derive(Default)]
struct UpsertState {
    pi: usize,
    slot: u16,
    hash: u32,
    bucket: usize,
    value: i64,
    /// Entry-array slot reserved in stage 1 for stage 2.
    touch: u32,
}

impl<F: Fn(&[u8]) -> i64> StageProgram for Upsert<'_, F> {
    type State = UpsertState;
    const K: usize = 2;

    #[inline]
    fn load<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        s: &mut UpsertState,
        pi: usize,
        slot: u16,
        bk: u64,
    ) {
        mem.busy(cost::code0_cost(false) + cost::AGG_EXTRACT + bk);
        let t = self.input.page(pi).tuple(slot);
        s.pi = pi;
        s.slot = slot;
        s.hash = hash_key(key_bytes_of(self.input.schema(), t));
        s.bucket = self.table.bucket_of(s.hash);
        s.value = (self.extract)(t);
    }

    #[inline]
    fn stage<M: MemoryModel>(
        &mut self,
        mem: &mut M,
        k: usize,
        s: &mut UpsertState,
        me: u32,
        bk: u64,
    ) -> Step {
        let table = &mut *self.table;
        match k {
            // Prefetch the bucket header.
            0 => {
                mem.prefetch(table.header_addr(s.bucket), AggTable::header_len());
                Step::Next
            }
            // Examine the header: update/insert inline groups, or prefetch
            // the entry array for stage 2.
            1 => {
                mem.visit(table.header_addr(s.bucket), AggTable::header_len());
                mem.busy(cost::HEADER_CHECK + bk);
                let key = key_bytes_of(self.input.schema(), self.input.page(s.pi).tuple(s.slot));
                let mut grown = 0usize;
                match table.begin_upsert(s.bucket, s.hash, key, me, &mut grown) {
                    UpsertStep::UpdatedInline | UpsertStep::InsertedInline => {
                        mem.write(table.header_addr(s.bucket), AggTable::header_len());
                        mem.busy(cost::CELL_WRITE);
                        table.apply_pending(s.bucket, s.value);
                        Step::Done
                    }
                    UpsertStep::TouchEntry(idx) => {
                        if grown > 0 {
                            let (addr, len) = table.array_span(s.bucket).expect("array");
                            mem.visit(addr, len.min(grown));
                            mem.busy(cost::copy_cost(grown));
                        }
                        let (addr, len) = table.array_span(s.bucket).expect("array");
                        mem.prefetch(addr, len);
                        s.touch = idx;
                        Step::Next
                    }
                    UpsertStep::Busy(owner) => Step::Owner(owner),
                }
            }
            // Scan the array, land the update or insert.
            _ => {
                mem.busy(bk);
                let (addr, len) = table.array_span(s.bucket).expect("array");
                mem.visit(addr, len);
                mem.busy(cost::CELL_CHECK * table.overflow_len(s.bucket).max(1) as u64);
                mem.write(table.entry_addr(s.touch), AggTable::entry_len());
                mem.busy(cost::CELL_WRITE);
                table.finish_overflow_upsert(s.bucket, s.touch, s.value);
                Step::Done
            }
        }
    }

    fn resolve<M: MemoryModel>(&mut self, mem: &mut M, s: &mut UpsertState) {
        let key = key_bytes_of(self.input.schema(), self.input.page(s.pi).tuple(s.slot));
        upsert_one(mem, self.table, s.hash, key, s.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_memsim::{NativeModel, SimEngine};
    use phj_storage::{RelationBuilder, Schema};
    use std::collections::HashMap;

    fn rel(keys: &[u32]) -> Relation {
        let schema = Schema::key_payload(16);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 16];
        for (i, &k) in keys.iter().enumerate() {
            t[..4].copy_from_slice(&k.to_le_bytes());
            t[4..12].copy_from_slice(&(i as u64).to_le_bytes());
            b.push(&t);
        }
        b.finish()
    }

    fn extract(t: &[u8]) -> i64 {
        u64::from_le_bytes(t[4..12].try_into().unwrap()) as i64
    }

    fn reference(keys: &[u32]) -> HashMap<u32, (u64, i64)> {
        let mut m = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            let e = m.entry(k).or_insert((0u64, 0i64));
            e.0 += 1;
            e.1 += i as i64;
        }
        m
    }

    fn check(table: &AggTable, want: &HashMap<u32, (u64, i64)>) {
        assert_eq!(table.num_groups(), want.len());
        for (&key, &(count, sum)) in want {
            let kb = key.to_le_bytes();
            let e = table.lookup(hash_key(&kb), &kb).expect("group exists");
            assert_eq!(e.count, count, "key {key}");
            assert_eq!(e.sum, sum, "key {key}");
        }
    }

    fn schemes() -> Vec<AggScheme> {
        vec![
            AggScheme::Baseline,
            AggScheme::Simple,
            AggScheme::Group { g: 2 },
            AggScheme::Group { g: 16 },
            AggScheme::Swp { d: 1 },
            AggScheme::Swp { d: 4 },
        ]
    }

    #[test]
    fn all_schemes_match_reference() {
        let keys: Vec<u32> = (0..3000u32).map(|i| i % 257).collect();
        let input = rel(&keys);
        let want = reference(&keys);
        for scheme in schemes() {
            let mut mem = NativeModel;
            let table = aggregate(&mut mem, scheme, &input, 301, extract);
            check(&table, &want);
        }
    }

    #[test]
    fn single_hot_key_forces_conflicts() {
        let keys = vec![42u32; 500];
        let input = rel(&keys);
        let want = reference(&keys);
        for scheme in schemes() {
            let mut mem = NativeModel;
            let table = aggregate(&mut mem, scheme, &input, 7, extract);
            check(&table, &want);
        }
        // One hot key only ever updates the inline entry, which never
        // sets the busy flag. Three keys in one bucket go through the
        // overflow array, so in-flight upserts keep the bucket busy and
        // later tuples take the conflict path. The expression is still
        // evaluated exactly once per tuple.
        let keys: Vec<u32> = (0..500u32).map(|i| i % 3).collect();
        let input = rel(&keys);
        let want = reference(&keys);
        for scheme in schemes() {
            let calls = std::cell::Cell::new(0usize);
            let counted = |t: &[u8]| {
                calls.set(calls.get() + 1);
                extract(t)
            };
            let table = aggregate(&mut NativeModel, scheme, &input, 1, counted);
            check(&table, &want);
            assert_eq!(calls.get(), keys.len(), "{scheme:?}");
        }
    }

    #[test]
    fn distinct_keys_only_inserts() {
        let keys: Vec<u32> = (0..1000u32).collect();
        let input = rel(&keys);
        let want = reference(&keys);
        for scheme in schemes() {
            let mut mem = NativeModel;
            let table = aggregate(&mut mem, scheme, &input, 1009, extract);
            check(&table, &want);
        }
    }

    #[test]
    fn empty_input() {
        let input = rel(&[]);
        let mut mem = NativeModel;
        let table = aggregate(&mut mem, AggScheme::Group { g: 8 }, &input, 16, extract);
        assert_eq!(table.num_groups(), 0);
    }

    #[test]
    fn staged_schemes_beat_baseline_in_sim() {
        // Many distinct keys over a large table: every upsert misses.
        let keys: Vec<u32> = (0..40_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let input = rel(&keys);
        let time = |scheme| {
            let mut mem = SimEngine::paper();
            let t = aggregate(&mut mem, scheme, &input, 40_009, extract);
            assert!(t.num_groups() > 0);
            mem.breakdown().total()
        };
        let base = time(AggScheme::Baseline);
        let grp = time(AggScheme::Group { g: 16 });
        let swp = time(AggScheme::Swp { d: 2 });
        assert!(grp * 3 < base * 2, "group {grp} vs baseline {base}");
        assert!(swp * 3 < base * 2, "swp {swp} vs baseline {base}");
    }
}
