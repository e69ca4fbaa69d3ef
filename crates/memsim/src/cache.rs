//! Set-associative caches with in-flight fills.
//!
//! A [`SetAssocCache`] indexes cache-line addresses into LRU sets. Lines
//! carry a `ready_at` cycle: a line installed by a prefetch is *in flight*
//! until its fill completes, and a demand access that arrives early stalls
//! only for the remaining latency — this is what makes prefetching overlap
//! misses with computation in the timing model.
//!
//! Lines also record whether they were installed by a prefetch and whether
//! they have been demand-used, so the engine can count prefetched lines
//! that were **evicted before use** — the conflict-miss pathology the paper
//! observes when the group size `G` or prefetch distance `D` is too large
//! (Figs 13 and 17).

/// Result of probing a cache for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Line resident and fill complete.
    Hit,
    /// Line resident but still in flight; usable at the given cycle.
    InFlight(u64),
    /// Line absent.
    Miss,
}

/// What was displaced by an install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// No line was displaced (an invalid way was filled).
    None,
    /// A line was displaced.
    Line {
        /// The victim's line address (for attributing pollution to the
        /// region the wasted prefetch targeted).
        tag: u64,
        /// True when the victim had been installed by a prefetch and was
        /// never demand-accessed (wasted prefetch — cache pollution).
        prefetched_unused: bool,
        /// True when the victim was dirty (a write-back is due).
        dirty: bool,
    },
}

/// One way of a set: 32 bytes, so two ways share a host cache line.
#[derive(Clone, Copy)]
struct Line {
    /// Line address, or [`NO_LINE`] for an invalid way.
    tag: u64,
    ready_at: u64,
    /// Cycle the fill was requested (for prefetches: the issue time).
    /// `ready_at - fill_start` is the latency the fill spent in flight —
    /// the latency a successful prefetch *hides* from the demand access.
    fill_start: u64,
    /// Per-set LRU stamp (larger = more recent) shifted past the
    /// [`PREFETCHED`], [`USED`] and [`DIRTY`] flag bits. Stamps are
    /// unique within a cache, so ordering by `meta` is ordering by stamp.
    meta: u64,
}

/// Tag of an invalid way. Line addresses are byte addresses shifted
/// right by `log2(line size)`, so no line is ever `u64::MAX`.
const NO_LINE: u64 = u64::MAX;
/// Installed by a prefetch.
const PREFETCHED: u64 = 1;
/// Demand-accessed since its install (demand installs are born used).
const USED: u64 = 2;
/// Written since its install.
const DIRTY: u64 = 4;
const FLAGS: u64 = PREFETCHED | USED | DIRTY;
const STAMP_SHIFT: u32 = 3;

const INVALID: Line = Line { tag: NO_LINE, ready_at: 0, fill_start: 0, meta: 0 };

/// A set-associative cache over line addresses (`addr >> line_shift`).
pub struct SetAssocCache {
    ways: usize,
    set_mask: u64,
    lines: Vec<Line>,
    clock: u64,
}

impl SetAssocCache {
    /// Create a cache with `sets` sets (power of two) of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two() && sets > 0);
        assert!(ways > 0);
        SetAssocCache {
            ways,
            set_mask: (sets - 1) as u64,
            lines: vec![INVALID; sets * ways],
            clock: 0,
        }
    }

    /// Probe for `line` without changing replacement state.
    pub fn probe(&self, line: u64, now: u64) -> Probe {
        let base = self.set_base(line);
        for w in &self.lines[base..base + self.ways] {
            if w.tag == line {
                return if w.ready_at <= now {
                    Probe::Hit
                } else {
                    Probe::InFlight(w.ready_at)
                };
            }
        }
        Probe::Miss
    }

    /// Demand access: probe and, on residency, promote to MRU and mark
    /// used (and dirty, for writes). Returns the probe result (timing
    /// handled by the engine).
    pub fn access(&mut self, line: u64, now: u64) -> Probe {
        self.access_rw(line, now, false)
    }

    /// [`Self::access`] with an explicit read/write flag.
    pub fn access_rw(&mut self, line: u64, now: u64, write: bool) -> Probe {
        self.access_demand(line, now, write).0
    }

    /// Demand access that also reports prefetch coverage: on the *first*
    /// demand touch of a prefetch-installed line, the second component is
    /// `Some((fill_start, ready_at))` — the window whose latency the
    /// prefetch took off the critical path.
    pub fn access_demand(&mut self, line: u64, now: u64, write: bool) -> (Probe, Option<(u64, u64)>) {
        let base = self.set_base(line);
        self.clock += 1;
        let clock = self.clock;
        for w in &mut self.lines[base..base + self.ways] {
            if w.tag == line {
                let unused_prefetch = w.meta & (PREFETCHED | USED) == PREFETCHED;
                let pf_first_use = unused_prefetch.then_some((w.fill_start, w.ready_at));
                let dirty = if write { DIRTY } else { 0 };
                w.meta = clock << STAMP_SHIFT | (w.meta & FLAGS) | USED | dirty;
                let probe = if w.ready_at <= now {
                    Probe::Hit
                } else {
                    Probe::InFlight(w.ready_at)
                };
                return (probe, pf_first_use);
            }
        }
        (Probe::Miss, None)
    }

    /// Install `line` with fill request time `fill_start` and completion
    /// `ready_at`, evicting the set's LRU way if needed. `by_prefetch`
    /// tags the line for the evicted-before-use statistic and the hidden
    /// latency credited on its first demand use. A demand install is born
    /// "used".
    pub fn install(&mut self, line: u64, fill_start: u64, ready_at: u64, by_prefetch: bool) -> Evicted {
        let base = self.set_base(line);
        self.clock += 1;
        let clock = self.clock;
        debug_assert_ne!(line, NO_LINE, "line address collides with the invalid tag");
        // Prefer an invalid way; otherwise evict the smallest stamp.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.ways {
            let w = &self.lines[i];
            if w.tag == NO_LINE {
                victim = i;
                break;
            }
            debug_assert_ne!(w.tag, line, "install of resident line");
            if w.meta < best {
                best = w.meta;
                victim = i;
            }
        }
        let old = self.lines[victim];
        let flags = if by_prefetch { PREFETCHED } else { USED };
        let meta = clock << STAMP_SHIFT | flags;
        self.lines[victim] = Line { tag: line, ready_at, fill_start, meta };
        if old.tag == NO_LINE {
            Evicted::None
        } else {
            Evicted::Line {
                tag: old.tag,
                prefetched_unused: old.meta & (PREFETCHED | USED) == PREFETCHED,
                dirty: old.meta & DIRTY != 0,
            }
        }
    }

    /// Invalidate everything (the Fig 18 periodic flush).
    pub fn flush(&mut self) -> u64 {
        let mut dropped = 0;
        for w in &mut self.lines {
            if w.tag != NO_LINE {
                dropped += 1;
            }
            *w = INVALID;
        }
        dropped
    }

    /// Number of resident lines (diagnostics).
    pub fn resident(&self) -> usize {
        self.lines.iter().filter(|w| w.tag != NO_LINE).count()
    }

    #[inline]
    fn set_base(&self, line: u64) -> usize {
        ((line & self.set_mask) as usize) * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert_eq!(c.access(42, 0), Probe::Miss);
        c.install(42, 0, 0, false);
        assert_eq!(c.access(42, 1), Probe::Hit);
    }

    #[test]
    fn inflight_until_ready() {
        let mut c = SetAssocCache::new(4, 2);
        c.install(7, 0, 100, true);
        assert_eq!(c.access(7, 50), Probe::InFlight(100));
        assert_eq!(c.access(7, 100), Probe::Hit);
    }

    #[test]
    fn lru_within_set() {
        // 1 set, 2 ways: lines 0 and 4 map to the same set when mask = 0.
        let mut c = SetAssocCache::new(1, 2);
        c.install(0, 0, 0, false);
        c.install(1, 0, 0, false);
        c.access(0, 0); // 0 is MRU
        c.install(2, 0, 0, false); // evicts 1
        assert_eq!(c.probe(0, 0), Probe::Hit);
        assert_eq!(c.probe(1, 0), Probe::Miss);
        assert_eq!(c.probe(2, 0), Probe::Hit);
    }

    #[test]
    fn eviction_reports_unused_prefetch() {
        let mut c = SetAssocCache::new(1, 1);
        c.install(1, 0, 10, true); // prefetched, never used
        let e = c.install(2, 0, 20, false);
        assert_eq!(e, Evicted::Line { tag: 1, prefetched_unused: true, dirty: false });
        // Now use line 2 (demand install counts as used).
        let e = c.install(3, 0, 30, true);
        assert_eq!(e, Evicted::Line { tag: 2, prefetched_unused: false, dirty: false });
    }

    #[test]
    fn prefetched_line_used_then_evicted_is_not_wasted() {
        let mut c = SetAssocCache::new(1, 1);
        c.install(1, 0, 0, true);
        assert_eq!(c.access(1, 5), Probe::Hit); // marks used
        let e = c.install(2, 0, 0, false);
        assert_eq!(e, Evicted::Line { tag: 1, prefetched_unused: false, dirty: false });
    }

    #[test]
    fn access_demand_reports_first_prefetched_use_only() {
        let mut c = SetAssocCache::new(4, 2);
        c.install(7, 5, 100, true); // prefetched at 5, ready at 100
        let (p, pf) = c.access_demand(7, 150, false);
        assert_eq!(p, Probe::Hit);
        assert_eq!(pf, Some((5, 100)), "first demand use reports the fill window");
        let (p, pf) = c.access_demand(7, 151, false);
        assert_eq!(p, Probe::Hit);
        assert_eq!(pf, None, "later uses report nothing");
        // Demand installs are born used: no coverage report.
        c.install(8, 0, 0, false);
        assert_eq!(c.access_demand(8, 1, false).1, None);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.install(0, 0, 0, false); // set 0
        c.install(1, 0, 0, false); // set 1
        assert_eq!(c.probe(0, 0), Probe::Hit);
        assert_eq!(c.probe(1, 0), Probe::Hit);
        c.install(2, 0, 0, false); // set 0 again, evicts 0
        assert_eq!(c.probe(0, 0), Probe::Miss);
        assert_eq!(c.probe(1, 0), Probe::Hit);
    }

    #[test]
    fn flush_invalidates_all() {
        let mut c = SetAssocCache::new(4, 2);
        for l in 0..8u64 {
            c.install(l, 0, 0, false);
        }
        assert_eq!(c.resident(), 8);
        assert_eq!(c.flush(), 8);
        assert_eq!(c.resident(), 0);
        assert_eq!(c.probe(3, 0), Probe::Miss);
    }

    #[test]
    fn dirty_lines_reported_on_eviction() {
        let mut c = SetAssocCache::new(1, 1);
        c.install(1, 0, 0, false);
        c.access_rw(1, 0, true); // dirty it
        let e = c.install(2, 0, 0, false);
        assert_eq!(e, Evicted::Line { tag: 1, prefetched_unused: false, dirty: true });
        // Clean line evicts clean.
        let e = c.install(3, 0, 0, false);
        assert_eq!(e, Evicted::Line { tag: 2, prefetched_unused: false, dirty: false });
    }

    #[test]
    fn line_record_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 32);
    }

    #[test]
    fn flags_survive_promotion_and_never_reorder_lru() {
        // 1 set, 2 ways. Line 0 is a dirty prefetched line, line 1 a clean
        // demand line; the flag bits below the stamp must not decide which
        // one is older.
        let mut c = SetAssocCache::new(1, 2);
        c.install(0, 0, 0, true);
        c.access_rw(0, 0, true); // used + dirty, now MRU
        c.install(1, 0, 0, false);
        c.access(0, 0); // 0 MRU again; 1 is LRU despite its smaller flags
        let e = c.install(2, 0, 0, false);
        assert_eq!(e, Evicted::Line { tag: 1, prefetched_unused: false, dirty: false });
        let e = c.install(3, 0, 0, false);
        assert_eq!(e, Evicted::Line { tag: 0, prefetched_unused: false, dirty: true });
    }

    #[test]
    fn capacity_matches_geometry() {
        let mut c = SetAssocCache::new(256, 4);
        for l in 0..1024u64 {
            c.install(l, 0, 0, false);
        }
        assert_eq!(c.resident(), 1024);
        // One more line must evict something.
        assert_ne!(c.install(5000, 0, 0, false), Evicted::None);
    }
}
