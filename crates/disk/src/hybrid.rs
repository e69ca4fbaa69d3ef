//! Partition residency for the disk join driver
//! ([`crate::grace::grace_join_files_rec`]): which build partitions live
//! in memory, when they are evicted, and how probe tuples meet them.
//!
//! A classic GRACE run writes *every* partition to disk and reads it all
//! back, even when the build side nearly fits in memory — the I/O bill
//! is flat across the budget axis. Under the resident-born policies the
//! driver instead keeps as many build partitions memory-resident as the
//! budget allows and joins their probe tuples on the fly; only the
//! overflow partitions round-trip through the spill file. With a
//! generous budget it converges on a single in-memory join; with a
//! starved one it converges on GRACE (with a finer fanout), and in
//! between it degrades *linearly* instead of falling off a cliff.
//! [`DiskJoinMode::Grace`] is the zero-residency point of the same
//! code: every partition is born [`BPart::Spilled`], so the pressure
//! checks below never find a victim.
//!
//! **Residency protocol.** The build pass appends tuples into
//! per-partition page lists and checks, at page granularity, whether
//! `resident_bytes + reserve` still fits the live budget. When it does
//! not, the **largest** resident partition is evicted — its pages
//! stream to the spill file, a [`MemTransition`] records the
//! partition's byte size and the live budget at the moment of the
//! decision, and the partition's future tuples route straight to disk.
//! The same check runs during the probe pass (evicting there first
//! drains the partition's pending probe batch through its hash table,
//! then serializes the build pages back out), so a mid-run budget
//! shrink from a [`LiveBudget`] grantor is honored within one page's
//! worth of work. [`DiskJoinMode::Dynamic`] additionally *re-absorbs*
//! spilled partitions (smallest-first) at the build→probe phase
//! boundary when the budget has headroom again — e.g. after a
//! neighboring query finished and the grantor raised the limit.
//!
//! The `reserve` slice ([`plan::hybrid_reserve`]) is held back from
//! residency to cover the probe-side batch buffers, hash-table
//! overhead, and the join-phase working space for spilled pairs.
//!
//! [`DiskJoinMode::Grace`]: crate::grace::DiskJoinMode::Grace
//! [`DiskJoinMode::Dynamic`]: crate::grace::DiskJoinMode::Dynamic
//! [`plan::hybrid_reserve`]: phj::plan::hybrid_reserve

use phj::join::{dispatch_build, dispatch_probe, JoinParams};
use phj::plan;
use phj::table::HashTable;
use phj_memsim::NativeModel;
use phj_storage::{Page, Relation, RelationBuilder, Schema, PAGE_SIZE};

use crate::budget::LiveBudget;
use crate::error::{PhjError, Result};
use crate::grace::{
    DiskGraceConfig, DiskSink, MemTransition, SpillFile, Spilled, TransitionKind,
};

/// Probe tuples for a resident partition accumulate in a small batch
/// before flushing through the partition's hash table, so the probe
/// loop amortizes dispatch overhead without holding unbounded memory.
const PROBE_BATCH_BYTES: usize = PAGE_SIZE;

/// The byte ledger both passes run their pressure checks against, and
/// the transition trail they leave.
struct Ledger<'a> {
    live: &'a LiveBudget,
    reserve: u64,
    /// Bytes held by resident partitions, counting each open page as a
    /// full page. Hash tables and batch buffers ride on `reserve`.
    resident_bytes: u64,
    /// Residency transitions of both passes, in decision order.
    transitions: Vec<MemTransition>,
}

impl Ledger<'_> {
    fn over(&self, limit: u64) -> bool {
        self.resident_bytes + self.reserve > limit
    }

    /// Safe-point entry: the live limit if residency has outgrown it.
    /// When it has not, acks a shrink the run never had to act on.
    fn pressure(&self) -> Option<u64> {
        let limit = self.live.limit();
        if self.over(limit) {
            return Some(limit);
        }
        if self.live.acked() > limit {
            self.live.ack(limit);
        }
        None
    }

    /// Ack what the run holds against `limit`. Floor: with everything
    /// spilled it still holds the reserve.
    fn ack(&self, limit: u64) {
        self.live.ack(limit.max(self.resident_bytes + self.reserve));
    }

    /// Move `bytes` of partition `v` across the memory/disk boundary and
    /// record it in the report trail and the flight recorder.
    fn transition(
        &mut self,
        v: usize,
        bytes: u64,
        limit: u64,
        kind: TransitionKind,
        phase: &'static str,
    ) {
        let op = match kind {
            TransitionKind::SpillVictim => {
                self.resident_bytes -= bytes;
                phj_flightrec::grant_op::SPILL_VICTIM
            }
            TransitionKind::Absorb => {
                self.resident_bytes += bytes;
                phj_flightrec::grant_op::ABSORB
            }
        };
        self.transitions.push(MemTransition { partition: v, bytes, budget: limit, kind, phase });
        phj_flightrec::event(phj_flightrec::EventKind::Grant, op, v as u64, bytes);
    }
}

/// The largest candidate, lowest index on ties — the eviction victim.
fn largest(candidates: impl Iterator<Item = (usize, u64)>) -> Option<(usize, u64)> {
    candidates.max_by_key(|&(i, bytes)| (bytes, std::cmp::Reverse(i)))
}

/// One build partition during the build pass.
enum BPart {
    /// Memory-resident: sealed-full pages plus the open append page.
    Res { pages: Vec<Page>, open: Page },
    /// On disk: tuples route through the spill file's buffer page.
    Spilled,
}

/// Build-pass state: partition residency and the build spill file.
pub(crate) struct BuildPass<'a> {
    ledger: Ledger<'a>,
    parts: Vec<BPart>,
    file: SpillFile,
}

impl<'a> BuildPass<'a> {
    pub(crate) fn new(
        cfg: &DiskGraceConfig,
        live: &'a LiveBudget,
        reserve: u64,
        p: usize,
    ) -> Result<Self> {
        let resident = cfg.mode.starts_resident();
        let res = || BPart::Res { pages: Vec::new(), open: Page::new() };
        let resident_bytes = if resident { (p * PAGE_SIZE) as u64 } else { 0 };
        Ok(BuildPass {
            ledger: Ledger { live, reserve, resident_bytes, transitions: Vec::new() },
            parts: (0..p).map(|_| if resident { res() } else { BPart::Spilled }).collect(),
            file: SpillFile::new(cfg, "build_spill", p)?,
        })
    }

    pub(crate) fn push(&mut self, part: usize, tuple: &[u8], h: u32) -> Result<()> {
        match &mut self.parts[part] {
            BPart::Res { pages, open } => {
                if !open.fits(tuple.len()) {
                    pages.push(std::mem::replace(open, Page::new()));
                    self.ledger.resident_bytes += PAGE_SIZE as u64;
                }
                open.insert(tuple, h)
                    .ok_or(PhjError::TupleTooLarge { bytes: tuple.len() })?;
            }
            BPart::Spilled => self.file.push(part, tuple, h)?,
        }
        self.enforce()
    }

    /// Page-granular safe point: spill largest-first victims until
    /// residency (plus the reserve) fits the live budget, then ack.
    fn enforce(&mut self) -> Result<()> {
        let Some(limit) = self.ledger.pressure() else { return Ok(()) };
        while self.ledger.over(limit) {
            let victim = largest(self.parts.iter().enumerate().filter_map(|(i, bp)| match bp {
                BPart::Res { pages, .. } => Some((i, ((pages.len() + 1) * PAGE_SIZE) as u64)),
                BPart::Spilled => None,
            }));
            let Some((v, bytes)) = victim else { break };
            // Evict: stream the full pages out; the open page becomes
            // the partition's spill buffer and keeps appending.
            let BPart::Res { pages, open } = std::mem::replace(&mut self.parts[v], BPart::Spilled)
            else {
                unreachable!("victim selection only returns resident partitions");
            };
            for page in &pages {
                self.file.push_page(v, page)?;
            }
            self.file.adopt_buf(v, open);
            self.ledger.transition(v, bytes, limit, TransitionKind::SpillVictim, "build");
        }
        self.ledger.ack(limit);
        Ok(())
    }

    /// End of the build scan: complete the spill file so its pages can
    /// be read back, then (when `absorb`) pull spilled partitions back
    /// into memory, smallest-first, while the live budget has headroom —
    /// the grantor may have freed memory since the victims spilled.
    pub(crate) fn finish_scan(&mut self, absorb: bool) -> Result<()> {
        self.file.flush_bufs()?;
        self.file.sync()?;
        if !absorb {
            return Ok(());
        }
        let ledger = &mut self.ledger;
        let map = &mut self.file.map;
        loop {
            let limit = ledger.live.limit();
            let headroom = limit.saturating_sub(ledger.resident_bytes + ledger.reserve);
            let cand = (0..self.parts.len())
                .filter(|&i| !map.part_pages[i].is_empty())
                .map(|i| (i, ((map.part_pages[i].len() + 1) * PAGE_SIZE) as u64))
                .filter(|&(_, bytes)| bytes <= headroom)
                .min_by_key(|&(i, bytes)| (bytes, i));
            let Some((v, bytes)) = cand else { break };
            let mut pages = Vec::with_capacity(map.part_pages[v].len());
            for &pid in &map.part_pages[v] {
                pages.push(map.stripes.read_page_verified(pid)?);
            }
            map.part_pages[v].clear();
            map.part_tuples[v] = 0;
            self.parts[v] = BPart::Res { pages, open: Page::new() };
            ledger.transition(v, bytes, limit, TransitionKind::Absorb, "absorb");
        }
        ledger.ack(ledger.live.limit());
        Ok(())
    }

    /// Table build: turn every resident partition into (relation, hash
    /// table) and hand the ledger on to the probe pass.
    pub(crate) fn into_probe_pass(
        mut self,
        cfg: &DiskGraceConfig,
        params: &JoinParams,
        build_schema: &Schema,
        probe_schema: &Schema,
    ) -> Result<ProbePass<'a>> {
        let p = self.parts.len();
        let mut built: Vec<Option<BuiltPart>> = Vec::with_capacity(p);
        for part in self.parts {
            let BPart::Res { pages, open } = part else {
                built.push(None);
                continue;
            };
            let mut rel = Relation::new(build_schema.clone());
            for page in pages {
                rel.push_page(page);
            }
            if open.nslots() > 0 {
                rel.push_page(open);
            } else {
                // The empty open page leaves residency with its owner.
                self.ledger.resident_bytes -= PAGE_SIZE as u64;
            }
            let n = rel.num_tuples();
            let mut table = HashTable::new(plan::hash_table_buckets(n, p), n);
            dispatch_build(&mut NativeModel, params, &mut table, &rel);
            table.assert_quiescent();
            built.push(Some(BuiltPart {
                rel,
                table,
                batch: RelationBuilder::new(probe_schema.clone()),
                batch_bytes: 0,
            }));
        }
        Ok(ProbePass {
            ledger: self.ledger,
            built,
            bfile: self.file,
            pfile: SpillFile::new(cfg, "probe_spill", p)?,
            probe_schema: probe_schema.clone(),
        })
    }
}

/// One memory-resident partition during the probe pass: the build
/// relation, its hash table, and the pending probe batch.
struct BuiltPart {
    rel: Relation,
    table: HashTable,
    batch: RelationBuilder,
    batch_bytes: usize,
}

/// Probe-pass state. Owns what the build pass left resident plus both
/// spill files.
pub(crate) struct ProbePass<'a> {
    ledger: Ledger<'a>,
    built: Vec<Option<BuiltPart>>,
    /// Build-side spill file (victims evicted mid-probe append here).
    bfile: SpillFile,
    /// Probe-side spill file for tuples routed to spilled partitions.
    pfile: SpillFile,
    probe_schema: Schema,
}

/// What the two passes leave for the spilled-pair joins and the report.
pub(crate) struct Probed {
    pub(crate) build: Spilled,
    pub(crate) probe: Spilled,
    /// Build partitions still memory-resident when the probe scan ended.
    pub(crate) resident_partitions: usize,
    /// Residency transitions of both passes, in decision order.
    pub(crate) transitions: Vec<MemTransition>,
}

impl ProbePass<'_> {
    /// Route one probe tuple: batch-join against a resident partition,
    /// spill it for a disk pair, or drop it when the spilled build
    /// partition is empty (no match possible).
    pub(crate) fn push(
        &mut self,
        part: usize,
        tuple: &[u8],
        h: u32,
        params: &JoinParams,
        sink: &mut DiskSink,
    ) -> Result<()> {
        if let Some(bp) = self.built[part].as_mut() {
            bp.batch.push_hashed(tuple, h);
            bp.batch_bytes += tuple.len();
            if bp.batch_bytes >= PROBE_BATCH_BYTES {
                self.flush_batch(part, params, sink)?;
            }
        } else if self.bfile.map.part_tuples[part] > 0 {
            self.pfile.push(part, tuple, h)?;
        }
        // else: the build partition is on disk *and* empty — an inner
        // join can never match this tuple, so it is dropped here.
        self.enforce(params, sink)
    }

    /// Join a resident partition's pending probe batch through its
    /// hash table.
    fn flush_batch(
        &mut self,
        part: usize,
        params: &JoinParams,
        sink: &mut DiskSink,
    ) -> Result<()> {
        let Some(bp) = self.built[part].as_mut() else { return Ok(()) };
        if bp.batch_bytes == 0 {
            return Ok(());
        }
        let fresh = RelationBuilder::new(self.probe_schema.clone());
        let prel = std::mem::replace(&mut bp.batch, fresh).finish();
        bp.batch_bytes = 0;
        if prel.num_tuples() > 0 {
            dispatch_probe(&mut NativeModel, params, &bp.table, &bp.rel, &prel, sink);
        }
        sink.check()
    }

    /// Probe-pass safe point: evict largest-first resident partitions
    /// until residency fits the live budget. Eviction first drains the
    /// partition's pending probe batch (every probe tuple is joined
    /// exactly once), then serializes the build relation back out.
    fn enforce(&mut self, params: &JoinParams, sink: &mut DiskSink) -> Result<()> {
        let Some(limit) = self.ledger.pressure() else { return Ok(()) };
        while self.ledger.over(limit) {
            let victim = largest(self.built.iter().enumerate().filter_map(|(i, bp)| {
                bp.as_ref().map(|b| (i, (b.rel.pages().len() * PAGE_SIZE) as u64))
            }));
            let Some((v, bytes)) = victim else { break };
            self.flush_batch(v, params, sink)?;
            let bp = self.built[v].take().expect("victim is resident");
            for page in bp.rel.pages() {
                self.bfile.push_page(v, page)?;
            }
            self.ledger.transition(v, bytes, limit, TransitionKind::SpillVictim, "probe");
        }
        self.ledger.ack(self.ledger.live.limit());
        Ok(())
    }

    /// End of the probe scan: drain every resident partition's pending
    /// batch, release the resident partitions (they are fully joined,
    /// and the disk pairs want the whole budget as working memory), and
    /// complete both spill files.
    pub(crate) fn finish(mut self, params: &JoinParams, sink: &mut DiskSink) -> Result<Probed> {
        for part in 0..self.built.len() {
            self.flush_batch(part, params, sink)?;
        }
        let resident_partitions = self.built.iter().filter(|b| b.is_some()).count();
        self.built.clear();
        Ok(Probed {
            build: self.bfile.finish()?,
            probe: self.pfile.finish()?,
            resident_partitions,
            transitions: self.ledger.transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grace::{grace_join_files, DiskGraceReport, DiskJoinMode};
    use crate::FileRelation;
    use phj_workload::JoinSpec;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("phj-hybrid-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> JoinSpec {
        JoinSpec { build_tuples: 4000, tuple_size: 48, matches_per_build: 2, pct_match: 70, seed: 11 }
    }

    fn run(dir: &Path, mode: DiskJoinMode, budget: usize) -> DiskGraceReport {
        let gen = spec().generate();
        let fb = FileRelation::create(dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(dir, "probe", &gen.probe, 3, 4).unwrap();
        let cfg = DiskGraceConfig { mem_budget: budget, mode, ..DiskGraceConfig::new(dir) };
        grace_join_files(&cfg, &fb, &fp).unwrap()
    }

    #[test]
    fn hybrid_matches_grace_at_every_budget() {
        for budget in [32 * 1024, 128 * 1024, 4 << 20] {
            let gdir = temp_dir(&format!("g{budget}"));
            let hdir = temp_dir(&format!("h{budget}"));
            let g = run(&gdir, DiskJoinMode::Grace, budget);
            let h = run(&hdir, DiskJoinMode::Hybrid, budget);
            assert_eq!(g.matches, h.matches, "budget {budget}");
            assert_eq!(g.checksum, h.checksum, "budget {budget}");
            assert_eq!(h.output.num_tuples(), h.matches);
            std::fs::remove_dir_all(&gdir).ok();
            std::fs::remove_dir_all(&hdir).ok();
        }
    }

    #[test]
    fn generous_budget_keeps_everything_resident() {
        let dir = temp_dir("resident");
        let r = run(&dir, DiskJoinMode::Hybrid, 64 << 20);
        assert_eq!(r.resident_partitions, r.num_partitions);
        assert!(r.transitions.is_empty(), "{:?}", r.transitions);
        assert!(r.degradation.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn starved_budget_spills_victims_and_still_answers() {
        let dir = temp_dir("starved");
        let r = run(&dir, DiskJoinMode::Hybrid, 24 * 1024);
        assert!(
            r.transitions.iter().any(|t| t.kind == TransitionKind::SpillVictim),
            "expected victim spills under a starved budget"
        );
        for t in &r.transitions {
            assert!(t.bytes > 0);
            assert!(t.budget > 0);
        }
        let gdir = temp_dir("starved-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 24 * 1024);
        assert_eq!(g.checksum, r.checksum);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }

    #[test]
    fn mid_run_shrink_spills_victims_and_budgets_the_ladder() {
        let dir = temp_dir("shrink");
        let gen = spec().generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        // The pending pre-run shrink (64 MiB → 8 MiB) makes the join's
        // very first safe point ack — and the ack hook then lands a
        // *mid-run* shrink to 32 KiB, deterministically, while the
        // build pass is streaming.
        let live = Arc::new(LiveBudget::new(64 << 20));
        live.request_shrink(8 << 20);
        let hooked = Arc::clone(&live);
        live.set_on_ack(move |_| hooked.request_shrink(32 * 1024));
        let cfg = DiskGraceConfig {
            mem_budget: 64 << 20,
            mode: DiskJoinMode::Dynamic,
            live_budget: Some(Arc::clone(&live)),
            ..DiskGraceConfig::new(&dir)
        };
        let r = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!(r.final_budget, 32 * 1024);
        // The shrink was observed mid-build: victims spilled against
        // the 32 KiB live budget, not the configured 64 MiB.
        assert!(
            r.transitions
                .iter()
                .any(|t| t.kind == TransitionKind::SpillVictim && t.budget == 32 * 1024),
            "{:?}",
            r.transitions
        );
        // The spilled pairs walked the degradation ladder against the
        // *live* budget.
        for d in &r.degradation {
            assert_eq!(d.budget, 32 * 1024, "{d}");
        }
        let gdir = temp_dir("shrink-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 8 << 20);
        assert_eq!(g.checksum, r.checksum);
        assert_eq!(g.matches, r.matches);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }

    #[test]
    fn dynamic_reabsorbs_after_budget_raise() {
        let dir = temp_dir("absorb");
        let gen = spec().generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        // Start starved (a pending shrink to one page forces the first
        // safe point to spill everything and ack); the ack hook then
        // raises the budget mid-build, and the dynamic mode re-absorbs
        // the spilled partitions at the build→probe phase boundary.
        let live = Arc::new(LiveBudget::new(64 * 1024));
        live.request_shrink(8 * 1024);
        let hooked = Arc::clone(&live);
        live.set_on_ack(move |_| hooked.request(32 << 20));
        let cfg = DiskGraceConfig {
            mem_budget: 64 * 1024,
            mode: DiskJoinMode::Dynamic,
            live_budget: Some(Arc::clone(&live)),
            ..DiskGraceConfig::new(&dir)
        };
        let r = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert!(
            r.transitions.iter().any(|t| t.kind == TransitionKind::Absorb),
            "expected re-absorption after the mid-run raise: {:?}",
            r.transitions
        );
        // Every partition that received build tuples was re-absorbed
        // (empty ones have nothing to pull back), so no pair ever
        // reaches the disk-join ladder.
        assert!(r.resident_partitions > 0);
        assert!(r.degradation.is_empty(), "{:?}", r.degradation);
        let gdir = temp_dir("absorb-ref");
        let g = run(&gdir, DiskJoinMode::Grace, 64 * 1024);
        assert_eq!(g.checksum, r.checksum);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&gdir).ok();
    }
}
