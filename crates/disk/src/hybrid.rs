//! Partition residency for the disk join driver
//! ([`crate::grace::grace_join_files_rec`]): which build partitions live
//! in memory, when they are evicted, and how probe pages meet them.
//!
//! Under the resident-born policies the driver keeps as many build
//! partitions memory-resident as the budget allows and joins their probe
//! tuples on the fly; only the overflow partitions round-trip through the
//! spill file, so the I/O bill degrades *linearly* from a single
//! in-memory join to GRACE instead of falling off a cliff.
//! [`DiskJoinMode::Grace`] is the zero-residency point of the same code.
//!
//! [`DiskStore`] is the disk side of core's [`PartitionStore`] seam: a
//! page the partition program seals is kept (build pass) or probed
//! against its partition's hash table (probe pass) if the partition is
//! resident, and goes to the pass's spill file as a sealed image if not.
//! The overflow ladder's repartitioning passes use it with every
//! partition spilled.
//!
//! **Residency protocol.** Every seal is a safe point: if
//! `resident_bytes + reserve` (each resident build partition's open
//! buffer page counted as full) outgrows the live budget, the **largest**
//! resident partition is evicted to the build spill file and a
//! [`MemTransition`] records its size and the live budget. A partition
//! evicted mid-probe needs no drain step: its open probe page seals later
//! into the probe spill and joins with the pair. So a [`LiveBudget`]
//! shrink is honored within one page's worth of work.
//! [`DiskJoinMode::Dynamic`] also *re-absorbs* spilled partitions
//! (smallest-first) at the build→probe boundary when the budget has
//! headroom again. The `reserve` ([`plan::hybrid_reserve`]) covers the
//! probe buffer pages, hash tables, and the spilled pairs' join memory.
//!
//! [`DiskJoinMode::Grace`]: crate::grace::DiskJoinMode::Grace
//! [`DiskJoinMode::Dynamic`]: crate::grace::DiskJoinMode::Dynamic
//! [`plan::hybrid_reserve`]: phj::plan::hybrid_reserve
//! [`PartitionStore`]: phj::partition::PartitionStore

use phj::join::{dispatch_build, dispatch_probe, JoinParams};
use phj::partition::PartitionStore;
use phj::plan;
use phj::table::HashTable;
use phj_memsim::NativeModel;
use phj_storage::{Page, Relation, Schema, PAGE_SIZE};

use crate::budget::LiveBudget;
use crate::error::Result;
use crate::grace::{DiskGraceConfig, DiskSink, MemTransition, SpillFile, TransitionKind};

/// The byte ledger both passes run their pressure checks against, and
/// the transition trail they leave.
struct Ledger<'a> {
    live: &'a LiveBudget,
    reserve: u64,
    /// Bytes held by resident partitions, counting each open build page
    /// as a full page. Hash tables and probe buffers ride on `reserve`.
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

/// Where one partition of a pass lives.
enum Residency {
    /// Build pass: in memory, as its sealed pages.
    Kept(Relation),
    /// Probe pass: in memory with its hash table; probe pages join it
    /// as they seal, under the scheme
    /// [`JoinScheme::for_pair`](phj::join::JoinScheme::for_pair) picked
    /// for its working set.
    Joining(Relation, HashTable, JoinParams),
    /// On disk: sealed pages go to the pass's spill file.
    Spilled,
}

/// What the probe pass adds: the build spill file, where mid-probe
/// victims go, and the join of sealed probe pages.
struct Probing<'a> {
    build_spill: SpillFile,
    sink: &'a mut DiskSink,
}

/// The disk join's partition store (see the module docs). I/O errors
/// stick in the spill files and the sink until [`DiskStore::check`].
pub(crate) struct DiskStore<'a> {
    parts: Vec<Residency>,
    /// This pass's spill file.
    pub(crate) spill: SpillFile,
    /// The residency ledger (absent when every partition is spilled).
    ledger: Option<Ledger<'a>>,
    probing: Option<Probing<'a>>,
}

impl<'a> DiskStore<'a> {
    /// The build pass's store: `p` partitions, resident-born unless the
    /// policy is GRACE.
    pub(crate) fn build(
        cfg: &DiskGraceConfig,
        live: &'a LiveBudget,
        reserve: u64,
        p: usize,
        schema: &Schema,
    ) -> Result<Self> {
        let resident = cfg.mode.starts_resident();
        let part = |_| match resident {
            true => Residency::Kept(Relation::new(schema.clone())),
            false => Residency::Spilled,
        };
        let resident_bytes = if resident { (p * PAGE_SIZE) as u64 } else { 0 };
        let mut store = DiskStore {
            parts: (0..p).map(part).collect(),
            spill: SpillFile::new(cfg, "build_spill", p, schema)?,
            ledger: Some(Ledger { live, reserve, resident_bytes, transitions: Vec::new() }),
            probing: None,
        };
        store.enforce();
        Ok(store)
    }

    /// A store spilling every partition to `spill`.
    pub(crate) fn spilling(spill: SpillFile) -> Self {
        let parts = (0..spill.part_pages.len()).map(|_| Residency::Spilled).collect();
        DiskStore { parts, spill, ledger: None, probing: None }
    }

    /// Surface (and clear) an I/O error that stuck during the last chunk.
    pub(crate) fn check(&mut self) -> Result<()> {
        self.spill.check()?;
        let Some(probing) = &mut self.probing else { return Ok(()) };
        probing.build_spill.check()?;
        probing.sink.check()
    }

    /// Safe point: spill largest-first victims until residency (plus the
    /// reserve) fits the live budget, then ack.
    fn enforce(&mut self) {
        let Some(ledger) = self.ledger.as_mut() else { return };
        let Some(limit) = ledger.pressure() else { return };
        let (file, phase) = match &mut self.probing {
            Some(probing) => (&mut probing.build_spill, "probe"),
            None => (&mut self.spill, "build"),
        };
        while ledger.over(limit) {
            // The largest resident partition, lowest index on ties.
            let resident = self.parts.iter().enumerate().filter_map(|(i, r)| match r {
                Residency::Kept(rel) => Some((i, (rel.size_bytes() + PAGE_SIZE) as u64)),
                Residency::Joining(rel, ..) => Some((i, rel.size_bytes() as u64)),
                Residency::Spilled => None,
            });
            let victim = resident.max_by_key(|&(i, bytes)| (bytes, std::cmp::Reverse(i)));
            let Some((v, bytes)) = victim else { break };
            let (Residency::Kept(rel) | Residency::Joining(rel, ..)) =
                std::mem::replace(&mut self.parts[v], Residency::Spilled)
            else {
                unreachable!("victim selection only returns resident partitions")
            };
            rel.pages().iter().for_each(|page| file.write(v, page));
            ledger.transition(v, bytes, limit, TransitionKind::SpillVictim, phase);
        }
        ledger.ack(limit);
    }

    /// End of the build pass: complete the spill file so its pages can
    /// be read back, then (when `absorb`) pull spilled partitions back
    /// into memory, smallest-first, while the live budget has headroom —
    /// the grantor may have freed memory since the victims spilled.
    pub(crate) fn finish_build(&mut self, absorb: bool) -> Result<()> {
        self.spill.sync()?;
        let Some(ledger) = self.ledger.as_mut().filter(|_| absorb) else { return Ok(()) };
        let file = &mut self.spill;
        loop {
            let limit = ledger.live.limit();
            let headroom = limit.saturating_sub(ledger.resident_bytes + ledger.reserve);
            let cand = (0..self.parts.len())
                .filter(|&i| !file.part_pages[i].is_empty())
                .map(|i| (i, ((file.part_pages[i].len() + 1) * PAGE_SIZE) as u64))
                .filter(|&(_, bytes)| bytes <= headroom)
                .min_by_key(|&(i, bytes)| (bytes, i));
            let Some((v, bytes)) = cand else { break };
            let mut rel = Relation::new(file.schema.clone());
            for &pid in &file.part_pages[v] {
                rel.push_page(file.stripes.read_page_verified(pid)?);
            }
            file.part_pages[v].clear();
            file.part_tuples[v] = 0;
            self.parts[v] = Residency::Kept(rel);
            ledger.transition(v, bytes, limit, TransitionKind::Absorb, "absorb");
        }
        ledger.ack(ledger.live.limit());
        Ok(())
    }

    /// Table build: give every resident partition its hash table and
    /// return the probe pass's store, which joins into `sink`.
    pub(crate) fn into_probe(
        mut self,
        cfg: &DiskGraceConfig,
        probe_schema: &Schema,
        sink: &'a mut DiskSink,
    ) -> Result<DiskStore<'a>> {
        let p = self.parts.len();
        let mut resident_bytes = 0;
        for part in &mut self.parts {
            let Residency::Kept(rel) = std::mem::replace(part, Residency::Spilled) else {
                continue;
            };
            resident_bytes += rel.size_bytes() as u64;
            let n = rel.num_tuples();
            let scheme = cfg.join_scheme.for_pair(rel.num_pages(), n);
            let params = JoinParams { scheme, use_stored_hash: true };
            let mut table = HashTable::new(plan::hash_table_buckets(n, p), n);
            dispatch_build(&mut NativeModel, &params, &mut table, &rel);
            table.assert_quiescent();
            *part = Residency::Joining(rel, table, params);
        }
        // The open build pages are gone: only the sealed ones stay.
        self.ledger.as_mut().expect("the build pass has a ledger").resident_bytes = resident_bytes;
        let mut store = DiskStore {
            parts: self.parts,
            spill: SpillFile::new(cfg, "probe_spill", p, probe_schema)?,
            ledger: self.ledger,
            probing: Some(Probing { build_spill: self.spill, sink }),
        };
        store.enforce();
        Ok(store)
    }

    /// End of the probe pass: the build and probe spill files, the
    /// number of build partitions still resident, and the residency
    /// transitions of both passes. The resident partitions are fully
    /// joined; dropping them leaves the disk pairs the whole budget.
    pub(crate) fn finish_probe(
        mut self,
    ) -> Result<(SpillFile, SpillFile, usize, Vec<MemTransition>)> {
        self.check()?;
        let resident = self.parts.iter().filter(|r| matches!(r, Residency::Joining(..))).count();
        let build = self.probing.expect("the probe pass holds the build spill").build_spill;
        let transitions = self.ledger.map(|l| l.transitions).unwrap_or_default();
        Ok((build, self.spill, resident, transitions))
    }
}

impl PartitionStore for DiskStore<'_> {
    fn seal(&mut self, p: usize, page: &mut Page, last: bool) {
        match &mut self.parts[p] {
            Residency::Kept(rel) => {
                rel.push_page(std::mem::take(page));
                if let Some(ledger) = self.ledger.as_mut().filter(|_| !last) {
                    // The full page joins the ledger; the open page that
                    // replaces it is already counted.
                    ledger.resident_bytes += PAGE_SIZE as u64;
                }
            }
            Residency::Joining(rel, table, params) => {
                let probing = self.probing.as_mut().expect("the probe pass joins");
                let mut probe = Relation::new(self.spill.schema.clone());
                probe.push_page(std::mem::take(page));
                dispatch_probe(&mut NativeModel, params, table, rel, &probe, probing.sink);
            }
            // In the probe pass, a spilled partition with no build tuples
            // drops its pages: an inner join can never match them.
            Residency::Spilled => {
                if self.probing.as_ref().is_none_or(|b| b.build_spill.part_tuples[p] > 0) {
                    self.spill.write(p, page);
                }
            }
        }
        if !last {
            self.enforce();
        }
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
