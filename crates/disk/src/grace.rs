//! Hash join over file relations — the disk-oriented execution the
//! paper's real-machine experiments run (§7.2), with real files, real
//! background I/O threads, and a graceful-degradation ladder for when the
//! memory-budget estimate turns out wrong.
//!
//! There is **one** partition → build → probe driver
//! ([`grace_join_files_rec`]); GRACE, hybrid and dynamic hybrid are
//! residency policies of it ([`DiskJoinMode`]), read in three places:
//!
//! | policy    | build partitions are born | fan-out                  | re-absorb |
//! |-----------|---------------------------|--------------------------|-----------|
//! | `Grace`   | spilled                   | [`plan::num_partitions`] | no        |
//! | `Hybrid`  | resident until evicted    | [`plan::hybrid_fanout`]  | no        |
//! | `Dynamic` | resident until evicted    | [`plan::hybrid_fanout`]  | yes       |
//!
//! Both inputs stream through a [`crate::SequentialReader`] (background
//! read-ahead). Resident partitions live in memory and join their probe
//! tuples on the fly (see `hybrid.rs` for the residency protocol);
//! spilled ones go through a [`BackgroundWriter`] into a striped
//! `SpillFile`, and each spilled pair is finally loaded back and
//! joined with any in-memory scheme. Output pages stream to disk through
//! another background writer. Under `Grace` nothing is ever resident, so
//! the run is the classic partition-everything-then-join-pairs GRACE.
//!
//! **Degradation ladder.** A spilled build partition larger than the
//! memory budget (skew, or an under-estimated partition count) does not
//! abort and does not silently thrash:
//!
//! 1. *Recursive repartition* — the oversized partition is re-partitioned
//!    on disk with a different hash seed ([`phj::hash::hash_key_seeded`]),
//!    up to [`DiskGraceConfig::max_repartition_depth`] levels deep. The
//!    sub-spill pages keep the original seed-0 stashed hash codes, so the
//!    join phase's stored-hash optimization stays correct.
//! 2. *Block nested-loop fallback* — when repartitioning stops helping
//!    (all tuples share one key) or the depth bound is hit, the partition
//!    is joined in build chunks of at most the memory budget, streaming
//!    the probe side past each chunk.
//! 3. *Typed failure* — with the fallback disabled, the join returns
//!    [`PhjError::PartitionOverflow`] instead of a wrong answer.
//!
//! Every step is recorded as a [`DegradationEvent`] in the report, and
//! the report carries an order-insensitive result checksum so a degraded
//! run can be verified against a fault-free one without loading the
//! output.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use phj::join::{dispatch_build, dispatch_probe, join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj::table::HashTable;
use phj::{hash, plan};
use phj_memsim::{MemoryModel, NativeModel};
use phj_obs::{self as obs, Recorder};
use phj_storage::{
    tuple::key_bytes_of, tuple::materialize_join_output, Frame, Page, Relation, Schema,
    PAGE_SIZE,
};

use crate::budget::LiveBudget;
use crate::error::{PhjError, Result};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::hybrid::BuildPass;
use crate::reader::{stall_clock_s, SequentialReader};
use crate::stripe::StripeSet;
use crate::writer::BackgroundWriter;
use crate::FileRelation;

/// The residency policy of the disk join (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiskJoinMode {
    /// Classic GRACE: every build partition is born spilled, so
    /// everything is partitioned to disk and then joined pair by pair.
    Grace,
    /// Hybrid: keep as many build partitions memory-resident as the
    /// budget allows, join their probe tuples on the fly, and spill
    /// largest-first victims when residency outgrows the budget.
    Hybrid,
    /// Hybrid plus re-absorption: when the grantor of a
    /// [`LiveBudget`] raises the limit again, spilled partitions are
    /// pulled back into memory at the build→probe phase boundary. (A
    /// *shrink* is honored at the next safe point under every policy.)
    #[default]
    Dynamic,
}

impl DiskJoinMode {
    /// Stable label (CLI flag value, bench rows, report keys).
    pub fn label(self) -> &'static str {
        match self {
            DiskJoinMode::Grace => "grace",
            DiskJoinMode::Hybrid => "hybrid",
            DiskJoinMode::Dynamic => "dynamic",
        }
    }

    /// Inverse of [`DiskJoinMode::label`].
    pub fn parse(s: &str) -> Option<DiskJoinMode> {
        [DiskJoinMode::Grace, DiskJoinMode::Hybrid, DiskJoinMode::Dynamic]
            .into_iter()
            .find(|mode| mode.label() == s)
    }

    /// Whether build partitions start out memory-resident (`false`:
    /// every partition is born spilled).
    pub(crate) fn starts_resident(self) -> bool {
        self != DiskJoinMode::Grace
    }

    /// First-pass partition fan-out for `build_bytes` under `budget`.
    fn fanout(self, build_bytes: usize, budget: usize) -> usize {
        match self {
            DiskJoinMode::Grace => plan::num_partitions(build_bytes, budget),
            _ => plan::hybrid_fanout(build_bytes, budget),
        }
    }

    /// Whether spilled partitions are re-absorbed at the build→probe
    /// boundary when the live budget has headroom.
    fn absorbs(self) -> bool {
        self == DiskJoinMode::Dynamic
    }
}

/// Configuration for the on-disk join.
#[derive(Debug, Clone)]
pub struct DiskGraceConfig {
    /// Join-phase memory budget (build partition size), as in §7.1.
    pub mem_budget: usize,
    /// Stripe files per relation (the paper's "disks"; 6 in §7.2).
    pub num_stripes: usize,
    /// Stripe unit in pages (256 KB = 32 pages of 8 KB in §7.2).
    pub stripe_pages: u64,
    /// Read-ahead window in pages.
    pub read_ahead: usize,
    /// Background-writer in-flight window in pages.
    pub write_window: usize,
    /// In-memory join scheme for each partition pair.
    pub join_scheme: JoinScheme,
    /// Working directory for spill and output files.
    pub dir: PathBuf,
    /// Fault plan injected into every spill/output stripe set (the
    /// *input* relations carry their own plan; see
    /// [`FileRelation::set_faults`]). Disabled by default.
    pub fault: FaultPlan,
    /// Retry policy for every page read/write.
    pub retry: RetryPolicy,
    /// How many levels of recursive reseeded repartitioning to try for
    /// an oversized build partition before falling back.
    pub max_repartition_depth: u32,
    /// Whether to fall back to a streaming block nested-loop join when
    /// repartitioning cannot shrink a partition under the budget. With
    /// this off, such a partition is a [`PhjError::PartitionOverflow`].
    pub nlj_fallback: bool,
    /// Query id stamped (full u64, payload `a`) on the flight-recorder
    /// `Grant` event this run journals, so a host multiplexing several
    /// joins through one journal (the query daemon tags by query id)
    /// can tell the grants apart. 0 for standalone runs.
    pub grant_tag: u64,
    /// Residency policy; [`DiskJoinMode::Dynamic`] by default.
    pub mode: DiskJoinMode,
    /// Revocable budget. When `None`, a fixed [`LiveBudget`] is created
    /// from `mem_budget`; a host that wants to resize the run mid-flight
    /// (the query daemon's admission table) installs a shared one here.
    pub live_budget: Option<Arc<LiveBudget>>,
}

impl DiskGraceConfig {
    /// Paper-shaped defaults under `dir`.
    pub fn new(dir: &Path) -> Self {
        DiskGraceConfig {
            mem_budget: 50 << 20,
            num_stripes: 6,
            stripe_pages: 32,
            read_ahead: 256,
            write_window: 256,
            join_scheme: JoinScheme::Group { g: 16 },
            dir: dir.to_path_buf(),
            fault: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            max_repartition_depth: 2,
            nlj_fallback: true,
            grant_tag: 0,
            mode: DiskJoinMode::default(),
            live_budget: None,
        }
    }
}

/// One degradation step taken for an oversized build partition.
#[derive(Debug, Clone)]
pub struct DegradationEvent {
    /// Hierarchical partition label: `"3"` at the top level, `"3.1"` for
    /// sub-partition 1 of a depth-1 repartition of partition 3, …
    pub partition: String,
    /// Repartition depth at which the step was taken (0 = top level).
    pub depth: u32,
    /// Size of the oversized build partition in bytes (whole pages).
    pub bytes: u64,
    /// The memory budget it failed to fit — the *live* budget at the
    /// time of the event, which may be smaller than the configured
    /// `mem_budget` if the grantor shrank the run. Robustness curves and
    /// `phj explain` attribute spills from this pair.
    pub budget: u64,
    /// What the engine did about it.
    pub kind: DegradationKind,
}

/// What the degradation ladder did at one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationKind {
    /// Re-partitioned on disk with a fresh hash seed into `fanout`
    /// sub-partitions.
    Repartition {
        /// Number of sub-partitions.
        fanout: usize,
        /// Hash seed used for the re-partitioning.
        seed: u32,
    },
    /// Joined via streaming block nested-loop in `chunks` build chunks.
    NljFallback {
        /// Number of build chunks (each at most the memory budget).
        chunks: usize,
    },
}

impl std::fmt::Display for DegradationEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match &self.kind {
            DegradationKind::Repartition { fanout, seed } => {
                format!("repartitioned x{fanout} with seed {seed}")
            }
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

/// Which way a partition crossed the memory/disk boundary mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionKind {
    /// A resident partition was evicted (largest-first victim) because
    /// residency outgrew the live budget.
    SpillVictim,
    /// A spilled partition was re-absorbed into memory after the live
    /// budget freed up between phases.
    Absorb,
}

impl TransitionKind {
    /// Stable label (report rows, CLI logs).
    pub fn label(self) -> &'static str {
        match self {
            TransitionKind::SpillVictim => "spill_victim",
            TransitionKind::Absorb => "absorb",
        }
    }
}

/// One residency transition taken under a resident-born policy, with the
/// partition's byte size and the live budget at the moment of the
/// decision — the attribution trail for robustness curves.
#[derive(Debug, Clone)]
pub struct MemTransition {
    /// Top-level partition index.
    pub partition: usize,
    /// Bytes the partition held when the transition fired.
    pub bytes: u64,
    /// The live budget at that moment.
    pub budget: u64,
    /// Eviction or re-absorption.
    pub kind: TransitionKind,
    /// Phase during which it happened (`"build"`, `"absorb"`, `"probe"`).
    pub phase: &'static str,
}

impl std::fmt::Display for MemTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let action = match self.kind {
            TransitionKind::SpillVictim => "spilled as pressure victim",
            TransitionKind::Absorb => "re-absorbed",
        };
        write!(
            f,
            "partition {} ({} B) {action} during {} (live budget {} B)",
            self.partition, self.bytes, self.phase, self.budget
        )
    }
}

/// Timing and outcome of an on-disk join.
#[derive(Debug)]
pub struct DiskGraceReport {
    /// The join output, on disk.
    pub output: FileRelation,
    /// Number of top-level partitions.
    pub num_partitions: usize,
    /// Wall-clock seconds for the build pass (partitioning the build
    /// side into resident and spilled partitions).
    pub partition_s: f64,
    /// Wall-clock seconds for the probe pass plus the spilled-pair joins.
    pub join_s: f64,
    /// Seconds the main thread blocked waiting for input pages.
    pub input_stall_s: f64,
    /// Figure-9 numbers of the build pass.
    pub build_pass: PassTimes,
    /// Figure-9 numbers of the probe pass.
    pub probe_pass: PassTimes,
    /// Figure-9 numbers of the spilled-pair joins (with the output's
    /// final flush).
    pub pair_pass: PassTimes,
    /// Matches produced.
    pub matches: u64,
    /// Order-insensitive checksum over the emitted (build, probe) pairs —
    /// equal joins produce equal checksums regardless of partition
    /// order, degradation path, or faults survived along the way.
    pub checksum: u64,
    /// Degradation steps taken for oversized partitions (empty on a
    /// well-budgeted run).
    pub degradation: Vec<DegradationEvent>,
    /// Read attempts repeated after retryable failures.
    pub read_retries: u64,
    /// Write attempts repeated after retryable failures.
    pub write_retries: u64,
    /// Faults injected by the run's fault plans (input + spill/output).
    pub faults_injected: u64,
    /// Microseconds of injected slow-disk stall.
    pub slow_stall_us: u64,
    /// Residency transitions (victim spills, re-absorptions); empty
    /// under `Grace`, where nothing is ever resident.
    pub transitions: Vec<MemTransition>,
    /// Build partitions still memory-resident when the probe pass
    /// ended (0 under `Grace`).
    pub resident_partitions: usize,
    /// The live budget when the run finished (equals `mem_budget`
    /// unless a grantor resized the run).
    pub final_budget: u64,
}

/// Figure 9's quantities for one pass of the driver.
#[derive(Debug, Clone, Copy)]
pub struct PassTimes {
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Seconds the main thread blocked: read-ahead waits plus sends into
    /// a full write-back window.
    pub main_stall_s: f64,
    /// I/O seconds charged to the busiest stripe index by the bandwidth
    /// cap of [`DiskGraceConfig::fault`] (0 without a cap); the input
    /// relations count when they carry a clone of that plan.
    pub worker_io_s: f64,
}

/// The clock, stall clock and cap charges a pass is measured from.
type PassStart = (Instant, f64, Vec<f64>);

fn pass_start(fault: &FaultPlan) -> PassStart {
    (Instant::now(), stall_clock_s(), fault.stripe_charged_s())
}

fn pass_times((t0, stall0, charged0): PassStart, fault: &FaultPlan) -> PassTimes {
    let charged = fault.stripe_charged_s().into_iter().enumerate();
    PassTimes {
        elapsed_s: t0.elapsed().as_secs_f64(),
        main_stall_s: stall_clock_s() - stall0,
        worker_io_s: charged.map(|(i, c)| c - charged0.get(i).unwrap_or(&0.0)).fold(0.0, f64::max),
    }
}

/// One relation partitioned into a spill file: which spill pages belong
/// to each partition, and how many tuples those pages hold.
pub(crate) struct Spilled {
    pub(crate) stripes: StripeSet,
    pub(crate) part_pages: Vec<Vec<u64>>,
    pub(crate) part_tuples: Vec<u64>,
}

/// A partitioned spill file being written: tuples route through one
/// buffer page per partition, and sealed pages stream out through a
/// [`BackgroundWriter`] that can be stopped ([`SpillFile::sync`], so
/// pages can be read back) and restarts lazily on the next write — the
/// build spill crosses the write→read boundary twice (re-absorb at the
/// phase boundary, pair joins at the end). Used by both passes of the
/// driver and by recursive repartitioning.
pub(crate) struct SpillFile {
    /// The page map so far (complete once [`SpillFile::flush_bufs`] ran).
    pub(crate) map: Spilled,
    writer: Option<BackgroundWriter>,
    next_page: u64,
    window: usize,
    bufs: Vec<Page>,
}

impl SpillFile {
    pub(crate) fn new(cfg: &DiskGraceConfig, name: &str, p: usize) -> Result<SpillFile> {
        let stripes = StripeSet::create(&cfg.dir, name, cfg.num_stripes, cfg.stripe_pages)
            .map_err(|e| PhjError::io(cfg.dir.join(name), e))?
            .with_faults(cfg.fault.clone(), cfg.retry);
        Ok(SpillFile {
            map: Spilled { stripes, part_pages: vec![Vec::new(); p], part_tuples: vec![0; p] },
            writer: None,
            next_page: 0,
            window: cfg.write_window,
            bufs: (0..p).map(|_| Page::new()).collect(),
        })
    }

    fn write_image(&mut self, part: usize, image: Frame) -> Result<()> {
        let writer = self
            .writer
            .get_or_insert_with(|| BackgroundWriter::start(self.map.stripes.clone(), self.window));
        self.map.part_pages[part].push(self.next_page);
        writer.write(self.next_page, image)?;
        self.next_page += 1;
        Ok(())
    }

    /// Append `tuple` to partition `part`, stashing `hash` in its slot.
    pub(crate) fn push(&mut self, part: usize, tuple: &[u8], hash: u32) -> Result<()> {
        if !self.bufs[part].fits(tuple.len()) {
            let image = self.bufs[part].sealed_image();
            self.write_image(part, image)?;
            self.bufs[part].reset();
            // Per-page spill marks are full-mode only: one per sealed page
            // would dominate the ring at phase granularity.
            phj_flightrec::event_full(
                phj_flightrec::EventKind::Spill,
                part.min(u16::MAX as usize) as u16,
                self.map.part_pages[part].len() as u64,
                self.map.part_tuples[part],
            );
        }
        self.bufs[part]
            .insert(tuple, hash)
            .ok_or(PhjError::TupleTooLarge { bytes: tuple.len() })?;
        self.map.part_tuples[part] += 1;
        Ok(())
    }

    /// Append a whole page evicted from memory to partition `part`.
    pub(crate) fn push_page(&mut self, part: usize, page: &Page) -> Result<()> {
        self.map.part_tuples[part] += page.nslots() as u64;
        self.write_image(part, page.sealed_image())
    }

    /// Take over `page` — the open append page of a partition evicted
    /// mid-build — as partition `part`'s buffer: its contents flush with
    /// the next seal or at pass end.
    pub(crate) fn adopt_buf(&mut self, part: usize, page: Page) {
        debug_assert_eq!(self.bufs[part].nslots(), 0, "a resident partition never buffered");
        self.map.part_tuples[part] += page.nslots() as u64;
        self.bufs[part] = page;
    }

    /// Flush every partial buffer page so the file holds each spilled
    /// partition completely.
    pub(crate) fn flush_bufs(&mut self) -> Result<()> {
        for part in 0..self.bufs.len() {
            if self.bufs[part].nslots() > 0 {
                let image = self.bufs[part].sealed_image();
                self.write_image(part, image)?;
                self.bufs[part].reset();
            }
        }
        Ok(())
    }

    /// Stop the writer and wait for in-flight pages — required before
    /// any page written so far may be read back.
    pub(crate) fn sync(&mut self) -> Result<()> {
        let Some(writer) = self.writer.take() else { return Ok(()) };
        writer.finish()?;
        // One flush mark per write burst: a = total pages written, b =
        // total tuples routed.
        phj_flightrec::event(
            phj_flightrec::EventKind::Flush,
            self.bufs.len().min(u16::MAX as usize) as u16,
            self.next_page,
            self.map.part_tuples.iter().sum(),
        );
        Ok(())
    }

    /// Flush, sync, and hand back the completed page map.
    pub(crate) fn finish(mut self) -> Result<Spilled> {
        self.flush_bufs()?;
        self.sync()?;
        Ok(self.map)
    }
}

/// Re-partition one oversized partition of `parent` into `fanout`
/// sub-partitions, routing by the `seed`-reseeded key hash. The stashed
/// hash codes written to the sub-spill pages are the *original* seed-0
/// codes, so the join phase's `use_stored_hash` bucketing stays valid.
fn repartition_spill(
    cfg: &DiskGraceConfig,
    schema: &Schema,
    parent: &Spilled,
    part: usize,
    name: &str,
    fanout: usize,
    seed: u32,
) -> Result<Spilled> {
    let mut file = SpillFile::new(cfg, name, fanout)?;
    for &pid in &parent.part_pages[part] {
        let page = parent.stripes.read_page_verified(pid)?;
        for (_, tuple, stash) in page.iter() {
            let route = hash::hash_key_seeded(key_bytes_of(schema, tuple), seed);
            file.push(hash::partition_of(route, fanout), tuple, stash)?;
        }
    }
    file.finish()
}

/// Load one partition's pages from the spill file into memory through a
/// [`SequentialReader`], so each stripe's share streams from its own
/// worker. Pages arrive checksum-verified.
fn load_partition(spill: &Spilled, part: usize, schema: &Schema, ahead: usize) -> Result<Relation> {
    let pages = spill.part_pages[part].clone();
    SequentialReader::pages(spill.stripes.clone(), pages, ahead).into_relation(schema)
}

/// Streams join output pages to disk as they fill, keeping an
/// order-insensitive checksum of the emitted pairs. Errors inside the
/// sink (the `JoinSink` trait is infallible) stick and surface after the
/// partition pair completes.
pub(crate) struct DiskSink {
    build_schema: Schema,
    probe_schema: Schema,
    stripes: StripeSet,
    writer: BackgroundWriter,
    page: Page,
    next_page: u64,
    buf: Vec<u8>,
    tuples: u64,
    count: CountSink,
    error: Option<PhjError>,
}

impl DiskSink {
    /// Create `<dir>/out.N` and start its background writer.
    fn create(cfg: &DiskGraceConfig, build: &Schema, probe: &Schema) -> Result<DiskSink> {
        let stripes = StripeSet::create(&cfg.dir, "out", cfg.num_stripes, cfg.stripe_pages)
            .map_err(|e| PhjError::io(cfg.dir.join("out"), e))?
            .with_faults(cfg.fault.clone(), cfg.retry);
        Ok(DiskSink {
            build_schema: build.clone(),
            probe_schema: probe.clone(),
            writer: BackgroundWriter::start(stripes.clone(), cfg.write_window),
            stripes,
            page: Page::new(),
            next_page: 0,
            buf: Vec::new(),
            tuples: 0,
            count: CountSink::new(),
            error: None,
        })
    }

    /// Surface (and clear) an error that stuck inside [`JoinSink::emit`].
    pub(crate) fn check(&mut self) -> Result<()> {
        self.error.take().map_or(Ok(()), Err)
    }

    /// Flush the output tail and stop the writer; returns the output
    /// relation and the pair counter.
    fn finish(mut self) -> Result<(FileRelation, CountSink)> {
        if self.page.nslots() > 0 {
            self.writer.write(self.next_page, self.page.sealed_image())?;
            self.next_page += 1;
        }
        self.writer.finish()?;
        let schema = Schema::join_output(&self.build_schema, &self.probe_schema);
        let output = FileRelation::from_parts(schema, self.stripes, self.next_page, self.tuples);
        Ok((output, self.count))
    }
}

impl JoinSink for DiskSink {
    fn emit<M: MemoryModel>(&mut self, mem: &mut M, build: &[u8], probe: &[u8]) {
        if self.error.is_some() {
            return;
        }
        self.count.emit(mem, build, probe);
        materialize_join_output(&self.build_schema, &self.probe_schema, build, probe, &mut self.buf);
        if !self.page.fits(self.buf.len()) {
            if self.page.nslots() == 0 {
                self.error = Some(PhjError::TupleTooLarge { bytes: self.buf.len() });
                return;
            }
            if let Err(e) = self.writer.write(self.next_page, self.page.sealed_image()) {
                self.error = Some(e);
                return;
            }
            self.next_page += 1;
            self.page.reset();
        }
        if self.page.insert(&self.buf, 0).is_none() {
            self.error = Some(PhjError::TupleTooLarge { bytes: self.buf.len() });
            return;
        }
        self.tuples += 1;
    }

    fn matches(&self) -> u64 {
        self.count.matches()
    }
}

/// The degradation ladder: what every spilled pair's join shares (the
/// configuration, the output sink) plus the event trail it leaves.
struct Ladder<'a> {
    cfg: &'a DiskGraceConfig,
    params: &'a JoinParams,
    build_schema: &'a Schema,
    probe_schema: &'a Schema,
    /// Top-level partition count (kept as the bucket-coprimality modulus).
    top_p: usize,
    sink: &'a mut DiskSink,
    events: Vec<DegradationEvent>,
    /// Fresh names for recursive spill sets.
    spill_counter: u64,
}

impl Ladder<'_> {
    /// Join one (build, probe) partition pair, degrading as needed.
    /// `label` is the hierarchical partition name for diagnostics;
    /// `budget` is the [`LiveBudget`] limit *at this pair*, so degradation
    /// events attribute against what the run actually had.
    #[allow(clippy::too_many_arguments)]
    fn join_pair(
        &mut self,
        budget: u64,
        bspill: &Spilled,
        pspill: &Spilled,
        part: usize,
        label: String,
        depth: u32,
        rec: &mut Option<&mut Recorder>,
    ) -> Result<()> {
        let cfg = self.cfg;
        let budget = budget.max(PAGE_SIZE as u64);
        let bpages = bspill.part_pages[part].len();
        let bytes = (bpages * PAGE_SIZE) as u64;
        if bytes <= budget {
            let b = load_partition(bspill, part, self.build_schema, cfg.read_ahead)?;
            let pr = load_partition(pspill, part, self.probe_schema, cfg.read_ahead)?;
            debug_assert_eq!(b.num_tuples() as u64, bspill.part_tuples[part]);
            debug_assert_eq!(pr.num_tuples() as u64, pspill.part_tuples[part]);
            join_pair(&mut NativeModel, self.params, &b, &pr, self.top_p, self.sink, None);
            return Ok(());
        }

        // Oversized build partition: walk the degradation ladder.
        if depth < cfg.max_repartition_depth {
            let fanout = plan::num_partitions(bytes as usize, budget as usize).max(2);
            let seed = depth + 1;
            self.spill_counter += 1;
            let tag = self.spill_counter;
            let sub_b = repartition_spill(
                cfg, self.build_schema, bspill, part, &format!("rp{tag}_b"), fanout, seed,
            )?;
            let max_sub = sub_b.part_pages.iter().map(Vec::len).max().unwrap_or(0);
            if max_sub < bpages {
                let kind = DegradationKind::Repartition { fanout, seed };
                self.record(label.clone(), depth, bytes, budget, kind);
                let span = obs::span_begin(rec, &NativeModel, "repartition");
                obs::span_meta(rec, "partition", &label);
                obs::span_meta(rec, "fanout", fanout);
                let sub_p = repartition_spill(
                    cfg, self.probe_schema, pspill, part, &format!("rp{tag}_p"), fanout, seed,
                )?;
                let mut res = Ok(());
                for sp in 0..fanout {
                    let sub_label = format!("{label}.{sp}");
                    res = self.join_pair(budget, &sub_b, &sub_p, sp, sub_label, depth + 1, rec);
                    if res.is_err() {
                        break;
                    }
                }
                obs::span_end(rec, &NativeModel, span);
                cleanup_spill(&sub_b);
                cleanup_spill(&sub_p);
                return res;
            }
            // Repartitioning did not reduce the partition (one dominant key):
            // drop the useless sub-spill and fall through to the next rung.
            cleanup_spill(&sub_b);
        }

        if cfg.nlj_fallback {
            let span = obs::span_begin(rec, &NativeModel, "nlj_fallback");
            obs::span_meta(rec, "partition", &label);
            let chunks = self.block_nlj(budget, bspill, pspill, part)?;
            obs::span_end(rec, &NativeModel, span);
            self.record(label, depth, bytes, budget, DegradationKind::NljFallback { chunks });
            return Ok(());
        }

        Err(PhjError::PartitionOverflow { partition: part, depth, bytes, budget })
    }

    /// Log one ladder step: the report trail, the depth gauge, and the
    /// flight recorder (code 0 = recursive repartition with its fan-out,
    /// code 1 = block nested-loop fallback with its chunk count).
    fn record(
        &mut self,
        partition: String,
        depth: u32,
        bytes: u64,
        budget: u64,
        kind: DegradationKind,
    ) {
        let (code, detail) = match kind {
            DegradationKind::Repartition { fanout, .. } => (0, fanout),
            DegradationKind::NljFallback { chunks } => (1, chunks),
        };
        self.events.push(DegradationEvent { partition, depth, bytes, budget, kind });
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.degradation_depth.set_max(depth as u64 + 1);
        }
        phj_flightrec::event(
            phj_flightrec::EventKind::Degrade,
            code,
            depth as u64 + 1,
            detail as u64,
        );
    }

    /// Streaming block nested-loop join over one oversized partition
    /// pair: the build side is processed in chunks of at most the memory
    /// budget; for each chunk, the probe side streams past in bounded
    /// batches. Joins any build partition in bounded memory at the cost
    /// of re-reading the probe partition once per chunk. Returns the
    /// number of build chunks.
    fn block_nlj(
        &mut self,
        budget: u64,
        bspill: &Spilled,
        pspill: &Spilled,
        part: usize,
    ) -> Result<usize> {
        let chunk_pages = (budget as usize / PAGE_SIZE).max(1);
        let bpages = &bspill.part_pages[part];
        let ppages = &pspill.part_pages[part];
        let mut chunks = 0usize;
        for bchunk in bpages.chunks(chunk_pages) {
            let mut brel = Relation::new(self.build_schema.clone());
            for &pid in bchunk {
                brel.push_page(bspill.stripes.read_page_verified(pid)?);
            }
            chunks += 1;
            if brel.num_tuples() == 0 {
                continue;
            }
            let buckets = plan::hash_table_buckets(brel.num_tuples(), self.top_p);
            let mut table = HashTable::new(buckets, brel.num_tuples());
            dispatch_build(&mut NativeModel, self.params, &mut table, &brel);
            table.assert_quiescent();
            for pbatch in ppages.chunks(chunk_pages) {
                let mut prel = Relation::new(self.probe_schema.clone());
                for &pid in pbatch {
                    prel.push_page(pspill.stripes.read_page_verified(pid)?);
                }
                dispatch_probe(&mut NativeModel, self.params, &table, &brel, &prel, self.sink);
            }
        }
        Ok(chunks)
    }
}

/// Remove a recursive sub-spill's files once its partitions are joined
/// (best-effort; the working directory is the caller's to delete anyway).
fn cleanup_spill(spill: &Spilled) {
    for path in spill.stripes.paths() {
        let _ = std::fs::remove_file(path);
    }
}

/// Run the disk hash join over two file relations under
/// [`DiskGraceConfig::mode`], writing the output to `<dir>/out.N`.
pub fn grace_join_files(
    cfg: &DiskGraceConfig,
    build: &FileRelation,
    probe: &FileRelation,
) -> Result<DiskGraceReport> {
    grace_join_files_rec(cfg, build, probe, None)
}

/// [`grace_join_files`] with an optional span recorder: the build pass
/// (`"partition"`) and the probe pass plus pair joins (`"join"`) get
/// top-level spans, and every degradation step (repartition, nested-loop
/// fallback) gets its own nested span.
pub fn grace_join_files_rec(
    cfg: &DiskGraceConfig,
    build: &FileRelation,
    probe: &FileRelation,
    mut rec: Option<&mut Recorder>,
) -> Result<DiskGraceReport> {
    let live: Arc<LiveBudget> = cfg
        .live_budget
        .clone()
        .unwrap_or_else(|| Arc::new(LiveBudget::new(cfg.mem_budget as u64)));
    let budget0 = live.limit().max(PAGE_SIZE as u64);
    let reserve = plan::hybrid_reserve(budget0 as usize) as u64;
    let p = cfg.mode.fanout(build.size_bytes() as usize, budget0 as usize);
    let params = JoinParams { scheme: cfg.join_scheme, use_stored_hash: true };
    let (bschema, pschema) = (build.schema().clone(), probe.schema().clone());

    // Journal the memory budget this run starts under. `a` carries the
    // host's query id in full; `code` is the grant operation.
    phj_flightrec::event(
        phj_flightrec::EventKind::Grant,
        phj_flightrec::grant_op::BUDGET,
        cfg.grant_tag,
        budget0,
    );

    // ---- Build pass: stream the build side into its partitions —
    // resident ones evict victims whenever residency outgrows the live
    // budget, spilled ones go straight to the build spill file.
    let start = pass_start(&cfg.fault);
    let span = obs::span_begin(&mut rec, &NativeModel, "partition");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "mode", cfg.mode.label());
    let mut bp = BuildPass::new(cfg, &live, reserve, p)?;
    let mut bscan = build.scan(cfg.read_ahead);
    while let Some(page) = bscan.next_page()? {
        for (_, tuple, _) in page.iter() {
            let h = hash::hash_key(key_bytes_of(&bschema, tuple));
            bp.push(hash::partition_of(h, p), tuple, h)?;
        }
    }
    let bstall = bscan.stall_seconds();
    bp.finish_scan(cfg.mode.absorbs())?;
    obs::span_end(&mut rec, &NativeModel, span);
    let build_pass = pass_times(start, &cfg.fault);

    // ---- Table build: every resident partition becomes (relation,
    // hash table); spilled partitions keep their page lists.
    let mut pp = bp.into_probe_pass(cfg, &params, &bschema, &pschema)?;
    let mut sink = DiskSink::create(cfg, &bschema, &pschema)?;

    // ---- Probe pass: resident partitions join on the fly; tuples for
    // spilled partitions go to the probe spill file.
    let start = pass_start(&cfg.fault);
    let span = obs::span_begin(&mut rec, &NativeModel, "join");
    let mut pscan = probe.scan(cfg.read_ahead);
    while let Some(page) = pscan.next_page()? {
        for (_, tuple, _) in page.iter() {
            let h = hash::hash_key(key_bytes_of(&pschema, tuple));
            pp.push(hash::partition_of(h, p), tuple, h, &params, &mut sink)?;
        }
    }
    let pstall = pscan.stall_seconds();
    let probed = pp.finish(&params, &mut sink)?;
    let probe_pass = pass_times(start, &cfg.fault);
    let start = pass_start(&cfg.fault);

    // ---- Disk pairs: whatever spilled runs through the degradation
    // ladder, budgeted by the live limit at each pair.
    let mut ladder = Ladder {
        cfg,
        params: &params,
        build_schema: &bschema,
        probe_schema: &pschema,
        top_p: p,
        sink: &mut sink,
        events: Vec::new(),
        spill_counter: 0,
    };
    for part in 0..p {
        if probed.build.part_tuples[part] == 0 || probed.probe.part_tuples[part] == 0 {
            continue; // one side empty: no matches possible
        }
        let pair_budget = live.limit();
        live.ack(pair_budget.max(reserve));
        let label = part.to_string();
        ladder.join_pair(pair_budget, &probed.build, &probed.probe, part, label, 0, &mut rec)?;
        ladder.sink.check()?;
    }
    let degradation = ladder.events;
    obs::span_end(&mut rec, &NativeModel, span);
    let (output, count) = sink.finish()?;
    let pair_pass = pass_times(start, &cfg.fault);
    let final_budget = live.limit();
    live.ack(final_budget);

    let stats = cfg.fault.stats();
    Ok(DiskGraceReport {
        output,
        num_partitions: p,
        partition_s: build_pass.elapsed_s,
        join_s: probe_pass.elapsed_s + pair_pass.elapsed_s,
        input_stall_s: bstall + pstall,
        build_pass,
        probe_pass,
        pair_pass,
        matches: count.matches(),
        checksum: count.checksum(),
        degradation,
        read_retries: stats.read_retries.load(Ordering::Relaxed),
        write_retries: stats.write_retries.load(Ordering::Relaxed),
        faults_injected: stats.total_injected(),
        slow_stall_us: stats.slow_stall_us.load(Ordering::Relaxed),
        transitions: probed.transitions,
        resident_partitions: probed.resident_partitions,
        final_budget,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj::grace::{grace_join_with_sink, GraceConfig};
    use phj::sink::CountSink;
    use phj_memsim::NativeModel;
    use phj_workload::JoinSpec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phj-diskgrace-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disk_grace_matches_in_memory_grace() {
        let dir = temp_dir("parity");
        let gen = JoinSpec {
            build_tuples: 6000,
            tuple_size: 48,
            matches_per_build: 2,
            pct_match: 75,
            seed: 77,
        }
        .generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
        let cfg = DiskGraceConfig {
            mem_budget: 64 * 1024,
            ..DiskGraceConfig::new(&dir)
        };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert!(report.num_partitions > 1);
        assert_eq!(report.matches, gen.expected_matches);
        assert_eq!(report.output.num_tuples(), gen.expected_matches);
        assert!(report.degradation.is_empty(), "{:?}", report.degradation);
        // The in-memory engine agrees — on the count and on the
        // order-insensitive pair checksum.
        let mut sink = CountSink::new();
        grace_join_with_sink(
            &mut NativeModel,
            &GraceConfig { mem_budget: 64 * 1024, ..Default::default() },
            &gen.build,
            &gen.probe,
            &mut sink,
        );
        assert_eq!(sink.matches(), report.matches);
        assert_eq!(sink.checksum(), report.checksum);
        // Output pages parse back and have the joined arity.
        let out = report.output.load().unwrap();
        assert_eq!(out.num_tuples() as u64, report.matches);
        for (_, t, _) in out.iter().take(5) {
            assert_eq!(t.len(), 96);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_partition_disk_join() {
        let dir = temp_dir("single");
        let gen = JoinSpec {
            build_tuples: 500,
            tuple_size: 20,
            matches_per_build: 1,
            pct_match: 100,
            seed: 3,
        }
        .generate();
        let fb = FileRelation::create(&dir, "build", &gen.build, 2, 2).unwrap();
        let fp = FileRelation::create(&dir, "probe", &gen.probe, 2, 2).unwrap();
        let cfg = DiskGraceConfig { mem_budget: 1 << 30, ..DiskGraceConfig::new(&dir) };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!(report.num_partitions, 1);
        assert_eq!(report.matches, 500);
        assert!(report.degradation.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
