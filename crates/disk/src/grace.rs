//! Hash join over file relations — the disk-oriented execution the
//! paper's real-machine experiments run (§7.2), with real files, real
//! background I/O threads, and core's overflow ladder for when the
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
//! read-ahead) in chunks of pages, each fed to core's partition program
//! ([`OutputBuffers::feed`]) under the partition scheme
//! [`DiskGraceConfig::join_scheme`] derives
//! ([`JoinScheme::partition_scheme`]). Every output-buffer page the program
//! seals lands in the disk [`PartitionStore`](phj::partition::PartitionStore)
//! (`hybrid.rs`): resident partitions keep their pages and join their
//! probe pages on the fly; spilled ones go through a [`BackgroundWriter`]
//! into a striped `SpillFile`. Output pages stream to disk through another
//! background writer. Under `Grace` nothing is ever resident, so the run
//! is the classic partition-everything-then-join-pairs GRACE.
//!
//! **Spilled pairs** go through core's overflow ladder ([`Ladder`]), the
//! one fixed rule every driver shares, budgeted by the live limit at each
//! pair: repartition while the largest build sub-partition shrinks, at
//! any depth, else join in budget-sized chunks, so an oversized
//! partition is never an error. Every step is a
//! [`DegradationEvent`] in the report, and the report carries an
//! order-insensitive result checksum, so a degraded run can be verified
//! against a fault-free one without loading the output.

use std::borrow::Cow;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use phj::grace::{Ladder, PairStore};
use phj::join::JoinScheme;
use phj::partition::{OutputBuffers, PartitionScheme};
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemoryModel, NativeModel};
use phj_obs::{self as obs, Recorder};
use phj_storage::{tuple::materialize_join_output, Page, Relation, Schema, PAGE_SIZE};

pub use phj::grace::{DegradationEvent, DegradationKind};

use crate::budget::LiveBudget;
use crate::error::{PhjError, Result};
use crate::fault::{FaultPlan, RetryPolicy};
use crate::hybrid::DiskStore;
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
    /// Prefetching scheme of the run's joins: each resident table and
    /// spilled pair runs it, or simple prefetching when its working set
    /// fits the cache ([`JoinScheme::for_pair`]). The partition passes
    /// (and repartitioning) derive theirs from it:
    /// [`JoinScheme::partition_scheme`] runs simple prefetching at up to
    /// 64 partitions and this scheme's schedule beyond.
    pub join_scheme: JoinScheme,
    /// Working directory for spill and output files.
    pub dir: PathBuf,
    /// Fault plan injected into every spill/output stripe set (the
    /// *input* relations carry their own plan; see
    /// [`FileRelation::set_faults`]). Disabled by default. Every page
    /// read and write retries under [`RetryPolicy::default`].
    pub fault: FaultPlan,
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
            join_scheme: JoinScheme::Group { g: 16 },
            dir: dir.to_path_buf(),
            fault: FaultPlan::disabled(),
            grant_tag: 0,
            mode: DiskJoinMode::default(),
            live_budget: None,
        }
    }
}

/// Read-ahead window of every scan, in pages.
const READ_AHEAD: usize = 256;

/// In-flight window of every background writer, in pages.
const WRITE_WINDOW: usize = 256;

/// `<dir>/<name>.N`, striped as `cfg` says, under its fault plan.
fn create_stripes(cfg: &DiskGraceConfig, name: &str) -> Result<StripeSet> {
    StripeSet::create(&cfg.dir, name, cfg.num_stripes, cfg.stripe_pages)
        .map(|stripes| stripes.with_faults(cfg.fault.clone(), RetryPolicy::default()))
        .map_err(|e| PhjError::io(cfg.dir.join(name), e))
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
/// to each partition, and how many tuples those pages hold. Sealed pages
/// stream out through a [`BackgroundWriter`] that can be stopped
/// ([`SpillFile::sync`], so pages can be read back) and restarts lazily
/// on the next write — the build spill crosses the write→read boundary
/// twice (re-absorb at the phase boundary, pair joins at the end). A
/// write error sticks until [`SpillFile::check`] or [`SpillFile::sync`].
/// A `temporary` file (a repartitioning pass's) is removed once dropped.
pub(crate) struct SpillFile {
    pub(crate) stripes: StripeSet,
    pub(crate) schema: Schema,
    pub(crate) part_pages: Vec<Vec<u64>>,
    pub(crate) part_tuples: Vec<u64>,
    writer: Option<BackgroundWriter>,
    next_page: u64,
    error: Option<PhjError>,
    temporary: bool,
}

impl SpillFile {
    pub(crate) fn new(
        cfg: &DiskGraceConfig,
        name: &str,
        p: usize,
        schema: &Schema,
    ) -> Result<SpillFile> {
        Ok(SpillFile {
            stripes: create_stripes(cfg, name)?,
            schema: schema.clone(),
            part_pages: vec![Vec::new(); p],
            part_tuples: vec![0; p],
            writer: None,
            next_page: 0,
            error: None,
            temporary: false,
        })
    }

    /// Append `page` to partition `part` as a sealed image.
    pub(crate) fn write(&mut self, part: usize, page: &Page) {
        if self.error.is_some() {
            return;
        }
        let writer = self
            .writer
            .get_or_insert_with(|| BackgroundWriter::start(self.stripes.clone(), WRITE_WINDOW));
        self.part_pages[part].push(self.next_page);
        self.part_tuples[part] += page.nslots() as u64;
        if let Err(e) = writer.write(self.next_page, page.sealed_image()) {
            self.error = Some(e);
            return;
        }
        self.next_page += 1;
        // Per-page spill marks are full-mode only: one per sealed page
        // would dominate the ring at phase granularity.
        phj_flightrec::event_full(
            phj_flightrec::EventKind::Spill,
            part.min(u16::MAX as usize) as u16,
            self.part_pages[part].len() as u64,
            self.part_tuples[part],
        );
    }

    /// Surface (and clear) a write error that stuck.
    pub(crate) fn check(&mut self) -> Result<()> {
        self.error.take().map_or(Ok(()), Err)
    }

    /// Stop the writer and wait for in-flight pages — required before
    /// any page written so far may be read back.
    pub(crate) fn sync(&mut self) -> Result<()> {
        self.check()?;
        let Some(writer) = self.writer.take() else { return Ok(()) };
        writer.finish()?;
        // One flush mark per write burst: a = total pages written, b =
        // total tuples written.
        phj_flightrec::event(
            phj_flightrec::EventKind::Flush,
            self.part_pages.len().min(u16::MAX as usize) as u16,
            self.next_page,
            self.part_tuples.iter().sum(),
        );
        Ok(())
    }

    /// Each partition of the synced file, as the overflow ladder reads it.
    fn into_parts(mut self, temporary: bool) -> Result<Vec<SpilledPart>> {
        self.sync()?;
        self.temporary = temporary;
        let file = Arc::new(self);
        let parts = 0..file.part_pages.len();
        Ok(parts.map(|part| SpilledPart { file: Arc::clone(&file), part }).collect())
    }
}

impl Drop for SpillFile {
    /// Best-effort: the working directory is the caller's to delete.
    fn drop(&mut self) {
        if self.temporary {
            for path in self.stripes.paths() {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

/// One spilled partition.
pub(crate) struct SpilledPart {
    file: Arc<SpillFile>,
    part: usize,
}

/// Pages of an input relation fed to the partition program at a time:
/// 256 KB, which amortises a schedule's start-up and rides on the reserve.
const CHUNK_PAGES: usize = 32;

/// Stream `input` through a partition pass into `store`, in chunks of
/// [`CHUNK_PAGES`] pages; any I/O error that stuck surfaces after the
/// chunk. Returns the store and the seconds spent waiting for input
/// pages.
fn partition_file<'a>(
    scheme: PartitionScheme,
    p: usize,
    store: DiskStore<'a>,
    input: &FileRelation,
) -> Result<(DiskStore<'a>, f64)> {
    let mut out = OutputBuffers::with_store(store, p);
    let mut scan = input.scan(READ_AHEAD);
    loop {
        let mut chunk = Relation::new(input.schema().clone());
        while chunk.num_pages() < CHUNK_PAGES {
            let Some(page) = scan.next_page()? else { break };
            chunk.push_page(page);
        }
        if chunk.num_pages() == 0 {
            break;
        }
        out.feed(&mut NativeModel, scheme, &chunk, 0..chunk.num_pages(), false);
        out.store().check()?;
    }
    Ok((out.finish(), scan.stall_seconds()))
}

/// The spilled pairs, as the overflow ladder reads and repartitions
/// them.
struct SpilledPairs<'c> {
    cfg: &'c DiskGraceConfig,
    /// Repartitioning passes so far (fresh spill file names).
    passes: u64,
}

impl PairStore for SpilledPairs<'_> {
    type Part = SpilledPart;
    type Store = DiskStore<'static>;
    type Error = PhjError;

    fn pages(&self, part: &SpilledPart) -> usize {
        part.file.part_pages[part.part].len()
    }

    fn stream_pages(&self, budget: u64) -> usize {
        (budget as usize / PAGE_SIZE).max(1)
    }

    /// Load the pages through a [`SequentialReader`], so each stripe's
    /// share streams from its own worker. Pages arrive checksum-verified.
    fn read<'a>(
        &'a self,
        part: &'a SpilledPart,
        pages: Range<usize>,
    ) -> Result<(Cow<'a, Relation>, Range<usize>)> {
        let (file, ids) = (&part.file, part.file.part_pages[part.part][pages].to_vec());
        let reader = SequentialReader::pages(file.stripes.clone(), ids, READ_AHEAD);
        let rel = reader.into_relation(&file.schema)?;
        let n = rel.num_pages();
        Ok((Cow::Owned(rel), 0..n))
    }

    fn store(&mut self, part: &SpilledPart, fanout: usize) -> Result<DiskStore<'static>> {
        self.passes += 1;
        let name = format!("rp{}", self.passes);
        Ok(DiskStore::spilling(SpillFile::new(self.cfg, &name, fanout, &part.file.schema)?))
    }

    fn parts(&mut self, store: DiskStore<'static>) -> Result<Vec<SpilledPart>> {
        store.spill.into_parts(true)
    }
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
        let stripes = create_stripes(cfg, "out")?;
        Ok(DiskSink {
            build_schema: build.clone(),
            probe_schema: probe.clone(),
            writer: BackgroundWriter::start(stripes.clone(), WRITE_WINDOW),
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
    let scheme = cfg.join_scheme.partition_scheme();
    let (bschema, pschema) = (build.schema().clone(), probe.schema().clone());

    // Journal the memory budget this run starts under. `a` carries the
    // host's query id in full; `code` is the grant operation.
    phj_flightrec::event(
        phj_flightrec::EventKind::Grant,
        phj_flightrec::grant_op::BUDGET,
        cfg.grant_tag,
        budget0,
    );

    // ---- Build pass: partition the build side — resident partitions
    // evict victims whenever residency outgrows the live budget, spilled
    // ones go straight to the build spill file.
    let start = pass_start(&cfg.fault);
    let span = obs::span_begin(&mut rec, &NativeModel, "partition");
    obs::span_meta(&mut rec, "partitions", p);
    obs::span_meta(&mut rec, "mode", cfg.mode.label());
    let store = DiskStore::build(cfg, &live, reserve, p, &bschema)?;
    let (mut store, bstall) = partition_file(scheme, p, store, build)?;
    store.finish_build(cfg.mode.absorbs())?;
    obs::span_end(&mut rec, &NativeModel, span);
    let build_pass = pass_times(start, &cfg.fault);

    // ---- Table build: every resident partition becomes (relation,
    // hash table); spilled partitions keep their page lists.
    let mut sink = DiskSink::create(cfg, &bschema, &pschema)?;
    let store = store.into_probe(cfg, &pschema, &mut sink)?;

    // ---- Probe pass: resident partitions join their probe pages as
    // they seal; pages of spilled partitions go to the probe spill file.
    let start = pass_start(&cfg.fault);
    let span = obs::span_begin(&mut rec, &NativeModel, "join");
    let (store, pstall) = partition_file(scheme, p, store, probe)?;
    let (bspill, pspill, resident_partitions, transitions) = store.finish_probe()?;
    let probe_pass = pass_times(start, &cfg.fault);
    let start = pass_start(&cfg.fault);

    // ---- Disk pairs: whatever spilled runs through the overflow
    // ladder, budgeted by the live limit at each pair.
    let mut ladder = Ladder {
        budget: budget0,
        max_fanout: usize::MAX,
        partition_scheme: scheme,
        join_scheme: cfg.join_scheme,
        store: SpilledPairs { cfg, passes: 0 },
        sink: &mut sink,
        events: Vec::new(),
    };
    let pairs = bspill.into_parts(false)?.into_iter().zip(pspill.into_parts(false)?);
    for (part, (b, q)) in pairs.enumerate() {
        if [&b, &q].iter().any(|s| s.file.part_pages[s.part].is_empty()) {
            continue; // one side empty: no matches possible
        }
        let pair_budget = live.limit();
        live.ack(pair_budget.max(reserve));
        ladder.budget = pair_budget.max(PAGE_SIZE as u64);
        ladder.join(&mut NativeModel, &b, &q, p, &mut vec![part], &mut rec)?;
        ladder.sink.check()?;
    }
    let degradation = ladder.events;
    if let Some(m) = crate::telemetry::disk_metrics() {
        degradation.iter().for_each(|e| m.degradation_depth.set_max(e.depth as u64 + 1));
    }
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
        transitions,
        resident_partitions,
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
