//! The simulation engine: cycle accounting over caches, TLB, miss
//! handlers, and memory bandwidth.
//!
//! [`SimEngine`] is an in-order timing model with non-blocking fills — an
//! operational form of the paper's analytical model (§4.2/§5.1):
//!
//! * [`SimEngine::busy`] advances time by computation (`C_i` charges);
//! * [`SimEngine::visit`] performs a demand reference: it stalls the
//!   processor until the referenced lines are resident, attributing the
//!   stall to the data cache (or, for demand walks, to the D-TLB);
//! * [`SimEngine::prefetch`] starts fills without stalling: a subsequent
//!   `visit` of the same line stalls only for the *remaining* latency;
//! * each fill occupies one of the finite miss handlers; a fill from
//!   memory additionally serializes on the memory bus, finishing no
//!   earlier than `T_next` after the previous memory fill (the paper's
//!   bandwidth edges).
//!
//! The engine never drops prefetches when all miss handlers are busy —
//! the request waits for a free handler instead, matching §7.1 ("the
//! simulator does not drop prefetches when miss handlers are all busy").
//!
//! # The call log
//!
//! No engine call hands anything back to the kernel that makes it, so
//! the engine is split in two. [`SimEngine`] is a front end: each
//! `visit`, `write`, `prefetch`, `busy`, `other`, `region_register` and
//! `region_clear` call appends one 16-byte event to a log. The timing
//! state — caches, TLB, miss handlers, statistics and region profiler —
//! applies the log in call order, [`LOG_BATCH`] events at a time, on one
//! worker thread that starts when the first batch fills. Every query
//! (`now`, `breakdown`, `stats`, `snapshot`, `latency_hist`,
//! `region_profile`) and `Drop` first waits until the worker has applied
//! every batch it was sent, then applies the unfilled tail itself.
//!
//! The kernel thread thus runs ahead of the timing model on another
//! core, and no result can depend on it: the state sees the same calls
//! in the same order through one `apply` function, whichever thread runs
//! it and wherever the batches happen to be cut. An engine whose calls
//! never fill a batch starts no thread. A panic while applying the log
//! resurfaces on the calling thread at its next query, its next full
//! batch, or its drop.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;
use std::panic;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use crate::cache::{Evicted, Probe, SetAssocCache};
use crate::config::MemConfig;
use crate::lru::LruSet;
use crate::region::{LatencyHistogram, RegionKind, RegionProfiler, NUM_REGION_KINDS};
use crate::stats::{Breakdown, CacheStats, Snapshot};
use crate::tlb::{Tlb, TlbAccess};

/// Where a fill was satisfied from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FillSource {
    L2,
    Memory,
}

/// References between telemetry publications. The visit path only pays a
/// local decrement per call; registry traffic happens once per batch.
const TELE_BATCH: u32 = 8192;

/// Events per batch of the call log: the unit handed to the worker.
pub const LOG_BATCH: usize = 16 * 1024;

/// Batch buffers per engine: one being filled while the worker holds or
/// queues the other two.
const LOG_BUFFERS: usize = 3;

/// A panic payload on its way from the worker to the calling thread.
type Panic = Box<dyn Any + Send>;

/// One logged call in 16 bytes: the opcode in the low [`OP_BITS`] of
/// `word` and the operands above it and in `arg`.
#[derive(Clone, Copy)]
struct Event {
    word: u64,
    arg: u64,
}

const OP_VISIT: u64 = 0;
const OP_WRITE: u64 = 1;
const OP_PREFETCH: u64 = 2;
const OP_BUSY: u64 = 3;
const OP_OTHER: u64 = 4;
const OP_REGISTER: u64 = 5;
const OP_CLEAR: u64 = 6;
const OP_BITS: u32 = 3;
/// Bits of a [`RegionKind`] index inside a region event's payload.
const KIND_BITS: u32 = 3;
const _: () = assert!(NUM_REGION_KINDS <= 1 << KIND_BITS);

impl Event {
    /// A visit, write or prefetch of `len` bytes at `addr`. The length
    /// keeps 61 bits — more than any address space.
    #[inline]
    fn reference(op: u64, addr: usize, len: usize) -> Self {
        debug_assert!((len as u64) >> (64 - OP_BITS) == 0, "reference length {len}");
        Event { word: (len as u64) << OP_BITS | op, arg: addr as u64 }
    }

    /// A busy or other charge of `cycles`.
    #[inline]
    fn charge(op: u64, cycles: u64) -> Self {
        Event { word: op, arg: cycles }
    }

    /// A registration (`len` bytes at `addr`) or clear of `kind`.
    fn region(op: u64, kind: RegionKind, addr: usize, len: usize) -> Self {
        debug_assert!((len as u64) >> (64 - OP_BITS - KIND_BITS) == 0, "region length {len}");
        let payload = (len as u64) << KIND_BITS | kind.index() as u64;
        Event { word: payload << OP_BITS | op, arg: addr as u64 }
    }

    #[inline]
    fn op(self) -> u64 {
        self.word & ((1 << OP_BITS) - 1)
    }

    /// A reference's length, or a region event's `len << KIND_BITS | kind`.
    #[inline]
    fn payload(self) -> usize {
        (self.word >> OP_BITS) as usize
    }

    fn kind(self) -> RegionKind {
        RegionKind::ALL[self.payload() & ((1 << KIND_BITS) - 1)]
    }
}

/// A batch of the log, plus the flush epochs (`(flush count, cycle)`)
/// its application produced: they travel back with the buffer so the
/// calling thread's flight recorder journals them.
struct Batch {
    events: Vec<Event>,
    epochs: Vec<(u64, u64)>,
}

impl Batch {
    fn new(capacity: usize) -> Self {
        Batch { events: Vec::with_capacity(capacity), epochs: Vec::new() }
    }

    /// Journal the epochs on the calling thread's flight-recorder ring
    /// (host-side; never a simulated-cycle cost).
    fn journal_epochs(&mut self) {
        for (flushes, now) in self.epochs.drain(..) {
            phj_flightrec::event(phj_flightrec::EventKind::MemEpoch, 0, flushes, now);
        }
    }
}

/// The memory-hierarchy timing simulator.
///
/// ```
/// use phj_memsim::SimEngine;
/// let mut sim = SimEngine::paper(); // Table-2 configuration
/// let data = vec![0u8; 4096];
/// let addr = data.as_ptr() as usize;
/// sim.prefetch(addr, 1);
/// sim.busy(500);                    // plenty of time to overlap the fill
/// sim.visit(addr, 1);               // ...so this demand access is free
/// let b = sim.breakdown();
/// assert_eq!(b.dcache_stall, 0);
/// assert_eq!(b.busy, 501); // 500 + 1 prefetch-issue cycle
/// ```
pub struct SimEngine {
    cfg: MemConfig,
    /// Whether region profiling is on (answers `latency_hist` and
    /// `region_profile` without waiting for the log when it is off).
    profiling: bool,
    /// The calling thread's side. Calls reach it through `get_mut`;
    /// queries through `&self` lock it.
    front: Mutex<Front>,
    /// The timing state the log is applied to.
    timing: Arc<Mutex<Timing>>,
}

/// The calling thread's side of the engine.
struct Front {
    /// The batch being filled.
    log: Batch,
    /// Started when the first batch fills.
    worker: Option<Worker>,
    tele: CallTele,
}

/// The worker thread and the channels that carry batches to it and
/// applied (emptied) buffers back.
struct Worker {
    to_worker: SyncSender<Batch>,
    from_worker: Receiver<Batch>,
    /// Empty buffers ready to fill.
    spare: Vec<Batch>,
    /// Batches sent and not yet back.
    queued: usize,
    thread: JoinHandle<()>,
}

impl Worker {
    fn start(timing: Arc<Mutex<Timing>>) -> Self {
        let (to_worker, inbox) = sync_channel::<Batch>(LOG_BUFFERS);
        let (outbox, from_worker) = sync_channel::<Batch>(LOG_BUFFERS);
        let thread = thread::Builder::new()
            .name("memsim".into())
            .spawn(move || {
                for mut batch in inbox {
                    timing.lock().expect("memsim timing state poisoned").apply_batch(&mut batch);
                    if outbox.send(batch).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn the memsim worker thread");
        // The front end fills the third buffer.
        let spare = (1..LOG_BUFFERS).map(|_| Batch::new(LOG_BATCH)).collect();
        Worker { to_worker, from_worker, spare, queued: 0, thread }
    }

    /// Wait for the oldest batch the worker holds. `None` when the worker
    /// has died (its panic is waiting in `thread`).
    fn receive(&mut self) -> Option<Batch> {
        let mut batch = self.from_worker.recv().ok()?;
        self.queued -= 1;
        batch.journal_epochs();
        Some(batch)
    }

    /// An empty buffer to fill next: a spare, or else the oldest the
    /// worker holds once it is applied.
    fn free_buffer(&mut self) -> Option<Batch> {
        self.spare.pop().or_else(|| self.receive())
    }
}

/// Lock the timing state; `Err` when an earlier panic while applying the
/// log left it half-applied.
fn lock(timing: &Mutex<Timing>) -> Result<MutexGuard<'_, Timing>, Panic> {
    timing
        .lock()
        .map_err(|_| Box::new("memsim timing state poisoned by an earlier panic") as Panic)
}

impl Front {
    /// Append one call; a full batch goes to the worker.
    #[inline]
    fn push(&mut self, ev: Event, timing: &Arc<Mutex<Timing>>) -> &mut CallTele {
        self.log.events.push(ev);
        if self.log.events.len() == LOG_BATCH {
            self.ship(timing);
        }
        &mut self.tele
    }

    /// Hand the full batch to the worker (starting it on the first) and
    /// continue in an empty buffer.
    #[cold]
    fn ship(&mut self, timing: &Arc<Mutex<Timing>>) {
        let worker = self.worker.get_or_insert_with(|| Worker::start(Arc::clone(timing)));
        let full = mem::replace(&mut self.log, Batch::new(0));
        if worker.to_worker.send(full).is_ok() {
            worker.queued += 1;
            if let Some(next) = worker.free_buffer() {
                self.log = next;
                return;
            }
        }
        panic::resume_unwind(self.fail())
    }

    /// Wait until the worker has applied every batch it was sent.
    fn collect(&mut self) -> Result<(), Panic> {
        if let Some(worker) = self.worker.as_mut() {
            while worker.queued > 0 {
                match worker.receive() {
                    Some(batch) => worker.spare.push(batch),
                    None => return Err(self.fail()),
                }
            }
        }
        Ok(())
    }

    /// [`Self::collect`], then apply the unfilled tail here. Returns the
    /// fully applied state.
    fn settle<'a>(&mut self, timing: &'a Mutex<Timing>) -> Result<MutexGuard<'a, Timing>, Panic> {
        self.collect()?;
        let mut state = lock(timing)?;
        state.apply_batch(&mut self.log);
        self.log.journal_epochs();
        Ok(state)
    }

    /// The worker died: join it and return its panic.
    fn fail(&mut self) -> Panic {
        let worker = self.worker.take().expect("a worker to have failed");
        drop(worker.to_worker);
        match worker.thread.join() {
            Err(panic) => panic,
            Ok(()) => Box::new("memsim worker stopped before applying its log"),
        }
    }
}

/// Telemetry counts known from the calls alone: accesses and prefetches
/// (the worker publishes what the calls led to).
struct CallTele {
    /// Calls remaining until the next publication.
    countdown: u32,
    accesses: u64,
    prefetches: u64,
}

impl CallTele {
    #[inline]
    fn access(&mut self) {
        self.accesses += 1;
        self.tick();
    }

    #[inline]
    fn prefetch(&mut self) {
        self.prefetches += 1;
        self.tick();
    }

    #[inline]
    fn tick(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.publish();
        }
    }

    /// Push the counts since the last publication to the live registry.
    /// With telemetry off they keep accumulating, as the engine's own
    /// statistics do.
    #[cold]
    fn publish(&mut self) {
        self.countdown = TELE_BATCH;
        if let Some(m) = crate::telemetry::memsim_metrics() {
            m.accesses.add(mem::take(&mut self.accesses));
            m.prefetches.add(mem::take(&mut self.prefetches));
        }
    }
}

impl SimEngine {
    /// Build an engine from a validated configuration.
    ///
    /// # Panics
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: MemConfig) -> Self {
        cfg.validate().expect("invalid MemConfig");
        SimEngine {
            timing: Arc::new(Mutex::new(Timing::new(cfg.clone()))),
            front: Mutex::new(Front {
                log: Batch::new(0),
                worker: None,
                tele: CallTele { countdown: TELE_BATCH, accesses: 0, prefetches: 0 },
            }),
            profiling: false,
            cfg,
        }
    }

    /// The engine with the paper's Table 2 configuration.
    pub fn paper() -> Self {
        Self::new(MemConfig::paper())
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.settled().now
    }

    /// Configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Execution-time breakdown since construction.
    pub fn breakdown(&self) -> Breakdown {
        self.settled().breakdown()
    }

    /// Cache/prefetch statistics since construction.
    pub fn stats(&self) -> CacheStats {
        self.settled().stats
    }

    /// Paired breakdown + stats snapshot (span-boundary hook for the
    /// observability layer).
    pub fn snapshot(&self) -> Snapshot {
        let state = self.settled();
        Snapshot { breakdown: state.breakdown(), stats: state.stats }
    }

    /// Turn on memory-access attribution. Subsequent
    /// [`Self::region_register`] calls tag address ranges, and every
    /// demand/prefetch line event is charged to its region. Attribution
    /// never changes simulated time: cycle counts are identical with
    /// profiling on or off.
    pub fn enable_region_profiling(&mut self) {
        if !self.profiling {
            self.settled().profiler = Some(Box::default());
            self.profiling = true;
        }
    }

    /// Whether region profiling is enabled.
    pub fn region_profiling_enabled(&self) -> bool {
        self.profiling
    }

    /// A copy of the region profile accumulated so far (`None` when
    /// profiling is off).
    pub fn region_profile(&self) -> Option<RegionProfiler> {
        if !self.profiling {
            return None;
        }
        self.settled().profiler.as_deref().cloned()
    }

    /// Tag `len` bytes at `addr` as `kind`. No-op when profiling is off.
    ///
    /// Attribution is line-granular — lookups use the line's start
    /// address — so the range is widened to line boundaries. A line
    /// straddling two registrations goes to the higher-addressed one
    /// (the registry resolves by greatest range start).
    pub fn region_register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        self.log(Event::region(OP_REGISTER, kind, addr, len));
    }

    /// Drop every range tagged `kind`. No-op when profiling is off.
    pub fn region_clear(&mut self, kind: RegionKind) {
        self.log(Event::region(OP_CLEAR, kind, 0, 0));
    }

    /// Running histogram of exposed demand-line latencies (`None` when
    /// profiling is off). Monotone: span boundaries snapshot and diff it.
    pub fn latency_hist(&self) -> Option<LatencyHistogram> {
        if !self.profiling {
            return None;
        }
        self.settled().profiler.as_deref().map(|p| p.total_hist)
    }

    /// Charge `cycles` of computation.
    #[inline]
    pub fn busy(&mut self, cycles: u64) {
        self.log(Event::charge(OP_BUSY, cycles));
    }

    /// Charge `cycles` of non-memory stall (e.g. a branch misprediction at
    /// a data-dependent branch; the algorithms charge these explicitly).
    #[inline]
    pub fn other(&mut self, cycles: u64) {
        self.log(Event::charge(OP_OTHER, cycles));
    }

    /// Demand-reference `len` bytes at `addr`, stalling until resident.
    ///
    /// The lines spanned by one reference are fetched **concurrently**
    /// (an out-of-order core overlaps the loads of one object): all fills
    /// start at the entry time, and the processor stalls once until the
    /// slowest completes. Distinct `visit` calls remain serialized —
    /// that is the exposed-miss behaviour prefetching attacks.
    #[inline]
    pub fn visit(&mut self, addr: usize, len: usize) {
        self.log(Event::reference(OP_VISIT, addr, len)).access();
    }

    /// Demand-write `len` bytes at `addr` (write-allocate: fetch timing
    /// identical to a read; the touched lines become dirty).
    #[inline]
    pub fn write(&mut self, addr: usize, len: usize) {
        self.log(Event::reference(OP_WRITE, addr, len)).access();
    }

    /// Issue a prefetch covering `len` bytes at `addr` (non-blocking).
    #[inline]
    pub fn prefetch(&mut self, addr: usize, len: usize) {
        self.log(Event::reference(OP_PREFETCH, addr, len)).prefetch();
    }

    #[inline]
    fn log(&mut self, ev: Event) -> &mut CallTele {
        let front = self.front.get_mut().unwrap_or_else(PoisonError::into_inner);
        front.push(ev, &self.timing)
    }

    /// The timing state with the whole log applied.
    fn settled(&self) -> MutexGuard<'_, Timing> {
        let mut front = self.front.lock().unwrap_or_else(PoisonError::into_inner);
        front.settle(&self.timing).unwrap_or_else(|panic| panic::resume_unwind(panic))
    }
}

impl Drop for SimEngine {
    /// Apply the rest of the log, flush the tail of both telemetry
    /// batches (so short-lived engines and the final partial batch of
    /// long runs still reach the registry) and join the worker.
    fn drop(&mut self) {
        let front = self.front.get_mut().unwrap_or_else(PoisonError::into_inner);
        // A worker panic no query has seen yet resurfaces below; a state
        // poisoned by a panic that already surfaced is left alone.
        let collected = front.collect();
        if collected.is_ok() {
            if let Ok(mut state) = front.settle(&self.timing) {
                state.tele_publish();
            }
        }
        front.tele.publish();
        if let Some(worker) = front.worker.take() {
            drop(worker.to_worker);
            // Idle once collected: it returns as soon as its inbox closes.
            let _ = worker.thread.join();
        }
        if let Err(panic) = collected {
            if !thread::panicking() {
                panic::resume_unwind(panic);
            }
        }
    }
}

/// The timing state: everything the log is applied to.
struct Timing {
    cfg: MemConfig,
    line_shift: u32,
    page_shift: u32,
    now: u64,
    busy: u64,
    dcache: u64,
    dtlb: u64,
    other: u64,
    l1: SetAssocCache,
    l2: SetAssocCache,
    tlb: Tlb,
    /// Shadow fully-associative L1 for conflict classification (optional).
    shadow: Option<LruSet>,
    /// Completion times of outstanding fills (bounded by `miss_handlers`),
    /// earliest on top.
    handlers: BinaryHeap<Reverse<u64>>,
    /// Completion time of the most recent memory fill (bus serialization).
    last_mem: u64,
    next_flush: u64,
    /// Flushes since the last batch boundary, for the flight recorder.
    epochs: Vec<(u64, u64)>,
    /// Hardware stride-prefetcher stream table: last miss line per
    /// stream (empty when disabled).
    hw_streams: Vec<u64>,
    hw_rr: usize,
    stats: CacheStats,
    /// Region-attribution profiler; `None` (the default) keeps the hot
    /// paths at a single branch per line event. Never affects timing.
    profiler: Option<Box<RegionProfiler>>,
    /// References remaining until the next telemetry publication.
    tele_countdown: u32,
    /// Stats as of the last publication (deltas go to the registry).
    tele_last: CacheStats,
}

impl Timing {
    fn new(cfg: MemConfig) -> Self {
        let shadow = cfg
            .classify_conflicts
            .then(|| LruSet::new(cfg.l1_size / cfg.line_size));
        let next_flush = cfg.flush_period.unwrap_or(u64::MAX);
        Timing {
            line_shift: cfg.line_shift(),
            page_shift: cfg.page_shift(),
            l1: SetAssocCache::new(cfg.l1_sets(), cfg.l1_assoc),
            l2: SetAssocCache::new(cfg.l2_sets(), cfg.l2_assoc),
            tlb: Tlb::new(cfg.tlb_entries),
            shadow,
            handlers: BinaryHeap::with_capacity(cfg.miss_handlers + 1),
            hw_streams: vec![u64::MAX; cfg.hw_prefetch_streams],
            hw_rr: 0,
            last_mem: 0,
            now: 0,
            busy: 0,
            dcache: 0,
            dtlb: 0,
            other: 0,
            next_flush,
            epochs: Vec::new(),
            stats: CacheStats::default(),
            profiler: None,
            tele_countdown: TELE_BATCH,
            tele_last: CacheStats::default(),
            cfg,
        }
    }

    fn breakdown(&self) -> Breakdown {
        Breakdown {
            busy: self.busy,
            dcache_stall: self.dcache,
            dtlb_stall: self.dtlb,
            other_stall: self.other,
        }
    }

    /// Apply a batch in order and empty it, handing back its epochs.
    fn apply_batch(&mut self, batch: &mut Batch) {
        for &ev in &batch.events {
            self.apply(ev);
        }
        batch.events.clear();
        batch.epochs.append(&mut self.epochs);
    }

    /// Apply one logged call — the only way calls reach the state.
    #[inline]
    fn apply(&mut self, ev: Event) {
        let addr = ev.arg as usize;
        match ev.op() {
            OP_VISIT => self.reference(addr, ev.payload(), false),
            OP_WRITE => self.reference(addr, ev.payload(), true),
            OP_PREFETCH => self.prefetch(addr, ev.payload()),
            OP_BUSY => {
                self.maybe_flush();
                self.now += ev.arg;
                self.busy += ev.arg;
            }
            OP_OTHER => {
                self.maybe_flush();
                self.now += ev.arg;
                self.other += ev.arg;
            }
            OP_REGISTER => self.region_register(ev.kind(), addr, ev.payload() >> KIND_BITS),
            OP_CLEAR => {
                if let Some(p) = self.profiler.as_deref_mut() {
                    p.registry.clear(ev.kind());
                }
            }
            op => unreachable!("unknown log opcode {op}"),
        }
    }

    fn region_register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        if let Some(p) = self.profiler.as_deref_mut() {
            if len == 0 {
                return;
            }
            let line = 1usize << self.line_shift;
            let start = addr & !(line - 1);
            let end = (addr + len + line - 1) & !(line - 1);
            p.registry.register(kind, start, end - start);
        }
    }

    fn reference(&mut self, addr: usize, len: usize, is_write: bool) {
        self.maybe_flush();
        self.stats.visits += 1;
        let first = (addr >> self.line_shift) as u64;
        let last = ((addr + len.max(1) - 1) >> self.line_shift) as u64;
        let mut wait_until = self.now;
        for line in first..=last {
            if let Some(ready) = self.visit_line(line, is_write) {
                wait_until = wait_until.max(ready);
            }
        }
        if wait_until > self.now {
            self.dcache += wait_until - self.now;
            self.now = wait_until;
        }
        self.tele_tick();
    }

    fn prefetch(&mut self, addr: usize, len: usize) {
        self.maybe_flush();
        self.stats.prefetches += 1;
        // Prefetch instructions occupy issue slots: count their overhead
        // as busy time (one charge per line-granular instruction).
        let first = (addr >> self.line_shift) as u64;
        let last = ((addr + len.max(1) - 1) >> self.line_shift) as u64;
        for line in first..=last {
            self.busy += self.cfg.prefetch_issue;
            self.now += self.cfg.prefetch_issue;
            self.prefetch_line(line);
        }
        self.tele_tick();
    }

    /// Access one line; returns the cycle its data is ready (None = ready
    /// now). Does not advance time for the fill — `visit` aggregates.
    fn visit_line(&mut self, line: u64, is_write: bool) -> Option<u64> {
        self.stats.visit_lines += 1;
        // Demand TLB access: a walk stalls the processor (serially — the
        // translation gates the load).
        let page = line >> (self.page_shift - self.line_shift);
        let walked = self.tlb.access(page) == TlbAccess::Walked;
        if walked {
            self.stats.tlb_demand_walks += 1;
            self.now += self.cfg.tlb_walk;
            self.dtlb += self.cfg.tlb_walk;
        }
        let shadow_hit = self.shadow.as_mut().map(|s| s.touch(line));
        let (probe, pf_first_use) = self.l1.access_demand(line, self.now, is_write);
        let mut fill_src = None;
        let result = match probe {
            Probe::Hit => {
                self.stats.l1_hits += 1;
                if let Some((start, ready)) = pf_first_use {
                    // The whole fill overlapped with computation: every
                    // cycle it spent in flight is miss latency hidden.
                    self.stats.pf_hidden_cycles += ready.saturating_sub(start);
                }
                self.now += self.cfg.l1_hit;
                self.busy += self.cfg.l1_hit;
                None
            }
            Probe::InFlight(ready) => {
                self.stats.l1_inflight_hits += 1;
                if let Some((start, _)) = pf_first_use {
                    // Partially hidden: the fill has been in flight since
                    // `start`; only the remainder past `now` is exposed.
                    self.stats.pf_hidden_cycles += self.now.saturating_sub(start);
                }
                Some(ready)
            }
            Probe::Miss => {
                if shadow_hit == Some(true) {
                    self.stats.l1_conflict_misses += 1;
                }
                let (completion, src) = self.fill_line(line, self.now, false);
                fill_src = Some(src);
                match src {
                    FillSource::L2 => self.stats.l2_hits += 1,
                    FillSource::Memory => self.stats.mem_misses += 1,
                }
                if is_write {
                    // Write-allocate: the freshly filled line is dirty.
                    self.l1.access_rw(line, completion, true);
                }
                Some(completion)
            }
        };
        if self.profiler.is_some() {
            self.charge_demand_line(line, walked, probe, pf_first_use, fill_src, result);
        }
        if !self.hw_streams.is_empty() {
            self.hw_advance(line, result.is_some());
        }
        result
    }

    /// Mirror one demand line event into the region profiler. Pure
    /// bookkeeping — reads `now` but never advances it. Only called with
    /// the profiler present.
    fn charge_demand_line(
        &mut self,
        line: u64,
        walked: bool,
        probe: Probe,
        pf_first_use: Option<(u64, u64)>,
        fill_src: Option<FillSource>,
        ready: Option<u64>,
    ) {
        let line_shift = self.line_shift;
        let now = self.now;
        let p = self.profiler.as_deref_mut().expect("profiler present");
        let kind = p.registry.lookup((line << line_shift) as usize);
        let s = &mut p.stats[kind.index()];
        if walked {
            s.tlb_demand_walks += 1;
        }
        match probe {
            Probe::Hit => {
                s.l1_hits += 1;
                if let Some((start, fill_ready)) = pf_first_use {
                    s.pf_hidden += 1;
                    s.pf_hidden_cycles += fill_ready.saturating_sub(start);
                }
            }
            Probe::InFlight(_) => {
                s.l1_inflight_hits += 1;
                if let Some((start, _)) = pf_first_use {
                    let hidden = now.saturating_sub(start);
                    if hidden > 0 {
                        s.pf_partial += 1;
                        s.pf_hidden_cycles += hidden;
                    } else {
                        s.pf_late += 1;
                    }
                }
            }
            Probe::Miss => match fill_src {
                Some(FillSource::L2) => s.l2_hits += 1,
                Some(FillSource::Memory) => s.mem_misses += 1,
                None => unreachable!("miss without a fill"),
            },
        }
        // Exposed latency of this line: zero for hits, the remaining
        // in-flight/fill time otherwise. Lines of one reference fill
        // concurrently, so per-region sums may exceed the wall-clock
        // dcache stall (which counts the overlap once).
        let exposed = ready.map_or(0, |r| r.saturating_sub(now));
        s.stall_cycles += exposed;
        p.hists[kind.index()].record(exposed);
        p.total_hist.record(exposed);
    }

    /// Hardware next-line stride prefetcher (§1.2 discussion): a demand
    /// access extending a tracked sequential stream triggers fills of the
    /// next `hw_prefetch_depth` lines, off the critical path (no issue
    /// cost — it is hardware). A *miss* matching no stream allocates one
    /// round-robin. Disabled (0 streams) in the paper configuration.
    fn hw_advance(&mut self, line: u64, was_fill: bool) {
        if let Some(i) = self.hw_streams.iter().position(|&l| line == l.wrapping_add(1)) {
            self.hw_streams[i] = line;
            for next in line + 1..=line + self.cfg.hw_prefetch_depth as u64 {
                if matches!(self.l1.probe(next, self.now), Probe::Miss) {
                    self.stats.hw_prefetches += 1;
                    self.fill_line(next, self.now, true);
                }
            }
        } else if was_fill && !self.hw_streams.contains(&line) {
            self.hw_rr = (self.hw_rr + 1) % self.hw_streams.len();
            let slot = self.hw_rr;
            self.hw_streams[slot] = line;
        }
    }

    fn prefetch_line(&mut self, line: u64) {
        match self.l1.probe(line, self.now) {
            Probe::Hit | Probe::InFlight(_) => {
                self.stats.pf_dropped += 1;
                if let Some(p) = self.profiler.as_deref_mut() {
                    let kind = p.registry.lookup((line << self.line_shift) as usize);
                    p.stats[kind.index()].pf_dropped += 1;
                }
                return;
            }
            Probe::Miss => {}
        }
        // TLB prefetching: a prefetch-induced walk delays only the fill.
        let page = line >> (self.page_shift - self.line_shift);
        let mut start = self.now;
        let walked = self.tlb.access(page) == TlbAccess::Walked;
        if walked {
            self.stats.tlb_prefetch_walks += 1;
            start += self.cfg.tlb_walk;
        }
        let (_, src) = self.fill_line(line, start, true);
        match src {
            FillSource::L2 => self.stats.pf_from_l2 += 1,
            FillSource::Memory => self.stats.pf_from_mem += 1,
        }
        if let Some(p) = self.profiler.as_deref_mut() {
            let kind = p.registry.lookup((line << self.line_shift) as usize);
            let s = &mut p.stats[kind.index()];
            s.prefetches += 1;
            if walked {
                s.tlb_prefetch_walks += 1;
            }
        }
    }

    /// Fill `line` into L1 (and L2 if it came from memory). Returns the
    /// completion time and the fill source. `req` is when the request is
    /// made; the fill may start later if all miss handlers are busy.
    fn fill_line(&mut self, line: u64, req: u64, by_prefetch: bool) -> (u64, FillSource) {
        let start = self.acquire_handler(req);
        let (completion, src) = match self.l2.access(line, start) {
            Probe::Hit => (start + self.cfg.l2_hit, FillSource::L2),
            Probe::InFlight(ready) => {
                // The line is on its way into L2 (an earlier fill);
                // forward it to L1 once it arrives.
                (ready.max(start), FillSource::L2)
            }
            Probe::Miss => {
                let completion = (start + self.cfg.t_full).max(self.last_mem + self.cfg.t_next);
                self.last_mem = completion;
                // Only L1 victims are accounted (`count_eviction`): a
                // prefetch targets L1, and the L1 hits that consume a
                // prefetched line never mark its L2 copy used. L2 copies
                // are never written, so they owe no write-back either.
                let evicted = self.l2.install(line, req, completion, by_prefetch);
                debug_assert!(!matches!(evicted, Evicted::Line { dirty: true, .. }));
                (completion, FillSource::Memory)
            }
        };
        self.handlers.push(Reverse(completion));
        let evicted = self.l1.install(line, req, completion, by_prefetch);
        self.count_eviction(evicted);
        (completion, src)
    }

    /// Account for an L1 victim: a prefetched line never used is a
    /// wasted prefetch, a dirty one a write-back.
    fn count_eviction(&mut self, e: Evicted) {
        if let Evicted::Line { tag, prefetched_unused, dirty } = e {
            if prefetched_unused {
                self.stats.pf_evicted_unused += 1;
                if let Some(p) = self.profiler.as_deref_mut() {
                    // Pollution: charge the wasted prefetch to the region
                    // it was fetching for.
                    let kind = p.registry.lookup((tag << self.line_shift) as usize);
                    p.stats[kind.index()].pf_polluting += 1;
                }
            }
            if dirty {
                self.stats.writebacks += 1;
                if self.cfg.model_writebacks {
                    // The write-back occupies the bus like a pipelined
                    // transfer; it never stalls the processor directly.
                    self.last_mem += self.cfg.t_next;
                }
            }
        }
    }

    /// Wait for a free miss handler: returns the earliest cycle ≥ `req` at
    /// which a handler is available.
    fn acquire_handler(&mut self, req: u64) -> u64 {
        // Fills complete in any order; those done by `req` free their
        // handlers.
        while let Some(&Reverse(c)) = self.handlers.peek() {
            if c > req {
                break;
            }
            self.handlers.pop();
        }
        if self.handlers.len() < self.cfg.miss_handlers {
            return req;
        }
        // All busy: the request waits for the earliest completion.
        let Reverse(earliest) = self.handlers.pop().expect("non-empty");
        earliest
    }

    #[inline]
    fn tele_tick(&mut self) {
        self.tele_countdown -= 1;
        if self.tele_countdown == 0 {
            self.tele_publish();
        }
    }

    /// Push the outcome-counter deltas since the last publication to the
    /// live registry (the front end publishes accesses and prefetches).
    /// Host-side only — simulated time is untouched, and with telemetry
    /// off this resolves to a single atomic load.
    #[cold]
    fn tele_publish(&mut self) {
        self.tele_countdown = TELE_BATCH;
        if let Some(m) = crate::telemetry::memsim_metrics() {
            let d = self.stats - self.tele_last;
            m.l1_misses.add(d.l1_misses());
            m.l2_misses.add(d.mem_misses);
            m.tlb_misses.add(d.tlb_demand_walks);
            m.pf_hidden_cycles.add(d.pf_hidden_cycles);
            self.tele_last = self.stats;
        }
    }

    #[inline]
    fn maybe_flush(&mut self) {
        while self.now >= self.next_flush {
            self.l1.flush();
            self.l2.flush();
            self.tlb.flush();
            if let Some(s) = self.shadow.as_mut() {
                s.clear();
            }
            self.stats.flushes += 1;
            // The epoch boundary goes back to the calling thread with
            // the batch, for its flight recorder.
            self.epochs.push((self.stats.flushes, self.now));
            self.next_flush += self.cfg.flush_period.expect("flush period set");
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> SimEngine {
        SimEngine::paper()
    }

    /// Two distinct addresses on different pages and lines.
    const A: usize = 0x10_0000;
    const B: usize = 0x20_0000;

    #[test]
    fn cold_miss_costs_full_latency_plus_walk() {
        let mut e = engine();
        e.visit(A, 4);
        let b = e.breakdown();
        assert_eq!(b.dcache_stall, 150);
        assert_eq!(b.dtlb_stall, 12);
        assert_eq!(b.busy, 0);
        assert_eq!(e.stats().mem_misses, 1);
    }

    #[test]
    fn second_access_hits() {
        let mut e = engine();
        e.visit(A, 4);
        let before = e.breakdown();
        e.visit(A, 4);
        let after = e.breakdown();
        assert_eq!((after - before).total(), 0);
        assert_eq!(e.stats().l1_hits, 1);
    }

    #[test]
    fn prefetch_hides_latency_fully() {
        let mut e = engine();
        e.prefetch(A, 4);
        e.busy(1000); // plenty of work to overlap the fill
        let before = e.breakdown();
        e.visit(A, 4);
        let after = e.breakdown();
        assert_eq!((after - before).dcache_stall, 0);
        assert_eq!((after - before).dtlb_stall, 0, "TLB prefetched too");
        assert_eq!(e.stats().l1_hits, 1);
        assert_eq!(e.stats().tlb_prefetch_walks, 1);
    }

    #[test]
    fn prefetch_hides_latency_partially() {
        let mut e = engine();
        e.prefetch(A, 4);
        e.busy(50);
        let before = e.breakdown();
        e.visit(A, 4);
        let after = e.breakdown();
        let stall = (after - before).dcache_stall;
        // Fill started after the TLB walk (12) at issue cost 1, completes
        // at 1+12+150 = 163; visited at cycle 51 → 112 remaining.
        assert_eq!(stall, 112);
        assert_eq!(e.stats().l1_inflight_hits, 1);
    }

    #[test]
    fn bandwidth_serializes_memory_fills() {
        let mut e = engine();
        // Issue many prefetches back-to-back; fills pile up on the bus.
        let n = 8usize;
        for i in 0..n {
            e.prefetch(A + i * 64, 4);
        }
        // Visit the last line immediately: its fill completes no earlier
        // than first_completion + (n-1)*t_next.
        let before = e.breakdown();
        e.visit(A + (n - 1) * 64, 4);
        let after = e.breakdown();
        let stall = (after - before).dcache_stall;
        assert!(stall >= (n as u64 - 1) * 10 - 10, "bus serialization visible");
    }

    #[test]
    fn l2_hit_is_cheaper_than_memory() {
        let mut e = engine();
        e.visit(A, 4);
        // Evict A from L1 by filling its set (same L1 set: stride by
        // l1_sets * line = 256*64 = 16 KB; 4 ways → 4 extra lines).
        for i in 1..=4 {
            e.visit(A + i * 16 * 1024, 4);
        }
        let before = e.breakdown();
        e.visit(A, 4);
        let after = e.breakdown();
        // A is still in L2 (2048 sets), so this is an L2 hit.
        assert_eq!((after - before).dcache_stall, 8);
        assert_eq!(e.stats().l2_hits, 1);
    }

    #[test]
    fn miss_handler_limit_delays_fills() {
        let mut cfg = MemConfig::paper();
        cfg.miss_handlers = 2;
        let mut e = SimEngine::new(cfg);
        // Three prefetches: the third must wait for a handler.
        e.prefetch(A, 4);
        e.prefetch(A + 64, 4);
        e.prefetch(A + 128, 4);
        e.busy(1);
        let before = e.breakdown();
        e.visit(A + 128, 4);
        let after = e.breakdown();
        // With unlimited handlers the third fill would complete ≈ cycle
        // 3 + walk + T; with 2 handlers it starts only when the first
        // completes.
        assert!((after - before).dcache_stall > 0);
    }

    #[test]
    fn visit_spanning_lines_touches_each() {
        let mut e = engine();
        e.visit(A, 256); // 4 lines
        assert_eq!(e.stats().visit_lines, 4);
        assert_eq!(e.stats().mem_misses, 4);
        assert_eq!(e.stats().visits, 1);
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut e = engine();
        e.prefetch(A, 4);
        e.prefetch(A, 4);
        assert_eq!(e.stats().pf_dropped, 1);
        e.busy(1000);
        e.visit(A, 4);
        e.prefetch(A, 4);
        assert_eq!(e.stats().pf_dropped, 2);
    }

    #[test]
    fn periodic_flush_forces_remisses() {
        let mut cfg = MemConfig::paper();
        cfg.flush_period = Some(500);
        let mut e = SimEngine::new(cfg);
        e.visit(A, 4); // cold: 180 cycles
        e.visit(A, 4); // hit
        assert_eq!(e.stats().l1_hits, 1);
        e.busy(1000); // crosses the flush boundary
        let before = e.breakdown();
        e.visit(A, 4);
        let after = e.breakdown();
        assert!(e.stats().flushes >= 1);
        assert_eq!((after - before).dcache_stall, 150, "line was flushed");
    }

    #[test]
    fn conflict_classification() {
        let mut cfg = MemConfig::paper();
        cfg.classify_conflicts = true;
        let mut e = SimEngine::new(cfg);
        // 5 lines mapping to one L1 set (stride 16 KB) thrash a 4-way set
        // while total footprint (5 lines) is far below capacity → the
        // re-miss is a conflict miss.
        for round in 0..2 {
            for i in 0..5 {
                e.visit(A + i * 16 * 1024, 4);
            }
            if round == 0 {
                assert_eq!(e.stats().l1_conflict_misses, 0, "cold misses");
            }
        }
        assert!(e.stats().l1_conflict_misses > 0);
    }

    #[test]
    fn pf_evicted_unused_counted() {
        let mut cfg = MemConfig::paper();
        cfg.l1_size = 64 * 4; // tiny: 1 set, 4 ways
        cfg.l1_assoc = 4;
        let mut e = SimEngine::new(cfg);
        for i in 0..5 {
            e.prefetch(B + i * 64, 4); // 5 prefetches into a 4-way set
        }
        assert_eq!(e.stats().pf_evicted_unused, 1);
    }

    #[test]
    fn used_prefetch_is_not_wasted_when_its_l2_copy_leaves() {
        // A prefetched line consumed by an L1 hit, then pushed out of
        // both levels: 128 KB strides share one L1 set and one L2 set.
        let mut e = engine();
        e.prefetch(0x100_0000, 4);
        e.busy(1000);
        e.visit(0x100_0000, 4);
        for i in 1..=8 {
            e.visit(0x100_0000 + i * 128 * 1024, 4);
        }
        assert_eq!(e.stats().pf_hidden_cycles, 150);
        assert_eq!(e.stats().pf_evicted_unused, 0);
    }

    #[test]
    fn unused_prefetch_is_wasted_once_across_both_levels() {
        let mut e = engine();
        e.prefetch(0x100_0000, 4);
        e.busy(1000);
        for i in 1..=4 {
            e.visit(0x100_0000 + i * 128 * 1024, 4);
        }
        assert_eq!(e.stats().pf_evicted_unused, 1, "left L1 unused");
        for i in 5..=8 {
            e.visit(0x100_0000 + i * 128 * 1024, 4);
        }
        assert_eq!(e.stats().pf_evicted_unused, 1, "its L2 copy leaving adds nothing");
    }

    #[test]
    fn busy_and_other_attribution() {
        let mut e = engine();
        e.busy(100);
        e.other(7);
        let b = e.breakdown();
        assert_eq!(b.busy, 100);
        assert_eq!(b.other_stall, 7);
        assert_eq!(b.total(), 107);
        assert_eq!(e.now(), 107);
    }

    #[test]
    fn writebacks_counted_and_charged() {
        let mut cfg = MemConfig::paper();
        cfg.l1_size = 64 * 4; // 1 set, 4 ways
        cfg.l1_assoc = 4;
        cfg.l2_size = 64 * 8; // tiny L2 so evictions leave it too
        cfg.l2_assoc = 8;
        let mut e = SimEngine::new(cfg.clone());
        // Dirty 4 lines of one set, then stream reads through it.
        for i in 0..4 {
            e.write(B + i * 64, 8);
        }
        for i in 4..12 {
            e.visit(B + i * 64, 8);
        }
        assert!(e.stats().writebacks >= 4, "dirty victims counted: {:?}", e.stats());
        // With bus charging on, the same trace takes at least as long.
        let mut charged = SimEngine::new(MemConfig { model_writebacks: true, ..cfg });
        for i in 0..4 {
            charged.write(B + i * 64, 8);
        }
        for i in 4..12 {
            charged.visit(B + i * 64, 8);
        }
        assert!(charged.now() >= e.now());
    }

    #[test]
    fn hidden_cycles_cover_fully_hidden_miss() {
        let mut e = engine();
        e.prefetch(A, 4);
        e.busy(1000);
        e.visit(A, 4);
        // The prefetch issues at cycle 1; its TLB walk (12 cycles, off the
        // critical path) delays the fill *request* to cycle 13, and the
        // fill is in flight for T = 150 cycles after that — all of it
        // overlapped with the busy computation.
        assert_eq!(e.stats().pf_hidden_cycles, 150);
        assert_eq!(e.breakdown().dcache_stall, 0);
        // Second visit adds nothing: coverage counted once per line.
        e.visit(A, 4);
        assert_eq!(e.stats().pf_hidden_cycles, 150);
    }

    #[test]
    fn hidden_plus_exposed_equals_full_latency_when_partial() {
        let mut e = engine();
        e.prefetch(A, 4);
        e.busy(50);
        let before = e.breakdown();
        e.visit(A, 4);
        let exposed = (e.breakdown() - before).dcache_stall;
        // Partially hidden: hidden + exposed = the fill's in-flight
        // latency, T = 150 (the prefetch's TLB walk precedes the fill
        // request and is part of neither side).
        assert_eq!(e.stats().pf_hidden_cycles + exposed, 150);
        assert!(e.stats().pf_hidden_cycles > 0);
    }

    #[test]
    fn unprefetched_misses_hide_nothing() {
        let mut e = engine();
        e.visit(A, 4);
        e.visit(B, 4);
        assert_eq!(e.stats().pf_hidden_cycles, 0);
    }

    #[test]
    fn snapshot_pairs_breakdown_and_stats() {
        let mut e = engine();
        e.visit(A, 4);
        let s = e.snapshot();
        assert_eq!(s.breakdown, e.breakdown());
        assert_eq!(s.stats, e.stats());
    }

    #[test]
    fn visits_same_page_walk_once() {
        let mut e = engine();
        e.visit(A, 4);
        e.visit(A + 64, 4); // same 8 KB page, different line
        assert_eq!(e.stats().tlb_demand_walks, 1);
    }
}

#[cfg(test)]
mod region_tests {
    use super::*;
    use crate::region::{RegionStats, NUM_REGION_KINDS};

    const A: usize = 0x10_0000;
    const B: usize = 0x20_0000;

    /// A small mixed workload: demand misses, hits, prefetches (hidden,
    /// partial, late, dropped), multi-line visits, writes.
    fn workload(e: &mut SimEngine) {
        e.visit(A, 4);
        e.visit(A, 4);
        e.prefetch(B, 4);
        e.busy(1000);
        e.visit(B, 4); // fully hidden
        e.prefetch(B + 64, 4);
        e.busy(50);
        e.visit(B + 64, 4); // partially hidden
        e.prefetch(B + 128, 4);
        e.visit(B + 128, 4); // late
        e.prefetch(B + 128, 4); // dropped (resident)
        e.write(A + 256, 8);
        e.visit(A + 1024, 256); // 4 lines in one reference
        e.other(3);
    }

    #[test]
    fn profiling_never_changes_timing() {
        let mut off = SimEngine::paper();
        workload(&mut off);
        let mut on = SimEngine::paper();
        on.enable_region_profiling();
        on.region_register(RegionKind::HashBucketHeaders, A, 4096);
        on.region_register(RegionKind::ProbeTuples, B, 4096);
        workload(&mut on);
        assert_eq!(on.now(), off.now());
        assert_eq!(on.breakdown(), off.breakdown());
        assert_eq!(on.stats(), off.stats());
    }

    #[test]
    fn region_counters_sum_to_global_stats() {
        let mut e = SimEngine::paper();
        e.enable_region_profiling();
        e.region_register(RegionKind::HashBucketHeaders, A, 4096);
        e.region_register(RegionKind::ProbeTuples, B, 4096);
        workload(&mut e);
        let p = e.region_profile().expect("profiling on");
        let g = e.stats();
        let mut sums = RegionStats::default();
        let mut hist_lines = 0;
        for kind in RegionKind::ALL {
            let s = p.stats(kind);
            sums.l1_hits += s.l1_hits;
            sums.l1_inflight_hits += s.l1_inflight_hits;
            sums.l2_hits += s.l2_hits;
            sums.mem_misses += s.mem_misses;
            sums.tlb_demand_walks += s.tlb_demand_walks;
            sums.tlb_prefetch_walks += s.tlb_prefetch_walks;
            sums.prefetches += s.prefetches;
            sums.pf_dropped += s.pf_dropped;
            sums.pf_hidden_cycles += s.pf_hidden_cycles;
            hist_lines += p.hist(kind).count();
        }
        // Every demand line is charged to exactly one region.
        assert_eq!(sums.l1_hits, g.l1_hits);
        assert_eq!(sums.l1_inflight_hits, g.l1_inflight_hits);
        assert_eq!(sums.l2_hits, g.l2_hits);
        assert_eq!(sums.mem_misses, g.mem_misses);
        assert_eq!(sums.demand_lines(), g.visit_lines);
        assert_eq!(sums.tlb_demand_walks, g.tlb_demand_walks);
        assert_eq!(sums.tlb_prefetch_walks, g.tlb_prefetch_walks);
        assert_eq!(sums.pf_dropped, g.pf_dropped);
        assert_eq!(sums.pf_hidden_cycles, g.pf_hidden_cycles);
        // Prefetched-line fills: one per non-dropped prefetch line.
        assert_eq!(sums.prefetches, g.pf_from_l2 + g.pf_from_mem);
        // One histogram sample per demand line, globally and per region.
        assert_eq!(hist_lines, g.visit_lines);
        assert_eq!(p.total_hist().count(), g.visit_lines);
    }

    #[test]
    fn demand_lines_charged_to_their_region() {
        let mut e = SimEngine::paper();
        e.enable_region_profiling();
        e.region_register(RegionKind::HashCells, A, 64);
        e.visit(A, 4); // registered: mem miss + walk
        e.visit(B, 4); // unregistered: falls to Other
        let p = e.region_profile().unwrap();
        let cells = p.stats(RegionKind::HashCells);
        assert_eq!(cells.mem_misses, 1);
        assert_eq!(cells.tlb_demand_walks, 1);
        assert_eq!(cells.demand_lines(), 1);
        assert!(cells.stall_cycles >= 150, "full latency exposed");
        let other = p.stats(RegionKind::Other);
        assert_eq!(other.mem_misses, 1);
        assert_eq!(other.demand_lines(), 1);
        assert_eq!(p.stats(RegionKind::BuildTuples).demand_lines(), 0);
    }

    #[test]
    fn unaligned_registrations_cover_their_first_line() {
        // Real allocations are rarely line-aligned (malloc hands out
        // 16-byte alignment). Attribution looks regions up by *line
        // start*, so registration must widen the range to line
        // boundaries or the first/last lines leak to Other.
        let mut e = SimEngine::paper();
        e.enable_region_profiling();
        e.region_register(RegionKind::BuildTuples, A + 16, 96); // spans lines A and A+64
        e.visit(A + 16, 4); // line start A: before the raw range
        e.visit(A + 104, 4); // line start A+64: past the raw range's end line start
        let s = e.region_profile().unwrap().stats(RegionKind::BuildTuples);
        assert_eq!(s.demand_lines(), 2, "both straddled lines charged to the region");
        assert_eq!(e.region_profile().unwrap().stats(RegionKind::Other).demand_lines(), 0);
    }

    #[test]
    fn prefetch_outcomes_classified_per_region() {
        let mut e = SimEngine::paper();
        e.enable_region_profiling();
        e.region_register(RegionKind::ProbeTuples, B, 4096);
        e.prefetch(B, 4);
        e.busy(1000);
        e.visit(B, 4); // hidden
        e.prefetch(B + 64, 4);
        e.busy(50);
        e.visit(B + 64, 4); // partial
        e.prefetch(B + 128, 4);
        e.visit(B + 128, 4); // late (no cycles overlapped)
        e.prefetch(B + 128, 4); // dropped
        let s = e.region_profile().unwrap().stats(RegionKind::ProbeTuples);
        assert_eq!(s.pf_hidden, 1);
        assert_eq!(s.pf_partial, 1);
        assert_eq!(s.pf_late, 1);
        assert_eq!(s.pf_dropped, 1);
        assert_eq!(s.prefetches, 3);
        assert_eq!(s.pf_hidden_cycles, e.stats().pf_hidden_cycles);
    }

    #[test]
    fn pollution_charged_to_victim_region() {
        let mut cfg = MemConfig::paper();
        cfg.l1_size = 64 * 4; // 1 set, 4 ways
        cfg.l1_assoc = 4;
        let mut e = SimEngine::new(cfg);
        e.enable_region_profiling();
        e.region_register(RegionKind::HashCells, B, 64 * 8);
        for i in 0..5 {
            e.prefetch(B + i * 64, 4); // 5 prefetches into a 4-way set
        }
        assert_eq!(e.stats().pf_evicted_unused, 1);
        let s = e.region_profile().unwrap().stats(RegionKind::HashCells);
        assert_eq!(s.pf_polluting, 1, "wasted prefetch charged to its region");
    }

    #[test]
    fn latency_hist_none_when_off_and_monotone_when_on() {
        let mut e = SimEngine::paper();
        assert!(e.latency_hist().is_none());
        // Registration before enabling is a silent no-op.
        e.region_register(RegionKind::HashCells, A, 64);
        e.visit(A, 4);
        assert!(e.region_profile().is_none());
        e.enable_region_profiling();
        let h0 = e.latency_hist().unwrap();
        assert_eq!(h0.count(), 0);
        e.visit(B, 4); // miss: nonzero exposed latency
        e.visit(B, 4); // hit: zero-latency sample
        let h1 = e.latency_hist().unwrap();
        assert_eq!(h1.count(), 2);
        let delta = h1 - h0;
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.buckets[0], 1, "the hit lands in the zero bucket");
        assert_eq!(delta.percentiles().2, h1.percentiles().2);
    }

    #[test]
    fn clear_reroutes_to_other() {
        let mut e = SimEngine::paper();
        e.enable_region_profiling();
        e.region_register(RegionKind::PartitionBuffers, A, 4096);
        e.visit(A, 4);
        e.region_clear(RegionKind::PartitionBuffers);
        e.visit(A + 64, 4);
        let p = e.region_profile().unwrap();
        assert_eq!(p.stats(RegionKind::PartitionBuffers).demand_lines(), 1);
        assert_eq!(p.stats(RegionKind::Other).demand_lines(), 1);
        let _ = NUM_REGION_KINDS; // re-exported constant stays in sync
        assert_eq!(RegionKind::ALL.len(), NUM_REGION_KINDS);
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    /// With the global registry installed, engine counters reach the
    /// scrape in batches and the drop-flush delivers the partial tail.
    /// Other tests in this binary may publish too (the registry is
    /// process-wide), so assertions are monotone lower bounds.
    #[test]
    fn batched_deltas_reach_the_registry() {
        let reg = phj_metrics::install();
        let scraped = |name: &str| {
            reg.scrape()
                .into_iter()
                .find(|f| f.name == name)
                .map_or(0, |f| f.value)
        };
        let before = scraped("phj_memsim_accesses_total");
        let mut e = SimEngine::paper();
        // One full batch triggers an in-flight publication...
        for i in 0..TELE_BATCH as usize {
            e.visit(0x40_0000 + (i % 256) * 64, 4);
        }
        assert!(
            scraped("phj_memsim_accesses_total") >= before + TELE_BATCH as u64,
            "full batch published without dropping the engine"
        );
        // ...and the partial tail arrives on drop.
        e.prefetch(0x80_0000, 4);
        for i in 0..10usize {
            e.visit(0x80_0000 + i * 64, 4);
        }
        let pf_before = scraped("phj_memsim_prefetches_total");
        drop(e);
        assert!(scraped("phj_memsim_accesses_total") >= before + TELE_BATCH as u64 + 10);
        assert!(scraped("phj_memsim_prefetches_total") >= pf_before.max(1));
        assert!(scraped("phj_memsim_l2_misses_total") >= 1, "cold misses counted");
        assert!(scraped("phj_memsim_tlb_misses_total") >= 1, "demand walks counted");
    }
}

#[cfg(test)]
mod hw_prefetch_tests {
    use super::*;

    fn hw_engine() -> SimEngine {
        let cfg = MemConfig {
            hw_prefetch_streams: 8,
            hw_prefetch_depth: 2,
            ..MemConfig::paper()
        };
        SimEngine::new(cfg)
    }

    #[test]
    fn sequential_stream_gets_prefetched() {
        let mut e = hw_engine();
        // Sequential scan: after the detector locks on (2nd consecutive
        // miss), subsequent lines arrive early.
        for i in 0..32usize {
            e.visit(0x100000 + i * 64, 8);
            e.busy(200);
        }
        assert!(e.stats().hw_prefetches > 10, "stream detected");
        // Far fewer than 32 full misses thanks to the prefetcher.
        assert!(
            e.stats().l1_hits + e.stats().l1_inflight_hits > 16,
            "later lines were covered: {:?}",
            e.stats()
        );
    }

    #[test]
    fn random_accesses_trigger_nothing() {
        let mut e = hw_engine();
        let mut line = 1u64;
        for _ in 0..64 {
            line = line.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let addr = ((line >> 20) & 0xFF_FFFF) as usize * 64;
            e.visit(addr, 8);
            e.busy(100);
        }
        assert_eq!(e.stats().hw_prefetches, 0, "no strides in random stream");
    }

    #[test]
    fn disabled_by_default() {
        let mut e = SimEngine::paper();
        for i in 0..16usize {
            e.visit(0x200000 + i * 64, 8);
        }
        assert_eq!(e.stats().hw_prefetches, 0);
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    fn calls(e: &mut SimEngine, n: usize) {
        for i in 0..n {
            e.visit(0x100_0000 + (i % 4096) * 64, 8);
            e.busy(3);
        }
    }

    fn worker_started(e: &mut SimEngine) -> bool {
        e.front.get_mut().unwrap_or_else(PoisonError::into_inner).worker.is_some()
    }

    #[test]
    fn worker_starts_with_the_first_full_batch() {
        let mut e = SimEngine::paper();
        calls(&mut e, LOG_BATCH / 2 - 1);
        e.busy(1); // call LOG_BATCH - 1
        let _ = e.snapshot();
        assert!(!worker_started(&mut e), "a query applies a partial batch inline");
        calls(&mut e, LOG_BATCH / 2); // exactly one batch since the query
        assert!(worker_started(&mut e));
        assert_eq!(e.stats().visits, (LOG_BATCH - 1) as u64);
    }

    #[test]
    fn results_do_not_depend_on_where_queries_cut_the_log() {
        // The same calls queried never, after every call near a batch
        // boundary, and every few thousand calls.
        let stream = |e: &mut SimEngine, query_at: &dyn Fn(usize) -> bool| {
            for i in 0..3 * LOG_BATCH {
                match i % 3 {
                    0 => e.prefetch(0x200_0000 + (i * 97 % 65_536) * 64, 8),
                    1 => e.visit(0x200_0000 + (i * 89 % 65_536) * 64, 8),
                    _ => e.busy(11),
                }
                if query_at(i) {
                    let _ = e.now();
                }
            }
            e.snapshot()
        };
        let mut plain = SimEngine::paper();
        let want = stream(&mut plain, &|_| false);
        let mut dense = SimEngine::paper();
        let near = |i: usize| !(3..LOG_BATCH - 3).contains(&(i % LOG_BATCH));
        assert_eq!(stream(&mut dense, &near), want);
        let mut sparse = SimEngine::paper();
        assert_eq!(stream(&mut sparse, &|i| i % 4999 == 0), want);
    }

    #[test]
    fn flush_epochs_are_journaled_on_the_calling_thread() {
        let rec = phj_flightrec::install(phj_flightrec::Mode::Phase);
        // A marker (code 0xE90C; the engine journals code 0) identifies
        // this thread's ring.
        const MARK: u16 = 0xE90C;
        let flushes = thread::scope(|s| {
            s.spawn(|| {
                phj_flightrec::event(phj_flightrec::EventKind::MemEpoch, MARK, 0, 0);
                let cfg = MemConfig { flush_period: Some(20_000), ..MemConfig::paper() };
                let mut e = SimEngine::new(cfg);
                calls(&mut e, 2 * LOG_BATCH);
                e.stats().flushes
            })
            .join()
            .unwrap()
        });
        assert!(flushes > 100, "the stream crosses many flush periods");
        let epochs = |ring: &phj_flightrec::RingSnapshot| -> Vec<u64> {
            ring.events
                .iter()
                .filter(|ev| ev.kind == phj_flightrec::EventKind::MemEpoch && ev.code == 0)
                .map(|ev| ev.a)
                .collect()
        };
        let rings = rec.snapshot_all();
        let is_mine = |r: &&phj_flightrec::RingSnapshot| r.events.iter().any(|ev| ev.code == MARK);
        let mine = rings.iter().find(is_mine).expect("the test thread's ring");
        assert_eq!(epochs(mine), (1..=flushes).collect::<Vec<_>>(), "every epoch, in order");
        for other in rings.iter().filter(|r| r.tid != mine.tid) {
            // Other tests in this binary flush a handful of times at most;
            // none of this engine's epochs may land on another ring.
            assert!(epochs(other).iter().all(|&a| a < 10), "epochs on ring {}", other.tid);
        }
    }

    /// Arithmetic overflow in `apply` (a reference ending past the top of
    /// the address space) panics only with overflow checks on.
    #[cfg(debug_assertions)]
    #[test]
    fn worker_panic_resurfaces_at_the_next_query_and_not_again_on_drop() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut e = SimEngine::paper();
        e.visit(usize::MAX, 2); // panics on the worker once applied
        calls(&mut e, LOG_BATCH / 2); // ships the first batch only
        let err = catch_unwind(AssertUnwindSafe(|| e.stats())).expect_err("query resurfaces it");
        assert!(is_overflow(err), "the worker's own panic");
        assert!(!worker_started(&mut e), "the dead worker was joined");
        drop(e); // already surfaced: no second panic
    }

    #[cfg(debug_assertions)]
    #[test]
    fn worker_panic_resurfaces_at_the_next_full_batch() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut e = SimEngine::paper();
        e.visit(usize::MAX, 2);
        let err = catch_unwind(AssertUnwindSafe(|| calls(&mut e, 2 * LOG_BATCH)))
            .expect_err("the second batch finds the worker dead");
        assert!(is_overflow(err));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn worker_panic_resurfaces_on_drop() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut e = SimEngine::paper();
        e.visit(usize::MAX, 2);
        calls(&mut e, LOG_BATCH / 2);
        let err = catch_unwind(AssertUnwindSafe(move || drop(e))).expect_err("drop resurfaces it");
        assert!(is_overflow(err));
    }

    #[cfg(debug_assertions)]
    fn is_overflow(panic: Panic) -> bool {
        let msg = match panic.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().map_or(String::new(), |s| s.to_string()),
        };
        msg.contains("overflow")
    }
}
