//! The process-wide recorder: ring registry, thread-local fast path,
//! and the free functions instrumentation sites call.
//!
//! Mirrors the phj-metrics idiom: [`install`] once (idempotent),
//! [`global`] everywhere, and every emit helper is a no-op until then —
//! so library crates can instrument unconditionally and binaries decide
//! whether the recorder exists. There is one granularity: coarse events
//! (phases, flushes, degradation, faults, retries, steals, grants,
//! epochs), none of them per tuple, per group or per task.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::event::{phase_code, Event, EventKind, KIND_COUNT};
use crate::ring::{RingSnapshot, ThreadRing};

/// Default per-thread ring capacity (events). 4096 × 40 B = 160 KiB per
/// thread — roomy enough that a phase-granularity run never wraps, small
/// enough to forget about.
pub const DEFAULT_CAPACITY: usize = 4096;

/// The process-wide flight recorder. Owns one [`ThreadRing`] per thread
/// that ever recorded an event; rings outlive their threads so a
/// postmortem can still see what a finished worker did. Recording is
/// off until [`install`] is called ([`global`] returns `None`).
pub struct FlightRecorder {
    origin: Instant,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

/// Per-thread drop-count / write-count row for summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSummary {
    /// Ring thread id.
    pub tid: u16,
    /// Events written (monotone).
    pub written: u64,
    /// Events currently recoverable.
    pub recovered: u64,
}

/// Aggregate view of the recorder for a postmortem's header: per-kind
/// totals and exact drop accounting, no timestamps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// Per-thread ring capacity.
    pub capacity: usize,
    /// Rings registered (threads that recorded ≥ 1 event).
    pub threads: Vec<ThreadSummary>,
    /// Per-kind totals, indexed by `EventKind as usize`.
    pub counts: [u64; KIND_COUNT],
}

impl Summary {
    /// Total events written across all rings.
    pub fn written(&self) -> u64 {
        self.threads.iter().map(|t| t.written).sum()
    }

    /// Total events lost to ring wrap.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.written - t.recovered).sum()
    }
}

impl FlightRecorder {
    fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { origin: Instant::now(), capacity, rings: Mutex::new(Vec::new()) }
    }

    /// Per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder was installed (the timestamp
    /// every event carries).
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Register (or fetch) the calling thread's ring. Locks only on
    /// first call per thread.
    fn ring_for_current_thread(&self) -> Option<Arc<ThreadRing>> {
        let mut rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        if rings.len() > u16::MAX as usize {
            return None;
        }
        let ring = Arc::new(ThreadRing::new(rings.len() as u16, self.capacity));
        rings.push(Arc::clone(&ring));
        Some(ring)
    }

    /// Snapshot every ring (cold; safe while writers run).
    pub fn snapshot_all(&self) -> Vec<RingSnapshot> {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.iter().map(|r| r.snapshot()).collect()
    }

    /// One merged timeline, ordered by timestamp (ties by thread id,
    /// preserving each thread's write order).
    pub fn timeline(&self) -> Vec<Event> {
        let mut all: Vec<Event> =
            self.snapshot_all().into_iter().flat_map(|s| s.events).collect();
        all.sort_by_key(|e| (e.ts_ns, e.tid));
        all
    }

    /// Aggregate counts and drop accounting (see [`Summary`]).
    pub fn summary(&self) -> Summary {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        let mut counts = [0u64; KIND_COUNT];
        let mut threads = Vec::with_capacity(rings.len());
        for r in rings.iter() {
            for (i, c) in r.counts().iter().enumerate() {
                counts[i] += c;
            }
            let snap = r.snapshot();
            threads.push(ThreadSummary {
                tid: r.tid(),
                written: snap.written,
                recovered: snap.events.len() as u64,
            });
        }
        Summary { capacity: self.capacity, threads, counts }
    }

    /// Total events written across all rings (cheap liveness probe:
    /// the CLI only dumps a postmortem when something was recorded).
    pub fn total_written(&self) -> u64 {
        let rings = self.rings.lock().unwrap_or_else(|e| e.into_inner());
        rings.iter().map(|r| r.written()).sum()
    }
}

static GLOBAL: OnceLock<Arc<FlightRecorder>> = OnceLock::new();

/// Install the global recorder with [`DEFAULT_CAPACITY`]. Idempotent:
/// a second call returns the existing recorder.
pub fn install() -> &'static Arc<FlightRecorder> {
    install_with(DEFAULT_CAPACITY)
}

/// [`install`] with an explicit per-thread ring capacity.
pub fn install_with(capacity: usize) -> &'static Arc<FlightRecorder> {
    GLOBAL.get_or_init(|| Arc::new(FlightRecorder::new(capacity)))
}

/// The recorder, or `None` while recording is off.
pub fn global() -> Option<&'static Arc<FlightRecorder>> {
    GLOBAL.get()
}

struct ThreadHandle {
    ring: Arc<ThreadRing>,
    phase_stack: Vec<u16>,
}

thread_local! {
    static HANDLE: RefCell<Option<ThreadHandle>> = const { RefCell::new(None) };
}

/// Run `f` with the calling thread's handle. No-op when the recorder is
/// off, the thread table is full, or the thread is mid-teardown.
#[inline]
fn with_handle(f: impl FnOnce(&FlightRecorder, &mut ThreadHandle)) {
    let Some(rec) = GLOBAL.get() else { return };
    let _ = HANDLE.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let Some(ring) = rec.ring_for_current_thread() else { return };
            *slot = Some(ThreadHandle { ring, phase_stack: Vec::new() });
        }
        f(rec, slot.as_mut().expect("handle just initialized"));
    });
}

/// Record one event. No-op while the recorder is off.
#[inline]
pub fn event(kind: EventKind, code: u16, a: u64, b: u64) {
    with_handle(|rec, h| {
        let ev = Event { ts_ns: rec.now_ns(), kind, code, tid: h.ring.tid(), a, b };
        h.ring.record(&ev);
    });
}

/// Record a phase entry and remember its code so the matching
/// [`phase_exit`] can name it without the caller threading state.
#[inline]
pub fn phase_enter(name: &str) {
    with_handle(|rec, h| {
        let code = phase_code(name);
        h.phase_stack.push(code);
        let ev = Event {
            ts_ns: rec.now_ns(),
            kind: EventKind::PhaseEnter,
            code,
            tid: h.ring.tid(),
            a: h.phase_stack.len() as u64,
            b: 0,
        };
        h.ring.record(&ev);
    });
}

/// Record the exit of the innermost entered phase (no-op when the
/// stack is empty — e.g. recording switched on mid-phase).
#[inline]
pub fn phase_exit() {
    with_handle(|rec, h| {
        let Some(code) = h.phase_stack.pop() else { return };
        let ev = Event {
            ts_ns: rec.now_ns(),
            kind: EventKind::PhaseExit,
            code,
            tid: h.ring.tid(),
            a: h.phase_stack.len() as u64 + 1,
            b: 0,
        };
        h.ring.record(&ev);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global recorder is process-wide state; exercise everything in
    // one test so install order is deterministic under the parallel
    // test runner.
    #[test]
    fn global_recorder_end_to_end() {
        let _guard = crate::test_serial();
        // Emitting before install is a silent no-op.
        event(EventKind::Mark, 1, 2, 3);

        let rec = install_with(64);
        assert!(global().is_some());

        phase_enter("grace_join");
        phase_enter("partition");
        event(EventKind::Grant, 0, 0, 1 << 20);
        phase_exit();
        phase_exit();
        phase_exit(); // unbalanced extra exit: ignored

        let others: Vec<std::thread::JoinHandle<()>> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    phase_enter("pair");
                    event(EventKind::Steal, 1, i, i + 1);
                    phase_exit();
                })
            })
            .collect();
        for h in others {
            h.join().unwrap();
        }

        let summary = rec.summary();
        assert_eq!(summary.capacity, 64);
        // ≥ 3: this thread + 2 spawned (other serialized tests may have
        // registered rings of their own first).
        assert!(summary.threads.len() >= 3, "threads: {:?}", summary.threads);
        assert_eq!(summary.dropped(), 0);
        assert_eq!(summary.counts[EventKind::PhaseEnter as usize], 4);
        assert_eq!(summary.counts[EventKind::PhaseExit as usize], 4);
        assert_eq!(summary.counts[EventKind::Grant as usize], 1);
        assert_eq!(summary.counts[EventKind::Steal as usize], 2);
        assert_eq!(summary.written(), rec.total_written());

        let timeline = rec.timeline();
        assert_eq!(timeline.len() as u64, summary.written());
        assert!(timeline.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "timeline is ordered");

        // Phase enter/exit pair up by code on this thread's ring (the
        // one holding the grace_join entry).
        let rings = rec.snapshot_all();
        let main_ring = rings
            .iter()
            .find(|r| r.events.iter().any(|e| {
                e.kind == EventKind::PhaseEnter && e.code == phase_code("grace_join")
            }))
            .expect("this test's ring");
        let enters: Vec<u16> = main_ring
            .events
            .iter()
            .filter(|e| e.kind == EventKind::PhaseEnter)
            .map(|e| e.code)
            .collect();
        let exits: Vec<u16> = main_ring
            .events
            .iter()
            .filter(|e| e.kind == EventKind::PhaseExit)
            .map(|e| e.code)
            .collect();
        assert_eq!(enters, vec![phase_code("grace_join"), phase_code("partition")]);
        assert_eq!(exits, vec![phase_code("partition"), phase_code("grace_join")]);

        // install() again returns the same recorder.
        let again = install();
        assert!(Arc::ptr_eq(again, rec));
        assert_eq!(again.capacity(), 64);
    }
}
