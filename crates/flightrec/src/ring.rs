//! The per-thread bounded ring and its torn-read-safe snapshot.
//!
//! Each ring has exactly one writer (the owning thread) and any number
//! of concurrent cold readers (postmortem dump, summary). Slots are
//! five `AtomicU64` words: a sequence word plus the event's four wire
//! words ([`Event::encode`]). Two monotone counters make reads safe
//! without locking the writer:
//!
//! * `start` — incremented (with a full barrier) *before* an event's
//!   slot words are written. If a reader observes `start <= j + cap`,
//!   no writer had begun overwriting event `j`'s slot.
//! * `done` — published (release) *after* the slot words. Events below
//!   `done` are fully written.
//!
//! A reader snapshots `done`, copies candidate slots, issues a `SeqCst`
//! fence, then re-reads `start` and discards any event whose slot could
//! have been entered by a later write during the copy. Whatever remains
//! is untorn; everything else is counted as dropped. The hammer test
//! (`tests/hammer.rs`) drives this under real concurrency.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::event::{Event, KIND_COUNT};

/// Words per slot: sequence + the four encoded event words.
const WORDS: usize = 5;

/// One thread's journal: a fixed ring of event slots plus per-kind
/// totals (totals never wrap — they feed a postmortem's `counts`).
pub struct ThreadRing {
    tid: u16,
    cap: usize,
    start: AtomicU64,
    done: AtomicU64,
    slots: Box<[AtomicU64]>,
    counts: [AtomicU64; KIND_COUNT],
}

/// A consistent copy of one ring: recovered events in write order,
/// plus the write total for drop accounting.
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Owning thread id.
    pub tid: u16,
    /// Events ever written to this ring (including overwritten ones).
    pub written: u64,
    /// Untorn events recovered, oldest first.
    pub events: Vec<Event>,
}

impl RingSnapshot {
    /// Events written but not recovered (ring wrap, or in flight during
    /// a concurrent snapshot).
    pub fn dropped(&self) -> u64 {
        self.written.saturating_sub(self.events.len() as u64)
    }
}

impl ThreadRing {
    /// A ring holding the last `cap` events for thread `tid`. `cap` is
    /// clamped to at least 2.
    pub fn new(tid: u16, cap: usize) -> ThreadRing {
        let cap = cap.max(2);
        let slots = (0..cap * WORDS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        ThreadRing {
            tid,
            cap,
            start: AtomicU64::new(0),
            done: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// This ring's thread id.
    pub fn tid(&self) -> u16 {
        self.tid
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append one event. Must only be called from the owning thread
    /// (single writer); readers may run concurrently.
    pub fn record(&self, ev: &Event) {
        // Full barrier: the new `start` is globally visible before any
        // of this event's slot stores, so a reader that saw our slot
        // words also sees `start` past us and discards the torn read.
        let k = self.start.fetch_add(1, Ordering::SeqCst);
        let base = (k as usize % self.cap) * WORDS;
        let w = ev.encode();
        self.slots[base + 1].store(w[0], Ordering::Relaxed);
        self.slots[base + 2].store(w[1], Ordering::Relaxed);
        self.slots[base + 3].store(w[2], Ordering::Relaxed);
        self.slots[base + 4].store(w[3], Ordering::Relaxed);
        // Sequence word last, then the completion counter: a reader
        // that observes `done > k` sees every word above.
        self.slots[base].store(k, Ordering::Release);
        self.done.store(k + 1, Ordering::Release);
        self.counts[ev.kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Total events ever written (monotone; survives wrap).
    pub fn written(&self) -> u64 {
        self.done.load(Ordering::Acquire)
    }

    /// Per-kind totals, indexed by `EventKind as usize`.
    pub fn counts(&self) -> [u64; KIND_COUNT] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Copy out every recoverable event, oldest first. Safe to call
    /// from any thread while the owner keeps writing; concurrent
    /// overwrites surface as drops, never as torn records.
    pub fn snapshot(&self) -> RingSnapshot {
        let done = self.done.load(Ordering::Acquire);
        let lo = done.saturating_sub(self.cap as u64);
        let mut raw: Vec<(u64, [u64; 4])> = Vec::with_capacity((done - lo) as usize);
        for j in lo..done {
            let base = (j as usize % self.cap) * WORDS;
            // Slot already recycled for a newer event? Skip early.
            if self.slots[base].load(Ordering::Acquire) != j {
                continue;
            }
            raw.push((
                j,
                [
                    self.slots[base + 1].load(Ordering::Relaxed),
                    self.slots[base + 2].load(Ordering::Relaxed),
                    self.slots[base + 3].load(Ordering::Relaxed),
                    self.slots[base + 4].load(Ordering::Relaxed),
                ],
            ));
        }
        // Order the copies above before re-reading `start`: any writer
        // whose slot stores we might have observed did its `start`
        // increment (full barrier) first, so it is visible here.
        fence(Ordering::SeqCst);
        let started = self.start.load(Ordering::Relaxed);
        let safe_lo = started.saturating_sub(self.cap as u64);
        let events = raw
            .into_iter()
            .filter(|(j, _)| *j >= safe_lo)
            .filter_map(|(_, words)| Event::decode(words))
            .collect();
        RingSnapshot { tid: self.tid, written: done, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn mark(ts_ns: u64, tid: u16, a: u64, b: u64) -> Event {
        Event { ts_ns, kind: EventKind::Mark, code: 0, tid, a, b }
    }

    #[test]
    fn records_and_recovers_in_order() {
        let ring = ThreadRing::new(7, 8);
        for i in 0..5u64 {
            ring.record(&mark(i * 10, 7, i, !i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.tid, 7);
        assert_eq!(snap.written, 5);
        assert_eq!(snap.dropped(), 0);
        let got: Vec<u64> = snap.events.iter().map(|e| e.a).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(snap.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn wrap_keeps_last_cap_and_counts_drops_exactly() {
        let cap = 8;
        let ring = ThreadRing::new(0, cap);
        let n = 30u64;
        for i in 0..n {
            ring.record(&mark(i, 0, i, i ^ 0xdead));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.written, n);
        assert_eq!(snap.events.len(), cap);
        assert_eq!(snap.dropped(), n - cap as u64);
        let got: Vec<u64> = snap.events.iter().map(|e| e.a).collect();
        let want: Vec<u64> = (n - cap as u64..n).collect();
        assert_eq!(got, want, "the survivors are exactly the newest cap events");
    }

    #[test]
    fn per_kind_counts_accumulate_past_wrap() {
        let ring = ThreadRing::new(0, 4);
        for i in 0..10u64 {
            ring.record(&mark(i, 0, i, 0));
        }
        ring.record(&Event { ts_ns: 11, kind: EventKind::Fault, code: 1, tid: 0, a: 0, b: 0 });
        let counts = ring.counts();
        assert_eq!(counts[EventKind::Mark as usize], 10);
        assert_eq!(counts[EventKind::Fault as usize], 1);
        assert_eq!(counts.iter().sum::<u64>(), ring.written());
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = ThreadRing::new(3, 16);
        let snap = ring.snapshot();
        assert_eq!(snap.written, 0);
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped(), 0);
    }

    #[test]
    fn tiny_capacity_is_clamped() {
        let ring = ThreadRing::new(0, 0);
        assert_eq!(ring.capacity(), 2);
        ring.record(&mark(0, 0, 1, 2));
        assert_eq!(ring.snapshot().events.len(), 1);
    }
}
