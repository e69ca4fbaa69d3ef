//! Flight recorder: an always-on, bounded, lock-free event journal.
//!
//! Every subsystem in the workspace reports *aggregates* — span trees
//! (phj-obs), counters and time series (phj-metrics), diagnosis
//! (phj-analyze). What none of them can answer is "what happened, in
//! what order, in the milliseconds before this run degraded / faulted /
//! crashed?". This crate is that substrate: each thread appends
//! fixed-size binary [`Event`]s to its own bounded ring, a crash (panic,
//! typed error, SIGTERM) snapshots every ring into one ordered timeline
//! and writes a `postmortem.json`, and `phj blackbox` renders the dump.
//!
//! Design rules, in priority order:
//!
//! 1. **Never on the simulated critical path.** Recording is host-side
//!    bookkeeping; simulated cycle counts are byte-identical with the
//!    recorder on or off.
//! 2. **Bounded.** Rings never grow; old events are overwritten and the
//!    wrap is accounted for exactly (`written - recovered = dropped`).
//! 3. **Lock-free on the hot path.** One atomic fetch-add plus five
//!    relaxed stores per event; the only lock is taken once per thread
//!    (ring registration) and by cold readers (snapshot, dump).
//! 4. **Std-only.** Like phj-metrics, this crate must sit below every
//!    other crate in the workspace — it depends on nothing.
//!
//! The global recorder follows the phj-metrics idiom: not installed
//! (`off`) until [`install`] is called, after which [`global`] returns
//! it forever. There is one granularity, `phase`: coarse events only,
//! never one per tuple, per prefetch group or per pool task, so the
//! paper's kernel loops carry no recorder check at all.

mod event;
mod postmortem;
mod recorder;
mod ring;

pub use event::{grant_op, phase_code, phase_name, Event, EventKind, KIND_COUNT, PHASES};
pub use postmortem::{
    dump, dump_events_to, dump_to, install_crash_hooks, set_context_provider, set_postmortem_path,
    Cause,
};
pub use recorder::{
    event, global, install, install_with, phase_enter, phase_exit, FlightRecorder, Summary,
    ThreadSummary, DEFAULT_CAPACITY,
};
pub use ring::{RingSnapshot, ThreadRing};

/// Unit tests in this crate share the process-global recorder; they
/// serialize on this lock so install order and counts stay exact.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
