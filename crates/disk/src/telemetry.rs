//! Live-telemetry handles for the disk substrate.
//!
//! Gated on the process-global registry exactly like the executor's
//! instrumentation: when telemetry was never installed,
//! [`disk_metrics`] costs one atomic load and the I/O paths publish
//! nothing. These counters mirror [`IoStats`](crate::fault::IoStats) —
//! the per-plan atomics stay the report's source of truth; the registry
//! copies exist so the same signals are scrapeable *during* the run.

use std::sync::{Arc, OnceLock};

use phj_metrics::{names, Counter, Gauge};

/// Registered handles for the disk metric family.
pub(crate) struct DiskMetrics {
    /// `phj_disk_faults_injected_total` — injected faults, all kinds.
    pub faults_injected: Arc<Counter>,
    /// `phj_disk_read_retries_total` — repeated read attempts.
    pub read_retries: Arc<Counter>,
    /// `phj_disk_write_retries_total` — repeated write attempts.
    pub write_retries: Arc<Counter>,
    /// `phj_disk_stall_ns_total` — main-thread ns blocked on read-ahead
    /// or on a full write-back window.
    pub stall_ns: Arc<Counter>,
    /// `phj_disk_bytes_read_total` — bytes read from stripe files.
    pub bytes_read: Arc<Counter>,
    /// `phj_disk_bytes_written_total` — bytes written to stripe files.
    pub bytes_written: Arc<Counter>,
    /// `phj_disk_degradation_depth` — deepest degradation-ladder step
    /// taken so far (high-water mark).
    pub degradation_depth: Arc<Gauge>,
}

/// The disk handles, or `None` when telemetry is off.
pub(crate) fn disk_metrics() -> Option<&'static DiskMetrics> {
    static CACHE: OnceLock<DiskMetrics> = OnceLock::new();
    let reg = phj_metrics::global()?;
    Some(CACHE.get_or_init(|| DiskMetrics {
        faults_injected: reg
            .counter(names::DISK_FAULTS, "Disk faults injected (all kinds)"),
        read_retries: reg
            .counter(names::DISK_READ_RETRIES, "Page read attempts repeated after retryable failures"),
        write_retries: reg
            .counter(names::DISK_WRITE_RETRIES, "Page write attempts repeated after retryable failures"),
        stall_ns: reg
            .counter(names::DISK_STALL_NS, "Main-thread ns blocked on read-ahead or a full write-back window"),
        bytes_read: reg.counter(names::DISK_BYTES_READ, "Bytes read from stripe files"),
        bytes_written: reg.counter(names::DISK_BYTES_WRITTEN, "Bytes written to stripe files"),
        degradation_depth: reg
            .gauge(names::DISK_DEGRADATION_DEPTH, "Deepest degradation-ladder step taken (high-water)"),
    }))
}
