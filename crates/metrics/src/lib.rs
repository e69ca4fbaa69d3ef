#![warn(missing_docs)]

//! # phj-metrics — live telemetry for the join engine
//!
//! Everything observability has produced so far (RunReports, region
//! attribution, fault sections) is post-mortem: readable only after the
//! run finishes. This crate makes the same signals *watchable while a
//! join executes*, which is what runtime decisions — spilling, recursion,
//! degradation, skew rebalancing — ultimately need:
//!
//! * [`Registry`] — a lock-free metric registry. Counters and log2
//!   histograms are **sharded per-worker atomics** (relaxed increments on
//!   a thread-local shard, merged only on scrape), so instrumented hot
//!   paths never contend on a shared cache line. Gauges are single
//!   atomics (their writers are rare).
//! * [`global`]/[`install`] — a process-global registry that is **null
//!   until explicitly installed**. Instrumentation points in the engine
//!   crates check `global()` and compile down to one atomic load + branch
//!   when telemetry is off: no registry is ever allocated, and nothing
//!   about a run's output changes.
//! * [`prom::encode`] — Prometheus text exposition (version 0.0.4) of a
//!   scrape: families typed `counter` / `gauge` / `histogram`, no
//!   duplicate names (the registry's name map guarantees it).
//! * [`Listener`] — the shared nonblocking TCP accept loop (one tested
//!   accept path for every hand-rolled server in the workspace).
//! * [`MetricsServer`] — a hand-rolled, std-only HTTP endpoint over
//!   [`Listener`] answering `GET /metrics` and `GET /healthz`; bind to
//!   port 0 and read [`MetricsServer::local_addr`] for an ephemeral
//!   endpoint.
//!
//! A scrape of `/metrics` is the one live view of these signals; the
//! query daemon's per-query table is a separate question, answered by
//! its typed `Status` request (`phj top`).
//!
//! The crate is std-only and dependency-free, so every layer of the
//! workspace (storage, memsim, disk, exec, cli, bench) can depend on it
//! without cycles.

pub mod listener;
pub mod names;
pub mod prom;
pub mod registry;
pub mod server;

pub use listener::Listener;
pub use prom::encode;
pub use registry::{Counter, Family, Gauge, Histogram, MetricKind, Registry, HIST_BUCKETS};
pub use server::MetricsServer;

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// Install the process-global registry (idempotent: later calls return
/// the first one). Instrumented hot paths across the workspace publish
/// into this registry from the moment it exists; before the first call,
/// [`global`] is `None` and instrumentation is a single branch.
pub fn install() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// The process-global registry, or `None` when telemetry was never
/// enabled. The disabled path costs one atomic load.
pub fn global() -> Option<&'static Arc<Registry>> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_idempotent_and_global_sees_it() {
        // Note: other tests in this binary may install first; all we can
        // assert portably is idempotence and visibility.
        let a = install() as *const _;
        let b = install() as *const _;
        assert_eq!(a, b);
        assert!(global().is_some());
    }
}
