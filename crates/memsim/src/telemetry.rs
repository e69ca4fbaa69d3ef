//! Live-telemetry handles for the memory simulator.
//!
//! The simulator's `visit` path is the hottest loop in the workspace, so
//! it never touches the registry per access: [`SimEngine`]
//! (crate::SimEngine) publishes *deltas* in batches (every few thousand
//! references, and once more on drop). The calling thread publishes the
//! counts it knows from the calls alone (accesses, prefetches); the
//! worker that applies the call log publishes the outcomes from its
//! [`CacheStats`](crate::CacheStats) (misses, walks, hidden cycles).
//! With telemetry off the cost is a local counter increment; simulated
//! cycle counts are identical either way — publishing is host-side
//! bookkeeping only.

use std::sync::{Arc, OnceLock};

use phj_metrics::{names, Counter};

/// Registered handles for the memsim metric family.
pub(crate) struct MemsimMetrics {
    /// `phj_memsim_accesses_total` — demand visits (reads + writes).
    pub accesses: Arc<Counter>,
    /// `phj_memsim_l1_misses_total` — demand lines not served by L1.
    pub l1_misses: Arc<Counter>,
    /// `phj_memsim_l2_misses_total` — demand lines that went to memory.
    pub l2_misses: Arc<Counter>,
    /// `phj_memsim_tlb_misses_total` — demand page walks.
    pub tlb_misses: Arc<Counter>,
    /// `phj_memsim_prefetches_total` — software prefetches issued.
    pub prefetches: Arc<Counter>,
    /// `phj_memsim_pf_hidden_cycles_total` — miss cycles hidden by
    /// prefetching.
    pub pf_hidden_cycles: Arc<Counter>,
}

/// The memsim handles, or `None` when telemetry is off.
pub(crate) fn memsim_metrics() -> Option<&'static MemsimMetrics> {
    static CACHE: OnceLock<MemsimMetrics> = OnceLock::new();
    let reg = phj_metrics::global()?;
    Some(CACHE.get_or_init(|| MemsimMetrics {
        accesses: reg.counter(names::MEMSIM_ACCESSES, "Simulated demand accesses"),
        l1_misses: reg.counter(names::MEMSIM_L1_MISSES, "Demand lines missing L1"),
        l2_misses: reg.counter(names::MEMSIM_L2_MISSES, "Demand lines missing L2 (memory fills)"),
        tlb_misses: reg.counter(names::MEMSIM_TLB_MISSES, "Demand TLB page walks"),
        prefetches: reg.counter(names::MEMSIM_PREFETCHES, "Software prefetches issued"),
        pf_hidden_cycles: reg
            .counter(names::MEMSIM_PF_HIDDEN_CYCLES, "Miss cycles hidden by prefetching"),
    }))
}
