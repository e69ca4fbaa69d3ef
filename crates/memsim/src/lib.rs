#![warn(missing_docs)]

//! Memory-hierarchy timing model and the `MemoryModel` abstraction.
//!
//! The paper evaluates its prefetching schemes on a cycle-level simulator
//! whose memory system is based on the Compaq ES40 (Table 2). This crate
//! reimplements the parts of that simulator the evaluation depends on:
//!
//! * set-associative L1D and unified L2 caches with LRU replacement and
//!   **in-flight fills** (a line installed by a prefetch becomes usable at
//!   its fill-completion time; touching it earlier stalls only for the
//!   remaining latency) — [`cache`];
//! * a fully-associative, hardware-walked D-TLB with **TLB prefetching**:
//!   TLB misses triggered by prefetches are handled off the critical path,
//!   overlapping the walk with computation (§2 of the paper) — [`tlb`];
//! * a limited pool of **miss handlers** (32 for data, Table 2) and a
//!   memory bus on which an additional pipelined miss costs `T_next` on top
//!   of the first miss's full latency `T` (§4.2) — [`engine`];
//! * **periodic cache flushing** to model worst-case cache interference
//!   from other activity (Fig 18) — [`engine::SimEngine`] configuration;
//! * execution-time breakdowns (busy / data-cache stall / D-TLB stall /
//!   other stall, as in Figs 1, 11, 15) and cache-miss breakdowns
//!   (Figs 13, 17) — [`stats`].
//!
//! The timing model is the paper's own analytical model (§4.2, §5.1) made
//! operational: computation advances time via explicit [`MemoryModel::busy`]
//! charges, demand references stall until their line is resident, and
//! prefetches overlap fills with everything else. Running it against the
//! *actual virtual addresses* the join touches gives real conflict,
//! capacity, and TLB behaviour on top of the analytical skeleton.
//!
//! The engine is pipelined: [`SimEngine`] appends every call to a log,
//! and one worker thread applies the log to the caches, TLB, miss
//! handlers and statistics in call order while the kernel thread runs
//! ahead. Every query waits until the whole log has been applied, so
//! results are the same function of the call sequence as if each call
//! were simulated on the spot (see [`engine`]).
//!
//! Algorithms in `phj` are generic over [`MemoryModel`]; the
//! [`NativeModel`] instantiation compiles every hook to nothing (or a
//! single `prefetcht0` instruction), so the same source runs at full speed
//! on real hardware and under the simulator.

pub mod cache;
pub mod config;
pub mod engine;
pub mod lru;
pub mod model;
pub mod region;
pub mod stats;
mod telemetry;
pub mod tlb;

pub use config::MemConfig;
pub use engine::SimEngine;
pub use model::{MemoryModel, NativeModel, SimModel};
pub use region::{
    LatencyHistogram, RegionKind, RegionProfiler, RegionRegistry, RegionStats, LATENCY_BUCKETS,
    NUM_REGION_KINDS,
};
pub use stats::{Breakdown, CacheStats, Snapshot};
