#![warn(missing_docs)]

//! Observability for the join pipeline: phase spans, structured run
//! reports, and trace-event export.
//!
//! The paper's evaluation lives or dies on *attribution* — knowing which
//! phase spent which cycles where (Figs 1, 11, 15) and how much miss
//! latency prefetching actually hid. This crate packages that attribution
//! as a first-class, machine-readable artifact instead of ad-hoc printouts:
//!
//! * [`span::Recorder`] — nested phase spans (join → partition pass →
//!   per-partition build/probe), each capturing wall-clock time plus the
//!   delta of the memory model's [`Snapshot`](phj_memsim::Snapshot)
//!   (cycle breakdown + cache/prefetch counters) between entry and exit.
//!   Algorithms thread an `Option<&mut Recorder>`, so the hot path pays
//!   nothing when observability is off.
//! * [`report::RunReport`] — a config fingerprint (scheme, G, D, tuple
//!   size, memory parameters), whole-run totals, per-span metrics, and
//!   derived rates: tuples/sec, cycles/tuple, **prefetch coverage**
//!   (fraction of miss latency hidden: `pf_hidden / (pf_hidden +
//!   dcache_stall)`), and **pollution rate** (`pf_evicted_unused /
//!   prefetches`). Serialized with the in-tree [`json`] encoder (the
//!   workspace builds offline; there is no serde).
//! * [`trace`] — the same spans as a `chrome://tracing` / Perfetto
//!   Trace Event file, cycle-positioned for simulated runs.
//!
//! Everything is std-only and depends only on `phj-memsim` (for the
//! snapshot types), so every layer of the workspace — core algorithms,
//! CLI, bench harness — can produce or consume reports.

pub mod heatmap;
pub mod json;
pub mod postmortem;
pub mod report;
pub mod span;
pub mod trace;

pub use json::Json;
pub use postmortem::Postmortem;
pub use report::{
    AnalysisSection, DegradationRow, FaultsSection, PhasePrediction, QueryTraceSection,
    RegionReport, RegionsSection, ResidualRow, RuleOutcome, RunReport, SkewRow,
    BOTTLENECK_CLASSES, QUERY_STATES, SCHEMA_VERSION,
};
pub use span::{span_begin, span_end, span_meta, Recorder, SpanId, SpanRecord};
pub use trace::{trace_json, trace_text};
