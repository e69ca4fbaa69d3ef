#![warn(missing_docs)]

//! # phj-analyze — model-vs-measured diagnosis for run reports
//!
//! The workspace can *predict* join behaviour (Theorems 1 and 2 in
//! [`phj::model`], calibrated stage costs in [`phj::cost`]) and it can
//! *measure* it ([`phj_obs::RunReport`]: spans, cache-stat deltas,
//! region attribution, fault counters). This crate
//! closes the loop: it recomputes the predictions from a report's config
//! fingerprint and holds them against what the run actually did, so
//! "prefetching hid the misses" stops being an eyeball judgment over
//! heatmaps and becomes a residual with a sign.
//!
//! * [`diagnose::analyze`] — recompute minimal `G` / optimal `D` and the
//!   expected hidden-latency fraction per phase, derive predicted-vs-
//!   measured residuals (prefetch coverage, `pf_hidden_cycles`,
//!   per-region miss shares), and run a priority-ordered rule engine
//!   that classifies the run into exactly one primary bottleneck
//!   (`degraded` / `fault_stalled` / `skew_bound` / `tlb_bound` /
//!   `bandwidth_bound` / `latency_bound` / `compute_bound`) with the
//!   evidence lines that fired each rule. The result is the validated
//!   `analysis` section of [`phj_obs::RunReport`].
//! * [`diagnose::render`] — the same diagnosis as human-readable text
//!   (`phj explain`, `--explain`).
//!
//! Std-only, like the rest of the workspace: the JSON layer is
//! [`phj_obs::json`], and the analyzer consumes reports purely through
//! the public report model — it never re-runs anything.

pub mod diagnose;

pub use diagnose::{analyze, render};
