#![warn(missing_docs)]

//! # phj-exec — morsel-driven parallel join executor
//!
//! Intra-query parallelism for the prefetching hash join, in the
//! morsel-driven style: inputs are split into page-range **morsels**,
//! a fixed pool of workers runs each worker's largest-first (LPT) task
//! list and steals from the others' once its own runs dry, and
//! partition pairs are weighted by the partition sizes the partition
//! phase just produced — the executor's skew defense.
//!
//! The single-threaded kernels in `phj` are reused unchanged; this
//! crate only decides *who runs what when* and how the results (and the
//! observability record) merge back together:
//!
//! * native runs use OS threads of a [`Pool`] (the caller joins in as
//!   worker 0), real stealing, and per-worker wall-clock counters;
//! * simulated runs (`--sim`) spawn **no threads**: tasks are statically
//!   LPT-assigned to virtual lanes, each lane executes sequentially on
//!   its own fresh cycle engine, and the merged cost of a phase is its
//!   **critical path** (the slowest lane) while event counters sum —
//!   so `--threads N` yields a deterministic simulated breakdown;
//! * per-worker span recorders are grafted into one merged
//!   [`Recorder`](phj_obs::Recorder) tree (tagged `worker=N`) at each
//!   phase barrier, losslessly: every span a worker recorded appears in
//!   the merged report, and per-lane cycle sums stay within their
//!   parent phase span.
//!
//! Everything is std-only: each worker's task list is a `VecDeque`
//! behind a `Mutex` (see [`pool`]).

pub mod agg;
pub mod join;
pub mod pool;
pub mod schedule;
mod telemetry;

pub use agg::{agg_checksum, parallel_agg_native, parallel_agg_sim, NativeAggOutcome, SimAggOutcome};
pub use join::{
    parallel_join_native, parallel_join_sim, LaneStats, NativeJoinOutcome, SimJoinOutcome,
};
pub use pool::{Pool, WorkerStats};
pub use schedule::{lpt_assign, page_morsels};
