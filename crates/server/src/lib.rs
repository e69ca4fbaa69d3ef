#![warn(missing_docs)]

//! # phj-server — the concurrent query daemon
//!
//! Everything below this crate runs one query per process: the CLI
//! builds a workload, runs a kernel, prints, exits. This crate is the
//! ROADMAP's "production-scale" step: a long-running daemon (`phj
//! serve`) that accepts join/agg requests over TCP and runs *many of
//! them concurrently* against shared resources, with the three
//! production disciplines that single-shot runs never needed:
//!
//! * [`proto`] — a length-prefixed binary protocol (version byte + u32
//!   frame length + tagged body). Responses carry the result checksum,
//!   row counts, and the query's full RunReport JSON. Decoding is
//!   total: arbitrary garbage produces a typed
//!   [`ProtoError`](proto::ProtoError), never a panic, and hostile
//!   length prefixes are rejected before allocation.
//! * [`admission`] — per-query memory grants debited from one global
//!   budget. Queries that cannot get their grant *now* wait in a
//!   bounded FIFO; queries that could *never* fit are rejected typed.
//!   The invariant — outstanding grants never exceed the budget — is
//!   property-tested and scraped live (`phj_server_grant_bytes`).
//! * [`server`] — the daemon itself: the shared
//!   [`Listener`](phj_metrics::Listener) accept loop feeds a persistent
//!   [`Pool`](phj_exec::Pool) whose workers are reused across queries;
//!   each query is tagged end-to-end through phj-obs (per-query
//!   RunReport with a `query_id` fingerprint), phj-metrics
//!   (admitted/rejected/queued/inflight plus a latency histogram), and
//!   phj-flightrec (per-query `Grant` and `query` phase events).
//!
//! * [`registry`] — the live query table. Every query walks a typed
//!   lifecycle state machine (received → queued → admitted → executing
//!   → responding → done/failed) with wall-clock offsets per
//!   transition; the table is served three ways: the `Status` protocol
//!   request, `phj top` (which renders it), and the optional
//!   `query_trace` RunReport section. Clients can mint a
//!   trace id (an optional 8-byte frame tail — untraced frames are
//!   byte-identical to older builds) that follows the query through
//!   admission, the flight recorder, and back out in the result.
//!
//! [`client`] is the matching blocking client (`phj client`, and the
//! `serve_load` open-loop load generator in `phj-bench`).
//!
//! Queries run the *sequential* kernels, so a daemon answer is
//! bit-comparable to the single-query CLI path — the CI smoke test
//! asserts exactly that equality, which is what makes the concurrency
//! here trustworthy rather than merely fast.

pub mod admission;
pub mod client;
pub mod proto;
pub mod query;
pub mod registry;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmitError, MemGrant, ResizeError, RevocableReg};
pub use client::{ClientTiming, Connection};
pub use proto::{
    ErrorCode, FrameError, ProtoError, Request, Response, StatusRow, MAX_STATUS_ROWS,
};
pub use registry::{Lifecycle, QueryRegistry, QueryState};
pub use server::{ServeConfig, Server, SlowQueryConfig};
