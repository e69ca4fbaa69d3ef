//! The daemon: accept loop → persistent pool → admission → kernel.
//!
//! One [`Listener`](phj_metrics::Listener) accepts connections and
//! immediately ships each to the shared persistent
//! [`Pool`](phj_exec::Pool) as a fire-and-forget job (the accept
//! handler never blocks on a connection: over the
//! [`ServeConfig::max_conns`] cap it answers a typed
//! [`ErrorCode::Busy`] frame and closes right in the accept thread, so
//! a flood of connections gets backpressure instead of an unbounded
//! queue). A connection job reads request frames in a loop; each
//! join/agg request becomes a query: it gets a process-wide id, passes
//! shape validation, acquires a [`MemGrant`] (possibly waiting FIFO),
//! runs the kernel, and answers with a result frame embedding its
//! validated RunReport. Admission rejections and execution failures
//! answer typed error frames — a malformed or hostile request must
//! never take the daemon down (query panics are caught and answered as
//! [`ErrorCode::Internal`]).
//!
//! Reading is a two-phase poll so a slow-but-honest client cannot be
//! desynced: the *first* byte of a frame is probed under a 100 ms
//! timeout (a timeout there is an idle tick — zero frame bytes have
//! been consumed, so nothing is lost), and only once it arrives does
//! the loop commit to the frame under a long per-read deadline. A
//! timeout *mid-frame* can discard consumed bytes, so it closes the
//! connection rather than re-parsing the stream out of phase.
//! Connections idle past [`ServeConfig::idle_timeout`] are closed —
//! a worker is freed for queued connections instead of being parked
//! forever by a client that never sends (hostile or otherwise).
//!
//! Shutdown is cooperative: [`Server::stop`] stops the accept loop,
//! raises a stop flag every connection loop polls (their first-byte
//! probes time out every 100 ms), and then joins the pool — which
//! drains queries already running. A clean stop is *not* a crash: the
//! flight recorder's postmortem machinery stays untriggered.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use phj_exec::Pool;
use phj_metrics::Listener;
use phj_obs::json::ToJson;
use phj_obs::{Json, QueryTraceSection, RunReport};

use crate::admission::{Admission, AdmissionConfig, AdmitError};
use crate::proto::{read_frame_rest, ErrorCode, FrameError, QueryResult, Request, Response};
use crate::query;
use crate::registry::{QueryRegistry, QueryState};

/// Automatic slow-query capture knobs ([`ServeConfig::slow_query`]).
#[derive(Debug, Clone)]
pub struct SlowQueryConfig {
    /// Capture a query whose end-to-end server latency (received →
    /// response built) meets or exceeds this.
    pub latency: Duration,
    /// Also capture a query that absorbed at least this many shed
    /// requests, regardless of latency. `0` disables the shed trigger.
    pub max_sheds: u32,
    /// Directory the dump files land in (created on first capture).
    pub dir: PathBuf,
    /// Dump-file ring bound: once more than `keep` dumps exist, the
    /// oldest are deleted. A misbehaving workload therefore cannot
    /// fill the disk with postmortems.
    pub keep: usize,
}

/// Called after each slow-query dump lands on disk:
/// `(query_id, trace_id, server latency, dump path)`.
type SlowQueryHook = Box<dyn Fn(u64, u64, Duration, &Path) + Send + Sync>;

/// Daemon configuration (`phj serve` flags map onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Pool worker threads — the daemon's concurrency (each in-flight
    /// connection occupies one worker while it serves requests).
    pub threads: usize,
    /// Global memory budget shared by all concurrent queries, bytes.
    pub mem_budget: u64,
    /// Smallest grant; see [`AdmissionConfig::min_grant`].
    pub min_grant: u64,
    /// Admission wait-queue bound; see [`AdmissionConfig::max_queue`].
    pub max_queue: usize,
    /// Concurrent-connection cap: connections accepted beyond this are
    /// answered a typed [`ErrorCode::Busy`] frame and closed instead of
    /// queueing without bound behind busy workers.
    pub max_conns: usize,
    /// Close a connection that has sent nothing for this long since
    /// its last reply, freeing its worker for queued connections. Idle
    /// or abandoned clients therefore cannot hold workers forever.
    pub idle_timeout: Duration,
    /// Attach a `query_trace` section to every result's RunReport
    /// (lifecycle spans + wait breakdown). Off by default: untraced
    /// result frames stay byte-identical to pre-tracing builds.
    pub trace: bool,
    /// Automatic slow-query capture; `None` disables it.
    pub slow_query: Option<SlowQueryConfig>,
    /// Scratch base directory for disk-join staging (`None` = the
    /// system temp dir). Tests point this somewhere that fails
    /// deterministically to exercise the post-grant error path.
    pub scratch_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            mem_budget: 256 << 20,
            min_grant: 1 << 20,
            max_queue: 32,
            max_conns: 64,
            idle_timeout: Duration::from_secs(30),
            trace: false,
            slow_query: None,
            scratch_dir: None,
        }
    }
}

struct Ctx {
    admission: Arc<Admission>,
    registry: Arc<QueryRegistry>,
    stop: Arc<AtomicBool>,
    next_query: AtomicU64,
    inflight: AtomicU64,
    /// Live connection jobs (queued + serving), bounded by `max_conns`.
    conns: AtomicU64,
    idle_timeout: Duration,
    trace: bool,
    slow_query: Option<SlowQueryConfig>,
    scratch_dir: Option<PathBuf>,
    /// Monotone dump ordinal — dump filenames sort by capture order,
    /// which is what the keep-ring prune relies on.
    slow_seq: AtomicU64,
    slow_hook: Mutex<Option<SlowQueryHook>>,
}

/// RAII share of the connection cap: decrements `conns` when the
/// connection job ends, however it ends.
struct ConnSlot<'a>(&'a Ctx);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        self.0.conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A running daemon. [`Server::stop`] (or drop) shuts it down cleanly.
pub struct Server {
    listener: Option<Listener>,
    pool: Option<Arc<Pool>>,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is live;
    /// queries run on background pool threads from then on.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        // Disk queries of a daemon that died without unwinding left
        // their scratch directories behind; nothing else removes them.
        let scratch = cfg.scratch_dir.clone().unwrap_or_else(std::env::temp_dir);
        query::sweep_scratch(&scratch);
        let admission = Admission::new(AdmissionConfig {
            budget: cfg.mem_budget,
            min_grant: cfg.min_grant,
            max_queue: cfg.max_queue,
        });
        let registry = Arc::new(QueryRegistry::new());
        // Shed attribution: admission knows *which* query it asked to
        // shrink; the registry is where that shows up in `/queries`,
        // `phj top`, and the slow-query shed trigger.
        {
            let reg = Arc::clone(&registry);
            admission.set_shed_observer(move |victim| reg.note_shed(victim));
        }
        let ctx = Arc::new(Ctx {
            admission,
            registry,
            stop: Arc::new(AtomicBool::new(false)),
            next_query: AtomicU64::new(1),
            inflight: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            idle_timeout: cfg.idle_timeout,
            trace: cfg.trace,
            slow_query: cfg.slow_query.clone(),
            scratch_dir: cfg.scratch_dir.clone(),
            slow_seq: AtomicU64::new(1),
            slow_hook: Mutex::new(None),
        });
        let pool = Arc::new(Pool::new(cfg.threads.max(1)));
        let max_conns = cfg.max_conns.max(1) as u64;
        let listener = {
            let pool = Arc::clone(&pool);
            let ctx = Arc::clone(&ctx);
            Listener::start("phj-serve-accept", &cfg.addr, move |stream| {
                // Claim a connection slot or bounce right here in the
                // accept thread: queueing past the cap would strand the
                // client behind workers that may be busy for a long
                // time, with no signal and no bound.
                if ctx.conns.fetch_add(1, Ordering::SeqCst) >= max_conns {
                    ctx.conns.fetch_sub(1, Ordering::SeqCst);
                    reject_busy(stream);
                    return;
                }
                let ctx = Arc::clone(&ctx);
                pool.spawn(move || {
                    let slot = ConnSlot(&ctx);
                    serve_conn(stream, &ctx);
                    drop(slot);
                });
            })?
        };
        Ok(Server { listener: Some(listener), pool: Some(pool), ctx })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.as_ref().expect("server running").local_addr()
    }

    /// The admission table (for tests and the load generator to assert
    /// grant invariants).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.ctx.admission
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> u64 {
        self.ctx.inflight.load(Ordering::SeqCst)
    }

    /// The live query table (the `Status` protocol response, the
    /// `/queries` endpoint, and `phj top` all render its snapshots).
    pub fn registry(&self) -> &Arc<QueryRegistry> {
        &self.ctx.registry
    }

    /// Install a callback fired after each slow-query dump lands:
    /// `(query_id, trace_id, server latency, dump path)`. The CLI uses
    /// this to emit a structured `slow_query` warning.
    pub fn set_slow_query_hook(&self, f: impl Fn(u64, u64, Duration, &Path) + Send + Sync + 'static) {
        *self.ctx.slow_hook.lock().unwrap() = Some(Box::new(f));
    }

    /// Stop accepting, wake every connection loop, and join the pool —
    /// queries already running finish first.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(l) = self.listener.take() {
            l.stop();
        }
        self.ctx.stop.store(true, Ordering::Release);
        if let Some(pool) = self.pool.take() {
            // The listener is joined, so its handler's pool clone is
            // gone: this is the last reference and joins the workers.
            if let Ok(p) = Arc::try_unwrap(pool) {
                p.shutdown();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How often an idle connection wakes to poll the stop flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Per-read deadline once a frame has started arriving. Generous — a
/// legitimate client may fragment a frame — but bounded, so a peer
/// that stalls mid-frame cannot park a worker forever.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Answer an over-cap connection with a typed [`ErrorCode::Busy`] frame
/// (best-effort, short write deadline — this runs on the accept thread)
/// and drop it.
fn reject_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let resp = Response::Error {
        code: ErrorCode::Busy,
        message: "server at connection capacity; retry later".to_string(),
    };
    let _ = send(&mut stream, &resp);
}

/// Answer with one frame in one `write`: the response is encoded
/// straight into its frame buffer, so Nagle never sees a header-sized
/// segment to hold back. An over-[`MAX_FRAME`](crate::proto::MAX_FRAME)
/// response fails here, before any byte is written.
fn send(stream: &mut TcpStream, resp: &Response) -> Result<(), FrameError> {
    stream.write_all(&resp.encode_frame()?)?;
    Ok(())
}

fn serve_conn(mut stream: TcpStream, ctx: &Ctx) {
    // Request/response traffic has nothing for Nagle to coalesce: a
    // held-back segment only waits out the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // The idle clock runs from the last *reply*, not the last request:
    // a query that ran longer than `idle_timeout` must not find its
    // connection already expired at the first poll tick after it.
    let mut last_reply = Instant::now();
    loop {
        // Phase 1: probe for the first header byte under the short
        // poll timeout. A timeout here has consumed nothing, so it is
        // a pure idle tick — the only place a timeout is recoverable.
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut first = [0u8; 1];
        let version = match stream.read(&mut first) {
            Ok(0) => return, // peer closed cleanly
            Ok(_) => first[0],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if ctx.stop.load(Ordering::Acquire) {
                    return;
                }
                if last_reply.elapsed() >= ctx.idle_timeout {
                    return; // idle deadline: free this worker
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        // Phase 2: a frame has started — commit to it under the long
        // per-read deadline. From here a timeout means the stream is
        // broken mid-frame (read_exact discards partial progress), so
        // any Io error closes the connection instead of re-parsing the
        // remaining bytes out of phase.
        let _ = stream.set_read_timeout(Some(FRAME_READ_TIMEOUT));
        match read_frame_rest(version, &mut stream) {
            Ok(body) => {
                let resp = match Request::decode(&body) {
                    Ok(req) => handle_request(ctx, &req),
                    Err(e) => Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                };
                if send(&mut stream, &resp).is_err() {
                    return;
                }
                last_reply = Instant::now();
            }
            Err(FrameError::Proto(e)) => {
                // Garbage on the wire: answer typed, then drop the
                // connection (framing is no longer trustworthy).
                let resp = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                let _ = send(&mut stream, &resp);
                return;
            }
            Err(FrameError::Io(_)) => return,
        }
    }
}

/// The client-minted trace id a request carries (0 = untraced).
fn request_trace_id(req: &Request) -> u64 {
    match req {
        Request::Join(j) => j.trace_id,
        Request::Agg(a) => a.trace_id,
        Request::DiskJoin(dj) => dj.trace_id,
        Request::Ping | Request::Status => 0,
    }
}

fn request_kind(req: &Request) -> u8 {
    match req {
        Request::Join(_) => query::KIND_JOIN,
        Request::Agg(_) => query::KIND_AGG,
        Request::DiskJoin(_) => query::KIND_DISK,
        Request::Ping | Request::Status => 0,
    }
}

fn handle_request(ctx: &Ctx, req: &Request) -> Response {
    if let Request::Ping = req {
        return Response::Pong;
    }
    if let Request::Status = req {
        return Response::Status(ctx.registry.snapshot());
    }
    if ctx.stop.load(Ordering::Acquire) {
        return Response::Error {
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".to_string(),
        };
    }
    let query_id = ctx.next_query.fetch_add(1, Ordering::SeqCst);
    let trace_id = request_trace_id(req);
    let received = Instant::now();
    ctx.registry.register(query_id, trace_id, request_kind(req));
    if trace_id != 0 {
        // Bind the client-minted trace id to the server-side query id
        // in the flight recorder, so a postmortem can be grepped by
        // either id.
        phj_flightrec::event(
            phj_flightrec::EventKind::Grant,
            phj_flightrec::grant_op::TRACE,
            trace_id,
            query_id,
        );
    }
    if let Err(msg) = query::validate(req) {
        ctx.registry.finish(query_id, QueryState::Failed);
        return Response::Error { code: ErrorCode::BadRequest, message: msg };
    }
    // Best-effort `queued` transition for the live view: admission
    // re-checks under its own lock, so this can race — the grant's
    // queue/grant wait split (copied in `set_grant`) is the precise
    // record; this just makes a waiting query *visible* as waiting.
    let want = query::estimated_bytes(req).max(ctx.admission.config().min_grant);
    if ctx.admission.waiting() > 0
        || ctx.admission.outstanding().saturating_add(want) > ctx.admission.config().budget
    {
        ctx.registry.set_state(query_id, QueryState::Queued);
    }
    let grant = match ctx.admission.admit(query_id, query::estimated_bytes(req)) {
        Ok(g) => g,
        Err(e @ AdmitError::TooLarge { .. }) => {
            ctx.registry.finish(query_id, QueryState::Failed);
            return Response::Error { code: ErrorCode::TooLarge, message: e.to_string() };
        }
        Err(e @ AdmitError::QueueFull { .. }) => {
            ctx.registry.finish(query_id, QueryState::Failed);
            return Response::Error { code: ErrorCode::QueueFull, message: e.to_string() };
        }
    };

    // Dynamic disk joins run against a revocable live budget: the
    // grant and budget are registered so admission's pressure path can
    // ask this query to shed memory mid-run, and the query's
    // compliance acks propagate straight back into the grant (freed
    // bytes re-enter the global budget while the join keeps running).
    let grant = Arc::new(grant);
    ctx.registry.set_state(query_id, QueryState::Admitted);
    ctx.registry.set_grant(query_id, &grant);
    let (live, revocation) = match req {
        Request::DiskJoin(dj) if dj.mode == 2 => {
            let live = Arc::new(phj_disk::LiveBudget::new(grant.bytes()));
            let hooked = Arc::clone(&grant);
            live.set_on_ack(move |b| {
                hooked.try_shrink(b);
            });
            let reg = ctx.admission.register_revocable(query_id, &grant, &live);
            (Some(live), Some(reg))
        }
        _ => (None, None),
    };

    ctx.registry.set_state(query_id, QueryState::Executing);
    ctx.inflight.fetch_add(1, Ordering::SeqCst);
    publish_inflight(ctx);
    let t0 = Instant::now();
    // A panicking kernel answers Internal instead of killing the
    // worker thread (and with it, every queued connection).
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        query::run_in(query_id, req, live.clone(), ctx.scratch_dir.as_deref())
    }));
    let elapsed = t0.elapsed();
    drop(revocation);
    ctx.inflight.fetch_sub(1, Ordering::SeqCst);
    publish_inflight(ctx);

    let parts = match &outcome {
        Ok(Ok(out)) => Some([out.generate_ns, out.stage_ns, out.kernel_ns]),
        _ => None,
    };
    let resp = match outcome {
        Ok(Ok(out)) => {
            ctx.registry.set_state(query_id, QueryState::Responding);
            Response::Result(QueryResult {
                query_id,
                kind: out.kind,
                matches: out.matches,
                checksum: out.checksum,
                partitions: out.partitions,
                elapsed_us: elapsed.as_micros() as u64,
                report_json: render_report(ctx, query_id, trace_id, &out.report),
                trace_id,
            })
        }
        Ok(Err(msg)) => Response::Error { code: ErrorCode::Internal, message: msg },
        Err(_) => Response::Error {
            code: ErrorCode::Internal,
            message: format!("query {query_id} panicked"),
        },
    };
    let failed = !matches!(resp, Response::Result(_));
    let latency = received.elapsed();
    record_query_histograms(&grant, latency, elapsed, parts);
    maybe_capture_slow(ctx, query_id, trace_id, latency);
    drop(grant);
    ctx.registry.finish(query_id, if failed { QueryState::Failed } else { QueryState::Done });
    resp
}

/// Break the wall latency into its lifecycle spans for Prometheus.
/// `phj_server_query_latency_us` keeps recording the total (`latency`:
/// received → response built, so it includes the queue and grant waits
/// the other histograms split out); `exec` is the whole `query::run_in`
/// call, and a query that produced an outcome splits it further into
/// `parts`: generate / stage / kernel, ns (stage records 0 for the
/// kinds that stage nothing, so the three families count the same
/// queries).
fn record_query_histograms(
    grant: &crate::admission::MemGrant,
    latency: Duration,
    exec: Duration,
    parts: Option<[u64; 3]>,
) {
    let Some(reg) = phj_metrics::global() else { return };
    reg.histogram(phj_metrics::names::SERVER_QUERY_LATENCY_US, "Per-query wall latency (us)")
        .record(latency.as_micros() as u64);
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_QUEUE_WAIT_US,
        "Per-query admission FIFO wait behind earlier arrivals (us)",
    )
    .record(grant.queue_wait().as_micros() as u64);
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_GRANT_WAIT_US,
        "Per-query wait at the queue head for budget (us)",
    )
    .record(grant.grant_wait().as_micros() as u64);
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_EXEC_US,
        "Per-query kernel execution time (us)",
    )
    .record(exec.as_micros() as u64);
    let Some([generate_ns, stage_ns, kernel_ns]) = parts else { return };
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_GENERATE_US,
        "Per-query input generation time, part of exec (us)",
    )
    .record(generate_ns / 1_000);
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_STAGE_US,
        "Per-query disk staging time, part of exec; 0 unless a disk join (us)",
    )
    .record(stage_ns / 1_000);
    reg.histogram(
        phj_metrics::names::SERVER_QUERY_KERNEL_US,
        "Per-query join/aggregate kernel time, part of exec (us)",
    )
    .record(kernel_ns / 1_000);
}

/// Render a finished query's report — the one place the daemon
/// serializes a RunReport. A tracing daemon attaches the `query_trace`
/// section; that section reports how long the rest of the JSON tree
/// took to build (floored at 1 us so the span stays visible in
/// breakdowns), so it is appended to the built tree — `query_trace` is
/// the last key of the report layout — rather than set on the struct
/// and the tree built twice. A traced report differs from the untraced
/// one *only* by the new section.
fn render_report(ctx: &Ctx, query_id: u64, trace_id: u64, report: &RunReport) -> String {
    let lifecycle = if ctx.trace { ctx.registry.lifecycle(query_id) } else { None };
    let Some(lc) = lifecycle else { return report.render() };
    let ser0 = Instant::now();
    phj_flightrec::event(
        phj_flightrec::EventKind::PhaseEnter,
        phj_flightrec::phase_code("serialize"),
        query_id,
        0,
    );
    let mut doc = report.to_json();
    let section = QueryTraceSection {
        trace_id,
        query_id,
        queue_wait_ns: lc.queue_wait_ns,
        grant_wait_ns: lc.grant_wait_ns,
        exec_ns: lc.exec_ns,
        serialize_ns: (ser0.elapsed().as_nanos() as u64).max(1_000),
        shed_count: lc.shed_count as u64,
        states: lc.transitions.iter().map(|(s, t)| (s.name().to_string(), *t)).collect(),
    };
    if let Json::Obj(members) = &mut doc {
        members.push(("query_trace".to_string(), section.to_json()));
    }
    let out = doc.render_pretty();
    phj_flightrec::event(
        phj_flightrec::EventKind::PhaseExit,
        phj_flightrec::phase_code("serialize"),
        query_id,
        1,
    );
    if let Some(reg) = phj_metrics::global() {
        reg.histogram(
            phj_metrics::names::SERVER_QUERY_SERIALIZE_US,
            "Per-query response serialization time (us)",
        )
        .record(ser0.elapsed().as_micros() as u64);
    }
    out
}

/// If the query tripped a slow-query trigger, snapshot its slice of
/// the flight-recorder ring plus its lifecycle breakdown into the
/// bounded dump directory and fire the hook.
fn maybe_capture_slow(ctx: &Ctx, query_id: u64, trace_id: u64, latency: Duration) {
    let Some(sq) = &ctx.slow_query else { return };
    let lc = ctx.registry.lifecycle(query_id).unwrap_or_default();
    let slow = latency >= sq.latency;
    let shed_heavy = sq.max_sheds > 0 && lc.shed_count >= sq.max_sheds;
    if !slow && !shed_heavy {
        return;
    }
    // This query's slice of the ring: its phase spans plus every grant
    // event it owns. Grant events carry the query id in payload `a` —
    // except TRACE, where `a` is the trace id and `b` the query id.
    let events: Vec<phj_flightrec::Event> = phj_flightrec::global()
        .map(|r| r.timeline())
        .unwrap_or_default()
        .into_iter()
        .filter(|ev| match ev.kind {
            phj_flightrec::EventKind::Grant => {
                if ev.code == phj_flightrec::grant_op::TRACE {
                    ev.b == query_id
                } else {
                    ev.a == query_id
                }
            }
            phj_flightrec::EventKind::PhaseEnter | phj_flightrec::EventKind::PhaseExit => {
                ev.a == query_id
            }
            _ => false,
        })
        .collect();
    let seq = ctx.slow_seq.fetch_add(1, Ordering::SeqCst);
    let path = sq.dir.join(format!("slow-query-{seq:06}-q{query_id}.json"));
    let trigger = if slow { "latency" } else { "sheds" };
    // Context values are raw JSON fragments (the postmortem schema's
    // convention): numbers bare, strings quoted.
    let context = [
        ("query_id".to_string(), query_id.to_string()),
        ("trace_id".to_string(), format!("\"{trace_id:#018x}\"")),
        ("trigger".to_string(), format!("\"{trigger}\"")),
        ("latency_us".to_string(), (latency.as_micros() as u64).to_string()),
        ("queue_wait_us".to_string(), (lc.queue_wait_ns / 1_000).to_string()),
        ("grant_wait_us".to_string(), (lc.grant_wait_ns / 1_000).to_string()),
        ("exec_us".to_string(), (lc.exec_ns / 1_000).to_string()),
        ("shed_count".to_string(), lc.shed_count.to_string()),
    ];
    if std::fs::create_dir_all(&sq.dir).is_err() {
        return;
    }
    let message = format!(
        "query {query_id} exceeded the slow-query {trigger} threshold ({} us, {} sheds)",
        latency.as_micros(),
        lc.shed_count,
    );
    if phj_flightrec::dump_events_to(&path, phj_flightrec::Cause::Manual, &message, &events, &context)
        .is_err()
    {
        return;
    }
    prune_slow_dumps(&sq.dir, sq.keep);
    if let Some(reg) = phj_metrics::global() {
        reg.counter(
            phj_metrics::names::SERVER_SLOW_QUERIES,
            "Slow-query captures written",
        )
        .inc();
    }
    if let Some(hook) = ctx.slow_hook.lock().unwrap().as_ref() {
        hook(query_id, trace_id, latency, &path);
    }
}

/// Keep the newest `keep` dumps (filenames embed a monotone sequence
/// number, so lexicographic order is capture order).
fn prune_slow_dumps(dir: &Path, keep: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut dumps: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("slow-query-") && n.ends_with(".json"))
        })
        .collect();
    if dumps.len() <= keep.max(1) {
        return;
    }
    dumps.sort();
    let excess = dumps.len() - keep.max(1);
    for p in &dumps[..excess] {
        let _ = std::fs::remove_file(p);
    }
}

fn publish_inflight(ctx: &Ctx) {
    if let Some(reg) = phj_metrics::global() {
        reg.gauge(
            phj_metrics::names::SERVER_QUERIES_INFLIGHT,
            "Queries currently executing",
        )
        .set(ctx.inflight.load(Ordering::SeqCst));
    }
}
