//! `phj serve` / `phj client`: the query-service daemon and the
//! one-shot client that talks to it.
//!
//! `serve` binds the address, prints the resolved `serving on ADDR`
//! line (scraped by scripts and the CI smoke job to learn an ephemeral
//! port), then parks until SIGTERM/SIGINT. For a daemon those signals
//! mean *clean shutdown*, not a crash, so this command replaces the
//! flight recorder's SIGTERM hook (which dumps a postmortem and exits
//! 143) with one that just sets a stop flag; the accept loop and worker
//! pool are then torn down in order and the process exits 0.
//!
//! `client` mirrors the `phj join` / `phj agg` knobs, sends exactly one
//! request, and prints the same result line the local drivers print
//! (`partitions: .., matches: .., checksum: 0x..`), so a daemon's
//! answer can be diffed textually against the sequential CLI path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use phj_obs::{Json, QueryTraceSection, RunReport};
use phj_server::proto::{AggRequest, DiskJoinRequest, JoinRequest, Request, Response, WireScheme};
use phj_server::{ClientTiming, Connection, ServeConfig, Server, SlowQueryConfig};
use phj_workload::tuples_for;

use crate::args::Args;
use crate::log;

/// Set by the SIGTERM/SIGINT handler; polled by the serve loop.
static STOP: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM and SIGINT to a stop-flag store (async-signal-safe),
/// overriding the postmortem hook `main` installed earlier.
#[cfg(unix)]
fn install_stop_signals() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_stop(_sig: i32) {
        STOP.store(true, Ordering::Release);
    }
    unsafe {
        signal(SIGTERM, on_stop as extern "C" fn(i32) as usize);
        signal(SIGINT, on_stop as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_stop_signals() {}

/// `phj serve`: run the daemon until SIGTERM/SIGINT.
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    args.allow(&[
        "addr", "threads", "mem-mb", "mem-budget", "min-grant-mb", "max-queue",
        "max-conns", "idle-timeout-ms", "metrics-addr", "flightrec", "postmortem",
        "log-format", "trace", "slow-query-ms",
        "slow-query-sheds", "slow-query-dir", "slow-query-keep", "scratch-dir",
    ])?;
    // `--mem-budget BYTES` wins over `--mem-mb N` when both are given,
    // matching `phj disk`.
    let mem_budget = match args.get_str("mem-budget", "") {
        s if s.is_empty() => (args.get_usize("mem-mb", 256)? as u64) << 20,
        s => s.parse::<u64>().map_err(|_| format!("--mem-budget expects bytes, got `{s}`"))?,
    };
    let threads = args.get_usize("threads", 4)?.max(1);
    // Slow-query capture arms when either trigger is set; `--slow-query-ms 0`
    // with a shed trigger means "latency never fires, sheds do".
    let sq_ms = args.get_usize("slow-query-ms", 0)?;
    let sq_sheds = args.get_usize("slow-query-sheds", 0)? as u32;
    let slow_query = if sq_ms > 0 || sq_sheds > 0 {
        Some(SlowQueryConfig {
            latency: if sq_ms > 0 {
                Duration::from_millis(sq_ms as u64)
            } else {
                Duration::MAX
            },
            max_sheds: sq_sheds,
            dir: std::path::PathBuf::from(args.get_str("slow-query-dir", "slow_queries")),
            keep: args.get_usize("slow-query-keep", 8)?.max(1),
        })
    } else {
        None
    };
    let cfg = ServeConfig {
        addr: args.get_str("addr", "127.0.0.1:0"),
        threads,
        mem_budget,
        min_grant: (args.get_usize("min-grant-mb", 1)?.max(1) as u64) << 20,
        max_queue: args.get_usize("max-queue", 32)?,
        max_conns: args.get_usize("max-conns", 64)?.max(1),
        idle_timeout: Duration::from_millis(
            args.get_usize("idle-timeout-ms", 30_000)?.max(1) as u64
        ),
        trace: args.flag("trace"),
        slow_query,
        scratch_dir: match args.get_str("scratch-dir", "") {
            s if s.is_empty() => None,
            s => Some(std::path::PathBuf::from(s)),
        },
    };
    let trace_on = cfg.trace;
    let slow_on = cfg.slow_query.is_some();
    let bind = cfg.addr.clone();
    let srv = Server::start(cfg).map_err(|e| format!("bind {bind}: {e}"))?;
    if slow_on {
        srv.set_slow_query_hook(|query_id, trace_id, latency, path| {
            let latency_us = latency.as_micros() as u64;
            log::warn(
                "slow_query",
                &format!(
                    "slow query {query_id} (trace {trace_id:#018x}): {latency_us} us, dump {}",
                    path.display()
                ),
                &[
                    ("query_id", query_id.to_string()),
                    ("trace_id", format!("{trace_id:#018x}")),
                    ("latency_us", latency_us.to_string()),
                    ("dump", path.display().to_string()),
                ],
            );
        });
    }
    outln!(
        "serving on {} ({} workers, budget {} MB{}{})",
        srv.local_addr(),
        threads,
        mem_budget >> 20,
        if trace_on { ", tracing on" } else { "" },
        if slow_on { ", slow-query capture on" } else { "" },
    );
    install_stop_signals();
    while !STOP.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let adm = std::sync::Arc::clone(srv.admission());
    srv.stop();
    let (admitted, rejected) = adm.totals();
    outln!(
        "shutdown: {admitted} admitted, {rejected} rejected, peak grant {} MB",
        adm.peak_outstanding() >> 20
    );
    Ok(())
}

/// `--scheme`/`--g`/`--d` as the wire enum (same names and defaults as
/// the local `phj join` scheme flags).
fn wire_scheme_of(args: &Args) -> Result<WireScheme, String> {
    let g = args.get_usize("g", 16)? as u32;
    let d = args.get_usize("d", 1)? as u32;
    match args.get_str("scheme", "group").as_str() {
        "baseline" => Ok(WireScheme::Baseline),
        "simple" => Ok(WireScheme::Simple),
        "group" => Ok(WireScheme::Group { g }),
        "swp" => Ok(WireScheme::Swp { d }),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

/// `--seed` accepts decimal or `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed expects a number, got `{s}`"))
}

/// Build the request `phj client` sends from the same flag vocabulary
/// the local drivers use. `phj join` hardcodes seed 0x11D0, so that is
/// the default here too — a flagless client join asks the daemon for
/// byte-for-byte the workload a flagless `phj join` runs locally.
fn client_request(args: &Args, trace_id: u64) -> Result<Request, String> {
    let scheme = wire_scheme_of(args)?;
    match args.get_str("query", "join").as_str() {
        "ping" => Ok(Request::Ping),
        "join" => {
            let tuple_size = args.get_usize("tuple-size", 100)?;
            let build_mb = args.get_usize("build-mb", 16)?;
            let build_tuples = match args.get_str("build-tuples", "") {
                s if s.is_empty() => tuples_for(build_mb << 20, tuple_size) as u64,
                s => s
                    .parse()
                    .map_err(|_| format!("--build-tuples expects a count, got `{s}`"))?,
            };
            let mem_mb = args.get_usize("mem-mb", build_mb.div_ceil(4).max(1))?;
            Ok(Request::Join(JoinRequest {
                build_tuples,
                tuple_size: tuple_size as u32,
                matches_per_build: args.get_usize("matches", 2)? as u32,
                pct_match: args.get_usize("pct", 100)?.min(100) as u8,
                scheme,
                mem_budget: (mem_mb as u64) << 20,
                seed: parse_seed(&args.get_str("seed", "0x11D0"))?,
                trace_id,
            }))
        }
        "agg" => Ok(Request::Agg(AggRequest {
            rows: args.get_usize("rows", 1_000_000)? as u64,
            keys: args.get_usize("keys", 100_000)?.max(1) as u64,
            scheme,
            mem_budget: 0,
            trace_id,
        })),
        "disk" => {
            let mode_str = args.get_str("mode", phj_disk::DiskJoinMode::default().label());
            let mode = match mode_str.as_str() {
                "grace" => 0,
                "hybrid" => 1,
                "dynamic" => 2,
                other => return Err(format!("--mode: unknown `{other}` (grace|hybrid|dynamic)")),
            };
            let tuple_size = args.get_usize("tuple-size", 100)?;
            let build_mb = args.get_usize("build-mb", 4)?;
            let mem_mb = args.get_usize("mem-mb", build_mb.div_ceil(4).max(1))?;
            Ok(Request::DiskJoin(DiskJoinRequest {
                build_tuples: tuples_for(build_mb << 20, tuple_size) as u64,
                tuple_size: tuple_size as u32,
                matches_per_build: args.get_usize("matches", 2)? as u32,
                pct_match: args.get_usize("pct", 100)?.min(100) as u8,
                mem_budget: (mem_mb as u64) << 20,
                seed: parse_seed(&args.get_str("seed", "0xD15C"))?,
                mode,
                trace_id,
            }))
        }
        other => Err(format!("unknown --query `{other}` (join|agg|disk|ping)")),
    }
}

/// The trace id `phj client` sends: `--trace-id X` verbatim, minted
/// from wall clock ⊕ pid when `--trace`/`--trace-out` ask for tracing
/// without an explicit id, and `0` (untraced) otherwise. Never mints 0.
fn client_trace_id(args: &Args) -> Result<u64, String> {
    let explicit = args.get_str("trace-id", "");
    if !explicit.is_empty() {
        let id = match explicit.strip_prefix("0x").or_else(|| explicit.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => explicit.parse(),
        }
        .map_err(|_| format!("--trace-id expects a number, got `{explicit}`"))?;
        if id == 0 {
            return Err("--trace-id 0 means `untraced`; pick a nonzero id".to_string());
        }
        return Ok(id);
    }
    if !args.flag("trace") && args.get_str("trace-out", "").is_empty() {
        return Ok(0);
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED);
    Ok((nanos ^ ((std::process::id() as u64) << 48)).max(1))
}

/// Merge the client-side timing with the server's `query_trace` section
/// into one Trace Event Format document: the client's send/wait/recv
/// spans on pid 1, the server's queue/grant/exec/serialize breakdown on
/// pid 2 nested inside the client's wait window, and a flow arrow pair
/// (request over, response back) keyed by the trace id. One clock (the
/// client's) positions everything: the server window is centered in the
/// wait span, so skewed host clocks can never fold spans negative.
fn merged_trace_json(trace_id: u64, timing: &ClientTiming, section: Option<&QueryTraceSection>) -> Json {
    let us = |d: Duration| d.as_nanos() as f64 / 1e3;
    let mut events = vec![];
    for (pid, name) in [(1u64, "phj client"), (2, "phj daemon")] {
        events.push(Json::obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(pid)),
            ("tid", Json::U64(1)),
            ("name", Json::Str("process_name".into())),
            ("args", Json::obj(vec![("name", Json::Str(name.into()))])),
        ]));
    }
    let span = |pid: u64, name: &str, ts: f64, dur: f64| {
        Json::obj(vec![
            ("ph", Json::Str("X".into())),
            ("pid", Json::U64(pid)),
            ("tid", Json::U64(1)),
            ("name", Json::Str(name.into())),
            ("cat", Json::Str("query".into())),
            ("ts", Json::F64(ts)),
            ("dur", Json::F64(dur)),
            ("args", Json::obj(vec![("trace_id", Json::Str(format!("{trace_id:#018x}")))])),
        ])
    };
    let send_end = us(timing.send);
    let wait_end = send_end + us(timing.wait);
    events.push(span(1, "send", 0.0, us(timing.send)));
    events.push(span(1, "wait", send_end, us(timing.wait)));
    events.push(span(1, "recv", wait_end, us(timing.recv)));
    if let Some(sec) = section {
        let parts = [
            ("queue_wait", sec.queue_wait_ns),
            ("grant_wait", sec.grant_wait_ns),
            ("exec", sec.exec_ns),
            ("serialize", sec.serialize_ns),
        ];
        let total_us = parts.iter().map(|&(_, ns)| ns as f64 / 1e3).sum::<f64>();
        // Center the server window inside the client's wait span; the
        // slack on either side is the network + framing overhead.
        let mut at = send_end + ((us(timing.wait) - total_us) / 2.0).max(0.0);
        let server_start = at;
        for (name, ns) in parts {
            events.push(span(2, name, at, ns as f64 / 1e3));
            at += ns as f64 / 1e3;
        }
        // State transitions as instants on the server lane.
        for (state, t_ns) in &sec.states {
            events.push(Json::obj(vec![
                ("ph", Json::Str("i".into())),
                ("pid", Json::U64(2)),
                ("tid", Json::U64(1)),
                ("name", Json::Str(state.clone())),
                ("s", Json::Str("t".into())),
                ("ts", Json::F64(server_start + *t_ns as f64 / 1e3)),
            ]));
        }
        // Flow arrows: request (client send → server window) and
        // response (server window end → client recv), both keyed by the
        // trace id so Perfetto draws them as one connected flow.
        let flow = |ph: &str, pid: u64, ts: f64, id: String| {
            let mut fields = vec![
                ("ph", Json::Str(ph.into())),
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(1)),
                ("name", Json::Str("query".into())),
                ("cat", Json::Str("flow".into())),
                ("id", Json::Str(id)),
                ("ts", Json::F64(ts)),
            ];
            if ph == "f" {
                fields.push(("bp", Json::Str("e".into())));
            }
            Json::obj(fields)
        };
        events.push(flow("s", 1, send_end, format!("req-{trace_id:x}")));
        events.push(flow("f", 2, server_start, format!("req-{trace_id:x}")));
        events.push(flow("s", 2, server_start + total_us, format!("resp-{trace_id:x}")));
        events.push(flow("f", 1, wait_end, format!("resp-{trace_id:x}")));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// `phj client`: send one request, print the daemon's answer.
pub fn cmd_client(args: &Args) -> Result<(), String> {
    args.allow(&[
        "addr", "query", "build-mb", "build-tuples", "tuple-size", "matches", "pct",
        "scheme", "g", "d", "mem-mb", "mode", "seed", "rows", "keys", "json", "flightrec",
        "postmortem", "log-format", "trace", "trace-id", "trace-out",
    ])?;
    let addr = args.get_str("addr", "");
    if addr.is_empty() {
        return Err("client needs --addr HOST:PORT (the daemon's `serving on` line)".to_string());
    }
    let trace_id = client_trace_id(args)?;
    let req = client_request(args, trace_id)?;
    let mut conn =
        Connection::connect(addr.as_str()).map_err(|e| format!("connect {addr}: {e}"))?;
    let t0 = Instant::now();
    let (resp, timing) = conn.request_timed(&req).map_err(|e| format!("{addr}: {e}"))?;
    let rtt = t0.elapsed();
    match resp {
        Response::Pong => {
            outln!("pong from {addr} in {rtt:?}");
            Ok(())
        }
        Response::Status(_) => Err("unexpected status response to a query request".to_string()),
        Response::Result(r) => {
            // The same result line the local drivers print, so scripts
            // can diff a daemon run against the sequential CLI path.
            if r.kind == phj_server::query::KIND_JOIN || r.kind == phj_server::query::KIND_DISK {
                outln!(
                    "partitions: {}, matches: {}, checksum: {:#018x}",
                    r.partitions, r.matches, r.checksum
                );
            } else {
                outln!("groups: {}, checksum: {:#018x}", r.matches, r.checksum);
            }
            outln!(
                "query {} served in {} us ({rtt:?} round trip)",
                r.query_id, r.elapsed_us
            );
            let section = RunReport::parse(&r.report_json)
                .ok()
                .and_then(|rep| rep.query_trace);
            if trace_id != 0 {
                outln!(
                    "trace {trace_id:#018x}: send {:?}, wait {:?}, recv {:?}",
                    timing.send, timing.wait, timing.recv
                );
                match &section {
                    Some(sec) => outln!(
                        "  server: queue {} us, grant {} us, exec {} us, serialize {} us, sheds {}",
                        sec.queue_wait_ns / 1_000,
                        sec.grant_wait_ns / 1_000,
                        sec.exec_ns / 1_000,
                        sec.serialize_ns / 1_000,
                        sec.shed_count,
                    ),
                    None => outln!(
                        "  server returned no query_trace section (daemon run without --trace?)"
                    ),
                }
            }
            let trace_out = args.get_str("trace-out", "");
            if !trace_out.is_empty() {
                let doc = merged_trace_json(trace_id, &timing, section.as_ref());
                std::fs::write(&trace_out, doc.render())
                    .map_err(|e| format!("{trace_out}: {e}"))?;
                outln!("trace (load in chrome://tracing or ui.perfetto.dev): {trace_out}");
            }
            let out = args.get_str("json", "");
            if !out.is_empty() {
                std::fs::write(&out, &r.report_json).map_err(|e| format!("{out}: {e}"))?;
                outln!("run report: {out}");
            }
            Ok(())
        }
        Response::Error { code, message } => {
            Err(format!("server rejected the query ({code:?}): {message}"))
        }
    }
}
