//! `served_mix`: closed-loop clients against an in-process daemon.
//!
//! `nproc` clients, one persistent connection each; every client waits
//! for its reply before sending the next request, as `phj client`
//! callers do. The request sequence is drawn from the seed: 70 % joins,
//! 20 % aggregations, 10 % disk joins, all tiny, so the daemon's own
//! path (protocol, admission, pool hand-off, per-request generation and
//! staging, report serialisation) is most of each round trip.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use phj::aggregate::{aggregate, AggScheme};
use phj_disk::FileRelation;
use phj_memsim::NativeModel;
use phj_obs::RunReport;
use phj_server::proto::{AggRequest, DiskJoinRequest, JoinRequest, WireScheme};
use phj_server::{
    query, Admission, AdmissionConfig, Connection, Request, Response, ServeConfig, Server,
};
use phj_storage::{RelationBuilder, Schema};
use phj_workload::JoinSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::{
    nproc, overhead_pct, repeat_setup, Outcome, RunArgs, Samples, Scratch, WARMUP_OPS,
};
use crate::mem_join::pool_micro;
use crate::stats::{self, tail_percentile};
use crate::trace::Tracer;

const CLASSES: [&str; 3] = ["join", "agg", "disk"];
const JOIN_BUILD_TUPLES: u64 = 4000;
const AGG_ROWS: u64 = 40_000;
const AGG_KEYS: u64 = 2000;

/// Requests completed per second of run length, at the least.
const MIN_OPS_PER_S: f64 = 20.0;

/// The request of class `class`. `reference` asks for the baseline
/// kernel (classic GRACE for the disk class): the oracle's variant.
fn request(class: usize, seed: u64, trace_id: u64, reference: bool) -> Request {
    let scheme = if reference {
        WireScheme::Baseline
    } else {
        WireScheme::Group { g: 16 }
    };
    match class {
        0 => Request::Join(JoinRequest {
            build_tuples: JOIN_BUILD_TUPLES,
            tuple_size: 100,
            matches_per_build: 2,
            pct_match: 100,
            scheme,
            mem_budget: 1 << 20,
            seed,
            trace_id,
        }),
        1 => Request::Agg(AggRequest {
            rows: AGG_ROWS,
            keys: AGG_KEYS,
            scheme,
            mem_budget: 0,
            trace_id,
        }),
        _ => Request::DiskJoin(DiskJoinRequest {
            build_tuples: JOIN_BUILD_TUPLES,
            tuple_size: 100,
            matches_per_build: 2,
            pct_match: 100,
            mem_budget: 256 << 10,
            seed,
            mode: if reference { 0 } else { 2 },
            trace_id,
        }),
    }
}

/// Input tuples (rows) one request of each class processes.
const TUPLES: [f64; 3] = [
    (JOIN_BUILD_TUPLES * 3) as f64,
    AGG_ROWS as f64,
    (JOIN_BUILD_TUPLES * 3) as f64,
];

fn join_spec(seed: u64) -> JoinSpec {
    JoinSpec {
        build_tuples: JOIN_BUILD_TUPLES as usize,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed,
    }
}

/// A running daemon and what each class must answer.
struct Daemon {
    server: Server,
    addr: SocketAddr,
    /// (matches, checksum) per class, from `query::run` on the
    /// reference variant of the request.
    oracle: [(u64, u64); 3],
    oracle_ok: bool,
}

fn start(seed: u64, trace: bool, scratch: &Path) -> Daemon {
    let mut oracle = [(0, 0); 3];
    let mut oracle_ok = true;
    for (class, slot) in oracle.iter_mut().enumerate() {
        match query::run_in(0, &request(class, seed, 0, true), None, Some(scratch)) {
            Ok(o) => *slot = (o.matches, o.checksum),
            Err(e) => {
                eprintln!("oracle for class {}: {e}", CLASSES[class]);
                oracle_ok = false;
            }
        }
    }
    oracle_ok &= oracle[0].0 == join_spec(seed).expected_matches();
    let server = Server::start(ServeConfig {
        threads: nproc(),
        mem_budget: 256 << 20,
        trace,
        scratch_dir: Some(scratch.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    Daemon {
        server,
        addr,
        oracle,
        oracle_ok,
    }
}

/// One reply, as a client saw it.
struct Reply {
    class: usize,
    ms: f64,
    ok: bool,
    report_bytes: usize,
}

/// Everything one closed-loop client did in the window.
struct ClientLog {
    replies: Vec<Reply>,
    tracer: Tracer,
    /// Server-side p50 inputs, µs: queue wait, grant wait, exec, serialize.
    server_us: Vec<[f64; 4]>,
    /// Client-side send / wait / recv, µs.
    client_us: Vec<[f64; 3]>,
}

/// Drive the daemon from `nproc` clients for `seconds` (and at least
/// `min_ops` requests in all). Returns the logs and the window's wall.
fn drive(
    d: &Daemon,
    seed: u64,
    seconds: f64,
    min_ops: usize,
    traced: bool,
    origin: Instant,
) -> (Vec<ClientLog>, f64) {
    let clients = nproc();
    let share = min_ops.div_ceil(clients);
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|lane| {
            let barrier = Arc::clone(&barrier);
            let (addr, oracle) = (d.addr, d.oracle);
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect to the daemon");
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (lane as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut log = ClientLog {
                    replies: Vec::new(),
                    tracer: Tracer::new(origin, lane as u32),
                    server_us: Vec::new(),
                    client_us: Vec::new(),
                };
                let mut seq = 0u64;
                let mut one = |log: &mut ClientLog, record: bool| {
                    let class = match rng.gen::<u32>() % 10 {
                        0..=6 => 0,
                        7..=8 => 1,
                        _ => 2,
                    };
                    seq += 1;
                    let trace_id = if traced {
                        (lane as u64 + 1) << 32 | seq
                    } else {
                        0
                    };
                    let req = request(class, seed, trace_id, false);
                    let reply =
                        exchange(&mut conn, &req, class, &oracle, traced.then_some(&mut *log));
                    if record {
                        log.replies.push(reply);
                    }
                };
                for _ in 0..WARMUP_OPS {
                    one(&mut log, false);
                }
                log.server_us.clear();
                log.client_us.clear();
                barrier.wait();
                let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                while Instant::now() < deadline || log.replies.len() < share {
                    one(&mut log, true);
                }
                log
            })
        })
        .collect();
    barrier.wait();
    let window = Instant::now();
    let logs: Vec<ClientLog> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    (logs, window.elapsed().as_secs_f64())
}

/// Send one request and check the reply against the class's oracle.
/// With a log, the round trip is recorded as spans: the client's
/// send / wait / recv, and under `wait` the states the daemon reports
/// in the reply's `query_trace` section.
fn exchange(
    conn: &mut Connection,
    req: &Request,
    class: usize,
    oracle: &[(u64, u64); 3],
    log: Option<&mut ClientLog>,
) -> Reply {
    let t0 = Instant::now();
    let Some(log) = log else {
        let resp = conn.request(req);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (ok, report_bytes) = match &resp {
            Ok(Response::Result(r)) => (
                (r.matches, r.checksum) == oracle[class],
                r.report_json.len(),
            ),
            _ => (false, 0),
        };
        return Reply {
            class,
            ms,
            ok,
            report_bytes,
        };
    };
    let tr = &mut log.tracer;
    tr.set_request(match req {
        Request::Join(j) => j.trace_id,
        Request::Agg(a) => a.trace_id,
        Request::DiskJoin(d) => d.trace_id,
        Request::Ping | Request::Status => 0,
    });
    let span = tr.begin(&format!("client.request.{}", CLASSES[class]));
    let resp = conn.request_timed(req);
    tr.end(span);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let Ok((Response::Result(r), timing)) = resp else {
        return Reply {
            class,
            ms,
            ok: false,
            report_bytes: 0,
        };
    };
    let ns = |d: Duration| d.as_nanos() as u64;
    let send = tr.attach(
        span,
        "server.client.send",
        tr.start_of(span),
        ns(timing.send),
    );
    let wait = tr.attach(span, "server.client.wait", tr.end_of(send), ns(timing.wait));
    tr.attach(span, "server.client.recv", tr.end_of(wait), ns(timing.recv));
    log.client_us
        .push([timing.send, timing.wait, timing.recv].map(|d| d.as_secs_f64() * 1e6));
    let mut ok = (r.matches, r.checksum) == oracle[class];
    match RunReport::parse(&r.report_json)
        .ok()
        .and_then(|rep| rep.query_trace)
    {
        Some(q) => {
            let states = [
                ("server.query.queue_wait", q.queue_wait_ns),
                ("server.query.grant_wait", q.grant_wait_ns),
                ("server.query.exec", q.exec_ns),
                ("server.query.serialize", q.serialize_ns),
            ];
            let mut at = tr.start_of(wait);
            for (name, dur) in states {
                let id = tr.attach(wait, name, at, dur);
                at = tr.end_of(id);
            }
            log.server_us.push(states.map(|(_, dur)| dur as f64 / 1e3));
        }
        // A traced daemon always attaches the section.
        None => ok = false,
    }
    Reply {
        class,
        ms,
        ok,
        report_bytes: r.report_json.len(),
    }
}

fn window_of(logs: &[ClientLog], wall_s: f64) -> Samples {
    let replies = || logs.iter().flat_map(|l| &l.replies);
    Samples {
        lat_ms: replies().map(|r| r.ms).collect(),
        wall_s,
        failed: replies().filter(|r| !r.ok).count() as u64,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let min_ops = (MIN_OPS_PER_S * args.seconds).ceil() as usize;
    let mut out = Outcome::new(tail_percentile(min_ops));
    let scratch = Scratch::create(args);
    // `repeat_setup` drops (stops) each repetition's daemon before the
    // next one starts, outside the timing.
    let (daemon, setup_s) = repeat_setup(|| start(args.seed, false, scratch.path()));
    out.record_setup(setup_s, daemon.oracle_ok);
    let origin = Instant::now();

    if !args.trace {
        let (logs, wall_s) = drive(&daemon, args.seed, args.seconds, min_ops, false, origin);
        daemon.server.stop();
        let samples = window_of(&logs, wall_s);
        let tuples: f64 = logs
            .iter()
            .flat_map(|l| &l.replies)
            .map(|r| TUPLES[r.class])
            .sum();
        out.count(&samples);
        out.mtuples_per_s = tuples / wall_s / 1e6;
        out.samples = samples;
        return out;
    }

    // Reference window on the untraced daemon, then the same load on a
    // daemon restarted with tracing on, timed with `request_timed`.
    let (logs, wall_s) = drive(
        &daemon,
        args.seed,
        args.seconds / 4.0,
        min_ops / 4,
        false,
        origin,
    );
    daemon.server.stop();
    let reference = window_of(&logs, wall_s);
    out.count(&reference);
    let daemon = start(args.seed, true, scratch.path());
    let (logs, wall_s) = drive(
        &daemon,
        args.seed,
        args.seconds / 4.0,
        min_ops / 4,
        true,
        origin,
    );
    let traced = window_of(&logs, wall_s);
    out.count(&traced);

    let l = &mut out.layers;
    l.set(
        "trace.overhead_pct",
        overhead_pct(reference.median_ms(), traced.median_ms()),
    );
    let replies = || logs.iter().flat_map(|l| &l.replies);
    for (class, name) in CLASSES.iter().enumerate() {
        let ms: Vec<f64> = replies()
            .filter(|r| r.class == class)
            .map(|r| r.ms)
            .collect();
        l.set(&format!("server.class.{name}.p50_ms"), stats::median(&ms));
    }
    l.set(
        "server.report_bytes",
        stats::median(&replies().map(|r| r.report_bytes as f64).collect::<Vec<_>>()),
    );
    let client_us: Vec<[f64; 3]> = logs
        .iter()
        .flat_map(|l| l.client_us.iter().copied())
        .collect();
    for (i, name) in ["send_us", "wait_us", "recv_us"].iter().enumerate() {
        l.set(
            &format!("server.client.{name}"),
            stats::column_median(&client_us, i),
        );
    }
    let server_us: Vec<[f64; 4]> = logs
        .iter()
        .flat_map(|l| l.server_us.iter().copied())
        .collect();
    for (i, name) in ["queue_wait_us", "grant_wait_us", "exec_us", "serialize_us"]
        .iter()
        .enumerate()
    {
        l.set(
            &format!("server.query.{name}"),
            stats::column_median(&server_us, i),
        );
    }

    let mut tr = Tracer::new(origin, nproc() as u32);
    for log in logs {
        tr.merge(log.tracer);
    }
    live_micro(&mut tr, &daemon, args.seed, &mut out);
    daemon.server.stop();
    offline_micro(&mut tr, args.seed, &scratch, &mut out);
    pool_micro(&mut tr, &mut out);
    out.finish_trace(&tr, args);
    out
}

/// Longest one micro-measurement may run.
const MICRO_BUDGET: Duration = Duration::from_secs(1);

/// Median ns of `f` over up to `n` calls, fewer if they use up
/// [`MICRO_BUDGET`] first.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(n);
    let start = Instant::now();
    while ns.len() < n && (ns.len() < 5 || start.elapsed() < MICRO_BUDGET) {
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    stats::median(&ns)
}

/// Mean ns per call of `f` over `n` back-to-back calls, for calls too
/// short to time one at a time.
fn mean_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        f();
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Costs that need the live daemon: a ping round trip, a connect, and
/// the wire codecs on a captured result frame.
fn live_micro(tr: &mut Tracer, d: &Daemon, seed: u64, out: &mut Outcome) {
    let mut conn = Connection::connect(d.addr).expect("connect to the daemon");
    let mut ponged = true;
    let ping = tr.span("server.ping", || {
        median_ns(2000, || {
            ponged &= matches!(conn.request(&Request::Ping), Ok(Response::Pong))
        })
    });
    out.layers.set("server.ping_rtt_us", ping / 1e3);

    // The ping after each connect is untimed: it only makes sure the
    // daemon has served the connection before the next one is opened.
    let mut connect_us = Vec::new();
    tr.span("server.connect", || {
        let start = Instant::now();
        while connect_us.len() < 200 && (connect_us.len() < 5 || start.elapsed() < MICRO_BUDGET) {
            let t0 = Instant::now();
            let c = Connection::connect(d.addr);
            connect_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            ponged &= matches!(
                c.map(|mut c| c.request(&Request::Ping)),
                Ok(Ok(Response::Pong))
            );
        }
    });
    out.layers
        .set("server.connect_us", stats::median(&connect_us));
    out.verify(ponged);

    let req = request(0, seed, 7, false);
    let Ok(resp @ Response::Result(_)) = conn.request(&req) else {
        out.verify(false);
        return;
    };
    let (req_frame, resp_frame) = (req.encode(), resp.encode());
    let id = tr.begin("server.proto");
    let l = &mut out.layers;
    l.set(
        "server.proto.encode_request_ns",
        mean_ns(20_000, || drop(std::hint::black_box(req.encode()))),
    );
    l.set(
        "server.proto.decode_request_ns",
        mean_ns(20_000, || {
            drop(std::hint::black_box(Request::decode(&req_frame)))
        }),
    );
    l.set(
        "server.proto.encode_response_ns",
        mean_ns(5_000, || drop(std::hint::black_box(resp.encode()))),
    );
    l.set(
        "server.proto.decode_response_ns",
        mean_ns(5_000, || {
            drop(std::hint::black_box(Response::decode(&resp_frame)))
        }),
    );
    tr.end(id);

    if let Response::Result(r) = &resp {
        if let Ok(report) = RunReport::parse(&r.report_json) {
            let us = tr.span("obs.report.render", || {
                median_ns(500, || drop(std::hint::black_box(report.render())))
            });
            out.layers.set("obs.report.render_us", us / 1e3);
        }
    }
}

/// Costs measured without the daemon: admission alone, the served join
/// against its own input generation, the aggregation kernel, staging.
fn offline_micro(tr: &mut Tracer, seed: u64, scratch: &Scratch, out: &mut Outcome) {
    let cfg = AdmissionConfig {
        budget: 64 << 20,
        min_grant: 1 << 20,
        max_queue: 64,
    };
    let adm = Admission::new(cfg);
    let mut granted = true;
    let admit = tr.span("server.admission.admit", || {
        mean_ns(100_000, || granted &= adm.admit(1, 1 << 20).is_ok())
    });
    out.layers.set("server.admission.admit_ns", admit);

    // Contended: every thread wants the whole budget, so each admit
    // queues behind whoever holds the one grant that fits.
    const ROUNDS: usize = 2000;
    let adm = Admission::new(cfg);
    let threads = nproc().max(2);
    let t0 = Instant::now();
    tr.span("server.admission.admit_contended", || {
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|i| {
                    let adm = &adm;
                    s.spawn(move || (0..ROUNDS).all(|_| adm.admit(i as u64, cfg.budget).is_ok()))
                })
                .collect();
            for w in workers {
                granted &= w.join().expect("admission thread");
            }
        })
    });
    out.layers.set(
        "server.admission.admit_contended_us",
        t0.elapsed().as_nanos() as f64 / 1e3 / (threads * ROUNDS) as f64,
    );
    out.verify(granted);

    // How much of a served join is generating its input.
    let spec = join_spec(seed);
    let req = request(0, seed, 0, false);
    let mut ran = true;
    let run_ns = tr.span("server.query.run", || {
        median_ns(200, || ran &= query::run(0, &req).is_ok())
    });
    let gen_ns = tr.span("workload.generate", || {
        median_ns(200, || drop(std::hint::black_box(spec.generate())))
    });
    out.layers.set("server.query.run_join_ms", run_ns / 1e6);
    out.layers
        .set("server.query.generate_share", gen_ns / run_ns);
    out.layers
        .set("workload.generate.ns_per_tuple", gen_ns / TUPLES[0]);
    out.verify(ran);

    // The aggregation class's kernel on the class's input.
    let input = {
        let mut b = RelationBuilder::new(Schema::key_payload(100));
        let mut t = [0u8; 100];
        for i in 0..AGG_ROWS {
            let key = phj_workload::key_of_index((i % AGG_KEYS) as u32);
            t[..4].copy_from_slice(&key.to_le_bytes());
            b.push(&t);
        }
        b.finish()
    };
    let buckets = phj::plan::hash_table_buckets(AGG_KEYS as usize, 1);
    let agg_ns = tr.span("core.aggregate", || {
        median_ns(200, || {
            let table = aggregate(
                &mut NativeModel,
                AggScheme::Group { g: 16 },
                &input,
                buckets,
                |t| t[4] as i64,
            );
            std::hint::black_box(table.num_groups());
        })
    });
    out.layers
        .set("core.agg.group.ns_per_row", agg_ns / AGG_ROWS as f64);

    // Staging as the disk class does it per request: two stripes.
    let gen = spec.generate();
    let bytes = (gen.build.size_bytes() + gen.probe.size_bytes()) as f64;
    let mut staged = true;
    let stage_ns = tr.span("disk.stage", || {
        median_ns(50, || {
            let dir = scratch.fresh("stage");
            staged &= FileRelation::create(&dir, "build", &gen.build, 2, 16).is_ok()
                && FileRelation::create(&dir, "probe", &gen.probe, 2, 16).is_ok();
        })
    });
    out.layers.set(
        "disk.stage.mb_per_s",
        bytes / (1 << 20) as f64 / (stage_ns / 1e9),
    );
    out.verify(staged);
}
