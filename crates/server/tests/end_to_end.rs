//! End-to-end daemon tests over real sockets: concurrent mixed queries
//! produce exactly the checksums the sequential kernel produces, every
//! embedded RunReport validates, admission holds its budget invariant,
//! and hostile input turns into typed error frames.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use phj_obs::RunReport;
use phj_server::proto::{
    AggRequest, DiskJoinRequest, ErrorCode, JoinRequest, Request, Response, WireScheme,
};
use phj_server::{query, Connection, QueryState, ServeConfig, Server};

fn join_req(seed: u64) -> Request {
    Request::Join(JoinRequest {
        build_tuples: 2_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        scheme: WireScheme::Group { g: 16 },
        mem_budget: 1 << 20,
        seed,
        trace_id: 0,
    })
}

fn agg_req(rows: u64) -> Request {
    Request::Agg(AggRequest {
        rows,
        keys: 256,
        scheme: WireScheme::Swp { d: 4 },
        mem_budget: 0,
        trace_id: 0,
    })
}

fn small_server() -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        mem_budget: 64 << 20,
        min_grant: 1 << 20,
        max_queue: 32,
        ..ServeConfig::default()
    })
    .unwrap()
}

#[test]
fn concurrent_mixed_queries_match_the_sequential_kernel() {
    let srv = small_server();
    let addr = srv.local_addr();

    // Reference checksums from the sequential kernel, same process.
    let requests: Vec<Request> =
        vec![join_req(0x11D0), join_req(0xBEEF), agg_req(20_000), agg_req(5_000)];
    let expected: Vec<_> = requests
        .iter()
        .map(|r| query::run(0, r).unwrap())
        .collect();

    // Two client threads per request, all concurrent.
    let handles: Vec<_> = requests
        .iter()
        .cloned()
        .cycle()
        .take(requests.len() * 2)
        .map(|req| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                conn.request(&req).unwrap()
            })
        })
        .collect();
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut seen_ids = std::collections::HashSet::new();
    for (i, resp) in responses.into_iter().enumerate() {
        let want = &expected[i % requests.len()];
        match resp {
            Response::Result(r) => {
                assert_eq!(r.checksum, want.checksum, "query {i} checksum drifted");
                assert_eq!(r.matches, want.matches);
                assert_eq!(r.kind, want.kind);
                assert!(seen_ids.insert(r.query_id), "query ids must be unique");
                let report = RunReport::parse(&r.report_json).unwrap();
                report.validate().unwrap();
                assert!(
                    report
                        .config
                        .iter()
                        .any(|(k, v)| k == "query_id" && *v == r.query_id.to_string()),
                    "report must carry its query id"
                );
            }
            other => panic!("query {i}: want Result, got {other:?}"),
        }
    }

    let adm = Arc::clone(srv.admission());
    assert!(adm.peak_outstanding() <= 64 << 20, "grants exceeded the budget");
    assert!(adm.peak_outstanding() > 0, "queries ran without grants?");
    assert_eq!(adm.outstanding(), 0, "grants leaked");
    let (admitted, rejected) = adm.totals();
    assert_eq!(admitted, 8);
    assert_eq!(rejected, 0);
    srv.stop();
}

#[test]
fn ping_pong_and_typed_rejections() {
    let srv = small_server();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();

    assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);

    // A query that can never fit the 64 MB budget: typed TooLarge, and
    // the connection stays usable.
    let huge = Request::Join(JoinRequest {
        build_tuples: 1 << 40,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        scheme: WireScheme::Baseline,
        mem_budget: 1 << 20,
        seed: 1,
        trace_id: 0,
    });
    match conn.request(&huge).unwrap() {
        Response::Error { code: ErrorCode::TooLarge, .. } => {}
        other => panic!("want TooLarge, got {other:?}"),
    }

    // Shape violation: typed BadRequest.
    let bad = Request::Join(JoinRequest {
        build_tuples: 10,
        tuple_size: 4000,
        matches_per_build: 1,
        pct_match: 100,
        scheme: WireScheme::Baseline,
        mem_budget: 1 << 20,
        seed: 1,
        trace_id: 0,
    });
    match conn.request(&bad).unwrap() {
        Response::Error { code: ErrorCode::BadRequest, .. } => {}
        other => panic!("want BadRequest, got {other:?}"),
    }

    // Still alive after both rejections.
    assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(srv.admission().outstanding(), 0);
    srv.stop();
}

#[test]
fn garbage_bytes_get_a_typed_error_frame_not_a_crash() {
    let srv = small_server();
    let addr = srv.local_addr();

    // Raw garbage (bad version byte): server answers a BadRequest
    // error frame and closes.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[0xFF; 32]).unwrap();
    s.flush().unwrap();
    let mut raw = Vec::new();
    use std::io::Read;
    let _ = s.read_to_end(&mut raw);
    // Frame header: version 1 + length; decode the error body.
    assert!(raw.len() > 5, "server sent nothing back");
    assert_eq!(raw[0], 1);
    let body_len = u32::from_le_bytes(raw[1..5].try_into().unwrap()) as usize;
    let resp = Response::decode(&raw[5..5 + body_len]).unwrap();
    match resp {
        Response::Error { code: ErrorCode::BadRequest, .. } => {}
        other => panic!("want BadRequest, got {other:?}"),
    }

    // And the daemon still serves the next client.
    let mut conn = Connection::connect(addr).unwrap();
    assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);
    srv.stop();
}

#[test]
fn slow_fragmented_frames_are_served_not_desynced() {
    // A legitimate client that pauses >100 ms between fragments of one
    // frame: the server's idle poll only covers the first byte, so the
    // pauses must not discard consumed bytes and re-parse the stream
    // out of phase (the regression this guards: body bytes interpreted
    // as a fresh header → BadVersion → dropped connection).
    let srv = small_server();
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();

    let mut wire = Vec::new();
    phj_server::proto::write_frame(&mut wire, &Request::Ping.encode()).unwrap();
    assert!(wire.len() >= 6, "ping frame is header + tag");
    // Fragment boundaries land inside the header AND inside the body.
    let cuts = [1usize, 3, wire.len()];
    let mut sent = 0;
    for &cut in &cuts {
        s.write_all(&wire[sent..cut]).unwrap();
        s.flush().unwrap();
        sent = cut;
        std::thread::sleep(std::time::Duration::from_millis(250));
    }

    use phj_server::proto::read_frame;
    let body = read_frame(&mut s).unwrap().expect("server must answer");
    assert_eq!(Response::decode(&body).unwrap(), Response::Pong);

    // The connection stayed in sync: a second, unfragmented request
    // still round-trips.
    phj_server::proto::write_frame(&mut s, &Request::Ping.encode()).unwrap();
    let body = read_frame(&mut s).unwrap().expect("second answer");
    assert_eq!(Response::decode(&body).unwrap(), Response::Pong);
    srv.stop();
}

#[test]
fn over_cap_connections_get_a_typed_busy_frame() {
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        mem_budget: 64 << 20,
        max_conns: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr();

    // First connection claims the only slot.
    let mut first = Connection::connect(addr).unwrap();
    assert_eq!(first.request(&Request::Ping).unwrap(), Response::Pong);

    // Second is bounced with a typed Busy frame, not silently queued.
    let mut second = Connection::connect(addr).unwrap();
    match second.request(&Request::Ping) {
        Ok(Response::Error { code: ErrorCode::Busy, .. }) => {}
        // The server may close before our request bytes land; the Busy
        // frame is still what comes back on the read side.
        other => panic!("want Busy, got {other:?}"),
    }

    // Dropping the first connection frees the slot for a newcomer.
    drop(first);
    let mut third = loop {
        let mut c = Connection::connect(addr).unwrap();
        match c.request(&Request::Ping) {
            Ok(Response::Pong) => break c,
            Ok(Response::Error { code: ErrorCode::Busy, .. }) => {
                // The first conn's worker has not observed the close yet.
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            other => panic!("want Pong or Busy, got {other:?}"),
        }
    };
    assert_eq!(third.request(&Request::Ping).unwrap(), Response::Pong);
    srv.stop();
}

#[test]
fn idle_connections_are_closed_at_the_deadline() {
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        mem_budget: 64 << 20,
        idle_timeout: std::time::Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);

    // Past the idle deadline the server hangs up, freeing the worker;
    // the next request fails instead of blocking forever.
    std::thread::sleep(std::time::Duration::from_millis(1200));
    assert!(conn.request(&Request::Ping).is_err(), "idle connection must be closed");

    // The daemon itself keeps serving fresh connections.
    let mut fresh = Connection::connect(srv.local_addr()).unwrap();
    assert_eq!(fresh.request(&Request::Ping).unwrap(), Response::Pong);
    srv.stop();
}

#[test]
fn a_long_query_does_not_expire_its_own_connection() {
    // The idle clock must restart when the reply is written, not when
    // the request arrived: a query that outlasts `idle_timeout` would
    // otherwise be hung up on at the first poll tick after its answer.
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        idle_timeout: std::time::Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    let long = Request::Join(JoinRequest {
        build_tuples: 400_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        scheme: WireScheme::Group { g: 16 },
        mem_budget: 8 << 20,
        seed: 7,
        trace_id: 0,
    });
    match conn.request(&long).unwrap() {
        Response::Result(r) => assert!(
            r.elapsed_us >= 300_000,
            "the query must outlast the idle timeout to test anything ({} us)",
            r.elapsed_us
        ),
        other => panic!("want Result, got {other:?}"),
    }
    // A client pause well inside the idle timeout, but past a poll tick.
    std::thread::sleep(std::time::Duration::from_millis(150));
    assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);
    srv.stop();
}

#[test]
fn a_timed_out_connection_refuses_reuse() {
    // A stand-in daemon that answers the first request late — after
    // the client's read timeout — and then drains until the client
    // hangs up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let late_server = std::thread::spawn(move || {
        use phj_server::proto::{read_frame, write_frame};
        let (mut s, _) = listener.accept().unwrap();
        let body = read_frame(&mut s).unwrap().expect("first request");
        assert_eq!(Request::decode(&body).unwrap(), Request::Ping);
        std::thread::sleep(std::time::Duration::from_millis(300));
        write_frame(&mut s, &Response::Pong.encode()).unwrap();
        // A reused connection would send a second request here; a
        // poisoned one only hangs up (a reset, with the Pong unread).
        matches!(read_frame(&mut s), Ok(Some(_)))
    });

    let mut conn = Connection::connect(addr).unwrap();
    conn.set_read_timeout(Some(std::time::Duration::from_millis(100))).unwrap();
    assert!(conn.request(&Request::Ping).is_err(), "first call must time out");
    // Let the late Pong land: it now sits unread in the socket buffer.
    std::thread::sleep(std::time::Duration::from_millis(400));
    match conn.request(&Request::Ping) {
        Err(phj_server::proto::FrameError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotConnected)
        }
        other => panic!("the stale Pong must not answer a later request: {other:?}"),
    }
    match conn.request_timed(&Request::Status) {
        Err(phj_server::proto::FrameError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotConnected)
        }
        other => panic!("want NotConnected, got {other:?}"),
    }
    drop(conn);
    assert!(!late_server.join().unwrap(), "a broken connection must not write again");
}

#[test]
fn ping_round_trip_is_not_delayed_ack_bound() {
    // Two writes per frame with Nagle on cost ~88 ms per loopback round
    // trip (each direction waits out a delayed ACK); one write with
    // TCP_NODELAY costs ~0.05 ms. The ceiling sits 200x above that.
    let srv = small_server();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    for _ in 0..50 {
        assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);
    }
    let mut rtts: Vec<std::time::Duration> = (0..200)
        .map(|_| {
            let t0 = std::time::Instant::now();
            assert_eq!(conn.request(&Request::Ping).unwrap(), Response::Pong);
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(10),
        "median ping round trip {median:?} — is the delayed-ACK floor back?"
    );
    srv.stop();
}

/// `exec` decomposes: every served query records its generate / stage /
/// kernel parts next to the exec sample that contains them.
#[test]
fn exec_histogram_splits_into_generate_stage_and_kernel() {
    let metrics = phj_metrics::install();
    let srv = small_server();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    let disk = Request::DiskJoin(DiskJoinRequest {
        build_tuples: 8_000,
        tuple_size: 64,
        matches_per_build: 2,
        pct_match: 100,
        mem_budget: 1 << 20,
        seed: 5,
        mode: 2,
        trace_id: 0,
    });
    for req in [disk, join_req(5), agg_req(20_000)] {
        assert!(matches!(conn.request(&req).unwrap(), Response::Result(_)));
    }
    // The registry is shared with the other tests in this binary, so
    // only totals that hold whatever else ran: each query records exec
    // before its parts, so reading the parts first keeps them inside.
    let part = |name| metrics.histogram(name, "");
    let generate = part(phj_metrics::names::SERVER_QUERY_GENERATE_US);
    let stage = part(phj_metrics::names::SERVER_QUERY_STAGE_US);
    let kernel = part(phj_metrics::names::SERVER_QUERY_KERNEL_US);
    assert!(generate.count() >= 3 && stage.count() >= 3 && kernel.count() >= 3);
    let parts_us = generate.sum() + stage.sum() + kernel.sum();
    assert!(generate.sum() > 0 && stage.sum() > 0 && kernel.sum() > 0);
    let exec_us = part(phj_metrics::names::SERVER_QUERY_EXEC_US).sum();
    assert!(parts_us <= exec_us, "parts {parts_us} us exceed exec {exec_us} us");
    srv.stop();
}

/// The revocation acceptance path end-to-end: a dynamic disk join
/// holds most of the daemon's budget; an arrival that cannot fit makes
/// admission ask the running query to shed instead of waiting for it
/// to finish. The disk query must spill, shrink its grant mid-run
/// (Grant RESIZE in the flight recorder), still answer the exact
/// sequential checksum, and the arrival must get its grant.
#[test]
fn mid_run_grant_shrink_on_a_live_dynamic_disk_query() {
    phj_flightrec::install();
    let metrics = phj_metrics::install();
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        mem_budget: 24 << 20,
        min_grant: 1 << 20,
        max_queue: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = srv.local_addr();

    // Big enough to run for a while; grant = 20 of the 24 MB budget.
    let disk = Request::DiskJoin(DiskJoinRequest {
        build_tuples: 24_000,
        tuple_size: 64,
        matches_per_build: 2,
        pct_match: 100,
        mem_budget: 20 << 20,
        seed: 0xD15C,
        mode: 2,
        trace_id: 0,
    });
    let want = query::run(0, &disk).unwrap();

    let disk_thread = {
        let disk = disk.clone();
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            conn.request(&disk).unwrap()
        })
    };
    // Wait until the disk query actually holds its grant.
    let adm = Arc::clone(srv.admission());
    while adm.outstanding() < 20 << 20 {
        std::thread::yield_now();
    }

    // A Status snapshot on a second connection shows the disk query in
    // flight, holding its whole grant. The registry learns of the grant
    // just after admission does, so poll until the row carries it.
    let mut status = Connection::connect(addr).unwrap();
    let live = loop {
        let rows = match status.request(&Request::Status).unwrap() {
            Response::Status(rows) => rows,
            other => panic!("Status: want rows, got {other:?}"),
        };
        let row = rows
            .into_iter()
            .find(|r| r.kind == query::KIND_DISK)
            .expect("the disk query is in the live table");
        assert!(
            row.state < QueryState::Done as u8,
            "the disk query ended before a snapshot saw it hold its grant: {row:?}"
        );
        if row.grant_bytes == 20 << 20 {
            break row;
        }
        std::thread::yield_now();
    };
    assert_eq!(live.shed_count, 0, "nothing has asked it to shed yet");

    // 8 MB wanted, 4 MB free: this arrival must force a shed request
    // (target 20 - 4 = 16 MB) rather than waiting for the release.
    let arrival = Request::Agg(AggRequest {
        rows: 20_000,
        keys: 256,
        scheme: WireScheme::Swp { d: 4 },
        mem_budget: 8 << 20,
        trace_id: 0,
    });
    let arrival_thread = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr).unwrap();
        conn.request(&arrival).unwrap()
    });

    let disk_resp = disk_thread.join().unwrap();
    let arrival_resp = arrival_thread.join().unwrap();

    let disk_qid = match disk_resp {
        Response::Result(r) => {
            assert_eq!(r.kind, query::KIND_DISK);
            assert_eq!(r.checksum, want.checksum, "shrunken query drifted from the kernel");
            assert_eq!(r.matches, want.matches);
            let report = RunReport::parse(&r.report_json).unwrap();
            report.validate().unwrap();
            r.query_id
        }
        other => panic!("disk query: want Result, got {other:?}"),
    };
    assert!(matches!(arrival_resp, Response::Result(_)), "arrival must complete");

    assert!(adm.sheds() >= 1, "the arrival should have triggered a shed request");
    assert!(adm.peak_waiting() >= 1, "the arrival queued before the shed freed memory");
    assert_eq!(adm.outstanding(), 0, "grants leaked");

    // The starved arrival waited for its grant, so the wall-latency
    // histogram must have seen more time than the exec histogram (other
    // tests in this process only ever add latency >= exec).
    let latency = metrics.histogram(phj_metrics::names::SERVER_QUERY_LATENCY_US, "").sum();
    let exec = metrics.histogram(phj_metrics::names::SERVER_QUERY_EXEC_US, "").sum();
    assert!(latency > exec, "latency {latency} us must include the waits exec {exec} us excludes");

    // The grant shrink is journaled: Grant RESIZE events for the disk
    // query, with the new size strictly below the original 20 MB.
    let rec = phj_flightrec::global().expect("installed above");
    let resizes: Vec<_> = rec
        .timeline()
        .into_iter()
        .filter(|e| {
            e.kind == phj_flightrec::EventKind::Grant
                && e.code == phj_flightrec::grant_op::RESIZE
                && e.a == disk_qid
        })
        .collect();
    assert!(!resizes.is_empty(), "mid-run shrink must emit Grant RESIZE");
    assert!(
        resizes.iter().all(|e| e.b < 20 << 20),
        "resized grant must be below the original size"
    );
    srv.stop();
}

#[test]
fn stop_finishes_inflight_work_and_frees_the_port() {
    let srv = small_server();
    let addr = srv.local_addr();
    let worker = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr).unwrap();
        conn.request(&join_req(7)).unwrap()
    });
    let resp = worker.join().unwrap();
    assert!(matches!(resp, Response::Result(_)));
    srv.stop();
    // The accept loop is gone: the port can be rebound.
    assert!(std::net::TcpListener::bind(addr).is_ok());
}

/// Every error path must leave the daemon balanced: no leaked grants,
/// no stuck inflight count, and a `failed` entry in the query table.
/// The injected failure is a scratch dir pointing at an existing
/// *file* — disk-join staging then fails deterministically *after* the
/// grant was acquired, which is the leak-prone half of the lifecycle.
#[test]
fn error_paths_release_grants_and_mark_the_query_failed() {
    let bogus = std::env::temp_dir().join(format!("phj-scratch-not-a-dir-{}", std::process::id()));
    std::fs::write(&bogus, b"occupied").unwrap();
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        mem_budget: 64 << 20,
        scratch_dir: Some(bogus.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();

    let disk = Request::DiskJoin(DiskJoinRequest {
        build_tuples: 2_000,
        tuple_size: 64,
        matches_per_build: 2,
        pct_match: 100,
        mem_budget: 4 << 20,
        seed: 3,
        mode: 0,
        trace_id: 0,
    });
    match conn.request(&disk).unwrap() {
        Response::Error { code: ErrorCode::Internal, message } => {
            assert!(message.contains("scratch dir"), "unexpected failure: {message}");
        }
        other => panic!("want Internal, got {other:?}"),
    }

    // The grant came back, nothing is inflight, and the table shows
    // the failure (grant weak-ref reads 0 after release).
    assert_eq!(srv.admission().outstanding(), 0, "failed query leaked its grant");
    assert_eq!(srv.inflight(), 0);
    let rows = srv.registry().snapshot();
    let failed = rows
        .iter()
        .find(|r| r.state == phj_server::QueryState::Failed as u8)
        .expect("failed query must appear in the table");
    assert_eq!(failed.kind, query::KIND_DISK);
    assert_eq!(failed.grant_bytes, 0);

    // The daemon keeps serving after the failure.
    assert!(matches!(conn.request(&join_req(11)).unwrap(), Response::Result(_)));
    let _ = std::fs::remove_file(&bogus);
    srv.stop();
}

/// The tentpole end-to-end: a client-minted trace id survives the trip
/// — request frame, flight recorder binding, `query_trace` report
/// section, result frame echo, and the `Status` live table.
#[test]
fn trace_id_flows_from_request_to_report_to_status() {
    phj_flightrec::install();
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        mem_budget: 64 << 20,
        trace: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut conn = Connection::connect(srv.local_addr()).unwrap();

    let trace_id = 0x7E57_7E57_0000_0001u64;
    let req = Request::Join(JoinRequest {
        build_tuples: 2_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        scheme: WireScheme::Group { g: 16 },
        mem_budget: 1 << 20,
        seed: 0x11D0,
        trace_id,
    });
    let (resp, timing) = conn.request_timed(&req).unwrap();
    let r = match resp {
        Response::Result(r) => r,
        other => panic!("want Result, got {other:?}"),
    };
    assert_eq!(r.trace_id, trace_id, "result frame must echo the trace id");

    // The report carries a validated query_trace section whose spans
    // are consistent with the client-observed wait.
    let report = RunReport::parse(&r.report_json).unwrap();
    report.validate().unwrap();
    assert_eq!(report.render(), r.report_json, "the daemon emits the canonical report layout");
    let sec = report.query_trace.expect("traced run attaches query_trace");
    assert_eq!(sec.trace_id, trace_id);
    assert_eq!(sec.query_id, r.query_id);
    let names: Vec<&str> = sec.states.iter().map(|(s, _)| s.as_str()).collect();
    assert_eq!(names.first(), Some(&"received"));
    assert!(names.contains(&"executing") && names.contains(&"responding"));
    assert!(sec.exec_ns > 0 && sec.serialize_ns > 0);
    // The client's `wait` starts once `write_all` returns, but the
    // server can read the frame and start its clocks before a
    // descheduled client thread takes that stamp. Only send + wait
    // (request start → first response byte) provably contains the
    // server's interval (frame read → response built).
    let breakdown_ns = sec.queue_wait_ns + sec.grant_wait_ns + sec.exec_ns + sec.serialize_ns;
    let client_ns = (timing.send + timing.wait).as_nanos() as u64;
    assert!(
        breakdown_ns <= client_ns,
        "server breakdown ({breakdown_ns} ns) cannot exceed the client's send + wait \
         ({client_ns} ns)"
    );

    // The flight recorder bound the two ids together.
    let rec = phj_flightrec::global().unwrap();
    assert!(
        rec.timeline().iter().any(|e| {
            e.kind == phj_flightrec::EventKind::Grant
                && e.code == phj_flightrec::grant_op::TRACE
                && e.a == trace_id
                && e.b == r.query_id
        }),
        "TRACE event must bind trace id to query id"
    );

    // And the Status table still shows the completed query.
    match conn.request(&Request::Status).unwrap() {
        Response::Status(rows) => {
            let row = rows
                .iter()
                .find(|row| row.query_id == r.query_id)
                .expect("completed query stays visible in the recent ring");
            assert_eq!(row.trace_id, trace_id);
            assert_eq!(row.state, phj_server::QueryState::Done as u8);
            assert_eq!(row.exec_us, sec.exec_ns / 1_000);
        }
        other => panic!("want Status, got {other:?}"),
    }
    srv.stop();
}

/// Slow-query capture: with a zero latency threshold every query trips
/// the trigger; dumps are valid postmortems filtered to the query's
/// events, the hook fires, and the dump directory stays bounded.
#[test]
fn slow_queries_dump_valid_postmortems_into_a_bounded_ring() {
    phj_flightrec::install();
    let dir = std::env::temp_dir().join(format!("phj-slow-dumps-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        mem_budget: 64 << 20,
        trace: true,
        slow_query: Some(phj_server::SlowQueryConfig {
            latency: std::time::Duration::ZERO,
            max_sheds: 0,
            dir: dir.clone(),
            keep: 2,
        }),
        ..ServeConfig::default()
    })
    .unwrap();
    let captured = Arc::new(std::sync::Mutex::new(Vec::new()));
    {
        let sink = Arc::clone(&captured);
        srv.set_slow_query_hook(move |qid, tid, latency, path| {
            sink.lock().unwrap().push((qid, tid, latency, path.to_path_buf()));
        });
    }
    let mut conn = Connection::connect(srv.local_addr()).unwrap();
    for seed in 0..4u64 {
        let mut req = join_req(seed);
        if let Request::Join(j) = &mut req {
            j.trace_id = 0xABBA_0000 + seed;
        }
        assert!(matches!(conn.request(&req).unwrap(), Response::Result(_)));
    }

    let hooks = captured.lock().unwrap().clone();
    assert_eq!(hooks.len(), 4, "every query tripped the zero threshold");
    // Ring bound: only the newest `keep` dumps remain on disk.
    let mut on_disk: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk.len(), 2, "dump ring must prune to keep=2");

    // The newest dump is a valid postmortem scoped to its query: every
    // event belongs to it, and the context block carries the breakdown.
    let (qid, tid, _latency, last_path) = hooks.last().unwrap().clone();
    assert_eq!(&last_path, on_disk.last().unwrap());
    let text = std::fs::read_to_string(&last_path).unwrap();
    let pm = phj_obs::Postmortem::parse(&text).unwrap();
    pm.validate().unwrap();
    assert!(pm.context.iter().any(|(k, v)| k == "query_id" && *v == qid.to_string()));
    assert!(
        pm.context.iter().any(|(k, v)| k == "trace_id" && *v == format!("\"{tid:#018x}\"")),
        "context must carry the quoted trace id: {:?}",
        pm.context
    );
    assert!(
        pm.timeline.iter().all(|ev| ev.a == qid || ev.b == qid),
        "dump events must belong to the captured query"
    );
    let _ = std::fs::remove_dir_all(&dir);
    srv.stop();
}

/// A daemon killed without unwinding leaves its disk queries' scratch
/// directories (`phj-serve-disk-<pid>-<query>`) behind. The next daemon
/// to start removes those of dead processes and keeps those of live
/// ones, its own included.
#[test]
fn start_sweeps_scratch_directories_of_dead_daemons() {
    let base = std::env::temp_dir().join(format!("phj-scratch-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&base).unwrap();
    // A process that has exited and been reaped: its pid names no process.
    let mut child = std::process::Command::new("true").spawn().unwrap();
    let dead_pid = child.id();
    child.wait().unwrap();
    let dead = base.join(format!("phj-serve-disk-{dead_pid}-3"));
    let live = base.join("phj-serve-disk-1-4"); // pid 1 is always running
    let own = base.join(format!("phj-serve-disk-{}-5", std::process::id()));
    let other = base.join("phj-serve-disk-notapid-6");
    for dir in [&dead, &live, &own, &other] {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("build.0"), b"staged stripe").unwrap();
    }
    let srv = Server::start(ServeConfig {
        scratch_dir: Some(base.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    srv.stop();
    let (dead_gone, kept) = (!dead.exists(), [&live, &own, &other].map(|d| d.exists()));
    std::fs::remove_dir_all(&base).unwrap();
    assert!(dead_gone, "a dead daemon's scratch directory survived the sweep");
    assert_eq!(kept, [true; 3], "live, own and unparsable directories must be kept");
}
