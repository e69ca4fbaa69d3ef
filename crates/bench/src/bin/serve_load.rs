//! Open-loop load generator for the `phj serve` query daemon.
//!
//! Starts an in-process [`Server`] on an ephemeral port, precomputes the
//! expected checksum of every request class with the same sequential
//! kernel the daemon runs (`phj_server::query::run`), then fires a
//! seeded Poisson-ish arrival process at it: exponential inter-arrival
//! gaps from a fixed-seed RNG, one client thread per query, nobody
//! waiting for anybody's response before sending the next (open loop —
//! the arrival clock, not the service rate, decides when queries land).
//! The first [`BURST`] arrivals land at t=0 so the run provably reaches
//! ≥ BURST queries in flight regardless of how fast the host drains.
//!
//! Every response is checked against its class's expected checksum —
//! the daemon under concurrency must be bit-identical to the sequential
//! CLI path — and the run fails loudly on any mismatch, admission
//! over-budget, or missed concurrency floor. Emits a `serve_load`
//! latency table (p50/p95/p99 per class and overall, plus throughput)
//! as console/CSV/JSON under `bench_out/`.
//!
//! A second, deliberately starved phase then restarts the daemon on a
//! small budget, parks a dynamic disk join on most of it, and fires
//! arrivals that do not fit: admission must revoke memory from the
//! running query (grant shrink → victim spill → ack) instead of
//! rejecting or deadlocking, every queued arrival must eventually run,
//! and every answer — including the shrunk disk join's — must still be
//! bit-identical to the sequential kernel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phj_bench::report::{scaled, Table};
use phj_server::proto::{AggRequest, DiskJoinRequest, JoinRequest, Request, Response, WireScheme};
use phj_server::{query, Connection, ServeConfig, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Total queries fired at the daemon.
const QUERIES: usize = 48;
/// Arrivals pinned to t=0: the guaranteed concurrency floor.
const BURST: usize = 8;
/// Mean inter-arrival gap for the open-loop tail, milliseconds.
const MEAN_GAP_MS: f64 = 4.0;
/// Arrival-process seed (also printed, so a run is reproducible).
const SEED: u64 = 0x5E41_E10AD;

/// One request class in the mix. `weight` slots of the deterministic
/// round-robin deal; the label names the table row.
struct Class {
    label: &'static str,
    req: Request,
}

fn classes() -> Vec<Class> {
    // Each class carries a distinct nonzero trace id so the daemon's
    // query_trace sections (the wait-time source below) are easy to
    // attribute when a run is inspected by hand.
    let join = |label, scheme, seed: u64| Class {
        label,
        req: Request::Join(JoinRequest {
            build_tuples: scaled(4_000) as u64,
            tuple_size: 100,
            matches_per_build: 2,
            pct_match: 100,
            scheme,
            mem_budget: 1 << 20,
            seed,
            trace_id: 0x7E57_0000_0000_0000 | seed,
        }),
    };
    let agg = |label, scheme, rows: usize| Class {
        label,
        req: Request::Agg(AggRequest {
            rows: scaled(rows) as u64,
            keys: 2_000,
            scheme,
            mem_budget: 0,
            trace_id: 0x7E57_A000_0000_0000 | rows as u64,
        }),
    };
    vec![
        join("join/group", WireScheme::Group { g: 16 }, 0x11D0),
        join("join/swp", WireScheme::Swp { d: 4 }, 0xBEEF),
        join("join/baseline", WireScheme::Baseline, 0xCAFE),
        agg("agg/group", WireScheme::Group { g: 16 }, 60_000),
        agg("agg/swp", WireScheme::Swp { d: 4 }, 40_000),
    ]
}

/// Latency percentile (nearest-rank) over a sorted slice.
fn pctl(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

struct Outcome {
    class: usize,
    latency: Duration,
    checksum: u64,
    /// Admission FIFO wait, from the response's `query_trace` section.
    queue_wait: Duration,
    /// Queue-head budget wait, from the same section.
    grant_wait: Duration,
}

/// Pull the admission-wait breakdown out of a result's report. The
/// daemon runs with `trace: true`, so a missing section is a bug worth
/// failing a bench run over.
fn wait_breakdown(report_json: &str) -> (Duration, Duration) {
    let sec = phj_obs::RunReport::parse(report_json)
        .expect("daemon reports parse")
        .query_trace
        .expect("daemon runs traced; query_trace section missing");
    (
        Duration::from_nanos(sec.queue_wait_ns),
        Duration::from_nanos(sec.grant_wait_ns),
    )
}

/// The starved phase: a 24 MB daemon, a dynamic disk join granted
/// 20 MB of it, and arrivals that only fit if admission claws memory
/// back from the running query.
fn contended_phase() {
    const BUDGET: u64 = 24 << 20;
    const DISK_GRANT: u64 = 20 << 20;
    const ARRIVALS: usize = 3;

    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 4,
        mem_budget: BUDGET,
        min_grant: 1 << 20,
        max_queue: 8,
        max_conns: 16,
        trace: true,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = srv.local_addr();
    println!(
        "\nserve_load contended: budget {} MB, disk join holds {} MB, \
         {ARRIVALS} arrivals of 8 MB each",
        BUDGET >> 20,
        DISK_GRANT >> 20
    );

    let disk = Request::DiskJoin(DiskJoinRequest {
        build_tuples: 24_000,
        tuple_size: 64,
        matches_per_build: 2,
        pct_match: 100,
        mem_budget: DISK_GRANT,
        seed: 0xD15C,
        mode: 2,
        trace_id: 0x7E57_D000_0000_0001,
    });
    let arrival = Request::Agg(AggRequest {
        rows: 200_000,
        keys: 2_000,
        scheme: WireScheme::Group { g: 16 },
        mem_budget: 8 << 20,
        trace_id: 0x7E57_A000_0000_0002,
    });
    let disk_want = query::run(0, &disk).expect("disk reference").checksum;
    let arrival_want = query::run(0, &arrival).expect("agg reference").checksum;

    // Park the disk join on most of the budget, then hold the arrivals
    // until its grant is live so every one of them finds the budget
    // exhausted on admission.
    let t0 = Instant::now();
    let disk_thread = {
        let disk = disk.clone();
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).expect("connect");
            conn.request(&disk).expect("disk request")
        })
    };
    let adm = Arc::clone(srv.admission());
    while adm.outstanding() < DISK_GRANT {
        assert!(t0.elapsed() < Duration::from_secs(30), "disk grant never appeared");
        std::thread::yield_now();
    }
    let arrivals: Vec<_> = (0..ARRIVALS)
        .map(|_| {
            let arrival = arrival.clone();
            std::thread::spawn(move || {
                let sent = Instant::now();
                let mut conn = Connection::connect(addr).expect("connect");
                let resp = conn.request(&arrival).expect("arrival request");
                (resp, sent.elapsed())
            })
        })
        .collect();

    let disk_resp = disk_thread.join().unwrap();
    let Response::Result(disk_r) = disk_resp else {
        panic!("disk join failed under revocation: {disk_resp:?}");
    };
    assert_eq!(disk_r.kind, query::KIND_DISK);
    assert_eq!(
        disk_r.checksum, disk_want,
        "disk join answer drifted after its grant was revoked"
    );
    let mut worst = Duration::ZERO;
    let mut queue_waits = Vec::new();
    let mut grant_waits = Vec::new();
    for h in arrivals {
        let (resp, lat) = h.join().unwrap();
        let Response::Result(r) = resp else {
            panic!("arrival rejected under contention: {resp:?}");
        };
        assert_eq!(r.checksum, arrival_want, "arrival answer drifted under contention");
        let (qw, gw) = wait_breakdown(&r.report_json);
        queue_waits.push(qw);
        grant_waits.push(gw);
        worst = worst.max(lat);
    }
    // On a starved budget every arrival must have actually waited for a
    // grant — zero measured wait would mean the breakdown is fiction.
    assert!(
        grant_waits.iter().chain(&queue_waits).any(|w| *w > Duration::ZERO),
        "starved arrivals report zero admission wait"
    );

    let sheds = adm.sheds();
    let peak_waiting = adm.peak_waiting();
    assert!(sheds >= 1, "starved arrivals never triggered a grant shed");
    assert!(peak_waiting >= 1, "arrivals never queued on the starved budget");
    assert_eq!(adm.outstanding(), 0, "grants leaked");
    let (admitted, rejected) = adm.totals();
    assert_eq!(admitted, 1 + ARRIVALS as u64);
    assert_eq!(rejected, 0, "queueing plus shedding must absorb this mix");
    println!(
        "contended: {sheds} grant shed(s), peak queue {peak_waiting}, \
         worst arrival latency {worst:?}, all checksums exact"
    );
    srv.stop();
}

fn main() {
    let budget: u64 = (scaled(96 << 20) as u64).max(16 << 20);
    let srv = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 8,
        mem_budget: budget,
        min_grant: 1 << 20,
        max_queue: QUERIES,
        // Every query is its own connection; the load level, not the
        // conn cap, is the variable under test here.
        max_conns: QUERIES.max(64),
        // Traced: every response's query_trace section feeds the
        // queue-wait/grant-wait percentiles recorded below.
        trace: true,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = srv.local_addr();
    println!(
        "serve_load: {QUERIES} queries (first {BURST} at t=0, then mean gap {MEAN_GAP_MS} ms), \
         seed {SEED:#x}, budget {} MB, daemon {addr}",
        budget >> 20
    );

    // Expected checksums from the sequential kernel, before any load.
    let mix = classes();
    let expected: Vec<_> = mix
        .iter()
        .map(|c| query::run(0, &c.req).expect("reference run").checksum)
        .collect();

    // Deterministic schedule: class round-robins through the mix,
    // arrival offsets are a running sum of exponential gaps (zero for
    // the opening burst).
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut at = Duration::ZERO;
    let schedule: Vec<(usize, Duration)> = (0..QUERIES)
        .map(|i| {
            if i >= BURST {
                let u: f64 = rng.gen();
                at += Duration::from_secs_f64(MEAN_GAP_MS / 1e3 * -(1.0 - u).ln());
            }
            (i % mix.len(), at)
        })
        .collect();

    // Fire: one thread per query, all clocks relative to one t0. The
    // in-flight counter brackets the request round trip; its high-water
    // mark is the measured concurrency.
    let inflight = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = schedule
        .into_iter()
        .map(|(class, when)| {
            let req = mix[class].req.clone();
            let inflight = Arc::clone(&inflight);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || -> Outcome {
                if let Some(wait) = when.checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                let sent = Instant::now();
                let mut conn = Connection::connect(addr).expect("connect");
                let resp = conn.request(&req).expect("request");
                let latency = sent.elapsed();
                inflight.fetch_sub(1, Ordering::SeqCst);
                match resp {
                    Response::Result(r) => {
                        let (queue_wait, grant_wait) = wait_breakdown(&r.report_json);
                        Outcome { class, latency, checksum: r.checksum, queue_wait, grant_wait }
                    }
                    other => panic!("class {class}: daemon answered {other:?}"),
                }
            })
        })
        .collect();
    let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = t0.elapsed();

    // Correctness before numbers: concurrency under load must not have
    // perturbed a single checksum.
    let mut mismatches = 0;
    for o in &outcomes {
        if o.checksum != expected[o.class] {
            eprintln!(
                "CHECKSUM MISMATCH class {}: got {:#018x}, sequential kernel says {:#018x}",
                mix[o.class].label, o.checksum, expected[o.class]
            );
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "daemon results drifted from the sequential kernel");

    let adm = srv.admission();
    let grant_peak = adm.peak_outstanding();
    let (admitted, rejected) = adm.totals();
    assert!(grant_peak <= budget, "grants exceeded the budget");
    assert!(grant_peak > 0, "queries ran without grants");
    assert_eq!(adm.outstanding(), 0, "grants leaked");
    assert_eq!(admitted, QUERIES as u64);
    assert_eq!(rejected, 0, "mix is sized to fit; a rejection is a bug");
    let peak_inflight = peak.load(Ordering::SeqCst);
    assert!(
        peak_inflight >= BURST as u64 / 2,
        "concurrency floor missed: peak in-flight {peak_inflight}"
    );

    let mut table = Table::new(
        format!("serve_load: {QUERIES} mixed queries against one daemon, seed {SEED:#x}"),
        &["class", "queries", "p50 ms", "p95 ms", "p99 ms", "max ms", "qwait p95", "gwait p95"],
    );
    let mut rows = |label: &str, mut lat: Vec<Duration>, mut qw: Vec<Duration>, mut gw: Vec<Duration>| {
        lat.sort();
        qw.sort();
        gw.sort();
        table.row(&[
            &label,
            &lat.len(),
            &ms(pctl(&lat, 50.0)),
            &ms(pctl(&lat, 95.0)),
            &ms(pctl(&lat, 99.0)),
            &ms(*lat.last().unwrap_or(&Duration::ZERO)),
            &ms(pctl(&qw, 95.0)),
            &ms(pctl(&gw, 95.0)),
        ]);
    };
    for (i, c) in mix.iter().enumerate() {
        let of = |f: fn(&Outcome) -> Duration| {
            outcomes.iter().filter(|o| o.class == i).map(f).collect::<Vec<_>>()
        };
        rows(c.label, of(|o| o.latency), of(|o| o.queue_wait), of(|o| o.grant_wait));
    }
    rows(
        "overall",
        outcomes.iter().map(|o| o.latency).collect(),
        outcomes.iter().map(|o| o.queue_wait).collect(),
        outcomes.iter().map(|o| o.grant_wait).collect(),
    );
    table.emit("serve_load");

    let qps = QUERIES as f64 / wall.as_secs_f64();
    println!(
        "\nthroughput: {qps:.1} queries/s over {wall:?}; peak in-flight {peak_inflight}, \
         peak grant {} MB of {} MB budget",
        grant_peak >> 20,
        budget >> 20
    );
    srv.stop();

    contended_phase();
}
