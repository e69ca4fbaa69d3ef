//! Thread-scaling sweep for the morsel-driven parallel executor.
//!
//! For threads ∈ {1, 2, 4, 8} the same GRACE join runs through
//! `phj-exec` twice:
//!
//! * **simulated** — deterministic virtual lanes; "elapsed" is the
//!   critical-path cycle count, so the table shows the *algorithmic*
//!   scalability (LPT balance, morsel granularity) independent of how
//!   many cores this machine has;
//! * **native** — real threads with work stealing, wall-clock elapsed,
//!   the median of [`REPS`] joins (meaningful only on a multi-core
//!   host).
//!
//! The simulated sweep additionally runs a third time with the live
//! metrics registry installed, and the sim table carries a
//! registry-overhead column (`cycles on / cycles off - 1`) — the
//! measured price of the instrumentation every engine crate publishes
//! once `--metrics-addr` is given. The registry-off pass runs *before*
//! `phj_metrics::install()`: the registry is process-global and
//! irreversible, so ordering is what keeps the off-measurement honest.
//!
//! The native sweep then reruns with the flight recorder installed
//! (`scaling_join_flightrec`): the recorder, like the metrics registry,
//! installs irreversibly, so the recorder-off wall-clock baseline is
//! measured first and the overhead column is the measured price of
//! `--flightrec phase`, the default.
//!
//! Emits `scaling_join_sim` / `scaling_join_native` tables plus a
//! per-worker `scaling_join_workers` table recording each lane/worker's
//! busy and idle share — the raw data behind the efficiency column.

use phj::grace::GraceConfig;
use phj::sink::JoinSink;
use phj_bench::report::{mcycles, scaled, Table};
use phj_workload::JoinSpec;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Native joins timed per thread count; each native cell is their
/// median. One join per cell spread ±50 % run to run, far wider than
/// the flight recorder's overhead budget.
const REPS: usize = 5;

fn ratio(base: f64, now: f64) -> f64 {
    if now > 0.0 {
        base / now
    } else {
        f64::INFINITY
    }
}

/// Signed percent delta of `on` relative to `off`.
fn overhead_pct(off: u64, on: u64) -> String {
    if off == 0 {
        return "n/a".into();
    }
    format!("{:+.2}%", (on as f64 - off as f64) / off as f64 * 100.0)
}

fn main() {
    let gen = JoinSpec::pivot(scaled(8 << 20)).generate();
    let cfg = GraceConfig {
        mem_budget: scaled(2 << 20).max(64 << 10),
        ..Default::default()
    };

    // Pass 1: registry OFF. Must complete before install() below — the
    // metrics registry is process-global and cannot be uninstalled, so
    // the clean baseline has to be measured first.
    let off: Vec<_> = THREADS
        .iter()
        .map(|&n| {
            let out = phj_exec::parallel_join_sim(&cfg, &gen.build, &gen.probe, n, false, false);
            assert_eq!(out.sink.matches(), gen.expected_matches);
            out
        })
        .collect();

    // Pass 2: identical joins publishing into the now-installed registry.
    let registry = phj_metrics::install();
    let on: Vec<u64> = THREADS
        .iter()
        .map(|&n| {
            let out = phj_exec::parallel_join_sim(&cfg, &gen.build, &gen.probe, n, false, false);
            assert_eq!(out.sink.matches(), gen.expected_matches);
            out.totals.breakdown.total()
        })
        .collect();
    assert!(!registry.scrape().is_empty(), "no metrics were published during the on-pass");

    let mut sim = Table::new(
        "Thread scaling — simulated critical path (deterministic lanes)",
        &[
            "threads",
            "Mcycles",
            "speedup",
            "efficiency",
            "Mcycles_registry",
            "registry_overhead",
        ],
    );
    let mut native = Table::new(
        "Thread scaling — native wall clock (work-stealing pool)",
        &["threads", "ms", "speedup", "efficiency"],
    );
    let mut workers = Table::new(
        "Thread scaling — per-worker busy/idle",
        &["mode", "threads", "worker", "tasks", "busy", "idle"],
    );

    let sim_base = off[0].totals.breakdown.total() as f64;
    for ((&n, out), &on_cycles) in THREADS.iter().zip(&off).zip(&on) {
        let cp_cycles = out.totals.breakdown.total();
        let s = ratio(sim_base, cp_cycles as f64);
        sim.row(&[
            &n,
            &mcycles(cp_cycles),
            &format!("{s:.2}x"),
            &format!("{:.0}%", 100.0 * s / n as f64),
            &mcycles(on_cycles),
            &overhead_pct(cp_cycles, on_cycles),
        ]);
        // A lane's idle share is the gap between it and the critical path.
        for lane in &out.lanes {
            workers.row(&[
                &"sim",
                &n,
                &lane.lane,
                &lane.tasks,
                &format!("{} Mcyc", mcycles(lane.cycles)),
                &format!("{} Mcyc", mcycles(cp_cycles.saturating_sub(lane.cycles))),
            ]);
        }
    }

    // The median of REPS timed joins, with that join's outcome.
    let native_join = |n: usize| {
        let mut runs: Vec<_> = (0..REPS)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let out = phj_exec::parallel_join_native(&cfg, &gen.build, &gen.probe, n, false);
                assert_eq!(out.sink.matches(), gen.expected_matches);
                (t0.elapsed().as_secs_f64() * 1e3, out)
            })
            .collect();
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        runs.swap_remove(REPS / 2)
    };

    let mut native_base = 0.0;
    let mut native_ms = Vec::with_capacity(THREADS.len());
    for (i, &n) in THREADS.iter().enumerate() {
        let (ms, out) = native_join(n);
        native_ms.push(ms);
        if i == 0 {
            native_base = ms;
        }
        let s = ratio(native_base, ms);
        native.row(&[
            &n,
            &format!("{ms:.1}"),
            &format!("{s:.2}x"),
            &format!("{:.0}%", 100.0 * s / n as f64),
        ]);
        for (phase, stats) in [("partition", &out.partition_stats), ("join", &out.join_stats)] {
            for w in stats.iter() {
                workers.row(&[
                    &format!("native/{phase}"),
                    &n,
                    &w.worker,
                    &w.tasks,
                    &format!("{:.2} ms", w.busy_ns as f64 / 1e6),
                    &format!("{:.2} ms", w.idle_ns as f64 / 1e6),
                ]);
            }
        }
    }

    // Pass 4: the flight recorder on. install() is irreversible
    // (process-global, like the metrics registry), so the recorder-off
    // native baseline above had to run first.
    let rec = phj_flightrec::install();
    let phase_ms: Vec<f64> = THREADS.iter().map(|&n| native_join(n).0).collect();
    assert!(rec.total_written() > 0, "the flightrec pass recorded no events");

    let mut flight = Table::new(
        "Thread scaling — flight-recorder overhead (native wall clock)",
        &["threads", "ms_off", "ms_phase", "phase_overhead"],
    );
    for (i, &n) in THREADS.iter().enumerate() {
        let overhead = if native_ms[i] > 0.0 {
            format!("{:+.2}%", (phase_ms[i] - native_ms[i]) / native_ms[i] * 100.0)
        } else {
            "n/a".into()
        };
        flight.row(&[
            &n,
            &format!("{:.1}", native_ms[i]),
            &format!("{:.1}", phase_ms[i]),
            &overhead,
        ]);
    }

    sim.emit("scaling_join_sim");
    native.emit("scaling_join_native");
    workers.emit("scaling_join_workers");
    flight.emit("scaling_join_flightrec");
}
