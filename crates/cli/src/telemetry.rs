//! CLI wiring for live telemetry.
//!
//! `--metrics-addr`, `--sample-interval`, or `--dashboard` turn the
//! global metrics registry on for the run; without any of them nothing
//! is installed, no threads start, and run reports come out byte-for-byte
//! identical to a build that never heard of telemetry.
//!
//! When enabled:
//! * the background [`Sampler`] scrapes every counter/gauge into a
//!   fixed-capacity ring (`--sample-interval` ms, default 50);
//! * `--metrics-addr HOST:PORT` additionally serves the live registry in
//!   Prometheus text format (`GET /metrics`); port 0 binds an ephemeral
//!   port and prints the resolved address;
//! * `--dashboard` redraws a sparkline view of the ring about once a
//!   second (stderr) and prints the final view when the run ends;
//! * any run report written by the command gains a `timeseries` section
//!   derived from the ring ([`attach`] is called from `ObsOut::write`).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use phj_metrics::{MetricsServer, Sampler, TimeSeriesRing};
use phj_obs::{RunReport, TimeseriesRow, TimeseriesSection};

use crate::args::Args;

/// Samples kept in the ring (oldest dropped beyond this).
const RING_CAP: usize = 600;
/// Sampling interval used when telemetry is on but `--sample-interval`
/// was not given.
const DEFAULT_INTERVAL_MS: usize = 50;

struct State {
    sampler: Option<Sampler>,
    server: Option<MetricsServer>,
    interval_ms: u64,
    dashboard: bool,
    width: usize,
    /// Frozen section, built once when the sampler is stopped.
    section: Option<TimeseriesSection>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// Start telemetry if any of its flags are present. Call once, before
/// the command runs.
pub fn init(args: &Args) -> Result<(), String> {
    let addr = args.get_str("metrics-addr", "");
    let interval_given = !args.get_str("sample-interval", "").is_empty();
    let dashboard = args.flag("dashboard");
    if addr.is_empty() && !interval_given && !dashboard {
        return Ok(());
    }
    let interval_ms = args.get_usize("sample-interval", DEFAULT_INTERVAL_MS)?;
    if interval_ms == 0 {
        return Err("--sample-interval must be at least 1 (milliseconds)".to_string());
    }
    let width = args.get_usize("width", phj_obs::spark::DEFAULT_WIDTH)?;
    let registry = phj_metrics::install().clone();
    let server = match addr.as_str() {
        "" => None,
        addr => {
            let s = MetricsServer::start(addr, registry.clone())
                .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
            outln!("metrics: http://{}/metrics", s.local_addr());
            Some(s)
        }
    };
    let observer = dashboard.then(|| live_observer(interval_ms as u64, width));
    let sampler = Sampler::start(
        registry,
        Duration::from_millis(interval_ms as u64),
        RING_CAP,
        observer,
    );
    *STATE.lock().unwrap() = Some(State {
        sampler: Some(sampler),
        server,
        interval_ms: interval_ms as u64,
        dashboard,
        width,
        section: None,
    });
    Ok(())
}

/// The `--dashboard` live view: redraw the sparkline block on stderr at
/// most once a second (the sampler may tick far faster).
fn live_observer(interval_ms: u64, width: usize) -> Box<dyn Fn(&TimeSeriesRing) + Send> {
    let last_draw = Mutex::new(None::<Instant>);
    Box::new(move |ring| {
        let mut last = last_draw.lock().unwrap();
        if last.is_some_and(|t| t.elapsed() < Duration::from_secs(1)) {
            return;
        }
        *last = Some(Instant::now());
        let sec = section_of(ring, interval_ms);
        if !sec.series.is_empty() {
            eprint!("-- telemetry ({} samples)\n{}", ring.len(), phj_obs::render_timeseries(&sec, width));
        }
    })
}

/// Convert the sampler's ring into the report section shape.
fn section_of(ring: &TimeSeriesRing, interval_ms: u64) -> TimeseriesSection {
    TimeseriesSection {
        interval_ms,
        capacity: ring.capacity() as u64,
        series: ring
            .series()
            .into_iter()
            .map(|s| TimeseriesRow {
                name: s.name,
                min: s.min,
                max: s.max,
                last: s.last,
                points: s.points,
            })
            .collect(),
    }
}

/// Stop the sampler (final sample included) and cache the frozen section.
fn freeze(state: &mut State) -> Option<TimeseriesSection> {
    if let Some(s) = state.sampler.take() {
        let ring = s.stop();
        let sec = section_of(&ring, state.interval_ms);
        // A run with no instrumented work leaves the ring nameless;
        // omitting the section keeps reports meaningful.
        if !sec.series.is_empty() {
            state.section = Some(sec);
        }
    }
    state.section.clone()
}

/// Attach the sampled time series to a run report. No-op (and the report
/// stays byte-identical) when telemetry is off.
pub fn attach(report: &mut RunReport) {
    if let Some(state) = STATE.lock().unwrap().as_mut() {
        report.timeseries = freeze(state);
    }
}

/// End-of-run hook: print the final dashboard view and stop the server.
pub fn finish() {
    if let Some(state) = STATE.lock().unwrap().as_mut() {
        let section = freeze(state);
        if state.dashboard {
            if let Some(sec) = section {
                out!("{}", phj_obs::render_timeseries(&sec, state.width));
            }
        }
        if let Some(srv) = state.server.take() {
            srv.stop();
        }
    }
}
