//! `phj` — command-line driver for the prefetching hash join engine.
//!
//! ```text
//! phj join   [--build-mb N] [--tuple-size B] [--matches M] [--pct P]
//!            [--scheme baseline|simple|group|swp] [--g G] [--d D]
//!            [--mem-mb N] [--sim] [--hybrid]
//!            [--json PATH] [--trace-out PATH]
//! phj agg    [--rows N] [--keys K] [--scheme ...] [--sim]
//!            [--json PATH] [--trace-out PATH]
//! phj tune   [--build-mb N] [--tuple-size B] [--json PATH] [--trace-out PATH]
//! phj params [--tuple-size B]
//! ```
//!
//! `--sim` runs under the cycle-level memory-hierarchy simulator (Table-2
//! configuration) and prints the execution-time breakdown; without it the
//! join runs natively with real prefetch instructions and reports
//! wall-clock time.
//!
//! `--threads N` routes `join`/`agg` through the morsel-driven parallel
//! executor (`phj-exec`): native runs use a work-stealing thread pool with
//! partition pairs scheduled largest-first; simulated runs execute on `N`
//! deterministic virtual lanes and report the critical-path breakdown.
//! The match count and order-independent checksum are identical for every
//! thread count (a debug-build assertion, and printed so CI can compare).
//!
//! `--json PATH` writes a structured run report (config fingerprint,
//! per-phase spans with cycle breakdowns, derived prefetch-coverage and
//! pollution rates); `--trace-out PATH` writes the same spans as a
//! `chrome://tracing` / Perfetto trace-event file.
//!
//! `--profile-regions` (simulated runs) charges every cache hit, miss,
//! TLB walk, and prefetch outcome to the data structure it touched
//! (bucket headers, hash cells, tuples, partition buffers…) and adds a
//! `regions` section — per-region counters, latency histograms, and the
//! per-partition skew profile — to the JSON report and counter tracks to
//! the trace. `--heatmap` implies it and prints the region × latency
//! heatmap, miss-hotspot table, and skew bars to stdout (`--width` sets
//! the rendered width of heatmaps, skew bars, and sparklines).
//!
//! `--metrics-addr`, `--sample-interval`, and `--dashboard` enable live
//! telemetry: a lock-free registry every engine crate publishes into, a
//! background sampler feeding a time-series ring, an optional Prometheus
//! `/metrics` endpoint, and a `timeseries` section (with Perfetto counter
//! tracks) in the run report. See `crates/cli/src/telemetry.rs`.

use std::process::ExitCode;
use std::time::Instant;

use phj::grace::{grace_join_with_sink_rec, hybrid_join, GraceConfig};
use phj::join::JoinScheme;
use phj::model::{min_group_size, min_prefetch_distance};
use phj::partition::PartitionScheme;
use phj::cost::CostModel;
use phj::sink::{CountSink, JoinSink};
use phj::plan;
use phj_memsim::{MemConfig, MemoryModel, NativeModel, SimEngine};
use phj_obs::{trace_text, Recorder, RunReport};
use phj_workload::{single_relation, tuples_for, JoinSpec};

/// `println!` for the CLI's output: a reader that stops reading stdout
/// (`phj help | head -1`) ends the run with exit 0 ([`write_stdout`]).
macro_rules! outln {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*), true) };
}

/// `print!` for the CLI's output, as [`outln!`].
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*), false) };
}

mod args;
mod log;
mod serve;
mod telemetry;
mod top;
use args::Args;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `explain` and `blackbox` take a positional path ahead of their
    // flags — the only positionals in the CLI, peeled off before flag
    // parsing.
    let mut rest: Vec<String> = argv.collect();
    let mut positional = None;
    if matches!(cmd.as_str(), "explain" | "blackbox")
        && rest.first().is_some_and(|a| !a.starts_with("--"))
    {
        positional = Some(rest.remove(0));
    }
    let args = match Args::parse(rest.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match log::parse(&args.get_str("log-format", "text")) {
        Ok(f) => log::init(f),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // The flight recorder is always on (phase granularity) unless
    // `--flightrec off`; a crash, typed failure, or SIGTERM then dumps
    // the journal as a postmortem (`--postmortem PATH`).
    match phj_flightrec::Mode::parse(&args.get_str("flightrec", "phase")) {
        Ok(Some(mode)) => {
            phj_flightrec::install(mode);
            phj_flightrec::install_crash_hooks();
            phj_flightrec::set_postmortem_path(args.get_str("postmortem", "postmortem.json"));
            phj_flightrec::set_context_provider(Box::new(postmortem_context));
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: --flightrec: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // Telemetry starts before the command so the sampler and /metrics
    // endpoint observe the whole run; with none of its flags present
    // this is a no-op and nothing is installed.
    if let Err(e) = telemetry::init(&args) {
        eprintln!("error: {e}\n\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let result = match cmd.as_str() {
        "join" => cmd_join(&args),
        "agg" => cmd_agg(&args),
        "disk" => cmd_disk(&args),
        "serve" => serve::cmd_serve(&args),
        "client" => serve::cmd_client(&args),
        "top" => top::cmd_top(&args),
        "tune" => cmd_tune(&args),
        "params" => cmd_params(&args),
        "explain" => match &positional {
            Some(path) => cmd_explain(path, &args),
            None => Err("explain needs a report path: phj explain <report.json>".to_string()),
        },
        "blackbox" => match &positional {
            Some(path) => cmd_blackbox(path, &args),
            None => {
                Err("blackbox needs a dump path: phj blackbox <postmortem.json>".to_string())
            }
        },
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    telemetry::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Runtime failures (I/O faults, corruption, overflow) get the
            // rendered error chain only; usage is for argument mistakes.
            eprintln!("error: {e}");
            // A typed failure after real work is a crash as far as the
            // flight recorder is concerned: dump the black box. Argument
            // mistakes never recorded an event, so they skip this.
            if phj_flightrec::global().is_some_and(|r| r.total_written() > 0) {
                match phj_flightrec::dump(phj_flightrec::Cause::TypedError, &e) {
                    Ok(Some(path)) => eprintln!("postmortem: {}", path.display()),
                    Ok(None) => {}
                    Err(io) => eprintln!("warning: postmortem dump failed: {io}"),
                }
            }
            ExitCode::FAILURE
        }
    }
}

/// Write `args` (and a newline) to stdout. A closed stdout (`EPIPE`) is
/// not a crash: whoever wanted the output has gone, so the process exits
/// 0 at once — no panic, hence no postmortem. Any other write error
/// panics as `println!` does.
fn write_stdout(args: std::fmt::Arguments, newline: bool) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_fmt(args).and_then(|()| match newline {
        true => stdout.write_all(b"\n"),
        false => Ok(()),
    });
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Extra context attached to postmortem dumps: the live metrics registry
/// (when telemetry is on) flattened to one JSON object. Values must be
/// pre-rendered JSON — the flight recorder never learns the schema.
fn postmortem_context() -> Vec<(String, String)> {
    let Some(reg) = phj_metrics::global() else { return Vec::new() };
    let mut obj = Vec::new();
    for f in reg.scrape() {
        obj.push((f.name.clone(), phj_obs::json::Json::U64(f.value)));
    }
    if obj.is_empty() {
        return Vec::new();
    }
    vec![("metrics".to_string(), phj_obs::json::Json::Obj(obj).render())]
}

const USAGE: &str = "\
phj — prefetching hash join engine (Chen et al., ICDE 2004)

USAGE:
  phj join   [--build-mb N] [--tuple-size B] [--matches M] [--pct P]
             [--scheme baseline|simple|group|swp] [--g G] [--d D]
             [--mem-mb N] [--sim] [--hybrid] [--threads N]
             [--profile-regions] [--heatmap] [--width W]
             [--json PATH] [--trace-out PATH] [DIAGNOSIS] [TELEMETRY]
  phj agg    [--rows N] [--keys K] [--scheme S] [--g G] [--d D] [--sim]
             [--threads N] [--profile-regions] [--heatmap] [--width W]
             [--json PATH] [--trace-out PATH] [DIAGNOSIS] [TELEMETRY]
  phj disk   [--build-mb N] [--mem-mb N] [--mem-budget BYTES] [--stripes S]
             [--mode grace|hybrid|dynamic] [--dir PATH] [--fault-plan SPEC]
             [--json PATH] [DIAGNOSIS] [TELEMETRY]
             --mode is the residency policy of the one disk-join driver
             (default dynamic, here and in `phj client --query disk`);
             an oversized partition repartitions while it shrinks, else
             joins in budget-sized chunks
  phj tune   [--build-mb N] [--tuple-size B] [--profile-regions] [--heatmap]
             [--width W] [--json PATH] [--trace-out PATH] [DIAGNOSIS]
             [TELEMETRY]
  phj serve  [--addr HOST:PORT] [--threads N] [--mem-mb N | --mem-budget BYTES]
             [--min-grant-mb N] [--max-queue N] [--trace]
             [--slow-query-ms MS] [--slow-query-sheds N]
             [--slow-query-dir PATH] [--slow-query-keep N]
             [--scratch-dir PATH] [TELEMETRY]
             query-service daemon: prints `serving on ADDR` (port 0 =
             ephemeral), runs queries concurrently under one memory
             budget, stops cleanly on SIGTERM/SIGINT. --trace attaches a
             `query_trace` section to every result report; the slow-query
             flags dump a bounded ring of flightrec captures (renderable
             by `phj blackbox`) for queries over the latency/shed bar
  phj client --addr HOST:PORT [--query join|agg|disk|ping] [--seed S]
             [--mode grace|hybrid|dynamic] [--trace] [--trace-id X]
             [--trace-out PATH] [--json PATH] [join/agg knobs as above]
             send one query to a daemon; prints the same result line as
             the local drivers, so outputs diff textually. --trace mints
             a trace id the daemon echoes end-to-end; --trace-out merges
             client send/wait/recv spans with the server's breakdown
             into one Perfetto file with flow arrows
  phj top    --addr HOST:PORT [--interval-ms MS] [--iters N]
             live query table (in-flight + recently completed); one
             snapshot by default, --iters 0 refreshes until interrupted;
             the same table is JSON at the metrics /queries route
  phj explain REPORT.json [--cost-model k=v,...] [--json PATH]
             model-vs-measured diagnosis of a saved run report
  phj blackbox DUMP.json [--width W] [--tail N] [--trace-out PATH]
             render a crash postmortem as per-thread timeline lanes
  phj params [--tuple-size B] [--cost-model k=v,...]
  phj help

DIAGNOSIS:
  --explain                  after the run, print the model-vs-measured
                             diagnosis and attach the `analysis` section
                             to the report
  --cost-model k=v,...       override calibrated stage costs (keys:
                             hash_fn, mod, hash_reuse, header_check,
                             cell_check, cell_write, key_compare,
                             tuple_fetch, copy_base, copy_bpc)

TELEMETRY (any of these turns live metrics on; none = zero overhead):
  --metrics-addr HOST:PORT   serve Prometheus text at GET /metrics and
                             GET /healthz (port 0 = ephemeral; resolved
                             address printed)
  --sample-interval MS       background sampling period (default 50)
  --dashboard                live sparkline view + end-of-run summary

GLOBAL (accepted by every command):
  --flightrec off|phase|full always-on event journal granularity
                             (default phase; full adds per-task, steal-
                             miss, spill, and batch marks)
  --postmortem PATH          where crashes, typed failures, and SIGTERM
                             dump the journal (default postmortem.json)
  --log-format text|json     runtime warning format (degradation steps,
                             fault summaries) on stderr";

/// Where (if anywhere) the observability artifacts of a run go.
struct ObsOut {
    json: Option<String>,
    trace: Option<String>,
    /// `--explain`: run the model-vs-measured diagnosis after the run,
    /// print it, and attach the `analysis` section.
    explain: bool,
    /// The calibration the diagnosis assumes (`--cost-model` overrides).
    cost: CostModel,
}

impl ObsOut {
    fn from_args(args: &Args) -> Result<ObsOut, String> {
        let path = |name: &str| match args.get_str(name, "") {
            s if s.is_empty() => None,
            s => Some(s),
        };
        Ok(ObsOut {
            json: path("json"),
            trace: path("trace-out"),
            explain: args.flag("explain"),
            cost: cost_model_of(args)?,
        })
    }

    /// A recorder, but only when some output wants it — otherwise the
    /// pipeline runs recorder-free. `--explain` counts: the diagnosis
    /// needs a report even when nothing is written to disk.
    fn recorder(&self) -> Option<Recorder> {
        (self.json.is_some() || self.trace.is_some() || self.explain).then(Recorder::new)
    }

    /// Fingerprint the memory-system configuration into the report.
    fn config_mem(report: &mut RunReport, cfg: &MemConfig) {
        report.config_kv("t_full", cfg.t_full);
        report.config_kv("t_next", cfg.t_next);
        report.config_kv("tlb_walk", cfg.tlb_walk);
        report.config_kv("l2_size", cfg.l2_size);
        report.config_kv("line_size", cfg.line_size);
    }

    /// Validate and write the report (and its trace) where requested.
    /// Every report passes through here, so this is also where the
    /// sampled telemetry (if any) joins the report and where `--explain`
    /// runs the diagnosis over the finished run.
    fn write(&self, report: &mut RunReport) -> Result<(), String> {
        telemetry::attach(report);
        attach_flightrec(report);
        if self.explain {
            let sec = phj_analyze::analyze(report, &self.cost);
            out!("{}", phj_analyze::render(report, &sec));
            report.analysis = Some(sec);
        }
        report.validate().map_err(|e| format!("internal: invalid run report: {e}"))?;
        if let Some(path) = &self.json {
            std::fs::write(path, report.render()).map_err(|e| format!("{path}: {e}"))?;
            outln!("run report: {path}");
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, trace_text(report)).map_err(|e| format!("{path}: {e}"))?;
            outln!("trace (load in chrome://tracing or ui.perfetto.dev): {path}");
        }
        Ok(())
    }
}

/// Attach the flight-recorder summary (event counts, ring accounting)
/// to a run report. The section carries no timestamps, so deterministic
/// runs summarize byte-identically; with `--flightrec off` nothing is
/// installed and the report is unchanged.
fn attach_flightrec(report: &mut RunReport) {
    let Some(rec) = phj_flightrec::global() else { return };
    let s = rec.summary();
    report.flightrec = Some(phj_obs::FlightrecSection {
        mode: s.mode.name().to_string(),
        capacity: s.capacity as u64,
        threads: s.threads.len() as u64,
        written: s.written(),
        dropped: s.dropped(),
        counts: phj_flightrec::EventKind::ALL
            .iter()
            .filter(|k| s.counts[**k as usize] > 0)
            .map(|k| (k.name().to_string(), s.counts[*k as usize]))
            .collect(),
    });
}

/// `phj blackbox <postmortem.json>`: validate a crash dump and render
/// its merged timeline as per-thread ASCII lanes (`--width`, `--tail`);
/// `--trace-out PATH` additionally exports it as a Perfetto trace.
fn cmd_blackbox(path: &str, args: &Args) -> Result<(), String> {
    args.allow(&["width", "tail", "trace-out", "log-format", "flightrec", "postmortem"])?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let pm = phj_obs::Postmortem::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    pm.validate().map_err(|e| format!("{path}: invalid postmortem: {e}"))?;
    let width = args.get_usize("width", 100)?;
    let tail = args.get_usize("tail", 20)?;
    out!("{}", pm.render(width, tail));
    let out = args.get_str("trace-out", "");
    if !out.is_empty() {
        std::fs::write(&out, pm.to_trace().render()).map_err(|e| format!("{out}: {e}"))?;
        outln!("trace (load in chrome://tracing or ui.perfetto.dev): {out}");
    }
    Ok(())
}

/// Parse `--cost-model k=v,...` overrides over the calibrated defaults.
fn cost_model_of(args: &Args) -> Result<CostModel, String> {
    CostModel::parse_overrides(&args.get_str("cost-model", ""))
        .map_err(|e| format!("--cost-model: {e}"))
}

/// `phj explain <report.json>`: load, diagnose, and print. `--json PATH`
/// writes the report back out with the `analysis` section attached.
fn cmd_explain(path: &str, args: &Args) -> Result<(), String> {
    args.allow(&["cost-model", "json", "flightrec", "postmortem", "log-format"])?;
    let cost = cost_model_of(args)?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut report = RunReport::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    report.validate().map_err(|e| format!("{path}: invalid report: {e}"))?;
    let sec = phj_analyze::analyze(&report, &cost);
    out!("{}", phj_analyze::render(&report, &sec));
    report.analysis = Some(sec);
    report
        .validate()
        .map_err(|e| format!("internal: analysis section failed validation: {e}"))?;
    let out = args.get_str("json", "");
    if !out.is_empty() {
        std::fs::write(&out, report.render()).map_err(|e| format!("{out}: {e}"))?;
        outln!("annotated report: {out}");
    }
    Ok(())
}

/// Whether either attribution flag is set (`--heatmap` implies
/// profiling — the heatmap is rendered from the region profile).
fn wants_regions(args: &Args) -> bool {
    args.flag("profile-regions") || args.flag("heatmap")
}

/// Heatmap/skew-bar width from `--width` (shared with the sparkline
/// renderer, which applies its own default).
fn heat_width(args: &Args) -> Result<usize, String> {
    args.get_usize("width", phj_obs::heatmap::DEFAULT_WIDTH)
}

/// Attach the engine's region profile (when enabled) to `report` —
/// per-region counters and histograms plus the skew profile derived from
/// the recorded `pair` spans — then print the heatmap if requested.
fn attach_regions(report: &mut RunReport, engine: &SimEngine, heatmap: bool, width: usize) {
    if let Some(p) = engine.region_profile() {
        let mut sec = phj_obs::RegionsSection::from_profiler(&p);
        sec.skew = phj::profile::skew_profile(&report.spans);
        report.regions = Some(sec);
    }
    if heatmap {
        if let Some(text) = phj_obs::heatmap::render_width(report, width) {
            out!("{text}");
        }
    }
}

fn scheme_of(args: &Args) -> Result<JoinScheme, String> {
    let g = args.get_usize("g", 16)?;
    let d = args.get_usize("d", 1)?;
    match args.get_str("scheme", "group").as_str() {
        "baseline" => Ok(JoinScheme::Baseline),
        "simple" => Ok(JoinScheme::Simple),
        "group" => Ok(JoinScheme::Group { g }),
        "swp" => Ok(JoinScheme::Swp { d }),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

fn cmd_join(args: &Args) -> Result<(), String> {
    args.allow(&[
        "build-mb", "tuple-size", "matches", "pct", "scheme", "g", "d", "mem-mb", "sim",
        "hybrid", "threads", "profile-regions", "heatmap", "json", "trace-out",
        "metrics-addr", "sample-interval", "dashboard", "width", "explain", "cost-model",
        "flightrec", "postmortem", "log-format",
    ])?;
    let build_mb = args.get_usize("build-mb", 16)?;
    let tuple_size = args.get_usize("tuple-size", 100)?;
    let spec = JoinSpec {
        build_tuples: tuples_for(build_mb << 20, tuple_size),
        tuple_size,
        matches_per_build: args.get_usize("matches", 2)?,
        pct_match: args.get_usize("pct", 100)?.min(100) as u8,
        seed: 0x11D0,
    };
    let mem_budget = args.get_usize("mem-mb", build_mb.div_ceil(4).max(1))? << 20;
    let scheme = scheme_of(args)?;
    let hybrid = args.flag("hybrid");
    outln!(
        "join: {} build x {} probe tuples of {}B, scheme {}, memory {} MB{}",
        spec.build_tuples,
        spec.probe_tuples(),
        tuple_size,
        scheme.label(),
        mem_budget >> 20,
        if hybrid { ", hybrid" } else { "" }
    );
    let gen = spec.generate();
    let obs_out = ObsOut::from_args(args)?;
    let mut recorder = obs_out.recorder();
    // Attribution needs the span tree (for the skew profile), so the
    // flags force a recorder even without --json/--trace-out.
    if wants_regions(args) && recorder.is_none() {
        recorder = Some(Recorder::new());
    }
    let fingerprint = |report: &mut RunReport| {
        report.config_kv("scheme", scheme.label());
        report.config_kv("tuple_size", tuple_size);
        report.config_kv("build_tuples", spec.build_tuples);
        report.config_kv("probe_tuples", spec.probe_tuples());
        report.config_kv("mem_budget", mem_budget);
        report.config_kv("hybrid", hybrid);
    };
    let grace_cfg = GraceConfig {
        mem_budget,
        partition_scheme: PartitionScheme::combined_default(),
        join_scheme: scheme,
        ..Default::default()
    };
    // `--threads` (even `--threads 1`) routes through the parallel
    // executor, so thread counts print in a comparable format; without
    // the flag the sequential driver runs exactly as before.
    if !args.get_str("threads", "").is_empty() {
        if hybrid {
            return Err("--hybrid runs single-threaded; drop --threads or --hybrid".to_string());
        }
        let threads = args.get_usize("threads", 1)?.max(1);
        return join_parallel(args, &obs_out, &grace_cfg, &gen, &spec, scheme, mem_budget, threads);
    }
    let matches = if args.flag("sim") {
        let mut engine = SimEngine::paper();
        if wants_regions(args) {
            engine.enable_region_profiling();
        }
        let root = recorder
            .as_mut()
            .map(|r| r.begin_profiled("run", engine.snapshot(), engine.latency_hist()));
        let mut sink = CountSink::new();
        let t0 = Instant::now();
        let p = if hybrid {
            hybrid_join(&mut engine, &grace_cfg, &gen.build, &gen.probe, &mut sink, recorder.as_mut())
        } else {
            grace_join_with_sink_rec(&mut engine, &grace_cfg, &gen.build, &gen.probe, &mut sink, recorder.as_mut())
        };
        let wall = t0.elapsed();
        if let (Some(r), Some(root)) = (recorder.as_mut(), root) {
            r.end_profiled(root, engine.snapshot(), engine.latency_hist());
        }
        let b = engine.breakdown();
        outln!("partitions: {p}, matches: {}", sink.matches());
        outln!(
            "simulated: {:.1} Mcycles = busy {:.1} + dcache {:.1} + dtlb {:.1} + other {:.1}",
            b.total() as f64 / 1e6,
            b.busy as f64 / 1e6,
            b.dcache_stall as f64 / 1e6,
            b.dtlb_stall as f64 / 1e6,
            b.other_stall as f64 / 1e6,
        );
        if let Some(rec) = recorder.take() {
            let mut report =
                RunReport::from_recorder("join", rec, engine.snapshot(), wall.as_nanos() as u64);
            report.simulated = true;
            report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
            report.matches = sink.matches();
            fingerprint(&mut report);
            ObsOut::config_mem(&mut report, &MemConfig::paper());
            outln!(
                "prefetch coverage: {:.1}%, pollution: {:.1}%",
                100.0 * report.prefetch_coverage(),
                100.0 * report.pollution_rate()
            );
            attach_regions(&mut report, &engine, args.flag("heatmap"), heat_width(args)?);
            obs_out.write(&mut report)?;
        }
        sink.matches()
    } else {
        if wants_regions(args) {
            outln!("note: --profile-regions/--heatmap attribute simulated accesses; add --sim");
        }
        let mut native = NativeModel;
        let root = recorder.as_mut().map(|r| r.begin("run", native.snapshot()));
        let mut sink = CountSink::new();
        let t0 = Instant::now();
        let p = if hybrid {
            hybrid_join(&mut native, &grace_cfg, &gen.build, &gen.probe, &mut sink, recorder.as_mut())
        } else {
            grace_join_with_sink_rec(&mut native, &grace_cfg, &gen.build, &gen.probe, &mut sink, recorder.as_mut())
        };
        let wall = t0.elapsed();
        if let (Some(r), Some(root)) = (recorder.as_mut(), root) {
            r.end(root, native.snapshot());
        }
        outln!("partitions: {p}, matches: {}", sink.matches());
        outln!(
            "native: {:?} ({:.1} M tuples/s through the probe side)",
            wall,
            gen.probe.num_tuples() as f64 / wall.as_secs_f64() / 1e6
        );
        if let Some(rec) = recorder.take() {
            let mut report =
                RunReport::from_recorder("join", rec, native.snapshot(), wall.as_nanos() as u64);
            report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
            report.matches = sink.matches();
            fingerprint(&mut report);
            obs_out.write(&mut report)?;
        }
        sink.matches()
    };
    if gen.expected_matches > 0 {
        assert_eq!(matches, gen.expected_matches, "join missed matches");
    }
    Ok(())
}

/// The `--threads N` arm of `phj join`: run the morsel-driven parallel
/// drivers from `phj-exec` and report per-worker (native) or per-lane
/// (simulated) accounting alongside the usual result line. The checksum
/// prints unconditionally so runs at different thread counts can be
/// compared textually.
#[allow(clippy::too_many_arguments)]
fn join_parallel(
    args: &Args,
    obs_out: &ObsOut,
    cfg: &GraceConfig,
    gen: &phj_workload::GeneratedJoin,
    spec: &JoinSpec,
    scheme: JoinScheme,
    mem_budget: usize,
    threads: usize,
) -> Result<(), String> {
    let want_regions = wants_regions(args);
    let fingerprint = |report: &mut RunReport| {
        report.config_kv("scheme", scheme.label());
        report.config_kv("tuple_size", spec.tuple_size);
        report.config_kv("build_tuples", spec.build_tuples);
        report.config_kv("probe_tuples", spec.probe_tuples());
        report.config_kv("mem_budget", mem_budget);
        report.config_kv("threads", threads);
        report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
    };
    let matches;
    if args.flag("sim") {
        let want_obs =
            obs_out.json.is_some() || obs_out.trace.is_some() || obs_out.explain || want_regions;
        let t0 = Instant::now();
        let out =
            phj_exec::parallel_join_sim(cfg, &gen.build, &gen.probe, threads, want_obs, want_regions);
        let wall = t0.elapsed();
        matches = out.sink.matches();
        outln!(
            "partitions: {}, matches: {}, checksum: {:#018x}",
            out.partitions,
            out.sink.matches(),
            out.sink.checksum()
        );
        let b = out.totals.breakdown;
        outln!(
            "simulated critical path over {threads} lanes: {:.1} Mcycles = busy {:.1} + dcache {:.1} + dtlb {:.1} + other {:.1}",
            b.total() as f64 / 1e6,
            b.busy as f64 / 1e6,
            b.dcache_stall as f64 / 1e6,
            b.dtlb_stall as f64 / 1e6,
            b.other_stall as f64 / 1e6,
        );
        for lane in &out.lanes {
            outln!(
                "  lane {}: {} tasks, {:.1} Mcycles",
                lane.lane,
                lane.tasks,
                lane.cycles as f64 / 1e6
            );
        }
        if let Some(rec) = out.recorder {
            let mut report =
                RunReport::from_recorder("join", rec, out.totals, wall.as_nanos() as u64);
            report.simulated = true;
            report.matches = out.sink.matches();
            fingerprint(&mut report);
            ObsOut::config_mem(&mut report, &MemConfig::paper());
            outln!(
                "prefetch coverage: {:.1}%, pollution: {:.1}%",
                100.0 * report.prefetch_coverage(),
                100.0 * report.pollution_rate()
            );
            if let Some(mut sec) = out.regions {
                sec.skew = phj::profile::skew_profile(&report.spans);
                report.regions = Some(sec);
            }
            if args.flag("heatmap") {
                if let Some(text) = phj_obs::heatmap::render_width(&report, heat_width(args)?) {
                    out!("{text}");
                }
            }
            obs_out.write(&mut report)?;
        }
    } else {
        if want_regions {
            outln!("note: --profile-regions/--heatmap attribute simulated accesses; add --sim");
        }
        let want_obs = obs_out.json.is_some() || obs_out.trace.is_some() || obs_out.explain;
        let t0 = Instant::now();
        let out = phj_exec::parallel_join_native(cfg, &gen.build, &gen.probe, threads, want_obs);
        let wall = t0.elapsed();
        matches = out.sink.matches();
        outln!(
            "partitions: {}, matches: {}, checksum: {:#018x}",
            out.partitions,
            out.sink.matches(),
            out.sink.checksum()
        );
        outln!(
            "native ({threads} threads): {:?} ({:.1} M tuples/s through the probe side)",
            wall,
            gen.probe.num_tuples() as f64 / wall.as_secs_f64() / 1e6
        );
        for (phase, stats) in [("partition", &out.partition_stats), ("join", &out.join_stats)] {
            for w in stats.iter() {
                outln!(
                    "  {phase} worker {}: {} tasks ({} stolen), busy {:.2} ms, idle {:.2} ms",
                    w.worker,
                    w.tasks,
                    w.steals,
                    w.busy_ns as f64 / 1e6,
                    w.idle_ns as f64 / 1e6
                );
            }
        }
        if let Some(rec) = out.recorder {
            let mut report =
                RunReport::from_recorder("join", rec, phj_memsim::Snapshot::default(), wall.as_nanos() as u64);
            report.matches = out.sink.matches();
            fingerprint(&mut report);
            obs_out.write(&mut report)?;
        }
    }
    if gen.expected_matches > 0 {
        assert_eq!(matches, gen.expected_matches, "parallel join missed matches");
    }
    Ok(())
}

fn cmd_agg(args: &Args) -> Result<(), String> {
    use phj::aggregate::{aggregate, AggScheme};
    args.allow(&[
        "rows", "keys", "scheme", "g", "d", "sim", "threads", "profile-regions", "heatmap",
        "json", "trace-out", "metrics-addr", "sample-interval", "dashboard", "width",
        "explain", "cost-model", "flightrec", "postmortem", "log-format",
    ])?;
    let rows = args.get_usize("rows", 1_000_000)?;
    let keys = args.get_usize("keys", 100_000)?.max(1);
    let scheme = match args.get_str("scheme", "group").as_str() {
        "baseline" => AggScheme::Baseline,
        "simple" => AggScheme::Simple,
        "group" => AggScheme::Group { g: args.get_usize("g", 16)? },
        "swp" => AggScheme::Swp { d: args.get_usize("d", 2)? },
        other => return Err(format!("unknown scheme `{other}`")),
    };
    // Reuse the workload generator, folding the key space down to `keys`.
    let input = {
        use phj_storage::{RelationBuilder, Schema};
        let schema = Schema::key_payload(100);
        let mut b = RelationBuilder::new(schema);
        let mut t = [0u8; 100];
        for i in 0..rows {
            let key = phj_workload::key_of_index((i % keys) as u32);
            t[..4].copy_from_slice(&key.to_le_bytes());
            b.push(&t);
        }
        b.finish()
    };
    let buckets = plan::hash_table_buckets(keys, 1);
    let extract = |t: &[u8]| t[4] as i64;
    outln!("aggregating {rows} rows into {keys} groups ({scheme:?})");
    let obs_out = ObsOut::from_args(args)?;
    if !args.get_str("threads", "").is_empty() {
        let threads = args.get_usize("threads", 1)?.max(1);
        return agg_parallel(args, &obs_out, scheme, &input, buckets, extract, rows, keys, threads);
    }
    let mut recorder = obs_out.recorder();
    if wants_regions(args) && recorder.is_none() {
        recorder = Some(Recorder::new());
    }
    let fingerprint = |report: &mut RunReport, groups: u64| {
        report.config_kv("scheme", format!("{scheme:?}"));
        report.config_kv("rows", rows);
        report.config_kv("keys", keys);
        report.tuples = rows as u64;
        report.matches = groups;
    };
    if args.flag("sim") {
        let mut engine = SimEngine::paper();
        if wants_regions(args) {
            engine.enable_region_profiling();
        }
        let root = recorder
            .as_mut()
            .map(|r| r.begin_profiled("run", engine.snapshot(), engine.latency_hist()));
        let inner = recorder
            .as_mut()
            .map(|r| r.begin_profiled("aggregate", engine.snapshot(), engine.latency_hist()));
        let t0 = Instant::now();
        let table = aggregate(&mut engine, scheme, &input, buckets, extract);
        let wall = t0.elapsed();
        if let Some(r) = recorder.as_mut() {
            r.end_profiled(inner.unwrap(), engine.snapshot(), engine.latency_hist());
            r.end_profiled(root.unwrap(), engine.snapshot(), engine.latency_hist());
        }
        let b = engine.breakdown();
        outln!(
            "groups: {}; simulated {:.1} Mcycles ({:.0}% dcache stalls)",
            table.num_groups(),
            b.total() as f64 / 1e6,
            100.0 * b.dcache_fraction()
        );
        if let Some(rec) = recorder.take() {
            let mut report =
                RunReport::from_recorder("agg", rec, engine.snapshot(), wall.as_nanos() as u64);
            report.simulated = true;
            fingerprint(&mut report, table.num_groups() as u64);
            ObsOut::config_mem(&mut report, &MemConfig::paper());
            attach_regions(&mut report, &engine, args.flag("heatmap"), heat_width(args)?);
            obs_out.write(&mut report)?;
        }
    } else {
        if wants_regions(args) {
            outln!("note: --profile-regions/--heatmap attribute simulated accesses; add --sim");
        }
        let mut native = NativeModel;
        let root = recorder.as_mut().map(|r| r.begin("run", native.snapshot()));
        let inner = recorder.as_mut().map(|r| r.begin("aggregate", native.snapshot()));
        let t0 = Instant::now();
        let table = aggregate(&mut native, scheme, &input, buckets, extract);
        let wall = t0.elapsed();
        if let Some(r) = recorder.as_mut() {
            r.end(inner.unwrap(), native.snapshot());
            r.end(root.unwrap(), native.snapshot());
        }
        outln!("groups: {}; native {:?}", table.num_groups(), wall);
        if let Some(rec) = recorder.take() {
            let mut report =
                RunReport::from_recorder("agg", rec, native.snapshot(), wall.as_nanos() as u64);
            fingerprint(&mut report, table.num_groups() as u64);
            obs_out.write(&mut report)?;
        }
    }
    Ok(())
}

/// The `--threads N` arm of `phj agg`: morsel-parallel aggregation with
/// the group-set digest printed for cross-thread-count comparison.
#[allow(clippy::too_many_arguments)]
fn agg_parallel(
    args: &Args,
    obs_out: &ObsOut,
    scheme: phj::aggregate::AggScheme,
    input: &phj_storage::Relation,
    buckets: usize,
    extract: impl Fn(&[u8]) -> i64 + Sync + Copy,
    rows: usize,
    keys: usize,
    threads: usize,
) -> Result<(), String> {
    let want_regions = wants_regions(args);
    let fingerprint = |report: &mut RunReport, groups: u64| {
        report.config_kv("scheme", format!("{scheme:?}"));
        report.config_kv("rows", rows);
        report.config_kv("keys", keys);
        report.config_kv("threads", threads);
        report.tuples = rows as u64;
        report.matches = groups;
    };
    if args.flag("sim") {
        let want_obs =
            obs_out.json.is_some() || obs_out.trace.is_some() || obs_out.explain || want_regions;
        let t0 = Instant::now();
        let out =
            phj_exec::parallel_agg_sim(scheme, input, buckets, extract, threads, want_obs, want_regions);
        let wall = t0.elapsed();
        let b = out.totals.breakdown;
        outln!(
            "groups: {}, checksum: {:#018x}; simulated critical path over {threads} lanes: {:.1} Mcycles ({:.0}% dcache stalls)",
            out.table.num_groups(),
            phj_exec::agg_checksum(&out.table),
            b.total() as f64 / 1e6,
            100.0 * b.dcache_fraction()
        );
        for lane in &out.lanes {
            outln!(
                "  lane {}: {} tasks, {:.1} Mcycles",
                lane.lane,
                lane.tasks,
                lane.cycles as f64 / 1e6
            );
        }
        if let Some(rec) = out.recorder {
            let mut report =
                RunReport::from_recorder("agg", rec, out.totals, wall.as_nanos() as u64);
            report.simulated = true;
            fingerprint(&mut report, out.table.num_groups() as u64);
            ObsOut::config_mem(&mut report, &MemConfig::paper());
            if let Some(mut sec) = out.regions {
                sec.skew = phj::profile::skew_profile(&report.spans);
                report.regions = Some(sec);
            }
            if args.flag("heatmap") {
                if let Some(text) = phj_obs::heatmap::render_width(&report, heat_width(args)?) {
                    out!("{text}");
                }
            }
            obs_out.write(&mut report)?;
        }
    } else {
        if want_regions {
            outln!("note: --profile-regions/--heatmap attribute simulated accesses; add --sim");
        }
        let want_obs = obs_out.json.is_some() || obs_out.trace.is_some() || obs_out.explain;
        let t0 = Instant::now();
        let out = phj_exec::parallel_agg_native(scheme, input, buckets, extract, threads, want_obs);
        let wall = t0.elapsed();
        outln!(
            "groups: {}, checksum: {:#018x}; native ({threads} threads) {:?}",
            out.table.num_groups(),
            phj_exec::agg_checksum(&out.table),
            wall
        );
        for w in &out.stats {
            outln!(
                "  worker {}: {} tasks ({} stolen), busy {:.2} ms, idle {:.2} ms",
                w.worker,
                w.tasks,
                w.steals,
                w.busy_ns as f64 / 1e6,
                w.idle_ns as f64 / 1e6
            );
        }
        if let Some(rec) = out.recorder {
            let mut report = RunReport::from_recorder(
                "agg",
                rec,
                phj_memsim::Snapshot::default(),
                wall.as_nanos() as u64,
            );
            fingerprint(&mut report, out.table.num_groups() as u64);
            obs_out.write(&mut report)?;
        }
    }
    Ok(())
}

/// Render a disk error with its full cause chain, one `caused by` line
/// per link — the CLI's nonzero-exit diagnostic for I/O and corruption.
fn render_chain(e: &phj_disk::PhjError) -> String {
    use std::error::Error;
    let mut s = e.to_string();
    let mut src = e.source();
    while let Some(c) = src {
        s.push_str("\n  caused by: ");
        s.push_str(&c.to_string());
        src = c.source();
    }
    s
}

fn cmd_disk(args: &Args) -> Result<(), String> {
    args.allow(&[
        "build-mb", "mem-mb", "mem-budget", "stripes", "dir", "fault-plan", "mode", "json",
        "trace-out", "metrics-addr", "sample-interval", "dashboard", "width", "explain",
        "cost-model", "flightrec", "postmortem", "log-format",
    ])?;
    let mode_str = args.get_str("mode", phj_disk::DiskJoinMode::default().label());
    let mode = phj_disk::DiskJoinMode::parse(&mode_str)
        .ok_or_else(|| format!("--mode: unknown `{mode_str}` (grace|hybrid|dynamic)"))?;
    let build_mb = args.get_usize("build-mb", 16)?;
    let mem_mb = args.get_usize("mem-mb", build_mb.div_ceil(4).max(1))?;
    // --mem-budget takes the budget in bytes (wins over --mem-mb), so
    // degradation can be forced below one megabyte.
    let mem_budget = match args.get_usize("mem-budget", 0)? {
        0 => mem_mb << 20,
        bytes => bytes,
    };
    let stripes = args.get_usize("stripes", 6)?.max(1);
    let fault = match args.get_str("fault-plan", "").as_str() {
        "" => phj_disk::FaultPlan::disabled(),
        spec => phj_disk::FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?,
    };
    let retry = phj_disk::RetryPolicy::default();
    let dir = match args.get_str("dir", "").as_str() {
        "" => std::env::temp_dir().join(format!("phj-cli-disk-{}", std::process::id())),
        d => std::path::PathBuf::from(d),
    };
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spec = JoinSpec {
        build_tuples: tuples_for(build_mb << 20, 100),
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 0xD15C,
    };
    let gen = spec.generate();
    outln!(
        "on-disk {} join: {} MB build x {} MB probe across {stripes} stripe files under {}{}",
        mode.label(),
        build_mb,
        2 * build_mb,
        dir.display(),
        if fault.is_active() { " (fault plan active)" } else { "" }
    );
    let mut fb = phj_disk::FileRelation::create(&dir, "build", &gen.build, stripes, 32)
        .map_err(|e| render_chain(&e))?;
    let mut fp = phj_disk::FileRelation::create(&dir, "probe", &gen.probe, stripes, 32)
        .map_err(|e| render_chain(&e))?;
    // Inputs are written clean, then all subsequent I/O runs under the plan.
    fb.set_faults(fault.clone(), retry);
    fp.set_faults(fault.clone(), retry);
    let cfg = phj_disk::DiskGraceConfig {
        mem_budget,
        num_stripes: stripes,
        fault: fault.clone(),
        mode,
        ..phj_disk::DiskGraceConfig::new(&dir)
    };
    let obs_out = ObsOut::from_args(args)?;
    let mut recorder = obs_out.recorder();
    let root = recorder.as_mut().map(|r| r.begin("run", NativeModel.snapshot()));
    let t0 = Instant::now();
    let report = phj_disk::grace_join_files_rec(&cfg, &fb, &fp, recorder.as_mut())
        .map_err(|e| render_chain(&e))?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    if report.matches != gen.expected_matches {
        return Err(format!(
            "wrong match count: {} vs {}",
            report.matches, gen.expected_matches
        ));
    }
    outln!(
        "partitions: {}; partition {:.2}s + join {:.2}s; input stall {:.3}s; {} matches -> {} output pages",
        report.num_partitions,
        report.partition_s,
        report.join_s,
        report.input_stall_s,
        report.matches,
        report.output.num_pages()
    );
    outln!("result checksum: {:#018x}", report.checksum);
    outln!(
        "residency: {} of {} partitions stayed in memory; final budget {} KB",
        report.resident_partitions,
        report.num_partitions,
        report.final_budget >> 10
    );
    // Transition-by-transition attribution, capped: the full list
    // lives in the JSON report's config block and the flightrec.
    const SHOWN: usize = 12;
    for t in report.transitions.iter().take(SHOWN) {
        outln!("  {t}");
    }
    if report.transitions.len() > SHOWN {
        outln!("  ... and {} more transitions", report.transitions.len() - SHOWN);
    }
    for e in &report.degradation {
        let (action, detail) = match e.kind {
            phj_disk::DegradationKind::Repartition { fanout, .. } => ("repartition", fanout as u64),
            phj_disk::DegradationKind::NljFallback { chunks } => ("nlj_fallback", chunks as u64),
        };
        log::warn(
            "degradation",
            &format!("degraded: {e}"),
            &[
                ("partition", e.partition.clone()),
                ("depth", e.depth.to_string()),
                ("bytes", e.bytes.to_string()),
                ("budget", e.budget.to_string()),
                ("action", action.to_string()),
                ("detail", detail.to_string()),
            ],
        );
    }
    if fault.is_active() || report.read_retries + report.write_retries > 0 {
        log::warn(
            "faults",
            &format!(
                "faults: injected={} read_retries={} write_retries={} slow_stall_us={}",
                report.faults_injected, report.read_retries, report.write_retries,
                report.slow_stall_us
            ),
            &[
                ("injected", report.faults_injected.to_string()),
                ("read_retries", report.read_retries.to_string()),
                ("write_retries", report.write_retries.to_string()),
                ("slow_stall_us", report.slow_stall_us.to_string()),
            ],
        );
    }
    if let Some(mut rec) = recorder {
        if let Some(root) = root {
            rec.end(root, NativeModel.snapshot());
        }
        let mut run = RunReport::from_recorder("disk", rec, NativeModel.snapshot(), wall_ns);
        run.tuples = fb.num_tuples() + fp.num_tuples();
        run.matches = report.matches;
        run.config_kv("mem_budget", cfg.mem_budget);
        run.config_kv("mode", mode.label());
        run.config_kv("stripes", stripes);
        run.config_kv("resident_partitions", report.resident_partitions);
        run.config_kv("final_budget", report.final_budget);
        run.config_kv("transitions", report.transitions.len());
        run.config_kv("checksum", format!("{:#018x}", report.checksum));
        if fault.is_active() {
            run.config_kv("fault_seed", fault.seed);
        }
        if fault.is_active() || !report.degradation.is_empty() {
            run.faults = Some(phj_obs::FaultsSection {
                faults_injected: report.faults_injected,
                read_retries: report.read_retries,
                write_retries: report.write_retries,
                slow_stall_us: report.slow_stall_us,
                degradation: report
                    .degradation
                    .iter()
                    .map(|e| phj_obs::DegradationRow {
                        partition: e.partition.clone(),
                        depth: e.depth as u64,
                        bytes: e.bytes,
                        budget: e.budget,
                        action: match e.kind {
                            phj_disk::DegradationKind::Repartition { .. } => "repartition",
                            phj_disk::DegradationKind::NljFallback { .. } => "nlj_fallback",
                        }
                        .to_string(),
                        detail: match e.kind {
                            phj_disk::DegradationKind::Repartition { fanout, .. } => fanout as u64,
                            phj_disk::DegradationKind::NljFallback { chunks } => chunks as u64,
                        },
                    })
                    .collect(),
            });
        }
        obs_out.write(&mut run)?;
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    args.allow(&[
        "build-mb", "tuple-size", "profile-regions", "heatmap", "json", "trace-out",
        "metrics-addr", "sample-interval", "dashboard", "width", "explain", "cost-model",
        "flightrec", "postmortem", "log-format",
    ])?;
    let build_mb = args.get_usize("build-mb", 8)?;
    let tuple_size = args.get_usize("tuple-size", 20)?;
    if wants_regions(args) {
        outln!("note: --profile-regions/--heatmap attribute simulated accesses; tune runs natively");
    }
    let spec = JoinSpec {
        build_tuples: tuples_for(build_mb << 20, tuple_size),
        tuple_size,
        matches_per_build: 2,
        pct_match: 100,
        seed: 0x70E,
    };
    let gen = spec.generate();
    let obs_out = ObsOut::from_args(args)?;
    let mut recorder = obs_out.recorder();
    let root = recorder.as_mut().map(|r| r.begin("run", NativeModel.snapshot()));
    let t0 = Instant::now();
    // Each measured configuration becomes its own span; under the native
    // model wall-clock is the signal, so the spans carry best-of-3 ms.
    let measure = |rec: &mut Option<Recorder>, scheme: JoinScheme| {
        let span = rec.as_mut().map(|r| r.begin("measure", NativeModel.snapshot()));
        if let Some(r) = rec.as_mut() {
            r.meta("scheme", scheme.label());
        }
        let best = (0..3)
            .map(|_| {
                let mut sink = CountSink::new();
                let t0 = Instant::now();
                phj::join::join_pair(
                    &mut NativeModel,
                    &phj::join::JoinParams { scheme, use_stored_hash: true },
                    &gen.build,
                    &gen.probe,
                    1,
                    &mut sink,
                    None,
                );
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        if let Some(r) = rec.as_mut() {
            r.meta("best_ms", format!("{:.3}", best * 1e3));
            r.end(span.unwrap(), NativeModel.snapshot());
        }
        best
    };
    let base = measure(&mut recorder, JoinScheme::Baseline);
    outln!("baseline: {:.1} ms", base * 1e3);
    outln!("  G    ms  speedup");
    for g in [2usize, 4, 8, 16, 32, 64] {
        let t = measure(&mut recorder, JoinScheme::Group { g });
        outln!("{g:>3} {:>6.1}  {:.2}x", t * 1e3, base / t);
    }
    outln!("  D    ms  speedup");
    for d in [1usize, 2, 4, 8, 16] {
        let t = measure(&mut recorder, JoinScheme::Swp { d });
        outln!("{d:>3} {:>6.1}  {:.2}x", t * 1e3, base / t);
    }
    let wall = t0.elapsed();
    if let Some(mut rec) = recorder.take() {
        rec.end(root.unwrap(), NativeModel.snapshot());
        let mut report =
            RunReport::from_recorder("tune", rec, NativeModel.snapshot(), wall.as_nanos() as u64);
        // Full workload fingerprint, so a diffed pair of tune reports can
        // prove it compared like with like.
        report.config_kv("build_mb", build_mb);
        report.config_kv("tuple_size", tuple_size);
        report.config_kv("build_tuples", spec.build_tuples);
        report.config_kv("probe_tuples", spec.probe_tuples());
        report.config_kv("matches_per_build", spec.matches_per_build);
        report.config_kv("pct_match", spec.pct_match);
        report.config_kv("seed", spec.seed);
        report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
        obs_out.write(&mut report)?;
    }
    Ok(())
}

fn cmd_params(args: &Args) -> Result<(), String> {
    args.allow(&["tuple-size", "cost-model", "flightrec", "postmortem", "log-format"])?;
    let tuple_size = args.get_usize("tuple-size", 100)?;
    let cfg = MemConfig::paper();
    let model = cost_model_of(args)?;
    let probe_costs = model.probe_stage_costs(true, 2 * tuple_size);
    let build_costs = model.build_stage_costs(true);
    let part_costs = model.partition_stage_costs(false, tuple_size);
    if model != CostModel::default() {
        let overrides: Vec<String> = model
            .entries()
            .into_iter()
            .zip(CostModel::default().entries())
            .filter(|(a, b)| a.1 != b.1)
            .map(|(a, _)| format!("{}={}", a.0, a.1))
            .collect();
        outln!("cost model overrides: {}", overrides.join(", "));
    }
    outln!("Table-2 memory system: T={} T_next={} cycles", cfg.t_full, cfg.t_next);
    outln!(
        "probe:     Theorem 1 G >= {:<4} Theorem 2 D >= {}",
        min_group_size(cfg.t_full, cfg.t_next, &probe_costs).g,
        min_prefetch_distance(cfg.t_full, cfg.t_next, &probe_costs)
    );
    outln!(
        "build:     Theorem 1 G >= {:<4} Theorem 2 D >= {}",
        min_group_size(cfg.t_full, cfg.t_next, &build_costs).g,
        min_prefetch_distance(cfg.t_full, cfg.t_next, &build_costs)
    );
    outln!(
        "partition: Theorem 1 G >= {:<4} Theorem 2 D >= {}",
        min_group_size(cfg.t_full, cfg.t_next, &part_costs).g,
        min_prefetch_distance(cfg.t_full, cfg.t_next, &part_costs)
    );
    let _ = single_relation(1, tuple_size); // sanity: tuple size valid
    Ok(())
}
