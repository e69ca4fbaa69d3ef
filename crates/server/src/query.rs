//! Executing one admitted request: generate the workload, run the
//! sequential kernel, produce a validated per-query [`RunReport`].
//!
//! The daemon runs each query with the same single-threaded kernels the
//! CLI's sequential path uses (`grace_join_with_sink_rec`,
//! `aggregate`), so a query's checksum is *definitionally* comparable
//! to `phj join` / `phj agg` with the same knobs — the CI smoke test
//! and `serve_load` both lean on that. Concurrency comes from running
//! many such queries on the shared pool, not from intra-query threads;
//! the memory grant a query holds covers its whole working set
//! (relations + join budget), which is what makes the global budget a
//! real cap.

use std::sync::Arc;
use std::time::Instant;

use phj::aggregate::{aggregate, AggScheme};
use phj::grace::{grace_join_with_sink_rec, GraceConfig};
use phj::join::JoinScheme;
use phj::partition::PartitionScheme;
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_disk::{grace_join_files_rec, DiskGraceConfig, DiskJoinMode, FileRelation, LiveBudget};
use phj_memsim::{MemoryModel, NativeModel};
use phj_obs::{Recorder, RunReport};
use phj_workload::JoinSpec;

use crate::proto::{AggRequest, DiskJoinRequest, JoinRequest, Request, WireScheme};

/// Result kind tag: a hash join.
pub const KIND_JOIN: u8 = 1;
/// Result kind tag: an aggregation.
pub const KIND_AGG: u8 = 2;
/// Result kind tag: an on-disk join.
pub const KIND_DISK: u8 = 3;

/// Short name of a result kind tag (`phj top`'s KIND column); `"?"`
/// for a tag no `KIND_*` constant names.
pub fn kind_name(kind: u8) -> &'static str {
    match kind {
        KIND_JOIN => "join",
        KIND_AGG => "agg",
        KIND_DISK => "disk",
        _ => "?",
    }
}

/// Tuples above this cannot be generated (they approach the 8 KiB page
/// bound); rejected up front as a bad request.
const MAX_TUPLE_SIZE: u32 = 2048;

/// What one query produced, ready to frame as a
/// [`QueryResult`](crate::proto::QueryResult).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// [`KIND_JOIN`], [`KIND_AGG`], or [`KIND_DISK`].
    pub kind: u8,
    /// Matches (join) or groups (agg).
    pub matches: u64,
    /// Order-independent result checksum.
    pub checksum: u64,
    /// Partitions produced (join only).
    pub partitions: u64,
    /// The validated per-query RunReport (the server renders it once,
    /// after attaching any `query_trace` section).
    pub report: RunReport,
    /// Wall time generating the input relations, ns.
    pub generate_ns: u64,
    /// Wall time staging both relations to striped files, ns (0 unless
    /// a disk join).
    pub stage_ns: u64,
    /// Wall time in the join / aggregate kernel itself, ns.
    pub kernel_ns: u64,
}

/// Reject requests whose *shape* is invalid before any admission or
/// allocation. Size-based rejection is admission's job (the estimate
/// below), shape-based rejection is this one's.
pub fn validate(req: &Request) -> Result<(), String> {
    match req {
        Request::Join(j) => {
            if j.tuple_size > MAX_TUPLE_SIZE {
                return Err(format!("tuple_size {} exceeds {MAX_TUPLE_SIZE}", j.tuple_size));
            }
            if j.mem_budget == 0 {
                return Err("mem_budget must be > 0".to_string());
            }
            Ok(())
        }
        Request::DiskJoin(dj) => {
            if dj.tuple_size > MAX_TUPLE_SIZE {
                return Err(format!("tuple_size {} exceeds {MAX_TUPLE_SIZE}", dj.tuple_size));
            }
            if dj.mem_budget == 0 {
                return Err("mem_budget must be > 0".to_string());
            }
            Ok(())
        }
        Request::Agg(_) | Request::Ping | Request::Status => Ok(()),
    }
}

/// Bytes of memory the query needs while running: both generated
/// relations plus the join-phase budget (join), or the input relation
/// plus the group table (agg). Saturating, so hostile cardinalities
/// become a huge estimate that admission rejects as `TooLarge` — never
/// an overflow or an allocation.
pub fn estimated_bytes(req: &Request) -> u64 {
    match req {
        Request::Join(j) => {
            let tuples = j
                .build_tuples
                .saturating_add(j.build_tuples.saturating_mul(j.matches_per_build as u64));
            tuples
                .saturating_mul(j.tuple_size as u64)
                .saturating_add(j.mem_budget)
        }
        Request::Agg(a) => {
            // 100 B tuples (the agg input schema) + ~48 B/group of table.
            let explicit = a.mem_budget;
            let estimate =
                a.rows.saturating_mul(100).saturating_add(a.keys.saturating_mul(48));
            explicit.max(estimate)
        }
        // Disk joins stage their relations on disk — the grant covers
        // exactly the join's working memory, which is also the live
        // budget admission can later revoke parts of.
        Request::DiskJoin(dj) => dj.mem_budget,
        Request::Ping | Request::Status => 0,
    }
}

fn join_scheme(ws: WireScheme) -> JoinScheme {
    match ws {
        WireScheme::Baseline => JoinScheme::Baseline,
        WireScheme::Simple => JoinScheme::Simple,
        WireScheme::Group { g } => JoinScheme::Group { g: g.max(1) as usize },
        WireScheme::Swp { d } => JoinScheme::Swp { d: d.max(1) as usize },
    }
}

fn agg_scheme(ws: WireScheme) -> AggScheme {
    match ws {
        WireScheme::Baseline => AggScheme::Baseline,
        WireScheme::Simple => AggScheme::Simple,
        WireScheme::Group { g } => AggScheme::Group { g: g.max(1) as usize },
        WireScheme::Swp { d } => AggScheme::Swp { d: d.max(1) as usize },
    }
}

/// Run one query to completion on the calling thread. The query id is
/// journaled into the flight recorder (phase events) and fingerprinted
/// into the report (`query_id` key), so one process's observability
/// streams can be demultiplexed per query.
pub fn run(query_id: u64, req: &Request) -> Result<QueryOutcome, String> {
    run_with_budget(query_id, req, None)
}

/// [`run`] with a revocable live budget attached. Only disk joins use
/// the budget (dynamic mode observes shrink requests at page-granular
/// safe points and spills victim partitions); other kinds ignore it.
pub fn run_with_budget(
    query_id: u64,
    req: &Request,
    live: Option<Arc<LiveBudget>>,
) -> Result<QueryOutcome, String> {
    run_in(query_id, req, live, None)
}

/// [`run_with_budget`] with an explicit scratch base directory for
/// disk-join staging (`None` = the system temp dir). The override
/// exists so tests can point the scratch path somewhere that fails
/// deterministically and exercise the error path end to end.
pub fn run_in(
    query_id: u64,
    req: &Request,
    live: Option<Arc<LiveBudget>>,
    scratch: Option<&std::path::Path>,
) -> Result<QueryOutcome, String> {
    phj_flightrec::event(
        phj_flightrec::EventKind::PhaseEnter,
        phj_flightrec::phase_code("query"),
        query_id,
        0,
    );
    let out = match req {
        Request::Join(j) => run_join(query_id, j),
        Request::Agg(a) => run_agg(query_id, a),
        Request::DiskJoin(dj) => run_disk(query_id, dj, live, scratch),
        Request::Ping | Request::Status => Err("not a query".to_string()),
    };
    phj_flightrec::event(
        phj_flightrec::EventKind::PhaseExit,
        phj_flightrec::phase_code("query"),
        query_id,
        out.is_ok() as u64,
    );
    out
}

fn run_join(query_id: u64, j: &JoinRequest) -> Result<QueryOutcome, String> {
    let spec = JoinSpec {
        build_tuples: j.build_tuples as usize,
        tuple_size: j.tuple_size as usize,
        matches_per_build: j.matches_per_build as usize,
        pct_match: j.pct_match,
        seed: j.seed,
    };
    let g0 = Instant::now();
    let gen = spec.generate();
    let generate_ns = g0.elapsed().as_nanos() as u64;
    let cfg = GraceConfig {
        mem_budget: j.mem_budget as usize,
        partition_scheme: PartitionScheme::combined_default(),
        join_scheme: join_scheme(j.scheme),
        ..Default::default()
    };
    let mut native = NativeModel;
    let mut recorder = Recorder::new();
    let root = recorder.begin("run", native.snapshot());
    let mut sink = CountSink::new();
    let t0 = Instant::now();
    let partitions =
        grace_join_with_sink_rec(&mut native, &cfg, &gen.build, &gen.probe, &mut sink, Some(&mut recorder));
    let wall = t0.elapsed();
    recorder.end(root, native.snapshot());

    let mut report =
        RunReport::from_recorder("join", recorder, native.snapshot(), wall.as_nanos() as u64);
    report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
    report.matches = sink.matches();
    report.config_kv("query_id", query_id);
    report.config_kv("scheme", j.scheme.label());
    report.config_kv("tuple_size", j.tuple_size);
    report.config_kv("build_tuples", j.build_tuples);
    report.config_kv("probe_tuples", spec.probe_tuples());
    report.config_kv("mem_budget", j.mem_budget);
    report.config_kv("seed", j.seed);
    report.validate()?;

    if gen.expected_matches > 0 && sink.matches() != gen.expected_matches {
        return Err(format!(
            "join produced {} matches, workload oracle expects {}",
            sink.matches(),
            gen.expected_matches
        ));
    }
    Ok(QueryOutcome {
        kind: KIND_JOIN,
        matches: sink.matches(),
        checksum: sink.checksum(),
        partitions: partitions as u64,
        report,
        generate_ns,
        stage_ns: 0,
        kernel_ns: wall.as_nanos() as u64,
    })
}

fn run_agg(query_id: u64, a: &AggRequest) -> Result<QueryOutcome, String> {
    let rows = a.rows as usize;
    let keys = a.keys as usize;
    // Same input construction as `phj agg`: 100 B key+payload tuples,
    // key space folded down to `keys` distinct values.
    let g0 = Instant::now();
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
    let generate_ns = g0.elapsed().as_nanos() as u64;
    let buckets = plan::hash_table_buckets(keys, 1);
    let extract = |t: &[u8]| t[4] as i64;

    let mut native = NativeModel;
    let mut recorder = Recorder::new();
    let root = recorder.begin("run", native.snapshot());
    let inner = recorder.begin("aggregate", native.snapshot());
    let t0 = Instant::now();
    let table = aggregate(&mut native, agg_scheme(a.scheme), &input, buckets, extract);
    let wall = t0.elapsed();
    recorder.end(inner, native.snapshot());
    recorder.end(root, native.snapshot());

    let mut report =
        RunReport::from_recorder("agg", recorder, native.snapshot(), wall.as_nanos() as u64);
    report.tuples = rows as u64;
    report.matches = table.num_groups() as u64;
    report.config_kv("query_id", query_id);
    report.config_kv("scheme", a.scheme.label());
    report.config_kv("rows", rows);
    report.config_kv("keys", keys);
    report.validate()?;

    Ok(QueryOutcome {
        kind: KIND_AGG,
        matches: table.num_groups() as u64,
        checksum: phj_exec::agg_checksum(&table),
        partitions: 0,
        report,
        generate_ns,
        stage_ns: 0,
        kernel_ns: wall.as_nanos() as u64,
    })
}

fn run_disk(
    query_id: u64,
    dj: &DiskJoinRequest,
    live: Option<Arc<LiveBudget>>,
    scratch: Option<&std::path::Path>,
) -> Result<QueryOutcome, String> {
    let spec = JoinSpec {
        build_tuples: dj.build_tuples as usize,
        tuple_size: dj.tuple_size as usize,
        matches_per_build: dj.matches_per_build as usize,
        pct_match: dj.pct_match,
        seed: dj.seed,
    };
    let g0 = Instant::now();
    let gen = spec.generate();
    let generate_ns = g0.elapsed().as_nanos() as u64;
    // Each query stages its relations and spill files in its own
    // scratch directory so concurrent disk queries never collide.
    let base = scratch.map(std::path::Path::to_path_buf).unwrap_or_else(std::env::temp_dir);
    let dir = ScratchDir::create(&base, query_id).map_err(|e| format!("scratch dir: {e}"))?;
    run_disk_in(query_id, dj, &spec, &gen, generate_ns, &dir.0, live)
}

/// A disk query's private scratch directory, removed on drop — on the
/// normal return, on an error return, and when a panic unwinds out of
/// staging or the join (the pool catches it and the daemon lives on, so
/// nothing else would ever clean up the stripe files).
struct ScratchDir(std::path::PathBuf);

/// Prefix of every [`ScratchDir`] name: `phj-serve-disk-<pid>-<query>`.
const SCRATCH_PREFIX: &str = "phj-serve-disk-";

impl ScratchDir {
    fn create(base: &std::path::Path, query_id: u64) -> std::io::Result<ScratchDir> {
        let dir = base.join(format!("{SCRATCH_PREFIX}{}-{query_id}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

/// Remove the scratch directories under `base` that a daemon killed
/// without unwinding (SIGKILL, OOM) left behind: those whose `<pid>` is
/// no live process. This process's own and every other live daemon's
/// are kept, and so is any name that does not parse. Best-effort: a
/// `base` that cannot be listed sweeps nothing.
pub(crate) fn sweep_scratch(base: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(base) else { return };
    let me = std::process::id();
    let dead = |name: &str| {
        let Some((pid, query)) = name.strip_prefix(SCRATCH_PREFIX).and_then(|r| r.split_once('-'))
        else {
            return false;
        };
        match (pid.parse::<u32>(), query.parse::<u64>()) {
            (Ok(pid), Ok(_)) => pid != me && !process_alive(pid),
            _ => false,
        }
    };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(dead) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Whether a process with this id exists: `kill(pid, 0)` delivers no
/// signal, and fails with `ESRCH` only when there is no such process.
#[cfg(unix)]
fn process_alive(pid: u32) -> bool {
    const ESRCH: i32 = 3;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // 0 and ids past `i32::MAX` would name process groups, not a process.
    let pid = match i32::try_from(pid) {
        Ok(pid) if pid > 0 => pid,
        _ => return true,
    };
    // SAFETY: signal 0 only checks that `pid` exists and may be signalled.
    let delivered = unsafe { kill(pid, 0) } == 0;
    delivered || std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

#[cfg(not(unix))]
fn process_alive(_pid: u32) -> bool {
    true
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_disk_in(
    query_id: u64,
    dj: &DiskJoinRequest,
    spec: &JoinSpec,
    gen: &phj_workload::GeneratedJoin,
    generate_ns: u64,
    dir: &std::path::Path,
    live: Option<Arc<LiveBudget>>,
) -> Result<QueryOutcome, String> {
    let mode = match dj.mode {
        0 => DiskJoinMode::Grace,
        1 => DiskJoinMode::Hybrid,
        _ => DiskJoinMode::Dynamic,
    };
    let s0 = Instant::now();
    let build = FileRelation::create(dir, "build", &gen.build, 2, 16)
        .map_err(|e| format!("stage build relation: {e}"))?;
    let probe = FileRelation::create(dir, "probe", &gen.probe, 2, 16)
        .map_err(|e| format!("stage probe relation: {e}"))?;
    let stage_ns = s0.elapsed().as_nanos() as u64;

    let cfg = DiskGraceConfig {
        mem_budget: dj.mem_budget as usize,
        mode,
        live_budget: live,
        grant_tag: query_id,
        ..DiskGraceConfig::new(dir)
    };
    let native = NativeModel;
    let mut recorder = Recorder::new();
    let root = recorder.begin("run", native.snapshot());
    let t0 = Instant::now();
    let disk = grace_join_files_rec(&cfg, &build, &probe, Some(&mut recorder))
        .map_err(|e| format!("disk join: {e}"))?;
    let wall = t0.elapsed();
    recorder.end(root, native.snapshot());

    let mut report =
        RunReport::from_recorder("disk_join", recorder, native.snapshot(), wall.as_nanos() as u64);
    report.tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
    report.matches = disk.matches;
    report.config_kv("query_id", query_id);
    report.config_kv("mode", mode.label());
    report.config_kv("tuple_size", dj.tuple_size);
    report.config_kv("build_tuples", dj.build_tuples);
    report.config_kv("probe_tuples", spec.probe_tuples());
    report.config_kv("mem_budget", dj.mem_budget);
    report.config_kv("final_budget", disk.final_budget);
    report.config_kv("resident_partitions", disk.resident_partitions);
    report.config_kv("transitions", disk.transitions.len());
    report.config_kv("degradations", disk.degradation.len());
    report.config_kv("seed", dj.seed);
    report.validate()?;

    if gen.expected_matches > 0 && disk.matches != gen.expected_matches {
        return Err(format!(
            "disk join produced {} matches, workload oracle expects {}",
            disk.matches, gen.expected_matches
        ));
    }
    Ok(QueryOutcome {
        kind: KIND_DISK,
        matches: disk.matches,
        checksum: disk.checksum,
        partitions: disk.num_partitions as u64,
        report,
        generate_ns,
        stage_ns,
        kernel_ns: wall.as_nanos() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn join_req() -> Request {
        Request::Join(JoinRequest {
            build_tuples: 2_000,
            tuple_size: 100,
            matches_per_build: 2,
            pct_match: 100,
            scheme: WireScheme::Group { g: 16 },
            mem_budget: 1 << 20,
            seed: 0x11D0,
            trace_id: 0,
        })
    }

    #[test]
    fn every_kind_has_its_own_name() {
        let kinds = [KIND_JOIN, KIND_AGG, KIND_DISK];
        let names: Vec<&str> = kinds.iter().map(|&k| kind_name(k)).collect();
        assert_eq!(names, ["join", "agg", "disk"]);
        // Unknown tags, either side of the named ones, are not misnamed.
        assert_eq!(kind_name(0), "?");
        assert_eq!(kind_name(KIND_DISK + 1), "?");
    }

    #[test]
    fn join_runs_and_reports_parse_back() {
        let out = run(7, &join_req()).unwrap();
        assert_eq!(out.kind, KIND_JOIN);
        assert_eq!(out.matches, 4_000);
        assert_ne!(out.checksum, 0);
        let report = RunReport::parse(&out.report.render()).unwrap();
        report.validate().unwrap();
        assert!(report.config.iter().any(|(k, v)| k == "query_id" && v == "7"));
        assert_eq!(report.matches, 4_000);
    }

    #[test]
    fn same_request_same_checksum() {
        let a = run(1, &join_req()).unwrap();
        let b = run(2, &join_req()).unwrap();
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn agg_runs_and_counts_groups() {
        let req = Request::Agg(AggRequest {
            rows: 10_000,
            keys: 500,
            scheme: WireScheme::Group { g: 16 },
            mem_budget: 0,
            trace_id: 0,
        });
        let out = run(3, &req).unwrap();
        assert_eq!(out.kind, KIND_AGG);
        assert_eq!(out.matches, 500);
        let report = RunReport::parse(&out.report.render()).unwrap();
        report.validate().unwrap();
    }

    fn disk_req(mode: u8, budget: u64) -> Request {
        Request::DiskJoin(DiskJoinRequest {
            build_tuples: 1_500,
            tuple_size: 48,
            matches_per_build: 2,
            pct_match: 80,
            mem_budget: budget,
            seed: 0xD15C,
            mode,
            trace_id: 0,
        })
    }

    #[test]
    fn disk_modes_agree_on_checksum() {
        let grace = run(11, &disk_req(0, 32 << 10)).unwrap();
        let hybrid = run(12, &disk_req(1, 32 << 10)).unwrap();
        let dynamic = run(13, &disk_req(2, 32 << 10)).unwrap();
        assert_eq!(grace.kind, KIND_DISK);
        assert_ne!(grace.checksum, 0);
        assert_eq!(grace.checksum, hybrid.checksum);
        assert_eq!(grace.checksum, dynamic.checksum);
        assert_eq!(grace.matches, dynamic.matches);
        let report = RunReport::parse(&dynamic.report.render()).unwrap();
        report.validate().unwrap();
        assert!(report.config.iter().any(|(k, v)| k == "mode" && v == "dynamic"));
    }

    #[test]
    fn outcomes_split_exec_into_generate_stage_and_kernel() {
        // What the daemon times as `exec` is the whole `run` call; the
        // three parts must fit inside it.
        let t0 = Instant::now();
        let disk = run(21, &disk_req(2, 32 << 10)).unwrap();
        let exec_ns = t0.elapsed().as_nanos() as u64;
        assert!(disk.generate_ns > 0 && disk.stage_ns > 0 && disk.kernel_ns > 0);
        assert!(
            disk.generate_ns + disk.stage_ns + disk.kernel_ns <= exec_ns,
            "parts {} + {} + {} exceed the exec sample {exec_ns}",
            disk.generate_ns,
            disk.stage_ns,
            disk.kernel_ns
        );

        // Only disk joins stage anything.
        let agg = Request::Agg(AggRequest {
            rows: 10_000,
            keys: 500,
            scheme: WireScheme::Group { g: 16 },
            mem_budget: 0,
            trace_id: 0,
        });
        for out in [run(22, &join_req()).unwrap(), run(23, &agg).unwrap()] {
            assert_eq!(out.stage_ns, 0);
            assert!(out.generate_ns > 0 && out.kernel_ns > 0);
        }
    }

    #[test]
    fn disk_query_honors_a_preshrunk_live_budget() {
        let live = Arc::new(LiveBudget::new(64 << 10));
        live.request_shrink(16 << 10);
        let out = run_with_budget(14, &disk_req(2, 64 << 10), Some(Arc::clone(&live))).unwrap();
        assert_eq!(out.kind, KIND_DISK);
        assert_ne!(out.checksum, 0);
        // The join acked compliance with the shrunken limit.
        assert!(live.acked() <= 16 << 10);
    }

    #[test]
    fn scratch_dir_is_removed_when_the_query_panics() {
        let base = std::env::temp_dir().join(format!("phj-scratch-guard-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let unwound = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(&base, 99).unwrap();
            std::fs::write(dir.0.join("build.0"), b"staged stripe").unwrap();
            panic!("join blew up mid-query");
        });
        assert!(unwound.is_err());
        let left: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
        assert!(left.is_empty(), "scratch leaked past the panic: {left:?}");
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn estimates_saturate_on_hostile_cardinalities() {
        let req = Request::Join(JoinRequest {
            build_tuples: u64::MAX,
            tuple_size: 2048,
            matches_per_build: u32::MAX,
            pct_match: 100,
            scheme: WireScheme::Baseline,
            mem_budget: u64::MAX,
            seed: 0,
            trace_id: 0,
        });
        assert_eq!(estimated_bytes(&req), u64::MAX);
        assert_eq!(estimated_bytes(&Request::Ping), 0);
    }

    #[test]
    fn oversized_tuple_rejected_by_shape_validation() {
        let req = Request::Join(JoinRequest {
            build_tuples: 10,
            tuple_size: 4096,
            matches_per_build: 1,
            pct_match: 100,
            scheme: WireScheme::Baseline,
            mem_budget: 1 << 20,
            seed: 0,
            trace_id: 0,
        });
        assert!(validate(&req).is_err());
    }
}
