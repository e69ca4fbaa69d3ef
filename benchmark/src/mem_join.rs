//! `mem_join_large`, `mem_join_par` and `mem_join_cached`: the
//! in-memory GRACE join, sequential and parallel, out of and in cache.

use std::time::Instant;

use phj::grace::{grace_join_with_sink, grace_join_with_sink_rec, GraceConfig};
use phj::join::{dispatch_build, dispatch_probe, JoinParams, JoinScheme};
use phj::partition::{partition_relation, PartitionScheme};
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj::table::HashTable;
use phj_exec::{parallel_join_native, Pool};
use phj_memsim::NativeModel;
use phj_obs::Recorder;
use phj_storage::Relation;
use phj_workload::{GeneratedJoin, JoinSpec};

use crate::harness::{nproc, overhead_pct, repeat_setup, timed_loop, Outcome, RunArgs};
use crate::spec::SCHEMES;
use crate::stats::{self, tail_percentile};
use crate::trace::Tracer;

/// Join-phase memory budget of the in-memory workloads.
const MEM_BUDGET: usize = 8 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Large,
    Par,
    Cached,
}

impl Kind {
    fn spec(self, seed: u64) -> JoinSpec {
        match self {
            // 480 k x 960 k tuples of 100 B, two matches per build tuple.
            Kind::Large | Kind::Par => JoinSpec {
                seed,
                ..JoinSpec::pivot(50 << 20)
            },
            // ~600 KB in total: one partition, cache-resident.
            Kind::Cached => JoinSpec {
                build_tuples: 2000,
                tuple_size: 100,
                matches_per_build: 2,
                pct_match: 100,
                seed,
            },
        }
    }

    /// Operations every run completes, whatever the host's speed; the
    /// tail percentile is chosen for this count so it never changes
    /// between runs of one length.
    fn min_ops(self, seconds: f64) -> usize {
        let per_s = match self {
            Kind::Large | Kind::Par => 1.0,
            Kind::Cached => 300.0,
        };
        (per_s * seconds).ceil() as usize
    }

    /// Highest percentile `op_tail_ms` may be read at. The cached join
    /// takes about a millisecond, and on the shared sandbox bursts of
    /// host noise hit a few percent of such operations in some runs:
    /// its p95 and p99 doubled in four runs of ten while p90 held.
    fn tail_cap(self) -> f64 {
        match self {
            Kind::Large | Kind::Par => 99.0,
            Kind::Cached => 90.0,
        }
    }
}

/// The schemes behind each name in [`SCHEMES`].
pub fn partition_schemes() -> [PartitionScheme; 4] {
    [
        PartitionScheme::Baseline,
        PartitionScheme::Simple,
        PartitionScheme::Group { g: 12 },
        PartitionScheme::Swp { d: 1 },
    ]
}

pub fn join_schemes() -> [JoinScheme; 4] {
    [
        JoinScheme::Baseline,
        JoinScheme::Simple,
        JoinScheme::Group { g: 16 },
        JoinScheme::Swp { d: 1 },
    ]
}

/// The configuration the end-to-end metrics measure.
fn shipped_config() -> GraceConfig {
    GraceConfig {
        mem_budget: MEM_BUDGET,
        partition_scheme: PartitionScheme::combined_default(),
        join_scheme: JoinScheme::Group { g: 16 },
        ..GraceConfig::default()
    }
}

/// Generated input plus what every answer must equal.
pub struct Input {
    pub gen: GeneratedJoin,
    pub oracle: (u64, u64),
    pub generate_ns: f64,
    pub oracle_ok: bool,
}

impl Input {
    pub fn tuples(&self) -> usize {
        self.gen.build.num_tuples() + self.gen.probe.num_tuples()
    }

    pub fn check(&self, sink: &CountSink) -> bool {
        (sink.matches(), sink.checksum()) == self.oracle
    }
}

/// Generate the relations and compute the oracle once with the
/// sequential baseline kernels; it must also agree with the workload's
/// own `expected_matches`.
pub fn setup(spec: JoinSpec) -> Input {
    let t0 = Instant::now();
    let gen = spec.generate();
    let generate_ns = t0.elapsed().as_nanos() as f64;
    let cfg = GraceConfig {
        partition_scheme: PartitionScheme::Baseline,
        join_scheme: JoinScheme::Baseline,
        ..shipped_config()
    };
    let mut sink = CountSink::new();
    grace_join_with_sink(&mut NativeModel, &cfg, &gen.build, &gen.probe, &mut sink);
    let oracle_ok = sink.matches() == gen.expected_matches;
    Input {
        oracle: (sink.matches(), sink.checksum()),
        gen,
        generate_ns,
        oracle_ok,
    }
}

/// Build and probe one partition pair, one span per kernel call.
#[allow(clippy::too_many_arguments)]
fn join_pair(
    tr: &mut Tracer,
    scheme: JoinScheme,
    suffix: &str,
    build: &Relation,
    probe: &Relation,
    partitions: usize,
    use_stored_hash: bool,
    sink: &mut CountSink,
) {
    let mut mem = NativeModel;
    let params = JoinParams {
        scheme,
        use_stored_hash,
    };
    let buckets = plan::hash_table_buckets(build.num_tuples(), partitions);
    let mut table = HashTable::new(buckets, build.num_tuples());
    tr.span(&format!("core.build{suffix}"), || {
        dispatch_build(&mut mem, &params, &mut table, build)
    });
    tr.span(&format!("core.probe{suffix}"), || {
        dispatch_probe(&mut mem, &params, &table, build, probe, sink)
    });
}

/// The GRACE join rebuilt from the `pub` kernels so each layer call
/// gets its own span (`core.partition<suffix>`, `core.build<suffix>`,
/// `core.probe<suffix>`): partition both sides, then build and probe
/// every pair — the steps `grace_join_with_sink` takes on these inputs.
fn composed_join(
    tr: &mut Tracer,
    input: &Input,
    pscheme: PartitionScheme,
    jscheme: JoinScheme,
    suffix: &str,
) -> (CountSink, usize) {
    let (build, probe) = (&input.gen.build, &input.gen.probe);
    let mut sink = CountSink::new();
    let needed = plan::num_partitions(build.size_bytes(), MEM_BUDGET);
    if needed <= 1 {
        join_pair(tr, jscheme, suffix, build, probe, 1, false, &mut sink);
        return (sink, 1);
    }
    let p = plan::coprime_partitions(needed, 1);
    let name = format!("core.partition{suffix}");
    let bp = tr.span(&name, || {
        partition_relation(&mut NativeModel, pscheme, build, p, false)
    });
    let pp = tr.span(&name, || {
        partition_relation(&mut NativeModel, pscheme, probe, p, false)
    });
    for (b, q) in bp.iter().zip(&pp) {
        join_pair(tr, jscheme, suffix, b, q, p, true, &mut sink);
    }
    (sink, p)
}

pub fn run(kind: Kind, args: &RunArgs) -> Outcome {
    let min_ops = kind.min_ops(args.seconds);
    let mut out = Outcome::new(tail_percentile(min_ops).min(kind.tail_cap()));
    let (input, setup_s) = repeat_setup(|| setup(kind.spec(args.seed)));
    out.record_setup(setup_s, input.oracle_ok);
    let cfg = shipped_config();
    let threads = nproc().min(4);
    let untraced_op = |input: &Input| -> bool {
        match kind {
            Kind::Par => {
                let r =
                    parallel_join_native(&cfg, &input.gen.build, &input.gen.probe, threads, false);
                input.check(&r.sink)
            }
            Kind::Large | Kind::Cached => {
                let mut sink = CountSink::new();
                grace_join_with_sink(
                    &mut NativeModel,
                    &cfg,
                    &input.gen.build,
                    &input.gen.probe,
                    &mut sink,
                );
                input.check(&sink)
            }
        }
    };

    if !args.trace {
        let samples = timed_loop(args.seconds, min_ops, |t| t.timed(|| untraced_op(&input)));
        out.set_window(samples, input.tuples() as f64);
        return out;
    }

    // Traced run: a short untraced window first, so the cost of tracing
    // is a measured difference, then the same join with a span around
    // every layer call.
    let reference = timed_loop(args.seconds / 4.0, 3, |t| t.timed(|| untraced_op(&input)));
    out.count(&reference);
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut iteration = 0u64;
    let mut partitions = 0usize;
    let mut par_stats: Vec<[f64; 4]> = Vec::new();
    let traced = timed_loop(args.seconds / 4.0, 3, |t| {
        iteration += 1;
        tr.set_request(iteration);
        t.timed(|| {
            let op = tr.begin("op");
            let ok = if kind == Kind::Par {
                let call = tr.begin("exec.parallel_join_native");
                let r =
                    parallel_join_native(&cfg, &input.gen.build, &input.gen.probe, threads, false);
                tr.end(call);
                partitions = r.partitions;
                par_stats.push(lane_stats(&r));
                input.check(&r.sink)
            } else {
                let (sink, p) =
                    composed_join(&mut tr, &input, cfg.partition_scheme, cfg.join_scheme, "");
                partitions = p;
                input.check(&sink)
            };
            tr.end(op);
            ok
        })
    });
    out.count(&traced);
    let l = &mut out.layers;
    l.set(
        "trace.overhead_pct",
        overhead_pct(reference.median_ms(), traced.median_ms()),
    );
    l.set(
        "workload.generate.ns_per_tuple",
        input.generate_ns / input.tuples() as f64,
    );
    l.set("core.grace.partitions", partitions as f64);
    l.set(
        "core.probe.matches_per_probe",
        input.oracle.0 as f64 / input.gen.probe.num_tuples() as f64,
    );

    if kind == Kind::Par {
        for (i, name) in ["partition_busy_ms", "join_busy_ms", "idle_share", "steals"]
            .iter()
            .enumerate()
        {
            l.set(
                &format!("exec.join.{name}"),
                stats::column_median(&par_stats, i),
            );
        }
        pool_micro(&mut tr, &mut out);
    } else {
        kernel_rounds(&mut tr, &input, args.seconds / 2.0, &mut out);
        recorder_overhead(&input, &cfg, &mut out);
    }
    out.finish_trace(&tr, args);
    out
}

/// `[partition busy ms, join busy ms, idle share, steals]` of one
/// parallel join, summed over workers.
fn lane_stats(r: &phj_exec::NativeJoinOutcome) -> [f64; 4] {
    let sum = |s: &[phj_exec::WorkerStats], f: fn(&phj_exec::WorkerStats) -> u64| {
        s.iter().map(f).sum::<u64>() as f64
    };
    let pb = sum(&r.partition_stats, |w| w.busy_ns);
    let jb = sum(&r.join_stats, |w| w.busy_ns);
    let idle = sum(&r.partition_stats, |w| w.idle_ns) + sum(&r.join_stats, |w| w.idle_ns);
    let steals = sum(&r.partition_stats, |w| w.steals) + sum(&r.join_stats, |w| w.steals);
    [pb / 1e6, jb / 1e6, idle / (pb + jb + idle).max(1.0), steals]
}

/// Every kernel x scheme on this workload's input, round-robin until
/// the time is used (at least one round).
fn kernel_rounds(tr: &mut Tracer, input: &Input, seconds: f64, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t0.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        for (i, s) in SCHEMES.iter().enumerate() {
            tr.set_request(1_000_000 + rounds);
            let id = tr.begin(&format!("kernels.{s}"));
            let (sink, _) = composed_join(
                tr,
                input,
                partition_schemes()[i],
                join_schemes()[i],
                &format!(".{s}"),
            );
            tr.end(id);
            out.verify(input.check(&sink));
        }
    }
    let (b, q) = (
        input.gen.build.num_tuples() as f64,
        input.gen.probe.num_tuples() as f64,
    );
    for s in SCHEMES {
        let r = rounds as f64;
        let l = &mut out.layers;
        l.set(
            &format!("core.partition.{s}.ns_per_tuple"),
            tr.total_ns(&format!("core.partition.{s}")) / (r * (b + q)),
        );
        l.set(
            &format!("core.build.{s}.ns_per_tuple"),
            tr.total_ns(&format!("core.build.{s}")) / (r * b),
        );
        l.set(
            &format!("core.probe.{s}.ns_per_tuple"),
            tr.total_ns(&format!("core.probe.{s}")) / (r * q),
        );
    }
}

/// The same sequential join with the phj-obs recorder off and on.
fn recorder_overhead(input: &Input, cfg: &GraceConfig, out: &mut Outcome) {
    let reps = if input.tuples() > 100_000 { 3 } else { 300 };
    let mut time = |rec: bool| -> f64 {
        let mut recorder = rec.then(Recorder::new);
        let mut sink = CountSink::new();
        let t0 = Instant::now();
        grace_join_with_sink_rec(
            &mut NativeModel,
            cfg,
            &input.gen.build,
            &input.gen.probe,
            &mut sink,
            recorder.as_mut(),
        );
        let ns = t0.elapsed().as_nanos() as f64;
        out.verify(input.check(&sink));
        ns
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        off.push(time(false));
        on.push(time(true));
    }
    out.layers.set(
        "obs.recorder.join_overhead_pct",
        overhead_pct(stats::median(&off), stats::median(&on)),
    );
}

/// The pool alone: no-op tasks and empty fork-join regions.
pub fn pool_micro(tr: &mut Tracer, out: &mut Outcome) {
    let n = nproc();
    let pool = Pool::new(n.max(2) - 1);
    let noop = |_: &mut (), _: usize, _: &()| {};

    const TASKS: usize = 100_000;
    let tasks = vec![(); TASKS];
    let weights = vec![1u64; TASKS];
    let t0 = Instant::now();
    tr.span("exec.pool.execute.tasks", || {
        pool.execute(vec![()], &tasks, &weights, noop)
    });
    out.layers.set(
        "exec.pool.empty_task_ns",
        t0.elapsed().as_nanos() as f64 / TASKS as f64,
    );

    for (workers, name, metric) in [
        (1, "exec.pool.execute.t1", "exec.pool.fork_join_us.t1"),
        (
            n.max(2),
            "exec.pool.execute.tN",
            "exec.pool.fork_join_us.tN",
        ),
    ] {
        let tasks = vec![(); workers];
        let weights = vec![1u64; workers];
        let mut us = Vec::new();
        let id = tr.begin(name);
        for _ in 0..2000 {
            let t0 = Instant::now();
            std::hint::black_box(pool.execute(vec![(); workers], &tasks, &weights, noop));
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        tr.end(id);
        out.layers.set(metric, stats::median(&us));
    }
    pool.shutdown();
}
