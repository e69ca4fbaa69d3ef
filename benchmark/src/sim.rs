//! `sim_figures`: the partition and join kernels under the cycle
//! simulator — the hot loop of the paper-figure matrix.

use std::time::Instant;

use phj::join::{dispatch_build, dispatch_probe, JoinParams, JoinScheme};
use phj::partition::partition_relation;
use phj::plan;
use phj::sink::{CountSink, JoinSink, OutputWriter};
use phj::table::HashTable;
use phj_memsim::{CacheStats, NativeModel, SimEngine};
use phj_workload::JoinSpec;

use crate::harness::{overhead_pct, repeat_setup, timed_loop, Outcome, RunArgs};
use crate::mem_join::{self, join_schemes, partition_schemes, Input};
use crate::spec::SCHEMES;
use crate::stats::tail_percentile;
use crate::trace::{span_opt, Tracer};

/// Join-phase budget: the 20 MB build side splits three ways.
const MEM_BUDGET: usize = 8 << 20;

/// What the simulator reported for one scheme.
#[derive(Clone, Copy, Default)]
struct SchemeRun {
    partition_cycles: u64,
    join_cycles: u64,
    join_stats: CacheStats,
    refs: u64,
}

/// One operation: all four schemes, each on a fresh engine with the
/// paper's memory configuration. Output tuples are materialised, as in
/// the paper's figures. Returns the simulator's numbers and whether
/// every scheme's output equals the oracle's.
fn pass(input: &Input, tr: &mut Option<&mut Tracer>) -> ([SchemeRun; 4], bool, Vec<OutputWriter>) {
    let (build, probe) = (&input.gen.build, &input.gen.probe);
    let p = plan::num_partitions(build.size_bytes(), MEM_BUDGET);
    let mut runs = [SchemeRun::default(); 4];
    let mut outputs = Vec::with_capacity(4);
    for (i, s) in SCHEMES.iter().enumerate() {
        let (pscheme, jscheme) = (partition_schemes()[i], join_schemes()[i]);
        let mut mem = SimEngine::paper();
        let (bp, pp) = span_opt(tr.as_deref_mut(), &format!("memsim.partition.{s}"), || {
            (
                partition_relation(&mut mem, pscheme, build, p, false),
                partition_relation(&mut mem, pscheme, probe, p, false),
            )
        });
        let mid = mem.snapshot();
        let mut sink = OutputWriter::new(build.schema().clone(), probe.schema().clone());
        if matches!(jscheme, JoinScheme::Group { .. } | JoinScheme::Swp { .. }) {
            sink = sink.with_output_prefetch();
        }
        let params = JoinParams {
            scheme: jscheme,
            use_stored_hash: true,
        };
        span_opt(tr.as_deref_mut(), &format!("memsim.join.{s}"), || {
            for (b, q) in bp.iter().zip(&pp) {
                let mut table =
                    HashTable::new(plan::hash_table_buckets(b.num_tuples(), p), b.num_tuples());
                dispatch_build(&mut mem, &params, &mut table, b);
                dispatch_probe(&mut mem, &params, &table, b, q, &mut sink);
            }
        });
        let end = mem.snapshot();
        runs[i] = SchemeRun {
            partition_cycles: mid.breakdown.total(),
            join_cycles: (end.breakdown - mid.breakdown).total(),
            join_stats: end.stats - mid.stats,
            refs: end.stats.visits + end.stats.prefetches,
        };
        outputs.push(sink);
    }
    let ok = outputs.iter().all(|o| o.matches() == input.oracle.0);
    (runs, ok, outputs)
}

/// Digest materialised output the way the oracle's `CountSink` does, so
/// simulated answers are checked tuple by tuple, not only by count.
fn output_matches_oracle(input: &Input, outputs: Vec<OutputWriter>) -> bool {
    let split = input.gen.build.schema().fixed_size();
    outputs.into_iter().all(|o| {
        let mut digest = CountSink::new();
        for (_, t, _) in o.finish().iter() {
            digest.emit(&mut NativeModel, &t[..split], &t[split..]);
        }
        input.check(&digest)
    })
}

pub fn run(args: &RunArgs) -> Outcome {
    let min_ops = (0.2 * args.seconds).ceil() as usize;
    let mut out = Outcome::new(tail_percentile(min_ops));
    let (input, setup_s) = repeat_setup(|| {
        mem_join::setup(JoinSpec {
            seed: args.seed,
            ..JoinSpec::pivot(20 << 20)
        })
    });
    out.record_setup(setup_s, input.oracle_ok);

    // The simulator's counts depend only on the inputs and the heap
    // layout, so the first pass of the process is the one that repeats
    // exactly; later passes see a heap earlier passes have used.
    let mut first: Option<[SchemeRun; 4]> = None;
    let mut op = |t: &mut crate::harness::OpTimer, mut tr: Option<&mut Tracer>| -> bool {
        let (runs, counts_ok, outputs) = t.timed(|| pass(&input, &mut tr));
        first.get_or_insert(runs);
        counts_ok && output_matches_oracle(&input, outputs)
    };

    if !args.trace {
        let samples = timed_loop(args.seconds, min_ops, |t| op(t, None));
        out.set_window(samples, 4.0 * input.tuples() as f64);
        return out;
    }

    let reference = timed_loop(args.seconds / 4.0, 1, |t| op(t, None));
    out.count(&reference);
    let mut tr = Tracer::new(Instant::now(), 0);
    let mut iteration = 0u64;
    let traced = timed_loop(args.seconds / 4.0, 1, |t| {
        iteration += 1;
        tr.set_request(iteration);
        let id = tr.begin("op");
        let ok = op(t, Some(&mut tr));
        tr.end(id);
        ok
    });
    out.count(&traced);

    let runs = first.expect("at least one pass ran");
    let l = &mut out.layers;
    for (s, r) in SCHEMES.iter().zip(&runs) {
        l.set(
            &format!("memsim.partition.{s}.cycles"),
            r.partition_cycles as f64,
        );
        l.set(&format!("memsim.join.{s}.cycles"), r.join_cycles as f64);
        l.set(
            &format!("memsim.join.{s}.mem_misses"),
            r.join_stats.mem_misses as f64,
        );
    }
    let (baseline, group) = (&runs[0], &runs[2]);
    l.set(
        "memsim.join.group.pf_hidden_cycles",
        group.join_stats.pf_hidden_cycles as f64,
    );
    let refs = runs.iter().map(|r| r.refs).sum::<u64>() as f64;
    let pass_ns = reference.median_ms() * 1e6;
    l.set("memsim.refs", refs);
    l.set("memsim.host_ns_per_ref", pass_ns / refs);
    l.set("memsim.mrefs_per_s", refs / pass_ns * 1e3);
    l.set(
        "memsim.join.speedup_group",
        baseline.join_cycles as f64 / group.join_cycles as f64,
    );
    l.set(
        "memsim.partition.speedup_group",
        baseline.partition_cycles as f64 / group.partition_cycles as f64,
    );
    l.set(
        "trace.overhead_pct",
        overhead_pct(reference.median_ms(), traced.median_ms()),
    );
    l.set(
        "workload.generate.ns_per_tuple",
        input.generate_ns / input.tuples() as f64,
    );
    out.notes.push(format!(
        "memsim.join.speedup_group {:.3}x (paper: 2.0-2.9x), memsim.partition.speedup_group {:.3}x (paper: 1.4-2.6x)",
        out.layers.get("memsim.join.speedup_group"),
        out.layers.get("memsim.partition.speedup_group"),
    ));
    out.finish_trace(&tr, args);
    out
}
