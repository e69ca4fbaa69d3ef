//! The paper's headline claims (abstract / §1.3 / §7), paper vs measured:
//!
//! * join phase: 2.0–2.9× speedups over GRACE and simple prefetching
//!   (group 2.4–2.9×, swp 2.1–2.7× over baseline; 2.3–2.5× and 2.0–2.3×
//!   over simple);
//! * partition phase: 1.4–2.6× speedups (combined scheme 1.9–2.6×);
//! * two-step cache partitioning 50–150% slower than prefetching;
//! * baseline join spends >73% of user time in data-cache stalls.
//!
//! Also times the four join schemes natively (real `prefetcht0`
//! instructions, wall-clock) as a hardware sanity check.

use std::time::Instant;

use phj::cachepart::CachePartConfig;
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::partition::PartitionScheme;
use phj::sink::CountSink;
use phj_bench::report::{scaled, Table};
use phj_bench::runner::{
    paper_join_schemes, sim_grace, sim_join, sim_partition, sim_two_step,
};
use phj_memsim::{MemConfig, NativeModel};
use phj_workload::{single_relation, JoinSpec};

fn main() {
    let gen = JoinSpec::pivot(scaled(50 << 20)).generate();

    // Join phase. Each scheme's run also lands in the perf-trajectory
    // archive (bench_out/history/headline_join.jsonl) so report_diff
    // --history can flag a creeping slowdown across bench invocations.
    let tuples = (gen.build.num_tuples() + gen.probe.num_tuples()) as u64;
    let mut totals = Vec::new();
    for (name, scheme) in paper_join_schemes(16, 1) {
        let r = sim_join(&gen, scheme, MemConfig::paper(), true);
        let bd = r.breakdown();
        let coverage = r.stats.pf_hidden_cycles as f64
            / (r.stats.pf_hidden_cycles + bd.dcache_stall).max(1) as f64;
        let pollution = if r.stats.prefetches == 0 {
            0.0
        } else {
            r.stats.pf_evicted_unused as f64 / r.stats.prefetches as f64
        };
        phj_bench::report::history_append(
            "headline_join",
            &[("scheme".to_string(), name.to_string())],
            r.total(),
            0,
            tuples,
            coverage,
            pollution,
        );
        totals.push((name, r.total(), bd));
    }
    let base = totals[0].1;
    let simple = totals[1].1;
    let mut t = Table::new(
        "Headline — join phase (paper: group 2.4-2.9x, swp 2.1-2.7x over baseline)",
        &["scheme", "vs baseline", "vs simple", "dcache share"],
    );
    for (name, cyc, bd) in &totals {
        t.row(&[
            name,
            &format!("{:.2}x", base as f64 / *cyc as f64),
            &format!("{:.2}x", simple as f64 / *cyc as f64),
            &format!("{:.0}%", 100.0 * bd.dcache_fraction()),
        ]);
    }
    t.emit("headline_join");

    // Partition phase at both ends of the partition-count range.
    let n = (3_000_000f64 * phj_bench::report::scale()) as usize;
    let input = single_relation(n, 100);
    let mut tp = Table::new(
        "Headline — partition phase (paper: 1.4-2.6x; combined 1.9-2.6x)",
        &["partitions", "simple", "group", "swp", "combined"],
    );
    for nparts in [25usize, 800] {
        let base =
            sim_partition(&input, PartitionScheme::Baseline, nparts, MemConfig::paper())
                .breakdown
                .total();
        let sp = |s| {
            let c = sim_partition(&input, s, nparts, MemConfig::paper()).breakdown.total();
            format!("{:.2}x", base as f64 / c as f64)
        };
        tp.row(&[
            &nparts,
            &sp(PartitionScheme::Simple),
            &sp(PartitionScheme::Group { g: 12 }),
            &sp(PartitionScheme::Swp { d: 1 }),
            &sp(PartitionScheme::combined_default()),
        ]);
    }
    tp.emit("headline_partition");

    // Two-step cache partitioning vs prefetching, end to end.
    let mem_budget = scaled(50 << 20) * 4; // several memory-sized partitions
    let e2e_gen = JoinSpec::pivot(scaled(200 << 20)).generate();
    let cp = CachePartConfig { mem_budget, ..Default::default() };
    let pf = sim_grace(
        &e2e_gen,
        PartitionScheme::combined_default(),
        JoinScheme::Group { g: 16 },
        mem_budget,
        MemConfig::paper(),
    );
    let ts = sim_two_step(&e2e_gen, &cp, MemConfig::paper());
    println!(
        "\nTwo-step cache vs group prefetching (paper: 50-150% slower): {:+.0}%",
        100.0 * (ts.total() as f64 / pf.total() as f64 - 1.0)
    );

    // Native wall-clock sanity check with real prefetch instructions.
    let mut tn = Table::new(
        "Native wall-clock (this machine, real prefetcht0; counting sink)",
        &["scheme", "time", "vs baseline"],
    );
    let mut base_wall = 0.0f64;
    for (name, scheme) in paper_join_schemes(16, 4) {
        let t0 = Instant::now();
        let mut mem = NativeModel;
        let mut sink = CountSink::new();
        join_pair(
            &mut mem,
            &JoinParams { scheme, use_stored_hash: true },
            &gen.build,
            &gen.probe,
            1,
            &mut sink,
            None,
        );
        let dt = t0.elapsed().as_secs_f64();
        if base_wall == 0.0 {
            base_wall = dt;
        }
        tn.row(&[&name, &format!("{:.3}s", dt), &format!("{:.2}x", base_wall / dt)]);
    }
    tn.emit("headline_native");
}
