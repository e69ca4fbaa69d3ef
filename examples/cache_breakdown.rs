//! See *why* prefetching helps: run the same join under the cycle-level
//! memory-hierarchy simulator and print the execution-time breakdowns
//! (busy / data-cache stall / TLB stall / other) and cache statistics for
//! all four schemes — a miniature of the paper's Figures 1 and 11.
//!
//! Run with `cargo run --release --example cache_breakdown`.

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{JoinSink, OutputWriter};
use phj_memsim::SimEngine;
use phj_workload::JoinSpec;

fn main() {
    let spec = JoinSpec {
        build_tuples: 100_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 42,
    };
    let gen = spec.generate();
    println!(
        "joining {} x {} tuples of 100B under the Table-2 simulator\n",
        gen.build.num_tuples(),
        gen.probe.num_tuples()
    );
    println!(
        "{:<10} {:>9} {:>7} {:>8} {:>6} {:>6}  {:>9} {:>9}",
        "scheme", "Mcycles", "busy%", "dcache%", "tlb%", "other%", "mem miss", "pf issued"
    );
    let mut baseline = 0u64;
    for (name, scheme) in [
        ("baseline", JoinScheme::Baseline),
        ("simple", JoinScheme::Simple),
        ("group", JoinScheme::Group { g: 16 }),
        ("swp", JoinScheme::Swp { d: 1 }),
    ] {
        let mut mem = SimEngine::paper();
        let mut sink =
            OutputWriter::new(gen.build.schema().clone(), gen.probe.schema().clone());
        join_pair(
            &mut mem,
            &JoinParams { scheme, use_stored_hash: true },
            &gen.build,
            &gen.probe,
            1,
            &mut sink,
            None,
        );
        assert_eq!(sink.matches(), gen.expected_matches);
        let b = mem.breakdown();
        let s = mem.stats();
        if baseline == 0 {
            baseline = b.total();
        }
        let pct = |x: u64| 100.0 * x as f64 / b.total() as f64;
        println!(
            "{:<10} {:>9.1} {:>6.0}% {:>7.0}% {:>5.0}% {:>5.0}%  {:>9} {:>9}   ({:.2}x)",
            name,
            b.total() as f64 / 1e6,
            pct(b.busy),
            pct(b.dcache_stall),
            pct(b.dtlb_stall),
            pct(b.other_stall),
            s.mem_misses,
            s.prefetches,
            baseline as f64 / b.total() as f64,
        );
    }
    println!("\nThe staged schemes turn memory stalls into busy time — the");
    println!("paper's core result (Figs 1 and 11).");
}
