//! Find the best group size G and prefetch distance D on *this* machine.
//!
//! The paper's Theorems 1 and 2 predict the minimal parameters from the
//! memory latency, bandwidth, and per-stage costs; this example sweeps
//! both parameters natively (real prefetch instructions, wall-clock) and
//! prints the measured curve next to the Table-2 predictions, mirroring
//! Figure 12's methodology.
//!
//! Run with `cargo run --release --example tune_parameters`.

use std::time::Instant;

use phj::cost;
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::model::{min_group_size, min_prefetch_distance};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemConfig, NativeModel};
use phj_workload::JoinSpec;

fn measure(gen: &phj_workload::GeneratedJoin, scheme: JoinScheme) -> f64 {
    // Best of three runs to tame noise.
    (0..3)
        .map(|_| {
            let mut mem = NativeModel;
            let mut sink = CountSink::new();
            let t0 = Instant::now();
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
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let spec = JoinSpec {
        build_tuples: 300_000,
        tuple_size: 20,
        matches_per_build: 2,
        pct_match: 100,
        seed: 77,
    };
    let gen = spec.generate();
    let base = measure(&gen, JoinScheme::Baseline);
    println!("baseline: {:.1} ms", base * 1e3);

    let cfg = MemConfig::paper();
    let costs = cost::probe_stage_costs(true, 2 * spec.tuple_size);
    println!(
        "Table-2 predictions: G >= {}, D >= {} (this machine's latency differs)",
        min_group_size(cfg.t_full, cfg.t_next, &costs).g,
        min_prefetch_distance(cfg.t_full, cfg.t_next, &costs)
    );

    println!("\n  G   time(ms)  speedup");
    let mut best = (0usize, f64::INFINITY);
    for g in [2usize, 4, 8, 16, 32, 64] {
        let t = measure(&gen, JoinScheme::Group { g });
        if t < best.1 {
            best = (g, t);
        }
        println!("{g:>3}   {:>7.1}    {:.2}x", t * 1e3, base / t);
    }
    println!("best G on this machine: {}", best.0);

    println!("\n  D   time(ms)  speedup");
    let mut best = (0usize, f64::INFINITY);
    for d in [1usize, 2, 4, 8, 16, 32] {
        let t = measure(&gen, JoinScheme::Swp { d });
        if t < best.1 {
            best = (d, t);
        }
        println!("{d:>3}   {:>7.1}    {:.2}x", t * 1e3, base / t);
    }
    println!("best D on this machine: {}", best.0);
}
