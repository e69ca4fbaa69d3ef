//! Native-hardware counterpart of Fig 12: wall-clock join time vs the
//! group size G and prefetch distance D. On a modern machine the knee
//! moves (different latency/bandwidth ratio than the paper's simulated
//! 2003 system), but the concave shape survives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::CountSink;
use phj_memsim::NativeModel;
use phj_workload::JoinSpec;

fn run(gen: &phj_workload::GeneratedJoin, scheme: JoinScheme) -> u64 {
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
    sink.checksum()
}

fn bench_g_sweep(c: &mut Criterion) {
    let spec = JoinSpec {
        build_tuples: 60_000,
        tuple_size: 20,
        matches_per_build: 2,
        pct_match: 100,
        seed: 3,
    };
    let gen = spec.generate();
    let mut grp = c.benchmark_group("tuning_group_size");
    grp.sample_size(10);
    for g in [2usize, 8, 16, 32, 128] {
        grp.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| run(&gen, JoinScheme::Group { g }))
        });
    }
    grp.finish();

    let mut grp = c.benchmark_group("tuning_prefetch_distance");
    grp.sample_size(10);
    for d in [1usize, 2, 4, 8, 32] {
        grp.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, &d| {
            b.iter(|| run(&gen, JoinScheme::Swp { d }))
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_g_sweep);
criterion_main!(benches);
