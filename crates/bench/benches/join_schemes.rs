//! Criterion wall-clock benchmarks of the four join schemes on real
//! hardware (native model: the prefetch hooks become real `prefetcht0`
//! instructions, everything else compiles away). The native counterpart
//! of Fig 10's pivot column.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::NativeModel;
use phj_workload::JoinSpec;

fn bench_join_schemes(c: &mut Criterion) {
    // ~8 MB build, 16 MB probe: beyond L2 so prefetching matters.
    let spec = JoinSpec {
        build_tuples: 80_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 11,
    };
    let gen = spec.generate();
    let mut g = c.benchmark_group("join_schemes");
    g.throughput(Throughput::Elements(gen.probe.num_tuples() as u64));
    g.sample_size(10);
    for (name, scheme) in [
        ("baseline", JoinScheme::Baseline),
        ("simple", JoinScheme::Simple),
        ("group_g16", JoinScheme::Group { g: 16 }),
        ("swp_d4", JoinScheme::Swp { d: 4 }),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &scheme, |b, &scheme| {
            b.iter(|| {
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
                assert_eq!(sink.matches(), gen.expected_matches);
                sink.checksum()
            })
        });
    }
    g.finish();
}

fn bench_tuple_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("join_group_by_tuple_size");
    g.sample_size(10);
    for size in [20usize, 100, 140] {
        let spec = JoinSpec {
            build_tuples: 65_536,
            tuple_size: size,
            matches_per_build: 2,
            pct_match: 100,
            seed: 5,
        };
        let gen = spec.generate();
        g.bench_with_input(BenchmarkId::from_parameter(size), &gen, |b, gen| {
            b.iter(|| {
                let mut mem = NativeModel;
                let mut sink = CountSink::new();
                join_pair(
                    &mut mem,
                    &JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true },
                    &gen.build,
                    &gen.probe,
                    1,
                    &mut sink,
                    None,
                );
                sink.checksum()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_join_schemes, bench_tuple_sizes);
criterion_main!(benches);
