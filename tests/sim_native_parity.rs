//! The simulated and native instantiations of the same algorithm must
//! produce identical join results (the model hooks are observational),
//! and the simulator's orderings must match the paper's qualitative
//! results at integration scale.

use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemConfig, NativeModel, SimEngine};
use phj_workload::JoinSpec;

fn spec() -> JoinSpec {
    JoinSpec {
        build_tuples: 8_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 123,
    }
}

#[test]
fn sim_and_native_produce_identical_results() {
    let gen = spec().generate();
    for scheme in [
        JoinScheme::Baseline,
        JoinScheme::Simple,
        JoinScheme::Group { g: 16 },
        JoinScheme::Swp { d: 2 },
    ] {
        let params = JoinParams { scheme, use_stored_hash: true };
        let mut native_sink = CountSink::new();
        join_pair(&mut NativeModel, &params, &gen.build, &gen.probe, 1, &mut native_sink, None);
        let mut sim = SimEngine::paper();
        let mut sim_sink = CountSink::new();
        join_pair(&mut sim, &params, &gen.build, &gen.probe, 1, &mut sim_sink, None);
        assert_eq!(native_sink, sim_sink, "{scheme:?}");
        assert!(sim.now() > 0, "simulation advanced time");
    }
}

#[test]
fn simulated_orderings_match_paper() {
    let gen = spec().generate();
    let time = |scheme| {
        let mut sim = SimEngine::paper();
        let mut sink = CountSink::new();
        join_pair(
            &mut sim,
            &JoinParams { scheme, use_stored_hash: true },
            &gen.build,
            &gen.probe,
            1,
            &mut sink,
            None,
        );
        assert_eq!(sink.matches(), gen.expected_matches);
        sim.breakdown()
    };
    let base = time(JoinScheme::Baseline);
    let simple = time(JoinScheme::Simple);
    let group = time(JoinScheme::Group { g: 16 });
    let swp = time(JoinScheme::Swp { d: 2 });
    // Orderings from §7.3.
    assert!(simple.total() < base.total(), "simple beats baseline");
    assert!(group.total() < simple.total(), "group beats simple");
    assert!(swp.total() < simple.total(), "swp beats simple");
    // The baseline is stall-dominated; the staged schemes are busy-
    // dominated (Fig 11).
    assert!(base.dcache_fraction() > 0.5);
    assert!(group.dcache_fraction() < 0.3);
    assert!(swp.dcache_fraction() < 0.3);
    // Prefetching overhead: staged schemes are busier than the baseline.
    assert!(group.busy > base.busy);
    assert!(swp.busy >= group.busy, "swp bookkeeping >= group (S5.4)");
}

#[test]
fn t1000_prefetching_keeps_up() {
    // §7.3: "software-pipelined prefetching achieves similar performance
    // when we change T from 150 to 1000 cycles" (with a suitable D).
    let gen = spec().generate();
    let run = |cfg: MemConfig, scheme| {
        let mut sim = SimEngine::new(cfg);
        let mut sink = CountSink::new();
        join_pair(
            &mut sim,
            &JoinParams { scheme, use_stored_hash: true },
            &gen.build,
            &gen.probe,
            1,
            &mut sink,
            None,
        );
        sim.breakdown().total()
    };
    let base150 = run(MemConfig::paper(), JoinScheme::Baseline);
    let base1000 = run(MemConfig::paper_t1000(), JoinScheme::Baseline);
    assert!(base1000 > base150 * 3, "baseline collapses at T=1000");
    let swp150 = run(MemConfig::paper(), JoinScheme::Swp { d: 2 });
    let swp1000 = run(MemConfig::paper_t1000(), JoinScheme::Swp { d: 10 });
    assert!(
        (swp1000 as f64) < (swp150 as f64) * 1.6,
        "swp keeps up: {swp1000} vs {swp150}"
    );
}

#[test]
fn flush_robustness_ordering() {
    // Fig 18: prefetching degrades far less under periodic flushing than
    // the flush-free baseline degrades... more precisely: group under
    // 2ms flushing still far outperforms the unflushed baseline.
    let gen = spec().generate();
    let run = |flush: Option<u64>, scheme| {
        let cfg = MemConfig { flush_period: flush, ..MemConfig::paper() };
        let mut sim = SimEngine::new(cfg);
        let mut sink = CountSink::new();
        join_pair(
            &mut sim,
            &JoinParams { scheme, use_stored_hash: true },
            &gen.build,
            &gen.probe,
            1,
            &mut sink,
            None,
        );
        sim.breakdown().total()
    };
    let group = run(None, JoinScheme::Group { g: 16 });
    let group_flushed = run(Some(2_000_000), JoinScheme::Group { g: 16 });
    let degradation = group_flushed as f64 / group as f64;
    assert!(degradation < 1.15, "group robust to flushing: {degradation:.2}");
    let base = run(None, JoinScheme::Baseline);
    assert!(group_flushed * 2 < base, "flushed group still beats baseline 2x");
}
