//! Validate the analytic models (Theorems 1 & 2) against the simulator:
//! the predicted minimal G and D must sit at the knee of the simulated
//! tuning curves — at or below the parameter value where performance
//! stops improving, and far from the degradation tail.

use phj::cost;
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::model::{min_group_size, min_prefetch_distance};
use phj::sink::{CountSink, JoinSink};
use phj_memsim::{MemConfig, SimEngine};
use phj_workload::JoinSpec;

fn time(gen: &phj_workload::GeneratedJoin, scheme: JoinScheme, cfg: MemConfig) -> u64 {
    let mut mem = SimEngine::new(cfg);
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
    mem.breakdown().total()
}

fn workload() -> phj_workload::GeneratedJoin {
    JoinSpec {
        build_tuples: 30_000,
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 0xC0DE,
    }
    .generate()
}

#[test]
fn theorem1_knee_matches_simulated_g_curve() {
    let gen = workload();
    let cfg = MemConfig::paper();
    // The counting-sink probe has a small C_3.
    let costs = cost::probe_stage_costs(true, 0);
    let g_star = min_group_size(cfg.t_full, cfg.t_next, &costs).g as usize;
    let at = |g: usize| time(&gen, JoinScheme::Group { g }, cfg.clone());
    // Performance at the predicted G is within 10% of the best over a
    // wide sweep...
    let best = [2usize, 4, 8, 12, 16, 24, 32, 48, 64]
        .into_iter()
        .map(at)
        .min()
        .unwrap();
    let predicted = at(g_star);
    assert!(
        predicted as f64 <= best as f64 * 1.10,
        "T1 prediction G={g_star}: {predicted} vs best {best}"
    );
    // ...and clearly better than a too-small G (latency not hidden).
    let tiny = at(2);
    assert!(predicted * 10 < tiny * 9, "G=2 must be visibly worse");
}

#[test]
fn theorem2_knee_matches_simulated_d_curve() {
    let gen = workload();
    let cfg = MemConfig::paper();
    let costs = cost::probe_stage_costs(true, 0);
    let d_star = min_prefetch_distance(cfg.t_full, cfg.t_next, &costs) as usize;
    let at = |d: usize| time(&gen, JoinScheme::Swp { d }, cfg.clone());
    let best = [1usize, 2, 3, 4, 6, 8, 12, 16].into_iter().map(at).min().unwrap();
    let predicted = at(d_star);
    assert!(
        predicted as f64 <= best as f64 * 1.10,
        "T2 prediction D={d_star}: {predicted} vs best {best}"
    );
}

#[test]
fn predictions_shift_right_at_t1000() {
    let costs = cost::probe_stage_costs(true, 200);
    let p150 = MemConfig::paper();
    let p1000 = MemConfig::paper_t1000();
    let g150 = min_group_size(p150.t_full, p150.t_next, &costs).g;
    let g1000 = min_group_size(p1000.t_full, p1000.t_next, &costs).g;
    assert!(g1000 > g150 * 4, "G scales with latency: {g150} -> {g1000}");
    let d150 = min_prefetch_distance(p150.t_full, p150.t_next, &costs);
    let d1000 = min_prefetch_distance(p1000.t_full, p1000.t_next, &costs);
    assert!(d1000 > d150, "D scales with latency: {d150} -> {d1000}");
}

#[test]
fn simulated_t1000_optimum_is_right_of_t150_optimum() {
    // The Fig-12 "optimal points shift right" claim, automated: the best
    // G under T=1000 must exceed the best G under T=150.
    let gen = workload();
    let sweep = [4usize, 8, 12, 16, 24, 32, 48, 64, 96, 128];
    let best_g = |cfg: MemConfig| {
        sweep
            .into_iter()
            .min_by_key(|&g| time(&gen, JoinScheme::Group { g }, cfg.clone()))
            .unwrap()
    };
    let g150 = best_g(MemConfig::paper());
    let g1000 = best_g(MemConfig::paper_t1000());
    assert!(g1000 > g150, "optimum shifts right: {g150} -> {g1000}");
}
