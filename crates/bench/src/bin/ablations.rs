//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Stashed hash codes** (§7.1): reusing the hash code stored in the
//!    partition pages' slot area vs recomputing it in the join phase.
//! 2. **Cell arrays vs chained buckets** (§3, footnote 3): the Figure-2
//!    structure vs classic chained hashing, under group prefetching —
//!    the pointer-chasing problem made measurable.
//! 3. **Hardware stride prefetching** (§1.2): a next-line stream
//!    prefetcher helps the sequential partition input but cannot touch
//!    the join's hash visits.
//! 4. **Conflict pressure**: group-prefetched build under increasing key
//!    skew — the busy-flag/delayed-tuple protocol's cost as conflicts go
//!    from none to constant.
//! 5. **Hybrid vs GRACE** (§2): keeping partition 0 in memory.
//! 6. **Write-back modeling**: the paper folds dirty-eviction traffic
//!    into `T_next`; charging it explicitly bounds the simplification.

use phj::chained::{build_chained, probe_chained};
use phj::grace::{grace_join_with_sink, hybrid_join, GraceConfig};
use phj::join::{dispatch_build, dispatch_probe, JoinParams, JoinScheme};
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj::table::HashTable;
use phj_bench::report::{mcycles, scaled, speedup, Table};
use phj_bench::runner::{sim_join, sim_partition};
use phj_memsim::{MemConfig, SimEngine};
use phj_storage::{RelationBuilder, Schema};
use phj_workload::{single_relation, tuples_for, JoinSpec};

fn pivot() -> JoinSpec {
    JoinSpec {
        build_tuples: tuples_for(scaled(50 << 20), 100),
        tuple_size: 100,
        matches_per_build: 2,
        pct_match: 100,
        seed: 0xAB1A,
    }
}

fn ablation_stored_hash() {
    let gen = pivot().generate();
    let mut t = Table::new(
        "Ablation 1 — stashed hash codes in partition slots (join phase, Mcycles)",
        &["scheme", "stored", "recomputed", "saving"],
    );
    for (name, scheme) in
        [("baseline", JoinScheme::Baseline), ("group", JoinScheme::Group { g: 16 })]
    {
        let run = |stored: bool| {
            let mut mem = SimEngine::paper();
            let params = JoinParams { scheme, use_stored_hash: stored };
            let buckets = plan::hash_table_buckets(gen.build.num_tuples(), 1);
            let mut table = HashTable::new(buckets, gen.build.num_tuples());
            let mut sink = CountSink::new();
            dispatch_build(&mut mem, &params, &mut table, &gen.build);
            dispatch_probe(&mut mem, &params, &table, &gen.build, &gen.probe, &mut sink);
            assert_eq!(sink.matches(), gen.expected_matches);
            mem.breakdown().total()
        };
        let with = run(true);
        let without = run(false);
        t.row(&[&name, &mcycles(with), &mcycles(without), &speedup(without, with)]);
    }
    t.emit("ablation_stored_hash");
}

fn ablation_chained() {
    // Load factor 4 so chains have real length.
    let spec = JoinSpec { build_tuples: tuples_for(scaled(25 << 20), 100), ..pivot() };
    let gen = spec.generate();
    let buckets = plan::hash_table_buckets(gen.build.num_tuples() / 4, 1);
    let params = JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true };
    let mut t = Table::new(
        "Ablation 2 — Figure-2 cell arrays vs chained buckets (probe, group prefetching, Mcycles)",
        &["structure", "probe cycles", "vs chained"],
    );
    let chained = {
        let mut mem = SimEngine::paper();
        let table = build_chained(&mut mem, &params, &gen.build, buckets);
        let start = mem.breakdown();
        let mut sink = CountSink::new();
        probe_chained(&mut mem, &params, &table, &gen.build, &gen.probe, &mut sink);
        assert_eq!(sink.matches(), gen.expected_matches);
        (mem.breakdown() - start).total()
    };
    let array = {
        let mut mem = SimEngine::paper();
        let mut table = HashTable::new(buckets, gen.build.num_tuples());
        dispatch_build(&mut mem, &params, &mut table, &gen.build);
        let start = mem.breakdown();
        let mut sink = CountSink::new();
        dispatch_probe(&mut mem, &params, &table, &gen.build, &gen.probe, &mut sink);
        assert_eq!(sink.matches(), gen.expected_matches);
        (mem.breakdown() - start).total()
    };
    t.row(&[&"chained buckets", &mcycles(chained), &"1.00x"]);
    t.row(&[&"cell arrays (Fig 2)", &mcycles(array), &speedup(chained, array)]);
    t.emit("ablation_chained");
}

fn ablation_hw_prefetch() {
    let hw = MemConfig {
        hw_prefetch_streams: 8,
        hw_prefetch_depth: 2,
        ..MemConfig::paper()
    };
    let mut t = Table::new(
        "Ablation 3 — hardware next-line prefetcher (baseline algorithms, Mcycles)",
        &["workload", "no hw pf", "with hw pf", "hw gain", "group pf gain"],
    );
    // Partition phase: sequential input, the hardware prefetcher's bread
    // and butter.
    let input = single_relation(tuples_for(scaled(100 << 20), 100), 100);
    let p_base = sim_partition(&input, phj::partition::PartitionScheme::Baseline, 400, MemConfig::paper());
    let p_hw = sim_partition(&input, phj::partition::PartitionScheme::Baseline, 400, hw.clone());
    let p_grp = sim_partition(&input, phj::partition::PartitionScheme::Group { g: 12 }, 400, MemConfig::paper());
    t.row(&[
        &"partition 400p",
        &mcycles(p_base.breakdown.total()),
        &mcycles(p_hw.breakdown.total()),
        &speedup(p_base.breakdown.total(), p_hw.breakdown.total()),
        &speedup(p_base.breakdown.total(), p_grp.breakdown.total()),
    ]);
    drop((p_base, p_hw, p_grp, input));
    // Join phase: random hash visits — no strides to find.
    let gen = pivot().generate();
    let j_base = sim_join(&gen, JoinScheme::Baseline, MemConfig::paper(), true);
    let j_hw = sim_join(&gen, JoinScheme::Baseline, hw, true);
    let j_grp = sim_join(&gen, JoinScheme::Group { g: 16 }, MemConfig::paper(), true);
    t.row(&[
        &"join 50MBx100MB",
        &mcycles(j_base.total()),
        &mcycles(j_hw.total()),
        &speedup(j_base.total(), j_hw.total()),
        &speedup(j_base.total(), j_grp.total()),
    ]);
    t.emit("ablation_hw_prefetch");
    println!(
        "(hw prefetcher issued {} fills in the join run — almost all wasted)",
        j_hw.stats.hw_prefetches
    );
}

fn ablation_conflicts() {
    // Build-side conflict pressure: fraction of duplicate keys from 0%
    // (no conflicts) to 100% (every group-mate collides).
    let n = tuples_for(scaled(25 << 20), 100);
    let mut t = Table::new(
        "Ablation 4 — build-side conflict pressure under group prefetching (Mcycles)",
        &["% duplicate keys", "group build", "baseline build"],
    );
    for pct_dup in [0usize, 25, 50, 100] {
        let schema = Schema::key_payload(100);
        let mut b = RelationBuilder::new(schema);
        let mut tup = [0u8; 100];
        for i in 0..n {
            let key = if i * 100 < n * pct_dup { 7u32 } else { i as u32 };
            tup[..4].copy_from_slice(&key.to_le_bytes());
            b.push_hashed(&tup, phj::hash::hash_key(&key.to_le_bytes()));
        }
        let build_rel = b.finish();
        let buckets = plan::hash_table_buckets(n, 1);
        let run = |scheme| {
            let mut mem = SimEngine::paper();
            let params = JoinParams { scheme, use_stored_hash: true };
            let mut table = HashTable::new(buckets, n);
            dispatch_build(&mut mem, &params, &mut table, &build_rel);
            assert_eq!(table.len(), n);
            mem.breakdown().total()
        };
        t.row(&[
            &format!("{pct_dup}%"),
            &mcycles(run(JoinScheme::Group { g: 16 })),
            &mcycles(run(JoinScheme::Baseline)),
        ]);
    }
    t.emit("ablation_conflicts");
}

fn ablation_hybrid() {
    let gen = pivot().generate();
    let js = JoinScheme::Group { g: 16 };
    let cfg = GraceConfig {
        mem_budget: scaled(50 << 20) / 4,
        partition_scheme: js.schedule().partition_scheme(),
        join_scheme: js,
        ..Default::default()
    };
    let mut t = Table::new(
        "Ablation 5 — hybrid hash join vs GRACE (group prefetching, end-to-end Mcycles)",
        &["algorithm", "cycles", "speedup"],
    );
    let grace = {
        let mut mem = SimEngine::paper();
        let mut sink = CountSink::new();
        grace_join_with_sink(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink);
        assert_eq!(sink.matches(), gen.expected_matches);
        mem.breakdown().total()
    };
    let hybrid = {
        let mut mem = SimEngine::paper();
        let mut sink = CountSink::new();
        hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(sink.matches(), gen.expected_matches);
        mem.breakdown().total()
    };
    let hybrid_swp = {
        let mut mem = SimEngine::paper();
        let mut sink = CountSink::new();
        let swp = GraceConfig { join_scheme: JoinScheme::Swp { d: 2 }, ..cfg };
        hybrid_join(&mut mem, &swp, &gen.build, &gen.probe, &mut sink, None);
        assert_eq!(sink.matches(), gen.expected_matches);
        mem.breakdown().total()
    };
    t.row(&[&"GRACE + group pf", &mcycles(grace), &"1.00x"]);
    t.row(&[&"hybrid + group pf", &mcycles(hybrid), &speedup(grace, hybrid)]);
    t.row(&[&"hybrid + swp pf", &mcycles(hybrid_swp), &speedup(grace, hybrid_swp)]);
    t.emit("ablation_hybrid");
}

fn ablation_aggregation() {
    use phj::aggregate::{aggregate, AggScheme};
    let n = tuples_for(scaled(50 << 20), 100);
    let input = single_relation(n, 100);
    let buckets = plan::hash_table_buckets(n, 1);
    let extract = |t: &[u8]| t.get(4).copied().unwrap_or(0) as i64;
    let mut t = Table::new(
        "Extension (§8) — hash group-by/aggregation (Mcycles, speedup over baseline)",
        &["scheme", "cycles", "speedup"],
    );
    let mut base = 0u64;
    for (name, scheme) in [
        ("baseline", AggScheme::Baseline),
        ("simple", AggScheme::Simple),
        ("group", AggScheme::Group { g: 16 }),
        ("swp", AggScheme::Swp { d: 2 }),
    ] {
        let mut mem = SimEngine::paper();
        let table = aggregate(&mut mem, scheme, &input, buckets, extract);
        assert_eq!(table.num_groups(), n, "all keys distinct");
        let cyc = mem.breakdown().total();
        if base == 0 {
            base = cyc;
        }
        t.row(&[&name, &mcycles(cyc), &speedup(base, cyc)]);
    }
    t.emit("ablation_aggregation");
}

fn ablation_writebacks() {
    let gen = pivot().generate();
    let mut t = Table::new(
        "Ablation 6 — explicit dirty write-back bus traffic (join phase, Mcycles)",
        &["scheme", "folded into T_next", "modeled explicitly", "writebacks"],
    );
    for (name, scheme) in
        [("baseline", JoinScheme::Baseline), ("group", JoinScheme::Group { g: 16 })]
    {
        let folded = sim_join(&gen, scheme, MemConfig::paper(), true);
        let explicit_cfg = MemConfig { model_writebacks: true, ..MemConfig::paper() };
        let explicit = sim_join(&gen, scheme, explicit_cfg, true);
        t.row(&[
            &name,
            &mcycles(folded.total()),
            &mcycles(explicit.total()),
            &explicit.stats.writebacks,
        ]);
    }
    t.emit("ablation_writebacks");
}

fn main() {
    ablation_stored_hash();
    ablation_chained();
    ablation_hw_prefetch();
    ablation_conflicts();
    ablation_hybrid();
    ablation_aggregation();
    ablation_writebacks();
}
