//! Figure 12: cache performance vs the group size `G` and the prefetch
//! distance `D`, at memory latency T = 150 and T = 1000.
//!
//! The paper's observations this run must reproduce:
//! * the curves are **concave** — performance is poor when the parameter
//!   is too small (latency not hidden) and degrades when too large
//!   (conflict misses / cache pollution);
//! * at T = 1000 the **optimal points shift right**;
//! * software-pipelined prefetching achieves similar performance at
//!   T = 150 and T = 1000 (robustness to the speed gap);
//! * the Theorem-1/2 predictions land near the simulated knees.
//!
//! As in the paper, the workload is Fig 10(a) at 20 B tuples and the
//! tuning is shown for the probing loop.

use phj::cost;
use phj::join::{dispatch_build, JoinParams, JoinScheme};
use phj::model::{min_group_size, min_prefetch_distance};
use phj::plan;
use phj::table::HashTable;
use phj_bench::report::{mcycles, scaled, Table};
use phj_bench::runner::sim_join;
use phj_memsim::{MemConfig, SimEngine};
use phj_workload::{tuples_for, JoinSpec};

fn main() {
    let mem = scaled(50 << 20);
    let spec = JoinSpec {
        build_tuples: tuples_for(mem, 20),
        tuple_size: 20,
        matches_per_build: 2,
        pct_match: 100,
        seed: 0xC0FFEE,
    };
    let gen = spec.generate();
    let configs = [("T=150", MemConfig::paper()), ("T=1000", MemConfig::paper_t1000())];

    let costs = cost::probe_stage_costs(true, 40);
    for (name, cfg) in &configs {
        let gp = min_group_size(cfg.t_full, cfg.t_next, &costs);
        let dp = min_prefetch_distance(cfg.t_full, cfg.t_next, &costs);
        println!("{name}: Theorem 1 predicts G >= {}, Theorem 2 predicts D >= {dp}", gp.g);
    }

    let mut tg = Table::new(
        "Fig 12 (top/bottom left) — group prefetching vs G (Mcycles)",
        &["G", "T=150", "T=1000"],
    );
    for g in [2usize, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128] {
        let mut cells = vec![g.to_string()];
        for (_, cfg) in &configs {
            let r = sim_join(&gen, JoinScheme::Group { g }, cfg.clone(), true);
            cells.push(mcycles(r.total()));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        tg.row(&refs);
    }
    tg.emit("fig12_group_tuning");

    let mut td = Table::new(
        "Fig 12 (top/bottom right) — software-pipelined prefetching vs D (Mcycles)",
        &["D", "T=150", "T=1000"],
    );
    for d in [1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
        let mut cells = vec![d.to_string()];
        for (_, cfg) in &configs {
            let r = sim_join(&gen, JoinScheme::Swp { d }, cfg.clone(), true);
            cells.push(mcycles(r.total()));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        td.row(&refs);
    }
    td.emit("fig12_swp_tuning");

    // The paper shows probe-loop tuning and notes "the curves for the
    // building loop have similar shapes" — verify with a build-only sweep.
    let build_costs = cost::build_stage_costs(true);
    let cfg150 = MemConfig::paper();
    println!(
        "build loop: Theorem 1 predicts G >= {}, Theorem 2 predicts D >= {}",
        min_group_size(cfg150.t_full, cfg150.t_next, &build_costs).g,
        min_prefetch_distance(cfg150.t_full, cfg150.t_next, &build_costs)
    );
    let buckets = plan::hash_table_buckets(gen.build.num_tuples(), 1);
    let build_time = |scheme: JoinScheme| {
        let mut mem = SimEngine::paper();
        let params = JoinParams { scheme, use_stored_hash: true };
        let mut table = HashTable::new(buckets, gen.build.num_tuples());
        dispatch_build(&mut mem, &params, &mut table, &gen.build);
        assert_eq!(table.len(), gen.build.num_tuples());
        mem.breakdown().total()
    };
    let mut tb = Table::new(
        "Fig 12 (building loop) — similar shapes, per §7.3",
        &["param", "group vs G", "swp vs D"],
    );
    for p in [2usize, 4, 8, 16, 32, 64, 128] {
        tb.row(&[
            &p,
            &mcycles(build_time(JoinScheme::Group { g: p })),
            &mcycles(build_time(JoinScheme::Swp { d: p })),
        ]);
    }
    tb.emit("fig12_build_tuning");
}
