//! Figure 16: partition-phase cache performance vs G and D (at 800
//! partitions). Same concave shapes and trends as the join phase
//! (Fig 12): too-small parameters fail to hide latency, too-large ones
//! pollute the cache. The Theorem predictions (k = 1 here: the output
//! buffer is the single dependent reference) are printed alongside.

use phj::cost;
use phj::model::{min_group_size, min_prefetch_distance};
use phj::partition::PartitionScheme;
use phj_bench::report::{mcycles, scale, Table};
use phj_bench::runner::sim_partition;
use phj_memsim::MemConfig;
use phj_workload::single_relation;

fn main() {
    let n = (10_000_000f64 * scale() * 0.4) as usize; // sweep is wide; trim
    let input = single_relation(n, 100);
    let cfg = MemConfig::paper();
    let costs = cost::partition_stage_costs(false, 100);
    let gp = min_group_size(cfg.t_full, cfg.t_next, &costs);
    let dp = min_prefetch_distance(cfg.t_full, cfg.t_next, &costs);
    println!("Theorem 1 predicts G >= {}; Theorem 2 predicts D >= {dp}", gp.g);

    let mut tg = Table::new(
        "Fig 16 (left) — partition group prefetching vs G (Mcycles)",
        &["G", "cycles"],
    );
    for g in [2usize, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128] {
        let r = sim_partition(&input, PartitionScheme::Group { g }, 800, cfg.clone());
        tg.row(&[&g, &mcycles(r.breakdown.total())]);
    }
    tg.emit("fig16_group_tuning");

    let mut td = Table::new(
        "Fig 16 (right) — partition software pipelining vs D (Mcycles)",
        &["D", "cycles"],
    );
    for d in [1usize, 2, 3, 4, 6, 8, 12, 16, 32, 64] {
        let r = sim_partition(&input, PartitionScheme::Swp { d }, 800, cfg.clone());
        td.row(&[&d, &mcycles(r.breakdown.total())]);
    }
    td.emit("fig16_swp_tuning");
}
