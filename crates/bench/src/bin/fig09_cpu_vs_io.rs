//! Figure 9: is GRACE hash join I/O-bound or CPU-bound?
//!
//! §7.2 joins 1.5 GB with 3 GB (31 partitions, 100 B tuples) over 1–6
//! striped disks, one I/O worker thread per disk, and finds both phases
//! CPU-bound from four disks on. Here the real disk driver (`phj-disk`,
//! `DiskJoinMode::Grace`) joins 64 MB with 128 MB at `PHJ_SCALE=1` in 31
//! partitions over 1–8 stripes, each capped at one bandwidth
//! (`FaultPlan::stripe_mb_per_s`) so that stripe files on one device
//! behave as that many disks.
//!
//! An uncapped run per scheme measures each phase's CPU rate: the bytes
//! it moves per second of main-thread CPU (elapsed minus stall). The cap
//! is the baseline's faster rate over 6, so both panels' baseline
//! crossovers land inside the sweep. Panel (a) is the build pass (read
//! the build relation, write its partitions), panel (b) the spilled-pair
//! joins (read both sides of each pair, write the output). A crossover
//! is the first stripe count at which the busiest disk's I/O time is at
//! most the CPU time. Every run must match an in-memory join's answer.

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::join::JoinScheme;
use phj::sink::{CountSink, JoinSink};
use phj_bench::report::{scaled, Table};
use phj_disk::{
    grace_join_files, DiskGraceConfig, DiskJoinMode, FaultPlan, FileRelation, PassTimes,
    RetryPolicy,
};
use phj_storage::PAGE_SIZE;
use phj_workload::JoinSpec;

const MAX_STRIPES: usize = 8;
const SCHEMES: [JoinScheme; 2] = [JoinScheme::Baseline, JoinScheme::Group { g: 16 }];

fn cpu_s(pass: &PassTimes) -> f64 {
    pass.elapsed_s - pass.main_stall_s
}

fn main() {
    let dir = std::env::temp_dir().join(format!("phj-fig09-{}", std::process::id()));
    let gen = JoinSpec::pivot(scaled(64 << 20)).generate();
    let mut sink = CountSink::new();
    let in_memory = GraceConfig { mem_budget: 1 << 30, ..Default::default() };
    let (build, probe) = (&gen.build, &gen.probe);
    grace_join_with_sink(&mut phj_memsim::NativeModel, &in_memory, build, probe, &mut sink);
    let expect = (sink.matches(), sink.checksum());
    assert_eq!(expect.0, gen.expected_matches);

    let inputs = |stripes: usize, plan: &FaultPlan| {
        let create = |name, rel| {
            let mut f = FileRelation::create(&dir, name, rel, stripes, 32).unwrap();
            f.set_faults(plan.clone(), RetryPolicy::default());
            f
        };
        (create("build", &gen.build), create("probe", &gen.probe))
    };
    let join = |(fb, fp): &(FileRelation, FileRelation), scheme: JoinScheme, plan: &FaultPlan| {
        let cfg = DiskGraceConfig {
            // 31 partitions, each ~3 % under the budget so that no pair
            // degrades; small scales keep 96-page partitions instead.
            mem_budget: (fb.size_bytes() as usize / 30).max(96 * PAGE_SIZE),
            num_stripes: fb.stripe_paths().len(),
            join_scheme: scheme,
            mode: DiskJoinMode::Grace,
            fault: plan.clone(),
            ..DiskGraceConfig::new(&dir)
        };
        let r = grace_join_files(&cfg, fb, fp).unwrap();
        let run = format!("{} over {} stripes", scheme.label(), cfg.num_stripes);
        assert_eq!((r.matches, r.checksum), expect, "{run} disagrees with the in-memory join");
        assert!(r.num_partitions > 1 && r.degradation.is_empty(), "{run}: {:?}", r.degradation);
        r
    };

    let uncapped = inputs(MAX_STRIPES, &FaultPlan::disabled());
    let (b, p) = (&uncapped.0, &uncapped.1);
    let rates = SCHEMES.map(|scheme| {
        let r = join(&uncapped, scheme, &FaultPlan::disabled());
        let mb = [2 * b.size_bytes(), b.size_bytes() + p.size_bytes() + r.output.size_bytes()]
            .map(|bytes| bytes as f64 / 1e6);
        let rate = [mb[0] / cpu_s(&r.build_pass), mb[1] / cpu_s(&r.pair_pass)];
        println!(
            "uncapped {}: build pass {:.0} MB/s, pair joins {:.0} MB/s of CPU \
             (pages read and written per CPU second)",
            scheme.label(),
            rate[0],
            rate[1]
        );
        rate
    });
    let cap = rates[0][0].max(rates[0][1]) / 6.0;
    println!("cap: {cap:.1} MB/s per stripe = the faster baseline rate / 6");

    let plan = FaultPlan::disabled().stripe_mb_per_s(cap);
    let mut cells = Vec::new(); // (stripes, per scheme [build pass, pair joins])
    for stripes in 1..=MAX_STRIPES {
        let files = inputs(stripes, &plan);
        let passes = SCHEMES.map(|scheme| {
            let r = join(&files, scheme, &plan);
            [r.build_pass, r.pair_pass]
        });
        cells.push((stripes, passes));
    }
    std::fs::remove_dir_all(&dir).ok();

    let panels = [
        ("fig09a_partition", "Fig 9(a) — build pass: read the build relation, write its partitions"),
        ("fig09b_join", "Fig 9(b) — spilled-pair joins: read both partitions, write the output"),
    ];
    for (panel, (slug, title)) in panels.into_iter().enumerate() {
        let mut t = Table::new(
            format!("{title} (seconds; {cap:.1} MB/s per stripe)"),
            &["scheme", "stripes", "elapsed", "worker io", "main stall", "cpu"],
        );
        let mut crossovers = Vec::new();
        for (s, scheme) in SCHEMES.iter().enumerate() {
            let mut crossover = None;
            for (stripes, passes) in &cells {
                let p = &passes[s][panel];
                if crossover.is_none() && p.worker_io_s <= cpu_s(p) {
                    crossover = Some(*stripes);
                }
                let secs = [p.elapsed_s, p.worker_io_s, p.main_stall_s, cpu_s(p)];
                let [e, w, m, c] = secs.map(|x| format!("{x:.3}"));
                t.row(&[&scheme.label(), stripes, &e, &w, &m, &c]);
            }
            let at = crossover.map_or(format!("> {MAX_STRIPES}"), |d| d.to_string());
            crossovers.push(format!("{} at {at} stripes", scheme.label()));
        }
        t.emit(slug);
        println!("CPU-bound (worker io <= cpu): {}", crossovers.join(", "));
    }
}
