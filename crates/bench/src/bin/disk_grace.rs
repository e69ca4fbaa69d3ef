//! Real-machine analog of the Fig 9 measurement: run the GRACE hash join
//! over actual striped files with background I/O worker threads
//! (`phj-disk`), and report elapsed time per phase plus the main thread's
//! I/O stall — the same quantities the paper measured with
//! gettimeofday/PAPI on its quad-P3 + 6-disk testbed (§7.2). On a laptop
//! the stripes share one device, so the disk-scaling curve is not
//! reproducible here (that is `fig09_cpu_vs_io`'s job on the I/O model);
//! this binary demonstrates the *mechanics* end to end and sanity-checks
//! the result against the in-memory engine.

use phj::sink::{CountSink, JoinSink};
use phj_bench::report::{scaled, Table};
use phj_disk::{grace_join_files, DiskGraceConfig, DiskJoinMode, FileRelation};
use phj_workload::JoinSpec;

fn main() {
    let dir = std::env::temp_dir().join(format!("phj-disk-grace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = JoinSpec::pivot(scaled(64 << 20));
    let gen = spec.generate();
    println!(
        "writing {} + {} tuples to striped files under {}",
        gen.build.num_tuples(),
        gen.probe.num_tuples(),
        dir.display()
    );
    let t0 = std::time::Instant::now();
    let fb = FileRelation::create(&dir, "build", &gen.build, 6, 32).unwrap();
    let fp = FileRelation::create(&dir, "probe", &gen.probe, 6, 32).unwrap();
    let load_s = t0.elapsed().as_secs_f64();

    let cfg = DiskGraceConfig {
        mem_budget: scaled(16 << 20),
        // The paper measures GRACE's two phases, not the default policy.
        mode: DiskJoinMode::Grace,
        ..DiskGraceConfig::new(&dir)
    };
    let report = grace_join_files(&cfg, &fb, &fp).unwrap();
    assert_eq!(report.matches, gen.expected_matches, "disk join correct");

    // Cross-check against the in-memory engine.
    let mut sink = CountSink::new();
    phj::grace::grace_join_with_sink(
        &mut phj_memsim::NativeModel,
        &phj::grace::GraceConfig { mem_budget: cfg.mem_budget, ..Default::default() },
        &gen.build,
        &gen.probe,
        &mut sink,
    );
    assert_eq!(sink.matches(), report.matches);

    let mut t = Table::new(
        "On-disk GRACE (real files, background I/O threads)",
        &["metric", "value"],
    );
    t.row(&[&"stripe files per relation", &6]);
    t.row(&[&"partitions", &report.num_partitions]);
    t.row(&[&"matches", &report.matches]);
    t.row(&[&"load input to disk", &format!("{load_s:.2}s")]);
    t.row(&[&"partition phase", &format!("{:.2}s", report.partition_s)]);
    t.row(&[&"join phase", &format!("{:.2}s", report.join_s)]);
    t.row(&[&"main-thread input stall", &format!("{:.3}s", report.input_stall_s)]);
    t.row(&[
        &"output pages",
        &report.output.num_pages(),
    ]);
    t.emit("disk_grace");
    std::fs::remove_dir_all(&dir).ok();
}
