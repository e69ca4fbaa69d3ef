//! §7.4's combined rule in the disk join: the partition passes run simple
//! prefetching at up to 64 partitions, and a resident table whose build
//! pages and hash table fit the L2 joins under simple prefetching
//! whatever the configured scheme. Every scheme must still produce the
//! in-memory oracle's answer, on both sides of the cache constant.

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::join::JoinScheme;
use phj::partition::PartitionScheme;
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_disk::{grace_join_files, DiskGraceConfig, DiskJoinMode, FileRelation};
use phj_memsim::NativeModel;
use phj_workload::{GeneratedJoin, JoinSpec};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("phj-working-set-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The in-memory join with no prefetching and no partitioning.
fn oracle(gen: &GeneratedJoin) -> (u64, u64) {
    let cfg = GraceConfig {
        mem_budget: 1 << 30,
        partition_scheme: PartitionScheme::Baseline,
        join_scheme: JoinScheme::Baseline,
        ..Default::default()
    };
    let mut sink = CountSink::new();
    grace_join_with_sink(&mut NativeModel, &cfg, &gen.build, &gen.probe, &mut sink);
    (sink.matches(), sink.checksum())
}

const SCHEMES: [JoinScheme; 4] = [
    JoinScheme::Baseline,
    JoinScheme::Simple,
    JoinScheme::Group { g: 16 },
    JoinScheme::Swp { d: 2 },
];

/// Run every scheme under the dynamic policy and check each against the
/// oracle; returns the last report's (partitions, resident partitions).
fn every_scheme_matches(tag: &str, gen: &GeneratedJoin, mem_budget: usize) -> (usize, usize) {
    let dir = temp_dir(tag);
    let fb = FileRelation::create(&dir, "build", &gen.build, 3, 4).unwrap();
    let fp = FileRelation::create(&dir, "probe", &gen.probe, 3, 4).unwrap();
    let want = oracle(gen);
    assert_eq!(want.0, gen.expected_matches);
    let mut shape = (0, 0);
    for join_scheme in SCHEMES {
        let cfg = DiskGraceConfig {
            mem_budget,
            join_scheme,
            mode: DiskJoinMode::Dynamic,
            ..DiskGraceConfig::new(&dir)
        };
        let report = grace_join_files(&cfg, &fb, &fp).unwrap();
        assert_eq!((report.matches, report.checksum), want, "{}", join_scheme.label());
        shape = (report.num_partitions, report.resident_partitions);
    }
    std::fs::remove_dir_all(&dir).ok();
    shape
}

#[test]
fn resident_tables_under_the_cache_match_the_oracle() {
    // ~290 KB of build under a 256 KB budget: a handful of partitions,
    // some resident, every table far under the L2.
    let gen = JoinSpec {
        build_tuples: 6000,
        tuple_size: 48,
        matches_per_build: 2,
        pct_match: 75,
        seed: 5,
    }
    .generate();
    assert!(plan::join_working_set(gen.build.num_pages(), 6000) <= plan::L2_BYTES);
    let (partitions, resident) = every_scheme_matches("under", &gen, 256 << 10);
    assert!(partitions > 1 && partitions <= plan::CACHED_OUTPUT_BUFFERS, "{partitions} partitions");
    assert!(resident > 0 && resident < partitions, "{resident} of {partitions} resident");
}

#[test]
fn a_resident_table_over_the_cache_matches_the_oracle() {
    // ~2 MB of build in one resident partition: its table is past the
    // L2, so the configured scheme joins it.
    let gen = JoinSpec {
        build_tuples: 20_000,
        tuple_size: 100,
        matches_per_build: 1,
        pct_match: 100,
        seed: 6,
    }
    .generate();
    assert!(plan::join_working_set(gen.build.num_pages(), 20_000) > plan::L2_BYTES);
    let (partitions, resident) = every_scheme_matches("over", &gen, 16 << 20);
    assert_eq!((partitions, resident), (1, 1));
}
