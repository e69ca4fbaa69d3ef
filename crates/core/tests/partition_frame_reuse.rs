//! A second partition pass over the same input reuses the page frames the
//! first pass's partitions released, instead of faulting fresh memory in.
//!
//! Page faults are counted per process, so this test is alone in its
//! binary: no concurrent test faults pages while a pass is measured.

use phj::partition::{partition_relation, PartitionScheme};
use phj_memsim::NativeModel;
use phj_storage::{RelationBuilder, Schema};

/// 200 000 tuples of 100 bytes: ~20 MB of input pages, and as much again
/// of partition pages per pass.
const TUPLES: u32 = 200_000;

/// Minor page faults of this process so far: field 10 of
/// `/proc/self/stat`, or `None` where that file does not exist.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2, the command name, may contain spaces: count the fields
    // after the `)` that closes it, where field 3 comes first.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

#[test]
fn second_partition_pass_faults_almost_no_pages() {
    if minor_faults().is_none() {
        eprintln!("skipped: /proc/self/stat is not available");
        return;
    }
    let mut b = RelationBuilder::new(Schema::key_payload(100));
    let mut t = [0u8; 100];
    for k in 0..TUPLES {
        t[..4].copy_from_slice(&k.to_le_bytes());
        b.push(&t);
    }
    let input = b.finish();
    // Each pass's partitions drop when it returns, releasing their pages.
    let pass = || {
        let before = minor_faults().expect("read before");
        let parts = partition_relation(&mut NativeModel, PartitionScheme::Simple, &input, 32, false);
        let faults = minor_faults().expect("read after") - before;
        let routed: usize = parts.iter().map(|p| p.num_tuples()).sum();
        assert_eq!(routed, TUPLES as usize);
        faults
    };
    let first = pass();
    let second = pass();
    assert!(
        second * 100 < first,
        "second pass faulted {second} pages, first {first}: partition pages are not recycled"
    );
}
