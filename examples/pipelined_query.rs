//! Pipelined query processing: a parent operator consumes join output at
//! group boundaries.
//!
//! §5.4 of the paper argues group prefetching suits engines because "the
//! join phase can pause at group boundaries and send outputs to the
//! parent operator to support pipelined query processing" (a software
//! pipeline would pay restart costs at each pause). This example builds
//! that pipeline: a resumable [`GroupProbe`] drives the join one group at
//! a time, a [`BatchingSink`] hands bounded batches to a running
//! aggregation, and nothing ever materializes the full join result.
//!
//! Run with `cargo run --release --example pipelined_query`.
//!
//! [`GroupProbe`]: phj::join::GroupProbe
//! [`BatchingSink`]: phj::sink::BatchingSink

use std::collections::HashMap;

use phj::join::{dispatch_build, GroupProbe, JoinParams, JoinScheme};
use phj::sink::BatchingSink;
use phj::{plan, HashTable};
use phj_memsim::NativeModel;
use phj_storage::TupleView;
use phj_workload::JoinSpec;

fn main() {
    // Orders (probe) joined to customers (build); the parent operator
    // sums order payloads per customer segment, streaming.
    let spec = JoinSpec {
        build_tuples: 100_000,
        tuple_size: 64,
        matches_per_build: 3,
        pct_match: 100,
        seed: 99,
    };
    let gen = spec.generate();
    let params = JoinParams { scheme: JoinScheme::Group { g: 16 }, use_stored_hash: true };
    let mut mem = NativeModel;

    // Build once.
    let buckets = plan::hash_table_buckets(gen.build.num_tuples(), 1);
    let mut table = HashTable::new(buckets, gen.build.num_tuples());
    dispatch_build(&mut mem, &params, &mut table, &gen.build);

    // The "parent operator": a streaming per-segment aggregate.
    let build_schema = gen.build.schema().clone();
    let mut revenue: HashMap<u32, i64> = HashMap::new();
    let mut batches = 0usize;
    let mut largest_batch = 0usize;
    {
        let mut sink = BatchingSink::new(64, |batch| {
            batches += 1;
            largest_batch = largest_batch.max(batch.len());
            for (bt, _pt) in batch {
                let v = TupleView::new(&build_schema, bt);
                let segment = v.u32(0) % 8;
                *revenue.entry(segment).or_default() += v.attr_bytes(1)[0] as i64;
            }
        });
        // Drive the join one group at a time — the pipeline's heartbeat.
        let mut probe = GroupProbe::new(&params, &table, &gen.build, &gen.probe, 16);
        let mut groups = 0usize;
        let t0 = std::time::Instant::now();
        while probe.run_group(&mut mem, &mut sink) {
            groups += 1;
        }
        let total = sink.finish();
        println!(
            "streamed {total} matches through {groups} groups / {batches} batches \
             (largest batch {largest_batch}) in {:?}",
            t0.elapsed()
        );
        assert_eq!(total, gen.expected_matches);
    }
    let mut segs: Vec<_> = revenue.into_iter().collect();
    segs.sort();
    for (seg, rev) in segs {
        println!("segment {seg}: {rev}");
    }
    println!("\nNo full join result was ever materialized — output flowed to the");
    println!("parent at group boundaries, as §5.4 describes.");
}
