//! Extension experiment: prefetching under key skew.
//!
//! §4.4 sizes the group-prefetching conflict machinery "to tolerate skews
//! in the key distribution". This experiment joins a uniform build
//! relation against Zipf(θ)-distributed probes, and aggregates a Zipf
//! relation — sweeping θ from uniform to heavy skew — to show that the
//! staged schemes keep their advantage as conflicts and hot buckets grow.

use phj::aggregate::{aggregate, AggScheme};
use phj::join::{join_pair, JoinParams, JoinScheme};
use phj::plan;
use phj::sink::{CountSink, JoinSink};
use phj_bench::report::{mcycles, scaled, speedup, Table};
use phj_memsim::SimEngine;
use phj_workload::{single_relation, tuples_for, zipf_relation};

fn main() {
    let n = tuples_for(scaled(25 << 20), 100);
    let build = single_relation(n, 100);

    let mut t = Table::new(
        "Extension — join under probe-side Zipf skew (Mcycles, speedup over baseline)",
        &["theta", "baseline", "group", "swp"],
    );
    for theta in [0.0f64, 0.5, 0.9, 1.1] {
        // Probes draw keys Zipf-distributed over the build key space: the
        // hot build tuples are probed over and over.
        let probe = zipf_relation(2 * n, 100, n, theta, 42);
        let mut cells = vec![format!("{theta:.1}")];
        let mut base = 0u64;
        let mut matches = None;
        for scheme in [JoinScheme::Baseline, JoinScheme::Group { g: 16 }, JoinScheme::Swp { d: 1 }] {
            let mut mem = SimEngine::paper();
            let mut sink = CountSink::new();
            join_pair(
                &mut mem,
                &JoinParams { scheme, use_stored_hash: true },
                &build,
                &probe,
                1,
                &mut sink,
                None,
            );
            match matches {
                None => matches = Some(sink.matches()),
                Some(m) => assert_eq!(m, sink.matches(), "schemes agree under skew"),
            }
            let c = mem.breakdown().total();
            if base == 0 {
                base = c;
            }
            cells.push(format!("{} ({})", mcycles(c), speedup(base, c)));
        }
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        t.row(&refs);
    }
    t.emit("ext_skew_join");

    // Aggregation over a skewed relation: hot groups are updated
    // constantly — the worst case for the upsert conflict protocol.
    let mut ta = Table::new(
        "Extension — aggregation under Zipf skew (Mcycles, speedup over baseline)",
        &["theta", "groups", "baseline", "group", "swp"],
    );
    for theta in [0.0f64, 0.9, 1.2] {
        let input = zipf_relation(2 * n, 100, n / 4, theta, 17);
        let buckets = plan::hash_table_buckets(n / 4, 1);
        let mut cells = vec![format!("{theta:.1}")];
        let mut base = 0u64;
        let mut groups = 0usize;
        let mut rows: Vec<String> = Vec::new();
        for scheme in [AggScheme::Baseline, AggScheme::Group { g: 16 }, AggScheme::Swp { d: 2 }] {
            let mut mem = SimEngine::paper();
            let table = aggregate(&mut mem, scheme, &input, buckets, |t| t[4] as i64);
            if groups == 0 {
                groups = table.num_groups();
            } else {
                assert_eq!(groups, table.num_groups());
            }
            let c = mem.breakdown().total();
            if base == 0 {
                base = c;
            }
            rows.push(format!("{} ({})", mcycles(c), speedup(base, c)));
        }
        cells.push(groups.to_string());
        cells.extend(rows);
        let refs: Vec<&dyn std::fmt::Display> =
            cells.iter().map(|c| c as &dyn std::fmt::Display).collect();
        ta.row(&refs);
    }
    ta.emit("ext_skew_agg");
}
