//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is `render_benchmark_json()` of these tables
//! (`run.sh --spec` prints it; a unit test keeps the two identical).

use phj_obs::Json;

/// How long one contract run measures, seconds.
pub const RUN_SECONDS: u64 = 10;

/// Prefetch schemes every kernel metric is reported for.
pub const SCHEMES: [&str; 4] = ["baseline", "simple", "group", "swp"];

/// One workload: its fixed name and why it exists (one line).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mem_join_large",
        why: "150 MB of 100 B tuples through the sequential GRACE join: far beyond any cache, so core kernels and their prefetching are nearly all of the time",
    },
    Workload {
        name: "mem_join_par",
        why: "the same 150 MB join through parallel_join_native on min(nproc,4) threads: the exec pool, LPT scheduling and the slowest lane set the time",
    },
    Workload {
        name: "mem_join_cached",
        why: "a 600 KB cache-resident join: bypasses every memory-latency optimisation (prediction: no change) and detects added instruction overhead",
    },
    Workload {
        name: "disk_join_tight",
        why: "24 MB x 48 MB striped files joined with a 4 MB budget: everything spills, so stripe writes, the background writer, page seal/verify and re-reads dominate",
    },
    Workload {
        name: "disk_join_roomy",
        why: "the same files with a 40 MB budget: zero spills, time is sequential reads + in-memory join + output writes; must not lose when the tight case wins",
    },
    Workload {
        name: "served_mix",
        why: "nproc closed-loop clients send a seeded 70/20/10 join/agg/disk-join mix of tiny queries to an in-process daemon: protocol, admission, pool hand-off and per-request generation dominate",
    },
    Workload {
        name: "sim_figures",
        why: "a 20 MB pivot join under the cycle simulator for baseline/simple/group/swp: the only workload where memsim is the hot layer, and its simulated statistics must not drift",
    },
];

/// One end-to-end metric. `bound` is the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload emits every one of these (the contract's untraced
/// run); what an "operation" is per workload is in README.md.
///
/// The bounds are what this host supports, not what one would wish:
/// on the 2-core shared sandbox whole runs shift by 10-15 % for minutes
/// at a time (README.md, "Steadiness"), so every bound is the widest
/// the contract allows. Tighten them on a quieter host.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mtuples_per_s",
        unit: "Mtuple/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

/// One per-layer metric (layer = crate name). No bound.
#[derive(Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn pl(name: impl Into<String>, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// Every per-layer metric, in report order. A traced run emits all of
/// them; one the workload does not exercise reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = vec![pl("workload.generate.ns_per_tuple", "ns", "lower")];
    for phase in ["partition", "build", "probe"] {
        for s in SCHEMES {
            v.push(pl(format!("core.{phase}.{s}.ns_per_tuple"), "ns", "lower"));
        }
    }
    v.extend([
        pl("core.grace.partitions", "count", "lower"),
        pl("core.probe.matches_per_probe", "ratio", "higher"),
        pl("core.agg.group.ns_per_row", "ns", "lower"),
        pl("exec.pool.empty_task_ns", "ns", "lower"),
        pl("exec.pool.fork_join_us.t1", "us", "lower"),
        pl("exec.pool.fork_join_us.tN", "us", "lower"),
        pl("exec.join.partition_busy_ms", "ms", "lower"),
        pl("exec.join.join_busy_ms", "ms", "lower"),
        pl("exec.join.idle_share", "ratio", "lower"),
        pl("exec.join.steals", "count", "lower"),
        pl("storage.page.seal_ns", "ns", "lower"),
        pl("storage.page.verify_ns", "ns", "lower"),
        pl("disk.stage.mb_per_s", "MB/s", "higher"),
        pl("disk.stripe.write_mb_per_s", "MB/s", "higher"),
        pl("disk.stripe.read_verified_mb_per_s", "MB/s", "higher"),
        pl("disk.stripe.read_raw_mb_per_s", "MB/s", "higher"),
        pl("disk.bgwriter.mb_per_s", "MB/s", "higher"),
        pl("disk.reader.seq_mb_per_s", "MB/s", "higher"),
        pl("disk.reader.stall_s", "s", "lower"),
        pl("disk.join.partition_s", "s", "lower"),
        pl("disk.join.join_s", "s", "lower"),
        pl("disk.join.input_stall_s", "s", "lower"),
        pl("disk.join.spilled_partitions", "count", "lower"),
        pl("disk.join.resident_partitions", "count", "higher"),
        pl("disk.join.retries", "count", "lower"),
        pl("disk.bytes_written", "B", "lower"),
        pl("disk.bytes_read", "B", "lower"),
        pl("disk.write_amp", "ratio", "lower"),
        pl("storage.pages_sealed", "count", "lower"),
        pl("storage.pages_verified", "count", "lower"),
        pl("disk.join.grace.mb_per_s", "MB/s", "higher"),
        pl("disk.join.hybrid.mb_per_s", "MB/s", "higher"),
        pl("server.proto.encode_request_ns", "ns", "lower"),
        pl("server.proto.decode_request_ns", "ns", "lower"),
        pl("server.proto.encode_response_ns", "ns", "lower"),
        pl("server.proto.decode_response_ns", "ns", "lower"),
        pl("server.admission.admit_ns", "ns", "lower"),
        pl("server.admission.admit_contended_us", "us", "lower"),
        pl("server.ping_rtt_us", "us", "lower"),
        pl("server.connect_us", "us", "lower"),
        pl("server.client.send_us", "us", "lower"),
        pl("server.client.wait_us", "us", "lower"),
        pl("server.client.recv_us", "us", "lower"),
        pl("server.query.queue_wait_us", "us", "lower"),
        pl("server.query.grant_wait_us", "us", "lower"),
        pl("server.query.exec_us", "us", "lower"),
        pl("server.query.serialize_us", "us", "lower"),
        pl("server.query.run_join_ms", "ms", "lower"),
        pl("server.query.generate_share", "ratio", "lower"),
        pl("server.class.join.p50_ms", "ms", "lower"),
        pl("server.class.agg.p50_ms", "ms", "lower"),
        pl("server.class.disk.p50_ms", "ms", "lower"),
        pl("server.report_bytes", "B", "lower"),
        pl("obs.recorder.join_overhead_pct", "%", "lower"),
        pl("obs.report.render_us", "us", "lower"),
    ]);
    for phase in ["partition", "join"] {
        for s in SCHEMES {
            v.push(pl(format!("memsim.{phase}.{s}.cycles"), "cycles", "lower"));
        }
    }
    for s in SCHEMES {
        v.push(pl(format!("memsim.join.{s}.mem_misses"), "count", "lower"));
    }
    v.extend([
        pl("memsim.join.group.pf_hidden_cycles", "cycles", "higher"),
        pl("memsim.refs", "count", "lower"),
        pl("memsim.host_ns_per_ref", "ns", "lower"),
        pl("memsim.mrefs_per_s", "Mref/s", "higher"),
        pl("memsim.join.speedup_group", "x", "higher"),
        pl("memsim.partition.speedup_group", "x", "higher"),
        pl("trace.overhead_pct", "%", "lower"),
    ]);
    v
}

/// Whether a per-layer metric is a count the program makes, which two
/// runs of one commit with one seed must repeat exactly on `workload`.
/// Byte and page counts qualify only where one thread does the work.
pub fn is_exact(name: &str, workload: &str) -> bool {
    let simulated = name.starts_with("memsim.")
        && !["memsim.host_ns_per_ref", "memsim.mrefs_per_s"].contains(&name);
    let counted = [
        "core.grace.partitions",
        "core.probe.matches_per_probe",
        "disk.join.spilled_partitions",
        "disk.join.resident_partitions",
        "disk.join.retries",
    ]
    .contains(&name);
    let disk_bytes = [
        "disk.bytes_written",
        "disk.write_amp",
        "storage.pages_sealed",
    ]
    .contains(&name)
        && workload.starts_with("disk_join");
    simulated || counted || disk_bytes
}

/// `BENCHMARK.json`, exactly as committed at the repository root.
pub fn render_benchmark_json() -> String {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::Str(s.to_string())).collect());
    let s = |x: &str| Json::Str(x.to_string());
    let doc = Json::obj(vec![
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::U64(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", s(&m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_string()), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name.to_string()), "duplicate {}", m.name);
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(["lower", "higher"].contains(&m.better));
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(render_benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            render_benchmark_json(),
            "regenerate with: benchmark/run.sh --spec > BENCHMARK.json"
        );
    }
}
