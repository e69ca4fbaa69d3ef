//! `chrome://tracing` / Perfetto export.
//!
//! Emits the Trace Event Format's JSON object form: a `traceEvents`
//! array of `"ph": "X"` (complete) events, one per recorded span. Spans
//! from a sequential run share one thread track; spans grafted from a
//! parallel worker (tagged with a `worker` meta, see
//! [`Recorder::graft`](crate::Recorder::graft)) — and their whole
//! subtrees — draw on a per-worker track instead, so parallel phases
//! render as stacked lanes. Load the file at <https://ui.perfetto.dev>
//! or `chrome://tracing` to see the phase hierarchy on a timeline.
//!
//! Timebase: the trace format counts microseconds. Simulated runs map
//! **1 simulated cycle → 1 µs** (positions and widths are then exact
//! cycle counts, just read "µs" as "cycles"); native runs use real
//! wall-clock microseconds.

use crate::json::Json;
use crate::report::{coverage, RunReport};

/// Render `report` as a Trace Event Format JSON document.
pub fn trace_json(report: &RunReport) -> Json {
    let mut events = Vec::with_capacity(report.spans.len() + 1);
    // Name the (single) track after the command.
    events.push(Json::obj(vec![
        ("ph", Json::Str("M".into())),
        ("pid", Json::U64(1)),
        ("tid", Json::U64(1)),
        ("name", Json::Str("process_name".into())),
        (
            "args",
            Json::obj(vec![("name", Json::Str(format!("phj {}", report.command)))]),
        ),
    ]));
    // Each span's thread track: a span carrying a `worker` meta (and its
    // whole subtree, via parent inheritance) lands on that worker's lane
    // (tid 2 + worker); everything else stays on the main track (tid 1).
    let mut tids = vec![1u64; report.spans.len()];
    let mut workers: Vec<u64> = Vec::new();
    for (i, s) in report.spans.iter().enumerate() {
        let own = s
            .meta
            .iter()
            .find(|(k, _)| k == "worker")
            .and_then(|(_, v)| v.parse::<u64>().ok());
        tids[i] = match own {
            Some(w) => {
                if !workers.contains(&w) {
                    workers.push(w);
                }
                2 + w
            }
            None => s.parent.map_or(1, |p| tids[p]),
        };
    }
    workers.sort_unstable();
    let thread_name = |tid: u64, name: String| {
        Json::obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(tid)),
            ("name", Json::Str("thread_name".into())),
            ("args", Json::obj(vec![("name", Json::Str(name))])),
        ])
    };
    if !workers.is_empty() {
        events.push(thread_name(1, "main".into()));
        for &w in &workers {
            events.push(thread_name(2 + w, format!("worker {w}")));
        }
    }
    // Simulated spans are placed by cycle counts (enter/exit snapshots);
    // native spans by wall clock.
    for (i, s) in report.spans.iter().enumerate() {
        let (ts, dur) = if report.simulated {
            (
                Json::U64(s.enter.breakdown.total()),
                Json::U64(s.delta.breakdown.total()),
            )
        } else {
            (
                Json::F64(s.start_ns as f64 / 1e3),
                Json::F64(s.wall_ns as f64 / 1e3),
            )
        };
        let mut args = vec![
            ("busy".to_string(), Json::U64(s.delta.breakdown.busy)),
            ("dcache_stall".to_string(), Json::U64(s.delta.breakdown.dcache_stall)),
            ("dtlb_stall".to_string(), Json::U64(s.delta.breakdown.dtlb_stall)),
            ("other_stall".to_string(), Json::U64(s.delta.breakdown.other_stall)),
            ("prefetches".to_string(), Json::U64(s.delta.stats.prefetches)),
            ("prefetch_coverage".to_string(), Json::F64(coverage(&s.delta))),
        ];
        for (k, v) in &s.meta {
            args.push((k.clone(), Json::Str(v.clone())));
        }
        events.push(Json::obj(vec![
            ("ph", Json::Str("X".into())),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(tids[i])),
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str(if report.simulated { "sim" } else { "native" }.into())),
            ("ts", ts),
            ("dur", dur),
            ("args", Json::Obj(args)),
        ]));
    }
    // Region attribution rides along as counter tracks: one "C" event at
    // t=0 (all zeros) and one at run end (the cumulative totals), so the
    // viewer draws a ramp per region for misses and stall cycles.
    if let Some(sec) = &report.regions {
        let end_ts = if report.simulated {
            Json::U64(report.totals.breakdown.total())
        } else {
            Json::F64(report.wall_ns as f64 / 1e3)
        };
        for (name, value_of) in [
            ("region mem_misses", &(|r: &crate::report::RegionReport| r.stats.mem_misses)
                as &dyn Fn(&crate::report::RegionReport) -> u64),
            ("region stall_cycles", &|r: &crate::report::RegionReport| r.stats.stall_cycles),
        ] {
            for (ts, zero) in [(Json::U64(0), true), (end_ts.clone(), false)] {
                let args = sec
                    .regions
                    .iter()
                    .filter(|r| value_of(r) > 0)
                    .map(|r| (r.name.clone(), Json::U64(if zero { 0 } else { value_of(r) })))
                    .collect::<Vec<_>>();
                if args.is_empty() {
                    continue;
                }
                events.push(Json::obj(vec![
                    ("ph", Json::Str("C".into())),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(1)),
                    ("name", Json::Str(name.into())),
                    ("ts", ts),
                    ("args", Json::Obj(args)),
                ]));
            }
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        (
            "displayTimeUnit",
            Json::Str(if report.simulated { "ns" } else { "ms" }.into()),
        ),
    ])
}

/// [`trace_json`] rendered to compact text (the file format).
pub fn trace_text(report: &RunReport) -> String {
    trace_json(report).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::Recorder;
    use phj_memsim::{Breakdown, Snapshot};

    fn snap(busy: u64) -> Snapshot {
        Snapshot {
            breakdown: Breakdown { busy, ..Default::default() },
            ..Default::default()
        }
    }

    fn sim_report() -> RunReport {
        let mut rec = Recorder::new();
        let run = rec.begin("run", snap(0));
        let build = rec.begin("build", snap(5));
        rec.meta("partition", 3);
        rec.end(build, snap(45));
        let probe = rec.begin("probe", snap(45));
        rec.end(probe, snap(100));
        rec.end(run, snap(100));
        let mut r = RunReport::from_recorder("join", rec, snap(100), 1_000);
        r.simulated = true;
        r
    }

    #[test]
    fn sim_events_are_cycle_positioned() {
        let doc = trace_json(&sim_report());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata event + 3 spans.
        assert_eq!(events.len(), 4);
        let build = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("build"))
            .unwrap();
        assert_eq!(build.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(build.get("ts").unwrap().as_u64(), Some(5));
        assert_eq!(build.get("dur").unwrap().as_u64(), Some(40));
        // Span meta rides along in args.
        assert_eq!(
            build.get("args").unwrap().get("partition").unwrap().as_str(),
            Some("3")
        );
        // The document itself is valid JSON.
        assert!(json::parse(&trace_text(&sim_report())).is_ok());
    }

    #[test]
    fn region_counter_events_ride_along_when_profiled() {
        use crate::report::{RegionReport, RegionsSection};
        use phj_memsim::{LatencyHistogram, RegionStats};
        let mut r = sim_report();
        r.regions = Some(RegionsSection {
            regions: vec![
                RegionReport {
                    name: "hash_cells".into(),
                    stats: RegionStats { mem_misses: 7, stall_cycles: 1_050, ..Default::default() },
                    hist: LatencyHistogram::default(),
                },
                RegionReport {
                    name: "other".into(),
                    stats: RegionStats::default(),
                    hist: LatencyHistogram::default(),
                },
            ],
            skew: Vec::new(),
        });
        let doc = trace_json(&r);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        // Two tracks (misses + stall cycles) × two samples (t=0 and end).
        assert_eq!(counters.len(), 4);
        let end = counters
            .iter()
            .find(|e| {
                e.get("name").and_then(Json::as_str) == Some("region mem_misses")
                    && e.get("ts").and_then(Json::as_u64) == Some(100)
            })
            .expect("end-of-run miss counter");
        let args = end.get("args").unwrap();
        assert_eq!(args.get("hash_cells").and_then(Json::as_u64), Some(7));
        // Zero-valued regions are left off the track entirely.
        assert!(args.get("other").is_none());
    }

    #[test]
    fn worker_spans_get_their_own_thread_tracks() {
        let mut r = sim_report();
        // Tag "build" as worker 2's root; "probe" (its sibling) stays on
        // the main track. A child of "build" must inherit the lane.
        r.spans[1].meta.push(("worker".into(), "2".into()));
        let mut child = r.spans[2].clone();
        child.parent = Some(1);
        child.depth = 2;
        r.spans.push(child);
        let doc = trace_json(&r);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let tid_of = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap()
                .get("tid")
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(tid_of("run"), 1);
        assert_eq!(tid_of("build"), 4); // 2 + worker 2
        assert_eq!(tid_of("probe"), 1);
        // The appended child (a second "probe" record) inherits tid 4 —
        // check it directly by position: metadata events precede spans.
        let span_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(span_events.last().unwrap().get("tid").and_then(Json::as_u64), Some(4));
        // Thread-name metadata names both lanes.
        let names: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some("thread_name")
            })
            .map(|e| {
                (
                    e.get("tid").and_then(Json::as_u64).unwrap(),
                    e.get("args").unwrap().get("name").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect();
        assert!(names.contains(&(1, "main".to_string())));
        assert!(names.contains(&(4, "worker 2".to_string())));
    }

    /// Span and meta names containing quotes, backslashes, and non-ASCII
    /// must survive export: the rendered trace parses as JSON and the
    /// names come back verbatim through the in-tree parser.
    #[test]
    fn hostile_names_round_trip_through_the_parser() {
        let hostile = [
            r#"span "with quotes""#,
            r"back\slash\",
            "naïve-λ-メトリクス",
            "ctrl\tchars\nembedded",
        ];
        let mut rec = Recorder::new();
        let run = rec.begin(hostile[0], snap(0));
        rec.meta(hostile[1], hostile[2]);
        let child = rec.begin(hostile[3], snap(1));
        rec.end(child, snap(5));
        rec.end(run, snap(10));
        let mut r = RunReport::from_recorder("join", rec, snap(10), 1_000);
        r.simulated = true;
        let text = trace_text(&r);
        let doc = json::parse(&text).expect("hostile names must still render valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        for h in [hostile[0], hostile[3]] {
            assert!(names.contains(&h), "name {h:?} lost in round-trip");
        }
        // The hostile meta key/value pair survives inside span args too.
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("args").unwrap().get(hostile[1]).and_then(Json::as_str),
            Some(hostile[2])
        );
    }

    #[test]
    fn native_events_use_wall_clock_microseconds() {
        let mut rec = Recorder::new();
        let id = rec.begin("run", Snapshot::default());
        rec.end(id, Snapshot::default());
        let mut r = RunReport::from_recorder("join", rec, Snapshot::default(), 2_500);
        r.spans[0].start_ns = 1_500;
        r.spans[0].wall_ns = 2_500;
        let doc = trace_json(&r);
        let run = &doc.get("traceEvents").unwrap().as_arr().unwrap()[1];
        assert_eq!(run.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(run.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(run.get("cat").unwrap().as_str(), Some("native"));
    }
}
