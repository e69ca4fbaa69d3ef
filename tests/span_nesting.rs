//! Span nesting across the full GRACE and hybrid drivers: the recorder
//! must reproduce the paper's phase structure (partition pass, then
//! per-partition build/probe), and the recorded cycle deltas must
//! account for the whole simulated run.

use phj::grace::{grace_join_with_sink_rec, hybrid_join, GraceConfig};
use phj::join::JoinScheme;
use phj::sink::{CountSink, JoinSink};
use phj_memsim::SimEngine;
use phj_obs::{Recorder, RunReport, SpanRecord};
use phj_workload::JoinSpec;

fn spec() -> JoinSpec {
    JoinSpec {
        build_tuples: 3_000,
        tuple_size: 40,
        matches_per_build: 1,
        pct_match: 100,
        seed: 7,
    }
}

fn children(spans: &[SpanRecord], parent: usize) -> Vec<(usize, &SpanRecord)> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == Some(parent))
        .collect()
}

#[test]
fn grace_spans_follow_phase_structure() {
    let gen = spec().generate();
    let mut mem = SimEngine::paper();
    let mut rec = Recorder::new();
    let mut sink = CountSink::new();
    let cfg = GraceConfig { mem_budget: 32 * 1024, ..Default::default() };
    let root = rec.begin("run", mem.snapshot());
    let p = grace_join_with_sink_rec(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, Some(&mut rec));
    rec.end(root, mem.snapshot());
    let spans = rec.spans().to_vec();
    assert!(p > 1, "budget forces multiple partitions");
    assert_eq!(sink.matches(), gen.expected_matches, "recorder is observational");

    // run -> grace_join -> { partition_pass, pair* }.
    assert_eq!(spans[0].name, "run");
    let grace = children(&spans, 0);
    assert_eq!(grace.len(), 1);
    assert_eq!(grace[0].1.name, "grace_join");
    let (gi, _) = grace[0];
    let level = children(&spans, gi);
    assert_eq!(level[0].1.name, "partition_pass");
    let pairs: Vec<_> = level.iter().filter(|(_, s)| s.name == "pair").collect();
    assert_eq!(pairs.len(), p, "one pair span per partition");

    // The partition pass holds one "partition" span per relation.
    let (pp, _) = level[0];
    let rels = children(&spans, pp);
    assert_eq!(rels.len(), 2);
    assert!(rels.iter().all(|(_, s)| s.name == "partition"));

    // Every pair span holds exactly build then probe.
    for &&(pi, _) in &pairs {
        let sub = children(&spans, pi);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].1.name, "build");
        assert_eq!(sub[1].1.name, "probe");
    }

    // Cycle accounting: the root span covers the whole simulated run, and
    // grace's direct children never exceed it.
    assert_eq!(spans[0].delta.breakdown.total(), mem.now());
    let child_sum: u64 = level.iter().map(|(_, s)| s.delta.breakdown.total()).sum();
    assert!(child_sum <= spans[gi].delta.breakdown.total());

    // The whole thing exports to a valid report.
    let mut report = RunReport::from_recorder("grace", rec, mem.snapshot(), 1);
    report.simulated = true;
    report.validate().expect("grace report validates");
}

#[test]
fn hybrid_spans_follow_phase_structure() {
    let gen = spec().generate();
    let mut mem = SimEngine::paper();
    let mut rec = Recorder::new();
    let mut sink = CountSink::new();
    let cfg = GraceConfig {
        mem_budget: 32 * 1024,
        join_scheme: JoinScheme::Group { g: 8 },
        ..Default::default()
    };
    let p = hybrid_join(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, Some(&mut rec));
    let spans = rec.finish();
    assert!(p > 1);
    assert_eq!(sink.matches(), gen.expected_matches);

    assert_eq!(spans[0].name, "hybrid_join");
    let top = children(&spans, 0);
    assert_eq!(top[0].1.name, "hybrid_build_pass");
    assert_eq!(top[1].1.name, "hybrid_probe_pass");
    let pairs: Vec<_> = top.iter().filter(|(_, s)| s.name == "pair").collect();
    assert_eq!(pairs.len(), p - 1, "partition 0 never spills");

    // The three phases plus pairs account for the whole run.
    let total: u64 = top.iter().map(|(_, s)| s.delta.breakdown.total()).sum();
    assert_eq!(spans[0].delta.breakdown.total(), mem.now());
    assert!(total <= spans[0].delta.breakdown.total());
}

#[test]
fn native_model_recording_is_harmless() {
    // With the native model, spans still nest and wall clocks are sane;
    // snapshots are all zero so deltas are zero.
    use phj_memsim::NativeModel;
    let gen = spec().generate();
    let mut mem = NativeModel;
    let mut rec = Recorder::new();
    let mut sink = CountSink::new();
    let cfg = GraceConfig { mem_budget: 32 * 1024, ..Default::default() };
    grace_join_with_sink_rec(&mut mem, &cfg, &gen.build, &gen.probe, &mut sink, Some(&mut rec));
    let spans = rec.finish();
    assert_eq!(sink.matches(), gen.expected_matches);
    assert!(spans.iter().all(|s| s.delta.breakdown.total() == 0));
    assert!(spans.iter().all(|s| s.is_closed()));
    assert_eq!(spans[0].name, "grace_join");
}
