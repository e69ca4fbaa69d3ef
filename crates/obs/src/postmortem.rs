//! Postmortem dumps: parse, validate, and render `postmortem.json`.
//!
//! `phj-flightrec` writes the dump with a deliberately primitive
//! serializer (it runs on the crash path); this module is the reader
//! side — `phj blackbox` parses the dump, checks the v1 schema, draws a
//! lane-per-thread ASCII timeline (same renderer family as the region
//! heatmaps: fixed left gutter, width-clamped axis), and exports the
//! events as Perfetto instant/flow/span events alongside the existing
//! trace path.

use crate::json::{self, field, FromJson, Json, ToJson};
use crate::json_record;
use phj_flightrec::{phase_name, EventKind};

/// Fault-kind names, indexed by the `code` the disk instrumentation
/// writes on [`EventKind::Fault`] events (the `phj_disk::Fault`
/// discriminant order).
pub const FAULT_NAMES: &[&str] = &["transient", "short_read", "torn_write", "slow", "permanent"];

json_record! {
    /// Per-thread accounting row of a postmortem.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PmThread {
        /// Ring thread id.
        pub tid: u64,
        /// Events written by this thread.
        pub written: u64,
        /// Events recovered into the timeline.
        pub recovered: u64,
        /// Events lost to ring wrap.
        pub dropped: u64,
    }

    /// One timeline event of a postmortem.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct PmEvent {
        /// Nanoseconds since recorder install.
        pub t_ns: u64,
        /// Recording thread.
        pub tid: u64,
        /// Event kind.
        pub kind: EventKind,
        /// Per-kind discriminant.
        pub code: u16,
        /// First payload word.
        pub a: u64,
        /// Second payload word.
        pub b: u64,
    }
}

/// Event kinds travel by name.
impl ToJson for EventKind {
    fn to_json(&self) -> Json {
        Json::Str(self.name().to_string())
    }
}

impl FromJson for EventKind {
    fn from_json(doc: &Json) -> Result<Self, String> {
        let name = String::from_json(doc)?;
        EventKind::from_name(&name).ok_or(format!("unknown event kind '{name}'"))
    }
}

/// A parsed `postmortem.json` (schema v1).
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Why the dump was written (`panic` / `typed_error` / `sigterm` /
    /// `manual`).
    pub cause_kind: String,
    /// Human-readable cause detail.
    pub cause_message: String,
    /// Recorder granularity at dump time (always `phase`).
    pub mode: String,
    /// Per-thread ring capacity.
    pub capacity: u64,
    /// Per-thread accounting.
    pub threads: Vec<PmThread>,
    /// Nonzero per-kind totals.
    pub counts: Vec<(String, u64)>,
    /// Merged, time-ordered events.
    pub timeline: Vec<PmEvent>,
    /// Host-provided context (`key` → rendered JSON value), empty when
    /// the dump carried none.
    pub context: Vec<(String, String)>,
}

impl Postmortem {
    /// Parse a postmortem dump. Structural errors (wrong schema
    /// version, missing fields, unknown event kinds) are reported with
    /// the offending key; call [`Self::validate`] afterwards for the
    /// semantic checks.
    pub fn parse(text: &str) -> Result<Postmortem, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let version: u64 = field(&doc, "schema_version")?;
        if version != 1 {
            return Err(format!("unsupported postmortem schema_version {version}"));
        }
        let cause = doc.get("cause").ok_or("missing 'cause'")?;
        Ok(Postmortem {
            cause_kind: field(cause, "kind")?,
            cause_message: field(cause, "message")?,
            mode: field(&doc, "mode")?,
            capacity: field(&doc, "capacity")?,
            threads: field(&doc, "threads")?,
            counts: field(&doc, "counts")?,
            timeline: field(&doc, "timeline")?,
            context: match doc.get("context") {
                Some(Json::Obj(pairs)) => {
                    pairs.iter().map(|(k, v)| (k.clone(), v.render())).collect()
                }
                Some(_) => return Err("'context' is not an object".into()),
                None => Vec::new(),
            },
        })
    }

    /// Semantic checks over a parsed dump: known cause and mode, a
    /// time-ordered timeline, per-thread accounting that balances, and
    /// every timeline event attributed to a registered thread.
    pub fn validate(&self) -> Result<(), String> {
        if !["panic", "typed_error", "sigterm", "manual"].contains(&self.cause_kind.as_str()) {
            return Err(format!("unknown cause kind '{}'", self.cause_kind));
        }
        if self.mode != "phase" {
            return Err(format!("unknown mode '{}'", self.mode));
        }
        for t in &self.threads {
            if t.recovered + t.dropped != t.written {
                return Err(format!(
                    "thread {} accounting: {} recovered + {} dropped != {} written",
                    t.tid, t.recovered, t.dropped, t.written
                ));
            }
        }
        if self.timeline.windows(2).any(|w| w[0].t_ns > w[1].t_ns) {
            return Err("timeline is not time-ordered".into());
        }
        for ev in &self.timeline {
            if !self.threads.iter().any(|t| t.tid == ev.tid) {
                return Err(format!("timeline event from unregistered thread {}", ev.tid));
            }
        }
        for (kind, n) in &self.counts {
            if EventKind::from_name(kind).is_none() {
                return Err(format!("count for unknown event kind '{kind}'"));
            }
            if *n == 0 {
                return Err(format!("zero count for '{kind}'"));
            }
        }
        Ok(())
    }

    /// Total events recovered into the timeline.
    pub fn recovered(&self) -> u64 {
        self.threads.iter().map(|t| t.recovered).sum()
    }

    /// Total events written before the dump.
    pub fn written(&self) -> u64 {
        self.threads.iter().map(|t| t.written).sum()
    }

    /// Total events lost to ring wrap.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Render the postmortem as text: a header, one ASCII lane per
    /// thread (glyph per event, last writer wins per column), and the
    /// tail of the merged timeline. `width` clamps the lane axis;
    /// `tail` limits the timeline listing (0 = all).
    pub fn render(&self, width: usize, tail: usize) -> String {
        let width = width.clamp(20, 200);
        let mut out = String::new();
        out.push_str(&format!(
            "postmortem: {} — {} (mode {}, ring capacity {})\n",
            self.cause_kind, self.cause_message, self.mode, self.capacity
        ));
        let (t0, t1) = match (self.timeline.first(), self.timeline.last()) {
            (Some(a), Some(b)) => (a.t_ns, b.t_ns),
            _ => (0, 0),
        };
        out.push_str(&format!(
            "threads: {}, events: {} written / {} recovered / {} dropped, span {:.3} ms\n\n",
            self.threads.len(),
            self.written(),
            self.recovered(),
            self.dropped(),
            (t1 - t0) as f64 / 1e6
        ));

        // Lanes: one row per thread, events placed proportionally on a
        // shared time axis (the heatmap convention: gutter, |...|).
        let lane_w = width.saturating_sub(10).max(10);
        let span = (t1 - t0).max(1);
        for t in &self.threads {
            let mut lane = vec![' '; lane_w];
            for ev in self.timeline.iter().filter(|e| e.tid == t.tid) {
                let col = ((ev.t_ns - t0) as u128 * (lane_w as u128 - 1) / span as u128) as usize;
                lane[col] = ev.kind.glyph();
            }
            out.push_str(&format!(
                "tid {:>3} |{}|\n",
                t.tid,
                lane.iter().collect::<String>()
            ));
        }
        out.push_str(
            "         [ enter  ] exit  F fault  r retry  D degrade  f flush\n",
        );
        out.push_str("         G grant  w steal  e mem-epoch  M mark\n\n");

        // Timeline tail: the forensically interesting end of the run.
        let total = self.timeline.len();
        let shown = if tail == 0 { total } else { tail.min(total) };
        if shown < total {
            out.push_str(&format!("timeline (last {shown} of {total} events):\n"));
        } else {
            out.push_str(&format!("timeline ({total} events):\n"));
        }
        for ev in &self.timeline[total - shown..] {
            out.push_str(&format!(
                "  +{:>10.3} ms  tid {:>2}  {}\n",
                (ev.t_ns - t0) as f64 / 1e6,
                ev.tid,
                describe(ev)
            ));
        }
        out
    }

    /// Export as a Chrome Trace Event / Perfetto JSON document: thread
    /// metadata per lane, `X` spans reconstructed from phase
    /// enter/exit pairs, instant events (`i`) for point events, and
    /// flow arrows (`s`→`f`) from each degradation step to the phase it
    /// triggered.
    pub fn to_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        events.push(Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(1)),
            ("tid", Json::U64(0)),
            (
                "args",
                Json::obj(vec![("name", Json::Str("phj postmortem".into()))]),
            ),
        ]));
        for t in &self.threads {
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::U64(1)),
                ("tid", Json::U64(t.tid)),
                (
                    "args",
                    Json::obj(vec![("name", Json::Str(format!("flightrec tid {}", t.tid)))]),
                ),
            ]));
        }

        let us = |ns: u64| Json::F64(ns as f64 / 1e3);
        // Per-thread stacks pair phase enters with exits into X spans;
        // flow ids bind degradation steps to the next phase entered on
        // the same thread.
        let mut stacks: std::collections::BTreeMap<u64, Vec<(u16, u64)>> = Default::default();
        let mut pending_flow: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let mut next_flow = 1u64;
        for ev in &self.timeline {
            match ev.kind {
                EventKind::PhaseEnter => {
                    stacks.entry(ev.tid).or_default().push((ev.code, ev.t_ns));
                    for flow in pending_flow.remove(&ev.tid).unwrap_or_default() {
                        events.push(Json::obj(vec![
                            ("name", Json::Str("degrade→phase".into())),
                            ("cat", Json::Str("flow".into())),
                            ("ph", Json::Str("f".into())),
                            ("bp", Json::Str("e".into())),
                            ("id", Json::U64(flow)),
                            ("ts", us(ev.t_ns)),
                            ("pid", Json::U64(1)),
                            ("tid", Json::U64(ev.tid)),
                        ]));
                    }
                }
                EventKind::PhaseExit => {
                    let open = stacks.entry(ev.tid).or_default().pop();
                    // Unbalanced exits (recording began mid-phase) are
                    // dropped rather than guessed at.
                    if let Some((code, start)) = open {
                        events.push(Json::obj(vec![
                            ("name", Json::Str(phase_name(code).to_string())),
                            ("cat", Json::Str("phase".into())),
                            ("ph", Json::Str("X".into())),
                            ("ts", us(start)),
                            ("dur", us(ev.t_ns - start)),
                            ("pid", Json::U64(1)),
                            ("tid", Json::U64(ev.tid)),
                        ]));
                    }
                }
                kind => {
                    let mut pairs = vec![
                        ("name", Json::Str(describe(ev))),
                        ("cat", Json::Str(kind.name().to_string())),
                        ("ph", Json::Str("i".into())),
                        ("s", Json::Str("t".into())),
                        ("ts", us(ev.t_ns)),
                        ("pid", Json::U64(1)),
                        ("tid", Json::U64(ev.tid)),
                    ];
                    if kind == EventKind::Degrade {
                        pairs.push(("id", Json::U64(next_flow)));
                        events.push(Json::obj(vec![
                            ("name", Json::Str("degrade→phase".into())),
                            ("cat", Json::Str("flow".into())),
                            ("ph", Json::Str("s".into())),
                            ("id", Json::U64(next_flow)),
                            ("ts", us(ev.t_ns)),
                            ("pid", Json::U64(1)),
                            ("tid", Json::U64(ev.tid)),
                        ]));
                        pending_flow.entry(ev.tid).or_default().push(next_flow);
                        next_flow += 1;
                    }
                    events.push(Json::obj(pairs));
                }
            }
        }
        // Phases still open at the dump (the crash happened inside
        // them) close at the last timestamp so they stay visible.
        let end = self.timeline.last().map_or(0, |e| e.t_ns);
        for (tid, stack) in stacks {
            for (code, start) in stack.into_iter().rev() {
                events.push(Json::obj(vec![
                    ("name", Json::Str(format!("{} (unclosed)", phase_name(code)))),
                    ("cat", Json::Str("phase".into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", us(start)),
                    ("dur", us(end.saturating_sub(start))),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(tid)),
                ]));
            }
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

/// Human-readable one-liner for a timeline event.
pub fn describe(ev: &PmEvent) -> String {
    match ev.kind {
        EventKind::PhaseEnter => format!("enter {}", phase_name(ev.code)),
        EventKind::PhaseExit => format!("exit {}", phase_name(ev.code)),
        EventKind::Flush => {
            format!("flush: {} partitions, {} pages, {} tuples", ev.code, ev.a, ev.b)
        }
        EventKind::Degrade => match ev.code {
            0 => format!("degrade: recursive repartition depth {} fanout {}", ev.a, ev.b),
            _ => format!("degrade: block-NLJ fallback depth {} chunks {}", ev.a, ev.b),
        },
        EventKind::Fault => format!(
            "fault injected: {} (page {})",
            FAULT_NAMES.get(ev.code as usize).unwrap_or(&"unknown"),
            ev.a
        ),
        EventKind::Retry => format!(
            "{} retry page {} attempt {}",
            if ev.code == 0 { "read" } else { "write" },
            ev.a,
            ev.b
        ),
        EventKind::Steal => format!("steal: worker {} took from worker {}", ev.a, ev.b),
        EventKind::MemEpoch => format!("mem epoch {} at cycle {}", ev.a, ev.b),
        EventKind::Grant => match ev.code {
            phj_flightrec::grant_op::ACQUIRE => {
                format!("query {} granted {} bytes", ev.a, ev.b)
            }
            phj_flightrec::grant_op::RELEASE => {
                format!("query {} released {} bytes", ev.a, ev.b)
            }
            phj_flightrec::grant_op::RESIZE => {
                format!("query {} grant resized to {} bytes", ev.a, ev.b)
            }
            phj_flightrec::grant_op::SHED => {
                format!("query {} asked to shed to {} bytes", ev.a, ev.b)
            }
            phj_flightrec::grant_op::SPILL_VICTIM => {
                format!("victim partition {} spilled ({} bytes freed)", ev.a, ev.b)
            }
            phj_flightrec::grant_op::ABSORB => {
                format!("partition {} re-absorbed into memory ({} bytes)", ev.a, ev.b)
            }
            phj_flightrec::grant_op::TRACE => {
                format!("trace {:#018x} bound to query {}", ev.a, ev.b)
            }
            _ => format!("memory budget {} bytes (query {})", ev.b, ev.a),
        },
        EventKind::Mark => format!("mark code={} a={} b={}", ev.code, ev.a, ev.b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        r#"{
  "schema_version": 1,
  "cause": {"kind": "typed_error", "message": "disk: injected permanent error"},
  "mode": "phase",
  "capacity": 64,
  "threads": [{"tid": 0, "written": 7, "recovered": 7, "dropped": 0},
              {"tid": 1, "written": 2, "recovered": 1, "dropped": 1}],
  "counts": {"phase_enter": 3, "phase_exit": 1, "fault": 2, "retry": 1, "degrade": 1, "grant": 1},
  "timeline": [
    {"t_ns": 100, "tid": 0, "kind": "phase_enter", "code": 2, "a": 1, "b": 0},
    {"t_ns": 150, "tid": 0, "kind": "grant", "code": 0, "a": 0, "b": 1048576},
    {"t_ns": 200, "tid": 0, "kind": "phase_enter", "code": 3, "a": 2, "b": 0},
    {"t_ns": 300, "tid": 1, "kind": "fault", "code": 0, "a": 12, "b": 0},
    {"t_ns": 400, "tid": 0, "kind": "retry", "code": 0, "a": 12, "b": 1},
    {"t_ns": 500, "tid": 0, "kind": "fault", "code": 4, "a": 13, "b": 0},
    {"t_ns": 600, "tid": 0, "kind": "degrade", "code": 0, "a": 1, "b": 8},
    {"t_ns": 700, "tid": 0, "kind": "phase_exit", "code": 3, "a": 2, "b": 0}
  ],
  "context": {"degradation_depth": 1}
}"#
    }

    #[test]
    fn parses_and_validates_the_v1_schema() {
        let pm = Postmortem::parse(sample()).unwrap();
        pm.validate().unwrap();
        assert_eq!(pm.cause_kind, "typed_error");
        assert_eq!(pm.mode, "phase");
        assert_eq!(pm.threads.len(), 2);
        assert_eq!(pm.written(), 9);
        assert_eq!(pm.recovered(), 8);
        assert_eq!(pm.dropped(), 1);
        assert_eq!(pm.timeline.len(), 8);
        assert_eq!(pm.timeline[3].kind, EventKind::Fault);
        assert_eq!(pm.context, vec![("degradation_depth".to_string(), "1".to_string())]);
    }

    #[test]
    fn parse_rejects_bad_schema_and_unknown_kinds() {
        let bad_version = sample().replace("\"schema_version\": 1", "\"schema_version\": 9");
        assert!(Postmortem::parse(&bad_version).unwrap_err().contains("schema_version"));
        let bad_kind = sample().replace("\"kind\": \"fault\"", "\"kind\": \"exploded\"");
        assert!(Postmortem::parse(&bad_kind).unwrap_err().contains("exploded"));
        // Retired kinds (per-task, per-group and per-page marks) are
        // unknown to this reader like any other name.
        let retired = sample().replace("\"kind\": \"retry\"", "\"kind\": \"task\"");
        let err = Postmortem::parse(&retired).unwrap_err();
        assert!(err.ends_with("field 'kind': unknown event kind 'task'"), "{err}");
    }

    #[test]
    fn validate_catches_unbalanced_accounting_and_disorder() {
        let mut pm = Postmortem::parse(sample()).unwrap();
        pm.threads[0].dropped = 5;
        assert!(pm.validate().unwrap_err().contains("accounting"));

        let mut pm = Postmortem::parse(sample()).unwrap();
        pm.timeline.swap(0, 7);
        assert!(pm.validate().unwrap_err().contains("not time-ordered"));

        let mut pm = Postmortem::parse(sample()).unwrap();
        pm.timeline[0].tid = 99;
        assert!(pm.validate().unwrap_err().contains("unregistered thread"));

        let mut pm = Postmortem::parse(sample()).unwrap();
        pm.cause_kind = "gremlins".into();
        assert!(pm.validate().unwrap_err().contains("cause"));

        let mut pm = Postmortem::parse(sample()).unwrap();
        pm.mode = "full".into();
        assert!(pm.validate().unwrap_err().contains("mode"));
    }

    #[test]
    fn render_shows_fault_degradation_and_phases_in_order() {
        let pm = Postmortem::parse(sample()).unwrap();
        let text = pm.render(100, 0);
        assert!(text.contains("postmortem: typed_error"));
        assert!(text.contains("tid   0 |"));
        assert!(text.contains("tid   1 |"));
        let fault = text.find("fault injected: permanent (page 13)").unwrap();
        let degrade = text.find("degrade: recursive repartition depth 1 fanout 8").unwrap();
        let exit = text.find("exit partition").unwrap();
        assert!(fault < degrade && degrade < exit, "events render in time order");
        // Width clamps like the heatmaps (lane rows only — the header
        // and timeline listing are prose).
        let narrow = pm.render(5, 0);
        assert!(narrow
            .lines()
            .filter(|l| l.starts_with("tid"))
            .all(|l| l.chars().count() <= 30));
        let wide = pm.render(500, 0);
        assert!(wide
            .lines()
            .filter(|l| l.starts_with("tid"))
            .all(|l| l.chars().count() <= 210));
    }

    #[test]
    fn trace_export_pairs_phases_and_links_flows() {
        let pm = Postmortem::parse(sample()).unwrap();
        let doc = pm.to_trace();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let phase_x: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        // One closed pair (partition) + one unclosed (grace_join).
        assert_eq!(phase_x.len(), 2);
        assert!(phase_x.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("partition")
        }));
        assert!(phase_x.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("grace_join (unclosed)")
        }));
        let instants = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .count();
        assert_eq!(instants, 5, "grant + 2 faults + retry + degrade");
        let flow_starts = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("s"))
            .count();
        assert_eq!(flow_starts, 1, "the degradation step starts a flow");
        // The flow never terminated (no later phase_enter), so no `f`.
        let flow_ends = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("f"))
            .count();
        assert_eq!(flow_ends, 0);
        // Valid JSON end to end.
        let rendered = doc.render();
        assert!(json::parse(&rendered).is_ok());
    }
}
