//! The benchmark's own span recorder.
//!
//! Layers are measured from outside: a span wraps one call into a
//! crate's `pub` function. Spans stay in memory and are written as a
//! Chrome trace (`chrome://tracing`, Perfetto) when the workload ends.
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use phj_obs::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this id (the query's `trace_id` on
    /// `served_mix`, the iteration number elsewhere).
    pub request: u64,
    /// Track the span is drawn on (client thread index).
    pub lane: u32,
}

/// Identifies a span begun on a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// A single-threaded span recorder. Each client thread owns one and
/// the tracers are [`merge`](Tracer::merge)d when the workload ends.
pub struct Tracer {
    origin: Instant,
    lane: u32,
    request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant, lane: u32) -> Tracer {
        Tracer {
            origin,
            lane,
            request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on belong to `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request: self.request,
            lane: self.lane,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span; spans close innermost first.
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = now;
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Attach an already-measured interval as a child of `parent` — how
    /// durations a callee reports (a reply's `query_trace` section, a
    /// `DiskGraceReport`) enter the tree. The interval is clamped into
    /// the parent so self-time arithmetic stays within it.
    pub fn attach(&mut self, parent: SpanId, name: &str, start_ns: u64, dur_ns: u64) -> SpanId {
        let p = &self.spans[parent.0];
        let (lo, hi, request) = (p.start_ns, p.end_ns, p.request);
        let start = start_ns.clamp(lo, hi);
        let end = start.saturating_add(dur_ns).min(hi);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent: Some(parent.0),
            request,
            lane: self.lane,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Start and end of a span, for laying attached children out.
    pub fn start_of(&self, id: SpanId) -> u64 {
        self.spans[id.0].start_ns
    }

    pub fn end_of(&self, id: SpanId) -> u64 {
        self.spans[id.0].end_ns
    }

    /// Fold another tracer's spans in (parent links re-based).
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "merging a tracer with open spans");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: duration minus the union of its children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total duration ns, total self time ns).
    pub fn totals(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        out
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Write the spans as Chrome trace "complete" events (µs).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::U64(1)),
                    ("tid", Json::U64(u64::from(s.lane))),
                    ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::U64(i as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            ),
                            ("request", Json::U64(s.request)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj(vec![("traceEvents", Json::Arr(events))]);
        std::fs::write(path, doc.render())
    }
}

/// Time `f` as a span when there is a tracer, and just run it when
/// there is none (the untraced run).
pub fn span_opt<R>(tr: Option<&mut Tracer>, name: &str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(Instant::now(), 0);
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
                request: 0,
                lane: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover 10..60 of a 0..100 parent; a
        // grandchild does not count against the root.
        let t = tracer_with(&[
            ("root", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("b", 30, 60, Some(0)),
            ("a.inner", 15, 20, Some(1)),
        ]);
        assert_eq!(t.self_times(), vec![50, 25, 30, 5]);
        let totals = t.totals();
        assert_eq!(totals["root"], (1, 100, 50));
        assert_eq!(totals["a"], (1, 30, 25));
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let t = tracer_with(&[("root", 10, 20, None), ("late", 15, 40, Some(0))]);
        assert_eq!(t.self_times()[0], 5);
    }

    #[test]
    fn begin_end_nest_and_attach_clamps() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.set_request(42);
        let outer = t.begin("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.end(outer);
        let start = t.start_of(outer);
        t.attach(outer, "reported", start, u64::MAX);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[2].start_ns, s[2].end_ns), (s[0].start_ns, s[0].end_ns));
        assert!(s.iter().all(|s| s.request == 42 && s.lane == 3));
        assert_eq!(
            t.self_times()[0],
            0,
            "the attached child covers the whole parent"
        );
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = tracer_with(&[("x", 0, 10, None)]);
        let b = tracer_with(&[("y", 0, 10, None), ("y.kid", 2, 4, Some(0))]);
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.total_ns("y.kid"), 2.0);
    }
}
