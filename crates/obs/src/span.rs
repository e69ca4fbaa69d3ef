//! Phase spans: nested begin/end intervals with memory-model deltas.
//!
//! A [`Recorder`] collects [`SpanRecord`]s as the join pipeline runs: the
//! GRACE driver opens a span per pass, the partition pass opens one per
//! relation, the join phase one per partition pair, and build/probe nest
//! inside those. Each span captures wall-clock time (always) and the
//! delta of the memory model's [`Snapshot`] between entry and exit — so
//! under the simulator every span carries its own cycle
//! [`Breakdown`](phj_memsim::Breakdown) and
//! [`CacheStats`](phj_memsim::CacheStats), while under [`NativeModel`]
//! the snapshots are zero and wall-clock is the signal.
//!
//! The algorithms take `Option<&mut Recorder>` so the hot paths stay
//! recorder-free when observability is off; the [`span_begin`] /
//! [`span_end`] / [`span_meta`] helpers make that optional threading a
//! one-liner at each phase boundary.
//!
//! [`NativeModel`]: phj_memsim::NativeModel

use phj_memsim::{LatencyHistogram, MemoryModel, Snapshot};
use std::time::Instant;

/// Identifier of a span within its recorder (index into
/// [`Recorder::spans`]).
pub type SpanId = usize;

/// One recorded phase interval.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Phase name (`"grace_join"`, `"partition"`, `"build"`, …).
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Wall-clock start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Memory-model snapshot at span entry (running totals).
    pub enter: Snapshot,
    /// Snapshot delta over the span (saturating; all-zero under a
    /// non-simulating model).
    pub delta: Snapshot,
    /// Free-form key–value annotations (partition index, tuple counts…).
    pub meta: Vec<(String, String)>,
    /// Exposed-latency histogram over the span (demand lines only).
    /// `None` unless the model profiles regions — absent spans keep
    /// unprofiled reports byte-identical.
    pub latency: Option<LatencyHistogram>,
    /// Model's running latency histogram at entry (for the exit diff).
    enter_hist: Option<LatencyHistogram>,
    closed: bool,
}

impl SpanRecord {
    /// Whether `end` has been called for this span.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Rebuild a (closed) span from its serialized fields — the
    /// deserialization path of
    /// [`RunReport::parse`](crate::report::RunReport::parse).
    pub fn reconstruct(
        name: String,
        parent: Option<SpanId>,
        depth: usize,
        start_ns: u64,
        wall_ns: u64,
        delta: Snapshot,
    ) -> SpanRecord {
        SpanRecord {
            name,
            parent,
            depth,
            start_ns,
            wall_ns,
            enter: Snapshot::default(),
            delta,
            meta: Vec::new(),
            latency: None,
            enter_hist: None,
            closed: true,
        }
    }
}

/// Collects nested spans. Create one per run, thread it (optionally)
/// through the pipeline, then hand it to
/// [`RunReport::from_recorder`](crate::report::RunReport::from_recorder).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; wall-clock zero is now.
    pub fn new() -> Self {
        Self::with_origin(Instant::now())
    }

    /// A fresh recorder whose wall-clock zero is `origin`. Per-worker
    /// recorders in a parallel run share the driving recorder's origin
    /// ([`Self::origin`]) so their `start_ns` values live on one time
    /// axis and the merged trace shows genuine overlap.
    pub fn with_origin(origin: Instant) -> Self {
        Recorder { origin, spans: Vec::new(), stack: Vec::new() }
    }

    /// This recorder's wall-clock zero.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Open a span named `name`, nested inside the currently open span
    /// (if any). `enter` is the memory model's snapshot at this instant.
    pub fn begin(&mut self, name: &str, enter: Snapshot) -> SpanId {
        self.begin_profiled(name, enter, None)
    }

    /// [`Self::begin`] also capturing the model's running latency
    /// histogram (when it profiles), so the matching end can diff it into
    /// the span's own histogram.
    pub fn begin_profiled(
        &mut self,
        name: &str,
        enter: Snapshot,
        enter_hist: Option<LatencyHistogram>,
    ) -> SpanId {
        let id = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            depth: self.stack.len(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            wall_ns: 0,
            enter,
            delta: Snapshot::default(),
            meta: Vec::new(),
            latency: None,
            enter_hist,
            closed: false,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` with the model's snapshot at exit. Spans must
    /// close innermost-first; closing anything but the innermost open
    /// span panics (it means a phase wrapper leaked a span).
    pub fn end(&mut self, id: SpanId, exit: Snapshot) {
        self.end_profiled(id, exit, None)
    }

    /// [`Self::end`] with the model's latency histogram at exit: the span
    /// keeps the entry→exit diff (the histogram is monotone).
    pub fn end_profiled(
        &mut self,
        id: SpanId,
        exit: Snapshot,
        exit_hist: Option<LatencyHistogram>,
    ) {
        let top = self.stack.pop().expect("Recorder::end with no open span");
        assert_eq!(top, id, "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.wall_ns = (self.origin.elapsed().as_nanos() as u64).saturating_sub(span.start_ns);
        span.delta = exit - span.enter;
        span.latency = match (span.enter_hist, exit_hist) {
            (Some(enter), Some(exit)) => Some(exit - enter),
            (None, exit) => exit,
            (Some(_), None) => None,
        };
        span.closed = true;
    }

    /// Annotate the innermost open span (no-op when none is open).
    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(&id) = self.stack.last() {
            self.spans[id].meta.push((key.to_string(), value.to_string()));
        }
    }

    /// Graft another recorder's (finished) spans under the currently open
    /// span — the merge step of a parallel run: each worker records into
    /// its own recorder, and the driver grafts the worker spans under the
    /// phase span it holds open.
    ///
    /// Span ids and parents are re-based; grafted roots become children
    /// of the innermost open span and are tagged with a `"worker"` meta
    /// key, so the report validator can group sibling cycle sums per
    /// worker lane and the trace export can lay each worker on its own
    /// track. `enter_offset` is added to every grafted span's entry
    /// snapshot, shifting a worker-local cycle axis (a fresh per-worker
    /// sim model starts at zero) to the run's axis at the phase start.
    ///
    /// The merge is lossless: grafted spans keep their names, deltas,
    /// meta, latency histograms, and wall-clock intervals unchanged.
    ///
    /// # Panics
    /// Panics if no span is open or any grafted span is still open.
    pub fn graft(&mut self, worker: usize, enter_offset: Snapshot, spans: Vec<SpanRecord>) {
        let top = *self.stack.last().expect("graft requires an open span");
        let base = self.spans.len();
        let depth_base = self.stack.len();
        for mut s in spans {
            assert!(s.closed, "graft of an open span");
            if s.parent.is_none() {
                s.meta.push(("worker".to_string(), worker.to_string()));
            }
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => Some(top),
            };
            s.depth += depth_base;
            s.enter = s.enter + enter_offset;
            self.spans.push(s);
        }
    }

    /// All spans, in open order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Number of spans still open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// Consume the recorder, returning its spans. Panics if any span is
    /// still open — every `begin` must have seen its `end`.
    pub fn finish(self) -> Vec<SpanRecord> {
        assert!(self.stack.is_empty(), "Recorder::finish with {} open span(s)", self.stack.len());
        self.spans
    }
}

/// Open a span on an optional recorder, snapshotting `model`. Returns
/// `None` (for the matching [`span_end`]) when no recorder is attached.
///
/// Independently of the recorder, the phase transition is journaled to
/// the process flight recorder (`phj_flightrec`) — a no-op until a
/// binary installs one, and never on the simulated critical path — so
/// crash postmortems see phase context even from unobserved runs.
pub fn span_begin<M: MemoryModel>(
    rec: &mut Option<&mut Recorder>,
    model: &M,
    name: &str,
) -> Option<SpanId> {
    phj_flightrec::phase_enter(name);
    rec.as_deref_mut().map(|r| r.begin_profiled(name, model.snapshot(), model.latency_hist()))
}

/// Close the span opened by the matching [`span_begin`]. Also journals
/// the phase exit to the flight recorder (see [`span_begin`]).
pub fn span_end<M: MemoryModel>(
    rec: &mut Option<&mut Recorder>,
    model: &M,
    id: Option<SpanId>,
) {
    phj_flightrec::phase_exit();
    if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
        r.end_profiled(id, model.snapshot(), model.latency_hist());
    }
}

/// Annotate the innermost open span of an optional recorder.
pub fn span_meta(rec: &mut Option<&mut Recorder>, key: &str, value: impl std::fmt::Display) {
    if let Some(r) = rec.as_deref_mut() {
        r.meta(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_memsim::{Breakdown, CacheStats};

    fn snap(busy: u64, prefetches: u64) -> Snapshot {
        Snapshot {
            breakdown: Breakdown { busy, ..Default::default() },
            stats: CacheStats { prefetches, ..Default::default() },
        }
    }

    #[test]
    fn nesting_records_parents_and_depths() {
        let mut r = Recorder::new();
        let a = r.begin("join", snap(0, 0));
        let b = r.begin("partition", snap(10, 1));
        r.meta("rel", 0);
        r.end(b, snap(30, 2));
        let c = r.begin("pair", snap(30, 2));
        let d = r.begin("build", snap(31, 2));
        r.end(d, snap(40, 3));
        r.end(c, snap(45, 3));
        r.end(a, snap(50, 4));
        let spans = r.finish();
        let shape: Vec<(&str, Option<usize>, usize)> =
            spans.iter().map(|s| (s.name.as_str(), s.parent, s.depth)).collect();
        assert_eq!(
            shape,
            vec![
                ("join", None, 0),
                ("partition", Some(0), 1),
                ("pair", Some(0), 1),
                ("build", Some(2), 2),
            ]
        );
        assert_eq!(spans[1].meta, vec![("rel".to_string(), "0".to_string())]);
        assert_eq!(spans[1].delta.breakdown.busy, 20);
        assert_eq!(spans[1].delta.stats.prefetches, 1);
        assert_eq!(spans[0].delta.breakdown.busy, 50);
        assert!(spans.iter().all(|s| s.is_closed()));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_end_panics() {
        let mut r = Recorder::new();
        let a = r.begin("outer", Snapshot::default());
        let _b = r.begin("inner", Snapshot::default());
        r.end(a, Snapshot::default());
    }

    #[test]
    #[should_panic(expected = "open span")]
    fn finish_with_open_span_panics() {
        let mut r = Recorder::new();
        r.begin("left-open", Snapshot::default());
        let _ = r.finish();
    }

    #[test]
    fn optional_helpers_are_noops_without_recorder() {
        let mut rec: Option<&mut Recorder> = None;
        let model = phj_memsim::NativeModel;
        let id = span_begin(&mut rec, &model, "x");
        assert_eq!(id, None);
        span_meta(&mut rec, "k", 1);
        span_end(&mut rec, &model, id); // must not panic
    }

    #[test]
    fn optional_helpers_record_through_some() {
        let mut recorder = Recorder::new();
        let model = phj_memsim::NativeModel;
        {
            let mut rec = Some(&mut recorder);
            let id = span_begin(&mut rec, &model, "phase");
            span_meta(&mut rec, "tuples", 42);
            span_end(&mut rec, &model, id);
        }
        let spans = recorder.finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[0].meta[0], ("tuples".to_string(), "42".to_string()));
        // NativeModel snapshots are zero, so the delta is zero.
        assert_eq!(spans[0].delta, Snapshot::default());
    }

    #[test]
    fn graft_rebases_ids_depths_and_offsets() {
        // Worker recorder: two top-level spans, one nested child.
        let mut w = Recorder::new();
        let a = w.begin("pair", snap(0, 0));
        let b = w.begin("build", snap(1, 0));
        w.end(b, snap(5, 2));
        w.end(a, snap(9, 3));
        let c = w.begin("pair", snap(9, 3));
        w.end(c, snap(12, 4));
        let worker_spans = w.finish();

        let mut main = Recorder::new();
        let run = main.begin("run", snap(0, 0));
        let phase = main.begin("join_pass", snap(100, 7));
        main.graft(3, snap(100, 7), worker_spans);
        main.end(phase, snap(112, 11));
        main.end(run, snap(112, 11));
        let spans = main.finish();
        // Layout: 0 run, 1 join_pass, 2 pair, 3 build, 4 pair.
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(2), "nested child follows its root");
        assert_eq!(spans[4].parent, Some(1));
        assert_eq!(spans[2].depth, 2);
        assert_eq!(spans[3].depth, 3);
        // Grafted roots are worker-tagged; nested children are not.
        let worker_of = |s: &SpanRecord| {
            s.meta.iter().find(|(k, _)| k == "worker").map(|(_, v)| v.clone())
        };
        assert_eq!(worker_of(&spans[2]).as_deref(), Some("3"));
        assert_eq!(worker_of(&spans[3]), None);
        assert_eq!(worker_of(&spans[4]).as_deref(), Some("3"));
        // Entry snapshots shift to the run axis; deltas are untouched.
        assert_eq!(spans[2].enter.breakdown.busy, 100);
        assert_eq!(spans[4].enter.breakdown.busy, 109);
        assert_eq!(spans[2].delta.breakdown.busy, 9);
        assert_eq!(spans[3].delta.stats.prefetches, 2);
    }

    #[test]
    #[should_panic(expected = "requires an open span")]
    fn graft_without_open_span_panics() {
        let mut r = Recorder::new();
        r.graft(0, Snapshot::default(), Vec::new());
    }

    #[test]
    fn wall_clock_is_monotone_nonnegative() {
        let mut r = Recorder::new();
        let a = r.begin("t", Snapshot::default());
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.end(a, Snapshot::default());
        let spans = r.finish();
        assert!(spans[0].wall_ns >= 1_000_000, "slept ≥ 1 ms: {}", spans[0].wall_ns);
    }
}
