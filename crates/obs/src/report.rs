//! Structured run reports: config fingerprint + per-span metrics +
//! derived rates, serialized as JSON.

use crate::json::{self, FromJson, Json, ToJson};
use crate::json_record;
use crate::span::{Recorder, SpanRecord};
use phj_memsim::{Breakdown, CacheStats, LatencyHistogram, RegionStats, Snapshot};

/// Report format version (bump on breaking layout changes).
pub const SCHEMA_VERSION: u64 = 1;

/// One region's attribution entry in a report's `regions` section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegionReport {
    /// Region kind name (`"hash_bucket_headers"`, `"hash_cells"`, …).
    pub name: String,
    /// Counters charged to this region.
    pub stats: RegionStats,
    /// Exposed-latency histogram of the region's demand lines.
    pub hist: LatencyHistogram,
}

// A region is one flat object: its name, the `RegionStats` counters
// (this is their field table) and the histogram.
json_record! {
    impl RegionReport {
        "name" => rw(name),
        "l1_hits" => rw(stats.l1_hits),
        "l1_inflight_hits" => rw(stats.l1_inflight_hits),
        "l2_hits" => rw(stats.l2_hits),
        "mem_misses" => rw(stats.mem_misses),
        "demand_lines" => emit(r => r.stats.demand_lines()),
        "tlb_demand_walks" => rw(stats.tlb_demand_walks),
        "stall_cycles" => rw(stats.stall_cycles),
        "prefetches" => rw(stats.prefetches),
        "pf_dropped" => rw(stats.pf_dropped),
        "tlb_prefetch_walks" => rw(stats.tlb_prefetch_walks),
        "pf_hidden" => rw(stats.pf_hidden),
        "pf_partial" => rw(stats.pf_partial),
        "pf_late" => rw(stats.pf_late),
        "pf_polluting" => rw(stats.pf_polluting),
        "pf_hidden_cycles" => rw(stats.pf_hidden_cycles),
        "hist" => rw(hist),
    }
}

json_record! {
    /// One partition's row of the skew profile: how unevenly the partition
    /// phase spread work, and which pairs drove the misses.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct SkewRow {
        /// Partition index (the `index` meta of its `pair` span).
        pub index: u64,
        /// Build tuples in the pair.
        pub build_tuples: u64,
        /// Probe tuples in the pair.
        pub probe_tuples: u64,
        /// Simulated cycles the pair took.
        pub cycles: u64,
        /// L2 hits (L1 misses served from L2) in the pair.
        pub l2_hits: u64,
        /// Full memory misses in the pair.
        pub mem_misses: u64,
    }

    /// The optional memory-access attribution section of a [`RunReport`]:
    /// per-region counters/histograms plus the per-partition skew profile.
    /// Present only when the run profiled regions (`--profile-regions`).
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct RegionsSection {
        /// Per-region attribution, in [`RegionKind`](phj_memsim::RegionKind)
        /// order.
        pub regions: Vec<RegionReport>,
        /// Per-partition skew rows (empty when the run had no `pair` spans).
        pub skew: Vec<SkewRow>,
    }
}

impl RegionsSection {
    /// Lift an engine's [`RegionProfiler`](phj_memsim::RegionProfiler)
    /// into report form (one entry per kind, in
    /// [`RegionKind::ALL`](phj_memsim::RegionKind::ALL) order). The skew
    /// rows are filled in separately by the caller.
    pub fn from_profiler(p: &phj_memsim::RegionProfiler) -> Self {
        RegionsSection {
            regions: phj_memsim::RegionKind::ALL
                .into_iter()
                .map(|k| RegionReport {
                    name: k.name().to_string(),
                    stats: p.stats(k),
                    hist: *p.hist(k),
                })
                .collect(),
            skew: Vec::new(),
        }
    }

    /// Fold another section (e.g. one worker lane's) into this one.
    /// Counters add and histograms merge region-by-region, so the region
    /// conservation invariant checked by
    /// [`RunReport::validate`] holds for the merged section exactly when
    /// the run totals are likewise summed across lanes. Skew rows are
    /// concatenated.
    pub fn merge(&mut self, other: &RegionsSection) {
        if self.regions.is_empty() {
            self.regions = other.regions.clone();
        } else {
            assert_eq!(
                self.regions.len(),
                other.regions.len(),
                "merge requires identical region layouts"
            );
            for (a, b) in self.regions.iter_mut().zip(&other.regions) {
                assert_eq!(a.name, b.name, "merge requires matching region order");
                a.stats.merge(&b.stats);
                a.hist.merge(&b.hist);
            }
        }
        self.skew.extend(other.skew.iter().copied());
    }
}

json_record! {
    /// One degradation-ladder step in a report's `faults` section: what the
    /// disk engine did about a build partition that outgrew the memory
    /// budget.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct DegradationRow {
        /// Hierarchical partition label (`"3"`, `"3.1"`, …).
        pub partition: String,
        /// Repartition depth at which the step was taken.
        pub depth: u64,
        /// Size of the oversized partition in bytes.
        pub bytes: u64,
        /// The memory budget it failed to fit.
        pub budget: u64,
        /// The step taken: `"repartition"` or `"nlj_fallback"`.
        pub action: String,
        /// Action parameter: repartition fanout, or nested-loop chunk count.
        pub detail: u64,
    }

    /// The optional fault-and-resilience section of a [`RunReport`]:
    /// injected-fault and retry counters from a fault-injecting disk run,
    /// plus any degradation-ladder events. Present only when the run
    /// attached a fault plan or degraded; like `regions`, the JSON key is
    /// omitted entirely when absent so undisturbed reports stay
    /// byte-identical to older ones.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct FaultsSection {
        /// Total faults injected across all fault kinds.
        pub faults_injected: u64,
        /// Read attempts repeated after retryable failures.
        pub read_retries: u64,
        /// Write attempts repeated after retryable failures.
        pub write_retries: u64,
        /// Microseconds of injected slow-disk stall.
        pub slow_stall_us: u64,
        /// Degradation steps taken for oversized partitions.
        pub degradation: Vec<DegradationRow>,
    }
}

json_record! {
    /// One sampled metric series in a report's `timeseries` section.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct TimeseriesRow {
        /// Metric family name (`phj_exec_tasks_total`, …).
        pub name: String,
        /// Smallest sampled value.
        pub min: u64,
        /// Largest sampled value.
        pub max: u64,
        /// Final sampled value.
        pub last: u64,
        /// `(t_ns, value)` samples, oldest first (`t_ns` relative to the
        /// sampler's start).
        pub points: Vec<(u64, u64)>,
    }

    /// The optional live-telemetry section of a [`RunReport`]: the sampler
    /// ring's contents at end of run, one row per metric family. Present
    /// only when the run enabled telemetry sampling (`--sample-interval` /
    /// `--metrics-addr` / `--dashboard`); like `regions` and `faults`, the
    /// JSON key is omitted entirely when absent so untelemetered reports
    /// stay byte-identical to older ones.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct TimeseriesSection {
        /// Sampling interval in milliseconds.
        pub interval_ms: u64,
        /// Ring capacity in samples (rows hold at most this many points).
        pub capacity: u64,
        /// Per-metric series, in scrape (name) order.
        pub series: Vec<TimeseriesRow>,
    }
}

json_record! {
    /// The optional flight-recorder summary section of a [`RunReport`]:
    /// per-kind event totals and exact ring-wrap drop accounting from the
    /// process flight recorder (`phj-flightrec`). Deliberately carries no
    /// timestamps, so two identical deterministic runs summarize
    /// byte-identically (the `setarch -R` byte-identity gate runs with the
    /// recorder on). Like the other optional sections, the JSON key is
    /// omitted entirely when absent.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct FlightrecSection {
        /// Recording granularity (`"phase"` or `"full"`).
        pub mode: String,
        /// Per-thread ring capacity in events.
        pub capacity: u64,
        /// Threads that recorded at least one event.
        pub threads: u64,
        /// Total events written across all rings.
        pub written: u64,
        /// Events lost to ring wrap (`written - recovered`).
        pub dropped: u64,
        /// Nonzero per-kind totals, in event-kind order.
        pub counts: Vec<(String, u64)>,
    }
}

/// Internal consistency of a `flightrec` section: known mode, known
/// nonzero event kinds, and counts that sum to the write total.
fn validate_flightrec(sec: &FlightrecSection) -> Result<(), String> {
    if sec.mode != "phase" && sec.mode != "full" {
        return Err(format!("flightrec mode '{}' is not phase|full", sec.mode));
    }
    if sec.dropped > sec.written {
        return Err(format!(
            "flightrec dropped {} exceeds written {}",
            sec.dropped, sec.written
        ));
    }
    let mut sum = 0u64;
    for (kind, n) in &sec.counts {
        if phj_flightrec::EventKind::from_name(kind).is_none() {
            return Err(format!("flightrec count for unknown event kind '{kind}'"));
        }
        if *n == 0 {
            return Err(format!("flightrec carries a zero count for '{kind}'"));
        }
        sum += n;
    }
    if sum != sec.written {
        return Err(format!(
            "flightrec counts sum to {sum} but written is {}",
            sec.written
        ));
    }
    if sec.written > 0 && sec.threads == 0 {
        return Err("flightrec wrote events with zero threads".into());
    }
    Ok(())
}

/// Canonical query lifecycle state names, in state-machine order. The
/// daemon's per-query state machine serializes into these names (both
/// in the `query_trace` report section and on the wire in `Status`
/// responses, where the index here is the state code). Append-only:
/// codes are written into protocol frames and captured reports.
pub const QUERY_STATES: [&str; 7] = [
    "received",
    "queued",
    "admitted",
    "executing",
    "responding",
    "done",
    "failed",
];

/// The optional per-query trace section of a [`RunReport`]: the server
/// daemon's lifecycle record for the one query that produced this
/// report — wall-clock breakdown (queue wait, grant wait, execution,
/// serialization) plus the state transitions with their offsets from
/// arrival. Present only when the daemon ran with tracing enabled;
/// like the other optional sections, the JSON key is omitted entirely
/// when absent so untraced reports stay byte-identical.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryTraceSection {
    /// Client-minted trace id (0 when the client sent none).
    pub trace_id: u64,
    /// Server-assigned query id.
    pub query_id: u64,
    /// Time spent queued behind earlier arrivals (FIFO position wait).
    pub queue_wait_ns: u64,
    /// Time spent at the queue head waiting for budget (grant wait).
    pub grant_wait_ns: u64,
    /// Execution wall time (admission to result production).
    pub exec_ns: u64,
    /// Result serialization wall time (report attach + frame encode).
    pub serialize_ns: u64,
    /// Memory-shed requests this query absorbed while running.
    pub shed_count: u64,
    /// `(state, t_ns)` transitions: state name from [`QUERY_STATES`],
    /// offset in nanoseconds since the request was received.
    pub states: Vec<(String, u64)>,
}

json_record! {
    impl QueryTraceSection {
        "trace_id" => rw(trace_id),
        "query_id" => rw(query_id),
        "queue_wait_ns" => rw(queue_wait_ns),
        "grant_wait_ns" => rw(grant_wait_ns),
        "exec_ns" => rw(exec_ns),
        "serialize_ns" => rw(serialize_ns),
        "shed_count" => rw(shed_count),
        "states" => with(states, stamps_to_json, stamps_from_json),
    }
}

json_record! {
    /// One `states` entry as it appears in the JSON (the section itself
    /// keeps plain `(state, t_ns)` pairs).
    struct StateStamp {
        state: String,
        t_ns: u64,
    }
}

fn stamps_to_json(states: &[(String, u64)]) -> Json {
    let stamps: Vec<StateStamp> =
        states.iter().map(|(state, t_ns)| StateStamp { state: state.clone(), t_ns: *t_ns }).collect();
    stamps.to_json()
}

fn stamps_from_json(doc: &Json, key: &str) -> Result<Vec<(String, u64)>, String> {
    let stamps: Vec<StateStamp> = json::field(doc, key)?;
    Ok(stamps.into_iter().map(|s| (s.state, s.t_ns)).collect())
}

/// Internal consistency of a `query_trace` section: every state is a
/// known [`QUERY_STATES`] name, the transition timestamps are monotone,
/// and the machine starts where every query starts — at `received`.
fn validate_query_trace(sec: &QueryTraceSection) -> Result<(), String> {
    if sec.states.is_empty() {
        return Err("query_trace carries no state transitions".into());
    }
    for (state, _) in &sec.states {
        if !QUERY_STATES.contains(&state.as_str()) {
            return Err(format!("query_trace has unknown state '{state}'"));
        }
    }
    if sec.states[0].0 != "received" {
        return Err(format!(
            "query_trace starts at '{}', not 'received'",
            sec.states[0].0
        ));
    }
    if sec.states.windows(2).any(|w| w[0].1 > w[1].1) {
        return Err("query_trace state timestamps are not monotone".into());
    }
    Ok(())
}

/// Bottleneck classes the diagnosis rule engine can assign. Exactly one
/// becomes a report's primary bottleneck; `compute_bound` is the healthy
/// default when no pathology fires.
pub const BOTTLENECK_CLASSES: [&str; 7] = [
    "degraded",
    "fault_stalled",
    "skew_bound",
    "tlb_bound",
    "bandwidth_bound",
    "latency_bound",
    "compute_bound",
];

json_record! {
    /// One phase's Theorem-1/2 prediction in a report's `analysis` section:
    /// the stage-cost vector the prediction was computed from, the minimal
    /// group size and prefetch distance that fully hide misses, and the
    /// coverage the configured scheme should reach under the first-order
    /// hiding model.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhasePrediction {
        /// Phase name (`"probe"`, `"build"`, `"partition"`).
        pub phase: String,
        /// Stage costs `[C_0, ..., C_k]` (cycles) used for the prediction.
        pub stage_costs: Vec<u64>,
        /// Theorem 1's minimal fully-hiding group size.
        pub g_min: u64,
        /// Whether group prefetching can hide the first miss (`C_0 > 0`).
        pub first_miss_hidden: bool,
        /// Theorem 2's minimal fully-hiding prefetch distance.
        pub d_min: u64,
        /// Predicted hidden-latency fraction for the run's configured scheme
        /// and parameter (1.0 at or past the theorem prediction).
        pub predicted_coverage: f64,
    }

    /// One predicted-vs-measured row in a report's `analysis` section.
    /// `residual` is always `measured - predicted`, so a negative residual
    /// on a coverage metric reads "prefetching hid less than the model
    /// promised".
    #[derive(Debug, Clone, PartialEq)]
    pub struct ResidualRow {
        /// Metric name (`"prefetch_coverage"`, `"pf_hidden_cycles"`,
        /// `"miss_share.hash_cells"`, …).
        pub metric: String,
        /// Model-predicted value.
        pub predicted: f64,
        /// Measured value from the report.
        pub measured: f64,
        /// `measured - predicted`.
        pub residual: f64,
    }

    /// One rule's outcome in the bottleneck classifier: whether it fired and
    /// the evidence lines (human-readable, one observation each) behind the
    /// decision.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RuleOutcome {
        /// Class this rule argues for (a [`BOTTLENECK_CLASSES`] entry).
        pub class: String,
        /// Whether the rule's conditions held on this report.
        pub fired: bool,
        /// The observations that made (or would have made) the call.
        pub evidence: Vec<String>,
    }

    /// The optional model-vs-measured diagnosis section of a [`RunReport`],
    /// produced by `phj-analyze`: Theorem-1/2 predictions recomputed from
    /// the config fingerprint, predicted-vs-measured residuals, and a
    /// rule-engine bottleneck classification. Like `regions`/`faults`/
    /// `timeseries`, the JSON key is omitted entirely when absent.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct AnalysisSection {
        /// Full miss latency `T` the predictions assumed (cycles).
        pub t_full: u64,
        /// Pipelined additional-miss latency `T_next` assumed (cycles).
        pub t_next: u64,
        /// The scheme string the predictions were evaluated for.
        pub scheme: String,
        /// The calibration constants used (after any `--cost-model`
        /// overrides), for provenance.
        pub cost_model: Vec<(String, u64)>,
        /// Per-phase theorem predictions (empty for native runs, where the
        /// simulator's cost model does not apply).
        pub predictions: Vec<PhasePrediction>,
        /// Predicted-vs-measured rows.
        pub residuals: Vec<ResidualRow>,
        /// The one primary bottleneck class assigned to the run.
        pub primary: String,
        /// Evidence lines behind the primary classification.
        pub evidence: Vec<String>,
        /// Every rule's outcome, in evaluation (priority) order.
        pub rules: Vec<RuleOutcome>,
    }
}

/// Internal consistency of an `analysis` section: the primary class must
/// be a known class whose rule exists and fired with evidence, every
/// float must be finite (no NaN/Inf ever reaches the JSON), residuals
/// must actually be `measured - predicted`, and predictions must be
/// structurally meaningful (`k ≥ 1` stages, `G ≥ 1`, `D ≥ 1`, coverage
/// in `[0, 1]`).
fn validate_analysis(sec: &AnalysisSection) -> Result<(), String> {
    if !BOTTLENECK_CLASSES.contains(&sec.primary.as_str()) {
        return Err(format!("analysis primary '{}' is not a known class", sec.primary));
    }
    if sec.evidence.is_empty() {
        return Err(format!("analysis primary '{}' carries no evidence", sec.primary));
    }
    let rule = sec
        .rules
        .iter()
        .find(|r| r.class == sec.primary)
        .ok_or_else(|| format!("analysis primary '{}' has no rule outcome", sec.primary))?;
    if !rule.fired {
        return Err(format!("analysis primary '{}' rule did not fire", sec.primary));
    }
    for r in &sec.rules {
        if !BOTTLENECK_CLASSES.contains(&r.class.as_str()) {
            return Err(format!("analysis rule class '{}' is unknown", r.class));
        }
        if r.fired && r.evidence.is_empty() {
            return Err(format!("analysis rule '{}' fired without evidence", r.class));
        }
    }
    if sec.rules.iter().filter(|r| r.class == sec.primary).count() > 1 {
        return Err(format!("analysis rule '{}' appears more than once", sec.primary));
    }
    if !sec.predictions.is_empty() && sec.t_next == 0 {
        return Err("analysis predictions require t_next > 0".into());
    }
    for p in &sec.predictions {
        if p.stage_costs.len() < 2 {
            return Err(format!("phase '{}' has fewer than 2 stage costs", p.phase));
        }
        if p.g_min < 1 || p.d_min < 1 {
            return Err(format!("phase '{}' predicts G or D below 1", p.phase));
        }
        if !p.predicted_coverage.is_finite()
            || !(0.0..=1.0).contains(&p.predicted_coverage)
        {
            return Err(format!(
                "phase '{}' predicted coverage {} outside [0, 1]",
                p.phase, p.predicted_coverage
            ));
        }
    }
    for r in &sec.residuals {
        if !(r.predicted.is_finite() && r.measured.is_finite() && r.residual.is_finite()) {
            return Err(format!("residual '{}' contains a non-finite value", r.metric));
        }
        let expect = r.measured - r.predicted;
        let scale = 1.0f64.max(r.measured.abs()).max(r.predicted.abs());
        if (r.residual - expect).abs() > 1e-9 * scale {
            return Err(format!(
                "residual '{}' is {} but measured - predicted is {}",
                r.metric, r.residual, expect
            ));
        }
    }
    Ok(())
}

/// A complete, serializable description of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// What ran (`"join"`, `"agg"`, `"tune"`, or a bench slug).
    pub command: String,
    /// Config fingerprint: ordered key–value pairs (scheme, G, D, tuple
    /// size, memory-model parameters…). Strings so the report layer does
    /// not depend on the algorithm crates.
    pub config: Vec<(String, String)>,
    /// True when the run drove the cycle-level simulator (cycle numbers
    /// are meaningful); false for native runs (wall-clock only).
    pub simulated: bool,
    /// Whole-run memory-model delta.
    pub totals: Snapshot,
    /// Whole-run wall-clock time in nanoseconds.
    pub wall_ns: u64,
    /// Input tuples processed (build + probe), for rate derivation.
    pub tuples: u64,
    /// Join matches (or aggregate groups) produced.
    pub matches: u64,
    /// The recorded phase spans, in open order.
    pub spans: Vec<SpanRecord>,
    /// Memory-access attribution (`None` unless the run profiled
    /// regions; the JSON key is omitted entirely when absent, keeping
    /// unprofiled reports byte-identical to pre-attribution ones).
    pub regions: Option<RegionsSection>,
    /// Fault-injection and degradation counters (`None` unless the run
    /// injected faults, retried I/O, or degraded; omitted from the JSON
    /// when absent, same convention as `regions`).
    pub faults: Option<FaultsSection>,
    /// Sampled live-telemetry series (`None` unless the run enabled the
    /// sampler; omitted from the JSON when absent, same convention as
    /// `regions` and `faults`).
    pub timeseries: Option<TimeseriesSection>,
    /// Model-vs-measured diagnosis (`None` unless an analyzer attached
    /// one; omitted from the JSON when absent, same convention as the
    /// other optional sections).
    pub analysis: Option<AnalysisSection>,
    /// Flight-recorder summary (`None` unless the run had the process
    /// flight recorder installed; omitted from the JSON when absent,
    /// same convention as the other optional sections).
    pub flightrec: Option<FlightrecSection>,
    /// Per-query daemon lifecycle trace (`None` unless a tracing-enabled
    /// server attached one; omitted from the JSON when absent, same
    /// convention as the other optional sections).
    pub query_trace: Option<QueryTraceSection>,
}

// Written by the table below, gated on by `RunReport::parse`.
const VERSION_KEY: &str = "schema_version";

// The document layout, top to bottom. The six optional sections are the
// `opt` entries: their key is omitted entirely when the section is
// `None`, so reports without one stay byte-identical to older ones.
json_record! {
    impl RunReport {
        VERSION_KEY => emit(_r => SCHEMA_VERSION),
        "command" => rw(command),
        "simulated" => rw(simulated),
        "config" => rw(config),
        "wall_ns" => rw(wall_ns),
        "tuples" => rw(tuples),
        "matches" => rw(matches),
        "breakdown" => rw(totals.breakdown),
        "cache" => rw(totals.stats),
        "derived" => emit(r => Json::obj(vec![
            ("tuples_per_sec", r.tuples_per_sec().to_json()),
            ("cycles_per_tuple", r.cycles_per_tuple().to_json()),
            ("prefetch_coverage", r.prefetch_coverage().to_json()),
            ("pollution_rate", r.pollution_rate().to_json()),
        ])),
        "spans" => rw(spans),
        "regions" => opt(regions),
        "faults" => opt(faults),
        "timeseries" => opt(timeseries),
        "analysis" => opt(analysis),
        "flightrec" => opt(flightrec),
        "query_trace" => opt(query_trace),
    }
}

impl RunReport {
    /// Build a report from a finished recorder. `totals` is the
    /// whole-run snapshot delta (typically the engine's final snapshot,
    /// since it starts at zero).
    pub fn from_recorder(
        command: &str,
        recorder: Recorder,
        totals: Snapshot,
        wall_ns: u64,
    ) -> Self {
        RunReport {
            command: command.to_string(),
            totals,
            wall_ns,
            spans: recorder.finish(),
            ..Default::default()
        }
    }

    /// Append a config fingerprint entry.
    pub fn config_kv(&mut self, key: &str, value: impl std::fmt::Display) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Fraction of miss latency hidden by prefetching, in `[0, 1]`:
    /// `pf_hidden_cycles / (pf_hidden_cycles + dcache_stall)`. Zero when
    /// nothing was prefetched *and* nothing stalled (e.g. native runs).
    pub fn prefetch_coverage(&self) -> f64 {
        coverage(&self.totals)
    }

    /// Fraction of prefetches whose line was evicted before any demand
    /// use: `pf_evicted_unused / prefetches`; zero when no prefetches
    /// were issued.
    pub fn pollution_rate(&self) -> f64 {
        pollution(&self.totals.stats)
    }

    /// Input tuples per wall-clock second (zero when untimed).
    pub fn tuples_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.tuples as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// Simulated cycles per input tuple (`None` for native runs or empty
    /// inputs).
    pub fn cycles_per_tuple(&self) -> Option<f64> {
        let cycles = self.totals.breakdown.total();
        if self.simulated && self.tuples > 0 {
            Some(cycles as f64 / self.tuples as f64)
        } else {
            None
        }
    }

    /// Serialize to a JSON document.
    pub fn to_json(&self) -> Json {
        ToJson::to_json(self)
    }

    /// Serialize to pretty-printed JSON text.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Parse a report back from JSON text (the inverse of [`Self::render`]
    /// for every field the report model carries).
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let version: u64 = json::field(&doc, VERSION_KEY)?;
        if version != SCHEMA_VERSION {
            return Err(format!("unsupported schema_version {version}"));
        }
        RunReport::from_json(&doc)
    }

    /// Structural sanity checks; `Err` carries the first violation.
    ///
    /// * at least one span, exactly one root (depth 0, no parent);
    /// * parents precede children and depths are parent + 1;
    /// * children's cycle totals sum to at most their parent's, per
    ///   worker lane — children carrying a `worker` meta are parallel
    ///   siblings, so each lane must fit within the parent but lanes do
    ///   not sum with each other (untagged children share one lane,
    ///   preserving the sequential rule);
    /// * the root span's cycle total equals the report's total (the root
    ///   wraps the whole run).
    pub fn validate(&self) -> Result<(), String> {
        if self.spans.is_empty() {
            return Err("no spans recorded".into());
        }
        let roots: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect();
        if roots.len() != 1 {
            return Err(format!("expected exactly one root span, found {}", roots.len()));
        }
        let mut lane_cycles: std::collections::BTreeMap<(usize, Option<&str>), u64> =
            std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                None => {
                    if s.depth != 0 {
                        return Err(format!("root span '{}' has depth {}", s.name, s.depth));
                    }
                }
                Some(p) => {
                    if p >= i {
                        return Err(format!("span '{}' parent {} does not precede it", s.name, p));
                    }
                    if s.depth != self.spans[p].depth + 1 {
                        return Err(format!("span '{}' depth {} under parent depth {}",
                            s.name, s.depth, self.spans[p].depth));
                    }
                    let lane = s
                        .meta
                        .iter()
                        .find(|(k, _)| k == "worker")
                        .map(|(_, v)| v.as_str());
                    *lane_cycles.entry((p, lane)).or_insert(0) += s.delta.breakdown.total();
                }
            }
        }
        for (&(p, lane), &cycles) in &lane_cycles {
            if cycles > self.spans[p].delta.breakdown.total() {
                return Err(format!(
                    "children of span '{}'{} account {} cycles > parent's {}",
                    self.spans[p].name,
                    lane.map(|w| format!(" (worker {w})")).unwrap_or_default(),
                    cycles,
                    self.spans[p].delta.breakdown.total()
                ));
            }
        }
        let root = roots[0];
        let root_cycles = self.spans[root].delta.breakdown.total();
        if self.simulated && root_cycles != self.totals.breakdown.total() {
            return Err(format!(
                "root span cycles {} != run total {}",
                root_cycles,
                self.totals.breakdown.total()
            ));
        }
        if let Some(sec) = &self.regions {
            self.validate_regions(sec)?;
        }
        if let Some(sec) = &self.timeseries {
            validate_timeseries(sec)?;
        }
        if let Some(sec) = &self.analysis {
            validate_analysis(sec)?;
        }
        if let Some(sec) = &self.flightrec {
            validate_flightrec(sec)?;
        }
        if let Some(sec) = &self.query_trace {
            validate_query_trace(sec)?;
        }
        Ok(())
    }

    /// Internal consistency of a `regions` section against the run
    /// totals: every demand line is charged to exactly one region, so the
    /// per-region hit/miss counters must sum exactly to the global cache
    /// stats, and each region's histogram must hold one sample per demand
    /// line.
    fn validate_regions(&self, sec: &RegionsSection) -> Result<(), String> {
        let mut sums = RegionStats::default();
        for r in &sec.regions {
            if r.hist.count() != r.stats.demand_lines() {
                return Err(format!(
                    "region '{}' histogram has {} samples for {} demand lines",
                    r.name,
                    r.hist.count(),
                    r.stats.demand_lines()
                ));
            }
            sums.l1_hits += r.stats.l1_hits;
            sums.l1_inflight_hits += r.stats.l1_inflight_hits;
            sums.l2_hits += r.stats.l2_hits;
            sums.mem_misses += r.stats.mem_misses;
            sums.tlb_demand_walks += r.stats.tlb_demand_walks;
        }
        let g = &self.totals.stats;
        let checks = [
            ("l1_hits", sums.l1_hits, g.l1_hits),
            ("l1_inflight_hits", sums.l1_inflight_hits, g.l1_inflight_hits),
            ("l2_hits", sums.l2_hits, g.l2_hits),
            ("mem_misses", sums.mem_misses, g.mem_misses),
            ("demand lines", sums.demand_lines(), g.visit_lines),
            ("tlb_demand_walks", sums.tlb_demand_walks, g.tlb_demand_walks),
        ];
        for (what, region_sum, total) in checks {
            if region_sum != total {
                return Err(format!(
                    "regions sum {region_sum} {what} but the run total is {total}"
                ));
            }
        }
        Ok(())
    }
}

/// Internal consistency of a `timeseries` section: each row's
/// min/max/last must be exactly the reduction of its points, point
/// counts must fit the ring capacity, and timestamps must be
/// non-decreasing (the sampler ring appends in time order).
fn validate_timeseries(sec: &TimeseriesSection) -> Result<(), String> {
    for row in &sec.series {
        if row.points.is_empty() {
            return Err(format!("timeseries row '{}' has no points", row.name));
        }
        if sec.capacity > 0 && row.points.len() as u64 > sec.capacity {
            return Err(format!(
                "timeseries row '{}' holds {} points over ring capacity {}",
                row.name,
                row.points.len(),
                sec.capacity
            ));
        }
        let min = row.points.iter().map(|&(_, v)| v).min().unwrap_or(0);
        let max = row.points.iter().map(|&(_, v)| v).max().unwrap_or(0);
        let last = row.points.last().map_or(0, |&(_, v)| v);
        if (row.min, row.max, row.last) != (min, max, last) {
            return Err(format!(
                "timeseries row '{}' summary ({}, {}, {}) disagrees with its points ({min}, {max}, {last})",
                row.name, row.min, row.max, row.last
            ));
        }
        if row.points.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(format!("timeseries row '{}' timestamps go backwards", row.name));
        }
    }
    Ok(())
}

/// Coverage for one snapshot delta (see
/// [`RunReport::prefetch_coverage`]).
pub fn coverage(s: &Snapshot) -> f64 {
    let hidden = s.stats.pf_hidden_cycles;
    let exposed = s.breakdown.dcache_stall;
    if hidden + exposed == 0 {
        0.0
    } else {
        hidden as f64 / (hidden + exposed) as f64
    }
}

/// Pollution rate for one stats delta (see
/// [`RunReport::pollution_rate`]).
pub fn pollution(s: &CacheStats) -> f64 {
    if s.prefetches == 0 {
        0.0
    } else {
        s.pf_evicted_unused as f64 / s.prefetches as f64
    }
}

// Field tables for the memory model's records: `phj-memsim` sits below
// this crate and cannot name the traits, so their JSON form lives here.
json_record! {
    impl Breakdown {
        "busy" => rw(busy),
        "dcache_stall" => rw(dcache_stall),
        "dtlb_stall" => rw(dtlb_stall),
        "other_stall" => rw(other_stall),
        "total" => emit(b => b.total()),
    }
}

json_record! {
    impl CacheStats {
        "visits" => rw(visits),
        "visit_lines" => rw(visit_lines),
        "l1_hits" => rw(l1_hits),
        "l1_inflight_hits" => rw(l1_inflight_hits),
        "l2_hits" => rw(l2_hits),
        "mem_misses" => rw(mem_misses),
        "l1_conflict_misses" => rw(l1_conflict_misses),
        "prefetches" => rw(prefetches),
        "pf_dropped" => rw(pf_dropped),
        "pf_from_l2" => rw(pf_from_l2),
        "pf_from_mem" => rw(pf_from_mem),
        "pf_evicted_unused" => rw(pf_evicted_unused),
        "pf_hidden_cycles" => rw(pf_hidden_cycles),
        "tlb_demand_walks" => rw(tlb_demand_walks),
        "tlb_prefetch_walks" => rw(tlb_prefetch_walks),
        "hw_prefetches" => rw(hw_prefetches),
        "writebacks" => rw(writebacks),
        "flushes" => rw(flushes),
    }
}

json_record! {
    impl LatencyHistogram {
        "count" => emit(h => h.count()),
        "p50" => emit(h => h.percentiles().0),
        "p95" => emit(h => h.percentiles().1),
        "p99" => emit(h => h.percentiles().2),
        "buckets" => rw(buckets),
    }
}

json_record! {
    impl SpanRecord [SpanRecord::reconstruct(String::new(), None, 0, 0, 0, Snapshot::default())] {
        "name" => rw(name),
        "parent" => rw(parent),
        "depth" => rw(depth),
        "start_ns" => rw(start_ns),
        "wall_ns" => rw(wall_ns),
        "breakdown" => rw(delta.breakdown),
        "cache" => rw(delta.stats),
        "prefetch_coverage" => emit(s => coverage(&s.delta)),
        // Only profiled runs carry the key at all.
        "latency" => opt(latency),
        "meta" => with(meta, ToJson::to_json, lenient_meta),
    }
}

/// Span annotations read leniently: no `meta` object means none, and a
/// non-string value reads as the empty string.
fn lenient_meta(doc: &Json, key: &str) -> Result<Vec<(String, String)>, String> {
    Ok(match doc.get(key) {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
            .collect(),
        _ => Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_snapshot() -> Snapshot {
        Snapshot {
            breakdown: Breakdown { busy: 100, dcache_stall: 60, dtlb_stall: 12, other_stall: 3 },
            stats: CacheStats {
                prefetches: 10,
                pf_evicted_unused: 2,
                pf_hidden_cycles: 90,
                mem_misses: 4,
                ..Default::default()
            },
        }
    }

    fn report_with_spans() -> RunReport {
        let mut rec = Recorder::new();
        let root = rec.begin("run", Snapshot::default());
        let inner = rec.begin("build", Snapshot::default());
        rec.meta("tuples", 7);
        rec.end(
            inner,
            Snapshot {
                breakdown: Breakdown { busy: 40, ..Default::default() },
                ..Default::default()
            },
        );
        rec.end(root, sim_snapshot());
        let mut report = RunReport::from_recorder("join", rec, sim_snapshot(), 5_000);
        report.simulated = true;
        report.tuples = 1_000;
        report.matches = 500;
        report.config_kv("scheme", "group");
        report.config_kv("g", 16);
        report
    }

    #[test]
    fn derived_metrics() {
        let r = report_with_spans();
        // coverage = 90 / (90 + 60)
        assert!((r.prefetch_coverage() - 0.6).abs() < 1e-12);
        // pollution = 2 / 10
        assert!((r.pollution_rate() - 0.2).abs() < 1e-12);
        // 1000 tuples in 5 µs
        assert!((r.tuples_per_sec() - 2e8).abs() < 1.0);
        // 175 cycles / 1000 tuples
        assert!((r.cycles_per_tuple().unwrap() - 0.175).abs() < 1e-12);
    }

    #[test]
    fn coverage_edge_cases() {
        // Zero prefetches, zero misses: no latency at all → coverage 0.
        assert_eq!(coverage(&Snapshot::default()), 0.0);
        // Misses but no prefetching: nothing hidden.
        let all_exposed = Snapshot {
            breakdown: Breakdown { dcache_stall: 500, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(coverage(&all_exposed), 0.0);
        // Prefetching hid everything: no residual stall → coverage 1.
        let all_hidden = Snapshot {
            stats: CacheStats { pf_hidden_cycles: 300, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(coverage(&all_hidden), 1.0);
        // Pollution with zero prefetches is 0, not NaN.
        assert_eq!(pollution(&CacheStats::default()), 0.0);
        let p = CacheStats { prefetches: 4, pf_evicted_unused: 4, ..Default::default() };
        assert_eq!(pollution(&p), 1.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report_with_spans();
        let text = r.render();
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.command, r.command);
        assert_eq!(back.config, r.config);
        assert_eq!(back.simulated, r.simulated);
        assert_eq!(back.totals, r.totals);
        assert_eq!(back.wall_ns, r.wall_ns);
        assert_eq!(back.tuples, r.tuples);
        assert_eq!(back.matches, r.matches);
        assert_eq!(back.spans.len(), r.spans.len());
        for (a, b) in back.spans.iter().zip(&r.spans) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.parent, b.parent);
            assert_eq!(a.depth, b.depth);
            assert_eq!(a.wall_ns, b.wall_ns);
            assert_eq!(a.delta, b.delta);
            assert_eq!(a.meta, b.meta);
        }
        // And the round-tripped report validates like the original.
        assert_eq!(back.validate(), r.validate());
    }

    #[test]
    fn validate_accepts_well_formed_reports() {
        report_with_spans().validate().expect("valid");
    }

    #[test]
    fn validate_rejects_structural_violations() {
        let mut r = report_with_spans();
        r.spans.clear();
        assert!(r.validate().unwrap_err().contains("no spans"));

        let mut r = report_with_spans();
        r.spans[1].delta.breakdown.busy = r.spans[0].delta.breakdown.total() + 1;
        assert!(r.validate().unwrap_err().contains("children"));

        let mut r = report_with_spans();
        r.totals.breakdown.busy += 1;
        assert!(r.validate().unwrap_err().contains("run total"));

        let mut r = report_with_spans();
        let orphan = r.spans[1].clone();
        r.spans.push(orphan); // second depth-1 span is fine…
        r.spans.last_mut().unwrap().parent = None; // …a second root is not
        assert!(r.validate().unwrap_err().contains("root"));
    }

    /// A simulated report whose regions section is internally consistent
    /// with its totals: 10 demand lines split 7/3 across two regions.
    fn profiled_report() -> RunReport {
        let totals = Snapshot {
            breakdown: Breakdown { busy: 100, dcache_stall: 150, ..Default::default() },
            stats: CacheStats {
                visits: 10,
                visit_lines: 10,
                l1_hits: 6,
                l2_hits: 3,
                mem_misses: 1,
                tlb_demand_walks: 2,
                ..Default::default()
            },
        };
        let mut cells_hist = LatencyHistogram::default();
        for _ in 0..6 {
            cells_hist.record(0);
        }
        cells_hist.record(8);
        let mut other_hist = LatencyHistogram::default();
        other_hist.record(8);
        other_hist.record(8);
        other_hist.record(150);
        let mut run_hist = cells_hist;
        run_hist.merge(&other_hist);
        let mut rec = Recorder::new();
        let root = rec.begin_profiled("run", Snapshot::default(), Some(LatencyHistogram::default()));
        rec.end_profiled(root, totals, Some(run_hist));
        let mut report = RunReport::from_recorder("join", rec, totals, 1_000);
        report.simulated = true;
        report.regions = Some(RegionsSection {
            regions: vec![
                RegionReport {
                    name: "hash_cells".into(),
                    stats: RegionStats {
                        l1_hits: 6,
                        l2_hits: 1,
                        stall_cycles: 8,
                        ..Default::default()
                    },
                    hist: cells_hist,
                },
                RegionReport {
                    name: "other".into(),
                    stats: RegionStats {
                        l2_hits: 2,
                        mem_misses: 1,
                        tlb_demand_walks: 2,
                        stall_cycles: 166,
                        ..Default::default()
                    },
                    hist: other_hist,
                },
            ],
            skew: vec![SkewRow {
                index: 0,
                build_tuples: 4,
                probe_tuples: 6,
                cycles: 250,
                l2_hits: 3,
                mem_misses: 1,
            }],
        });
        report
    }

    #[test]
    fn regions_section_round_trips_and_validates() {
        let r = profiled_report();
        r.validate().expect("consistent regions section");
        let text = r.render();
        assert!(text.contains("\"regions\""));
        assert!(text.contains("\"latency\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.regions, r.regions);
        assert_eq!(back.spans[0].latency, r.spans[0].latency);
        back.validate().expect("round-tripped report still validates");
    }

    #[test]
    fn unprofiled_reports_never_mention_attribution_keys() {
        let text = report_with_spans().render();
        assert!(!text.contains("regions"));
        assert!(!text.contains("latency"));
        assert!(!text.contains("faults"));
    }

    fn fault_section() -> FaultsSection {
        FaultsSection {
            faults_injected: 17,
            read_retries: 9,
            write_retries: 3,
            slow_stall_us: 420,
            degradation: vec![
                DegradationRow {
                    partition: "3".into(),
                    depth: 0,
                    bytes: 180_224,
                    budget: 32_768,
                    action: "repartition".into(),
                    detail: 6,
                },
                DegradationRow {
                    partition: "3.1".into(),
                    depth: 1,
                    bytes: 172_032,
                    budget: 32_768,
                    action: "nlj_fallback".into(),
                    detail: 6,
                },
            ],
        }
    }

    #[test]
    fn faults_section_round_trips() {
        let mut r = report_with_spans();
        r.faults = Some(fault_section());
        r.validate().expect("faults section does not affect validity");
        let text = r.render();
        assert!(text.contains("\"faults\""));
        assert!(text.contains("\"nlj_fallback\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.faults, r.faults);
    }

    #[test]
    fn empty_faults_section_still_renders_when_attached() {
        // A fault-plan run where nothing fired still records that the
        // plan was attached (all-zero section), distinguishable from a
        // run with no plan at all (key absent).
        let mut r = report_with_spans();
        r.faults = Some(FaultsSection::default());
        let text = r.render();
        assert!(text.contains("\"faults\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.faults, Some(FaultsSection::default()));
    }

    fn query_trace_section() -> QueryTraceSection {
        QueryTraceSection {
            trace_id: 0xABCD_1234,
            query_id: 7,
            queue_wait_ns: 1_500,
            grant_wait_ns: 2_500,
            exec_ns: 90_000,
            serialize_ns: 600,
            shed_count: 1,
            states: vec![
                ("received".into(), 0),
                ("queued".into(), 10),
                ("admitted".into(), 4_010),
                ("executing".into(), 4_020),
                ("responding".into(), 94_020),
                ("done".into(), 94_620),
            ],
        }
    }

    #[test]
    fn query_trace_section_round_trips_and_validates() {
        let mut r = report_with_spans();
        r.query_trace = Some(query_trace_section());
        r.validate().expect("query_trace section is consistent");
        let text = r.render();
        assert!(text.contains("\"query_trace\""));
        assert!(text.contains("\"trace_id\": 2882343476"));
        assert!(text.contains("\"state\": \"executing\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.query_trace, r.query_trace);
        back.validate().expect("round-tripped report still validates");
        // Untraced reports never mention the key.
        assert!(!report_with_spans().render().contains("query_trace"));
    }

    #[test]
    fn validate_rejects_malformed_query_trace() {
        let mut r = report_with_spans();
        r.query_trace = Some(QueryTraceSection::default());
        assert!(r.validate().unwrap_err().contains("no state transitions"));

        let mut r = report_with_spans();
        let mut sec = query_trace_section();
        sec.states[2].0 = "levitating".into();
        r.query_trace = Some(sec);
        assert!(r.validate().unwrap_err().contains("unknown state"));

        let mut r = report_with_spans();
        let mut sec = query_trace_section();
        sec.states.swap(1, 4);
        r.query_trace = Some(sec);
        assert!(r.validate().unwrap_err().contains("monotone"));

        let mut r = report_with_spans();
        let mut sec = query_trace_section();
        sec.states.remove(0);
        r.query_trace = Some(sec);
        assert!(r.validate().unwrap_err().contains("not 'received'"));
    }

    #[test]
    fn parse_rejects_structurally_malformed_query_trace() {
        let mut r = report_with_spans();
        r.query_trace = Some(query_trace_section());
        let text = r.render();
        let no_states = text.replace("\"states\"", "\"stales\"");
        assert!(RunReport::parse(&no_states).unwrap_err().contains("states"));
        let bad_t = text.replace("\"t_ns\": 4010", "\"t_ns\": \"soon\"");
        assert!(RunReport::parse(&bad_t).unwrap_err().contains("t_ns"));
    }

    #[test]
    fn validate_rejects_inconsistent_regions() {
        // A counter that no longer sums to the run total (TLB walks are
        // not demand lines, so the histogram check stays satisfied).
        let mut r = profiled_report();
        r.regions.as_mut().unwrap().regions[0].stats.tlb_demand_walks += 1;
        assert!(r.validate().unwrap_err().contains("regions sum"));

        // A histogram out of step with its region's demand lines.
        let mut r = profiled_report();
        r.regions.as_mut().unwrap().regions[0].hist.record(4);
        assert!(r.validate().unwrap_err().contains("histogram"));
    }

    #[test]
    fn validate_groups_children_by_worker_lane() {
        // A parallel phase whose per-worker children each take nearly the
        // whole phase (critical path): lanes must not be summed together.
        let phase = Snapshot {
            breakdown: Breakdown { busy: 100, ..Default::default() },
            ..Default::default()
        };
        let lane = |busy| Snapshot {
            breakdown: Breakdown { busy, ..Default::default() },
            ..Default::default()
        };
        let mut rec = Recorder::new();
        let root = rec.begin("run", Snapshot::default());
        rec.end(root, phase);
        let mut report = RunReport::from_recorder("join", rec, phase, 1_000);
        report.simulated = true;
        for (w, busy) in [(0u64, 100u64), (1, 90)] {
            let mut s = SpanRecord::reconstruct(
                "pair".into(),
                Some(0),
                1,
                0,
                0,
                lane(busy),
            );
            s.meta.push(("worker".into(), w.to_string()));
            report.spans.push(s);
        }
        // 100 + 90 > 100, but each lane individually fits.
        report.validate().expect("parallel lanes validate independently");
        // An over-budget single lane still fails.
        report.spans[1].delta.breakdown.busy = 101;
        let err = report.validate().unwrap_err();
        assert!(err.contains("worker 0"), "{err}");
        // Untagged children still share one lane and sum.
        report.spans[1].delta.breakdown.busy = 60;
        for s in &mut report.spans[1..] {
            s.meta.clear();
        }
        assert!(report.validate().unwrap_err().contains("children"));
    }

    #[test]
    fn regions_section_merge_sums_counters_and_hists() {
        let a_sec = profiled_report().regions.unwrap();
        let mut merged = RegionsSection::default();
        merged.merge(&a_sec);
        merged.merge(&a_sec);
        assert_eq!(merged.regions.len(), a_sec.regions.len());
        for (m, a) in merged.regions.iter().zip(&a_sec.regions) {
            assert_eq!(m.stats.l1_hits, 2 * a.stats.l1_hits);
            assert_eq!(m.stats.mem_misses, 2 * a.stats.mem_misses);
            assert_eq!(m.hist.count(), 2 * a.hist.count());
        }
        assert_eq!(merged.skew.len(), 2 * a_sec.skew.len());

        // Doubling the totals alongside keeps region conservation intact.
        let mut r = profiled_report();
        let totals = r.totals;
        r.totals = totals + totals;
        r.spans[0].delta = r.totals;
        if let Some(h) = &mut r.spans[0].latency {
            let copy = *h;
            h.merge(&copy);
        }
        r.regions = Some(merged);
        r.validate().expect("merged section conserves against summed totals");
    }

    fn timeseries_section() -> TimeseriesSection {
        TimeseriesSection {
            interval_ms: 10,
            capacity: 64,
            series: vec![
                TimeseriesRow {
                    name: "phj_exec_tasks_total".into(),
                    min: 0,
                    max: 12,
                    last: 12,
                    points: vec![(0, 0), (10_000_000, 5), (20_000_000, 12)],
                },
                TimeseriesRow {
                    name: "phj_exec_workers".into(),
                    min: 4,
                    max: 4,
                    last: 4,
                    points: vec![(0, 4), (10_000_000, 4), (20_000_000, 4)],
                },
            ],
        }
    }

    #[test]
    fn timeseries_section_round_trips_and_validates() {
        let mut r = report_with_spans();
        r.timeseries = Some(timeseries_section());
        r.validate().expect("consistent timeseries validates");
        let text = r.render();
        assert!(text.contains("\"timeseries\""));
        assert!(text.contains("\"interval_ms\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.timeseries, r.timeseries);
        back.validate().expect("round-tripped timeseries still validates");
    }

    #[test]
    fn untelemetered_reports_never_mention_timeseries() {
        assert!(!report_with_spans().render().contains("timeseries"));
    }

    #[test]
    fn validate_rejects_inconsistent_timeseries() {
        // Summary out of step with the points.
        let mut r = report_with_spans();
        let mut sec = timeseries_section();
        sec.series[0].max = 99;
        r.timeseries = Some(sec);
        assert!(r.validate().unwrap_err().contains("disagrees"));

        // A row with no points at all.
        let mut sec = timeseries_section();
        sec.series[0].points.clear();
        sec.series[0].min = 0;
        sec.series[0].max = 0;
        sec.series[0].last = 0;
        r.timeseries = Some(sec);
        assert!(r.validate().unwrap_err().contains("no points"));

        // More points than the ring could hold.
        let mut sec = timeseries_section();
        sec.capacity = 2;
        r.timeseries = Some(sec);
        assert!(r.validate().unwrap_err().contains("capacity"));

        // Timestamps running backwards.
        let mut sec = timeseries_section();
        sec.series[0].points[1].0 = 30_000_000;
        r.timeseries = Some(sec);
        assert!(r.validate().unwrap_err().contains("backwards"));
    }

    fn analysis_section() -> AnalysisSection {
        AnalysisSection {
            t_full: 150,
            t_next: 10,
            scheme: "group(G=16)".into(),
            cost_model: vec![("hash_fn".into(), 30), ("mod".into(), 68)],
            predictions: vec![PhasePrediction {
                phase: "probe".into(),
                stage_costs: vec![114, 8, 23, 115],
                g_min: 16,
                first_miss_hidden: true,
                d_min: 1,
                predicted_coverage: 1.0,
            }],
            residuals: vec![ResidualRow {
                metric: "prefetch_coverage".into(),
                predicted: 1.0,
                measured: 0.95,
                residual: -0.05000000000000004,
            }],
            primary: "latency_bound".into(),
            evidence: vec!["dcache stalls dominate".into()],
            rules: vec![
                RuleOutcome { class: "degraded".into(), fired: false, evidence: vec![] },
                RuleOutcome {
                    class: "latency_bound".into(),
                    fired: true,
                    evidence: vec!["dcache stalls dominate".into()],
                },
            ],
        }
    }

    #[test]
    fn analysis_section_round_trips_and_validates() {
        let mut r = report_with_spans();
        r.analysis = Some(analysis_section());
        r.validate().expect("consistent analysis validates");
        let text = r.render();
        assert!(text.contains("\"analysis\""));
        assert!(text.contains("\"g_min\""));
        let back = RunReport::parse(&text).expect("parse");
        assert_eq!(back.analysis, r.analysis);
        back.validate().expect("round-tripped analysis still validates");
    }

    #[test]
    fn unanalyzed_reports_never_mention_analysis() {
        assert!(!report_with_spans().render().contains("analysis"));
    }

    #[test]
    fn validate_rejects_inconsistent_analysis() {
        let mut r = report_with_spans();

        // Unknown primary class.
        let mut sec = analysis_section();
        sec.primary = "vibes_bound".into();
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("not a known class"));

        // Primary whose rule never fired.
        let mut sec = analysis_section();
        sec.rules[1].fired = false;
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("did not fire"));

        // Fired rule with no evidence.
        let mut sec = analysis_section();
        sec.rules[1].evidence.clear();
        sec.evidence.clear();
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("evidence"));

        // Residual that is not measured - predicted.
        let mut sec = analysis_section();
        sec.residuals[0].residual = 0.5;
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("measured - predicted"));

        // Non-finite residual.
        let mut sec = analysis_section();
        sec.residuals[0].measured = f64::NAN;
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("non-finite"));

        // Coverage outside [0, 1].
        let mut sec = analysis_section();
        sec.predictions[0].predicted_coverage = 1.5;
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("outside"));

        // Predictions with t_next = 0.
        let mut sec = analysis_section();
        sec.t_next = 0;
        r.analysis = Some(sec);
        assert!(r.validate().unwrap_err().contains("t_next"));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(RunReport::parse("{}").is_err());
        assert!(RunReport::parse("not json").is_err());
        let mut r = report_with_spans();
        r.spans.truncate(0);
        let doc = r.render().replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(RunReport::parse(&doc).unwrap_err().contains("schema_version"));
    }
}
