//! Prediction, residuals, and the bottleneck rule engine.

use phj::cost::CostModel;
use phj::model;
use phj_obs::report::{AnalysisSection, PhasePrediction, ResidualRow, RuleOutcome};
use phj_obs::RunReport;

/// The prefetching scheme a report ran, recovered from its config
/// fingerprint. Parsing is lenient about the label format: it accepts
/// both the join labels (`group(G=16)`, `swp(D=1)`) and the aggregate
/// `Debug` forms (`Group { g: 8 }`, `Swp { d: 2 }`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// No software prefetching.
    Baseline,
    /// Simple (within-tuple) prefetching.
    Simple,
    /// Group prefetching with the given group size.
    Group(u64),
    /// Software-pipelined prefetching with the given distance.
    Swp(u64),
    /// No scheme recorded (disk runs, foreign reports).
    Unknown,
}

impl Scheme {
    /// Parse a config `scheme` value.
    pub fn parse(label: &str) -> Scheme {
        let l = label.to_ascii_lowercase();
        let first_int = || {
            let digits: String = l
                .chars()
                .skip_while(|c| !c.is_ascii_digit())
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().unwrap_or(1).max(1)
        };
        if l.starts_with("baseline") {
            Scheme::Baseline
        } else if l.starts_with("simple") {
            Scheme::Simple
        } else if l.contains("group") {
            Scheme::Group(first_int())
        } else if l.contains("swp") {
            Scheme::Swp(first_int())
        } else {
            Scheme::Unknown
        }
    }

    /// Predicted hidden-latency fraction for this scheme on one phase's
    /// stage costs, per the first-order models in [`phj::model`].
    fn hidden_fraction(self, t: u64, t_next: u64, costs: &[u64]) -> f64 {
        match self {
            Scheme::Baseline | Scheme::Unknown => 0.0,
            // Simple prefetching overlaps each stage's miss only with
            // that same element's stage work.
            Scheme::Simple => {
                if t == 0 {
                    return 1.0;
                }
                let sum: f64 =
                    costs.iter().map(|&c| (c as f64 / t as f64).min(1.0)).sum();
                sum / costs.len() as f64
            }
            Scheme::Group(g) => model::group_hidden_fraction(g, t, t_next, costs),
            Scheme::Swp(d) => model::swp_hidden_fraction(d, t, t_next, costs),
        }
    }
}

fn cfg<'a>(report: &'a RunReport, key: &str) -> Option<&'a str> {
    report
        .config
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

fn cfg_u64(report: &RunReport, key: &str) -> Option<u64> {
    cfg(report, key).and_then(|v| v.parse().ok())
}

fn pct(frac: f64) -> f64 {
    (frac * 1000.0).round() / 10.0
}

/// Analyze a run report against the analytic model: recompute the
/// Theorem-1/2 predictions from the report's config fingerprint and the
/// given (possibly perturbed) cost calibration, derive residuals, and
/// classify the primary bottleneck. The returned section always passes
/// [`RunReport::validate`] when attached to the report it was computed
/// from.
pub fn analyze(report: &RunReport, cost: &CostModel) -> AnalysisSection {
    // Memory parameters: sim runs fingerprint them; native runs carry no
    // meaningful cycle model, so they get no predictions.
    let t_full = cfg_u64(report, "t_full");
    let t_next = cfg_u64(report, "t_next").filter(|&t| t > 0);
    let tuple_size = cfg_u64(report, "tuple_size").unwrap_or(100) as usize;
    let scheme_label = cfg(report, "scheme").unwrap_or("unknown").to_string();
    let scheme = Scheme::parse(&scheme_label);

    let mut predictions = Vec::new();
    if let (true, Some(t), Some(tn)) = (report.simulated, t_full, t_next) {
        let phases: [(&str, Vec<u64>); 3] = [
            ("probe", cost.probe_stage_costs(true, 2 * tuple_size).to_vec()),
            ("build", cost.build_stage_costs(true).to_vec()),
            ("partition", cost.partition_stage_costs(false, tuple_size).to_vec()),
        ];
        for (phase, costs) in phases {
            let g = model::min_group_size(t, tn, &costs);
            predictions.push(PhasePrediction {
                phase: phase.to_string(),
                g_min: g.g,
                first_miss_hidden: g.first_miss_hidden,
                d_min: model::min_prefetch_distance(t, tn, &costs),
                predicted_coverage: scheme.hidden_fraction(t, tn, &costs),
                stage_costs: costs,
            });
        }
    }

    // Run-level predicted coverage: the mean over the phases that
    // actually appear in the span tree (a join run that never
    // partitioned should not be held to the partition prediction).
    let predicted_coverage = {
        let present: Vec<f64> = predictions
            .iter()
            .filter(|p| report.spans.iter().any(|s| s.name.contains(&p.phase)))
            .map(|p| p.predicted_coverage)
            .collect();
        if !present.is_empty() {
            present.iter().sum::<f64>() / present.len() as f64
        } else if let Some(first) = predictions.first() {
            first.predicted_coverage
        } else {
            0.0
        }
    };

    let mut residuals = Vec::new();
    if report.simulated && !predictions.is_empty() {
        let measured_cov = report.prefetch_coverage();
        residuals.push(ResidualRow {
            metric: "prefetch_coverage".into(),
            predicted: predicted_coverage,
            measured: measured_cov,
            residual: measured_cov - predicted_coverage,
        });
        // Total miss latency the run faced = the part prefetching hid
        // plus the part that still stalled; the model predicts how much
        // of it should have been hidden.
        let total_miss = (report.totals.stats.pf_hidden_cycles
            + report.totals.breakdown.dcache_stall) as f64;
        let predicted_hidden = predicted_coverage * total_miss;
        let measured_hidden = report.totals.stats.pf_hidden_cycles as f64;
        residuals.push(ResidualRow {
            metric: "pf_hidden_cycles".into(),
            predicted: predicted_hidden,
            measured: measured_hidden,
            residual: measured_hidden - predicted_hidden,
        });
    }
    if let Some(regions) = &report.regions {
        // First-order locality model for where misses should land: one
        // header and one cell line per build/probe tuple, the build
        // tuple area once per insert and once per match fetch, the probe
        // area once per probe tuple, and the partition buffers in
        // proportion to bytes streamed through them.
        let b = cfg_u64(report, "build_tuples").unwrap_or(report.tuples / 2);
        let p = cfg_u64(report, "probe_tuples")
            .unwrap_or(report.tuples.saturating_sub(b));
        let partitioned = report.spans.iter().any(|s| s.name.contains("partition"));
        let line = cfg_u64(report, "line_size").unwrap_or(64).max(1);
        let weight = |name: &str| -> f64 {
            match name {
                "hash_bucket_headers" | "hash_cells" => (b + p) as f64,
                "build_tuples" => (b + report.matches) as f64,
                "probe_tuples" => p as f64,
                "partition_buffers" if partitioned => {
                    ((b + p) * tuple_size as u64 / line) as f64
                }
                _ => 0.0,
            }
        };
        let total_misses: u64 = regions.regions.iter().map(|r| r.stats.mem_misses).sum();
        let total_weight: f64 = regions.regions.iter().map(|r| weight(&r.name)).sum();
        if total_misses > 0 && total_weight > 0.0 {
            for r in &regions.regions {
                let predicted = weight(&r.name) / total_weight;
                let measured = r.stats.mem_misses as f64 / total_misses as f64;
                residuals.push(ResidualRow {
                    metric: format!("miss_share.{}", r.name),
                    predicted,
                    measured,
                    residual: measured - predicted,
                });
            }
        }
    }

    let (primary, evidence, rules) = classify(report, scheme, &predictions);

    AnalysisSection {
        t_full: t_full.unwrap_or(0),
        t_next: t_next.unwrap_or(0),
        scheme: scheme_label,
        cost_model: cost.entries().iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        predictions,
        residuals,
        primary,
        evidence,
        rules,
    }
}

/// The rule engine: evaluate every class in priority order; the first
/// rule that fires is the primary. `compute_bound` always fires, so
/// exactly one primary exists for every report.
fn classify(
    report: &RunReport,
    scheme: Scheme,
    predictions: &[PhasePrediction],
) -> (String, Vec<String>, Vec<RuleOutcome>) {
    let bd = &report.totals.breakdown;
    let stats = &report.totals.stats;
    let cycles = bd.total();
    let mut rules = Vec::new();

    // degraded: the disk engine walked its degradation ladder.
    {
        let mut evidence = Vec::new();
        if let Some(f) = &report.faults {
            for d in &f.degradation {
                evidence.push(format!(
                    "partition {} degraded ({}, depth {}): {} B over budget {} B",
                    d.partition, d.action, d.depth, d.bytes, d.budget
                ));
            }
        }
        rules.push(RuleOutcome { class: "degraded".into(), fired: !evidence.is_empty(), evidence });
    }

    // fault_stalled: injected faults cost real time (stall share ≥ 5% of
    // wall time, or any retry loops actually spun).
    {
        let mut evidence = Vec::new();
        let mut fired = false;
        if let Some(f) = &report.faults {
            let stall_ns = f.slow_stall_us.saturating_mul(1000);
            let stall_share = if report.wall_ns > 0 {
                stall_ns as f64 / report.wall_ns as f64
            } else {
                0.0
            };
            if f.faults_injected > 0 && (stall_share >= 0.05 || f.read_retries + f.write_retries > 0)
            {
                fired = true;
                evidence.push(format!("{} faults injected", f.faults_injected));
                if stall_share >= 0.05 {
                    evidence.push(format!(
                        "injected disk stalls are {}% of wall time",
                        pct(stall_share)
                    ));
                }
                if f.read_retries + f.write_retries > 0 {
                    evidence.push(format!(
                        "{} read + {} write retries",
                        f.read_retries, f.write_retries
                    ));
                }
            }
        }
        rules.push(RuleOutcome { class: "fault_stalled".into(), fired, evidence });
    }

    // skew_bound: one partition pair costs more than twice the mean.
    {
        let mut evidence = Vec::new();
        let mut fired = false;
        if let Some(r) = &report.regions {
            if r.skew.len() >= 2 {
                let mean = r.skew.iter().map(|s| s.cycles).sum::<u64>() as f64
                    / r.skew.len() as f64;
                if let Some(worst) = r.skew.iter().max_by_key(|s| s.cycles) {
                    if mean > 0.0 && worst.cycles as f64 > 2.0 * mean {
                        fired = true;
                        evidence.push(format!(
                            "partition {} cost {} cycles vs {:.0} mean ({:.1}x)",
                            worst.index,
                            worst.cycles,
                            mean,
                            worst.cycles as f64 / mean
                        ));
                        evidence.push(format!(
                            "{} build tuples in the hot partition",
                            worst.build_tuples
                        ));
                    }
                }
            }
        }
        rules.push(RuleOutcome { class: "skew_bound".into(), fired, evidence });
    }

    // tlb_bound: demand page walks stall more than 10% of cycles.
    {
        let mut evidence = Vec::new();
        let mut fired = false;
        if report.simulated && cycles > 0 {
            let frac = bd.dtlb_stall as f64 / cycles as f64;
            if frac > 0.10 {
                fired = true;
                evidence.push(format!("D-TLB walk stalls are {}% of cycles", pct(frac)));
                evidence.push(format!("{} demand page walks", stats.tlb_demand_walks));
            }
        }
        rules.push(RuleOutcome { class: "tlb_bound".into(), fired, evidence });
    }

    // bandwidth_bound: the scheme runs at or past the theorem-predicted
    // parameter yet coverage stays low — prefetches are issued but the
    // memory system cannot keep them timely (pollution and drops show
    // the cache fighting back).
    {
        let mut evidence = Vec::new();
        let mut fired = false;
        if report.simulated && stats.prefetches > 0 {
            let probe = predictions.iter().find(|p| p.phase == "probe");
            let at_optimum = match (scheme, probe) {
                (Scheme::Group(g), Some(p)) => g >= p.g_min,
                (Scheme::Swp(d), Some(p)) => d >= p.d_min,
                _ => false,
            };
            let coverage = report.prefetch_coverage();
            if at_optimum && coverage < 0.5 {
                fired = true;
                let p = probe.unwrap();
                evidence.push(match scheme {
                    Scheme::Group(g) => format!(
                        "coverage {coverage:.2} despite G={g} >= predicted G*={}",
                        p.g_min
                    ),
                    _ => format!(
                        "coverage {coverage:.2} despite D >= predicted D*={}",
                        p.d_min
                    ),
                });
                let pollution = report.pollution_rate();
                if pollution > 0.0 {
                    evidence.push(format!("pollution rate {pollution:.2}"));
                }
                if stats.pf_dropped > 0 {
                    evidence.push(format!(
                        "{} of {} prefetches dropped",
                        stats.pf_dropped, stats.prefetches
                    ));
                }
            }
        }
        rules.push(RuleOutcome { class: "bandwidth_bound".into(), fired, evidence });
    }

    // latency_bound: data-cache stalls dominate the cycle budget.
    {
        let mut evidence = Vec::new();
        let mut fired = false;
        if report.simulated && cycles > 0 {
            let frac = bd.dcache_stall as f64 / cycles as f64;
            if frac >= 0.30 {
                fired = true;
                evidence.push(format!("dcache stalls are {}% of cycles", pct(frac)));
                evidence.push(format!(
                    "prefetch coverage {:.2}",
                    report.prefetch_coverage()
                ));
                evidence.push(format!("{} full-latency memory misses", stats.mem_misses));
            }
        }
        rules.push(RuleOutcome { class: "latency_bound".into(), fired, evidence });
    }

    // compute_bound: the healthy default — nothing pathological fired.
    {
        let evidence = vec![if report.simulated && cycles > 0 {
            format!(
                "busy cycles are {}% of total; no stall pathology detected",
                pct(bd.busy as f64 / cycles as f64)
            )
        } else {
            format!(
                "native run: {:.1} ms wall time, no fault or skew pathology detected",
                report.wall_ns as f64 / 1e6
            )
        }];
        rules.push(RuleOutcome { class: "compute_bound".into(), fired: true, evidence });
    }

    let primary = rules.iter().find(|r| r.fired).expect("compute_bound always fires");
    (primary.class.clone(), primary.evidence.clone(), rules)
}

/// Render a diagnosis as human-readable text (the body of `phj explain`).
pub fn render(report: &RunReport, sec: &AnalysisSection) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let kind = if report.simulated { "simulated" } else { "native" };
    let _ = writeln!(out, "== phj explain: {} ({kind}) ==", report.command);
    let _ = writeln!(
        out,
        "scheme {}  T={}  T_next={}  tuples={}  matches={}",
        sec.scheme, sec.t_full, sec.t_next, report.tuples, report.matches
    );
    if !sec.predictions.is_empty() {
        let _ = writeln!(out, "theorem predictions (stage costs in cycles):");
        for p in &sec.predictions {
            let _ = writeln!(
                out,
                "  {:<10} C={:?}  G*={}{}  D*={}  predicted coverage {:.2}",
                p.phase,
                p.stage_costs,
                p.g_min,
                if p.first_miss_hidden { "" } else { " (first miss exposed)" },
                p.d_min,
                p.predicted_coverage
            );
        }
    }
    if !sec.residuals.is_empty() {
        let _ = writeln!(out, "residuals (measured - predicted):");
        for r in &sec.residuals {
            let _ = writeln!(
                out,
                "  {:<28} predicted {:>12.3}  measured {:>12.3}  residual {:>+12.3}",
                r.metric, r.predicted, r.measured, r.residual
            );
        }
    }
    let _ = writeln!(out, "primary bottleneck: {}", sec.primary);
    for e in &sec.evidence {
        let _ = writeln!(out, "  - {e}");
    }
    let _ = writeln!(out, "rules:");
    for r in &sec.rules {
        let mark = if r.class == sec.primary {
            "[*]"
        } else if r.fired {
            "[x]"
        } else {
            "[ ]"
        };
        let _ = writeln!(out, "  {mark} {}", r.class);
        if r.fired && r.class != sec.primary {
            for e in &r.evidence {
                let _ = writeln!(out, "        {e}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phj_memsim::{Breakdown, CacheStats, Snapshot};
    use phj_obs::report::{DegradationRow, FaultsSection, RegionsSection, SkewRow};
    use phj_obs::span::Recorder;

    fn sim_report(scheme: &str, snapshot: Snapshot) -> RunReport {
        let mut rec = Recorder::new();
        let root = rec.begin("run", Snapshot::default());
        let inner = rec.begin("probe", Snapshot::default());
        rec.end(inner, snapshot);
        rec.end(root, snapshot);
        let mut r = RunReport::from_recorder("join", rec, snapshot, 5_000);
        r.simulated = true;
        r.tuples = 1_000;
        r.matches = 500;
        r.config_kv("scheme", scheme);
        r.config_kv("tuple_size", 100);
        r.config_kv("t_full", 150);
        r.config_kv("t_next", 10);
        r
    }

    fn healthy_snapshot() -> Snapshot {
        Snapshot {
            breakdown: Breakdown { busy: 1_000, dcache_stall: 50, ..Default::default() },
            stats: CacheStats {
                prefetches: 100,
                pf_hidden_cycles: 900,
                mem_misses: 10,
                ..Default::default()
            },
        }
    }

    #[test]
    fn paper_regime_predictions_match_core_model() {
        let r = sim_report("group(G=16)", healthy_snapshot());
        let sec = analyze(&r, &CostModel::default());
        let probe = sec.predictions.iter().find(|p| p.phase == "probe").unwrap();
        // The acceptance anchor: same values as core::model's unit tests.
        assert_eq!(probe.g_min, 16);
        assert_eq!(probe.d_min, 1);
        assert!(probe.first_miss_hidden);
        assert_eq!(probe.stage_costs, phj::cost::probe_stage_costs(true, 200).to_vec());
        // Running at the theorem-predicted G, the model promises full hiding.
        assert_eq!(probe.predicted_coverage, 1.0);
        let mut with = r.clone();
        with.analysis = Some(sec.clone());
        with.validate().expect("attached analysis validates");
        // And the section survives the JSON round trip intact.
        let back = RunReport::parse(&with.render()).unwrap();
        assert_eq!(back.analysis, Some(sec));
    }

    #[test]
    fn residuals_compare_predicted_to_measured() {
        let r = sim_report("group(G=16)", healthy_snapshot());
        let sec = analyze(&r, &CostModel::default());
        let cov = sec.residuals.iter().find(|x| x.metric == "prefetch_coverage").unwrap();
        assert_eq!(cov.predicted, 1.0);
        assert!((cov.measured - 900.0 / 950.0).abs() < 1e-12);
        assert!(cov.residual < 0.0);
        let hid = sec.residuals.iter().find(|x| x.metric == "pf_hidden_cycles").unwrap();
        assert_eq!(hid.predicted, 950.0); // all miss latency should hide
        assert_eq!(hid.measured, 900.0);
    }

    #[test]
    fn perturbed_cost_model_moves_the_predictions() {
        let r = sim_report("group(G=4)", healthy_snapshot());
        let base = analyze(&r, &CostModel::default());
        // Fatter middle stages hide more per overlapped element: G* drops.
        let fat = CostModel::parse_overrides("header_check=80,cell_check=80").unwrap();
        let perturbed = analyze(&r, &fat);
        let g = |s: &AnalysisSection| s.predictions[0].g_min;
        assert!(g(&perturbed) < g(&base), "{} vs {}", g(&perturbed), g(&base));
        assert!(
            perturbed.predictions[0].predicted_coverage > base.predictions[0].predicted_coverage
        );
    }

    #[test]
    fn healthy_run_is_compute_bound() {
        let sec = analyze(&sim_report("group(G=16)", healthy_snapshot()), &CostModel::default());
        assert_eq!(sec.primary, "compute_bound");
    }

    #[test]
    fn baseline_stalls_classify_latency_bound() {
        let snap = Snapshot {
            breakdown: Breakdown { busy: 100, dcache_stall: 300, ..Default::default() },
            stats: CacheStats { mem_misses: 50, ..Default::default() },
        };
        let sec = analyze(&sim_report("baseline", snap), &CostModel::default());
        assert_eq!(sec.primary, "latency_bound");
        assert!(sec.evidence.iter().any(|e| e.contains("dcache")));
    }

    #[test]
    fn tlb_walks_classify_tlb_bound() {
        let snap = Snapshot {
            breakdown: Breakdown { busy: 100, dtlb_stall: 300, ..Default::default() },
            stats: CacheStats { tlb_demand_walks: 40, ..Default::default() },
        };
        let sec = analyze(&sim_report("baseline", snap), &CostModel::default());
        assert_eq!(sec.primary, "tlb_bound");
    }

    #[test]
    fn low_coverage_at_optimum_classifies_bandwidth_bound() {
        let snap = Snapshot {
            breakdown: Breakdown { busy: 100, dcache_stall: 900, ..Default::default() },
            stats: CacheStats {
                prefetches: 100,
                pf_dropped: 40,
                pf_evicted_unused: 30,
                pf_hidden_cycles: 100, // coverage 0.1 despite G at optimum
                ..Default::default()
            },
        };
        let sec = analyze(&sim_report("group(G=16)", snap), &CostModel::default());
        assert_eq!(sec.primary, "bandwidth_bound");
        // Below the optimum, low coverage is expected, not pathological.
        let snap2 = Snapshot {
            breakdown: Breakdown { busy: 100, dcache_stall: 900, ..Default::default() },
            stats: CacheStats {
                prefetches: 100,
                pf_hidden_cycles: 100,
                ..Default::default()
            },
        };
        let sec2 = analyze(&sim_report("group(G=2)", snap2), &CostModel::default());
        assert_eq!(sec2.primary, "latency_bound");
    }

    #[test]
    fn faults_and_degradation_take_priority() {
        let mut r = sim_report("group(G=16)", healthy_snapshot());
        r.faults = Some(FaultsSection {
            faults_injected: 9,
            read_retries: 3,
            write_retries: 0,
            slow_stall_us: 0,
            degradation: vec![],
        });
        let sec = analyze(&r, &CostModel::default());
        assert_eq!(sec.primary, "fault_stalled");

        r.faults = Some(FaultsSection {
            faults_injected: 9,
            read_retries: 3,
            write_retries: 0,
            slow_stall_us: 0,
            degradation: vec![DegradationRow {
                partition: "p3".into(),
                depth: 2,
                bytes: 1 << 20,
                budget: 1 << 19,
                action: "nlj_fallback".into(),
                detail: 0,
            }],
        });
        let sec = analyze(&r, &CostModel::default());
        assert_eq!(sec.primary, "degraded");
        let mut with = r.clone();
        with.analysis = Some(sec);
        with.validate().expect("degraded analysis validates");
    }

    #[test]
    fn skewed_pairs_classify_skew_bound() {
        let mut r = sim_report("group(G=16)", healthy_snapshot());
        r.regions = Some(RegionsSection {
            regions: vec![],
            skew: vec![
                SkewRow { index: 0, build_tuples: 10, probe_tuples: 10, cycles: 100, l2_hits: 0, mem_misses: 0 },
                SkewRow { index: 1, build_tuples: 900, probe_tuples: 900, cycles: 5_000, l2_hits: 0, mem_misses: 0 },
                SkewRow { index: 2, build_tuples: 10, probe_tuples: 10, cycles: 100, l2_hits: 0, mem_misses: 0 },
            ],
        });
        let sec = analyze(&r, &CostModel::default());
        assert_eq!(sec.primary, "skew_bound");
        assert!(sec.evidence[0].contains("partition 1"));
    }

    #[test]
    fn native_runs_get_no_predictions_but_still_classify() {
        let mut rec = Recorder::new();
        let root = rec.begin("run", Snapshot::default());
        rec.end(root, Snapshot::default());
        let mut r = RunReport::from_recorder("join", rec, Snapshot::default(), 2_000_000);
        r.config_kv("scheme", "swp(D=1)");
        let sec = analyze(&r, &CostModel::default());
        assert!(sec.predictions.is_empty());
        assert!(sec.residuals.is_empty());
        assert_eq!(sec.primary, "compute_bound");
        let mut with = r.clone();
        with.analysis = Some(sec);
        with.validate().expect("native analysis validates");
    }

    #[test]
    fn scheme_labels_parse_leniently() {
        assert_eq!(Scheme::parse("group(G=16)"), Scheme::Group(16));
        assert_eq!(Scheme::parse("Group { g: 8 }"), Scheme::Group(8));
        assert_eq!(Scheme::parse("swp(D=4)"), Scheme::Swp(4));
        assert_eq!(Scheme::parse("Swp { d: 2 }"), Scheme::Swp(2));
        assert_eq!(Scheme::parse("baseline"), Scheme::Baseline);
        assert_eq!(Scheme::parse("Baseline"), Scheme::Baseline);
        assert_eq!(Scheme::parse("simple"), Scheme::Simple);
        assert_eq!(Scheme::parse("???"), Scheme::Unknown);
    }

    #[test]
    fn render_mentions_the_verdict_and_predictions() {
        let r = sim_report("group(G=16)", healthy_snapshot());
        let sec = analyze(&r, &CostModel::default());
        let text = render(&r, &sec);
        assert!(text.contains("primary bottleneck: compute_bound"));
        assert!(text.contains("G*=16"));
        assert!(text.contains("prefetch_coverage"));
        assert!(text.contains("[*] compute_bound"));
    }
}
