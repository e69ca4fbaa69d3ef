//! Chaos harness: disk joins under randomized fault plans.
//!
//! 100 proptest-generated fault plans (transient errors, short reads,
//! torn writes, slow disks, permanent failures — alone and combined)
//! run the same small join, with faults injected into the *input*
//! relations and every spill/output file. The contract under fire:
//!
//! * a run that returns `Ok` must produce exactly the fault-free match
//!   count and pair checksum — surviving a fault never changes the
//!   answer;
//! * a run that cannot survive must return a typed [`PhjError`] — the
//!   engine never panics and never fabricates output;
//! * retryable-only plans (transient + short + slow, which all clear
//!   within the retry budget) must always succeed;
//! * corruption (torn writes) is always *detected*: it either never
//!   reaches the answer (equal checksum) or surfaces as a
//!   corruption-typed error.
//!
//! The first gauntlet pins the GRACE policy (everything spills, so every
//! plan exercises the spill files and the ladder); the second runs the
//! dynamic policy with a mid-run budget revocation layered on top, so
//! victim spilling under pressure and fault recovery are proven to
//! compose.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use phj::grace::{grace_join_with_sink, GraceConfig};
use phj::sink::{CountSink, JoinSink};
use phj_disk::{
    grace_join_files, DiskGraceConfig, DiskJoinMode, FaultPlan, FileRelation, LiveBudget,
    RetryPolicy,
};
use phj_memsim::NativeModel;
use phj_storage::{Relation, RelationBuilder, Schema, PAGE_SIZE};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("phj-chaos-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fixed chaos workload: small enough for 100 runs, large enough to
/// spill multiple pages per partition and degrade under tight budgets.
fn workload() -> (Relation, Relation) {
    let schema = Schema::key_payload(32);
    let mut build = RelationBuilder::new(schema.clone());
    let mut probe = RelationBuilder::new(schema);
    let mut t = [0u8; 32];
    for i in 0..900u32 {
        let k = i % 300; // 3 copies each, some skew-free fanout
        t[..4].copy_from_slice(&k.to_le_bytes());
        build.push_hashed(&t, phj::hash::hash_key(&k.to_le_bytes()));
    }
    for i in 0..600u32 {
        let k = i % 450; // half match, half miss
        t[..4].copy_from_slice(&k.to_le_bytes());
        probe.push_hashed(&t, phj::hash::hash_key(&k.to_le_bytes()));
    }
    (build.finish(), probe.finish())
}

/// Fault-free reference (in-memory engine; computed once).
fn baseline() -> (u64, u64) {
    static BASE: OnceLock<(u64, u64)> = OnceLock::new();
    *BASE.get_or_init(|| {
        let (build, probe) = workload();
        let mut sink = CountSink::new();
        grace_join_with_sink(
            &mut NativeModel,
            &GraceConfig { mem_budget: 1 << 30, ..Default::default() },
            &build,
            &probe,
            &mut sink,
        );
        (sink.matches(), sink.checksum())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn joins_under_fire_answer_correctly_or_fail_typed(
        seed in any::<u64>(),
        transient in 0u32..1500,
        short in 0u32..1000,
        torn in 0u32..120,
        slow in 0u32..500,
        permanent_raw in 0u32..200,
        budget_pages in 2usize..12,
    ) {
        // Permanent faults in ~20% of plans (0 in the rest).
        let permanent = permanent_raw.saturating_sub(160);
        let (want_matches, want_checksum) = baseline();
        let dir = temp_dir("run");
        let (build, probe) = workload();

        let plan = FaultPlan::seeded(seed)
            .transient(transient)
            .short_reads(short)
            .torn_writes(torn)
            .slow(slow, 20)
            .permanent(permanent);
        let retry = RetryPolicy { max_attempts: 4, backoff_micros: 5 };

        // Inputs are written fault-free (the workload must exist), then
        // all subsequent I/O — input scans, spills, output — runs under
        // the plan.
        let mut fb = FileRelation::create(&dir, "b", &build, 3, 2).unwrap();
        let mut fp = FileRelation::create(&dir, "p", &probe, 3, 2).unwrap();
        fb.set_faults(plan.clone(), retry);
        fp.set_faults(plan.clone(), retry);
        let cfg = DiskGraceConfig {
            mem_budget: budget_pages * PAGE_SIZE,
            mode: DiskJoinMode::Grace,
            num_stripes: 2,
            stripe_pages: 2,
            fault: plan.clone(),
            retry,
            ..DiskGraceConfig::new(&dir)
        };

        match grace_join_files(&cfg, &fb, &fp) {
            Ok(report) => {
                // Survived: the answer must be byte-for-byte the
                // fault-free one, whatever was injected along the way.
                prop_assert_eq!(report.matches, want_matches);
                prop_assert_eq!(report.checksum, want_checksum);
                prop_assert_eq!(report.output.num_tuples(), want_matches);
            }
            Err(e) => {
                // Typed failure is acceptable only when the plan carried
                // non-retryable faults; retryable-only plans must succeed.
                prop_assert!(
                    torn > 0 || permanent > 0,
                    "retryable-only plan failed: {e}"
                );
                // The error must render a useful diagnostic.
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
                if e.is_corruption() {
                    prop_assert!(torn > 0, "corruption error without torn writes: {e}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // The dynamic policy under the same fire, plus memory
    // pressure: every plan also carries a mid-run budget revocation (a
    // shrink request the join observes at its first safe point), so
    // victim spilling and the fault machinery are exercised *together*.
    // Same contract — exact answer or typed error, never a panic — and
    // additionally every spill/re-absorb transition the run logs must
    // be well-formed, and a surviving run must have complied with the
    // revoked budget.
    #[test]
    fn dynamic_joins_under_fire_and_pressure_answer_or_fail_typed(
        seed in any::<u64>(),
        transient in 0u32..1500,
        short in 0u32..1000,
        torn in 0u32..120,
        slow in 0u32..500,
        permanent_raw in 0u32..200,
        budget_pages in 3usize..14,
        shrink_to_pages in 1usize..6,
    ) {
        let permanent = permanent_raw.saturating_sub(160);
        let (want_matches, want_checksum) = baseline();
        let dir = temp_dir("dyn");
        let (build, probe) = workload();

        let plan = FaultPlan::seeded(seed)
            .transient(transient)
            .short_reads(short)
            .torn_writes(torn)
            .slow(slow, 20)
            .permanent(permanent);
        let retry = RetryPolicy { max_attempts: 4, backoff_micros: 5 };

        let mut fb = FileRelation::create(&dir, "b", &build, 3, 2).unwrap();
        let mut fp = FileRelation::create(&dir, "p", &probe, 3, 2).unwrap();
        fb.set_faults(plan.clone(), retry);
        fp.set_faults(plan.clone(), retry);

        // The revocation: the limit drops below the configured budget
        // before the run starts, so the join meets it at its first
        // safe point — a genuinely mid-run shrink on every plan.
        let live = Arc::new(LiveBudget::new((budget_pages * PAGE_SIZE) as u64));
        live.request_shrink((shrink_to_pages * PAGE_SIZE) as u64);
        let shrunk = shrink_to_pages < budget_pages;

        let cfg = DiskGraceConfig {
            mem_budget: budget_pages * PAGE_SIZE,
            mode: DiskJoinMode::Dynamic,
            live_budget: Some(Arc::clone(&live)),
            num_stripes: 2,
            stripe_pages: 2,
            fault: plan.clone(),
            retry,
            ..DiskGraceConfig::new(&dir)
        };

        match grace_join_files(&cfg, &fb, &fp) {
            Ok(report) => {
                prop_assert_eq!(report.matches, want_matches);
                prop_assert_eq!(report.checksum, want_checksum);
                // The run ended on the revoked budget and acked it.
                prop_assert_eq!(report.final_budget, live.limit());
                prop_assert!(live.acked() <= live.limit());
                // Transitions journal real byte movements against the
                // live budget in force at the time.
                for t in &report.transitions {
                    prop_assert!(t.bytes > 0, "empty transition logged: {t}");
                    prop_assert!(t.budget > 0, "transition without budget: {t}");
                }
                if shrunk {
                    prop_assert!(
                        !report.transitions.is_empty(),
                        "revoked run spilled nothing (budget {budget_pages}p -> {shrink_to_pages}p)"
                    );
                }
            }
            Err(e) => {
                prop_assert!(
                    torn > 0 || permanent > 0,
                    "retryable-only plan failed: {e}"
                );
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
                if e.is_corruption() {
                    prop_assert!(torn > 0, "corruption error without torn writes: {e}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // Torn writes specifically: corruption must always be detected on
    // read-back — a torn page can never be silently joined.
    #[test]
    fn torn_pages_are_always_detected(
        seed in any::<u64>(),
        torn in 200u32..2000,
    ) {
        let (want_matches, want_checksum) = baseline();
        let dir = temp_dir("torn");
        let (build, probe) = workload();
        let plan = FaultPlan::seeded(seed).torn_writes(torn);
        let retry = RetryPolicy::default();
        let fb = FileRelation::create(&dir, "b", &build, 2, 2).unwrap();
        let fp = FileRelation::create(&dir, "p", &probe, 2, 2).unwrap();
        let cfg = DiskGraceConfig {
            mem_budget: 4 * PAGE_SIZE,
            num_stripes: 2,
            stripe_pages: 2,
            fault: plan.clone(),
            retry,
            ..DiskGraceConfig::new(&dir)
        };
        match grace_join_files(&cfg, &fb, &fp) {
            // A tear that only hit pages whose damage is benign (e.g. the
            // zero tail of a page with no tuples there) can slip through —
            // but then the answer must still be exact.
            Ok(report) => {
                prop_assert_eq!(report.matches, want_matches);
                prop_assert_eq!(report.checksum, want_checksum);
            }
            Err(e) => prop_assert!(
                e.is_corruption(),
                "torn-write plan failed non-corruption: {e}"
            ),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
