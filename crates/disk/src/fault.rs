//! Deterministic fault injection for the disk substrate.
//!
//! A [`FaultPlan`] decides faults with a pure hash of (seed, fault kind,
//! operation, file, page, attempt) — never shared RNG state — so a given
//! plan injects exactly the same faults no matter how the I/O worker
//! threads interleave. Rates are expressed per 10,000 page operations.
//!
//! The plan models the failure taxonomy of real disks:
//!
//! * **transient errors** (`EINTR`-style) that clear after a few retries;
//! * **short reads** that return fewer bytes than a page;
//! * **torn writes** that persist only part of a page image — caught
//!   later by the header checksum, not at write time;
//! * **slow operations** that stall for a configured duration;
//! * **permanent errors** that fail every attempt.
//!
//! Every clone of a plan shares one [`IoStats`] block of atomic counters,
//! so injections and retries observed across reader/writer threads
//! aggregate into a single report.
//!
//! A plan can also cap each disk's bandwidth
//! ([`FaultPlan::stripe_mb_per_s`]), so stripe files on one device can
//! stand for a chosen number of bandwidth-bound disks.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use phj_storage::PAGE_SIZE;

/// Operation class a fault decision applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoOp {
    /// A page read.
    Read,
    /// A page write.
    Write,
}

/// A fault chosen for one (file, page, attempt) event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fails with `io::ErrorKind::Interrupted`; clears after retries.
    Transient,
    /// The read returns fewer bytes than a page (`UnexpectedEof`);
    /// clears after retries.
    ShortRead,
    /// The written image is corrupted on its way to the file. The write
    /// itself "succeeds" — detection is the reader's job.
    TornWrite,
    /// The operation stalls for the plan's `slow_micros`, then succeeds.
    Slow,
    /// Fails with `io::ErrorKind::Other` on every attempt.
    Permanent,
}

/// Injection and retry counters shared by every clone of a [`FaultPlan`].
#[derive(Debug, Default)]
pub struct IoStats {
    /// Transient errors injected.
    pub injected_transient: AtomicU64,
    /// Short reads injected.
    pub injected_short: AtomicU64,
    /// Torn writes injected.
    pub injected_torn: AtomicU64,
    /// Slow operations injected.
    pub injected_slow: AtomicU64,
    /// Permanent errors injected.
    pub injected_permanent: AtomicU64,
    /// Read attempts repeated after a retryable failure.
    pub read_retries: AtomicU64,
    /// Write attempts repeated after a retryable failure.
    pub write_retries: AtomicU64,
    /// Microseconds of injected slow-disk stall.
    pub slow_stall_us: AtomicU64,
}

impl IoStats {
    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected_transient.load(Ordering::Relaxed)
            + self.injected_short.load(Ordering::Relaxed)
            + self.injected_torn.load(Ordering::Relaxed)
            + self.injected_slow.load(Ordering::Relaxed)
            + self.injected_permanent.load(Ordering::Relaxed)
    }

    /// Total read + write retries.
    pub fn total_retries(&self) -> u64 {
        self.read_retries.load(Ordering::Relaxed) + self.write_retries.load(Ordering::Relaxed)
    }

    fn bump(&self, fault: Fault) {
        let c = match fault {
            Fault::Transient => &self.injected_transient,
            Fault::ShortRead => &self.injected_short,
            Fault::TornWrite => &self.injected_torn,
            Fault::Slow => &self.injected_slow,
            Fault::Permanent => &self.injected_permanent,
        };
        c.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.faults_injected.inc();
        }
    }
}

/// Bounded retry-with-backoff applied to page reads and writes.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per page operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, doubling each further retry.
    pub backoff_micros: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, backoff_micros: 50 }
    }
}

impl RetryPolicy {
    /// Backoff before retrying after failed attempt number `attempt`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_micros(self.backoff_micros << attempt.min(6))
    }

    /// Whether an I/O error is worth retrying: interruptions, timeouts,
    /// and short reads clear on a repeat attempt; everything else
    /// (permission, bad descriptor, no space) will not.
    pub fn is_retryable(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::UnexpectedEof
        )
    }
}

/// Pages a capped disk moves back to back after idling: one 256 KB
/// stripe unit (§7.2). Idle time is credit up to this burst, so a worker
/// that oversleeps loses no bandwidth.
pub const CAP_BURST_PAGES: u32 = 32;

/// Token buckets shared by every clone of a capped plan: the time one
/// page occupies a disk and, per stripe index, when its bucket is full
/// again and the I/O time charged to it.
#[derive(Debug)]
struct StripeCap {
    page: Duration,
    disks: Mutex<Vec<(Instant, Duration)>>,
}

/// A seeded, deterministic fault-injection schedule, plus an optional
/// per-disk bandwidth cap.
///
/// The default ([`FaultPlan::disabled`]) injects nothing and costs one
/// predictable branch per page operation (two with the cap's `None`), so
/// the plan is threaded through the I/O stack unconditionally rather
/// than as an `Option`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed mixed into every decision.
    pub seed: u64,
    /// Transient-error rate per 10,000 operations.
    pub transient_per_10k: u32,
    /// Short-read rate per 10,000 reads.
    pub short_per_10k: u32,
    /// Torn-write rate per 10,000 writes.
    pub torn_per_10k: u32,
    /// Slow-operation rate per 10,000 operations.
    pub slow_per_10k: u32,
    /// Permanent-error rate per 10,000 operations.
    pub permanent_per_10k: u32,
    /// Stall injected by each [`Fault::Slow`].
    pub slow_micros: u64,
    /// Attempt number at which transient faults stop firing (so a retry
    /// budget of at least this many attempts always clears them).
    pub clears_after: u32,
    stats: Arc<IoStats>,
    cap: Option<Arc<StripeCap>>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the default for real runs).
    pub fn disabled() -> FaultPlan {
        Self::seeded(0)
    }

    /// An empty plan with a seed; add faults with the builder methods.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient_per_10k: 0,
            short_per_10k: 0,
            torn_per_10k: 0,
            slow_per_10k: 0,
            permanent_per_10k: 0,
            slow_micros: 200,
            clears_after: 2,
            stats: Arc::new(IoStats::default()),
            cap: None,
        }
    }

    /// Inject transient errors at `per_10k` / 10,000 operations.
    pub fn transient(mut self, per_10k: u32) -> Self {
        self.transient_per_10k = per_10k;
        self
    }

    /// Inject short reads at `per_10k` / 10,000 reads.
    pub fn short_reads(mut self, per_10k: u32) -> Self {
        self.short_per_10k = per_10k;
        self
    }

    /// Inject torn writes at `per_10k` / 10,000 writes.
    pub fn torn_writes(mut self, per_10k: u32) -> Self {
        self.torn_per_10k = per_10k;
        self
    }

    /// Inject `micros`-long stalls at `per_10k` / 10,000 operations.
    pub fn slow(mut self, per_10k: u32, micros: u64) -> Self {
        self.slow_per_10k = per_10k;
        self.slow_micros = micros;
        self
    }

    /// Inject permanent errors at `per_10k` / 10,000 operations.
    pub fn permanent(mut self, per_10k: u32) -> Self {
        self.permanent_per_10k = per_10k;
        self
    }

    /// Cap stripe index `i` of every stripe set under the plan — one disk,
    /// as in §7.2, where relations and partitions share the array — at
    /// `mb_per_s` (10^6 bytes/s) of checked page reads and writes, with a
    /// burst of [`CAP_BURST_PAGES`]. Clones share the budget. The cap is
    /// not a fault: [`is_active`](FaultPlan::is_active) ignores it and
    /// [`parse`](FaultPlan::parse) has no key for it.
    pub fn stripe_mb_per_s(mut self, mb_per_s: f64) -> Self {
        assert!(mb_per_s > 0.0 && mb_per_s.is_finite(), "cap must be a positive rate");
        let page = Duration::from_secs_f64(PAGE_SIZE as f64 / (mb_per_s * 1e6));
        self.cap = Some(Arc::new(StripeCap { page, disks: Mutex::new(Vec::new()) }));
        self
    }

    /// Seconds of I/O the cap has charged to each stripe index so far;
    /// empty without a cap.
    pub fn stripe_charged_s(&self) -> Vec<f64> {
        let Some(cap) = &self.cap else { return Vec::new() };
        let disks = cap.disks.lock().unwrap_or_else(|p| p.into_inner());
        disks.iter().map(|(_, charged)| charged.as_secs_f64()).collect()
    }

    /// Wait until disk `stripe` has bandwidth for one page (no-op
    /// without a cap). The sleep happens outside the lock.
    #[inline]
    pub(crate) fn throttle(&self, stripe: usize) {
        let Some(cap) = &self.cap else { return };
        let now = Instant::now();
        let mut disks = cap.disks.lock().unwrap_or_else(|p| p.into_inner());
        if disks.len() <= stripe {
            disks.resize(stripe + 1, (now, Duration::ZERO));
        }
        let (full, charged) = &mut disks[stripe];
        *full = (*full).max(now) + cap.page;
        *charged += cap.page;
        let wait = full.saturating_duration_since(now).saturating_sub(cap.page * CAP_BURST_PAGES);
        drop(disks);
        std::thread::sleep(wait);
    }

    /// Whether any fault kind has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.transient_per_10k > 0
            || self.short_per_10k > 0
            || self.torn_per_10k > 0
            || self.slow_per_10k > 0
            || self.permanent_per_10k > 0
    }

    /// The counters shared by all clones of this plan.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Stable per-file tag for fault decisions: hash of the file name
    /// only, so a plan reproduces across different temp directories.
    pub fn tag(path: &Path) -> u64 {
        let name = path.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Decide the fault (if any) for one page operation. Pure: the same
    /// arguments always give the same answer for the same plan.
    ///
    /// Precedence when several kinds fire at once: permanent, then
    /// transient/short (which clear after `clears_after` attempts), then
    /// torn writes, then slow. The decision is recorded in [`IoStats`]
    /// only on attempt-0-visible events, so counters reflect distinct
    /// injected faults rather than retry echoes.
    pub fn decide(&self, op: IoOp, tag: u64, page: u64, attempt: u32) -> Option<Fault> {
        if !self.is_active() {
            return None;
        }
        let fault = self.choose(op, tag, page, attempt)?;
        // Count on the first attempt only — a transient fault re-fired on
        // a retry is the same fault, not a new injection.
        if attempt == 0 {
            self.stats.bump(fault);
            // Flight-recorder code follows the Fault discriminant order
            // (transient=0 … permanent=4), mirrored by the postmortem
            // renderer's fault-name table.
            phj_flightrec::event(phj_flightrec::EventKind::Fault, fault as u16, page, tag);
            // A slow operation sleeps on a worker thread; whatever it
            // costs the main thread is counted where the main thread waits.
            if fault == Fault::Slow {
                self.stats.slow_stall_us.fetch_add(self.slow_micros, Ordering::Relaxed);
            }
        }
        Some(fault)
    }

    fn choose(&self, op: IoOp, tag: u64, page: u64, attempt: u32) -> Option<Fault> {
        if self.fires(Fault::Permanent, op, tag, page, self.permanent_per_10k) {
            return Some(Fault::Permanent);
        }
        // Transient kinds clear after `clears_after` attempts at the same
        // operation — that is what makes them transient.
        if attempt < self.clears_after {
            if self.fires(Fault::Transient, op, tag, page, self.transient_per_10k) {
                return Some(Fault::Transient);
            }
            if op == IoOp::Read
                && self.fires(Fault::ShortRead, op, tag, page, self.short_per_10k)
            {
                return Some(Fault::ShortRead);
            }
        }
        if op == IoOp::Write && self.fires(Fault::TornWrite, op, tag, page, self.torn_per_10k) {
            return Some(Fault::TornWrite);
        }
        if attempt == 0 && self.fires(Fault::Slow, op, tag, page, self.slow_per_10k) {
            return Some(Fault::Slow);
        }
        None
    }

    fn fires(&self, kind: Fault, op: IoOp, tag: u64, page: u64, per_10k: u32) -> bool {
        if per_10k == 0 {
            return false;
        }
        self.roll(kind, op, tag, page) % 10_000 < per_10k as u64
    }

    fn roll(&self, kind: Fault, op: IoOp, tag: u64, page: u64) -> u64 {
        let k = match kind {
            Fault::Transient => 1u64,
            Fault::ShortRead => 2,
            Fault::TornWrite => 3,
            Fault::Slow => 4,
            Fault::Permanent => 5,
        };
        let o = match op {
            IoOp::Read => 0u64,
            IoOp::Write => 1,
        };
        splitmix(self.seed ^ splitmix(tag ^ splitmix(page ^ splitmix((k << 8) | o))))
    }

    /// Apply a [`Fault::TornWrite`] to a page image. Two tear styles,
    /// chosen deterministically: losing the tail half of the write
    /// (header intact → checksum mismatch on read) or scrambling the
    /// header (structurally torn). Either way the reader's verification
    /// catches any tear that touched real data.
    pub fn corrupt_image(&self, tag: u64, page: u64, image: &mut [u8; PAGE_SIZE]) {
        if self.roll(Fault::TornWrite, IoOp::Write, tag, page) & (1 << 32) == 0 {
            for b in image[PAGE_SIZE / 2..].iter_mut() {
                *b = 0;
            }
        } else {
            image[0..4].copy_from_slice(&0xDEAD_FFFFu32.to_le_bytes());
        }
    }

    /// Parse a CLI fault-plan spec: comma-separated presets and
    /// `key=value` settings.
    ///
    /// Presets: `transient` (transient=60, short=40), `torn` (torn=50),
    /// `slow` (slow=300, slow-us=300), `none`. Keys: `seed`, `transient`,
    /// `short`, `torn`, `slow`, `permanent` (rates per 10k), `slow-us`,
    /// `clears-after`. Example: `transient,seed=42,torn=5`.
    pub fn parse(spec: &str) -> std::result::Result<FaultPlan, String> {
        let mut plan = FaultPlan::disabled();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                None => match token {
                    "none" | "off" => plan = FaultPlan::seeded(plan.seed),
                    "transient" => {
                        plan.transient_per_10k = 60;
                        plan.short_per_10k = 40;
                    }
                    "torn" => plan.torn_per_10k = 50,
                    "slow" => {
                        plan.slow_per_10k = 300;
                        plan.slow_micros = 300;
                    }
                    other => {
                        return Err(format!(
                            "unknown fault preset '{other}' (expected transient, torn, slow, or none)"
                        ))
                    }
                },
                Some((key, value)) => {
                    let v: u64 = value
                        .parse()
                        .map_err(|_| format!("fault plan: '{key}={value}' is not a number"))?;
                    match key {
                        "seed" => plan.seed = v,
                        "transient" => plan.transient_per_10k = v as u32,
                        "short" => plan.short_per_10k = v as u32,
                        "torn" => plan.torn_per_10k = v as u32,
                        "slow" => plan.slow_per_10k = v as u32,
                        "permanent" => plan.permanent_per_10k = v as u32,
                        "slow-us" => plan.slow_micros = v,
                        "clears-after" => plan.clears_after = v as u32,
                        other => return Err(format!("unknown fault-plan key '{other}'")),
                    }
                }
            }
        }
        Ok(plan)
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injects_nothing() {
        let plan = FaultPlan::disabled();
        for page in 0..10_000u64 {
            assert_eq!(plan.decide(IoOp::Read, 7, page, 0), None);
            assert_eq!(plan.decide(IoOp::Write, 7, page, 0), None);
        }
        assert_eq!(plan.stats().total_injected(), 0);
    }

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let a = FaultPlan::seeded(42).transient(100).torn_writes(80).slow(50, 10);
        let b = FaultPlan::seeded(42).transient(100).torn_writes(80).slow(50, 10);
        let forward: Vec<_> =
            (0..5_000u64).map(|p| a.choose(IoOp::Write, 3, p, 0)).collect();
        let backward: Vec<_> =
            (0..5_000u64).rev().map(|p| b.choose(IoOp::Write, 3, p, 0)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        assert!(forward.iter().any(|f| f.is_some()));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1).transient(500);
        let b = FaultPlan::seeded(2).transient(500);
        let da: Vec<_> = (0..2_000u64).map(|p| a.choose(IoOp::Read, 0, p, 0)).collect();
        let db: Vec<_> = (0..2_000u64).map(|p| b.choose(IoOp::Read, 0, p, 0)).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn rates_are_roughly_proportional() {
        let plan = FaultPlan::seeded(9).transient(1_000); // 10%
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&p| plan.choose(IoOp::Read, 11, p, 0) == Some(Fault::Transient))
            .count();
        let expect = n as usize / 10;
        assert!(hits > expect / 2 && hits < expect * 2, "{hits} vs ~{expect}");
    }

    #[test]
    fn transient_faults_clear_after_retries() {
        let plan = FaultPlan::seeded(5).transient(2_000).short_reads(2_000);
        for page in 0..5_000u64 {
            for op in [IoOp::Read, IoOp::Write] {
                let f = plan.choose(op, 1, page, plan.clears_after);
                assert!(
                    !matches!(f, Some(Fault::Transient) | Some(Fault::ShortRead)),
                    "page {page} still failing at attempt {}",
                    plan.clears_after
                );
            }
        }
    }

    #[test]
    fn permanent_faults_never_clear() {
        let plan = FaultPlan::seeded(6).permanent(2_000);
        let stuck: Vec<u64> = (0..2_000)
            .filter(|&p| plan.choose(IoOp::Write, 2, p, 0) == Some(Fault::Permanent))
            .collect();
        assert!(!stuck.is_empty());
        for p in stuck {
            for attempt in 1..8 {
                assert_eq!(plan.choose(IoOp::Write, 2, p, attempt), Some(Fault::Permanent));
            }
        }
    }

    #[test]
    fn short_reads_only_on_reads_torn_only_on_writes() {
        let plan = FaultPlan::seeded(8).short_reads(10_000).torn_writes(10_000);
        assert_eq!(plan.choose(IoOp::Read, 0, 1, 0), Some(Fault::ShortRead));
        assert_eq!(plan.choose(IoOp::Write, 0, 1, 0), Some(Fault::TornWrite));
    }

    #[test]
    fn corrupt_image_changes_bytes() {
        let plan = FaultPlan::seeded(3).torn_writes(10_000);
        let mut page = phj_storage::Page::new();
        page.insert(&[0x5A; 64], 1).unwrap();
        for pid in 0..8u64 {
            let mut img = *page.sealed_image();
            let orig = img;
            plan.corrupt_image(1, pid, &mut img);
            assert_ne!(&img[..], &orig[..], "tear must alter the image");
        }
    }

    #[test]
    fn stats_shared_across_clones() {
        let plan = FaultPlan::seeded(4).transient(10_000);
        let clone = plan.clone();
        assert_eq!(clone.decide(IoOp::Read, 0, 0, 0), Some(Fault::Transient));
        assert_eq!(plan.stats().injected_transient.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parse_presets_and_keys() {
        let p = FaultPlan::parse("transient,seed=42,torn=5").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.transient_per_10k, 60);
        assert_eq!(p.short_per_10k, 40);
        assert_eq!(p.torn_per_10k, 5);
        let q = FaultPlan::parse("slow,slow-us=750").unwrap();
        assert_eq!(q.slow_per_10k, 300);
        assert_eq!(q.slow_micros, 750);
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(!FaultPlan::parse("none").unwrap().is_active());
    }

    #[test]
    fn capped_stripe_moves_at_most_its_rate() {
        // 100 MB/s: one 8 KB page per 81.92 us. Lower bound only, so a
        // loaded host cannot make it flake.
        let plan = FaultPlan::disabled().stripe_mb_per_s(100.0);
        let n = CAP_BURST_PAGES as u64 + 120;
        let t0 = Instant::now();
        for _ in 0..n {
            plan.throttle(0);
        }
        let page_s = PAGE_SIZE as f64 / 100e6;
        let floor = (n - CAP_BURST_PAGES as u64) as f64 * page_s;
        assert!(t0.elapsed().as_secs_f64() >= floor, "{:?} < {floor}", t0.elapsed());
        let charged = plan.stripe_charged_s();
        assert_eq!(charged.len(), 1);
        assert!((charged[0] - n as f64 * page_s).abs() < 1e-6, "{charged:?}");
    }

    #[test]
    fn cap_alone_injects_nothing() {
        let plan = FaultPlan::disabled().stripe_mb_per_s(50.0);
        assert!(!plan.is_active());
        for page in 0..1_000u64 {
            assert_eq!(plan.decide(IoOp::Read, 7, page, 0), None);
            assert_eq!(plan.decide(IoOp::Write, 7, page, 0), None);
        }
        assert_eq!(plan.stats().total_injected(), 0);
        assert!(FaultPlan::disabled().stripe_charged_s().is_empty());
    }

    #[test]
    fn parse_has_no_cap_key() {
        for spec in ["stripe-mb-per-s=100", "mb-per-s=100", "cap=100", "bandwidth=100"] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec}");
        }
        assert!(FaultPlan::parse("transient,seed=3").unwrap().stripe_charged_s().is_empty());
    }

    #[test]
    fn tag_depends_on_file_name_not_directory() {
        let a = FaultPlan::tag(Path::new("/tmp/run1/spill.0"));
        let b = FaultPlan::tag(Path::new("/var/other/spill.0"));
        let c = FaultPlan::tag(Path::new("/tmp/run1/spill.1"));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
