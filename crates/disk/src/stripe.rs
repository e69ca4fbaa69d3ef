//! Page striping across a set of files.
//!
//! §7.2: "To get good I/O performance, we stripe a relation across all
//! the disks with 256KB units. [...] We imitate raw disk partitions by
//! allocating a large file on each disk and managing the mapping from
//! page IDs to file offsets ourselves." Here each "disk" is one file;
//! the page-id → (file, offset) mapping is the same arithmetic.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use phj_storage::{Frame, Page, PAGE_SIZE};

use crate::error::{PhjError, Result};
use crate::fault::{Fault, FaultPlan, IoOp, RetryPolicy};

/// A striped set of page files. Cloneable handle; the underlying files
/// are shared (each protected by its own lock so per-file worker threads
/// don't contend with each other).
///
/// Two access levels:
///
/// * [`read_page`](StripeSet::read_page) / [`write_page`]
///   (StripeSet::write_page) — raw images, no checksum, no faults (tests
///   and tools that inspect images directly);
/// * [`read_page_verified`](StripeSet::read_page_verified) /
///   [`write_image_checked`](StripeSet::write_image_checked) — what the
///   engine uses: the plan's bandwidth cap, fault injection, bounded
///   retry-with-backoff, and checksum verification, returning typed
///   [`PhjError`]s.
#[derive(Clone, Debug)]
pub struct StripeSet {
    files: Arc<Vec<Mutex<File>>>,
    paths: Arc<Vec<PathBuf>>,
    /// Per-file fault-decision tags (hash of the file name).
    tags: Arc<Vec<u64>>,
    stripe_pages: u64,
    fault: FaultPlan,
    retry: RetryPolicy,
}

impl StripeSet {
    /// Create (truncating) `num_stripes` files named `<name>.<i>` under
    /// `dir`, striping in units of `stripe_pages` pages.
    pub fn create(
        dir: &Path,
        name: &str,
        num_stripes: usize,
        stripe_pages: u64,
    ) -> io::Result<StripeSet> {
        assert!(num_stripes > 0, "need at least one stripe file");
        assert!(stripe_pages > 0, "stripe unit must be at least one page");
        std::fs::create_dir_all(dir)?;
        let mut files = Vec::with_capacity(num_stripes);
        let mut paths = Vec::with_capacity(num_stripes);
        for i in 0..num_stripes {
            let path = dir.join(format!("{name}.{i}"));
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            files.push(Mutex::new(f));
            paths.push(path);
        }
        Ok(Self::from_files(files, paths, stripe_pages))
    }

    /// Open an existing stripe set (files must have been created by
    /// [`StripeSet::create`] with the same geometry).
    pub fn open(
        dir: &Path,
        name: &str,
        num_stripes: usize,
        stripe_pages: u64,
    ) -> io::Result<StripeSet> {
        assert!(num_stripes > 0 && stripe_pages > 0);
        let mut files = Vec::with_capacity(num_stripes);
        let mut paths = Vec::with_capacity(num_stripes);
        for i in 0..num_stripes {
            let path = dir.join(format!("{name}.{i}"));
            let f = OpenOptions::new().read(true).write(true).open(&path)?;
            files.push(Mutex::new(f));
            paths.push(path);
        }
        Ok(Self::from_files(files, paths, stripe_pages))
    }

    fn from_files(files: Vec<Mutex<File>>, paths: Vec<PathBuf>, stripe_pages: u64) -> StripeSet {
        let tags = paths.iter().map(|p| FaultPlan::tag(p)).collect();
        StripeSet {
            files: Arc::new(files),
            paths: Arc::new(paths),
            tags: Arc::new(tags),
            stripe_pages,
            fault: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
        }
    }

    /// Attach a fault plan and retry policy. Applies to this handle and
    /// every clone taken *afterwards* (readers/writers clone the handle
    /// they are started with).
    pub fn with_faults(mut self, fault: FaultPlan, retry: RetryPolicy) -> StripeSet {
        self.fault = fault;
        self.retry = retry;
        self
    }

    /// Stripe unit in pages.
    pub fn stripe_pages(&self) -> u64 {
        self.stripe_pages
    }

    /// Number of stripe files.
    pub fn num_stripes(&self) -> usize {
        self.files.len()
    }

    /// The stripe file a page lives on.
    #[inline]
    pub fn stripe_of(&self, page: u64) -> usize {
        ((page / self.stripe_pages) % self.files.len() as u64) as usize
    }

    /// Byte offset of a page within its stripe file.
    #[inline]
    pub fn offset_of(&self, page: u64) -> u64 {
        let unit = page / self.stripe_pages; // global stripe-unit index
        let round = unit / self.files.len() as u64; // units already on this file
        let within = page % self.stripe_pages;
        (round * self.stripe_pages + within) * PAGE_SIZE as u64
    }

    /// Write a raw page image at its striped location (no checksum, no
    /// fault injection, no retry).
    pub fn write_page(&self, page: u64, image: &[u8; PAGE_SIZE]) -> io::Result<()> {
        self.raw_write(self.stripe_of(page), page, image)
    }

    /// Read a raw page image from its striped location (no verification,
    /// no fault injection, no retry).
    pub fn read_page(&self, page: u64) -> io::Result<Frame> {
        self.raw_read(self.stripe_of(page), page)
    }

    fn raw_write(&self, s: usize, page: u64, image: &[u8; PAGE_SIZE]) -> io::Result<()> {
        // A poisoned lock means another I/O thread panicked mid-hold; the
        // file offset it left behind is irrelevant (seeks are absolute),
        // so recover the guard rather than propagating the panic.
        let mut f = self.files[s].lock().unwrap_or_else(|p| p.into_inner());
        f.seek(SeekFrom::Start(self.offset_of(page)))?;
        f.write_all(image)?;
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.bytes_written.add(PAGE_SIZE as u64);
        }
        Ok(())
    }

    fn raw_read(&self, s: usize, page: u64) -> io::Result<Frame> {
        let mut image = Frame::zeroed();
        {
            let mut f = self.files[s].lock().unwrap_or_else(|p| p.into_inner());
            f.seek(SeekFrom::Start(self.offset_of(page)))?;
            f.read_exact(&mut image[..])?;
        }
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.bytes_read.add(PAGE_SIZE as u64);
        }
        Ok(image)
    }

    /// Read a page through the fault plan with bounded retries, then
    /// verify its header checksum. This is the engine's read path: every
    /// page that crossed the disk boundary comes back either verified or
    /// as a typed error naming file and page.
    pub fn read_page_verified(&self, page: u64) -> Result<Page> {
        let s = self.stripe_of(page);
        self.fault.throttle(s);
        let tag = self.tags[s];
        let mut attempt = 0u32;
        loop {
            let res = match self.fault.decide(IoOp::Read, tag, page, attempt) {
                Some(Fault::Transient) => {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient error"))
                }
                Some(Fault::ShortRead) => {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "injected short read"))
                }
                Some(Fault::Permanent) => Err(io::Error::other("injected permanent error")),
                Some(Fault::Slow) => {
                    std::thread::sleep(std::time::Duration::from_micros(self.fault.slow_micros));
                    self.raw_read(s, page)
                }
                Some(Fault::TornWrite) | None => self.raw_read(s, page),
            };
            match res {
                Ok(image) => {
                    return Page::try_from_image(image)
                        .map_err(|e| PhjError::from_page_error(self.paths[s].clone(), page, e));
                }
                Err(e) if attempt + 1 < self.retry.max_attempts && RetryPolicy::is_retryable(&e) => {
                    self.fault.stats().read_retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = crate::telemetry::disk_metrics() {
                        m.read_retries.inc();
                    }
                    // code 0 = read retry; b is the attempt being retried.
                    phj_flightrec::event(
                        phj_flightrec::EventKind::Retry,
                        0,
                        page,
                        attempt as u64 + 1,
                    );
                    std::thread::sleep(self.retry.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    return Err(PhjError::Io {
                        path: self.paths[s].clone(),
                        page: Some(page),
                        attempts: attempt + 1,
                        source: e,
                    });
                }
            }
        }
    }

    /// Write an already-sealed page image through the fault plan with
    /// bounded retries. A torn-write fault corrupts the image before it
    /// reaches the file — the write still "succeeds"; detection belongs
    /// to the reader's checksum verification.
    pub fn write_image_checked(&self, page: u64, mut image: Frame) -> Result<()> {
        let s = self.stripe_of(page);
        self.fault.throttle(s);
        let tag = self.tags[s];
        let mut attempt = 0u32;
        loop {
            let res = match self.fault.decide(IoOp::Write, tag, page, attempt) {
                Some(Fault::Transient) => {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient error"))
                }
                Some(Fault::Permanent) => Err(io::Error::other("injected permanent error")),
                Some(Fault::Slow) => {
                    std::thread::sleep(std::time::Duration::from_micros(self.fault.slow_micros));
                    self.raw_write(s, page, &image)
                }
                Some(Fault::TornWrite) => {
                    self.fault.corrupt_image(tag, page, &mut image);
                    self.raw_write(s, page, &image)
                }
                Some(Fault::ShortRead) | None => self.raw_write(s, page, &image),
            };
            match res {
                Ok(()) => return Ok(()),
                Err(e) if attempt + 1 < self.retry.max_attempts && RetryPolicy::is_retryable(&e) => {
                    self.fault.stats().write_retries.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = crate::telemetry::disk_metrics() {
                        m.write_retries.inc();
                    }
                    // code 1 = write retry; b is the attempt being retried.
                    phj_flightrec::event(
                        phj_flightrec::EventKind::Retry,
                        1,
                        page,
                        attempt as u64 + 1,
                    );
                    std::thread::sleep(self.retry.backoff(attempt));
                    attempt += 1;
                }
                Err(e) => {
                    return Err(PhjError::Io {
                        path: self.paths[s].clone(),
                        page: Some(page),
                        attempts: attempt + 1,
                        source: e,
                    });
                }
            }
        }
    }

    /// Seal a page and write its image through the checked path.
    pub fn write_page_sealed(&self, page: u64, p: &Page) -> Result<()> {
        self.write_image_checked(page, p.sealed_image())
    }

    /// Paths of the stripe files.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phj-stripe-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stripe_arithmetic() {
        let dir = temp_dir("arith");
        let s = StripeSet::create(&dir, "t", 3, 4).unwrap();
        // Pages 0..4 on file 0 at offsets 0..4; 4..8 on file 1 at 0..4;
        // 8..12 on file 2; 12..16 back on file 0 at offsets 4..8.
        assert_eq!(s.stripe_of(0), 0);
        assert_eq!(s.stripe_of(3), 0);
        assert_eq!(s.stripe_of(4), 1);
        assert_eq!(s.stripe_of(11), 2);
        assert_eq!(s.stripe_of(12), 0);
        assert_eq!(s.offset_of(0), 0);
        assert_eq!(s.offset_of(3), 3 * PAGE_SIZE as u64);
        assert_eq!(s.offset_of(4), 0);
        assert_eq!(s.offset_of(12), 4 * PAGE_SIZE as u64);
        assert_eq!(s.offset_of(13), 5 * PAGE_SIZE as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pages_roundtrip_across_stripes() {
        let dir = temp_dir("rw");
        let s = StripeSet::create(&dir, "t", 2, 2).unwrap();
        for p in 0..10u64 {
            let mut img = Frame::zeroed();
            img[0] = p as u8;
            img[PAGE_SIZE - 1] = 0xEE;
            s.write_page(p, &img).unwrap();
        }
        // Read back out of order.
        for p in (0..10u64).rev() {
            let img = s.read_page(p).unwrap();
            assert_eq!(img[0], p as u8);
            assert_eq!(img[PAGE_SIZE - 1], 0xEE);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handles_are_shared() {
        let dir = temp_dir("share");
        let a = StripeSet::create(&dir, "t", 1, 1).unwrap();
        let b = a.clone();
        let img = [7u8; PAGE_SIZE];
        a.write_page(5, &img).unwrap();
        assert_eq!(b.read_page(5).unwrap()[100], 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_page(marker: u32) -> Page {
        let mut p = Page::new();
        p.insert(&marker.to_le_bytes(), marker).unwrap();
        p
    }

    #[test]
    fn checked_roundtrip_verifies() {
        let dir = temp_dir("checked");
        let s = StripeSet::create(&dir, "t", 2, 2).unwrap();
        for p in 0..8u64 {
            s.write_page_sealed(p, &sample_page(p as u32)).unwrap();
        }
        for p in 0..8u64 {
            let page = s.read_page_verified(p).unwrap();
            assert_eq!(page.hash_code(0), p as u32);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_write_fails_verification() {
        let dir = temp_dir("unsealed");
        let s = StripeSet::create(&dir, "t", 1, 1).unwrap();
        s.write_page(0, sample_page(1).as_bytes()).unwrap();
        let err = s.read_page_verified(0).unwrap_err();
        assert!(matches!(err, PhjError::ChecksumMismatch { page: 0, .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let dir = temp_dir("transient");
        let plan = crate::fault::FaultPlan::seeded(11).transient(4_000).short_reads(2_000);
        let s = StripeSet::create(&dir, "t", 2, 2)
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy { max_attempts: 4, backoff_micros: 1 });
        for p in 0..50u64 {
            s.write_page_sealed(p, &sample_page(p as u32)).unwrap();
        }
        for p in 0..50u64 {
            assert_eq!(s.read_page_verified(p).unwrap().hash_code(0), p as u32);
        }
        // With these rates 50 writes + 50 reads must have hit some faults,
        // and every one of them was absorbed by retries.
        assert!(plan.stats().total_injected() > 0);
        assert!(plan.stats().total_retries() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_is_caught_by_the_reader() {
        let dir = temp_dir("torn");
        let plan = crate::fault::FaultPlan::seeded(7).torn_writes(10_000); // every write tears
        let s = StripeSet::create(&dir, "t", 1, 1)
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy::default());
        s.write_page_sealed(0, &sample_page(9)).unwrap(); // "succeeds"
        let err = s.read_page_verified(0).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(plan.stats().injected_torn.load(Ordering::Relaxed), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_of_one_capped_plan_share_each_stripe_budget() {
        let dir = temp_dir("capshare");
        let plan = crate::fault::FaultPlan::disabled().stripe_mb_per_s(100.0);
        let a = StripeSet::create(&dir, "a", 2, 4)
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy::default());
        let b = StripeSet::create(&dir, "b", 1, 4)
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy::default());
        // Pages 0..4 of `a` and every page of `b` sit on stripe index 0.
        let burst = crate::fault::CAP_BURST_PAGES as u64;
        let t0 = std::time::Instant::now();
        for p in 0..burst {
            a.write_page_sealed(p % 4, &sample_page(p as u32)).unwrap();
            b.write_page_sealed(p, &sample_page(p as u32)).unwrap();
        }
        // 2 x burst pages on one disk: at least `burst` of them waited.
        let page_s = PAGE_SIZE as f64 / 100e6;
        assert!(t0.elapsed().as_secs_f64() >= burst as f64 * page_s, "{:?}", t0.elapsed());
        let charged = plan.stripe_charged_s();
        assert!((charged[0] - 2.0 * burst as f64 * page_s).abs() < 1e-6, "{charged:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_fault_exhausts_retries() {
        let dir = temp_dir("permanent");
        let plan = crate::fault::FaultPlan::seeded(3).permanent(10_000);
        let retry = RetryPolicy { max_attempts: 3, backoff_micros: 1 };
        let s = StripeSet::create(&dir, "t", 1, 1).unwrap().with_faults(plan, retry);
        let err = s.write_image_checked(0, sample_page(1).sealed_image()).unwrap_err();
        match err {
            // Permanent errors are not retryable, so one attempt suffices.
            PhjError::Io { page: Some(0), attempts, .. } => assert_eq!(attempts, 1),
            other => panic!("expected Io error, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
