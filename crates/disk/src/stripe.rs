//! Page striping across a set of files.
//!
//! §7.2: "To get good I/O performance, we stripe a relation across all
//! the disks with 256KB units. [...] We imitate raw disk partitions by
//! allocating a large file on each disk and managing the mapping from
//! page IDs to file offsets ourselves." Here each "disk" is one file;
//! the page-id → (file, offset) mapping is the same arithmetic.
//!
//! All I/O is positional (`pread`/`pwrite` and their vectored forms), so
//! the files are shared between threads without a lock or a seek. A run
//! of consecutive pages inside one stripe unit moves with one vectored
//! call ([`StripeSet::write_run`], [`StripeSet::read_run`]); fault
//! decisions, the bandwidth cap and byte counters stay per page.

use std::fs::{File, OpenOptions};
use std::io::{self, IoSlice, IoSliceMut};
use std::os::raw::c_int;
use std::os::unix::fs::FileExt;
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use phj_storage::{Frame, Page, PAGE_SIZE};

use crate::error::{PhjError, Result};
use crate::fault::{Fault, FaultPlan, IoOp, RetryPolicy};

// std links the C library already; these are its `pwritev(2)` and
// `preadv(2)`, declared here because `write_vectored_at` is unstable and
// there is no `libc` crate in the build. `off_t` is 64 bits wide on the
// 64-bit targets this crate builds for (checked below).
extern "C" {
    fn pwritev(fd: c_int, iov: *const IoSlice<'_>, iovcnt: c_int, offset: i64) -> isize;
    fn preadv(fd: c_int, iov: *const IoSliceMut<'_>, iovcnt: c_int, offset: i64) -> isize;
}

const _: () = assert!(std::mem::size_of::<isize>() == 8, "pwritev/preadv take a 64-bit off_t");

/// Pages one vectored call moves at most: Linux's `IOV_MAX`.
const MAX_IOV: usize = 1024;

/// A striped set of page files. Cloneable handle; the underlying files
/// are shared, and every access is positional, so worker threads of one
/// file never serialise on it.
///
/// Two access levels:
///
/// * [`read_page`](StripeSet::read_page) / [`write_page`]
///   (StripeSet::write_page) — raw images, no checksum, no faults (tests
///   and tools that inspect images directly);
/// * [`read_page_verified`](StripeSet::read_page_verified) /
///   [`write_image_checked`](StripeSet::write_image_checked) and the
///   run forms the background reader and writer use — what the engine
///   uses: the plan's bandwidth cap, fault injection, bounded
///   retry-with-backoff, and checksum verification, returning typed
///   [`PhjError`]s.
#[derive(Clone, Debug)]
pub struct StripeSet {
    files: Arc<Vec<File>>,
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
            files.push(f);
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
            files.push(f);
            paths.push(path);
        }
        Ok(Self::from_files(files, paths, stripe_pages))
    }

    fn from_files(files: Vec<File>, paths: Vec<PathBuf>, stripe_pages: u64) -> StripeSet {
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

    /// The longest run a reader or writer with `window` pages in flight
    /// per stripe moves in one call: one stripe unit, cut to the window.
    pub(crate) fn run_limit(&self, window: usize) -> usize {
        (self.stripe_pages as usize).min(window).clamp(1, MAX_IOV)
    }

    /// Whether `page` may extend a run that ends at `page - 1`: the two
    /// sit next to each other in one stripe unit.
    pub(crate) fn continues_run(&self, page: u64) -> bool {
        !page.is_multiple_of(self.stripe_pages)
    }

    /// A vectored call moves contiguous file bytes, which pages
    /// `first..first + n` are only inside one stripe unit.
    fn assert_in_one_unit(&self, first: u64, n: usize) {
        assert!(
            first % self.stripe_pages + n as u64 <= self.stripe_pages,
            "a run of {n} pages from page {first} crosses a stripe-unit boundary"
        );
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
        self.files[s].write_all_at(image, self.offset_of(page))?;
        self.charge_written(1);
        Ok(())
    }

    fn raw_read(&self, s: usize, page: u64) -> io::Result<Frame> {
        let mut image = Frame::zeroed();
        self.files[s].read_exact_at(&mut image[..], self.offset_of(page))?;
        self.charge_read(1);
        Ok(image)
    }

    fn charge_written(&self, pages: usize) {
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.bytes_written.add((pages * PAGE_SIZE) as u64);
        }
    }

    fn charge_read(&self, pages: usize) {
        if let Some(m) = crate::telemetry::disk_metrics() {
            m.bytes_read.add((pages * PAGE_SIZE) as u64);
        }
    }

    /// Write `images`, pages `first..` of one stripe unit, with one
    /// `pwritev`; returns how many whole pages it wrote.
    fn pwritev_pages(&self, s: usize, first: u64, images: &[Frame]) -> usize {
        let iov: Vec<IoSlice<'_>> = images.iter().map(|f| IoSlice::new(&f[..])).collect();
        // SAFETY: `IoSlice` is ABI-compatible with `struct iovec` on Unix
        // (std documents this), `iov` holds `iov.len() <= MAX_IOV` slices
        // that each borrow a live frame for the whole call, and the file
        // descriptor belongs to `self.files`, which outlives the call.
        let n = unsafe {
            pwritev(
                self.files[s].as_raw_fd(),
                iov.as_ptr(),
                iov.len() as c_int,
                self.offset_of(first) as i64,
            )
        };
        usize::try_from(n).map_or(0, |bytes| bytes / PAGE_SIZE)
    }

    /// Read pages `first..first + frames.len()` of one stripe unit into
    /// `frames` with one `preadv`; returns how many whole pages it read.
    fn preadv_pages(&self, s: usize, first: u64, frames: &mut [Frame]) -> usize {
        let mut iov: Vec<IoSliceMut<'_>> =
            frames.iter_mut().map(|f| IoSliceMut::new(&mut f[..])).collect();
        // SAFETY: `IoSliceMut` is ABI-compatible with `struct iovec` on
        // Unix (std documents this), `iov` holds `iov.len() <= MAX_IOV`
        // slices that each borrow a distinct live frame mutably for the
        // whole call, so the kernel writes only into memory we own, and
        // the file descriptor belongs to `self.files`, which outlives
        // the call.
        let n = unsafe {
            preadv(
                self.files[s].as_raw_fd(),
                iov.as_mut_ptr(),
                iov.len() as c_int,
                self.offset_of(first) as i64,
            )
        };
        usize::try_from(n).map_or(0, |bytes| bytes / PAGE_SIZE)
    }

    fn slow_sleep(&self) {
        std::thread::sleep(std::time::Duration::from_micros(self.fault.slow_micros));
    }

    fn verify(&self, s: usize, page: u64, image: Frame) -> Result<Page> {
        Page::try_from_image(image)
            .map_err(|e| PhjError::from_page_error(self.paths[s].clone(), page, e))
    }

    /// Read a page through the fault plan with bounded retries, then
    /// verify its header checksum. This is the engine's read path: every
    /// page that crossed the disk boundary comes back either verified or
    /// as a typed error naming file and page.
    pub fn read_page_verified(&self, page: u64) -> Result<Page> {
        let s = self.stripe_of(page);
        self.fault.throttle(s);
        let fault = self.fault.decide(IoOp::Read, self.tags[s], page, 0);
        self.read_attempts(s, page, fault)
    }

    /// Read pages `first..first + n` — one stripe unit or part of one —
    /// through the verified path, handing each page to `sink` in page
    /// order; `sink` returns whether to go on (a reader stops at the
    /// first error it is handed). Returns `false` if it stopped early.
    ///
    /// Each page is throttled and gets its fault decision in page order.
    /// Pages drawing a transient, short-read or permanent fault go
    /// through [`read_page_verified`](StripeSet::read_page_verified)'s
    /// retry loop with that decision; the pages between them are read
    /// with one `preadv` each stretch, and pages a short transfer leaves
    /// behind are read one by one.
    pub(crate) fn read_run(
        &self,
        first: u64,
        n: usize,
        sink: &mut dyn FnMut(u64, Result<Page>) -> bool,
    ) -> bool {
        self.assert_in_one_unit(first, n);
        let s = self.stripe_of(first);
        let mut start = 0;
        for i in 0..n {
            let page = first + i as u64;
            self.fault.throttle(s);
            match self.fault.decide(IoOp::Read, self.tags[s], page, 0) {
                Some(Fault::Slow) => self.slow_sleep(),
                Some(Fault::TornWrite) | None => {}
                fault @ Some(Fault::Transient | Fault::ShortRead | Fault::Permanent) => {
                    if !self.read_stretch(s, first + start as u64, i - start, sink)
                        || !sink(page, self.read_attempts(s, page, fault))
                    {
                        return false;
                    }
                    start = i + 1;
                }
            }
        }
        self.read_stretch(s, first + start as u64, n - start, sink)
    }

    /// Pages `first..first + n` whose attempt-0 decision has been taken:
    /// one `preadv` into fresh frames, then each page verified and handed
    /// over; the pages it did not bring in whole take the retry loop.
    fn read_stretch(
        &self,
        s: usize,
        first: u64,
        n: usize,
        sink: &mut dyn FnMut(u64, Result<Page>) -> bool,
    ) -> bool {
        if n == 0 {
            return true;
        }
        let mut frames: Vec<Frame> = (0..n).map(|_| Frame::zeroed()).collect();
        let done = self.preadv_pages(s, first, &mut frames);
        self.charge_read(done);
        for (i, image) in frames.into_iter().enumerate() {
            let page = first + i as u64;
            let res = if i < done {
                self.verify(s, page, image)
            } else {
                drop(image);
                self.read_attempts(s, page, None)
            };
            if !sink(page, res) {
                return false;
            }
        }
        true
    }

    /// The read retry loop of one page, starting from its attempt-0
    /// decision `fault`.
    fn read_attempts(&self, s: usize, page: u64, mut fault: Option<Fault>) -> Result<Page> {
        let mut attempt = 0u32;
        loop {
            let res = match fault {
                Some(Fault::Transient) => {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient error"))
                }
                Some(Fault::ShortRead) => {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "injected short read"))
                }
                Some(Fault::Permanent) => Err(io::Error::other("injected permanent error")),
                Some(Fault::Slow) => {
                    self.slow_sleep();
                    self.raw_read(s, page)
                }
                Some(Fault::TornWrite) | None => self.raw_read(s, page),
            };
            match res {
                Ok(image) => return self.verify(s, page, image),
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
                    fault = self.fault.decide(IoOp::Read, self.tags[s], page, attempt);
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
        let fault = self.fault.decide(IoOp::Write, self.tags[s], page, 0);
        self.write_attempts(s, page, &mut image, fault)
    }

    /// Write sealed `images` as pages `first..` — one stripe unit or part
    /// of one — through the checked path, stopping at the first error.
    ///
    /// Each page is throttled and gets its fault decision in page order.
    /// Torn pages are corrupted, and slow ones sleep, before the write;
    /// pages drawing a transient or permanent fault go through
    /// [`write_image_checked`](StripeSet::write_image_checked)'s retry
    /// loop with that decision. The pages between them are written with
    /// one `pwritev` each stretch, and pages a short transfer leaves
    /// behind are written one by one.
    pub(crate) fn write_run(&self, first: u64, images: &mut [Frame]) -> Result<()> {
        self.assert_in_one_unit(first, images.len());
        let s = self.stripe_of(first);
        let tag = self.tags[s];
        let mut start = 0;
        for i in 0..images.len() {
            let page = first + i as u64;
            self.fault.throttle(s);
            match self.fault.decide(IoOp::Write, tag, page, 0) {
                Some(Fault::Slow) => self.slow_sleep(),
                Some(Fault::TornWrite) => self.fault.corrupt_image(tag, page, &mut images[i]),
                Some(Fault::ShortRead) | None => {}
                fault @ Some(Fault::Transient | Fault::Permanent) => {
                    self.write_stretch(s, first + start as u64, &mut images[start..i])?;
                    self.write_attempts(s, page, &mut images[i], fault)?;
                    start = i + 1;
                }
            }
        }
        self.write_stretch(s, first + start as u64, &mut images[start..])
    }

    /// Pages `first..` whose attempt-0 decision has been applied: one
    /// `pwritev`; the pages it did not write whole take the retry loop.
    fn write_stretch(&self, s: usize, first: u64, images: &mut [Frame]) -> Result<()> {
        if images.is_empty() {
            return Ok(());
        }
        let done = self.pwritev_pages(s, first, images);
        self.charge_written(done);
        for (i, image) in images.iter_mut().enumerate().skip(done) {
            self.write_attempts(s, first + i as u64, image, None)?;
        }
        Ok(())
    }

    /// The write retry loop of one page, starting from its attempt-0
    /// decision `fault`.
    fn write_attempts(
        &self,
        s: usize,
        page: u64,
        image: &mut Frame,
        mut fault: Option<Fault>,
    ) -> Result<()> {
        let tag = self.tags[s];
        let mut attempt = 0u32;
        loop {
            let res = match fault {
                Some(Fault::Transient) => {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient error"))
                }
                Some(Fault::Permanent) => Err(io::Error::other("injected permanent error")),
                Some(Fault::Slow) => {
                    self.slow_sleep();
                    self.raw_write(s, page, image)
                }
                Some(Fault::TornWrite) => {
                    self.fault.corrupt_image(tag, page, image);
                    self.raw_write(s, page, image)
                }
                Some(Fault::ShortRead) | None => self.raw_write(s, page, image),
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
                    fault = self.fault.decide(IoOp::Write, tag, page, attempt);
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
