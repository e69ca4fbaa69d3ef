//! Background read-ahead: the buffer manager's I/O prefetching.
//!
//! §7.2: "Our buffer manager has a dedicated worker thread for each of
//! the disks, which performs I/O operations on behalf of the main hash
//! join thread. The buffer manager implements I/O prefetching [...] so
//! that I/O operations can be overlapped with computations as much as
//! possible."
//!
//! A reader scans a list of pages: a whole relation in page order, or
//! one spilled partition's scattered pages. One worker per stripe file,
//! on a reused I/O thread ([`crate::worker`]), reads that stripe's pages
//! in list order and sends them, verified, one by one into a bounded
//! channel (the read-ahead window). Consecutive ids in the list that sit
//! in one stripe unit move as one run, up to the stripe's share of the
//! window, with one `preadv` ([`StripeSet::read_run`]), so a worker holds
//! at most one run besides the pages queued in its channel.
//! [`SequentialReader::next_page`] reassembles list order by pulling
//! from the queue of each page's stripe. Time spent blocked on a queue
//! is the main thread's I/O stall, as plotted in Fig 9.

use std::cell::Cell;
use std::sync::mpsc::{Receiver, SyncSender};
use std::time::{Duration, Instant};

use phj_storage::{Page, Relation, Schema};

use crate::error::{PhjError, Result};
use crate::stripe::StripeSet;
use crate::worker::Worker;

type PageMsg = Result<(u64, Page)>;

thread_local! {
    /// Nanoseconds this thread has blocked on read-ahead queues and
    /// full write-back windows.
    static STALL_NS: Cell<u64> = const { Cell::new(0) };
}

/// Charge a blocking wait of the calling thread to its stall clock and
/// to `phj_disk_stall_ns_total`.
pub(crate) fn charge_stall(waited: Duration) {
    let ns = waited.as_nanos() as u64;
    STALL_NS.with(|c| c.set(c.get() + ns));
    if let Some(m) = crate::telemetry::disk_metrics() {
        m.stall_ns.add(ns);
    }
}

/// The calling thread's stall clock in seconds. The join driver runs on
/// one thread, so the clock's advance across a pass is that pass's main
/// thread stall, whatever readers and writers the pass opened.
pub(crate) fn stall_clock_s() -> f64 {
    STALL_NS.with(Cell::get) as f64 * 1e-9
}

/// A streaming scan with background prefetching.
pub struct SequentialReader {
    stripes: StripeSet,
    rx: Vec<Receiver<PageMsg>>,
    workers: Vec<Worker>,
    pages: Vec<u64>,
    next: usize,
    stall: f64,
}

impl SequentialReader {
    /// Start workers scanning pages `[start, end)` with a total
    /// read-ahead window of `read_ahead` pages (split across stripes).
    pub fn start(stripes: StripeSet, start: u64, end: u64, read_ahead: usize) -> Self {
        Self::pages(stripes, (start..end).collect(), read_ahead)
    }

    /// Start workers reading `pages` in list order (any order, any
    /// stripes) with a total read-ahead window of `read_ahead` pages
    /// (split across stripes).
    pub fn pages(stripes: StripeSet, pages: Vec<u64>, read_ahead: usize) -> Self {
        let n = stripes.num_stripes();
        let per_stripe = (read_ahead / n).max(1);
        let run = stripes.run_limit(per_stripe);
        let mut rx = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for s in 0..n {
            let (tx, r) = std::sync::mpsc::sync_channel::<PageMsg>(per_stripe);
            rx.push(r);
            let mine = pages.iter().copied().filter(|&p| stripes.stripe_of(p) == s).collect();
            let stripes = stripes.clone();
            workers.push(Worker::start(move || worker(stripes, mine, run, tx)));
        }
        SequentialReader { stripes, rx, workers, pages, next: 0, stall: 0.0 }
    }

    /// The next page in list order, or `None` at end of scan. Blocks
    /// (accounted as stall time) if the workers haven't fetched it yet.
    ///
    /// Pages arrive already verified against their header checksum; a
    /// torn or corrupted page surfaces here as a typed [`PhjError`]
    /// naming the stripe file and page.
    pub fn next_page(&mut self) -> Result<Option<Page>> {
        let Some(&want) = self.pages.get(self.next) else { return Ok(None) };
        let stripe = self.stripes.stripe_of(want);
        let t0 = Instant::now();
        let msg = self.rx[stripe]
            .recv()
            .map_err(|_| PhjError::WorkerLost { what: "read-ahead" })?;
        let waited = t0.elapsed();
        self.stall += waited.as_secs_f64();
        charge_stall(waited);
        let (page_id, page) = msg?;
        debug_assert_eq!(page_id, want, "stripe stream out of order");
        self.next += 1;
        Ok(Some(page))
    }

    /// Seconds the main thread spent blocked waiting for pages.
    pub fn stall_seconds(&self) -> f64 {
        self.stall
    }

    /// Read the remaining pages into a relation of `schema`.
    pub(crate) fn into_relation(mut self, schema: &Schema) -> Result<Relation> {
        let mut rel = Relation::new(schema.clone());
        while let Some(page) = self.next_page()? {
            rel.push_page(page);
        }
        Ok(rel)
    }
}

impl Drop for SequentialReader {
    fn drop(&mut self) {
        // Drain receivers so workers unblock, then join them.
        for r in &self.rx {
            while r.try_recv().is_ok() {}
        }
        self.rx.clear();
        for w in self.workers.drain(..) {
            w.join();
        }
    }
}

/// One stripe's worker: read its share of the list in order through the
/// verified path (cap, fault injection, retries, checksum), in runs of
/// consecutive ids of at most `run` pages, pushing page by page into the
/// bounded channel.
fn worker(stripes: StripeSet, pages: Vec<u64>, run: usize, tx: SyncSender<PageMsg>) {
    // Stop once the reader is dropped or an error has been delivered.
    let mut send = |page: u64, res: Result<Page>| {
        let failed = res.is_err();
        tx.send(res.map(|pg| (page, pg))).is_ok() && !failed
    };
    let mut rest = &pages[..];
    while let Some(&first) = rest.first() {
        let n = 1 + rest
            .windows(2)
            .take(run - 1)
            .take_while(|w| w[1] == w[0] + 1 && stripes.continues_run(w[1]))
            .count();
        if !stripes.read_run(first, n, &mut send) {
            return;
        }
        rest = &rest[n..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phj-reader-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_pages(s: &StripeSet, n: u64) {
        for p in 0..n {
            let mut page = Page::new();
            page.insert(&(p as u32).to_le_bytes(), p as u32).unwrap();
            s.write_page(p, &page.sealed_image()).unwrap();
        }
    }

    #[test]
    fn reads_in_global_order() {
        let dir = temp_dir("order");
        let s = StripeSet::create(&dir, "t", 3, 2).unwrap();
        write_pages(&s, 25);
        let mut r = SequentialReader::start(s.clone(), 0, 25, 8);
        for p in 0..25u64 {
            let page = r.next_page().unwrap().expect("page present");
            assert_eq!(page.hash_code(0), p as u32);
        }
        assert!(r.next_page().unwrap().is_none());
        // A spilled partition's page list: unsorted, with gaps, several
        // pages per stripe, read back in list order.
        let list = vec![17u64, 3, 12, 0, 24, 5, 13, 2, 20];
        let mut r = SequentialReader::pages(s.clone(), list.clone(), 4);
        for &p in &list {
            assert_eq!(r.next_page().unwrap().expect("page present").hash_code(0), p as u32);
        }
        assert!(r.next_page().unwrap().is_none());
        let mut r = SequentialReader::pages(s, Vec::new(), 4);
        assert!(r.next_page().unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn early_drop_does_not_hang() {
        let dir = temp_dir("drop");
        let s = StripeSet::create(&dir, "t", 2, 1).unwrap();
        write_pages(&s, 50);
        let mut r = SequentialReader::start(s.clone(), 0, 50, 4);
        let _ = r.next_page().unwrap();
        drop(r); // must join workers without deadlock
        let mut r = SequentialReader::pages(s, (0..50).rev().collect(), 4);
        let _ = r.next_page().unwrap();
        drop(r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_range_scan() {
        let dir = temp_dir("range");
        let s = StripeSet::create(&dir, "t", 2, 2).unwrap();
        write_pages(&s, 20);
        let mut r = SequentialReader::start(s, 6, 14, 4);
        let mut got = Vec::new();
        while let Some(p) = r.next_page().unwrap() {
            got.push(p.hash_code(0));
        }
        assert_eq!(got, (6..14).map(|x| x as u32).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_survives_transient_faults() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let dir = temp_dir("faulty");
        let plan = FaultPlan::seeded(21).transient(3_000).short_reads(2_000);
        let s = StripeSet::create(&dir, "t", 3, 2).unwrap();
        write_pages(&s, 30);
        let s = s.with_faults(plan.clone(), RetryPolicy { max_attempts: 4, backoff_micros: 1 });
        let mut r = SequentialReader::start(s, 0, 30, 8);
        for p in 0..30u64 {
            assert_eq!(r.next_page().unwrap().unwrap().hash_code(0), p as u32);
        }
        assert!(plan.stats().read_retries.load(std::sync::atomic::Ordering::Relaxed) > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_stripe_fails_at_its_first_missing_page() {
        // Stripe file 0 holds units 0 (pages 0..8), 2 (16..24) and 4
        // (32..40). Cut it inside unit 2, at page 20's start and halfway
        // through page 20: the scan delivers pages 0..20, then a typed
        // error naming page 20, whatever its read-ahead fetched as a run.
        let dir = temp_dir("short");
        for cut in [0, phj_storage::PAGE_SIZE as u64 / 2] {
            let s = StripeSet::create(&dir, "t", 2, 8).unwrap();
            write_pages(&s, 40);
            let file = std::fs::OpenOptions::new().write(true).open(&s.paths()[0]).unwrap();
            file.set_len(s.offset_of(20) + cut).unwrap();
            let mut r = SequentialReader::start(s.clone(), 0, 40, 16);
            let mut seen = Vec::new();
            let err = loop {
                match r.next_page() {
                    Ok(Some(page)) => seen.push(page.hash_code(0)),
                    Ok(None) => panic!("the scan ended without an error"),
                    Err(e) => break e,
                }
            };
            assert_eq!(seen, (0..20).collect::<Vec<u32>>());
            match err {
                PhjError::Io { path, page: Some(20), attempts, source } => {
                    assert_eq!(path, s.paths()[0]);
                    assert_eq!(attempts, crate::fault::RetryPolicy::default().max_attempts);
                    assert_eq!(source.kind(), std::io::ErrorKind::UnexpectedEof);
                }
                other => panic!("expected an I/O error at page 20, got {other}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_page_surfaces_as_typed_error() {
        let dir = temp_dir("corrupt");
        let s = StripeSet::create(&dir, "t", 2, 1).unwrap();
        write_pages(&s, 10);
        // Flip one byte in the data area of page 4's on-disk image.
        let mut img = s.read_page(4).unwrap();
        img[phj_storage::PAGE_SIZE - 3] ^= 0x10;
        s.write_page(4, &img).unwrap();
        let mut r = SequentialReader::start(s, 0, 10, 4);
        let mut err = None;
        for _ in 0..10 {
            match r.next_page() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let err = err.expect("corruption must surface");
        match err {
            crate::error::PhjError::ChecksumMismatch { page, .. } => assert_eq!(page, 4),
            other => panic!("expected checksum mismatch, got {other}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
