//! Background write-back: the buffer manager's "background writing".
//!
//! The main thread hands full output pages to per-stripe worker threads
//! through bounded channels and keeps computing; `finish` drains the
//! in-flight window and surfaces any I/O error (§7.2's overlap of output
//! I/O with computation).
//!
//! **Failure behaviour:** a worker that hits an unrecoverable write error
//! records it and switches to *drain-discard* mode — it keeps receiving
//! and dropping jobs until shutdown. The bounded in-flight window
//! therefore keeps moving (producers never deadlock against a dead
//! worker), and the error surfaces on [`BackgroundWriter::finish`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use phj_storage::Frame;

use crate::error::{PhjError, Result};
use crate::stripe::StripeSet;

enum Job {
    Write(u64, Frame),
    Shutdown,
}

/// A background page writer over a [`StripeSet`]. Images handed to
/// [`write`](BackgroundWriter::write) must already be sealed
/// ([`phj_storage::Page::sealed_image`]); writes go through the stripe
/// set's checked path (fault injection + retries).
pub struct BackgroundWriter {
    stripes: StripeSet,
    tx: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    first_error: Arc<Mutex<Option<PhjError>>>,
    failed: Arc<AtomicBool>,
}

impl BackgroundWriter {
    /// Start one worker per stripe with `window` in-flight pages total.
    pub fn start(stripes: StripeSet, window: usize) -> Self {
        let n = stripes.num_stripes();
        let per_stripe = (window / n).max(1);
        let first_error = Arc::new(Mutex::new(None));
        let failed = Arc::new(AtomicBool::new(false));
        let mut tx = Vec::with_capacity(n);
        let mut workers = Vec::with_capacity(n);
        for _s in 0..n {
            let (t, r): (SyncSender<Job>, Receiver<Job>) =
                std::sync::mpsc::sync_channel(per_stripe);
            tx.push(t);
            let stripes = stripes.clone();
            let err = Arc::clone(&first_error);
            let failed = Arc::clone(&failed);
            workers.push(std::thread::spawn(move || {
                while let Ok(job) = r.recv() {
                    match job {
                        Job::Shutdown => break,
                        Job::Write(page, image) => {
                            // After any worker fails, all workers drain and
                            // discard: the run is already doomed, but the
                            // producers must not block on a full window.
                            if failed.load(Ordering::Relaxed) {
                                continue;
                            }
                            if let Err(e) = stripes.write_image_checked(page, image) {
                                err.lock().unwrap_or_else(|p| p.into_inner()).get_or_insert(e);
                                failed.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
            }));
        }
        BackgroundWriter { stripes, tx, workers, first_error, failed }
    }

    /// Enqueue a page write (blocks only when the stripe's in-flight
    /// window is full — backpressure, not unbounded buffering; the wait
    /// is the caller's I/O stall). An error here means the worker thread
    /// itself is gone; write errors inside the worker surface on
    /// [`finish`](BackgroundWriter::finish).
    pub fn write(&self, page: u64, image: Frame) -> Result<()> {
        let tx = &self.tx[self.stripes.stripe_of(page)];
        let sent = match tx.try_send(Job::Write(page, image)) {
            Err(TrySendError::Full(job)) => {
                let t0 = Instant::now();
                let sent = tx.send(job).map_err(drop);
                crate::reader::charge_stall(t0.elapsed());
                sent
            }
            other => other.map_err(drop),
        };
        sent.map_err(|()| PhjError::WorkerLost { what: "background writer" })
    }

    /// Whether any worker has recorded a write error (fast check for
    /// producers that want to stop generating pages early).
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Drain all in-flight writes, join the workers, and surface the
    /// first write error if any occurred.
    pub fn finish(mut self) -> Result<()> {
        for t in &self.tx {
            let _ = t.send(Job::Shutdown);
        }
        self.tx.clear();
        let mut lost = false;
        for w in self.workers.drain(..) {
            lost |= w.join().is_err();
        }
        let first = self.first_error.lock().unwrap_or_else(|p| p.into_inner()).take();
        match first {
            Some(e) => Err(e),
            None if lost => Err(PhjError::WorkerLost { what: "background writer" }),
            None => Ok(()),
        }
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        for t in &self.tx {
            let _ = t.send(Job::Shutdown);
        }
        self.tx.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("phj-writer-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    use phj_storage::Page;

    fn sealed(marker: u32) -> Frame {
        let mut p = Page::new();
        p.insert(&marker.to_le_bytes(), marker).unwrap();
        p.sealed_image()
    }

    #[test]
    fn writes_land_and_finish_drains() {
        let dir = temp_dir("basic");
        let s = StripeSet::create(&dir, "t", 3, 2).unwrap();
        let w = BackgroundWriter::start(s.clone(), 8);
        for p in 0..40u64 {
            w.write(p, sealed(p as u32)).unwrap();
        }
        w.finish().unwrap();
        for p in 0..40u64 {
            assert_eq!(s.read_page_verified(p).unwrap().hash_code(0), p as u32);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_without_finish_joins_workers() {
        let dir = temp_dir("drop");
        let s = StripeSet::create(&dir, "t", 2, 1).unwrap();
        {
            let w = BackgroundWriter::start(s.clone(), 2);
            w.write(0, sealed(1)).unwrap();
        } // drop must not hang
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_worker_drains_instead_of_deadlocking() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let dir = temp_dir("drain");
        // Every write fails permanently. The in-flight window is tiny (one
        // worker, window 2): before the drain-discard fix, the worker died
        // and the 40 writes below blocked forever on the full channel.
        let plan = FaultPlan::seeded(1).permanent(10_000);
        let s = StripeSet::create(&dir, "t", 1, 1)
            .unwrap()
            .with_faults(plan, RetryPolicy { max_attempts: 2, backoff_micros: 1 });
        let w = BackgroundWriter::start(s, 2);
        for p in 0..40u64 {
            w.write(p, sealed(p as u32)).unwrap();
        }
        assert!(w.failed());
        let err = w.finish().unwrap_err();
        assert!(matches!(err, crate::error::PhjError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_failure_keeps_good_stripes_draining() {
        use crate::fault::{FaultPlan, RetryPolicy};
        let dir = temp_dir("partial");
        // Permanent faults at ~20%: some pages fail, most succeed. The
        // writer must still accept and drain the full stream.
        let plan = FaultPlan::seeded(5).permanent(2_000);
        let s = StripeSet::create(&dir, "t", 2, 1)
            .unwrap()
            .with_faults(plan.clone(), RetryPolicy { max_attempts: 2, backoff_micros: 1 });
        let w = BackgroundWriter::start(s, 4);
        for p in 0..200u64 {
            w.write(p, sealed(p as u32)).unwrap();
        }
        assert!(w.finish().is_err());
        assert!(plan.stats().injected_permanent.load(std::sync::atomic::Ordering::Relaxed) > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
