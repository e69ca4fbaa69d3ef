//! Background write-back: the buffer manager's "background writing".
//!
//! The main thread hands full output pages to one worker per stripe, on
//! reused I/O threads ([`crate::worker`]), and keeps computing; `finish`
//! drains the in-flight window and surfaces any I/O error (§7.2's
//! overlap of output I/O with computation).
//!
//! Consecutive page ids on one stripe join into one run, which the
//! worker writes with one `pwritev` straight from the frames
//! ([`StripeSet::write_run`]). A run is handed over when it reaches the
//! end of its stripe unit or the stripe's share of the window, when a
//! page that does not continue it arrives, or at `finish`. Every page
//! counts against the window from [`write`](BackgroundWriter::write)
//! until the worker has written it, so the window bounds the pages in
//! flight exactly as it did page by page.
//!
//! **Failure behaviour:** a worker that hits an unrecoverable write error
//! records it and switches to *drain-discard* mode — it keeps taking and
//! dropping runs until shutdown. The bounded in-flight window therefore
//! keeps moving (producers never deadlock against a dead worker), and
//! the error surfaces on [`BackgroundWriter::finish`]. A worker that
//! panics wakes the producer, which then gets [`PhjError::WorkerLost`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use phj_storage::Frame;

use crate::error::{PhjError, Result};
use crate::stripe::StripeSet;
use crate::worker::Worker;

/// Consecutive pages `first..` of one stripe unit.
struct Run {
    first: u64,
    frames: Vec<Frame>,
}

/// One stripe's hand-off between producers and its worker.
#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    /// Signalled when a run is queued, when pages leave the window, at
    /// shutdown, and when the worker ends.
    cv: Condvar,
}

#[derive(Default)]
struct LaneState {
    /// The run still growing.
    open: Option<Run>,
    /// Runs handed to the worker, oldest first.
    queued: VecDeque<Run>,
    /// Pages accepted by `write` and not yet written or discarded.
    in_flight: usize,
    /// No more pages will come: the worker exits once `queued` is empty.
    closing: bool,
    /// The worker's job has ended, normally or by a panic.
    gone: bool,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        // Every update leaves the state consistent, so a guard poisoned
        // by a panicking holder is still sound to use.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn wait<'a>(&self, st: MutexGuard<'a, LaneState>) -> MutexGuard<'a, LaneState> {
        self.cv.wait(st).unwrap_or_else(|p| p.into_inner())
    }
}

/// Marks its lane `gone` when the worker's job ends, panics included.
struct Gone(Arc<Lane>);

impl Drop for Gone {
    fn drop(&mut self) {
        self.0.lock().gone = true;
        self.0.cv.notify_all();
    }
}

/// A background page writer over a [`StripeSet`]. Images handed to
/// [`write`](BackgroundWriter::write) must already be sealed
/// ([`phj_storage::Page::sealed_image`]); writes go through the stripe
/// set's checked path (fault injection + retries).
pub struct BackgroundWriter {
    stripes: StripeSet,
    lanes: Vec<Arc<Lane>>,
    workers: Vec<Worker>,
    /// In-flight pages allowed per stripe.
    window: usize,
    /// Longest run handed to a worker.
    run: usize,
    first_error: Arc<Mutex<Option<PhjError>>>,
    failed: Arc<AtomicBool>,
}

impl BackgroundWriter {
    /// Start one worker per stripe with `window` in-flight pages total.
    pub fn start(stripes: StripeSet, window: usize) -> Self {
        let n = stripes.num_stripes();
        let window = (window / n).max(1);
        let first_error = Arc::new(Mutex::new(None));
        let failed = Arc::new(AtomicBool::new(false));
        let lanes: Vec<Arc<Lane>> = (0..n).map(|_| Arc::default()).collect();
        let workers = lanes
            .iter()
            .map(|lane| {
                let gone = Gone(Arc::clone(lane));
                let stripes = stripes.clone();
                let err = Arc::clone(&first_error);
                let failed = Arc::clone(&failed);
                Worker::start(move || drain(&gone.0, &stripes, &err, &failed))
            })
            .collect();
        let run = stripes.run_limit(window);
        BackgroundWriter { stripes, lanes, workers, window, run, first_error, failed }
    }

    /// Enqueue a page write (blocks only when the stripe's in-flight
    /// window is full — backpressure, not unbounded buffering; the wait
    /// is the caller's I/O stall). An error here means the worker itself
    /// is gone; write errors inside the worker surface on
    /// [`finish`](BackgroundWriter::finish).
    pub fn write(&self, page: u64, image: Frame) -> Result<()> {
        let lane = &self.lanes[self.stripes.stripe_of(page)];
        let mut st = lane.lock();
        if st.in_flight >= self.window && !st.gone {
            let t0 = Instant::now();
            while st.in_flight >= self.window && !st.gone {
                st = lane.wait(st);
            }
            crate::reader::charge_stall(t0.elapsed());
        }
        if st.gone {
            return Err(PhjError::WorkerLost { what: "background writer" });
        }
        st.in_flight += 1;
        let mut handed = false;
        let extends = st.open.as_ref().is_some_and(|r| {
            r.first + r.frames.len() as u64 == page && self.stripes.continues_run(page)
        });
        if !extends {
            if let Some(run) = st.open.take() {
                st.queued.push_back(run);
                handed = true;
            }
        }
        let run = st.open.get_or_insert_with(|| Run { first: page, frames: Vec::new() });
        run.frames.push(image);
        if run.frames.len() == self.run || !self.stripes.continues_run(page + 1) {
            let run = st.open.take().expect("just pushed");
            st.queued.push_back(run);
            handed = true;
        }
        if handed {
            lane.cv.notify_all();
        }
        Ok(())
    }

    /// Whether any worker has recorded a write error (fast check for
    /// producers that want to stop generating pages early).
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Drain all in-flight writes, join the workers, and surface the
    /// first write error if any occurred.
    pub fn finish(mut self) -> Result<()> {
        let lost = self.shut_down();
        let first = self.first_error.lock().unwrap_or_else(|p| p.into_inner()).take();
        match first {
            Some(e) => Err(e),
            None if lost => Err(PhjError::WorkerLost { what: "background writer" }),
            None => Ok(()),
        }
    }

    /// Hand over the open runs, let the workers drain their queues, and
    /// wait for them; `true` if one of them panicked.
    fn shut_down(&mut self) -> bool {
        for lane in &self.lanes {
            let mut st = lane.lock();
            if let Some(run) = st.open.take() {
                st.queued.push_back(run);
            }
            st.closing = true;
            lane.cv.notify_all();
        }
        self.workers.drain(..).fold(false, |lost, w| !w.join() | lost)
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        self.shut_down();
    }
}

/// One stripe's worker: write the lane's runs in order until shutdown.
/// After any worker fails, all workers drain and discard: the run is
/// already doomed, but the producers must not block on a full window.
fn drain(lane: &Lane, stripes: &StripeSet, err: &Mutex<Option<PhjError>>, failed: &AtomicBool) {
    loop {
        let mut run = {
            let mut st = lane.lock();
            loop {
                if let Some(run) = st.queued.pop_front() {
                    break run;
                }
                if st.closing {
                    return;
                }
                st = lane.wait(st);
            }
        };
        if !failed.load(Ordering::Relaxed) {
            if let Err(e) = stripes.write_run(run.first, &mut run.frames) {
                err.lock().unwrap_or_else(|p| p.into_inner()).get_or_insert(e);
                failed.store(true, Ordering::Relaxed);
            }
        }
        let n = run.frames.len();
        drop(run);
        lane.lock().in_flight -= n;
        lane.cv.notify_all();
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
