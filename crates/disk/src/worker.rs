//! Reused I/O worker threads.
//!
//! Every [`SequentialReader`](crate::SequentialReader) and
//! [`BackgroundWriter`](crate::BackgroundWriter) runs one job per stripe
//! for its lifetime — §7.2's "dedicated worker thread for each of the
//! disks". A join opens dozens of readers and writers, so the jobs do not
//! get threads of their own: [`Worker::start`] hands its job to a thread
//! parked on a bounded, process-wide idle list and spawns one only when
//! the list is empty. A thread whose job has ended parks itself again
//! before it signals completion, so a caller that joined its workers
//! finds them idle when it starts the next reader; a thread that finds
//! [`MAX_IDLE`] threads already parked exits instead. Threads are never
//! joined: each job's end, panic included, is reported through its
//! [`Worker`] handle, and a parked thread lives until the process exits.
//!
//! Parking also bounds per-thread state that is never freed: a thread
//! that journals a fault or a retry registers a flight-recorder ring for
//! the life of the process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Threads the idle list holds at most: enough for the stripe workers
/// that two concurrent disk joins over six stripes keep open at once (a
/// scan, a spill writer and an output writer each).
pub(crate) const MAX_IDLE: usize = 48;

/// A job and the signal it raises when it has ended.
struct Task {
    job: Box<dyn FnOnce() + Send + 'static>,
    done: Arc<Done>,
}

/// A parked thread's mailbox.
#[derive(Default)]
struct Slot {
    task: Mutex<Option<Task>>,
    cv: Condvar,
}

/// Completion of one job: `None` while it runs, then whether it returned
/// without panicking.
#[derive(Default)]
struct Done {
    state: Mutex<Option<bool>>,
    cv: Condvar,
}

static IDLE: Mutex<Vec<Arc<Slot>>> = Mutex::new(Vec::new());

/// Lock a mutex whose data stays valid at every step, so a guard
/// poisoned by a panicking holder is still sound to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Threads currently parked on the idle list.
#[cfg(test)]
pub(crate) fn idle_count() -> usize {
    lock(&IDLE).len()
}

/// One job running on a reused thread.
pub(crate) struct Worker {
    done: Arc<Done>,
}

impl Worker {
    /// Run `job` on a parked thread, or on a new one if none is parked.
    pub(crate) fn start(job: impl FnOnce() + Send + 'static) -> Worker {
        let done = Arc::new(Done::default());
        let task = Task { job: Box::new(job), done: Arc::clone(&done) };
        let parked = lock(&IDLE).pop();
        match parked {
            Some(slot) => {
                *lock(&slot.task) = Some(task);
                slot.cv.notify_one();
            }
            None => {
                std::thread::Builder::new()
                    .name("phj-io".into())
                    .spawn(move || serve(task))
                    .expect("spawn I/O worker");
            }
        }
        Worker { done }
    }

    /// Wait until the job has ended (everything it captured dropped);
    /// `false` if it panicked.
    pub(crate) fn join(self) -> bool {
        let mut state = lock(&self.done.state);
        loop {
            match *state {
                Some(ok) => return ok,
                None => state = self.done.cv.wait(state).unwrap_or_else(|p| p.into_inner()),
            }
        }
    }
}

/// A worker thread's body: run a task, park, wait for the next one.
fn serve(mut task: Task) {
    let slot = Arc::new(Slot::default());
    loop {
        // Calling the boxed `FnOnce` consumes it, so whatever the job
        // captured (channel ends, stripe handles, frames) is dropped
        // before completion is signalled, on unwind as well.
        let ok = catch_unwind(AssertUnwindSafe(task.job)).is_ok();
        let parked = {
            let mut idle = lock(&IDLE);
            let room = idle.len() < MAX_IDLE;
            if room {
                idle.push(Arc::clone(&slot));
            }
            room
        };
        *lock(&task.done.state) = Some(ok);
        task.done.cv.notify_all();
        if !parked {
            return;
        }
        let mut next = lock(&slot.task);
        task = loop {
            match next.take() {
                Some(t) => break t,
                None => next = slot.cv.wait(next).unwrap_or_else(|p| p.into_inner()),
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PhjError;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::{BackgroundWriter, SequentialReader, StripeSet};
    use phj_storage::Page;

    fn sealed(marker: u32) -> phj_storage::Frame {
        let mut p = Page::new();
        p.insert(&marker.to_le_bytes(), marker).unwrap();
        p.sealed_image()
    }

    #[test]
    fn readers_and_writers_in_sequence_keep_the_idle_list_bounded() {
        let dir = std::env::temp_dir().join(format!("phj-worker-reuse-{}", std::process::id()));
        let s = StripeSet::create(&dir, "t", 2, 4).unwrap();
        for round in 0..200u32 {
            let w = BackgroundWriter::start(s.clone(), 8);
            for p in 0..8u64 {
                w.write(p, sealed(round + p as u32)).unwrap();
            }
            w.finish().unwrap();
            assert!(idle_count() <= MAX_IDLE);
        }
        for _ in 0..200 {
            let mut r = SequentialReader::start(s.clone(), 0, 8, 8);
            for p in 0..8u32 {
                assert_eq!(r.next_page().unwrap().unwrap().hash_code(0), 199 + p);
            }
            assert!(r.next_page().unwrap().is_none());
            drop(r);
            assert!(idle_count() <= MAX_IDLE);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_io_job_is_a_lost_worker() {
        // A cap this low overflows `Duration` when the token bucket sizes
        // its burst, so the first throttled page panics on the worker.
        let dir = std::env::temp_dir().join(format!("phj-worker-panic-{}", std::process::id()));
        let clean = StripeSet::create(&dir, "t", 1, 4).unwrap();
        clean.write_page_sealed(0, &Page::new()).unwrap();
        let capped =
            clean.with_faults(FaultPlan::disabled().stripe_mb_per_s(1e-21), RetryPolicy::default());
        let w = BackgroundWriter::start(capped.clone(), 1);
        w.write(0, sealed(0)).unwrap();
        assert!(matches!(w.finish(), Err(PhjError::WorkerLost { .. })));
        let mut r = SequentialReader::start(capped, 0, 1, 1);
        assert!(matches!(r.next_page(), Err(PhjError::WorkerLost { .. })));
        drop(r);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_job_reports_and_its_thread_serves_again() {
        assert!(Worker::start(|| ()).join());
        assert!(!Worker::start(|| panic!("injected worker panic")).join());
        let (tx, rx) = std::sync::mpsc::channel();
        let w = Worker::start(move || tx.send(7).unwrap());
        assert!(w.join());
        assert_eq!(rx.recv().unwrap(), 7);
        assert!(idle_count() <= MAX_IDLE);
    }
}
