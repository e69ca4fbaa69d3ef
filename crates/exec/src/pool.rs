//! The worker pool: seed one task list per worker LPT-greedy, run one OS
//! thread per worker, rebalance by stealing.
//!
//! Two entry points share one scheduling core:
//!
//! * [`execute`] — the original one-shot fork-join region. It consumes
//!   one state value per worker (the worker's private memory model,
//!   sink, recorder…), runs every task exactly once, and hands the
//!   states back along with the per-task results and per-worker
//!   counters. Threads live only for the duration of the call.
//! * [`Pool`] — a persistent handle whose worker threads outlive any
//!   single region. A long-running daemon creates one `Pool` at startup
//!   and reuses the same OS threads for every query instead of
//!   respawning per request, and each native parallel join or
//!   aggregation owns one `Pool` for all of its phases:
//!   [`Pool::spawn`] runs fire-and-forget jobs (connection handlers),
//!   and [`Pool::execute`] runs the same fork-join region as the free
//!   function on the pooled threads.
//!
//! Each worker of a region owns a `Mutex<VecDeque<usize>>` of task
//! indices, filled with its [`lpt_assign`] list (descending weight)
//! before any worker starts. The owner takes from the front, its
//! largest remaining task; a thief takes from the back of a victim's
//! list, its smallest, which keeps the big tasks with the worker LPT
//! planned them for. A list is locked only to pop one index: the task
//! runs after the guard drops, so a panicking task never poisons a
//! list. Tasks never spawn tasks, so a worker that finds every list
//! empty is done.
//!
//! [`execute`] is a thin wrapper — `Pool::new(n - 1)` plus one region
//! plus shutdown — so both paths exercise identical scheduling code. A
//! region on a `Pool` works by *caller participation*: the calling
//! thread becomes worker 0 and runs the normal worker loop inline,
//! while workers `1..n` are enqueued at the *front* of the pool's job
//! queue (regions must not be starved by a backlog of fire-and-forget
//! jobs). Because the caller is itself a worker, the region makes
//! progress even when every pool thread is busy: worker 0 drains and
//! steals everything, and once its own loop is done it dequeues and
//! runs *its own region's* still-queued jobs inline (each finds every
//! list empty and no-ops) before blocking on the completion barrier.
//! That drain step is what makes the progress guarantee unconditional:
//! a pool saturated by long-lived [`Pool::spawn`] jobs — or by other
//! callers' regions — never gets the chance to strand a region's jobs
//! in the queue, so mixing persistent connection handlers and
//! fork-join regions on one pool cannot deadlock.
//!
//! Region jobs borrow the caller's stack (the task slice, the task
//! lists, `f`). The pool queue requires `'static` jobs, so the borrow is
//! erased with a `transmute` and re-justified at runtime: `execute`
//! blocks on a completion barrier until *every* region job has finished
//! running before it touches the results or lets the borrowed frame
//! unwind — the same argument `std::thread::scope` makes, with the
//! scope's join replaced by the barrier.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::schedule::lpt_assign;
use crate::telemetry::exec_metrics;

/// Per-worker execution counters for one [`execute`] region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Tasks this worker ran.
    pub tasks: u64,
    /// Tasks it took from another worker's list: tasks LPT planned for
    /// a different worker.
    pub steals: u64,
    /// Wall time spent inside task bodies, in nanoseconds.
    pub busy_ns: u64,
    /// Wall time spent looking for work, in nanoseconds.
    pub idle_ns: u64,
}

/// Run every task exactly once across `states.len()` workers.
///
/// Tasks are pre-assigned to workers by [`lpt_assign`] over `weights`
/// (heaviest first to the least-loaded worker); a worker that drains its
/// own list steals the smallest remaining task of another worker, so a
/// bad estimate degrades into rebalancing rather than idling. `f` is
/// called as `f(&mut state, task_index, &tasks[task_index])`.
///
/// Returns the per-task results (indexed like `tasks`), the worker
/// states (in worker order, for merging), and the per-worker counters.
///
/// With a single worker the tasks run inline on the caller's thread in
/// the same LPT order — no threads are spawned, so a `threads == 1`
/// driver stays deterministic to the instruction.
pub fn execute<W, T, R, F>(
    states: Vec<W>,
    tasks: &[T],
    weights: &[u64],
    f: F,
) -> (Vec<R>, Vec<W>, Vec<WorkerStats>)
where
    W: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut W, usize, &T) -> R + Sync,
{
    assert!(!states.is_empty(), "need at least one worker");
    let pool = Pool::new(states.len() - 1);
    let out = pool.execute(states, tasks, weights, f);
    pool.shutdown();
    out
}

/// A fire-and-forget job on the pool's queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One queue slot: `region` is 0 for plain [`Pool::spawn`] jobs, or the
/// owning region's id so that region's caller can reclaim the job and
/// run it inline when no pool thread is free to.
struct QueueEntry {
    region: u64,
    job: Job,
}

struct Shared {
    queue: Mutex<VecDeque<QueueEntry>>,
    cv: Condvar,
    stop: AtomicBool,
    /// Region ids start at 1; 0 tags non-region jobs.
    next_region: AtomicU64,
}

/// (state back, task-indexed results, counters) from one region worker.
type WorkerOut<W, R> = (W, Vec<(usize, R)>, WorkerStats);

/// A region job's result slot: filled exactly once, panic payloads kept.
type OutSlot<W, R> = Option<std::thread::Result<WorkerOut<W, R>>>;

/// Completion barrier + result slots for one fork-join region. Shared
/// by `Arc` so a region job's final memory accesses (the barrier
/// increment and its own `Arc` drop) touch only heap state that is
/// allowed to outlive the caller's stack frame.
struct RegionSync<W, R> {
    /// One slot per region job (worker `1..n`), index `w - 1`.
    slots: Mutex<Vec<OutSlot<W, R>>>,
    done: Mutex<usize>,
    cv: Condvar,
}

/// A persistent worker pool whose threads outlive any single
/// [`Pool::execute`] region.
///
/// Jobs submitted with [`Pool::spawn`] run FIFO; regions started with
/// [`Pool::execute`] jump the queue (their per-worker jobs are pushed
/// to the front). [`Pool::shutdown`] (or drop) drains the remaining
/// queue, then joins every thread.
///
/// `execute` takes `&self`, so multiple threads may run regions on one
/// pool concurrently; each region terminates independently because its
/// caller participates as a worker and reclaims its own queued region
/// jobs when no pool thread is free — so regions stay live even mixed
/// with long-running [`Pool::spawn`] jobs on a saturated pool.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `threads` worker threads (named `phj-pool-N`). A pool of 0
    /// threads is valid: [`Pool::spawn`]ed jobs would never run, but
    /// single-worker regions execute inline on the caller.
    pub fn new(threads: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            next_region: AtomicU64::new(1),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phj-pool-{i}"))
                    .spawn(move || worker_thread(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, threads, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueue a fire-and-forget job at the back of the queue. A panic
    /// inside the job is caught and discarded; the worker thread
    /// survives.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.shared.queue.lock().unwrap();
        q.push_back(QueueEntry { region: 0, job: Box::new(job) });
        drop(q);
        self.shared.cv.notify_one();
    }

    /// Jobs currently waiting in the queue (not those mid-run).
    pub fn pending(&self) -> usize {
        self.shared.queue.lock().unwrap().len()
    }

    /// Stop accepting the illusion of immortality: drain every queued
    /// job, then join all worker threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Run a fork-join region on the pool: semantics identical to the
    /// free [`execute`], but worker threads are reused across calls.
    ///
    /// The calling thread participates as worker 0, so a region needs
    /// only `states.len() - 1` pool jobs and completes even on a
    /// saturated pool: once its own worker loop has found every task
    /// list empty, the caller dequeues and runs any of its region jobs
    /// no pool thread picked up (each finds the lists empty too and
    /// no-ops), so the completion barrier cannot wait on a job that
    /// never runs. Requires at least one pool thread when
    /// `states.len() > 1`.
    pub fn execute<W, T, R, F>(
        &self,
        states: Vec<W>,
        tasks: &[T],
        weights: &[u64],
        f: F,
    ) -> (Vec<R>, Vec<W>, Vec<WorkerStats>)
    where
        W: Send,
        T: Sync,
        R: Send,
        F: Fn(&mut W, usize, &T) -> R + Sync,
    {
        assert_eq!(tasks.len(), weights.len(), "one weight per task");
        assert!(!states.is_empty(), "need at least one worker");
        let n = states.len();
        assert!(
            n == 1 || self.threads >= 1,
            "a multi-worker region needs at least one pool thread"
        );
        let assignment = lpt_assign(weights, n);

        if let Some(m) = exec_metrics() {
            m.workers.set(n as u64);
            m.queue_depth.set(tasks.len() as u64);
        }
        // Journal the fork-join region itself on the caller's thread;
        // workers journal their own task/steal events from their own
        // rings.
        phj_flightrec::event(
            phj_flightrec::EventKind::PhaseEnter,
            phj_flightrec::phase_code("execute"),
            tasks.len() as u64,
            n as u64,
        );

        if n == 1 {
            let mut states = states;
            let mut stats = WorkerStats::default();
            let t0 = Instant::now();
            let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
            for &i in &assignment[0] {
                let task_t0 = Instant::now();
                phj_flightrec::event_full(phj_flightrec::EventKind::Task, 0, i as u64, 0);
                slots[i] = Some(f(&mut states[0], i, &tasks[i]));
                stats.tasks += 1;
                if let Some(m) = exec_metrics() {
                    m.task_ns.record(task_t0.elapsed().as_nanos() as u64);
                    m.queue_depth.set((tasks.len() - stats.tasks as usize) as u64);
                }
            }
            stats.busy_ns = t0.elapsed().as_nanos() as u64;
            publish_worker(&stats);
            phj_flightrec::event(
                phj_flightrec::EventKind::PhaseExit,
                phj_flightrec::phase_code("execute"),
                tasks.len() as u64,
                1,
            );
            let results = slots.into_iter().map(|r| r.expect("task ran")).collect();
            return (results, states, vec![stats]);
        }

        let lists = TaskLists {
            lists: assignment.into_iter().map(|l| Mutex::new(l.into())).collect(),
            taken: AtomicUsize::new(0),
        };
        let total = tasks.len();

        let sync: Arc<RegionSync<W, R>> = Arc::new(RegionSync {
            slots: Mutex::new((1..n).map(|_| None).collect()),
            done: Mutex::new(0),
            cv: Condvar::new(),
        });

        let mut states = states.into_iter();
        let state0 = states.next().expect("n >= 1");
        let region_id = self.shared.next_region.fetch_add(1, Ordering::Relaxed);
        {
            let lists = &lists;
            let f = &f;
            let mut q = self.shared.queue.lock().unwrap();
            for (off, state) in states.enumerate() {
                let w = off + 1;
                let sync = Arc::clone(&sync);
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out = catch_unwind(AssertUnwindSafe(move || {
                        worker_loop(w, state, tasks, lists, f)
                    }));
                    sync.slots.lock().unwrap()[w - 1] = Some(out);
                    let mut d = sync.done.lock().unwrap();
                    *d += 1;
                    sync.cv.notify_all();
                });
                // SAFETY: the job borrows `tasks`, `lists` and `f` from
                // this stack frame. Its last access to any of them is
                // inside `worker_loop`, which returns before the job
                // stores into `sync` and bumps the barrier — and this
                // function blocks on that barrier (all `n - 1` jobs)
                // before returning or unwinding, so every erased borrow
                // is dead before the frame is. `sync` itself is
                // `Arc`-owned heap state and may legitimately be
                // released after the frame ends.
                let job: Job = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job)
                };
                q.push_front(QueueEntry { region: region_id, job });
            }
            drop(q);
            self.shared.cv.notify_all();
        }

        // The caller is worker 0: run the same loop inline. Catch a
        // panic (a task body may throw) but do NOT propagate it yet —
        // region jobs still borrow this frame until the barrier opens.
        let out0 = catch_unwind(AssertUnwindSafe(|| worker_loop(0, state0, tasks, &lists, &f)));

        // A saturated pool (long-lived `spawn` jobs, other callers'
        // regions) may never dequeue this region's jobs; reclaim any
        // still queued and run them inline so the barrier below cannot
        // wait forever on a job that will never be scheduled. Each
        // reclaimed job finds every list empty (worker 0 only returned
        // once it found them so, and lists never refill) and no-ops
        // straight into its barrier increment.
        loop {
            let reclaimed = {
                let mut q = self.shared.queue.lock().unwrap();
                match q.iter().position(|e| e.region == region_id) {
                    Some(i) => q.remove(i).map(|e| e.job),
                    None => None,
                }
            };
            match reclaimed {
                Some(job) => job(),
                None => break,
            }
        }

        // Completion barrier: every region job has finished running.
        {
            let mut d = sync.done.lock().unwrap();
            while *d < n - 1 {
                d = sync.cv.wait(d).unwrap();
            }
        }

        phj_flightrec::event(
            phj_flightrec::EventKind::PhaseExit,
            phj_flightrec::phase_code("execute"),
            total as u64,
            n as u64,
        );

        let mut outs: Vec<WorkerOut<W, R>> = Vec::with_capacity(n);
        let mut panic_payload = None;
        match out0 {
            Ok(o) => outs.push(o),
            Err(p) => panic_payload = Some(p),
        }
        for slot in sync.slots.lock().unwrap().drain(..) {
            match slot.expect("barrier opened, so every slot is filled") {
                Ok(o) => outs.push(o),
                Err(p) => panic_payload = panic_payload.or(Some(p)),
            }
        }
        if let Some(p) = panic_payload {
            resume_unwind(p);
        }

        let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
        let mut states_back = Vec::with_capacity(n);
        let mut all_stats = Vec::with_capacity(n);
        for (state, results, stats) in outs {
            for (i, r) in results {
                debug_assert!(slots[i].is_none(), "task {i} ran twice");
                slots[i] = Some(r);
            }
            states_back.push(state);
            all_stats.push(stats);
        }
        let results = slots.into_iter().map(|r| r.expect("task unclaimed")).collect();
        (results, states_back, all_stats)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The pool thread body: pop jobs FIFO, run them, survive their panics.
/// On stop, the remaining queue is drained before the thread exits.
fn worker_thread(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(e) = q.pop_front() {
                    break Some(e.job);
                }
                if shared.stop.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.cv.wait(q).unwrap();
            }
        };
        match job {
            Some(j) => {
                let _ = catch_unwind(AssertUnwindSafe(j));
            }
            None => return,
        }
    }
}

/// The task lists of one multi-worker region.
struct TaskLists {
    /// Worker `w`'s remaining tasks, largest first.
    lists: Vec<Mutex<VecDeque<usize>>>,
    /// Tasks taken so far, for the queue-depth gauge.
    taken: AtomicUsize,
}

impl TaskLists {
    /// Worker `me`'s next task: the front of its own list, else the back
    /// of the first non-empty list after it. Each lock is held only for
    /// its pop.
    fn next(&self, me: usize, stats: &mut WorkerStats) -> Option<usize> {
        let own = self.lists[me].lock().unwrap().pop_front();
        if own.is_some() {
            return own;
        }
        let n = self.lists.len();
        for off in 1..n {
            let victim = (me + off) % n;
            let stolen = self.lists[victim].lock().unwrap().pop_back();
            if let Some(i) = stolen {
                stats.steals += 1;
                phj_flightrec::event(phj_flightrec::EventKind::Steal, 1, me as u64, victim as u64);
                return Some(i);
            }
        }
        // The worker's one empty round, journaled only in full mode like
        // every per-task event.
        phj_flightrec::event_full(phj_flightrec::EventKind::Steal, 0, me as u64, 0);
        None
    }
}

/// One region worker: run tasks from its own list, then steal, until
/// every list is empty.
fn worker_loop<W, T, R, F>(
    w: usize,
    mut state: W,
    tasks: &[T],
    lists: &TaskLists,
    f: &F,
) -> WorkerOut<W, R>
where
    F: Fn(&mut W, usize, &T) -> R,
{
    let start = Instant::now();
    let mut stats = WorkerStats { worker: w, ..Default::default() };
    let mut results: Vec<(usize, R)> = Vec::new();
    let mut busy_ns = 0u64;
    while let Some(i) = lists.next(w, &mut stats) {
        if let Some(m) = exec_metrics() {
            let taken = lists.taken.fetch_add(1, Ordering::Relaxed) + 1;
            m.queue_depth.set((tasks.len() - taken) as u64);
        }
        let t0 = Instant::now();
        phj_flightrec::event_full(phj_flightrec::EventKind::Task, w as u16, i as u64, 0);
        let r = f(&mut state, i, &tasks[i]);
        let dt = t0.elapsed().as_nanos() as u64;
        busy_ns += dt;
        stats.tasks += 1;
        if let Some(m) = exec_metrics() {
            m.task_ns.record(dt);
        }
        results.push((i, r));
    }
    stats.busy_ns = busy_ns;
    stats.idle_ns = (start.elapsed().as_nanos() as u64).saturating_sub(busy_ns);
    publish_worker(&stats);
    (state, results, stats)
}

/// Publish one worker's finished region counters into the live
/// registry (no-op when telemetry is off).
fn publish_worker(stats: &WorkerStats) {
    if let Some(m) = exec_metrics() {
        m.tasks.add(stats.tasks);
        m.steals.add(stats.steals);
        m.busy_ns.add(stats.busy_ns);
        m.idle_ns.add(stats.idle_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn every_task_runs_once_and_results_line_up() {
        for threads in [1usize, 2, 3, 8] {
            let tasks: Vec<u64> = (0..100).collect();
            let weights: Vec<u64> = tasks.iter().map(|t| t % 13 + 1).collect();
            let ran = AtomicU64::new(0);
            let states: Vec<u64> = vec![0; threads];
            let (results, states, stats) = execute(states, &tasks, &weights, |acc, i, t| {
                ran.fetch_add(1, Ordering::SeqCst);
                *acc += t;
                i as u64 * 2
            });
            assert_eq!(ran.load(Ordering::SeqCst), 100);
            assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<u64>>());
            // Per-worker accumulators sum to the whole input.
            assert_eq!(states.iter().sum::<u64>(), tasks.iter().sum::<u64>());
            assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 100);
            assert_eq!(stats.len(), threads);
        }
    }

    #[test]
    fn single_worker_runs_inline_in_lpt_order() {
        let tasks = [1u64, 2, 3];
        let weights = [5u64, 50, 20];
        let (results, states, _) =
            execute(vec![Vec::new()], &tasks, &weights, |log: &mut Vec<usize>, i, _| {
                log.push(i);
                i
            });
        // Results come back task-indexed regardless of execution order...
        assert_eq!(results, vec![0, 1, 2]);
        // ...which was heaviest-first.
        assert_eq!(states[0], vec![1, 2, 0]);
    }

    #[test]
    fn uneven_tasks_still_all_complete() {
        // Tasks that sleep differently force real stealing.
        let tasks: Vec<u64> = (0..32).map(|i| if i == 0 { 20 } else { 1 }).collect();
        let weights = vec![1u64; 32]; // deliberately wrong estimates
        let (results, _, stats) = execute(vec![(); 4], &tasks, &weights, |_, i, ms| {
            std::thread::sleep(std::time::Duration::from_millis(*ms));
            i
        });
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 32);
    }

    #[test]
    fn a_thief_takes_the_smallest_task_and_the_owner_keeps_its_order() {
        // LPT over two workers: worker 0 gets [0, 3, 4], worker 1 gets
        // [1, 2], each largest first.
        let weights = [10u64, 9, 8, 2, 1];
        assert_eq!(lpt_assign(&weights, 2), vec![vec![0, 3, 4], vec![1, 2]]);
        let tasks = [(); 5];
        let release = AtomicBool::new(false);
        let owner_took_3 = AtomicBool::new(false);
        let (_, states, stats) =
            execute(vec![Vec::new(); 2], &tasks, &weights, |log: &mut Vec<usize>, i, _| {
                log.push(i);
                match i {
                    // Worker 0 is held inside its first task until the
                    // thief has stolen, so only worker 1 takes tasks.
                    0 => {
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    3 => owner_took_3.store(true, Ordering::Release),
                    // The stolen task releases worker 0, then holds the
                    // thief until worker 0 has taken its next task.
                    4 => {
                        release.store(true, Ordering::Release);
                        while !owner_took_3.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    _ => {}
                }
            });
        // The thief drained its own list, then took worker 0's last
        // (smallest) task, not its next one...
        assert_eq!(states[1], vec![1, 2, 4]);
        // ...and the released owner went on with its next-largest task.
        assert_eq!(states[0], vec![0, 3]);
        assert_eq!((stats[0].worker, stats[0].steals), (0, 0));
        assert_eq!((stats[1].worker, stats[1].steals), (1, 1));
    }

    #[test]
    fn pool_reuses_the_same_threads_across_regions() {
        let pool = Pool::new(3);
        let mut seen: HashSet<ThreadId> = HashSet::new();
        for _ in 0..3 {
            let tasks: Vec<u64> = (0..64).collect();
            let weights = vec![1u64; 64];
            let states: Vec<Vec<ThreadId>> = vec![Vec::new(); 4];
            let (_, states, stats) =
                pool.execute(states, &tasks, &weights, |ids: &mut Vec<ThreadId>, i, _| {
                    ids.push(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    i
                });
            assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 64);
            for ids in states {
                seen.extend(ids);
            }
        }
        // ThreadIds are never reused, so fresh threads per region would
        // accumulate up to 3 regions × 3 threads + caller = 10 distinct
        // ids. A persistent pool shows at most its 3 threads + caller.
        assert!(
            seen.len() <= pool.threads() + 1,
            "expected thread reuse, saw {} distinct threads",
            seen.len()
        );
        pool.shutdown();
    }

    #[test]
    fn spawned_jobs_run_and_drain_on_shutdown() {
        let pool = Pool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown(); // drains the queue before joining
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn task_panic_propagates_and_the_pool_survives() {
        let pool = Pool::new(2);
        let tasks: Vec<u64> = (0..8).collect();
        let weights = vec![1u64; 8];
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.execute(vec![(); 3], &tasks, &weights, |_, i, _| {
                if i == 5 {
                    panic!("task 5 exploded");
                }
                i
            })
        }));
        assert!(boom.is_err(), "panic in a task must reach the caller");

        // The pool is still usable after a panicked region.
        let (results, _, _) = pool.execute(vec![(); 3], &tasks, &weights, |_, i, _| i * 10);
        assert_eq!(results, (0..8).map(|i| i * 10).collect::<Vec<_>>());

        // And a panicking fire-and-forget job doesn't kill a worker.
        pool.spawn(|| panic!("spawned job panic"));
        let hit = Arc::new(AtomicU64::new(0));
        {
            let hit = Arc::clone(&hit);
            pool.spawn(move || {
                hit.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn region_completes_while_every_pool_thread_is_busy() {
        // Both workers are parked on long-lived spawn() jobs — exactly
        // how the query daemon holds connections. A region must still
        // complete: worker 0 runs everything and reclaims the queued
        // region jobs inline instead of waiting for workers that will
        // never free up.
        let pool = Pool::new(2);
        let running = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicBool::new(false));
        for _ in 0..2 {
            let running = Arc::clone(&running);
            let release = Arc::clone(&release);
            pool.spawn(move || {
                running.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        while running.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }

        let tasks: Vec<u64> = (0..40).collect();
        let weights = vec![1u64; 40];
        let (results, states, stats) =
            pool.execute(vec![0u64; 3], &tasks, &weights, |acc, i, t| {
                *acc += t;
                i
            });
        assert_eq!(results, (0..40).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<u64>(), tasks.iter().sum::<u64>());
        assert_eq!(stats.iter().map(|s| s.tasks).sum::<u64>(), 40);

        release.store(true, Ordering::Release);
        pool.shutdown();
    }

    #[test]
    fn concurrent_regions_inside_pool_jobs_do_not_deadlock() {
        // Two spawn() jobs each run a multi-worker region on the same
        // 2-thread pool: both callers occupy both workers, so neither
        // region's queued jobs can be scheduled — each caller must
        // reclaim its own.
        let pool = Arc::new(Pool::new(2));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let done = Arc::new(AtomicU64::new(0));
        for k in 0..2u64 {
            let pool2 = Arc::clone(&pool);
            let b = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            pool.spawn(move || {
                b.wait(); // both jobs now occupy both workers
                let tasks: Vec<u64> = (0..16).collect();
                let weights = vec![1u64; 16];
                let (r, _, _) =
                    pool2.execute(vec![(); 2], &tasks, &weights, |_, i, _| i as u64 + k);
                if r == (k..16 + k).collect::<Vec<_>>() {
                    done.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        while done.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Arc::try_unwrap(pool).ok().expect("last reference").shutdown();
    }

    #[test]
    fn zero_thread_pool_runs_single_worker_regions_inline() {
        let pool = Pool::new(0);
        let tasks = [7u64, 8, 9];
        let weights = [1u64, 1, 1];
        let (results, _, stats) = pool.execute(vec![0u64], &tasks, &weights, |acc, i, t| {
            *acc += t;
            i
        });
        assert_eq!(results, vec![0, 1, 2]);
        assert_eq!(stats.len(), 1);
        pool.shutdown();
    }
}
