//! Admission control: per-query memory grants from one global budget.
//!
//! Every query must hold a [`MemGrant`] while it runs. Grants are
//! debited from the server's global budget; a query whose request
//! cannot be satisfied *right now* waits in a bounded FIFO queue, and a
//! query whose request can *never* be satisfied (it exceeds the whole
//! budget) is rejected up front with a typed error — which is also the
//! liveness argument: every queued request fits the budget, so once the
//! grants ahead of it drain, the front of the queue always proceeds.
//! Strict FIFO (only the front ticket may take budget) prevents small
//! queries from starving a large one indefinitely.
//!
//! The state machine (see DESIGN.md §15):
//!
//! ```text
//!            requested > budget ──────────────► Rejected {TooLarge}
//! submit ──┤ queue full ───────────────────────► Rejected {QueueFull}
//!            else ───► Queued ──(front ∧ fits)─► Granted ──► Released
//! ```
//!
//! Accounting invariant, property-tested in `tests/admission_props.rs`:
//! at every instant `outstanding = budget − available` equals the sum
//! of live grants and never exceeds `budget`; rejected queries change
//! nothing.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

use phj_disk::LiveBudget;

/// Admission knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Global memory budget shared by all concurrent queries, bytes.
    pub budget: u64,
    /// Smallest grant ever issued: requests are rounded up to this, so
    /// a degenerate 0-byte request still serializes against the budget.
    pub min_grant: u64,
    /// Maximum queries waiting for budget; beyond this, reject.
    pub max_queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { budget: 256 << 20, min_grant: 1 << 20, max_queue: 32 }
    }
}

/// Why a query was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The request exceeds the entire budget — it can never run.
    TooLarge {
        /// Bytes the query asked for (after min-grant rounding).
        requested: u64,
        /// The whole global budget.
        budget: u64,
    },
    /// The wait queue is at capacity.
    QueueFull {
        /// Queries already waiting.
        waiting: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::TooLarge { requested, budget } => {
                write!(f, "requested {requested} bytes exceeds global budget {budget}")
            }
            AdmitError::QueueFull { waiting } => {
                write!(f, "admission queue full ({waiting} waiting)")
            }
        }
    }
}

/// Why a live grant could not be resized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeError {
    /// The new size is below the table's `min_grant` floor — grants
    /// never shrink past it, so a degenerate resize cannot park a
    /// query on a zero-byte grant.
    BelowMin {
        /// Bytes the resize asked for.
        requested: u64,
        /// The floor it violated.
        min_grant: u64,
    },
    /// A grow was refused: the extra bytes are not available right now.
    NoBudget {
        /// Additional bytes the grow needed.
        needed: u64,
        /// Bytes currently free.
        available: u64,
    },
    /// A grow was refused because queries are queued — growing a
    /// running grant ahead of FIFO waiters would starve them.
    Queued {
        /// Queries currently waiting.
        waiting: usize,
    },
}

impl std::fmt::Display for ResizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeError::BelowMin { requested, min_grant } => {
                write!(f, "resize to {requested} bytes is below min_grant {min_grant}")
            }
            ResizeError::NoBudget { needed, available } => {
                write!(f, "grow needs {needed} more bytes but only {available} are free")
            }
            ResizeError::Queued { waiting } => {
                write!(f, "grow refused: {waiting} queries are queued ahead")
            }
        }
    }
}

struct State {
    available: u64,
    /// High-water mark of `budget - available`, for the invariant test
    /// and the `phj_server_grant_peak_bytes` gauge.
    peak_outstanding: u64,
    /// Tickets waiting for budget, front first.
    queue: VecDeque<u64>,
    /// High-water mark of `queue.len()` (contention evidence for the
    /// serve_load bench's low-budget scenario).
    peak_waiting: usize,
    next_ticket: u64,
    admitted: u64,
    rejected: u64,
}

/// A running query that can give memory back mid-flight: its grant
/// (for the current size) and the [`LiveBudget`] its join polls. Both
/// are weak — the registry must never keep a finished query alive, and
/// a strong ref here would cycle through the grant back to the table.
struct Revocable {
    grant: Weak<MemGrant>,
    budget: Weak<LiveBudget>,
}

/// The grant table. Clone the `Arc` freely; all state is internal.
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
    /// Queries that registered a revocable budget, by query id.
    revocable: Mutex<HashMap<u64, Revocable>>,
    /// Shed requests issued to running queries (mirrors the
    /// `phj_server_shed_requests_total` counter for direct assertion).
    sheds: AtomicU64,
    /// Called with the victim query id each time a shed request is
    /// issued — the server wires this to the live query registry so
    /// `/queries` can show which query absorbed the pressure.
    shed_observer: Mutex<Option<ShedObserver>>,
}

type ShedObserver = Box<dyn Fn(u64) + Send + Sync>;

impl Admission {
    /// A fresh table with the full budget available.
    pub fn new(cfg: AdmissionConfig) -> Arc<Admission> {
        Arc::new(Admission {
            cfg,
            state: Mutex::new(State {
                available: cfg.budget,
                peak_outstanding: 0,
                queue: VecDeque::new(),
                peak_waiting: 0,
                next_ticket: 0,
                admitted: 0,
                rejected: 0,
            }),
            cv: Condvar::new(),
            revocable: Mutex::new(HashMap::new()),
            sheds: AtomicU64::new(0),
            shed_observer: Mutex::new(None),
        })
    }

    /// Install (replace) the shed observer. Called outside every table
    /// lock, so the observer may take its own locks freely — but it
    /// must not call back into this table.
    pub fn set_shed_observer(&self, f: impl Fn(u64) + Send + Sync + 'static) {
        *self.shed_observer.lock().unwrap() = Some(Box::new(f));
    }

    /// The configuration this table enforces.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// Acquire a grant of `requested` bytes (rounded up to
    /// `min_grant`), blocking FIFO behind earlier waiters if the budget
    /// is currently exhausted. `query_id` tags the flight-recorder
    /// events.
    pub fn admit(self: &Arc<Self>, query_id: u64, requested: u64) -> Result<MemGrant, AdmitError> {
        let submit = Instant::now();
        let mut queue_wait = Duration::ZERO;
        let mut grant_wait = Duration::ZERO;
        let want = requested.max(self.cfg.min_grant);
        if want > self.cfg.budget {
            let mut st = self.state.lock().unwrap();
            st.rejected += 1;
            drop(st);
            self.publish_gauges();
            return Err(AdmitError::TooLarge { requested: want, budget: self.cfg.budget });
        }
        {
            let mut st = self.state.lock().unwrap();
            // `max_queue` bounds *waiters*: a request the budget can
            // satisfy right now (and that no earlier waiter is ahead
            // of) is granted without touching the queue, so
            // `max_queue == 0` means "never wait" rather than "never
            // admit".
            let must_wait = !st.queue.is_empty() || st.available < want;
            if must_wait {
                if st.queue.len() >= self.cfg.max_queue {
                    st.rejected += 1;
                    let waiting = st.queue.len();
                    drop(st);
                    self.publish_gauges();
                    return Err(AdmitError::QueueFull { waiting });
                }
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                st.queue.push_back(ticket);
                st.peak_waiting = st.peak_waiting.max(st.queue.len());
                self.gauge_queued(st.queue.len());
                // Instead of only waiting for a full release, ask the
                // largest running revocable query to shed our deficit.
                // Done outside the state lock: upgrading/dropping a
                // grant Arc here must never re-enter `release` while
                // the lock is held.
                let deficit = want.saturating_sub(st.available);
                drop(st);
                self.request_shed(deficit, query_id);
                st = self.state.lock().unwrap();
                // Strict FIFO: only the front ticket may debit the
                // budget. The wait splits in two for the lifecycle
                // breakdown: time spent *behind* earlier tickets is
                // queue wait, time spent *at the front* waiting for
                // budget is grant wait.
                let mut at_front_at: Option<Instant> = None;
                loop {
                    let at_front = st.queue.front() == Some(&ticket);
                    if at_front && at_front_at.is_none() {
                        at_front_at = Some(Instant::now());
                    }
                    if at_front && st.available >= want {
                        break;
                    }
                    st = self.cv.wait(st).unwrap();
                }
                st.queue.pop_front();
                let now = Instant::now();
                let front_at = at_front_at.unwrap_or(now);
                queue_wait = front_at.duration_since(submit);
                grant_wait = now.duration_since(front_at);
            }
            st.available -= want;
            let outstanding = self.cfg.budget - st.available;
            st.peak_outstanding = st.peak_outstanding.max(outstanding);
            st.admitted += 1;
            self.gauge_queued(st.queue.len());
            // Another waiter may now be at the front with enough budget.
            self.cv.notify_all();
        }
        self.publish_gauges();
        // The full u64 query id rides in payload `a` — `code` is u16
        // and would alias queries once ids pass 65535.
        phj_flightrec::event(
            phj_flightrec::EventKind::Grant,
            phj_flightrec::grant_op::ACQUIRE,
            query_id,
            want,
        );
        Ok(MemGrant {
            table: Arc::clone(self),
            bytes: AtomicU64::new(want),
            query_id,
            queue_wait,
            grant_wait,
        })
    }

    /// Register a running query as revocable: when a later arrival
    /// would otherwise wait, the table asks the largest registered
    /// query (through its [`LiveBudget`]) to shed memory. The returned
    /// guard unregisters on drop — hold it for the query's lifetime.
    pub fn register_revocable(
        self: &Arc<Self>,
        query_id: u64,
        grant: &Arc<MemGrant>,
        budget: &Arc<LiveBudget>,
    ) -> RevocableReg {
        self.revocable.lock().unwrap().insert(
            query_id,
            Revocable { grant: Arc::downgrade(grant), budget: Arc::downgrade(budget) },
        );
        RevocableReg { table: Arc::clone(self), query_id }
    }

    /// Ask the largest registered revocable query to shed `deficit`
    /// bytes (down to `min_grant` at most). Best-effort and async: the
    /// query observes the lowered limit at its next safe point, spills
    /// victims, and its ack hook credits the bytes back via
    /// [`MemGrant::try_shrink`] — which wakes the queue.
    fn request_shed(&self, deficit: u64, for_query: u64) {
        if deficit == 0 {
            return;
        }
        let best = {
            let reg = self.revocable.lock().unwrap();
            let mut best: Option<(u64, u64, Arc<LiveBudget>)> = None;
            for (qid, r) in reg.iter() {
                let (Some(g), Some(b)) = (r.grant.upgrade(), r.budget.upgrade()) else {
                    continue;
                };
                let bytes = g.bytes();
                if best.as_ref().is_none_or(|(bb, ..)| bytes > *bb) {
                    best = Some((bytes, *qid, b));
                }
            }
            best
        };
        let Some((bytes, victim, budget)) = best else { return };
        let target = bytes.saturating_sub(deficit).max(self.cfg.min_grant);
        if target >= bytes {
            return; // already at the floor: nothing left to reclaim
        }
        budget.request_shrink(target);
        self.sheds.fetch_add(1, Ordering::Relaxed);
        if let Some(observer) = self.shed_observer.lock().unwrap().as_ref() {
            observer(victim);
        }
        if let Some(reg) = phj_metrics::global() {
            reg.counter(
                phj_metrics::names::SERVER_SHED_REQUESTS,
                "Pressure callbacks asking a running query to shed memory",
            )
            .add(1);
        }
        // `a` = the query asked to shed, `b` = the byte target it was
        // asked to come down to. (`for_query` is the beneficiary; it
        // journals its own ACQUIRE once the shed frees enough.)
        let _ = for_query;
        phj_flightrec::event(
            phj_flightrec::EventKind::Grant,
            phj_flightrec::grant_op::SHED,
            victim,
            target,
        );
    }

    /// Shed requests this table has issued to running queries.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Bytes currently granted out (`budget - available`).
    pub fn outstanding(&self) -> u64 {
        self.cfg.budget - self.state.lock().unwrap().available
    }

    /// High-water mark of concurrently waiting queries.
    pub fn peak_waiting(&self) -> usize {
        self.state.lock().unwrap().peak_waiting
    }

    /// High-water mark of [`Admission::outstanding`] over the table's
    /// lifetime.
    pub fn peak_outstanding(&self) -> u64 {
        self.state.lock().unwrap().peak_outstanding
    }

    /// Queries waiting for budget right now.
    pub fn waiting(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// (admitted, rejected) totals since construction.
    pub fn totals(&self) -> (u64, u64) {
        let st = self.state.lock().unwrap();
        (st.admitted, st.rejected)
    }

    fn release(&self, bytes: u64, query_id: u64) {
        {
            let mut st = self.state.lock().unwrap();
            st.available += bytes;
            debug_assert!(st.available <= self.cfg.budget, "grant released twice");
            self.cv.notify_all();
        }
        self.publish_gauges();
        phj_flightrec::event(
            phj_flightrec::EventKind::Grant,
            phj_flightrec::grant_op::RELEASE,
            query_id,
            bytes,
        );
    }

    fn gauge_queued(&self, n: usize) {
        if let Some(reg) = phj_metrics::global() {
            reg.gauge(
                phj_metrics::names::SERVER_QUERIES_QUEUED,
                "Queries waiting for a memory grant",
            )
            .set(n as u64);
        }
    }

    fn publish_gauges(&self) {
        let Some(reg) = phj_metrics::global() else { return };
        let st = self.state.lock().unwrap();
        let outstanding = self.cfg.budget - st.available;
        let (peak, admitted, rejected) = (st.peak_outstanding, st.admitted, st.rejected);
        drop(st);
        reg.gauge(phj_metrics::names::SERVER_GRANT_BYTES, "Memory bytes currently granted")
            .set(outstanding);
        reg.gauge(
            phj_metrics::names::SERVER_GRANT_PEAK_BYTES,
            "High-water mark of granted bytes",
        )
        .set(peak);
        reg.gauge(
            phj_metrics::names::SERVER_QUERIES_ADMITTED,
            "Queries granted memory and run",
        )
        .set(admitted);
        reg.gauge(phj_metrics::names::SERVER_QUERIES_REJECTED, "Queries rejected by admission")
            .set(rejected);
    }
}

/// Unregisters a revocable query from the table on drop (including
/// unwind, so a panicking query never leaves a stale registry entry).
pub struct RevocableReg {
    table: Arc<Admission>,
    query_id: u64,
}

impl Drop for RevocableReg {
    fn drop(&mut self) {
        self.table.revocable.lock().unwrap().remove(&self.query_id);
    }
}

/// An RAII memory grant: dropping it credits the bytes back to the
/// budget and wakes the queue. The size is live — a running query may
/// [`resize`](MemGrant::resize) it, and the table's pressure path
/// shrinks it through [`try_shrink`](MemGrant::try_shrink).
pub struct MemGrant {
    table: Arc<Admission>,
    bytes: AtomicU64,
    query_id: u64,
    queue_wait: Duration,
    grant_wait: Duration,
}

impl MemGrant {
    /// Bytes this grant currently holds.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// How long the admitting query waited behind earlier FIFO tickets
    /// (zero when it was granted without queueing).
    pub fn queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// How long the admitting query waited at the queue head for
    /// budget to free up (zero when it was granted without queueing).
    pub fn grant_wait(&self) -> Duration {
        self.grant_wait
    }

    /// Resize the grant. Shrinks credit the difference back to the
    /// budget immediately and wake the queue; grows are granted only
    /// when no query is queued (FIFO fairness) and the bytes are free.
    /// Returns the new size.
    pub fn resize(&self, new_bytes: u64) -> Result<u64, ResizeError> {
        if new_bytes < self.table.cfg.min_grant {
            return Err(ResizeError::BelowMin {
                requested: new_bytes,
                min_grant: self.table.cfg.min_grant,
            });
        }
        {
            let mut st = self.table.state.lock().unwrap();
            let old = self.bytes.load(Ordering::Relaxed);
            if new_bytes == old {
                return Ok(old);
            }
            if new_bytes < old {
                st.available += old - new_bytes;
                self.table.cv.notify_all();
            } else {
                if !st.queue.is_empty() {
                    return Err(ResizeError::Queued { waiting: st.queue.len() });
                }
                let needed = new_bytes - old;
                if st.available < needed {
                    return Err(ResizeError::NoBudget { needed, available: st.available });
                }
                st.available -= needed;
                let outstanding = self.table.cfg.budget - st.available;
                st.peak_outstanding = st.peak_outstanding.max(outstanding);
            }
            self.bytes.store(new_bytes, Ordering::Release);
        }
        self.resized(new_bytes);
        Ok(new_bytes)
    }

    /// Shrink-only resize for the pressure path: clamps to `min_grant`,
    /// never grows, never fails. Returns `true` when bytes were
    /// credited back. This is the ack hook a dynamic disk join fires
    /// after spilling victims under a shed request.
    pub fn try_shrink(&self, new_bytes: u64) -> bool {
        let new = new_bytes.max(self.table.cfg.min_grant);
        {
            let mut st = self.table.state.lock().unwrap();
            let old = self.bytes.load(Ordering::Relaxed);
            if new >= old {
                return false;
            }
            st.available += old - new;
            self.bytes.store(new, Ordering::Release);
            self.table.cv.notify_all();
        }
        self.resized(new);
        true
    }

    fn resized(&self, new_bytes: u64) {
        self.table.publish_gauges();
        if let Some(reg) = phj_metrics::global() {
            reg.counter(
                phj_metrics::names::SERVER_GRANT_RESIZES,
                "Live-grant resize operations",
            )
            .add(1);
        }
        phj_flightrec::event(
            phj_flightrec::EventKind::Grant,
            phj_flightrec::grant_op::RESIZE,
            self.query_id,
            new_bytes,
        );
    }
}

impl Drop for MemGrant {
    fn drop(&mut self) {
        self.table.release(self.bytes.load(Ordering::Relaxed), self.query_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(budget: u64, min: u64, queue: usize) -> AdmissionConfig {
        AdmissionConfig { budget, min_grant: min, max_queue: queue }
    }

    #[test]
    fn grants_debit_and_release_credits() {
        let adm = Admission::new(cfg(100, 1, 8));
        let g1 = adm.admit(1, 40).unwrap();
        let g2 = adm.admit(2, 40).unwrap();
        assert_eq!(adm.outstanding(), 80);
        drop(g1);
        assert_eq!(adm.outstanding(), 40);
        drop(g2);
        assert_eq!(adm.outstanding(), 0);
        assert_eq!(adm.peak_outstanding(), 80);
        assert_eq!(adm.totals(), (2, 0));
    }

    #[test]
    fn too_large_rejected_without_touching_budget() {
        let adm = Admission::new(cfg(100, 1, 8));
        let before = adm.outstanding();
        assert!(matches!(adm.admit(1, 101), Err(AdmitError::TooLarge { .. })));
        assert_eq!(adm.outstanding(), before);
        assert_eq!(adm.totals(), (0, 1));
    }

    #[test]
    fn zero_request_rounds_up_to_min_grant() {
        let adm = Admission::new(cfg(100, 10, 8));
        let g = adm.admit(1, 0).unwrap();
        assert_eq!(g.bytes(), 10);
        assert_eq!(adm.outstanding(), 10);
    }

    #[test]
    fn exhausted_budget_queues_fifo_until_release() {
        let adm = Admission::new(cfg(100, 1, 8));
        let g = adm.admit(1, 100).unwrap();
        let t = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(2, 50).map(|g| g.bytes()))
        };
        // The waiter must be queued, not rejected.
        while adm.waiting() == 0 {
            std::thread::yield_now();
        }
        drop(g);
        assert_eq!(t.join().unwrap().unwrap(), 50);
    }

    #[test]
    fn resize_shrink_credits_immediately_and_grow_needs_free_budget() {
        let adm = Admission::new(cfg(100, 10, 8));
        let g = adm.admit(1, 80).unwrap();
        assert_eq!(g.resize(40), Ok(40));
        assert_eq!(g.bytes(), 40);
        assert_eq!(adm.outstanding(), 40);
        // Grow within the free budget succeeds…
        assert_eq!(g.resize(90), Ok(90));
        // …past it, typed refusal.
        assert!(matches!(g.resize(120), Err(ResizeError::NoBudget { .. })));
        assert_eq!(g.bytes(), 90);
        drop(g);
        assert_eq!(adm.outstanding(), 0);
    }

    #[test]
    fn grow_is_refused_while_queries_wait() {
        let adm = Admission::new(cfg(100, 1, 8));
        let g = std::sync::Arc::new(adm.admit(1, 60).unwrap());
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(2, 60).map(|g| g.bytes()))
        };
        while adm.waiting() == 0 {
            std::thread::yield_now();
        }
        // 40 bytes are free, but a FIFO waiter is ahead of the grow.
        assert!(matches!(g.resize(80), Err(ResizeError::Queued { waiting: 1 })));
        drop(std::sync::Arc::try_unwrap(g).ok().unwrap());
        assert_eq!(waiter.join().unwrap().unwrap(), 60);
    }

    #[test]
    fn try_shrink_clamps_to_min_grant_and_never_grows() {
        let adm = Admission::new(cfg(100, 10, 8));
        let g = adm.admit(1, 50).unwrap();
        assert!(g.try_shrink(0)); // clamps to min_grant
        assert_eq!(g.bytes(), 10);
        assert_eq!(adm.outstanding(), 10);
        assert!(!g.try_shrink(80)); // never grows
        assert_eq!(g.bytes(), 10);
    }

    #[test]
    fn arrival_sheds_the_largest_revocable_query_instead_of_waiting_for_release() {
        let adm = Admission::new(cfg(100, 10, 8));
        let g = Arc::new(adm.admit(1, 100).unwrap());
        let live = Arc::new(LiveBudget::new(100));
        let _reg = adm.register_revocable(1, &g, &live);
        // The running query's compliance hook: ack → grant shrink.
        let hooked = Arc::clone(&g);
        live.set_on_ack(move |b| {
            hooked.try_shrink(b);
        });
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(2, 40).map(|g| g.bytes()))
        };
        // The arrival's deficit (40) lands as a shed request: the
        // target is 100 - 40 = 60.
        while live.limit() == 100 {
            std::thread::yield_now();
        }
        assert_eq!(live.limit(), 60);
        assert_eq!(adm.sheds(), 1);
        // Simulate the join reaching its next safe point and complying.
        live.ack(60);
        assert_eq!(waiter.join().unwrap().unwrap(), 40);
        assert_eq!(g.bytes(), 60);
        // The waiter's grant was dropped when its thread returned, so
        // only the shrunken original grant remains outstanding.
        assert_eq!(adm.outstanding(), 60);
        assert_eq!(adm.peak_outstanding(), 100);
        assert_eq!(adm.peak_waiting(), 1);
    }

    #[test]
    fn wait_times_split_queue_position_from_budget_wait() {
        let adm = Admission::new(cfg(100, 1, 8));
        let g0 = adm.admit(1, 100).unwrap();
        // An uncontended grant records zero for both waits.
        assert_eq!(g0.queue_wait(), Duration::ZERO);
        assert_eq!(g0.grant_wait(), Duration::ZERO);
        let w1 = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || {
                let g = adm.admit(2, 100).unwrap();
                let waits = (g.queue_wait(), g.grant_wait());
                std::thread::sleep(Duration::from_millis(20));
                waits
            })
        };
        while adm.waiting() < 1 {
            std::thread::yield_now();
        }
        let w2 = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || {
                let g = adm.admit(3, 100).unwrap();
                (g.queue_wait(), g.grant_wait())
            })
        };
        while adm.waiting() < 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(5));
        drop(g0);
        let (q1, g1) = w1.join().unwrap();
        let (q2, g2) = w2.join().unwrap();
        // Ticket 2 reached the front within its first lock acquisition:
        // its queue wait is scheduler noise; its real wait was the ~5 ms
        // g0 held the whole budget. Ticket 3 queued behind ticket 2
        // until *it* was granted (the same ~5 ms), then waited at the
        // front for ticket 2's ~20 ms hold.
        assert!(q1 < Duration::from_millis(5), "front ticket barely queued: {q1:?}");
        assert!(g1 >= Duration::from_millis(4), "grant wait spans the budget hold: {g1:?}");
        assert!(q2 >= Duration::from_millis(2), "queued ticket waited behind the front: {q2:?}");
        assert!(g2 >= Duration::from_millis(15), "then waited at the front for the hold: {g2:?}");
    }

    #[test]
    fn shed_observer_sees_the_victim_query() {
        let adm = Admission::new(cfg(100, 10, 8));
        let observed = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&observed);
        adm.set_shed_observer(move |victim| sink.lock().unwrap().push(victim));
        let g = Arc::new(adm.admit(7, 100).unwrap());
        let live = Arc::new(LiveBudget::new(100));
        let _reg = adm.register_revocable(7, &g, &live);
        let hooked = Arc::clone(&g);
        live.set_on_ack(move |b| {
            hooked.try_shrink(b);
        });
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(8, 40).map(|g| g.bytes()))
        };
        while live.limit() == 100 {
            std::thread::yield_now();
        }
        live.ack(60);
        assert_eq!(waiter.join().unwrap().unwrap(), 40);
        assert_eq!(*observed.lock().unwrap(), vec![7]);
    }

    #[test]
    fn full_queue_rejects() {
        let adm = Admission::new(cfg(100, 1, 1));
        let _g = adm.admit(1, 100).unwrap(); // exhaust the budget
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.admit(2, 10).map(|g| g.bytes()))
        };
        while adm.waiting() < 1 {
            std::thread::yield_now();
        }
        // Queue (capacity 1) now holds the waiter: the next query bounces.
        assert!(matches!(adm.admit(3, 10), Err(AdmitError::QueueFull { waiting: 1 })));
        drop(_g);
        assert_eq!(waiter.join().unwrap().unwrap(), 10);
    }
}
