//! A revocable memory budget shared between a running join and its
//! grantor.
//!
//! The disk join reads its budget from a [`LiveBudget`] (a fixed one
//! made from [`DiskGraceConfig::mem_budget`] unless the host installs
//! its own): the grantor (the server's admission table, a test
//! harness, a bench sweep) may lower the *limit* at any time from any
//! thread, and the join observes the new limit at its next safe point
//! — a page-granular pressure check — spills victim partitions until
//! it complies, and then *acks* the bytes it actually holds. The ack fires an optional hook, which is
//! how a daemon query propagates compliance back into
//! `MemGrant::try_shrink` so the freed bytes re-enter the global
//! budget while the query is still running.
//!
//! The protocol is deliberately asynchronous and lock-free on the
//! join's side: `limit` and `acked` are plain atomics, the request
//! side never blocks the join, and the join never blocks the grantor.
//! A limit *raise* is also just a store — the join sees the headroom
//! at its next phase boundary and may re-absorb spilled partitions.
//!
//! [`DiskGraceConfig::mem_budget`]: crate::DiskGraceConfig::mem_budget

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hook invoked (on the join thread) after the join brings its held
/// bytes under a lowered limit.
type AckFn = Box<dyn Fn(u64) + Send + Sync>;

/// A dynamically adjustable memory budget (see module docs).
pub struct LiveBudget {
    /// The grantor's current target, bytes. The join must shed down to
    /// this; it may use up to this.
    limit: AtomicU64,
    /// What the join last acknowledged actually holding (≤ limit once
    /// compliant; lags the limit between a shrink request and the next
    /// safe point).
    acked: AtomicU64,
    /// Shrink requests observed by the consumer (telemetry/tests).
    shed_requests: AtomicU64,
    on_ack: Mutex<Option<AckFn>>,
}

impl std::fmt::Debug for LiveBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveBudget")
            .field("limit", &self.limit.load(Ordering::Relaxed))
            .field("acked", &self.acked.load(Ordering::Relaxed))
            .finish()
    }
}

impl LiveBudget {
    /// A budget starting at `bytes`, fully acked (the join holds
    /// nothing yet, so it trivially complies).
    pub fn new(bytes: u64) -> LiveBudget {
        LiveBudget {
            limit: AtomicU64::new(bytes),
            acked: AtomicU64::new(bytes),
            shed_requests: AtomicU64::new(0),
            on_ack: Mutex::new(None),
        }
    }

    /// The current target in bytes.
    pub fn limit(&self) -> u64 {
        self.limit.load(Ordering::Acquire)
    }

    /// The byte total the join last acknowledged complying with.
    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Shrink requests the consumer has observed so far.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests.load(Ordering::Relaxed)
    }

    /// Grantor side: move the target to `bytes` (up or down). Never
    /// blocks; the join observes the change at its next safe point.
    pub fn request(&self, bytes: u64) {
        self.limit.store(bytes, Ordering::Release);
    }

    /// Grantor side: lower the target to `min(limit, bytes)` — a
    /// pressure request can only take memory away, never hand out more
    /// than the grantor meant to.
    pub fn request_shrink(&self, bytes: u64) {
        self.limit.fetch_min(bytes, Ordering::AcqRel);
    }

    /// Join side: acknowledge holding at most `bytes` (called at safe
    /// points after compliance, and at phase boundaries). Fires the
    /// ack hook when the acknowledged total changed.
    pub fn ack(&self, bytes: u64) {
        let prev = self.acked.swap(bytes, Ordering::AcqRel);
        if prev != bytes {
            if bytes < prev {
                self.shed_requests.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(hook) = self.on_ack.lock().unwrap().as_ref() {
                hook(bytes);
            }
        }
    }

    /// Install the compliance hook (e.g. `MemGrant::try_shrink`).
    /// Replaces any previous hook.
    pub fn set_on_ack(&self, hook: impl Fn(u64) + Send + Sync + 'static) {
        *self.on_ack.lock().unwrap() = Some(Box::new(hook));
    }

    /// Spin until the join acks a total ≤ `bytes`, or `timeout`
    /// elapses. Test/bench helper — the production path is hook-driven.
    pub fn wait_acked_below(&self, bytes: u64, timeout: std::time::Duration) -> bool {
        let t0 = std::time::Instant::now();
        while self.acked() > bytes {
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn shrink_request_is_monotone_down_and_ack_fires_hook() {
        let lb = LiveBudget::new(1000);
        assert_eq!(lb.limit(), 1000);
        lb.request_shrink(400);
        lb.request_shrink(700); // cannot raise via shrink
        assert_eq!(lb.limit(), 400);

        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        lb.set_on_ack(move |b| s.store(b, Ordering::SeqCst));
        lb.ack(400);
        assert_eq!(seen.load(Ordering::SeqCst), 400);
        assert_eq!(lb.acked(), 400);
        assert_eq!(lb.shed_requests(), 1);
        // Re-acking the same total is a no-op (no double hook fire).
        seen.store(0, Ordering::SeqCst);
        lb.ack(400);
        assert_eq!(seen.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn grow_request_raises_the_limit() {
        let lb = LiveBudget::new(100);
        lb.request(900);
        assert_eq!(lb.limit(), 900);
        lb.ack(900);
        assert!(lb.wait_acked_below(1000, std::time::Duration::from_millis(10)));
    }
}
