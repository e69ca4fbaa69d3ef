//! The `MemoryModel` abstraction: one algorithm source, two executions.
//!
//! The join and partition algorithms in `phj` are written once, generic
//! over [`MemoryModel`]. Instantiated with [`NativeModel`], every hook
//! compiles to nothing except `prefetch`, which becomes a real
//! `prefetcht0` instruction — so `phj` runs at full speed on real hardware
//! and its native timings measure genuine cache behaviour.
//! Instantiated with [`SimModel`] (the [`SimEngine`]), the same source
//! drives the cycle-level timing model that regenerates the paper's
//! figures, including configurations impossible on real hardware (memory
//! latency T = 1000, periodic cache flushing).

use crate::engine::SimEngine;
use crate::region::{LatencyHistogram, RegionKind};
use crate::stats::Snapshot;

/// Instrumentation hooks threaded through the join/partition algorithms.
///
/// Addresses are real virtual addresses of the engine's buffers; `len` is
/// the extent of the object touched (the model expands it to cache lines).
pub trait MemoryModel {
    /// True for models that simulate time (lets tests assert which
    /// instantiation ran; algorithms must not branch on it for logic).
    const SIMULATED: bool;

    /// A demand read of `len` bytes at `addr` is about to happen.
    fn visit(&mut self, addr: usize, len: usize);

    /// A demand write of `len` bytes at `addr` is about to happen.
    /// (Write-allocate: timing identical to a read in this model.)
    #[inline(always)]
    fn write(&mut self, addr: usize, len: usize) {
        self.visit(addr, len);
    }

    /// Hint that `len` bytes at `addr` will be referenced soon.
    fn prefetch(&mut self, addr: usize, len: usize);

    /// `cycles` of computation executed (a `C_i` stage-cost charge).
    fn busy(&mut self, cycles: u64);

    /// `cycles` of non-memory stall (data-dependent branch misprediction).
    fn other(&mut self, cycles: u64);

    /// Breakdown + cache-stats snapshot at this instant, for span-delta
    /// accounting in the observability layer. Models that do not simulate
    /// time return all zeros (the recorder then falls back to wall-clock
    /// timing); the span deltas of a zero snapshot are zero, never
    /// negative, thanks to the saturating `Sub` impls.
    #[inline(always)]
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    /// Tag `len` bytes at `addr` as region `kind` for miss attribution.
    /// Default no-op: native runs and unprofiled simulations pay nothing;
    /// the algorithms call this unconditionally at phase boundaries.
    #[inline(always)]
    fn region_register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        let _ = (kind, addr, len);
    }

    /// Drop every range tagged `kind` (a structure died or its addresses
    /// are being re-registered). Default no-op, like
    /// [`Self::region_register`].
    #[inline(always)]
    fn region_clear(&mut self, kind: RegionKind) {
        let _ = kind;
    }

    /// Running histogram of exposed demand-line latencies, for per-span
    /// latency percentiles. `None` (the default) when the model does not
    /// profile — span records then omit their histogram entirely, keeping
    /// unprofiled reports byte-identical.
    #[inline(always)]
    fn latency_hist(&self) -> Option<LatencyHistogram> {
        None
    }
}

/// The real-hardware instantiation: zero-cost hooks + hardware prefetch
/// instructions.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeModel;

impl NativeModel {
    /// Issue a `prefetcht0` (or the platform equivalent) for the line
    /// containing `addr`. No-op on platforms without a stable intrinsic.
    #[inline(always)]
    pub fn prefetch_line(addr: usize) {
        #[cfg(target_arch = "x86_64")]
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                addr as *const i8,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = addr;
        }
    }
}

impl MemoryModel for NativeModel {
    const SIMULATED: bool = false;

    #[inline(always)]
    fn visit(&mut self, _addr: usize, _len: usize) {}

    #[inline(always)]
    fn prefetch(&mut self, addr: usize, len: usize) {
        // One instruction per 64 B line spanned (len is almost always ≤ 64
        // in the algorithms, so this loop runs once and unrolls away).
        let mut a = addr & !63;
        let end = addr + len.max(1);
        while a < end {
            Self::prefetch_line(a);
            a += 64;
        }
    }

    #[inline(always)]
    fn busy(&mut self, _cycles: u64) {}

    #[inline(always)]
    fn other(&mut self, _cycles: u64) {}
}

/// The simulated instantiation: the timing engine itself.
pub type SimModel = SimEngine;

impl MemoryModel for SimEngine {
    const SIMULATED: bool = true;

    #[inline]
    fn visit(&mut self, addr: usize, len: usize) {
        SimEngine::visit(self, addr, len);
    }

    #[inline]
    fn write(&mut self, addr: usize, len: usize) {
        SimEngine::write(self, addr, len);
    }

    #[inline]
    fn prefetch(&mut self, addr: usize, len: usize) {
        SimEngine::prefetch(self, addr, len);
    }

    #[inline]
    fn busy(&mut self, cycles: u64) {
        SimEngine::busy(self, cycles);
    }

    #[inline]
    fn other(&mut self, cycles: u64) {
        SimEngine::other(self, cycles);
    }

    #[inline]
    fn snapshot(&self) -> Snapshot {
        SimEngine::snapshot(self)
    }

    #[inline]
    fn region_register(&mut self, kind: RegionKind, addr: usize, len: usize) {
        SimEngine::region_register(self, kind, addr, len);
    }

    #[inline]
    fn region_clear(&mut self, kind: RegionKind) {
        SimEngine::region_clear(self, kind);
    }

    #[inline]
    fn latency_hist(&self) -> Option<LatencyHistogram> {
        SimEngine::latency_hist(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<M: MemoryModel>(m: &mut M) {
        let data = vec![0u8; 4096];
        let base = data.as_ptr() as usize;
        m.prefetch(base, 1); // one line regardless of alignment
        m.busy(10);
        m.visit(base, 64);
        m.write(base + 128, 8);
        m.other(2);
    }

    #[test]
    fn native_model_is_exercisable() {
        let mut m = NativeModel;
        exercise(&mut m); // must not crash; hooks are no-ops
        // Compile-time flag agrees with the instantiation.
        const _: () = assert!(!NativeModel::SIMULATED);
    }

    #[test]
    fn sim_model_accounts_time() {
        let mut m = SimEngine::paper();
        exercise(&mut m);
        const _: () = assert!(SimEngine::SIMULATED);
        let b = m.breakdown();
        assert_eq!(b.busy, 10 + 1); // busy charge + 1 prefetch issue
        assert!(b.dcache_stall > 0); // the write missed
        assert_eq!(b.other_stall, 2);
    }

    #[test]
    fn generic_write_defaults_to_visit_timing() {
        let mut a = SimEngine::paper();
        let mut b = SimEngine::paper();
        let buf = [0u8; 128];
        let addr = buf.as_ptr() as usize;
        MemoryModel::visit(&mut a, addr, 8);
        MemoryModel::write(&mut b, addr, 8);
        assert_eq!(a.breakdown(), b.breakdown());
    }
}
