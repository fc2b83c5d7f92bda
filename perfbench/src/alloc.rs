//! A counting global allocator: live bytes, peak live bytes and the
//! number of allocations, read around a call with [`MemProbe`].
//!
//! The counters are exact for a single-threaded program, so every
//! figure taken from them repeats to the unit from job to job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus statistics. The counters publish no other
/// data, so `Relaxed` is enough.
struct CountingAlloc {
    live: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

impl CountingAlloc {
    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every operation is delegated to `System` with the caller's
// arguments unchanged; the wrapper only updates counters on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.live.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            self.grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
};

/// What a call cost in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemUse {
    /// Peak live bytes above the live bytes at the probe's start.
    pub peak_bytes: u64,
    /// Allocations (including reallocations) made.
    pub allocs: u64,
}

/// Measures the memory a stretch of code uses. Probes nest: an inner
/// probe hands the peak it saw back to the probe around it.
pub struct MemProbe {
    base_live: u64,
    outer_peak: u64,
    base_allocs: u64,
}

impl MemProbe {
    /// Starts measuring from the current live heap.
    pub fn start() -> MemProbe {
        let base_live = ALLOC.live.load(Ordering::Relaxed);
        MemProbe {
            base_live,
            outer_peak: ALLOC.peak.swap(base_live, Ordering::Relaxed),
            base_allocs: ALLOC.allocs.load(Ordering::Relaxed),
        }
    }

    /// Stops measuring.
    pub fn stop(self) -> MemUse {
        let peak = ALLOC.peak.fetch_max(self.outer_peak, Ordering::Relaxed);
        MemUse {
            peak_bytes: peak - self.base_live,
            allocs: ALLOC.allocs.load(Ordering::Relaxed) - self.base_allocs,
        }
    }
}

/// Runs `f` under a [`MemProbe`].
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, MemUse) {
    let probe = MemProbe::start();
    let out = f();
    (out, probe.stop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_probes_report_their_own_peaks() {
        let (inner, outer) = measure(|| {
            let a = vec![0u8; 1 << 20];
            let (_, inner) = measure(|| vec![0u8; 1 << 16].len());
            drop(a);
            inner
        });
        assert_eq!(inner.peak_bytes, 1 << 16);
        assert_eq!(inner.allocs, 1);
        assert_eq!(outer.peak_bytes, (1 << 20) + (1 << 16));
        assert_eq!(outer.allocs, 2);
    }
}
