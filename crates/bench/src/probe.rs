//! A peak-heap probe for the experiment binaries that gate on memory.
//!
//! The library forbids `unsafe`, so it holds only the counters and the
//! safe probe, [`with_peak_delta`];
//! [`install_heap_probe!`](crate::install_heap_probe) expands the one
//! `unsafe impl GlobalAlloc` that feeds the counters inside the binary
//! that invokes it. A binary that does not keeps the system allocator,
//! and its probes read 0.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

// Live and peak heap bytes. The counters publish no other data, so
// `Relaxed` is enough.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts an allocation of `bytes`; called by the installed allocator.
pub fn grow(bytes: usize) {
    PEAK.fetch_max(LIVE.fetch_add(bytes, Relaxed) + bytes, Relaxed);
}

/// Counts a deallocation of `bytes`; called by the installed allocator.
pub fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

/// Runs `f`, returning its result and the peak heap bytes above the
/// live heap at entry that it reached. Probes nest: an inner probe
/// hands the peak it saw back to the probe around it.
pub fn with_peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    let outer_peak = PEAK.swap(base, Relaxed);
    let out = f();
    let peak = PEAK.fetch_max(outer_peak, Relaxed);
    (out, peak.saturating_sub(base))
}

/// Installs the system allocator, counting every allocation and
/// deallocation for [`probe`](crate::probe), as the global allocator of
/// the binary or test target that invokes it (once, at top level).
#[macro_export]
macro_rules! install_heap_probe {
    () => {
        /// The system allocator, feeding `postal_bench::probe`.
        struct CountingAlloc;

        // SAFETY: every operation is delegated to `System` with the
        // caller's arguments unchanged; the wrapper only counts bytes.
        unsafe impl ::std::alloc::GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: ::std::alloc::Layout) -> *mut u8 {
                let p = ::std::alloc::GlobalAlloc::alloc(&::std::alloc::System, layout);
                if !p.is_null() {
                    $crate::probe::grow(layout.size());
                }
                p
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: ::std::alloc::Layout) {
                $crate::probe::shrink(layout.size());
                ::std::alloc::GlobalAlloc::dealloc(&::std::alloc::System, ptr, layout);
            }
        }

        #[global_allocator]
        static COUNTING_ALLOC: CountingAlloc = CountingAlloc;
    };
}
