//! The peak-heap probe, installed as this target's allocator: a probe
//! nested in another reports its own peak, and hands that peak back to
//! the probe around it.

postal_bench::install_heap_probe!();

use postal_bench::probe::with_peak_delta;
use std::hint::black_box;

#[test]
fn nested_probes_report_their_own_peaks() {
    let (inner, outer) = with_peak_delta(|| {
        let a = black_box(vec![0u8; 1 << 20]);
        let (_, inner) = with_peak_delta(|| black_box(vec![0u8; 1 << 16]).len());
        drop(a);
        inner
    });
    assert_eq!(inner, 1 << 16);
    assert_eq!(outer, (1 << 20) + (1 << 16));
}
