//! JSONL ingest makes no heap allocation per line.
//!
//! `jsonl_to_schedule_file` parses every line's fields as slices of
//! the line, and a large block of lines in a few chunks on a few
//! threads, so a log twice as long costs at most the extra doubling of
//! the schedule's send vector. This target installs its own counting
//! allocator, which counts the allocations of every thread, the parse
//! threads' included. It holds one test, so nothing else allocates
//! while it counts.

use postal_model::{Latency, Time};
use postal_obs::{to_jsonl, ObsEvent, ObsLog, RunMeta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made by any thread. The count publishes no other data,
/// so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the allocations every thread makes.
/// `alloc_zeroed` and `realloc` keep the trait's defaults, which
/// allocate through `alloc`, so each is counted once.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the count is an atomic that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A log of `lines` lines: the run header, then send, receive and wake
/// events in turn, so every line shape the reader meets in a recorded
/// run is on it.
fn log_text(lines: usize) -> String {
    let n = 1000u32;
    let lam = Latency::from_ratio(5, 2);
    let events = (0..lines as u64 - 1)
        .map(|i| {
            let (src, dst) = ((i % 999) as u32, (i % 999) as u32 + 1);
            let start = Time::new(i as i128, 2);
            match i % 3 {
                0 => ObsEvent::Send {
                    seq: i,
                    src,
                    dst,
                    start,
                    finish: start + Time::ONE,
                },
                1 => ObsEvent::Recv {
                    seq: i,
                    src,
                    dst,
                    arrival: start + lam.as_time(),
                    start: start + lam.as_time(),
                    finish: start + lam.as_time() + Time::ONE,
                    queued: i % 2 == 0,
                },
                _ => ObsEvent::Wake {
                    proc: dst,
                    at: start,
                },
            }
        })
        .collect();
    let text = to_jsonl(&ObsLog::new(
        RunMeta::new("event", n).latency(lam).messages(1),
        events,
    ));
    assert_eq!(text.lines().count(), lines);
    text
}

/// Allocations `jsonl_to_schedule_file` makes on `text`, and the sends
/// it read.
fn ingest_allocs(text: &str) -> (u64, usize) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let file = postal_verify::jsonl_to_schedule_file(Cursor::new(text.as_bytes()))
        .expect("a well-formed log");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, file.schedule.len())
}

#[test]
fn ingest_allocations_do_not_grow_with_line_count() {
    let (small, big) = (log_text(20_000), log_text(40_000));
    let (small_allocs, small_sends) = ingest_allocs(&small);
    let (big_allocs, big_sends) = ingest_allocs(&big);
    assert_eq!((small_sends, big_sends), (6_667, 13_333));
    // Twice the lines may cost the send vector's one extra doubling,
    // nothing per line. The schedule sort's cached keys are one
    // allocation at either length. With one core that makes 20 and 21
    // in all today; with two, the parse threads, their parser copies
    // and one vector per chunk, a fixed number per block, make 28 and
    // 28, and four threads, the most a block gets, add 18 more.
    assert!(
        big_allocs <= small_allocs + 4,
        "{small_allocs} allocations for 20k lines, {big_allocs} for 40k"
    );
    assert!(
        small_allocs < 64,
        "{small_allocs} allocations for 20k lines"
    );
}
