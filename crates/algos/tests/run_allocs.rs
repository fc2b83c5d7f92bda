//! The cascade algorithms make no heap allocation per callback, and
//! the simulator holds memory for its pending events only.
//!
//! Every program of a run walks its cascades over one shared `F_λ`
//! table and sends straight from the walk, so `Simulation::run` pays
//! only for the engine's own growth (its queue, the trace, the report),
//! not for anything per processor or per message. The calendar queue
//! hands a drained lane's buffer on, so a run that discards its trace
//! peaks at what its pending events need, not at every event it queued.
//! This target installs its own counting allocator, which counts
//! allocations and live bytes per thread, so tests running beside it
//! do not disturb the count.

use postal_algos::bcast::{bcast_programs, BcastProgram};
use postal_algos::pack::pack_programs;
use postal_algos::pipeline::pipeline_programs;
use postal_algos::repeat::{repeat_programs, Pacing};
use postal_model::Latency;
use postal_sim::{Program, Simulation, Uniform};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations the current thread
/// makes and the bytes it holds. `alloc_zeroed` and `realloc` keep the
/// trait's defaults, which allocate through `alloc` (and free through
/// `dealloc`), so each is counted once.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the counts are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
        let live = LIVE.with(|l| {
            l.set(l.get() + layout.size() as i64);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Starts a new peak at the bytes this thread holds now, and returns
/// them.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(live));
    live
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

/// What one `Simulation::run` cost this thread.
struct RunCost {
    allocs: u64,
    /// Peak bytes held above those held when the run began.
    peak_bytes: i64,
    sends: u64,
}

/// Runs `programs` over MPS(n, λ), its trace stored unless `discard`,
/// and counts what `Simulation::run` allocated.
fn run_cost<P: Clone + 'static>(
    n: usize,
    lam: Latency,
    discard: bool,
    programs: Vec<Box<dyn Program<P>>>,
) -> RunCost {
    let model = Uniform(lam);
    let sim = Simulation::new(n, &model);
    let sim = if discard { sim.discard_trace() } else { sim };
    let before = allocs();
    let base = reset_peak();
    let report = sim.run(programs).expect("the run cannot diverge");
    let cost = RunCost {
        allocs: allocs() - before,
        peak_bytes: peak() - base,
        sends: report.proc_stats.iter().map(|s| s.sends).sum(),
    };
    assert!(cost.sends > 0, "n={n} λ={lam}: no sends");
    cost
}

/// Runs `programs` over MPS(n, λ) and asserts that `Simulation::run`
/// made fewer than one allocation per eight sends.
fn assert_few_allocs<P: Clone + 'static>(
    what: &str,
    n: usize,
    lam: Latency,
    programs: Vec<Box<dyn Program<P>>>,
) {
    let RunCost { allocs, sends, .. } = run_cost(n, lam, false, programs);
    assert!(
        allocs * 8 < sends,
        "{what} n={n} λ={lam}: Simulation::run made {allocs} allocations for {sends} sends"
    );
}

#[test]
fn bcast_allocates_nothing_per_callback() {
    let n = 10_000;
    for lam in [
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ] {
        assert_few_allocs("BCAST", n, lam, bcast_programs(n, lam));
    }
}

#[test]
fn multi_message_algorithms_allocate_nothing_per_callback() {
    let (n, m) = (2_000, 8);
    for lam in [Latency::from_int(2), Latency::from_ratio(7, 3)] {
        assert_few_allocs(
            "REPEAT",
            n,
            lam,
            repeat_programs(n, m, lam, Pacing::PaperExact),
        );
        assert_few_allocs("PACK", n, lam, pack_programs(n, m, lam));
        assert_few_allocs("PIPELINE", n, lam, pipeline_programs(n, m, lam));
    }
}

#[test]
fn a_bcast_program_is_a_shared_table_and_a_root_range() {
    assert!(std::mem::size_of::<BcastProgram>() <= 24);
}

#[test]
fn pack_allocates_for_its_pending_events_only() {
    // PACK's root issues its whole cascade at once, so its events cross
    // the window's 512 ticks of sixths; each drained lane hands its
    // buffer on instead of every lane allocating its own.
    let (n, m, lam) = (2_000, 8, Latency::from_ratio(7, 3));
    let cost = run_cost(n, lam, false, pack_programs(n, m, lam));
    assert!(
        cost.allocs < 1_200,
        "PACK n={n} m={m} λ={lam}: Simulation::run made {} allocations",
        cost.allocs
    );
}

#[test]
fn a_run_that_wraps_the_window_holds_its_pending_events_only() {
    // Both runs slide the window over thousands of ticks with the trace
    // discarded, so the queue is what the run holds.
    const BOUND: i64 = 4 << 20;
    let (n, m) = (5_000, 20);
    let lam = Latency::from_ratio(5, 2);
    let repeat = run_cost(n, lam, true, repeat_programs(n, m, lam, Pacing::PaperExact));
    let lam = Latency::from_ratio(7, 3);
    let pipeline = run_cost(n, lam, true, pipeline_programs(n, m, lam));
    for (what, cost) in [("REPEAT λ=5/2", repeat), ("PIPELINE λ=7/3", pipeline)] {
        assert!(
            cost.peak_bytes < BOUND,
            "{what} n={n} m={m}: Simulation::run peaked at {} bytes for {} sends",
            cost.peak_bytes,
            cost.sends
        );
    }
}
