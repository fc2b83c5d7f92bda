//! The cascade algorithms make no heap allocation per callback.
//!
//! Every program of a run walks its cascades over one shared `F_λ`
//! table and sends straight from the walk, so `Simulation::run` pays
//! only for the engine's own growth (its queue, the trace, the report),
//! not for anything per processor or per message. This target installs
//! its own counting allocator, which counts per thread, so tests
//! running beside it do not disturb the count.

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
}

/// The system allocator, counting the allocations the current thread
/// makes. `alloc_zeroed` and `realloc` keep the trait's defaults, which
/// allocate through `alloc`, so each is counted once.
struct Counting;

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged; the count is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|a| a.set(a.get() + 1));
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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `programs` over MPS(n, λ) and asserts that `Simulation::run`
/// made fewer than one allocation per eight sends.
fn assert_few_allocs<P: Clone + 'static>(
    what: &str,
    n: usize,
    lam: Latency,
    programs: Vec<Box<dyn Program<P>>>,
) {
    let model = Uniform(lam);
    let sim = Simulation::new(n, &model);
    let before = allocs();
    let report = sim.run(programs).expect("the run cannot diverge");
    let made = allocs() - before;
    let sends: u64 = report.proc_stats.iter().map(|s| s.sends).sum();
    assert!(sends > 0, "{what} λ={lam}: no sends");
    assert!(
        made * 8 < sends,
        "{what} n={n} λ={lam}: Simulation::run made {made} allocations for {sends} sends"
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
