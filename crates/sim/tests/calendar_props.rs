//! Property tests pinning [`CalendarQueue`] to a binary-heap oracle.
//!
//! The oracle is the seed engine's priority structure: a
//! `BinaryHeap` ordered by exact `(Time, lane, push counter)`. The
//! calendar queue must pop the *same payloads in the same order* for
//! any monotone push/pop interleaving — including same-timestamp
//! bursts (tie-breaking by lane, then push order), pushes beyond the
//! ring window (overflow heap), and times off the queue's tick lattice
//! (exact-`Ratio` fallback interleaved with the integer ring) — on
//! every lattice the engine runs: ticks of `1/D` for D ∈ {1, 2, 3, 6,
//! 14}.

use postal_model::Time;
use postal_sim::{CalendarQueue, Lane, Stamp};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The tick denominators the properties run over: integers, halves,
/// thirds, λ = 7/3's sixths and λ = 22/7's fourteenths.
const DENS: [i64; 5] = [1, 2, 3, 6, 14];

fn lane_of(code: u8) -> Lane {
    match code % 3 {
        0 => Lane::Arrival,
        1 => Lane::Deliver,
        _ => Lane::Wake,
    }
}

/// One generated operation: `kind == 0` pops, anything else pushes at
/// `frontier + delta` ticks plus `fifth`/5 of a unit. A fifth is off
/// every lattice in [`DENS`], so a nonzero `fifth` forces the exact
/// fallback.
type Op = (u8, u16, u8, u8);

/// Replays `ops` against both structures on ticks of `1/den`, asserts
/// every pop agrees, and returns the last popped time.
///
/// Pushes are offsets from the pop frontier, so the calendar queue's
/// monotonicity contract holds by construction — exactly how the
/// engine uses it.
fn replay(den: i64, ops: &[Op]) -> Result<Time, TestCaseError> {
    let mut queue: CalendarQueue<u64> = CalendarQueue::new(den);
    let mut oracle: BinaryHeap<Reverse<(Time, Lane, u64)>> = BinaryHeap::new();
    let mut payload_of_counter: Vec<u64> = Vec::new();
    let mut frontier = Time::ZERO;
    let mut counter = 0u64;
    let mut next_payload = 0u64;
    let mut exact = 0u64;

    for &(kind, delta, lane_code, fifth) in ops {
        if kind == 0 {
            let got = queue.pop();
            let want = oracle.pop();
            match (got, want) {
                (None, None) => {}
                (Some((stamp, lane, item)), Some(Reverse((t, olane, ocounter)))) => {
                    prop_assert_eq!(stamp.to_time(den), t, "pop time diverged from oracle");
                    prop_assert_eq!(stamp, Stamp::new(t, den), "popped stamp is not canonical");
                    prop_assert_eq!(lane, olane, "pop lane diverged from oracle");
                    prop_assert_eq!(
                        item,
                        payload_of_counter[ocounter as usize],
                        "pop payload diverged from oracle"
                    );
                    frontier = t;
                }
                (g, w) => {
                    return Err(TestCaseError::fail(format!(
                        "emptiness diverged: queue {g:?}, oracle {w:?}"
                    )))
                }
            }
        } else {
            // Bias the deltas: kind 1 clusters events on the same few
            // instants (ties), kind 2 reaches past the ring window
            // (overflow), kind 3 stays mid-window.
            let ticks = match kind {
                1 => (delta % 4) as i64,
                2 => delta as i64,
                _ => (delta % 64) as i64,
            };
            let t = frontier + Time::from_ticks(ticks, den) + Time::new((fifth % 3) as i128, 5);
            let stamp = Stamp::new(t, den);
            exact += u64::from(matches!(stamp, Stamp::Exact(_)));
            let lane = lane_of(lane_code);
            queue.push(stamp, lane, next_payload);
            oracle.push(Reverse((t, lane, counter)));
            payload_of_counter.push(next_payload);
            counter += 1;
            next_payload += 1;
        }
        prop_assert_eq!(queue.len(), oracle.len(), "lengths diverged");
    }
    prop_assert_eq!(queue.exact_pushes(), exact, "exact pushes miscounted");

    // Drain the remainder: the full pop order must match.
    while let Some(Reverse((t, olane, ocounter))) = oracle.pop() {
        let (stamp, lane, item) = match queue.pop() {
            Some(x) => x,
            None => return Err(TestCaseError::fail("queue drained before oracle")),
        };
        prop_assert_eq!(stamp.to_time(den), t, "drain time diverged");
        prop_assert_eq!(lane, olane, "drain lane diverged");
        prop_assert_eq!(
            item,
            payload_of_counter[ocounter as usize],
            "drain payload diverged"
        );
        frontier = t;
    }
    prop_assert!(queue.pop().is_none(), "queue longer than oracle");
    Ok(frontier)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary monotone interleavings on a random lattice, mixing
    /// ties, window overflow, and off-lattice fifths.
    #[test]
    fn matches_heap_oracle(
        d in 0usize..5,
        ops in proptest::collection::vec((0u8..4, 0u16..600, 0u8..3, 0u8..3), 1..120),
    ) {
        replay(DENS[d], &ops)?;
    }

    /// Everything at one instant: order must reduce to (lane, push
    /// order) exactly as the heap's `(time, kind_rank, counter)` key
    /// does.
    #[test]
    fn same_timestamp_bursts_break_ties_like_the_heap(
        d in 0usize..5,
        lanes in proptest::collection::vec(0u8..3, 1..40),
    ) {
        let ops: Vec<Op> = lanes
            .iter()
            .map(|&l| (1u8, 0u16, l, 0u8))
            .chain(lanes.iter().map(|_| (0u8, 0, 0, 0)))
            .collect();
        replay(DENS[d], &ops)?;
    }

    /// Purely off-lattice times (fifths): the calendar ring never
    /// fires, every event rides the exact fallback, and order still
    /// matches the oracle.
    #[test]
    fn off_lattice_streams_use_the_exact_fallback(
        d in 0usize..5,
        ops in proptest::collection::vec((0u8..2, 0u16..30, 0u8..3), 1..80),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(kind, delta, lane)| (kind, delta, lane, 1 + (delta % 2) as u8))
            .collect();
        replay(DENS[d], &ops)?;
    }

    /// Far-future pushes land in the overflow heap and must flush back
    /// into the ring in push order as the window slides over them.
    #[test]
    fn window_overflow_preserves_order(
        d in 0usize..5,
        deltas in proptest::collection::vec(0u16..2000, 1..60),
    ) {
        let ops: Vec<Op> = deltas
            .iter()
            .map(|&d| (2u8, d.min(599), (d % 3) as u8, 0u8))
            .chain(deltas.iter().map(|_| (0u8, 0, 0, 0)))
            .collect();
        replay(DENS[d], &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rounds of two same-tick bursts, one at the frontier in every
    /// lane and one 150–599 ticks ahead (in the window or past it),
    /// each round popped down to fewer events than its far burst. Every
    /// round moves the frontier to its far burst, so the window wraps at
    /// least four times while lanes drain, hand their buffers on and
    /// refill around the events left pending.
    #[test]
    fn bursts_wrap_the_window_four_times(
        d in 0usize..5,
        rounds in proptest::collection::vec((150u16..600, 1u8..12, 0u8..3, 0u8..3), 16..24),
    ) {
        let mut ops: Vec<Op> = Vec::new();
        let mut pending = 0usize;
        for (delta, burst, lane, keep) in rounds {
            for i in 0..burst {
                ops.push((1, 0, lane + i, 0));
                ops.push((2, delta, lane, 0));
            }
            pending += 2 * usize::from(burst);
            let pops = pending - usize::from(keep % burst);
            ops.extend(std::iter::repeat_n((0, 0, 0, 0), pops));
            pending -= pops;
        }
        let last = replay(DENS[d], &ops)?;
        prop_assert!(last >= Time::from_ticks(4 * 512, DENS[d]), "ended at {}", last);
    }
}

/// The lattice decides which heap a time takes: 7/3 is exact on the
/// half-unit queue and a ring tick on sixths, and a push beyond 512
/// ticks is an overflow push on either.
#[test]
fn the_lattice_decides_the_slow_paths() {
    for (den, exact) in [(2, 1), (6, 0)] {
        let mut q: CalendarQueue<()> = CalendarQueue::new(den);
        q.push(Stamp::new(Time::new(7, 3), den), Lane::Arrival, ());
        q.push(Stamp::Tick(600), Lane::Arrival, ());
        assert_eq!(q.exact_pushes(), exact, "D = {den}");
        assert_eq!(q.overflow_pushes(), 1, "D = {den}");
    }
}
