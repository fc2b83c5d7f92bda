//! Property tests for [`sort_by_time`], the one lattice-keyed sort.
//!
//! The oracle is the composition the sort replaced: `sort_by_cached_key`
//! on `(tick count, rest)` when [`tick_lattice`] finds a lattice, on
//! `(Time, rest)` otherwise. Each item carries its input index, so
//! comparing whole items checks stability among equal keys too. The
//! inputs cover:
//!
//! * `rest` keys drawn from four values, so keys tie often;
//! * negative ticks, on lattices 1, 2, 3 and 6;
//! * tick spans from 0 up to near [`TICK_LIMIT`], which take from one
//!   counting pass up to six;
//! * inputs already sorted, reversed, and sorted with 5 % of the items
//!   moved;
//! * times off every lattice, which take the exact arm.

use postal_model::time::{sort_by_time, tick_lattice, TICK_LIMIT};
use postal_model::Time;
use proptest::prelude::*;

/// An item: its time, a `rest` key and its input index.
type Item = (Time, u8, usize);

/// The sort `sort_by_time` replaced, kept as the oracle.
fn oracle(items: &mut [Item]) {
    match tick_lattice(items.iter().map(|x| x.0)) {
        Some(den) => items.sort_by_cached_key(|x| {
            let ticks = x.0.to_ticks(den);
            (ticks.expect("tick_lattice bounds every tick count"), x.1)
        }),
        None => items.sort_by_cached_key(|x| (x.0, x.1)),
    }
}

/// SplitMix64, to draw a case's items from one seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=max`.
    fn upto(&mut self, max: u64) -> u64 {
        match max.checked_add(1) {
            Some(bound) => self.next() % bound,
            None => self.next(),
        }
    }
}

/// The input orders a case can take.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Random,
    Sorted,
    Reversed,
    /// Sorted, then 5 % of the items moved to random places.
    NearlySorted,
}

/// `len` items on the lattice of ticks of `1/den`, spanning at most
/// `2^width − 1` ticks from a start that may be negative, with `off`
/// times off every lattice mixed in, in the order `shape` gives.
fn items(seed: u64, len: usize, den: i64, width: u32, off: usize, shape: Shape) -> Vec<Item> {
    let mut rng = Rng(seed);
    // Within ±TICK_LIMIT/den every tick count stays within TICK_LIMIT
    // on the lattice `tick_lattice` finds.
    let limit = (TICK_LIMIT / den) as u64;
    let span = ((1u64 << width) - 1).min(2 * limit);
    let lo = -(limit as i64) + rng.upto(2 * limit - span) as i64;
    let mut items: Vec<Item> = (0..len)
        .map(|i| {
            let ticks = lo + rng.upto(span) as i64;
            (Time::from_ticks(ticks, den), rng.upto(3) as u8, i)
        })
        .collect();
    for _ in 0..off {
        // 2^32 + 15 is prime: every such time keeps that denominator,
        // past the lattice cap of 2^32.
        let num = 1 + rng.upto(1 << 20) as i128;
        let at = Time::new(if rng.upto(1) == 0 { num } else { -num }, (1 << 32) + 15);
        let k = rng.upto(items.len() as u64) as usize;
        items.insert(k, (at, rng.upto(3) as u8, 0));
    }
    match shape {
        Shape::Random => {}
        Shape::Sorted => oracle(&mut items),
        Shape::Reversed => {
            oracle(&mut items);
            items.reverse();
        }
        Shape::NearlySorted => {
            oracle(&mut items);
            for _ in 0..items.len() / 20 {
                let from = rng.upto(items.len() as u64 - 1) as usize;
                let item = items.remove(from);
                let to = rng.upto(items.len() as u64) as usize;
                items.insert(to, item);
            }
        }
    }
    for (i, item) in items.iter_mut().enumerate() {
        item.2 = i;
    }
    items
}

/// Sorts `items` both ways and compares every item, index included.
fn agree(items: Vec<Item>) -> Result<(), TestCaseError> {
    let mut want = items.clone();
    oracle(&mut want);
    let mut got = items;
    sort_by_time(&mut got, |x| x.0, |x| x.1);
    prop_assert_eq!(got, want);
    Ok(())
}

const SHAPES: [Shape; 4] = [
    Shape::Random,
    Shape::Sorted,
    Shape::Reversed,
    Shape::NearlySorted,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_counting_sort_orders_as_the_cached_key_sort(
        seed in any::<u64>(),
        len in 0usize..400,
        den in 0usize..4,
        width in 0u32..=62,
        shape in 0usize..4,
    ) {
        let den = [1i64, 2, 3, 6][den];
        let items = items(seed, len, den, width, 0, SHAPES[shape]);
        prop_assert!(tick_lattice(items.iter().map(|x| x.0)).is_some());
        agree(items)?;
    }

    #[test]
    fn times_off_every_lattice_order_as_the_cached_key_sort(
        seed in any::<u64>(),
        len in 0usize..200,
        den in 0usize..4,
        width in 0u32..=40,
        off in 1usize..4,
        shape in 0usize..4,
    ) {
        let den = [1i64, 2, 3, 6][den];
        let items = items(seed, len, den, width, off, SHAPES[shape]);
        prop_assert!(tick_lattice(items.iter().map(|x| x.0)).is_none());
        agree(items)?;
    }
}

#[test]
fn every_width_and_shape_orders_as_the_cached_key_sort() {
    // Every span width, so each count of digit passes, one to six, and
    // each boundary between them, meets every shape and lattice.
    for width in 0..=62 {
        for (d, den) in [1i64, 2, 3, 6].into_iter().enumerate() {
            for (s, shape) in SHAPES.into_iter().enumerate() {
                let seed = (width as u64) << 8 | (d as u64) << 4 | s as u64;
                agree(items(seed, 300, den, width, 0, shape)).unwrap();
            }
        }
    }
}
