//! Model time.
//!
//! Postal-model time is measured in *units*: one unit is the time a
//! processor spends sending (or receiving) one atomic message. [`Time`] is a
//! thin newtype over [`Ratio`] so that times and arbitrary rationals cannot
//! be mixed up in signatures; all times in this workspace are exact.
//!
//! Hot paths carry no `Time` at all. Under λ = p/q every event time is
//! `a + b·λ` for integers `a` and `b`, so a whole run lives on the lattice
//! of *ticks* `1/D` for any `D` that both 2 and q divide. The simulator's
//! queue and port accounting and the linter's lanes therefore hold times
//! as plain `i64` tick counts and convert at their edges with
//! [`Time::to_ticks`] and [`Time::from_ticks`]. A value off the lattice,
//! or past [`TICK_LIMIT`], has no tick form and stays exact.

use crate::latency::MAX_TICK_DENOMINATOR;
use crate::ratio::{gcd, Ratio};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or duration of) model time, in postal-model units.
///
/// `Time` is allowed to be negative in intermediate arithmetic (e.g. when
/// computing `f_λ(n) − λ`), but all schedule times produced by the crates in
/// this workspace are non-negative.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub Ratio);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(Ratio::ZERO);
    /// One time unit (the cost of one send or one receive).
    pub const ONE: Time = Time(Ratio::ONE);

    /// Creates a time from an integer number of units.
    pub const fn from_int(units: i128) -> Time {
        Time(Ratio::from_int(units))
    }

    /// Creates a time of `num/den` units.
    pub fn new(num: i128, den: i128) -> Time {
        Time(Ratio::new(num, den))
    }

    /// The underlying exact rational value, in units.
    pub const fn as_ratio(self) -> Ratio {
        self.0
    }

    /// Approximate value in units, for display and plotting.
    pub fn to_f64(self) -> f64 {
        self.0.to_f64()
    }

    /// Returns `true` if this time is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// Maximum of two times.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Minimum of two times.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Multiplies this time by an integer factor.
    pub fn mul_int(self, k: i128) -> Time {
        Time(self.0.mul_int(k))
    }

    /// Multiplies this time by a rational factor.
    pub fn scale(self, k: Ratio) -> Time {
        Time(self.0 * k)
    }

    /// The value as an `i64` count of ticks of `1/den`, when it lies on
    /// that lattice and its magnitude is at most [`TICK_LIMIT`]; `None`
    /// otherwise. `den` must be positive.
    ///
    /// A denominator of 1, 2 or `den` itself converts without a
    /// division; only another divisor of `den` pays one.
    #[inline]
    pub fn to_ticks(self, den: i64) -> Option<i64> {
        debug_assert!(den > 0, "tick denominator {den} must be positive");
        // A numerator past `i64` cannot give an in-range tick count.
        let num = i64::try_from(self.0.numer()).ok()?;
        let d = self.0.denom();
        let ticks = if d == den as i128 {
            num
        } else if d == 1 {
            num.checked_mul(den)?
        } else if d == 2 && den & 1 == 0 {
            num.checked_mul(den >> 1)?
        } else if d < den as i128 && den % d as i64 == 0 {
            num.checked_mul(den / d as i64)?
        } else {
            return None;
        };
        (ticks.unsigned_abs() <= TICK_LIMIT as u64).then_some(ticks)
    }

    /// The time worth `ticks` ticks of `1/den` (`from_ticks(7, 3)` = 7/3).
    /// Integers and halves reduce without a division.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[inline]
    pub fn from_ticks(ticks: i64, den: i64) -> Time {
        match den {
            1 => Time::from_int(ticks as i128),
            2 if ticks & 1 == 0 => Time::from_int((ticks >> 1) as i128),
            2 => Time(Ratio::from_reduced(ticks as i128, 2)),
            _ => Time::new(ticks as i128, den as i128),
        }
    }

    /// Checks a time read from a file (schedule JSON or a JSONL log)
    /// against the input bounds: numerator within ±2^[`INPUT_NUMER_BITS`]
    /// and denominator at most 2^[`INPUT_DENOM_BITS`]. Inside them every
    /// sum and comparison the linter forms from times and a λ within
    /// [`crate::Latency::check_input`]'s bounds fits in `i128`, so a
    /// file can never make it overflow.
    ///
    /// # Errors
    /// A message naming the value and both bounds.
    pub fn check_input(self) -> Result<Time, String> {
        let r = self.0;
        if r.numer().unsigned_abs() <= 1 << INPUT_NUMER_BITS && r.denom() <= 1 << INPUT_DENOM_BITS {
            Ok(self)
        } else {
            Err(format!(
                "{r} is out of range (a time's numerator must lie within \
                 ±2^{INPUT_NUMER_BITS} and its denominator be at most 2^{INPUT_DENOM_BITS})"
            ))
        }
    }
}

/// Bits of numerator magnitude a time read from a file may have
/// (see [`Time::check_input`]).
pub const INPUT_NUMER_BITS: u32 = 53;

/// Bits of denominator a time read from a file may have (see
/// [`Time::check_input`]).
pub const INPUT_DENOM_BITS: u32 = 32;

/// The smallest tick denominator that both `den` and `q` divide,
/// lcm(`den`, `q`), when it is at most [`MAX_TICK_DENOMINATOR`]; `None`
/// past that cap. Both must be positive. This is the one lattice rule:
/// [`crate::Latency::lattice_lcm`] puts a λ on a run's lattice with it,
/// and a finished log finds the lattice of its timestamps with it.
///
/// ```
/// use postal_model::time::lattice_lcm;
/// assert_eq!(lattice_lcm(2, 3), Some(6));
/// assert_eq!(lattice_lcm(6, 2), Some(6));
/// assert_eq!(lattice_lcm(2, (1 << 32) + 1), None);
/// ```
#[inline]
pub fn lattice_lcm(den: i64, q: i64) -> Option<i64> {
    debug_assert!(
        den > 0 && q > 0,
        "tick denominators {den}, {q} must be positive"
    );
    let lcm = if den % q == 0 {
        den
    } else {
        (den / gcd(den.into(), q.into()) as i64).checked_mul(q)?
    };
    (lcm <= MAX_TICK_DENOMINATOR).then_some(lcm)
}

/// The tick denominator `D` on which every one of `times` lies: the
/// [`lattice_lcm`] of their denominators, when it is at most
/// [`MAX_TICK_DENOMINATOR`] and every numerator fits in `i64` with
/// `|numerator|·D ≤` [`TICK_LIMIT`], so that [`Time::to_ticks`] gives
/// each of them a tick count. `None` otherwise, and a caller keeps the
/// exact times. This is the one lattice finder for a finished set of
/// times: [`sort_by_time`] sorts on its tick counts, which order
/// exactly as the times do.
///
/// ```
/// use postal_model::time::tick_lattice;
/// use postal_model::Time;
/// assert_eq!(tick_lattice([Time::new(7, 3), Time::new(-5, 2)]), Some(6));
/// assert_eq!(tick_lattice([]), Some(1));
/// assert_eq!(tick_lattice([Time::new(1, (1 << 32) + 1)]), None);
/// ```
pub fn tick_lattice(times: impl IntoIterator<Item = Time>) -> Option<i64> {
    let (mut den, mut max_num) = (1i64, 0u64);
    for t in times {
        max_num = max_num.max(i64::try_from(t.0.numer()).ok()?.unsigned_abs());
        den = lattice_lcm(den, i64::try_from(t.0.denom()).ok()?)?;
    }
    (max_num.checked_mul(den as u64)? <= TICK_LIMIT as u64).then_some(den)
}

/// Sorts `items` stably by `(at(item), rest(item))`, in place, computing
/// each key once. This is the one lattice-keyed sort:
/// [`crate::schedule::Schedule::new`], `ObsLog::sorted` and the
/// simulator's `events_from_report` sort with it.
///
/// When every `at` lies on one tick lattice ([`tick_lattice`]) and
/// there are fewer than 2³² items, the sort is linear in the items and
/// the bits of their ticks' span: a stable counting sort orders a `u32`
/// index per item by tick, one pass per 11 bits of the span; each run
/// of equal ticks is then sorted by `(rest, index)`, and the slice is
/// permuted in place along the cycles of that order. A postal-model run
/// starts its sends within its completion time, a few hundred ticks, so
/// one pass covers it. The scratch is a fixed number of buffers: each
/// item's tick, the index order (two while the span takes more than one
/// pass) and at most 2¹¹ counters; then, the ticks freed, a run mark and
/// the `(rest, index)` pair of each item. At its peak that is 17 bytes
/// per send for `Schedule::new` and 29 per event for
/// `events_from_report`, where `sort_by_cached_key` keeps 24 and 32.
/// Off the lattice the key holds the exact time (`sort_by_cached_key`),
/// which orders as the ticks do.
///
/// ```
/// use postal_model::time::sort_by_time;
/// use postal_model::Time;
/// let mut sends = [(Time::new(7, 3), 'b'), (Time::ONE, 'c'), (Time::new(7, 3), 'a')];
/// sort_by_time(&mut sends, |s| s.0, |_| ());
/// assert_eq!(sends.map(|s| s.1), ['c', 'b', 'a']);
/// ```
pub fn sort_by_time<T, R: Ord>(items: &mut [T], at: impl Fn(&T) -> Time, rest: impl Fn(&T) -> R) {
    if items.len() < 2 {
        return;
    }
    let lattice =
        tick_lattice(items.iter().map(&at)).filter(|_| u32::try_from(items.len()).is_ok());
    let Some(den) = lattice else {
        return items.sort_by_cached_key(|x| (at(x), rest(x)));
    };
    let ticks: Vec<i64> = items
        .iter()
        .map(|x| {
            let ticks = at(x).to_ticks(den);
            ticks.expect("tick_lattice bounds every tick count")
        })
        .collect();
    let order = order_by_tick(&ticks);
    let starts_run: Vec<bool> = (0..order.len())
        .map(|k| k == 0 || ticks[order[k - 1] as usize] != ticks[order[k] as usize])
        .collect();
    drop(ticks);
    let mut keyed: Vec<(R, u32)> = order
        .iter()
        .map(|&i| (rest(&items[i as usize]), i))
        .collect();
    drop(order);
    let mut run = 0;
    for k in 1..=keyed.len() {
        if k == keyed.len() || starts_run[k] {
            keyed[run..k].sort_unstable();
            run = k;
        }
    }
    drop(starts_run);
    permute(items, &mut keyed);
}

/// Bits of tick offset one counting pass of [`sort_by_time`] sorts on:
/// a span of fewer than 2^`DIGIT_BITS` ticks takes one pass over at
/// most that many counters (8 KiB), and the widest span of in-range
/// ticks, 2·[`TICK_LIMIT`], takes six.
const DIGIT_BITS: u32 = 11;

/// The indices of `ticks`, at least two and fewer than 2³², ordered
/// stably by tick: a least-significant-digit counting sort of each
/// tick's offset from the smallest, in digits of equal width, at most
/// [`DIGIT_BITS`] each.
fn order_by_tick(ticks: &[i64]) -> Vec<u32> {
    let (min, max) = ticks
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    // Both within ±TICK_LIMIT = i64::MAX/4: the span cannot overflow.
    let width = u64::BITS - ((max - min) as u64).leading_zeros();
    let passes = width.div_ceil(DIGIT_BITS).max(1);
    let digit = width.div_ceil(passes);
    let mask = (1u64 << digit) - 1;
    let mut counts = vec![0u32; 1 << digit];
    let mut order = vec![0u32; ticks.len()];
    let mut spare = Vec::new();
    for pass in 0..passes {
        let shift = pass * digit;
        let bucket = |i: u32| ((ticks[i as usize] - min) as u64 >> shift & mask) as usize;
        if pass == 0 {
            scatter(&mut counts, 0..ticks.len() as u32, bucket, &mut order);
        } else {
            // Each later pass reads the order the pass before it left.
            if spare.is_empty() {
                spare = vec![0u32; ticks.len()];
            }
            std::mem::swap(&mut order, &mut spare);
            scatter(&mut counts, spare.iter().copied(), bucket, &mut order);
        }
    }
    order
}

/// One stable counting pass: writes the indices `source` yields into
/// `out`, ordered by `bucket`, ties in the order `source` yields them.
fn scatter(
    counts: &mut [u32],
    source: impl Iterator<Item = u32> + Clone,
    bucket: impl Fn(u32) -> usize,
    out: &mut [u32],
) {
    counts.fill(0);
    for i in source.clone() {
        counts[bucket(i)] += 1;
    }
    let mut next = 0;
    for c in counts.iter_mut() {
        next += std::mem::replace(c, next);
    }
    for i in source {
        let slot = &mut counts[bucket(i)];
        out[*slot as usize] = i;
        *slot += 1;
    }
}

/// Rearranges `items` so that position `k` holds the item that stood at
/// index `keyed[k].1`, swapping along each cycle of those indices, which
/// it overwrites: a placed position points at itself.
fn permute<T, R>(items: &mut [T], keyed: &mut [(R, u32)]) {
    for start in 0..keyed.len() {
        let mut k = start;
        while keyed[k].1 as usize != start {
            let from = keyed[k].1 as usize;
            items.swap(k, from);
            keyed[k].1 = k as u32;
            k = from;
        }
        keyed[k].1 = k as u32;
    }
}

/// Largest tick count [`Time::to_ticks`] returns, in magnitude. The
/// headroom guarantees that adding two in-range counts can never
/// overflow an `i64`, so a tick sum or comparison needs no checked
/// arithmetic.
pub const TICK_LIMIT: i64 = i64::MAX / 4;

impl From<Ratio> for Time {
    fn from(r: Ratio) -> Time {
        Time(r)
    }
}

impl From<i128> for Time {
    fn from(n: i128) -> Time {
        Time::from_int(n)
    }
}

impl From<u32> for Time {
    fn from(n: u32) -> Time {
        Time::from_int(n as i128)
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Add<Ratio> for Time {
    type Output = Time;
    fn add(self, rhs: Ratio) -> Time {
        Time(self.0 + rhs)
    }
}

impl Sub<Ratio> for Time {
    type Output = Time;
    fn sub(self, rhs: Ratio) -> Time {
        Time(self.0 - rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.write_text(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::ratio;

    #[test]
    fn construction_and_accessors() {
        let t = Time::new(5, 2);
        assert_eq!(t.as_ratio(), ratio(5, 2));
        assert!((t.to_f64() - 2.5).abs() < 1e-15);
        assert!(Time::ZERO.is_zero());
        assert!(!Time::ONE.is_zero());
    }

    #[test]
    fn arithmetic() {
        let a = Time::new(5, 2);
        let b = Time::ONE;
        assert_eq!(a + b, Time::new(7, 2));
        assert_eq!(a - b, Time::new(3, 2));
        assert_eq!(a + ratio(1, 2), Time::from_int(3));
        assert_eq!(a - ratio(1, 2), Time::from_int(2));
        let mut c = a;
        c += b;
        c -= Time::new(1, 2);
        assert_eq!(c, Time::from_int(3));
    }

    #[test]
    fn ordering_and_extrema() {
        let a = Time::new(5, 2);
        let b = Time::from_int(3);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scaling() {
        assert_eq!(Time::new(5, 2).mul_int(2), Time::from_int(5));
        assert_eq!(Time::from_int(3).scale(ratio(1, 3)), Time::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(Time::new(15, 2).to_string(), "15/2");
        assert_eq!(format!("{:?}", Time::from_int(4)), "t=4");
    }

    #[test]
    fn tick_conversion() {
        assert_eq!(Time::new(5, 2).to_ticks(2), Some(5));
        assert_eq!(Time::from_int(3).to_ticks(2), Some(6));
        assert_eq!(Time::new(-7, 2).to_ticks(2), Some(-7));
        assert_eq!(Time::new(1, 3).to_ticks(2), None);
        // D = 6 holds integers, halves and thirds.
        assert_eq!(Time::new(7, 3).to_ticks(6), Some(14));
        assert_eq!(Time::new(5, 2).to_ticks(6), Some(15));
        assert_eq!(Time::from_int(4).to_ticks(6), Some(24));
        assert_eq!(Time::new(1, 6).to_ticks(6), Some(1));
        assert_eq!(Time::new(1, 4).to_ticks(6), None);
        assert_eq!(Time::new(1, 12).to_ticks(6), None);
        // An odd D holds no halves.
        assert_eq!(Time::new(1, 2).to_ticks(3), None);
        assert_eq!(Time::new(2, 3).to_ticks(3), Some(2));
        // Past the headroom, or past `i64`, there is no tick form.
        assert_eq!(
            Time::from_int(TICK_LIMIT as i128).to_ticks(1),
            Some(TICK_LIMIT)
        );
        assert_eq!(Time::from_int(TICK_LIMIT as i128).to_ticks(2), None);
        assert_eq!(Time::from_int(-(TICK_LIMIT as i128) - 1).to_ticks(1), None);
        assert_eq!(Time::from_int(i64::MAX as i128 * 4).to_ticks(1), None);
        assert_eq!(Time::from_ticks(5, 2), Time::new(5, 2));
        assert_eq!(Time::from_ticks(-4, 2), Time::from_int(-2));
        assert_eq!(Time::from_ticks(14, 6), Time::new(7, 3));
    }

    #[test]
    fn the_lattice_holds_every_time_within_the_bounds() {
        // Thirds and halves lie on sixths.
        let lattice = [Time::new(7, 3), Time::new(-5, 2), Time::ZERO];
        assert_eq!(tick_lattice(lattice), Some(6));
        // A denominator past the cap, a numerator past `i64`, and a
        // tick count past TICK_LIMIT each have no lattice.
        let big = MAX_TICK_DENOMINATOR as i128 + 1;
        assert_eq!(tick_lattice([Time::new(1, big)]), None);
        assert_eq!(tick_lattice([Time::from_int(1 << 64)]), None);
        let limit = TICK_LIMIT as i128;
        assert_eq!(tick_lattice([Time::from_int(limit)]), Some(1));
        assert_eq!(tick_lattice([Time::from_int(limit), Time::new(1, 3)]), None);
    }

    #[test]
    fn ticks_round_trip_on_every_lattice() {
        for den in [1i64, 2, 3, 6, 14] {
            for ticks in -50i64..=50 {
                let t = Time::from_ticks(ticks, den);
                assert_eq!(t.to_ticks(den), Some(ticks), "{ticks}/{den}");
            }
        }
    }
}
