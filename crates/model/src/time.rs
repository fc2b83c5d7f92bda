//! Model time.
//!
//! Postal-model time is measured in *units*: one unit is the time a
//! processor spends sending (or receiving) one atomic message. [`Time`] is a
//! thin newtype over [`Ratio`] so that times and arbitrary rationals cannot
//! be mixed up in signatures; all times in this workspace are exact.
//!
//! For the lint hot path there is a second, faster representation:
//! [`FastTime`] holds the same value as an `i64` count of *half-units*
//! whenever the value lies on the half-integer lattice (which covers
//! every integer and half-integer λ the paper uses), and falls back to
//! the exact [`Ratio`] form otherwise. Both representations are exact;
//! they differ only in speed.

use crate::ratio::Ratio;
use std::cmp::Ordering;
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

    /// The value as an `i64` count of half-units, when it lies on the
    /// half-integer lattice and is small enough for overflow-free
    /// fixed-point arithmetic (see [`FastTime`]). `None` otherwise.
    pub fn to_half_units(self) -> Option<i64> {
        let half = match self.0.denom() {
            1 => self.0.numer().checked_mul(2)?,
            2 => self.0.numer(),
            _ => return None,
        };
        let half = i64::try_from(half).ok()?;
        (half.abs() <= FIXED_LIMIT).then_some(half)
    }

    /// The time worth `half` half-units (`from_half_units(5)` = 5/2).
    pub fn from_half_units(half: i64) -> Time {
        Time::new(half as i128, 2)
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

/// Largest magnitude (in half-units) [`FastTime`] keeps in fixed-point
/// form. The headroom guarantees that adding two in-range values can
/// never overflow an `i64`, so a single comparison or sum needs no
/// checked arithmetic.
pub const FIXED_LIMIT: i64 = i64::MAX / 4;

/// A dual-representation time: `i64` fixed-point in half-units with a
/// transparent exact-[`Ratio`] fallback.
///
/// Every value is exact in either form; `Fixed` is just cheaper. The
/// representation is canonical — any value that fits the half-unit
/// lattice within [`FIXED_LIMIT`] is held as `Fixed`, so derived
/// equality and hashing agree with value equality. Arithmetic promotes
/// to `Exact` when a result leaves the fixed-point domain and demotes
/// back when it re-enters it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FastTime(Repr);

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Repr {
    /// Count of half-units; |value| ≤ [`FIXED_LIMIT`].
    Fixed(i64),
    /// Exact fallback for values off the lattice or out of range.
    Exact(Time),
}

impl FastTime {
    /// Time zero.
    pub const ZERO: FastTime = FastTime(Repr::Fixed(0));
    /// One time unit (two half-units).
    pub const ONE: FastTime = FastTime(Repr::Fixed(2));

    /// Converts an exact time, picking the fixed-point form when the
    /// value lies on the half-integer lattice within range.
    pub fn from_time(t: Time) -> FastTime {
        match t.to_half_units() {
            Some(h) => FastTime(Repr::Fixed(h)),
            None => FastTime(Repr::Exact(t)),
        }
    }

    /// The exact time this value denotes. Lossless for both forms.
    pub fn to_time(self) -> Time {
        match self.0 {
            Repr::Fixed(h) => Time::from_half_units(h),
            Repr::Exact(t) => t,
        }
    }

    /// True when held in the `i64` fixed-point form.
    pub fn is_fixed(self) -> bool {
        matches!(self.0, Repr::Fixed(_))
    }

    /// The `i64` half-unit count when the value is held in fixed-point
    /// form, `None` for the exact fallback. Because the representation
    /// is canonical, `None` means the value genuinely lies off the
    /// half-integer lattice (or beyond [`FIXED_LIMIT`]) — a calendar
    /// queue keyed on half-ticks can therefore route on this accessor
    /// alone, with no risk of a `Fixed` and an `Exact` value denoting
    /// the same instant.
    pub fn as_half_units(self) -> Option<i64> {
        match self.0 {
            Repr::Fixed(h) => Some(h),
            Repr::Exact(_) => None,
        }
    }

    /// The fixed-point value worth `half` half-units.
    ///
    /// # Panics
    /// Panics if `|half| > FIXED_LIMIT` — such a value must be built via
    /// [`FastTime::from_time`] so it lands in the exact fallback form.
    pub fn from_half_units(half: i64) -> FastTime {
        assert!(
            half.abs() <= FIXED_LIMIT,
            "half-unit count {half} outside the fixed-point range"
        );
        FastTime(Repr::Fixed(half))
    }

    /// Maximum of two values.
    pub fn max(self, other: FastTime) -> FastTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Minimum of two values.
    pub fn min(self, other: FastTime) -> FastTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl From<Time> for FastTime {
    fn from(t: Time) -> FastTime {
        FastTime::from_time(t)
    }
}

impl Add for FastTime {
    type Output = FastTime;
    fn add(self, rhs: FastTime) -> FastTime {
        match (self.0, rhs.0) {
            // In-range operands cannot overflow (|a| + |b| ≤ i64::MAX/2);
            // an out-of-range *sum* re-enters via from_time's range check.
            (Repr::Fixed(a), Repr::Fixed(b)) if (a + b).abs() <= FIXED_LIMIT => {
                FastTime(Repr::Fixed(a + b))
            }
            _ => FastTime::from_time(self.to_time() + rhs.to_time()),
        }
    }
}

impl Sub for FastTime {
    type Output = FastTime;
    fn sub(self, rhs: FastTime) -> FastTime {
        match (self.0, rhs.0) {
            (Repr::Fixed(a), Repr::Fixed(b)) if (a - b).abs() <= FIXED_LIMIT => {
                FastTime(Repr::Fixed(a - b))
            }
            _ => FastTime::from_time(self.to_time() - rhs.to_time()),
        }
    }
}

impl Ord for FastTime {
    fn cmp(&self, other: &FastTime) -> Ordering {
        match (self.0, other.0) {
            (Repr::Fixed(a), Repr::Fixed(b)) => a.cmp(&b),
            _ => self.to_time().cmp(&other.to_time()),
        }
    }
}

impl PartialOrd for FastTime {
    fn partial_cmp(&self, other: &FastTime) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for FastTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Repr::Fixed(h) => write!(f, "fast[{h}/2]"),
            Repr::Exact(t) => write!(f, "exact[{}]", t.0),
        }
    }
}

impl fmt::Display for FastTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_time())
    }
}

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
        write!(f, "{}", self.0)
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
    fn half_unit_conversion() {
        assert_eq!(Time::new(5, 2).to_half_units(), Some(5));
        assert_eq!(Time::from_int(3).to_half_units(), Some(6));
        assert_eq!(Time::new(-7, 2).to_half_units(), Some(-7));
        assert_eq!(Time::new(1, 3).to_half_units(), None);
        assert_eq!(Time::from_int(i64::MAX as i128).to_half_units(), None);
        assert_eq!(Time::from_half_units(5), Time::new(5, 2));
        assert_eq!(Time::from_half_units(-4), Time::from_int(-2));
    }

    #[test]
    fn fast_time_round_trips_and_stays_fixed_on_the_lattice() {
        for (num, den) in [(0, 1), (5, 2), (-3, 2), (7, 1), (1_000_000, 2)] {
            let t = Time::new(num, den);
            let f = FastTime::from_time(t);
            assert!(f.is_fixed(), "{t:?}");
            assert_eq!(f.to_time(), t);
        }
        let third = FastTime::from_time(Time::new(1, 3));
        assert!(!third.is_fixed());
        assert_eq!(third.to_time(), Time::new(1, 3));
    }

    #[test]
    fn fast_time_arithmetic_and_ordering_match_time() {
        let vals = [
            Time::ZERO,
            Time::ONE,
            Time::new(5, 2),
            Time::new(-3, 2),
            Time::new(1, 3),
            Time::new(22, 7),
        ];
        for &a in &vals {
            for &b in &vals {
                let (fa, fb) = (FastTime::from_time(a), FastTime::from_time(b));
                assert_eq!((fa + fb).to_time(), a + b);
                assert_eq!((fa - fb).to_time(), a - b);
                assert_eq!(fa.cmp(&fb), a.cmp(&b));
                assert_eq!(fa == fb, a == b);
                assert_eq!(fa.max(fb).to_time(), a.max(b));
                assert_eq!(fa.min(fb).to_time(), a.min(b));
            }
        }
    }

    #[test]
    fn fast_time_half_unit_accessors() {
        assert_eq!(
            FastTime::from_time(Time::new(5, 2)).as_half_units(),
            Some(5)
        );
        assert_eq!(
            FastTime::from_time(Time::from_int(-3)).as_half_units(),
            Some(-6)
        );
        assert_eq!(FastTime::from_time(Time::new(1, 3)).as_half_units(), None);
        assert_eq!(
            FastTime::from_half_units(7),
            FastTime::from_time(Time::new(7, 2))
        );
        assert!(FastTime::from_half_units(FIXED_LIMIT).is_fixed());
    }

    #[test]
    #[should_panic(expected = "outside the fixed-point range")]
    fn fast_time_from_half_units_rejects_out_of_range() {
        let _ = FastTime::from_half_units(FIXED_LIMIT + 1);
    }

    #[test]
    fn fast_time_overflow_adjacent_values_fall_back_exactly() {
        // Just inside the fixed-point range...
        let edge = FastTime::from_time(Time::from_half_units(FIXED_LIMIT));
        assert!(edge.is_fixed());
        // ...and one unit past it: promoted to the exact form, with the
        // value still exact.
        let over = edge + FastTime::ONE;
        assert!(!over.is_fixed());
        assert_eq!(
            over.to_time(),
            Time::from_half_units(FIXED_LIMIT) + Time::ONE
        );
        // Coming back under the limit demotes to fixed again.
        let back = over - FastTime::ONE;
        assert!(back.is_fixed());
        assert_eq!(back, edge);
    }
}
