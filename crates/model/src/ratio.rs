//! Exact rational arithmetic for postal-model time.
//!
//! The postal model is parameterized by a real latency λ ≥ 1 that is
//! frequently non-integral (the paper's running example is λ = 5/2). Every
//! quantity the paper manipulates — send times, receive times, completion
//! times `f_λ(n)` — is of the form `a + b·λ` for integers `a, b`, so with a
//! rational λ all times are exact rationals. Using `f64` would turn the
//! paper's *equalities* (e.g. Theorem 6: `T_B(n, λ) = f_λ(n)`) into
//! approximate comparisons; [`Ratio`] keeps them exact.
//!
//! `Ratio` is a reduced fraction `num/den` with `den > 0`, stored in `i128`.
//! All operations normalize eagerly and panic on overflow (postal-model
//! quantities are tiny — at most a few million ticks — so overflow indicates
//! a logic error, not a capacity problem).
//!
//! Because they are tiny, every hot operation first tries 64-bit
//! arithmetic and falls back to the `i128` form only when an operand
//! does not fit: `gcd` runs on `u64` and [`Ratio::new`] normalises in
//! `i64`. When all four parts fit in `i64`, `+` and `-` form their
//! sums from single widening 64×64-bit products, which cannot
//! overflow an `i128`: an integer is added without a gcd, a shared
//! denominator adds numerators, and otherwise the scales come from a
//! `u64` gcd. `cmp` compares a shared denominator by numerator and
//! otherwise compares the two widening cross-products, with no
//! overflow check. Wider parts take one checked `i128` form each.
//! [`Ratio::write_text`] is the one routine for a ratio's text: it
//! writes digits from a table (see [`crate::text`]) and is what
//! `Display` calls. Parsing reads the text the writers emit, `digits`
//! or `digits/digits` with at most 18 digits a part, digit by digit in
//! `i64`; any other text takes the general parser. The representation
//! and every result are unchanged. `new`, `+`, `cmp` and `from_str` are
//! `#[inline]` so that the simulator, linter, readers and exporters in
//! other crates inline these paths.

use crate::time::Time;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number: reduced fraction with positive denominator.
///
/// ```
/// use postal_model::ratio::{ratio, Ratio};
///
/// let half = ratio(1, 2);
/// assert_eq!(half + ratio(1, 3), ratio(5, 6));
/// assert_eq!(ratio(-4, 8), ratio(-1, 2)); // always reduced
/// assert_eq!("5/2".parse::<Ratio>().unwrap(), ratio(5, 2));
/// assert_eq!("2.5".parse::<Ratio>().unwrap(), ratio(5, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// Greatest common divisor (non-negative; `gcd(0, 0) = 0`).
pub(crate) fn gcd(mut a: i128, mut b: i128) -> i128 {
    if let (Ok(x), Ok(y)) = (
        u64::try_from(a.unsigned_abs()),
        u64::try_from(b.unsigned_abs()),
    ) {
        return gcd_u64(x, y) as i128;
    }
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Euclid's algorithm on `u64`: one hardware division per step where
/// `i128` pays a library call, and only a few steps, because one operand
/// is nearly always a small denominator (a binary GCD would loop about
/// log₂ of the other operand times instead).
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `x` as an `i64` whose negation cannot overflow (`i64::MIN` excluded).
fn small(x: i128) -> Option<i64> {
    i64::try_from(x).ok().filter(|&v| v != i64::MIN)
}

/// `x / y` for `y > 0`, in 64 bits when `x` and `y` fit (an `i128`
/// division is a library call).
fn div(x: i128, y: i128) -> i128 {
    match (i64::try_from(x), i64::try_from(y)) {
        (Ok(a), Ok(b)) => (a / b) as i128,
        _ => x / y,
    }
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates a reduced ratio `num/den`.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    #[inline]
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "Ratio denominator must be nonzero");
        if let (Some(n), Some(d)) = (small(num), small(den)) {
            let g = gcd_u64(n.unsigned_abs(), d.unsigned_abs()) as i64;
            let (n, d) = if g == 1 { (n, d) } else { (n / g, d / g) };
            let sign = if d < 0 { -1 } else { 1 };
            return Ratio {
                num: (sign * n) as i128,
                den: (sign * d) as i128,
            };
        }
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Ratio::ZERO;
        }
        Ratio {
            num: sign * (num / g),
            den: sign * (den / g),
        }
    }

    /// Creates an integer-valued ratio.
    pub const fn from_int(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// `num/den` as given, for a caller that knows it is reduced with
    /// `den > 0`.
    pub(crate) fn from_reduced(num: i128, den: i128) -> Ratio {
        debug_assert!(den > 0 && gcd(num, den) == 1, "{num}/{den} is not reduced");
        Ratio { num, den }
    }

    /// The numerator of the reduced fraction (sign lives here).
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the reduced fraction (always positive).
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if this ratio is an integer.
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if this ratio is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// The sign of the ratio: -1, 0, or 1.
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(self) -> Ratio {
        Ratio {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Largest integer ≤ self.
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Round toward negative infinity.
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// Smallest integer ≥ self.
    pub fn ceil(self) -> i128 {
        -((-self).floor())
    }

    /// Converts to `f64` (approximate; for display and plotting only).
    pub fn to_f64(self) -> f64 {
        // An i64 converts to the same (correctly rounded) f64 as the
        // i128 it came from, without the 128-bit conversion call.
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(n), Ok(d)) => n as f64 / d as f64,
            _ => self.num as f64 / self.den as f64,
        }
    }

    /// Approximates an `f64` by a rational with denominator at most
    /// `max_den`, using continued fractions (best rational approximation).
    ///
    /// # Panics
    /// Panics if `x` is not finite or `max_den == 0`.
    pub fn approximate(x: f64, max_den: i128) -> Ratio {
        assert!(x.is_finite(), "cannot approximate a non-finite value");
        assert!(max_den >= 1, "max_den must be at least 1");
        let neg = x < 0.0;
        let mut x = x.abs();
        // Continued-fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a >= i128::MAX as f64 {
                break;
            }
            let a_i = a as i128;
            let p2 = match a_i.checked_mul(p1).and_then(|v| v.checked_add(p0)) {
                Some(v) => v,
                None => break,
            };
            let q2 = match a_i.checked_mul(q1).and_then(|v| v.checked_add(q0)) {
                Some(v) => v,
                None => break,
            };
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-12 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            // Even the integer part exceeded limits; clamp.
            return Ratio::from_int(if neg { -(max_den) } else { max_den });
        }
        let r = Ratio::new(p1, q1);
        if neg {
            -r
        } else {
            r
        }
    }

    /// Writes the ratio's text: the numerator, then `/` and the
    /// denominator unless it is 1 (`"5/2"`, `"-3"`). This is the one
    /// implementation of a ratio's text: `Display` calls it through
    /// `Formatter::write_str`, so a width or fill in the format spec
    /// leaves the bytes unchanged, and the exporters call it on their
    /// output `String` with no `core::fmt` in between.
    #[inline]
    pub fn write_text<W: fmt::Write + ?Sized>(self, out: &mut W) -> fmt::Result {
        crate::text::write_int(out, self.num)?;
        if self.den != 1 {
            out.write_str("/")?;
            crate::text::write_int(out, self.den)?;
        }
        Ok(())
    }

    /// Checked multiplication by an integer.
    pub fn mul_int(self, k: i128) -> Ratio {
        Ratio::new(
            self.num.checked_mul(k).expect("Ratio overflow in mul_int"),
            self.den,
        )
    }

    /// Minimum of two ratios.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum of two ratios.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Absolute difference `|self − other|`, the symmetric gap between
    /// two rationals. Replaces the ad-hoc two-branch comparisons that
    /// used to be duplicated wherever a gap was needed.
    pub fn abs_diff(self, other: Ratio) -> Ratio {
        (self - other).abs()
    }

    /// Clamps `self` into `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Ratio, hi: Ratio) -> Ratio {
        assert!(lo <= hi, "Ratio::clamp requires lo <= hi");
        self.max(lo).min(hi)
    }
}

/// A closed interval `[lo, hi]` of exact rationals.
///
/// The workhorse of the `postal-abs` abstract interpreter: every
/// event time there is a monotone function of λ, so propagating the
/// two endpoints through `add`/`max` interval arithmetic yields the
/// exact range of the concrete value over a λ-interval. Construction
/// checks `lo ≤ hi`, so an `Interval` is never empty or inverted.
///
/// ```
/// use postal_model::ratio::{ratio, Interval, Ratio};
///
/// let lam = Interval::new(Ratio::ONE, ratio(5, 2));
/// let shifted = lam + Interval::point(Ratio::ONE);
/// assert_eq!(shifted, Interval::new(ratio(2, 1), ratio(7, 2)));
/// assert!(shifted.contains(ratio(3, 1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: Ratio,
    hi: Ratio,
}

impl Interval {
    /// The degenerate interval `[0, 0]`.
    pub const ZERO: Interval = Interval {
        lo: Ratio::ZERO,
        hi: Ratio::ZERO,
    };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: Ratio, hi: Ratio) -> Interval {
        assert!(lo <= hi, "Interval requires lo <= hi, got [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    pub fn point(x: Ratio) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// The lower endpoint.
    pub const fn lo(self) -> Ratio {
        self.lo
    }

    /// The upper endpoint.
    pub const fn hi(self) -> Ratio {
        self.hi
    }

    /// True when both endpoints coincide.
    pub fn is_point(self) -> bool {
        self.lo == self.hi
    }

    /// The interval's width `hi − lo`.
    pub fn width(self) -> Ratio {
        self.hi - self.lo
    }

    /// True when `x ∈ [lo, hi]`.
    pub fn contains(self, x: Ratio) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True when `other ⊆ self`.
    pub fn contains_interval(self, other: Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Elementwise minimum: the range of `min(f, g)` for monotone `f, g`.
    pub fn min(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Elementwise maximum: the range of `max(f, g)` for monotone `f, g`.
    pub fn max(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The convex hull `[min(lo), max(hi)]` — the widening operator:
    /// sound but no longer exact, used where two branches of an
    /// analysis must be merged.
    pub fn widen(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The midpoint `(lo + hi) / 2` (exact — rationals are closed
    /// under halving), used to bisect a λ-range.
    pub fn midpoint(self) -> Ratio {
        (self.lo + self.hi) / Ratio::from_int(2)
    }
}

impl std::ops::Add for Interval {
    type Output = Interval;

    /// Elementwise sum: `[a, b] + [c, d] = [a+c, b+d]`. Exact for sums
    /// of monotone functions.
    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo + other.lo,
            hi: self.hi + other.hi,
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<i128> for Ratio {
    fn from(n: i128) -> Ratio {
        Ratio::from_int(n)
    }
}

impl From<i64> for Ratio {
    fn from(n: i64) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<u64> for Ratio {
    fn from(n: u64) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<i32> for Ratio {
    fn from(n: i32) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<u32> for Ratio {
    fn from(n: u32) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl From<usize> for Ratio {
    fn from(n: usize) -> Ratio {
        Ratio::from_int(n as i128)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    #[inline]
    fn add(self, rhs: Ratio) -> Ratio {
        if let (Ok(a), Ok(b), Ok(c), Ok(d)) = (
            i64::try_from(self.num),
            i64::try_from(self.den),
            i64::try_from(rhs.num),
            i64::try_from(rhs.den),
        ) {
            return add64(a, b, c, d);
        }
        // Wider parts: (a/b) + (c/d) = (a·(l/b) + c·(l/d)) / l with
        // l = lcm(b, d), checked at every step.
        let g = gcd(self.den, rhs.den);
        let lhs_scale = div(rhs.den, g);
        let rhs_scale = div(self.den, g);
        let num = self
            .num
            .checked_mul(lhs_scale)
            .and_then(|a| {
                rhs.num
                    .checked_mul(rhs_scale)
                    .and_then(|b| a.checked_add(b))
            })
            .expect("Ratio overflow in add");
        let den = self
            .den
            .checked_mul(lhs_scale)
            .expect("Ratio overflow in add");
        Ratio::new(num, den)
    }
}

/// `a/b + c/d` for reduced parts that fit in `i64` (`b, d > 0`). A
/// product of two `i64`s is below 2¹²⁶ in magnitude, so every sum
/// below is exact in `i128` without a check.
#[inline]
fn add64(a: i64, b: i64, c: i64, d: i64) -> Ratio {
    let wide = |x: i64, y: i64| x as i128 * y as i128;
    // Adding an integer keeps a reduced fraction reduced: no gcd.
    if b == 1 {
        return Ratio {
            num: wide(a, d) + c as i128,
            den: d as i128,
        };
    }
    if d == 1 {
        return Ratio {
            num: wide(c, b) + a as i128,
            den: b as i128,
        };
    }
    // Times on one lattice share their denominator: add numerators. A
    // whole result (a span of whole units, a zero delay) is recognised
    // with the one division that yields it; any other is reduced.
    if b == d {
        return match a.checked_add(c) {
            Some(num) if num % b == 0 => Ratio::from_int((num / b) as i128),
            _ => Ratio::new(a as i128 + c as i128, b as i128),
        };
    }
    // (a/b) + (c/d) = (a·(d/g) + c·(b/g)) / (b·(d/g)) with g = gcd(b, d).
    let g = gcd_u64(b as u64, d as u64) as i64;
    let (lhs_scale, rhs_scale) = (d / g, b / g);
    Ratio::new(wide(a, lhs_scale) + wide(c, rhs_scale), wide(b, lhs_scale))
}

impl Sub for Ratio {
    type Output = Ratio;
    #[inline]
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        // Cross-reduce before multiplying to delay overflow.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = div(self.num, g1)
            .checked_mul(div(rhs.num, g2))
            .expect("Ratio overflow in mul");
        let den = div(self.den, g2)
            .checked_mul(div(rhs.den, g1))
            .expect("Ratio overflow in mul");
        Ratio::new(num, den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        assert!(!rhs.is_zero(), "Ratio division by zero");
        self * Ratio::new(rhs.den, rhs.num)
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, rhs: Ratio) {
        *self = *self * rhs;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, rhs: Ratio) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    #[inline]
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Denominators are reduced and positive, so a shared one (the
        // common case: times on one lattice) compares by numerator.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b vs c/d  ⇔  a·d vs c·b  (b, d > 0). With 64-bit parts each
        // product is one widening multiply and cannot overflow.
        if let (Ok(a), Ok(b), Ok(c), Ok(d)) = (
            i64::try_from(self.num),
            i64::try_from(self.den),
            i64::try_from(other.num),
            i64::try_from(other.den),
        ) {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        // Otherwise directly when neither product overflows.
        if let (Some(lhs), Some(rhs)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return lhs.cmp(&rhs);
        }
        // Cross-reduce first to delay overflow.
        let g_num = gcd(self.num, other.num);
        let g_den = gcd(self.den, other.den);
        let (an, ad) = (self.num / g_num.max(1), self.den / g_den);
        let (bn, bd) = (other.num / g_num.max(1), other.den / g_den);
        let lhs = an.checked_mul(bd).expect("Ratio overflow in cmp");
        let rhs = bn.checked_mul(ad).expect("Ratio overflow in cmp");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_text(f)
    }
}

/// Error parsing a [`Ratio`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRatioError(String);

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ratio: {}", self.0)
    }
}

impl std::error::Error for ParseRatioError {}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"3"`, `"5/2"`, or a decimal such as `"2.5"`. A value an
    /// `i128` fraction cannot hold is an error, not a panic.
    #[inline]
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        match parse_digits(s.as_bytes()) {
            Some(r) => Ok(r),
            None => parse_general(s),
        }
    }
}

/// The text every writer emits for a time: `digits` or `digits/digits`,
/// each part at most [`FAST_DIGITS`] digits (so below 10¹⁸, within
/// `i64`) and a nonzero denominator, read digit by digit. `None` for any
/// other text, which [`parse_general`] then reads.
#[inline]
fn parse_digits(text: &[u8]) -> Option<Ratio> {
    let (num, rest) = leading_digits(text)?;
    match rest {
        [] => Some(Ratio::from_int(num as i128)),
        // Integers and halves reduce without a division.
        [b'/', den @ ..] => match leading_digits(den)? {
            (den, []) if den != 0 => Some(Time::from_ticks(num, den).0),
            _ => None,
        },
        _ => None,
    }
}

/// Most digits [`parse_digits`] reads in one part.
const FAST_DIGITS: usize = 18;

/// The value of the 1 to [`FAST_DIGITS`] ASCII digits `text` starts
/// with, and the bytes after them.
#[inline]
fn leading_digits(text: &[u8]) -> Option<(i64, &[u8])> {
    let len = text
        .iter()
        .take(FAST_DIGITS + 1)
        .take_while(|b| b.is_ascii_digit())
        .count();
    if len == 0 || len > FAST_DIGITS {
        return None;
    }
    let value = text[..len]
        .iter()
        .fold(0i64, |v, &b| v * 10 + i64::from(b - b'0'));
    Some((value, &text[len..]))
}

/// Every form [`Ratio::from_str`] accepts: an integer, `num/den` or a
/// decimal, with surrounding blanks and signs.
fn parse_general(s: &str) -> Result<Ratio, ParseRatioError> {
    let s = s.trim();
    if let Some((n, d)) = s.split_once('/') {
        let num: i128 = n.trim().parse().map_err(|_| ParseRatioError(s.into()))?;
        let den: i128 = d.trim().parse().map_err(|_| ParseRatioError(s.into()))?;
        // Reducing may negate either part, and `i128::MIN` has no
        // negation.
        if den == 0 || num == i128::MIN || den == i128::MIN {
            return Err(ParseRatioError(s.into()));
        }
        return Ok(Ratio::new(num, den));
    }
    if let Some((int_part, frac_part)) = s.split_once('.') {
        let neg = int_part.trim_start().starts_with('-');
        let int: i128 = if int_part.is_empty() || int_part == "-" {
            0
        } else {
            int_part.parse().map_err(|_| ParseRatioError(s.into()))?
        };
        if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseRatioError(s.into()));
        }
        let frac: i128 = frac_part.parse().map_err(|_| ParseRatioError(s.into()))?;
        let scale = 10i128
            .checked_pow(frac_part.len() as u32)
            .ok_or_else(|| ParseRatioError(s.into()))?;
        // int ± p/q is (int·q ± p)/q, reduced because p/q is: an
        // overflow is a parse error, not a panic.
        let Ratio { num: p, den: q } = Ratio::new(frac, scale);
        let num = int
            .checked_mul(q)
            .and_then(|v| {
                if neg {
                    v.checked_sub(p)
                } else {
                    v.checked_add(p)
                }
            })
            .filter(|&v| v != i128::MIN)
            .ok_or_else(|| ParseRatioError(s.into()))?;
        return Ok(Ratio::from_reduced(num, q));
    }
    let n: i128 = s.parse().map_err(|_| ParseRatioError(s.into()))?;
    Ok(Ratio::from_int(n))
}

/// Convenience constructor: `ratio(5, 2)` is 5/2.
pub fn ratio(num: i128, den: i128) -> Ratio {
    Ratio::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalizes_on_construction() {
        assert_eq!(Ratio::new(4, 8), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-4, 8), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(4, -8), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(-4, -8), Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7), Ratio::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let half = ratio(1, 2);
        let third = ratio(1, 3);
        assert_eq!(half + third, ratio(5, 6));
        assert_eq!(half - third, ratio(1, 6));
        assert_eq!(half * third, ratio(1, 6));
        assert_eq!(half / third, ratio(3, 2));
        assert_eq!(-half, ratio(-1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = ratio(5, 2);
        x += Ratio::ONE;
        assert_eq!(x, ratio(7, 2));
        x -= ratio(1, 2);
        assert_eq!(x, Ratio::from_int(3));
        x *= ratio(2, 3);
        assert_eq!(x, Ratio::from_int(2));
        x /= ratio(4, 1);
        assert_eq!(x, ratio(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(ratio(1, 2) < ratio(2, 3));
        assert!(ratio(-1, 2) < ratio(1, 3));
        assert!(ratio(5, 2) > Ratio::from_int(2));
        assert_eq!(ratio(3, 6).cmp(&ratio(1, 2)), Ordering::Equal);
    }

    #[test]
    fn floor_and_ceil() {
        assert_eq!(ratio(5, 2).floor(), 2);
        assert_eq!(ratio(5, 2).ceil(), 3);
        assert_eq!(ratio(-5, 2).floor(), -3);
        assert_eq!(ratio(-5, 2).ceil(), -2);
        assert_eq!(Ratio::from_int(4).floor(), 4);
        assert_eq!(Ratio::from_int(4).ceil(), 4);
        assert_eq!(Ratio::ZERO.floor(), 0);
        assert_eq!(Ratio::ZERO.ceil(), 0);
    }

    #[test]
    #[should_panic(expected = "Ratio overflow in add")]
    fn add_overflow_panics_on_a_shared_denominator() {
        let _ = Ratio::from_int(i128::MAX) + Ratio::ONE;
    }

    #[test]
    #[should_panic(expected = "Ratio overflow in add")]
    fn add_overflow_panics_across_denominators() {
        let _ = ratio(i128::MAX, 2) + ratio(1, 3);
    }

    #[test]
    #[should_panic(expected = "Ratio overflow in mul")]
    fn mul_overflow_panics() {
        let _ = Ratio::from_int(i128::MAX / 2 + 1) * Ratio::from_int(2);
    }

    #[test]
    #[should_panic(expected = "Ratio overflow in cmp")]
    fn cmp_overflow_panics() {
        let _ = ratio(i128::MAX, 3).cmp(&ratio(i128::MAX - 1, 5));
    }

    #[test]
    fn fast_paths_match_the_wide_forms() {
        // i64::MIN takes the i128 normalisation; its negation fits there.
        assert_eq!(Ratio::new(i64::MIN as i128, -2), Ratio::from_int(1 << 62));
        assert_eq!(gcd(i64::MIN as i128, 1 << 40), 1 << 40);
        assert_eq!(gcd(1 << 70, 1 << 66), 1 << 66);
        assert_eq!(ratio(1, 1 << 64).to_string(), "1/18446744073709551616");
        assert_eq!(
            Ratio::from_int(-(1 << 64)).to_string(),
            "-18446744073709551616"
        );
        assert!(ratio(1 << 100, 3) > ratio((1 << 100) - 1, 3));
    }

    #[test]
    fn parse_forms() {
        assert_eq!("5/2".parse::<Ratio>().unwrap(), ratio(5, 2));
        assert_eq!("2.5".parse::<Ratio>().unwrap(), ratio(5, 2));
        assert_eq!("3".parse::<Ratio>().unwrap(), Ratio::from_int(3));
        assert_eq!("-1.25".parse::<Ratio>().unwrap(), ratio(-5, 4));
        assert_eq!(" 7 / 4 ".parse::<Ratio>().unwrap(), ratio(7, 4));
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("abc".parse::<Ratio>().is_err());
        assert!("1.2e3".parse::<Ratio>().is_err());
    }

    #[test]
    fn unrepresentable_text_is_an_error_not_a_panic() {
        let max = i128::MAX;
        let min = i128::MIN;
        for text in [
            format!("{max}.5"),
            format!("{min}.5"),
            format!("{min}.0"),
            format!("{min}/-1"),
            format!("1/{min}"),
        ] {
            assert!(text.parse::<Ratio>().is_err(), "{text}");
        }
        // The largest decimals that fit still parse exactly.
        assert_eq!(
            format!("{max}.0").parse::<Ratio>(),
            Ok(Ratio::from_int(max))
        );
        assert_eq!(
            format!("{}.5", max / 2 - 1).parse::<Ratio>(),
            Ok(ratio(max - 2, 2))
        );
        assert_eq!(
            format!("-{}.5", max / 2 - 1).parse::<Ratio>(),
            Ok(ratio(2 - max, 2))
        );
    }

    #[test]
    fn the_digit_path_reads_what_the_general_parser_reads() {
        let digits = |k: usize| "9".repeat(k);
        let cases = [
            digits(18),
            digits(19),
            digits(20),
            format!("{}/{}", digits(18), digits(18)),
            format!("{}/{}", digits(19), 7),
            format!("{}/{}", 7, digits(19)),
            format!("1/{}", digits(20)),
            "000000000000000000000000000042".into(),
            "0042/0006".into(),
            "0/7".into(),
            "4/2".into(),
            "5/0".into(),
            "00/00".into(),
            "7/".into(),
            "/7".into(),
            "1/2/3".into(),
            "+5/2".into(),
            " 5/2".into(),
        ];
        for text in &cases {
            let fast = parse_digits(text.as_bytes());
            let general = parse_general(text);
            assert_eq!(text.parse::<Ratio>(), general, "{text:?}");
            if let Some(r) = fast {
                assert_eq!(Ok(r), general, "{text:?}");
            }
        }
        // 18 digits a part take the digit path; 19 or 20 do not, and
        // the general parser reads them in `i128`.
        assert_eq!(
            parse_digits(digits(18).as_bytes()),
            Some(Ratio::from_int(999_999_999_999_999_999))
        );
        assert_eq!(parse_digits(digits(19).as_bytes()), None);
        assert_eq!(
            digits(20).parse::<Ratio>(),
            Ok(Ratio::from_int(99_999_999_999_999_999_999))
        );
        assert_eq!(parse_digits(b"0/7"), Some(Ratio::ZERO));
        assert_eq!(parse_digits(b"4/2"), Some(Ratio::from_int(2)));
        assert_eq!(parse_digits(b"5/0"), None);
        assert_eq!("5/0".parse::<Ratio>(), Err(ParseRatioError("5/0".into())));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn from_str_equals_the_general_parser(
            picks in collection::vec(0usize..35, 0..=40),
        ) {
            // Digits weigh three times the other symbols, so whole
            // numbers and fractions are drawn as well as junk.
            const SYMBOLS: &[u8] = b"0123456789/+-. ";
            let text: String = picks
                .iter()
                .map(|&i| char::from(SYMBOLS.get(i).copied().unwrap_or(b'0' + (i % 10) as u8)))
                .collect();
            prop_assert_eq!(text.parse::<Ratio>(), parse_general(&text), "{:?}", text);
        }

        #[test]
        fn digit_fractions_equal_the_general_parser(
            num in 0usize..=22,
            den in 0usize..=22,
            seed in any::<u64>(),
        ) {
            // Parts of 0 to 22 digits, across the 18-digit edge.
            let mut state = seed;
            let mut part = |len: usize| -> String {
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        char::from(b'0' + (state >> 60) as u8 % 10)
                    })
                    .collect()
            };
            for text in [part(num), format!("{}/{}", part(num), part(den))] {
                prop_assert_eq!(text.parse::<Ratio>(), parse_general(&text), "{:?}", text);
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(ratio(5, 2).to_string(), "5/2");
        assert_eq!(Ratio::from_int(-3).to_string(), "-3");
        assert_eq!(Ratio::ZERO.to_string(), "0");
    }

    #[test]
    fn approximate_recovers_simple_fractions() {
        assert_eq!(Ratio::approximate(2.5, 1000), ratio(5, 2));
        assert_eq!(Ratio::approximate(0.333333333333, 1000), ratio(1, 3));
        assert_eq!(Ratio::approximate(-1.25, 1000), ratio(-5, 4));
        assert_eq!(Ratio::approximate(7.0, 1000), Ratio::from_int(7));
        // π with a small denominator bound gives the classic 22/7.
        assert_eq!(Ratio::approximate(std::f64::consts::PI, 10), ratio(22, 7));
    }

    #[test]
    fn to_f64_roundtrip() {
        assert!((ratio(5, 2).to_f64() - 2.5).abs() < 1e-15);
        assert!((ratio(-1, 3).to_f64() + 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn min_max_abs_signum() {
        assert_eq!(ratio(1, 2).min(ratio(1, 3)), ratio(1, 3));
        assert_eq!(ratio(1, 2).max(ratio(1, 3)), ratio(1, 2));
        assert_eq!(ratio(-5, 2).abs(), ratio(5, 2));
        assert_eq!(ratio(-5, 2).signum(), -1);
        assert_eq!(Ratio::ZERO.signum(), 0);
        assert_eq!(ratio(5, 2).signum(), 1);
    }

    #[test]
    fn gcd_properties() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 0);
    }

    #[test]
    fn abs_diff_is_symmetric_and_nonnegative() {
        assert_eq!(ratio(5, 2).abs_diff(Ratio::ONE), ratio(3, 2));
        assert_eq!(Ratio::ONE.abs_diff(ratio(5, 2)), ratio(3, 2));
        assert_eq!(ratio(-1, 2).abs_diff(ratio(1, 2)), Ratio::ONE);
        assert_eq!(ratio(7, 3).abs_diff(ratio(7, 3)), Ratio::ZERO);
    }

    #[test]
    fn clamp_pins_to_the_range() {
        let (lo, hi) = (Ratio::ONE, ratio(5, 2));
        assert_eq!(ratio(1, 2).clamp(lo, hi), lo);
        assert_eq!(ratio(7, 2).clamp(lo, hi), hi);
        assert_eq!(ratio(3, 2).clamp(lo, hi), ratio(3, 2));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn clamp_rejects_inverted_range() {
        let _ = Ratio::ONE.clamp(ratio(5, 2), Ratio::ONE);
    }

    #[test]
    fn interval_construction_and_accessors() {
        let i = Interval::new(Ratio::ONE, ratio(5, 2));
        assert_eq!(i.lo(), Ratio::ONE);
        assert_eq!(i.hi(), ratio(5, 2));
        assert_eq!(i.width(), ratio(3, 2));
        assert!(!i.is_point());
        assert!(Interval::point(ratio(2, 1)).is_point());
        assert_eq!(Interval::ZERO, Interval::point(Ratio::ZERO));
        assert_eq!(i.to_string(), "[1, 5/2]");
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_interval_panics() {
        let _ = Interval::new(ratio(5, 2), Ratio::ONE);
    }

    #[test]
    fn interval_arithmetic_is_elementwise() {
        let a = Interval::new(Ratio::ONE, ratio(2, 1));
        let b = Interval::new(ratio(1, 2), ratio(5, 2));
        assert_eq!(a + b, Interval::new(ratio(3, 2), ratio(9, 2)));
        assert_eq!(a.max(b), Interval::new(Ratio::ONE, ratio(5, 2)));
        assert_eq!(a.min(b), Interval::new(ratio(1, 2), ratio(2, 1)));
    }

    #[test]
    fn interval_containment_and_widening() {
        let a = Interval::new(Ratio::ONE, ratio(2, 1));
        let b = Interval::new(ratio(3, 1), ratio(4, 1));
        assert!(a.contains(ratio(3, 2)));
        assert!(!a.contains(ratio(5, 2)));
        let hull = a.widen(b);
        assert_eq!(hull, Interval::new(Ratio::ONE, ratio(4, 1)));
        assert!(hull.contains_interval(a) && hull.contains_interval(b));
        assert!(!a.contains_interval(hull));
        assert_eq!(a.midpoint(), ratio(3, 2));
    }
}
