//! The communication-latency parameter λ.
//!
//! Definition 2 of the paper: if processor `p` sends a message at time `t`,
//! `p` is busy sending during `[t, t+1]` and the recipient `q` is busy
//! receiving during `[t+λ−1, t+λ]`. The parameter λ ≥ 1 is the ratio between
//! door-to-door delivery time and the sender's own send time; λ = 1 recovers
//! the telephone model.
//!
//! [`Latency`] stores λ as an exact rational `p/q` (in lowest terms). All
//! postal-model event times are then multiples of the *tick* `1/q`, which is
//! what lets [`crate::fib::GenFib`] evaluate the generalized Fibonacci step
//! function `F_λ` exactly by walking the tick lattice.

use crate::ratio::Ratio;
use crate::time::Time;
use std::fmt;
use std::str::FromStr;

/// Bits of numerator and denominator a λ read from a file may have
/// (see [`Latency::check_input`]).
pub const INPUT_LAMBDA_BITS: u32 = 16;

/// Largest tick denominator [`crate::time::lattice_lcm`] builds. At 2^32 a
/// tick count within [`crate::time::TICK_LIMIT`] still spans 2^29 time
/// units.
pub const MAX_TICK_DENOMINATOR: i64 = 1 << 32;

/// The postal-model communication latency λ ≥ 1, stored exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Latency(Ratio);

/// Error constructing a [`Latency`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatencyError {
    /// λ < 1 is not meaningful: delivery cannot finish before the send does.
    TooSmall(Ratio),
    /// The string could not be parsed as a rational number.
    Unparsable(String),
}

impl fmt::Display for LatencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatencyError::TooSmall(r) => {
                write!(f, "latency must satisfy λ ≥ 1, got {}", r)
            }
            LatencyError::Unparsable(s) => write!(f, "cannot parse latency: {}", s),
        }
    }
}

impl std::error::Error for LatencyError {}

impl Latency {
    /// λ = 1: the telephone model in a fully connected system.
    pub const TELEPHONE: Latency = Latency(Ratio::ONE);

    /// Creates a latency from an exact rational value.
    ///
    /// # Errors
    /// Returns [`LatencyError::TooSmall`] if `value < 1`.
    pub fn new(value: Ratio) -> Result<Latency, LatencyError> {
        if value < Ratio::ONE {
            Err(LatencyError::TooSmall(value))
        } else {
            Ok(Latency(value))
        }
    }

    /// Checks a λ read from a file (schedule JSON or a JSONL log)
    /// against the input bound: numerator and denominator at most
    /// 2^[`INPUT_LAMBDA_BITS`]. λ = p/q in lowest terms makes
    /// [`crate::fib::GenFib`] tabulate `F_λ` over ticks of 1/q up to
    /// `f_λ(n)`, so the bound keeps the table behind the linter's
    /// `P0007` bound at tens of MiB: 2²¹ ticks (32 MiB) at λ =
    /// 65536/65535 for any n < 2³², where λ = 2³¹ − 1 asked for 32 GiB.
    ///
    /// # Errors
    /// A message naming the value and the bound.
    pub fn check_input(self) -> Result<Latency, String> {
        let r = self.0;
        if r.numer() <= 1 << INPUT_LAMBDA_BITS && r.denom() <= 1 << INPUT_LAMBDA_BITS {
            Ok(self)
        } else {
            Err(format!(
                "{r} is out of range (λ's numerator and denominator must be at most \
                 2^{INPUT_LAMBDA_BITS})"
            ))
        }
    }

    /// Creates a latency `num/den`.
    ///
    /// # Panics
    /// Panics if `den == 0` or the value is below 1. Use [`Latency::new`]
    /// for fallible construction.
    pub fn from_ratio(num: i128, den: i128) -> Latency {
        Latency::new(Ratio::new(num, den)).expect("latency must satisfy λ ≥ 1")
    }

    /// Creates an integer latency.
    ///
    /// # Panics
    /// Panics if `value < 1`.
    pub fn from_int(value: i128) -> Latency {
        Latency::from_ratio(value, 1)
    }

    /// Approximates an `f64` latency by a rational with denominator ≤ 64.
    ///
    /// The denominator bound keeps the tick lattice coarse enough that
    /// `F_λ` tables stay small; 1/64-unit resolution is far finer than any
    /// measured latency ratio warrants.
    ///
    /// # Errors
    /// Returns an error if the value is below 1 or not finite.
    pub fn from_f64(value: f64) -> Result<Latency, LatencyError> {
        if !value.is_finite() {
            return Err(LatencyError::Unparsable(format!("{value}")));
        }
        Latency::new(Ratio::approximate(value, 64))
    }

    /// The exact rational value of λ.
    pub const fn value(self) -> Ratio {
        self.0
    }

    /// λ as a [`Time`] duration.
    pub fn as_time(self) -> Time {
        Time(self.0)
    }

    /// The numerator `p` of λ = p/q in lowest terms: λ measured in ticks.
    pub fn lambda_ticks(self) -> i128 {
        self.0.numer()
    }

    /// The denominator `q` of λ = p/q in lowest terms: ticks per time unit.
    pub fn ticks_per_unit(self) -> i128 {
        self.0.denom()
    }

    /// The smallest tick denominator that is a multiple of `den` and puts
    /// this λ = p/q on its lattice: lcm(`den`, q). When that lcm would
    /// exceed [`MAX_TICK_DENOMINATOR`] the lattice stays at `den`, and
    /// times involving this λ stay exact, only slower. A run whose every
    /// λ is this one ticks at `lattice_lcm(2)` (see
    /// [`crate::time::Time::to_ticks`]).
    pub fn lattice_lcm(self, den: i64) -> i64 {
        i64::try_from(self.0.denom())
            .ok()
            .and_then(|q| crate::time::lattice_lcm(den, q))
            .unwrap_or(den)
    }

    /// ⌈λ⌉, used throughout Theorem 7.
    pub fn ceil(self) -> i128 {
        self.0.ceil()
    }

    /// ⌊λ⌋.
    pub fn floor(self) -> i128 {
        self.0.floor()
    }

    /// Approximate value as `f64` (display/plotting only).
    pub fn to_f64(self) -> f64 {
        self.0.to_f64()
    }

    /// Returns `true` for the telephone model λ = 1.
    pub fn is_telephone(self) -> bool {
        self.0 == Ratio::ONE
    }
}

impl fmt::Debug for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ={}", self.0)
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl FromStr for Latency {
    type Err = LatencyError;

    fn from_str(s: &str) -> Result<Latency, LatencyError> {
        let r: Ratio = s
            .parse()
            .map_err(|_| LatencyError::Unparsable(s.to_string()))?;
        Latency::new(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::ratio;

    #[test]
    fn construction() {
        let l = Latency::from_ratio(5, 2);
        assert_eq!(l.value(), ratio(5, 2));
        assert_eq!(l.lambda_ticks(), 5);
        assert_eq!(l.ticks_per_unit(), 2);
        assert_eq!(l.ceil(), 3);
        assert_eq!(l.floor(), 2);
    }

    #[test]
    fn lattice_lcm_puts_lambda_on_the_lattice() {
        assert_eq!(Latency::from_ratio(5, 2).lattice_lcm(2), 2);
        assert_eq!(Latency::from_int(3).lattice_lcm(2), 2);
        assert_eq!(Latency::from_ratio(7, 3).lattice_lcm(2), 6);
        assert_eq!(Latency::from_ratio(22, 7).lattice_lcm(2), 14);
        assert_eq!(Latency::from_ratio(3, 2).lattice_lcm(6), 6);
        assert_eq!(Latency::from_ratio(7, 3).lattice_lcm(1), 3);
        // Past the cap the lattice stays where it was.
        let fine = Latency::from_ratio((1 << 33) + 1, 1 << 33);
        assert_eq!(fine.lattice_lcm(2), 2);
        let q = MAX_TICK_DENOMINATOR as i128;
        assert_eq!(
            Latency::from_ratio(q + 1, q).lattice_lcm(2),
            MAX_TICK_DENOMINATOR
        );
        assert_eq!(Latency::from_ratio(q + 1, q).lattice_lcm(3), 3);
        assert_eq!(
            Time::new(7, 3).to_ticks(Latency::from_ratio(7, 3).lattice_lcm(2)),
            Some(14)
        );
    }

    #[test]
    fn telephone_model() {
        assert!(Latency::TELEPHONE.is_telephone());
        assert!(!Latency::from_int(2).is_telephone());
        assert_eq!(Latency::TELEPHONE.lambda_ticks(), 1);
        assert_eq!(Latency::TELEPHONE.ticks_per_unit(), 1);
    }

    #[test]
    fn rejects_sub_unit_latency() {
        assert!(matches!(
            Latency::new(ratio(1, 2)),
            Err(LatencyError::TooSmall(_))
        ));
        assert!(Latency::from_f64(0.5).is_err());
        assert!(Latency::from_f64(f64::NAN).is_err());
        assert!(Latency::from_f64(f64::INFINITY).is_err());
    }

    #[test]
    #[should_panic(expected = "λ ≥ 1")]
    fn from_ratio_panics_below_one() {
        let _ = Latency::from_ratio(1, 2);
    }

    #[test]
    fn from_f64_exact_fractions() {
        assert_eq!(Latency::from_f64(2.5).unwrap(), Latency::from_ratio(5, 2));
        assert_eq!(Latency::from_f64(4.0).unwrap(), Latency::from_int(4));
        assert_eq!(Latency::from_f64(1.25).unwrap(), Latency::from_ratio(5, 4));
    }

    #[test]
    fn parse_and_display() {
        let l: Latency = "5/2".parse().unwrap();
        assert_eq!(l, Latency::from_ratio(5, 2));
        let l: Latency = "2.5".parse().unwrap();
        assert_eq!(l, Latency::from_ratio(5, 2));
        assert_eq!(l.to_string(), "5/2");
        assert!("0.5".parse::<Latency>().is_err());
        assert!("xyz".parse::<Latency>().is_err());
    }

    #[test]
    fn lattice_is_lowest_terms() {
        let l = Latency::from_ratio(10, 4); // reduces to 5/2
        assert_eq!(l.lambda_ticks(), 5);
        assert_eq!(l.ticks_per_unit(), 2);
    }
}
