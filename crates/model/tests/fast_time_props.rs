//! Property tests for the time fast paths.
//!
//! The lint engine's hot comparisons run on `i64` half-units (and
//! [`FastTime`]) whenever a time sits on the half-integer lattice, with
//! a transparent exact-`Ratio` fallback otherwise, and exact [`Ratio`]
//! comparison short-circuits on a shared denominator. These properties
//! pin the contract:
//!
//! * on random half-integer-λ schedules, off-lattice schedules and
//!   schedules with overflow-adjacent times, the lint engine agrees
//!   with the seed reference engine on every emitted diagnostic (byte
//!   for byte);
//! * arithmetic on random lattice values matches [`Time`] exactly,
//!   through `Display`;
//! * overflow-adjacent values force the exact fallback rather than
//!   wrapping, and results remain exact;
//! * `Ratio` ordering agrees with the sign of the exact difference,
//!   with shared and distinct denominators alike.

use postal_model::lint::reference::lint_schedule_reference;
use postal_model::lint::{lint_schedule, LintOptions};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::FIXED_LIMIT;
use postal_model::{FastTime, Latency, Ratio, Time};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Random half-integer λ: k/2 with 2 ≤ k ≤ 16 (so 1 ≤ λ ≤ 8).
fn arb_half_lambda() -> impl Strategy<Value = Latency> {
    (2i128..=16).prop_map(|k| Latency::from_ratio(k, 2))
}

/// Random half-integer-lattice schedules over up to 8 processors.
fn arb_half_schedule() -> impl Strategy<Value = Schedule> {
    (
        arb_half_lambda(),
        2u32..=8,
        collection::vec((0u32..8, 0u32..8, 0i128..=48), 0..24),
    )
        .prop_map(|(lam, n, raw)| {
            let sends = raw
                .into_iter()
                .map(|(src, dst, half)| TimedSend {
                    src: src % n,
                    dst: dst % n,
                    send_start: Time::new(half, 2),
                })
                .collect();
            Schedule::new(n, lam, sends)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diagnostics_agree_byte_for_byte_on_the_lattice(s in arb_half_schedule(), m in 1u64..=4) {
        for opts in [
            LintOptions::broadcast_of(m),
            LintOptions::ports_only(),
        ] {
            let fast = lint_schedule(&s, &opts);
            let slow = lint_schedule_reference(&s, &opts);
            prop_assert_eq!(&fast, &slow);
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert_eq!(&a.message, &b.message);
                prop_assert_eq!(a.to_string(), b.to_string());
            }
        }
    }

    #[test]
    fn fast_time_arithmetic_matches_time(a in -1000i64..=1000, b in -1000i64..=1000) {
        let (ta, tb) = (Time::from_half_units(a), Time::from_half_units(b));
        let (fa, fb) = (FastTime::from_time(ta), FastTime::from_time(tb));
        prop_assert!(fa.is_fixed() && fb.is_fixed());
        prop_assert_eq!((fa + fb).to_time(), ta + tb);
        prop_assert_eq!((fa - fb).to_time(), ta - tb);
        prop_assert_eq!(fa.cmp(&fb), ta.cmp(&tb));
        prop_assert_eq!(fa.max(fb).to_time(), ta.max(tb));
        prop_assert_eq!(fa.min(fb).to_time(), ta.min(tb));
        prop_assert_eq!(fa.to_string(), ta.to_string());
    }

    #[test]
    fn overflow_adjacent_values_fall_back_not_wrap(delta in 0i64..=8, step in 1i64..=1000) {
        // h sits within `step` of the fixed-point ceiling: one more add
        // must promote to the exact representation, not wrap.
        let h = FIXED_LIMIT - delta;
        let big = FastTime::from_time(Time::from_half_units(h));
        let inc = FastTime::from_time(Time::from_half_units(step));
        prop_assert!(big.is_fixed());
        let sum = big + inc;
        prop_assert_eq!(sum.is_fixed(), h + step <= FIXED_LIMIT);
        prop_assert_eq!(sum.to_time(), Time::from_half_units(h) + Time::from_half_units(step));
        // Subtracting back demotes to fixed again, exactly.
        let back = sum - inc;
        prop_assert!(back.is_fixed());
        prop_assert_eq!(back.to_time(), Time::from_half_units(h));
        prop_assert_eq!(back, big);
    }

    #[test]
    fn off_lattice_schedules_skip_the_lane_but_lint_identically(
        s in arb_half_schedule(), third in 1i128..=5
    ) {
        // Push one send off the half-integer lattice (numerator chosen
        // ≢ 0 mod 3 so the fraction never reduces): it takes the exact
        // lane, merged with the integer lane, and the report must still
        // match the reference.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        sends.push(TimedSend { src: 0, dst: 1, send_start: Time::new(3 * third + 1, 3) });
        let off = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(off.sends().iter().any(|t| t.send_start.to_half_units().is_none()));
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&off, &opts),
            lint_schedule_reference(&off, &opts)
        );
    }

    #[test]
    fn oversized_times_take_the_exact_lane(s in arb_half_schedule()) {
        // One start just past the fixed-point ceiling cannot use the
        // integer lane; diagnostics still match the reference through
        // the exact path.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        sends.push(TimedSend {
            src: 0,
            dst: 1,
            send_start: Time::from_half_units(FIXED_LIMIT) + Time::ONE,
        });
        let huge = Schedule::new(s.n(), s.latency(), sends);
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&huge, &opts),
            lint_schedule_reference(&huge, &opts)
        );
    }

    #[test]
    fn ratio_order_is_the_sign_of_the_difference(
        an in arb_numer(),
        bn in arb_numer(),
        ad in 1i128..=12,
        bd in 1i128..=12,
        shared in any::<bool>(),
    ) {
        let a = Ratio::new(an, ad);
        // Adding an integer keeps the reduced denominator, so `shared`
        // pairs always take the equal-denominator comparison.
        let b = if shared { a + Ratio::from_int(bn) } else { Ratio::new(bn, bd) };
        prop_assert!(!shared || a.denom() == b.denom());
        prop_assert_eq!(a.cmp(&b), (a - b).signum().cmp(&0));
        prop_assert_eq!(b.cmp(&a), (b - a).signum().cmp(&0));
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }
}

/// A numerator near zero or near ±[`FIXED_LIMIT`], so comparisons cover
/// negative values and magnitudes at the fixed-point ceiling.
fn arb_numer() -> impl Strategy<Value = i128> {
    (0u8..3, -1000i128..=1000).prop_map(|(band, offset)| {
        let base = match band {
            0 => 0,
            1 => FIXED_LIMIT as i128,
            _ => -(FIXED_LIMIT as i128),
        };
        base + offset
    })
}
