//! Property tests for the time fast paths.
//!
//! The lint engine's hot comparisons run on `i64` counts of ticks of
//! `1/D` ([`Time::to_ticks`], with `D = λ.lattice_lcm(2)`) whenever a
//! time sits on the stream's lattice, with a transparent exact-`Ratio`
//! fallback otherwise, and exact [`Ratio`] comparison short-circuits on
//! a shared denominator. These properties pin the contract:
//!
//! * on random schedules over the lattices of halves, sixths and
//!   fourteenths (λ = k/2, k/3, k/7), off-lattice schedules and
//!   schedules with times past the tick limit, the lint engine agrees
//!   with the seed reference engine on every emitted diagnostic (byte
//!   for byte);
//! * tick arithmetic on random lattice values matches [`Time`] exactly,
//!   through `Display`, for D ∈ {1, 2, 3, 6, 14};
//! * values past [`TICK_LIMIT`] have no tick form rather than
//!   wrapping, and results remain exact;
//! * `Ratio` ordering agrees with the sign of the exact difference,
//!   with shared and distinct denominators alike;
//! * `Ratio`'s 64-bit fast paths and their `i128` fallbacks agree with
//!   exact (256-bit) arithmetic: on operands drawn around 0, ±2³¹,
//!   ±2⁵³, ±(2⁶³ − 1), `i64::MIN` and beyond `i64` up to ±2¹⁰⁰,
//!   `Ratio::new` reduces exactly, `+`/`-` equal the sum over the
//!   common denominator, `cmp` is the sign of the cross-difference and
//!   `Display` matches the `i128` formatting.

use postal_model::lint::reference::lint_schedule_reference;
use postal_model::lint::{lint_schedule, LintOptions};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::TICK_LIMIT;
use postal_model::{Latency, Ratio, Time};
use proptest::prelude::*;
use std::cmp::Ordering;

/// Tick denominators: integers, halves, thirds, sixths, fourteenths.
const DENS: [i64; 5] = [1, 2, 3, 6, 14];

/// Random schedules over up to 8 processors under λ = k/q for
/// q ∈ {2, 3, 7} and 1 ≤ λ ≤ 8, every send on the lattice of ticks of
/// `1/D` (`D = λ.lattice_lcm(2)`: 2, 6 or 14 unless λ reduces) within
/// 24 units.
fn arb_lattice_schedule() -> impl Strategy<Value = Schedule> {
    (
        0usize..3,
        0i128..=56,
        2u32..=8,
        collection::vec((0u32..8, 0u32..8, 0i64..=336), 0..24),
    )
        .prop_map(|(qi, k, n, raw)| {
            let q = [2i128, 3, 7][qi];
            let lam = Latency::from_ratio(q + k % (7 * q + 1), q);
            let den = lam.lattice_lcm(2);
            let sends = raw
                .into_iter()
                .map(|(src, dst, ticks)| TimedSend {
                    src: src % n,
                    dst: dst % n,
                    send_start: Time::from_ticks(ticks % (24 * den + 1), den),
                })
                .collect();
            Schedule::new(n, lam, sends)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diagnostics_agree_byte_for_byte_on_the_lattice(s in arb_lattice_schedule(), m in 1u64..=4) {
        let den = s.latency().lattice_lcm(2);
        prop_assert!(s.sends().iter().all(|t| t.send_start.to_ticks(den).is_some()));
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
    fn tick_arithmetic_matches_time(d in 0usize..5, a in -1000i64..=1000, b in -1000i64..=1000) {
        let den = DENS[d];
        let (ta, tb) = (Time::from_ticks(a, den), Time::from_ticks(b, den));
        prop_assert_eq!(ta.to_ticks(den), Some(a));
        prop_assert_eq!(tb.to_ticks(den), Some(b));
        prop_assert_eq!(Time::from_ticks(a + b, den), ta + tb);
        prop_assert_eq!(Time::from_ticks(a - b, den), ta - tb);
        prop_assert_eq!(a.cmp(&b), ta.cmp(&tb));
        prop_assert_eq!(Time::from_ticks(a.max(b), den), ta.max(tb));
        prop_assert_eq!(Time::from_ticks(a.min(b), den), ta.min(tb));
        prop_assert_eq!(Time::from_ticks(a, den).to_string(), Ratio::new(a as i128, den as i128).to_string());
        // On a finer lattice (a multiple of `den`) the value scales.
        prop_assert_eq!(ta.to_ticks(den * 7), Some(a * 7));
    }

    #[test]
    fn ticks_past_the_limit_have_no_tick_form(d in 0usize..5, delta in 0i64..=8, step in 1i64..=1000) {
        // h sits within `step` of the tick ceiling: one more add must
        // leave the integer form, not wrap.
        let den = DENS[d];
        let h = TICK_LIMIT - delta;
        let big = Time::from_ticks(h, den);
        let inc = Time::from_ticks(step, den);
        prop_assert_eq!(big.to_ticks(den), Some(h));
        let sum = big + inc;
        let fits = h + step <= TICK_LIMIT;
        prop_assert_eq!(sum.to_ticks(den), fits.then_some(h + step));
        prop_assert_eq!(sum, Time::new(h as i128 + step as i128, den as i128));
        // Subtracting back re-enters the integer form, exactly.
        let back = sum - inc;
        prop_assert_eq!(back.to_ticks(den), Some(h));
        prop_assert_eq!(back, big);
    }

    #[test]
    fn off_lattice_schedules_skip_the_lane_but_lint_identically(
        s in arb_lattice_schedule(), fifth in 1i128..=5
    ) {
        // Push one send off the stream's lattice (numerator chosen
        // ≢ 0 mod 5 so the fraction never reduces, and no D here is a
        // multiple of 5): it takes the exact lane, merged with the
        // integer lane, and the report must still match the reference.
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        sends.push(TimedSend { src: 0, dst: 1, send_start: Time::new(5 * fifth + 1, 5) });
        let off = Schedule::new(s.n(), s.latency(), sends);
        let den = off.latency().lattice_lcm(2);
        prop_assert!(off.sends().iter().any(|t| t.send_start.to_ticks(den).is_none()));
        let opts = LintOptions::default();
        prop_assert_eq!(
            lint_schedule(&off, &opts),
            lint_schedule_reference(&off, &opts)
        );
    }

    #[test]
    fn oversized_times_take_the_exact_lane(s in arb_lattice_schedule()) {
        // One start just past the tick ceiling cannot use the integer
        // lane; diagnostics still match the reference through the
        // exact path.
        let den = s.latency().lattice_lcm(2);
        let mut sends: Vec<TimedSend> = s.sends().to_vec();
        sends.push(TimedSend {
            src: 0,
            dst: 1,
            send_start: Time::from_ticks(TICK_LIMIT, den) + Time::ONE,
        });
        let huge = Schedule::new(s.n(), s.latency(), sends);
        prop_assert!(huge.sends().iter().any(|t| t.send_start.to_ticks(den).is_none()));
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

    #[test]
    fn ratio_new_reduces_exactly(n in arb_band(), d in arb_band(), k in 1i128..=12) {
        // A common factor k, when it fits, makes the reduction nontrivial.
        let (n, d) = scaled(n, nonzero(d), k);
        let r = Ratio::new(n, d);
        prop_assert!(r.denom() > 0);
        prop_assert_eq!(gcd(r.numer().unsigned_abs(), r.denom().unsigned_abs()), 1);
        // num·d = n·den: same value.
        prop_assert_eq!(cmp_products(r.numer(), d, n, r.denom()), Ordering::Equal);
    }

    #[test]
    fn ratio_add_sub_equal_the_common_denominator_sum(
        an in arb_band(), ad in arb_band(), bn in arb_band(), bd in arb_band(),
        k in -8i128..=8, shared in any::<bool>(),
    ) {
        let a = Ratio::new(an, nonzero(ad));
        // A shared denominator takes the numerator-only shortcut.
        let b = if shared {
            match k.checked_mul(a.denom()).and_then(|kd| kd.checked_add(a.numer())) {
                Some(num) => Ratio::new(num, a.denom()),
                None => a,
            }
        } else {
            Ratio::new(bn, nonzero(bd))
        };
        if let Some(want) = common_sum(a, b, 1) {
            prop_assert_eq!(a + b, want);
        }
        if let Some(want) = common_sum(a, b, -1) {
            prop_assert_eq!(a - b, want);
        }
    }

    #[test]
    fn ratio_cmp_is_the_sign_of_the_cross_difference(
        an in arb_band(), ad in arb_band(), bn in arb_band(), bd in arb_band(),
    ) {
        let (a, b) = (Ratio::new(an, nonzero(ad)), Ratio::new(bn, nonzero(bd)));
        // `cmp` panics only when even the cross-reduced products overflow.
        if reduced_cmp_fits(a, b) {
            let want = cmp_products(a.numer(), b.denom(), b.numer(), a.denom());
            prop_assert_eq!(a.cmp(&b), want);
            prop_assert_eq!(b.cmp(&a), want.reverse());
        }
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn ratio_cmp_falls_back_to_cross_reduction(
        g in 0u32..=40, h in 0u32..=40,
        x in -1000i128..=1000, y in 1i128..=1000, z in -1000i128..=1000, w in 1i128..=1000,
    ) {
        // Shared factors of 2⁴⁰…2⁸⁰ in the numerators and denominators:
        // for the larger ones the unreduced cross-products overflow
        // `i128` while the cross-reduced ones fit, so `cmp` falls back.
        let (g, h) = (1i128 << (40 + g), (1i128 << (40 + h)) + 1);
        let (a, b) = (Ratio::new(g * x, h * y), Ratio::new(g * z, h * w));
        let want = cmp_products(a.numer(), b.denom(), b.numer(), a.denom());
        prop_assert_eq!(a.cmp(&b), want);
        prop_assert_eq!(b.cmp(&a), want.reverse());
    }

    #[test]
    fn ratio_display_is_the_i128_formatting(n in arb_band(), d in arb_band()) {
        let r = Ratio::new(n, nonzero(d));
        let want = if r.denom() == 1 {
            format!("{}", r.numer())
        } else {
            format!("{}/{}", r.numer(), r.denom())
        };
        prop_assert_eq!(r.to_string(), want);
    }
}

/// An integer near one of the edges the `Ratio` fast paths switch on:
/// 0, ±2³¹, ±2⁵³, ±(2⁶³ − 1), `i64::MIN`, or beyond `i64` up to ±2¹⁰⁰.
fn arb_band() -> impl Strategy<Value = i128> {
    (0u8..7, any::<bool>(), -8i128..=8, 64u32..=100).prop_map(|(band, neg, offset, wide)| {
        let edge = match band {
            0 => 0,
            1 => 1 << 31,
            2 => 1 << 53,
            3 => i64::MAX as i128,
            // Negated, 2⁶³ + 0 is `i64::MIN`.
            4 => 1 << 63,
            5 => 1 << wide,
            _ => 1 << (wide - 64),
        };
        let v = edge + offset;
        if neg {
            -v
        } else {
            v
        }
    })
}

fn nonzero(d: i128) -> i128 {
    if d == 0 {
        1
    } else {
        d
    }
}

/// `(n·k, d·k)` when both fit, else `(n, d)`.
fn scaled(n: i128, d: i128, k: i128) -> (i128, i128) {
    match (n.checked_mul(k), d.checked_mul(k)) {
        (Some(nk), Some(dk)) => (nk, dk),
        _ => (n, d),
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// `|x|·|y|` as a 256-bit `(high, low)` pair.
fn wide_mul(x: u128, y: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (x1, x0, y1, y0) = (x >> 64, x & LO, y >> 64, y & LO);
    let (p00, p01, p10, p11) = (x0 * y0, x0 * y1, x1 * y0, x1 * y1);
    let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
    let low = (p00 & LO) | (mid << 64);
    let high = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

/// The exact order of `x·y` against `z·w`, without overflow.
fn cmp_products(x: i128, y: i128, z: i128, w: i128) -> Ordering {
    let (s1, s2) = (x.signum() * y.signum(), z.signum() * w.signum());
    if s1 != s2 {
        return s1.cmp(&s2);
    }
    let m1 = wide_mul(x.unsigned_abs(), y.unsigned_abs());
    let m2 = wide_mul(z.unsigned_abs(), w.unsigned_abs());
    if s1 < 0 {
        m2.cmp(&m1)
    } else {
        m1.cmp(&m2)
    }
}

/// `a + sign·b` over the common denominator — `a.den` when shared,
/// else `a.den·b.den` — or `None` when that overflows `i128`.
fn common_sum(a: Ratio, b: Ratio, sign: i128) -> Option<Ratio> {
    if a.denom() == b.denom() {
        let num = a.numer().checked_add(b.numer().checked_mul(sign)?)?;
        return Some(Ratio::new(num, a.denom()));
    }
    let num = a
        .numer()
        .checked_mul(b.denom())?
        .checked_add(b.numer().checked_mul(a.denom())?.checked_mul(sign)?)?;
    Some(Ratio::new(num, a.denom().checked_mul(b.denom())?))
}

/// Whether `cmp`'s cross-reduced products fit in `i128`.
fn reduced_cmp_fits(a: Ratio, b: Ratio) -> bool {
    let g_num = gcd(a.numer().unsigned_abs(), b.numer().unsigned_abs()).max(1) as i128;
    let g_den = gcd(a.denom().unsigned_abs(), b.denom().unsigned_abs()) as i128;
    let lhs = (a.numer() / g_num).checked_mul(b.denom() / g_den);
    let rhs = (b.numer() / g_num).checked_mul(a.denom() / g_den);
    lhs.is_some() && rhs.is_some()
}

/// A numerator near zero or near ±[`TICK_LIMIT`], so comparisons cover
/// negative values and magnitudes at the tick ceiling.
fn arb_numer() -> impl Strategy<Value = i128> {
    (0u8..3, -1000i128..=1000).prop_map(|(band, offset)| {
        let base = match band {
            0 => 0,
            1 => TICK_LIMIT as i128,
            _ => -(TICK_LIMIT as i128),
        };
        base + offset
    })
}
