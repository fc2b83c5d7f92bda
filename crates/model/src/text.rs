//! Decimal text without `core::fmt`.
//!
//! The exporters write hundreds of thousands of integers and exact
//! times per run. `write!` builds a `fmt::Arguments` and calls the
//! writer through a vtable for every field; [`write_int`] appends the
//! same bytes with two-digit table lookups, and
//! [`Ratio::write_text`](crate::Ratio::write_text) builds a time's text
//! (`"7/3"`, `"-2"`) from it. That routine is the only one: the
//! `Display` of [`Ratio`](crate::Ratio) and of [`Time`](crate::Time)
//! calls it too, through `Formatter::write_str`, so a width or fill in
//! the format spec does not change their bytes (it never did).

use std::fmt::{self, Write};

/// `"00"` through `"99"`, two bytes per pair.
const PAIRS: &str = "\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// The digits of `v`, most significant first: one table lookup per
/// pair, peeled from the right by recursion.
fn write_u64<W: Write + ?Sized>(out: &mut W, v: u64) -> fmt::Result {
    if v >= 100 {
        write_u64(out, v / 100)?;
        let i = (v % 100) as usize * 2;
        out.write_str(&PAIRS[i..i + 2])
    } else if v >= 10 {
        let i = v as usize * 2;
        out.write_str(&PAIRS[i..i + 2])
    } else {
        let i = v as usize * 2 + 1;
        out.write_str(&PAIRS[i..i + 1])
    }
}

/// The digits of `v`; past `u64` one digit per step (a 128-bit
/// division is a library call, and such values are rare).
fn write_u128<W: Write + ?Sized>(out: &mut W, v: u128) -> fmt::Result {
    match u64::try_from(v) {
        Ok(v) => write_u64(out, v),
        Err(_) => {
            write_u128(out, v / 10)?;
            write_u64(out, (v % 10) as u64)
        }
    }
}

/// Writes `v` in decimal, the bytes `v.to_string()` gives.
///
/// ```
/// let mut s = String::new();
/// postal_model::text::write_int(&mut s, -1_000_000_007).unwrap();
/// assert_eq!(s, "-1000000007");
/// ```
pub fn write_int<W: Write + ?Sized>(out: &mut W, v: i128) -> fmt::Result {
    if v < 0 {
        out.write_str("-")?;
    }
    write_u128(out, v.unsigned_abs())
}

/// Appends `v` in decimal to `out`.
pub fn push_int(out: &mut String, v: impl Into<i128>) {
    // Writing to a `String` cannot fail.
    let _ = write_int(out, v.into());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Time;

    fn int(v: i128) -> String {
        let mut s = String::new();
        push_int(&mut s, v);
        s
    }

    #[test]
    fn integers_match_core_at_every_magnitude() {
        let mut probes = vec![i128::MIN, i128::MAX, u64::MAX as i128 + 1];
        for k in 0..39 {
            let p = 10i128.pow(k);
            probes.extend([p - 1, p, p + 1, -p]);
        }
        probes.extend([i64::MAX as i128, i64::MIN as i128, u64::MAX as i128]);
        for v in probes {
            assert_eq!(int(v), v.to_string());
        }
    }

    #[test]
    fn times_are_numerator_slash_denominator() {
        for t in [
            Time::ZERO,
            Time::new(7, 3),
            Time::new(-15, 2),
            Time::new((1 << 64) + 1, 3),
            Time::new(i128::MIN + 1, i128::MAX),
        ] {
            let (num, den) = (t.as_ratio().numer(), t.as_ratio().denom());
            let want = if den == 1 {
                num.to_string()
            } else {
                format!("{num}/{den}")
            };
            let mut s = String::new();
            t.as_ratio().write_text(&mut s).unwrap();
            assert_eq!(s, want);
            assert_eq!(t.to_string(), want);
            // A width in the format spec never padded a time.
            assert_eq!(format!("{t:>8}"), want);
        }
    }
}
