//! Field writers shared by the exporters. Each appends a literal key
//! (with whatever separator precedes it) and then a value straight into
//! the output `String`, so a row costs a few `push_str`s and table
//! lookups instead of a `write!` per field.

use postal_model::text::push_int;
use postal_model::Time;

/// Appends `key` and then `v` in decimal.
pub(crate) fn int(out: &mut String, key: &str, v: impl Into<i128>) {
    out.push_str(key);
    push_int(out, v);
}

/// Appends `key`, which ends in an opening quote, then the exact text
/// of `t` and the closing quote.
pub(crate) fn time(out: &mut String, key: &str, t: Time) {
    out.push_str(key);
    // Writing to a `String` cannot fail.
    let _ = t.as_ratio().write_text(out);
    out.push('"');
}
