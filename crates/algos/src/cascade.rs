//! The BCAST send cascade.
//!
//! Algorithm BCAST (Section 3) is recursive on ranges: the processor
//! responsible for a contiguous range of `s` processors computes
//! `j = F_λ(f_λ(s) − 1)`, delegates the sub-range of size `s − j` starting
//! at offset `j` to the processor at that offset, and recurses on the
//! first `j` processors — of which it is itself the first. Unrolling the
//! recursion at one processor yields its *cascade*: the ordered list of
//! (offset, delegated-size) sends it performs, one per time unit.
//!
//! Two orientations are provided:
//!
//! * [`Orientation::Standard`] — the originator keeps the larger piece
//!   (`j`, paid for by the `1 + T(j)` branch of Lemma 4) and delegates the
//!   smaller (`s − j`, paid for by `λ + T(s − j)`). This is BCAST itself,
//!   and the orientation used by PACK and PIPELINE-1.
//! * [`Orientation::Swapped`] — used by PIPELINE-2 (`m ≥ λ`), where the
//!   paper notes the algorithm "results in changing the responsibilities
//!   of the sender and the receiver ... for each sender–receiver pair": in
//!   normalized time the *recipient* of a stream is the party free after
//!   one unit, so the recipient receives the larger piece `j` and the
//!   sender keeps the smaller `s − j`.
//!
//! Every cascade of a run walks one [`FibTable`]: `F_λ` tabulated once
//! per run at each tick up to `f_λ(n)`, which all of the run's programs
//! share through an `Arc`. A walk allocates nothing; each split is a
//! binary search of the table for `f_λ(s)` and one read.

use postal_model::{GenFib, Latency, Time};

/// Which side of each split keeps the larger piece.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Sender keeps the larger piece (BCAST, PACK, PIPELINE-1).
    Standard,
    /// Receiver gets the larger piece (PIPELINE-2).
    Swapped,
}

/// One send in a cascade: delegate `size` processors starting at relative
/// offset `offset` (offsets are relative to the cascading processor, which
/// sits at offset 0 of its own range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CascadeSend {
    /// Offset of the delegate within the sender's range (`1 ≤ offset`).
    pub offset: u64,
    /// Number of processors the delegate becomes responsible for
    /// (including itself).
    pub size: u64,
}

/// `F_λ` at every tick up to `f_λ(size)`: everything a cascade over a
/// range of at most `size` processors reads.
///
/// One table serves every program of a run. It is filled from
/// [`GenFib`] at construction and never changes, so it is `Send + Sync`
/// and the programs share it through one `Arc`. A split
/// `j = F_λ(f_λ(s) − 1)` is a binary search for `f_λ(s)` followed by
/// one read.
#[derive(Debug)]
pub struct FibTable {
    latency: Latency,
    /// Ticks per time unit (the denominator q of λ = p/q).
    q: usize,
    /// The largest range the table serves.
    size: u64,
    /// `values[k] = F_λ(k/q)` for `k ≤ f_λ(size)` ticks, saturating at
    /// `u64::MAX` (only the last entry can exceed a range size).
    values: Box<[u64]>,
}

impl FibTable {
    /// Builds the table for ranges of up to `size` processors at
    /// latency λ.
    pub fn new(latency: Latency, size: u64) -> FibTable {
        let fib = GenFib::new(latency);
        // A table always serves the sender-only range.
        let size = size.max(1);
        let top = fib.index_ticks(u128::from(size));
        let values = (0..=top)
            .map(|k| u64::try_from(fib.value_at_ticks(k)).unwrap_or(u64::MAX))
            .collect();
        FibTable {
            latency,
            q: fib.ticks_per_unit(),
            size,
            values,
        }
    }

    /// The latency λ the table is built for.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// The largest range the table serves.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// `f_λ(s)` in ticks: the first tick at which `F_λ` reaches `s`.
    fn index_ticks(&self, s: u64) -> usize {
        self.values.partition_point(|&v| v < s)
    }

    /// `f_λ(s)`, the optimal broadcast time over `s` processors
    /// (Theorem 6).
    ///
    /// # Panics
    /// Panics if `s` is 0 or larger than the table's [`FibTable::size`].
    pub fn index(&self, s: u64) -> Time {
        assert!(
            (1..=self.size).contains(&s),
            "f_λ({s}) is outside the F_λ table built for {} processors",
            self.size
        );
        Time::new(self.index_ticks(s) as i128, self.q as i128)
    }

    /// The BCAST split `j = F_λ(f_λ(s) − 1)` for `2 ≤ s ≤ size`
    /// (Lemma 3: `1 ≤ j ≤ s − 1`).
    fn split(&self, s: u64) -> u64 {
        self.values[self.index_ticks(s) - self.q]
    }
}

/// The send cascade of a processor responsible for `size` processors
/// (itself included), in send order, walked over a run's [`FibTable`].
///
/// The sends partition `{1, …, size−1}`: every processor in the range
/// except the sender itself is covered by exactly one delegated
/// sub-range. The walk allocates nothing.
///
/// ```
/// use postal_algos::{cascade, FibTable, Orientation};
/// use postal_model::Latency;
///
/// // Figure 1's root: first delegate sits at offset 9 and inherits 5
/// // processors.
/// let table = FibTable::new(Latency::from_ratio(5, 2), 14);
/// let mut sends = cascade(&table, 14, Orientation::Standard);
/// let first = sends.next().unwrap();
/// assert_eq!((first.offset, first.size), (9, 5));
/// assert_eq!(sends.count(), 5); // the root transmits for 6 units
/// ```
///
/// # Panics
/// Panics if `size == 0` or `size` is larger than the table's
/// [`FibTable::size`].
pub fn cascade(table: &FibTable, size: u64, orientation: Orientation) -> Cascade<'_> {
    assert!(size >= 1, "a range must contain at least the sender");
    assert!(
        size <= table.size,
        "a cascade over {size} processors needs an F_λ table built for at least \
         {size}, but this one was built for {}",
        table.size
    );
    Cascade {
        table,
        orientation,
        left: size,
    }
}

/// The iterator [`cascade`] returns.
#[derive(Debug, Clone)]
pub struct Cascade<'a> {
    table: &'a FibTable,
    orientation: Orientation,
    /// Size of the range the sender still holds, itself included.
    left: u64,
}

impl Iterator for Cascade<'_> {
    type Item = CascadeSend;

    fn next(&mut self) -> Option<CascadeSend> {
        let s = self.left;
        if s <= 1 {
            return None;
        }
        let j = self.table.split(s);
        Some(match self.orientation {
            // Delegate [j, s) — the smaller piece — and keep [0, j).
            Orientation::Standard => {
                self.left = j;
                CascadeSend {
                    offset: j,
                    size: s - j,
                }
            }
            // Delegate the *larger* piece [s−j, s) of size j; keep
            // [0, s−j).
            Orientation::Swapped => {
                self.left = s - j;
                CascadeSend {
                    offset: s - j,
                    size: j,
                }
            }
        })
    }
}

/// Verifies that a cascade partitions the non-sender part of the range
/// (used by tests and debug assertions).
pub fn covers_range(sends: &[CascadeSend], size: u64) -> bool {
    let mut covered = vec![false; size as usize];
    covered[0] = true; // the sender itself
    for s in sends {
        for off in s.offset..s.offset + s.size {
            let idx = off as usize;
            if idx >= size as usize || covered[idx] {
                return false;
            }
            covered[idx] = true;
        }
    }
    covered.into_iter().all(|c| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole cascade over a table built for exactly `size`.
    fn walk(lam: Latency, size: u64, orientation: Orientation) -> Vec<CascadeSend> {
        cascade(&FibTable::new(lam, size), size, orientation).collect()
    }

    #[test]
    fn figure1_cascade() {
        // MPS(14, 5/2): p0 sends to offset 9 (range size 5), then — now
        // responsible for 9 — to offset 6 (size 3), then 4 (size 2),
        // 3 (size 1), 2 (size 1), 1 (size 1): matching Figure 1, where p0
        // sends at t = 0, 1, 2, 3, 4, 5.
        assert_eq!(
            walk(Latency::from_ratio(5, 2), 14, Orientation::Standard),
            vec![
                CascadeSend { offset: 9, size: 5 },
                CascadeSend { offset: 6, size: 3 },
                CascadeSend { offset: 4, size: 2 },
                CascadeSend { offset: 3, size: 1 },
                CascadeSend { offset: 2, size: 1 },
                CascadeSend { offset: 1, size: 1 },
            ]
        );
    }

    #[test]
    fn singleton_range_has_no_sends() {
        assert!(walk(Latency::TELEPHONE, 1, Orientation::Standard).is_empty());
        assert!(walk(Latency::TELEPHONE, 1, Orientation::Swapped).is_empty());
    }

    #[test]
    fn pair_sends_once() {
        let lam = Latency::from_ratio(5, 2);
        for orientation in [Orientation::Standard, Orientation::Swapped] {
            assert_eq!(
                walk(lam, 2, orientation),
                vec![CascadeSend { offset: 1, size: 1 }]
            );
        }
    }

    #[test]
    fn both_orientations_partition_the_range() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            let table = FibTable::new(lam, 300);
            for size in 1..=300u64 {
                for orientation in [Orientation::Standard, Orientation::Swapped] {
                    let sends: Vec<CascadeSend> = cascade(&table, size, orientation).collect();
                    assert!(
                        covers_range(&sends, size),
                        "λ={lam} size={size} {orientation:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn telephone_standard_is_binomial_halving() {
        // λ = 1: recursive halving (hypercube/binomial broadcast).
        assert_eq!(
            walk(Latency::TELEPHONE, 16, Orientation::Standard),
            vec![
                CascadeSend { offset: 8, size: 8 },
                CascadeSend { offset: 4, size: 4 },
                CascadeSend { offset: 2, size: 2 },
                CascadeSend { offset: 1, size: 1 },
            ]
        );
    }

    #[test]
    fn swapped_mirrors_sizes_of_standard() {
        // The first split delegates the piece the other orientation
        // keeps: standard delegates s−j, swapped delegates j.
        let lam = Latency::from_int(2);
        let fib = GenFib::new(lam);
        let table = FibTable::new(lam, 200);
        for size in 2..200u64 {
            let j = fib.bcast_split(size as u128) as u64;
            let std = cascade(&table, size, Orientation::Standard).next().unwrap();
            let swp = cascade(&table, size, Orientation::Swapped).next().unwrap();
            assert_eq!(std.size, size - j);
            assert_eq!(swp.size, j);
        }
    }

    #[test]
    fn index_is_the_optimal_broadcast_time() {
        for lam in [Latency::TELEPHONE, Latency::from_ratio(7, 3)] {
            let fib = GenFib::new(lam);
            let table = FibTable::new(lam, 500);
            for s in 1..=500u64 {
                assert_eq!(table.index(s), fib.index(s as u128), "λ={lam} s={s}");
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "needs an F_λ table built for at least 15, but this one was built for 14"
    )]
    fn a_range_past_the_table_panics() {
        let table = FibTable::new(Latency::from_ratio(5, 2), 14);
        let _ = cascade(&table, 15, Orientation::Standard);
    }

    #[test]
    fn covers_range_rejects_overlap_and_gap() {
        // Overlap.
        assert!(!covers_range(
            &[
                CascadeSend { offset: 1, size: 2 },
                CascadeSend { offset: 2, size: 1 }
            ],
            3
        ));
        // Gap.
        assert!(!covers_range(&[CascadeSend { offset: 2, size: 1 }], 3));
        // Out of range.
        assert!(!covers_range(&[CascadeSend { offset: 1, size: 5 }], 3));
    }
}
