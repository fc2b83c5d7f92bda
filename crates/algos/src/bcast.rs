//! Algorithm BCAST — optimal single-message broadcast (Section 3).
//!
//! At time 0 the originator `p_0` holds message `M`. Each processor, once
//! it knows `M` and a range of processors it is responsible for, sends `M`
//! to a new processor every time unit, delegating sub-ranges chosen via
//! the generalized Fibonacci split (see [`mod@crate::cascade`]). Theorem 6:
//! the completion time is exactly `f_λ(n)`, and no algorithm can do
//! better.

use crate::cascade::{cascade, FibTable, Orientation};
use postal_model::Latency;
use postal_sim::prelude::*;
use std::sync::Arc;

/// The payload of a BCAST transfer: the delegated range size. The
/// receiver becomes responsible for processors `me .. me + range_size`
/// (itself included); the message content itself is abstract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BcastPayload {
    /// Number of processors (including the receiver) in the delegated
    /// range.
    pub range_size: u64,
}

/// Per-processor BCAST program.
///
/// Ranges are interpreted *cyclically*: a processor responsible for a
/// range sends to `(me + offset) mod n`, so the same program broadcasts
/// optimally from any originator, not just `p_0` (the paper fixes the
/// originator at `p_0` without loss of generality; the rotation makes
/// that explicit).
pub struct BcastProgram {
    /// The run's `F_λ` table, shared by all of its programs.
    table: Arc<FibTable>,
    /// `Some(n)` on the originator; `None` elsewhere (they learn their
    /// range from the payload).
    root_range: Option<u64>,
}

impl BcastProgram {
    /// Creates the program for one processor. `table` is the run's
    /// `F_λ` table, built for at least the `n` processors;
    /// `root_range` is `Some(n)` for the originator and `None` for
    /// everyone else.
    pub fn new(table: Arc<FibTable>, root_range: Option<u64>) -> BcastProgram {
        BcastProgram { table, root_range }
    }

    fn broadcast_range(&self, ctx: &mut dyn Context<BcastPayload>, range_size: u64) {
        let me = ctx.me().index() as u64;
        let n = ctx.n() as u64;
        for send in cascade(&self.table, range_size, Orientation::Standard) {
            ctx.send(
                ProcId::from(((me + send.offset) % n) as usize),
                BcastPayload {
                    range_size: send.size,
                },
            );
        }
    }
}

impl Program<BcastPayload> for BcastProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<BcastPayload>) {
        if let Some(n) = self.root_range {
            self.broadcast_range(ctx, n);
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<BcastPayload>,
        _from: ProcId,
        payload: BcastPayload,
    ) {
        self.broadcast_range(ctx, payload.range_size);
    }
}

/// Builds the `n` BCAST programs for MPS(n, λ).
pub fn bcast_programs(n: usize, latency: Latency) -> Vec<Box<dyn Program<BcastPayload>>> {
    if n == 0 {
        return Vec::new();
    }
    bcast_programs_from(ProcId::ROOT.index(), n, latency)
}

/// Runs BCAST in a strict-mode simulation of MPS(n, λ) and returns the
/// report. The completion time equals `f_λ(n)` (Theorem 6) and the run is
/// free of port violations.
///
/// # Panics
/// Panics if the simulation fails (it cannot for valid `n`).
pub fn run_bcast(n: usize, latency: Latency) -> RunReport<BcastPayload> {
    let model = Uniform(latency);
    Simulation::new(n, &model)
        .run(bcast_programs(n, latency))
        .expect("BCAST simulation cannot diverge")
}

/// Builds BCAST programs with an arbitrary originator `root`; target
/// indices wrap around mod `n`.
///
/// # Panics
/// Panics if `root ≥ n`.
pub fn bcast_programs_from(
    root: usize,
    n: usize,
    latency: Latency,
) -> Vec<Box<dyn Program<BcastPayload>>> {
    assert!(root < n, "originator must be one of the n processors");
    let table = Arc::new(FibTable::new(latency, n as u64));
    programs_from(n, |id| {
        Box::new(BcastProgram::new(
            Arc::clone(&table),
            (id.index() == root).then_some(n as u64),
        ))
    })
}

/// Runs BCAST from an arbitrary originator; completion is `f_λ(n)`
/// regardless of the root (the system is symmetric).
///
/// # Panics
/// Panics if `root ≥ n` or the simulation fails.
pub fn run_bcast_from(root: usize, n: usize, latency: Latency) -> RunReport<BcastPayload> {
    let model = Uniform(latency);
    Simulation::new(n, &model)
        .run(bcast_programs_from(root, n, latency))
        .expect("BCAST simulation cannot diverge")
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{runtimes, Time};

    #[test]
    fn bcast_payload_is_eight_bytes() {
        // The simulator's queue entry is pinned at 48 B or less for an
        // 8-byte payload (`postal_sim` engine tests); BCAST's is one.
        assert_eq!(std::mem::size_of::<BcastPayload>(), 8);
        // A stored transfer of it, its three times, ids and payload,
        // stays within the 128 B of a `Transfer<u32>`.
        let stored = std::mem::size_of::<postal_sim::Transfer<BcastPayload>>();
        assert!(stored <= 128, "{stored}");
    }

    #[test]
    fn figure1_completion_time() {
        let report = run_bcast(14, Latency::from_ratio(5, 2));
        report.assert_model_clean();
        assert_eq!(report.completion, Time::new(15, 2));
        // n − 1 transfers: everyone hears the message exactly once.
        assert_eq!(report.messages(), 13);
    }

    #[test]
    fn every_processor_receives_exactly_once() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [1usize, 2, 3, 7, 14, 33, 100] {
                let report = run_bcast(n, lam);
                report.assert_model_clean();
                let first = report.trace.first_receipt_times(n);
                assert!(first[0].is_none(), "the originator never receives");
                for (i, t) in first.iter().enumerate().skip(1) {
                    assert!(t.is_some(), "λ={lam} n={n}: p{i} never got the message");
                }
                assert_eq!(report.messages(), n - 1);
            }
        }
    }

    #[test]
    fn completion_matches_theorem6_exactly() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
            Latency::from_ratio(7, 3),
            Latency::from_int(5),
            Latency::from_int(10),
        ] {
            for n in 1..=128usize {
                let report = run_bcast(n, lam);
                report.assert_model_clean();
                assert_eq!(
                    report.completion,
                    runtimes::bcast_time(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn telephone_model_is_binomial_broadcast() {
        // λ = 1 ⇒ completion ⌈log₂ n⌉.
        for (n, expected) in [
            (2usize, 1i128),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
        ] {
            let report = run_bcast(n, Latency::TELEPHONE);
            assert_eq!(report.completion, Time::from_int(expected), "n={n}");
        }
    }

    #[test]
    fn no_processor_receives_twice() {
        let report = run_bcast(100, Latency::from_ratio(5, 2));
        for i in 1..100usize {
            assert_eq!(report.trace.received_by(ProcId::from(i)).count(), 1);
        }
    }

    #[test]
    fn arbitrary_root_is_equally_optimal() {
        let lam = Latency::from_ratio(5, 2);
        for n in [2usize, 5, 14, 33] {
            for root in [0usize, 1, n / 2, n - 1] {
                let report = run_bcast_from(root, n, lam);
                report.assert_model_clean();
                assert_eq!(
                    report.completion,
                    runtimes::bcast_time(n as u128, lam),
                    "root={root} n={n}"
                );
                // Everyone except the originator receives exactly once.
                let first = report.trace.first_receipt_times(n);
                for (i, t) in first.iter().enumerate() {
                    assert_eq!(t.is_some(), i != root, "root={root} p{i}");
                }
            }
        }
    }

    #[test]
    fn rotated_tree_is_an_exact_rotation() {
        // The root-r broadcast is the root-0 broadcast with all ids
        // shifted by r mod n.
        let lam = Latency::from_int(2);
        let n = 21usize;
        let r = 8usize;
        let base = run_bcast(n, lam);
        let rotated = run_bcast_from(r, n, lam);
        let mut base_edges: Vec<(u32, u32, postal_model::Time)> = base
            .trace
            .transfers()
            .iter()
            .map(|t| {
                (
                    (t.src.0 + r as u32) % n as u32,
                    (t.dst.0 + r as u32) % n as u32,
                    t.send_start,
                )
            })
            .collect();
        let mut rot_edges: Vec<(u32, u32, postal_model::Time)> = rotated
            .trace
            .transfers()
            .iter()
            .map(|t| (t.src.0, t.dst.0, t.send_start))
            .collect();
        base_edges.sort();
        rot_edges.sort();
        assert_eq!(base_edges, rot_edges);
    }

    #[test]
    fn single_processor_broadcast_is_empty() {
        let report = run_bcast(1, Latency::from_int(3));
        assert_eq!(report.completion, Time::ZERO);
        assert_eq!(report.messages(), 0);
    }
}
