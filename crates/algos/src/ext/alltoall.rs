//! Complete exchange (personalized all-to-all, MPI_Alltoall) in the
//! postal model.
//!
//! Every processor holds a distinct item for every other processor —
//! `n(n−1)` atomic messages in total, none of which can be combined or
//! relayed usefully (they are pairwise distinct). Each processor must
//! therefore *send* `n−1` messages through its one output port and
//! *receive* `n−1` through its one input port, so no schedule can finish
//! before `(n−2) + λ` (last send starts at `n−2`, plus door-to-door λ).
//!
//! The classic round-robin rotation attains the bound exactly: in round
//! `k = 0, …, n−2`, processor `i` sends its item for processor
//! `(i + k + 1) mod n`. Each round is a perfect matching (a fixed-point-
//! free rotation), so every input port receives exactly one message per
//! unit — the schedule keeps all `2n` ports fully busy and is strict-
//! mode clean despite being the densest traffic pattern the model
//! admits.
//!
//! `T_alltoall(n, λ) = (n−2) + λ`, simultaneously optimal for every
//! processor's send port and receive port.

use postal_model::{Latency, Time};
use postal_sim::prelude::*;

/// An exchanged item: `(origin, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exchange {
    /// The sending processor's index.
    pub origin: u32,
    /// The personalized value for the destination.
    pub value: u64,
}

/// Per-processor complete-exchange program: one rotation send per round.
pub struct AllToAllProgram {
    /// `items[j]` is this processor's value for processor `j` (entry for
    /// itself unused).
    items: Vec<u64>,
}

impl Program<Exchange> for AllToAllProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<Exchange>) {
        let n = ctx.n() as u32;
        let me = ctx.me().0;
        // All rounds issued at once: the output port serializes them at
        // one per unit, which is exactly the round schedule.
        for k in 0..n.saturating_sub(1) {
            let dst = (me + k + 1) % n;
            ctx.send(
                ProcId(dst),
                Exchange {
                    origin: me,
                    value: self.items[dst as usize],
                },
            );
        }
    }

    fn on_receive(&mut self, _ctx: &mut dyn Context<Exchange>, _from: ProcId, _p: Exchange) {}
}

/// The outcome of a complete exchange.
#[derive(Debug)]
pub struct AllToAllOutcome {
    /// The simulation report.
    pub report: RunReport<Exchange>,
    /// `received[i][j]` is `Some(v)` once `p_i` holds `p_j`'s item for it.
    pub received: Vec<Vec<Option<u64>>>,
}

/// Runs the optimal round-robin complete exchange. `items[i][j]` is
/// `p_i`'s personalized value for `p_j`. Completes in exactly
/// `(n−2) + λ` and is strict-mode clean.
///
/// # Panics
/// Panics if `items` is empty or not square.
pub fn run_alltoall(items: &[Vec<u64>], latency: Latency) -> AllToAllOutcome {
    let n = items.len();
    assert!(n >= 1, "complete exchange needs at least one processor");
    assert!(
        items.iter().all(|row| row.len() == n),
        "items must be an n×n matrix"
    );
    let programs = programs_from(n, |id| {
        Box::new(AllToAllProgram {
            items: items[id.index()].clone(),
        }) as Box<dyn Program<Exchange>>
    });
    let model = Uniform(latency);
    let report = Simulation::new(n, &model)
        .run(programs)
        .expect("complete exchange cannot diverge");

    let mut received: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
    for (i, row) in received.iter_mut().enumerate() {
        row[i] = Some(items[i][i]);
    }
    for t in report.trace.transfers() {
        received[t.dst.index()][t.payload.origin as usize] = Some(t.payload.value);
    }
    AllToAllOutcome { report, received }
}

/// The complete-exchange lower bound `(n−2) + λ` (attained by
/// [`run_alltoall`]): each port must move `n−1` atomic messages.
pub fn alltoall_lower_bound(n: u128, latency: Latency) -> Time {
    crate::ext::scatter::scatter_lower_bound(n, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| (0..n).map(|j| (100 * i + j) as u64).collect())
            .collect()
    }

    #[test]
    fn attains_the_per_port_lower_bound_exactly() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(6),
        ] {
            for n in [1usize, 2, 3, 8, 20] {
                let o = run_alltoall(&matrix(n), lam);
                o.report.assert_model_clean();
                assert_eq!(
                    o.report.completion,
                    alltoall_lower_bound(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn everyone_receives_everything_personalized() {
        let n = 9;
        let items = matrix(n);
        let o = run_alltoall(&items, Latency::from_ratio(5, 2));
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    o.received[i][j],
                    Some(items[j][i]),
                    "p{i} should hold p{j}'s item for it"
                );
            }
        }
    }

    #[test]
    fn rotation_keeps_every_port_saturated() {
        // The densest legal traffic pattern: every processor's input port
        // is busy every unit from λ−1 to completion, with zero strict-
        // mode violations.
        let lam = Latency::from_int(3);
        let n = 10usize;
        let o = run_alltoall(&matrix(n), lam);
        o.report.assert_model_clean();
        assert_eq!(o.report.messages(), n * (n - 1));
        for i in 0..n as u32 {
            let mut finishes: Vec<Time> = o
                .report
                .trace
                .received_by(ProcId(i))
                .map(|t| t.recv_finish())
                .collect();
            finishes.sort();
            // Receives at λ, λ+1, …, λ+n−2: perfectly back-to-back.
            for (k, f) in finishes.iter().enumerate() {
                assert_eq!(*f, lam.as_time() + Time::from_int(k as i128), "p{i}");
            }
        }
    }

    #[test]
    fn singleton_exchange_is_trivial() {
        let o = run_alltoall(&matrix(1), Latency::from_int(2));
        assert_eq!(o.report.completion, Time::ZERO);
        assert_eq!(o.received[0][0], Some(0));
    }
}
