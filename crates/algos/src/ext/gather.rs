//! Gather (personalized all-to-one): every processor holds one distinct
//! item; the root must collect them all.
//!
//! Gather is the time reversal of scatter, and the same argument makes
//! the staggered direct schedule optimal: the root's input port must
//! absorb `n−1` distinct atomic messages, one unit each, so it cannot
//! finish before `(n−2) + λ` (the first receive cannot *finish* before
//! λ, and n−2 more must follow at unit spacing). Having `p_i` start its
//! send at time `i−1` achieves exactly that: the root's input port runs
//! back-to-back with zero idle and zero contention.

use postal_model::{Latency, Time};
use postal_sim::prelude::*;

/// A gathered item: the sender's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contribution(pub u64);

/// Per-processor gather program: wake at the staggered slot and send.
pub struct GatherProgram {
    value: u64,
    is_root: bool,
}

impl Program<Contribution> for GatherProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<Contribution>) {
        if !self.is_root && ctx.n() > 1 {
            ctx.wake_at(Time::from_int(ctx.me().index() as i128 - 1));
        }
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<Contribution>) {
        ctx.send(ProcId::ROOT, Contribution(self.value));
    }

    fn on_receive(&mut self, _ctx: &mut dyn Context<Contribution>, _f: ProcId, _p: Contribution) {}
}

/// The outcome of a gather run.
#[derive(Debug)]
pub struct GatherOutcome {
    /// The simulation report.
    pub report: RunReport<Contribution>,
    /// `collected[i]` is `Some(v)` once the root received `p_i`'s item
    /// (`collected[0]` is the root's own value).
    pub collected: Vec<Option<u64>>,
}

/// Runs the optimal staggered gather of `values` (one per processor)
/// into `p_0`. Completes in exactly `(n−2) + λ` and is model-clean.
///
/// # Panics
/// Panics if `values` is empty.
pub fn run_gather(values: &[u64], latency: Latency) -> GatherOutcome {
    let n = values.len();
    assert!(n >= 1, "gather needs at least one processor");
    let programs = programs_from(n, |id| {
        Box::new(GatherProgram {
            value: values[id.index()],
            is_root: id == ProcId::ROOT,
        }) as Box<dyn Program<Contribution>>
    });
    let model = Uniform(latency);
    let report = Simulation::new(n, &model)
        .run(programs)
        .expect("gather cannot diverge");
    let mut collected = vec![None; n];
    collected[0] = Some(values[0]);
    for t in report.trace.received_by(ProcId::ROOT) {
        collected[t.src.index()] = Some(t.payload.0);
    }
    GatherOutcome { report, collected }
}

/// The gather lower bound `(n−2) + λ` (attained by [`run_gather`]).
pub fn gather_lower_bound(n: u128, latency: Latency) -> Time {
    crate::ext::scatter::scatter_lower_bound(n, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attains_the_lower_bound_exactly() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(6),
        ] {
            for n in [1usize, 2, 3, 10, 50] {
                let values: Vec<u64> = (0..n as u64).map(|i| i + 5).collect();
                let o = run_gather(&values, lam);
                o.report.assert_model_clean();
                assert_eq!(
                    o.report.completion,
                    gather_lower_bound(n as u128, lam),
                    "λ={lam} n={n}"
                );
                for (i, c) in o.collected.iter().enumerate() {
                    assert_eq!(*c, Some(values[i]), "p{i}");
                }
            }
        }
    }

    #[test]
    fn root_input_port_is_saturated() {
        // The root's receive finishes are exactly λ, λ+1, …, λ+n−2.
        let lam = Latency::from_ratio(5, 2);
        let o = run_gather(&[9; 6], lam);
        let mut finishes: Vec<Time> = o
            .report
            .trace
            .received_by(ProcId::ROOT)
            .map(|t| t.recv_finish())
            .collect();
        finishes.sort();
        let expected: Vec<Time> = (0..5).map(|k| lam.as_time() + Time::from_int(k)).collect();
        assert_eq!(finishes, expected);
    }

    #[test]
    fn gather_is_scatter_reversed() {
        // Same optimal time for the dual problems.
        for lam in [Latency::TELEPHONE, Latency::from_int(3)] {
            for n in [2u128, 7, 20] {
                assert_eq!(
                    gather_lower_bound(n, lam),
                    crate::ext::scatter::scatter_lower_bound(n, lam)
                );
            }
        }
    }
}
