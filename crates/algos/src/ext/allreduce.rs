//! All-reduce: every processor ends up with the reduction of all values.
//!
//! Composed from the two optimal primitives this crate already has:
//! combine (time-reversed Fibonacci tree, done at `f_λ(n)`) followed by
//! BCAST of the result (another `f_λ(n)`), for a total of exactly
//! `2·f_λ(n)`. The root's last combine receive finishes exactly at
//! `f_λ(n)`, so the broadcast phase starts with zero idle time.
//!
//! (A matching lower bound of `2·f_λ(n)` does not follow from the paper;
//! combining and broadcasting *can* in principle be interleaved. This
//! composition is the natural baseline an MPI implementation would call
//! reduce-then-bcast.)

use crate::cascade::{cascade, FibTable, Orientation};
use crate::fib_tree::{BroadcastTree, TreeNode};
use postal_model::{Latency, Time};
use postal_sim::prelude::*;
use std::sync::Arc;

/// All-reduce payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArPacket {
    /// Combine phase: a partial sum travelling root-ward.
    Partial(u64),
    /// Broadcast phase: the final total, with a BCAST range delegation.
    Result {
        /// The reduced total.
        total: u64,
        /// BCAST range delegated to the receiver.
        range_size: u64,
    },
}

/// Per-processor all-reduce program.
pub struct AllReduceProgram {
    /// The run's `F_λ` table, shared by all of its programs.
    table: Arc<FibTable>,
    value: u64,
    /// Combine-phase plan (from the reversed broadcast tree).
    parent: Option<ProcId>,
    send_at: Time,
    children: usize,
    /// Runtime state.
    acc: u64,
    received: usize,
    n: u64,
    /// Result learned (set when the broadcast phase reaches us).
    result: Option<u64>,
}

impl AllReduceProgram {
    fn broadcast_result(&mut self, ctx: &mut dyn Context<ArPacket>, total: u64, range: u64) {
        self.result = Some(total);
        let me = ctx.me().index() as u64;
        for send in cascade(&self.table, range, Orientation::Standard) {
            ctx.send(
                ProcId::from((me + send.offset) as usize),
                ArPacket::Result {
                    total,
                    range_size: send.size,
                },
            );
        }
    }
}

impl Program<ArPacket> for AllReduceProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<ArPacket>) {
        if self.n == 1 {
            self.result = Some(self.value);
            return;
        }
        if self.parent.is_some() {
            ctx.wake_at(self.send_at);
        }
    }

    fn on_receive(&mut self, ctx: &mut dyn Context<ArPacket>, _from: ProcId, p: ArPacket) {
        match p {
            ArPacket::Partial(v) => {
                self.acc += v;
                self.received += 1;
                // Root: when the last partial lands, start the broadcast.
                if self.parent.is_none() && self.received == self.children {
                    let total = self.acc;
                    let n = self.n;
                    self.broadcast_result(ctx, total, n);
                }
            }
            ArPacket::Result { total, range_size } => {
                self.broadcast_result(ctx, total, range_size);
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<ArPacket>) {
        assert_eq!(
            self.received, self.children,
            "reversed schedule delivers all children before the send slot"
        );
        let parent = self.parent.expect("only non-roots wake");
        ctx.send(parent, ArPacket::Partial(self.acc));
    }
}

/// The outcome of an all-reduce run.
#[derive(Debug)]
pub struct AllReduceOutcome {
    /// The simulation report.
    pub report: RunReport<ArPacket>,
    /// The totals each processor ended up with (root's included).
    pub totals: Vec<Option<u64>>,
}

/// Runs all-reduce (sum) over `values` at latency λ. Completes in
/// exactly `2·f_λ(n)` and is model-clean.
///
/// # Panics
/// Panics if `values` is empty.
pub fn run_allreduce(values: &[u64], latency: Latency) -> AllReduceOutcome {
    let n = values.len();
    assert!(n >= 1, "all-reduce needs at least one value");
    let tree = BroadcastTree::build(n as u64, latency);
    let horizon = tree.completion();

    struct Plan {
        parent: Option<ProcId>,
        send_at: Time,
        children: usize,
    }
    let mut plans: Vec<Plan> = (0..n)
        .map(|_| Plan {
            parent: None,
            send_at: Time::ZERO,
            children: 0,
        })
        .collect();
    fn collect(node: &TreeNode, parent: Option<ProcId>, horizon: Time, out: &mut [Plan]) {
        out[node.proc.index()] = Plan {
            parent,
            send_at: horizon - node.ready,
            children: node.children.len(),
        };
        for child in &node.children {
            collect(child, Some(node.proc), horizon, out);
        }
    }
    collect(&tree.root, None, horizon, &mut plans);

    let table = Arc::new(FibTable::new(latency, n as u64));
    let mut programs: Vec<Box<dyn Program<ArPacket>>> = Vec::with_capacity(n);
    for (i, plan) in plans.iter().enumerate() {
        programs.push(Box::new(AllReduceProgram {
            table: Arc::clone(&table),
            value: values[i],
            parent: plan.parent,
            send_at: plan.send_at,
            children: plan.children,
            acc: values[i],
            received: 0,
            n: n as u64,
            result: None,
        }));
    }
    let model = Uniform(latency);
    let report = Simulation::new(n, &model)
        .run(programs)
        .expect("all-reduce cannot diverge");

    // Reconstruct final knowledge from the trace: a processor knows the
    // total once it receives (or, for the root, assembles) a Result.
    let expected: u64 = values.iter().sum();
    let mut totals: Vec<Option<u64>> = vec![None; n];
    totals[0] = Some(expected); // the root assembles it
    for t in report.trace.transfers() {
        if let ArPacket::Result { total, .. } = t.payload {
            totals[t.dst.index()] = Some(total);
        }
    }
    if n == 1 {
        totals[0] = Some(values[0]);
    }
    AllReduceOutcome { report, totals }
}

/// The closed-form all-reduce time of this composition: `2·f_λ(n)`.
pub fn allreduce_time(n: u128, latency: Latency) -> Time {
    postal_model::runtimes::bcast_time(n, latency).mul_int(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_in_exactly_twice_bcast_time() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [1usize, 2, 3, 5, 14, 40] {
                let values: Vec<u64> = (1..=n as u64).collect();
                let o = run_allreduce(&values, lam);
                o.report.assert_model_clean();
                assert_eq!(
                    o.report.completion,
                    allreduce_time(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn every_processor_learns_the_total() {
        let values: Vec<u64> = (0..20).map(|i| i * 3 + 1).collect();
        let expected: u64 = values.iter().sum();
        let o = run_allreduce(&values, Latency::from_ratio(5, 2));
        for (i, t) in o.totals.iter().enumerate() {
            assert_eq!(*t, Some(expected), "p{i}");
        }
    }

    #[test]
    fn message_count_is_two_n_minus_two() {
        // n−1 partials up, n−1 results down.
        let o = run_allreduce(&[1; 17], Latency::from_int(2));
        assert_eq!(o.report.messages(), 32);
    }

    #[test]
    fn singleton_allreduce() {
        let o = run_allreduce(&[99], Latency::from_int(3));
        assert_eq!(o.report.completion, Time::ZERO);
        assert_eq!(o.totals, vec![Some(99)]);
    }
}
