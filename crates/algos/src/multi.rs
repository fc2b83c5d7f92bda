//! Shared machinery for the multi-message broadcasting algorithms
//! (Section 4).
//!
//! All multi-message algorithms carry the same payload: which of the `m`
//! messages a packet is, plus the delegated range size for algorithms that
//! delegate ranges. A [`MultiReport`] wraps the simulation report with
//! broadcast-specific verification: completeness (everyone got all `m`
//! messages exactly once) and the paper's order-preservation property.

use postal_sim::prelude::*;

/// A packet of a multi-message broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiPacket {
    /// Message index, `1 ..= m`.
    pub msg: u32,
    /// Delegated range size (receiver included); algorithms with static
    /// structure (DTREE) carry their tree implicitly and set this to 0.
    pub range_size: u64,
}

/// The result of running a multi-message broadcast.
#[derive(Debug)]
pub struct MultiReport {
    /// The underlying simulation report.
    pub report: RunReport<MultiPacket>,
    /// Number of processors.
    pub n: usize,
    /// Number of messages broadcast.
    pub m: u32,
}

/// A verification failure in a multi-message broadcast run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastDefect {
    /// A processor did not receive some message exactly once.
    WrongMultiplicity {
        /// The processor.
        proc: ProcId,
        /// The message index.
        msg: u32,
        /// Number of copies received.
        copies: usize,
    },
    /// A processor received messages out of index order.
    OrderViolation {
        /// The processor.
        proc: ProcId,
    },
    /// The strict postal model was violated (overlapping receives).
    ModelViolation {
        /// Number of port overlaps.
        count: usize,
    },
}

impl MultiReport {
    /// Completion time (the paper's running time).
    pub fn completion(&self) -> postal_model::Time {
        self.report.completion
    }

    /// Full verification: model-clean, complete, and order-preserving.
    ///
    /// # Errors
    /// Returns the first defect found.
    pub fn verify(&self) -> Result<(), BroadcastDefect> {
        if !self.report.violations.is_empty() {
            return Err(BroadcastDefect::ModelViolation {
                count: self.report.violations.len(),
            });
        }
        // Every non-root processor receives every message exactly once.
        for i in 1..self.n {
            let p = ProcId::from(i);
            let mut counts = vec![0usize; self.m as usize + 1];
            for t in self.report.trace.received_by(p) {
                counts[t.payload.msg as usize] += 1;
            }
            for msg in 1..=self.m {
                if counts[msg as usize] != 1 {
                    return Err(BroadcastDefect::WrongMultiplicity {
                        proc: p,
                        msg,
                        copies: counts[msg as usize],
                    });
                }
            }
        }
        // Order preservation: receive order respects message index order.
        self.report
            .trace
            .check_order_preserving(self.n, |p: &MultiPacket| Some(p.msg))
            .map_err(|proc| BroadcastDefect::OrderViolation { proc })
    }

    /// Verification that tolerates model violations (for queued-mode or
    /// adversarial runs): completeness and order only.
    pub fn verify_delivery(&self) -> Result<(), BroadcastDefect> {
        let clean = MultiReport {
            report: RunReport {
                completion: self.report.completion,
                trace: self.report.trace.clone(),
                violations: Vec::new(),
                edge_violations: Vec::new(),
                proc_stats: self.report.proc_stats.clone(),
                events: self.report.events,
                exact_pushes: self.report.exact_pushes,
                overflow_pushes: self.report.overflow_pushes,
            },
            n: self.n,
            m: self.m,
        };
        clean.verify()
    }
}

/// Runs a multi-message algorithm's programs under a uniform λ in strict
/// mode.
///
/// # Panics
/// Panics if the simulation diverges (paper algorithms cannot).
pub fn run_multi(
    n: usize,
    m: u32,
    latency: postal_model::Latency,
    programs: Vec<Box<dyn Program<MultiPacket>>>,
) -> MultiReport {
    let model = Uniform(latency);
    let report = Simulation::new(n, &model)
        .run(programs)
        .expect("multi-message broadcast cannot diverge");
    MultiReport { report, n, m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::Latency;

    /// Root sends each message once to p1 (n = 2 broadcast).
    struct Pair {
        m: u32,
    }

    impl Program<MultiPacket> for Pair {
        fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
            for msg in 1..=self.m {
                ctx.send(ProcId(1), MultiPacket { msg, range_size: 1 });
            }
        }
        fn on_receive(
            &mut self,
            _ctx: &mut dyn Context<MultiPacket>,
            _from: ProcId,
            _p: MultiPacket,
        ) {
        }
    }

    fn pair_run(m: u32, lam: Latency) -> MultiReport {
        let programs: Vec<Box<dyn Program<MultiPacket>>> =
            vec![Box::new(Pair { m }), Box::new(Idle)];
        run_multi(2, m, lam, programs)
    }

    #[test]
    fn complete_ordered_pair_broadcast_verifies() {
        let r = pair_run(3, Latency::from_int(2));
        r.verify().unwrap();
        // Last send starts at m−1 = 2, finishes receiving at 2 + λ = 4.
        assert_eq!(r.completion(), postal_model::Time::from_int(4));
    }

    #[test]
    fn missing_message_is_detected() {
        // m claims 4 but only 3 are sent.
        let programs: Vec<Box<dyn Program<MultiPacket>>> =
            vec![Box::new(Pair { m: 3 }), Box::new(Idle)];
        let r = run_multi(2, 4, Latency::from_int(2), programs);
        assert_eq!(
            r.verify(),
            Err(BroadcastDefect::WrongMultiplicity {
                proc: ProcId(1),
                msg: 4,
                copies: 0
            })
        );
    }

    #[test]
    fn out_of_order_is_detected() {
        struct Backwards;
        impl Program<MultiPacket> for Backwards {
            fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
                for msg in [2u32, 1] {
                    ctx.send(ProcId(1), MultiPacket { msg, range_size: 1 });
                }
            }
            fn on_receive(
                &mut self,
                _ctx: &mut dyn Context<MultiPacket>,
                _f: ProcId,
                _p: MultiPacket,
            ) {
            }
        }
        let programs: Vec<Box<dyn Program<MultiPacket>>> =
            vec![Box::new(Backwards), Box::new(Idle)];
        let r = run_multi(2, 2, Latency::from_int(2), programs);
        assert_eq!(
            r.verify(),
            Err(BroadcastDefect::OrderViolation { proc: ProcId(1) })
        );
    }

    #[test]
    fn model_violation_is_reported_first() {
        struct TwoSenders(u32);
        impl Program<MultiPacket> for TwoSenders {
            fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
                ctx.send(
                    ProcId(2),
                    MultiPacket {
                        msg: self.0,
                        range_size: 1,
                    },
                );
            }
            fn on_receive(
                &mut self,
                _ctx: &mut dyn Context<MultiPacket>,
                _f: ProcId,
                _p: MultiPacket,
            ) {
            }
        }
        let programs: Vec<Box<dyn Program<MultiPacket>>> = vec![
            Box::new(TwoSenders(1)),
            Box::new(TwoSenders(2)),
            Box::new(Idle),
        ];
        let r = run_multi(3, 2, Latency::from_int(2), programs);
        assert_eq!(
            r.verify(),
            Err(BroadcastDefect::ModelViolation { count: 1 })
        );
        // verify_delivery ignores the overlap but still checks content:
        // p1 got nothing, which for n=3, m=2 is a multiplicity defect.
        assert!(matches!(
            r.verify_delivery(),
            Err(BroadcastDefect::WrongMultiplicity { .. })
        ));
    }
}
