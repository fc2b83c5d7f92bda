//! Property-based tests of the discrete-event engine's invariants under
//! randomized workloads.

use postal_model::{Latency, Time};
use postal_sim::prelude::*;
use proptest::prelude::*;

/// A workload: initial sends per processor, plus per-processor forward
/// targets (every received message is forwarded there, a bounded number
/// of times, so runs always terminate).
#[derive(Debug, Clone)]
struct Workload {
    n: usize,
    initial: Vec<(u32, u32)>,
    forward: Vec<Option<u32>>,
    forward_budget: u8,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (2usize..10).prop_flat_map(|n| {
        let initial = proptest::collection::vec(
            (0u32..n as u32, 0u32..n as u32).prop_filter("no self sends", |(a, b)| a != b),
            0..12,
        );
        let forward = proptest::collection::vec(proptest::option::of(0u32..n as u32), n..=n);
        (initial, forward, 1u8..4).prop_map(move |(initial, forward, forward_budget)| Workload {
            n,
            initial,
            forward,
            forward_budget,
        })
    })
}

struct WlProgram {
    initial: Vec<u32>,
    forward: Option<u32>,
    budget: u8,
    me: u32,
}

impl Program<u8> for WlProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
        for &d in &self.initial {
            ctx.send(ProcId(d), 0);
        }
    }
    fn on_receive(&mut self, ctx: &mut dyn Context<u8>, _from: ProcId, hops: u8) {
        if hops < self.budget {
            if let Some(f) = self.forward {
                if f != self.me {
                    ctx.send(ProcId(f), hops + 1);
                }
            }
        }
    }
}

fn programs_for(w: &Workload) -> Vec<Box<dyn Program<u8>>> {
    (0..w.n)
        .map(|i| {
            Box::new(WlProgram {
                initial: w
                    .initial
                    .iter()
                    .filter(|&&(s, _)| s as usize == i)
                    .map(|&(_, d)| d)
                    .collect(),
                forward: w.forward[i],
                budget: w.forward_budget,
                me: i as u32,
            }) as Box<dyn Program<u8>>
        })
        .collect()
}

fn arb_latency() -> impl Strategy<Value = Latency> {
    (1i128..=4, 1i128..=5).prop_map(|(q, mult)| Latency::from_ratio(q * mult, q))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_invariants_hold(w in arb_workload(), lam in arb_latency(),
                              queued in any::<bool>()) {
        let model = Uniform(lam);
        let mode = if queued { PortMode::Queued } else { PortMode::Strict };
        let report = Simulation::new(w.n, &model)
            .port_mode(mode)
            .run(programs_for(&w))
            .unwrap();

        // Output ports: per-processor send starts ≥ 1 unit apart.
        for p in 0..w.n {
            let sends = report.trace.sent_by(ProcId::from(p));
            for pair in sends.windows(2) {
                prop_assert!(
                    pair[1].send_start >= pair[0].send_start + Time::ONE,
                    "output port overlap at p{p}"
                );
            }
        }

        // Every transfer satisfies the uniform-λ timing identities.
        for t in report.trace.transfers() {
            prop_assert_eq!(t.send_finish(), t.send_start + Time::ONE);
            prop_assert_eq!(t.arrival, t.send_start + lam.as_time() - Time::ONE);
            prop_assert_eq!(t.recv_finish(), t.recv_start + Time::ONE);
            prop_assert!(t.recv_start >= t.arrival);
            if !queued {
                // Strict mode never shifts timing.
                prop_assert_eq!(t.recv_start, t.arrival);
            }
        }

        // Queued mode: input port serialized, no violations reported.
        if queued {
            prop_assert!(report.violations.is_empty());
            for p in 0..w.n {
                let mut finishes: Vec<Time> = report
                    .trace
                    .received_by(ProcId::from(p))
                    .map(|t| t.recv_finish())
                    .collect();
                finishes.sort();
                for pair in finishes.windows(2) {
                    prop_assert!(
                        pair[1] >= pair[0] + Time::ONE,
                        "input port overlap at p{p} in queued mode"
                    );
                }
            }
        } else {
            // Strict mode: a violation is reported iff two receive
            // windows at a destination actually overlap.
            for p in 0..w.n {
                let mut finishes: Vec<Time> = report
                    .trace
                    .received_by(ProcId::from(p))
                    .map(|t| t.recv_finish())
                    .collect();
                finishes.sort();
                let overlaps = finishes
                    .windows(2)
                    .filter(|w| w[1] < w[0] + Time::ONE)
                    .count();
                let reported = report
                    .violations
                    .iter()
                    .filter(|v| v.dst == ProcId::from(p))
                    .count();
                prop_assert_eq!(overlaps, reported, "violation accounting at p{}", p);
            }
        }
    }

    #[test]
    fn engine_is_deterministic(w in arb_workload(), lam in arb_latency()) {
        let model = Uniform(lam);
        let run = || {
            let r = Simulation::new(w.n, &model).run(programs_for(&w)).unwrap();
            r.trace
                .transfers()
                .iter()
                .map(|t| (t.src.0, t.dst.0, t.send_start, t.recv_finish()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn queued_never_completes_before_strict(w in arb_workload(), lam in arb_latency()) {
        let model = Uniform(lam);
        let strict = Simulation::new(w.n, &model).run(programs_for(&w)).unwrap();
        let queued = Simulation::new(w.n, &model)
            .port_mode(PortMode::Queued)
            .run(programs_for(&w))
            .unwrap();
        // Delaying receives can only push work later.
        prop_assert!(queued.completion >= strict.completion);
        // Same number of messages either way... queued-mode delays can
        // change *when* forwards happen but not message counts, because
        // forwarding is purely payload-driven.
        prop_assert_eq!(queued.messages(), strict.messages());
    }
}
