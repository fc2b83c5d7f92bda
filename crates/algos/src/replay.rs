//! Schedule extraction and replay.
//!
//! [`crate::fib_tree::BroadcastTree::to_schedule`] (defined here as an
//! extension trait to keep `fib_tree` focused) turns the static
//! broadcast tree into an explicit [`Schedule`], which can be validated
//! mechanically against the postal model's rules and replayed on the
//! event-driven engine by [`ReplayProgram`] — a third, independent path
//! to the same timing, used to cross-check the tree builder, the
//! validator, and the engine against each other.

use postal_model::schedule::{Schedule, TimedSend};
use postal_model::Latency;
use postal_sim::prelude::*;

/// Extension: extract the explicit timed-send schedule of a broadcast
/// tree.
pub trait ToSchedule {
    /// The schedule equivalent of this structure.
    fn to_schedule(&self) -> Schedule;
}

impl ToSchedule for crate::fib_tree::BroadcastTree {
    fn to_schedule(&self) -> Schedule {
        let mut sends = Vec::new();
        collect(&self.root, self.latency, &mut sends);
        return Schedule::new(self.n as u32, self.latency, sends);

        fn collect(node: &crate::fib_tree::TreeNode, latency: Latency, out: &mut Vec<TimedSend>) {
            for child in &node.children {
                out.push(TimedSend {
                    src: node.proc.0,
                    dst: child.proc.0,
                    // The child became ready at send + λ.
                    send_start: child.ready - latency.as_time(),
                });
                collect(child, latency, out);
            }
        }
    }
}

/// Replays a fixed schedule on the engine using timer wake-ups: each
/// processor sends exactly what the schedule says, when it says.
///
/// The replay ignores received payloads (the schedule already encodes
/// causality); [`replay`] checks afterwards that the engine observed
/// exactly the scheduled transfers.
pub struct ReplayProgram {
    /// This processor's sends, ordered by time.
    my_sends: Vec<TimedSend>,
    next: usize,
}

impl Program<()> for ReplayProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<()>) {
        if let Some(first) = self.my_sends.first() {
            ctx.wake_at(first.send_start);
        }
    }

    fn on_receive(&mut self, _ctx: &mut dyn Context<()>, _from: ProcId, _p: ()) {}

    fn on_wake(&mut self, ctx: &mut dyn Context<()>) {
        let s = self.my_sends[self.next];
        debug_assert_eq!(
            s.send_start,
            ctx.now(),
            "replay wake must fire exactly at the scheduled send time"
        );
        ctx.send(ProcId(s.dst), ());
        self.next += 1;
        if let Some(next) = self.my_sends.get(self.next) {
            ctx.wake_at(next.send_start);
        }
    }
}

/// Replays `schedule` on the discrete-event engine (strict mode) and
/// returns the report. The report's completion equals
/// `schedule.completion()` and is violation-free iff the schedule's
/// ports validate.
pub fn replay(schedule: &Schedule) -> RunReport<()> {
    let model = Uniform(schedule.latency());
    Simulation::new(schedule.n() as usize, &model)
        .run(replay_programs(schedule))
        .expect("schedule replay cannot diverge")
}

/// One [`ReplayProgram`] per processor of `schedule`, in processor
/// order: what [`replay`] runs, for running on another engine or
/// configuration (under `Uniform(schedule.latency())`).
pub fn replay_programs(schedule: &Schedule) -> Vec<Box<dyn Program<()>>> {
    let mut per_proc: Vec<Vec<TimedSend>> = vec![Vec::new(); schedule.n() as usize];
    for s in schedule.sends() {
        per_proc[s.src as usize].push(*s);
    }
    per_proc
        .into_iter()
        .map(|sends| {
            Box::new(ReplayProgram {
                my_sends: sends,
                next: 0,
            }) as Box<dyn Program<()>>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib_tree::BroadcastTree;
    use postal_model::{runtimes, Time};

    #[test]
    fn tree_schedule_validates_as_broadcast() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_ratio(7, 3),
            Latency::from_int(4),
        ] {
            for n in [1u64, 2, 5, 14, 60, 200] {
                let schedule = BroadcastTree::build(n, lam).to_schedule();
                postal_verify::assert_broadcast_clean(&schedule, &format!("tree λ={lam} n={n}"));
                assert_eq!(
                    schedule.completion(),
                    if n == 1 {
                        Time::ZERO
                    } else {
                        runtimes::bcast_time(n as u128, lam)
                    },
                    "λ={lam} n={n}"
                );
                assert_eq!(schedule.len(), n as usize - 1);
            }
        }
    }

    #[test]
    fn replay_reproduces_tree_timing_exactly() {
        let lam = Latency::from_ratio(5, 2);
        let schedule = BroadcastTree::build(33, lam).to_schedule();
        let report = replay(&schedule);
        report.assert_model_clean();
        assert_eq!(report.completion, schedule.completion());
        assert_eq!(report.messages(), schedule.len());
        // Transfer-by-transfer agreement.
        let mut scheduled: Vec<(u32, u32, Time)> = schedule
            .sends()
            .iter()
            .map(|s| (s.src, s.dst, s.send_start))
            .collect();
        let mut observed: Vec<(u32, u32, Time)> = report
            .trace
            .transfers()
            .iter()
            .map(|t| (t.src.0, t.dst.0, t.send_start))
            .collect();
        scheduled.sort();
        observed.sort();
        assert_eq!(scheduled, observed);
    }

    #[test]
    fn replay_flags_an_invalid_schedule() {
        // Two senders hitting one destination simultaneously: ports
        // invalid, and the strict engine flags it too.
        use postal_model::schedule::TimedSend;
        let lam = Latency::from_int(2);
        let bad = Schedule::new(
            3,
            lam,
            vec![
                TimedSend {
                    src: 0,
                    dst: 2,
                    send_start: Time::ZERO,
                },
                TimedSend {
                    src: 1,
                    dst: 2,
                    send_start: Time::ZERO,
                },
            ],
        );
        use postal_verify::{lint_schedule, LintCode, LintOptions};
        let diags = lint_schedule(&bad, &LintOptions::ports_only());
        assert!(diags.iter().any(|d| d.code == LintCode::InputWindowOverlap));
        let report = replay(&bad);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn empty_schedule_replays_to_nothing() {
        let s = Schedule::new(1, Latency::TELEPHONE, vec![]);
        let report = replay(&s);
        assert_eq!(report.messages(), 0);
        assert_eq!(report.completion, Time::ZERO);
    }
}
