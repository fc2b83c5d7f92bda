//! Algorithm REPEAT — broadcast `m` messages by `m` overlapped iterations
//! of BCAST (Section 4.2, Lemma 10).
//!
//! The originator runs one BCAST per message; every other processor runs
//! its BCAST role once per received message. Lemma 10's analysis has the
//! originator start iteration `i+1` exactly `λ − 1` units before
//! iteration `i` terminates, i.e. at time `i·(f_λ(n) − (λ−1))`, giving
//!
//! `T_R = m·f_λ(n) − (m−1)(λ−1)`.
//!
//! Two pacings are implemented:
//!
//! * [`Pacing::PaperExact`] — the originator starts iteration `i+1` at
//!   exactly `i·(f_λ(n) − λ + 1)` (timer-driven). Reproduces Lemma 10
//!   *with equality* for every `n`, `m`, λ.
//! * [`Pacing::Greedy`] — the originator starts iteration `i+1` the
//!   moment its output port is free, i.e. immediately after the last send
//!   of iteration `i`. Since the originator's cascade has `k ≤ f−λ+1`
//!   sends, this never loses to the paper's schedule and is *strictly
//!   faster* whenever the originator is not on the critical path (e.g.
//!   n = 5, λ = 5/2: greedy finishes at 8 versus Lemma 10's 17/2) —
//!   a small sharpening of the paper's analysis that falls out of the
//!   event-driven implementation. Completion is
//!   `(m−1)·k + f_λ(n)` where `k` is the originator's cascade length.
//!
//! Both pacings preserve message order and are free of receive-port
//! conflicts (verified in strict mode).

use crate::cascade::{cascade, FibTable, Orientation};
use crate::multi::{run_multi, MultiPacket, MultiReport};
use postal_model::ratio::Ratio;
use postal_model::{Latency, Time};
use postal_sim::prelude::*;
use std::sync::Arc;

/// How the originator paces successive BCAST iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pacing {
    /// Start iteration `i+1` at `i·(f_λ(n) − λ + 1)`, as in Lemma 10's
    /// analysis. Matches `T_R = m·f_λ(n) − (m−1)(λ−1)` exactly.
    #[default]
    PaperExact,
    /// Start iteration `i+1` as soon as the output port frees up; never
    /// slower than [`Pacing::PaperExact`], often slightly faster.
    Greedy,
}

/// Per-processor REPEAT program.
pub struct RepeatProgram {
    /// The run's `F_λ` table, shared by all of its programs.
    table: Arc<FibTable>,
    pacing: Pacing,
    /// `Some((n, m))` on the originator.
    root: Option<(u64, u32)>,
    /// Next message index the originator will start (PaperExact pacing).
    next_msg: u32,
}

impl RepeatProgram {
    /// Creates the program for one processor. `table` is the run's
    /// `F_λ` table, built for at least the `n` processors; `root` is
    /// `Some((n, m))` for `p_0`, `None` elsewhere.
    pub fn new(table: Arc<FibTable>, pacing: Pacing, root: Option<(u64, u32)>) -> RepeatProgram {
        RepeatProgram {
            table,
            pacing,
            root,
            next_msg: 1,
        }
    }

    /// Every iteration delegates the same ranges: the cascade over
    /// `range_size`, walked again for each message.
    fn forward(&self, ctx: &mut dyn Context<MultiPacket>, msg: u32, range_size: u64) {
        let me = ctx.me().index() as u64;
        for send in cascade(&self.table, range_size, Orientation::Standard) {
            ctx.send(
                ProcId::from((me + send.offset) as usize),
                MultiPacket {
                    msg,
                    range_size: send.size,
                },
            );
        }
    }

    /// The Lemma 10 iteration period `f_λ(n) − (λ − 1)`.
    fn period(&self, n: u64) -> Time {
        self.table.index(n) - Time(self.table.latency().value() - Ratio::ONE)
    }

    /// Originator: start iteration `next_msg` now, and schedule the next.
    fn start_iteration(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        let (n, m) = self.root.expect("only the originator iterates");
        if n <= 1 || self.next_msg > m {
            return;
        }
        match self.pacing {
            Pacing::Greedy => {
                // Issue everything at once; the output port back-to-backs
                // all m iterations with no idle time.
                for msg in 1..=m {
                    self.forward(ctx, msg, n);
                }
                self.next_msg = m + 1;
            }
            Pacing::PaperExact => {
                let msg = self.next_msg;
                self.forward(ctx, msg, n);
                self.next_msg += 1;
                if self.next_msg <= m {
                    let start = self.period(n).mul_int((self.next_msg - 1) as i128);
                    ctx.wake_at(start);
                }
            }
        }
    }
}

impl Program<MultiPacket> for RepeatProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        if self.root.is_some() {
            self.start_iteration(ctx);
        }
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        self.start_iteration(ctx);
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<MultiPacket>,
        _from: ProcId,
        packet: MultiPacket,
    ) {
        self.forward(ctx, packet.msg, packet.range_size);
    }
}

/// Builds the REPEAT programs for broadcasting `m` messages in MPS(n, λ).
pub fn repeat_programs(
    n: usize,
    m: u32,
    latency: Latency,
    pacing: Pacing,
) -> Vec<Box<dyn Program<MultiPacket>>> {
    let table = Arc::new(FibTable::new(latency, n as u64));
    programs_from(n, |id| {
        Box::new(RepeatProgram::new(
            Arc::clone(&table),
            pacing,
            (id == ProcId::ROOT).then_some((n as u64, m)),
        ))
    })
}

/// Runs REPEAT with the paper's pacing; completion equals Lemma 10's
/// `m·f_λ(n) − (m−1)(λ−1)` exactly.
pub fn run_repeat(n: usize, m: u32, latency: Latency) -> MultiReport {
    run_multi(
        n,
        m,
        latency,
        repeat_programs(n, m, latency, Pacing::PaperExact),
    )
}

/// Runs REPEAT with greedy pacing (the event-driven sharpening; see
/// module docs).
pub fn run_repeat_greedy(n: usize, m: u32, latency: Latency) -> MultiReport {
    run_multi(
        n,
        m,
        latency,
        repeat_programs(n, m, latency, Pacing::Greedy),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    #[test]
    fn matches_lemma10_exactly() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [2usize, 3, 5, 14, 40] {
                for m in [1u32, 2, 3, 7] {
                    let r = run_repeat(n, m, lam);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::repeat_time(n as u128, m as u64, lam),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_never_loses_to_paper_pacing() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(3),
        ] {
            for n in [2usize, 3, 5, 14, 40] {
                for m in [1u32, 2, 5] {
                    let greedy = run_repeat_greedy(n, m, lam);
                    greedy.verify().unwrap();
                    let paper = runtimes::repeat_time(n as u128, m as u64, lam);
                    assert!(
                        greedy.completion() <= paper,
                        "λ={lam} n={n} m={m}: greedy {} > paper {paper}",
                        greedy.completion()
                    );
                }
            }
        }
    }

    #[test]
    fn greedy_strictly_beats_lemma10_off_critical_path() {
        // n = 5, λ = 5/2: the originator's cascade is 3 sends but
        // f − (λ−1) = 7/2; greedy reuses the idle half unit per
        // iteration.
        let lam = Latency::from_ratio(5, 2);
        let greedy = run_repeat_greedy(5, 2, lam);
        greedy.verify().unwrap();
        assert_eq!(greedy.completion(), Time::from_int(8));
        assert_eq!(runtimes::repeat_time(5, 2, lam), Time::new(17, 2));
    }

    #[test]
    fn one_message_is_bcast() {
        let lam = Latency::from_ratio(5, 2);
        for run in [run_repeat(14, 1, lam), run_repeat_greedy(14, 1, lam)] {
            run.verify().unwrap();
            assert_eq!(run.completion(), runtimes::bcast_time(14, lam));
        }
    }

    #[test]
    fn message_count_is_m_times_bcast() {
        let r = run_repeat(20, 4, Latency::from_int(2));
        assert_eq!(r.report.messages(), 4 * 19);
    }

    #[test]
    fn iterations_overlap_but_never_collide() {
        // The crux of Lemma 10: copies of M_{i+1} sent during the tail of
        // iteration i arrive after iteration i is done — strict mode
        // proves there is no receive overlap, for both pacings.
        run_repeat(64, 8, Latency::from_ratio(5, 2))
            .verify()
            .unwrap();
        run_repeat_greedy(64, 8, Latency::from_ratio(5, 2))
            .verify()
            .unwrap();
    }

    #[test]
    fn singleton_system() {
        for r in [
            run_repeat(1, 5, Latency::from_int(2)),
            run_repeat_greedy(1, 5, Latency::from_int(2)),
        ] {
            r.verify().unwrap();
            assert_eq!(r.completion(), Time::ZERO);
        }
    }
}
