//! Algorithm PIPELINE — broadcast `m` messages as a pipelined stream
//! (Section 4.2, Lemmas 14 and 16).
//!
//! Like PACK, each processor sends the whole stream to one recipient and
//! then recursively broadcasts it to a sub-range — but recipients start
//! forwarding packets *as they arrive* instead of waiting for the whole
//! stream. Normalizing time by the stream length yields BCAST at a
//! modified latency, in two regimes:
//!
//! * **PIPELINE-1** (`m ≤ λ`): normalized latency `λ' = λ/m`; the sender
//!   of a stream frees up (after `m` units) before its recipient can
//!   forward (after `λ`), so the usual BCAST orientation applies — the
//!   sender keeps the larger sub-range. `T_PL1 = m·f_{λ/m}(n) + (m−1)`.
//! * **PIPELINE-2** (`m ≥ λ`): normalized latency `λ' = m/λ`; now the
//!   *recipient* can forward (after `λ`) before the sender finishes
//!   (after `m`), so — as the paper puts it — the algorithm "results in
//!   changing the responsibilities of the sender and the receiver":
//!   the recipient gets the larger sub-range.
//!   `T_PL2 = λ·f_{m/λ}(n) + (λ−1)`.
//!
//! Mechanically both regimes run the same program: forward each arriving
//! packet immediately to the first cascade target, and once the stream is
//! complete, replay it from the buffer to each remaining target. Only the
//! cascade orientation differs.

use crate::cascade::{cascade, CascadeSend, FibTable, Orientation};
use crate::multi::{run_multi, MultiPacket, MultiReport};
use postal_model::ratio::Ratio;
use postal_model::runtimes::{pipeline_regime, PipelineRegime};
use postal_model::Latency;
use postal_sim::prelude::*;
use std::sync::Arc;

/// The cascade every PIPELINE program of one run walks, for `m`
/// messages in MPS(n, λ): the `F_λ'` table at the regime's normalized
/// latency λ', built for `n` processors, and the regime's orientation.
///
/// # Panics
/// Panics if `m == 0`.
pub fn pipeline_cascade(n: u64, m: u32, latency: Latency) -> (Arc<FibTable>, Orientation) {
    assert!(m >= 1, "at least one message must be broadcast");
    let lam = latency.value();
    let m_r = Ratio::from_int(m as i128);
    let (normalized, orientation) = match pipeline_regime(m as u64, latency) {
        PipelineRegime::Short => (
            Latency::new(lam / m_r).expect("m ≤ λ keeps λ/m ≥ 1"),
            Orientation::Standard,
        ),
        PipelineRegime::Long => (
            Latency::new(m_r / lam).expect("m ≥ λ keeps m/λ ≥ 1"),
            Orientation::Swapped,
        ),
    };
    (Arc::new(FibTable::new(normalized, n)), orientation)
}

/// Per-processor PIPELINE program (either regime).
pub struct PipelineProgram {
    /// The run's `F_λ'` table, shared by all of its programs.
    table: Arc<FibTable>,
    orientation: Orientation,
    m: u32,
    /// `Some(n)` on the originator.
    root_range: Option<u64>,
    received: u32,
}

impl PipelineProgram {
    /// Creates the program for one processor of a run broadcasting `m`
    /// messages. `table` and `orientation` are the run's
    /// [`pipeline_cascade`]; `root_range` is `Some(n)` on `p_0`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(
        table: Arc<FibTable>,
        orientation: Orientation,
        m: u32,
        root_range: Option<u64>,
    ) -> PipelineProgram {
        assert!(m >= 1, "at least one message must be broadcast");
        PipelineProgram {
            table,
            orientation,
            m,
            root_range,
            received: 0,
        }
    }

    fn send_stream(ctx: &mut dyn Context<MultiPacket>, target: CascadeSend, m: u32) {
        let me = ctx.me().index() as u64;
        for msg in 1..=m {
            ctx.send(
                ProcId::from((me + target.offset) as usize),
                MultiPacket {
                    msg,
                    range_size: target.size,
                },
            );
        }
    }
}

impl Program<MultiPacket> for PipelineProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        if let Some(n) = self.root_range {
            for target in cascade(&self.table, n, self.orientation) {
                Self::send_stream(ctx, target, self.m);
            }
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<MultiPacket>,
        _from: ProcId,
        packet: MultiPacket,
    ) {
        self.received += 1;
        // Every packet of the stream delegates the same range.
        let mut targets = cascade(&self.table, packet.range_size, self.orientation);
        // Forward the arriving packet to the first target immediately:
        // this is the pipelining. Arrivals come one per unit, so the
        // output port is always free for the forward.
        if let Some(first) = targets.next() {
            let me = ctx.me().index() as u64;
            ctx.send(
                ProcId::from((me + first.offset) as usize),
                MultiPacket {
                    msg: packet.msg,
                    range_size: first.size,
                },
            );
        }
        // Stream complete: replay it from the buffer to the remaining
        // targets, back-to-back.
        if self.received == self.m {
            for target in targets {
                Self::send_stream(ctx, target, self.m);
            }
        }
    }
}

/// Builds the PIPELINE programs for broadcasting `m` messages in
/// MPS(n, λ); the regime is selected automatically from `m` and λ.
pub fn pipeline_programs(n: usize, m: u32, latency: Latency) -> Vec<Box<dyn Program<MultiPacket>>> {
    let (table, orientation) = pipeline_cascade(n as u64, m, latency);
    programs_from(n, |id| {
        Box::new(PipelineProgram::new(
            Arc::clone(&table),
            orientation,
            m,
            (id == ProcId::ROOT).then_some(n as u64),
        ))
    })
}

/// Runs PIPELINE and returns the verified-ready report.
pub fn run_pipeline(n: usize, m: u32, latency: Latency) -> MultiReport {
    run_multi(n, m, latency, pipeline_programs(n, m, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    #[test]
    fn matches_lemma14_in_short_regime() {
        // m ≤ λ throughout.
        for (lam, ms) in [
            (Latency::from_int(4), vec![1u32, 2, 3, 4]),
            (Latency::from_ratio(5, 2), vec![1, 2]),
            (Latency::from_int(8), vec![1, 2, 4, 8]),
        ] {
            for n in [2usize, 3, 5, 14, 40] {
                for &m in &ms {
                    let r = run_pipeline(n, m, lam);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::pipeline1_time(n as u128, m as u64, lam).unwrap(),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_lemma16_in_long_regime() {
        // m ≥ λ throughout.
        for (lam, ms) in [
            (Latency::TELEPHONE, vec![1u32, 2, 5, 9]),
            (Latency::from_int(2), vec![2, 3, 4, 8]),
            (Latency::from_ratio(5, 2), vec![3, 5, 10]),
            (Latency::from_ratio(3, 2), vec![2, 6]),
        ] {
            for n in [2usize, 3, 5, 14, 40] {
                for &m in &ms {
                    let r = run_pipeline(n, m, lam);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::pipeline2_time(n as u128, m as u64, lam).unwrap(),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn worked_example_n5_m3_lambda2() {
        // Hand-checked PIPELINE-2 case: λ' = 3/2, f_{3/2}(5) = 7/2, so
        // T = 2·(7/2) + 1 = 8.
        let r = run_pipeline(5, 3, Latency::from_int(2));
        r.verify().unwrap();
        assert_eq!(r.completion(), postal_model::Time::from_int(8));
    }

    #[test]
    fn one_message_is_bcast_in_both_regimes() {
        for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
            let r = run_pipeline(14, 1, lam);
            r.verify().unwrap();
            assert_eq!(r.completion(), runtimes::bcast_time(14, lam));
        }
    }

    #[test]
    fn regimes_agree_at_m_equals_lambda() {
        let lam = Latency::from_int(3);
        let r = run_pipeline(20, 3, lam);
        r.verify().unwrap();
        assert_eq!(
            runtimes::pipeline1_time(20, 3, lam).unwrap(),
            runtimes::pipeline2_time(20, 3, lam).unwrap()
        );
        assert_eq!(r.completion(), runtimes::pipeline_time(20, 3, lam));
    }

    #[test]
    fn pipeline_beats_pack_for_long_streams() {
        // Section 4.2: exploiting stream non-atomicity makes PIPELINE
        // more efficient than PACK.
        let lam = Latency::from_int(4);
        let (n, m) = (64usize, 32u32);
        let pl = run_pipeline(n, m, lam).completion();
        let pk = crate::pack::run_pack(n, m, lam).completion();
        assert!(pl < pk, "pipeline {pl} vs pack {pk}");
    }

    #[test]
    fn singleton_system() {
        let r = run_pipeline(1, 6, Latency::from_int(2));
        r.verify().unwrap();
        assert_eq!(r.completion(), postal_model::Time::ZERO);
    }
}
