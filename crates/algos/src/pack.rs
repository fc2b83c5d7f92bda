//! Algorithm PACK — broadcast `m` messages as one "long message"
//! (Section 4.2, Lemma 12).
//!
//! The originator packs the `m` messages and runs BCAST on the pack; each
//! recipient first receives all `m` atomic packets and only then forwards
//! the pack along its own cascade. To stay optimal, the cascade is
//! computed with the *normalized* latency `λ' = 1 + (λ−1)/m`: in units of
//! "one pack-send = m atomic sends" the system behaves exactly like
//! MPS(n, λ'), giving `T_PK = m·f_{λ'}(n)`.

use crate::cascade::{cascade, FibTable, Orientation};
use crate::multi::{run_multi, MultiPacket, MultiReport};
use postal_model::{runtimes, Latency};
use postal_sim::prelude::*;
use std::sync::Arc;

/// Per-processor PACK program.
pub struct PackProgram {
    /// The run's `F_λ'` table at the normalized latency λ', shared by
    /// all of its programs.
    table: Arc<FibTable>,
    m: u32,
    /// `Some(n)` on the originator.
    root_range: Option<u64>,
    /// Packets of the pack received so far.
    received: u32,
    /// Range this processor is responsible for (learned from packet 1).
    range_size: Option<u64>,
}

impl PackProgram {
    /// Creates the program for one processor of a run broadcasting `m`
    /// messages. `table` is the run's table at the normalized latency
    /// `λ' = 1 + (λ−1)/m` ([`runtimes::pack_normalized_latency`]),
    /// built for at least the `n` processors; `root_range` is `Some(n)`
    /// on `p_0`.
    pub fn new(table: Arc<FibTable>, m: u32, root_range: Option<u64>) -> PackProgram {
        assert!(m >= 1);
        PackProgram {
            table,
            m,
            root_range,
            received: 0,
            range_size: None,
        }
    }

    /// Sends the whole pack along the cascade: for each delegate, all `m`
    /// packets back-to-back.
    fn forward_pack(&self, ctx: &mut dyn Context<MultiPacket>, range_size: u64) {
        let me = ctx.me().index() as u64;
        for send in cascade(&self.table, range_size, Orientation::Standard) {
            for msg in 1..=self.m {
                ctx.send(
                    ProcId::from((me + send.offset) as usize),
                    MultiPacket {
                        msg,
                        range_size: send.size,
                    },
                );
            }
        }
    }
}

impl Program<MultiPacket> for PackProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<MultiPacket>) {
        if let Some(n) = self.root_range {
            self.forward_pack(ctx, n);
        }
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<MultiPacket>,
        _from: ProcId,
        packet: MultiPacket,
    ) {
        self.received += 1;
        self.range_size.get_or_insert(packet.range_size);
        debug_assert_eq!(
            self.range_size,
            Some(packet.range_size),
            "all packets of a pack delegate the same range"
        );
        if self.received == self.m {
            // Pack complete: forward it (PACK never forwards early).
            let range = self.range_size.expect("range recorded with packet 1");
            self.forward_pack(ctx, range);
        }
    }
}

/// Builds the PACK programs for broadcasting `m` messages in MPS(n, λ).
pub fn pack_programs(n: usize, m: u32, latency: Latency) -> Vec<Box<dyn Program<MultiPacket>>> {
    let normalized = runtimes::pack_normalized_latency(m as u64, latency);
    let table = Arc::new(FibTable::new(normalized, n as u64));
    programs_from(n, |id| {
        Box::new(PackProgram::new(
            Arc::clone(&table),
            m,
            (id == ProcId::ROOT).then_some(n as u64),
        ))
    })
}

/// Runs PACK and returns the verified-ready report.
pub fn run_pack(n: usize, m: u32, latency: Latency) -> MultiReport {
    run_multi(n, m, latency, pack_programs(n, m, latency))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_lemma12_exactly() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
            Latency::from_int(9),
        ] {
            for n in [2usize, 3, 5, 14, 40] {
                for m in [1u32, 2, 3, 7] {
                    let r = run_pack(n, m, lam);
                    r.verify().unwrap();
                    assert_eq!(
                        r.completion(),
                        runtimes::pack_time(n as u128, m as u64, lam),
                        "λ={lam} n={n} m={m}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_message_is_bcast() {
        let lam = Latency::from_ratio(5, 2);
        let r = run_pack(14, 1, lam);
        r.verify().unwrap();
        assert_eq!(r.completion(), runtimes::bcast_time(14, lam));
    }

    #[test]
    fn pack_near_optimal_for_small_m_large_lambda() {
        // Section 4.2's claim: for small m and large λ, PACK approaches the
        // Lemma 8 lower bound within a factor ~2 (and beats REPEAT).
        let lam = Latency::from_int(16);
        let (n, m) = (64usize, 2u32);
        let pack = run_pack(n, m, lam).completion();
        let repeat = crate::repeat::run_repeat(n, m, lam).completion();
        let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
        assert!(pack < repeat);
        assert!(pack.to_f64() / lb.to_f64() < 2.5);
    }

    #[test]
    fn packets_arrive_consecutively() {
        // Every non-root processor receives its m packets in m consecutive
        // time units (the pack is atomic end-to-end).
        let r = run_pack(14, 3, Latency::from_ratio(5, 2));
        r.verify().unwrap();
        for i in 1..14usize {
            let times: Vec<postal_model::Time> = r
                .report
                .trace
                .received_by(ProcId::from(i))
                .map(|t| t.recv_finish)
                .collect();
            assert_eq!(times.len(), 3);
            for w in times.windows(2) {
                assert_eq!(w[1] - w[0], postal_model::Time::ONE, "p{i}");
            }
        }
    }

    #[test]
    fn singleton_system() {
        let r = run_pack(1, 4, Latency::from_int(3));
        r.verify().unwrap();
        assert_eq!(r.completion(), postal_model::Time::ZERO);
    }
}
