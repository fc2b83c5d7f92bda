//! Gossiping (all-to-all broadcast) in the postal model (Section 5
//! extension).
//!
//! Every processor starts with one value and all processors must learn
//! all `n` values. This module composes two primitives the paper
//! provides the theory for:
//!
//! 1. **Gather** — each processor `p_i` sends its value directly to the
//!    root at time `i − 1`; the staggered start times make the root's
//!    input port exactly saturated (one receive per unit, no overlap),
//!    finishing at `(n−2) + λ`.
//! 2. **Pipelined broadcast** — the root then broadcasts the `n` values
//!    as a stream using Algorithm PIPELINE (Lemmas 14/16), adding exactly
//!    `T_PL(n, n, λ)`.
//!
//! Total: `(n−2) + λ + T_PL(n, n, λ)` — within a constant factor of the
//! trivial `max(f_λ(n), n−1)` gossip lower bound. (Beating it requires
//! the non-order-preserving machinery of the authors' follow-up paper
//! \[2\], which is out of scope.)

use crate::cascade::{FibTable, Orientation};
use crate::multi::MultiPacket;
use crate::pipeline::{pipeline_cascade, PipelineProgram};
use postal_model::{runtimes, Latency, Time};
use postal_sim::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Gossip payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipPacket {
    /// Phase 1: a value travelling to the root.
    Gather {
        /// The contributed value.
        value: u64,
    },
    /// Phase 2: stream packet `msg` (1-based; value of processor
    /// `msg − 1`) with its PIPELINE range delegation.
    Stream {
        /// Message index within the stream.
        msg: u32,
        /// PIPELINE range delegation.
        range_size: u64,
        /// The value being disseminated.
        value: u64,
    },
}

/// Adapter that lets the inner [`PipelineProgram`] (which speaks
/// [`MultiPacket`]) drive a [`GossipPacket`] context, attaching values.
struct StreamCtx<'a, 'b> {
    inner: &'a mut dyn Context<GossipPacket>,
    values: &'b HashMap<u32, u64>,
}

impl Context<MultiPacket> for StreamCtx<'_, '_> {
    fn me(&self) -> ProcId {
        self.inner.me()
    }
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn send(&mut self, dst: ProcId, payload: MultiPacket) {
        let value = *self
            .values
            .get(&payload.msg)
            .expect("a forwarded stream value must have been learned");
        self.inner.send(
            dst,
            GossipPacket::Stream {
                msg: payload.msg,
                range_size: payload.range_size,
                value,
            },
        );
    }
    fn wake_at(&mut self, t: Time) {
        self.inner.wake_at(t);
    }
}

/// Per-processor gossip program.
pub struct GossipProgram {
    value: u64,
    n: usize,
    pipeline: PipelineProgram,
    /// msg index → value, filled by gathering (root) or stream arrivals.
    learned: HashMap<u32, u64>,
    gathered: usize,
    is_root: bool,
}

impl GossipProgram {
    /// Creates the program for one processor holding `value`.
    /// `table` and `orientation` are the run's [`pipeline_cascade`] for
    /// a stream of `n` messages over `n` processors (see
    /// [`GossipProgram::stream_cascade`]).
    pub fn new(
        me: ProcId,
        n: usize,
        value: u64,
        table: Arc<FibTable>,
        orientation: Orientation,
    ) -> GossipProgram {
        let is_root = me == ProcId::ROOT;
        let mut learned = HashMap::new();
        // Every processor knows its own value; message index is
        // 1 + origin index.
        learned.insert(me.0 + 1, value);
        GossipProgram {
            value,
            n,
            pipeline: PipelineProgram::new(
                table,
                orientation,
                n as u32,
                is_root.then_some(n as u64),
            ),
            learned,
            gathered: 1, // own value
            is_root,
        }
    }

    /// The stream cascade the gossip programs of one run over `n`
    /// processors share: the [`pipeline_cascade`] of `n` messages.
    pub fn stream_cascade(n: usize, latency: Latency) -> (Arc<FibTable>, Orientation) {
        pipeline_cascade(n as u64, n as u32, latency)
    }
}

impl Program<GossipPacket> for GossipProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<GossipPacket>) {
        if self.n == 1 {
            return;
        }
        if !self.is_root {
            // Staggered gather slot: p_i transmits during [i−1, i].
            ctx.wake_at(Time::from_int(ctx.me().index() as i128 - 1));
        }
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<GossipPacket>) {
        ctx.send(ProcId::ROOT, GossipPacket::Gather { value: self.value });
    }

    fn on_receive(
        &mut self,
        ctx: &mut dyn Context<GossipPacket>,
        from: ProcId,
        packet: GossipPacket,
    ) {
        match packet {
            GossipPacket::Gather { value } => {
                debug_assert!(self.is_root, "only the root gathers");
                self.learned.insert(from.0 + 1, value);
                self.gathered += 1;
                if self.gathered == self.n {
                    // Everything collected: start the pipelined broadcast.
                    let mut stream_ctx = StreamCtx {
                        inner: ctx,
                        values: &self.learned,
                    };
                    self.pipeline.on_start(&mut stream_ctx);
                }
            }
            GossipPacket::Stream {
                msg,
                range_size,
                value,
            } => {
                self.learned.insert(msg, value);
                let mut stream_ctx = StreamCtx {
                    inner: ctx,
                    values: &self.learned,
                };
                self.pipeline
                    .on_receive(&mut stream_ctx, from, MultiPacket { msg, range_size });
            }
        }
    }
}

/// The outcome of a gossip run.
#[derive(Debug)]
pub struct GossipOutcome {
    /// The simulation report.
    pub report: RunReport<GossipPacket>,
    /// `final_knowledge[p][i]` is `Some(v)` if processor `p` ends up
    /// knowing processor `i`'s value `v` (own values included).
    pub final_knowledge: Vec<Vec<Option<u64>>>,
}

impl GossipOutcome {
    /// True if every processor learned every value correctly.
    pub fn complete(&self, values: &[u64]) -> bool {
        self.final_knowledge
            .iter()
            .all(|known| known.iter().zip(values).all(|(k, v)| k.as_ref() == Some(v)))
    }
}

/// Runs gossip over `values` (one per processor) at latency λ.
///
/// # Panics
/// Panics if `values` is empty.
pub fn run_gossip(values: &[u64], latency: Latency) -> GossipOutcome {
    let n = values.len();
    assert!(n >= 1, "gossip needs at least one processor");
    let (table, orientation) = GossipProgram::stream_cascade(n, latency);
    let programs = programs_from(n, |id| {
        Box::new(GossipProgram::new(
            id,
            n,
            values[id.index()],
            Arc::clone(&table),
            orientation,
        )) as Box<dyn Program<GossipPacket>>
    });
    let model = Uniform(latency);
    let report = Simulation::new(n, &model)
        .run(programs)
        .expect("gossip cannot diverge");

    // Reconstruct what each processor ends up knowing from the trace.
    let mut final_knowledge: Vec<Vec<Option<u64>>> = (0..n)
        .map(|i| {
            let mut known = vec![None; n];
            known[i] = Some(values[i]);
            known
        })
        .collect();
    for t in report.trace.transfers() {
        match t.payload {
            GossipPacket::Gather { value } => {
                final_knowledge[t.dst.index()][t.src.index()] = Some(value);
            }
            GossipPacket::Stream { msg, value, .. } => {
                final_knowledge[t.dst.index()][(msg - 1) as usize] = Some(value);
            }
        }
    }
    GossipOutcome {
        report,
        final_knowledge,
    }
}

/// The closed-form running time of this gossip composition:
/// `(n−2) + λ + T_PL(n, n, λ)` for `n ≥ 2`, else 0.
pub fn gossip_time(n: u128, latency: Latency) -> Time {
    if n <= 1 {
        return Time::ZERO;
    }
    Time::from_int(n as i128 - 2)
        + latency.as_time()
        + runtimes::pipeline_time(n, n as u64, latency)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_learns_everything() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [1usize, 2, 3, 5, 14, 25] {
                let values: Vec<u64> = (0..n as u64).map(|i| 100 + i * 3).collect();
                let outcome = run_gossip(&values, lam);
                outcome.report.assert_model_clean();
                assert!(outcome.complete(&values), "λ={lam} n={n}");
            }
        }
    }

    #[test]
    fn matches_closed_form() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(5, 2),
            Latency::from_int(4),
        ] {
            for n in [2usize, 3, 5, 14, 25] {
                let values: Vec<u64> = vec![7; n];
                let outcome = run_gossip(&values, lam);
                assert_eq!(
                    outcome.report.completion,
                    gossip_time(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn singleton_gossip_is_trivial() {
        let outcome = run_gossip(&[42], Latency::from_int(2));
        assert_eq!(outcome.report.completion, Time::ZERO);
        assert!(outcome.complete(&[42]));
    }

    #[test]
    fn gather_saturates_root_port_without_overlap() {
        // The staggered schedule keeps the root's input port exactly
        // busy: n−1 consecutive receives, zero violations.
        let values: Vec<u64> = (0..12).collect();
        let outcome = run_gossip(&values, Latency::from_ratio(5, 2));
        outcome.report.assert_model_clean();
        let gathers = outcome
            .report
            .trace
            .received_by(ProcId::ROOT)
            .filter(|t| matches!(t.payload, GossipPacket::Gather { .. }))
            .count();
        assert_eq!(gathers, 11);
    }
}
