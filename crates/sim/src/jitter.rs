//! Stochastic latency: bounded per-message jitter around a base λ.
//!
//! The paper assumes λ "is expected to be fairly uniform across the
//! system and not to fluctuate too much" (Section 2). This model lets
//! experiments probe that assumption: each message's latency is
//! `base + U{0, …, max_extra_ticks}/q`, drawn deterministically from a
//! seeded hash of (src, dst, send time), so runs remain exactly
//! reproducible without carrying an RNG through the engine.

use crate::ids::ProcId;
use crate::latency_model::LatencyModel;
use postal_model::{Latency, Ratio, Time};

/// A latency model with bounded, deterministic pseudo-random jitter.
///
/// ```
/// use postal_sim::{Jittered, LatencyModel, ProcId};
/// use postal_model::{Latency, Time};
///
/// let model = Jittered::new(Latency::from_int(2), 4, 42);
/// let l = model.latency(ProcId(0), ProcId(1), Time::ZERO);
/// assert!(l >= Latency::from_int(2));
/// assert!(l <= model.max_latency().unwrap());
/// // Deterministic: same inputs, same latency.
/// assert_eq!(l, model.latency(ProcId(0), ProcId(1), Time::ZERO));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Jittered {
    base: Latency,
    /// Maximum extra latency, in ticks of `1/q` where q is the base
    /// latency's tick denominator.
    max_extra_ticks: u32,
    seed: u64,
}

impl Jittered {
    /// Creates a jittered model: per-message λ in
    /// `[base, base + max_extra_ticks/q]`.
    pub fn new(base: Latency, max_extra_ticks: u32, seed: u64) -> Jittered {
        Jittered {
            base,
            max_extra_ticks,
            seed,
        }
    }

    /// The base (minimum) latency.
    pub fn base(&self) -> Latency {
        self.base
    }

    /// splitmix64: a small, well-distributed deterministic hash.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn extra_ticks(&self, src: ProcId, dst: ProcId, send_start: Time) -> u32 {
        if self.max_extra_ticks == 0 {
            return 0;
        }
        // Fold the exact send time into the hash via its reduced parts.
        let r = send_start.as_ratio();
        let h = Self::mix(
            self.seed
                ^ Self::mix((src.0 as u64) << 32 | dst.0 as u64)
                ^ Self::mix(r.numer() as u64)
                ^ Self::mix(r.denom() as u64),
        );
        (h % (self.max_extra_ticks as u64 + 1)) as u32
    }
}

impl LatencyModel for Jittered {
    fn latency(&self, src: ProcId, dst: ProcId, send_start: Time) -> Latency {
        let q = self.base.ticks_per_unit();
        let extra = Ratio::new(self.extra_ticks(src, dst, send_start) as i128, q);
        Latency::new(self.base.value() + extra).expect("base ≥ 1 and extra ≥ 0")
    }

    /// Every λ is `base + k/q` for the base's own `q`, so the base's
    /// lattice holds them all.
    fn tick_denominator(&self) -> i64 {
        self.base.lattice_lcm(2)
    }

    fn max_latency(&self) -> Option<Latency> {
        let q = self.base.ticks_per_unit();
        Some(
            Latency::new(self.base.value() + Ratio::new(self.max_extra_ticks as i128, q))
                .expect("base ≥ 1 and extra ≥ 0"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_jittered_latency_lies_on_the_declared_lattice() {
        for base in [Latency::from_int(2), Latency::from_ratio(7, 3)] {
            let m = Jittered::new(base, 5, 11);
            let den = m.tick_denominator();
            assert_eq!(den, base.lattice_lcm(2));
            for t in 0..40 {
                let l = m.latency(ProcId(0), ProcId(1), Time::new(t, 3));
                assert!(l.as_time().to_ticks(den).is_some(), "{l} off 1/{den}");
            }
        }
    }

    #[test]
    fn zero_jitter_is_uniform() {
        let m = Jittered::new(Latency::from_ratio(5, 2), 0, 42);
        for t in 0..10 {
            assert_eq!(
                m.latency(ProcId(0), ProcId(1), Time::from_int(t)),
                Latency::from_ratio(5, 2)
            );
        }
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = Jittered::new(Latency::from_int(2), 4, 7);
        let lo = Latency::from_int(2);
        let hi = m.max_latency().unwrap();
        let mut seen_nonbase = false;
        for t in 0..50 {
            for d in 1..5u32 {
                let l1 = m.latency(ProcId(0), ProcId(d), Time::from_int(t));
                let l2 = m.latency(ProcId(0), ProcId(d), Time::from_int(t));
                assert_eq!(l1, l2, "determinism");
                assert!(l1 >= lo && l1 <= hi, "bounds: {l1}");
                if l1 != lo {
                    seen_nonbase = true;
                }
            }
        }
        assert!(seen_nonbase, "jitter should actually vary");
    }

    #[test]
    fn different_seeds_differ() {
        let a = Jittered::new(Latency::from_int(2), 8, 1);
        let b = Jittered::new(Latency::from_int(2), 8, 2);
        let differs = (0..40).any(|t| {
            a.latency(ProcId(0), ProcId(1), Time::from_int(t))
                != b.latency(ProcId(0), ProcId(1), Time::from_int(t))
        });
        assert!(differs);
    }

    #[test]
    fn broadcast_survives_jitter_in_queued_mode() {
        use crate::engine::{PortMode, Simulation};
        use crate::program::{Context, Idle, Program};

        struct Star;
        impl Program<()> for Star {
            fn on_start(&mut self, ctx: &mut dyn Context<()>) {
                for i in 1..ctx.n() {
                    ctx.send(ProcId::from(i), ());
                }
            }
            fn on_receive(&mut self, _: &mut dyn Context<()>, _: ProcId, _: ()) {}
        }

        let model = Jittered::new(Latency::from_int(3), 6, 99);
        let mut programs: Vec<Box<dyn Program<()>>> = vec![Box::new(Star)];
        for _ in 1..8 {
            programs.push(Box::new(Idle));
        }
        let report = Simulation::new(8, &model)
            .port_mode(PortMode::Queued)
            .run(programs)
            .unwrap();
        assert_eq!(report.messages(), 7);
        // Completion within [base send window + λ_min, window + λ_max].
        assert!(report.completion >= Time::from_int(6 + 3));
        assert!(report.completion <= Time::from_int(6 + 3 + 6));
    }
}
