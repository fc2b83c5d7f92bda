//! Latency models: how long a message takes from send-start to
//! receive-finish.
//!
//! The paper's postal model assumes a single system-wide λ ([`Uniform`]).
//! Section 5 proposes two relaxations as further research, both of which
//! this simulator supports so the extension algorithms in `postal-algos`
//! can be evaluated:
//!
//! * [`TimeVarying`] — λ changes over time (piecewise-constant in the send
//!   start time);
//! * [`Hierarchical`] — processors are grouped into clusters with a fast
//!   intra-cluster latency and a slow inter-cluster latency.

use crate::ids::ProcId;
use postal_model::{Latency, Time};

/// Determines the communication latency for a message sent from `src` to
/// `dst` whose send starts at `send_start`.
///
/// Implementations must return λ ≥ 1 (enforced by the [`Latency`] type).
pub trait LatencyModel {
    /// The latency applied to this send.
    fn latency(&self, src: ProcId, dst: ProcId, send_start: Time) -> Latency;

    /// The largest latency this model can ever return, if known.
    ///
    /// Used only for reporting; defaults to `None`.
    fn max_latency(&self) -> Option<Latency> {
        None
    }

    /// The tick denominator `D` of the model's lattice: the lcm of 2 and
    /// the denominator of every λ the model can return (see
    /// [`Latency::lattice_lcm`]). Every event time of a run is then a
    /// whole number of ticks of `1/D`, and the engine carries it as an
    /// `i64`. A λ off the declared lattice is still simulated exactly,
    /// on the engine's slower exact path
    /// ([`crate::RunReport::exact_pushes`] counts it). A value outside
    /// `1..=`[`MAX_TICK_DENOMINATOR`](postal_model::latency::MAX_TICK_DENOMINATOR)
    /// is read as 2.
    ///
    /// Defaults to 2: the half-unit lattice of every integer and
    /// half-integer λ.
    fn tick_denominator(&self) -> i64 {
        2
    }

    /// The λ of every send, when it depends on neither the pair nor the
    /// send time. The engine then looks it up once per run instead of
    /// building each send's start time for [`LatencyModel::latency`].
    /// Defaults to `None`.
    fn uniform_latency(&self) -> Option<Latency> {
        None
    }
}

/// The paper's model: one system-wide λ for every pair and every time.
#[derive(Debug, Clone, Copy)]
pub struct Uniform(pub Latency);

impl LatencyModel for Uniform {
    fn latency(&self, _src: ProcId, _dst: ProcId, _send_start: Time) -> Latency {
        self.0
    }

    fn max_latency(&self) -> Option<Latency> {
        Some(self.0)
    }

    fn tick_denominator(&self) -> i64 {
        self.0.lattice_lcm(2)
    }

    fn uniform_latency(&self) -> Option<Latency> {
        Some(self.0)
    }
}

/// Piecewise-constant time-varying latency (Section 5: "explore
/// time-changing values of λ").
///
/// The latency of a send is the value of the last step at or before the
/// send's start time.
#[derive(Debug, Clone)]
pub struct TimeVarying {
    /// `(from_time, λ)` steps, sorted by time; the first entry must be at
    /// time 0.
    steps: Vec<(Time, Latency)>,
}

impl TimeVarying {
    /// Builds a piecewise-constant profile from `(from_time, λ)` steps.
    ///
    /// # Panics
    /// Panics if `steps` is empty, unsorted, or does not start at time 0.
    pub fn new(steps: Vec<(Time, Latency)>) -> TimeVarying {
        assert!(!steps.is_empty(), "profile needs at least one step");
        assert!(
            steps[0].0 == Time::ZERO,
            "profile must define λ from time 0"
        );
        assert!(
            steps.windows(2).all(|w| w[0].0 < w[1].0),
            "profile steps must be strictly increasing in time"
        );
        TimeVarying { steps }
    }

    /// The λ in effect at time `t`.
    pub fn at(&self, t: Time) -> Latency {
        // Last step with step_time ≤ t (partition_point gives the first
        // index where the predicate fails).
        let idx = self.steps.partition_point(|&(st, _)| st <= t);
        self.steps[idx - 1].1
    }

    /// The profile's steps.
    pub fn steps(&self) -> &[(Time, Latency)] {
        &self.steps
    }
}

impl LatencyModel for TimeVarying {
    fn latency(&self, _src: ProcId, _dst: ProcId, send_start: Time) -> Latency {
        self.at(send_start)
    }

    fn max_latency(&self) -> Option<Latency> {
        self.steps.iter().map(|&(_, l)| l).max()
    }

    fn tick_denominator(&self) -> i64 {
        self.steps.iter().fold(2, |den, &(_, l)| l.lattice_lcm(den))
    }
}

/// Two-level latency hierarchy (Section 5: "hierarchies of latency
/// parameters ... to model subsystems within a larger system").
///
/// Processors belong to clusters; messages within a cluster travel at
/// `local` λ, messages between clusters at `remote` λ.
#[derive(Debug, Clone)]
pub struct Hierarchical {
    cluster_of: Vec<u32>,
    local: Latency,
    remote: Latency,
}

impl Hierarchical {
    /// Builds a hierarchy from an explicit cluster assignment.
    ///
    /// # Panics
    /// Panics if `cluster_of` is empty or `local > remote` (a hierarchy
    /// where remote messages are faster than local ones is a modeling
    /// error).
    pub fn new(cluster_of: Vec<u32>, local: Latency, remote: Latency) -> Hierarchical {
        assert!(!cluster_of.is_empty(), "at least one processor required");
        assert!(
            local <= remote,
            "intra-cluster latency must not exceed inter-cluster latency"
        );
        Hierarchical {
            cluster_of,
            local,
            remote,
        }
    }

    /// Builds a hierarchy of `n` processors split into consecutive blocks
    /// of `cluster_size`.
    ///
    /// # Panics
    /// Panics if `cluster_size == 0`.
    pub fn blocks(n: usize, cluster_size: usize, local: Latency, remote: Latency) -> Hierarchical {
        assert!(cluster_size > 0, "cluster size must be positive");
        let cluster_of = (0..n).map(|i| (i / cluster_size) as u32).collect();
        Hierarchical::new(cluster_of, local, remote)
    }

    /// The cluster index of a processor.
    pub fn cluster(&self, p: ProcId) -> u32 {
        self.cluster_of[p.index()]
    }

    /// The intra-cluster latency.
    pub fn local(&self) -> Latency {
        self.local
    }

    /// The inter-cluster latency.
    pub fn remote(&self) -> Latency {
        self.remote
    }

    /// Number of distinct clusters.
    pub fn num_clusters(&self) -> usize {
        (self.cluster_of.iter().copied().max().unwrap_or(0) + 1) as usize
    }
}

impl LatencyModel for Hierarchical {
    fn latency(&self, src: ProcId, dst: ProcId, _send_start: Time) -> Latency {
        if self.cluster(src) == self.cluster(dst) {
            self.local
        } else {
            self.remote
        }
    }

    fn max_latency(&self) -> Option<Latency> {
        Some(self.remote)
    }

    fn tick_denominator(&self) -> i64 {
        self.remote.lattice_lcm(self.local.lattice_lcm(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_constant() {
        let m = Uniform(Latency::from_ratio(5, 2));
        assert_eq!(
            m.latency(ProcId(0), ProcId(3), Time::ZERO),
            Latency::from_ratio(5, 2)
        );
        assert_eq!(m.max_latency(), Some(Latency::from_ratio(5, 2)));
        assert_eq!(m.uniform_latency(), Some(Latency::from_ratio(5, 2)));
    }

    #[test]
    fn each_model_declares_the_lcm_of_its_denominators() {
        assert_eq!(Uniform(Latency::from_int(3)).tick_denominator(), 2);
        assert_eq!(Uniform(Latency::from_ratio(5, 2)).tick_denominator(), 2);
        assert_eq!(Uniform(Latency::from_ratio(7, 3)).tick_denominator(), 6);
        assert_eq!(Uniform(Latency::from_ratio(22, 7)).tick_denominator(), 14);
        let stepped = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(2)),
            (Time::from_int(10), Latency::from_ratio(7, 3)),
            (Time::from_int(20), Latency::from_ratio(9, 4)),
        ]);
        assert_eq!(stepped.tick_denominator(), 12);
        assert_eq!(stepped.uniform_latency(), None);
        let tiers =
            Hierarchical::blocks(4, 2, Latency::from_ratio(3, 2), Latency::from_ratio(7, 3));
        assert_eq!(tiers.tick_denominator(), 6);
        assert_eq!(tiers.uniform_latency(), None);
    }

    #[test]
    fn time_varying_steps() {
        let m = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(2)),
            (Time::from_int(10), Latency::from_int(5)),
            (Time::from_int(20), Latency::from_int(3)),
        ]);
        assert_eq!(m.at(Time::ZERO), Latency::from_int(2));
        assert_eq!(m.at(Time::new(19, 2)), Latency::from_int(2));
        assert_eq!(m.at(Time::from_int(10)), Latency::from_int(5));
        assert_eq!(m.at(Time::from_int(15)), Latency::from_int(5));
        assert_eq!(m.at(Time::from_int(100)), Latency::from_int(3));
        assert_eq!(m.max_latency(), Some(Latency::from_int(5)));
    }

    #[test]
    #[should_panic(expected = "time 0")]
    fn time_varying_must_start_at_zero() {
        let _ = TimeVarying::new(vec![(Time::ONE, Latency::TELEPHONE)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn time_varying_must_be_sorted() {
        let _ = TimeVarying::new(vec![
            (Time::ZERO, Latency::TELEPHONE),
            (Time::from_int(5), Latency::from_int(2)),
            (Time::from_int(5), Latency::from_int(3)),
        ]);
    }

    #[test]
    fn hierarchical_blocks() {
        let m = Hierarchical::blocks(10, 4, Latency::TELEPHONE, Latency::from_int(8));
        assert_eq!(m.num_clusters(), 3);
        assert_eq!(m.cluster(ProcId(0)), 0);
        assert_eq!(m.cluster(ProcId(3)), 0);
        assert_eq!(m.cluster(ProcId(4)), 1);
        assert_eq!(m.cluster(ProcId(9)), 2);
        assert_eq!(
            m.latency(ProcId(0), ProcId(3), Time::ZERO),
            Latency::TELEPHONE
        );
        assert_eq!(
            m.latency(ProcId(0), ProcId(4), Time::ZERO),
            Latency::from_int(8)
        );
        assert_eq!(m.max_latency(), Some(Latency::from_int(8)));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn hierarchical_rejects_inverted_latencies() {
        let _ = Hierarchical::blocks(4, 2, Latency::from_int(8), Latency::TELEPHONE);
    }
}
