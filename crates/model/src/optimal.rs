//! Exact lattice-optimal multi-message broadcast, by exhaustive search.
//!
//! Section 5 of the paper: *"This paper leaves a gap between the lower
//! bounds for broadcasting multiple messages and the performance of the
//! algorithms presented in Section 4. We believe that the lower bound of
//! Lemma 8 cannot be substantially improved without changing the
//! model."* This module measures that gap exactly on tiny instances: a
//! breadth-first search over all schedules on the tick lattice finds the
//! true optimal completion time, which can be compared against Lemma 8
//! and against the Section 4 algorithms.
//!
//! Scope and caveats:
//!
//! * Search is restricted to sends starting on the lattice (multiples of
//!   `1/q`). An exchange argument (any send can be advanced to the
//!   earliest feasible instant, which is a lattice point) suggests this
//!   is without loss of generality, as in the single-message case.
//! * By default schedules are *not* required to preserve message order,
//!   so the optimum may beat every order-preserving algorithm; the
//!   [`OrderPolicy::Preserving`] variant restricts the search to the
//!   setting of Mackenzie's lower bound \[13\].
//! * Complexity is exponential; instances are capped by a state budget
//!   and the search returns `None` when it is exceeded.

use crate::{Latency, Ratio, Time};
use std::collections::HashSet;

/// One processor's view in a search state: the set of known messages is
/// a bitmask (m ≤ 8).
type Mask = u8;

/// A search state at a fixed tick: what everyone knows, when output
/// ports free up, and what is in flight.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    know: Vec<Mask>,
    /// Absolute tick at which each output port frees (clamped to the
    /// current tick during normalization).
    out_free: Vec<u16>,
    /// In-flight deliveries `(dst, msg, deliver_tick)`, sorted.
    inflight: Vec<(u8, u8, u16)>,
}

impl State {
    fn full(&self, all: Mask) -> bool {
        self.know.iter().all(|&k| k == all)
    }

    /// Applies deliveries landing exactly at `t` and clamps ports.
    fn advance_to(&mut self, t: u16) {
        let mut remaining = Vec::with_capacity(self.inflight.len());
        for &(dst, msg, at) in &self.inflight {
            if at <= t {
                self.know[dst as usize] |= 1 << msg;
            } else {
                remaining.push((dst, msg, at));
            }
        }
        self.inflight = remaining;
        for f in &mut self.out_free {
            *f = (*f).max(t);
        }
    }
}

/// The result of an exact search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchResult {
    /// The lattice-optimal completion time.
    Optimal(Time),
    /// The state budget was exhausted before a solution was proven
    /// optimal.
    BudgetExhausted,
    /// No schedule completes within the horizon (should not happen for
    /// sane horizons).
    HorizonExceeded,
}

/// Whether the searched schedules must deliver messages in index order
/// at every processor (the paper's order-preservation property, and the
/// setting of Mackenzie's lower bound \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Any delivery order is allowed (the true optimum).
    Any,
    /// Every processor must receive `M_1, …, M_m` in order.
    Preserving,
}

/// Exhaustively searches for the optimal completion time of
/// broadcasting `m` messages in MPS(n, λ), over lattice schedules.
///
/// `horizon` bounds the considered completion times; pass something
/// comfortably above the best known algorithm (e.g. the PIPELINE time).
/// `state_budget` caps total explored states.
///
/// # Panics
/// Panics if `n < 2`, `m == 0`, or `m > 8`.
pub fn optimal_multi_broadcast(
    n: usize,
    m: u32,
    latency: Latency,
    horizon: Time,
    state_budget: usize,
) -> SearchResult {
    optimal_multi_broadcast_with(n, m, latency, horizon, state_budget, OrderPolicy::Any)
}

/// [`optimal_multi_broadcast`] with an explicit [`OrderPolicy`].
///
/// # Panics
/// Panics if `n < 2`, `m == 0`, or `m > 8`.
pub fn optimal_multi_broadcast_with(
    n: usize,
    m: u32,
    latency: Latency,
    horizon: Time,
    state_budget: usize,
    order: OrderPolicy,
) -> SearchResult {
    assert!(n >= 2, "search needs at least two processors");
    assert!((1..=8).contains(&m), "message count must be in 1..=8");
    let q = latency.ticks_per_unit() as u16;
    let p = latency.lambda_ticks() as u16;
    let all: Mask = ((1u16 << m) - 1) as Mask;
    let horizon_ticks = (horizon.as_ratio() * Ratio::from_int(q as i128)).ceil() as u16;

    let mut start = State {
        know: vec![0; n],
        out_free: vec![0; n],
        inflight: Vec::new(),
    };
    start.know[0] = all;

    let mut frontier: HashSet<State> = HashSet::new();
    frontier.insert(start);
    let mut explored = 0usize;

    for t in 0..=horizon_ticks {
        // Normalize and test goal at this tick.
        let mut normalized: HashSet<State> = HashSet::with_capacity(frontier.len());
        for mut s in frontier.drain() {
            s.advance_to(t);
            if s.full(all) {
                return SearchResult::Optimal(Time(Ratio::new(t as i128, q as i128)));
            }
            normalized.insert(s);
        }

        // Expand: all combinations of sends starting at tick t.
        let mut next: HashSet<State> = HashSet::new();
        for s in &normalized {
            explored += 1;
            if explored > state_budget {
                return SearchResult::BudgetExhausted;
            }
            expand(s, t, p, q, n, order, &mut next);
        }
        frontier = next;
    }
    SearchResult::HorizonExceeded
}

/// Recursively assigns an action (idle or one send) to every free
/// sender, collecting the resulting states.
fn expand(
    s: &State,
    t: u16,
    p: u16,
    q: u16,
    n: usize,
    order: OrderPolicy,
    out: &mut HashSet<State>,
) {
    let free: Vec<usize> = (0..n).filter(|&i| s.out_free[i] <= t).collect();
    let mut scratch = s.clone();
    assign(&free, 0, &mut scratch, t, p, q, n, order, out);
}

#[allow(clippy::too_many_arguments)]
fn assign(
    free: &[usize],
    idx: usize,
    s: &mut State,
    t: u16,
    p: u16,
    q: u16,
    n: usize,
    order: OrderPolicy,
    out: &mut HashSet<State>,
) {
    if idx == free.len() {
        out.insert(s.clone());
        return;
    }
    let sender = free[idx];
    // Option 1: idle.
    assign(free, idx + 1, s, t, p, q, n, order, out);
    // Option 2: send one (msg, dst).
    let my_know = s.know[sender];
    for msg in 0..8u8 {
        if my_know & (1 << msg) == 0 {
            continue;
        }
        for dst in 0..n {
            if dst == sender || s.know[dst] & (1 << msg) != 0 {
                continue;
            }
            // Useless-duplicate pruning: dst already has this message in
            // flight.
            if s.inflight
                .iter()
                .any(|&(d, mm, _)| d as usize == dst && mm == msg)
            {
                continue;
            }
            // Order preservation: dst may only be sent its next expected
            // message index (its knowledge plus in-flight deliveries form
            // a prefix by induction, and in-flight delivers to dst are
            // strictly increasing because the port rule separates them).
            if order == OrderPolicy::Preserving {
                let pending: Mask = s
                    .inflight
                    .iter()
                    .filter(|&&(d, _, _)| d as usize == dst)
                    .fold(0, |acc, &(_, mm, _)| acc | (1 << mm));
                let have = s.know[dst] | pending;
                let next_expected = have.trailing_ones() as u8;
                if msg != next_expected {
                    continue;
                }
            }
            // Input-port feasibility: the new receive window conflicts
            // with another delivery to dst closer than one unit.
            let deliver = t + p;
            if s.inflight
                .iter()
                .any(|&(d, _, at)| d as usize == dst && at.abs_diff(deliver) < q)
            {
                continue;
            }
            // Commit, recurse, undo.
            let old_free = s.out_free[sender];
            s.out_free[sender] = t + q;
            s.inflight.push((dst as u8, msg, deliver));
            s.inflight.sort_unstable();
            assign(free, idx + 1, s, t, p, q, n, order, out);
            let pos = s
                .inflight
                .iter()
                .position(|&e| e == (dst as u8, msg, deliver))
                .expect("just inserted");
            s.inflight.remove(pos);
            s.out_free[sender] = old_free;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtimes;

    fn search(n: usize, m: u32, lam: Latency) -> SearchResult {
        // Horizon: the best Section-4 algorithm plus slack.
        let ub = runtimes::pipeline_time(n as u128, m as u64, lam)
            .min(runtimes::repeat_time(n as u128, m as u64, lam))
            .min(runtimes::pack_time(n as u128, m as u64, lam));
        optimal_multi_broadcast(n, m, lam, ub, 4_000_000)
    }

    #[test]
    fn single_message_optimum_is_theorem6() {
        // m = 1: the search must rediscover f_λ(n).
        for lam in [Latency::TELEPHONE, Latency::from_int(2)] {
            for n in [2usize, 3, 4, 5] {
                assert_eq!(
                    search(n, 1, lam),
                    SearchResult::Optimal(runtimes::bcast_time(n as u128, lam)),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn two_processors_hit_the_lemma8_bound() {
        // n = 2: the root just streams; optimum = (m−1) + λ = Lemma 8.
        for lam in [
            Latency::TELEPHONE,
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
        ] {
            for m in [1u32, 2, 3] {
                assert_eq!(
                    search(2, m, lam),
                    SearchResult::Optimal(runtimes::multi_lower_bound(2, m as u64, lam)),
                    "λ={lam} m={m}"
                );
            }
        }
    }

    #[test]
    fn tiny_budget_reports_exhaustion() {
        let res = optimal_multi_broadcast(4, 3, Latency::from_int(2), Time::from_int(12), 3);
        assert_eq!(res, SearchResult::BudgetExhausted);
    }

    #[test]
    fn short_horizon_reports_exceeded() {
        // The optimum for (3, 2, λ=2) is 4; a horizon of 2 cannot reach it.
        let res = optimal_multi_broadcast(3, 2, Latency::from_int(2), Time::from_int(2), 1_000_000);
        assert_eq!(res, SearchResult::HorizonExceeded);
    }

    #[test]
    fn ordered_optimum_never_beats_unordered() {
        for (n, m, lam) in [
            (3usize, 2u32, Latency::from_int(2)),
            (4, 2, Latency::TELEPHONE),
        ] {
            let horizon = runtimes::repeat_time(n as u128, m as u64, lam);
            let any = optimal_multi_broadcast_with(n, m, lam, horizon, 2_000_000, OrderPolicy::Any);
            let ord = optimal_multi_broadcast_with(
                n,
                m,
                lam,
                horizon,
                2_000_000,
                OrderPolicy::Preserving,
            );
            if let (SearchResult::Optimal(a), SearchResult::Optimal(o)) = (any, ord) {
                assert!(o >= a, "ordered {o} < unordered {a}");
            } else {
                panic!("both searches must resolve on these instances");
            }
        }
    }

    #[test]
    fn optimum_between_lemma8_and_best_algorithm() {
        for (n, m, lam) in [
            (3usize, 2u32, Latency::TELEPHONE),
            (3, 2, Latency::from_int(2)),
            (4, 2, Latency::TELEPHONE),
            (3, 3, Latency::from_int(2)),
        ] {
            let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
            let best_alg = runtimes::pipeline_time(n as u128, m as u64, lam)
                .min(runtimes::repeat_time(n as u128, m as u64, lam))
                .min(runtimes::pack_time(n as u128, m as u64, lam))
                .min(runtimes::line_time(n as u128, m as u64, lam))
                .min(runtimes::star_time(n as u128, m as u64, lam));
            match search(n, m, lam) {
                SearchResult::Optimal(opt) => {
                    assert!(opt >= lb, "optimum {opt} below Lemma 8 {lb}!");
                    assert!(
                        opt <= best_alg,
                        "search missed the known algorithm: {opt} > {best_alg}"
                    );
                }
                other => panic!("search failed: {other:?} for n={n} m={m} λ={lam}"),
            }
        }
    }
}
