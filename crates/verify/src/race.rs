//! Happens-before race detection over message flights.
//!
//! The detector replays a trace's flights, builds the send→receive
//! partial order, and flags pairs of deliveries to the same destination
//! whose observed order is **not causally forced** — i.e. the later
//! message's send does not happen-after the earlier message's receipt,
//! and the two do not share a sender (the postal model's fixed latency
//! makes each `src → dst` channel FIFO). Such a pair could arrive in
//! either order under latency jitter, so a program whose meaning
//! depends on the observed order is racy.
//!
//! Broadcast schedules deliver each message once per processor and are
//! race-free; the lint exists for multi-message and collective traffic
//! (`m`-message broadcast, gather, all-to-all), where it distinguishes
//! pipelines whose ordering is enforced by the channel from those that
//! merely *happened* to arrive in a convenient order.
//!
//! ## Epoch representation
//!
//! [`detect_races`] uses a FastTrack-style epoch encoding instead of
//! comparing full vector clocks. Every candidate pair shares its
//! destination `d`, and `d`'s clock component is bumped **only at
//! `d`**, so the whole happens-after test collapses to one scalar
//! comparison: the earlier flight's receipt (a `(d, epoch)` pair)
//! happens-before the later flight's send iff the sender's clock had
//! learned that epoch of `d` by send time. Per-processor clocks are
//! kept sparse (`(processor, counter)` pairs) and spill to dense arrays
//! only under real contention — a clock that has heard from more than
//! `SPARSE_LIMIT` distinct processors — so the common case is
//! O(E log E) time (the event sort) and O(E + n) memory. The retained
//! [`detect_races_reference`] is the original full-vector-clock
//! detector; `crates/verify/tests/race_differential.rs` asserts the two
//! report identical races.

use crate::flight::Flight;

/// A pair of deliveries whose order is not causally forced.
#[derive(Debug, Clone, PartialEq)]
pub struct Race {
    /// The destination processor observing the ambiguous order.
    pub dst: u32,
    /// The earlier delivery (by observed receive time).
    pub first: Flight,
    /// The later delivery.
    pub second: Flight,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Sparse-entry count past which a clock spills to a dense array.
const SPARSE_LIMIT: usize = 64;

/// A vector clock that stays sparse until real contention.
#[derive(Clone, Debug)]
enum Clock {
    /// `(processor, counter)` pairs, sorted by processor, zeros elided.
    Sparse(Vec<(u32, u64)>),
    /// One counter per processor; used past `SPARSE_LIMIT` entries.
    Dense(Vec<u64>),
}

impl Clock {
    fn new() -> Clock {
        Clock::Sparse(Vec::new())
    }

    /// The counter for processor `p` (0 if never heard from).
    fn get(&self, p: u32) -> u64 {
        match self {
            Clock::Sparse(v) => match v.binary_search_by_key(&p, |e| e.0) {
                Ok(i) => v[i].1,
                Err(_) => 0,
            },
            Clock::Dense(v) => v[p as usize],
        }
    }

    /// Increments `p`'s counter and returns the new value (the epoch).
    fn bump(&mut self, p: u32, n: usize) -> u64 {
        let (val, spill) = match self {
            Clock::Sparse(v) => match v.binary_search_by_key(&p, |e| e.0) {
                Ok(i) => {
                    v[i].1 += 1;
                    (v[i].1, false)
                }
                Err(i) => {
                    v.insert(i, (p, 1));
                    (1, v.len() > SPARSE_LIMIT)
                }
            },
            Clock::Dense(v) => {
                v[p as usize] += 1;
                (v[p as usize], false)
            }
        };
        if spill {
            self.make_dense(n);
        }
        val
    }

    /// Raises `p`'s counter to at least `val`.
    fn raise(&mut self, p: u32, val: u64, n: usize) {
        let spill = match self {
            Clock::Sparse(v) => {
                match v.binary_search_by_key(&p, |e| e.0) {
                    Ok(i) => v[i].1 = v[i].1.max(val),
                    Err(i) => v.insert(i, (p, val)),
                }
                v.len() > SPARSE_LIMIT
            }
            Clock::Dense(v) => {
                v[p as usize] = v[p as usize].max(val);
                false
            }
        };
        if spill {
            self.make_dense(n);
        }
    }

    /// Componentwise maximum with `other`.
    fn join(&mut self, other: &Clock, n: usize) {
        match other {
            Clock::Sparse(entries) => {
                for &(p, val) in entries {
                    self.raise(p, val, n);
                }
            }
            Clock::Dense(dv) => {
                self.make_dense(n);
                let Clock::Dense(sv) = self else {
                    unreachable!()
                };
                for (a, b) in sv.iter_mut().zip(dv) {
                    *a = (*a).max(*b);
                }
            }
        }
    }

    fn make_dense(&mut self, n: usize) {
        if let Clock::Sparse(v) = self {
            let mut dense = vec![0u64; n];
            for &(p, val) in v.iter() {
                dense[p as usize] = val;
            }
            *self = Clock::Dense(dense);
        }
    }
}

/// Receives sort before sends at equal instants so that a processor
/// forwarding the moment it finishes receiving (legal in the postal
/// model) picks up the causal dependency.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Recv,
    Send,
}

fn sorted_events(flights: &[Flight]) -> Vec<(f64, Kind, usize)> {
    let mut events: Vec<(f64, Kind, usize)> = Vec::with_capacity(flights.len() * 2);
    for (i, f) in flights.iter().enumerate() {
        events.push((f.send_at, Kind::Send, i));
        events.push((f.recv_at, Kind::Recv, i));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    events
}

/// Shared pairing sweep: walks each destination's deliveries in
/// observed order and emits a [`Race`] for each adjacent pair that
/// `causally_forced` does not clear and channel FIFO does not force.
fn pair_deliveries(
    n: usize,
    flights: &[Flight],
    causally_forced: impl Fn(usize, usize) -> bool,
) -> Vec<Race> {
    // Adjacent delivery pairs per destination, in observed order.
    let mut by_dst: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, f) in flights.iter().enumerate() {
        if (f.dst as usize) < n {
            by_dst[f.dst as usize].push(i);
        }
    }
    let mut races = Vec::new();
    for (dst, mut idxs) in by_dst.into_iter().enumerate() {
        idxs.sort_by(|&a, &b| {
            flights[a]
                .recv_at
                .total_cmp(&flights[b].recv_at)
                .then(flights[a].send_at.total_cmp(&flights[b].send_at))
        });
        for w in idxs.windows(2) {
            let (i, j) = (w[0], w[1]);
            let (fi, fj) = (&flights[i], &flights[j]);
            let simultaneous = fi.recv_at == fj.recv_at;
            // Channel FIFO: same sender, sends in matching order.
            let fifo = fi.src == fj.src && fi.send_at < fj.send_at;
            // Causally forced: the later send happens-after the earlier
            // receipt.
            let causal = causally_forced(i, j);
            if simultaneous || (!fifo && !causal) {
                let why = if simultaneous {
                    "they complete simultaneously".to_string()
                } else {
                    format!(
                        "p{}'s send at t = {} does not happen-after p{dst}'s receipt at \
                         t = {}, and the two use different channels",
                        fj.src, fj.send_at, fi.recv_at
                    )
                };
                races.push(Race {
                    dst: dst as u32,
                    first: fi.clone(),
                    second: fj.clone(),
                    message: format!(
                        "delivery race at p{dst}: {} from p{} (recv t = {}) vs {} from \
                         p{} (recv t = {}) — the observed order is not causally forced: {why}",
                        fi.label, fi.src, fi.recv_at, fj.label, fj.src, fj.recv_at
                    ),
                });
            }
        }
    }
    races
}

/// Detects delivery races in `flights` over `n` processors.
///
/// Returns one [`Race`] per *adjacent* unforced pair at each
/// destination (forcedness is transitive along a destination's delivery
/// sequence, so adjacent pairs characterize the whole order).
///
/// This is the epoch-based fast path; every candidate pair shares a
/// destination `d`, so "the later send happens-after the earlier
/// receipt" reduces to comparing the sender's knowledge of `d`'s clock
/// against the receipt's epoch at `d` — two `u64`s per pair instead of
/// two length-`n` vectors. Message clocks stay sparse until a clock
/// accumulates entries from more than `SPARSE_LIMIT` distinct
/// processors, and each in-flight snapshot is dropped at its matching
/// receive, so memory stays O(E + n) unless flights are pathologically
/// nested.
pub fn detect_races(n: u32, flights: &[Flight]) -> Vec<Race> {
    let nn = n as usize;
    let mut clock: Vec<Clock> = (0..nn).map(|_| Clock::new()).collect();
    // Per-flight causal metadata. `snapshot` holds the sender's clock
    // only while the message is in flight: set at the send, consumed by
    // the matching receive's join.
    let mut snapshot: Vec<Option<Clock>> = vec![None; flights.len()];
    let mut send_at_dst = vec![0u64; flights.len()];
    let mut recv_epoch = vec![0u64; flights.len()];
    for (_, kind, i) in sorted_events(flights) {
        let f = &flights[i];
        match kind {
            Kind::Send => {
                let p = f.src as usize;
                clock[p].bump(f.src, nn);
                // What the sender knows of the destination's clock the
                // instant the message departs.
                send_at_dst[i] = clock[p].get(f.dst);
                snapshot[i] = Some(clock[p].clone());
            }
            Kind::Recv => {
                let d = f.dst as usize;
                // A flight whose send never happened (malformed input)
                // has no snapshot yet and contributes no edge.
                if let Some(sv) = snapshot[i].take() {
                    clock[d].join(&sv, nn);
                }
                recv_epoch[i] = clock[d].bump(f.dst, nn);
            }
        }
    }

    // `d`'s component is bumped only at `d`, so the sender of `j` has
    // joined in `i`'s receipt (or anything after it) iff its view of
    // `d`'s clock reached `i`'s receive epoch.
    pair_deliveries(nn, flights, |i, j| send_at_dst[j] >= recv_epoch[i])
}

/// The original full-vector-clock detector, kept verbatim as the
/// differential oracle for [`detect_races`]. O(E·n) time and memory;
/// do not optimize this function — its value is that it never changes.
pub fn detect_races_reference(n: u32, flights: &[Flight]) -> Vec<Race> {
    let n = n as usize;
    fn leq(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }
    let mut clock: Vec<Vec<u64>> = vec![vec![0; n]; n];
    let mut send_vc: Vec<Vec<u64>> = vec![Vec::new(); flights.len()];
    let mut recv_vc: Vec<Vec<u64>> = vec![Vec::new(); flights.len()];
    for (_, kind, i) in sorted_events(flights) {
        let f = &flights[i];
        match kind {
            Kind::Send => {
                let p = f.src as usize;
                clock[p][p] += 1;
                send_vc[i] = clock[p].clone();
            }
            Kind::Recv => {
                let d = f.dst as usize;
                // A flight whose send never happened (malformed input)
                // contributes no edge.
                if !send_vc[i].is_empty() {
                    let sv = send_vc[i].clone();
                    for (c, s) in clock[d].iter_mut().zip(&sv) {
                        *c = (*c).max(*s);
                    }
                }
                clock[d][d] += 1;
                recv_vc[i] = clock[d].clone();
            }
        }
    }
    pair_deliveries(n, flights, |i, j| {
        !recv_vc[i].is_empty() && !send_vc[j].is_empty() && leq(&recv_vc[i], &send_vc[j])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fl(src: u32, dst: u32, send_at: f64, recv_at: f64, label: &str) -> Flight {
        Flight {
            src,
            dst,
            send_at,
            recv_at,
            label: label.to_string(),
        }
    }

    /// Both detectors, asserting they agree before returning.
    fn detect_both(n: u32, flights: &[Flight]) -> Vec<Race> {
        let fast = detect_races(n, flights);
        let slow = detect_races_reference(n, flights);
        assert_eq!(fast, slow, "epoch and vector-clock detectors diverge");
        fast
    }

    #[test]
    fn single_deliveries_are_race_free() {
        // A broadcast tree: every processor receives exactly once.
        let flights = vec![fl(0, 1, 0.0, 2.5, "a"), fl(0, 2, 1.0, 3.5, "b")];
        assert!(detect_both(3, &flights).is_empty());
    }

    #[test]
    fn same_channel_pipeline_is_fifo_forced() {
        // m messages p0 → p1 back to back: FIFO, no race.
        let flights = vec![
            fl(0, 1, 0.0, 2.5, "m0"),
            fl(0, 1, 1.0, 3.5, "m1"),
            fl(0, 1, 2.0, 4.5, "m2"),
        ];
        assert!(detect_both(2, &flights).is_empty());
    }

    #[test]
    fn independent_senders_race() {
        // p1 and p2 both send to p3 with nothing ordering them.
        let flights = vec![fl(1, 3, 0.0, 1.0, "a"), fl(2, 3, 0.5, 1.5, "b")];
        let races = detect_both(4, &flights);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].dst, 3);
        assert_eq!(races[0].first.label, "a");
        assert!(races[0].message.contains("not causally forced"));
    }

    #[test]
    fn relay_order_is_causally_forced() {
        // p0 → p1; p1 forwards to p2 only after receiving; meanwhile the
        // second delivery to p2 is p1's, whose send happens-after p2...
        // Construct the classic forced chain: a → c, then c's receipt is
        // relayed b-ward and b sends to c afterwards? Simpler: p0 sends
        // to p2; p2 then sends to p1; p1's send to p2 happens-after its
        // receipt from p2, which happens-after p2's first receipt.
        let flights = vec![
            fl(0, 2, 0.0, 1.0, "a"), // p2 learns at 1
            fl(2, 1, 1.0, 2.0, "b"), // p2 relays to p1
            fl(1, 2, 2.0, 3.0, "c"), // p1 replies: forced after "a"
        ];
        assert!(detect_both(3, &flights).is_empty());
    }

    #[test]
    fn simultaneous_deliveries_always_race() {
        let flights = vec![fl(0, 2, 0.0, 1.0, "a"), fl(1, 2, 0.0, 1.0, "b")];
        let races = detect_both(3, &flights);
        assert_eq!(races.len(), 1);
        assert!(races[0].message.contains("simultaneously"));
    }

    #[test]
    fn same_channel_wrong_order_is_a_race() {
        // Same channel but the "later" send arrives first (latency
        // anomaly in a wall-clock trace): not FIFO-forced.
        let flights = vec![fl(0, 1, 1.0, 2.0, "late"), fl(0, 1, 0.0, 2.5, "early")];
        let races = detect_both(2, &flights);
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn clocks_spill_to_dense_past_the_sparse_limit() {
        // A gather onto p0 from more distinct senders than SPARSE_LIMIT:
        // p0's clock must spill, and the spill must not change reports.
        // Staggered by a full unit so nothing is simultaneous; every
        // pair at p0 has distinct senders and no causal path, so each
        // adjacent pair races.
        let n = (SPARSE_LIMIT + 8) as u32;
        let flights: Vec<Flight> = (1..n)
            .map(|p| fl(p, 0, p as f64, p as f64 + 2.0, "g"))
            .collect();
        let races = detect_both(n, &flights);
        assert_eq!(races.len(), flights.len() - 1);
    }
}
