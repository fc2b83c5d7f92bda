//! A calendar (bucket) event queue keyed on `i64` ticks of a per-run
//! lattice.
//!
//! The discrete-event engine's hot path is queue traffic: every message
//! costs one arrival push, one deliver push and two pops. The seed
//! engine paid `O(log n)` exact-rational comparisons per operation on a
//! [`BinaryHeap`]; this queue exploits the postal model's time structure
//! instead. Under λ = p/q every event time is `a + b·λ` for integers
//! `a` and `b`, so it is a whole number of ticks of `1/D` for the run's
//! tick denominator `D` (the latency model's
//! [`crate::LatencyModel::tick_denominator`]: 2 for every integer and
//! half-integer λ, 6 for λ = 7/3). The engine hands such a time over as
//! a [`Stamp::Tick`], a plain `i64`, and the queue is a classic
//! calendar: a ring of one-tick buckets over a sliding window
//! `[cur, cur + W)`, with `O(1)` amortized push and pop and no
//! per-event comparisons at all.
//!
//! Two ordered heaps back the ring up without giving up exactness:
//!
//! * **overflow** — ticks beyond the window (`≥ cur + W`), flushed into
//!   the ring when the window slides over them;
//! * **exact** — [`Stamp::Exact`] times, which have no tick form: a time
//!   off the lattice (a λ the model did not declare, an off-lattice
//!   `wake_at`) or a magnitude past `TICK_LIMIT`. These keep exact
//!   [`Time`] keys and full rational comparisons — the
//!   reference-identical slow path.
//!
//! The queue counts the pushes each heap takes
//! ([`CalendarQueue::exact_pushes`], [`CalendarQueue::overflow_pushes`]):
//! a run on its lattice reads 0 exact pushes, and overflow pushes show
//! when events lie further ahead than the window's 512 ticks.
//!
//! [`CalendarQueue::push`] makes every stamp canonical — a time with a
//! tick form becomes a `Tick`, as [`Stamp::new`] builds it, and a tick
//! count past `TICK_LIMIT` an `Exact` — so a ring time and an exact
//! time can never denote the same instant, and arbitration between the
//! ring and the exact heap is a strict comparison with no tie to break.
//!
//! # Ordering contract
//!
//! Pops come out ordered by `(time, lane, push counter)` — exactly the
//! `(time, kind_rank, counter)` order of the seed engine's heap — under
//! one precondition the engine naturally satisfies: **pushes are
//! monotone**, i.e. never earlier than the last popped time (asserted).
//! Within one bucket each lane is a FIFO [`VecDeque`], which equals
//! counter order because a bucket only receives direct pushes while its
//! tick is inside the window, and the overflow heap is drained into it
//! in counter order at the moment the window first covers that tick.
//!
//! # Memory
//!
//! The queue holds buffers for its pending events, not for every event
//! it has queued. A lane that [`CalendarQueue::pop`] empties hands its
//! buffer to a spare list of two buffers, or frees it when that list is
//! full, and a lane that starts filling — by a push or by the overflow
//! flush — takes a spare before it allocates. An empty lane owns no
//! buffer, so the ring's live memory follows the events pending in it
//! plus at most two drained buffers. Keeping every drained buffer would
//! pin the largest burst each of the ring's 1,536 lanes ever held;
//! keeping none would allocate for nearly every tick a run crosses.

use postal_model::time::TICK_LIMIT;
use postal_model::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Number of one-tick buckets in the ring (a power of two): 256 time
/// units of lookahead on the half-unit lattice, 85 at λ = 7/3's sixths.
const WINDOW: usize = 512;

/// Drained lane buffers the queue keeps for lanes that start filling.
const SPARES: usize = 2;

/// A queue timestamp: a tick count on the queue's lattice, or an exact
/// time. [`Stamp::new`] builds the canonical form, which
/// [`CalendarQueue::push`] also restores, and every stamp
/// [`CalendarQueue::pop`] returns has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stamp {
    /// `k` ticks of `1/den`, the queue's lattice; canonical when
    /// `|k| ≤ TICK_LIMIT`.
    Tick(i64),
    /// An exact time; canonical when it is off the lattice or past
    /// `TICK_LIMIT`.
    Exact(Time),
}

impl Stamp {
    /// The canonical stamp of `t` on the lattice of ticks of `1/den`:
    /// `Tick` whenever [`Time::to_ticks`] has a form for it.
    pub fn new(t: Time, den: i64) -> Stamp {
        match t.to_ticks(den) {
            Some(k) => Stamp::Tick(k),
            None => Stamp::Exact(t),
        }
    }

    /// The exact time this stamp denotes on the lattice of `1/den`.
    pub fn to_time(self, den: i64) -> Time {
        match self {
            Stamp::Tick(k) => Time::from_ticks(k, den),
            Stamp::Exact(t) => t,
        }
    }
}

/// Same-instant event class, in drain order. Mirrors the engine's
/// `kind_rank`: port bookings first, then completed receives, then
/// timer wake-ups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// A message arrival (books the input port).
    Arrival = 0,
    /// A receive completing (delivers the payload).
    Deliver = 1,
    /// A timer wake-up.
    Wake = 2,
}

impl Lane {
    fn index(self) -> usize {
        self as usize
    }
}

/// One ring slot: three FIFO lanes, one per event class. An empty lane
/// holds no buffer: its last pop hands the buffer on (see the module
/// docs' memory section).
#[derive(Debug)]
struct Bucket<T> {
    lanes: [VecDeque<T>; 3],
}

impl<T> Bucket<T> {
    fn new() -> Bucket<T> {
        Bucket {
            lanes: std::array::from_fn(|_| VecDeque::new()),
        }
    }

    fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }
}

/// A heap entry for the overflow and exact fallbacks, ordered by
/// `(key, lane, counter)` — the global event order restricted to the
/// events that left the ring.
#[derive(Debug)]
struct Keyed<K, T> {
    key: K,
    lane: Lane,
    counter: u64,
    item: T,
}

impl<K: Ord, T> PartialEq for Keyed<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, T> Eq for Keyed<K, T> {}
impl<K: Ord, T> PartialOrd for Keyed<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Keyed<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&self.key, self.lane, self.counter).cmp(&(&other.key, other.lane, other.counter))
    }
}

/// The calendar queue. See the module docs for the design and the
/// ordering contract.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Ticks per time unit: a [`Stamp::Tick`] `k` is the time `k/den`.
    den: i64,
    buckets: Vec<Bucket<T>>,
    /// Tick of the window start; bucket for tick `h` is
    /// `buckets[h & mask]`.
    cur: i64,
    /// Items currently in the ring (fast membership test for pop).
    ring_len: usize,
    /// On-lattice events at ticks `≥ cur + WINDOW`.
    overflow: BinaryHeap<Reverse<Keyed<i64, T>>>,
    /// Off-lattice (or out-of-range) events, under exact rational order.
    exact: BinaryHeap<Reverse<Keyed<Time, T>>>,
    /// Next push counter — the global tie-break of the seed heap.
    counter: u64,
    /// Total queued items.
    len: usize,
    /// The monotone floor: no push may be earlier than this.
    frontier: Stamp,
    /// Pushes that went straight into `exact`.
    exact_pushes: u64,
    /// Pushes that went straight into `overflow`.
    overflow_pushes: u64,
    /// Buffers of drained lanes, at most [`SPARES`], for lanes that
    /// start filling.
    spares: Vec<VecDeque<T>>,
}

/// Appends `item` to `lane`; a lane with no buffer takes a spare first.
fn fill<T>(lane: &mut VecDeque<T>, spares: &mut Vec<VecDeque<T>>, item: T) {
    if lane.capacity() == 0 {
        if let Some(buf) = spares.pop() {
            *lane = buf;
        }
    }
    lane.push_back(item);
}

impl<T> CalendarQueue<T> {
    /// An empty queue over ticks of `1/den`, its window starting at
    /// time zero.
    ///
    /// # Panics
    /// Panics if `den < 1`.
    pub fn new(den: i64) -> CalendarQueue<T> {
        assert!(den >= 1, "tick denominator {den} must be positive");
        CalendarQueue {
            den,
            buckets: (0..WINDOW).map(|_| Bucket::new()).collect(),
            cur: 0,
            ring_len: 0,
            overflow: BinaryHeap::new(),
            exact: BinaryHeap::new(),
            counter: 0,
            len: 0,
            frontier: Stamp::Tick(0),
            exact_pushes: 0,
            overflow_pushes: 0,
            spares: Vec::with_capacity(SPARES),
        }
    }

    /// Pushes that took the exact heap: events with no tick form.
    pub fn exact_pushes(&self) -> u64 {
        self.exact_pushes
    }

    /// Pushes that took the overflow heap: ticks beyond the window.
    /// Entries the window later flushes into the ring are not counted
    /// again.
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Exact order of two stamps on this queue's lattice.
    fn cmp_stamps(&self, a: Stamp, b: Stamp) -> Ordering {
        match (a, b) {
            (Stamp::Tick(x), Stamp::Tick(y)) => x.cmp(&y),
            _ => a.to_time(self.den).cmp(&b.to_time(self.den)),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at `time` in `lane`. The stamp is made canonical
    /// first: an `Exact` time with a tick form on this queue's lattice
    /// rides the ring, and a `Tick` past `TICK_LIMIT` takes the exact
    /// heap, so a tie between the two sides cannot arise.
    ///
    /// # Panics
    /// Panics if `time` precedes the last popped time (the queue is
    /// monotone; a discrete-event engine never schedules into the past).
    pub fn push(&mut self, time: Stamp, lane: Lane, item: T) {
        let time = match time {
            Stamp::Tick(h) if h.unsigned_abs() > TICK_LIMIT as u64 => {
                Stamp::Exact(Time::from_ticks(h, self.den))
            }
            Stamp::Exact(t) => Stamp::new(t, self.den),
            tick => tick,
        };
        assert!(
            self.cmp_stamps(time, self.frontier) != Ordering::Less,
            "calendar queue is monotone: push at {:?} precedes frontier {:?}",
            time.to_time(self.den),
            self.frontier.to_time(self.den),
        );
        let counter = self.counter;
        self.counter += 1;
        self.len += 1;
        match time {
            Stamp::Tick(h) if h < self.cur + WINDOW as i64 => {
                debug_assert!(h >= self.cur, "monotone push below the window start");
                let bucket = &mut self.buckets[(h & (WINDOW as i64 - 1)) as usize];
                fill(&mut bucket.lanes[lane.index()], &mut self.spares, item);
                self.ring_len += 1;
            }
            Stamp::Tick(h) => {
                self.overflow_pushes += 1;
                self.overflow.push(Reverse(Keyed {
                    key: h,
                    lane,
                    counter,
                    item,
                }));
            }
            Stamp::Exact(t) => {
                self.exact_pushes += 1;
                self.exact.push(Reverse(Keyed {
                    key: t,
                    lane,
                    counter,
                    item,
                }));
            }
        }
    }

    /// Dequeues the earliest event under `(time, lane, counter)` order.
    pub fn pop(&mut self) -> Option<(Stamp, Lane, T)> {
        // The next on-lattice tick: the first nonempty bucket when the
        // ring holds anything (the ring always precedes the overflow,
        // whose keys are ≥ cur + WINDOW), else the overflow head.
        let cal_tick = if self.ring_len > 0 {
            let mut h = self.cur;
            while self.buckets[(h & (WINDOW as i64 - 1)) as usize].is_empty() {
                h += 1;
            }
            Some(h)
        } else {
            self.overflow.peek().map(|Reverse(k)| k.key)
        };
        let exact_first = match (cal_tick, self.exact.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            // Canonical stamps make a tie impossible; strict
            // comparison is exact arbitration.
            (Some(h), Some(Reverse(k))) => k.key < Time::from_ticks(h, self.den),
        };
        self.len -= 1;
        if exact_first {
            // Note: `cur` does not advance — a later on-lattice push
            // between `cur` and this exact time must still find its
            // bucket inside the window.
            let Reverse(k) = self.exact.pop().expect("peeked");
            self.frontier = Stamp::Exact(k.key);
            return Some((self.frontier, k.lane, k.item));
        }
        let tick = cal_tick.expect("calendar side was chosen");
        if tick != self.cur {
            self.advance_to(tick);
        }
        let bucket = &mut self.buckets[(tick & (WINDOW as i64 - 1)) as usize];
        for (i, lane) in [Lane::Arrival, Lane::Deliver, Lane::Wake]
            .into_iter()
            .enumerate()
        {
            if let Some(item) = bucket.lanes[i].pop_front() {
                if bucket.lanes[i].is_empty() {
                    let buf = std::mem::take(&mut bucket.lanes[i]);
                    if self.spares.len() < SPARES {
                        self.spares.push(buf);
                    }
                }
                self.ring_len -= 1;
                self.frontier = Stamp::Tick(tick);
                return Some((self.frontier, lane, item));
            }
        }
        unreachable!("a nonempty or overflow-fed bucket was selected")
    }

    /// Slides the window start to `tick` and drains every overflow
    /// entry the window now covers into its bucket. Draining in heap
    /// order keeps each bucket lane's FIFO equal to counter order.
    fn advance_to(&mut self, tick: i64) {
        self.cur = tick;
        let horizon = tick + WINDOW as i64;
        while let Some(Reverse(k)) = self.overflow.peek() {
            if k.key >= horizon {
                break;
            }
            let Reverse(k) = self.overflow.pop().expect("peeked");
            let bucket = &mut self.buckets[(k.key & (WINDOW as i64 - 1)) as usize];
            fill(&mut bucket.lanes[k.lane.index()], &mut self.spares, k.item);
            self.ring_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft(h: i64) -> Stamp {
        Stamp::Tick(h)
    }

    #[test]
    fn pops_in_time_lane_counter_order() {
        let mut q = CalendarQueue::new(2);
        q.push(ft(4), Lane::Wake, "w2");
        q.push(ft(2), Lane::Deliver, "d1");
        q.push(ft(2), Lane::Arrival, "a1");
        q.push(ft(2), Lane::Arrival, "a2");
        q.push(ft(4), Lane::Arrival, "a3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec!["a1", "a2", "d1", "a3", "w2"]);
    }

    #[test]
    fn same_tick_push_during_drain_is_seen_before_later_lanes() {
        // A heap pops an arrival pushed mid-drain before the remaining
        // delivers of the same tick; the ring must do the same.
        let mut q = CalendarQueue::new(2);
        q.push(ft(2), Lane::Deliver, "d1");
        q.push(ft(2), Lane::Deliver, "d2");
        let (t, lane, x) = q.pop().unwrap();
        assert_eq!((t, lane, x), (ft(2), Lane::Deliver, "d1"));
        q.push(ft(2), Lane::Arrival, "a-late");
        assert_eq!(q.pop().unwrap().2, "a-late");
        assert_eq!(q.pop().unwrap().2, "d2");
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_flushes_into_the_window_in_counter_order() {
        let far = WINDOW as i64 + 10;
        let mut q = CalendarQueue::new(2);
        q.push(ft(far), Lane::Deliver, 0u32);
        q.push(ft(far), Lane::Deliver, 1);
        q.push(ft(1), Lane::Deliver, 2);
        assert_eq!(q.overflow_pushes(), 2);
        assert_eq!(q.pop().unwrap().2, 2);
        // Window slides to `far`; both overflow entries must come out
        // FIFO, and a direct push lands after them.
        assert_eq!(q.pop().unwrap(), (ft(far), Lane::Deliver, 0));
        q.push(ft(far), Lane::Deliver, 3);
        assert_eq!(q.pop().unwrap().2, 1);
        assert_eq!(q.pop().unwrap().2, 3);
        // The flush is not a second overflow push.
        assert_eq!((q.overflow_pushes(), q.exact_pushes()), (2, 0));
    }

    /// Every ring lane's buffer capacity, summed.
    fn ring_capacity<T>(q: &CalendarQueue<T>) -> usize {
        q.buckets
            .iter()
            .flat_map(|b| b.lanes.iter())
            .map(VecDeque::capacity)
            .sum()
    }

    #[test]
    fn a_lane_emptied_and_refilled_within_one_tick_keeps_fifo_order() {
        // At λ = 1 an arrival lands on the tick it was sent: the lane
        // being drained empties, hands its buffer back, and refills.
        let mut q = CalendarQueue::new(2);
        q.push(ft(2), Lane::Arrival, "a1");
        q.push(ft(2), Lane::Deliver, "d1");
        assert_eq!(q.pop().unwrap(), (ft(2), Lane::Arrival, "a1"));
        assert_eq!(q.spares.len(), 1, "the drained lane's buffer is a spare");
        q.push(ft(2), Lane::Arrival, "a2");
        assert!(q.spares.is_empty(), "the refilled lane took the spare");
        q.push(ft(2), Lane::Arrival, "a3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec!["a2", "a3", "d1"]);
    }

    #[test]
    fn an_overflow_flush_into_a_spare_keeps_counter_order() {
        let far = WINDOW as i64 + 10;
        let mut q = CalendarQueue::new(2);
        for x in 0..3u32 {
            q.push(ft(far), Lane::Deliver, x);
        }
        q.push(ft(1), Lane::Wake, 10);
        assert_eq!(q.pop().unwrap().2, 10);
        assert_eq!(q.spares.len(), 1);
        // The window slides to `far`: the flush fills that lane from the
        // spare, in push order, and a direct push lands after it.
        assert_eq!(q.pop().unwrap(), (ft(far), Lane::Deliver, 0));
        assert!(q.spares.is_empty());
        q.push(ft(far), Lane::Deliver, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn drained_lanes_keep_at_most_the_spares() {
        // A burst on each of many ticks, wrapping the window twice:
        // once drained, the ring owns no buffer and the spare list at
        // most two.
        let mut q = CalendarQueue::new(2);
        for h in 0..2 * WINDOW as i64 {
            for x in 0..40 {
                q.push(ft(h), Lane::Arrival, x);
            }
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
            assert!(q.spares.len() <= SPARES);
        }
        assert_eq!(popped, 80 * WINDOW);
        assert_eq!(ring_capacity(&q), 0);
        assert_eq!(q.spares.len(), SPARES);
    }

    #[test]
    fn exact_fallback_interleaves_with_the_ring() {
        // 7/3 lies off the half-unit lattice → exact heap; it must pop
        // between ticks 2 (h=4) and 5/2 (h=5).
        let third = Stamp::new(Time::new(7, 3), 2);
        assert_eq!(third, Stamp::Exact(Time::new(7, 3)));
        let mut q = CalendarQueue::new(2);
        q.push(ft(5), Lane::Arrival, "half");
        q.push(third, Lane::Arrival, "third");
        q.push(ft(4), Lane::Arrival, "two");
        assert_eq!(q.exact_pushes(), 1);
        assert_eq!(q.pop().unwrap().2, "two");
        let (t, _, x) = q.pop().unwrap();
        assert_eq!(x, "third");
        assert_eq!(t.to_time(2), Time::new(7, 3));
        assert_eq!(q.pop().unwrap().2, "half");
    }

    #[test]
    fn non_canonical_stamps_keep_the_time_lane_counter_order() {
        // Exact(1) denotes tick 2 on halves: it must ride the ring and
        // pop before the Wake at the same instant, not lose the tie to
        // it from the exact heap.
        let mut q = CalendarQueue::new(2);
        q.push(ft(2), Lane::Wake, "wake");
        q.push(Stamp::Exact(Time::ONE), Lane::Arrival, "arrival");
        assert_eq!(q.exact_pushes(), 0);
        assert_eq!(q.pop().unwrap(), (ft(2), Lane::Arrival, "arrival"));
        assert_eq!(q.pop().unwrap(), (ft(2), Lane::Wake, "wake"));
        // A tick count past TICK_LIMIT has no tick form: it takes the
        // exact heap and pops as an exact stamp.
        let far = Time::from_ticks(TICK_LIMIT + 1, 2);
        q.push(Stamp::Tick(TICK_LIMIT + 1), Lane::Wake, "far");
        q.push(ft(TICK_LIMIT), Lane::Wake, "limit");
        assert_eq!((q.exact_pushes(), q.overflow_pushes()), (1, 1));
        assert_eq!(q.pop().unwrap(), (ft(TICK_LIMIT), Lane::Wake, "limit"));
        assert_eq!(q.pop().unwrap(), (Stamp::Exact(far), Lane::Wake, "far"));
    }

    #[test]
    fn sixths_put_thirds_and_halves_on_the_ring() {
        // On the lattice of 1/6, 7/3 is tick 14 and 5/2 tick 15: both
        // ride the ring, and nothing takes the exact heap.
        let mut q = CalendarQueue::new(6);
        for (t, x) in [
            (Time::new(5, 2), "half"),
            (Time::new(7, 3), "third"),
            (Time::from_int(2), "two"),
        ] {
            q.push(Stamp::new(t, 6), Lane::Arrival, x);
        }
        assert_eq!(q.exact_pushes(), 0);
        let order: Vec<(Time, &str)> =
            std::iter::from_fn(|| q.pop().map(|(t, _, x)| (t.to_time(6), x))).collect();
        assert_eq!(
            order,
            vec![
                (Time::from_int(2), "two"),
                (Time::new(7, 3), "third"),
                (Time::new(5, 2), "half")
            ]
        );
    }

    #[test]
    fn exact_pop_does_not_strand_later_lattice_pushes() {
        let third = Stamp::new(Time::new(7, 3), 2);
        let mut q = CalendarQueue::new(2);
        q.push(third, Lane::Wake, "third");
        assert_eq!(q.pop().unwrap().2, "third");
        // The window start stayed at 0; a push at tick 3 must still be
        // routable and popped.
        q.push(ft(6), Lane::Wake, "three");
        assert_eq!(q.pop().unwrap().2, "three");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_into_the_past_panics() {
        let mut q = CalendarQueue::new(2);
        q.push(ft(10), Lane::Wake, ());
        let _ = q.pop();
        q.push(ft(4), Lane::Wake, ());
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn push_below_an_exact_frontier_panics() {
        let mut q = CalendarQueue::new(2);
        q.push(Stamp::new(Time::new(7, 3), 2), Lane::Wake, ());
        let _ = q.pop();
        q.push(ft(4), Lane::Wake, ());
    }

    #[test]
    fn len_tracks_all_three_structures() {
        let mut q: CalendarQueue<u8> = CalendarQueue::new(2);
        assert!(q.is_empty());
        q.push(ft(0), Lane::Arrival, 0);
        q.push(ft(WINDOW as i64 * 3), Lane::Arrival, 1);
        q.push(Stamp::new(Time::new(1, 3), 2), Lane::Arrival, 2);
        assert_eq!(q.len(), 3);
        assert_eq!((q.overflow_pushes(), q.exact_pushes()), (1, 1));
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        assert!(q.is_empty());
    }
}
