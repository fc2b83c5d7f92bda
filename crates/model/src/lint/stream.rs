//! The lint engine: every schedule code (`P0001`–`P0007`, plus the
//! topology codes `P0017`–`P0019`) as an online analysis over a send
//! stream, with bounded memory and no materialized schedule.
//!
//! This is the only production implementation of those codes:
//! [`lint_schedule`](super::lint_schedule) folds a materialized
//! schedule's sends through it, `simulate --lint-inline` feeds it live
//! from the simulator, and `lint --stream` feeds it from a JSONL log
//! line by line, so no caller has to hold a 10⁶-send trace. Callers
//! push sends one at a time ([`StreamingLint::observe_send`]), advance
//! a **watermark** ([`StreamingLint::advance_watermark`]) as simulated
//! time progresses, and collect the final report from
//! [`StreamingLint::finish`]. Memory is O(n + pending + findings),
//! independent of the total send count.
//!
//! ## How order is recovered
//!
//! The report contract is tied to *canonical schedule order* — sends
//! sorted by `(send_start, src, dst)`, the order
//! [`Schedule::new`](crate::schedule::Schedule::new)
//! keeps. A live event stream is ordered by simulation time instead,
//! and a send is observed when it is *issued*, which can precede its
//! start time (output-port serialization). The engine therefore parks
//! observed sends in a pending queue ordered by
//! `(send_start, src, dst)` and **finalizes** — pops and checks — every
//! send whose key is strictly below the watermark. As long as the
//! caller only advances the watermark to times `t` such that every send
//! starting before `t` has already been observed (true for the engine's
//! clock, for timestamp-sorted logs, and for a schedule's own send
//! list), finalization order is exactly canonical order. A send
//! observed *late* — starting below the current watermark — sets
//! [`StreamingLint::out_of_order`]; callers should treat the report as
//! unreliable and lint the materialized schedule instead.
//!
//! Two pending lanes keep the hot path on machine integers: an `i64`
//! tick lane for starts on the stream's lattice and an exact-[`Time`]
//! heap for the rest, merged by exact comparison at pop time. The
//! lattice is ticks of `1/D` with `D = λ.lattice_lcm(2)`: halves for
//! every integer and half-integer λ, sixths for λ = 7/3, so every send
//! time a run under λ produces lies on it. The tick lane buckets sends
//! by start tick in a small ordered map and sorts each bucket's
//! `(src, dst)` pairs once, when the watermark passes it: a run starts
//! its sends on few distinct ticks, so finalizing costs a sort per tick
//! instead of a heap pop per send over up to n pending sends.
//!
//! A send's start is converted to ticks once, in
//! [`StreamingLint::observe_send`], or arrives as ticks from a caller
//! on the same lattice through [`StreamingLint::observe_send_ticks`]
//! (and the watermark through
//! [`StreamingLint::advance_watermark_ticks`]), as a running simulator
//! hands them to the inline lint sink. The tick decides its lane and the
//! out-of-order check against the watermark, which is kept in ticks
//! too, and it travels with the send when it is finalized, so `P0001`,
//! `P0002`, `P0003` and `P0006` decide on integers whenever both sides
//! sit on the lattice. A start off the lattice keeps the exact lane and
//! the checks' exact comparisons; [`StreamingLint::exact_sends`] counts
//! such sends.
//!
//! ## Online vs `finish`-time checks
//!
//! Each code keeps its own state in [`StreamingLint`]. Finalizing a
//! send runs the online checks; [`StreamingLint::finish`] turns the
//! state into findings, one step per code.
//!
//! * `P0001`/`P0002` keep one previous send per output/input port and
//!   detect overlaps online.
//! * `P0003` decides violations online (a receipt informing a send can
//!   never be observed after the send is finalized) but renders
//!   messages at `finish`, when first-receipt times are final.
//! * `P0004` buffers malformed sends and replays them in schedule order
//!   at `finish`.
//! * `P0005`/`P0007` are pure `finish`-time checks over the running
//!   first-receipt table and completion maximum.
//! * `P0006` tracks one port cursor and the first idle gap per
//!   processor online, and resolves the gap against the coverage
//!   horizon at `finish`.
//! * `P0017` checks each finalized send against the topology online;
//!   `P0018`/`P0019` are `finish`-time checks against one BFS of the
//!   graph from the originator.
//!
//! `finish` emits the findings in three stages (shape → broadcast →
//! quality, with quality suppressed by any error) and sorts once into
//! report order. `tests/lint_differential.rs` pins the report
//! byte-identical (rendered and JSON) to the retained seed engine,
//! [`lint_schedule_reference`](super::reference::lint_schedule_reference),
//! over the full acceptance grid.

use super::{diag_order, Diagnostic, LintCode, LintOptions, Severity};
use crate::fib::GenFib;
use crate::latency::Latency;
use crate::runtimes;
use crate::schedule::TimedSend;
use crate::time::{Time, TICK_LIMIT};
use crate::topology::{eccentricity_of, Topology, UNREACHABLE};
use std::cmp::{Ordering, Reverse};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::mem::size_of;

/// Sentinel for "no value" in a [`TimeSlots`] tick lane. Larger than
/// any tick count a lane holds: a start or receipt sum of two counts
/// within [`crate::time::TICK_LIMIT`], or a cursor one unit past one.
const EMPTY: i64 = i64::MAX;
/// Sentinel for "value lives in the exact side table".
const EXACT: i64 = i64::MAX - 1;

/// Per-processor time storage: an `i64` lane of ticks of `1/den` with
/// an exact side table for off-lattice values. Costs 8 bytes per
/// processor plus one hash entry per processor that ever held an
/// off-lattice time (none when the stream stays on its lattice).
struct TimeSlots {
    den: i64,
    ticks: Vec<i64>,
    exact: HashMap<u32, Time>,
}

impl TimeSlots {
    fn new(n: usize, den: i64) -> TimeSlots {
        TimeSlots {
            den,
            ticks: vec![EMPTY; n],
            exact: HashMap::new(),
        }
    }

    fn get(&self, p: u32) -> Option<Time> {
        match self.ticks[p as usize] {
            EMPTY => None,
            EXACT => self.exact.get(&p).copied(),
            k => Some(Time::from_ticks(k, self.den)),
        }
    }

    fn put(&mut self, p: u32, t: Time) {
        self.put_at(p, t, t.to_ticks(self.den));
    }

    /// [`TimeSlots::put`] of a time whose tick count, `ticks`, the
    /// caller already holds.
    fn put_at(&mut self, p: u32, t: Time, ticks: Option<i64>) {
        match ticks {
            Some(k) if self.ticks[p as usize] != EXACT => self.ticks[p as usize] = k,
            _ => {
                self.ticks[p as usize] = EXACT;
                self.exact.insert(p, t);
            }
        }
    }

    /// Slot `p`'s value compared with `t`, whose tick count is `ticks`;
    /// `None` while the slot is empty. Decided on integers whenever
    /// both sit on the lattice.
    fn cmp_at(&self, p: u32, t: Time, ticks: Option<i64>) -> Option<Ordering> {
        match (self.ticks[p as usize], ticks) {
            (EMPTY, _) => None,
            (a, Some(k)) if a != EXACT => Some(a.cmp(&k)),
            _ => self.get(p).map(|a| a.cmp(&t)),
        }
    }

    /// Slot `p`'s value when `t` (whose tick count is `ticks`) starts
    /// less than one unit after it — the shared `P0001`/`P0002` window
    /// condition, decided on integers whenever both sit on the lattice.
    fn less_than_one_unit_before(&self, p: u32, t: Time, ticks: Option<i64>) -> Option<Time> {
        match (self.ticks[p as usize], ticks) {
            (EMPTY, _) => None,
            // Both at most TICK_LIMIT in magnitude: no overflow.
            (a, Some(k)) if a != EXACT => (k < a + self.den).then(|| Time::from_ticks(a, self.den)),
            _ => self.get(p).filter(|&a| t < a + Time::ONE),
        }
    }

    /// Lowers slot `p` toward `k` ticks without leaving the integer
    /// lane (`EMPTY` is `i64::MAX`, so the bare `min` covers the unset
    /// case).
    fn set_min_ticks(&mut self, p: u32, k: i64) {
        let slot = &mut self.ticks[p as usize];
        if *slot == EXACT {
            let t = Time::from_ticks(k, self.den);
            let e = self.exact.get_mut(&p).expect("EXACT slot has an entry");
            if t < *e {
                *e = t;
            }
        } else if k < *slot {
            *slot = k;
        }
    }

    /// Lowers slot `p` toward `t`.
    fn set_min(&mut self, p: u32, t: Time) {
        match t.to_ticks(self.den) {
            Some(k) => self.set_min_ticks(p, k),
            None => match self.get(p) {
                Some(c) if c <= t => {}
                _ => self.put(p, t),
            },
        }
    }

    fn memory_bytes(&self) -> usize {
        self.ticks.capacity() * size_of::<i64>()
            + self.exact.capacity() * (size_of::<(u32, Time)>() + size_of::<u64>())
    }
}

/// The running per-stream state every check shares: processor count,
/// λ, per-processor first-receipt times (updated as sends are observed
/// — the minimum is order-independent) and the running completion
/// maximum over *all* observed sends, malformed included (mirroring
/// [`Schedule::completion`](crate::schedule::Schedule::completion)).
pub struct StreamIndex {
    n: u32,
    latency: Latency,
    /// The stream's tick denominator, `latency.lattice_lcm(2)`.
    den: i64,
    lam_ticks: Option<i64>,
    first_receipt: TimeSlots,
    completion_ticks: i64,
    completion_exact: Option<Time>,
    sends: u64,
    malformed: u64,
}

impl StreamIndex {
    fn new(n: u32, latency: Latency) -> StreamIndex {
        let den = latency.lattice_lcm(2);
        StreamIndex {
            n,
            latency,
            den,
            lam_ticks: latency.as_time().to_ticks(den),
            first_receipt: TimeSlots::new(n as usize, den),
            completion_ticks: i64::MIN,
            completion_exact: None,
            sends: 0,
            malformed: 0,
        }
    }

    /// Folds one observed send, whose start is `start_ticks` ticks when
    /// it lies on the lattice, into the running aggregates.
    fn record(&mut self, s: &TimedSend, start_ticks: Option<i64>, well_formed: bool) {
        let ticks = match (self.lam_ticks, start_ticks) {
            // Both ≤ TICK_LIMIT = i64::MAX/4 in magnitude: no overflow.
            (Some(l), Some(k)) => Some(k + l),
            _ => None,
        };
        match ticks {
            Some(k) if well_formed => return self.record_ticks(s.dst, k),
            Some(k) => self.completion_ticks = self.completion_ticks.max(k),
            None => {
                let rf = s.recv_finish(self.latency);
                self.completion_exact = Some(match self.completion_exact {
                    Some(c) => c.max(rf),
                    None => rf,
                });
            }
        }
        if well_formed {
            self.sends += 1;
            self.first_receipt
                .set_min(s.dst, s.recv_finish(self.latency));
        } else {
            self.malformed += 1;
        }
    }

    /// Folds one well-formed send to `dst` whose receive finishes
    /// `receipt` ticks into the run.
    fn record_ticks(&mut self, dst: u32, receipt: i64) {
        self.completion_ticks = self.completion_ticks.max(receipt);
        self.sends += 1;
        self.first_receipt.set_min_ticks(dst, receipt);
    }

    /// Processor count of the stream under lint.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// λ of the stream under lint.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// When processor `p` first finishes receiving anything *observed
    /// so far*, if ever. Final once the stream ends.
    pub fn first_receipt(&self, p: u32) -> Option<Time> {
        self.first_receipt.get(p)
    }

    /// The latest receive finish over every observed send (malformed
    /// included), or zero for an empty stream — the streaming image of
    /// [`Schedule::completion`](crate::schedule::Schedule::completion).
    pub fn completion(&self) -> Time {
        let fast = (self.completion_ticks != i64::MIN)
            .then(|| Time::from_ticks(self.completion_ticks, self.den));
        match (fast, self.completion_exact) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => Time::ZERO,
        }
    }

    /// Well-formed sends observed so far.
    pub fn sends_observed(&self) -> u64 {
        self.sends
    }

    /// Malformed sends observed so far.
    pub fn malformed_observed(&self) -> u64 {
        self.malformed
    }

    /// Currently reserved heap bytes, by container capacity.
    pub fn memory_bytes(&self) -> usize {
        self.first_receipt.memory_bytes()
    }
}

/// One port per processor — the output ports for `P0001`, the input
/// ports for `P0002` — with its previous send's start and peer, and
/// the overlaps found so far, tagged with the port's processor.
struct Ports {
    prev_start: TimeSlots,
    peer: Vec<u32>,
    found: Vec<(u32, Diagnostic)>,
}

impl Ports {
    fn new(n: usize, den: i64) -> Ports {
        Ports {
            prev_start: TimeSlots::new(n, den),
            peer: vec![0; n],
            found: Vec::new(),
        }
    }

    /// Moves port `p` on to a send with `peer` starting at `start`
    /// (`ticks` on the lattice), returning the previous send's start
    /// and peer when it started less than one unit earlier.
    fn step(&mut self, p: u32, peer: u32, start: Time, ticks: Option<i64>) -> Option<(Time, u32)> {
        let overlap = self
            .prev_start
            .less_than_one_unit_before(p, start, ticks)
            .map(|a| (a, self.peer[p as usize]));
        self.prev_start.put_at(p, start, ticks);
        self.peer[p as usize] = peer;
        overlap
    }

    /// Appends the overlaps by processor; the stable sort keeps each
    /// processor's overlaps in detection (= schedule) order.
    fn findings(&mut self, out: &mut Vec<Diagnostic>) {
        self.found.sort_by_key(|&(p, _)| p);
        out.extend(self.found.drain(..).map(|(_, d)| d));
    }

    fn memory_bytes(&self) -> usize {
        self.prev_start.memory_bytes()
            + self.peer.capacity() * size_of::<u32>()
            + self.found.capacity() * size_of::<(u32, Diagnostic)>()
            + self
                .found
                .iter()
                .map(|(_, d)| finding_heap_bytes(d))
                .sum::<usize>()
    }
}

/// The heap a held finding owns beyond its own struct: its message and
/// its list of offending sends.
fn finding_heap_bytes(d: &Diagnostic) -> usize {
    d.message.capacity() + d.sends.capacity() * size_of::<TimedSend>()
}

/// The streaming lint engine: checks each send the watermark releases
/// and assembles the report in [`StreamingLint::finish`].
///
/// See the [module docs](self) for the watermark/finalization protocol
/// and the code-by-code incremental strategy.
pub struct StreamingLint {
    opts: LintOptions,
    index: StreamIndex,
    /// The graph `P0017`–`P0019` check against; `None` for the complete
    /// graph, where all three are vacuous.
    topology: Option<Topology>,
    /// `P0004`: the malformed sends, in observation order.
    malformed: Vec<TimedSend>,
    /// `P0001`: the output ports, keyed by sender.
    out_ports: Ports,
    /// `P0002`: the input ports, keyed by receiver. Receive finishes are
    /// send starts shifted by the constant λ, so the window condition is
    /// the same less-than-one-unit-apart comparison of starts.
    in_ports: Ports,
    /// `P0003`: finalized sends whose sender did not yet hold the
    /// message, in finalization order. The decision is final when made:
    /// a send finalized at watermark `w > start` has every receipt
    /// finishing by `start` already observed, because the informing
    /// send started at least λ earlier.
    causality: Vec<TimedSend>,
    /// `P0006`: each output port's busy cursor (empty unless the stream
    /// is linted as a broadcast).
    idle_cursor: TimeSlots,
    /// `P0006`: each port's first idle gap.
    first_gap: HashMap<u32, Time>,
    /// `P0017`: the non-edge findings, in schedule order.
    non_edges: Vec<Diagnostic>,
    /// Pending sends on the stream's tick lattice, bucketed by start
    /// tick.
    pending_fast: BTreeMap<i64, TickBucket>,
    /// Sends in `pending_fast`.
    pending_fast_len: usize,
    /// Heap bytes `pending_fast` reserves: every bucket's pair capacity
    /// plus [`BUCKET_BYTES`] per bucket.
    pending_fast_bytes: usize,
    /// The most `pending_fast_bytes` has been. Drained buckets are
    /// freed, so [`StreamingLint::memory_bytes`] reports this peak.
    pending_fast_peak: usize,
    /// Pending off-lattice sends, keyed `(start, src, dst)`.
    pending_exact: BinaryHeap<Reverse<(Time, u32, u32)>>,
    /// The watermark in ticks, when it lies on the lattice.
    watermark_ticks: Option<i64>,
    /// The watermark when `watermark_ticks` is `None`.
    watermark_exact: Time,
    out_of_order: bool,
    /// Well-formed sends whose start lies off the lattice.
    exact_sends: u64,
}

impl StreamingLint {
    /// Creates an engine over `MPS(n, λ)` checking `P0001`, `P0002` and
    /// `P0004`, plus `P0003` and `P0005`–`P0007` when `opts.broadcast`.
    pub fn new(n: u32, latency: Latency, opts: LintOptions) -> StreamingLint {
        let index = StreamIndex::new(n, latency);
        let den = index.den;
        let cursors = if opts.broadcast { n as usize } else { 0 };
        StreamingLint {
            opts,
            index,
            topology: None,
            malformed: Vec::new(),
            out_ports: Ports::new(n as usize, den),
            in_ports: Ports::new(n as usize, den),
            causality: Vec::new(),
            idle_cursor: TimeSlots::new(cursors, den),
            first_gap: HashMap::new(),
            non_edges: Vec::new(),
            pending_fast: BTreeMap::new(),
            pending_fast_len: 0,
            pending_fast_bytes: 0,
            pending_fast_peak: 0,
            pending_exact: BinaryHeap::new(),
            watermark_ticks: Some(0),
            watermark_exact: Time::ZERO,
            out_of_order: false,
            exact_sends: 0,
        }
    }

    /// [`StreamingLint::new`] plus the topology codes: `P0017` (shape,
    /// after `P0002`), `P0019` (broadcast, after `P0005`, which it
    /// root-cause-suppresses) and `P0018` (quality, after `P0007`). On
    /// the complete graph all three are vacuous — every pair is an edge,
    /// every processor is reachable, and the BFS bound defers to the
    /// stronger `f_λ(n)` of `P0007` — so the output is byte-identical to
    /// [`StreamingLint::new`]'s.
    ///
    /// `topology` must be instantiated for `n` processors
    /// (out-of-range processors read as non-edges/unreachable).
    pub fn with_topology(
        n: u32,
        latency: Latency,
        opts: LintOptions,
        topology: &Topology,
    ) -> StreamingLint {
        StreamingLint {
            topology: (!topology.is_complete()).then_some(*topology),
            ..StreamingLint::new(n, latency, opts)
        }
    }

    /// Observes one send. Malformed sends are set aside for `P0004` at
    /// once; well-formed sends are parked until the watermark passes
    /// their start time.
    pub fn observe_send(&mut self, src: u32, dst: u32, send_start: Time) {
        let s = TimedSend {
            src,
            dst,
            send_start,
        };
        // The one tick conversion of this send: everything below, and
        // every check once it is finalized, compares on it.
        let ticks = send_start.to_ticks(self.index.den);
        let nonnegative = match ticks {
            Some(k) => k >= 0,
            None => send_start >= Time::ZERO,
        };
        let well_formed = self.pair_in_range(src, dst) && nonnegative;
        self.index.record(&s, ticks, well_formed);
        if !well_formed {
            self.malformed.push(s);
            return;
        }
        match ticks {
            Some(k) => self.park_ticks(src, dst, k),
            None => {
                if send_start < self.watermark() {
                    self.out_of_order = true;
                }
                self.exact_sends += 1;
                self.pending_exact.push(Reverse((send_start, src, dst)));
            }
        }
    }

    /// [`StreamingLint::observe_send`] of a send starting `start` ticks
    /// of `1/`[`tick_denominator`](StreamingLint::tick_denominator) into
    /// the stream, for a caller that keeps time on the stream's own
    /// lattice: a well-formed send takes the tick lane with no
    /// conversion. Any other send (malformed, or past
    /// [`TICK_LIMIT`]) goes through
    /// `observe_send` with its exact start, so both entries give the
    /// same report.
    pub fn observe_send_ticks(&mut self, src: u32, dst: u32, start: i64) {
        match self.index.lam_ticks {
            Some(l) if self.pair_in_range(src, dst) && (0..=TICK_LIMIT).contains(&start) => {
                // Both ≤ TICK_LIMIT = i64::MAX/4: no overflow.
                self.index.record_ticks(dst, start + l);
                self.park_ticks(src, dst, start);
            }
            _ => self.observe_send(src, dst, Time::from_ticks(start, self.index.den)),
        }
    }

    /// [`StreamingLint::observe_send`] of the next send of a stream in
    /// canonical order, once the watermark has been advanced to its
    /// start. A well-formed send on the lattice, with nothing pending,
    /// is the next send to finalize, so it is finalized at once instead
    /// of parked. Any other send is observed as `observe_send` does.
    ///
    /// A send finalized at once reads its sender's first receipt before
    /// the sends after it at the same start are recorded; finalized from
    /// the lane, it reads it after. Those sends' receipts all come later
    /// than the start, so only the `P0006` cursor of a sender not yet
    /// informed can read a different value, and the `P0003` error such a
    /// send raises suppresses `P0006`: the report is the same.
    pub(crate) fn observe_in_order(&mut self, s: &TimedSend) {
        if self.pending_len() == 0 {
            if let (Some(l), Some(w)) = (self.index.lam_ticks, self.watermark_ticks) {
                // The watermark never falls below its start at 0, so a
                // start equal to it is not negative.
                if s.send_start.to_ticks(self.index.den) == Some(w)
                    && self.pair_in_range(s.src, s.dst)
                {
                    // Both ≤ TICK_LIMIT = i64::MAX/4: no overflow.
                    self.index.record_ticks(s.dst, w + l);
                    return self.finalize(s, Some(w));
                }
            }
        }
        self.observe_send(s.src, s.dst, s.send_start);
    }

    /// Whether `src → dst` joins two distinct processors of the run.
    fn pair_in_range(&self, src: u32, dst: u32) -> bool {
        let n = self.index.n;
        src < n && dst < n && src != dst
    }

    /// Parks a well-formed send starting `k` ticks in on the tick lane.
    fn park_ticks(&mut self, src: u32, dst: u32, k: i64) {
        let late = match self.watermark_ticks {
            Some(w) => k < w,
            None => Time::from_ticks(k, self.index.den) < self.watermark_exact,
        };
        if late {
            // The watermark already passed this start: finalization
            // order can no longer be canonical.
            self.out_of_order = true;
        }
        let bucket = match self.pending_fast.entry(k) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.pending_fast_bytes += BUCKET_BYTES;
                e.insert(TickBucket::default())
            }
        };
        let cap = bucket.pairs.capacity();
        bucket.push((src, dst));
        self.pending_fast_bytes += (bucket.pairs.capacity() - cap) * size_of::<(u32, u32)>();
        self.pending_fast_peak = self.pending_fast_peak.max(self.pending_fast_bytes);
        self.pending_fast_len += 1;
    }

    /// Raises the watermark to `t` (never lowers it) and finalizes
    /// every pending send starting strictly before it. The caller
    /// guarantees that all sends starting before `t` have been
    /// observed; the engine's simulation clock and the timestamps of a
    /// sorted event log both satisfy this.
    pub fn advance_watermark(&mut self, t: Time) {
        match t.to_ticks(self.index.den) {
            Some(k) => self.advance_watermark_ticks(k),
            None => {
                if t > self.watermark() {
                    self.watermark_ticks = None;
                    self.watermark_exact = t;
                }
                self.drain_below_watermark();
            }
        }
    }

    /// [`StreamingLint::advance_watermark`] to `t` ticks of
    /// `1/`[`tick_denominator`](StreamingLint::tick_denominator), with
    /// no conversion; a tick count past
    /// [`TICK_LIMIT`] goes through
    /// `advance_watermark` with its exact time.
    pub fn advance_watermark_ticks(&mut self, t: i64) {
        if t.unsigned_abs() > TICK_LIMIT as u64 {
            return self.advance_watermark(Time::from_ticks(t, self.index.den));
        }
        let raised = match self.watermark_ticks {
            Some(w) => t > w,
            None => Time::from_ticks(t, self.index.den) > self.watermark_exact,
        };
        if raised {
            self.watermark_ticks = Some(t);
        }
        self.drain_below_watermark();
    }

    /// The watermark as an exact time.
    fn watermark(&self) -> Time {
        match self.watermark_ticks {
            Some(w) => Time::from_ticks(w, self.index.den),
            None => self.watermark_exact,
        }
    }

    /// Finalizes every pending send starting strictly before the
    /// watermark.
    fn drain_below_watermark(&mut self) {
        // Integer-only fast path: all pending on-lattice, watermark
        // on-lattice.
        if self.pending_exact.is_empty() {
            if let Some(w) = self.watermark_ticks {
                let den = self.index.den;
                while let Some(entry) = self.pending_fast.first_entry() {
                    if *entry.key() >= w {
                        return;
                    }
                    let (k, bucket) = entry.remove_entry();
                    self.pending_fast_len -= bucket.pairs.len();
                    self.pending_fast_bytes -= bucket.bytes();
                    let send_start = Time::from_ticks(k, den);
                    for (src, dst) in bucket.into_sorted() {
                        let s = TimedSend {
                            src,
                            dst,
                            send_start,
                        };
                        self.finalize(&s, Some(k));
                    }
                }
                return;
            }
        }
        let bound = self.watermark();
        while let Some((s, ticks)) = self.pop_min(Some(bound)) {
            self.finalize(&s, ticks);
        }
    }

    /// Removes and returns the smallest pending send by exact
    /// `(start, src, dst)` key, with its start in ticks when it has
    /// them, if it starts before `bound` (or whenever `bound` is
    /// `None`). A fast-lane and an exact-lane entry can never carry the
    /// same start time (a time either has a tick form or it does not),
    /// so the merge is unambiguous.
    fn pop_min(&mut self, bound: Option<Time>) -> Option<(TimedSend, Option<i64>)> {
        let den = self.index.den;
        let fast = self.pending_fast.first_entry().map(|mut entry| {
            let (src, dst) = entry.get_mut().min();
            TimedSend {
                src,
                dst,
                send_start: Time::from_ticks(*entry.key(), den),
            }
        });
        let exact = self
            .pending_exact
            .peek()
            .map(|&Reverse((send_start, src, dst))| TimedSend {
                src,
                dst,
                send_start,
            });
        let key = |s: &TimedSend| (s.send_start, s.src, s.dst);
        let (s, from_fast) = match (fast, exact) {
            (Some(f), Some(e)) if key(&e) < key(&f) => (e, false),
            (Some(f), _) => (f, true),
            (None, Some(e)) => (e, false),
            (None, None) => return None,
        };
        if bound.is_some_and(|w| s.send_start >= w) {
            return None;
        }
        if from_fast {
            let mut entry = self.pending_fast.first_entry()?;
            let ticks = *entry.key();
            entry.get_mut().pairs.pop();
            if entry.get().pairs.is_empty() {
                self.pending_fast_bytes -= entry.remove().bytes();
            }
            self.pending_fast_len -= 1;
            Some((s, Some(ticks)))
        } else {
            self.pending_exact.pop();
            Some((s, None))
        }
    }

    /// Runs the online checks on one send the watermark released, in
    /// canonical order; `ticks` is its start on the lattice, if there.
    fn finalize(&mut self, s: &TimedSend, ticks: Option<i64>) {
        let (src, dst, start) = (s.src, s.dst, s.send_start);
        if let Some((a_start, a_dst)) = self.out_ports.step(src, dst, start, ticks) {
            let a = TimedSend {
                src,
                dst: a_dst,
                send_start: a_start,
            };
            self.out_ports.found.push((src, output_overlap(a, *s)));
        }
        if let Some((a_start, a_src)) = self.in_ports.step(dst, src, start, ticks) {
            let a = TimedSend {
                src: a_src,
                dst,
                send_start: a_start,
            };
            let d = window_overlap(a, *s, self.index.latency);
            self.in_ports.found.push((dst, d));
        }
        if let Some(topo) = &self.topology {
            if !topo.is_edge(src, dst) {
                self.non_edges.push(non_edge(*s, topo));
            }
        }
        if self.opts.broadcast {
            let informed = src == self.opts.originator
                || matches!(
                    self.index.first_receipt.cmp_at(src, start, ticks),
                    Some(Ordering::Less | Ordering::Equal)
                );
            if !informed {
                self.causality.push(*s);
            }
            self.advance_idle_cursor(s, ticks);
        }
    }

    /// `P0006`'s online half: moves `s.src`'s busy cursor past `s` and
    /// records the port's first idle gap. A port's first send opens the
    /// cursor at the processor's informed time — the sender's first
    /// receipt so far, or the send itself when there is none, a `P0003`
    /// error that suppresses `P0006`.
    fn advance_idle_cursor(&mut self, s: &TimedSend, ticks: Option<i64>) {
        let src = s.src;
        let den = self.index.den;
        // The lattice path: the port's cursor and this start in ticks.
        if let Some(start) = ticks {
            let cur = match self.idle_cursor.ticks[src as usize] {
                EMPTY if src == self.opts.originator => Some(0),
                EMPTY => match self.index.first_receipt.ticks[src as usize] {
                    EMPTY => Some(start),
                    EXACT => None,
                    k => Some(k),
                },
                EXACT => None,
                c => Some(c),
            };
            if let Some(cur) = cur {
                if start > cur {
                    self.first_gap
                        .entry(src)
                        .or_insert_with(|| Time::from_ticks(cur, den));
                }
                // At most TICK_LIMIT + den: below the lane's sentinels.
                self.idle_cursor.ticks[src as usize] = cur.max(start + den);
                return;
            }
        }
        let start = s.send_start;
        let cur = match self.idle_cursor.get(src) {
            Some(c) => c,
            None => self.informed_at(src).unwrap_or(start),
        };
        if start > cur {
            self.first_gap.entry(src).or_insert(cur);
        }
        self.idle_cursor.put(src, cur.max(start + Time::ONE));
    }

    /// When `p` holds the message: zero for the originator, its first
    /// receipt observed so far for everyone else.
    fn informed_at(&self, p: u32) -> Option<Time> {
        if p == self.opts.originator {
            Some(Time::ZERO)
        } else {
            self.index.first_receipt(p)
        }
    }

    /// True when a send was observed after the watermark had already
    /// passed its start: the streamed report is unreliable and the
    /// caller should lint the materialized schedule instead.
    pub fn out_of_order(&self) -> bool {
        self.out_of_order
    }

    /// Well-formed sends observed so far whose start lies off the
    /// stream's lattice, and so took the exact pending lane and the
    /// checks' exact comparisons. The workspace's algorithms read 0
    /// under a uniform λ.
    pub fn exact_sends(&self) -> u64 {
        self.exact_sends
    }

    /// The stream's tick denominator `D = λ.lattice_lcm(2)`: the tick
    /// entries [`StreamingLint::observe_send_ticks`] and
    /// [`StreamingLint::advance_watermark_ticks`] count ticks of `1/D`.
    pub fn tick_denominator(&self) -> i64 {
        self.index.den
    }

    /// The running aggregates (processor count, λ, first receipts,
    /// completion).
    pub fn index(&self) -> &StreamIndex {
        &self.index
    }

    /// Sends observed but not yet finalized.
    pub fn pending_len(&self) -> usize {
        self.pending_fast_len + self.pending_exact.len()
    }

    /// Peak reserved linter heap bytes, by container capacity: the
    /// pending lanes' high-water marks, the shared index, and every
    /// code's state (none of which shrink), the held findings' messages
    /// and send lists included. This is the number the
    /// `exp_stream_lint` budget gates, so it bounds the linter's peak
    /// whenever it is read.
    pub fn memory_bytes(&self) -> usize {
        self.pending_fast_peak
            + self.pending_exact.capacity() * size_of::<Reverse<(Time, u32, u32)>>()
            + self.index.memory_bytes()
            + self.malformed.capacity() * size_of::<TimedSend>()
            + self.out_ports.memory_bytes()
            + self.in_ports.memory_bytes()
            + self.causality.capacity() * size_of::<TimedSend>()
            + self.idle_cursor.memory_bytes()
            + self.first_gap.capacity() * (size_of::<(u32, Time)>() + size_of::<u64>())
            + self.non_edges.capacity() * size_of::<Diagnostic>()
            + self.non_edges.iter().map(finding_heap_bytes).sum::<usize>()
    }

    /// Finalizes every pending send and returns the report.
    ///
    /// Shape findings come first (`P0004`, `P0001`, `P0002`, `P0017`;
    /// returned unsorted when the stream is not linted as a broadcast,
    /// the ports-only report contract), then broadcast
    /// validity (`P0003`, `P0005`, `P0019`), then — only when no error
    /// was found, since a broken schedule's completion time is
    /// meaningless — the quality lints (`P0006`, `P0007`, `P0018`),
    /// with one final stable sort into report order. Each code emits in
    /// its canonical order (by processor, then schedule order), which
    /// the stable sort keeps among equal keys.
    pub fn finish(mut self) -> Vec<Diagnostic> {
        // Drain: everything still pending is final now.
        while let Some((s, ticks)) = self.pop_min(None) {
            self.finalize(&s, ticks);
        }
        let mut diags = Vec::new();
        self.malformed_findings(&mut diags);
        self.out_ports.findings(&mut diags);
        self.in_ports.findings(&mut diags);
        diags.append(&mut self.non_edges);
        if !self.opts.broadcast {
            return diags;
        }
        self.causality_findings(&mut diags);
        self.coverage_findings(&mut diags);
        // One BFS from the originator serves P0019 and P0018.
        let graph = self
            .topology
            .map(|t| (t, t.bfs_distances(self.opts.originator)));
        if let Some((topo, dist)) = &graph {
            self.reachability_findings(topo, dist, &mut diags);
        }
        if !diags.iter().any(|d| d.severity == Severity::Error) {
            self.idle_findings(&mut diags);
            self.optimality_findings(&mut diags);
            if let Some((topo, dist)) = &graph {
                self.topology_optimality_findings(topo, dist, &mut diags);
            }
        }
        diags.sort_by_key(diag_order);
        diags
    }

    /// `P0004`: the malformed sends in schedule order, which
    /// [`Schedule::new`](crate::schedule::Schedule::new) sorts by
    /// `(start, src, dst)`.
    fn malformed_findings(&mut self, out: &mut Vec<Diagnostic>) {
        self.malformed.sort_by_key(|s| (s.send_start, s.src, s.dst));
        let n = self.index.n;
        let lam = self.index.latency;
        for s in &self.malformed {
            let what = if s.src == s.dst {
                "self-send"
            } else if s.src >= n || s.dst >= n {
                "endpoint out of range"
            } else {
                "negative start time"
            };
            out.push(Diagnostic {
                code: LintCode::MalformedSend,
                severity: Severity::Error,
                witness: None,
                proc: Some(s.src),
                sends: vec![*s],
                related_time: None,
                message: format!(
                    "{what}: p{} -> p{} at t = {} in MPS({n}, {lam})",
                    s.src, s.dst, s.send_start
                ),
            });
        }
    }

    /// `P0003`: the violations found online, with the sender's final
    /// first-receipt time.
    fn causality_findings(&self, out: &mut Vec<Diagnostic>) {
        for s in &self.causality {
            let knows_at = self.index.first_receipt(s.src);
            out.push(Diagnostic {
                code: LintCode::CausalityViolation,
                severity: Severity::Error,
                witness: None,
                proc: Some(s.src),
                sends: vec![*s],
                related_time: knows_at,
                message: match knows_at {
                    Some(t) => format!(
                        "p{} sends at t = {} but first holds the message at t = {}",
                        s.src, s.send_start, t
                    ),
                    None => format!(
                        "p{} sends at t = {} but never receives the message",
                        s.src, s.send_start
                    ),
                },
            });
        }
    }

    /// `P0005`: every processor but the originator that never receives.
    fn coverage_findings(&self, out: &mut Vec<Diagnostic>) {
        for p in 0..self.index.n {
            if p != self.opts.originator && self.index.first_receipt(p).is_none() {
                out.push(Diagnostic {
                    code: LintCode::UninformedProcessor,
                    severity: Severity::Error,
                    witness: None,
                    proc: Some(p),
                    sends: Vec::new(),
                    related_time: None,
                    message: format!("p{p} never receives the broadcast message"),
                });
            }
        }
    }

    /// `P0019`: the processors `dist` (BFS from the originator over
    /// `topo`) cannot reach. No schedule can inform them, so the
    /// graph-level finding root-cause-suppresses the `P0005` already in
    /// `out` for each — the way `P0012` silences downstream findings in
    /// `postal-abs`.
    fn reachability_findings(&self, topo: &Topology, dist: &[u32], out: &mut Vec<Diagnostic>) {
        let orig = self.opts.originator;
        let cut: Vec<u32> = (0..self.index.n)
            .filter(|&p| {
                p != orig && dist.get(p as usize).copied().unwrap_or(UNREACHABLE) == UNREACHABLE
            })
            .collect();
        if cut.is_empty() {
            return;
        }
        let mut suppressed: Vec<u32> = Vec::new();
        out.retain(|d| {
            let cover = d.code == LintCode::UninformedProcessor
                && d.proc.is_some_and(|p| cut.binary_search(&p).is_ok());
            if cover {
                suppressed.push(d.proc.unwrap_or(u32::MAX));
            }
            !cover
        });
        let spec = topo.spec();
        for p in cut {
            let note = if suppressed.contains(&p) {
                " (suppresses the timing-level P0005)"
            } else {
                ""
            };
            out.push(Diagnostic {
                code: LintCode::TopologyPartitionUnreachable,
                severity: Severity::Error,
                witness: None,
                proc: Some(p),
                sends: Vec::new(),
                related_time: None,
                message: format!(
                    "p{p} has no path from the originator p{orig} in the {spec} \
                     topology — no schedule can inform it{note}"
                ),
            });
        }
    }

    /// `P0006`: resolves each port's first idle gap against the
    /// coverage horizon.
    ///
    /// Only the first gap matters: the rule reports the earliest gap
    /// whose hypothetical delivery beats some processor's actual
    /// receipt, and that test is monotone — the receipt it compares
    /// against does not depend on the gap, so if the earliest gap fails
    /// the test every later (larger) gap fails too.
    ///
    /// The cursor opened at the first-receipt time read when the port's
    /// first send finalized. In an error-free run that value was already
    /// final (causality holds, so the informing receipt precedes the
    /// first send, and later receipts finish strictly later); in a run
    /// with errors this stage never runs.
    fn idle_findings(&self, out: &mut Vec<Diagnostic>) {
        let idx = &self.index;
        let lam = idx.latency.as_time();

        // The coverage horizon and the two latest first-receipts
        // (distinct processors): enough to answer "does any processor
        // other than `src` first receive after time x?" in O(1).
        let mut completion_of_coverage = Time::ZERO;
        let mut latest: Option<(Time, u32)> = None;
        let mut second: Option<(Time, u32)> = None;
        for p in 0..idx.n {
            let Some(t) = idx.first_receipt(p) else {
                continue;
            };
            completion_of_coverage = completion_of_coverage.max(t);
            if latest.is_none_or(|(lt, lp)| (t, p) > (lt, lp)) {
                second = latest;
                latest = Some((t, p));
            } else if second.is_none_or(|(st, sp)| (t, p) > (st, sp)) {
                second = Some((t, p));
            }
        }
        let receipt_after = |x: Time, src: u32| -> Option<(Time, u32)> {
            match latest {
                Some((t, q)) if q != src && t > x => Some((t, q)),
                Some((_, q)) if q == src => second.filter(|&(t, _)| t > x),
                _ => None,
            }
        };

        for src in 0..idx.n {
            let Some(informed_at) = self.informed_at(src) else {
                continue;
            };
            // The candidate gap: the first recorded idle gap, else the
            // open-ended gap after the last send (the port's whole
            // informed life, for a port that never sent).
            let gap = match self.idle_cursor.get(src) {
                None => (informed_at < completion_of_coverage).then_some(informed_at),
                Some(c) => match self.first_gap.get(&src) {
                    Some(&g) => Some(g),
                    None => (c < completion_of_coverage).then_some(c),
                },
            };
            let Some(g) = gap else {
                continue;
            };
            let hypothetical = g + lam;
            // An uninformed-at-g processor whose eventual receipt
            // is strictly later than the hypothetical delivery.
            if let Some((t, q)) = receipt_after(hypothetical, src) {
                out.push(Diagnostic {
                    code: LintCode::IdlePortWaste,
                    severity: Severity::Warn,
                    witness: None,
                    proc: Some(src),
                    sends: Vec::new(),
                    related_time: Some(g),
                    message: format!(
                        "p{src} is informed and idle from t = {g} although a send then \
                         would reach p{q} at t = {hypothetical}, earlier than its actual \
                         receipt at t = {t}"
                    ),
                });
            }
        }
    }

    /// `P0007`: the completion time against `f_λ(n)` / the Lemma 8
    /// bound.
    fn optimality_findings(&self, out: &mut Vec<Diagnostic>) {
        let n = self.index.n;
        let lam = self.index.latency;
        // Only sensible when there is something to broadcast to.
        if n < 2 {
            return;
        }
        let completion = self.index.completion();
        let m = self.opts.messages.max(1);
        let optimal = if m == 1 {
            GenFib::new(lam).index(n as u128)
        } else {
            runtimes::multi_lower_bound(n as u128, m, lam)
        };
        if completion < optimal {
            out.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}, beating the proven lower bound {optimal} \
                     for {m} message(s) in MPS({n}, {lam}) — the schedule cannot be a full \
                     broadcast"
                ),
            });
        } else if completion > optimal {
            let (severity, bound_name) = if m == 1 {
                (Severity::Warn, "the optimum f_lambda(n)")
            } else {
                // The Lemma 8 bound is not always attainable, so a gap
                // against it is informational, not a defect.
                (
                    Severity::Info,
                    "the Lemma 8 lower bound (m-1) + f_lambda(n)",
                )
            };
            out.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}; {bound_name} is {optimal} \
                     (gap {} units)",
                    completion - optimal
                ),
            });
        }
    }

    /// `P0018`: the completion time against the BFS bound
    /// `(m−1) + λ·ecc(originator)` over `topo` — a message reaching a
    /// processor at graph distance `d` traverses `d` edges at λ per hop.
    /// The sparse-graph analogue of `P0007`'s Lemma 8 gap.
    fn topology_optimality_findings(
        &self,
        topo: &Topology,
        dist: &[u32],
        out: &mut Vec<Diagnostic>,
    ) {
        if self.index.n < 2 {
            return;
        }
        let spec = topo.spec();
        let orig = self.opts.originator;
        let completion = self.index.completion();
        let m = self.opts.messages.max(1);
        let lam = self.index.latency.as_time();
        let bound = Time::from_int(m as i128 - 1) + lam.mul_int(eccentricity_of(dist) as i128);
        if completion < bound {
            out.push(Diagnostic {
                code: LintCode::TopologyOptimalityGap,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(bound),
                message: format!(
                    "completes at t = {completion}, beating the {spec} topology \
                     lower bound {bound} for {m} message(s) from p{orig} — some \
                     transfer must bypass the graph"
                ),
            });
        } else if completion > bound {
            // Like the Lemma 8 bound, λ·ecc is not always attainable:
            // a gap is suspect for one message, informational beyond.
            let severity = if m == 1 {
                Severity::Warn
            } else {
                Severity::Info
            };
            out.push(Diagnostic {
                code: LintCode::TopologyOptimalityGap,
                severity,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(bound),
                message: format!(
                    "completes at t = {completion}; the {spec} topology lower \
                     bound (m-1) + lambda*ecc(p{orig}) is {bound} (gap {} units)",
                    completion - bound
                ),
            });
        }
    }
}

/// `P0001`: sends `a` then `b` leave one output port less than one
/// unit apart.
#[cold]
fn output_overlap(a: TimedSend, b: TimedSend) -> Diagnostic {
    let src = b.src;
    Diagnostic {
        code: LintCode::OutputPortOverlap,
        severity: Severity::Error,
        witness: None,
        proc: Some(src),
        sends: vec![a, b],
        related_time: None,
        message: format!(
            "p{src} starts sends at t = {} and t = {} ({} < 1 unit apart)",
            a.send_start,
            b.send_start,
            b.send_start - a.send_start,
        ),
    }
}

/// `P0002`: the receive windows of sends `a` then `b` overlap at one
/// input port.
#[cold]
fn window_overlap(a: TimedSend, b: TimedSend, lam: Latency) -> Diagnostic {
    let dst = b.dst;
    let (f0, f1) = (a.recv_finish(lam), b.recv_finish(lam));
    Diagnostic {
        code: LintCode::InputWindowOverlap,
        severity: Severity::Error,
        witness: None,
        proc: Some(dst),
        sends: vec![a, b],
        related_time: None,
        message: format!(
            "p{dst}'s receive windows [{}, {}] and [{}, {}] overlap",
            f0 - Time::ONE,
            f0,
            f1 - Time::ONE,
            f1,
        ),
    }
}

/// `P0017`: send `s` crosses a pair that is not an edge of `topo`.
#[cold]
fn non_edge(s: TimedSend, topo: &Topology) -> Diagnostic {
    Diagnostic {
        code: LintCode::NonEdgeSend,
        severity: Severity::Error,
        witness: None,
        proc: Some(s.src),
        sends: vec![s],
        related_time: None,
        message: format!(
            "p{} sends to p{} at t = {}, but p{}-p{} is not an edge \
             of the {} topology",
            s.src,
            s.dst,
            s.send_start,
            s.src,
            s.dst,
            topo.spec()
        ),
    }
}

/// Heap bytes charged per pending tick bucket besides its pairs: its
/// map entry (tick and bucket header), doubled for the slack of
/// partly filled B-tree nodes.
const BUCKET_BYTES: usize = 2 * size_of::<(i64, TickBucket)>();

/// The pending sends that start at one tick: their `(src, dst)` pairs,
/// sorted in descending order once the bucket reaches the front, so the
/// smallest pops from the back.
#[derive(Default)]
struct TickBucket {
    pairs: Vec<(u32, u32)>,
    sorted: bool,
}

impl TickBucket {
    /// What this bucket adds to `StreamingLint::pending_fast_bytes`.
    fn bytes(&self) -> usize {
        BUCKET_BYTES + self.pairs.capacity() * size_of::<(u32, u32)>()
    }

    fn push(&mut self, pair: (u32, u32)) {
        self.pairs.push(pair);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.pairs.sort_unstable_by(|a, b| b.cmp(a));
            self.sorted = true;
        }
    }

    /// The smallest pair. The bucket is never empty.
    fn min(&mut self) -> (u32, u32) {
        self.sort();
        *self.pairs.last().expect("pending buckets are nonempty")
    }

    /// The pairs in ascending order.
    fn into_sorted(mut self) -> impl Iterator<Item = (u32, u32)> {
        self.sort();
        self.pairs.into_iter().rev()
    }
}

#[cfg(test)]
mod tests {
    use super::super::reference::lint_schedule_reference;
    use super::super::{lint_schedule, lint_schedule_with_topology};
    use super::*;
    use crate::schedule::Schedule;
    use crate::topology::TopologySpec;

    fn send(src: u32, dst: u32, num: i128, den: i128) -> TimedSend {
        TimedSend {
            src,
            dst,
            send_start: Time::new(num, den),
        }
    }

    fn lam52() -> Latency {
        Latency::from_ratio(5, 2)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<LintCode> {
        diags.iter().map(|d| d.code).collect()
    }

    /// A messy schedule exercising every code at once.
    fn messy() -> Schedule {
        Schedule::new(
            5,
            lam52(),
            vec![
                send(0, 1, 0, 1),
                send(0, 2, 1, 2), // P0001 + P0002 pressure
                send(1, 3, 1, 1), // P0003: p1 not yet informed
                send(2, 2, 0, 1), // P0004 self-send
                send(0, 7, 2, 1), // P0004 out of range
                                  // p4 never informed: P0005
            ],
        )
    }

    #[test]
    fn engine_matches_reference_on_a_messy_schedule() {
        for opts in [
            LintOptions::default(),
            LintOptions::ports_only(),
            LintOptions::broadcast_of(3),
        ] {
            assert_eq!(
                lint_schedule(&messy(), &opts),
                lint_schedule_reference(&messy(), &opts),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn engine_matches_reference_on_clean_and_lazy_broadcasts() {
        // Optimal two-hop (clean), then a lazy line (P0006 + P0007).
        for sends in [
            vec![send(0, 1, 0, 1), send(0, 2, 1, 1)],
            vec![send(0, 1, 0, 1), send(1, 2, 5, 2)],
        ] {
            let s = Schedule::new(3, lam52(), sends);
            let opts = LintOptions::default();
            assert_eq!(lint_schedule(&s, &opts), lint_schedule_reference(&s, &opts));
        }
    }

    #[test]
    fn engine_matches_reference_on_and_off_the_tick_lattice() {
        // λ = 4/3 ticks in sixths, so these sends and receive windows
        // ride the integer lanes; a start at 1/5 is off that lattice
        // and takes the exact pending lane and exact slots. Both must
        // agree with the reference.
        let on = vec![send(0, 1, 0, 1), send(0, 2, 1, 3), send(1, 2, 2, 1)];
        let mut off = on.clone();
        off.push(send(0, 2, 6, 5));
        off.push(send(2, 1, 16, 5));
        for sends in [on, off] {
            let s = Schedule::new(3, Latency::from_ratio(4, 3), sends);
            for opts in [LintOptions::default(), LintOptions::ports_only()] {
                assert_eq!(lint_schedule(&s, &opts), lint_schedule_reference(&s, &opts));
            }
        }
    }

    fn topo(spec: &str, n: u32) -> Topology {
        spec.parse::<TopologySpec>()
            .unwrap()
            .instantiate(n)
            .unwrap()
    }

    #[test]
    fn topology_passes_are_vacuous_on_complete() {
        let complete = Topology::complete(5);
        for opts in [
            LintOptions::default(),
            LintOptions::ports_only(),
            LintOptions::broadcast_of(3),
        ] {
            assert_eq!(
                lint_schedule_with_topology(&messy(), &opts, &complete),
                lint_schedule(&messy(), &opts),
            );
        }
    }

    #[test]
    fn p0017_fires_on_a_ring_chord() {
        // 0 -> 2 is a chord of the 4-ring; 0 -> 1 is an edge.
        let s = Schedule::new(
            4,
            Latency::from_int(2),
            vec![send(0, 1, 0, 1), send(0, 2, 1, 1)],
        );
        let diags = lint_schedule_with_topology(&s, &LintOptions::ports_only(), &topo("ring", 4));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::NonEdgeSend);
        assert_eq!(diags[0].proc, Some(0));
        assert_eq!(
            diags[0].message,
            "p0 sends to p2 at t = 1, but p0-p2 is not an edge of the ring topology"
        );
    }

    #[test]
    fn p0018_warns_on_a_gap_and_errors_below_the_bound() {
        // Ring of 3 = triangle, ecc = 1, bound = λ = 1; the two-hop line
        // completes at 2 → warn with gap 1. (f_1(3) = 2, so P0007 stays
        // silent — the graph bound is the only finding.)
        let lam = Latency::from_int(1);
        let ring3 = topo("ring", 3);
        let s = Schedule::new(3, lam, vec![send(0, 1, 0, 1), send(1, 2, 1, 1)]);
        let diags = lint_schedule_with_topology(&s, &LintOptions::default(), &ring3);
        assert_eq!(codes(&diags), vec![LintCode::TopologyOptimalityGap]);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert_eq!(diags[0].related_time, Some(Time::from_int(1)));

        // Claiming three messages over a star that completes at t = 2
        // beats both (m−1) + λ·ecc = 3 and (m−1) + f_1(3) = 4: each
        // bound reports its own error, and no earlier stage suppresses
        // the quality stage.
        let fast = Schedule::new(3, lam, vec![send(0, 1, 0, 1), send(0, 2, 1, 1)]);
        let diags = lint_schedule_with_topology(&fast, &LintOptions::broadcast_of(3), &ring3);
        assert_eq!(
            codes(&diags),
            vec![LintCode::OptimalityGap, LintCode::TopologyOptimalityGap]
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Error));
        assert_eq!(diags[1].related_time, Some(Time::from_int(3)));
        assert_eq!(
            diags[1].message,
            "completes at t = 2, beating the ring topology lower bound 3 for 3 \
             message(s) from p0 — some transfer must bypass the graph"
        );
    }

    #[test]
    fn p0019_suppresses_p0005_for_partitioned_processors() {
        // A 2-ring oracle against a 3-processor schedule: p2 is outside
        // the graph entirely, the degenerate image of a partition. The
        // timing-level P0005 must fold into the graph-level P0019.
        let s = Schedule::new(3, Latency::from_int(2), vec![send(0, 1, 0, 1)]);
        let diags = lint_schedule_with_topology(&s, &LintOptions::default(), &topo("ring", 2));
        assert_eq!(codes(&diags), vec![LintCode::TopologyPartitionUnreachable]);
        assert_eq!(diags[0].proc, Some(2));
        assert!(
            diags[0]
                .message
                .ends_with("(suppresses the timing-level P0005)"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn observation_order_within_a_watermark_step_is_immaterial() {
        // Three same-instant sends observed in reverse processor order:
        // the pending lane restores canonical order before any check
        // sees them.
        let sends = [send(2, 3, 0, 1), send(1, 2, 0, 1), send(0, 1, 0, 1)];
        let mut lint = StreamingLint::new(4, Latency::from_int(2), LintOptions::ports_only());
        for s in &sends {
            lint.observe_send(s.src, s.dst, s.send_start);
        }
        assert_eq!(lint.pending_len(), 3);
        let streamed = lint.finish();
        let sorted = lint_schedule_reference(
            &Schedule::new(4, Latency::from_int(2), sends.to_vec()),
            &LintOptions::ports_only(),
        );
        assert_eq!(streamed, sorted);
    }

    #[test]
    fn a_send_into_an_already_sorted_bucket_is_finalized_in_order() {
        // The exact send at 1/5 makes the watermark merge both lanes,
        // which sorts the tick-1 bucket; p0 -> p5 then lands in it and
        // must still finalize after p0 -> p3 (P0001 lists the pair in
        // schedule order).
        let sends = [send(0, 3, 1, 1), send(1, 2, 1, 5), send(0, 5, 1, 1)];
        let mut lint = StreamingLint::new(6, Latency::from_int(2), LintOptions::ports_only());
        lint.observe_send(0, 3, Time::ONE);
        lint.observe_send(1, 2, Time::new(1, 5));
        lint.advance_watermark(Time::new(1, 2));
        assert_eq!(lint.pending_len(), 1);
        lint.observe_send(0, 5, Time::ONE);
        assert!(!lint.out_of_order());
        let reference = lint_schedule_reference(
            &Schedule::new(6, Latency::from_int(2), sends.to_vec()),
            &LintOptions::ports_only(),
        );
        assert_eq!(codes(&reference), vec![LintCode::OutputPortOverlap]);
        assert_eq!(lint.finish(), reference);
    }

    #[test]
    fn a_send_in_order_waits_behind_a_parked_send() {
        // p1 -> p2 is parked at tick 0; p0 -> p2 comes before it in
        // schedule order, so it must be parked too and finalize first
        // (P0002 lists the pair in schedule order).
        let sends = [send(0, 2, 0, 1), send(1, 2, 0, 1)];
        let mut lint = StreamingLint::new(3, Latency::from_int(2), LintOptions::ports_only());
        lint.observe_send(1, 2, Time::ZERO);
        lint.observe_in_order(&sends[0]);
        assert_eq!(lint.pending_len(), 2);
        let reference = lint_schedule_reference(
            &Schedule::new(3, Latency::from_int(2), sends.to_vec()),
            &LintOptions::ports_only(),
        );
        assert_eq!(codes(&reference), vec![LintCode::InputWindowOverlap]);
        assert_eq!(lint.finish(), reference);
        // With nothing parked, a send at the watermark is finalized at
        // once; one past it, or malformed, is not.
        let mut lint = StreamingLint::new(3, Latency::from_int(2), LintOptions::default());
        lint.observe_in_order(&sends[0]);
        assert_eq!(lint.pending_len(), 0);
        lint.observe_in_order(&send(2, 1, 1, 1));
        lint.observe_in_order(&send(1, 1, 0, 1));
        assert_eq!(lint.pending_len(), 1);
        assert_eq!(lint.index().malformed_observed(), 1);
    }

    #[test]
    fn memory_bytes_keeps_the_pending_lane_peak_after_a_drain() {
        let n = 1000;
        let mut lint = StreamingLint::new(n, Latency::from_int(2), LintOptions::default());
        let idle = lint.memory_bytes();
        for dst in 1..n {
            lint.observe_send(0, dst, Time::from_int(i128::from(dst)));
        }
        let peak = lint.memory_bytes();
        let pairs = (n as usize - 1) * size_of::<(u32, u32)>();
        assert!(peak >= idle + pairs, "{peak} < {idle} + {pairs}");
        lint.advance_watermark(Time::from_int(i128::from(n)));
        assert_eq!(lint.pending_len(), 0);
        assert_eq!(lint.pending_fast_bytes, 0);
        // The findings may grow it further; it never falls.
        assert!(lint.memory_bytes() >= peak);
    }

    #[test]
    fn exact_sends_counts_well_formed_starts_off_the_lattice() {
        // 1/3 is off the half-unit lattice of λ = 5/2 but on the sixths
        // λ = 7/3 ticks in; the malformed self-send at 1/3 is no
        // well-formed send and never counts.
        let sends = [send(0, 1, 0, 1), send(0, 2, 1, 3), send(1, 1, 1, 3)];
        for (lam, exact) in [(lam52(), 1), (Latency::from_ratio(7, 3), 0)] {
            let mut lint = StreamingLint::new(3, lam, LintOptions::default());
            for s in &sends {
                lint.advance_watermark(s.send_start);
                lint.observe_send(s.src, s.dst, s.send_start);
            }
            assert_eq!(lint.exact_sends(), exact, "λ={lam}");
            let reference = lint_schedule_reference(
                &Schedule::new(3, lam, sends.to_vec()),
                &LintOptions::default(),
            );
            assert_eq!(lint.finish(), reference, "λ={lam}");
        }
    }

    #[test]
    fn late_send_sets_the_out_of_order_flag() {
        let mut lint = StreamingLint::new(4, Latency::from_int(2), LintOptions::default());
        lint.observe_send(0, 1, Time::ZERO);
        lint.advance_watermark(Time::from_int(3));
        assert!(!lint.out_of_order());
        lint.observe_send(0, 2, Time::ONE); // starts below the watermark
        assert!(lint.out_of_order());
    }

    #[test]
    fn tick_entries_give_the_exact_entries_report() {
        // λ = 5/2 ticks in halves. Beside on-lattice sends: a self-send
        // and a negative start (malformed), a late send, and a start
        // and a watermark past TICK_LIMIT, which take the exact entries.
        let far = TICK_LIMIT + 1;
        let sends = [(0, 1, 0), (1, 1, 2), (0, 2, -2), (1, 3, 6), (2, 3, far)];
        let watermarks = [5, 3, far + 1];
        let mut by_ticks = StreamingLint::new(4, lam52(), LintOptions::default());
        let mut by_time = StreamingLint::new(4, lam52(), LintOptions::default());
        assert_eq!(by_ticks.tick_denominator(), 2);
        for (i, &(src, dst, k)) in sends.iter().enumerate() {
            by_ticks.observe_send_ticks(src, dst, k);
            by_time.observe_send(src, dst, Time::from_ticks(k, 2));
            if let Some(&w) = watermarks.get(i) {
                by_ticks.advance_watermark_ticks(w);
                by_time.advance_watermark(Time::from_ticks(w, 2));
            }
        }
        assert!(by_ticks.out_of_order());
        assert_eq!(by_ticks.exact_sends(), 1);
        assert_eq!(by_ticks.index().malformed_observed(), 2);
        assert_eq!(by_ticks.index().completion(), by_time.index().completion());
        assert_eq!(by_ticks.memory_bytes(), by_time.memory_bytes());
        assert_eq!(by_ticks.finish(), by_time.finish());
    }

    #[test]
    fn a_send_starting_at_the_watermark_is_not_late() {
        let mut lint = StreamingLint::new(3, Latency::from_int(2), LintOptions::default());
        lint.advance_watermark(Time::ZERO);
        lint.observe_send(0, 1, Time::ZERO);
        lint.advance_watermark(Time::ONE);
        lint.observe_send(0, 2, Time::ONE);
        assert!(!lint.out_of_order());
    }

    #[test]
    fn zero_event_stream_reports_coverage_errors_only() {
        let diags = StreamingLint::new(4, lam52(), LintOptions::default()).finish();
        assert_eq!(diags.len(), 3);
        assert!(diags
            .iter()
            .all(|d| d.code == LintCode::UninformedProcessor));
        let reference = lint_schedule_reference(
            &Schedule::new(4, lam52(), Vec::new()),
            &LintOptions::default(),
        );
        assert_eq!(diags, reference);
        // n = 1 with nothing to inform is clean.
        assert!(StreamingLint::new(1, lam52(), LintOptions::default())
            .finish()
            .is_empty());
    }

    #[test]
    fn index_tracks_completion_and_counts() {
        let mut lint = StreamingLint::new(3, lam52(), LintOptions::default());
        lint.observe_send(0, 1, Time::ZERO);
        lint.observe_send(1, 1, Time::ONE); // malformed self-send
        assert_eq!(lint.index().sends_observed(), 1);
        assert_eq!(lint.index().malformed_observed(), 1);
        // Completion counts malformed sends too, like
        // Schedule::completion: 1 + 5/2 = 7/2.
        assert_eq!(lint.index().completion(), Time::new(7, 2));
        assert!(lint.memory_bytes() > 0);
    }

    #[test]
    fn time_slots_mix_lattice_and_exact_values() {
        let mut slots = TimeSlots::new(2, 2);
        assert_eq!(slots.get(0), None);
        slots.set_min(0, Time::new(5, 2));
        assert_eq!(slots.get(0), Some(Time::new(5, 2)));
        // An off-lattice minimum migrates the slot to the side table...
        slots.set_min(0, Time::new(1, 3));
        assert_eq!(slots.get(0), Some(Time::new(1, 3)));
        // ...and later lattice values keep comparing exactly.
        slots.set_min(0, Time::new(1, 4));
        assert_eq!(slots.get(0), Some(Time::new(1, 4)));
        slots.set_min(0, Time::from_int(7));
        assert_eq!(slots.get(0), Some(Time::new(1, 4)));
        slots.put(1, Time::new(1, 3));
        slots.put(1, Time::from_int(2));
        assert_eq!(slots.get(1), Some(Time::from_int(2)));
    }
}
