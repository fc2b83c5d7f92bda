//! The discrete-event MPS(n, λ) engine.
//!
//! The engine executes event-driven [`Program`]s under the postal model's
//! three defining constraints (Definitions 1 and 2 of the paper):
//!
//! * **Full connectivity** — any processor may send to any other.
//! * **Simultaneous I/O** — each processor has one input port and one
//!   output port that operate independently; it may send one message and
//!   receive another at the same time, but never two sends (or two
//!   receives) concurrently.
//! * **Communication latency** — a send started at `t` occupies the
//!   sender's output port during `[t, t+1]` and the receiver's input port
//!   during `[t+λ−1, t+λ]`.
//!
//! Output ports serialize sends automatically: a program may issue several
//! sends from one callback, and they are transmitted back-to-back at one
//! unit each — this is precisely how the paper's algorithms "send M to a
//! new processor every unit of time".
//!
//! Input-port contention is where the model is strict: the paper's
//! algorithms are constructed so that *no two messages ever arrive at the
//! same processor in overlapping receive windows*. The engine offers two
//! treatments (see [`PortMode`]): `Strict` keeps model timing and records
//! every overlap as a [`Violation`] (the paper's algorithms must produce
//! zero), while `Queued` delays receives FIFO like a real NIC would —
//! useful for evaluating non-latency-aware schedules.

//! ## Two engines, one semantics
//!
//! [`Simulation::run`] is the production engine: a calendar/bucket
//! queue ([`crate::calendar`]), flat `u32` processor ids and 8-byte
//! integer times, sized for n = 10^6 runs. Each run ticks at the
//! latency model's [`LatencyModel::tick_denominator`] `D`, so every
//! event time and port-free time is an `i64` count of ticks of `1/D`,
//! and a [`Time`] is built only where a program reads
//! [`Context::now`], the stored trace keeps one, or an attached
//! recorder is handed an [`ObsEvent`]. Sends, and the receives of a run
//! that discards its trace, reach the recorder as ticks
//! ([`Recorder::record_send_ticks`], [`Recorder::record_recv_ticks`])
//! whenever their times lie on the lattice; the defaults of those
//! methods build the same events, so only a recorder that works on
//! ticks itself (the inline lint sink) skips the exact times.
//! [`Simulation::run_reference`] is the original seed engine —
//! exact rationals on a binary heap — kept verbatim as the behavioral
//! pin: `tests/engine_differential.rs` asserts the two produce
//! identical traces, violations, counters and observability streams
//! over the acceptance grid. A time off the lattice (a λ the model did
//! not declare, an off-lattice `wake_at`, a magnitude past
//! `TICK_LIMIT`) stays exact: the engine keeps it in a per-run table
//! and the queue routes its events through an exact-`Ratio` fallback
//! heap, so order stays reference-identical rather than approximately
//! right. [`RunReport::exact_pushes`] and [`RunReport::overflow_pushes`]
//! count the two slow paths.

use crate::calendar::{CalendarQueue, Lane, Stamp};
use crate::ids::{ProcId, SendSeq};
use crate::latency_model::LatencyModel;
use crate::program::{Context, Program};
use crate::trace::{Trace, Transfer};
use postal_model::latency::MAX_TICK_DENOMINATOR;
use postal_model::time::TICK_LIMIT;
use postal_model::{Time, Topology};
use postal_obs::{ObsEvent, Recorder};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// How the engine treats overlapping receive windows at one input port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortMode {
    /// Postal-model semantics: receives happen exactly at `send+λ−1` and
    /// any overlap is recorded as a [`Violation`]. The paper's algorithms
    /// are conflict-free, so a nonempty violation list indicates a broken
    /// schedule.
    #[default]
    Strict,
    /// Realistic semantics: an input port busy with one receive delays the
    /// next (FIFO by arrival, ties by send issue order), shifting all
    /// subsequent timing.
    Queued,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Input-port contention policy.
    pub port_mode: PortMode,
    /// Hard cap on processed events, to turn runaway programs into errors
    /// instead of hangs.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            port_mode: PortMode::Strict,
            max_events: 50_000_000,
        }
    }
}

/// A strict-mode input-port overlap: a message was ready at `arrival`
/// while the destination's port was still busy until `port_busy_until`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending transfer's sequence number.
    pub seq: SendSeq,
    /// Destination whose input port was double-booked.
    pub dst: ProcId,
    /// Model arrival time of the late message.
    pub arrival: Time,
    /// When the port would have become free.
    pub port_busy_until: Time,
}

/// A send across a pair that is not an edge of the restricting topology
/// (see [`Simulation::restrict_to`]). The message is still delivered —
/// the engine records the violation honestly instead of silently
/// dropping or rerouting it — so completion times are unchanged and the
/// report shows exactly which transfers a sparse network could not have
/// carried. The static counterpart is lint code `P0017`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeViolation {
    /// The offending transfer's sequence number.
    pub seq: SendSeq,
    /// Sender.
    pub src: ProcId,
    /// Receiver; `src`–`dst` is not an edge of the topology.
    pub dst: ProcId,
    /// When the send started.
    pub send_start: Time,
}

/// Per-processor activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct RunReport<P> {
    /// The paper's running time: when the last receive finished.
    pub completion: Time,
    /// Every transfer, in receive-completion order.
    pub trace: Trace<P>,
    /// Strict-mode receive overlaps (always empty in `Queued` mode).
    pub violations: Vec<Violation>,
    /// Sends across non-edges of the restricting topology (always empty
    /// without [`Simulation::restrict_to`]).
    pub edge_violations: Vec<EdgeViolation>,
    /// Per-processor send/receive counters.
    pub proc_stats: Vec<ProcStats>,
    /// Number of events processed.
    pub events: u64,
    /// Events the calendar queue pushed into its exact heap: times off
    /// the run's tick lattice, or past `TICK_LIMIT`. 0 for a run on its
    /// lattice, and always 0 for [`Simulation::run_reference`], which
    /// has no calendar.
    pub exact_pushes: u64,
    /// Events the calendar queue pushed into its overflow heap: ticks
    /// beyond its 512-tick window. 0 for [`Simulation::run_reference`].
    pub overflow_pushes: u64,
}

impl<P> RunReport<P> {
    /// Asserts that the run respected strict postal-model semantics.
    ///
    /// # Panics
    /// Panics (with the first violation) if any receive overlap occurred.
    pub fn assert_model_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "postal-model violation: {:?} (total {})",
            self.violations[0],
            self.violations.len()
        );
        assert!(
            self.edge_violations.is_empty(),
            "topology violation: {:?} (total {})",
            self.edge_violations[0],
            self.edge_violations.len()
        );
    }

    /// Total number of messages transferred.
    pub fn messages(&self) -> usize {
        self.trace.len()
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event cap was reached; the program set is likely divergent.
    EventLimitExceeded {
        /// The configured cap.
        limit: u64,
    },
    /// The number of programs supplied does not match `n`.
    WrongProgramCount {
        /// Expected processor count.
        expected: usize,
        /// Programs supplied.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventLimitExceeded { limit } => {
                write!(f, "event limit of {limit} exceeded; divergent program?")
            }
            SimError::WrongProgramCount { expected, got } => {
                write!(f, "expected {expected} programs, got {got}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A configured simulation of MPS(n, ·) over a latency model.
pub struct Simulation<'a> {
    n: usize,
    latency: &'a dyn LatencyModel,
    config: SimConfig,
    faults: crate::faults::FaultPlan,
    recorder: Option<&'a dyn Recorder>,
    discard_trace: bool,
    topology: Option<Topology>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation of `n` processors over the given latency model
    /// with default (strict) configuration.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize, latency: &'a dyn LatencyModel) -> Simulation<'a> {
        assert!(
            n >= 1,
            "a message-passing system needs at least 1 processor"
        );
        Simulation {
            n,
            latency,
            config: SimConfig::default(),
            faults: crate::faults::FaultPlan::none(),
            recorder: None,
            discard_trace: false,
            topology: None,
        }
    }

    /// Restricts communication to the edges of `topology`: every send
    /// across a non-adjacent pair is recorded as an [`EdgeViolation`] in
    /// [`RunReport::edge_violations`]. The message is still delivered —
    /// timing, traces and the observability stream are byte-identical to
    /// an unrestricted run — so the report separates "what happened"
    /// from "what a sparse network could have carried". On the complete
    /// graph this never fires.
    pub fn restrict_to(mut self, topology: &Topology) -> Simulation<'a> {
        self.topology = Some(*topology);
        self
    }

    /// Selects the input-port contention policy.
    pub fn port_mode(mut self, mode: PortMode) -> Simulation<'a> {
        self.config.port_mode = mode;
        self
    }

    /// Overrides the processed-event cap.
    pub fn max_events(mut self, max: u64) -> Simulation<'a> {
        self.config.max_events = max;
        self
    }

    /// Injects a deterministic fault schedule (message drops, crashes).
    pub fn faults(mut self, plan: crate::faults::FaultPlan) -> Simulation<'a> {
        self.faults = plan;
        self
    }

    /// Streams every engine event (sends, receives, violations, faults,
    /// wake-ups) into an observability recorder as the run executes.
    /// Sends and receives on the run's lattice come through the
    /// recorder's tick methods (see the [module docs](self)).
    pub fn observe(mut self, recorder: &'a dyn Recorder) -> Simulation<'a> {
        self.recorder = Some(recorder);
        self
    }

    /// Runs trace-free: transfers are *not* accumulated into
    /// [`RunReport::trace`], which comes back empty (and
    /// [`RunReport::messages`] reads zero). The completion time is kept
    /// as a running maximum instead, so [`RunReport::completion`] is
    /// unchanged. This is the O(n)-memory mode for n → 10⁶ runs whose
    /// analysis happens in-stream — pair it with an observing recorder
    /// (e.g. a streaming lint sink) to keep the full correctness story
    /// without the ~200 MB materialized trace.
    pub fn discard_trace(mut self) -> Simulation<'a> {
        self.discard_trace = true;
        self
    }

    /// Runs the given per-processor programs to quiescence on the fast
    /// calendar-queue engine.
    ///
    /// Event order, timing and the observability stream are pinned to
    /// [`Simulation::run_reference`] by `tests/engine_differential.rs`;
    /// the fast path differs only in mechanism (`i64` ticks of the
    /// model's lattice and an O(1) bucket queue instead of exact
    /// rationals on a binary heap). Event times off the lattice — a λ
    /// the model did not declare in
    /// [`LatencyModel::tick_denominator`], an off-lattice `wake_at`, or
    /// magnitudes beyond `postal_model::time::TICK_LIMIT` — take the
    /// queue's exact-`Ratio` fallback *per event*, so precision is never
    /// lost.
    ///
    /// # Errors
    /// Returns [`SimError`] if the program count mismatches `n` or the
    /// event cap is hit; the cap also records an
    /// [`ObsEvent::Truncated`] marker so the trace itself shows it was
    /// cut short rather than reading as a quietly finished run.
    pub fn run<P: Clone>(
        &self,
        mut programs: Vec<Box<dyn Program<P>>>,
    ) -> Result<RunReport<P>, SimError> {
        if programs.len() != self.n {
            return Err(SimError::WrongProgramCount {
                expected: self.n,
                got: programs.len(),
            });
        }
        let mut st = FastState::new(
            self.n,
            self.config,
            self.recorder,
            self.faults.clone(),
            self.latency,
            self.discard_trace,
        );
        st.topology = self.topology;
        for &(p, t) in &st.faults.crashes.clone() {
            st.emit(ObsEvent::Crash { proc: p.0, at: t });
        }

        // One context for the whole run: its outbox and wake buffers
        // are drained after every callback and keep their capacity.
        let mut ctx = EngineCtx {
            me: ProcId(0),
            n: self.n,
            now: Stamp::Tick(0),
            den: st.clock.den,
            outbox: Vec::new(),
            wakes: Vec::new(),
        };
        // Time 0: every processor's on_start, in index order.
        for (i, program) in programs.iter_mut().enumerate() {
            ctx.me = ProcId::from(i);
            program.on_start(&mut ctx);
            st.apply_ctx(&mut ctx, Tick(0), self.latency);
        }

        while let Some((stamp, _lane, kind)) = st.queue.pop() {
            let time = st.clock.of_stamp(stamp);
            st.events += 1;
            if st.events > self.config.max_events {
                st.emit(ObsEvent::Truncated {
                    processed: st.events,
                    limit: self.config.max_events,
                    at: st.clock.time(time),
                });
                return Err(SimError::EventLimitExceeded {
                    limit: self.config.max_events,
                });
            }
            match kind {
                FastKind::Arrival {
                    seq,
                    src,
                    dst,
                    send_start,
                    payload,
                } => st.process_arrival(time, seq, src, dst, send_start, payload),
                FastKind::Deliver {
                    seq,
                    src,
                    dst,
                    send_start,
                    arrival,
                    payload,
                } => {
                    if st.crashed(dst, time) {
                        st.emit(ObsEvent::Drop {
                            seq,
                            src,
                            dst,
                            at: st.clock.time(time),
                        });
                        continue;
                    }
                    st.proc_stats[dst as usize].recvs += 1;
                    // `time` is this receive's finish instant.
                    st.completion = st.clock.max(st.completion, time);
                    let recv_start = st.clock.recv_start(time);
                    if st.discard_trace {
                        if let Some(r) = st.recorder {
                            st.record_recv(r, seq, src, dst, arrival, recv_start);
                        }
                    } else {
                        let transfer = Transfer {
                            seq: SendSeq(seq),
                            src: ProcId(src),
                            dst: ProcId(dst),
                            send_start: st.clock.stored(send_start),
                            arrival: st.clock.stored(arrival),
                            recv_start: st.clock.stored(recv_start),
                            payload: payload.clone(),
                        };
                        if st.recorder.is_some() {
                            st.emit(ObsEvent::Recv {
                                seq,
                                src,
                                dst,
                                arrival: transfer.arrival,
                                start: transfer.recv_start,
                                finish: transfer.recv_finish(),
                                queued: transfer.was_queued(),
                            });
                        }
                        st.trace.push(transfer);
                    }
                    ctx.me = ProcId(dst);
                    ctx.now = st.clock.stamp(time);
                    programs[dst as usize].on_receive(&mut ctx, ProcId(src), payload);
                    st.apply_ctx(&mut ctx, time, self.latency);
                }
                FastKind::Wake(p) => {
                    if st.crashed(p, time) {
                        continue;
                    }
                    if st.recorder.is_some() {
                        st.emit(ObsEvent::Wake {
                            proc: p,
                            at: st.clock.time(time),
                        });
                    }
                    ctx.me = ProcId(p);
                    ctx.now = st.clock.stamp(time);
                    programs[p as usize].on_wake(&mut ctx);
                    st.apply_ctx(&mut ctx, time, self.latency);
                }
            }
        }

        Ok(RunReport {
            completion: st.clock.time(st.completion),
            trace: st.trace,
            violations: st.violations,
            edge_violations: st.edge_violations,
            proc_stats: st.proc_stats,
            events: st.events,
            exact_pushes: st.queue.exact_pushes(),
            overflow_pushes: st.queue.overflow_pushes(),
        })
    }

    /// Runs the programs on the seed engine — exact rationals on a
    /// binary heap — kept verbatim as the behavioral reference the fast
    /// engine is differentially tested against. Use it when auditing
    /// the fast path or reproducing pre-rewrite results; it is
    /// semantically identical and only slower.
    ///
    /// # Errors
    /// Returns [`SimError`] if the program count mismatches `n` or the
    /// event cap is hit (also recorded as [`ObsEvent::Truncated`]).
    pub fn run_reference<P: Clone>(
        &self,
        mut programs: Vec<Box<dyn Program<P>>>,
    ) -> Result<RunReport<P>, SimError> {
        if programs.len() != self.n {
            return Err(SimError::WrongProgramCount {
                expected: self.n,
                got: programs.len(),
            });
        }
        let mut engine = EngineState::new(self.n, self.config, self.recorder);
        engine.faults = self.faults.clone();
        engine.discard_trace = self.discard_trace;
        engine.topology = self.topology;
        for &(p, t) in &engine.faults.crashes.clone() {
            engine.emit(ObsEvent::Crash { proc: p.0, at: t });
        }

        // Time 0: every processor's on_start, in index order.
        for (i, program) in programs.iter_mut().enumerate() {
            let mut ctx = EngineCtx {
                me: ProcId::from(i),
                n: self.n,
                now: Stamp::Exact(Time::ZERO),
                den: 1,
                outbox: Vec::new(),
                wakes: Vec::new(),
            };
            program.on_start(&mut ctx);
            engine.apply_ctx(ctx, Time::ZERO, self.latency);
        }

        while let Some(Reverse(entry)) = engine.queue.pop() {
            engine.events += 1;
            if engine.events > self.config.max_events {
                engine.emit(ObsEvent::Truncated {
                    processed: engine.events,
                    limit: self.config.max_events,
                    at: entry.time,
                });
                return Err(SimError::EventLimitExceeded {
                    limit: self.config.max_events,
                });
            }
            match entry.kind {
                EventKind::Arrival(a) => engine.process_arrival(entry.time, a),
                EventKind::Deliver(d) => {
                    let dst = d.transfer.dst;
                    if engine.faults.crashed(dst, entry.time) {
                        engine.emit(ObsEvent::Drop {
                            seq: d.transfer.seq.0,
                            src: d.transfer.src.0,
                            dst: dst.0,
                            at: entry.time,
                        });
                        continue;
                    }
                    let from = d.transfer.src;
                    let payload = d.transfer.payload.clone();
                    engine.proc_stats[dst.index()].recvs += 1;
                    engine.emit(ObsEvent::Recv {
                        seq: d.transfer.seq.0,
                        src: from.0,
                        dst: dst.0,
                        arrival: d.transfer.arrival,
                        start: d.transfer.recv_start,
                        // `entry.time` is this receive's finish instant.
                        finish: entry.time,
                        queued: d.transfer.was_queued(),
                    });
                    if engine.discard_trace {
                        engine.completion = engine.completion.max(entry.time);
                    } else {
                        engine.trace.push(d.transfer);
                    }
                    let mut ctx = EngineCtx {
                        me: dst,
                        n: self.n,
                        now: Stamp::Exact(entry.time),
                        den: 1,
                        outbox: Vec::new(),
                        wakes: Vec::new(),
                    };
                    programs[dst.index()].on_receive(&mut ctx, from, payload);
                    engine.apply_ctx(ctx, entry.time, self.latency);
                }
                EventKind::Wake(p) => {
                    if engine.faults.crashed(p, entry.time) {
                        continue;
                    }
                    engine.emit(ObsEvent::Wake {
                        proc: p.0,
                        at: entry.time,
                    });
                    let mut ctx = EngineCtx {
                        me: p,
                        n: self.n,
                        now: Stamp::Exact(entry.time),
                        den: 1,
                        outbox: Vec::new(),
                        wakes: Vec::new(),
                    };
                    programs[p.index()].on_wake(&mut ctx);
                    engine.apply_ctx(ctx, entry.time, self.latency);
                }
            }
        }

        Ok(RunReport {
            completion: if self.discard_trace {
                engine.completion
            } else {
                engine.trace.completion_time()
            },
            trace: engine.trace,
            violations: engine.violations,
            edge_violations: engine.edge_violations,
            proc_stats: engine.proc_stats,
            events: engine.events,
            exact_pushes: 0,
            overflow_pushes: 0,
        })
    }
}

/// A pending arrival: the message is fully in flight; timing of the
/// receive is decided when the arrival fires (it depends on the input
/// port's state at that moment).
struct ArrivalEvent<P> {
    seq: SendSeq,
    src: ProcId,
    dst: ProcId,
    send_start: Time,
    payload: P,
}

/// A receive completing; carries the fully-timed transfer record.
struct DeliverEvent<P> {
    transfer: Transfer<P>,
}

enum EventKind<P> {
    Arrival(ArrivalEvent<P>),
    Deliver(DeliverEvent<P>),
    Wake(ProcId),
}

struct HeapEntry<P> {
    time: Time,
    counter: u64,
    kind: EventKind<P>,
}

impl<P> HeapEntry<P> {
    /// Same-instant ordering: port bookings (arrivals) first, then
    /// completed receives, then timer wake-ups — so a message whose
    /// receive finishes at `t` is already delivered when a wake-up
    /// scheduled for `t` fires.
    fn kind_rank(&self) -> u8 {
        match self.kind {
            EventKind::Arrival(_) => 0,
            EventKind::Deliver(_) => 1,
            EventKind::Wake(_) => 2,
        }
    }
}

impl<P> PartialEq for HeapEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.counter == other.counter
    }
}
impl<P> Eq for HeapEntry<P> {}
impl<P> PartialOrd for HeapEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for HeapEntry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.kind_rank(), self.counter).cmp(&(
            other.time,
            other.kind_rank(),
            other.counter,
        ))
    }
}

struct EngineState<'r, P> {
    config: SimConfig,
    recorder: Option<&'r dyn Recorder>,
    faults: crate::faults::FaultPlan,
    queue: BinaryHeap<Reverse<HeapEntry<P>>>,
    /// When each processor's output port becomes free.
    out_free: Vec<Time>,
    /// When each processor's input port becomes free.
    in_free: Vec<Time>,
    trace: Trace<P>,
    /// Running max receive-finish, maintained instead of `trace` when
    /// the run discards it.
    completion: Time,
    discard_trace: bool,
    violations: Vec<Violation>,
    topology: Option<Topology>,
    edge_violations: Vec<EdgeViolation>,
    proc_stats: Vec<ProcStats>,
    next_seq: u64,
    next_counter: u64,
    events: u64,
}

impl<'r, P: Clone> EngineState<'r, P> {
    fn new(n: usize, config: SimConfig, recorder: Option<&'r dyn Recorder>) -> EngineState<'r, P> {
        EngineState {
            config,
            recorder,
            faults: crate::faults::FaultPlan::none(),
            queue: BinaryHeap::new(),
            out_free: vec![Time::ZERO; n],
            in_free: vec![Time::ZERO; n],
            trace: Trace::new(),
            completion: Time::ZERO,
            discard_trace: false,
            violations: Vec::new(),
            topology: None,
            edge_violations: Vec::new(),
            proc_stats: vec![ProcStats::default(); n],
            next_seq: 0,
            next_counter: 0,
            events: 0,
        }
    }

    fn emit(&self, event: ObsEvent) {
        if let Some(r) = self.recorder {
            r.record(event);
        }
    }

    fn push(&mut self, time: Time, kind: EventKind<P>) {
        let counter = self.next_counter;
        self.next_counter += 1;
        self.queue.push(Reverse(HeapEntry {
            time,
            counter,
            kind,
        }));
    }

    /// Serializes a batch of sends through `src`'s output port, starting
    /// no earlier than `now`.
    fn issue_sends(
        &mut self,
        src: ProcId,
        now: Time,
        outbox: Vec<(ProcId, P)>,
        latency: &dyn LatencyModel,
    ) {
        for (dst, payload) in outbox {
            let send_start = now.max(self.out_free[src.index()]);
            self.out_free[src.index()] = send_start + Time::ONE;
            self.proc_stats[src.index()].sends += 1;
            let seq = SendSeq(self.next_seq);
            self.next_seq += 1;
            if let Some(t) = &self.topology {
                if !t.is_edge(src.0, dst.0) {
                    self.edge_violations.push(EdgeViolation {
                        seq,
                        src,
                        dst,
                        send_start,
                    });
                }
            }
            let lam = latency.latency(src, dst, send_start);
            let arrival = send_start + lam.as_time() - Time::ONE;
            self.emit(ObsEvent::Send {
                seq: seq.0,
                src: src.0,
                dst: dst.0,
                start: send_start,
                finish: send_start + Time::ONE,
            });
            self.push(
                arrival,
                EventKind::Arrival(ArrivalEvent {
                    seq,
                    src,
                    dst,
                    send_start,
                    payload,
                }),
            );
        }
    }

    /// Applies everything a program requested during one callback at
    /// `now`: the outbox (serialized through the output port) and any
    /// wake-ups.
    fn apply_ctx(&mut self, ctx: EngineCtx<P>, now: Time, latency: &dyn LatencyModel) {
        let EngineCtx {
            me, outbox, wakes, ..
        } = ctx;
        self.issue_sends(me, now, outbox, latency);
        for t in wakes {
            self.push(t, EventKind::Wake(me));
        }
    }

    fn process_arrival(&mut self, arrival: Time, a: ArrivalEvent<P>) {
        if self.faults.drops(a.seq.0) || self.faults.crashed(a.dst, arrival) {
            // Lost in flight, or nobody home to receive it.
            self.emit(ObsEvent::Drop {
                seq: a.seq.0,
                src: a.src.0,
                dst: a.dst.0,
                at: arrival,
            });
            return;
        }
        let port_free = self.in_free[a.dst.index()];
        let recv_start = match self.config.port_mode {
            PortMode::Strict => {
                if port_free > arrival {
                    self.emit(ObsEvent::Violation {
                        seq: a.seq.0,
                        dst: a.dst.0,
                        arrival,
                        busy_until: port_free,
                    });
                    self.violations.push(Violation {
                        seq: a.seq,
                        dst: a.dst,
                        arrival,
                        port_busy_until: port_free,
                    });
                }
                arrival
            }
            PortMode::Queued => arrival.max(port_free),
        };
        let recv_finish = recv_start + Time::ONE;
        let slot = &mut self.in_free[a.dst.index()];
        *slot = (*slot).max(recv_finish);
        self.push(
            recv_finish,
            EventKind::Deliver(DeliverEvent {
                transfer: Transfer {
                    seq: a.seq,
                    src: a.src,
                    dst: a.dst,
                    send_start: a.send_start,
                    arrival,
                    recv_start,
                    payload: a.payload,
                },
            }),
        );
    }
}

/// The fast engine's time, 8 bytes. A non-negative value counts ticks
/// of `1/den` on the run's lattice ([`Clock::den`]); a negative value
/// `!i` names entry `i` of the run's exact table, a time with no tick
/// form. Engine times are never negative, so the sign is free to serve
/// as the tag. The form is canonical — a time with a tick form never
/// enters the table, and the table holds each value once — so equal
/// times are equal `Tick`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tick(i64);

/// A run's lattice and the exact table behind off-lattice [`Tick`]s.
struct Clock {
    /// Ticks per time unit.
    den: i64,
    /// Exact times with no tick form, each once.
    exact: Vec<Time>,
    /// Where each value of `exact` sits.
    index: HashMap<Time, usize>,
    /// The [`Time`]s of the instants a stored trace recently named:
    /// slot `k % MEMO_SLOTS` holds tick `k` and its time. Empty when
    /// the run discards its trace.
    memo: Vec<(i64, Time)>,
}

/// Slots of [`Clock::memo`], as many as the calendar queue's window has
/// ticks. A transfer's three stored times lie within λ plus any
/// queueing delay of its receive's finish, and a run visits few
/// instants (PIPELINE at n = 2001, m = 8, λ = 7/3 ends at tick 340), so
/// the memo rarely misses.
const MEMO_SLOTS: usize = 512;

impl Clock {
    /// A clock ticking at `den`, with the memo [`Clock::stored`] reads
    /// when `memo`.
    fn new(den: i64, memo: bool) -> Clock {
        Clock {
            den,
            exact: Vec::new(),
            index: HashMap::new(),
            memo: if memo {
                // Tag -1 is no tick: engine ticks are never negative.
                vec![(-1, Time::ZERO); MEMO_SLOTS]
            } else {
                Vec::new()
            },
        }
    }

    /// The canonical tick of `t`.
    fn tick(&mut self, t: Time) -> Tick {
        match t.to_ticks(self.den) {
            Some(k) if k >= 0 => Tick(k),
            _ => self.intern(t),
        }
    }

    /// The exact-table tick of `t`, which must have no tick form.
    fn intern(&mut self, t: Time) -> Tick {
        let i = *self.index.entry(t).or_insert_with(|| {
            self.exact.push(t);
            self.exact.len() - 1
        });
        Tick(!(i as i64))
    }

    fn time(&self, t: Tick) -> Time {
        if t.0 < 0 {
            self.exact[!t.0 as usize]
        } else {
            Time::from_ticks(t.0, self.den)
        }
    }

    /// [`Clock::time`] of `t` for the stored trace: each tick's time is
    /// built (with a gcd) once while it stays in the memo.
    fn stored(&mut self, t: Tick) -> Time {
        if t.0 < 0 {
            return self.exact[!t.0 as usize];
        }
        let slot = &mut self.memo[t.0 as usize % MEMO_SLOTS];
        if slot.0 != t.0 {
            *slot = (t.0, Time::from_ticks(t.0, self.den));
        }
        slot.1
    }

    /// `t` as a queue stamp.
    fn stamp(&self, t: Tick) -> Stamp {
        if t.0 >= 0 {
            Stamp::Tick(t.0)
        } else {
            Stamp::Exact(self.exact[!t.0 as usize])
        }
    }

    /// The tick of a stamp the queue popped. The engine only pushes
    /// ticks of its own lattice, so a `Tick` stamp is one already.
    fn of_stamp(&mut self, s: Stamp) -> Tick {
        match s {
            Stamp::Tick(k) => Tick(k),
            Stamp::Exact(t) => self.intern(t),
        }
    }

    /// The start of the receive that finishes at `finish`, one unit
    /// earlier. A receive's start is an instant the engine has already
    /// named, so an off-lattice start is found in the table, not added.
    fn recv_start(&mut self, finish: Tick) -> Tick {
        if finish.0 >= 0 {
            // A start one unit before a lattice tick is on the lattice.
            Tick(finish.0 - self.den)
        } else {
            self.tick(self.time(finish) - Time::ONE)
        }
    }

    /// `t` plus `k ≥ 0` ticks.
    fn add(&mut self, t: Tick, k: i64) -> Tick {
        // Both are at most TICK_LIMIT = i64::MAX/4: the sum cannot
        // overflow.
        if t.0 >= 0 && t.0 + k <= TICK_LIMIT {
            Tick(t.0 + k)
        } else {
            let sum = self.time(t) + Time::from_ticks(k, self.den);
            self.tick(sum)
        }
    }

    fn cmp(&self, a: Tick, b: Tick) -> Ordering {
        if a.0 >= 0 && b.0 >= 0 {
            a.0.cmp(&b.0)
        } else {
            self.time(a).cmp(&self.time(b))
        }
    }

    fn max(&self, a: Tick, b: Tick) -> Tick {
        if self.cmp(a, b) == Ordering::Less {
            b
        } else {
            a
        }
    }
}

/// A fast-engine event. Processor ids are flat `u32`s and times are
/// 8-byte [`Tick`]s; exact [`Time`] rationals are only materialized at
/// the edges (program callbacks, the trace, the observability stream).
/// The enum is stored by value in the calendar queue's bucket deques —
/// the recycled bucket storage is the event arena, with no per-event
/// box.
enum FastKind<P> {
    /// A message arrival: receive timing is decided when it fires.
    Arrival {
        seq: u64,
        src: u32,
        dst: u32,
        send_start: Tick,
        payload: P,
    },
    /// A receive completing at the event's time; it started one unit
    /// earlier ([`Clock::recv_start`]).
    Deliver {
        seq: u64,
        src: u32,
        dst: u32,
        send_start: Tick,
        arrival: Tick,
        payload: P,
    },
    /// A timer callback firing on the given processor.
    Wake(u32),
}

/// Mutable state of the fast engine; the counterpart of the reference
/// engine's `EngineState`, with integer port accounting.
struct FastState<'r, P> {
    config: SimConfig,
    recorder: Option<&'r dyn Recorder>,
    faults: crate::faults::FaultPlan,
    /// Fault-plan fast guards: skip the hash/scan lookups entirely on
    /// the (overwhelmingly common) fault-free runs.
    has_drops: bool,
    has_crashes: bool,
    clock: Clock,
    /// `λ − 1` in ticks, when the model's λ is the same for every send
    /// ([`LatencyModel::uniform_latency`]) and on the lattice.
    uniform_flight: Option<i64>,
    queue: CalendarQueue<FastKind<P>>,
    /// When each processor's output port becomes free.
    out_free: Vec<Tick>,
    /// When each processor's input port becomes free.
    in_free: Vec<Tick>,
    trace: Trace<P>,
    /// Running max receive-finish: the run's completion, stored trace
    /// or not.
    completion: Tick,
    discard_trace: bool,
    violations: Vec<Violation>,
    topology: Option<Topology>,
    edge_violations: Vec<EdgeViolation>,
    proc_stats: Vec<ProcStats>,
    next_seq: u64,
    events: u64,
}

impl<'r, P: Clone> FastState<'r, P> {
    fn new(
        n: usize,
        config: SimConfig,
        recorder: Option<&'r dyn Recorder>,
        faults: crate::faults::FaultPlan,
        latency: &dyn LatencyModel,
        discard_trace: bool,
    ) -> FastState<'r, P> {
        let den = latency.tick_denominator();
        let den = if (1..=MAX_TICK_DENOMINATOR).contains(&den) {
            den
        } else {
            2
        };
        let uniform_flight = latency
            .uniform_latency()
            .and_then(|l| Some(l.as_time().to_ticks(den)? - den));
        FastState {
            config,
            recorder,
            has_drops: !faults.drop_sends.is_empty(),
            has_crashes: !faults.crashes.is_empty(),
            faults,
            clock: Clock::new(den, !discard_trace),
            uniform_flight,
            queue: CalendarQueue::new(den),
            out_free: vec![Tick(0); n],
            in_free: vec![Tick(0); n],
            trace: Trace::new(),
            completion: Tick(0),
            discard_trace,
            violations: Vec::new(),
            topology: None,
            edge_violations: Vec::new(),
            proc_stats: vec![ProcStats::default(); n],
            next_seq: 0,
            events: 0,
        }
    }

    fn emit(&self, event: ObsEvent) {
        if let Some(r) = self.recorder {
            r.record(event);
        }
    }

    /// Records a receive of a run that discards its trace: as ticks
    /// when its arrival and start are on the lattice, so no [`Time`] is
    /// built for it, and as an exact [`ObsEvent::Recv`] otherwise.
    fn record_recv(
        &self,
        r: &dyn Recorder,
        seq: u64,
        src: u32,
        dst: u32,
        arrival: Tick,
        recv_start: Tick,
    ) {
        if arrival.0 >= 0 && recv_start.0 >= 0 {
            r.record_recv_ticks(seq, src, dst, arrival.0, recv_start.0, self.clock.den);
        } else {
            let (at, start) = (self.clock.time(arrival), self.clock.time(recv_start));
            r.record(ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival: at,
                start,
                finish: start + Time::ONE,
                queued: start > at,
            });
        }
    }

    fn crashed(&self, proc: u32, t: Tick) -> bool {
        self.has_crashes && self.faults.crashed(ProcId(proc), self.clock.time(t))
    }

    /// When a message sent at `send_start` arrives: `send_start + λ − 1`.
    fn arrival(
        &mut self,
        src: ProcId,
        dst: ProcId,
        send_start: Tick,
        latency: &dyn LatencyModel,
    ) -> Tick {
        if let Some(k) = self.uniform_flight {
            return self.clock.add(send_start, k);
        }
        let lam = latency.latency(src, dst, self.clock.time(send_start));
        match lam.as_time().to_ticks(self.clock.den) {
            Some(l) => self.clock.add(send_start, l - self.clock.den),
            None => {
                let t = self.clock.time(send_start) + lam.as_time() - Time::ONE;
                self.clock.tick(t)
            }
        }
    }

    /// Serializes a batch of sends through `src`'s output port, starting
    /// no earlier than `now`. Mirrors the reference `issue_sends`
    /// operation for operation (counter assignment included) so event
    /// order is bit-identical.
    fn issue_sends(
        &mut self,
        src: ProcId,
        now: Tick,
        outbox: &mut Vec<(ProcId, P)>,
        latency: &dyn LatencyModel,
    ) {
        for (dst, payload) in outbox.drain(..) {
            let send_start = self.clock.max(now, self.out_free[src.index()]);
            let send_finish = self.clock.add(send_start, self.clock.den);
            self.out_free[src.index()] = send_finish;
            self.proc_stats[src.index()].sends += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(t) = &self.topology {
                if !t.is_edge(src.0, dst.0) {
                    self.edge_violations.push(EdgeViolation {
                        seq: SendSeq(seq),
                        src,
                        dst,
                        send_start: self.clock.time(send_start),
                    });
                }
            }
            let arrival = self.arrival(src, dst, send_start, latency);
            if let Some(r) = self.recorder {
                if send_start.0 >= 0 {
                    r.record_send_ticks(seq, src.0, dst.0, send_start.0, self.clock.den);
                } else {
                    let start = self.clock.time(send_start);
                    r.record(ObsEvent::Send {
                        seq,
                        src: src.0,
                        dst: dst.0,
                        start,
                        finish: start + Time::ONE,
                    });
                }
            }
            self.queue.push(
                self.clock.stamp(arrival),
                Lane::Arrival,
                FastKind::Arrival {
                    seq,
                    src: src.0,
                    dst: dst.0,
                    send_start,
                    payload,
                },
            );
        }
    }

    /// Applies everything a program requested during one callback at
    /// `now`, leaving the context's buffers empty for the next one.
    fn apply_ctx(&mut self, ctx: &mut EngineCtx<P>, now: Tick, latency: &dyn LatencyModel) {
        let me = ctx.me;
        self.issue_sends(me, now, &mut ctx.outbox, latency);
        for t in ctx.wakes.drain(..) {
            let wake = self.clock.tick(t);
            self.queue
                .push(self.clock.stamp(wake), Lane::Wake, FastKind::Wake(me.0));
        }
    }

    fn process_arrival(
        &mut self,
        arrival: Tick,
        seq: u64,
        src: u32,
        dst: u32,
        send_start: Tick,
        payload: P,
    ) {
        if (self.has_drops && self.faults.drops(seq)) || self.crashed(dst, arrival) {
            // Lost in flight, or nobody home to receive it.
            self.emit(ObsEvent::Drop {
                seq,
                src,
                dst,
                at: self.clock.time(arrival),
            });
            return;
        }
        let port_free = self.in_free[dst as usize];
        let recv_start = match self.config.port_mode {
            PortMode::Strict => {
                if self.clock.cmp(port_free, arrival) == Ordering::Greater {
                    let at = self.clock.time(arrival);
                    let busy_until = self.clock.time(port_free);
                    self.emit(ObsEvent::Violation {
                        seq,
                        dst,
                        arrival: at,
                        busy_until,
                    });
                    self.violations.push(Violation {
                        seq: SendSeq(seq),
                        dst: ProcId(dst),
                        arrival: at,
                        port_busy_until: busy_until,
                    });
                }
                arrival
            }
            PortMode::Queued => self.clock.max(arrival, port_free),
        };
        let recv_finish = self.clock.add(recv_start, self.clock.den);
        self.in_free[dst as usize] = self.clock.max(port_free, recv_finish);
        self.queue.push(
            self.clock.stamp(recv_finish),
            Lane::Deliver,
            FastKind::Deliver {
                seq,
                src,
                dst,
                send_start,
                arrival,
                payload,
            },
        );
    }
}

/// The context implementation handed to programs by the engines.
struct EngineCtx<P> {
    me: ProcId,
    n: usize,
    /// The callback's instant: ticks of `1/den` in the fast engine,
    /// built into a [`Time`] only if the program reads
    /// [`Context::now`]; always `Exact` in the reference engine.
    now: Stamp,
    den: i64,
    outbox: Vec<(ProcId, P)>,
    wakes: Vec<Time>,
}

impl<P> Context<P> for EngineCtx<P> {
    fn me(&self) -> ProcId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn now(&self) -> Time {
        self.now.to_time(self.den)
    }

    fn send(&mut self, dst: ProcId, payload: P) {
        assert!(
            dst.index() < self.n,
            "send to {dst:?} out of range (n = {})",
            self.n
        );
        assert!(dst != self.me, "the postal model has no self-sends");
        self.outbox.push((dst, payload));
    }

    fn wake_at(&mut self, t: Time) {
        let now = self.now();
        self.wakes.push(t.max(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency_model::Uniform;
    use crate::program::{Idle, Program};
    use postal_model::Latency;

    /// Root sends one message to each listed destination at start.
    struct Spray(Vec<u32>);

    impl Program<u8> for Spray {
        fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
            for &d in &self.0 {
                ctx.send(ProcId(d), 0);
            }
        }
        fn on_receive(&mut self, _ctx: &mut dyn Context<u8>, _from: ProcId, _p: u8) {}
    }

    /// Forwards every received message to a fixed successor (a relay).
    struct Relay(Option<u32>);

    impl Program<u8> for Relay {
        fn on_receive(&mut self, ctx: &mut dyn Context<u8>, _from: ProcId, p: u8) {
            if let Some(next) = self.0 {
                ctx.send(ProcId(next), p);
            }
        }
    }

    fn spray_programs(n: usize, dests: Vec<u32>) -> Vec<Box<dyn Program<u8>>> {
        let mut v: Vec<Box<dyn Program<u8>>> = Vec::new();
        v.push(Box::new(Spray(dests)));
        for _ in 1..n {
            v.push(Box::new(Idle));
        }
        v
    }

    #[test]
    fn single_send_timing() {
        let lam = Uniform(Latency::from_ratio(5, 2));
        let report = Simulation::new(2, &lam)
            .run(spray_programs(2, vec![1]))
            .unwrap();
        report.assert_model_clean();
        assert_eq!(report.messages(), 1);
        let t = &report.trace.transfers()[0];
        assert_eq!(t.send_start, Time::ZERO);
        assert_eq!(t.send_finish(), Time::ONE);
        assert_eq!(t.arrival, Time::new(3, 2)); // λ − 1
        assert_eq!(t.recv_start, Time::new(3, 2));
        assert_eq!(t.recv_finish(), Time::new(5, 2)); // λ
        assert_eq!(report.completion, Time::new(5, 2));
    }

    #[test]
    fn output_port_serializes_sends() {
        // Three sends issued in one callback go out at t = 0, 1, 2 and
        // complete at λ, λ+1, λ+2.
        let lam = Uniform(Latency::from_int(3));
        let report = Simulation::new(4, &lam)
            .run(spray_programs(4, vec![1, 2, 3]))
            .unwrap();
        report.assert_model_clean();
        let sends: Vec<Time> = report
            .trace
            .sent_by(ProcId(0))
            .iter()
            .map(|t| t.send_start)
            .collect();
        assert_eq!(sends, vec![Time::ZERO, Time::ONE, Time::from_int(2)]);
        assert_eq!(report.completion, Time::from_int(5)); // 2 + λ
    }

    #[test]
    fn restrict_to_records_non_edge_sends_without_changing_timing() {
        // On ring:4, p0's send to p2 crosses a chord; p0 → p1 is fine.
        // Both messages are still delivered, so the trace and completion
        // match the unrestricted run exactly.
        let topo: Topology = "ring"
            .parse::<postal_model::TopologySpec>()
            .unwrap()
            .instantiate(4)
            .unwrap();
        let lam = Uniform(Latency::from_int(2));
        let free = Simulation::new(4, &lam)
            .run(spray_programs(4, vec![1, 2]))
            .unwrap();
        let restricted = Simulation::new(4, &lam)
            .restrict_to(&topo)
            .run(spray_programs(4, vec![1, 2]))
            .unwrap();
        assert_eq!(restricted.completion, free.completion);
        assert_eq!(
            restricted.trace.transfers().len(),
            free.trace.transfers().len()
        );
        assert_eq!(restricted.edge_violations.len(), 1);
        let v = &restricted.edge_violations[0];
        assert_eq!((v.src, v.dst), (ProcId(0), ProcId(2)));
        assert_eq!(v.send_start, Time::ONE);
        assert!(free.edge_violations.is_empty());

        // Both engines agree.
        let reference = Simulation::new(4, &lam)
            .restrict_to(&topo)
            .run_reference(spray_programs(4, vec![1, 2]))
            .unwrap();
        assert_eq!(reference.edge_violations, restricted.edge_violations);
    }

    #[test]
    fn restrict_to_complete_never_fires() {
        let topo = Topology::complete(4);
        let lam = Uniform(Latency::from_int(2));
        let report = Simulation::new(4, &lam)
            .restrict_to(&topo)
            .run(spray_programs(4, vec![1, 2, 3]))
            .unwrap();
        report.assert_model_clean();
        assert!(report.edge_violations.is_empty());
    }

    #[test]
    fn strict_mode_flags_receive_overlap() {
        // Two different senders both target p2 at t = 0: arrivals overlap.
        let lam = Uniform(Latency::from_int(2));
        let programs: Vec<Box<dyn Program<u8>>> = vec![
            Box::new(Spray(vec![2])),
            Box::new(Spray(vec![2])),
            Box::new(Idle),
        ];
        let report = Simulation::new(3, &lam).run(programs).unwrap();
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].dst, ProcId(2));
        // Strict mode keeps model timing: completion is still λ.
        assert_eq!(report.completion, Time::from_int(2));
    }

    #[test]
    fn queued_mode_delays_conflicting_receive() {
        let lam = Uniform(Latency::from_int(2));
        let programs: Vec<Box<dyn Program<u8>>> = vec![
            Box::new(Spray(vec![2])),
            Box::new(Spray(vec![2])),
            Box::new(Idle),
        ];
        let report = Simulation::new(3, &lam)
            .port_mode(PortMode::Queued)
            .run(programs)
            .unwrap();
        assert!(report.violations.is_empty());
        // First receive occupies [1, 2]; the second is pushed to [2, 3].
        assert_eq!(report.completion, Time::from_int(3));
        assert_eq!(
            report
                .trace
                .transfers()
                .iter()
                .filter(|t| t.was_queued())
                .count(),
            1
        );
    }

    #[test]
    fn relay_chain_accumulates_latency() {
        // p0 → p1 → p2 with λ = 5/2: completion = 2λ.
        let lam = Uniform(Latency::from_ratio(5, 2));
        let programs: Vec<Box<dyn Program<u8>>> = vec![
            Box::new(Spray(vec![1])),
            Box::new(Relay(Some(2))),
            Box::new(Relay(None)),
        ];
        let report = Simulation::new(3, &lam).run(programs).unwrap();
        report.assert_model_clean();
        assert_eq!(report.completion, Time::from_int(5));
        assert_eq!(report.messages(), 2);
    }

    #[test]
    fn discard_trace_keeps_completion_on_both_engines() {
        // p0 → p1 → p2 with λ = 5/2: completion = 2λ, trace-free.
        let lam = Uniform(Latency::from_ratio(5, 2));
        let programs = || -> Vec<Box<dyn Program<u8>>> {
            vec![
                Box::new(Spray(vec![1])),
                Box::new(Relay(Some(2))),
                Box::new(Relay(None)),
            ]
        };
        let fast = Simulation::new(3, &lam)
            .discard_trace()
            .run(programs())
            .unwrap();
        let reference = Simulation::new(3, &lam)
            .discard_trace()
            .run_reference(programs())
            .unwrap();
        for report in [&fast, &reference] {
            assert_eq!(report.completion, Time::from_int(5));
            assert_eq!(report.messages(), 0, "trace must stay empty");
            assert_eq!(report.proc_stats[2].recvs, 1);
        }
        // The discarded-trace run still streams its full event story.
        let rec = postal_obs::MemoryRecorder::new();
        let observed = Simulation::new(3, &lam)
            .discard_trace()
            .observe(&rec)
            .run(programs())
            .unwrap();
        let log =
            rec.into_log(postal_obs::RunMeta::new("event", 3).latency(Latency::from_ratio(5, 2)));
        assert_eq!(log.deliveries(), 2);
        assert_eq!(log.completion_time(), observed.completion);
    }

    #[test]
    fn proc_stats_count_traffic() {
        let lam = Uniform(Latency::from_int(2));
        let report = Simulation::new(3, &lam)
            .run(spray_programs(3, vec![1, 2]))
            .unwrap();
        assert_eq!(report.proc_stats[0].sends, 2);
        assert_eq!(report.proc_stats[0].recvs, 0);
        assert_eq!(report.proc_stats[1].recvs, 1);
        assert_eq!(report.proc_stats[2].recvs, 1);
    }

    #[test]
    fn observe_streams_engine_events() {
        let lam = Uniform(Latency::from_ratio(5, 2));
        let rec = postal_obs::MemoryRecorder::new();
        let report = Simulation::new(3, &lam)
            .observe(&rec)
            .run(spray_programs(3, vec![1, 2]))
            .unwrap();
        report.assert_model_clean();
        let log =
            rec.into_log(postal_obs::RunMeta::new("event", 3).latency(Latency::from_ratio(5, 2)));
        assert_eq!(log.deliveries(), 2);
        assert_eq!(log.completion_time(), report.completion);
        // The streamed events match the after-the-fact trace conversion.
        assert_eq!(log.events(), crate::obs::log_from_report(
            &report,
            "event",
            3,
            Some(Latency::from_ratio(5, 2)),
            None,
        ).events());
    }

    #[test]
    fn observe_streams_through_the_ring_recorder() {
        // The sharded ring recorder plugs into the engine exactly like
        // MemoryRecorder; with ample capacity nothing is dropped and the
        // log matches the unsampled one event for event.
        let lam = Uniform(Latency::from_ratio(5, 2));
        let ring = postal_obs::RingRecorder::new(1024);
        let full = postal_obs::MemoryRecorder::new();
        let report = Simulation::new(3, &lam)
            .observe(&ring)
            .run(spray_programs(3, vec![1, 2]))
            .unwrap();
        let _ = Simulation::new(3, &lam)
            .observe(&full)
            .run(spray_programs(3, vec![1, 2]))
            .unwrap();
        assert_eq!(ring.dropped_events(), 0);
        assert_eq!(ring.attempted_events(), ring.recorded_events());
        let meta = postal_obs::RunMeta::new("event", 3).latency(Latency::from_ratio(5, 2));
        let log = ring.into_log(meta.clone());
        assert_eq!(log.meta().dropped_events, Some(0));
        assert_eq!(log.completion_time(), report.completion);
        assert_eq!(log.events(), full.into_log(meta).events());
    }

    #[test]
    fn observe_with_tight_ring_drops_honestly() {
        // Per-shard capacity 1: most events are dropped, but every drop
        // is counted — recorded + dropped == attempted, always.
        let lam = Uniform(Latency::from_int(2));
        let ring = postal_obs::RingRecorder::new(1);
        let _ = Simulation::new(8, &lam)
            .observe(&ring)
            .run(spray_programs(8, (1..8).collect()))
            .unwrap();
        let attempted = ring.attempted_events();
        assert_eq!(attempted, 14); // 7 sends + 7 recvs
        assert_eq!(ring.recorded_events() + ring.dropped_events(), attempted);
        assert!(ring.dropped_events() > 0);
        let log = ring.into_log(postal_obs::RunMeta::new("event", 8));
        assert_eq!(
            log.meta().dropped_events,
            Some(attempted - log.events().len() as u64)
        );
    }

    #[test]
    fn observe_streams_fault_events() {
        let lam = Uniform(Latency::from_int(2));
        let rec = postal_obs::MemoryRecorder::new();
        let plan = crate::faults::FaultPlan::none()
            .dropping(1)
            .crashing(ProcId(2), Time::from_int(99));
        let _ = Simulation::new(3, &lam)
            .faults(plan)
            .observe(&rec)
            .run(spray_programs(3, vec![1, 2]))
            .unwrap();
        let log = rec.into_log(postal_obs::RunMeta::new("event", 3));
        let kinds: Vec<&str> = log.events().iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"drop"), "{kinds:?}");
        assert!(kinds.contains(&"crash"), "{kinds:?}");
    }

    #[test]
    fn wrong_program_count_is_an_error() {
        let lam = Uniform(Latency::TELEPHONE);
        let err = Simulation::new(3, &lam)
            .run(spray_programs(2, vec![1]))
            .unwrap_err();
        assert_eq!(
            err,
            SimError::WrongProgramCount {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn event_limit_stops_ping_pong() {
        // Two processors forwarding to each other forever.
        let lam = Uniform(Latency::TELEPHONE);
        let programs: Vec<Box<dyn Program<u8>>> =
            vec![Box::new(PingPongStarter), Box::new(Relay(Some(0)))];
        let err = Simulation::new(2, &lam)
            .max_events(1000)
            .run(programs)
            .unwrap_err();
        assert_eq!(err, SimError::EventLimitExceeded { limit: 1000 });

        struct PingPongStarter;
        impl Program<u8> for PingPongStarter {
            fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
                ctx.send(ProcId(1), 0);
            }
            fn on_receive(&mut self, ctx: &mut dyn Context<u8>, _f: ProcId, p: u8) {
                ctx.send(ProcId(1), p);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let lam = Uniform(Latency::from_ratio(5, 2));
        let runs: Vec<Vec<(ProcId, Time)>> = (0..3)
            .map(|_| {
                let mut programs: Vec<Box<dyn Program<u8>>> = Vec::new();
                programs.push(Box::new(Spray(vec![1, 2, 3])));
                programs.push(Box::new(Relay(Some(4))));
                for _ in 2..5 {
                    programs.push(Box::new(Idle));
                }
                let report = Simulation::new(5, &lam).run(programs).unwrap();
                report
                    .trace
                    .transfers()
                    .iter()
                    .map(|t| (t.dst, t.recv_finish()))
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn engine_times_and_queue_entries_are_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Tick>(), 8);
        // An 8-byte payload (BCAST's) keeps a `Deliver` entry — ids,
        // two ticks and the payload — within 48 B.
        assert!(
            size_of::<FastKind<u64>>() <= 48,
            "{}",
            size_of::<FastKind<u64>>()
        );
        // A stored transfer keeps its three independent times (32 B
        // each), its ids and the payload: 128 B with a `u32` payload.
        assert_eq!(size_of::<Transfer<u32>>(), 128);
        assert_eq!(size_of::<Transfer<[u64; 2]>>(), 128);
    }

    #[test]
    fn clock_keeps_off_lattice_times_exact_and_canonical() {
        let mut clock = Clock::new(6, false);
        let third = clock.tick(Time::new(7, 3));
        assert_eq!(third, Tick(14));
        for k in [14, 270, 0] {
            assert_eq!(clock.time(Tick(k)), Time::from_ticks(k, 6));
        }
        // A fifth has no tick of 1/6: it enters the table, once.
        let fifth = clock.tick(Time::new(1, 5));
        assert!(fifth.0 < 0);
        assert_eq!(clock.tick(Time::new(1, 5)), fifth);
        assert_eq!(clock.exact.len(), 1);
        assert_eq!(clock.time(fifth), Time::new(1, 5));
        assert_eq!(clock.cmp(fifth, third), Ordering::Less);
        assert_eq!(clock.max(fifth, Tick(1)), fifth);
        // 1/5 + 4/5 lands back on the lattice: tick 6, not a table entry.
        assert_eq!(clock.add(fifth, 0), fifth);
        let one = clock.tick(clock.time(fifth) + Time::new(4, 5));
        assert_eq!(one, Tick(6));
        // Past the headroom the sum stays exact.
        let edge = Tick(TICK_LIMIT);
        let over = clock.add(edge, 6);
        assert!(over.0 < 0);
        assert_eq!(
            clock.time(over),
            Time::from_ticks(TICK_LIMIT, 6) + Time::ONE
        );
        assert_eq!(clock.stamp(over), Stamp::Exact(clock.time(over)));
        assert_eq!(clock.of_stamp(clock.stamp(over)), over);
        assert_eq!(clock.cmp(edge, over), Ordering::Less);
    }

    #[test]
    fn a_receive_starts_one_unit_before_its_finish() {
        // Each start goes forward through `add`, as `process_arrival`
        // books it, and must come back from the finish unchanged.
        let mut clock = Clock::new(6, false);
        let fifth = clock.tick(Time::new(1, 5));
        let starts = [
            Tick(0),
            Tick(14),
            fifth,
            Tick(TICK_LIMIT - 6),
            Tick(TICK_LIMIT),
        ];
        for start in starts {
            let finish = clock.add(start, clock.den);
            assert_eq!(clock.time(finish), clock.time(start) + Time::ONE);
            assert_eq!(clock.recv_start(finish), start, "{:?}", clock.time(start));
        }
        // The table holds 1/5, its finish 6/5 and the finish past
        // TICK_LIMIT: no start was added.
        assert_eq!(clock.exact.len(), 3);
        assert!(clock.add(Tick(TICK_LIMIT - 6), 6).0 >= 0);
        assert!(clock.add(Tick(TICK_LIMIT), 6).0 < 0);
    }

    #[test]
    fn the_stored_memo_gives_the_clocks_times() {
        let mut clock = Clock::new(6, true);
        let fifth = clock.tick(Time::new(1, 5));
        // Ticks that share a slot, revisited, and the exact table.
        let slots = MEMO_SLOTS as i64;
        for k in [14, 14 + slots, 14, 0, 3 * slots, 7, TICK_LIMIT] {
            assert_eq!(clock.stored(Tick(k)), clock.time(Tick(k)), "tick {k}");
        }
        assert_eq!(clock.stored(fifth), Time::new(1, 5));
        assert_eq!(clock.exact.len(), 1, "no time entered the table");
    }

    #[test]
    fn now_is_built_from_ticks_only_when_read() {
        let clock = Clock::new(6, false);
        let ctx: EngineCtx<u8> = EngineCtx {
            me: ProcId(0),
            n: 1,
            now: clock.stamp(Tick(14)),
            den: clock.den,
            outbox: Vec::new(),
            wakes: Vec::new(),
        };
        assert_eq!(ctx.now, Stamp::Tick(14));
        assert_eq!(ctx.now(), Time::new(7, 3));
    }

    #[test]
    fn an_off_lattice_wake_takes_the_exact_heap() {
        // p0 wakes at 15/7 — off λ = 2's halves — and sends to p1.
        struct WakeThenSend;
        impl Program<u8> for WakeThenSend {
            fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
                ctx.wake_at(Time::new(15, 7));
            }
            fn on_receive(&mut self, _: &mut dyn Context<u8>, _: ProcId, _: u8) {}
            fn on_wake(&mut self, ctx: &mut dyn Context<u8>) {
                assert_eq!(ctx.now(), Time::new(15, 7));
                ctx.send(ProcId(1), 0);
            }
        }
        let lam = Uniform(Latency::from_int(2));
        let programs =
            || -> Vec<Box<dyn Program<u8>>> { vec![Box::new(WakeThenSend), Box::new(Idle)] };
        let fast = Simulation::new(2, &lam).run(programs()).unwrap();
        let reference = Simulation::new(2, &lam).run_reference(programs()).unwrap();
        // The wake-up, the arrival and the delivery.
        assert_eq!((fast.exact_pushes, fast.overflow_pushes), (3, 0));
        assert_eq!(fast.completion, Time::new(15, 7) + Time::from_int(2));
        assert_eq!(fast.completion, reference.completion);
        assert_eq!((reference.exact_pushes, reference.overflow_pushes), (0, 0));
    }

    #[test]
    #[should_panic(expected = "no self-sends")]
    fn self_send_panics() {
        let lam = Uniform(Latency::TELEPHONE);
        let _ = Simulation::new(2, &lam).run(spray_programs(2, vec![0]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_send_panics() {
        let lam = Uniform(Latency::TELEPHONE);
        let _ = Simulation::new(2, &lam).run(spray_programs(2, vec![7]));
    }
}
