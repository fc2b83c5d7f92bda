//! Inline linting: feeding the streaming lint engine straight from an
//! [`ObsEvent`] stream, with no materialized trace in between.
//!
//! [`LintStream`] adapts an event stream to
//! [`postal_model::lint::StreamingLint`]: it extracts the send facts
//! the lint checks consume and drives the engine's watermark from the
//! stream's notion of time. [`LintSink`] wraps a `LintStream` in a
//! [`Recorder`] so a simulation can lint itself *while it runs* —
//! `Simulation::observe(&sink)` plus a trace-discarding run mode is a
//! full `P0001`–`P0007` report in O(n) memory at any event count.
//!
//! ## Watermark policy
//!
//! The engine finalizes a pending send once the watermark strictly
//! passes its start time, and relies on the caller never to advance the
//! watermark past a send it has yet to observe. [`LintStream`] keeps
//! one policy, built for a running engine's *scheduling* order: a
//! `Send` event carries a **future** start time (the output port books
//! ahead), so send timestamps never drive the watermark, and neither
//! does `Crash` (fault plans are announced up front, before the clock
//! reaches them). A queued `Recv`'s start can likewise lie ahead of the
//! clock, so receives advance the watermark by their *arrival* — the
//! instant the engine processed the delivery. Every other event
//! (`Wake`, `Drop`, `Violation`, `Truncated`) is emitted exactly when
//! the clock reaches its timestamp and advances the watermark as-is.
//! The live feed must be single-threaded (the discrete-event engine); a
//! threaded run records into a ring and replays the sorted snapshot.
//!
//! The same policy is sound on a log sorted by [`ObsEvent::at`] (a
//! JSONL log, or a recorder snapshot's canonical order). Each event
//! moves the watermark to at most its own `at`: a receive's arrival
//! never exceeds its `at` (its start), and the others move it to their
//! `at` or not at all. A send's `at` is its start, so in a sorted log
//! every send starting before the watermark was read before the event
//! that raised it, and finalization is strict-below. A log sorted any
//! other way can trip the engine's
//! [`out_of_order`](LintStream::out_of_order) flag.
//!
//! A `Truncated` event is also latched into [`LintStream::truncated`]
//! so the caller can apply the usual absence-lint downgrades to the
//! finished report.
//!
//! ## Ticks from a running engine
//!
//! The simulator hands its sends and receives to a recorder as `i64`
//! ticks of its run's lattice
//! ([`Recorder::record_send_ticks`], [`Recorder::record_recv_ticks`]).
//! [`LintSink`] overrides both: when the run's denominator is the
//! linter's own, `λ.lattice_lcm(2)` (always so under a uniform λ), the
//! tick goes straight into
//! [`StreamingLint::observe_send_ticks`] or
//! [`StreamingLint::advance_watermark_ticks`] and no [`Time`] is built;
//! under another denominator it is converted to its exact `Time`
//! first. A send and a receive go through the same two steps whether
//! they come as ticks or as an [`ObsEvent`], so the policy above is
//! written once.

use crate::event::ObsEvent;
use crate::recorder::Recorder;
use postal_model::lint::{Diagnostic, LintOptions, StreamingLint};
use postal_model::{Latency, Time};
use std::sync::{Mutex, MutexGuard};

/// An event time as the stream is handed it: ticks of the linter's own
/// lattice, or an exact time.
#[derive(Clone, Copy)]
enum At {
    Ticks(i64),
    Exact(Time),
}

/// An [`ObsEvent`]-to-lint adapter: push events, collect the finished
/// `P0001`–`P0007` report. Construct one per run.
pub struct LintStream {
    inner: StreamingLint,
    truncated: bool,
}

impl LintStream {
    /// Creates the adapter for a run over `MPS(n, λ)`, linted under
    /// `opts`.
    pub fn new(n: u32, latency: Latency, opts: LintOptions) -> LintStream {
        LintStream {
            inner: StreamingLint::new(n, latency, opts),
            truncated: false,
        }
    }

    /// Like [`LintStream::new`], but lints against a sparse
    /// communication graph, adding the topology codes `P0017`–`P0019`.
    /// The complete graph yields the exact [`LintStream::new`] report.
    pub fn with_topology(
        n: u32,
        latency: Latency,
        opts: LintOptions,
        topology: &postal_model::Topology,
    ) -> LintStream {
        LintStream {
            inner: StreamingLint::with_topology(n, latency, opts, topology),
            truncated: false,
        }
    }

    /// Consumes one event: advances the watermark per the
    /// [module's policy](self) and forwards send facts to the lint
    /// engine.
    pub fn on_event(&mut self, ev: &ObsEvent) {
        match *ev {
            ObsEvent::Send {
                src, dst, start, ..
            } => self.send(src, dst, At::Exact(start)),
            ObsEvent::Recv { arrival, .. } => self.recv(At::Exact(arrival)),
            ObsEvent::Crash { .. } => {}
            ObsEvent::Truncated { at, .. } => {
                self.inner.advance_watermark(at);
                self.truncated = true;
            }
            _ => self.inner.advance_watermark(ev.at()),
        }
    }

    /// A send can start later than the clock that issued it (its output
    /// port books ahead): it is parked, and never moves the watermark.
    fn send(&mut self, src: u32, dst: u32, start: At) {
        match start {
            At::Ticks(k) => self.inner.observe_send_ticks(src, dst, k),
            At::Exact(t) => self.inner.observe_send(src, dst, t),
        }
    }

    /// A receive is processed at its arrival, which moves the watermark;
    /// its start can lie ahead of the clock.
    fn recv(&mut self, arrival: At) {
        match arrival {
            At::Ticks(k) => self.inner.advance_watermark_ticks(k),
            At::Exact(t) => self.inner.advance_watermark(t),
        }
    }

    /// `k` ticks of `1/den`, on the linter's lattice when `den` is its
    /// own.
    fn at(&self, k: i64, den: i64) -> At {
        if den == self.inner.tick_denominator() {
            At::Ticks(k)
        } else {
            At::Exact(Time::from_ticks(k, den))
        }
    }

    /// Whether a `Truncated` event was seen: the report's absence lints
    /// (`P0003`, `P0005`) should be downgraded.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether a send was observed after the watermark had passed its
    /// start: the report is unreliable and batch mode should be used.
    pub fn out_of_order(&self) -> bool {
        self.inner.out_of_order()
    }

    /// Well-formed sends whose start lay off the stream's tick lattice
    /// (see [`StreamingLint::exact_sends`]).
    pub fn exact_sends(&self) -> u64 {
        self.inner.exact_sends()
    }

    /// Processors whose first receipt or idle cursor lies off the
    /// stream's tick lattice (see [`StreamingLint::exact_slots`]).
    pub fn exact_slots(&self) -> usize {
        self.inner.exact_slots()
    }

    /// Peak reserved linter heap bytes, by container capacity (see
    /// [`StreamingLint::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    /// Completion time over every send observed so far — the instant
    /// the last delivery lands, matching `Schedule::completion`.
    pub fn completion(&self) -> postal_model::Time {
        self.inner.index().completion()
    }

    /// Well-formed sends observed so far.
    pub fn sends_observed(&self) -> u64 {
        self.inner.index().sends_observed()
    }

    /// Finalizes every pending send and returns the lint report, in
    /// `lint_schedule`'s report order.
    pub fn finish(self) -> Vec<Diagnostic> {
        self.inner.finish()
    }
}

/// A [`Recorder`] that lints the run as it happens instead of storing
/// it: attach with `Simulation::observe(&sink)`, then take the report
/// with [`LintSink::finish`] after the run returns.
///
/// For threaded feeds record into a [`RingRecorder`](crate::RingRecorder)
/// and replay the sorted snapshot through a [`LintStream`] instead — a
/// live watermark is only sound for a single-threaded engine clock.
pub struct LintSink {
    inner: Mutex<LintStream>,
}

impl LintSink {
    /// Creates a sink linting a live run over `MPS(n, λ)` under `opts`.
    pub fn new(n: u32, latency: Latency, opts: LintOptions) -> LintSink {
        LintSink {
            inner: Mutex::new(LintStream::new(n, latency, opts)),
        }
    }

    /// Creates a sink linting a live run against a sparse communication
    /// graph (topology codes `P0017`–`P0019` included).
    pub fn with_topology(
        n: u32,
        latency: Latency,
        opts: LintOptions,
        topology: &postal_model::Topology,
    ) -> LintSink {
        LintSink {
            inner: Mutex::new(LintStream::with_topology(n, latency, opts, topology)),
        }
    }

    /// Stops recording and hands back the underlying [`LintStream`]
    /// (call its [`finish`](LintStream::finish) for the report). A
    /// poisoned lock is recovered — lint state is valid after every
    /// `on_event`, so a panicking feeder loses nothing.
    pub fn finish(self) -> LintStream {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    fn lock(&self) -> MutexGuard<'_, LintStream> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Recorder for LintSink {
    fn record(&self, event: ObsEvent) {
        self.lock().on_event(&event);
    }

    fn record_send_ticks(&self, _seq: u64, src: u32, dst: u32, start: i64, den: i64) {
        let mut stream = self.lock();
        let start = stream.at(start, den);
        stream.send(src, dst, start);
    }

    fn record_recv_ticks(
        &self,
        _seq: u64,
        _src: u32,
        _dst: u32,
        arrival: i64,
        _start: i64,
        den: i64,
    ) {
        let mut stream = self.lock();
        let arrival = stream.at(arrival, den);
        stream.recv(arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::lint::lint_schedule;
    use postal_model::schedule::{Schedule, TimedSend};
    use postal_model::Time;

    fn lam() -> Latency {
        Latency::from_int(2)
    }

    /// A hand-rolled live feed for an optimal BCAST(3): sends announced
    /// at issue time (before their starts), receives at completion.
    fn live_feed() -> Vec<ObsEvent> {
        let t = Time::from_int;
        vec![
            ObsEvent::Send {
                seq: 0,
                src: 0,
                dst: 1,
                start: t(0),
                finish: t(1),
            },
            ObsEvent::Send {
                seq: 1,
                src: 0,
                dst: 2,
                start: t(1),
                finish: t(2),
            },
            ObsEvent::Recv {
                seq: 0,
                src: 0,
                dst: 1,
                arrival: t(1),
                start: t(1),
                finish: t(2),
                queued: false,
            },
            ObsEvent::Recv {
                seq: 1,
                src: 0,
                dst: 2,
                arrival: t(2),
                start: t(2),
                finish: t(3),
                queued: false,
            },
        ]
    }

    fn batch_report() -> Vec<Diagnostic> {
        let schedule = Schedule::new(
            3,
            lam(),
            vec![
                TimedSend {
                    src: 0,
                    dst: 1,
                    send_start: Time::ZERO,
                },
                TimedSend {
                    src: 0,
                    dst: 2,
                    send_start: Time::ONE,
                },
            ],
        );
        lint_schedule(&schedule, &LintOptions::default())
    }

    #[test]
    fn live_feed_matches_batch() {
        let mut stream = LintStream::new(3, lam(), LintOptions::default());
        for ev in live_feed() {
            stream.on_event(&ev);
        }
        assert!(!stream.out_of_order());
        assert!(!stream.truncated());
        assert_eq!(stream.finish(), batch_report());
    }

    #[test]
    fn sorted_log_feed_matches_batch() {
        let mut events = live_feed();
        events.sort_by_key(|e| e.at());
        let mut stream = LintStream::new(3, lam(), LintOptions::default());
        for ev in &events {
            stream.on_event(ev);
        }
        assert!(!stream.out_of_order());
        assert_eq!(stream.finish(), batch_report());
    }

    #[test]
    fn sink_records_and_finishes() {
        let sink = LintSink::new(3, lam(), LintOptions::default());
        for ev in live_feed() {
            sink.record(ev);
        }
        assert_eq!(sink.finish().finish(), batch_report());
    }

    #[test]
    fn truncated_event_is_latched() {
        let mut stream = LintStream::new(3, lam(), LintOptions::default());
        stream.on_event(&ObsEvent::Truncated {
            processed: 7,
            limit: 7,
            at: Time::from_int(1),
        });
        assert!(stream.truncated());
    }
}
