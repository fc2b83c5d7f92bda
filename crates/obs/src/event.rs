//! The observability event vocabulary.
//!
//! Every engine in the workspace — the discrete-event simulator and the
//! threaded runtime — narrates a run as a stream of [`ObsEvent`]s. An
//! event is a *fact about the realized timeline*: a send span occupying
//! an output port, a receive span occupying an input port, a
//! strict-mode port violation, an injected fault. Timestamps are exact
//! rationals ([`Time`]), so the span stream carries the same precision
//! as the engines themselves; the threaded runtime quantizes its
//! virtual clock onto the same type.
//!
//! The mapping to the paper (Section 2) is direct: a `Send` span is the
//! sender's busy interval `[t, t+1]`, a `Recv` span is the receiver's
//! busy interval `[t+λ−1, t+λ]` (later under queued-port contention),
//! and the gap between an informed processor's consecutive `Send` spans
//! is exactly the idle-port waste the lint code `P0006` flags.

use postal_model::Time;

/// One observability event. See the module docs for the span semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsEvent {
    /// A send span: `src`'s output port was busy during `[start, finish]`
    /// transmitting message `seq` towards `dst`.
    Send {
        /// Global issue-order sequence number.
        seq: u64,
        /// Sending processor.
        src: u32,
        /// Receiving processor.
        dst: u32,
        /// When the output port started transmitting.
        start: Time,
        /// `start + 1`: when the output port became free.
        finish: Time,
    },
    /// A receive span: `dst`'s input port was busy during
    /// `[start, finish]` receiving message `seq` from `src`.
    Recv {
        /// The matching send's sequence number.
        seq: u64,
        /// Sending processor.
        src: u32,
        /// Receiving processor.
        dst: u32,
        /// Model arrival time (`send_start + λ − 1`).
        arrival: Time,
        /// When the input port actually started receiving (later than
        /// `arrival` only under queued-port contention).
        start: Time,
        /// `start + 1`: when the payload was delivered to the program.
        finish: Time,
        /// Whether input-port contention delayed this receive.
        queued: bool,
    },
    /// A timer callback fired on `proc` at `at`.
    Wake {
        /// The woken processor.
        proc: u32,
        /// The wake time.
        at: Time,
    },
    /// Strict-mode input-port overlap: message `seq` was ready at
    /// `arrival` while `dst`'s input port was busy until `busy_until`.
    Violation {
        /// The offending transfer's sequence number.
        seq: u64,
        /// Destination whose input port was double-booked.
        dst: u32,
        /// Model arrival time of the late message.
        arrival: Time,
        /// When the port would have become free.
        busy_until: Time,
    },
    /// Fault injection: message `seq` from `src` to `dst` was dropped in
    /// flight at `at` (its would-be arrival time).
    Drop {
        /// The dropped transfer's sequence number.
        seq: u64,
        /// Sending processor.
        src: u32,
        /// Intended receiving processor.
        dst: u32,
        /// When the message vanished.
        at: Time,
    },
    /// Fault injection: `proc` stops participating at `at`.
    Crash {
        /// The crashed processor.
        proc: u32,
        /// The crash time.
        at: Time,
    },
    /// The engine hit its event (or tick) budget and stopped early: the
    /// trace ends here and every downstream count is a lower bound.
    /// Emitted exactly once, as the final event, before the engine
    /// returns its truncation error — so a consumer that only sees the
    /// event stream can still tell a completed run from an aborted one.
    Truncated {
        /// Events processed before the budget ran out.
        processed: u64,
        /// The configured budget that was exceeded.
        limit: u64,
        /// Model time at which the engine gave up.
        at: Time,
    },
}

impl ObsEvent {
    /// The event's primary timestamp (span start for spans, the instant
    /// for point events).
    pub fn at(&self) -> Time {
        match *self {
            ObsEvent::Send { start, .. } => start,
            ObsEvent::Recv { start, .. } => start,
            ObsEvent::Wake { at, .. } => at,
            ObsEvent::Violation { arrival, .. } => arrival,
            ObsEvent::Drop { at, .. } => at,
            ObsEvent::Crash { at, .. } => at,
            ObsEvent::Truncated { at, .. } => at,
        }
    }

    /// The processor the event is attributed to — the port owner whose
    /// timeline it lands on (receiver for `Recv`/`Violation`/`Drop`).
    /// [`crate::RingRecorder`] shards by this key, so one processor's
    /// port activity stays within one shard and per-shard order is
    /// per-port order.
    pub fn proc(&self) -> u32 {
        match *self {
            ObsEvent::Send { src, .. } => src,
            ObsEvent::Recv { dst, .. } => dst,
            ObsEvent::Wake { proc, .. } => proc,
            ObsEvent::Violation { dst, .. } => dst,
            ObsEvent::Drop { dst, .. } => dst,
            ObsEvent::Crash { proc, .. } => proc,
            // Truncation is a whole-run fact, not a port event; it is
            // attributed to processor 0 so sharded recorders keep it in
            // a deterministic shard.
            ObsEvent::Truncated { .. } => 0,
        }
    }

    /// The stable `type` tag used by the JSONL codec.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Send { .. } => "send",
            ObsEvent::Recv { .. } => "recv",
            ObsEvent::Wake { .. } => "wake",
            ObsEvent::Violation { .. } => "violation",
            ObsEvent::Drop { .. } => "drop",
            ObsEvent::Crash { .. } => "crash",
            ObsEvent::Truncated { .. } => "truncated",
        }
    }
}

/// Which of a processor's two ports a span occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortSide {
    /// The output (sending) port.
    Out,
    /// The input (receiving) port.
    In,
}

/// A busy interval on one port — the unit the Gantt renderer and the
/// utilization accounting consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpan {
    /// The processor owning the port.
    pub proc: u32,
    /// Which port.
    pub side: PortSide,
    /// Busy from.
    pub start: Time,
    /// Busy until.
    pub end: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_timestamps_and_kinds() {
        let e = ObsEvent::Send {
            seq: 0,
            src: 0,
            dst: 1,
            start: Time::from_int(3),
            finish: Time::from_int(4),
        };
        assert_eq!(e.at(), Time::from_int(3));
        assert_eq!(e.kind(), "send");
        let c = ObsEvent::Crash {
            proc: 2,
            at: Time::new(5, 2),
        };
        assert_eq!(c.at(), Time::new(5, 2));
        assert_eq!(c.kind(), "crash");
    }
}
