//! The assembled record of one observed run.

use crate::event::{ObsEvent, PortSide, PortSpan};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::sort_by_time;
use postal_model::{Latency, Time};
use std::borrow::Borrow;
use std::fmt;

/// Metadata identifying a run: which engine produced it and the model
/// parameters needed to re-derive schedules and bounds from the events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Which substrate produced the log: `"event"`, `"threaded"`, or a
    /// caller-chosen tag.
    pub engine: String,
    /// Processor count of the run.
    pub n: u32,
    /// Uniform λ of the run, when known. Logs recorded under
    /// non-uniform latency models leave this unset; such logs cannot be
    /// reduced to a [`Schedule`].
    pub lambda: Option<Latency>,
    /// Number of distinct broadcast messages (the paper's `m`), when the
    /// workload has one.
    pub messages: Option<u64>,
    /// Events the recorder *rejected* (sampling, ring overflow) while
    /// producing this log. `Some(0)` asserts the log is complete;
    /// `Some(k > 0)` marks a **partial trace** — consumers (lints,
    /// metrics) must not treat absence of an event as evidence. `None`
    /// means the producer predates drop accounting (treated as
    /// complete, like `Some(0)`).
    pub dropped_events: Option<u64>,
    /// The sampling policy that produced the log (the
    /// [`crate::SampleSpec`] grammar), when one was applied.
    pub sample: Option<String>,
    /// Per-shard ring capacity of the producing recorder, when bounded.
    pub ring_capacity: Option<u64>,
}

impl RunMeta {
    /// Creates metadata for `engine` over `n` processors.
    pub fn new(engine: &str, n: u32) -> RunMeta {
        RunMeta {
            engine: engine.to_string(),
            n,
            lambda: None,
            messages: None,
            dropped_events: None,
            sample: None,
            ring_capacity: None,
        }
    }

    /// Sets the uniform λ.
    pub fn latency(mut self, lambda: Latency) -> RunMeta {
        self.lambda = Some(lambda);
        self
    }

    /// Sets the broadcast message count `m`.
    pub fn messages(mut self, m: u64) -> RunMeta {
        self.messages = Some(m);
        self
    }

    /// Sets the recorder-drop count (see [`RunMeta::dropped_events`]).
    pub fn dropped(mut self, dropped: u64) -> RunMeta {
        self.dropped_events = Some(dropped);
        self
    }

    /// Sets the sampling-policy tag (see [`RunMeta::sample`]).
    pub fn sampled(mut self, spec: &str) -> RunMeta {
        self.sample = Some(spec.to_string());
        self
    }

    /// Whether the log is a partial trace: some events were dropped by
    /// sampling or ring overflow, so absence of an event proves
    /// nothing. Complete logs (and logs predating drop accounting)
    /// return `false`.
    pub fn is_partial(&self) -> bool {
        self.dropped_events.is_some_and(|d| d > 0)
    }
}

/// Failure converting or parsing a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError(pub String);

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ObsError {}

/// A complete, ordered observability log: run metadata plus every event
/// the engines recorded. This is the hub type — exporters
/// ([`crate::chrome`], [`crate::prometheus`], [`crate::jsonl`]), the
/// metrics summary ([`crate::metrics::MetricsSummary`]) and the Gantt
/// span renderer all consume it.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsLog {
    meta: RunMeta,
    events: Vec<ObsEvent>,
}

impl ObsLog {
    /// Wraps metadata and an event list (assumed already ordered; use
    /// [`ObsLog::sorted`] for engine output).
    pub fn new(meta: RunMeta, events: Vec<ObsEvent>) -> ObsLog {
        ObsLog { meta, events }
    }

    /// Wraps metadata and events recorded in any order, sorting them by
    /// (timestamp, kind, seq) so logs from threaded runs are
    /// deterministic given their timestamps. The sort is stable, on tick
    /// counts when the timestamps lie on one lattice ([`sort_by_time`]).
    pub fn sorted(meta: RunMeta, mut events: Vec<ObsEvent>) -> ObsLog {
        sort_by_time(&mut events, ObsEvent::at, rank);
        ObsLog { meta, events }
    }

    /// The run metadata.
    pub fn meta(&self) -> &RunMeta {
        &self.meta
    }

    /// All events in timeline order.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The paper's running time: when the last receive finished
    /// (`Time::ZERO` when nothing was delivered).
    pub fn completion_time(&self) -> Time {
        self.events
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Recv { finish, .. } => Some(finish),
                _ => None,
            })
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Messages delivered (count of `Recv` events).
    pub fn deliveries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Recv { .. }))
            .count()
    }

    /// Strict-mode violations observed.
    pub fn violations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ObsEvent::Violation { .. }))
            .count()
    }

    /// Reduces the log to the static [`Schedule`] it realized (one
    /// `TimedSend` per `Send` event), so `postal-verify` can lint an
    /// observed run by the same rules as a hand-written schedule.
    ///
    /// # Errors
    /// [`ObsError`] when the log's metadata carries no uniform λ (a
    /// schedule cannot be reconstructed without it).
    pub fn to_schedule(&self) -> Result<Schedule, ObsError> {
        let lambda = self.meta.lambda.ok_or_else(|| {
            ObsError("log has no uniform lambda; cannot reduce to a schedule".into())
        })?;
        let sends = self
            .events
            .iter()
            .filter_map(|e| match *e {
                ObsEvent::Send {
                    src, dst, start, ..
                } => Some(TimedSend {
                    src,
                    dst,
                    send_start: start,
                }),
                _ => None,
            })
            .collect();
        Ok(Schedule::new(self.meta.n, lambda, sends))
    }

    /// The busy intervals of every port, in event order — the span
    /// stream the Gantt renderer and utilization accounting consume.
    pub fn port_spans(&self) -> Vec<PortSpan> {
        self.events.iter().filter_map(port_span).collect()
    }
}

/// The port busy interval an event occupies: a `Send` on its source's
/// output port, a `Recv` on its destination's input port.
pub(crate) fn port_span(e: &ObsEvent) -> Option<PortSpan> {
    match *e {
        ObsEvent::Send {
            src, start, finish, ..
        } => Some(PortSpan {
            proc: src,
            side: PortSide::Out,
            start,
            end: finish,
        }),
        ObsEvent::Recv {
            dst, start, finish, ..
        } => Some(PortSpan {
            proc: dst,
            side: PortSide::In,
            start,
            end: finish,
        }),
        _ => None,
    }
}

/// Per-processor busy time `(send_busy, recv_busy)` summed from a span
/// stream: a slice of spans, or an iterator that yields them as events
/// stream by. `sim::Trace::port_busy_times` delegates here. The metrics
/// summary sums the same spans inside its own pass (on tick counts when
/// the log lies on a lattice), and `crates/obs/tests/export_differential.rs`
/// holds the two equal.
///
/// # Panics
/// Panics if a span names a processor outside `0..n`.
pub fn port_busy_times<I>(n: usize, spans: I) -> Vec<(Time, Time)>
where
    I: IntoIterator,
    I::Item: Borrow<PortSpan>,
{
    let mut busy = vec![(Time::ZERO, Time::ZERO); n];
    for s in spans {
        let s = s.borrow();
        let slot = &mut busy[s.proc as usize];
        let dur = s.end - s.start;
        match s.side {
            PortSide::Out => slot.0 += dur,
            PortSide::In => slot.1 += dur,
        }
    }
    busy
}

/// The key after the timestamp in [`ObsLog::sorted`]'s order: the
/// kind's rank, then the seq (`u64::MAX` for the kinds without one).
fn rank(e: &ObsEvent) -> (u8, u64) {
    match *e {
        ObsEvent::Crash { .. } => (0, u64::MAX),
        ObsEvent::Send { seq, .. } => (1, seq),
        ObsEvent::Recv { seq, .. } => (2, seq),
        ObsEvent::Violation { seq, .. } => (3, seq),
        ObsEvent::Drop { seq, .. } => (4, seq),
        ObsEvent::Wake { .. } => (5, u64::MAX),
        // Truncation ends the run; it sorts after everything else at its
        // timestamp.
        ObsEvent::Truncated { .. } => (6, u64::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::latency::MAX_TICK_DENOMINATOR;

    pub(crate) fn sample_log() -> ObsLog {
        // BCAST(3, λ=2): p0 sends to p1 at 0 and p2 at 1.
        let lam = Latency::from_int(2);
        let ev = |seq: u64, src: u32, dst: u32, at: i128| {
            let start = Time::from_int(at);
            vec![
                ObsEvent::Send {
                    seq,
                    src,
                    dst,
                    start,
                    finish: start + Time::ONE,
                },
                ObsEvent::Recv {
                    seq,
                    src,
                    dst,
                    arrival: start + Time::ONE,
                    start: start + Time::ONE,
                    finish: start + Time::from_int(2),
                    queued: false,
                },
            ]
        };
        let mut events = ev(0, 0, 1, 0);
        events.extend(ev(1, 0, 2, 1));
        ObsLog::new(RunMeta::new("event", 3).latency(lam).messages(1), events)
    }

    #[test]
    fn completion_and_counts() {
        let log = sample_log();
        assert_eq!(log.completion_time(), Time::from_int(3));
        assert_eq!(log.deliveries(), 2);
        assert_eq!(log.violations(), 0);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn reduces_to_a_schedule() {
        let log = sample_log();
        let schedule = log.to_schedule().unwrap();
        assert_eq!(schedule.n(), 3);
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule.sends()[1].send_start, Time::ONE);
    }

    #[test]
    fn missing_lambda_is_an_error() {
        let log = ObsLog::new(RunMeta::new("event", 2), vec![]);
        assert!(log.to_schedule().is_err());
    }

    #[test]
    fn the_tick_key_and_the_exact_key_sort_alike() {
        let wakes = |times: &[Time]| -> Vec<ObsEvent> {
            times
                .iter()
                .map(|&at| ObsEvent::Wake { proc: 0, at })
                .collect()
        };
        let third = Time::new(1, 3);
        // Thirds tick on D = 3; a denominator past the tick cap keeps
        // the exact key. Both give the same stable order.
        let off = Time::new(1, MAX_TICK_DENOMINATOR as i128 + 1);
        for extra in [Time::ZERO, off] {
            let mut events = wakes(&[third, extra, third]);
            events.push(ObsEvent::Crash { proc: 1, at: third });
            let log = ObsLog::sorted(RunMeta::new("event", 2), events);
            let order: Vec<_> = log.events().iter().map(|e| (e.at(), e.kind())).collect();
            assert_eq!(
                order,
                [
                    (extra, "wake"),
                    (third, "crash"),
                    (third, "wake"),
                    (third, "wake")
                ]
            );
        }
    }

    #[test]
    fn spans_and_busy_times() {
        let log = sample_log();
        let spans = log.port_spans();
        assert_eq!(spans.len(), 4);
        let busy = port_busy_times(3, &spans);
        assert_eq!(busy[0], (Time::from_int(2), Time::ZERO));
        assert_eq!(busy[1], (Time::ZERO, Time::ONE));
        assert_eq!(busy[2], (Time::ZERO, Time::ONE));
    }
}
