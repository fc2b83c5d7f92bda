//! Event sinks the engines write to.
//!
//! A [`Recorder`] is the narrow waist between an engine and the
//! observability layer: engines call [`Recorder::record`] once per event
//! and never look back. The trait is `Send + Sync` so a single recorder
//! can be shared by the threaded runtime's processor and port threads;
//! the standard implementation ([`MemoryRecorder`]) is a
//! mutex-guarded append-only buffer — contention is one short critical
//! section per message, far below the engines' own costs ("lock-free
//! enough" for runs of millions of events).
//!
//! ## Sends and receives on the run's tick lattice
//!
//! The discrete-event engine keeps every time as an `i64` count of
//! ticks of `1/den`, the run's lattice. For its two hot events it calls
//! [`Recorder::record_send_ticks`] (a send's start) and
//! [`Recorder::record_recv_ticks`] (a receive's arrival and start)
//! with those ticks and `den`, whenever the times have a tick form (a
//! receive only when the run discards its trace: a stored trace builds
//! the exact times anyway). Every other event, and any time off the
//! lattice, reaches [`Recorder::record`] as an exact [`ObsEvent`].
//! The provided defaults build exactly the `ObsEvent::Send` and
//! `ObsEvent::Recv` the engine would have built and pass them to
//! `record`, so a recorder sees the same stream either way and a custom
//! recorder needs only `record`. Only a consumer that works on ticks
//! itself overrides them: [`LintSink`](crate::LintSink) hands the ticks
//! to the streaming linter without building a [`Time`].

use crate::event::ObsEvent;
use crate::log::{ObsLog, RunMeta};
use postal_model::Time;
use std::sync::Mutex;

/// An event sink. Implementations must tolerate concurrent calls.
pub trait Recorder: Send + Sync {
    /// Records one event. Ordering between threads is not guaranteed;
    /// consumers sort by timestamp/sequence as needed.
    fn record(&self, event: ObsEvent);

    /// Records message `seq`'s send from `src` to `dst`, starting
    /// `start` ticks of `1/den` into the run. The default records the
    /// [`ObsEvent::Send`] of that start, with its finish one unit later.
    fn record_send_ticks(&self, seq: u64, src: u32, dst: u32, start: i64, den: i64) {
        let start = Time::from_ticks(start, den);
        self.record(ObsEvent::Send {
            seq,
            src,
            dst,
            start,
            finish: start + Time::ONE,
        });
    }

    /// Records message `seq`'s receive at `dst`, arriving `arrival`
    /// ticks of `1/den` into the run and starting `start ≥ arrival`
    /// ticks in (later only when the input port queued it). The default
    /// records the [`ObsEvent::Recv`] of those times, with its finish
    /// one unit after the start.
    fn record_recv_ticks(&self, seq: u64, src: u32, dst: u32, arrival: i64, start: i64, den: i64) {
        let at = Time::from_ticks(arrival, den);
        let begun = if start == arrival {
            at
        } else {
            Time::from_ticks(start, den)
        };
        self.record(ObsEvent::Recv {
            seq,
            src,
            dst,
            arrival: at,
            start: begun,
            finish: begun + Time::ONE,
            queued: start > arrival,
        });
    }
}

/// A recorder that discards everything (the default when a run is not
/// being observed).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&self, _event: ObsEvent) {}
}

/// An in-memory recorder: appends events to a mutex-guarded buffer.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<ObsEvent>>,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing has been recorded. Checks under a single lock
    /// acquisition (not via [`MemoryRecorder::len`]).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The event buffer, recovering from poisoning: a panicking worker
    /// thread (`RuntimeError::WorkerExited` upstream) must not cascade
    /// into losing the whole log — an appended `ObsEvent` is always
    /// fully written before the lock is released, so the buffer is
    /// intact even if some *other* holder panicked mid-critical-section.
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<ObsEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drains the recorded events into an [`ObsLog`] with the given run
    /// metadata, sorted by (timestamp, kind, seq) so logs from threaded
    /// runs are deterministic given their timestamps.
    pub fn into_log(self, meta: RunMeta) -> ObsLog {
        let events = self.events.into_inner().unwrap_or_else(|e| e.into_inner());
        ObsLog::sorted(meta, events)
    }

    /// Copies the events recorded so far (sorted as in
    /// [`MemoryRecorder::into_log`]) without consuming the recorder.
    pub fn snapshot(&self, meta: RunMeta) -> ObsLog {
        self.snapshot_tail(meta, usize::MAX)
    }

    /// Copies at most the last `max_events` recorded events (by record
    /// order) without consuming the recorder. Only the requested slice
    /// is cloned, and only while the lock is held — a bounded snapshot
    /// of a multi-million-event buffer copies `max_events` events, not
    /// the whole log.
    pub fn snapshot_tail(&self, meta: RunMeta, max_events: usize) -> ObsLog {
        let events = {
            let guard = self.lock();
            let skip = guard.len().saturating_sub(max_events);
            guard[skip..].to_vec()
        };
        ObsLog::sorted(meta, events)
    }
}

impl Recorder for MemoryRecorder {
    fn record(&self, event: ObsEvent) {
        self.lock().push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{Latency, Time};

    #[test]
    fn memory_recorder_collects_and_sorts() {
        let rec = MemoryRecorder::new();
        rec.record(ObsEvent::Recv {
            seq: 0,
            src: 0,
            dst: 1,
            arrival: Time::ONE,
            start: Time::ONE,
            finish: Time::from_int(2),
            queued: false,
        });
        rec.record(ObsEvent::Send {
            seq: 0,
            src: 0,
            dst: 1,
            start: Time::ZERO,
            finish: Time::ONE,
        });
        assert_eq!(rec.len(), 2);
        let log = rec.into_log(RunMeta::new("test", 2).latency(Latency::from_int(2)));
        assert_eq!(log.events()[0].kind(), "send");
        assert_eq!(log.events()[1].kind(), "recv");
    }

    #[test]
    fn null_recorder_discards() {
        let rec = NullRecorder;
        rec.record(ObsEvent::Wake {
            proc: 0,
            at: Time::ZERO,
        });
    }

    #[test]
    fn snapshot_tail_copies_only_the_requested_slice() {
        let rec = MemoryRecorder::new();
        for i in 0..10 {
            rec.record(ObsEvent::Wake {
                proc: 0,
                at: Time::from_int(i),
            });
        }
        let meta = RunMeta::new("test", 1);
        let tail = rec.snapshot_tail(meta.clone(), 3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.events()[0].at(), Time::from_int(7));
        // An oversized request degrades to a full snapshot.
        assert_eq!(rec.snapshot_tail(meta.clone(), 1000).len(), 10);
        assert_eq!(rec.snapshot(meta).len(), 10);
    }

    #[test]
    fn poisoned_recorder_keeps_its_log() {
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        rec.record(ObsEvent::Wake {
            proc: 0,
            at: Time::ZERO,
        });
        // Panic while holding the buffer lock: the mutex is now
        // poisoned, but no event was lost.
        let holder = std::sync::Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = holder.lock();
            panic!("worker exited");
        })
        .join();
        assert_eq!(rec.len(), 1, "poisoning must not lose the log");
        assert!(!rec.is_empty());
        rec.record(ObsEvent::Wake {
            proc: 1,
            at: Time::ONE,
        });
        let log = std::sync::Arc::try_unwrap(rec)
            .unwrap()
            .into_log(RunMeta::new("test", 2));
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = std::sync::Arc::new(MemoryRecorder::new());
        let handles: Vec<_> = (0..4u32)
            .map(|i| {
                let rec = std::sync::Arc::clone(&rec);
                std::thread::spawn(move || {
                    rec.record(ObsEvent::Wake {
                        proc: i,
                        at: Time::from_int(i as i128),
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.len(), 4);
    }
}
