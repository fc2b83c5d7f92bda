//! Streaming-lint parity under the recorder's failure and concurrency
//! modes.
//!
//! The top-level differential suite pins `LintStream` to the batch
//! engine over clean, sampled, and truncated logs. These tests cover
//! what that suite cannot: real threads interleaving writes across
//! recorder shards, writer threads that die mid-run, concurrent feeds
//! into a [`LintSink`], and runs that record **nothing** — where every
//! diagnostic comes from a finish-time pass over an empty index.

use postal_model::lint::{lint_schedule, Diagnostic, LintCode, LintOptions, Severity};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Latency, Time};
use postal_obs::{LintSink, LintStream, ObsEvent, Recorder, RingRecorder, RunMeta, SampleSpec};
use std::sync::Arc;
use std::thread;

fn lam() -> Latency {
    Latency::from_int(2)
}

/// The star broadcast from processor 0 over `MPS(n, 2)`: send `k`
/// occupies `[k-1, k]`, so ports never overlap and everyone is
/// informed. Returns the schedule and its live-order event stream
/// (sends announced at issue time, receives at completion).
fn star(n: u32) -> (Schedule, Vec<ObsEvent>) {
    let t = Time::from_int;
    let mut sends = Vec::new();
    let mut events = Vec::new();
    for k in 1..n {
        let start = (k - 1) as i128;
        sends.push(TimedSend {
            src: 0,
            dst: k,
            send_start: t(start),
        });
        events.push(ObsEvent::Send {
            seq: (k - 1) as u64,
            src: 0,
            dst: k,
            start: t(start),
            finish: t(start + 1),
        });
        events.push(ObsEvent::Recv {
            seq: (k - 1) as u64,
            src: 0,
            dst: k,
            arrival: t(start + 1),
            start: t(start + 1),
            finish: t(start + 2),
            queued: false,
        });
    }
    // Interleave into emission order: each receive lands λ after its
    // send started, so sort by the instant the engine would emit it
    // (sends at issue time, receives at arrival).
    events.sort_by_key(|e| match *e {
        ObsEvent::Send { start, .. } => (start, 0u8),
        ObsEvent::Recv { arrival, .. } => (arrival, 1u8),
        _ => (Time::ZERO, 2u8),
    });
    (Schedule::new(n, lam(), sends), events)
}

fn batch(schedule: &Schedule) -> Vec<Diagnostic> {
    lint_schedule(schedule, &LintOptions::default())
}

/// Replays a log's events through a `LintStream` and returns the report.
fn replay(n: u32, events: &[ObsEvent]) -> Vec<Diagnostic> {
    let mut stream = LintStream::new(n, lam(), LintOptions::default());
    for ev in events {
        stream.on_event(ev);
    }
    assert!(!stream.out_of_order(), "replay must not trip ordering");
    stream.finish()
}

#[test]
fn interleaved_shard_writes_replay_to_the_batch_report() {
    // Threads scatter one run's events across the recorder's shards in
    // nondeterministic global order; the sorted snapshot must still
    // replay to the exact batch report.
    let n = 33;
    let (schedule, events) = star(n);
    let ring = Arc::new(RingRecorder::with_spec(1 << 12, SampleSpec::all()));
    thread::scope(|s| {
        for chunk in events.chunks(events.len() / 4 + 1) {
            let ring = Arc::clone(&ring);
            s.spawn(move || {
                for ev in chunk {
                    ring.record(ev.clone());
                }
            });
        }
    });
    assert_eq!(ring.dropped_events(), 0, "capacity must hold the run");
    let ring = Arc::try_unwrap(ring).expect("threads joined");
    let log = ring.into_log(RunMeta::new("test", n).latency(lam()));

    // The live watermark policy is sound over a time-sorted feed:
    // arrivals never pass the position's timestamp, so nothing
    // finalizes early.
    assert_eq!(
        replay(n, log.events()),
        batch(&schedule),
        "sorted replay diverges from batch"
    );
}

#[test]
fn dead_writer_thread_loses_nothing_already_recorded() {
    // A writer panics after recording its share: the recorder must
    // recover its locks and the replay must still match batch over the
    // full run.
    let n = 16;
    let (schedule, events) = star(n);
    let half = events.len() / 2;
    let ring = Arc::new(RingRecorder::with_spec(1 << 10, SampleSpec::all()));

    let writer = Arc::clone(&ring);
    let first: Vec<ObsEvent> = events[..half].to_vec();
    let handle = thread::spawn(move || {
        for ev in first {
            writer.record(ev);
        }
        panic!("writer dies mid-run");
    });
    assert!(handle.join().is_err(), "writer must have panicked");

    for ev in &events[half..] {
        ring.record(ev.clone());
    }
    let ring = Arc::try_unwrap(ring).expect("threads joined");
    let log = ring.into_log(RunMeta::new("test", n).latency(lam()));
    assert_eq!(log.len(), events.len(), "no recorded event may be lost");
    assert_eq!(replay(n, log.events()), batch(&schedule));
}

#[test]
fn sink_fed_by_a_dying_thread_still_finishes_the_report() {
    // Same failure against the inline sink: the feeder panics after
    // its half, the main thread finishes the feed, and `finish` must
    // recover the (potentially poisoned) stream with the full report.
    let n = 16;
    let (schedule, events) = star(n);
    let half = events.len() / 2;
    let sink = Arc::new(LintSink::new(n, lam(), LintOptions::default()));

    let feeder = Arc::clone(&sink);
    let first: Vec<ObsEvent> = events[..half].to_vec();
    let handle = thread::spawn(move || {
        for ev in first {
            feeder.record(ev);
        }
        panic!("feeder dies mid-run");
    });
    assert!(handle.join().is_err(), "feeder must have panicked");

    for ev in &events[half..] {
        sink.record(ev.clone());
    }
    let stream = Arc::try_unwrap(sink)
        .ok()
        .expect("feeder joined; sole owner")
        .finish();
    assert!(!stream.out_of_order());
    assert_eq!(stream.finish(), batch(&schedule));
}

#[test]
fn concurrent_sink_feeds_are_honest() {
    // Threads race disjoint slices of one run into a live sink. The
    // interleaving may break the live watermark's ordering contract —
    // that is allowed — but then the sink must SAY so: either the
    // out_of_order flag is up, or the report equals batch. It must
    // never silently diverge.
    let n = 33;
    let (schedule, events) = star(n);
    let want = batch(&schedule);
    for _ in 0..8 {
        let sink = Arc::new(LintSink::new(n, lam(), LintOptions::default()));
        thread::scope(|s| {
            for chunk in events.chunks(events.len() / 4 + 1) {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for ev in chunk {
                        sink.record(ev.clone());
                    }
                });
            }
        });
        let stream = Arc::try_unwrap(sink)
            .ok()
            .expect("threads joined; sole owner")
            .finish();
        if !stream.out_of_order() {
            assert_eq!(stream.finish(), want, "in-order concurrent feed diverged");
        }
    }
}

#[test]
fn zero_event_run_reports_from_finish_time_passes_alone() {
    // Nothing recorded: the online passes never fire and the whole
    // report comes from finish-time passes over an empty index. It must
    // equal batch over the empty schedule — P0005 errors for every
    // uninformed processor past the originator.
    for n in [1u32, 4, 16] {
        let sink = LintSink::new(n, lam(), LintOptions::default());
        let stream = sink.finish();
        assert!(!stream.out_of_order());
        assert!(!stream.truncated());
        let diags = stream.finish();
        assert_eq!(diags, batch(&Schedule::new(n, lam(), Vec::new())));
        let coverage_errors = diags
            .iter()
            .filter(|d| d.code == LintCode::UninformedProcessor && d.severity == Severity::Error)
            .count();
        assert_eq!(
            coverage_errors,
            n as usize - 1,
            "empty run over n={n} must flag every uninformed processor"
        );
    }
}
