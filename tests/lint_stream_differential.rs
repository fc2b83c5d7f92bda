//! Event-level parity for the **streaming** lint path.
//!
//! Two halves. The first replays every schedule of the acceptance grid
//! (every shipped broadcast algorithm, n ≤ 64, λ ∈ {1, 2, 5/2, 7/3},
//! m ≤ 4, plus adversarially dirtied and lazy schedules) as a sorted
//! event log through `LintStream`, and pins the report **byte-identical**
//! to the seed oracle `lint_schedule_reference`. The replay advances
//! the watermark by receive arrivals, not send starts — off the
//! half-unit lattice when λ = 7/3 — and feeds sends that share a start
//! in reverse canonical order, so finalization order comes from the
//! engine's pending lanes, not from the feed.
//!
//! The second half compares the two CLI paths over recorder logs. The
//! batch path is exactly what `postal-cli lint` does to a JSONL log:
//! serialize, reduce to a schedule file, lint, downgrade. The streaming
//! path is exactly what `lint --stream` does: fold the events through a
//! `LintStream` and apply the same downgrades from the stream's own
//! accounting. The two must stay byte-identical — same diagnostics,
//! same rendered report, same `--format json` output — even when the
//! log is a partial or truncated trace from the ring recorder, where
//! sampling and truncation downgrades must land identically on both
//! paths. (Schedule-level agreement of `lint_schedule` with the seed
//! oracle is pinned by `tests/lint_differential.rs`.)

use postal::algos::{
    flood_schedule, run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, run_repeat_greedy,
    BroadcastTree, ToSchedule,
};
use postal::model::lint::reference::lint_schedule_reference;
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{Latency, Time};
use postal::sim::log_from_report;
use postal::verify::{
    downgrade_partial_trace, downgrade_truncated_trace, json, jsonl_to_schedule_file,
    lint_schedule, render, Diagnostic, LintOptions,
};
use postal_obs::{
    to_jsonl, LintStream, ObsEvent, ObsLog, Recorder, RingRecorder, RunMeta, SampleSpec,
};

fn lambdas() -> Vec<Latency> {
    vec![
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ]
}

/// `schedule` as the sorted event log a recorder snapshot holds: each
/// send at its start, each receive at its arrival `send_start + λ − 1`.
/// Sends sharing a start keep reverse canonical order (the sort is
/// stable), so the engine must reorder them itself.
fn sorted_log_events(schedule: &Schedule) -> Vec<ObsEvent> {
    let lam = schedule.latency().as_time();
    let mut events = Vec::with_capacity(2 * schedule.len());
    for (seq, s) in schedule.sends().iter().enumerate().rev() {
        let arrival = s.send_start + lam - Time::ONE;
        events.push(ObsEvent::Send {
            seq: seq as u64,
            src: s.src,
            dst: s.dst,
            start: s.send_start,
            finish: s.send_start + Time::ONE,
        });
        events.push(ObsEvent::Recv {
            seq: seq as u64,
            src: s.src,
            dst: s.dst,
            arrival,
            start: arrival,
            finish: arrival + Time::ONE,
            queued: false,
        });
    }
    events.sort_by_key(|e| e.at());
    events
}

/// Asserts the `LintStream` replay of `schedule` emits the oracle's
/// bytes: rendered report and JSON array, plus the raw diagnostic
/// values.
fn assert_identical(schedule: &Schedule, opts: &LintOptions, context: &str) {
    let mut stream = LintStream::new(schedule.n(), schedule.latency(), *opts);
    for ev in sorted_log_events(schedule) {
        stream.on_event(&ev);
    }
    assert!(
        !stream.out_of_order(),
        "sorted replay tripped ordering: {context}"
    );
    let streamed = stream.finish();
    let oracle = lint_schedule_reference(schedule, opts);
    assert_eq!(streamed, oracle, "diagnostics diverge: {context}");
    assert_eq!(
        render::render_report(&streamed, context),
        render::render_report(&oracle, context),
        "rendered report diverges: {context}"
    );
    assert_eq!(
        json::diagnostics_to_json(&streamed),
        json::diagnostics_to_json(&oracle),
        "JSON output diverges: {context}"
    );
}

#[test]
fn single_message_grid_is_byte_identical() {
    for lam in lambdas() {
        for n in 2..=64u64 {
            let opts = LintOptions::default();
            let report = run_bcast(n as usize, lam);
            let bcast = report.trace.to_schedule(n as u32, lam);
            assert_identical(&bcast, &opts, &format!("bcast n={n} λ={lam}"));

            let tree = BroadcastTree::build(n, lam).to_schedule();
            assert_identical(&tree, &opts, &format!("tree n={n} λ={lam}"));

            let flood = flood_schedule(n, lam);
            assert_identical(&flood.schedule, &opts, &format!("flood n={n} λ={lam}"));
        }
    }
}

#[test]
fn multi_message_grid_is_byte_identical() {
    for lam in lambdas() {
        for &n in &[2usize, 5, 9, 14, 24, 33, 48, 64] {
            for m in 1..=4u32 {
                let opts = LintOptions::broadcast_of(m as u64);
                for (name, report) in [
                    ("repeat", run_repeat(n, m, lam)),
                    ("repeat-greedy", run_repeat_greedy(n, m, lam)),
                    ("pack", run_pack(n, m, lam)),
                    ("pipeline", run_pipeline(n, m, lam)),
                    ("line", run_dtree(n, m, lam, 1)),
                    ("binary", run_dtree(n, m, lam, 2)),
                    ("star", run_dtree(n, m, lam, n as u64 - 1)),
                ] {
                    let schedule = report.report.trace.to_schedule(n as u32, lam);
                    assert_identical(&schedule, &opts, &format!("{name} n={n} m={m} λ={lam}"));
                }
            }
        }
    }
}

/// Shifts send `idx` one unit earlier, keeping everything else intact.
fn shift_back_one(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends[idx].send_start -= Time::ONE;
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

/// Drops send `idx`, typically uninforming a subtree (`P0005`).
fn drop_send(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends.remove(idx);
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

/// Redirects send `idx` out of range (`P0004`).
fn corrupt_dst(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends[idx].dst = schedule.n() + 7;
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

#[test]
fn dirty_schedules_are_byte_identical() {
    // Every mutation of every tree schedule in the small grid: the
    // replay must match the oracle on *broken* inputs — where
    // diagnostics exist, suppression kicks in, and finalization order
    // actually matters.
    for lam in lambdas() {
        for n in 2..=24u64 {
            let tree = BroadcastTree::build(n, lam).to_schedule();
            for idx in 0..tree.len() {
                for (what, dirty) in [
                    ("shift", shift_back_one(&tree, idx)),
                    ("drop", drop_send(&tree, idx)),
                    ("corrupt", corrupt_dst(&tree, idx)),
                ] {
                    for opts in [LintOptions::default(), LintOptions::ports_only()] {
                        assert_identical(
                            &dirty,
                            &opts,
                            &format!("{what} idx={idx} tree n={n} λ={lam}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn idle_and_gap_warnings_are_byte_identical() {
    // A deliberately lazy line schedule: valid, but full of P0006 idle
    // gaps and a P0007 optimality gap — the quality-stage codes the
    // clean grid rarely exercises.
    for lam in lambdas() {
        for n in 3..=16u32 {
            let mut sends = Vec::new();
            for p in 0..n - 1 {
                // Each hop waits two extra units after learning.
                let start = Time::from_int(p as i128 * 4) + lam.as_time();
                sends.push(TimedSend {
                    src: p,
                    dst: p + 1,
                    send_start: start,
                });
            }
            let lazy = Schedule::new(n, lam, sends);
            assert_identical(
                &lazy,
                &LintOptions::default(),
                &format!("lazy n={n} λ={lam}"),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Log-level parity: `lint --stream` vs `lint` over recorder logs,
// sampling, truncation.
// ---------------------------------------------------------------------

/// Batch-lints a log the way `postal-cli lint` does: via JSONL text,
/// `jsonl_to_schedule_file`, and both downgrades.
fn batch_report(log: &ObsLog, opts: &LintOptions) -> Vec<Diagnostic> {
    let text = to_jsonl(log);
    let file = jsonl_to_schedule_file(std::io::Cursor::new(text)).expect("well-formed log");
    let diags = lint_schedule(&file.schedule, opts);
    let dropped = file.dropped_events.unwrap_or(0);
    downgrade_truncated_trace(downgrade_partial_trace(diags, dropped), file.truncated)
}

/// Streams a log through `LintStream` the way `lint --stream` does,
/// applying the same downgrades from the stream's own accounting.
fn streamed_report(log: &ObsLog, opts: &LintOptions) -> Vec<Diagnostic> {
    let meta = log.meta();
    let lam = meta.lambda.expect("uniform lambda");
    let mut stream = LintStream::new(meta.n, lam, *opts);
    for ev in log.events() {
        stream.on_event(ev);
    }
    assert!(!stream.out_of_order(), "sorted log must not trip ordering");
    let truncated = stream.truncated();
    let dropped = meta.dropped_events.unwrap_or(0);
    downgrade_truncated_trace(downgrade_partial_trace(stream.finish(), dropped), truncated)
}

/// Asserts the batch JSONL path and the streaming path agree on `log`,
/// bytes included.
fn assert_log_identical(log: &ObsLog, opts: &LintOptions, context: &str) {
    let batch = batch_report(log, opts);
    let streamed = streamed_report(log, opts);
    assert_eq!(streamed, batch, "log diagnostics diverge: {context}");
    assert_eq!(
        render::render_report(&streamed, context),
        render::render_report(&batch, context),
        "log rendered report diverges: {context}"
    );
    assert_eq!(
        json::diagnostics_to_json(&streamed),
        json::diagnostics_to_json(&batch),
        "log JSON output diverges: {context}"
    );
}

/// A full (unsampled) event log for an optimal BCAST(n, λ) run.
fn bcast_log(n: usize, lam: Latency) -> ObsLog {
    let report = run_bcast(n, lam);
    log_from_report(&report, "event", n as u32, Some(lam), Some(1))
}

/// Replays `log` through a `RingRecorder` configured with `spec` and
/// per-shard capacity `cap`, yielding the sampled/overflowed log the
/// CLI's `--sample`/ring paths would have produced.
fn resample(log: &ObsLog, spec: SampleSpec, cap: usize) -> ObsLog {
    let ring = RingRecorder::with_spec(cap, spec);
    for ev in log.events() {
        ring.record(ev.clone());
    }
    let meta = RunMeta::new(log.meta().engine.as_str(), log.meta().n)
        .latency(log.meta().lambda.expect("uniform lambda"))
        .messages(log.meta().messages.unwrap_or(1));
    ring.into_log(meta)
}

#[test]
fn full_logs_agree_with_batch() {
    for lam in lambdas() {
        for n in [2usize, 5, 14, 33, 64] {
            let log = bcast_log(n, lam);
            assert_log_identical(
                &log,
                &LintOptions::default(),
                &format!("full log n={n} λ={lam}"),
            );
        }
    }
}

#[test]
fn sampled_logs_downgrade_identically() {
    // Sampling drops events, so absence lints (P0003, P0005) fire and
    // must be downgraded to warnings with the same note on both paths.
    for lam in lambdas() {
        for n in [9usize, 24, 48] {
            let full = bcast_log(n, lam);
            for spec_text in ["rate:2", "rate:3", "head,rate:2"] {
                let spec = SampleSpec::parse(spec_text).expect("valid spec");
                let sampled = resample(&full, spec, 1 << 12);
                assert!(
                    sampled.meta().is_partial(),
                    "rate sampling on n={n} must drop events"
                );
                assert_log_identical(
                    &sampled,
                    &LintOptions::default(),
                    &format!("sampled {spec_text} n={n} λ={lam}"),
                );
            }
        }
    }
}

#[test]
fn ring_overflow_downgrades_identically() {
    // A tiny tail ring overwrites the oldest events: dropped > 0 with
    // no explicit sampling. Both paths must see the same partial trace.
    let lam = Latency::from_ratio(5, 2);
    let full = bcast_log(48, lam);
    let tiny = resample(&full, SampleSpec::all(), 4);
    assert!(tiny.meta().is_partial(), "tiny ring must overflow");
    assert_log_identical(&tiny, &LintOptions::default(), "ring overflow n=48");
}

#[test]
fn truncated_logs_downgrade_identically() {
    // Cut a clean run short and latch a Truncated marker: the stream
    // must pick the flag up from the event, the batch path from the
    // JSONL line, and both must emit the same combined downgrade note.
    let lam = Latency::from_int(2);
    let full = bcast_log(24, lam);
    let keep = full.len() / 2;
    let mut events: Vec<ObsEvent> = full.events()[..keep].to_vec();
    let at = events.last().map(|e| e.at()).unwrap_or(Time::ZERO);
    events.push(ObsEvent::Truncated {
        processed: keep as u64,
        limit: keep as u64,
        at,
    });

    // Truncation alone (complete recorder, early stop)...
    let meta = RunMeta::new("event", 24)
        .latency(lam)
        .messages(1)
        .dropped(0);
    let log = ObsLog::new(meta, events.clone());
    assert_log_identical(&log, &LintOptions::default(), "truncated n=24");

    // ...and truncation *composed with* sampling drops: the downgrade
    // must collapse both causes into one combined note on both paths.
    let meta = RunMeta::new("event", 24)
        .latency(lam)
        .messages(1)
        .dropped(7)
        .sampled("rate:3");
    let log = ObsLog::new(meta, events);
    assert_log_identical(&log, &LintOptions::default(), "truncated+sampled n=24");
}

#[test]
fn zero_event_logs_agree_with_batch() {
    // Nothing but a header: every finish-time pass (coverage, origin)
    // runs against an empty index. P0005 must fire identically for the
    // n−1 uninformed processors on both paths.
    for n in [1u32, 4, 16] {
        let meta = RunMeta::new("event", n)
            .latency(Latency::from_int(2))
            .messages(1)
            .dropped(0);
        let log = ObsLog::new(meta, Vec::new());
        assert_log_identical(&log, &LintOptions::default(), &format!("empty log n={n}"));
    }
}
