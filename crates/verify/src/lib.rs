//! # postal-verify
//!
//! Static analyzer for postal-model schedules and traces, companion to
//! `postal-model`'s [lint engine](postal_model::lint):
//!
//! * **Lint access** — re-exports the engine's stable codes
//!   `P0001`–`P0007` ([`LintCode`]), [`Diagnostic`]s and
//!   [`lint_schedule`], plus `assert_*` helpers that panic with fully
//!   rendered reports (for use in algorithm test suites);
//! * **Trace analysis** — [`flight::schedule_from_trace`] converts an
//!   event-engine [`postal_sim::Trace`] back into a static
//!   [`Schedule`] so executions are
//!   linted by the same rules as hand-written schedules
//!   ([`lint_trace`]);
//! * **Race detection** — [`race::detect_races`] replays a trace's
//!   flights, builds the send→receive happens-before order with
//!   FastTrack-style epochs (O(E + n) in the common case), and flags
//!   deliveries whose observed order is not causally forced (see
//!   [`race`]);
//! * **Interchange** — [`json`] reads and writes the `postal lint`
//!   schedule format, and [`render`] prints rustc-style reports.
//!
//! ## Quick example
//!
//! ```
//! use postal_verify::{json, lint_schedule, LintCode, LintOptions};
//!
//! let file = json::parse_schedule(
//!     r#"{ "n": 3, "lambda": "5/2",
//!          "sends": [ { "src": 0, "dst": 1, "at": "0" },
//!                     { "src": 1, "dst": 2, "at": "1" } ] }"#,
//! ).unwrap();
//! let diags = lint_schedule(&file.schedule, &LintOptions::default());
//! // p1 forwards at t = 1 but only knows the message at t = 5/2:
//! assert_eq!(diags[0].code, LintCode::CausalityViolation);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flight;
pub mod json;
pub mod race;
pub mod render;

pub use flight::{flights_from_deliveries, flights_from_trace, schedule_from_trace, Flight};
pub use postal_model::lint::{
    is_clean, lint_schedule, lint_schedule_with_topology, max_severity, Diagnostic, LintCode,
    LintOptions, Severity,
};
pub use postal_model::{Topology, TopologyError, TopologySpec};
pub use postal_obs::ObsError;
pub use race::{detect_races, Race};

use postal_model::latency::Latency;
use postal_model::schedule::Schedule;
use postal_sim::Trace;

/// Lints `schedule` and panics with a rendered report if any diagnostic
/// reaches `threshold`. Returns the diagnostics otherwise, so callers
/// can make further assertions (e.g. on warnings).
///
/// # Panics
/// When the schedule is not clean at `threshold`.
pub fn assert_clean(
    schedule: &Schedule,
    opts: &LintOptions,
    threshold: Severity,
    context: &str,
) -> Vec<Diagnostic> {
    let diags = lint_schedule(schedule, opts);
    if !is_clean(&diags, threshold) {
        panic!(
            "schedule not lint-clean at {threshold} ({context}):\n{}",
            render::render_report(&diags, context)
        );
    }
    diags
}

/// Asserts a schedule is a valid broadcast: no error-severity lints
/// under [`LintOptions::default`]. The standard check every broadcast
/// algorithm's tests run against its emitted schedule.
///
/// # Panics
/// When any `P0001`–`P0005` (or an impossible `P0007`) fires.
pub fn assert_broadcast_clean(schedule: &Schedule, context: &str) -> Vec<Diagnostic> {
    assert_clean(schedule, &LintOptions::default(), Severity::Error, context)
}

/// Asserts only the port rules (`P0001`, `P0002`, `P0004`) — for
/// schedules that are not single-source broadcasts (gather, all-to-all,
/// multi-message traffic).
///
/// # Panics
/// When any port-rule lint fires.
pub fn assert_ports_clean(schedule: &Schedule, context: &str) -> Vec<Diagnostic> {
    assert_clean(
        schedule,
        &LintOptions::ports_only(),
        Severity::Error,
        context,
    )
}

/// The combined result of linting a trace.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Schedule-level lint findings for the trace's implied schedule.
    pub diagnostics: Vec<Diagnostic>,
    /// Delivery races found by the happens-before detector.
    pub races: Vec<Race>,
}

impl TraceReport {
    /// True when no diagnostic reaches `threshold` (races are reported
    /// separately — they are properties of the traffic pattern, not
    /// violations).
    pub fn is_clean(&self, threshold: Severity) -> bool {
        is_clean(&self.diagnostics, threshold)
    }
}

/// Lints an event-engine trace: converts it to a schedule, runs the
/// schedule lints with `opts`, and runs the happens-before race
/// detector over the trace's flights.
pub fn lint_trace<P>(
    trace: &Trace<P>,
    n: u32,
    latency: Latency,
    opts: &LintOptions,
) -> TraceReport {
    let schedule = schedule_from_trace(trace, n, latency);
    TraceReport {
        diagnostics: lint_schedule(&schedule, opts),
        races: detect_races(n, &flights_from_trace(trace)),
    }
}

/// Parses an observability JSONL log (as written by
/// `postal_obs::to_jsonl` or `postal-cli simulate --events-out`) back
/// into the static schedule its send events realized, ready for
/// [`lint_schedule`].
///
/// # Errors
/// When the text is not a well-formed event log or carries no uniform λ.
pub fn schedule_from_jsonl(text: &str) -> Result<Schedule, ObsError> {
    jsonl_to_schedule_file(std::io::Cursor::new(text)).map(|f| f.schedule)
}

/// Streaming counterpart of [`schedule_from_jsonl`]: folds an
/// observability JSONL log, line by line, directly into the schedule
/// its send events realized — without materializing the log text or
/// the full event list. Non-send events are parsed (so errors are still
/// caught) and dropped; memory is O(sends), not O(events). Lines come
/// through [`postal_obs::LineReader`], one reused buffer, and parse
/// without a heap allocation per line.
///
/// Takes any [`BufRead`](std::io::BufRead), so both in-memory text
/// (via [`std::io::Cursor`]) and buffered file readers feed it.
///
/// # Errors
/// When the reader fails, a line cannot be parsed, the log has no
/// `"run"` header, or the header carries no uniform λ.
pub fn jsonl_to_schedule_file<R: std::io::BufRead>(
    reader: R,
) -> Result<json::ScheduleFile, ObsError> {
    let mut lines = postal_obs::LineReader::new(reader);
    let mut parser = postal_obs::JsonlParser::new();
    let mut sends = Vec::new();
    let mut truncated = false;
    while let Some(line) = lines.next_line()? {
        match parser.line(line)? {
            Some(postal_obs::ObsEvent::Send {
                src, dst, start, ..
            }) => {
                sends.push(postal_model::schedule::TimedSend {
                    src,
                    dst,
                    send_start: start,
                });
            }
            Some(postal_obs::ObsEvent::Truncated { .. }) => truncated = true,
            _ => {}
        }
    }
    let meta = parser.finish()?;
    let lambda = meta
        .lambda
        .ok_or_else(|| ObsError("log has no uniform lambda; cannot reduce to a schedule".into()))?;
    Ok(json::ScheduleFile {
        schedule: Schedule::new(meta.n, lambda, sends),
        messages: meta.messages,
        dropped_events: meta.dropped_events,
        sample: meta.sample,
        truncated,
        topology: None,
    })
}

/// Downgrades absence-based lints on a partial trace.
///
/// A sampled or ring-overflowed log (header `"dropped" > 0`) is missing
/// events, so `P0003` (causality) and `P0005` (coverage) findings may be
/// artifacts of the missing data rather than real violations: a
/// forwarding send whose triggering receive was sampled away looks
/// acausal, and a processor whose informing send was dropped looks
/// uninformed. When `dropped > 0` this rewrites those two codes from
/// [`Severity::Error`] to [`Severity::Warn`] and annotates the message;
/// port-overlap and shape lints (`P0001`, `P0002`, `P0004`) fire on the
/// events that *are* present, so they keep their severity. With
/// `dropped == 0` the diagnostics pass through untouched.
///
/// Composes with [`downgrade_truncated_trace`] in either order: a
/// finding already downgraded for truncation is rewritten to carry
/// **one** combined note naming both causes, never two stacked ones.
pub fn downgrade_partial_trace(diags: Vec<Diagnostic>, dropped: u64) -> Vec<Diagnostic> {
    if dropped == 0 {
        return diags;
    }
    diags
        .into_iter()
        .map(|mut d| {
            let absence_based = matches!(
                d.code,
                LintCode::CausalityViolation | LintCode::UninformedProcessor
            );
            if absence_based {
                if d.severity == Severity::Error {
                    d.severity = Severity::Warn;
                    d.message.push_str(&format!(
                        " (downgraded: trace is partial, {dropped} events dropped by sampling)"
                    ));
                } else if d.severity == Severity::Warn && d.message.ends_with(TRUNCATED_SUFFIX) {
                    // Already downgraded for truncation: merge into the
                    // combined note rather than stacking a second one.
                    d.message.truncate(d.message.len() - TRUNCATED_SUFFIX.len());
                    d.message.push_str(&format!(
                        " (downgraded: trace is partial, {dropped} events dropped by sampling \
                         and run truncated by the event budget)"
                    ));
                }
            }
            d
        })
        .collect()
}

/// The note [`downgrade_truncated_trace`] appends, recognized by
/// [`downgrade_partial_trace`] when merging the two causes.
const TRUNCATED_SUFFIX: &str = " (downgraded: run truncated by the event budget, trace ends early)";

/// The tail of the note [`downgrade_partial_trace`] appends, recognized
/// by [`downgrade_truncated_trace`] when merging the two causes.
const SAMPLING_SUFFIX: &str = " events dropped by sampling)";

/// Downgrades absence-based lints on a truncated trace.
///
/// When the engine aborts on its event budget it emits a final
/// `truncated` event and the log simply *stops*: every send that would
/// have happened after the cutoff is missing. As with sampling
/// ([`downgrade_partial_trace`]), the absence-based codes `P0003`
/// (causality) and `P0005` (coverage) then report artifacts of the
/// missing tail, not real violations — a processor the run never got
/// around to informing is not evidence the algorithm skips it. With
/// `truncated == true` this rewrites those two codes from
/// [`Severity::Error`] to [`Severity::Warn`] and annotates the message;
/// presence-based lints keep their severity. With `truncated == false`
/// the diagnostics pass through untouched.
///
/// Composes with [`downgrade_partial_trace`] in either order: a
/// finding already downgraded for sampling is rewritten to carry
/// **one** combined note naming both causes, never two stacked ones.
pub fn downgrade_truncated_trace(diags: Vec<Diagnostic>, truncated: bool) -> Vec<Diagnostic> {
    if !truncated {
        return diags;
    }
    diags
        .into_iter()
        .map(|mut d| {
            let absence_based = matches!(
                d.code,
                LintCode::CausalityViolation | LintCode::UninformedProcessor
            );
            if absence_based {
                if d.severity == Severity::Error {
                    d.severity = Severity::Warn;
                    d.message.push_str(TRUNCATED_SUFFIX);
                } else if d.severity == Severity::Warn && d.message.ends_with(SAMPLING_SUFFIX) {
                    // Already downgraded for sampling: extend its note
                    // in place into the combined form.
                    d.message.truncate(d.message.len() - 1);
                    d.message
                        .push_str(" and run truncated by the event budget)");
                }
            }
            d
        })
        .collect()
}

/// Lints an observability JSONL log end to end: parse the event stream,
/// reduce it to a schedule, and run the schedule lints with `opts`.
/// This closes the loop between the runtime exporters and the static
/// analyzer — a recorded run can be re-checked offline.
///
/// Partial logs are tolerated: when the header declares dropped events
/// or the stream ends in a `truncated` event (engine event-budget
/// abort), absence-based findings are downgraded via
/// [`downgrade_partial_trace`] / [`downgrade_truncated_trace`] instead
/// of reported as false-positive errors.
///
/// # Errors
/// When the text cannot be parsed or reduced to a schedule.
pub fn lint_jsonl(text: &str, opts: &LintOptions) -> Result<Vec<Diagnostic>, ObsError> {
    let file = jsonl_to_schedule_file(std::io::Cursor::new(text))?;
    let diags = lint_schedule(&file.schedule, opts);
    let diags = downgrade_partial_trace(diags, file.dropped_events.unwrap_or(0));
    Ok(downgrade_truncated_trace(diags, file.truncated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::schedule::TimedSend;
    use postal_model::time::Time;

    fn line3() -> Schedule {
        let lam = Latency::from_ratio(5, 2);
        Schedule::new(
            3,
            lam,
            vec![
                TimedSend {
                    src: 0,
                    dst: 1,
                    send_start: Time::ZERO,
                },
                TimedSend {
                    src: 1,
                    dst: 2,
                    send_start: Time::new(5, 2),
                },
            ],
        )
    }

    #[test]
    fn assert_broadcast_clean_accepts_valid_and_reports_warnings() {
        let diags = assert_broadcast_clean(&line3(), "line3");
        // The line is valid but suboptimal: quality lints may be present.
        assert!(is_clean(&diags, Severity::Error));
        assert!(diags.iter().any(|d| d.code == LintCode::OptimalityGap));
    }

    #[test]
    #[should_panic(expected = "P0003")]
    fn assert_broadcast_clean_panics_with_code() {
        let lam = Latency::from_ratio(5, 2);
        let bad = Schedule::new(
            3,
            lam,
            vec![
                TimedSend {
                    src: 0,
                    dst: 1,
                    send_start: Time::ZERO,
                },
                TimedSend {
                    src: 1,
                    dst: 2,
                    send_start: Time::ONE,
                },
            ],
        );
        assert_broadcast_clean(&bad, "bad");
    }

    #[test]
    fn lint_jsonl_round_trips_a_recorded_run() {
        use postal_obs::{to_jsonl, ObsEvent, ObsLog, RunMeta};
        let lam = Latency::from_ratio(5, 2);
        let log = ObsLog::new(
            RunMeta::new("event", 3).latency(lam).messages(1),
            vec![
                ObsEvent::Send {
                    seq: 0,
                    src: 0,
                    dst: 1,
                    start: Time::ZERO,
                    finish: Time::ONE,
                },
                ObsEvent::Send {
                    seq: 1,
                    src: 1,
                    dst: 2,
                    start: Time::new(5, 2),
                    finish: Time::new(7, 2),
                },
            ],
        );
        let text = to_jsonl(&log);
        let schedule = schedule_from_jsonl(&text).unwrap();
        assert_eq!(schedule.sends().len(), 2);
        let diags = lint_jsonl(&text, &LintOptions::default()).unwrap();
        assert!(is_clean(&diags, Severity::Error));
    }

    #[test]
    fn lint_jsonl_rejects_garbage() {
        assert!(lint_jsonl("not json", &LintOptions::default()).is_err());
    }

    /// A log missing its first send (sampled away): p1 forwards a
    /// message it never visibly received.
    fn partial_log(dropped: u64) -> String {
        use postal_obs::{to_jsonl, ObsEvent, ObsLog, RunMeta};
        let lam = Latency::from_ratio(5, 2);
        let mut meta = RunMeta::new("event", 3).latency(lam).messages(1);
        if dropped > 0 {
            meta = meta.dropped(dropped).sampled("rate:2");
        }
        to_jsonl(&ObsLog::new(
            meta,
            vec![ObsEvent::Send {
                seq: 1,
                src: 1,
                dst: 2,
                start: Time::new(5, 2),
                finish: Time::new(7, 2),
            }],
        ))
    }

    #[test]
    fn sampled_logs_downgrade_absence_lints() {
        // Complete log: the missing informing send is a real error.
        let full = lint_jsonl(&partial_log(0), &LintOptions::default()).unwrap();
        assert!(full
            .iter()
            .any(|d| d.code == LintCode::CausalityViolation && d.severity == Severity::Error));
        assert!(full
            .iter()
            .any(|d| d.code == LintCode::UninformedProcessor && d.severity == Severity::Error));

        // Same events, but the header admits drops: downgraded to warnings.
        let sampled = lint_jsonl(&partial_log(3), &LintOptions::default()).unwrap();
        assert!(is_clean(&sampled, Severity::Error), "{sampled:?}");
        let causality = sampled
            .iter()
            .find(|d| d.code == LintCode::CausalityViolation)
            .expect("finding still reported, just softer");
        assert_eq!(causality.severity, Severity::Warn);
        assert!(causality.message.contains("3 events dropped"));
        assert!(sampled
            .iter()
            .any(|d| d.code == LintCode::UninformedProcessor && d.severity == Severity::Warn));
    }

    #[test]
    fn jsonl_schedule_file_carries_drop_metadata() {
        let file = jsonl_to_schedule_file(std::io::Cursor::new(partial_log(7).as_bytes())).unwrap();
        assert!(file.is_partial());
        assert_eq!(file.dropped_events, Some(7));
        assert_eq!(file.sample.as_deref(), Some("rate:2"));
        let complete =
            jsonl_to_schedule_file(std::io::Cursor::new(partial_log(0).as_bytes())).unwrap();
        assert!(!complete.is_partial());
    }

    /// The same incomplete trace as [`partial_log`], but cut short by
    /// the engine's event budget instead of recorder sampling: the log
    /// ends in a `truncated` event and the header admits no drops.
    fn truncated_log() -> String {
        use postal_obs::{to_jsonl, ObsEvent, ObsLog, RunMeta};
        let lam = Latency::from_ratio(5, 2);
        to_jsonl(&ObsLog::new(
            RunMeta::new("event", 3).latency(lam).messages(1),
            vec![
                ObsEvent::Send {
                    seq: 1,
                    src: 1,
                    dst: 2,
                    start: Time::new(5, 2),
                    finish: Time::new(7, 2),
                },
                ObsEvent::Truncated {
                    processed: 2,
                    limit: 2,
                    at: Time::new(7, 2),
                },
            ],
        ))
    }

    #[test]
    fn truncated_logs_downgrade_absence_lints() {
        let file =
            jsonl_to_schedule_file(std::io::Cursor::new(truncated_log().as_bytes())).unwrap();
        assert!(file.truncated);
        assert!(file.is_partial(), "truncation alone makes a trace partial");
        assert_eq!(file.dropped_events, None);

        let diags = lint_jsonl(&truncated_log(), &LintOptions::default()).unwrap();
        assert!(is_clean(&diags, Severity::Error), "{diags:?}");
        let causality = diags
            .iter()
            .find(|d| d.code == LintCode::CausalityViolation)
            .expect("finding still reported, just softer");
        assert_eq!(causality.severity, Severity::Warn);
        assert!(causality.message.contains("truncated by the event budget"));
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::UninformedProcessor && d.severity == Severity::Warn));
    }

    /// A trace can be sampled *and* budget-truncated at once; the two
    /// downgrades must then merge into one combined note, identically
    /// in either application order.
    #[test]
    fn sampled_and_truncated_downgrades_compose() {
        use postal_model::lint::lint_schedule;

        let file =
            jsonl_to_schedule_file(std::io::Cursor::new(truncated_log().as_bytes())).unwrap();
        let base = lint_schedule(&file.schedule, &LintOptions::default());

        let partial_first =
            downgrade_truncated_trace(downgrade_partial_trace(base.clone(), 3), true);
        let truncated_first =
            downgrade_partial_trace(downgrade_truncated_trace(base.clone(), true), 3);
        assert_eq!(partial_first, truncated_first);

        let causality = partial_first
            .iter()
            .find(|d| d.code == LintCode::CausalityViolation)
            .expect("finding still reported, just softer");
        assert_eq!(causality.severity, Severity::Warn);
        assert!(
            causality.message.ends_with(
                "(downgraded: trace is partial, 3 events dropped by sampling \
                 and run truncated by the event budget)"
            ),
            "{}",
            causality.message
        );
        // One combined note, not two stacked ones.
        assert_eq!(causality.message.matches("(downgraded:").count(), 1);

        // Re-applying either downgrade is a no-op on the merged form.
        assert_eq!(
            downgrade_partial_trace(partial_first.clone(), 3),
            partial_first
        );
        assert_eq!(
            downgrade_truncated_trace(partial_first.clone(), true),
            partial_first
        );
    }
}
