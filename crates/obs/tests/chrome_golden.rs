//! Golden-file tests for the exporters: the exact bytes for fixed logs
//! are pinned so format drift is caught.
//!
//! * a BCAST(3, λ=5/2) log of sends and receives, through the Chrome
//!   trace exporter;
//! * a log holding every event kind at on- and off-lattice times (and
//!   one time whose numerator does not fit an `i64`), under a full and
//!   an empty [`RunMeta`], through the Chrome, Prometheus and JSONL
//!   exporters.
//!
//! To re-bless after an intentional format change:
//! `UPDATE_GOLDEN=1 cargo test -p postal-obs --test chrome_golden`

use postal_model::{Latency, Time};
use postal_obs::{to_chrome_trace, to_jsonl, to_prometheus, ObsEvent, ObsLog, RunMeta};

fn bcast3_log() -> ObsLog {
    // BCAST on 3 processors at λ = 5/2: p0 sends to p1 at t=0 and to
    // p2 at t=1; each receive occupies [start+3/2, start+5/2).
    let lam = Latency::from_ratio(5, 2);
    let pair = |seq: u64, src: u32, dst: u32, at: Time| {
        vec![
            ObsEvent::Send {
                seq,
                src,
                dst,
                start: at,
                finish: at + Time::ONE,
            },
            ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival: at + Time::new(3, 2),
                start: at + Time::new(3, 2),
                finish: at + Time::new(5, 2),
                queued: false,
            },
        ]
    };
    let mut events = pair(0, 0, 1, Time::ZERO);
    events.extend(pair(1, 0, 2, Time::ONE));
    ObsLog::new(RunMeta::new("event", 3).latency(lam).messages(1), events)
}

/// Every [`ObsEvent`] kind on four processors at λ = 7/3, with the
/// times 0, 3, 5/2, 7/3, 1/3, 22/7 and a truncation instant whose
/// numerator (2⁶⁴ + 1) is beyond `i64`.
fn all_kinds_events() -> Vec<ObsEvent> {
    let huge = Time::new((1i128 << 64) + 1, 3);
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
            src: 0,
            dst: 2,
            start: Time::new(1, 3),
            finish: Time::new(4, 3),
        },
        ObsEvent::Recv {
            seq: 0,
            src: 0,
            dst: 1,
            arrival: Time::new(4, 3),
            start: Time::new(4, 3),
            finish: Time::new(7, 3),
            queued: false,
        },
        ObsEvent::Recv {
            seq: 1,
            src: 0,
            dst: 2,
            arrival: Time::new(5, 3),
            start: Time::new(5, 2),
            finish: Time::new(7, 2),
            queued: true,
        },
        ObsEvent::Crash {
            proc: 1,
            at: Time::from_int(3),
        },
        ObsEvent::Wake {
            proc: 3,
            at: Time::from_int(3),
        },
        ObsEvent::Violation {
            seq: 2,
            dst: 2,
            arrival: Time::new(22, 7),
            busy_until: Time::new(7, 2),
        },
        ObsEvent::Drop {
            seq: 3,
            src: 1,
            dst: 3,
            at: Time::new(22, 7),
        },
        ObsEvent::Truncated {
            processed: 9,
            limit: 8,
            at: huge,
        },
    ]
}

fn all_kinds_full() -> ObsLog {
    let mut meta = RunMeta::new("event", 4)
        .latency(Latency::from_ratio(7, 3))
        .messages(2)
        .dropped(5)
        .sampled("head,rate:4");
    meta.ring_capacity = Some(64);
    ObsLog::new(meta, all_kinds_events())
}

fn all_kinds_empty() -> ObsLog {
    ObsLog::new(RunMeta::new("threaded", 4), all_kinds_events())
}

/// Compares `got` with `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, got: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        got, want,
        "{name}: exporter output drifted from golden; \
         re-bless with UPDATE_GOLDEN=1 if intentional"
    );
}

#[test]
fn chrome_export_matches_golden() {
    check_golden("chrome_bcast3.json", &to_chrome_trace(&bcast3_log()));
}

#[test]
fn every_event_kind_matches_golden() {
    for (tag, log) in [("full", all_kinds_full()), ("empty", all_kinds_empty())] {
        check_golden(&format!("all_kinds_{tag}.json"), &to_chrome_trace(&log));
        check_golden(&format!("all_kinds_{tag}.prom"), &to_prometheus(&log));
        check_golden(&format!("all_kinds_{tag}.jsonl"), &to_jsonl(&log));
    }
}

/// Bracket/brace balance outside strings: the workspace is hermetic,
/// so shape is validated without a JSON parser.
fn assert_balanced(text: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    for c in text.chars() {
        match c {
            '"' => in_str = !in_str,
            '{' if !in_str => depth_obj += 1,
            '}' if !in_str => depth_obj -= 1,
            '[' if !in_str => depth_arr += 1,
            ']' if !in_str => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0);
    }
    assert_eq!(depth_obj, 0);
    assert_eq!(depth_arr, 0);
    assert!(!in_str);
    assert!(text.contains("\"traceEvents\""));
}

#[test]
fn golden_is_valid_json() {
    assert_balanced(&to_chrome_trace(&bcast3_log()));
    assert_balanced(&to_chrome_trace(&all_kinds_full()));
    assert_balanced(&to_chrome_trace(&all_kinds_empty()));
}
