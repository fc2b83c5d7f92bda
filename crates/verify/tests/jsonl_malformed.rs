//! Malformed JSONL never panics or hangs the reader.
//!
//! A small valid log with every event kind is cut at every byte and
//! corrupted one byte at a time: replaced, deleted or duplicated, also
//! inside a multi-byte UTF-8 character, where a corruption can split the
//! character or end a line in its middle. `jsonl_to_schedule_file` and
//! `from_jsonl` must return `Ok` or a located error for every input, and
//! agree with each other wherever both can read it.

use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Latency, Time};
use postal_obs::{from_jsonl, to_jsonl, ObsError, ObsEvent, ObsLog, RunMeta};
use postal_verify::jsonl_to_schedule_file;
use proptest::prelude::*;
use std::io::Cursor;
use std::sync::mpsc;
use std::time::Duration;

/// Errors about the log as a whole, which name no line.
const WHOLE_LOG: [&str; 2] = [
    "empty log: no \"run\" header",
    "log has no uniform lambda; cannot reduce to a schedule",
];

/// A log with every event kind and every header field. The engine name
/// holds two- and three-byte UTF-8 characters.
fn sample_log() -> Vec<u8> {
    let mut meta = RunMeta::new("évènement→ring", 3)
        .latency(Latency::from_ratio(5, 2))
        .messages(2)
        .dropped(1)
        .sampled("tail,rate:8");
    meta.ring_capacity = Some(64);
    let t = Time::new;
    let events = vec![
        ObsEvent::Send {
            seq: 0,
            src: 0,
            dst: 1,
            start: Time::ZERO,
            finish: Time::ONE,
        },
        ObsEvent::Recv {
            seq: 0,
            src: 0,
            dst: 1,
            arrival: t(3, 2),
            start: t(3, 2),
            finish: t(5, 2),
            queued: false,
        },
        ObsEvent::Wake {
            proc: 1,
            at: t(5, 2),
        },
        ObsEvent::Send {
            seq: 1,
            src: 1,
            dst: 2,
            start: t(5, 2),
            finish: t(7, 2),
        },
        ObsEvent::Violation {
            seq: 1,
            dst: 2,
            arrival: Time::from_int(3),
            busy_until: Time::from_int(4),
        },
        ObsEvent::Drop {
            seq: 2,
            src: 1,
            dst: 2,
            at: Time::from_int(4),
        },
        ObsEvent::Crash {
            proc: 2,
            at: Time::from_int(5),
        },
        ObsEvent::Truncated {
            processed: 6,
            limit: 6,
            at: Time::from_int(5),
        },
    ];
    to_jsonl(&ObsLog::new(meta, events)).into_bytes()
}

/// Whether `err` is located: `line N: …` with N a line of the input,
/// `read error: …`, or one of the whole-log errors.
fn located(err: &ObsError, lines: usize) -> bool {
    let text = err.to_string();
    if text.starts_with("read error: ") || WHOLE_LOG.contains(&text.as_str()) {
        return true;
    }
    text.strip_prefix("line ")
        .and_then(|rest| rest.split_once(": "))
        .and_then(|(n, _)| n.parse::<usize>().ok())
        .is_some_and(|n| (1..=lines).contains(&n))
}

fn parts(s: &Schedule) -> (u32, Latency, &[TimedSend]) {
    (s.n(), s.latency(), s.sends())
}

/// Reads `bytes` both ways and checks the outcome.
fn check(bytes: &[u8]) -> Result<(), String> {
    let lines = bytes.split(|&b| b == b'\n').count();
    let file = jsonl_to_schedule_file(Cursor::new(bytes));
    if let Err(e) = &file {
        if !located(e, lines) {
            return Err(format!("jsonl_to_schedule_file: unlocated error {e:?}"));
        }
    }
    let Ok(text) = std::str::from_utf8(bytes) else {
        // A syntax error on an earlier line may come first.
        return match &file {
            Err(_) => Ok(()),
            Ok(_) => Err("invalid UTF-8 read as a log".into()),
        };
    };
    let log = from_jsonl(text);
    match (&log, &file) {
        (Err(e), _) if !located(e, lines) => Err(format!("from_jsonl: unlocated error {e:?}")),
        (Err(a), Err(b)) if a == b => Ok(()),
        (Ok(log), Ok(file))
            if log.to_schedule().as_ref().map(parts) == Ok(parts(&file.schedule)) =>
        {
            Ok(())
        }
        (Ok(log), Err(e)) if log.meta().lambda.is_none() && e.to_string() == WHOLE_LOG[1] => Ok(()),
        _ => Err(format!(
            "the readers disagree: from_jsonl {:?}, jsonl_to_schedule_file {:?}",
            log.map(|l| l.to_schedule().map(|s| s.sends().to_vec())),
            file.map(|f| f.schedule.sends().to_vec())
        )),
    }
}

/// Runs `f` on its own thread and fails if it takes longer than a
/// minute, so a hang fails the test instead of stalling the suite.
fn without_hanging(f: impl FnOnce() + Send + 'static) {
    let (done, wait) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(Duration::from_secs(60)) {
        panic!("a reader hung on malformed input");
    }
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn the_sample_log_reads_cleanly() {
    let bytes = sample_log();
    assert!(
        bytes.iter().any(|b| !b.is_ascii()),
        "holds multi-byte UTF-8"
    );
    check(&bytes).unwrap();
    let file = jsonl_to_schedule_file(Cursor::new(&bytes[..])).unwrap();
    assert_eq!(file.schedule.len(), 2);
    assert!(file.truncated);
}

#[test]
fn every_prefix_reads_or_fails_located() {
    without_hanging(|| {
        let bytes = sample_log();
        for cut in 0..=bytes.len() {
            if let Err(e) = check(&bytes[..cut]) {
                panic!("cut at byte {cut}: {e}");
            }
        }
    });
}

#[test]
fn every_single_byte_corruption_reads_or_fails_located() {
    // Bytes that matter to the grammar, to UTF-8, or to line splitting.
    const BYTES: &[u8] = b"\"\\{}:,\n\r \t0159-+./eEtfxz\x00\x7f\x80\xbf\xc3\xe2\xff";
    without_hanging(|| {
        let bytes = sample_log();
        for at in 0..bytes.len() {
            let mut cut = bytes.clone();
            cut.remove(at);
            let mut doubled = bytes.clone();
            doubled.insert(at, bytes[at]);
            for (what, input) in [("deleted", cut), ("doubled", doubled)] {
                if let Err(e) = check(&input) {
                    panic!("byte {at} {what}: {e}");
                }
            }
            for &b in BYTES {
                let mut input = bytes.clone();
                input[at] = b;
                if let Err(e) = check(&input) {
                    panic!("byte {at} replaced by {b:#04x}: {e}");
                }
            }
        }
    });
}

#[test]
fn corruptions_inside_a_multibyte_character() {
    let bytes = sample_log();
    let inside: Vec<usize> = (0..bytes.len())
        .filter(|&i| bytes[i] & 0xc0 == 0x80)
        .collect();
    assert!(inside.len() >= 3, "the engine name has continuation bytes");
    for &at in &inside {
        // A newline here ends the header line in the middle of a
        // character; the line cannot be read as UTF-8.
        let mut split = bytes.clone();
        split[at] = b'\n';
        assert_eq!(
            jsonl_to_schedule_file(Cursor::new(&split[..]))
                .unwrap_err()
                .to_string(),
            "read error: stream did not contain valid UTF-8"
        );
        check(&split).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_single_byte_corruptions(at in 0usize..4096, byte in any::<u8>(), op in 0u8..3) {
        let mut input = sample_log();
        let at = at % input.len();
        match op {
            0 => input[at] = byte,
            1 => input.insert(at, byte),
            _ => {
                input.remove(at);
            }
        }
        let outcome = check(&input);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
