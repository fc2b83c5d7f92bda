//! Malformed JSONL never panics or hangs the reader.
//!
//! A small valid log with every event kind is cut at every byte and
//! corrupted one byte at a time: replaced, deleted or duplicated, also
//! inside a multi-byte UTF-8 character, where a corruption can split the
//! character or end a line in its middle. `jsonl_to_schedule_file` and
//! `from_jsonl` must return `Ok` or a located error for every input, and
//! agree with each other wherever both can read it.
//!
//! Huge integers are bounded at the readers: a time or λ beyond the
//! documented input bounds (`Time::check_input`,
//! `Latency::check_input`) is a located error in the JSONL reader and
//! in the schedule-JSON reader, and values on the edge of the bounds
//! lint, batch and streaming, without a panic. The schedule-JSON reader
//! skips unknown values of any shape but caps their nesting.

use postal_model::latency::INPUT_LAMBDA_BITS;
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::{INPUT_DENOM_BITS, INPUT_NUMER_BITS};
use postal_model::{Latency, Ratio, Time};
use postal_obs::{from_jsonl, to_jsonl, LintStream, ObsError, ObsEvent, ObsLog, RunMeta};
use postal_verify::json::{parse_schedule_reader, schedule_to_json};
use postal_verify::{jsonl_to_schedule_file, lint_schedule, LintOptions, TopologySpec};
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

/// Whether `err` is located: `line N: …` with N a line of the input
/// (a line that is not valid UTF-8 too), or one of the whole-log errors.
fn located(err: &ObsError, lines: usize) -> bool {
    let text = err.to_string();
    if WHOLE_LOG.contains(&text.as_str()) {
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
            "line 1: read error: stream did not contain valid UTF-8"
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

/// The JSONL reproducers: a send start of `i128::MAX` (which overflowed
/// the linter's `start + 1`) and λ = 2³¹ − 1 (whose `F_λ` tick table
/// would take 32 GiB), each with the line the error must name.
const HUGE_JSONL: [(&str, &str); 3] = [
    (
        "{\"type\":\"run\",\"engine\":\"e\",\"n\":3,\"lambda\":\"2\"}\n\
         {\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\
         \"start\":\"170141183460469231731687303715884105727\",\"finish\":\"1\"}\n",
        "line 2: \"start\": 170141183460469231731687303715884105727 is out of range",
    ),
    (
        "{\"type\":\"run\",\"engine\":\"e\",\"n\":2,\"lambda\":\"2147483647\"}\n",
        "line 1: invalid lambda: 2147483647 is out of range",
    ),
    (
        "{\"type\":\"run\",\"engine\":\"e\",\"n\":2,\"lambda\":\"2\"}\n\
         {\"type\":\"wake\",\"proc\":0,\"at\":\"1/18446744073709551616\"}\n",
        "line 2: \"at\": 1/18446744073709551616 is out of range",
    ),
];

/// The out-of-range message for a time read from a file.
fn time_out_of_range(at: impl std::fmt::Display) -> String {
    format!(
        "{at} is out of range (a time's numerator must lie within ±2^53 and its \
         denominator be at most 2^32)"
    )
}

/// The out-of-range message for a λ read from a file.
fn lambda_out_of_range(lambda: impl std::fmt::Display) -> String {
    format!("{lambda} is out of range (λ's numerator and denominator must be at most 2^16)")
}

/// The schedule-JSON reproducers: sends at `(2⁶³ − 1)/3` and
/// `1/i128::MAX` (whose comparison overflowed while sorting) and
/// λ = 2³¹ − 1, with the error the reader must give.
fn huge_schedules() -> [(&'static str, String); 3] {
    [
        (
            r#"{"n":3,"lambda":"2","sends":[{"src":0,"dst":1,"at":"9223372036854775807/3"},
            {"src":0,"dst":2,"at":"1/170141183460469231731687303715884105727"}]}"#,
            format!(
                "sends[0]: \"at\": {}",
                time_out_of_range("9223372036854775807/3")
            ),
        ),
        (
            r#"{"n":3,"lambda":"2","sends":[{"src":0,"dst":1,"at":0},
            {"src":0,"dst":2,"at":"1/170141183460469231731687303715884105727"}]}"#,
            format!(
                "sends[1]: \"at\": {}",
                time_out_of_range("1/170141183460469231731687303715884105727")
            ),
        ),
        (
            r#"{"n":2,"lambda":"2147483647","sends":[{"src":0,"dst":1,"at":0}]}"#,
            format!("invalid \"lambda\": {}", lambda_out_of_range(2147483647)),
        ),
    ]
}

#[test]
fn huge_integers_fail_located() {
    for (text, want) in HUGE_JSONL {
        let batch = jsonl_to_schedule_file(Cursor::new(text.as_bytes())).unwrap_err();
        assert!(batch.to_string().starts_with(want), "{batch}");
        assert!(located(&batch, text.lines().count()), "{batch}");
        assert_eq!(from_jsonl(text).unwrap_err(), batch);
    }
    for (text, want) in huge_schedules() {
        let err = parse_schedule_reader(Cursor::new(text.as_bytes())).unwrap_err();
        assert_eq!(err.to_string(), want);
    }
}

#[test]
fn values_just_past_the_bounds_fail_and_on_them_read() {
    let (num, den, lam) = (
        1i128 << INPUT_NUMER_BITS,
        1i128 << INPUT_DENOM_BITS,
        1i128 << INPUT_LAMBDA_BITS,
    );
    let schedule = |lambda: Ratio, at: Ratio| {
        format!(r#"{{"n":2,"lambda":"{lambda}","sends":[{{"src":0,"dst":1,"at":"{at}"}}]}}"#)
    };
    let bad_lambda = |l: Ratio| format!("invalid \"lambda\": {}", lambda_out_of_range(l));
    let bad_at = |at: Ratio| format!("sends[0]: \"at\": {}", time_out_of_range(at));
    for (lambda, at, want) in [
        (Ratio::from_int(lam), Ratio::new(num, 1), None),
        (Ratio::from_int(lam), Ratio::new(-num, 1), None),
        (Ratio::new(lam, lam - 1), Ratio::new(1, den), None),
        (
            Ratio::from_int(lam + 1),
            Ratio::ZERO,
            Some(bad_lambda(Ratio::from_int(lam + 1))),
        ),
        (
            Ratio::new(lam + 1, lam),
            Ratio::ZERO,
            Some(bad_lambda(Ratio::new(lam + 1, lam))),
        ),
        (
            Ratio::from_int(2),
            Ratio::new(num + 1, 1),
            Some(bad_at(Ratio::new(num + 1, 1))),
        ),
        (
            Ratio::from_int(2),
            Ratio::new(-num - 1, 1),
            Some(bad_at(Ratio::new(-num - 1, 1))),
        ),
        (
            Ratio::from_int(2),
            Ratio::new(1, den + 1),
            Some(bad_at(Ratio::new(1, den + 1))),
        ),
    ] {
        let ok = want.is_none();
        let text = schedule(lambda, at);
        match (parse_schedule_reader(Cursor::new(text.as_bytes())), want) {
            (Ok(file), None) => {
                assert_eq!(file.schedule.n(), 2, "{text}");
                assert_eq!(file.schedule.latency().as_time(), Time(lambda), "{text}");
                let send = TimedSend {
                    src: 0,
                    dst: 1,
                    send_start: Time(at),
                };
                assert_eq!(file.schedule.sends(), [send], "{text}");
            }
            (Err(e), Some(want)) => assert_eq!(e.to_string(), want, "{text}"),
            (got, want) => panic!("{text}: read {:?}, want {want:?}", got.map(|_| ())),
        }
        let jsonl = format!(
            "{{\"type\":\"run\",\"engine\":\"e\",\"n\":2,\"lambda\":\"{lambda}\"}}\n\
             {{\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\"start\":\"{at}\",\
             \"finish\":\"{at}\"}}\n"
        );
        assert_eq!(from_jsonl(&jsonl).is_ok(), ok, "{jsonl}");
        let file = jsonl_to_schedule_file(Cursor::new(jsonl.as_bytes()));
        assert_eq!(file.is_ok(), ok, "{jsonl}");
        if let Err(e) = file {
            assert!(located(&e, 2), "{e}");
        }
    }
}

#[test]
fn unknown_values_nested_100_deep_still_read() {
    let value = format!("{}{}", "[".repeat(100), "]".repeat(100));
    for text in [
        format!(r#"{{"n":3,"lambda":2,"x":{value},"sends":[{{"src":0,"dst":1,"at":0}}]}}"#),
        format!(r#"{{"n":3,"lambda":2,"sends":[{{"src":0,"dst":1,"at":0,"x":{value}}}]}}"#),
    ] {
        let file = parse_schedule_reader(Cursor::new(text.as_bytes())).unwrap();
        let send = TimedSend {
            src: 0,
            dst: 1,
            send_start: Time::ZERO,
        };
        assert_eq!(file.schedule.sends(), [send]);
    }
}

/// A time on or near the edges of the input bounds.
fn arb_edge_time() -> impl Strategy<Value = Time> {
    (0u8..4, 0u8..4, 0i128..=3, any::<bool>()).prop_map(|(nb, db, off, neg)| {
        let num = match nb {
            0 => off,
            1 => (1 << 31) + off,
            2 => (1 << INPUT_NUMER_BITS) - off,
            _ => (3 << 40) + off,
        };
        let den = match db {
            0 => 1 + off,
            1 => (1 << 16) - off,
            2 => (1 << INPUT_DENOM_BITS) - 5 - off,
            _ => 1 << INPUT_DENOM_BITS,
        };
        Time::new(if neg { -num } else { num }, den)
    })
}

/// λ with numerator and denominator on or near the bound.
fn arb_edge_lambda() -> impl Strategy<Value = Latency> {
    (0u8..4, 0u8..4).prop_map(|(a, b)| {
        let pick = |k: u8| match k {
            0 => 1,
            1 => 3,
            2 => (1 << INPUT_LAMBDA_BITS) - 1,
            _ => 1 << INPUT_LAMBDA_BITS,
        };
        let (p, q) = (pick(a), pick(b));
        Latency::from_ratio(p.max(q), p.min(q))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn values_on_the_bounds_lint_without_panic(
        lam in arb_edge_lambda(),
        sends in collection::vec((0u32..4, 0u32..4, arb_edge_time()), 1..8),
        m in 1u64..=u64::MAX,
        ring in any::<bool>(),
    ) {
        let n = 4;
        let lambda = lam.as_time();
        let mut events = Vec::new();
        for (seq, &(src, dst, start)) in sends.iter().enumerate() {
            let seq = seq as u64;
            let finish = (start + Time::ONE).check_input().unwrap_or(start);
            events.push(ObsEvent::Send { seq, src, dst, start, finish });
            let arrival = start + lambda - Time::ONE;
            let finish = arrival + Time::ONE;
            if arrival.check_input().is_ok() && finish.check_input().is_ok() {
                events.push(ObsEvent::Recv {
                    seq, src, dst, arrival, start: arrival, finish, queued: false,
                });
            }
        }
        events.sort_by_key(|e| e.at());
        let text = to_jsonl(&ObsLog::new(RunMeta::new("edge", n).latency(lam).messages(m), events));
        let opts = LintOptions::broadcast_of(m);
        let topo = TopologySpec::Ring.instantiate(n).unwrap();

        // Batch lint, as `lint` runs it on a JSONL log.
        let file = jsonl_to_schedule_file(Cursor::new(text.as_bytes())).unwrap();
        let batch = if ring {
            postal_verify::lint_schedule_with_topology(&file.schedule, &opts, &topo)
        } else {
            lint_schedule(&file.schedule, &opts)
        };
        // Streaming lint, as `lint --stream` runs it.
        let log = from_jsonl(&text).unwrap();
        let mut stream = if ring {
            LintStream::with_topology(n, lam, opts, &topo)
        } else {
            LintStream::new(n, lam, opts)
        };
        for e in log.events() {
            stream.on_event(e);
        }
        let streamed = stream.finish();
        for d in batch.iter().chain(&streamed) {
            let _ = d.to_string();
        }
        // The schedule-JSON reader, on the same schedule.
        let json = schedule_to_json(&file.schedule, Some(m));
        let pulled = parse_schedule_reader(Cursor::new(json.as_bytes())).unwrap();
        prop_assert_eq!(parts(&pulled.schedule), parts(&file.schedule));
        prop_assert_eq!(pulled.messages, Some(m));
        prop_assert_eq!(lint_schedule(&pulled.schedule, &opts), lint_schedule(&file.schedule, &opts));
    }
}
