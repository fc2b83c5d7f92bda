//! Chrome trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto. One *process* per postal-model processor, with two
//! *threads* per process — thread 0 is the output port, thread 1 the
//! input port — so the viewer shows exactly the paper's port-occupancy
//! picture: every send a complete (`ph: "X"`) span on the out-port
//! track, every receive a span on the in-port track, and violations,
//! drops and crashes as instant (`ph: "i"`) markers.
//!
//! Model time maps to trace microseconds at 1 unit = 1000 µs, so a
//! λ = 5/2 broadcast completing at 15/2 units spans 7.5 ms in the UI.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::event::ObsEvent;
use crate::log::ObsLog;
use crate::row::{int, time};
use postal_model::text::push_int;
use postal_model::{Ratio, Time};
use std::fmt::Write as _;

/// Microseconds per model unit in the exported trace.
const US_PER_UNIT: i128 = 1000;

/// Magnitudes below this are exact in an `f64`.
const F64_EXACT: u64 = 1 << 53;

/// Appends `t` in trace microseconds. While `num·1000` and `den` are
/// exact in an `f64`, one division gives the correctly rounded value,
/// the same as converting the reduced `t·1000`.
fn push_ts(out: &mut String, t: Time) {
    let r = t.as_ratio();
    let exact = r
        .numer()
        .checked_mul(US_PER_UNIT)
        .and_then(|n| i64::try_from(n).ok())
        .zip(i64::try_from(r.denom()).ok())
        .filter(|&(n, d)| n.unsigned_abs() < F64_EXACT && d.unsigned_abs() < F64_EXACT);
    let x = match exact {
        Some((n, d)) => n as f64 / d as f64,
        None => (r * Ratio::from_int(US_PER_UNIT)).to_f64(),
    };
    // A nonnegative f64 without a trailing `.0` when integral.
    if x.fract() == 0.0 && x.abs() < 1e15 {
        push_int(out, x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// The text of a row field, kept while the value it was written from
/// repeats. Every event time of a postal run is `a + b·λ`, so a run
/// visits few instants, and in a time-sorted log nearly every row
/// repeats the previous row's `ts` (and its span's `dur`): those rows
/// copy the text instead of converting and formatting a float again.
/// An unsorted log stays correct and only reuses less.
struct Reused<K> {
    key: Option<K>,
    text: String,
}

impl<K: PartialEq> Reused<K> {
    fn new() -> Reused<K> {
        Reused {
            key: None,
            text: String::new(),
        }
    }

    /// Appends the text for `key`, writing it with `write` only when
    /// `key` differs from the last one.
    fn push(&mut self, out: &mut String, key: K, write: impl FnOnce(&mut String)) {
        if self.key.as_ref() != Some(&key) {
            self.text.clear();
            write(&mut self.text);
            self.key = Some(key);
        }
        out.push_str(&self.text);
    }
}

/// The per-trace writer state: the output and the last `ts` and `dur`.
struct Writer {
    out: String,
    ts: Reused<Time>,
    dur: Reused<(Time, Time)>,
}

impl Writer {
    /// Appends `    { "ph": "<ph>", "pid": <pid>, "tid": <tid>, "ts": <t>`,
    /// the opening every event row shares.
    fn open_row(&mut self, ph: &str, pid: u32, tid: u8, t: Time) {
        self.out.push_str("    { \"ph\": \"");
        self.out.push_str(ph);
        int(&mut self.out, "\", \"pid\": ", pid);
        int(&mut self.out, ", \"tid\": ", tid);
        self.out.push_str(", \"ts\": ");
        self.ts.push(&mut self.out, t, |s| push_ts(s, t));
    }

    /// Opens a span row on `pid`'s port `tid` and appends its `dur`.
    fn open_span(&mut self, pid: u32, tid: u8, start: Time, finish: Time) {
        self.open_row("X", pid, tid, start);
        self.out.push_str(", \"dur\": ");
        self.dur.push(&mut self.out, (start, finish), |s| {
            push_ts(s, finish - start)
        });
    }
}

/// Serializes a log as Chrome trace-event JSON, appending every field
/// straight into one output string.
pub fn to_chrome_trace(log: &ObsLog) -> String {
    let meta = log.meta();
    // Sized once for the whole trace (lines run to about 95 bytes per
    // processor-name row and 190 per event) so it is not grown by
    // doubling, which would hold up to twice the trace in memory.
    let rows = 3 * meta.n as usize * 96 + log.len() * 192;
    let mut w = Writer {
        out: String::with_capacity(256 + rows),
        ts: Reused::new(),
        dur: Reused::new(),
    };
    let out = &mut w.out;
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": { \"engine\": \"");
    out.push_str(&meta.engine);
    int(out, "\", \"n\": \"", meta.n);
    out.push('"');
    if let Some(lam) = meta.lambda {
        time(out, ", \"lambda\": \"", lam.as_time());
    }
    if let Some(m) = meta.messages {
        int(out, ", \"messages\": \"", m);
        out.push('"');
    }
    if let Some(d) = meta.dropped_events {
        int(out, ", \"dropped_events\": \"", d);
        out.push('"');
    }
    if let Some(s) = &meta.sample {
        out.push_str(", \"sample\": \"");
        out.push_str(s);
        out.push('"');
    }
    out.push_str(" },\n  \"traceEvents\": [\n");

    // Every row ends in ",\n"; the last row's comma is cut below.
    for p in 0..meta.n {
        int(out, "    { \"ph\": \"M\", \"pid\": ", p);
        int(
            out,
            ", \"tid\": 0, \"name\": \"process_name\", \"args\": { \"name\": \"p",
            p,
        );
        int(out, "\" } },\n    { \"ph\": \"M\", \"pid\": ", p);
        int(
            out,
            ", \"tid\": 0, \"name\": \"thread_name\", \"args\": { \"name\": \"out port\" } },\n    \
             { \"ph\": \"M\", \"pid\": ",
            p,
        );
        out.push_str(
            ", \"tid\": 1, \"name\": \"thread_name\", \"args\": { \"name\": \"in port\" } },\n",
        );
    }
    for e in log.events() {
        match *e {
            ObsEvent::Send {
                seq,
                src,
                dst,
                start,
                finish,
            } => {
                w.open_span(src, 0, start, finish);
                let out = &mut w.out;
                int(out, ", \"name\": \"send #", seq);
                int(out, " -> p", dst);
                int(out, "\", \"args\": { \"seq\": ", seq);
                int(out, ", \"dst\": ", dst);
                time(out, ", \"start\": \"", start);
                out.push_str(" } },\n");
            }
            ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival,
                start,
                finish,
                queued,
            } => {
                w.open_span(dst, 1, start, finish);
                let out = &mut w.out;
                int(out, ", \"name\": \"recv #", seq);
                int(out, " <- p", src);
                int(out, "\", \"args\": { \"seq\": ", seq);
                int(out, ", \"src\": ", src);
                time(out, ", \"arrival\": \"", arrival);
                out.push_str(if queued {
                    ", \"queued\": true } },\n"
                } else {
                    ", \"queued\": false } },\n"
                });
            }
            ObsEvent::Wake { proc, at } => {
                w.open_row("i", proc, 0, at);
                w.out.push_str(", \"s\": \"t\", \"name\": \"wake\" },\n");
            }
            ObsEvent::Violation {
                seq,
                dst,
                arrival,
                busy_until,
            } => {
                w.open_row("i", dst, 1, arrival);
                let out = &mut w.out;
                int(out, ", \"s\": \"p\", \"name\": \"violation #", seq);
                time(out, "\", \"args\": { \"busy_until\": \"", busy_until);
                out.push_str(" } },\n");
            }
            ObsEvent::Drop { seq, src, dst, at } => {
                w.open_row("i", dst, 1, at);
                let out = &mut w.out;
                int(out, ", \"s\": \"p\", \"name\": \"drop #", seq);
                int(out, " <- p", src);
                out.push_str("\" },\n");
            }
            ObsEvent::Crash { proc, at } => {
                w.open_row("i", proc, 0, at);
                w.out.push_str(", \"s\": \"p\", \"name\": \"crash\" },\n");
            }
            ObsEvent::Truncated {
                processed,
                limit,
                at,
            } => {
                w.open_row("i", 0, 0, at);
                let out = &mut w.out;
                int(
                    out,
                    ", \"s\": \"g\", \"name\": \"truncated: event budget exhausted\", \
                     \"args\": { \"processed\": ",
                    processed,
                );
                int(out, ", \"limit\": ", limit);
                out.push_str(" } },\n");
            }
        }
    }
    let mut out = w.out;
    if out.ends_with(",\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{ObsLog, RunMeta};
    use postal_model::Latency;

    fn sample_log() -> ObsLog {
        ObsLog::new(
            RunMeta::new("event", 2).latency(Latency::from_ratio(5, 2)),
            vec![
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
                    arrival: Time::new(3, 2),
                    start: Time::new(3, 2),
                    finish: Time::new(5, 2),
                    queued: false,
                },
            ],
        )
    }

    #[test]
    fn spans_land_on_port_tracks() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        // Send on p0's out track, 1 unit = 1000 µs.
        assert!(
            json.contains("\"pid\": 0, \"tid\": 0, \"ts\": 0, \"dur\": 1000"),
            "{json}"
        );
        // Receive on p1's in track at 3/2 units = 1500 µs.
        assert!(
            json.contains("\"pid\": 1, \"tid\": 1, \"ts\": 1500, \"dur\": 1000"),
            "{json}"
        );
        assert!(json.contains("\"lambda\": \"5/2\""));
        assert!(json.contains("thread_name"));
    }

    #[test]
    fn sampled_logs_declare_dropped_events() {
        let mut log = sample_log();
        let meta = log.meta().clone().dropped(9).sampled("head,rate:4");
        log = ObsLog::new(meta, log.events().to_vec());
        let json = to_chrome_trace(&log);
        assert!(json.contains("\"dropped_events\": \"9\""), "{json}");
        assert!(json.contains("\"sample\": \"head,rate:4\""), "{json}");
    }

    fn ts(t: Time) -> String {
        let mut out = String::new();
        push_ts(&mut out, t);
        out
    }

    #[test]
    fn fractional_timestamps_survive() {
        assert_eq!(ts(Time::new(1, 3)), format!("{}", 1000.0 / 3.0));
        assert_eq!(ts(Time::new(15, 2)), "7500");
    }
}
