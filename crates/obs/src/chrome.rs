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
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends `    { "ph": "<ph>", "pid": <pid>, "tid": <tid>, "ts": <t>`,
/// the opening every event row shares.
fn open_row(out: &mut String, ph: char, pid: u32, tid: u8, t: Time) {
    let _ = write!(
        out,
        "    {{ \"ph\": \"{ph}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "
    );
    push_ts(out, t);
}

/// Serializes a log as Chrome trace-event JSON, appending every line to
/// one output string.
pub fn to_chrome_trace(log: &ObsLog) -> String {
    let meta = log.meta();
    // Sized once for the whole trace (lines run to about 95 bytes per
    // processor-name row and 190 per event) so it is not grown by
    // doubling, which would hold up to twice the trace in memory.
    let rows = 3 * meta.n as usize * 96 + log.len() * 192;
    let mut out = String::with_capacity(256 + rows);
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
    let _ = write!(
        out,
        " \"engine\": \"{}\", \"n\": \"{}\"",
        meta.engine, meta.n
    );
    if let Some(lam) = meta.lambda {
        let _ = write!(out, ", \"lambda\": \"{lam}\"");
    }
    if let Some(m) = meta.messages {
        let _ = write!(out, ", \"messages\": \"{m}\"");
    }
    if let Some(d) = meta.dropped_events {
        let _ = write!(out, ", \"dropped_events\": \"{d}\"");
    }
    if let Some(s) = &meta.sample {
        let _ = write!(out, ", \"sample\": \"{s}\"");
    }
    out.push_str(" },\n  \"traceEvents\": [\n");

    // Every row ends in ",\n"; the last row's comma is cut below.
    for p in 0..meta.n {
        let _ = writeln!(
            out,
            "    {{ \"ph\": \"M\", \"pid\": {p}, \"tid\": 0, \"name\": \"process_name\", \
             \"args\": {{ \"name\": \"p{p}\" }} }},\n    \
             {{ \"ph\": \"M\", \"pid\": {p}, \"tid\": 0, \"name\": \"thread_name\", \
             \"args\": {{ \"name\": \"out port\" }} }},\n    \
             {{ \"ph\": \"M\", \"pid\": {p}, \"tid\": 1, \"name\": \"thread_name\", \
             \"args\": {{ \"name\": \"in port\" }} }},"
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
                open_row(&mut out, 'X', src, 0, start);
                out.push_str(", \"dur\": ");
                push_ts(&mut out, finish - start);
                let _ = writeln!(
                    out,
                    ", \"name\": \"send #{seq} -> p{dst}\", \
                     \"args\": {{ \"seq\": {seq}, \"dst\": {dst}, \"start\": \"{start}\" }} }},"
                );
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
                open_row(&mut out, 'X', dst, 1, start);
                out.push_str(", \"dur\": ");
                push_ts(&mut out, finish - start);
                let _ = writeln!(
                    out,
                    ", \"name\": \"recv #{seq} <- p{src}\", \
                     \"args\": {{ \"seq\": {seq}, \"src\": {src}, \"arrival\": \"{arrival}\", \
                     \"queued\": {queued} }} }},"
                );
            }
            ObsEvent::Wake { proc, at } => {
                open_row(&mut out, 'i', proc, 0, at);
                out.push_str(", \"s\": \"t\", \"name\": \"wake\" },\n");
            }
            ObsEvent::Violation {
                seq,
                dst,
                arrival,
                busy_until,
            } => {
                open_row(&mut out, 'i', dst, 1, arrival);
                let _ = writeln!(
                    out,
                    ", \"s\": \"p\", \"name\": \"violation #{seq}\", \
                     \"args\": {{ \"busy_until\": \"{busy_until}\" }} }},"
                );
            }
            ObsEvent::Drop { seq, src, dst, at } => {
                open_row(&mut out, 'i', dst, 1, at);
                let _ = writeln!(
                    out,
                    ", \"s\": \"p\", \"name\": \"drop #{seq} <- p{src}\" }},"
                );
            }
            ObsEvent::Crash { proc, at } => {
                open_row(&mut out, 'i', proc, 0, at);
                out.push_str(", \"s\": \"p\", \"name\": \"crash\" },\n");
            }
            ObsEvent::Truncated {
                processed,
                limit,
                at,
            } => {
                open_row(&mut out, 'i', 0, 0, at);
                let _ = writeln!(
                    out,
                    ", \"s\": \"g\", \"name\": \"truncated: event budget exhausted\", \
                     \"args\": {{ \"processed\": {processed}, \"limit\": {limit} }} }},"
                );
            }
        }
    }
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
