//! The exporters as they were written with `core::fmt`: one `write!`
//! per row, a `String` per Prometheus number, and the log order as an
//! exact `(time, kind, seq)` key. Kept only as a test oracle for the
//! direct writers in `postal_obs`. Times are formatted here through
//! `core`'s integer `Display`, not through `Ratio`'s, so the oracle
//! does not share the writers' digit routine. The metrics summary is
//! the one-pass fold on exact times that `MetricsSummary::from_log`
//! was before it folded on a log's tick lattice.

use postal_model::{Ratio, Time};
use postal_obs::{
    port_busy_times, Histogram, MetricsSummary, ObsEvent, ObsLog, PortSide, PortSpan,
    StreamingHistogram,
};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// A time's text: the numerator, then `/` and the denominator unless
/// it is 1.
pub struct Exact(Ratio);

impl fmt::Display for Exact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (n, d) = (self.0.numer(), self.0.denom());
        if d == 1 {
            write!(f, "{n}")
        } else {
            write!(f, "{n}/{d}")
        }
    }
}

fn x(t: Time) -> Exact {
    Exact(t.as_ratio())
}

/// Sorts by (timestamp, kind, seq), stably.
pub fn sort_events(events: &mut [ObsEvent]) {
    events.sort_by_cached_key(|e| {
        let seq = match *e {
            ObsEvent::Send { seq, .. }
            | ObsEvent::Recv { seq, .. }
            | ObsEvent::Violation { seq, .. }
            | ObsEvent::Drop { seq, .. } => seq,
            _ => u64::MAX,
        };
        let rank: u8 = match e {
            ObsEvent::Crash { .. } => 0,
            ObsEvent::Send { .. } => 1,
            ObsEvent::Recv { .. } => 2,
            ObsEvent::Violation { .. } => 3,
            ObsEvent::Drop { .. } => 4,
            ObsEvent::Wake { .. } => 5,
            ObsEvent::Truncated { .. } => 6,
        };
        (e.at(), rank, seq)
    });
}

/// JSONL: a header line, then one line per event.
pub fn to_jsonl(log: &ObsLog) -> String {
    let meta = log.meta();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"type\":\"run\",\"engine\":\"{}\",\"n\":{}",
        meta.engine, meta.n
    );
    if let Some(lam) = meta.lambda {
        let _ = write!(out, ",\"lambda\":\"{}\"", Exact(lam.value()));
    }
    if let Some(m) = meta.messages {
        let _ = write!(out, ",\"messages\":{m}");
    }
    if let Some(d) = meta.dropped_events {
        let _ = write!(out, ",\"dropped\":{d}");
    }
    if let Some(s) = &meta.sample {
        let _ = write!(out, ",\"sample\":\"{s}\"");
    }
    if let Some(c) = meta.ring_capacity {
        let _ = write!(out, ",\"ring_capacity\":{c}");
    }
    out.push_str("}\n");
    for e in log.events() {
        let _ = match *e {
            ObsEvent::Send {
                seq,
                src,
                dst,
                start,
                finish,
            } => writeln!(
                out,
                "{{\"type\":\"send\",\"seq\":{seq},\"src\":{src},\"dst\":{dst},\
                 \"start\":\"{}\",\"finish\":\"{}\"}}",
                x(start),
                x(finish)
            ),
            ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival,
                start,
                finish,
                queued,
            } => writeln!(
                out,
                "{{\"type\":\"recv\",\"seq\":{seq},\"src\":{src},\"dst\":{dst},\
                 \"arrival\":\"{}\",\"start\":\"{}\",\"finish\":\"{}\",\
                 \"queued\":{queued}}}",
                x(arrival),
                x(start),
                x(finish)
            ),
            ObsEvent::Wake { proc, at } => writeln!(
                out,
                "{{\"type\":\"wake\",\"proc\":{proc},\"at\":\"{}\"}}",
                x(at)
            ),
            ObsEvent::Violation {
                seq,
                dst,
                arrival,
                busy_until,
            } => writeln!(
                out,
                "{{\"type\":\"violation\",\"seq\":{seq},\"dst\":{dst},\
                 \"arrival\":\"{}\",\"busy_until\":\"{}\"}}",
                x(arrival),
                x(busy_until)
            ),
            ObsEvent::Drop { seq, src, dst, at } => writeln!(
                out,
                "{{\"type\":\"drop\",\"seq\":{seq},\"src\":{src},\"dst\":{dst},\
                 \"at\":\"{}\"}}",
                x(at)
            ),
            ObsEvent::Crash { proc, at } => writeln!(
                out,
                "{{\"type\":\"crash\",\"proc\":{proc},\"at\":\"{}\"}}",
                x(at)
            ),
            ObsEvent::Truncated {
                processed,
                limit,
                at,
            } => writeln!(
                out,
                "{{\"type\":\"truncated\",\"processed\":{processed},\
                 \"limit\":{limit},\"at\":\"{}\"}}",
                x(at)
            ),
        };
    }
    out
}

/// `t` in trace microseconds (1 unit = 1000 µs): one `f64` division
/// while `num·1000` and `den` are exact in an `f64`, else the reduced
/// `t·1000` converted.
fn push_ts(out: &mut String, t: Time) {
    let r = t.as_ratio();
    let exact = r
        .numer()
        .checked_mul(1000)
        .and_then(|n| i64::try_from(n).ok())
        .zip(i64::try_from(r.denom()).ok())
        .filter(|&(n, d)| n.unsigned_abs() < 1 << 53 && d.unsigned_abs() < 1 << 53);
    let v = match exact {
        Some((n, d)) => n as f64 / d as f64,
        None => (r * Ratio::from_int(1000)).to_f64(),
    };
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn open_row(out: &mut String, ph: char, pid: u32, tid: u8, t: Time) {
    let _ = write!(
        out,
        "    {{ \"ph\": \"{ph}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "
    );
    push_ts(out, t);
}

/// Chrome trace-event JSON.
pub fn to_chrome_trace(log: &ObsLog) -> String {
    let meta = log.meta();
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
    let _ = write!(
        out,
        " \"engine\": \"{}\", \"n\": \"{}\"",
        meta.engine, meta.n
    );
    if let Some(lam) = meta.lambda {
        let _ = write!(out, ", \"lambda\": \"{}\"", Exact(lam.value()));
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
                     \"args\": {{ \"seq\": {seq}, \"dst\": {dst}, \"start\": \"{}\" }} }},",
                    x(start)
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
                     \"args\": {{ \"seq\": {seq}, \"src\": {src}, \"arrival\": \"{}\", \
                     \"queued\": {queued} }} }},",
                    x(arrival)
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
                     \"args\": {{ \"busy_until\": \"{}\" }} }},",
                    x(busy_until)
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

fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        "+Inf".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i128)
    } else {
        format!("{v}")
    }
}

fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (bound, count) in h.cumulative() {
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {count}", fmt_f64(bound));
    }
    let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum()));
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// The port busy interval an event occupies: a `Send` on its source's
/// output port, a `Recv` on its destination's input port.
fn port_span(e: &ObsEvent) -> Option<PortSpan> {
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

/// Computes every counter and histogram from a log in one pass: the
/// counters and histograms take each event as the span stream that
/// [`port_busy_times`] sums goes by, so no span list is built.
/// Processors outside `0..n`, which a log read from a file can
/// name, are left out of the per-processor counts and busy times.
pub fn summary(log: &ObsLog) -> MetricsSummary {
    let n = log.meta().n as usize;
    let mut s = MetricsSummary {
        n,
        sends: vec![0; n],
        recvs: vec![0; n],
        queued_recvs: 0,
        violations: 0,
        drops: 0,
        crashes: 0,
        wakes: 0,
        out_busy: Vec::new(),
        in_busy: Vec::new(),
        completion: Time::ZERO,
        latency: Histogram::default(),
        queue_delay: Histogram::default(),
        latency_sketch: StreamingHistogram::new(),
        queue_delay_sketch: StreamingHistogram::new(),
        out_utilization_sketch: StreamingHistogram::new(),
        dropped_events: log.meta().dropped_events.unwrap_or(0),
        truncated: false,
        sample: log.meta().sample.clone(),
    };
    // One entry per send, allocated once.
    let sends = log
        .events()
        .iter()
        .filter(|e| matches!(e, ObsEvent::Send { .. }))
        .count();
    let mut send_starts: HashMap<u64, Time> = HashMap::with_capacity(sends);
    let mut completion = None;
    let spans = log.events().iter().filter_map(|e| {
        match *e {
            ObsEvent::Send {
                seq, src, start, ..
            } => {
                if let Some(c) = s.sends.get_mut(src as usize) {
                    *c += 1;
                }
                send_starts.insert(seq, start);
            }
            ObsEvent::Recv {
                seq,
                dst,
                arrival,
                start,
                finish,
                queued,
                ..
            } => {
                if let Some(c) = s.recvs.get_mut(dst as usize) {
                    *c += 1;
                }
                s.queued_recvs += u64::from(queued);
                completion = completion.max(Some(finish));
                if let Some(&sent) = send_starts.get(&seq) {
                    let sample = (finish - sent).to_f64();
                    s.latency.observe(sample);
                    s.latency_sketch.observe(sample);
                }
                let delay = (start - arrival).to_f64();
                s.queue_delay.observe(delay);
                s.queue_delay_sketch.observe(delay);
            }
            ObsEvent::Violation { .. } => s.violations += 1,
            ObsEvent::Drop { .. } => s.drops += 1,
            ObsEvent::Crash { .. } => s.crashes += 1,
            ObsEvent::Wake { .. } => s.wakes += 1,
            ObsEvent::Truncated { .. } => s.truncated = true,
        }
        port_span(e).filter(|span| (span.proc as usize) < n)
    });
    (s.out_busy, s.in_busy) = port_busy_times(n, spans).into_iter().unzip();
    // As `ObsLog::completion_time`: the last receive's finish.
    s.completion = completion.unwrap_or(Time::ZERO);
    for p in 0..n {
        let (out, _) = s.utilization(p);
        s.out_utilization_sketch.observe(out);
    }
    s
}

/// Prometheus text exposition of [`summary`]`(log)`.
pub fn to_prometheus(log: &ObsLog) -> String {
    let s = summary(log);
    let meta = log.meta();
    let mut out = String::new();
    let _ = writeln!(out, "# HELP postal_run_info Run metadata as labels.");
    let _ = writeln!(out, "# TYPE postal_run_info gauge");
    let lam = meta
        .lambda
        .map(|l| Exact(l.value()).to_string())
        .unwrap_or_else(|| "unknown".into());
    let _ = writeln!(
        out,
        "postal_run_info{{engine=\"{}\",n=\"{}\",lambda=\"{}\",messages=\"{}\",sample=\"{}\"}} 1",
        meta.engine,
        meta.n,
        lam,
        meta.messages
            .map(|m| m.to_string())
            .unwrap_or_else(|| "unknown".into()),
        meta.sample.as_deref().unwrap_or("none"),
    );
    let _ = writeln!(
        out,
        "# HELP postal_recorder_dropped_events_total Events the recorder rejected \
         (sampling or ring overflow); counters above are lower bounds when nonzero."
    );
    let _ = writeln!(out, "# TYPE postal_recorder_dropped_events_total counter");
    let _ = writeln!(
        out,
        "postal_recorder_dropped_events_total {}",
        s.dropped_events
    );
    let _ = writeln!(
        out,
        "# HELP postal_run_truncated Whether the engine hit its event budget \
         and aborted the run; counters above are lower bounds when 1."
    );
    let _ = writeln!(out, "# TYPE postal_run_truncated gauge");
    let _ = writeln!(out, "postal_run_truncated {}", u8::from(s.truncated));
    let _ = writeln!(
        out,
        "# HELP postal_sends_total Messages sent, per processor."
    );
    let _ = writeln!(out, "# TYPE postal_sends_total counter");
    for (p, c) in s.sends.iter().enumerate() {
        let _ = writeln!(out, "postal_sends_total{{proc=\"{p}\"}} {c}");
    }
    let _ = writeln!(
        out,
        "# HELP postal_recvs_total Messages received, per processor."
    );
    let _ = writeln!(out, "# TYPE postal_recvs_total counter");
    for (p, c) in s.recvs.iter().enumerate() {
        let _ = writeln!(out, "postal_recvs_total{{proc=\"{p}\"}} {c}");
    }
    let _ = writeln!(
        out,
        "# HELP postal_port_busy_units Port busy time in model units."
    );
    let _ = writeln!(out, "# TYPE postal_port_busy_units gauge");
    for p in 0..s.n {
        let _ = writeln!(
            out,
            "postal_port_busy_units{{proc=\"{p}\",port=\"out\"}} {}",
            fmt_f64(s.out_busy[p].to_f64())
        );
        let _ = writeln!(
            out,
            "postal_port_busy_units{{proc=\"{p}\",port=\"in\"}} {}",
            fmt_f64(s.in_busy[p].to_f64())
        );
    }
    for (name, help, value) in [
        (
            "postal_queued_recvs_total",
            "Receives delayed by input-port contention.",
            s.queued_recvs,
        ),
        (
            "postal_violations_total",
            "Strict-mode receive-window overlaps.",
            s.violations,
        ),
        (
            "postal_drops_total",
            "Messages dropped by fault injection.",
            s.drops,
        ),
        (
            "postal_crashes_total",
            "Processor crashes injected.",
            s.crashes,
        ),
        ("postal_wakes_total", "Timer wake-ups fired.", s.wakes),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(
        out,
        "# HELP postal_completion_units Model time at which the last receive finished."
    );
    let _ = writeln!(out, "# TYPE postal_completion_units gauge");
    let _ = writeln!(
        out,
        "postal_completion_units {}",
        fmt_f64(s.completion.to_f64())
    );
    let _ = writeln!(
        out,
        "# HELP postal_idle_out_units Output-port idle time summed over informed processors."
    );
    let _ = writeln!(out, "# TYPE postal_idle_out_units gauge");
    let _ = writeln!(out, "postal_idle_out_units {}", fmt_f64(s.idle_out_units()));
    histogram(
        &mut out,
        "postal_message_latency_units",
        "End-to-end message latency (recv finish minus send start), model units.",
        &s.latency,
    );
    histogram(
        &mut out,
        "postal_queue_delay_units",
        "Input-port queueing delay (recv start minus arrival), model units.",
        &s.queue_delay,
    );
    for (name, help, value_of) in [
        (
            "postal_message_latency_quantile_units",
            "End-to-end latency quantiles from the streaming log-bucketed sketch.",
            &(|q| s.latency_quantile(q)) as &dyn Fn(f64) -> f64,
        ),
        (
            "postal_queue_delay_quantile_units",
            "Queueing-delay quantiles from the streaming sketch.",
            &|q| s.queue_delay_quantile(q),
        ),
        (
            "postal_out_port_utilization_quantile",
            "Per-processor output-port utilization quantiles across the fleet.",
            &|q| s.out_utilization_quantile(q),
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} gauge");
        for q in [0.5, 0.9, 0.99] {
            let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", fmt_f64(value_of(q)));
        }
    }
    out
}
