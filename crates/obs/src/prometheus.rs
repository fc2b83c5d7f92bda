//! Prometheus text-exposition export.
//!
//! Postal runs are batch jobs, not long-lived servers, so this emits
//! the [text exposition format] for a one-shot scrape (file-based
//! collection, `node_exporter` textfile collector, or pushgateway).
//! Counter semantics are per-run totals; histograms use the cumulative
//! `_bucket{le=...}` convention.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::log::ObsLog;
use crate::metrics::{Histogram, MetricsSummary};
use crate::row::int;
use postal_model::text::push_int;
use std::fmt::Write as _;

/// Appends a sample value: `+Inf`, an integral value below 1e15 without
/// a trailing `.0`, or else Rust's shortest round-trip text.
fn push_f64(out: &mut String, x: f64) {
    if x.is_infinite() {
        out.push_str("+Inf");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        push_int(out, x as i128);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends the `# HELP` and `# TYPE` lines of a metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    for (tag, text) in [("# HELP ", help), ("# TYPE ", kind)] {
        out.push_str(tag);
        out.push_str(name);
        out.push(' ');
        out.push_str(text);
        out.push('\n');
    }
}

/// Appends ` <x>` and the line's end.
fn value(out: &mut String, x: f64) {
    out.push(' ');
    push_f64(out, x);
    out.push('\n');
}

fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    family(out, name, "histogram", help);
    for (bound, count) in h.cumulative() {
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        push_f64(out, bound);
        int(out, "\"} ", count);
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_sum");
    value(out, h.sum());
    out.push_str(name);
    int(out, "_count ", h.count());
    out.push('\n');
}

/// Serializes a log's metrics in Prometheus text exposition format,
/// appending every line straight into one output string.
pub fn to_prometheus(log: &ObsLog) -> String {
    let s = MetricsSummary::from_log(log);
    let meta = log.meta();
    // Sized once: four per-processor lines take about 170 bytes, the
    // fixed families about 4.6 KiB.
    let mut out = String::with_capacity(6144 + 176 * s.n);

    family(
        &mut out,
        "postal_run_info",
        "gauge",
        "Run metadata as labels.",
    );
    out.push_str("postal_run_info{engine=\"");
    out.push_str(&meta.engine);
    int(&mut out, "\",n=\"", meta.n);
    out.push_str("\",lambda=\"");
    match meta.lambda {
        Some(l) => {
            let _ = l.value().write_text(&mut out);
        }
        None => out.push_str("unknown"),
    }
    out.push_str("\",messages=\"");
    match meta.messages {
        Some(m) => push_int(&mut out, m),
        None => out.push_str("unknown"),
    }
    out.push_str("\",sample=\"");
    out.push_str(meta.sample.as_deref().unwrap_or("none"));
    out.push_str("\"} 1\n");

    // Honest drop accounting: a scrape of a sampled run must say so.
    family(
        &mut out,
        "postal_recorder_dropped_events_total",
        "counter",
        "Events the recorder rejected (sampling or ring overflow); counters above are \
         lower bounds when nonzero.",
    );
    int(
        &mut out,
        "postal_recorder_dropped_events_total ",
        s.dropped_events,
    );
    out.push('\n');

    // Ditto for engine truncation: a scrape of an aborted run must say so.
    family(
        &mut out,
        "postal_run_truncated",
        "gauge",
        "Whether the engine hit its event budget and aborted the run; counters above are \
         lower bounds when 1.",
    );
    int(&mut out, "postal_run_truncated ", u8::from(s.truncated));
    out.push('\n');

    for (name, help, counts) in [
        (
            "postal_sends_total",
            "Messages sent, per processor.",
            &s.sends,
        ),
        (
            "postal_recvs_total",
            "Messages received, per processor.",
            &s.recvs,
        ),
    ] {
        family(&mut out, name, "counter", help);
        for (p, &c) in counts.iter().enumerate() {
            out.push_str(name);
            int(&mut out, "{proc=\"", p as u64);
            int(&mut out, "\"} ", c);
            out.push('\n');
        }
    }

    family(
        &mut out,
        "postal_port_busy_units",
        "gauge",
        "Port busy time in model units.",
    );
    for p in 0..s.n {
        for (port, busy) in [
            ("\",port=\"out\"}", s.out_busy[p]),
            ("\",port=\"in\"}", s.in_busy[p]),
        ] {
            int(&mut out, "postal_port_busy_units{proc=\"", p as u64);
            out.push_str(port);
            value(&mut out, busy.to_f64());
        }
    }

    for (name, help, count) in [
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
        family(&mut out, name, "counter", help);
        out.push_str(name);
        int(&mut out, " ", count);
        out.push('\n');
    }

    for (name, help, x) in [
        (
            "postal_completion_units",
            "Model time at which the last receive finished.",
            s.completion.to_f64(),
        ),
        (
            "postal_idle_out_units",
            "Output-port idle time summed over informed processors.",
            s.idle_out_units(),
        ),
    ] {
        family(&mut out, name, "gauge", help);
        out.push_str(name);
        value(&mut out, x);
    }

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

    // Streaming-sketch percentiles (summary-style quantile gauges).
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
        family(&mut out, name, "gauge", help);
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            out.push_str(name);
            out.push_str("{quantile=\"");
            out.push_str(label);
            out.push_str("\"}");
            value(&mut out, value_of(q));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ObsEvent;
    use crate::log::RunMeta;
    use postal_model::{Latency, Time};

    #[test]
    fn exposition_has_counters_gauges_and_histograms() {
        let log = ObsLog::new(
            RunMeta::new("event", 2)
                .latency(Latency::from_int(2))
                .messages(1),
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
                    arrival: Time::ONE,
                    start: Time::ONE,
                    finish: Time::from_int(2),
                    queued: false,
                },
            ],
        );
        let text = to_prometheus(&log);
        assert!(text.contains(
            "postal_run_info{engine=\"event\",n=\"2\",lambda=\"2\",messages=\"1\",sample=\"none\"} 1"
        ));
        assert!(text.contains("postal_recorder_dropped_events_total 0"));
        assert!(text.contains("postal_message_latency_quantile_units{quantile=\"0.99\"}"));
        assert!(text.contains("postal_out_port_utilization_quantile{quantile=\"0.5\"}"));
        assert!(text.contains("postal_sends_total{proc=\"0\"} 1"));
        assert!(text.contains("postal_recvs_total{proc=\"1\"} 1"));
        assert!(text.contains("postal_port_busy_units{proc=\"0\",port=\"out\"} 1"));
        assert!(text.contains("postal_completion_units 2"));
        assert!(text.contains("postal_message_latency_units_bucket{le=\"2\"} 1"));
        assert!(text.contains("postal_message_latency_units_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("postal_message_latency_units_count 1"));
        assert!(text.contains("postal_violations_total 0"));
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn truncated_runs_expose_the_abort_flag() {
        let log = ObsLog::new(
            RunMeta::new("event", 2).latency(Latency::from_int(2)),
            vec![ObsEvent::Truncated {
                processed: 11,
                limit: 10,
                at: Time::from_int(3),
            }],
        );
        let text = to_prometheus(&log);
        assert!(text.contains("postal_run_truncated 1"), "{text}");
        let complete = ObsLog::new(
            RunMeta::new("event", 2).latency(Latency::from_int(2)),
            vec![],
        );
        assert!(
            to_prometheus(&complete).contains("postal_run_truncated 0"),
            "complete runs must scrape as untruncated"
        );
    }

    #[test]
    fn sampled_runs_expose_their_drop_count() {
        let log = ObsLog::new(
            RunMeta::new("event", 2)
                .latency(Latency::from_int(2))
                .dropped(42)
                .sampled("tail,rate:8"),
            vec![],
        );
        let text = to_prometheus(&log);
        assert!(
            text.contains("postal_recorder_dropped_events_total 42"),
            "{text}"
        );
        assert!(text.contains("sample=\"tail,rate:8\""), "{text}");
    }
}
