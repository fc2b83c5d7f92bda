//! Counters and histograms summarizing an observed run.

use crate::event::ObsEvent;
use crate::hist::StreamingHistogram;
use crate::log::ObsLog;
use postal_model::time::tick_lattice;
use postal_model::Time;
use std::collections::HashMap;
use std::ops::{AddAssign, Sub};

/// A fixed-bucket histogram over model-time durations (in units).
///
/// Buckets are cumulative-compatible: `counts[i]` is the number of
/// samples `≤ bounds[i]`, with an implicit `+Inf` bucket at the end —
/// exactly the shape Prometheus `_bucket{le=...}` series expect.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

/// Default bucket boundaries, in model units: sub-unit through 64 units.
pub const DEFAULT_BOUNDS: [f64; 9] = [0.5, 1.0, 2.0, 3.0, 4.0, 8.0, 16.0, 32.0, 64.0];

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new(&DEFAULT_BOUNDS)
    }
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket bounds (an
    /// implicit `+Inf` bucket is always appended).
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.total += 1;
    }

    /// Total samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Cumulative `(upper_bound, count_le)` pairs ending with the
    /// `+Inf` bucket — ready for Prometheus exposition.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, acc));
        }
        out
    }
}

/// Aggregated counters for one run, computed from an [`ObsLog`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Processor count.
    pub n: usize,
    /// Messages sent, per processor.
    pub sends: Vec<u64>,
    /// Messages received, per processor.
    pub recvs: Vec<u64>,
    /// Receives delayed by input-port contention.
    pub queued_recvs: u64,
    /// Strict-mode port violations.
    pub violations: u64,
    /// Messages dropped by fault injection.
    pub drops: u64,
    /// Processor crashes injected.
    pub crashes: u64,
    /// Timer wake-ups fired.
    pub wakes: u64,
    /// Output-port busy time, per processor.
    pub out_busy: Vec<Time>,
    /// Input-port busy time, per processor.
    pub in_busy: Vec<Time>,
    /// When the last receive finished.
    pub completion: Time,
    /// End-to-end message latency samples (`recv_finish − send_start`),
    /// which equal λ exactly on conflict-free strict runs and exceed it
    /// under queued-port contention or jitter.
    pub latency: Histogram,
    /// Queueing delay samples (`recv_start − arrival`); all-zero on any
    /// schedule the paper's algorithms produce.
    pub queue_delay: Histogram,
    /// Streaming log-bucketed latency sketch: p50/p90/p99 in O(buckets)
    /// memory, never from a stored event vector. Same samples as
    /// [`MetricsSummary::latency`].
    pub latency_sketch: StreamingHistogram,
    /// Streaming queue-delay sketch (same samples as
    /// [`MetricsSummary::queue_delay`]).
    pub queue_delay_sketch: StreamingHistogram,
    /// Streaming sketch of per-processor *output*-port utilization
    /// fractions over the completion window — percentiles across the
    /// fleet ("the p99 port is 80% busy"), not across time.
    pub out_utilization_sketch: StreamingHistogram,
    /// Events the recorder dropped while producing the log
    /// ([`crate::RunMeta::dropped_events`]); when > 0 every count above
    /// is a lower bound, not a total.
    pub dropped_events: u64,
    /// Whether the engine hit its event budget and stopped early
    /// ([`ObsEvent::Truncated`] present in the log); when `true` the run
    /// never finished and every count above is a lower bound.
    pub truncated: bool,
    /// The sampling policy that shaped the log, when one was applied.
    pub sample: Option<String>,
}

impl MetricsSummary {
    /// Computes every counter and histogram from a log in one pass.
    /// Processors outside `0..n`, which a log read from a file can
    /// name, are left out of the per-processor counts and busy times.
    ///
    /// When every time the summary reads (a send's span, a receive's
    /// arrival and span) lies on one tick lattice ([`tick_lattice`]),
    /// the pass folds on `i64` tick counts: busy time is summed in
    /// `i128` ticks and made a [`Time`] once per processor, and a
    /// latency or queue-delay sample is a tick difference over the
    /// lattice's denominator (converted exactly past 2⁵³ ticks), the
    /// same `f64` as [`Time::to_f64`] of the exact difference. A log
    /// off every lattice folds on exact times, summing busy time as
    /// [`crate::port_busy_times`] does. Both arms take the same events
    /// in the same order, so the `f64` sums agree.
    pub fn from_log(log: &ObsLog) -> MetricsSummary {
        match tick_lattice(log.events().iter().flat_map(read_times)) {
            Some(den) => fold(log, Ticks(den)),
            None => fold(log, Exact),
        }
    }

    /// The `q`-quantile of end-to-end message latency, from the
    /// streaming sketch (within one log-bucket of exact).
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency_sketch.quantile(q)
    }

    /// The `q`-quantile of input-port queueing delay.
    pub fn queue_delay_quantile(&self, q: f64) -> f64 {
        self.queue_delay_sketch.quantile(q)
    }

    /// The `q`-quantile of per-processor output-port utilization.
    pub fn out_utilization_quantile(&self, q: f64) -> f64 {
        self.out_utilization_sketch.quantile(q)
    }

    /// Whether the summarized log was a partial trace — sampled by the
    /// recorder or truncated by the engine's event budget; when true
    /// every total is a lower bound on the run's real activity.
    pub fn is_partial(&self) -> bool {
        self.dropped_events > 0 || self.truncated
    }

    /// Port utilization fractions `(out, in)` for one processor over
    /// the run's completion window (0 when the run is empty).
    pub fn utilization(&self, proc: usize) -> (f64, f64) {
        let horizon = self.completion.to_f64();
        if horizon <= 0.0 {
            return (0.0, 0.0);
        }
        (
            self.out_busy[proc].to_f64() / horizon,
            self.in_busy[proc].to_f64() / horizon,
        )
    }

    /// Total messages sent.
    pub fn total_sends(&self) -> u64 {
        self.sends.iter().sum()
    }

    /// Total messages delivered.
    pub fn total_recvs(&self) -> u64 {
        self.recvs.iter().sum()
    }

    /// Aggregate output-port idle time across processors that sent at
    /// least once, measured over the completion window. This is the
    /// quantity the lint code `P0006` (idle-port waste) localizes to
    /// specific intervals; here it is a single scalar for dashboards.
    pub fn idle_out_units(&self) -> f64 {
        let horizon = self.completion.to_f64();
        (0..self.n)
            .filter(|&i| self.sends[i] > 0)
            .map(|i| (horizon - self.out_busy[i].to_f64()).max(0.0))
            .sum()
    }
}

/// The times [`MetricsSummary::from_log`] reads from an event: a send's
/// span, and a receive's arrival and span.
fn read_times(e: &ObsEvent) -> impl Iterator<Item = Time> {
    let (times, k) = match *e {
        ObsEvent::Send { start, finish, .. } => ([start, finish, finish], 2),
        ObsEvent::Recv {
            arrival,
            start,
            finish,
            ..
        } => ([arrival, start, finish], 3),
        _ => ([Time::ZERO; 3], 0),
    };
    times.into_iter().take(k)
}

/// How the summary's fold holds a time: as a tick count or exactly.
trait Form: Copy {
    /// A point in time.
    type T: Copy + Ord;
    /// A time or a sum of durations, wide enough for any sum of spans.
    type Sum: Copy + Default + From<Self::T> + Sub<Output = Self::Sum> + AddAssign;
    fn of(self, t: Time) -> Self::T;
    /// `to − from`, in units.
    fn units(self, from: Self::T, to: Self::T) -> f64;
    fn time(self, sum: Self::Sum) -> Time;
}

/// Ticks of `1/D` on a lattice from [`tick_lattice`], which bounds
/// every tick count by `TICK_LIMIT`, so a difference fits an `i64`.
#[derive(Clone, Copy)]
struct Ticks(i64);

impl Form for Ticks {
    type T = i64;
    type Sum = i128;

    #[inline]
    fn of(self, t: Time) -> i64 {
        t.to_ticks(self.0)
            .expect("tick_lattice bounds every tick count")
    }

    #[inline]
    fn units(self, from: i64, to: i64) -> f64 {
        let d = to - from;
        // Below 2⁵³ both operands are exact `f64`s, so the quotient is
        // the correctly rounded value, as for the reduced fraction.
        if d.unsigned_abs() < 1 << 53 {
            d as f64 / self.0 as f64
        } else {
            Time::from_ticks(d, self.0).to_f64()
        }
    }

    fn time(self, sum: i128) -> Time {
        Time::new(sum, i128::from(self.0))
    }
}

/// Exact times, for a log off every lattice.
#[derive(Clone, Copy)]
struct Exact;

impl Form for Exact {
    type T = Time;
    type Sum = Time;

    fn of(self, t: Time) -> Time {
        t
    }

    fn units(self, from: Time, to: Time) -> f64 {
        (to - from).to_f64()
    }

    fn time(self, sum: Time) -> Time {
        sum
    }
}

/// The duration `to − from`.
fn span<F: Form>(from: F::T, to: F::T) -> F::Sum {
    F::Sum::from(to) - F::Sum::from(from)
}

/// The one pass of [`MetricsSummary::from_log`], on times of `form`.
fn fold<F: Form>(log: &ObsLog, form: F) -> MetricsSummary {
    let events = log.events();
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
    // Each send's start by seq: an engine numbers its sends 0, 1, …,
    // so a seq below the send count has a slot; a log read from a file
    // can name any seq, and those go to the map. A later send with the
    // same seq replaces the earlier one.
    let sends = events
        .iter()
        .filter(|e| matches!(e, ObsEvent::Send { .. }))
        .count();
    let mut starts: Vec<Option<F::T>> = vec![None; sends];
    let mut late: HashMap<u64, F::T> = HashMap::new();
    let mut busy = vec![(F::Sum::default(), F::Sum::default()); n];
    let mut completion = None;
    for e in events {
        match *e {
            ObsEvent::Send {
                seq,
                src,
                start,
                finish,
                ..
            } => {
                let start = form.of(start);
                if let Some(c) = s.sends.get_mut(src as usize) {
                    *c += 1;
                    busy[src as usize].0 += span::<F>(start, form.of(finish));
                }
                match usize::try_from(seq).ok().and_then(|i| starts.get_mut(i)) {
                    Some(slot) => *slot = Some(start),
                    None => {
                        late.insert(seq, start);
                    }
                }
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
                let (arrival, start, finish) = (form.of(arrival), form.of(start), form.of(finish));
                if let Some(c) = s.recvs.get_mut(dst as usize) {
                    *c += 1;
                    busy[dst as usize].1 += span::<F>(start, finish);
                }
                s.queued_recvs += u64::from(queued);
                completion = completion.max(Some(finish));
                let sent = match usize::try_from(seq).ok().and_then(|i| starts.get(i)) {
                    Some(&slot) => slot,
                    None => late.get(&seq).copied(),
                };
                if let Some(sent) = sent {
                    let sample = form.units(sent, finish);
                    s.latency.observe(sample);
                    s.latency_sketch.observe(sample);
                }
                let delay = form.units(arrival, start);
                s.queue_delay.observe(delay);
                s.queue_delay_sketch.observe(delay);
            }
            ObsEvent::Violation { .. } => s.violations += 1,
            ObsEvent::Drop { .. } => s.drops += 1,
            ObsEvent::Crash { .. } => s.crashes += 1,
            ObsEvent::Wake { .. } => s.wakes += 1,
            ObsEvent::Truncated { .. } => s.truncated = true,
        }
    }
    (s.out_busy, s.in_busy) = busy
        .into_iter()
        .map(|(out, inn)| (form.time(out), form.time(inn)))
        .unzip();
    // As `ObsLog::completion_time`: the last receive's finish.
    s.completion = completion.map_or(Time::ZERO, |c| form.time(c.into()));
    for p in 0..n {
        let (out, _) = s.utilization(p);
        s.out_utilization_sketch.observe(out);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{ObsLog, RunMeta};
    use postal_model::Latency;

    fn sample_log() -> ObsLog {
        let lam = Latency::from_int(2);
        let ev = |seq: u64, src: u32, dst: u32, at: i128| {
            let start = Time::from_int(at);
            vec![
                ObsEvent::Send {
                    seq,
                    src,
                    dst,
                    start,
                    finish: start + Time::ONE,
                },
                ObsEvent::Recv {
                    seq,
                    src,
                    dst,
                    arrival: start + Time::ONE,
                    start: start + Time::ONE,
                    finish: start + Time::from_int(2),
                    queued: false,
                },
            ]
        };
        let mut events = ev(0, 0, 1, 0);
        events.extend(ev(1, 0, 2, 1));
        ObsLog::new(RunMeta::new("event", 3).latency(lam).messages(1), events)
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(2.0);
        h.observe(10.0);
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 12.5 / 3.0).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![(1.0, 1), (2.0, 2), (f64::INFINITY, 3)]);
    }

    #[test]
    fn summary_counts_everything() {
        let s = MetricsSummary::from_log(&sample_log());
        assert_eq!(s.total_sends(), 2);
        assert_eq!(s.total_recvs(), 2);
        assert_eq!(s.sends, vec![2, 0, 0]);
        assert_eq!(s.recvs, vec![0, 1, 1]);
        assert_eq!(s.violations, 0);
        assert_eq!(s.completion, Time::from_int(3));
        // Both messages took exactly λ = 2 units end to end.
        assert_eq!(s.latency.count(), 2);
        assert!((s.latency.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.queue_delay.count(), 2);
        assert_eq!(s.queue_delay.sum(), 0.0);
    }

    #[test]
    fn streaming_sketches_agree_with_exact_histograms() {
        let s = MetricsSummary::from_log(&sample_log());
        assert_eq!(s.latency_sketch.count(), s.latency.count());
        assert!((s.latency_sketch.mean() - s.latency.mean()).abs() < 1e-12);
        // Both messages took exactly 2 units; every quantile is in the
        // bucket containing 2.0 (≤ 1/64 relative error).
        for q in [0.5, 0.9, 0.99] {
            let (lo, hi) = s.latency_sketch.quantile_bounds(q);
            assert!(lo <= 2.0 && 2.0 < hi, "q={q}: [{lo}, {hi})");
            assert!((s.latency_quantile(q) - 2.0).abs() <= 2.0 / 64.0);
        }
        assert_eq!(s.queue_delay_quantile(0.99), 0.0);
        assert_eq!(s.out_utilization_sketch.count(), 3);
        assert_eq!(s.dropped_events, 0);
        assert!(!s.is_partial());
    }

    #[test]
    fn dropped_events_flow_from_meta() {
        let lam = Latency::from_int(2);
        let log = ObsLog::new(
            RunMeta::new("event", 2)
                .latency(lam)
                .dropped(5)
                .sampled("tail"),
            vec![],
        );
        let s = MetricsSummary::from_log(&log);
        assert_eq!(s.dropped_events, 5);
        assert_eq!(s.sample.as_deref(), Some("tail"));
        assert!(s.is_partial());
    }

    #[test]
    fn truncation_marks_the_summary_partial() {
        let mut events = sample_log().events().to_vec();
        events.push(ObsEvent::Truncated {
            processed: 5,
            limit: 4,
            at: Time::from_int(3),
        });
        let log = ObsLog::new(
            RunMeta::new("event", 3).latency(Latency::from_int(2)),
            events,
        );
        let s = MetricsSummary::from_log(&log);
        assert!(s.truncated);
        assert_eq!(s.dropped_events, 0);
        assert!(s.is_partial(), "a truncated run is a partial run");
    }

    #[test]
    fn processors_outside_the_run_are_skipped() {
        // A file can name a processor ≥ n: lint reports such a send as
        // P0004, and the summary leaves it out of every per-processor
        // count and busy time instead of indexing past the end.
        let log = crate::jsonl::from_jsonl(concat!(
            "{\"type\":\"run\",\"engine\":\"event\",\"n\":2,\"lambda\":\"2\"}\n",
            "{\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\"start\":\"0\",\"finish\":\"1\"}\n",
            "{\"type\":\"recv\",\"seq\":0,\"src\":0,\"dst\":1,\"arrival\":\"1\",\"start\":\"1\",\"finish\":\"2\",\"queued\":false}\n",
            "{\"type\":\"send\",\"seq\":1,\"src\":5,\"dst\":1,\"start\":\"1\",\"finish\":\"2\"}\n",
            "{\"type\":\"recv\",\"seq\":1,\"src\":5,\"dst\":6,\"arrival\":\"2\",\"start\":\"2\",\"finish\":\"3\",\"queued\":false}\n",
        ))
        .unwrap();
        let text = crate::prometheus::to_prometheus(&log);
        assert!(
            text.contains("postal_sends_total{proc=\"0\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("postal_recvs_total{proc=\"1\"} 1\n"),
            "{text}"
        );
        assert!(!text.contains("proc=\"5\"") && !text.contains("proc=\"6\""));
        let s = MetricsSummary::from_log(&log);
        assert_eq!((s.sends, s.recvs), (vec![1, 0], vec![0, 1]));
        assert_eq!(s.out_busy, vec![Time::ONE, Time::ZERO]);
        assert_eq!(s.in_busy, vec![Time::ZERO, Time::ONE]);
        // Run-wide counts still take every event.
        assert_eq!(s.latency.count(), 2);
        assert_eq!(s.completion, Time::from_int(3));
    }

    #[test]
    fn utilization_and_idle_waste() {
        let s = MetricsSummary::from_log(&sample_log());
        let (out0, in0) = s.utilization(0);
        assert!((out0 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(in0, 0.0);
        // p0 is the only sender; idle 1 of 3 units.
        assert!((s.idle_out_units() - 1.0).abs() < 1e-12);
    }
}
