//! Experiment OBS: recorder overhead at scale.
//!
//! Synthesizes event streams at n ∈ {10³, 10⁴, 10⁵, 10⁶} and pushes the
//! identical stream through each recorder — [`NullRecorder`] (the
//! zero-cost floor), [`MemoryRecorder`] (every event, unbounded
//! memory), and the sharded [`RingRecorder`] (fixed memory, honest drop
//! accounting) — reporting an events/sec series to `BENCH_obs.json`.
//! Event construction happens inside every timed loop, so the Null
//! column is a real baseline (build + dispatch), not an empty loop.
//!
//! Gates make this a regression tripwire:
//!
//! * at 10⁶ events the ring recorder must stay under
//!   [`RING_OVERHEAD_BUDGET_X`] × the NullRecorder's time — once the
//!   head fills, a record is one atomic sequence, and that property is
//!   what makes tracing affordable at n → 10⁶;
//! * every rung's ring throughput must be positive;
//! * the streaming percentile sketches must agree with the exact
//!   event-vector quantiles to within one log-bucket on a real BCAST
//!   workload (n = 64, λ = 5/2), with a positive p50 — speed must not
//!   cost correctness.

use postal_algos::bcast_programs;
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_model::{Latency, Time};
use postal_obs::hist::exact_quantile;
use postal_obs::{
    MemoryRecorder, MetricsSummary, NullRecorder, ObsEvent, Recorder, RingRecorder, RunMeta,
};
use postal_sim::{log_from_report, Simulation, Uniform};
use std::hint::black_box;
use std::time::Instant;

/// Multiple of the NullRecorder's time the ring recorder must stay
/// under at 10⁶ events.
const RING_OVERHEAD_BUDGET_X: f64 = 2.0;

/// The `i`-th synthetic event: send spans sweeping across 64 source
/// processors, so the ring's shards all see traffic.
fn event(i: u64) -> ObsEvent {
    let t = Time::from_int((i / 64) as i128);
    ObsEvent::Send {
        seq: i,
        src: (i % 64) as u32,
        dst: ((i + 1) % 64) as u32,
        start: t,
        finish: t + Time::ONE,
    }
}

/// Times pushing `n` synthesized events through `rec`, returning
/// (seconds, events/sec).
fn drive(rec: &dyn Recorder, n: u64) -> (f64, f64) {
    let start = Instant::now();
    for i in 0..n {
        rec.record(black_box(event(i)));
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (secs, n as f64 / secs)
}

fn main() {
    let mut table = Table::new(
        "OBS: recorder throughput, synthetic send streams across 64 procs",
        &["n", "null ev/s", "memory ev/s", "ring ev/s", "ring/null ×"],
    );
    let mut report = BenchReport::new("obs");

    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        let (null_secs, null_rate) = drive(&NullRecorder, n);

        let memory = MemoryRecorder::new();
        let (_, mem_rate) = drive(&memory, n);
        drop(memory);

        // Default config: head mode, 16 shards × 65536 capacity. Below
        // ~1M events everything is kept; at 10⁶ the head fills and the
        // remainder takes the atomic-only drop path.
        let ring = RingRecorder::new(65_536 / 16);
        let (ring_secs, ring_rate) = drive(&ring, n);
        assert_eq!(
            ring.recorded_events() + ring.dropped_events(),
            n,
            "ring lost events at n = {n}"
        );
        let overhead = ring_secs / null_secs;

        println!(
            "n = {n:>9}: null {null_rate:>12.0} ev/s   memory {mem_rate:>12.0} ev/s   \
             ring {ring_rate:>12.0} ev/s   ({overhead:.2}× null, {} dropped)",
            ring.dropped_events()
        );
        table.row(vec![
            n.to_string(),
            format!("{null_rate:.0}"),
            format!("{mem_rate:.0}"),
            format!("{ring_rate:.0}"),
            format!("{overhead:.2}"),
        ]);
        let rate = |kind: &str| format!("events_per_sec_{kind}_n{n}");
        report
            .num(&rate("null"), null_rate)
            .num(&rate("memory"), mem_rate)
            .gate(&rate("ring"), ring_rate, Cmp::Gt, 0.0)
            .num(&format!("ring_overhead_x_n{n}"), overhead);
        if n == 1_000_000 {
            let budget = RING_OVERHEAD_BUDGET_X;
            report.gate("ring_overhead_x_worst_n1000000", overhead, Cmp::Lt, budget);
        }
    }

    // Percentile-fidelity gate: streaming sketch vs exact quantiles on
    // a real workload from the paper's grid.
    let (n, lam) = (64usize, Latency::from_ratio(5, 2));
    let sim = Simulation::new(n, &Uniform(lam))
        .run(bcast_programs(n, lam))
        .expect("bcast simulates");
    let log = log_from_report(&sim, "event", n as u32, Some(lam), Some(1));
    let s = MetricsSummary::from_log(&log);
    let mut send_starts = std::collections::HashMap::new();
    for e in log.events() {
        if let ObsEvent::Send { seq, start, .. } = *e {
            send_starts.insert(seq, start);
        }
    }
    let latencies: Vec<f64> = log
        .events()
        .iter()
        .filter_map(|e| match *e {
            ObsEvent::Recv { seq, finish, .. } => {
                send_starts.get(&seq).map(|st| (finish - *st).to_f64())
            }
            _ => None,
        })
        .collect();
    let mut bucket_misses = 0u32;
    for q in [0.5, 0.99] {
        let exact = exact_quantile(&latencies, q);
        let (lo, hi) = s.latency_sketch.quantile_bounds(q);
        bucket_misses += u32::from(!(exact >= lo && exact < hi));
        report.num(
            &format!("latency_p{}_sketch", (q * 100.0) as u32),
            s.latency_quantile(q),
        );
        report.num(&format!("latency_p{}_exact", (q * 100.0) as u32), exact);
    }
    report
        .gate("latency_p50_sketch", s.latency_quantile(0.5), Cmp::Gt, 0.0)
        .gate("sketch_bucket_misses", bucket_misses.into(), Cmp::Eq, 0.0);
    println!(
        "percentile fidelity: BCAST({n}, {lam}) p50 sketch {:.4} vs exact {:.4}, \
         p99 sketch {:.4} vs exact {:.4}, {bucket_misses} outside the sketch's log-bucket",
        s.latency_quantile(0.5),
        exact_quantile(&latencies, 0.5),
        s.latency_quantile(0.99),
        exact_quantile(&latencies, 0.99),
    );

    // A sampled drain end to end, so the report pins the drop metadata
    // contract the exporters rely on.
    let ring = RingRecorder::new(16);
    for i in 0..1_000u64 {
        ring.record(event(i));
    }
    let dropped = ring.dropped_events();
    let drained = ring.into_log(RunMeta::new("bench", 64));
    assert_eq!(drained.meta().dropped_events, Some(dropped));
    report.int("drain_dropped_events", dropped as i128);

    println!("{table}");
    report.table(&table);
    postal_bench::report::emit_json(&report);
}
