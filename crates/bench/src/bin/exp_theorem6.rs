//! Experiment T6: BCAST optimality (Theorem 6).
//!
//! Besides the text table, writes `BENCH_theorem6.json` and the
//! observability artifacts for the paper's flagship instance
//! BCAST(14, 5/2): a Chrome trace and a Prometheus exposition, both in
//! the standard bench output directory (`$BENCH_OUT_DIR`, default: the
//! workspace root). Gates: no Theorem-6 gap violation over the sweep,
//! and the flagship completes at 15/2, as Figure 1 shows.

use postal_bench::report::{BenchReport, Cmp};
use postal_model::{Latency, Time};
use postal_sim::log_from_report;

fn main() {
    let sweep_start = std::time::Instant::now();
    let (table, gap_violations, events) = postal_bench::experiments::single::theorem6_checked();
    let sweep_secs = sweep_start.elapsed().as_secs_f64();
    println!("{table}");

    // Observability artifacts for the Figure-1 instance.
    let lam = Latency::from_ratio(5, 2);
    let run = postal_algos::run_bcast(14, lam);
    let log = log_from_report(&run, "event", 14, Some(lam), Some(1));
    let dir = postal_bench::report::out_dir();
    std::fs::write(
        dir.join("TRACE_theorem6.json"),
        postal_obs::to_chrome_trace(&log),
    )
    .expect("writable output directory");
    std::fs::write(
        dir.join("METRICS_theorem6.prom"),
        postal_obs::to_prometheus(&log),
    )
    .expect("writable output directory");

    let mut report = BenchReport::new("theorem6");
    // 15/2 is exact in f64, and no other completion of this run's small
    // denominators converts to it.
    let (completion, flagship) = (run.completion.to_f64(), Time::new(15, 2).to_f64());
    report
        .int("cases", table.len() as i128)
        .gate("gap_violations", gap_violations as f64, Cmp::Eq, 0.0)
        .int("events", events as i128)
        .num("events_per_sec", events as f64 / sweep_secs)
        .text("flagship_completion", &run.completion.to_string())
        .gate("flagship_completion", completion, Cmp::Eq, flagship)
        .table(&table);
    postal_bench::report::emit_json(&report);
}
