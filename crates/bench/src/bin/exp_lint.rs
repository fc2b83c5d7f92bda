//! Experiment LNT: million-send lint throughput.
//!
//! Generates broadcast-tree schedules at n ∈ {10³, 10⁴, 10⁵, 10⁶}
//! (λ = 5/2, the paper's running example), serializes each to the
//! `postal lint` JSON format, and times the full CLI-equivalent path —
//! streaming parse → every `P0001`–`P0007` pass → rendered summary —
//! reporting a sends/sec series to `BENCH_lint.json`.
//!
//! Gates make this a regression tripwire, not just a report:
//!
//! * the n = 10⁶ end-to-end lint must finish under
//!   [`LINT_BUDGET_SECS`] seconds;
//! * the epoch race detector at 10⁵ processors must see all 99,999
//!   flights, find no race, and allocate under [`RACE_BUDGET_MIB`] MiB
//!   at peak — O(E + n), not the old O(E·n) vector-clock footprint.
//!
//! Peak footprint is measured by the counting allocator of
//! [`postal_bench::probe`], which this binary installs.

use postal_algos::{BroadcastTree, ToSchedule};
use postal_bench::probe::with_peak_delta;
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_model::Latency;
use postal_verify::{json, lint_schedule, render, Flight, LintOptions, Severity};
use std::time::Instant;

postal_bench::install_heap_probe!();

/// Seconds the n = 10⁶ end-to-end lint must stay under.
const LINT_BUDGET_SECS: f64 = 10.0;
/// MiB the race detector's peak allocation over 10⁵ processors must
/// stay under.
const RACE_BUDGET_MIB: f64 = 64.0;

fn main() {
    let lam = Latency::from_ratio(5, 2);

    let mut table = Table::new(
        "LNT: single-sweep lint throughput, BCAST tree schedules, λ = 5/2",
        &["n", "sends", "parse s", "lint s", "total s", "sends/sec"],
    );
    let mut report = BenchReport::new("lint");

    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        let schedule = BroadcastTree::build(n, lam).to_schedule();
        let sends = schedule.len();
        let text = json::schedule_to_json(&schedule, Some(1));
        drop(schedule);

        // The CLI-equivalent path: streaming parse from a reader, the
        // full pass sweep, then the rendered verdict line.
        let parse_start = Instant::now();
        let parsed = json::parse_schedule_reader(std::io::Cursor::new(text.as_bytes()))
            .expect("generated schedule parses");
        let parse_secs = parse_start.elapsed().as_secs_f64();

        let lint_start = Instant::now();
        let diags = lint_schedule(&parsed.schedule, &LintOptions::default());
        let lint_secs = lint_start.elapsed().as_secs_f64();
        // The tree can warn (P0006 idle ports off the Fibonacci lattice)
        // but must never error — same bar as `postal lint`'s exit code.
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert!(
            errors == 0,
            "broadcast tree must lint error-free at n = {n}:\n{}",
            render::render_report(&diags, "exp_lint")
        );
        let summary = format!(
            "{} warnings, completes at t = {}",
            diags.len(),
            parsed.schedule.completion()
        );

        let total = parse_secs + lint_secs;
        let rate = sends as f64 / total;
        println!(
            "n = {n:>9}: {sends:>9} sends, parse {parse_secs:.3}s + lint {lint_secs:.3}s \
             = {total:.3}s  ({rate:.0} sends/sec)  [{summary:.60}]"
        );
        table.row(vec![
            n.to_string(),
            sends.to_string(),
            format!("{parse_secs:.3}"),
            format!("{lint_secs:.3}"),
            format!("{total:.3}"),
            format!("{rate:.0}"),
        ]);
        report.num(&format!("sends_per_sec_n{n}"), rate);
        if n == 1_000_000 {
            report.gate("e2e_secs_n1000000", total, Cmp::Lt, LINT_BUDGET_SECS);
        }
    }

    // Race-detector footprint gate: 10⁵ flights through the epoch
    // detector must stay O(E + n), far under the old O(E·n) clocks.
    let n_race = 100_000u32;
    let flights: Vec<Flight> = BroadcastTree::build(n_race as u64, lam)
        .to_schedule()
        .sends()
        .iter()
        .enumerate()
        .map(|(i, s)| Flight {
            src: s.src,
            dst: s.dst,
            send_at: s.send_start.to_f64(),
            recv_at: (s.send_start + lam.as_time()).to_f64(),
            label: format!("s{i}"),
        })
        .collect();
    let (races, race_peak) = with_peak_delta(|| postal_verify::detect_races(n_race, &flights));
    let race_mib = race_peak as f64 / (1024.0 * 1024.0);
    println!(
        "race detector: {} flights, {} races, peak allocation {race_mib:.1} MiB \
         (budget {RACE_BUDGET_MIB} MiB)",
        flights.len(),
        races.len()
    );

    println!("{table}");
    report
        .gate("race_flights", flights.len() as f64, Cmp::Eq, 99_999.0)
        .gate("race_peak_mib", race_mib, Cmp::Lt, RACE_BUDGET_MIB)
        .gate("races", races.len() as f64, Cmp::Eq, 0.0)
        .table(&table);
    postal_bench::report::emit_json(&report);
}
