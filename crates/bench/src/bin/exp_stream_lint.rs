//! Experiment SLN: inline streaming lint at simulator scale.
//!
//! Runs the paper's BCAST workload on the calendar-queue engine at
//! n ∈ {10³, 10⁴, 10⁵, 10⁶} (λ = 2) twice per rung: once bare
//! (trace discarded, no observer) and once with a [`LintSink`] riding
//! the recorder hook — the `postal-cli simulate --lint-inline` path,
//! where the full `P0001`–`P0007` report is produced **while the run
//! executes** and the trace is never materialized.
//!
//! Two budget gates make this a regression tripwire, and a third
//! requires a positive inline time at every rung:
//!
//! * at n = 10⁶ the inline-linted run must finish under
//!   [`OVERHEAD_BUDGET_X`] times the bare run;
//! * the linter's own peak reserved memory
//!   ([`postal_obs::LintStream::memory_bytes`])
//!   at n = 10⁶ must stay under [`MEM_BUDGET_MIB`] MiB — O(n) state,
//!   not the O(sends) materialized trace.
//!
//! The counting allocator of [`postal_bench::probe`] additionally
//! reports each run's peak allocation delta, so the "no stored trace"
//! claim is visible as a number: the inline run's peak should sit near
//! bare + linter bytes, nowhere near the hundreds of MiB a million-send
//! trace would cost.
//! At n ≤ 10⁴ the inline report is also pinned to `lint_schedule`'s
//! report over the recorded trace — the speed ladder doubles as a
//! correctness sweep.

use postal_algos::bcast_programs;
use postal_bench::probe::with_peak_delta;
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_model::{runtimes, Latency};
use postal_obs::LintSink;
use postal_sim::{Simulation, Uniform};
use postal_verify::{lint_schedule, render, LintOptions, Severity};
use std::time::Instant;

postal_bench::install_heap_probe!();

/// Multiple of the bare run's time the inline-linted run must stay
/// under at n = 10⁶.
const OVERHEAD_BUDGET_X: f64 = 2.0;
/// MiB of linter memory the inline-linted run must stay under at n = 10⁶.
const MEM_BUDGET_MIB: f64 = 64.0;

const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    let lam = Latency::from_int(2);

    let mut table = Table::new(
        "SLN: inline streaming lint riding BCAST, λ = 2",
        &[
            "n",
            "bare s",
            "inline s",
            "overhead ×",
            "linter MiB",
            "peak Δ MiB",
        ],
    );
    let mut report = BenchReport::new("stream_lint");

    let uni = Uniform(lam);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        // Bare rung: same engine, same discarded trace, no linter.
        let bare_sim = Simulation::new(n, &uni).discard_trace();
        let bare_start = Instant::now();
        let (bare, bare_peak) = with_peak_delta(|| {
            bare_sim
                .run(bcast_programs(n, lam))
                .expect("bcast simulates")
        });
        let bare_secs = bare_start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(
            bare.completion,
            runtimes::bcast_time(n as u128, lam),
            "bare engine missed the closed form at n = {n}"
        );

        // Inline rung: the lint sink consumes the event stream as the
        // engine emits it; nothing is stored.
        let sink = LintSink::new(n as u32, lam, LintOptions::default());
        let inline_sim = Simulation::new(n, &uni).observe(&sink).discard_trace();
        let inline_start = Instant::now();
        let (inline, inline_peak) = with_peak_delta(|| {
            inline_sim
                .run(bcast_programs(n, lam))
                .expect("bcast simulates under the lint sink")
        });
        let inline_secs = inline_start.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(inline.completion, bare.completion);

        let stream = sink.finish();
        assert!(!stream.out_of_order(), "engine feed must be in order");
        let linter_bytes = stream.memory_bytes();
        let diags = stream.finish();
        let errors = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert!(
            errors == 0,
            "BCAST must inline-lint error-free at n = {n}:\n{}",
            render::render_report(&diags, "exp_stream_lint")
        );

        // Correctness anchor: on the small rungs, record the trace and
        // pin the inline report to `lint_schedule` byte for byte.
        if n <= 10_000 {
            let full = Simulation::new(n, &uni)
                .run(bcast_programs(n, lam))
                .expect("bcast simulates");
            let schedule = full.trace.to_schedule(n as u32, lam);
            assert_eq!(
                diags,
                lint_schedule(&schedule, &LintOptions::default()),
                "inline report diverged from batch at n = {n}"
            );
        }

        let overhead = inline_secs / bare_secs;
        let linter_mib = linter_bytes as f64 / MIB;
        let peak_delta_mib = (inline_peak as f64 - bare_peak as f64) / MIB;
        println!(
            "n = {n:>9}: bare {bare_secs:.3}s, inline {inline_secs:.3}s \
             ({overhead:.2}×), linter {linter_mib:.1} MiB, \
             peak Δ {peak_delta_mib:+.1} MiB, {} diagnostics",
            diags.len()
        );
        table.row(vec![
            n.to_string(),
            format!("{bare_secs:.3}"),
            format!("{inline_secs:.3}"),
            format!("{overhead:.2}"),
            format!("{linter_mib:.1}"),
            format!("{peak_delta_mib:+.1}"),
        ]);
        report
            .num(&format!("bare_secs_n{n}"), bare_secs)
            .gate(&format!("inline_secs_n{n}"), inline_secs, Cmp::Gt, 0.0)
            .num(&format!("overhead_x_n{n}"), overhead)
            .num(&format!("linter_mib_n{n}"), linter_mib);
        if n == 1_000_000 {
            report
                .gate("overhead_x_n1000000", overhead, Cmp::Lt, OVERHEAD_BUDGET_X)
                .gate("linter_mib_n1000000", linter_mib, Cmp::Lt, MEM_BUDGET_MIB);
        }
    }

    println!("{table}");
    report.table(&table);
    postal_bench::report::emit_json(&report);
}
