//! Experiment SLN: inline streaming lint at simulator scale.
//!
//! Runs the paper's BCAST workload on the calendar-queue engine at
//! n ∈ {10³, 10⁴, 10⁵, 10⁶} (λ = 2) twice per rung: once bare
//! (trace discarded, no observer) and once with a [`LintSink`] riding
//! the recorder hook — the `postal-cli simulate --lint-inline` path,
//! where the full `P0001`–`P0007` report is produced **while the run
//! executes** and the trace is never materialized.
//!
//! Two budget gates make this a regression tripwire:
//!
//! * at n = 10⁶ the inline-linted run must finish under
//!   `$STREAM_LINT_OVERHEAD_X` (default 2.0) times the bare run;
//! * the linter's own peak reserved memory
//!   ([`postal_obs::LintStream::memory_bytes`])
//!   at n = 10⁶ must stay under `$STREAM_LINT_MEM_MIB` (default 64)
//!   MiB — O(n) state, not the O(sends) materialized trace.
//!
//! A counting global allocator additionally reports each run's peak
//! allocation delta, so the "no stored trace" claim is visible as a
//! number: the inline run's peak should sit near bare + linter bytes,
//! nowhere near the hundreds of MiB a million-send trace would cost.
//! At n ≤ 10⁴ the inline report is also pinned to `lint_schedule`'s
//! report over the recorded trace — the speed ladder doubles as a
//! correctness sweep.

use postal_algos::bcast_programs;
use postal_bench::report::BenchReport;
use postal_bench::table::Table;
use postal_model::{runtimes, Latency};
use postal_obs::LintSink;
use postal_sim::{Simulation, Uniform};
use postal_verify::{lint_schedule, render, LintOptions, Severity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// System allocator wrapped with live/peak byte counters.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper
// only maintains counters on the side.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// Runs `f`, returning its result plus the peak allocation delta (bytes
/// above the live heap at entry) it caused.
fn with_peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak = ALLOC.peak.load(Ordering::Relaxed);
    (out, peak.saturating_sub(baseline))
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const MIB: f64 = 1024.0 * 1024.0;

fn main() {
    let lam = Latency::from_int(2);
    let overhead_budget = env_f64("STREAM_LINT_OVERHEAD_X", 2.0);
    let mem_budget_mib = env_f64("STREAM_LINT_MEM_MIB", 64.0);

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
    let mut gate_overhead = f64::NAN;
    let mut gate_linter_mib = f64::NAN;

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
            .num(&format!("inline_secs_n{n}"), inline_secs)
            .num(&format!("overhead_x_n{n}"), overhead)
            .num(&format!("linter_mib_n{n}"), linter_mib);
        if n == 1_000_000 {
            gate_overhead = overhead;
            gate_linter_mib = linter_mib;
        }
    }

    println!("{table}");
    report
        .num("overhead_x_n1000000", gate_overhead)
        .num("overhead_budget_x", overhead_budget)
        .num("linter_mib_n1000000", gate_linter_mib)
        .num("mem_budget_mib", mem_budget_mib)
        .table(&table);
    postal_bench::report::emit_json(&report);

    let mut failed = false;
    if gate_overhead > overhead_budget {
        eprintln!(
            "error: inline lint at n = 10^6 cost {gate_overhead:.2}× the bare run \
             (budget {overhead_budget}×)"
        );
        failed = true;
    }
    if gate_linter_mib > mem_budget_mib {
        eprintln!(
            "error: linter reserved {gate_linter_mib:.1} MiB at n = 10^6 \
             (budget {mem_budget_mib} MiB)"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
