//! Experiment SIM: calendar-queue engine throughput at scale.
//!
//! Runs the paper's BCAST workload on the fast engine
//! ([`Simulation::run`]: `i64` ticks of the model's lattice, O(1)
//! bucket queue) across n ∈ {10³, 10⁴, 10⁵, 10⁶}, reporting wall-clock
//! and events/sec to `BENCH_sim.json`. Every run's completion time is
//! checked against the paper's closed form `f_λ(n)` by exact rational
//! equality — the speed ladder doubles as a correctness sweep.
//!
//! Two gates make this a regression tripwire:
//!
//! * BCAST at n = 10⁶ (two million engine events) must finish under
//!   `$SIM_BUDGET_SECS` (default 60) — the headline "million processors
//!   in seconds" property of the calendar-queue rewrite;
//! * BCAST(20,000) at λ = 7/3 must agree with the seed reference engine
//!   ([`Simulation::run_reference`]) on completion, event count,
//!   message count, and per-processor statistics under two latency
//!   models: `Uniform(7/3)`, which declares its lattice of sixths so
//!   the run rides the integer ring (lattice parity), and a model that
//!   returns 7/3 but keeps the default half-unit lattice, so every event
//!   off the halves takes the exact-`Ratio` fallback heap (fallback
//!   parity). `fallback_exact_pushes` counts that run's exact-heap
//!   pushes; CI requires it above 0, so the gate cannot pass without
//!   exercising the fallback. The full trace-identity pin lives in
//!   `tests/engine_differential.rs`; this gate keeps the release-mode
//!   lattice and fallback paths honest in CI.
//!
//! The reference engine is also timed at n ≤ 10⁵ for a speedup column;
//! at 10⁶ only the fast engine runs (the point of the rewrite).

use postal_algos::bcast_programs;
use postal_bench::report::BenchReport;
use postal_bench::table::Table;
use postal_model::{runtimes, Latency, Time};
use postal_sim::{LatencyModel, ProcId, Simulation, Uniform};
use std::time::Instant;

/// Returns one λ for every send but declares the default half-unit
/// lattice, so a λ off the halves takes the engine's exact path.
struct HalvesOnly(Latency);

impl LatencyModel for HalvesOnly {
    fn latency(&self, _src: ProcId, _dst: ProcId, _send_start: Time) -> Latency {
        self.0
    }
}

/// One parity run: BCAST(n) at `lam` under `model` on both engines.
struct Parity {
    mismatches: u32,
    fast_secs: f64,
    ref_secs: f64,
    exact_pushes: u64,
    completion: Time,
}

fn parity(model: &dyn LatencyModel, n: usize, lam: Latency) -> Parity {
    let sim = Simulation::new(n, model);
    let start = Instant::now();
    let fast = sim.run(bcast_programs(n, lam)).expect("bcast simulates");
    let fast_secs = start.elapsed().as_secs_f64().max(1e-9);
    let start = Instant::now();
    let reference = sim
        .run_reference(bcast_programs(n, lam))
        .expect("bcast simulates on the reference engine");
    let ref_secs = start.elapsed().as_secs_f64().max(1e-9);
    let mut mismatches = 0u32;
    mismatches += u32::from(fast.completion != reference.completion);
    mismatches += u32::from(fast.events != reference.events);
    mismatches += u32::from(fast.messages() != reference.messages());
    mismatches += u32::from(fast.proc_stats != reference.proc_stats);
    assert_eq!(fast.completion, runtimes::bcast_time(n as u128, lam));
    Parity {
        mismatches,
        fast_secs,
        ref_secs,
        exact_pushes: fast.exact_pushes,
        completion: fast.completion,
    }
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let budget_secs = env_f64("SIM_BUDGET_SECS", 60.0);
    let lam = Latency::from_int(2);

    let mut table = Table::new(
        "SIM: BCAST on the calendar-queue engine, λ = 2",
        &["n", "fast secs", "fast ev/s", "ref secs", "speedup ×"],
    );
    let mut report = BenchReport::new("sim");
    let mut fast_secs_at_million = f64::NAN;

    let uni = Uniform(lam);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let sim = Simulation::new(n, &uni);

        let start = Instant::now();
        let fast = sim.run(bcast_programs(n, lam)).expect("bcast simulates");
        let fast_secs = start.elapsed().as_secs_f64().max(1e-9);
        fast.assert_model_clean();
        assert_eq!(
            fast.completion,
            runtimes::bcast_time(n as u128, lam),
            "fast engine missed the closed form at n = {n}"
        );
        assert_eq!(fast.messages(), n - 1);
        let rate = fast.events as f64 / fast_secs;

        // The reference engine is the seed implementation; timing it at
        // 10⁶ would roughly double this job's wall-clock for a number
        // the differential tests already pin, so the ladder stops it at
        // 10⁵.
        let (ref_cell, speedup_cell) = if n <= 100_000 {
            let start = Instant::now();
            let reference = sim
                .run_reference(bcast_programs(n, lam))
                .expect("bcast simulates on the reference engine");
            let ref_secs = start.elapsed().as_secs_f64().max(1e-9);
            assert_eq!(reference.completion, fast.completion);
            assert_eq!(reference.events, fast.events);
            report.num(&format!("ref_secs_n{n}"), ref_secs);
            report.num(&format!("speedup_x_n{n}"), ref_secs / fast_secs);
            (
                format!("{ref_secs:.3}"),
                format!("{:.2}", ref_secs / fast_secs),
            )
        } else {
            fast_secs_at_million = fast_secs;
            ("-".to_string(), "-".to_string())
        };

        println!(
            "n = {n:>9}: fast {fast_secs:>8.3} s  ({rate:>12.0} ev/s)  ref {ref_cell:>8}  \
             completion {} = f_λ(n)",
            fast.completion
        );
        table.row(vec![
            n.to_string(),
            format!("{fast_secs:.3}"),
            format!("{rate:.0}"),
            ref_cell,
            speedup_cell,
        ]);
        report.num(&format!("fast_secs_n{n}"), fast_secs);
        report.num(&format!("events_per_sec_fast_n{n}"), rate);
        report.int(&format!("events_n{n}"), fast.events as i128);
    }

    assert!(
        fast_secs_at_million < budget_secs,
        "BCAST at n = 10⁶ took {fast_secs_at_million:.1} s, over the {budget_secs:.0} s budget"
    );

    // Parity gates at λ = 7/3: on its declared lattice of sixths, and
    // through the exact fallback under a model that keeps the halves.
    let lam_off = Latency::from_ratio(7, 3);
    let n_off = 20_000usize;
    let lattice = parity(&Uniform(lam_off), n_off, lam_off);
    let fallback = parity(&HalvesOnly(lam_off), n_off, lam_off);
    assert_eq!(
        lattice.mismatches, 0,
        "BCAST on the lattice of sixths diverged from the reference engine at λ = 7/3"
    );
    assert_eq!(
        lattice.exact_pushes, 0,
        "Uniform(7/3) left its declared lattice"
    );
    assert_eq!(
        fallback.mismatches, 0,
        "exact fallback diverged from the reference engine at λ = 7/3"
    );
    for (name, p) in [("lattice", &lattice), ("fallback", &fallback)] {
        println!(
            "{name} parity: BCAST({n_off}, 7/3) fast {:.3} s vs ref {:.3} s, \
             completion {} on both engines, {} exact-heap pushes",
            p.fast_secs, p.ref_secs, p.completion, p.exact_pushes
        );
    }

    println!("{table}");
    report.num("sim_budget_secs", budget_secs);
    report.num("lattice_fast_secs", lattice.fast_secs);
    report.num("lattice_ref_secs", lattice.ref_secs);
    report.int("lattice_parity_mismatches", lattice.mismatches as i128);
    report.num("fallback_fast_secs", fallback.fast_secs);
    report.num("fallback_ref_secs", fallback.ref_secs);
    report.int("fallback_parity_mismatches", fallback.mismatches as i128);
    report.int("fallback_exact_pushes", fallback.exact_pushes as i128);
    report.table(&table);
    postal_bench::report::emit_json(&report);
}
