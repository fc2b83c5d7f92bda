//! Experiment SIM: calendar-queue engine throughput at scale.
//!
//! Runs the paper's BCAST workload on the fast engine
//! ([`Simulation::run`]: `i64` ticks of the model's lattice, O(1)
//! bucket queue) across n ∈ {10³, 10⁴, 10⁵, 10⁶}, reporting wall-clock
//! and events/sec to `BENCH_sim.json`. Every run's completion time is
//! checked against the paper's closed form `f_λ(n)` by exact rational
//! equality — the speed ladder doubles as a correctness sweep.
//!
//! Gates make this a regression tripwire:
//!
//! * BCAST at n = 10⁶ (two million engine events, exactly 1,999,998)
//!   must finish under [`SIM_BUDGET_SECS`] — the headline "million
//!   processors in seconds" property of the calendar-queue rewrite —
//!   and every rung's throughput must be positive;
//! * every run's completion must equal `f_λ(n)`;
//! * BCAST(20,000) at λ = 7/3 must agree with the seed reference engine
//!   ([`Simulation::run_reference`]) on completion, event count,
//!   message count, and per-processor statistics under two latency
//!   models: `Uniform(7/3)`, which declares its lattice of sixths so
//!   the run rides the integer ring with no exact-heap push (lattice
//!   parity), and a model that returns 7/3 but keeps the default
//!   half-unit lattice, so every event off the halves takes the
//!   exact-`Ratio` fallback heap (fallback parity).
//!   `fallback_exact_pushes` counts that run's exact-heap pushes and
//!   must be above 0, so the gate cannot pass without exercising the
//!   fallback. The full trace-identity pin lives in
//!   `tests/engine_differential.rs`; this gate keeps the release-mode
//!   lattice and fallback paths honest in CI.
//!
//! The reference engine is also timed at n ≤ 10⁵ for a speedup column;
//! at 10⁶ only the fast engine runs (the point of the rewrite).

use postal_algos::bcast_programs;
use postal_bench::report::{BenchReport, Cmp};
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

/// Seconds BCAST at n = 10⁶ must stay under on the fast engine.
const SIM_BUDGET_SECS: f64 = 60.0;

/// One parity run, BCAST(20,000) at λ = 7/3 under `model` on both
/// engines: records both times and gates the engines' agreement and
/// the fast run's exact-heap pushes (`pushes` 0). Returns whether the
/// completion missed `f_λ(n)`.
fn parity(report: &mut BenchReport, name: &str, model: &dyn LatencyModel, pushes: Cmp) -> bool {
    let (n, lam) = (20_000usize, Latency::from_ratio(7, 3));
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
    println!(
        "{name} parity: BCAST({n}, {lam}) fast {fast_secs:.3} s vs ref {ref_secs:.3} s, \
         completion {} on both engines, {} exact-heap pushes",
        fast.completion, fast.exact_pushes
    );
    let (key, pushed) = (|k: &str| format!("{name}_{k}"), fast.exact_pushes as f64);
    report
        .num(&key("fast_secs"), fast_secs)
        .num(&key("ref_secs"), ref_secs)
        .gate(&key("parity_mismatches"), mismatches.into(), Cmp::Eq, 0.0)
        .gate(&key("exact_pushes"), pushed, pushes, 0.0);
    fast.completion != runtimes::bcast_time(n as u128, lam)
}

fn main() {
    let lam = Latency::from_int(2);

    let mut table = Table::new(
        "SIM: BCAST on the calendar-queue engine, λ = 2",
        &["n", "fast secs", "fast ev/s", "ref secs", "speedup ×"],
    );
    let mut report = BenchReport::new("sim");
    let mut closed_form_misses = 0u32;

    let uni = Uniform(lam);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let sim = Simulation::new(n, &uni);

        let start = Instant::now();
        let fast = sim.run(bcast_programs(n, lam)).expect("bcast simulates");
        let fast_secs = start.elapsed().as_secs_f64().max(1e-9);
        fast.assert_model_clean();
        closed_form_misses += u32::from(fast.completion != runtimes::bcast_time(n as u128, lam));
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
        report.gate(&format!("events_per_sec_fast_n{n}"), rate, Cmp::Gt, 0.0);
        report.int(&format!("events_n{n}"), fast.events as i128);
        if n == 1_000_000 {
            report
                .gate("fast_secs_n1000000", fast_secs, Cmp::Lt, SIM_BUDGET_SECS)
                .gate("events_n1000000", fast.events as f64, Cmp::Eq, 1_999_998.0);
        }
    }

    // Parity gates at λ = 7/3: on its declared lattice of sixths, and
    // through the exact fallback under a model that keeps the halves.
    let lam_off = Latency::from_ratio(7, 3);
    for (name, model, pushes) in [
        ("lattice", &Uniform(lam_off) as &dyn LatencyModel, Cmp::Eq),
        ("fallback", &HalvesOnly(lam_off), Cmp::Gt),
    ] {
        closed_form_misses += u32::from(parity(&mut report, name, model, pushes));
    }

    println!("{table}");
    let misses = closed_form_misses.into();
    report
        .gate("closed_form_misses", misses, Cmp::Eq, 0.0)
        .table(&table);
    postal_bench::report::emit_json(&report);
}
