//! Experiment X8: abstract interpretation vs concrete execution.
//!
//! Runs the `postal-abs` interval analysis over the paper grid and
//! reports, per workload, the analysis wall time against the DPOR model
//! checker's, the tightness of the completion bracket (interval width
//! relative to the concrete completion), and — the property CI asserts
//! on — the number of containment violations: grid points where the
//! abstract bracket fails to contain a concrete completion. A sound
//! analysis produces zero. Gates: no containment violation over the 27
//! grid points, and all 9 algorithms analyze clean over λ ∈ [1, 4].

use postal_abs::{analyze_algo, cross_check_point, AbsConfig};
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_mc::Algo;
use postal_model::{Interval, Latency, Ratio};
use std::time::Instant;

fn main() {
    println!("X8: abstract interpretation over the paper grid\n");
    let cfg = AbsConfig::default();
    let mut table = Table::new(
        "abstract vs concrete",
        &[
            "workload", "n", "m", "lambda", "bracket", "width", "abs us", "mc us", "verdict",
        ],
    );
    let mut violations = 0i128;
    let mut abs_total_us = 0i128;
    let mut mc_total_us = 0i128;
    let mut width_sum = 0.0f64;

    for algo in Algo::all() {
        for (n, lam) in [
            (8u32, Latency::from_int(1)),
            (8, Latency::from_ratio(5, 2)),
            (12, Latency::from_int(2)),
        ] {
            let m = if algo == Algo::Bcast { 1 } else { 2 };
            // cross_check_point times the model checker and the point
            // analysis together; time each side separately for the table.
            let t0 = Instant::now();
            let out = cross_check_point(algo, n, m, lam, &cfg);
            let both_us = t0.elapsed().as_micros() as i128;
            let t1 = Instant::now();
            let _ = analyze_algo(algo, n, m, Interval::point(lam.value()), None, &cfg);
            let abs_us = t1.elapsed().as_micros() as i128;
            let mc_us = (both_us - abs_us).max(0);
            abs_total_us += abs_us;
            mc_total_us += mc_us;
            let width = out.bracket.width().to_f64() / out.reference.to_f64().max(1e-9);
            width_sum += width;
            if !out.sound() {
                violations += 1;
            }
            table.row(vec![
                algo.name().to_string(),
                n.to_string(),
                m.to_string(),
                lam.to_string(),
                out.bracket.to_string(),
                format!("{width:.3}"),
                abs_us.to_string(),
                mc_us.to_string(),
                if out.sound() { "sound" } else { "UNSOUND" }.to_string(),
            ]);
        }
    }
    println!("{table}");

    // One symbolic sweep per algorithm over the paper's λ ∈ [1, 4]: the
    // workload abstract analysis covers for the price of a handful of
    // endpoint runs, where the concrete engines would need one run per
    // rational λ — an unbounded set.
    let range = Interval::new(Ratio::ONE, Ratio::from_int(4));
    let mut sweep = Table::new(
        "symbolic sweep over lambda in [1, 4] (n = 8, m = 2)",
        &["workload", "subintervals", "widened", "completion", "gap"],
    );
    let mut sweep_widened = 0i128;
    let mut sweep_dirty = 0u32;
    let t2 = Instant::now();
    for algo in Algo::all() {
        let m = if algo == Algo::Bcast { 1 } else { 2 };
        let rep = analyze_algo(algo, 8, m, range, None, &cfg);
        sweep_dirty += u32::from(!rep.is_clean());
        let widened = rep.subintervals.iter().filter(|s| !s.exact).count();
        sweep_widened += widened as i128;
        sweep.row(vec![
            algo.name().to_string(),
            rep.subintervals.len().to_string(),
            widened.to_string(),
            rep.completion.to_string(),
            rep.gap.to_string(),
        ]);
    }
    let sweep_us = t2.elapsed().as_micros() as i128;
    println!("{sweep}");

    let mut report = BenchReport::new("abs");
    report
        .table(&table)
        .table(&sweep)
        .gate("grid_points", table.len() as f64, Cmp::Eq, 27.0)
        .gate("containment_violations", violations as f64, Cmp::Eq, 0.0)
        .num("mean_bracket_width", width_sum / table.len() as f64)
        .int("abs_total_us", abs_total_us)
        .int("mc_total_us", mc_total_us)
        .num(
            "abs_vs_mc_time_ratio",
            abs_total_us as f64 / mc_total_us.max(1) as f64,
        )
        .gate("sweep_algorithms", sweep.len() as f64, Cmp::Eq, 9.0)
        .gate("sweep_dirty", sweep_dirty.into(), Cmp::Eq, 0.0)
        .int("sweep_widened_leaves", sweep_widened)
        .int("sweep_total_us", sweep_us)
        .text("config", "max_depth 6, lambda range [1, 4], n <= 12");
    postal_bench::report::emit_json(&report);
}
