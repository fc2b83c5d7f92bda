//! Experiment X7: model-checking cost and DPOR reduction.
//!
//! Runs the `postal-mc` checker over the paper grid and reports, per
//! workload, the number of executions DPOR actually explored against
//! the naive interleaving estimate (the product of schedulable-set
//! sizes along the canonical run). The paper's algorithms are
//! conflict-free, so every row must collapse to a single execution —
//! the table quantifies how much enumeration that forcedness saves.
//! Gates: every grid point checks clean, explores exactly one
//! execution, and the grid's explored-to-naive ratio stays under 10⁻³.

use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_mc::{check_algo, Algo, McConfig};
use postal_model::Latency;

fn main() {
    println!("X7: DPOR model checking over the paper grid\n");
    let cfg = McConfig::default();
    let mut table = Table::new(
        "model-checking reduction",
        &[
            "workload",
            "n",
            "m",
            "lambda",
            "explored",
            "naive",
            "reduction",
            "verdict",
        ],
    );
    let mut total_explored = 0i128;
    let mut total_naive = 0.0f64;
    let mut dirty = 0i128;

    for algo in Algo::all() {
        for (n, lam) in [
            (8u32, Latency::from_int(1)),
            (8, Latency::from_ratio(5, 2)),
            (12, Latency::from_int(2)),
        ] {
            let m = if algo == Algo::Bcast { 1 } else { 2 };
            let rep = check_algo(algo, n, m, lam, None, &cfg);
            total_explored += rep.stats.executions as i128;
            total_naive += rep.stats.naive_interleavings;
            if !rep.is_clean() {
                dirty += 1;
            }
            table.row(vec![
                algo.name().to_string(),
                n.to_string(),
                m.to_string(),
                lam.to_string(),
                rep.stats.executions.to_string(),
                format!("{:.0}", rep.stats.naive_interleavings),
                format!("{:.2e}", rep.stats.reduction_ratio()),
                if rep.is_clean() { "clean" } else { "DIRTY" }.to_string(),
            ]);
        }
    }
    println!("{table}");

    let (points, explored) = (table.len() as f64, total_explored as f64);
    let ratio = explored / total_naive.max(1.0);
    let mut report = BenchReport::new("mc");
    report
        .table(&table)
        .int("grid_points", table.len() as i128)
        .gate("states_explored", explored, Cmp::Eq, points)
        .num("naive_interleavings", total_naive)
        .gate("reduction_ratio", ratio, Cmp::Lt, 1e-3)
        .gate("dirty", dirty as f64, Cmp::Eq, 0.0)
        .text("config", "exhaustive (no preemption bound), n <= 12");
    postal_bench::report::emit_json(&report);
}
