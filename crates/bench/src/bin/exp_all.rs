//! Runs every experiment and prints the full report (the source of
//! EXPERIMENTS.md's measured columns).
//!
//! Pass a directory as the first argument to also dump each table as
//! CSV: `cargo run --release -p postal-bench --bin exp_all -- out/`.
//! Always writes `BENCH_all.json` summarizing every table emitted; its
//! one gate is Theorem 6's: no gap violation over the sweep.

use postal_bench::experiments as exp;
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;

struct CsvSink {
    dir: Option<std::path::PathBuf>,
    count: u32,
    report: BenchReport,
}

impl CsvSink {
    fn emit(&mut self, table: &Table) {
        println!("{table}");
        self.report.table(table);
        if let Some(dir) = &self.dir {
            self.count += 1;
            let slug: String = table
                .title()
                .chars()
                .take_while(|&c| c != ':')
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("{:02}_{}.csv", self.count, slug));
            std::fs::write(&path, table.to_csv()).expect("writable CSV directory");
        }
    }
}

fn main() {
    let dir = std::env::args().nth(1).map(std::path::PathBuf::from);
    if let Some(d) = &dir {
        std::fs::create_dir_all(d).expect("can create CSV output directory");
    }
    let mut sink = CsvSink {
        dir,
        count: 0,
        report: BenchReport::new("all"),
    };
    println!("=== F1: Figure 1 ===");
    let (art, table) = exp::single::figure1();
    println!("{art}");
    sink.emit(&table);

    println!("=== T6: Theorem 6 ===");
    let sweep_start = std::time::Instant::now();
    let (t6, gap_violations, events) = exp::single::theorem6_checked();
    let sweep_secs = sweep_start.elapsed().as_secs_f64();
    sink.emit(&t6);
    let violations = gap_violations as f64;
    sink.report
        .gate("theorem6_gap_violations", violations, Cmp::Eq, 0.0)
        .int("theorem6_events", events as i128)
        .num("theorem6_events_per_sec", events as f64 / sweep_secs);

    println!("=== T7: Theorem 7 ===");
    sink.emit(&exp::bounds_exp::fib_bounds());
    sink.emit(&exp::bounds_exp::index_bounds());
    sink.emit(&exp::bounds_exp::asymptotic_bounds());

    println!("=== L8: lower bounds ===");
    sink.emit(&exp::multi_exp::lower_bound_factors());

    println!("=== L10/L12/L14/L16: closed forms ===");
    sink.emit(&exp::multi_exp::closed_forms());
    sink.emit(&exp::multi_exp::repeat_pacing_ablation());

    println!("=== L18: DTREE ===");
    sink.emit(&exp::dtree_exp::bound_check());
    sink.emit(&exp::dtree_exp::degree_sweep(
        32,
        8,
        postal_model::Latency::from_ratio(5, 2),
    ));
    sink.emit(&exp::dtree_exp::constant_factor_table());

    println!("=== X1: crossovers ===");
    for n in [16u128, 64, 256] {
        sink.emit(&exp::crossover::winner_map(n));
    }

    println!("=== X2: special cases ===");
    let (pow2, fibo) = exp::single::special_cases();
    sink.emit(&pow2);
    sink.emit(&fibo);

    println!("=== X3: extensions ===");
    sink.emit(&exp::extensions_exp::adaptive_table());
    sink.emit(&exp::extensions_exp::hierarchy_table());
    sink.emit(&exp::extensions_exp::collectives_table());

    println!("=== X5: optimality gap (exact search) ===");
    sink.emit(&exp::gap_exp::gap_table(10_000_000));

    println!("=== X4: jitter robustness ===");
    sink.emit(&exp::jitter_exp::jitter_table());

    println!("=== Ablations ===");
    sink.emit(&exp::ablations::latency_blind_tree());
    sink.emit(&exp::ablations::port_modes());

    postal_bench::report::emit_json(&sink.report);
}
