//! Experiment X6: wall-clock fidelity of the threaded runtime.
//!
//! Runs BCAST and PIPELINE on real OS threads (1 model unit = 3 ms) and
//! compares measured completion against the exact model prediction. The
//! lower bound is hard (sleeps enforce model minimums); the overhead
//! column is scheduler jitter plus the queued-input-port approximation.

use postal_algos::bcast::{BcastPayload, BcastProgram};
use postal_algos::pipeline::{pipeline_cascade, PipelineProgram};
use postal_algos::{FibTable, MultiPacket};
use postal_bench::report::BenchReport;
use postal_model::{runtimes, Latency};
use postal_runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal_sim::{ProcId, Program};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let config = RuntimeConfig {
        unit: Duration::from_millis(3),
    };
    println!(
        "X6: threaded runtime vs model (1 unit = {:?})\n",
        config.unit
    );
    println!(
        "{:<26} {:>12} {:>12} {:>9}",
        "workload", "model", "measured", "overhead"
    );
    let mut report = BenchReport::new("threaded");
    let mut workloads = 0i128;
    let mut max_overhead = 0.0f64;

    for (n, lam) in [
        (8usize, Latency::from_int(2)),
        (14, Latency::from_ratio(5, 2)),
        (32, Latency::from_int(4)),
    ] {
        let model = runtimes::bcast_time(n as u128, lam).to_f64();
        let table = Arc::new(FibTable::new(lam, n as u64));
        let programs = send_programs_from(n, |id| {
            Box::new(BcastProgram::new(
                Arc::clone(&table),
                (id == ProcId::ROOT).then_some(n as u64),
            )) as Box<dyn Program<BcastPayload> + Send>
        });
        let run = run_threaded(lam, config, programs);
        assert!(run.elapsed_units >= model - 0.05, "impossibly fast");
        let overhead = (run.elapsed_units / model - 1.0) * 100.0;
        println!(
            "{:<26} {:>12.2} {:>12.2} {:>8.1}%",
            format!("BCAST n={n} λ={lam}"),
            model,
            run.elapsed_units,
            overhead
        );
        report.num(&format!("overhead_pct_bcast_n{n}"), overhead);
        workloads += 1;
        max_overhead = max_overhead.max(overhead);
    }

    for (n, m, lam) in [
        (8usize, 4u32, Latency::from_int(2)),
        (14, 6, Latency::from_ratio(5, 2)),
    ] {
        let model = runtimes::pipeline_time(n as u128, m as u64, lam).to_f64();
        let (table, orientation) = pipeline_cascade(n as u64, m, lam);
        let programs = send_programs_from(n, |id| {
            Box::new(PipelineProgram::new(
                Arc::clone(&table),
                orientation,
                m,
                (id == ProcId::ROOT).then_some(n as u64),
            )) as Box<dyn Program<MultiPacket> + Send>
        });
        let run = run_threaded(lam, config, programs);
        assert!(run.elapsed_units >= model - 0.05, "impossibly fast");
        let overhead = (run.elapsed_units / model - 1.0) * 100.0;
        println!(
            "{:<26} {:>12.2} {:>12.2} {:>8.1}%",
            format!("PIPELINE n={n} m={m} λ={lam}"),
            model,
            run.elapsed_units,
            overhead
        );
        report.num(&format!("overhead_pct_pipeline_n{n}_m{m}"), overhead);
        workloads += 1;
        max_overhead = max_overhead.max(overhead);
    }

    report
        .int("workloads", workloads)
        .num("max_overhead_pct", max_overhead);
    postal_bench::report::emit_json(&report);
}
