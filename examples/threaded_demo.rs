//! Threaded demo: the same event-driven programs on real OS threads.
//!
//! `postal-sim` proves the algorithms' exact model times; this example
//! runs the *identical* program objects on `postal-runtime`'s threaded
//! substrate (channels + wall-clock latency injection) and shows that
//! wall time tracks the model prediction.
//!
//! Run with: `cargo run --example threaded_demo`

use postal::algos::bcast::{BcastPayload, BcastProgram};
use postal::algos::repeat::{Pacing, RepeatProgram};
use postal::algos::{FibTable, MultiPacket};
use postal::model::{runtimes, Latency};
use postal::runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal::sim::{ProcId, Program};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let lambda = Latency::from_ratio(5, 2);
    let n = 14;
    let config = RuntimeConfig {
        unit: Duration::from_millis(5),
    };

    // One F_λ table serves every program of both runs.
    let table = Arc::new(FibTable::new(lambda, n as u64));

    // --- Single-message BCAST on threads ---
    let programs = send_programs_from(n, |id| {
        Box::new(BcastProgram::new(
            Arc::clone(&table),
            (id == ProcId::ROOT).then_some(n as u64),
        )) as Box<dyn Program<BcastPayload> + Send>
    });
    let model_time = runtimes::bcast_time(n as u128, lambda);
    println!(
        "BCAST on {n} threads at λ = {lambda} (1 unit = {:?})",
        config.unit
    );
    let report = run_threaded(lambda, config, programs);
    println!(
        "  deliveries: {}   model prediction: {} units   measured: {:.2} units",
        report.deliveries.len(),
        model_time,
        report.elapsed_units
    );
    assert_eq!(report.deliveries.len(), n - 1);

    // --- Multi-message REPEAT on threads, order preserved ---
    let m = 4u32;
    let programs = send_programs_from(n, |id| {
        Box::new(RepeatProgram::new(
            Arc::clone(&table),
            Pacing::Greedy,
            (id == ProcId::ROOT).then_some((n as u64, m)),
        )) as Box<dyn Program<MultiPacket> + Send>
    });
    println!("\nREPEAT (greedy) broadcasting {m} messages on {n} threads");
    let report = run_threaded(lambda, config, programs);
    println!(
        "  deliveries: {}   measured: {:.2} units",
        report.deliveries.len(),
        report.elapsed_units
    );
    // Every thread saw its messages in order — the paper's
    // order-preservation property survives real scheduling jitter
    // because ordering is structural (per-channel FIFO), not timed.
    for i in 1..n {
        let msgs: Vec<u32> = report
            .received_by(ProcId::from(i))
            .map(|d| d.payload.msg)
            .collect();
        let mut sorted = msgs.clone();
        sorted.sort_unstable();
        assert_eq!(msgs, sorted, "p{i} received out of order");
    }
    println!("  order preserved at every processor ✓");
}
