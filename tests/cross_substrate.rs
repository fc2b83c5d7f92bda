//! Cross-substrate consistency: the same program objects must produce
//! the same *communication structure* on the discrete-event simulator
//! and on the threaded runtime (timing on threads is approximate, so
//! structure — who received what, in what order — is the contract).

use postal::algos::bcast::{BcastPayload, BcastProgram};
use postal::algos::pipeline::{pipeline_cascade, PipelineProgram};
use postal::algos::{FibTable, MultiPacket};
use postal::model::{runtimes, Latency};
use postal::runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal::sim::{ProcId, Program, Simulation, Uniform};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn fast() -> RuntimeConfig {
    RuntimeConfig {
        unit: Duration::from_millis(2),
    }
}

#[test]
fn bcast_edges_agree_between_substrates() {
    let lam = Latency::from_ratio(5, 2);
    let n = 20usize;

    // Simulator.
    let model = Uniform(lam);
    let sim_report = Simulation::new(n, &model)
        .run(postal::algos::bcast_programs(n, lam))
        .unwrap();
    let mut sim_edges: Vec<(u32, u32)> = sim_report
        .trace
        .transfers()
        .iter()
        .map(|t| (t.src.0, t.dst.0))
        .collect();
    sim_edges.sort_unstable();

    // Threads.
    let table = Arc::new(FibTable::new(lam, n as u64));
    let programs = send_programs_from(n, |id| {
        Box::new(BcastProgram::new(
            Arc::clone(&table),
            (id == ProcId::ROOT).then_some(n as u64),
        )) as Box<dyn Program<BcastPayload> + Send>
    });
    let thr_report = run_threaded(lam, fast(), programs);
    let mut thr_edges: Vec<(u32, u32)> = thr_report
        .deliveries
        .iter()
        .map(|d| (d.from.0, d.to.0))
        .collect();
    thr_edges.sort_unstable();

    assert_eq!(sim_edges, thr_edges, "broadcast trees must be identical");
}

#[test]
fn pipeline_delivery_multiset_agrees() {
    let lam = Latency::from_int(2);
    let (n, m) = (12usize, 5u32);

    let sim = postal::algos::run_pipeline(n, m, lam);
    sim.verify().unwrap();

    let (table, orientation) = pipeline_cascade(n as u64, m, lam);
    let programs = send_programs_from(n, |id| {
        Box::new(PipelineProgram::new(
            Arc::clone(&table),
            orientation,
            m,
            (id == ProcId::ROOT).then_some(n as u64),
        )) as Box<dyn Program<MultiPacket> + Send>
    });
    let thr = run_threaded(lam, fast(), programs);

    // Per-processor multiset of received message indices must agree.
    let mut sim_recv: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for t in sim.report.trace.transfers() {
        sim_recv.entry(t.dst.0).or_default().push(t.payload.msg);
    }
    let mut thr_recv: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for d in &thr.deliveries {
        thr_recv.entry(d.to.0).or_default().push(d.payload.msg);
    }
    for v in sim_recv.values_mut() {
        v.sort_unstable();
    }
    for v in thr_recv.values_mut() {
        v.sort_unstable();
    }
    assert_eq!(sim_recv, thr_recv);
}

#[test]
fn threaded_bcast_time_tracks_model_prediction() {
    let lam = Latency::from_int(2);
    let n = 16usize;
    let model_units = runtimes::bcast_time(n as u128, lam).to_f64();

    let table = Arc::new(FibTable::new(lam, n as u64));
    let programs = send_programs_from(n, |id| {
        Box::new(BcastProgram::new(
            Arc::clone(&table),
            (id == ProcId::ROOT).then_some(n as u64),
        )) as Box<dyn Program<BcastPayload> + Send>
    });
    let report = run_threaded(lam, fast(), programs);

    // Lower bound is hard (sleeps enforce model minimums); upper bound
    // is generous to absorb scheduler jitter on loaded machines.
    assert!(
        report.elapsed_units >= model_units - 0.05,
        "impossibly fast: {} < {model_units}",
        report.elapsed_units
    );
    assert!(
        report.elapsed_units <= model_units * 4.0 + 10.0,
        "far too slow: {} vs {model_units}",
        report.elapsed_units
    );
}
