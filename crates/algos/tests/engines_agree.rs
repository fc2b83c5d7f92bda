//! Cross-substrate validation: the threaded runtime runs the paper's
//! programs on real threads. Wall jitter forbids exact-time comparison
//! with the event engine, so it is held to structural agreement (same
//! message multiset) and completion bounds. The event engine itself is
//! pinned trace-identical to `Simulation::run_reference` by
//! `tests/engine_differential.rs`.

use postal_algos::bcast::{BcastPayload, BcastProgram};
use postal_algos::repeat::RepeatProgram;
use postal_algos::{bcast_programs, repeat::repeat_programs, FibTable, Pacing};
use postal_model::Latency;
use postal_runtime::{run_threaded, send_programs_from, RuntimeConfig};
use postal_sim::{ProcId, Program, Simulation, Uniform};
use std::sync::Arc;

/// Structural agreement between the event engine and a threaded run:
/// identical (src, dst) edge multisets and per-destination counts, with
/// the threaded completion bounded below by the model time (sleeps
/// enforce minimums) and above by a generous jitter allowance.
fn assert_threaded_agrees<P: Clone + Send + 'static>(
    n: usize,
    lam: Latency,
    build_sim: impl Fn() -> Vec<Box<dyn Program<P>>>,
    build_threaded: impl Fn() -> Vec<Box<dyn Program<P> + Send>>,
    label: &str,
) {
    let model = Uniform(lam);
    let event = Simulation::new(n, &model).run(build_sim()).unwrap();
    event.assert_model_clean();
    let threaded = run_threaded(lam, RuntimeConfig::default(), build_threaded());

    let mut sim_edges: Vec<(u32, u32)> = event
        .trace
        .transfers()
        .iter()
        .map(|t| (t.src.0, t.dst.0))
        .collect();
    let mut thr_edges: Vec<(u32, u32)> = threaded
        .deliveries
        .iter()
        .map(|d| (d.from.0, d.to.0))
        .collect();
    sim_edges.sort_unstable();
    thr_edges.sort_unstable();
    assert_eq!(sim_edges, thr_edges, "{label}: edge multisets");

    let model_t = event.completion.to_f64();
    let wall_t = threaded.completion.to_f64();
    assert!(
        wall_t >= model_t - 0.01,
        "{label}: threaded finished impossibly fast ({wall_t} < {model_t})"
    );
    assert!(
        wall_t < model_t * 3.0 + 5.0,
        "{label}: threaded far too slow ({wall_t} vs {model_t})"
    );
}

#[test]
fn threaded_runtime_agrees_on_bcast() {
    for (n, lam) in [
        (5usize, Latency::from_int(2)),
        (14, Latency::from_ratio(5, 2)),
    ] {
        assert_threaded_agrees(
            n,
            lam,
            || bcast_programs(n, lam),
            || {
                let table = Arc::new(FibTable::new(lam, n as u64));
                send_programs_from(n, |id| {
                    Box::new(BcastProgram::new(
                        Arc::clone(&table),
                        (id == ProcId::ROOT).then_some(n as u64),
                    )) as Box<dyn Program<BcastPayload> + Send>
                })
            },
            "bcast",
        );
    }
}

#[test]
fn threaded_runtime_agrees_on_repeat() {
    let (n, m) = (8usize, 3u32);
    let lam = Latency::from_int(2);
    assert_threaded_agrees(
        n,
        lam,
        || repeat_programs(n, m, lam, Pacing::Greedy),
        || {
            let table = Arc::new(FibTable::new(lam, n as u64));
            send_programs_from(n, |id| {
                Box::new(RepeatProgram::new(
                    Arc::clone(&table),
                    Pacing::Greedy,
                    (id == ProcId::ROOT).then_some((n as u64, m)),
                )) as Box<dyn Program<postal_algos::MultiPacket> + Send>
            })
        },
        "repeat",
    );
}
