//! Ties the model checker to the threaded runtime: the wall-clock
//! executor must land on the completion the checker proved unique, and
//! a dying worker must surface as `RuntimeError::WorkerExited` rather
//! than a hang or a panic in the harness.

use postal_algos::bcast::{BcastPayload, BcastProgram};
use postal_algos::FibTable;
use postal_mc::{check_algo, Algo, McConfig};
use postal_model::Latency;
use postal_runtime::{send_programs_from, try_run_threaded, RuntimeConfig, RuntimeError};
use postal_sim::{Context, ProcId, Program};
use std::sync::Arc;

#[test]
fn threaded_executor_lands_on_the_model_checked_completion() {
    let lam = Latency::from_int(2);
    let n = 6usize;
    let rep = check_algo(Algo::Bcast, n as u32, 1, lam, None, &McConfig::default());
    assert!(rep.is_clean());
    assert_eq!(
        rep.completions.len(),
        1,
        "checker proved a unique completion"
    );

    let table = Arc::new(FibTable::new(lam, n as u64));
    let programs = send_programs_from(n, |id| {
        Box::new(BcastProgram::new(
            Arc::clone(&table),
            (id == ProcId::ROOT).then_some(n as u64),
        )) as Box<dyn Program<BcastPayload> + Send>
    });
    let threaded = try_run_threaded(lam, RuntimeConfig::default(), programs)
        .expect("healthy workload must not lose a worker");
    // The threaded clock is wall-derived and only jitters upward: it can
    // never beat the model-checked completion, and a healthy run stays
    // within one latency unit of it.
    let proved = rep.completions[0].to_f64();
    assert!(threaded.completion.to_f64() >= proved - 0.01);
    assert!(threaded.completion.to_f64() <= proved + lam.as_time().to_f64());
    assert_eq!(threaded.deliveries.len(), n - 1);
}

#[test]
fn dying_worker_is_an_error_not_a_hang() {
    // p1 panics on its first delivery; the executor must report which
    // worker died instead of deadlocking the remaining threads.
    struct Fragile;
    impl Program<BcastPayload> for Fragile {
        fn on_start(&mut self, ctx: &mut dyn Context<BcastPayload>) {
            if ctx.me() == ProcId::ROOT {
                let n = ctx.n();
                for p in 1..n {
                    ctx.send(ProcId::from(p), BcastPayload { range_size: 1 });
                }
            }
        }
        fn on_receive(&mut self, ctx: &mut dyn Context<BcastPayload>, _: ProcId, _: BcastPayload) {
            assert!(ctx.me() != ProcId::from(1usize), "injected failure");
        }
    }
    let lam = Latency::from_int(2);
    let programs = send_programs_from(3, |_| {
        Box::new(Fragile) as Box<dyn Program<BcastPayload> + Send>
    });
    let err = try_run_threaded(lam, RuntimeConfig::default(), programs)
        .expect_err("worker death must be reported");
    let RuntimeError::WorkerExited { proc } = err;
    assert_eq!(proc, 1);
}
