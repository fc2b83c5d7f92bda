//! Differential harness pinning the fast calendar-queue engine to the
//! seed binary-heap engine.
//!
//! [`Simulation::run`] (fast: `i64` ticks of the latency model's
//! lattice, O(1) bucket queue, u32 processor ids) and
//! [`Simulation::run_reference`] (the original exact-`Ratio` engine,
//! kept verbatim) must be *behaviorally indistinguishable*: same
//! completion time, same trace (every transfer field, in the same
//! order), same violations, same per-processor statistics, same
//! per-port occupancy, and the same observability event stream —
//! across every paper algorithm, both port-contention modes, fault
//! plans, jittered, time-varying and hierarchical latency, λ on the
//! lattices of halves, sixths and fourteenths, times off the declared
//! lattice (which route the fast engine through its exact fallback),
//! and event-budget truncation.
//!
//! Any future change to the fast path that shifts an event by half a
//! tick, reorders a tie, or drops an observability record fails here
//! with the first diverging case named in the panic message.
//!
//! Every case also builds the fast report's log with
//! `log_from_report`, which sorts compact keys and writes each event
//! once, and requires the log the seed composed: `ObsLog::sorted` over
//! the reference trace's `Send`/`Recv` pairs ([`trace_events`]) and its
//! violations.

use postal::algos::dtree::dtree_programs;
use postal::algos::ext::combine::{combine_programs, run_combine};
use postal::algos::pack::pack_programs;
use postal::algos::pipeline::pipeline_programs;
use postal::algos::repeat::repeat_programs;
use postal::algos::replay::replay_programs;
use postal::algos::{bcast_programs, Pacing};
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{runtimes, Latency, Time};
use postal::sim::prelude::*;
use postal::sim::SimError;
use postal::sim::{log_from_report, Trace};
use postal_obs::{MemoryRecorder, ObsEvent, ObsLog, RunMeta};

/// Everything that configures a run besides the programs themselves.
struct Setup<'a> {
    n: usize,
    latency: &'a dyn LatencyModel,
    port_mode: PortMode,
    faults: FaultPlan,
    max_events: Option<u64>,
}

impl<'a> Setup<'a> {
    fn strict(n: usize, latency: &'a dyn LatencyModel) -> Setup<'a> {
        Setup {
            n,
            latency,
            port_mode: PortMode::Strict,
            faults: FaultPlan::none(),
            max_events: None,
        }
    }

    fn build(&self, rec: &'a dyn postal_obs::Recorder) -> Simulation<'a> {
        let mut sim = Simulation::new(self.n, self.latency)
            .port_mode(self.port_mode)
            .faults(self.faults.clone())
            .observe(rec);
        if let Some(cap) = self.max_events {
            sim = sim.max_events(cap);
        }
        sim
    }
}

/// Runs the same program set on both engines and asserts that every
/// observable output is identical. Returns the two recorded streams so
/// callers can make extra, case-specific assertions.
fn assert_engines_agree<P, F>(label: &str, setup: &Setup, mk: F) -> (Vec<ObsEvent>, Vec<ObsEvent>)
where
    P: Clone + std::fmt::Debug,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    let fast_rec = MemoryRecorder::new();
    let fast = setup.build(&fast_rec).run(mk());
    let ref_rec = MemoryRecorder::new();
    let reference = setup.build(&ref_rec).run_reference(mk());

    match (&fast, &reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.completion, r.completion, "completion diverged: {label}");
            assert_eq!(f.events, r.events, "event count diverged: {label}");
            assert_eq!(f.violations, r.violations, "violations diverged: {label}");
            assert_eq!(f.proc_stats, r.proc_stats, "proc stats diverged: {label}");
            assert_eq!(
                f.trace.len(),
                r.trace.len(),
                "trace length diverged: {label}"
            );
            for (i, (a, b)) in f
                .trace
                .transfers()
                .iter()
                .zip(r.trace.transfers())
                .enumerate()
            {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "transfer {i} diverged: {label}"
                );
            }
            assert_eq!(
                f.trace.port_busy_times(setup.n),
                r.trace.port_busy_times(setup.n),
                "per-port occupancy diverged: {label}"
            );
            let mut events = trace_events(&r.trace);
            events.extend(r.violations.iter().map(|v| ObsEvent::Violation {
                seq: v.seq.0,
                dst: v.dst.0,
                arrival: v.arrival,
                busy_until: v.port_busy_until,
            }));
            let meta = RunMeta::new("event", setup.n as u32);
            assert_eq!(
                log_from_report(f, "event", setup.n as u32, None, None),
                ObsLog::sorted(meta, events),
                "log_from_report diverged from the sorted trace events: {label}"
            );
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged: {label}"),
        (f, r) => panic!("engines disagree on success: {label}\nfast: {f:?}\nreference: {r:?}"),
    }

    let fast_log = fast_rec.snapshot(RunMeta::new("event", setup.n as u32));
    let ref_log = ref_rec.snapshot(RunMeta::new("event", setup.n as u32));
    assert_eq!(
        fast_log.events(),
        ref_log.events(),
        "observability streams diverged: {label}"
    );
    (fast_log.events().to_vec(), ref_log.events().to_vec())
}

/// Converts one trace into the equivalent event stream (one `Send` and
/// one `Recv` per transfer, in trace order): the seed's input to
/// `ObsLog::sorted` in `log_from_report`.
fn trace_events<P>(trace: &Trace<P>) -> Vec<ObsEvent> {
    let mut events = Vec::with_capacity(trace.len() * 2);
    for t in trace.transfers() {
        events.push(ObsEvent::Send {
            seq: t.seq.0,
            src: t.src.0,
            dst: t.dst.0,
            start: t.send_start,
            finish: t.send_finish,
        });
        events.push(ObsEvent::Recv {
            seq: t.seq.0,
            src: t.src.0,
            dst: t.dst.0,
            arrival: t.arrival,
            start: t.recv_start,
            finish: t.recv_finish,
            queued: t.was_queued(),
        });
    }
    events
}

/// The CLI spellings of the nine paper workloads, in grid order.
const ALGOS: [&str; 9] = [
    "bcast",
    "repeat",
    "repeat-greedy",
    "pack",
    "pipeline",
    "line",
    "binary",
    "star",
    "dtree",
];

/// Mirrors the model checker's degree clamp (`postal-mc`): a tree
/// degree is at least 1 and at most `n − 1`.
fn degree(n: usize, d: u64) -> u64 {
    d.clamp(1, (n as u64).saturating_sub(1).max(1))
}

/// Instantiates one named workload and runs it through both engines.
fn run_case(algo: &str, m: u32, lam: Latency, setup: &Setup) {
    let n = setup.n;
    let label = format!(
        "{algo} n={n} m={m} lam={lam:?} mode={:?} faults={} jitter/exact per-latency",
        setup.port_mode,
        !setup.faults.is_empty(),
    );
    match algo {
        "bcast" => {
            assert_engines_agree(&label, setup, || bcast_programs(n, lam));
        }
        "repeat" => {
            assert_engines_agree(&label, setup, || {
                repeat_programs(n, m, lam, Pacing::PaperExact)
            });
        }
        "repeat-greedy" => {
            assert_engines_agree(&label, setup, || repeat_programs(n, m, lam, Pacing::Greedy));
        }
        "pack" => {
            assert_engines_agree(&label, setup, || pack_programs(n, m, lam));
        }
        "pipeline" => {
            assert_engines_agree(&label, setup, || pipeline_programs(n, m, lam));
        }
        "line" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, 1)));
        }
        "binary" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, 2)));
        }
        "star" => {
            assert_engines_agree(&label, setup, || dtree_programs(n, m, degree(n, n as u64)));
        }
        "dtree" => {
            let d = degree(n, runtimes::latency_matched_degree(n as u128, lam) as u64);
            assert_engines_agree(&label, setup, || dtree_programs(n, m, d));
        }
        other => panic!("unknown algo {other}"),
    }
}

fn lambdas() -> [Latency; 4] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        // Off the half-unit lattice: the fast engine runs on sixths.
        Latency::from_ratio(7, 3),
    ]
}

/// The full grid: 9 algorithms × n ≤ 64 × λ ∈ {1, 2, 5/2, 7/3} × m ≤ 4,
/// strict ports, no faults. BCAST ignores `m`, so it runs once per
/// `(n, λ)`.
#[test]
fn full_grid_matches_reference() {
    for n in [2usize, 3, 5, 8, 13, 33, 64] {
        for lam in lambdas() {
            let uni = Uniform(lam);
            let setup = Setup::strict(n, &uni);
            for algo in ALGOS {
                for m in [1u32, 2, 4] {
                    if algo == "bcast" && m > 1 {
                        continue;
                    }
                    run_case(algo, m, lam, &setup);
                }
            }
        }
    }
}

/// BCAST beyond the grid: a single processor, n = 14 (Figure 1),
/// λ = 4, and λ = 22/7 on fourteenths beside 7/3 on sixths.
#[test]
fn bcast_sizes_and_lambdas_match_reference() {
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
        Latency::from_ratio(22, 7),
        Latency::from_int(4),
    ] {
        let uni = Uniform(lam);
        for n in [1usize, 2, 5, 14, 64] {
            let label = format!("bcast n={n} lam={lam:?}");
            assert_engines_agree(&label, &Setup::strict(n, &uni), || bcast_programs(n, lam));
        }
    }
}

/// REPEAT under both pacings at m = 3 and n = 14.
#[test]
fn repeat_pacings_match_reference() {
    for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
        let uni = Uniform(lam);
        for (n, m) in [(5usize, 3u32), (14, 4), (33, 2)] {
            for pacing in [Pacing::PaperExact, Pacing::Greedy] {
                let label = format!("repeat n={n} m={m} lam={lam:?} {pacing:?}");
                assert_engines_agree(&label, &Setup::strict(n, &uni), || {
                    repeat_programs(n, m, lam, pacing)
                });
            }
        }
    }
}

/// PACK at m = 3 and n = 14.
#[test]
fn pack_messages_match_reference() {
    for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
        let uni = Uniform(lam);
        for (n, m) in [(5usize, 3u32), (14, 4)] {
            let label = format!("pack n={n} m={m} lam={lam:?}");
            assert_engines_agree(&label, &Setup::strict(n, &uni), || pack_programs(n, m, lam));
        }
    }
}

/// PIPELINE in both regimes: PIPELINE-1 (λ = 4, m = 2), PIPELINE-2
/// (λ = 2, m = 6), m = 5 at λ = 5/2, and m = 8 on the lattices of
/// sixths (λ = 7/3) and fourteenths (λ = 22/7).
#[test]
fn pipeline_regimes_match_reference() {
    for (lam, m) in [
        (Latency::from_int(4), 2u32),
        (Latency::from_int(2), 6),
        (Latency::from_ratio(5, 2), 5),
        (Latency::from_ratio(7, 3), 8),
        (Latency::from_ratio(22, 7), 8),
    ] {
        let uni = Uniform(lam);
        for n in [5usize, 14, 33] {
            let label = format!("pipeline n={n} m={m} lam={lam:?}");
            assert_engines_agree(&label, &Setup::strict(n, &uni), || {
                pipeline_programs(n, m, lam)
            });
        }
    }
}

/// DTREE at n = 15, m = 3 for degrees 1, 2, 3 and 7.
#[test]
fn dtree_degrees_match_reference() {
    for lam in [Latency::TELEPHONE, Latency::from_ratio(5, 2)] {
        let uni = Uniform(lam);
        for d in [1u64, 2, 3, 7] {
            let label = format!("dtree n=15 m=3 d={d} lam={lam:?}");
            assert_engines_agree(&label, &Setup::strict(15, &uni), || {
                dtree_programs(15, 3, d)
            });
        }
    }
}

/// COMBINE is the wake-heavy workload: a reversed broadcast tree whose
/// processors wake at computed instants instead of forwarding on
/// receipt.
#[test]
fn combine_matches_reference() {
    for lam in [
        Latency::TELEPHONE,
        Latency::from_ratio(5, 2),
        Latency::from_int(3),
    ] {
        let uni = Uniform(lam);
        for n in [1usize, 2, 5, 14, 33] {
            let values: Vec<u64> = (0..n as u64).collect();
            let label = format!("combine n={n} lam={lam:?}");
            assert_engines_agree(&label, &Setup::strict(n, &uni), || {
                combine_programs(&values, lam)
            });
        }
    }
    // And the outcome is the documented optimum.
    let values: Vec<u64> = (0..14).collect();
    let outcome = run_combine(&values, Latency::from_ratio(5, 2));
    outcome.report.assert_model_clean();
    assert_eq!(outcome.report.completion, Time::new(15, 2));
}

/// Sends one message to each listed processor at start.
struct Spray(Vec<u32>);

impl Program<u8> for Spray {
    fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
        for &d in &self.0 {
            ctx.send(ProcId(d), 0);
        }
    }
    fn on_receive(&mut self, _: &mut dyn Context<u8>, _: ProcId, _: u8) {}
}

/// One program per listed destination set; `Idle` for the rest of the
/// `n` processors.
fn sprays(n: usize, dests: &[&[u32]]) -> Vec<Box<dyn Program<u8>>> {
    let mut programs: Vec<Box<dyn Program<u8>>> = Vec::new();
    for d in dests {
        programs.push(Box::new(Spray(d.to_vec())));
    }
    while programs.len() < n {
        programs.push(Box::new(Idle));
    }
    programs
}

/// Hand-built workloads: a root spraying three processors, two senders
/// contending for one input port (a strict-mode violation), and a
/// system with nothing to do.
#[test]
fn hand_built_workloads_match_reference() {
    let (five_halves, two) = (
        Uniform(Latency::from_ratio(5, 2)),
        Uniform(Latency::from_int(2)),
    );
    let (_, spray) = assert_engines_agree("spray", &Setup::strict(4, &five_halves), || {
        sprays(4, &[&[1, 2, 3]])
    });
    assert_eq!(spray.len(), 6, "three sends and three receives");
    let (_, contention) = assert_engines_agree("contention", &Setup::strict(3, &two), || {
        sprays(3, &[&[2], &[2]])
    });
    assert_eq!(
        contention
            .iter()
            .filter(|e| matches!(e, ObsEvent::Violation { dst: 2, .. }))
            .count(),
        1
    );
    let (_, quiet) = assert_engines_agree("quiescent", &Setup::strict(2, &two), || sprays(2, &[]));
    assert!(quiet.is_empty());
}

/// Queued input ports change receive times (contention delays instead
/// of violations); both engines must queue identically.
#[test]
fn queued_ports_match_reference() {
    for n in [5usize, 16, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            let uni = Uniform(lam);
            let mut setup = Setup::strict(n, &uni);
            setup.port_mode = PortMode::Queued;
            for algo in ALGOS {
                run_case(algo, 2, lam, &setup);
            }
        }
    }
}

/// Message drops and crashes prune different subtrees of the event
/// cascade; the engines must prune the same ones.
#[test]
fn fault_plans_match_reference() {
    for n in [8usize, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            let uni = Uniform(lam);
            let faults = FaultPlan::none()
                .dropping(0)
                .dropping(3)
                .dropping(7)
                .crashing(ProcId(1), Time::from_int(2))
                .crashing(ProcId(n as u32 / 2), Time::new(5, 2));
            let mut setup = Setup::strict(n, &uni);
            setup.faults = faults;
            for algo in ["bcast", "pipeline", "dtree", "star", "repeat"] {
                run_case(algo, 2, lam, &setup);
            }
        }
    }
}

/// Deterministic bounded jitter perturbs per-message latency, so tie
/// patterns shift run to run; the engines must still agree event for
/// event.
#[test]
fn jittered_latency_matches_reference() {
    for n in [8usize, 33] {
        for lam in [Latency::from_int(2), Latency::from_ratio(5, 2)] {
            for seed in [1u64, 0xDEAD_BEEF] {
                let jit = Jittered::new(lam, 3, seed);
                let setup = Setup::strict(n, &jit);
                for algo in ["bcast", "star", "repeat-greedy", "binary"] {
                    run_case(algo, 2, lam, &setup);
                }
            }
        }
    }
}

/// Each latency model declares its own lattice: `TimeVarying` (λ = 2,
/// stepping to 7/3 at t = 10), `Hierarchical` (local 3/2, remote 7/3)
/// and `Jittered` around 7/3 all tick in sixths. Their runs must match
/// the reference and never touch the exact heap.
#[test]
fn model_lattices_match_reference() {
    let lam = Latency::from_ratio(7, 3);
    for n in [8usize, 33] {
        let stepped = TimeVarying::new(vec![
            (Time::ZERO, Latency::from_int(2)),
            (Time::from_int(10), lam),
        ]);
        let tiers = Hierarchical::blocks(n, 4, Latency::from_ratio(3, 2), lam);
        let jittered = Jittered::new(lam, 3, 0xDEAD_BEEF);
        let models: [(&str, &dyn LatencyModel); 3] = [
            ("time-varying", &stepped),
            ("hierarchical", &tiers),
            ("jittered", &jittered),
        ];
        for (name, model) in models {
            assert_eq!(model.tick_denominator(), 6, "{name}");
            let setup = Setup::strict(n, model);
            for algo in ["bcast", "star", "repeat-greedy", "binary", "pipeline"] {
                run_case(algo, 2, lam, &setup);
            }
            let report = Simulation::new(n, model)
                .run(pipeline_programs(n, 3, lam))
                .expect("pipeline runs");
            assert_eq!(report.exact_pushes, 0, "{name} n={n}");
        }
    }
}

/// Returns one λ for every send but declares the default half-unit
/// lattice, so a λ off the halves takes the engine's exact path.
struct HalvesOnly(Latency);

impl LatencyModel for HalvesOnly {
    fn latency(&self, _src: ProcId, _dst: ProcId, _send_start: Time) -> Latency {
        self.0
    }
}

/// The three sends of a λ = 2 schedule whose last send starts at 15/7,
/// off the half-unit lattice: its wake-up, arrival and delivery all
/// take the exact heap.
fn off_lattice_schedule() -> Schedule {
    let send = |src, dst, send_start| TimedSend {
        src,
        dst,
        send_start,
    };
    Schedule::new(
        4,
        Latency::from_int(2),
        vec![
            send(0, 1, Time::ZERO),
            send(0, 2, Time::ONE),
            send(1, 3, Time::new(15, 7)),
        ],
    )
}

/// `Uniform(7/3)` declares sixths, so its run rides the integer ring
/// (0 exact pushes) and stays reference-identical. The exact-`Ratio`
/// fallback is exercised, and pinned here, by a model that returns 7/3
/// but keeps the default half-unit lattice and by the replay of a
/// schedule with a send at 15/7: both take the exact heap (more than 0
/// exact pushes) and must match the reference.
#[test]
fn off_lattice_lambda_exercises_the_exact_fallback() {
    let lam = Latency::from_ratio(7, 3);
    let uni = Uniform(lam);
    let halves = HalvesOnly(lam);
    assert_eq!((uni.tick_denominator(), halves.tick_denominator()), (6, 2));
    for (model, on_lattice) in [(&uni as &dyn LatencyModel, true), (&halves, false)] {
        let setup = Setup::strict(33, model);
        run_case("bcast", 1, lam, &setup);
        run_case("pipeline", 3, lam, &setup);
        let report = Simulation::new(33, model)
            .run(pipeline_programs(33, 3, lam))
            .expect("pipeline runs");
        assert_eq!(
            report.exact_pushes == 0,
            on_lattice,
            "{}",
            report.exact_pushes
        );
    }

    let schedule = off_lattice_schedule();
    let two = Uniform(schedule.latency());
    assert_engines_agree("replay 15/7", &Setup::strict(4, &two), || {
        replay_programs(&schedule)
    });
    let report = Simulation::new(4, &two)
        .run(replay_programs(&schedule))
        .expect("replay runs");
    report.assert_model_clean();
    assert!(report.exact_pushes > 0, "{}", report.exact_pushes);
    assert_eq!(report.completion, schedule.completion());
}

/// `RunReport` counts the queue's two slow paths: pushes into the exact
/// heap (times off the run's lattice) and into the overflow heap (ticks
/// beyond the 512-tick window). `run_reference` has no calendar and
/// reads 0 for both.
#[test]
fn slow_path_counts_are_pinned() {
    let two = Uniform(Latency::from_int(2));
    let bcast = Simulation::new(10_000, &two)
        .run(bcast_programs(10_000, Latency::from_int(2)))
        .expect("bcast runs");
    assert_eq!((bcast.exact_pushes, bcast.overflow_pushes), (0, 0));

    // On halves instead of sixths, 22,832 of this run's 32,000 events
    // would take the exact heap.
    let lam = Latency::from_ratio(7, 3);
    let pipeline = Simulation::new(2001, &Uniform(lam))
        .run(pipeline_programs(2001, 8, lam))
        .expect("pipeline runs");
    assert_eq!(pipeline.events, 32_000);
    assert_eq!(pipeline.exact_pushes, 0);

    // STAR: the root books 999 sends at t = 0, so arrivals reach 999
    // units (1998 ticks) ahead, past the window.
    let star = || dtree_programs(1000, 1, 999);
    let fast = Simulation::new(1000, &two).run(star()).expect("star runs");
    assert_eq!(fast.exact_pushes, 0);
    assert!(fast.overflow_pushes > 0, "{}", fast.overflow_pushes);
    let reference = Simulation::new(1000, &two)
        .run_reference(star())
        .expect("star runs");
    assert_eq!(reference.completion, fast.completion);
    assert_eq!((reference.exact_pushes, reference.overflow_pushes), (0, 0));

    let schedule = off_lattice_schedule();
    let reference = Simulation::new(4, &Uniform(schedule.latency()))
        .run_reference(replay_programs(&schedule))
        .expect("replay runs");
    assert_eq!((reference.exact_pushes, reference.overflow_pushes), (0, 0));
}

/// Hitting `max_events` must surface identically on both engines: the
/// same `EventLimitExceeded` error and a `truncated` marker in the
/// recorded stream, so a cut-short trace can never read as a quietly
/// finished run.
#[test]
fn truncation_matches_reference_and_is_recorded() {
    let lam = Latency::from_int(2);
    let uni = Uniform(lam);
    let mut setup = Setup::strict(16, &uni);
    setup.max_events = Some(10);

    let fast_rec = MemoryRecorder::new();
    let fast = setup.build(&fast_rec).run(bcast_programs(16, lam));
    let ref_rec = MemoryRecorder::new();
    let reference = setup.build(&ref_rec).run_reference(bcast_programs(16, lam));

    assert!(matches!(
        fast,
        Err(SimError::EventLimitExceeded { limit: 10 })
    ));
    assert!(matches!(
        reference,
        Err(SimError::EventLimitExceeded { limit: 10 })
    ));

    let fast_log = fast_rec.snapshot(RunMeta::new("event", 16));
    let ref_log = ref_rec.snapshot(RunMeta::new("event", 16));
    assert_eq!(
        fast_log.events(),
        ref_log.events(),
        "truncated streams diverged"
    );
    let marker = fast_log
        .events()
        .iter()
        .find_map(|e| match *e {
            ObsEvent::Truncated {
                processed, limit, ..
            } => Some((processed, limit)),
            _ => None,
        })
        .expect("truncated run must record an ObsEvent::Truncated marker");
    assert_eq!(marker.1, 10);
    assert!(marker.0 > 10, "processed count includes the fatal event");

    // And the summary layer flags it as partial.
    let summary = postal_obs::MetricsSummary::from_log(&fast_log);
    assert!(summary.truncated);
    assert!(summary.is_partial());
}
