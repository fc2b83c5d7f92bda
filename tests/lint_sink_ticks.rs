//! The inline linter on the engine's ticks, pinned against the log path.
//!
//! `Simulation::run` hands its recorder each send and receive as `i64`
//! ticks of the run's lattice (`Recorder::record_send_ticks` and
//! `Recorder::record_recv_ticks`) and every other event, and every time
//! off the lattice, as an exact `ObsEvent`. `LintSink` takes the ticks
//! straight into the streaming linter when the run's denominator is its
//! own and converts them to exact times otherwise. Two things must hold:
//!
//! * A `LintSink` fed live reports exactly what a `LintStream` replay of
//!   the same run's events reports: the rendered and JSON report,
//!   `out_of_order`, `truncated`, `exact_sends`, `memory_bytes`,
//!   `completion` and `sends_observed`, against the events in recorded
//!   order, and all but the pending lane's peak against the sorted log
//!   a `MemoryRecorder` gives. The grid is every broadcast algorithm of
//!   the CLI's table × n ≤ 64 × λ ∈ {1, 2, 5/2, 7/3} × {complete, ring,
//!   `mbg:n`}, plus the cases the tick path skips: an off-lattice
//!   `wake_at`, a latency model whose lattice is not the linter's,
//!   queued input ports, faults, and an event cap.
//! * A recorder that implements only `record` — every recorder but
//!   `LintSink` — sees on the fast engine the stream `run_reference`
//!   emits, in the same order, on and off the lattice, queued, faulted
//!   and truncated.

use postal::algos::dtree::dtree_programs;
use postal::algos::pack::pack_programs;
use postal::algos::pipeline::pipeline_programs;
use postal::algos::repeat::repeat_programs;
use postal::algos::replay::replay_programs;
use postal::algos::{bcast_programs, Pacing};
use postal::model::lint::LintOptions;
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{Latency, Time, Topology, TopologySpec};
use postal::sim::prelude::*;
use postal::sim::SimError;
use postal::verify::json::diagnostics_to_json;
use postal::verify::render::render_report;
use postal_obs::{LintSink, LintStream, ObsEvent, ObsLog, Recorder, RunMeta};
use std::sync::Mutex;

/// One observed run: the engine's settings and the linter's.
struct Run<'a> {
    n: usize,
    model: &'a dyn LatencyModel,
    /// The λ the linter checks against.
    lam: Latency,
    m: u64,
    topology: Option<Topology>,
    port_mode: PortMode,
    faults: FaultPlan,
    max_events: Option<u64>,
}

impl<'a> Run<'a> {
    fn new(n: usize, model: &'a dyn LatencyModel, lam: Latency) -> Run<'a> {
        Run {
            n,
            model,
            lam,
            m: 1,
            topology: None,
            port_mode: PortMode::Strict,
            faults: FaultPlan::none(),
            max_events: None,
        }
    }

    fn sim(&self, recorder: &'a dyn Recorder, discard_trace: bool) -> Simulation<'a> {
        let mut sim = Simulation::new(self.n, self.model)
            .port_mode(self.port_mode)
            .faults(self.faults.clone())
            .observe(recorder);
        if discard_trace {
            sim = sim.discard_trace();
        }
        if let Some(t) = &self.topology {
            sim = sim.restrict_to(t);
        }
        if let Some(cap) = self.max_events {
            sim = sim.max_events(cap);
        }
        sim
    }

    fn opts(&self) -> LintOptions {
        LintOptions::broadcast_of(self.m)
    }

    fn sink(&self) -> LintSink {
        match &self.topology {
            Some(t) => LintSink::with_topology(self.n as u32, self.lam, self.opts(), t),
            None => LintSink::new(self.n as u32, self.lam, self.opts()),
        }
    }

    fn stream(&self) -> LintStream {
        match &self.topology {
            Some(t) => LintStream::with_topology(self.n as u32, self.lam, self.opts(), t),
            None => LintStream::new(self.n as u32, self.lam, self.opts()),
        }
    }
}

/// Everything `simulate --lint-inline` reads from a finished stream.
#[derive(Debug, PartialEq)]
struct Outcome {
    rendered: String,
    json: String,
    out_of_order: bool,
    truncated: bool,
    exact_sends: u64,
    memory_bytes: usize,
    completion: Time,
    sends_observed: u64,
}

fn outcome(stream: LintStream) -> Outcome {
    let (out_of_order, truncated) = (stream.out_of_order(), stream.truncated());
    let (exact_sends, memory_bytes) = (stream.exact_sends(), stream.memory_bytes());
    let (completion, sends_observed) = (stream.completion(), stream.sends_observed());
    let diags = stream.finish();
    Outcome {
        rendered: render_report(&diags, "inline"),
        json: diagnostics_to_json(&diags),
        out_of_order,
        truncated,
        exact_sends,
        memory_bytes,
        completion,
        sends_observed,
    }
}

/// Lints one run live through a `LintSink`, and again by replaying its
/// events through a `LintStream`: in the order the engine recorded them,
/// which must give the very same outcome, and sorted as a
/// `MemoryRecorder` log is (`ObsLog::sorted`), which must give the same
/// outcome but for `memory_bytes` — a sorted log announces each send at
/// its start instead of when it is issued, so other sends share the
/// linter's pending lane. Returns the live outcome and the sorted log.
fn assert_sink_matches_log<P, F>(label: &str, run: &Run, mk: F) -> (Outcome, ObsLog)
where
    P: Clone,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    let sink = run.sink();
    let live = run.sim(&sink, true).run(mk());
    let tape = Tape::default();
    let taped = run.sim(&tape, true).run(mk());
    match (&live, &taped) {
        (Ok(a), Ok(b)) => assert_eq!(a.completion, b.completion, "{label}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}"),
        _ => panic!("runs disagree on success: {label}"),
    }
    let events = tape.events();
    let replay = |events: &[ObsEvent]| {
        let mut stream = run.stream();
        for ev in events {
            stream.on_event(ev);
        }
        outcome(stream)
    };
    let live = outcome(sink.finish());
    assert_eq!(live, replay(&events), "{label}: replay in record order");
    let log = ObsLog::sorted(RunMeta::new("event", run.n as u32), events);
    let sorted = Outcome {
        memory_bytes: live.memory_bytes,
        ..replay(log.events())
    };
    assert_eq!(live, sorted, "{label}: replay of the sorted log");
    assert!(!live.out_of_order, "{label}");
    (live, log)
}

/// The broadcast `<algo>`s of the CLI's table (`dtree:<d>` at d = 3).
const ALGOS: [&str; 9] = [
    "bcast",
    "repeat",
    "repeat-greedy",
    "pack",
    "pipeline",
    "line",
    "binary",
    "star",
    "dtree:3",
];

/// Builds `algo` the way the CLI does and checks it with
/// [`assert_sink_matches_log`].
fn check_algo(algo: &str, run: &Run) -> (Outcome, ObsLog) {
    let (n, m, lam) = (run.n, run.m as u32, run.lam);
    let label = format!(
        "{algo} n={n} m={m} λ={lam} topology={:?} mode={:?} faults={} cap={:?}",
        run.topology.map(|t| t.spec().to_string()),
        run.port_mode,
        !run.faults.is_empty(),
        run.max_events,
    );
    match algo {
        "bcast" => assert_sink_matches_log(&label, run, || bcast_programs(n, lam)),
        "repeat" => assert_sink_matches_log(&label, run, || {
            repeat_programs(n, m, lam, Pacing::PaperExact)
        }),
        "repeat-greedy" => {
            assert_sink_matches_log(&label, run, || repeat_programs(n, m, lam, Pacing::Greedy))
        }
        "pack" => assert_sink_matches_log(&label, run, || pack_programs(n, m, lam)),
        "pipeline" => assert_sink_matches_log(&label, run, || pipeline_programs(n, m, lam)),
        "line" => assert_sink_matches_log(&label, run, || dtree_programs(n, m, 1)),
        "binary" => assert_sink_matches_log(&label, run, || dtree_programs(n, m, 2)),
        "star" => assert_sink_matches_log(&label, run, || dtree_programs(n, m, n as u64 - 1)),
        "dtree:3" => assert_sink_matches_log(&label, run, || dtree_programs(n, m, 3)),
        other => panic!("unknown algo {other}"),
    }
}

fn lambdas() -> [Latency; 4] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ]
}

/// The three graphs of the grid at `n` processors; `mbg:n` exists only
/// for even `n`.
fn topologies(n: usize) -> Vec<Option<Topology>> {
    let mut graphs = vec![None];
    for spec in [TopologySpec::Ring, TopologySpec::Mbg { n: n as u32 }] {
        if let Ok(t) = spec.instantiate(n as u32) {
            graphs.push(Some(t));
        }
    }
    graphs
}

/// Every broadcast algorithm × n ≤ 64 × λ × graph, strict ports, no
/// faults: the runs the tick path carries end to end. BCAST carries one
/// message; the others cycle m through 1..=3 with n.
#[test]
fn sink_on_ticks_matches_the_log_replay_on_the_grid() {
    let mut non_edge_reports = 0;
    for lam in lambdas() {
        let uni = Uniform(lam);
        for n in 2..=64usize {
            for topology in topologies(n) {
                for algo in ALGOS {
                    let mut run = Run::new(n, &uni, lam);
                    run.topology = topology;
                    if algo != "bcast" {
                        run.m = 1 + n as u64 % 3;
                    }
                    let (live, _) = check_algo(algo, &run);
                    assert_eq!(live.exact_sends, 0, "{algo} n={n} λ={lam}");
                    if live.json.contains("P0017") {
                        non_edge_reports += 1;
                    }
                }
            }
        }
    }
    // The sparse graphs do flag sends, so the grid covers held findings.
    assert!(non_edge_reports > 0);
}

/// Sends one message to each listed processor at start, or on a wake-up
/// at `at` when one is given.
struct Spray {
    dests: Vec<u32>,
    at: Option<Time>,
}

impl Program<u8> for Spray {
    fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
        match self.at {
            Some(t) => ctx.wake_at(t),
            None => self.on_wake(ctx),
        }
    }
    fn on_receive(&mut self, _: &mut dyn Context<u8>, _: ProcId, _: u8) {}
    fn on_wake(&mut self, ctx: &mut dyn Context<u8>) {
        for &d in &self.dests {
            ctx.send(ProcId(d), 0);
        }
    }
}

/// One spray per listed `(destinations, wake-up)`; `Idle` for the rest
/// of the `n` processors.
fn sprays(n: usize, plans: &[(&[u32], Option<Time>)]) -> Vec<Box<dyn Program<u8>>> {
    let mut programs: Vec<Box<dyn Program<u8>>> = plans
        .iter()
        .map(|&(dests, at)| {
            Box::new(Spray {
                dests: dests.to_vec(),
                at,
            }) as Box<dyn Program<u8>>
        })
        .collect();
    programs.resize_with(n, || Box::new(Idle));
    programs
}

/// A λ = 2 broadcast of four processors whose last send starts at 15/7,
/// off the half-unit lattice.
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

/// A wake-up off the run's lattice puts its sends and receives off it
/// too: their exact stamps reach the sink through `record` and take the
/// linter's exact lane.
#[test]
fn off_lattice_wakes_reach_the_sink_exactly() {
    let schedule = off_lattice_schedule();
    let two = Uniform(schedule.latency());
    let run = Run::new(4, &two, schedule.latency());
    let (live, _) = assert_sink_matches_log("replay 15/7", &run, || replay_programs(&schedule));
    assert_eq!(live.exact_sends, 1);
    assert_eq!(live.completion, schedule.completion());

    let run = Run::new(5, &two, Latency::from_int(2));
    let third = Some(Time::new(1, 3));
    let (live, _) = assert_sink_matches_log("wake at 1/3", &run, || {
        sprays(5, &[(&[1, 2], third), (&[3, 4], third)])
    });
    assert_eq!((live.exact_sends, live.sends_observed), (4, 4));
}

/// Latency models whose lattice differs from the linter's: the sink sees
/// a foreign denominator and converts each tick to its exact time. A
/// model on the linter's own lattice keeps the tick path.
#[test]
fn foreign_lattices_convert_through_exact_time() {
    let two = Latency::from_int(2);
    for n in [8usize, 21, 33] {
        let stepped = TimeVarying::new(vec![
            (Time::ZERO, two),
            (Time::from_int(4), Latency::from_ratio(7, 3)),
        ]);
        let sixths =
            Hierarchical::blocks(n, 4, Latency::from_ratio(3, 2), Latency::from_ratio(7, 3));
        let halves = Hierarchical::blocks(n, 4, two, Latency::from_ratio(5, 2));
        let models: [(&dyn LatencyModel, i64); 3] = [(&stepped, 6), (&sixths, 6), (&halves, 2)];
        for (model, den) in models {
            assert_eq!(model.tick_denominator(), den);
            for algo in ["bcast", "pipeline", "binary", "star"] {
                let mut run = Run::new(n, model, two);
                run.m = 2;
                check_algo(algo, &run);
            }
        }
    }
}

/// Queued input ports delay a contended receive past its arrival, so its
/// start and arrival ticks differ.
#[test]
fn queued_receives_match_the_log_replay() {
    let mut queued = 0;
    for lam in [Latency::from_int(2), Latency::from_ratio(7, 3)] {
        let uni = Uniform(lam);
        let mut run = Run::new(6, &uni, lam);
        run.port_mode = PortMode::Queued;
        let (_, log) = assert_sink_matches_log("converge", &run, || {
            sprays(6, &[(&[5, 1], None), (&[5, 2], None), (&[5], None)])
        });
        queued += log
            .events()
            .iter()
            .filter(|e| matches!(e, ObsEvent::Recv { queued: true, .. }))
            .count();
        for n in [5usize, 16, 33] {
            for seed in [1u64, 0xDEAD_BEEF] {
                let jittered = Jittered::new(lam, 3, seed);
                for algo in ["bcast", "star", "repeat-greedy", "binary"] {
                    let mut run = Run::new(n, &jittered, lam);
                    run.port_mode = PortMode::Queued;
                    run.m = 2;
                    let (_, log) = check_algo(algo, &run);
                    queued += log
                        .events()
                        .iter()
                        .filter(|e| matches!(e, ObsEvent::Recv { queued: true, .. }))
                        .count();
                }
            }
        }
    }
    assert!(queued > 0);
}

/// Dropped messages and crashed processors prune the cascade; the drop
/// and crash events reach the sink through `record`.
#[test]
fn faulted_runs_match_the_log_replay() {
    for n in [8usize, 33] {
        for lam in lambdas() {
            let uni = Uniform(lam);
            let mut run = Run::new(n, &uni, lam);
            run.faults = FaultPlan::none()
                .dropping(0)
                .dropping(3)
                .dropping(7)
                .crashing(ProcId(1), Time::from_int(2))
                .crashing(ProcId(n as u32 / 2), Time::new(5, 2));
            run.m = 2;
            for algo in ["bcast", "pipeline", "dtree:3", "star", "repeat"] {
                check_algo(algo, &run);
            }
        }
    }
}

/// An event cap stops the run with a `Truncated` event, which the sink
/// latches.
#[test]
fn truncated_runs_match_the_log_replay() {
    for lam in lambdas() {
        let uni = Uniform(lam);
        for cap in [1u64, 10, 40] {
            let mut run = Run::new(33, &uni, lam);
            run.max_events = Some(cap);
            let (live, _) = check_algo("bcast", &run);
            assert!(live.truncated, "cap {cap}");
        }
    }
}

/// A recorder that keeps every event in arrival order and implements
/// only `record`, like every recorder but `LintSink`.
#[derive(Default)]
struct Tape(Mutex<Vec<ObsEvent>>);

impl Recorder for Tape {
    fn record(&self, event: ObsEvent) {
        self.0.lock().unwrap().push(event);
    }
}

impl Tape {
    fn events(self) -> Vec<ObsEvent> {
        self.0.into_inner().unwrap()
    }
}

/// Asserts that a `record`-only recorder sees the same stream, event for
/// event and in the same order, from the fast engine with its trace
/// kept or discarded as from `run_reference`.
fn assert_defaults_match_reference<P, F>(label: &str, run: &Run, mk: F)
where
    P: Clone,
    F: Fn() -> Vec<Box<dyn Program<P>>>,
{
    let reference = Tape::default();
    let want = run
        .sim(&reference, true)
        .run_reference(mk())
        .map(|r| r.completion);
    let want_events = reference.events();
    assert!(!want_events.is_empty(), "{label}");
    for discard_trace in [true, false] {
        let fast = Tape::default();
        let got = run
            .sim(&fast, discard_trace)
            .run(mk())
            .map(|r| r.completion);
        assert_eq!(got, want, "{label} discard_trace={discard_trace}");
        assert_eq!(
            fast.events(),
            want_events,
            "{label} discard_trace={discard_trace}"
        );
    }
}

#[test]
fn record_only_recorders_see_the_reference_stream() {
    // On the lattice, for every broadcast algorithm.
    for lam in lambdas() {
        let uni = Uniform(lam);
        for n in [2usize, 13, 33] {
            let label = format!("λ={lam} n={n}");
            let run = Run::new(n, &uni, lam);
            assert_defaults_match_reference(&label, &run, || bcast_programs(n, lam));
            assert_defaults_match_reference(&label, &run, || pipeline_programs(n, 3, lam));
            assert_defaults_match_reference(&label, &run, || pack_programs(n, 2, lam));
            assert_defaults_match_reference(&label, &run, || {
                repeat_programs(n, 2, lam, Pacing::Greedy)
            });
            assert_defaults_match_reference(&label, &run, || dtree_programs(n, 2, 3));
        }
    }

    // Off the lattice: an off-lattice wake-up, and a model keeping the
    // half-unit lattice while returning 7/3.
    let schedule = off_lattice_schedule();
    let two = Uniform(schedule.latency());
    let run = Run::new(4, &two, schedule.latency());
    assert_defaults_match_reference("replay 15/7", &run, || replay_programs(&schedule));
    let run = Run::new(5, &two, Latency::from_int(2));
    assert_defaults_match_reference("wake at 1/3", &run, || {
        sprays(5, &[(&[1, 2], Some(Time::new(1, 3)))])
    });
    let seven_thirds = Latency::from_ratio(7, 3);
    let halves = HalvesOnly(seven_thirds);
    let run = Run::new(33, &halves, seven_thirds);
    assert_defaults_match_reference("7/3 on halves", &run, || {
        pipeline_programs(33, 3, seven_thirds)
    });

    // Queued, faulted and truncated.
    let lam = Latency::from_ratio(5, 2);
    let jittered = Jittered::new(lam, 3, 0xDEAD_BEEF);
    let mut run = Run::new(16, &jittered, lam);
    run.port_mode = PortMode::Queued;
    assert_defaults_match_reference("queued", &run, || dtree_programs(16, 2, 2));
    assert_defaults_match_reference("queued converge", &run, || {
        sprays(16, &[(&[5, 1], None), (&[5, 2], None), (&[5], None)])
    });
    let uni = Uniform(lam);
    let mut run = Run::new(33, &uni, lam);
    run.faults = FaultPlan::none()
        .dropping(0)
        .dropping(3)
        .crashing(ProcId(1), Time::from_int(2))
        .crashing(ProcId(16), Time::new(5, 2));
    assert_defaults_match_reference("faulted", &run, || pipeline_programs(33, 2, lam));
    let mut run = Run::new(33, &uni, lam);
    run.max_events = Some(10);
    assert_defaults_match_reference("truncated", &run, || bcast_programs(33, lam));
    let truncated = Tape::default();
    let err = run
        .sim(&truncated, true)
        .run(bcast_programs(33, lam))
        .unwrap_err();
    assert_eq!(err, SimError::EventLimitExceeded { limit: 10 });
    assert!(matches!(
        truncated.events().last(),
        Some(ObsEvent::Truncated { .. })
    ));
}

/// Returns one λ for every send but declares the default half-unit
/// lattice, so a λ off the halves takes the engine's exact path.
struct HalvesOnly(Latency);

impl LatencyModel for HalvesOnly {
    fn latency(&self, _src: ProcId, _dst: ProcId, _send_start: Time) -> Latency {
        self.0
    }
}
