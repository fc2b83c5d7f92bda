//! Differential check of the linter's `finish`-time pass for `P0005`
//! and `P0006`, which reads the per-processor lanes as tick counts
//! while every first receipt and idle cursor lies on the stream's
//! lattice, and as exact times once one does not.
//!
//! Each schedule is a lazy broadcast tree from a random originator:
//! senders wait zero to two units before some sends (idle gaps the
//! linter records), stop while others are still uninformed (the open
//! gap after a port's last send) or never send at all. Its twin delays
//! one last send to a leaf by 1/7 of a unit, off every lattice below,
//! so that one first receipt forces the exact arm. Both are linted
//! through `lint_schedule` and through a `LintSink` fed the run's
//! sorted events (ticks where they lie on the lattice), and both
//! reports must be byte-identical to the seed oracle,
//! `lint::reference`, with each arm taken where it should be.

use postal::model::lint::reference::lint_schedule_reference;
use postal::model::lint::StreamingLint;
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{Latency, Time};
use postal::verify::{json, lint_schedule, render, Diagnostic, LintOptions};
use postal_obs::{LintSink, ObsEvent, Recorder};

fn lambdas() -> [Latency; 4] {
    [
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ]
}

/// SplitMix64, to draw a schedule from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// A lazy broadcast tree over `n` processors from `root`: each
/// processor in turn is informed by a send from one already informed,
/// at that sender's cursor — the tick it was informed, or its last
/// send's end — plus zero, zero, one or two units. With `shift`, the
/// last send that goes to a leaf, if it is also its sender's last send,
/// starts 1/7 of a unit later; the function returns whether it found
/// one.
fn lazy_tree(seed: u64, n: u32, lam: Latency, root: u32, shift: bool) -> (Schedule, bool) {
    let mut rng = Rng(seed);
    let den = lam.lattice_lcm(2);
    let lam_ticks = lam.as_time().to_ticks(den).expect("λ lies on its lattice");
    let mut cursor: Vec<Option<i64>> = vec![None; n as usize];
    cursor[root as usize] = Some(0);
    // (src, dst, start tick), in the order the tree grows.
    let mut sends: Vec<(u32, u32, i64)> = Vec::new();
    let mut order: Vec<u32> = (0..n).filter(|&p| p != root).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for dst in order {
        let holders: Vec<u32> = (0..n).filter(|&p| cursor[p as usize].is_some()).collect();
        let src = holders[rng.below(holders.len() as u64) as usize];
        let wait = [0, 0, 1, 2][rng.below(4) as usize];
        let at = cursor[src as usize].expect("an informed sender") + den * wait;
        cursor[src as usize] = Some(at + den);
        cursor[dst as usize] = Some(at + lam_ticks);
        sends.push((src, dst, at));
    }
    let senders: Vec<u32> = sends.iter().map(|s| s.0).collect();
    let last_of_sender = |i: usize| !sends[i + 1..].iter().any(|s| s.0 == sends[i].0);
    let shifted = shift.then(|| {
        (0..sends.len())
            .rev()
            .find(|&i| !senders.contains(&sends[i].1) && last_of_sender(i))
    });
    let shifted = shifted.flatten();
    let sends = sends
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, at))| {
            let start = Time::from_ticks(at, den);
            TimedSend {
                src,
                dst,
                send_start: if shifted == Some(i) {
                    start + Time::new(1, 7)
                } else {
                    start
                },
            }
        })
        .collect();
    (Schedule::new(n, lam, sends), shifted.is_some())
}

/// `lint_schedule`'s report, and whether the fold it runs left a first
/// receipt or idle cursor off the lattice (the exact arm of `finish`).
fn batch(schedule: &Schedule, opts: &LintOptions) -> (Vec<Diagnostic>, bool) {
    let mut lint = StreamingLint::new(schedule.n(), schedule.latency(), *opts);
    lint.observe_schedule(schedule);
    let exact = lint.exact_slots() > 0;
    let report = lint.finish();
    assert_eq!(report, lint_schedule(schedule, opts));
    (report, exact)
}

/// The report of a `LintSink` fed `schedule`'s run in timeline order:
/// each send at its start, each receive at its arrival, as ticks of the
/// linter's lattice where they lie on it and as events elsewhere; and
/// whether its `finish` took the exact arm.
fn sink(schedule: &Schedule, opts: &LintOptions) -> (Vec<Diagnostic>, bool) {
    let lam = schedule.latency();
    let den = lam.lattice_lcm(2);
    let mut events = Vec::with_capacity(2 * schedule.len());
    for (seq, s) in schedule.sends().iter().enumerate() {
        let arrival = s.send_start + lam.as_time() - Time::ONE;
        events.push(ObsEvent::Send {
            seq: seq as u64,
            src: s.src,
            dst: s.dst,
            start: s.send_start,
            finish: s.send_start.plus_one(),
        });
        events.push(ObsEvent::Recv {
            seq: seq as u64,
            src: s.src,
            dst: s.dst,
            arrival,
            start: arrival,
            finish: arrival.plus_one(),
            queued: false,
        });
    }
    events.sort_by_key(|e| e.at());
    let sink = LintSink::new(schedule.n(), lam, *opts);
    for e in events {
        match e {
            ObsEvent::Send {
                seq,
                src,
                dst,
                start,
                ..
            } => match start.to_ticks(den) {
                Some(k) => sink.record_send_ticks(seq, src, dst, k, den),
                None => sink.record(e),
            },
            ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival,
                ..
            } => match arrival.to_ticks(den) {
                Some(k) => sink.record_recv_ticks(seq, src, dst, k, k, den),
                None => sink.record(e),
            },
            _ => unreachable!("a schedule's run holds sends and receives"),
        }
    }
    let stream = sink.finish();
    assert!(!stream.out_of_order(), "a sorted feed is never late");
    let exact = stream.exact_slots() > 0;
    (stream.finish(), exact)
}

/// Asserts `report` is the oracle's, byte for byte.
fn assert_oracle(report: &[Diagnostic], oracle: &[Diagnostic], context: &str) {
    assert_eq!(report, oracle, "diagnostics diverge: {context}");
    assert_eq!(
        render::render_report(report, context),
        render::render_report(oracle, context),
        "rendered report diverges: {context}"
    );
    assert_eq!(
        json::diagnostics_to_json(report),
        json::diagnostics_to_json(oracle),
        "JSON output diverges: {context}"
    );
}

#[test]
fn idle_and_coverage_findings_match_the_oracle_on_both_arms() {
    // (ticks, exact) reports per route, and the P0006 findings seen.
    let (mut batch_arms, mut sink_arms) = ([0; 2], [0; 2]);
    let mut idle = 0;
    for lam in lambdas() {
        for n in [2u32, 3, 5, 8, 13, 21, 34] {
            for seed in 0..24u64 {
                let root = (seed as u32 * 7) % n;
                for shift in [false, true] {
                    let (schedule, shifted) =
                        lazy_tree(seed << 8 | u64::from(n), n, lam, root, shift);
                    if shift && !shifted {
                        continue;
                    }
                    // With one message, and as an m = 2 broadcast, whose
                    // P0007 bound differs; and with a processor dropped
                    // from the tree, so P0005 reports too.
                    let mut cases = vec![
                        (schedule.clone(), LintOptions::broadcast_of(1)),
                        (schedule.clone(), LintOptions::broadcast_of(2)),
                    ];
                    if schedule.len() > 1 {
                        let mut sends = schedule.sends().to_vec();
                        sends.remove(sends.len() / 2);
                        cases.push((Schedule::new(n, lam, sends), LintOptions::default()));
                    }
                    for (s, mut opts) in cases {
                        opts.originator = root;
                        let context = format!(
                            "lazy seed={seed} n={n} λ={lam} root={root} shift={shift} m={}",
                            opts.messages
                        );
                        let oracle = lint_schedule_reference(&s, &opts);
                        let (by_batch, batch_exact) = batch(&s, &opts);
                        let (by_sink, sink_exact) = sink(&s, &opts);
                        assert_oracle(&by_batch, &oracle, &context);
                        assert_oracle(&by_sink, &oracle, &context);
                        let den = lam.lattice_lcm(2);
                        let off = s
                            .sends()
                            .iter()
                            .any(|t| t.send_start.to_ticks(den).is_none());
                        assert_eq!(batch_exact, off, "lint_schedule arm: {context}");
                        assert_eq!(sink_exact, off, "LintSink arm: {context}");
                        batch_arms[batch_exact as usize] += 1;
                        sink_arms[sink_exact as usize] += 1;
                        idle += oracle.iter().filter(|d| d.code.as_str() == "P0006").count();
                    }
                }
            }
        }
    }
    for (route, arms) in [("lint_schedule", batch_arms), ("LintSink", sink_arms)] {
        assert!(arms[0] > 1500, "{route}: {} reports on ticks", arms[0]);
        assert!(arms[1] > 1500, "{route}: {} reports exact", arms[1]);
    }
    assert!(idle > 10_000, "{idle} idle-port findings");
}
