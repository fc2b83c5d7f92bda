//! Differential acceptance grid for the lint engine.
//!
//! `lint_schedule` — a fold of the schedule's sends through the
//! streaming engine — must be **byte-identical** to the retained seed
//! engine (`lint::reference`), the single independent oracle: not just
//! same-verdict but same rendered report and same `--format json`
//! output, diagnostic for diagnostic. This suite drives both engines
//! over the full acceptance grid (every shipped broadcast algorithm,
//! n ≤ 64, λ ∈ {1, 2, 5/2, 7/3}, m ≤ 4) and over adversarially dirtied
//! schedules where every code `P0001`–`P0007` actually fires, comparing
//! the exact bytes the CLI would print. λ = 7/3 keeps receive windows
//! off the half-unit lattice, exercising the engine's exact lanes, and
//! BCAST from a rotated root exercises every rule that names the
//! originator.

use postal::algos::{
    flood_schedule, run_bcast, run_bcast_from, run_dtree, run_pack, run_pipeline, run_repeat,
    run_repeat_greedy, BroadcastTree, ToSchedule,
};
use postal::model::lint::reference::lint_schedule_reference;
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{Latency, Time};
use postal::verify::{json, lint_schedule, render, LintOptions};

fn lambdas() -> Vec<Latency> {
    vec![
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ]
}

/// Asserts the two engines emit the same bytes for `schedule`:
/// rendered report and JSON array, plus the raw diagnostic values.
fn assert_identical(schedule: &Schedule, opts: &LintOptions, context: &str) {
    let fast = lint_schedule(schedule, opts);
    let slow = lint_schedule_reference(schedule, opts);
    assert_eq!(fast, slow, "diagnostics diverge: {context}");
    assert_eq!(
        render::render_report(&fast, context),
        render::render_report(&slow, context),
        "rendered report diverges: {context}"
    );
    assert_eq!(
        json::diagnostics_to_json(&fast),
        json::diagnostics_to_json(&slow),
        "JSON output diverges: {context}"
    );
}

#[test]
fn single_message_grid_is_byte_identical() {
    for lam in lambdas() {
        for n in 2..=64u64 {
            let opts = LintOptions::default();
            let report = run_bcast(n as usize, lam);
            let bcast = report.trace.to_schedule(n as u32, lam);
            assert_identical(&bcast, &opts, &format!("bcast n={n} λ={lam}"));

            let tree = BroadcastTree::build(n, lam).to_schedule();
            assert_identical(&tree, &opts, &format!("tree n={n} λ={lam}"));

            let flood = flood_schedule(n, lam);
            assert_identical(&flood.schedule, &opts, &format!("flood n={n} λ={lam}"));
        }
    }
}

#[test]
fn multi_message_grid_is_byte_identical() {
    for lam in lambdas() {
        for &n in &[2usize, 5, 9, 14, 24, 33, 48, 64] {
            for m in 1..=4u32 {
                let opts = LintOptions::broadcast_of(m as u64);
                for (name, report) in [
                    ("repeat", run_repeat(n, m, lam)),
                    ("repeat-greedy", run_repeat_greedy(n, m, lam)),
                    ("pack", run_pack(n, m, lam)),
                    ("pipeline", run_pipeline(n, m, lam)),
                    ("line", run_dtree(n, m, lam, 1)),
                    ("binary", run_dtree(n, m, lam, 2)),
                    ("star", run_dtree(n, m, lam, n as u64 - 1)),
                ] {
                    let schedule = report.report.trace.to_schedule(n as u32, lam);
                    assert_identical(&schedule, &opts, &format!("{name} n={n} m={m} λ={lam}"));
                }
            }
        }
    }
}

/// Shifts send `idx` one unit earlier, keeping everything else intact.
fn shift_back_one(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends[idx].send_start -= Time::ONE;
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

/// Drops send `idx`, typically uninforming a subtree (`P0005`).
fn drop_send(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends.remove(idx);
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

/// Redirects send `idx` out of range (`P0004`).
fn corrupt_dst(schedule: &Schedule, idx: usize) -> Schedule {
    let mut sends: Vec<TimedSend> = schedule.sends().to_vec();
    sends[idx].dst = schedule.n() + 7;
    Schedule::new(schedule.n(), schedule.latency(), sends)
}

#[test]
fn dirty_schedules_are_byte_identical() {
    // Every mutation of every tree schedule in the small grid: the
    // engines must agree on *broken* inputs — where diagnostics exist,
    // suppression kicks in, and ordering rules actually matter.
    for lam in lambdas() {
        for n in 2..=24u64 {
            let tree = BroadcastTree::build(n, lam).to_schedule();
            for idx in 0..tree.len() {
                for (what, dirty) in [
                    ("shift", shift_back_one(&tree, idx)),
                    ("drop", drop_send(&tree, idx)),
                    ("corrupt", corrupt_dst(&tree, idx)),
                ] {
                    for opts in [LintOptions::default(), LintOptions::ports_only()] {
                        assert_identical(
                            &dirty,
                            &opts,
                            &format!("{what} idx={idx} tree n={n} λ={lam}"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn rotated_originator_grid_is_byte_identical() {
    // BCAST from a non-zero root, linted from that root and from p0,
    // where the mismatch makes P0003 and P0005 fire, plus every shift
    // and drop mutation: the rules that single out the originator
    // (P0003's and P0005's exemption, P0006's first port cursor) must
    // follow `LintOptions::originator`, not processor 0.
    for lam in lambdas() {
        for n in 2..=24usize {
            let mut roots = vec![1, n / 2, n - 1];
            roots.dedup();
            for root in roots {
                let bcast = run_bcast_from(root, n, lam)
                    .trace
                    .to_schedule(n as u32, lam);
                for originator in [root as u32, 0] {
                    let opts = LintOptions {
                        originator,
                        ..LintOptions::default()
                    };
                    let context =
                        format!("bcast from p{root} linted from p{originator} n={n} λ={lam}");
                    assert_identical(&bcast, &opts, &context);
                    for idx in 0..bcast.len() {
                        for (what, dirty) in [
                            ("shift", shift_back_one(&bcast, idx)),
                            ("drop", drop_send(&bcast, idx)),
                        ] {
                            assert_identical(&dirty, &opts, &format!("{what} idx={idx} {context}"));
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn idle_and_gap_warnings_are_byte_identical() {
    // A deliberately lazy line schedule: valid, but full of P0006 idle
    // gaps and a P0007 optimality gap — the quality-stage codes the
    // clean grid rarely exercises.
    for lam in lambdas() {
        for n in 3..=16u32 {
            let mut sends = Vec::new();
            for p in 0..n - 1 {
                // Each hop waits two extra units after learning.
                let start = Time::from_int(p as i128 * 4) + lam.as_time();
                sends.push(TimedSend {
                    src: p,
                    dst: p + 1,
                    send_start: start,
                });
            }
            let lazy = Schedule::new(n, lam, sends);
            assert_identical(
                &lazy,
                &LintOptions::default(),
                &format!("lazy n={n} λ={lam}"),
            );
        }
    }
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

/// A random broadcast tree over `n` processors: each processor is
/// informed by a send from one already informed, at the sender's
/// cursor — the tick it first received, or its last send's end — or a
/// unit later, so senders send at the tick they first receive and
/// several sends share a start tick. With `noisy`, `n` sends more are
/// mixed in: sends by any sender at a random tick, a send at the tick
/// its receiver sends, malformed sends (self-sends, a processor out of
/// range, negative starts) and starts off the lattice.
fn random_schedule(seed: u64, n: u32, lam: Latency, noisy: bool) -> Schedule {
    let mut rng = Rng(seed);
    let den = lam.lattice_lcm(2);
    let lam_ticks = lam.as_time().to_ticks(den).expect("λ lies on its lattice");
    let tick = |k: i64| Time::from_ticks(k, den);
    let mut cursor: Vec<Option<i64>> = vec![None; n as usize];
    cursor[0] = Some(0);
    let mut sends = Vec::new();
    let mut send = |src: u32, dst: u32, send_start: Time| {
        sends.push(TimedSend {
            src,
            dst,
            send_start,
        })
    };
    for dst in 1..n {
        let holders: Vec<u32> = (0..n).filter(|&p| cursor[p as usize].is_some()).collect();
        let src = holders[rng.below(holders.len() as u64) as usize];
        let at = cursor[src as usize].expect("an informed sender") + den * rng.below(2) as i64;
        cursor[src as usize] = Some(at + den);
        cursor[dst as usize] = Some(at + lam_ticks);
        send(src, dst, tick(at));
    }
    for _ in 0..if noisy { n } else { 0 } {
        let (p, q) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        let at = rng.below(8 * den as u64) as i64;
        match rng.below(5) {
            0 | 1 => send(p, q, tick(at)),
            2 => {
                send(p, (p + 1) % n, tick(at));
                send(q, p, tick(at));
            }
            3 if q % 2 == 0 => send(p, n + q, tick(at)),
            3 => send(p, q, tick(-1 - at)),
            // Sevenths: off the lattice of every λ above.
            _ => send(p, q, Time::new(2 * at as i128 + 1, 7)),
        }
    }
    Schedule::new(n, lam, sends)
}

/// Well-formed sends on the lattice whose sender is not informed by
/// their start while a send after them, at the same start, goes to that
/// sender: the sends for which the batch fold reads the sender's first
/// receipt before that later send is recorded.
fn read_before_recorded(schedule: &Schedule, originator: u32) -> usize {
    let (n, lam) = (schedule.n(), schedule.latency());
    let den = lam.lattice_lcm(2);
    let well_formed =
        |t: &TimedSend| t.src < n && t.dst < n && t.src != t.dst && t.send_start >= Time::ZERO;
    let sends = schedule.sends();
    let informs = |t: &TimedSend, s: &TimedSend| well_formed(t) && t.dst == s.src;
    (0..sends.len())
        .filter(|&i| {
            let s = &sends[i];
            well_formed(s)
                && s.send_start.to_ticks(den).is_some()
                && s.src != originator
                && !sends
                    .iter()
                    .any(|t| informs(t, s) && t.send_start + lam.as_time() <= s.send_start)
                && sends[i + 1..]
                    .iter()
                    .any(|t| informs(t, s) && t.send_start == s.send_start)
        })
        .count()
}

#[test]
fn random_schedules_with_shared_start_ticks_are_byte_identical() {
    // The batch fold finalizes a well-formed send on the lattice at
    // once when nothing is parked, before the sends after it at the same
    // start are recorded; the stream engine parks it until the
    // watermark passes. Clean trees (where P0006 and P0007 report) and
    // trees with uninformed, malformed and off-lattice sends mixed in
    // must all report as the seed engine does.
    let (mut quality, mut read_early) = (0, 0);
    for lam in lambdas() {
        for n in [3u32, 5, 8, 13, 21] {
            for seed in 0..40u64 {
                let noisy = seed % 2 == 1;
                let schedule = random_schedule(seed << 8 | n as u64, n, lam, noisy);
                read_early += read_before_recorded(&schedule, 0);
                for opts in [
                    LintOptions::default(),
                    LintOptions::broadcast_of(2),
                    LintOptions::ports_only(),
                ] {
                    let context = format!(
                        "random seed={seed} n={n} λ={lam} broadcast={}",
                        opts.broadcast
                    );
                    assert_identical(&schedule, &opts, &context);
                    let diags = lint_schedule(&schedule, &opts);
                    quality += diags.iter().any(|d| d.code.as_str() == "P0006") as usize;
                }
            }
        }
    }
    assert!(quality > 200, "{quality} reports hold an idle-port finding");
    assert!(
        read_early > 50,
        "{read_early} sends read a first receipt early"
    );
}
