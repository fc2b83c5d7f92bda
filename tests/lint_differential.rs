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
