//! Every shipped algorithm must be lint-clean at error severity: the
//! schedule it realizes (extracted from the engine trace with
//! [`postal_sim::Trace::to_schedule`]) passes `P0001`–`P0005` and never
//! beats a proven lower bound (`P0007` at error level). Broadcast
//! algorithms are checked against the full broadcast rules; collectives
//! with multiple sources are checked against the port rules.
//!
//! This is the acceptance grid from the analyzer's introduction: all
//! algorithms, n ∈ {2..64}, λ ∈ {1, 2, 3, 5} (plus the paper's 5/2).

use postal_algos::ext::{allreduce, alltoall, combine, gather, gossip, scatter};
use postal_algos::{
    flood_schedule, run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, run_repeat_greedy,
    BroadcastTree, ToSchedule,
};
use postal_model::lint::{LintCode, StreamingLint};
use postal_model::schedule::TimedSend;
use postal_model::{Latency, TopologySpec};
use postal_obs::LintSink;
use postal_sim::{Simulation, Uniform};
use postal_verify::{
    assert_broadcast_clean, assert_clean, assert_ports_clean, LintOptions, Severity,
};
use std::mem::size_of;

fn lambdas() -> Vec<Latency> {
    vec![
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_int(3),
        Latency::from_int(5),
        Latency::from_ratio(5, 2),
    ]
}

#[test]
fn bcast_is_lint_clean_on_the_full_grid() {
    for lam in lambdas() {
        for n in 2..=64usize {
            let report = run_bcast(n, lam);
            report.assert_model_clean();
            let schedule = report.trace.to_schedule(n as u32, lam);
            let diags = assert_broadcast_clean(&schedule, &format!("bcast n={n} λ={lam}"));
            // BCAST is optimal: no gap diagnostic at any severity.
            assert!(
                !diags
                    .iter()
                    .any(|d| d.code == postal_verify::LintCode::OptimalityGap),
                "bcast n={n} λ={lam} flagged suboptimal: {diags:?}"
            );
        }
    }
}

#[test]
fn algorithm_runs_stay_on_the_linter_lattice() {
    // Inline, as `simulate --lint-inline` runs it: BCAST at λ = 2.
    let (n, lam) = (1000, Latency::from_int(2));
    let sink = LintSink::new(n as u32, lam, LintOptions::default());
    Simulation::new(n, &Uniform(lam))
        .observe(&sink)
        .discard_trace()
        .run(postal_algos::bcast_programs(n, lam))
        .expect("BCAST cannot diverge");
    let stream = sink.finish();
    assert_eq!(stream.sends_observed(), n as u64 - 1);
    assert_eq!(stream.exact_sends(), 0);

    // Folded from a stored trace: REPEAT at λ = 5/2.
    let (n, m, lam) = (40, 3, Latency::from_ratio(5, 2));
    let schedule = run_repeat(n, m, lam)
        .report
        .trace
        .to_schedule(n as u32, lam);
    let mut lint = StreamingLint::new(n as u32, lam, LintOptions::broadcast_of(m.into()));
    for s in schedule.sends() {
        lint.advance_watermark(s.send_start);
        lint.observe_send(s.src, s.dst, s.send_start);
    }
    assert_eq!(lint.index().sends_observed(), u64::from(m) * (n as u64 - 1));
    assert_eq!(lint.exact_sends(), 0);
}

#[test]
fn linter_memory_figure_is_pinned_byte_for_byte() {
    // The figure `simulate --lint-inline` prints as "linter memory":
    // every container the engine reserves, by capacity, before
    // `finish`. Ports-only leaves out the broadcast codes' state; the
    // ring adds its `P0017` findings: 240,784 bytes of containers plus
    // the messages and send lists those findings own, summed from the
    // finished report (`finish` moves each finding without copying it).
    let (n, lam) = (1000, Latency::from_int(2));
    let schedule = run_bcast(n, lam).trace.to_schedule(n as u32, lam);
    let ring = TopologySpec::Ring
        .instantiate(n as u32)
        .expect("a ring of 1000");
    for (what, mut lint, bytes) in [
        (
            "default",
            StreamingLint::new(n as u32, lam, LintOptions::default()),
            44_176,
        ),
        (
            "ports_only",
            StreamingLint::new(n as u32, lam, LintOptions::ports_only()),
            36_176,
        ),
        (
            "ring",
            StreamingLint::with_topology(n as u32, lam, LintOptions::default(), &ring),
            240_784,
        ),
    ] {
        for s in schedule.sends() {
            lint.advance_watermark(s.send_start);
            lint.observe_send(s.src, s.dst, s.send_start);
        }
        let counted = lint.memory_bytes();
        let held: usize = lint
            .finish()
            .iter()
            .filter(|d| d.code == LintCode::NonEdgeSend)
            .map(|d| d.message.capacity() + d.sends.capacity() * size_of::<TimedSend>())
            .sum();
        assert_eq!(what == "ring", held > 0, "{what}: held findings");
        assert_eq!(counted, bytes + held, "{what}");
    }
}

#[test]
fn tree_and_flood_schedules_are_lint_clean_on_the_full_grid() {
    for lam in lambdas() {
        for n in 2..=64u64 {
            let tree = BroadcastTree::build(n, lam).to_schedule();
            assert_broadcast_clean(&tree, &format!("tree n={n} λ={lam}"));
            let flood = flood_schedule(n, lam);
            assert_broadcast_clean(&flood.schedule, &format!("flood n={n} λ={lam}"));
        }
    }
}

#[test]
fn multi_message_broadcasts_are_lint_clean() {
    for lam in [Latency::from_int(1), Latency::from_ratio(5, 2)] {
        for &n in &[2usize, 9, 24, 64] {
            for &m in &[1u32, 2, 5, 8] {
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
                    report.verify().unwrap_or_else(|e| {
                        panic!("{name} n={n} m={m} λ={lam}: engine verify failed: {e:?}")
                    });
                    let schedule = report.report.trace.to_schedule(n as u32, lam);
                    assert_clean(
                        &schedule,
                        &opts,
                        Severity::Error,
                        &format!("{name} n={n} m={m} λ={lam}"),
                    );
                }
            }
        }
    }
}

#[test]
fn collectives_are_port_lint_clean() {
    for lam in [Latency::from_int(1), Latency::from_ratio(5, 2)] {
        for &n in &[2usize, 7, 16] {
            let values: Vec<u64> = (0..n as u64).collect();
            let items: Vec<Vec<u64>> = (0..n as u64)
                .map(|i| (0..n as u64).map(|j| i * 100 + j).collect())
                .collect();
            let checks: Vec<(&str, postal_model::schedule::Schedule)> = vec![
                (
                    "gather",
                    gather::run_gather(&values, lam)
                        .report
                        .trace
                        .to_schedule(n as u32, lam),
                ),
                (
                    "scatter",
                    scatter::run_scatter(&values, lam)
                        .trace
                        .to_schedule(n as u32, lam),
                ),
                (
                    "combine",
                    combine::run_combine(&values, lam)
                        .report
                        .trace
                        .to_schedule(n as u32, lam),
                ),
                (
                    "gossip",
                    gossip::run_gossip(&values, lam)
                        .report
                        .trace
                        .to_schedule(n as u32, lam),
                ),
                (
                    "allreduce",
                    allreduce::run_allreduce(&values, lam)
                        .report
                        .trace
                        .to_schedule(n as u32, lam),
                ),
                (
                    "alltoall",
                    alltoall::run_alltoall(&items, lam)
                        .report
                        .trace
                        .to_schedule(n as u32, lam),
                ),
            ];
            for (name, schedule) in checks {
                assert_ports_clean(&schedule, &format!("{name} n={n} λ={lam}"));
            }
        }
    }
}
