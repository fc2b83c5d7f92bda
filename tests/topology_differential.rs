//! Differential acceptance grid for the **topology-aware** lint path.
//!
//! `--topology complete` must be a no-op in the strongest sense:
//! `lint_schedule_with_topology` on the complete graph must be
//! **byte-identical** — same diagnostics, same rendered report, same
//! `--format json` output — to plain `lint_schedule`, over the full
//! acceptance grid (every shipped broadcast algorithm, n ≤ 64,
//! λ ∈ {1, 2, 5/2, 7/3}, m ≤ 4) and over adversarially dirtied
//! schedules where `P0001`–`P0007` actually fire.
//!
//! The property half pins the sparse graphs themselves: a BFS-tree
//! schedule built from a ring / torus / hypercube / Knödel oracle only
//! ever sends along edges of that graph, so it must be `P0017`- and
//! `P0019`-clean (and free of hard validity errors) for random shapes
//! and latencies; and on random dirty schedules the `P0017` findings
//! are exactly the well-formed sends across a non-edge, checked against
//! the oracle's `is_edge` directly.

use postal::algos::{
    flood_schedule, run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, run_repeat_greedy,
    BroadcastTree, ToSchedule,
};
use postal::model::schedule::{Schedule, TimedSend};
use postal::model::{Latency, Time, Topology, TopologySpec};
use postal::verify::{
    json, lint_schedule, lint_schedule_with_topology, render, LintCode, LintOptions, Severity,
};
use proptest::prelude::*;

fn lambdas() -> Vec<Latency> {
    vec![
        Latency::from_int(1),
        Latency::from_int(2),
        Latency::from_ratio(5, 2),
        Latency::from_ratio(7, 3),
    ]
}

/// Asserts that handing the linter the complete graph changes not a
/// byte: diagnostics, rendered report and JSON array included.
fn assert_complete_identical(schedule: &Schedule, opts: &LintOptions, context: &str) {
    let complete = Topology::complete(schedule.n());
    let plain = lint_schedule(schedule, opts);
    let topo = lint_schedule_with_topology(schedule, opts, &complete);
    assert_eq!(topo, plain, "diagnostics diverge: {context}");
    assert_eq!(
        render::render_report(&topo, context),
        render::render_report(&plain, context),
        "rendered report diverges: {context}"
    );
    assert_eq!(
        json::diagnostics_to_json(&topo),
        json::diagnostics_to_json(&plain),
        "JSON output diverges: {context}"
    );
}

#[test]
fn single_message_grid_is_byte_identical_on_complete() {
    for lam in lambdas() {
        for n in 2..=64u64 {
            let opts = LintOptions::default();
            let report = run_bcast(n as usize, lam);
            let bcast = report.trace.to_schedule(n as u32, lam);
            assert_complete_identical(&bcast, &opts, &format!("bcast n={n} λ={lam}"));

            let tree = BroadcastTree::build(n, lam).to_schedule();
            assert_complete_identical(&tree, &opts, &format!("tree n={n} λ={lam}"));

            let flood = flood_schedule(n, lam);
            assert_complete_identical(&flood.schedule, &opts, &format!("flood n={n} λ={lam}"));
        }
    }
}

#[test]
fn multi_message_grid_is_byte_identical_on_complete() {
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
                    assert_complete_identical(
                        &schedule,
                        &opts,
                        &format!("{name} n={n} m={m} λ={lam}"),
                    );
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
fn dirty_schedules_are_byte_identical_on_complete() {
    // The complete-graph no-op must hold on *broken* inputs too — where
    // suppression kicks in and report ordering actually matters.
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
                        assert_complete_identical(
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

// ---------------------------------------------------------------------
// Property half: BFS-tree schedules on the sparse constructions.
// ---------------------------------------------------------------------

/// Builds the greedy BFS-tree broadcast schedule for `topo` from p0:
/// BFS order fixes each processor's parent, and every informed
/// processor then sends to its BFS children back-to-back, one unit
/// apart, starting no earlier than the instant it was informed. Every
/// transfer follows a tree edge, so the schedule is edge-respecting by
/// construction.
fn bfs_tree_schedule(topo: &Topology, lam: Latency) -> Schedule {
    let n = topo.n();
    let mut parent = vec![u32::MAX; n as usize];
    let mut order = vec![0u32];
    let mut seen = vec![false; n as usize];
    seen[0] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for v in topo.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                parent[v as usize] = u;
                order.push(v);
            }
        }
    }
    assert_eq!(order.len(), n as usize, "construction graphs are connected");

    let mut informed = vec![Time::ZERO; n as usize];
    let mut next_free = vec![Time::ZERO; n as usize];
    let mut sends = Vec::with_capacity(n as usize - 1);
    for &v in order.iter().skip(1) {
        let u = parent[v as usize];
        let start = informed[u as usize].max(next_free[u as usize]);
        next_free[u as usize] = start + Time::ONE;
        informed[v as usize] = start + lam.as_time();
        sends.push(TimedSend {
            src: u,
            dst: v,
            send_start: start,
        });
    }
    Schedule::new(n, lam, sends)
}

/// Random λ = p/q with 1 ≤ λ ≤ 8 and a small lattice (q ≤ 4).
fn arb_latency8() -> impl Strategy<Value = Latency> {
    (1i128..=4, 1i128..=8).prop_map(|(q, mult)| Latency::from_ratio(q * mult, q))
}

fn assert_topology_clean(topo: &Topology, lam: Latency) -> Result<(), TestCaseError> {
    let schedule = bfs_tree_schedule(topo, lam);
    let diags = lint_schedule_with_topology(&schedule, &LintOptions::default(), topo);
    prop_assert!(
        !diags.iter().any(|d| matches!(
            d.code,
            LintCode::NonEdgeSend | LintCode::TopologyPartitionUnreachable
        )),
        "{}: BFS tree tripped a topology code: {:?}",
        topo.spec(),
        diags
    );
    // The graph bound may leave a P0018 *warning* (port serialization
    // is not in the BFS bound), but nothing may be an error.
    prop_assert!(
        diags.iter().all(|d| d.severity < Severity::Error),
        "{}: BFS tree not error-clean: {:?}",
        topo.spec(),
        diags
    );
    Ok(())
}

/// One of the four sparse constructions, sized by `k`: a ring of
/// `k + 1`, a torus with `k` rows, a hypercube of dimension `k − 1`, or
/// a Knödel graph on `2k` processors.
fn sparse_topology(kind: u8, k: u32, cols: u32) -> Topology {
    let (spec, n) = match kind {
        0 => (TopologySpec::Ring, k + 1),
        1 => (TopologySpec::Torus { rows: k, cols }, k * cols),
        2 => (TopologySpec::Hypercube { dim: k - 1 }, 1 << (k - 1)),
        _ => (TopologySpec::Mbg { n: 2 * k }, 2 * k),
    };
    spec.instantiate(n).unwrap()
}

/// Random sends over `n` processors, deliberately dirty: endpoints may
/// be out of range or equal, starts may be negative or off the
/// half-unit lattice (thirds).
fn dirty_sends(n: u32, raw: Vec<(u32, u32, i128, i128)>) -> Vec<TimedSend> {
    raw.into_iter()
        .map(|(src, dst, num, den)| TimedSend {
            src: src % (n + 2),
            dst: dst % (n + 2),
            send_start: Time::new(num, den),
        })
        .collect()
}

/// Asserts that, with and without the broadcast stages, the `P0017`
/// findings are exactly the well-formed sends across a non-edge of
/// `topo`, one finding per send.
fn assert_non_edges_exact(
    topo: &Topology,
    lam: Latency,
    raw: Vec<(u32, u32, i128, i128)>,
) -> Result<(), TestCaseError> {
    let n = topo.n();
    let schedule = Schedule::new(n, lam, dirty_sends(n, raw));
    // `Schedule::new` keeps the sends in canonical order, the order the
    // findings are sorted back into below.
    let expected: Vec<TimedSend> = schedule
        .sends()
        .iter()
        .filter(|s| s.src < n && s.dst < n && s.src != s.dst && s.send_start >= Time::ZERO)
        .filter(|s| !topo.is_edge(s.src, s.dst))
        .copied()
        .collect();
    for opts in [LintOptions::default(), LintOptions::ports_only()] {
        let diags = lint_schedule_with_topology(&schedule, &opts, topo);
        let mut found = Vec::new();
        for d in diags.iter().filter(|d| d.code == LintCode::NonEdgeSend) {
            prop_assert_eq!(d.severity, Severity::Error);
            prop_assert_eq!(d.sends.len(), 1);
            prop_assert_eq!(d.proc, Some(d.sends[0].src));
            found.push(d.sends[0]);
        }
        found.sort_by_key(|s| (s.send_start, s.src, s.dst));
        prop_assert_eq!(&found, &expected, "{}: {:?}", topo.spec(), opts);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_bfs_trees_are_topology_clean(lam in arb_latency8(), n in 2u32..=96) {
        let topo = TopologySpec::Ring.instantiate(n).unwrap();
        assert_topology_clean(&topo, lam)?;
    }

    #[test]
    fn torus_bfs_trees_are_topology_clean(
        lam in arb_latency8(),
        rows in 1u32..=10,
        cols in 1u32..=10,
    ) {
        let topo = TopologySpec::Torus { rows, cols }
            .instantiate(rows * cols)
            .unwrap();
        assert_topology_clean(&topo, lam)?;
    }

    #[test]
    fn hypercube_bfs_trees_are_topology_clean(lam in arb_latency8(), dim in 0u32..=7) {
        let topo = TopologySpec::Hypercube { dim }.instantiate(1 << dim).unwrap();
        assert_topology_clean(&topo, lam)?;
    }

    #[test]
    fn mbg_bfs_trees_are_topology_clean(lam in arb_latency8(), half in 1u32..=48) {
        // The Knödel construction needs an even processor count.
        let n = 2 * half;
        let topo = TopologySpec::Mbg { n }.instantiate(n).unwrap();
        assert_topology_clean(&topo, lam)?;
    }

    #[test]
    fn non_edge_findings_are_exactly_the_non_edge_sends(
        lam in arb_latency8(),
        kind in 0u8..4,
        k in 1u32..=6,
        cols in 1u32..=5,
        raw in collection::vec((0u32..72, 0u32..72, -2i128..=40, 1i128..=3), 0..32),
    ) {
        assert_non_edges_exact(&sparse_topology(kind, k, cols), lam, raw)?;
    }
}
