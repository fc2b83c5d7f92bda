//! Experiment TOPO: lint throughput with the topology oracle enabled.
//!
//! The topology-aware lint path (`lint_schedule_with_topology`) wraps
//! the standard pass sweep with three graph-grounded passes
//! (`P0017`–`P0019`). This experiment prices that wrapper at
//! 10³–10⁶ sends, two ways:
//!
//! * **complete oracle** — the no-op identity path every `--topology
//!   complete` run takes: same broadcast-tree schedules as `exp_lint`,
//!   byte-identical output asserted, so the measured delta is pure
//!   plumbing overhead;
//! * **sparse oracle** — a Knödel-graph (`mbg:N`) BFS-tree schedule
//!   linted against its own graph: every send pays a real `is_edge`
//!   test and the BFS bound actually computes.
//!
//! Gate: over the whole series, each oracle-enabled sweep must stay
//! under [`OVERHEAD_MAX`] times the plain-lint wall clock for the
//! *same* schedules, and every rung's mbg-oracle time must be positive.
//! Results land in `BENCH_topo.json` via `report::emit_json`.

use postal_algos::{BroadcastTree, ToSchedule};
use postal_bench::report::{BenchReport, Cmp};
use postal_bench::table::Table;
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Latency, Time, Topology, TopologySpec};
use postal_verify::{lint_schedule, lint_schedule_with_topology, render, LintOptions, Severity};
use std::time::Instant;

/// Multiple of the plain-lint wall clock each oracle-enabled sweep
/// must stay under.
const OVERHEAD_MAX: f64 = 1.5;

/// The greedy BFS-tree broadcast schedule for `topo` from p0: BFS order
/// fixes parents, each informed processor sends to its BFS children
/// back-to-back one unit apart. Edge-respecting by construction.
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

/// Times one full lint sweep, returning (diagnostics, seconds).
fn timed<F: FnOnce() -> Vec<postal_model::lint::Diagnostic>>(
    f: F,
) -> (Vec<postal_model::lint::Diagnostic>, f64) {
    let start = Instant::now();
    let diags = f();
    (diags, start.elapsed().as_secs_f64())
}

fn main() {
    let lam = Latency::from_ratio(5, 2);
    let opts = LintOptions::default();

    let mut table = Table::new(
        "TOPO: lint throughput with the topology oracle, λ = 5/2",
        &[
            "n",
            "sends",
            "plain s",
            "complete s",
            "mbg plain s",
            "mbg s",
            "sends/sec (mbg)",
        ],
    );
    let mut report = BenchReport::new("topo");
    let mut plain_total = 0.0f64;
    let mut complete_total = 0.0f64;
    let mut sparse_plain_total = 0.0f64;
    let mut sparse_total = 0.0f64;

    for n in [1_000u64, 10_000, 100_000, 1_000_000] {
        // Complete oracle: the identity path over exp_lint's schedules.
        let tree = BroadcastTree::build(n, lam).to_schedule();
        let sends = tree.len();
        let complete = Topology::complete(n as u32);
        let (plain, plain_secs) = timed(|| lint_schedule(&tree, &opts));
        let (with_complete, complete_secs) =
            timed(|| lint_schedule_with_topology(&tree, &opts, &complete));
        assert_eq!(
            with_complete, plain,
            "complete oracle must be byte-identical at n = {n}"
        );
        drop(tree);

        // Sparse oracle: a Knödel BFS tree against its own graph.
        let mbg = TopologySpec::Mbg { n: n as u32 }
            .instantiate(n as u32)
            .expect("even n");
        let sparse_schedule = bfs_tree_schedule(&mbg, lam);
        let (sparse_plain, sparse_plain_secs) = timed(|| lint_schedule(&sparse_schedule, &opts));
        let (sparse, sparse_secs) =
            timed(|| lint_schedule_with_topology(&sparse_schedule, &opts, &mbg));
        let errors = sparse
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        assert!(
            errors == 0,
            "mbg BFS tree must lint error-free at n = {n}:\n{}",
            render::render_report(&sparse, "exp_topo")
        );
        drop((sparse_plain, sparse_schedule));

        plain_total += plain_secs;
        complete_total += complete_secs;
        sparse_plain_total += sparse_plain_secs;
        sparse_total += sparse_secs;

        let rate = sends as f64 / sparse_secs.max(1e-9);
        println!(
            "n = {n:>9}: {sends:>9} sends, plain {plain_secs:.3}s, complete-oracle \
             {complete_secs:.3}s, mbg plain {sparse_plain_secs:.3}s, mbg-oracle \
             {sparse_secs:.3}s  ({rate:.0} sends/sec)"
        );
        table.row(vec![
            n.to_string(),
            sends.to_string(),
            format!("{plain_secs:.3}"),
            format!("{complete_secs:.3}"),
            format!("{sparse_plain_secs:.3}"),
            format!("{sparse_secs:.3}"),
            format!("{rate:.0}"),
        ]);
        report
            .num(&format!("plain_secs_n{n}"), plain_secs)
            .num(&format!("complete_secs_n{n}"), complete_secs)
            .gate(&format!("mbg_secs_n{n}"), sparse_secs, Cmp::Gt, 0.0);
    }

    // Series-level gate (the per-n numbers at 10³ are all noise): each
    // oracle-enabled sweep vs the plain sweep over the same schedules.
    let complete_ratio = complete_total / plain_total.max(1e-9);
    let sparse_ratio = sparse_total / sparse_plain_total.max(1e-9);
    println!(
        "overhead: complete oracle {complete_ratio:.3}x, mbg oracle {sparse_ratio:.3}x \
         (budget {OVERHEAD_MAX}x)"
    );
    println!("{table}");
    let max = OVERHEAD_MAX;
    report
        .gate("complete_overhead_ratio", complete_ratio, Cmp::Lt, max)
        .gate("mbg_overhead_ratio", sparse_ratio, Cmp::Lt, max)
        .table(&table);
    postal_bench::report::emit_json(&report);
}
