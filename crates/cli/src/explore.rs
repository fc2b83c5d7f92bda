//! The closed-form explorers: `tree`, `gantt`, `fib`, `svg`, `optimal`
//! and `plan`.

use crate::args::{Args, Command, Kind, M, N};
use crate::CliError;
use postal_algos::{run_bcast, tree_to_svg, BroadcastTree, SvgOptions, ToSchedule};
use postal_model::optimal::{optimal_multi_broadcast_with, OrderPolicy, SearchResult};
use postal_model::{runtimes, GenFib, Time};
use postal_sim::gantt::render_gantt;
use std::fmt::Write as _;

pub(crate) const TREE: Command = Command {
    name: "tree",
    args: &[("n", N), ("lambda", Kind::Value)],
    run: tree,
};

pub(crate) const GANTT: Command = Command {
    name: "gantt",
    args: TREE.args,
    run: gantt,
};

pub(crate) const FIB: Command = Command {
    name: "fib",
    args: &[("lambda", Kind::Value), ("max_t", Kind::Int(0, 10_000))],
    run: fib,
};

pub(crate) const SVG: Command = Command {
    name: "svg",
    args: &[("n", Kind::Int(1, 4096)), ("lambda", Kind::Value)],
    run: svg,
};

/// Exhaustive search is exponential in `n` and `m`.
pub(crate) const OPTIMAL: Command = Command {
    name: "optimal",
    args: &[
        ("n", Kind::Int(1, 6)),
        ("m", Kind::Int(1, 4)),
        ("lambda", Kind::Value),
    ],
    run: optimal,
};

pub(crate) const PLAN: Command = Command {
    name: "plan",
    args: &[("n", N), ("m", M), ("lambda", Kind::Value)],
    run: plan,
};

fn tree(a: &Args) -> Result<String, CliError> {
    let (n, lam) = (a.int("n")?, a.lambda("lambda")?);
    let tree = BroadcastTree::build(n, lam);
    let schedule = tree.to_schedule();
    postal_verify::assert_broadcast_clean(&schedule, "tree");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Optimal broadcast tree for MPS({n}, {lam}) — completes at t = {} = f_λ({n})\n",
        tree.completion()
    );
    out.push_str(&tree.render());
    Ok(out)
}

fn gantt(a: &Args) -> Result<String, CliError> {
    let (n, lam) = (a.int("n")? as usize, a.lambda("lambda")?);
    let report = run_bcast(n, lam);
    report.assert_model_clean();
    let cells = lam.ticks_per_unit().clamp(1, 4) as u32;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "BCAST schedule for MPS({n}, {lam}): S = sending, R = receiving, B = both\n"
    );
    out.push_str(&render_gantt(&report.trace, n, cells));
    Ok(out)
}

fn fib(a: &Args) -> Result<String, CliError> {
    let (lam, max_t) = (a.lambda("lambda")?, a.int("max_t")?);
    let g = GenFib::new(lam);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F_λ(t) for λ = {lam} (max processors reachable in t units):"
    );
    for t in 0..=max_t {
        let _ = writeln!(out, "  F({t:>4}) = {}", g.value(Time::from_int(t.into())));
    }
    let _ = writeln!(out, "\nf_λ(n) landmarks (optimal broadcast times):");
    for n in [2u128, 10, 100, 1000, 1_000_000] {
        let _ = writeln!(out, "  f({n:>8}) = {}", g.index(n));
    }
    Ok(out)
}

fn svg(a: &Args) -> Result<String, CliError> {
    let tree = BroadcastTree::build(a.int("n")?, a.lambda("lambda")?);
    Ok(tree_to_svg(&tree, SvgOptions::default()))
}

fn optimal(a: &Args) -> Result<String, CliError> {
    let (n, m, lam) = (a.int("n")?, a.int("m")?, a.lambda("lambda")?);
    let lb = runtimes::multi_lower_bound(n.into(), m, lam);
    let horizon = runtimes::pipeline_time(n.into(), m, lam)
        .min(runtimes::repeat_time(n.into(), m, lam))
        .min(runtimes::pack_time(n.into(), m, lam));
    let mut out = String::new();
    for (label, policy) in [
        ("any order       ", OrderPolicy::Any),
        ("order-preserving", OrderPolicy::Preserving),
    ] {
        let res =
            optimal_multi_broadcast_with(n as usize, m as u32, lam, horizon, 50_000_000, policy);
        let text = match res {
            SearchResult::Optimal(t) => format!("{t}"),
            SearchResult::BudgetExhausted => "search budget exhausted".into(),
            SearchResult::HorizonExceeded => {
                format!("{horizon} (= best known algorithm; nothing better exists)")
            }
        };
        let _ = writeln!(out, "optimum ({label}): {text}");
    }
    let _ = writeln!(out, "Lemma 8 lower bound:        {lb}");
    Ok(out)
}

fn plan(a: &Args) -> Result<String, CliError> {
    let (n, m, lam) = (u128::from(a.int("n")?), a.int("m")?, a.lambda("lambda")?);
    let d = runtimes::latency_matched_degree(n, lam);
    let mut rows: Vec<(String, Time, &str)> = vec![
        (
            "REPEAT".into(),
            runtimes::repeat_time(n, m, lam),
            "m overlapped BCASTs (Lemma 10)",
        ),
        (
            "PACK".into(),
            runtimes::pack_time(n, m, lam),
            "one packed broadcast (Lemma 12)",
        ),
        (
            "PIPELINE".into(),
            runtimes::pipeline_time(n, m, lam),
            "streamed broadcast (Lemmas 14/16)",
        ),
        (
            "LINE".into(),
            runtimes::line_time(n, m, lam),
            "chain; best as m → ∞",
        ),
        (
            "STAR".into(),
            runtimes::star_time(n, m, lam),
            "direct sends; best as λ → ∞",
        ),
        (
            format!("DTREE({d})"),
            runtimes::dtree_time_bound(n, m, lam, d),
            "latency-matched tree (Lemma 18 bound)",
        ),
    ];
    rows.sort_by_key(|a| a.1);
    let lb = runtimes::multi_lower_bound(n, m, lam);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Plan for n = {n}, m = {m}, λ = {lam} (lower bound {lb}):"
    );
    for (i, (name, t, note)) in rows.iter().enumerate() {
        let marker = if i == 0 { "→" } else { " " };
        let _ = writeln!(out, "{marker} {name:<12} {:>14}   {note}", t.to_string());
    }
    let _ = writeln!(
        out,
        "\nRecommended: {} ({:.2}× the lower bound)",
        rows[0].0,
        rows[0].1.to_f64() / lb.to_f64().max(1e-9)
    );
    Ok(out)
}
