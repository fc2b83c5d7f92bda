//! `check` and `analyze`: the paper suite (`--algo <name|all>`) through
//! the model checker or the abstract interpreter, printed by one report
//! function.

use crate::args::{Args, Command, Kind};
use crate::CliError;
use postal_abs::{analyze_algo_with_topology, AbsConfig};
use postal_mc::{check_algo, Algo, McConfig};
use postal_model::Interval;
use postal_verify::{json, render, Diagnostic};
use std::fmt::Write as _;

/// Exhaustive exploration replays prefixes from scratch, so `--n` stays
/// small enough to explore honestly (the paper grid uses n ≤ 12).
pub(crate) const CHECK: Command = Command {
    name: "check",
    args: &[
        ("--algo", Kind::Value),
        ("--n", Kind::Int(1, 64)),
        ("--lambda", Kind::Value),
        ("--m", Kind::Int(1, 64)),
        ("--max-interleavings", Kind::Int(1, u64::MAX)),
        ("--format", Kind::Value),
        ("--deny", Kind::Value),
    ],
    run: check,
};

/// Each endpoint run simulates the full program set, and the adaptive
/// subdivision multiplies that by up to 2^depth: `--n` and
/// `--max-depth` bound the work.
pub(crate) const ANALYZE: Command = Command {
    name: "analyze",
    args: &[
        ("--algo", Kind::Value),
        ("--n", Kind::Int(1, 4096)),
        ("--lambda-range", Kind::Value),
        ("--m", Kind::Int(1, 64)),
        ("--max-depth", Kind::Int(0, 16)),
        ("--format", Kind::Value),
        ("--deny", Kind::Value),
        ("--topology", Kind::Value),
    ],
    run: analyze,
};

/// One algorithm's report, as `report` prints it.
struct Entry {
    name: String,
    /// The text block above the verdict.
    summary: String,
    /// The JSON object's fields before `"diagnostics"`, one line each.
    fields: String,
    diagnostics: Vec<Diagnostic>,
}

fn check(a: &Args) -> Result<String, CliError> {
    let (n, lam) = (a.int("--n")? as u32, a.lambda("--lambda")?);
    let m = a.opt_int("--m")?.unwrap_or(1) as u32;
    let mut cfg = McConfig::default();
    if let Some(k) = a.opt_int("--max-interleavings")? {
        cfg.max_interleavings = k;
    }
    report(a, |algo| {
        let rep = check_algo(algo, n, m, lam, None, &cfg);
        let s = &rep.stats;
        let comps: Vec<String> = rep.completions.iter().map(|c| format!("\"{c}\"")).collect();
        let mut fields = String::new();
        let _ = writeln!(fields, "  \"algo\": \"{}\",", rep.name);
        let _ = writeln!(fields, "  \"n\": {},", rep.n);
        let _ = writeln!(fields, "  \"m\": {},", rep.m);
        let _ = writeln!(fields, "  \"lambda\": \"{}\",", rep.lambda);
        let _ = writeln!(fields, "  \"executions\": {},", s.executions);
        let _ = writeln!(fields, "  \"deadlocks\": {},", s.deadlocks);
        let _ = writeln!(fields, "  \"branch_points\": {},", s.branch_points);
        let _ = writeln!(fields, "  \"sleep_set_pruned\": {},", s.pruned);
        let _ = writeln!(
            fields,
            "  \"naive_interleavings\": {},",
            s.naive_interleavings
        );
        let _ = writeln!(fields, "  \"reduction_ratio\": {},", s.reduction_ratio());
        let _ = writeln!(fields, "  \"truncated\": {},", s.truncated);
        let _ = writeln!(fields, "  \"bounded\": {},", s.bounded);
        let _ = writeln!(fields, "  \"completions\": [{}],", comps.join(", "));
        let _ = writeln!(
            fields,
            "  \"reference_completion\": \"{}\",",
            rep.reference_completion
        );
        let _ = writeln!(fields, "  \"races\": {},", rep.races);
        Entry {
            summary: rep.summary(),
            fields,
            name: rep.name,
            diagnostics: rep.diagnostics,
        }
    })
}

fn analyze(a: &Args) -> Result<String, CliError> {
    let (n, range) = (a.int("--n")? as u32, a.lambda_range("--lambda-range")?);
    let m = a.opt_int("--m")?.unwrap_or(1) as u32;
    let mut cfg = AbsConfig::default();
    if let Some(d) = a.opt_int("--max-depth")? {
        cfg.max_depth = d as u32;
    }
    let topo = a.topology(n)?;
    let iv = |x: Interval| format!("[\"{}\", \"{}\"]", x.lo(), x.hi());
    report(a, |algo| {
        let rep = analyze_algo_with_topology(algo, n, m, range, None, topo.as_ref(), &cfg);
        let subs: Vec<String> = rep
            .subintervals
            .iter()
            .map(|s| {
                format!(
                    "{{\"lambda\": {}, \"completion\": {}, \"exact\": {}, \
                     \"sends\": {}, \"peak_in_flight\": {}}}",
                    iv(s.lambda),
                    iv(s.completion),
                    s.exact,
                    s.sends,
                    s.peak_in_flight
                )
            })
            .collect();
        let mut fields = String::new();
        let _ = writeln!(fields, "  \"algo\": \"{}\",", rep.name);
        let _ = writeln!(fields, "  \"n\": {},", rep.n);
        let _ = writeln!(fields, "  \"m\": {},", rep.m);
        if let Some(t) = &topo {
            let _ = writeln!(fields, "  \"topology\": \"{}\",", t.spec());
        }
        let _ = writeln!(fields, "  \"lambda_range\": {},", iv(rep.lambda));
        let _ = writeln!(fields, "  \"completion\": {},", iv(rep.completion));
        let _ = writeln!(fields, "  \"lower_bound\": {},", iv(rep.lower_bound));
        let _ = writeln!(fields, "  \"gap\": {},", iv(rep.gap));
        let _ = writeln!(fields, "  \"widened\": {},", rep.widened);
        let _ = writeln!(fields, "  \"truncated\": {},", rep.truncated);
        let _ = writeln!(fields, "  \"subintervals\": [{}],", subs.join(", "));
        Entry {
            summary: rep.summary(),
            fields,
            name: rep.name,
            diagnostics: rep.diagnostics,
        }
    })
}

/// Runs `entry` for each algorithm `--algo` names and prints the
/// reports: a JSON array (`--format json`) or one text block per
/// algorithm, each ending in its verdict. Fails when a diagnostic
/// reaches `--deny`.
fn report(a: &Args, entry: impl Fn(Algo) -> Entry) -> Result<String, CliError> {
    let algos = match a.text("--algo")? {
        "all" => Algo::all().to_vec(),
        name => vec![Algo::parse(name).ok_or_else(|| {
            CliError::Invalid(format!(
                "unknown algorithm {name:?} (bcast|repeat|repeat-greedy|pack|\
                 pipeline|line|binary|star|dtree|all)"
            ))
        })?],
    };
    let (as_json, deny) = (a.json()?, a.deny()?);
    let mut out = String::new();
    let mut failed = false;
    if as_json {
        out.push_str("[\n");
    }
    for (idx, algo) in algos.iter().enumerate() {
        let e = entry(*algo);
        failed |= e.diagnostics.iter().any(|d| d.severity >= deny);
        if as_json {
            if idx > 0 {
                out.push_str(",\n");
            }
            let diags = json::diagnostics_to_json(&e.diagnostics);
            let _ = write!(
                out,
                "{{\n{}  \"diagnostics\": {}\n}}",
                e.fields,
                diags.trim_end()
            );
        } else {
            out.push_str(&e.summary);
            if e.diagnostics.is_empty() {
                out.push_str("  verdict               clean\n");
            } else {
                out.push('\n');
                out.push_str(&render::render_report(&e.diagnostics, &e.name));
            }
            if idx + 1 < algos.len() {
                out.push('\n');
            }
        }
    }
    if as_json {
        out.push_str("\n]");
    }
    if failed {
        Err(CliError::LintFailed(out))
    } else {
        Ok(out)
    }
}
