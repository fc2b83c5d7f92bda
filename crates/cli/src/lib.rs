//! Implementation of the `postal` command-line tool.
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is
//! a thin shim. Argument parsing is hand-rolled (three positional
//! arguments per subcommand at most — a dependency would be heavier than
//! the code).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use postal_algos::ext::{combine, gossip, scatter};
use postal_algos::{
    run_bcast, run_dtree, run_pack, run_pipeline, run_repeat, run_repeat_greedy, tree_to_svg,
    BroadcastTree, SvgOptions, ToSchedule,
};
use postal_model::optimal::{optimal_multi_broadcast_with, OrderPolicy, SearchResult};
use postal_model::{runtimes, GenFib, Latency, Time};
use postal_obs::{
    to_chrome_trace, to_jsonl, to_prometheus, MetricsSummary, ObsLog, Recorder, RingRecorder,
    SampleSpec,
};
use postal_sim::gantt::render_gantt;
use postal_sim::{log_from_report, RunReport};
use std::fmt::Write as _;

/// CLI failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Wrong arguments; the message is the usage text.
    Usage(String),
    /// Arguments parsed but invalid (e.g. λ < 1).
    Invalid(String),
    /// `postal lint` found diagnostics at or above the `--deny` level;
    /// the message is the rendered report.
    LintFailed(String),
}

const USAGE: &str =
    "postal — explore broadcasting in the postal model (Bar-Noy & Kipnis, SPAA 1992)

USAGE:
    postal tree <n> <lambda>                 optimal broadcast tree (Figure 1 style)
    postal gantt <n> <lambda>                BCAST schedule as an ASCII timeline
    postal fib <lambda> <max_t>              table of F_λ(t) and f_λ(n) landmarks
    postal plan <n> <m> <lambda>             compare all algorithms, recommend one
    postal simulate <algo> <n> <m> <lambda>  run one algorithm on the simulator
                                             (algo: bcast|repeat|repeat-greedy|pack|
                                              pipeline|line|binary|star|dtree:<d>|
                                              combine|gossip|scatter)
           [--trace-out FILE]                export Chrome trace JSON (Perfetto/about:tracing)
           [--events-out FILE]               export JSONL event log (re-lintable: postal lint)
           [--metrics-out FILE]              export Prometheus text exposition
           [--format text|json]              machine-readable summary
           [--sample SPEC]                   record through the sharded ring recorder with
                                             sampling: all | head | tail | rate:<k>, comma-
                                             separated (e.g. tail,rate:8); drops are counted
                                             and stamped into every export
           [--ring-capacity K]               per-shard ring capacity (default 65536)
           [--lint-inline]                   lint the run while it executes (codes
                                             P0001-P0007): the streaming lint engine
                                             rides the recorder, the trace is never
                                             stored; composes with --sample
           [--topology SPEC]                 hold the run to a sparse communication
                                             graph (complete | ring | torus:RxC |
                                             hypercube:D | mbg:N): sends across
                                             non-edges are counted and reported; with
                                             --lint-inline the streaming linter also
                                             emits the topology codes P0017-P0019
    postal stats <algo> <n> <m> <lambda>     observed-run metrics: gap to f_λ(n), port
                                             utilization, p50/p90/p99 latency, idle-port
                                             waste (P0006)
           [--trace-out|--events-out|--metrics-out FILE] [--format text|json]
           [--sample SPEC] [--ring-capacity K]
    postal svg <n> <lambda>                  broadcast tree as an SVG document (stdout)
    postal optimal <n> <m> <lambda>          exact optimum via exhaustive search
                                             (tiny instances only)
    postal lint <schedule.json|events.jsonl> static analysis: lint codes P0001-P0007
           [--deny warn|error] [--format text|json] [--m N]
                                             accepts schedule JSON or an observability
                                             JSONL event log; exits 1 when any
                                             diagnostic reaches --deny (default: error),
                                             and then the report (text or json) goes
                                             to stderr and stdout stays empty
           [--stream]                        fold a JSONL log through the streaming
                                             lint engine line by line (O(n) memory,
                                             identical report)
           [--topology SPEC]                 lint against a sparse communication graph
                                             (complete | ring | torus:RxC | hypercube:D
                                             | mbg:N): adds the graph-grounded codes
                                             P0017-P0019; a schedule file's own
                                             \"topology\" field is the default
    postal check --algo <name|all> --n N --lambda L
                                             model-check every interleaving (DPOR):
                                             codes P0008-P0011 over the whole state
                                             space, plus a re-lint of each execution
           [--m N] [--max-interleavings N] [--format text|json] [--deny warn|error]
    postal analyze --algo <name|all> --n N --lambda-range A..B
                                             abstract interpretation over the whole
                                             λ-range: codes P0012-P0016, each with a
                                             witness λ sub-interval
           [--m N] [--max-depth N] [--format text|json] [--deny warn|error]
           [--topology SPEC]                 analyze against a sparse communication
                                             graph: processors the graph cuts off from
                                             the originator are reported as P0019

<lambda> accepts integers, fractions and decimals: 3, 5/2, 2.5";

/// Entry point: parses `args` and returns the text to print.
///
/// # Errors
/// [`CliError::Usage`] for malformed invocations, [`CliError::Invalid`]
/// for well-formed but meaningless ones.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage = || CliError::Usage(USAGE.to_string());
    match args.first().map(String::as_str) {
        Some("tree") => {
            let (n, lam) = parse_n_lambda(&args[1..])?;
            let tree = BroadcastTree::build(n as u64, lam);
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
        Some("gantt") => {
            let (n, lam) = parse_n_lambda(&args[1..])?;
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
        Some("fib") => {
            let lam = parse_lambda(args.get(1).ok_or_else(usage)?)?;
            let max_t: i128 = args
                .get(2)
                .ok_or_else(usage)?
                .parse()
                .map_err(|_| CliError::Invalid("max_t must be an integer".into()))?;
            if !(0..=10_000).contains(&max_t) {
                return Err(CliError::Invalid("max_t must be in 0..=10000".into()));
            }
            let g = GenFib::new(lam);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "F_λ(t) for λ = {lam} (max processors reachable in t units):"
            );
            for t in 0..=max_t {
                let _ = writeln!(out, "  F({t:>4}) = {}", g.value(Time::from_int(t)));
            }
            let _ = writeln!(out, "\nf_λ(n) landmarks (optimal broadcast times):");
            for n in [2u128, 10, 100, 1000, 1_000_000] {
                let _ = writeln!(out, "  f({n:>8}) = {}", g.index(n));
            }
            Ok(out)
        }
        Some("svg") => {
            let (n, lam) = parse_n_lambda(&args[1..])?;
            if n > 4096 {
                return Err(CliError::Invalid("svg rendering capped at n ≤ 4096".into()));
            }
            let tree = BroadcastTree::build(n as u64, lam);
            Ok(tree_to_svg(&tree, SvgOptions::default()))
        }
        Some("optimal") => {
            let (n, m, lam) = parse_n_m_lambda(&args[1..])?;
            if n > 6 || m > 4 {
                return Err(CliError::Invalid(
                    "exhaustive search is exponential; use n ≤ 6, m ≤ 4".into(),
                ));
            }
            let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
            let horizon = runtimes::pipeline_time(n as u128, m as u64, lam)
                .min(runtimes::repeat_time(n as u128, m as u64, lam))
                .min(runtimes::pack_time(n as u128, m as u64, lam));
            let mut out = String::new();
            for (label, policy) in [
                ("any order       ", OrderPolicy::Any),
                ("order-preserving", OrderPolicy::Preserving),
            ] {
                let res = optimal_multi_broadcast_with(n, m, lam, horizon, 50_000_000, policy);
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
        Some("plan") => {
            let (n, m, lam) = parse_n_m_lambda(&args[1..])?;
            Ok(plan(n as u128, m as u64, lam))
        }
        Some("simulate") => {
            let (pos, opts) = split_output_flags(&args[1..])?;
            let (algo, rest) = pos.split_first().ok_or_else(usage)?;
            let (n, m, lam) = parse_n_m_lambda(rest)?;
            simulate(algo, n, m, lam, &opts)
        }
        Some("stats") => {
            let (pos, opts) = split_output_flags(&args[1..])?;
            let (algo, rest) = pos.split_first().ok_or_else(usage)?;
            let (n, m, lam) = parse_n_m_lambda(rest)?;
            stats(algo, n, m, lam, &opts)
        }
        Some("lint") => lint(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        _ => Err(usage()),
    }
}

fn lint(args: &[String]) -> Result<String, CliError> {
    use postal_verify::{json, lint_schedule, LintOptions, Severity};
    let mut file: Option<&str> = None;
    let mut deny = Severity::Error;
    let mut as_json = false;
    let mut m_override: Option<u64> = None;
    let mut stream_mode = false;
    let mut topology_arg: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| CliError::Invalid(format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--deny" => {
                deny = match flag_value(i)? {
                    "warn" => Severity::Warn,
                    "error" => Severity::Error,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--deny must be 'warn' or 'error', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--format" => {
                as_json = match flag_value(i)? {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--format must be 'text' or 'json', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--m" => {
                let m: u64 = flag_value(i)?
                    .parse()
                    .map_err(|_| CliError::Invalid("--m must be a positive integer".into()))?;
                if m == 0 {
                    return Err(CliError::Invalid("--m must be ≥ 1".into()));
                }
                m_override = Some(m);
                i += 2;
            }
            "--stream" => {
                stream_mode = true;
                i += 1;
            }
            "--topology" => {
                topology_arg = Some(flag_value(i)?.to_string());
                i += 2;
            }
            s if s.starts_with('-') => {
                return Err(CliError::Invalid(format!("unknown lint flag {s:?}")));
            }
            s if file.is_none() => {
                file = Some(s);
                i += 1;
            }
            s => {
                return Err(CliError::Invalid(format!(
                    "unexpected extra argument {s:?}"
                )));
            }
        }
    }
    let path = file.ok_or_else(|| CliError::Usage(USAGE.to_string()))?;
    // Stream the file instead of reading it into memory: million-send
    // schedules lint without ever materializing the trace text. The
    // first content line is read eagerly to sniff the format — an
    // observability JSONL log announces itself with a run header; a
    // schedule file is a single JSON object. Both reduce to a Schedule.
    use std::io::{Cursor, Read as _};
    let (first_line, reader) = open_sniffed(path)?;
    let is_jsonl = first_line.contains("\"type\":\"run\"");
    if stream_mode {
        return lint_streaming(
            path,
            first_line,
            reader,
            is_jsonl,
            m_override,
            topology_arg,
            deny,
            as_json,
        );
    }
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{path}: {e}"));
    let parsed = if is_jsonl {
        postal_verify::jsonl_to_schedule_file(Cursor::new(first_line).chain(reader))
            .map_err(|e| invalid(&e))?
    } else {
        json::parse_schedule_reader(Cursor::new(first_line).chain(reader))
            .map_err(|e| invalid(&e))?
    };
    let dropped = parsed.dropped_events.unwrap_or(0);
    let truncated = parsed.truncated;
    // The flag wins; a schedule file's own "topology" field is the default.
    let topo_spec = topology_arg.or(parsed.topology.clone());
    let (schedule, file_messages) = (parsed.schedule, parsed.messages);
    let messages = m_override.or(file_messages).unwrap_or(1);
    let opts_l = LintOptions::broadcast_of(messages);
    let raw = match &topo_spec {
        Some(spec) => {
            let topo = parse_topology(spec, schedule.n())?;
            postal_verify::lint_schedule_with_topology(&schedule, &opts_l, &topo)
        }
        None => lint_schedule(&schedule, &opts_l),
    };
    let diags = postal_verify::downgrade_truncated_trace(
        postal_verify::downgrade_partial_trace(raw, dropped),
        truncated,
    );
    lint_outcome(
        path,
        &diags,
        LintFacts {
            n: schedule.n(),
            latency: schedule.latency(),
            completion: schedule.completion(),
            messages,
            dropped,
            truncated,
        },
        as_json,
        deny,
    )
}

/// Opens `path` for lint-format sniffing: skips a UTF-8 byte-order mark
/// and any leading blank lines (editors and shell heredocs prepend
/// both), returning the first content line plus the rest of the file.
/// The returned line has the BOM already stripped, so chaining it back
/// in front of the reader reconstructs a clean document.
fn open_sniffed(path: &str) -> Result<(String, std::io::BufReader<std::fs::File>), CliError> {
    use std::io::{BufRead as _, BufReader};
    let cannot = |e: &dyn std::fmt::Display| CliError::Invalid(format!("cannot read {path}: {e}"));
    let handle = std::fs::File::open(path).map_err(|e| cannot(&e))?;
    let mut reader = BufReader::new(handle);
    let mut first_line = String::new();
    loop {
        first_line.clear();
        let n = reader.read_line(&mut first_line).map_err(|e| cannot(&e))?;
        if n == 0 {
            break; // EOF: hand the (blank) line to the parser for its error.
        }
        if first_line.starts_with('\u{feff}') {
            first_line.replace_range(..'\u{feff}'.len_utf8(), "");
        }
        if !first_line.trim().is_empty() {
            break;
        }
    }
    Ok((first_line, reader))
}

/// The facts a lint report's clean line and notes are rendered from.
struct LintFacts {
    n: u32,
    latency: Latency,
    completion: Time,
    messages: u64,
    dropped: u64,
    truncated: bool,
}

/// The incompleteness note under a lint report, naming every cause.
fn lint_note(path: &str, dropped: u64, truncated: bool) -> Option<String> {
    let cause = match (dropped > 0, truncated) {
        (true, true) => format!(
            "is a partial trace ({dropped} events dropped by sampling) \
             and was cut short by the event budget"
        ),
        (true, false) => format!("is a partial trace ({dropped} events dropped by sampling)"),
        (false, true) => "was cut short by the event budget (truncated trace)".to_string(),
        (false, false) => return None,
    };
    Some(format!(
        "note: {path} {cause}; \
             absence-based lints (P0003, P0005) are downgraded to warnings\n"
    ))
}

/// Renders a lint report — shared by the batch and streaming paths so
/// their output is byte-identical — and applies the `--deny` gate.
fn lint_outcome(
    path: &str,
    diags: &[postal_verify::Diagnostic],
    facts: LintFacts,
    as_json: bool,
    deny: postal_verify::Severity,
) -> Result<String, CliError> {
    use postal_verify::{json, render};
    let note = lint_note(path, facts.dropped, facts.truncated);
    let report = if as_json {
        json::diagnostics_to_json(diags)
    } else if diags.is_empty() {
        format!(
            "{path}: clean — valid broadcast of {} message(s) over MPS({}, {}), \
             completes at t = {}\n{}",
            facts.messages,
            facts.n,
            facts.latency,
            facts.completion,
            note.as_deref().unwrap_or("")
        )
    } else {
        format!(
            "{}{}",
            render::render_report(diags, path),
            note.as_deref().unwrap_or("")
        )
    };
    if diags.iter().any(|d| d.severity >= deny) {
        Err(CliError::LintFailed(report))
    } else {
        Ok(report)
    }
}

/// The `lint --stream` path: folds a JSONL event log through the
/// streaming lint engine line by line — O(n) linter memory, no
/// materialized schedule — and renders the exact batch report.
#[allow(clippy::too_many_arguments)]
fn lint_streaming(
    path: &str,
    first_line: String,
    reader: std::io::BufReader<std::fs::File>,
    is_jsonl: bool,
    m_override: Option<u64>,
    topology_arg: Option<String>,
    deny: postal_verify::Severity,
    as_json: bool,
) -> Result<String, CliError> {
    use postal_obs::{JsonlParser, LineReader, LintStream, StreamOrdering};
    use postal_verify::LintOptions;
    use std::io::{Cursor, Read as _};
    if !is_jsonl {
        return Err(CliError::Invalid(format!(
            "{path}: --stream needs an observability JSONL event log \
             (\"type\":\"run\" header); schedule JSON is linted whole — drop --stream"
        )));
    }
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{path}: {e}"));
    let mut parser = JsonlParser::new();
    // Built once the header line has been parsed; `Live` ordering is
    // sound for both orders a log is written in — live emission order
    // (sends announced ahead of their starts) and at()-sorted — and a
    // shuffled log merely defers finalization to finish(), which is
    // still the exact batch report.
    let mut stream: Option<LintStream> = None;
    let mut header: Option<(u32, Latency, u64, u64)> = None;
    let mut lines = LineReader::new(Cursor::new(first_line).chain(reader));
    while let Some(line) = lines.next_line().map_err(|e| invalid(&e))? {
        let event = parser.line(line).map_err(|e| invalid(&e))?;
        if stream.is_none() {
            if let Some(meta) = parser.meta() {
                let lam = meta.lambda.ok_or_else(|| {
                    invalid(&"log has no uniform lambda; cannot reduce to a schedule")
                })?;
                let messages = m_override.or(meta.messages).unwrap_or(1);
                let dropped = meta.dropped_events.unwrap_or(0);
                header = Some((meta.n, lam, messages, dropped));
                stream = Some(match &topology_arg {
                    Some(spec) => LintStream::with_topology(
                        meta.n,
                        lam,
                        LintOptions::broadcast_of(messages),
                        StreamOrdering::Live,
                        &parse_topology(spec, meta.n)?,
                    ),
                    None => LintStream::new(
                        meta.n,
                        lam,
                        LintOptions::broadcast_of(messages),
                        StreamOrdering::Live,
                    ),
                });
            }
        }
        if let (Some(ev), Some(s)) = (event, stream.as_mut()) {
            s.on_event(&ev);
        }
    }
    let (stream, (n, latency, messages, dropped)) = stream
        .zip(header)
        .ok_or_else(|| invalid(&"empty log: no \"run\" header"))?;
    if stream.out_of_order() {
        return Err(CliError::Invalid(format!(
            "{path}: a send appears after later events already passed its start time; \
             the log is out of order — lint without --stream instead"
        )));
    }
    let truncated = stream.truncated();
    let completion = stream.completion();
    let diags = postal_verify::downgrade_truncated_trace(
        postal_verify::downgrade_partial_trace(stream.finish(), dropped),
        truncated,
    );
    lint_outcome(
        path,
        &diags,
        LintFacts {
            n,
            latency,
            completion,
            messages,
            dropped,
            truncated,
        },
        as_json,
        deny,
    )
}

/// The `check` subcommand: model-check one (or every) paper algorithm.
fn check(args: &[String]) -> Result<String, CliError> {
    use postal_mc::{check_algo, Algo, McConfig};
    use postal_verify::{render, Severity};
    let mut algo_arg: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut lam: Option<Latency> = None;
    let mut m: u32 = 1;
    let mut cfg = McConfig::default();
    let mut as_json = false;
    let mut deny = Severity::Error;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| CliError::Invalid(format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--algo" => {
                algo_arg = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--n" => {
                n = Some(parse_n(flag_value(i)?)?);
                i += 2;
            }
            "--lambda" => {
                lam = Some(parse_lambda(flag_value(i)?)?);
                i += 2;
            }
            "--m" => {
                let v: u32 = flag_value(i)?
                    .parse()
                    .map_err(|_| CliError::Invalid("--m must be a positive integer".into()))?;
                if v == 0 || v > 64 {
                    return Err(CliError::Invalid("--m must be in 1..=64".into()));
                }
                m = v;
                i += 2;
            }
            "--max-interleavings" => {
                cfg.max_interleavings = flag_value(i)?.parse().map_err(|_| {
                    CliError::Invalid("--max-interleavings must be a positive integer".into())
                })?;
                if cfg.max_interleavings == 0 {
                    return Err(CliError::Invalid("--max-interleavings must be ≥ 1".into()));
                }
                i += 2;
            }
            "--format" => {
                as_json = match flag_value(i)? {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--format must be 'text' or 'json', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--deny" => {
                deny = match flag_value(i)? {
                    "warn" => Severity::Warn,
                    "error" => Severity::Error,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--deny must be 'warn' or 'error', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            s => {
                return Err(CliError::Invalid(format!("unknown check flag {s:?}")));
            }
        }
    }
    let usage = || CliError::Usage(USAGE.to_string());
    let algo_arg = algo_arg.ok_or_else(usage)?;
    let n = n.ok_or_else(usage)?;
    let lam = lam.ok_or_else(usage)?;
    // Exhaustive exploration replays prefixes from scratch; keep the
    // state space honest rather than silently bounding it away.
    if n > 64 {
        return Err(CliError::Invalid(
            "model checking is exhaustive; use n ≤ 64 (the paper grid uses n ≤ 12)".into(),
        ));
    }
    let algos: Vec<Algo> = if algo_arg == "all" {
        Algo::all().to_vec()
    } else {
        vec![Algo::parse(&algo_arg).ok_or_else(|| {
            CliError::Invalid(format!(
                "unknown algorithm {algo_arg:?} (bcast|repeat|repeat-greedy|pack|\
                 pipeline|line|binary|star|dtree|all)"
            ))
        })?]
    };

    let mut out = String::new();
    let mut failed = false;
    if as_json {
        out.push_str("[\n");
    }
    for (idx, algo) in algos.iter().enumerate() {
        let rep = check_algo(*algo, n as u32, m, lam, None, &cfg);
        failed |= rep.diagnostics.iter().any(|d| d.severity >= deny);
        if as_json {
            if idx > 0 {
                out.push_str(",\n");
            }
            let _ = writeln!(out, "{{");
            let _ = writeln!(out, "  \"algo\": \"{}\",", rep.name);
            let _ = writeln!(out, "  \"n\": {},", rep.n);
            let _ = writeln!(out, "  \"m\": {},", rep.m);
            let _ = writeln!(out, "  \"lambda\": \"{}\",", rep.lambda);
            let _ = writeln!(out, "  \"executions\": {},", rep.stats.executions);
            let _ = writeln!(out, "  \"deadlocks\": {},", rep.stats.deadlocks);
            let _ = writeln!(out, "  \"branch_points\": {},", rep.stats.branch_points);
            let _ = writeln!(out, "  \"sleep_set_pruned\": {},", rep.stats.pruned);
            let _ = writeln!(
                out,
                "  \"naive_interleavings\": {},",
                rep.stats.naive_interleavings
            );
            let _ = writeln!(
                out,
                "  \"reduction_ratio\": {},",
                rep.stats.reduction_ratio()
            );
            let _ = writeln!(out, "  \"truncated\": {},", rep.stats.truncated);
            let _ = writeln!(out, "  \"bounded\": {},", rep.stats.bounded);
            let comps: Vec<String> = rep.completions.iter().map(|c| format!("\"{c}\"")).collect();
            let _ = writeln!(out, "  \"completions\": [{}],", comps.join(", "));
            let _ = writeln!(
                out,
                "  \"reference_completion\": \"{}\",",
                rep.reference_completion
            );
            let _ = writeln!(out, "  \"races\": {},", rep.races);
            let _ = writeln!(
                out,
                "  \"diagnostics\": {}",
                postal_verify::json::diagnostics_to_json(&rep.diagnostics).trim_end()
            );
            out.push('}');
        } else {
            out.push_str(&rep.summary());
            if rep.is_clean() {
                out.push_str("  verdict               clean\n");
            } else {
                out.push('\n');
                out.push_str(&render::render_report(&rep.diagnostics, &rep.name));
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

/// The `analyze` subcommand: abstract interpretation over a λ-range.
fn analyze(args: &[String]) -> Result<String, CliError> {
    use postal_abs::{analyze_algo_with_topology, AbsConfig};
    use postal_mc::Algo;
    use postal_verify::{render, Severity};
    let mut algo_arg: Option<String> = None;
    let mut n: Option<usize> = None;
    let mut range: Option<postal_model::Interval> = None;
    let mut m: u32 = 1;
    let mut cfg = AbsConfig::default();
    let mut as_json = false;
    let mut deny = Severity::Error;
    let mut topology_arg: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| CliError::Invalid(format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--algo" => {
                algo_arg = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--n" => {
                n = Some(parse_n(flag_value(i)?)?);
                i += 2;
            }
            "--lambda-range" => {
                range = Some(parse_lambda_range(flag_value(i)?)?);
                i += 2;
            }
            "--m" => {
                let v: u32 = flag_value(i)?
                    .parse()
                    .map_err(|_| CliError::Invalid("--m must be a positive integer".into()))?;
                if v == 0 || v > 64 {
                    return Err(CliError::Invalid("--m must be in 1..=64".into()));
                }
                m = v;
                i += 2;
            }
            "--max-depth" => {
                cfg.max_depth = flag_value(i)?
                    .parse()
                    .map_err(|_| CliError::Invalid("--max-depth must be an integer".into()))?;
                if cfg.max_depth > 16 {
                    return Err(CliError::Invalid(
                        "--max-depth is capped at 16 (2^16 endpoint runs)".into(),
                    ));
                }
                i += 2;
            }
            "--format" => {
                as_json = match flag_value(i)? {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--format must be 'text' or 'json', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--deny" => {
                deny = match flag_value(i)? {
                    "warn" => Severity::Warn,
                    "error" => Severity::Error,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--deny must be 'warn' or 'error', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            "--topology" => {
                topology_arg = Some(flag_value(i)?.to_string());
                i += 2;
            }
            s => {
                return Err(CliError::Invalid(format!("unknown analyze flag {s:?}")));
            }
        }
    }
    let usage = || CliError::Usage(USAGE.to_string());
    let algo_arg = algo_arg.ok_or_else(usage)?;
    let n = n.ok_or_else(usage)?;
    let range = range.ok_or_else(usage)?;
    // Each endpoint run simulates the full program set; the adaptive
    // subdivision multiplies that by up to 2^depth.
    if n > 4096 {
        return Err(CliError::Invalid(
            "abstract analysis runs endpoint witnesses; use n ≤ 4096".into(),
        ));
    }
    let algos: Vec<Algo> = if algo_arg == "all" {
        Algo::all().to_vec()
    } else {
        vec![Algo::parse(&algo_arg).ok_or_else(|| {
            CliError::Invalid(format!(
                "unknown algorithm {algo_arg:?} (bcast|repeat|repeat-greedy|pack|\
                 pipeline|line|binary|star|dtree|all)"
            ))
        })?]
    };

    let topo = match &topology_arg {
        Some(spec) => Some(parse_topology(spec, n as u32)?),
        None => None,
    };

    let iv = |x: postal_model::Interval| format!("[\"{}\", \"{}\"]", x.lo(), x.hi());
    let mut out = String::new();
    let mut failed = false;
    if as_json {
        out.push_str("[\n");
    }
    for (idx, algo) in algos.iter().enumerate() {
        let rep = analyze_algo_with_topology(*algo, n as u32, m, range, None, topo.as_ref(), &cfg);
        failed |= rep.diagnostics.iter().any(|d| d.severity >= deny);
        if as_json {
            if idx > 0 {
                out.push_str(",\n");
            }
            let _ = writeln!(out, "{{");
            let _ = writeln!(out, "  \"algo\": \"{}\",", rep.name);
            let _ = writeln!(out, "  \"n\": {},", rep.n);
            let _ = writeln!(out, "  \"m\": {},", rep.m);
            if let Some(t) = &topo {
                let _ = writeln!(out, "  \"topology\": \"{}\",", t.spec());
            }
            let _ = writeln!(out, "  \"lambda_range\": {},", iv(rep.lambda));
            let _ = writeln!(out, "  \"completion\": {},", iv(rep.completion));
            let _ = writeln!(out, "  \"lower_bound\": {},", iv(rep.lower_bound));
            let _ = writeln!(out, "  \"gap\": {},", iv(rep.gap));
            let _ = writeln!(out, "  \"widened\": {},", rep.widened);
            let _ = writeln!(out, "  \"truncated\": {},", rep.truncated);
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
            let _ = writeln!(out, "  \"subintervals\": [{}],", subs.join(", "));
            let _ = writeln!(
                out,
                "  \"diagnostics\": {}",
                postal_verify::json::diagnostics_to_json(&rep.diagnostics).trim_end()
            );
            out.push('}');
        } else {
            out.push_str(&rep.summary());
            if rep.is_clean() {
                out.push_str("  verdict               clean\n");
            } else {
                out.push('\n');
                out.push_str(&render::render_report(&rep.diagnostics, &rep.name));
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

/// Parses `A..B` (or a single `A`, meaning the degenerate range
/// `[A, A]`) into a λ-interval; each endpoint accepts the same
/// integer/fraction/decimal forms as `--lambda`.
fn parse_lambda_range(s: &str) -> Result<postal_model::Interval, CliError> {
    let (a, b) = match s.split_once("..") {
        Some((a, b)) => (parse_lambda(a)?, parse_lambda(b)?),
        None => {
            let x = parse_lambda(s)?;
            (x, x)
        }
    };
    if a.value() > b.value() {
        return Err(CliError::Invalid(format!(
            "empty lambda range {s:?}: {} > {}",
            a.value(),
            b.value()
        )));
    }
    Ok(postal_model::Interval::new(a.value(), b.value()))
}

/// The one λ parser behind every positional λ, `--lambda` and
/// `--lambda-range`: the same bounds as a λ read from a file
/// ([`Latency::check_input`]), which also cap a run's tick denominator
/// at 2^17.
fn parse_lambda(s: &str) -> Result<Latency, CliError> {
    s.parse::<Latency>()
        .map_err(|e| e.to_string())
        .and_then(Latency::check_input)
        .map_err(|e| CliError::Invalid(format!("bad lambda {s:?}: {e}")))
}

/// Parses a [`postal_model::TopologySpec`] string and instantiates it
/// against the system size `n`.
fn parse_topology(spec: &str, n: u32) -> Result<postal_model::Topology, CliError> {
    spec.parse::<postal_model::TopologySpec>()
        .and_then(|s| s.instantiate(n))
        .map_err(|e| CliError::Invalid(format!("--topology: {e}")))
}

fn parse_n(s: &str) -> Result<usize, CliError> {
    let n: usize = s
        .parse()
        .map_err(|_| CliError::Invalid(format!("bad processor count {s:?}")))?;
    if n == 0 || n > 1_000_000 {
        return Err(CliError::Invalid("n must be in 1..=1000000".into()));
    }
    Ok(n)
}

fn parse_n_lambda(args: &[String]) -> Result<(usize, Latency), CliError> {
    match args {
        [n, lam] => Ok((parse_n(n)?, parse_lambda(lam)?)),
        _ => Err(CliError::Usage(USAGE.to_string())),
    }
}

fn parse_n_m_lambda(args: &[String]) -> Result<(usize, u32, Latency), CliError> {
    match args {
        [n, m, lam] => {
            let m: u32 = m
                .parse()
                .map_err(|_| CliError::Invalid(format!("bad message count {m:?}")))?;
            if m == 0 || m > 100_000 {
                return Err(CliError::Invalid("m must be in 1..=100000".into()));
            }
            Ok((parse_n(n)?, m, parse_lambda(lam)?))
        }
        _ => Err(CliError::Usage(USAGE.to_string())),
    }
}

fn plan(n: u128, m: u64, lam: Latency) -> String {
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
    out
}

/// Export destinations and output format shared by `simulate` and `stats`.
#[derive(Debug, Default)]
struct OutputOpts {
    trace_out: Option<String>,
    events_out: Option<String>,
    metrics_out: Option<String>,
    as_json: bool,
    sample: Option<SampleSpec>,
    ring_capacity: Option<usize>,
    lint_inline: bool,
    topology: Option<String>,
}

impl OutputOpts {
    /// True when the run should be recorded through the ring recorder.
    fn uses_ring(&self) -> bool {
        self.sample.is_some() || self.ring_capacity.is_some()
    }
}

/// Splits an argument list into positionals and the shared output flags.
fn split_output_flags(args: &[String]) -> Result<(Vec<String>, OutputOpts), CliError> {
    let mut pos = Vec::new();
    let mut opts = OutputOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag_value = |i: usize| {
            args.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| CliError::Invalid(format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--trace-out" => {
                opts.trace_out = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--events-out" => {
                opts.events_out = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--metrics-out" => {
                opts.metrics_out = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--sample" => {
                opts.sample = Some(
                    SampleSpec::parse(flag_value(i)?)
                        .map_err(|e| CliError::Invalid(format!("--sample: {e}")))?,
                );
                i += 2;
            }
            "--ring-capacity" => {
                let k: usize = flag_value(i)?.parse().map_err(|_| {
                    CliError::Invalid("--ring-capacity must be a positive integer".into())
                })?;
                if k == 0 {
                    return Err(CliError::Invalid("--ring-capacity must be ≥ 1".into()));
                }
                opts.ring_capacity = Some(k);
                i += 2;
            }
            "--lint-inline" => {
                opts.lint_inline = true;
                i += 1;
            }
            "--topology" => {
                opts.topology = Some(flag_value(i)?.to_string());
                i += 2;
            }
            "--format" => {
                opts.as_json = match flag_value(i)? {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(CliError::Invalid(format!(
                            "--format must be 'text' or 'json', got {other:?}"
                        )))
                    }
                };
                i += 2;
            }
            s if s.starts_with('-') => {
                return Err(CliError::Invalid(format!("unknown flag {s:?}")));
            }
            s => {
                pos.push(s.to_string());
                i += 1;
            }
        }
    }
    Ok((pos, opts))
}

/// One simulated workload, with its observability log attached.
struct SimRun {
    completion: Time,
    messages: usize,
    violations: usize,
    log: ObsLog,
    /// Algorithm-specific trailing line (e.g. combine's root total).
    extra: Option<String>,
}

fn observed<P>(report: &RunReport<P>, n: usize, m: u32, lam: Latency) -> SimRun {
    SimRun {
        completion: report.completion,
        messages: report.messages(),
        violations: report.violations.len(),
        log: log_from_report(report, "event", n as u32, Some(lam), Some(m as u64)),
        extra: None,
    }
}

/// Runs one named algorithm on the event simulator and captures its
/// observability log — the single entry point `simulate` and `stats`
/// share, so both always describe the same run the exporters saw.
fn run_workload(algo: &str, n: usize, m: u32, lam: Latency) -> Result<SimRun, CliError> {
    let run = match algo {
        "bcast" => observed(&run_bcast(n, lam), n, m, lam),
        "repeat" => observed(&run_repeat(n, m, lam).report, n, m, lam),
        "repeat-greedy" => observed(&run_repeat_greedy(n, m, lam).report, n, m, lam),
        "pack" => observed(&run_pack(n, m, lam).report, n, m, lam),
        "pipeline" => observed(&run_pipeline(n, m, lam).report, n, m, lam),
        "line" => observed(&run_dtree(n, m, lam, 1).report, n, m, lam),
        "binary" => observed(&run_dtree(n, m, lam, 2).report, n, m, lam),
        "star" => {
            if n < 2 {
                return Err(CliError::Invalid("star needs n ≥ 2".into()));
            }
            observed(&run_dtree(n, m, lam, n as u64 - 1).report, n, m, lam)
        }
        _ if algo.starts_with("dtree:") => {
            let d: u64 = algo[6..]
                .parse()
                .map_err(|_| CliError::Invalid(format!("bad degree in {algo:?}")))?;
            if d == 0 {
                return Err(CliError::Invalid("degree must be ≥ 1".into()));
            }
            observed(&run_dtree(n, m, lam, d).report, n, m, lam)
        }
        "combine" => {
            let values: Vec<u64> = (0..n as u64).collect();
            let o = combine::run_combine(&values, lam);
            let mut run = observed(&o.report, n, m, lam);
            run.extra = Some(format!("root total: {}", o.root_total));
            run
        }
        "gossip" => {
            let values: Vec<u64> = (0..n as u64).collect();
            observed(&gossip::run_gossip(&values, lam).report, n, m, lam)
        }
        "scatter" => {
            let items: Vec<u64> = (0..n as u64).collect();
            observed(&scatter::run_scatter(&items, lam), n, m, lam)
        }
        other => {
            return Err(CliError::Invalid(format!(
                "unknown algorithm {other:?} (see `postal` for the list)"
            )))
        }
    };
    Ok(run)
}

/// Re-records a run's event log through the sharded [`RingRecorder`]
/// when `--sample` or `--ring-capacity` was given, so the log the
/// exporters see went down the same `record()` path a live sampled run
/// would use — including honest drop accounting in the metadata.
fn apply_ring(log: ObsLog, opts: &OutputOpts) -> ObsLog {
    if !opts.uses_ring() {
        return log;
    }
    let spec = opts.sample.unwrap_or_else(SampleSpec::all);
    let cap = opts
        .ring_capacity
        .unwrap_or(postal_obs::ring::DEFAULT_CAPACITY);
    let ring = RingRecorder::with_spec(cap, spec);
    for e in log.events() {
        ring.record(e.clone());
    }
    ring.into_log(log.meta().clone())
}

/// Writes the requested exporter outputs, returning one note per file.
/// An exporter runs only when its path is set.
fn write_exports(log: &ObsLog, opts: &OutputOpts) -> Result<Vec<String>, CliError> {
    let mut notes = Vec::new();
    let exporters = [
        (
            &opts.trace_out,
            "Chrome trace",
            to_chrome_trace as fn(&ObsLog) -> String,
        ),
        (&opts.events_out, "JSONL event log", to_jsonl),
        (&opts.metrics_out, "Prometheus metrics", to_prometheus),
    ];
    for (path, what, export) in exporters {
        if let Some(p) = path {
            std::fs::write(p, export(log))
                .map_err(|e| CliError::Invalid(format!("cannot write {p}: {e}")))?;
            notes.push(format!("wrote {what} to {p}"));
        }
    }
    Ok(notes)
}

fn simulate(
    algo: &str,
    n: usize,
    m: u32,
    lam: Latency,
    opts: &OutputOpts,
) -> Result<String, CliError> {
    if opts.lint_inline {
        return simulate_lint_inline(algo, n, m, lam, opts);
    }
    let topo = match &opts.topology {
        Some(spec) => Some(parse_topology(spec, n as u32)?),
        None => None,
    };
    let mut run = run_workload(algo, n, m, lam)?;
    // Count non-edge sends against the full log, before any sampling
    // drops events — the same set `Simulation::restrict_to` records.
    let edge_violations = topo.map(|t| {
        run.log
            .events()
            .iter()
            .filter(|e| match e {
                postal_obs::ObsEvent::Send { src, dst, .. } => !t.is_edge(*src, *dst),
                _ => false,
            })
            .count()
    });
    run.log = apply_ring(run.log, opts);
    let notes = write_exports(&run.log, opts)?;
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    let meta = run.log.meta();
    let (recorded, dropped) = (run.log.events().len(), meta.dropped_events.unwrap_or(0));
    let sample = meta.sample.clone();
    if opts.as_json {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"command\": \"simulate\",");
        let _ = writeln!(out, "  \"algo\": \"{algo}\",");
        let _ = writeln!(out, "  \"n\": {n},");
        let _ = writeln!(out, "  \"m\": {m},");
        let _ = writeln!(out, "  \"lambda\": \"{lam}\",");
        let _ = writeln!(out, "  \"completion\": \"{}\",", run.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", run.completion.to_f64());
        let _ = writeln!(out, "  \"messages\": {},", run.messages);
        let _ = writeln!(out, "  \"violations\": {},", run.violations);
        if let (Some(spec), Some(ev)) = (&opts.topology, edge_violations) {
            let _ = writeln!(out, "  \"topology\": \"{spec}\",");
            let _ = writeln!(out, "  \"edge_violations\": {ev},");
        }
        if let Some(s) = &sample {
            let _ = writeln!(out, "  \"sample\": \"{s}\",");
            let _ = writeln!(out, "  \"recorded_events\": {recorded},");
            let _ = writeln!(out, "  \"dropped_events\": {dropped},");
        }
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\"");
        out.push('}');
        return Ok(out);
    }
    let mut out = format!(
        "algorithm: {algo}\nn = {n}, m = {m}, λ = {lam}\ncompletion: {} units\n\
         messages:  {}\nmodel violations: {}\nlower bound (Lemma 8): {lb}",
        run.completion, run.messages, run.violations
    );
    if let (Some(spec), Some(ev)) = (&opts.topology, edge_violations) {
        let _ = write!(out, "\nedge violations ({spec} topology): {ev}");
    }
    if let Some(s) = &sample {
        let _ = write!(
            out,
            "\nsampling: {s} — recorded {recorded} events, dropped {dropped}"
        );
    }
    if let Some(extra) = &run.extra {
        let _ = write!(out, "\n{extra}");
    }
    for note in notes {
        let _ = write!(out, "\n{note}");
    }
    Ok(out)
}

/// One inline-linted run's outcome: the engine's completion plus the
/// streaming linter's report and bookkeeping.
struct InlineLint {
    completion: Time,
    violations: usize,
    edge_violations: usize,
    sends: u64,
    diags: Vec<postal_verify::Diagnostic>,
    dropped: u64,
    sample: Option<String>,
    truncated: bool,
    linter_bytes: usize,
}

/// The `simulate --lint-inline` path: runs the algorithm with the trace
/// discarded as it is generated and the streaming lint engine attached
/// as the run's recorder, so a million-processor run is linted in O(n)
/// memory with no stored trace.
fn simulate_lint_inline(
    algo: &str,
    n: usize,
    m: u32,
    lam: Latency,
    opts: &OutputOpts,
) -> Result<String, CliError> {
    use postal_algos::dtree::dtree_programs;
    use postal_algos::pack::pack_programs;
    use postal_algos::pipeline::pipeline_programs;
    use postal_algos::repeat::repeat_programs;
    use postal_algos::{bcast_programs, Pacing};
    if opts.trace_out.is_some() || opts.events_out.is_some() || opts.metrics_out.is_some() {
        return Err(CliError::Invalid(
            "--lint-inline discards the trace as it runs; \
             --trace-out/--events-out/--metrics-out need a recorded log"
                .into(),
        ));
    }
    let run = match algo {
        "bcast" => run_lint_inline(n, m, lam, bcast_programs(n, lam), opts)?,
        "repeat" => run_lint_inline(
            n,
            m,
            lam,
            repeat_programs(n, m, lam, Pacing::PaperExact),
            opts,
        )?,
        "repeat-greedy" => {
            run_lint_inline(n, m, lam, repeat_programs(n, m, lam, Pacing::Greedy), opts)?
        }
        "pack" => run_lint_inline(n, m, lam, pack_programs(n, m, lam), opts)?,
        "pipeline" => run_lint_inline(n, m, lam, pipeline_programs(n, m, lam), opts)?,
        "line" => run_lint_inline(n, m, lam, dtree_programs(n, m, 1), opts)?,
        "binary" => run_lint_inline(n, m, lam, dtree_programs(n, m, 2), opts)?,
        "star" => {
            if n < 2 {
                return Err(CliError::Invalid("star needs n ≥ 2".into()));
            }
            run_lint_inline(n, m, lam, dtree_programs(n, m, n as u64 - 1), opts)?
        }
        _ if algo.starts_with("dtree:") => {
            let d: u64 = algo[6..]
                .parse()
                .map_err(|_| CliError::Invalid(format!("bad degree in {algo:?}")))?;
            if d == 0 {
                return Err(CliError::Invalid("degree must be ≥ 1".into()));
            }
            run_lint_inline(n, m, lam, dtree_programs(n, m, d), opts)?
        }
        "combine" | "gossip" | "scatter" => {
            return Err(CliError::Invalid(format!(
                "--lint-inline checks the broadcast contract (P0003/P0005/P0007); \
                 {algo} is not a broadcast — run it without --lint-inline"
            )));
        }
        other => {
            return Err(CliError::Invalid(format!(
                "unknown algorithm {other:?} (see `postal` for the list)"
            )))
        }
    };
    render_inline(algo, n, m, lam, run, opts)
}

/// Runs one program set with the trace discarded and the linter inline.
///
/// Unsampled runs attach a [`postal_obs::LintSink`] directly — the
/// engine's live emission order drives the watermark. Sampled runs
/// route events through the ring recorder exactly like a plain
/// `--sample` run, then replay the surviving snapshot through the
/// streaming linter; the drop count feeds the partial-trace downgrades.
fn run_lint_inline<P: Clone>(
    n: usize,
    m: u32,
    lam: Latency,
    programs: Vec<Box<dyn postal_sim::Program<P>>>,
    opts: &OutputOpts,
) -> Result<InlineLint, CliError> {
    use postal_obs::{LintSink, LintStream, StreamOrdering};
    use postal_sim::{Simulation, Uniform};
    use postal_verify::LintOptions;
    let model = Uniform(lam);
    let lint_opts = LintOptions::broadcast_of(m as u64);
    let topo = match &opts.topology {
        Some(spec) => Some(parse_topology(spec, n as u32)?),
        None => None,
    };
    let sim_failed = |e: postal_sim::SimError| CliError::Invalid(format!("simulation failed: {e}"));
    let (stream, completion, violations, edge_violations, dropped, sample) = if opts.uses_ring() {
        let spec = opts.sample.unwrap_or_else(SampleSpec::all);
        let cap = opts
            .ring_capacity
            .unwrap_or(postal_obs::ring::DEFAULT_CAPACITY);
        let ring = RingRecorder::with_spec(cap, spec);
        let mut sim = Simulation::new(n, &model).observe(&ring).discard_trace();
        if let Some(t) = &topo {
            sim = sim.restrict_to(t);
        }
        let report = sim.run(programs).map_err(sim_failed)?;
        let log = ring.into_log(postal_obs::RunMeta::new("event", n as u32));
        let mut events = log.events().to_vec();
        events.sort_by_key(|e| e.at());
        let mut stream = match &topo {
            Some(t) => LintStream::with_topology(n as u32, lam, lint_opts, StreamOrdering::Live, t),
            None => LintStream::new(n as u32, lam, lint_opts, StreamOrdering::Live),
        };
        for ev in &events {
            stream.on_event(ev);
        }
        let dropped = log.meta().dropped_events.unwrap_or(0);
        let sample = log.meta().sample.clone();
        (
            stream,
            report.completion,
            report.violations.len(),
            report.edge_violations.len(),
            dropped,
            sample,
        )
    } else {
        let sink = match &topo {
            Some(t) => LintSink::with_topology(n as u32, lam, lint_opts, t),
            None => LintSink::new(n as u32, lam, lint_opts),
        };
        let mut sim = Simulation::new(n, &model).observe(&sink).discard_trace();
        if let Some(t) = &topo {
            sim = sim.restrict_to(t);
        }
        let report = sim.run(programs).map_err(sim_failed)?;
        (
            sink.finish(),
            report.completion,
            report.violations.len(),
            report.edge_violations.len(),
            0,
            None,
        )
    };
    if stream.out_of_order() {
        return Err(CliError::Invalid(
            "internal: the engine fed the inline linter out of order; \
             re-run without --lint-inline and report this"
                .into(),
        ));
    }
    let truncated = stream.truncated();
    let linter_bytes = stream.memory_bytes();
    let sends = stream.sends_observed();
    let diags = postal_verify::downgrade_truncated_trace(
        postal_verify::downgrade_partial_trace(stream.finish(), dropped),
        truncated,
    );
    Ok(InlineLint {
        completion,
        violations,
        edge_violations,
        sends,
        diags,
        dropped,
        sample,
        truncated,
        linter_bytes,
    })
}

/// Renders the `--lint-inline` summary plus the lint report, applying
/// the same default gate as `lint` (fail on any error diagnostic).
fn render_inline(
    algo: &str,
    n: usize,
    m: u32,
    lam: Latency,
    run: InlineLint,
    opts: &OutputOpts,
) -> Result<String, CliError> {
    use postal_verify::{json, render, Severity};
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    let report = if opts.as_json {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"command\": \"simulate\",");
        let _ = writeln!(out, "  \"algo\": \"{algo}\",");
        let _ = writeln!(out, "  \"n\": {n},");
        let _ = writeln!(out, "  \"m\": {m},");
        let _ = writeln!(out, "  \"lambda\": \"{lam}\",");
        let _ = writeln!(out, "  \"lint_inline\": true,");
        let _ = writeln!(out, "  \"completion\": \"{}\",", run.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", run.completion.to_f64());
        let _ = writeln!(out, "  \"sends\": {},", run.sends);
        let _ = writeln!(out, "  \"violations\": {},", run.violations);
        if let Some(spec) = &opts.topology {
            let _ = writeln!(out, "  \"topology\": \"{spec}\",");
            let _ = writeln!(out, "  \"edge_violations\": {},", run.edge_violations);
        }
        if let Some(s) = &run.sample {
            let _ = writeln!(out, "  \"sample\": \"{s}\",");
            let _ = writeln!(out, "  \"dropped_events\": {},", run.dropped);
        }
        let _ = writeln!(out, "  \"truncated\": {},", run.truncated);
        let _ = writeln!(out, "  \"linter_memory_bytes\": {},", run.linter_bytes);
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\",");
        let _ = writeln!(
            out,
            "  \"diagnostics\": {}",
            json::diagnostics_to_json(&run.diags).trim_end()
        );
        out.push('}');
        out
    } else {
        let mut out = format!(
            "algorithm: {algo}\nn = {n}, m = {m}, λ = {lam}\ncompletion: {} units\n\
             sends:     {}\nmodel violations: {}\nlower bound (Lemma 8): {lb}\n",
            run.completion, run.sends, run.violations
        );
        if let Some(spec) = &opts.topology {
            let _ = writeln!(
                out,
                "edge violations ({spec} topology): {}",
                run.edge_violations
            );
        }
        let _ = writeln!(
            out,
            "inline lint: {} diagnostic(s) — linter memory {} KiB, no stored trace",
            run.diags.len(),
            run.linter_bytes.div_ceil(1024),
        );
        if let Some(s) = &run.sample {
            let _ = writeln!(
                out,
                "sampling: {s} — {} events dropped; absence lints downgraded",
                run.dropped
            );
        }
        if !run.diags.is_empty() {
            out.push('\n');
            out.push_str(&render::render_report(&run.diags, algo));
        }
        out
    };
    if run.diags.iter().any(|d| d.severity >= Severity::Error) {
        Err(CliError::LintFailed(report))
    } else {
        Ok(report)
    }
}

/// How many per-processor rows `stats` prints before eliding the rest.
const STATS_UTILIZATION_ROWS: usize = 16;

fn stats(
    algo: &str,
    n: usize,
    m: u32,
    lam: Latency,
    opts: &OutputOpts,
) -> Result<String, CliError> {
    if opts.lint_inline {
        return Err(CliError::Invalid(
            "--lint-inline applies to `simulate` only".into(),
        ));
    }
    if opts.topology.is_some() {
        return Err(CliError::Invalid(
            "--topology applies to `simulate`, `lint` and `analyze` only".into(),
        ));
    }
    let mut run = run_workload(algo, n, m, lam)?;
    run.log = apply_ring(run.log, opts);
    let notes = write_exports(&run.log, opts)?;
    let s = MetricsSummary::from_log(&run.log);
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    // For a single message the paper's exact optimum f_λ(n) is known
    // (Theorem 6); report the gap against it rather than the looser
    // multi-message lower bound.
    let optimum = (m == 1).then(|| runtimes::bcast_time(n as u128, lam));
    let ratio = |target: Time| run.completion.to_f64() / target.to_f64().max(1e-9);
    if opts.as_json {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"command\": \"stats\",");
        let _ = writeln!(out, "  \"algo\": \"{algo}\",");
        let _ = writeln!(out, "  \"n\": {n},");
        let _ = writeln!(out, "  \"m\": {m},");
        let _ = writeln!(out, "  \"lambda\": \"{lam}\",");
        let _ = writeln!(out, "  \"completion\": \"{}\",", run.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", run.completion.to_f64());
        if let Some(f) = optimum {
            let _ = writeln!(out, "  \"bcast_optimum\": \"{f}\",");
            let _ = writeln!(out, "  \"optimality_ratio\": {},", ratio(f));
        }
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\",");
        let _ = writeln!(out, "  \"sends\": {},", s.total_sends());
        let _ = writeln!(out, "  \"deliveries\": {},", s.total_recvs());
        let _ = writeln!(out, "  \"queued_recvs\": {},", s.queued_recvs);
        let _ = writeln!(out, "  \"violations\": {},", s.violations);
        let _ = writeln!(out, "  \"drops\": {},", s.drops);
        let _ = writeln!(out, "  \"crashes\": {},", s.crashes);
        let _ = writeln!(out, "  \"wakes\": {},", s.wakes);
        let _ = writeln!(out, "  \"dropped_events\": {},", s.dropped_events);
        if let Some(spec) = &s.sample {
            let _ = writeln!(out, "  \"sample\": \"{spec}\",");
        }
        let _ = writeln!(out, "  \"mean_latency_units\": {},", s.latency.mean());
        let _ = writeln!(
            out,
            "  \"latency_quantiles_units\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.latency_quantile(0.5),
            s.latency_quantile(0.9),
            s.latency_quantile(0.99)
        );
        let _ = writeln!(
            out,
            "  \"queue_delay_quantiles_units\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.queue_delay_quantile(0.5),
            s.queue_delay_quantile(0.9),
            s.queue_delay_quantile(0.99)
        );
        let _ = writeln!(
            out,
            "  \"out_utilization_quantiles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.out_utilization_quantile(0.5),
            s.out_utilization_quantile(0.9),
            s.out_utilization_quantile(0.99)
        );
        let _ = writeln!(out, "  \"idle_out_units\": {},", s.idle_out_units());
        let util: Vec<String> = (0..n)
            .map(|p| {
                let (o, i) = s.utilization(p);
                format!("[{o:.4}, {i:.4}]")
            })
            .collect();
        let _ = writeln!(out, "  \"utilization\": [{}]", util.join(", "));
        out.push('}');
        return Ok(out);
    }
    let mut out = String::new();
    let _ = writeln!(out, "stats: {algo} on MPS({n}, {lam}), m = {m}\n");
    let _ = writeln!(
        out,
        "completion:            {} units ({:.3})",
        run.completion,
        run.completion.to_f64()
    );
    if let Some(f) = optimum {
        let _ = writeln!(out, "f_λ(n) optimum:        {f} ({:.2}× optimal)", ratio(f));
    }
    let _ = writeln!(out, "lower bound (Lemma 8): {lb}");
    let _ = writeln!(
        out,
        "sends: {}   deliveries: {}   queued: {}   violations: {}",
        s.total_sends(),
        s.total_recvs(),
        s.queued_recvs,
        s.violations
    );
    if s.drops + s.crashes > 0 {
        let _ = writeln!(out, "drops: {}   crashes: {}", s.drops, s.crashes);
    }
    if s.is_partial() {
        let _ = writeln!(
            out,
            "recorder: PARTIAL trace — {} events dropped (sample: {}); counts are lower bounds",
            s.dropped_events,
            s.sample.as_deref().unwrap_or("none")
        );
    }
    let _ = writeln!(
        out,
        "mean end-to-end latency: {:.3} units",
        s.latency.mean()
    );
    let _ = writeln!(
        out,
        "latency p50/p90/p99:     {:.3} / {:.3} / {:.3} units",
        s.latency_quantile(0.5),
        s.latency_quantile(0.9),
        s.latency_quantile(0.99)
    );
    let _ = writeln!(
        out,
        "queue delay p50/p99:     {:.3} / {:.3} units",
        s.queue_delay_quantile(0.5),
        s.queue_delay_quantile(0.99)
    );
    let _ = writeln!(
        out,
        "idle-port waste (cf. lint P0006): {:.3} sender-units",
        s.idle_out_units()
    );
    let _ = writeln!(out, "\nper-processor port utilization (out% / in%):");
    for p in 0..n.min(STATS_UTILIZATION_ROWS) {
        let (o, i) = s.utilization(p);
        let _ = writeln!(out, "  p{p:<4} {:>3.0} / {:>3.0}", o * 100.0, i * 100.0);
    }
    if n > STATS_UTILIZATION_ROWS {
        let _ = writeln!(out, "  … and {} more", n - STATS_UTILIZATION_ROWS);
    }
    for note in notes {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(matches!(call(&[]), Err(CliError::Usage(_))));
        assert!(matches!(call(&["bogus"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn tree_command() {
        let out = call(&["tree", "14", "5/2"]).unwrap();
        assert!(out.contains("t = 15/2"));
        assert!(out.contains("p9"));
    }

    #[test]
    fn tree_accepts_decimal_lambda() {
        let a = call(&["tree", "14", "2.5"]).unwrap();
        let b = call(&["tree", "14", "5/2"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn gantt_command() {
        let out = call(&["gantt", "6", "2"]).unwrap();
        assert!(out.contains('S') && out.contains('R'));
        assert!(out.contains("completion"));
    }

    #[test]
    fn fib_command() {
        let out = call(&["fib", "5/2", "8"]).unwrap();
        assert!(out.contains("F(   5) = 5")); // F_{5/2}(5 units) = 5
        assert!(out.contains("f(       2)"));
    }

    #[test]
    fn plan_command_recommends_something() {
        let out = call(&["plan", "512", "16", "5/2"]).unwrap();
        assert!(out.contains("Recommended: PIPELINE"));
        assert!(out.contains("lower bound"));
    }

    #[test]
    fn simulate_all_algorithms() {
        for algo in [
            "bcast",
            "repeat",
            "repeat-greedy",
            "pack",
            "pipeline",
            "line",
            "binary",
            "star",
            "dtree:3",
            "combine",
            "gossip",
            "scatter",
        ] {
            let out = call(&["simulate", algo, "10", "3", "2"]).unwrap();
            assert!(out.contains("model violations: 0"), "{algo}:\n{out}");
        }
    }

    #[test]
    fn svg_command() {
        let out = call(&["svg", "14", "5/2"]).unwrap();
        assert!(out.starts_with("<svg"));
        assert_eq!(out.matches("<circle").count(), 14);
    }

    #[test]
    fn optimal_command() {
        let out = call(&["optimal", "3", "2", "2"]).unwrap();
        assert!(out.contains("optimum (any order       ): 4"), "{out}");
        assert!(out.contains("optimum (order-preserving): 5"), "{out}");
        assert!(out.contains("Lemma 8 lower bound:        4"));
        assert!(matches!(
            call(&["optimal", "50", "2", "2"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn simulate_rejects_unknown_algorithm() {
        assert!(matches!(
            call(&["simulate", "warp", "10", "3", "2"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(matches!(
            call(&["tree", "0", "2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["tree", "x", "2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["tree", "5", "1/2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["simulate", "bcast", "5", "0", "2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["simulate", "dtree:0", "5", "1", "2"]),
            Err(CliError::Invalid(_))
        ));
    }

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("postal-cli-test-{name}"));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn lint_passes_a_valid_schedule() {
        let path = write_temp(
            "valid.json",
            r#"{"n": 3, "lambda": "5/2",
                "sends": [{"src":0,"dst":1,"at":"0"}, {"src":0,"dst":2,"at":"1"}]}"#,
        );
        let out = call(&["lint", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("t = 7/2"), "{out}");
    }

    #[test]
    fn lint_reports_corrupted_schedule_with_code() {
        // A BCAST(3) schedule with p1's forward shifted one unit early:
        // a causality violation (P0003).
        let path = write_temp(
            "corrupt.json",
            r#"{"n": 3, "lambda": "5/2",
                "sends": [{"src":0,"dst":1,"at":"0"}, {"src":1,"dst":2,"at":"3/2"}]}"#,
        );
        let err = call(&["lint", path.to_str().unwrap()]).unwrap_err();
        let CliError::LintFailed(report) = err else {
            panic!("expected LintFailed, got {err:?}");
        };
        assert!(report.contains("error[P0003]"), "{report}");
        assert!(report.contains("p1 -> p2 at t = 3/2"), "{report}");
    }

    #[test]
    fn lint_deny_warn_fails_suboptimal_schedules() {
        // A valid but suboptimal LINE(3): passes by default, fails
        // under --deny warn with the P0007 gap.
        let line = r#"{"n": 3, "lambda": "5/2",
            "sends": [{"src":0,"dst":1,"at":"0"}, {"src":1,"dst":2,"at":"5/2"}]}"#;
        let path = write_temp("line.json", line);
        let p = path.to_str().unwrap();
        assert!(call(&["lint", p]).is_ok());
        let err = call(&["lint", p, "--deny", "warn"]).unwrap_err();
        let CliError::LintFailed(report) = err else {
            panic!("expected LintFailed, got {err:?}");
        };
        assert!(report.contains("P0007"), "{report}");
    }

    #[test]
    fn lint_json_format_and_m_override() {
        let path = write_temp(
            "multi.json",
            r#"{"n": 2, "lambda": 2,
                "sends": [{"src":0,"dst":1,"at":0}, {"src":0,"dst":1,"at":2}]}"#,
        );
        let p = path.to_str().unwrap();
        let out = call(&["lint", p, "--m", "2", "--format", "json"]).unwrap();
        assert!(out.contains("\"code\": \"P0007\""), "{out}");
        assert!(out.contains("\"severity\": \"info\""), "{out}");
    }

    #[test]
    fn lint_rejects_bad_flags_and_files() {
        assert!(matches!(call(&["lint"]), Err(CliError::Usage(_))));
        assert!(matches!(
            call(&["lint", "/nonexistent/x.json"]),
            Err(CliError::Invalid(_))
        ));
        let path = write_temp("notjson.json", "not json at all");
        let p = path.to_str().unwrap();
        assert!(matches!(call(&["lint", p]), Err(CliError::Invalid(_))));
        assert!(matches!(
            call(&["lint", p, "--deny", "everything"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["lint", p, "--m", "0"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn lint_topology_flags_a_ring_chord() {
        // p0 → p2 is a chord of the 4-cycle: P0017.
        let path = write_temp(
            "chord.json",
            r#"{"n": 4, "lambda": 2,
                "sends": [{"src":0,"dst":1,"at":0}, {"src":0,"dst":2,"at":1},
                          {"src":1,"dst":3,"at":2}]}"#,
        );
        let err = call(&["lint", path.to_str().unwrap(), "--topology", "ring"]).unwrap_err();
        let CliError::LintFailed(report) = err else {
            panic!("expected LintFailed, got {err:?}");
        };
        assert!(report.contains("error[P0017]"), "{report}");
        assert!(
            report.contains("not an edge of the ring topology"),
            "{report}"
        );
    }

    #[test]
    fn lint_topology_complete_is_byte_identical() {
        let schedule = r#"{"n": 3, "lambda": "5/2",
            "sends": [{"src":0,"dst":1,"at":"0"}, {"src":0,"dst":2,"at":"1"}]}"#;
        let path = write_temp("complete.json", schedule);
        let p = path.to_str().unwrap();
        let plain = call(&["lint", p]).unwrap();
        let complete = call(&["lint", p, "--topology", "complete"]).unwrap();
        assert_eq!(plain, complete);
        let plain_json = call(&["lint", p, "--format", "json"]).unwrap();
        let complete_json =
            call(&["lint", p, "--topology", "complete", "--format", "json"]).unwrap();
        assert_eq!(plain_json, complete_json);
    }

    #[test]
    fn lint_uses_the_files_topology_field_as_default() {
        // Same chord schedule, topology recorded in the file itself.
        let path = write_temp(
            "chord-field.json",
            r#"{"n": 4, "lambda": 2, "topology": "ring",
                "sends": [{"src":0,"dst":1,"at":0}, {"src":0,"dst":2,"at":1},
                          {"src":1,"dst":3,"at":2}]}"#,
        );
        let p = path.to_str().unwrap();
        let err = call(&["lint", p]).unwrap_err();
        let CliError::LintFailed(report) = err else {
            panic!("expected LintFailed, got {err:?}");
        };
        assert!(report.contains("error[P0017]"), "{report}");
        // The flag overrides the file's field.
        assert!(call(&["lint", p, "--topology", "complete"]).is_ok());
    }

    #[test]
    fn lint_rejects_bad_topologies() {
        let path = write_temp(
            "topo-bad.json",
            r#"{"n": 3, "lambda": 2, "sends": [{"src":0,"dst":1,"at":0}, {"src":0,"dst":2,"at":1}]}"#,
        );
        let p = path.to_str().unwrap();
        // Unknown spec, and a size mismatch (hypercube:2 needs n = 4).
        assert!(matches!(
            call(&["lint", p, "--topology", "pentagon"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["lint", p, "--topology", "hypercube:2"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn simulate_topology_counts_edge_violations() {
        // BCAST(4) at λ = 1 sends 0→1, 0→2, 1→3 (or similar): at least
        // one send crosses a ring chord. Completion must be unchanged.
        let free = call(&["simulate", "bcast", "8", "1", "2"]).unwrap();
        let out = call(&["simulate", "bcast", "8", "1", "2", "--topology", "ring"]).unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("edge violations"))
            .expect(&out);
        assert!(line.contains("(ring topology)"), "{out}");
        let count: usize = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(count > 0, "{out}");
        // Timing is untouched: all other lines match the free run.
        let free_completion = free.lines().find(|l| l.starts_with("completion")).unwrap();
        assert!(out.contains(free_completion), "{out}");

        let json = call(&[
            "simulate",
            "bcast",
            "8",
            "1",
            "2",
            "--topology",
            "ring",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.contains("\"topology\": \"ring\""), "{json}");
        assert!(
            json.contains(&format!("\"edge_violations\": {count}")),
            "{json}"
        );
    }

    #[test]
    fn simulate_lint_inline_topology_reports_p0017() {
        let err = call(&[
            "simulate",
            "bcast",
            "8",
            "1",
            "2",
            "--lint-inline",
            "--topology",
            "ring",
        ])
        .unwrap_err();
        let CliError::LintFailed(report) = err else {
            panic!("expected LintFailed, got {err:?}");
        };
        assert!(report.contains("error[P0017]"), "{report}");
        assert!(
            report.contains("edge violations (ring topology)"),
            "{report}"
        );
    }

    #[test]
    fn analyze_topology_checks_size_and_preserves_clean_runs() {
        // Every named construction is size-checked at instantiation, so
        // a partitioned-by-mismatch graph is rejected up front (the
        // library-level P0019 path is covered by postal-abs tests).
        assert!(matches!(
            call(&[
                "analyze",
                "--algo",
                "bcast",
                "--n",
                "8",
                "--lambda-range",
                "1..2",
                "--topology",
                "torus:2x2",
            ]),
            Err(CliError::Invalid(_))
        ));

        // The full hypercube is connected: clean, and byte-identical to
        // the topology-free analysis.
        let plain = call(&[
            "analyze",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda-range",
            "1..2",
        ])
        .unwrap();
        let cube = call(&[
            "analyze",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda-range",
            "1..2",
            "--topology",
            "hypercube:3",
        ])
        .unwrap();
        assert_eq!(plain, cube);
    }

    #[test]
    fn stats_rejects_topology() {
        assert!(matches!(
            call(&["stats", "bcast", "8", "1", "2", "--topology", "ring"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn simulated_bcast_matches_plan_numbers() {
        // The simulate and plan paths must agree on BCAST's time.
        let sim = call(&["simulate", "bcast", "14", "1", "5/2"]).unwrap();
        assert!(sim.contains("completion: 15/2 units"));
    }

    #[test]
    fn simulate_json_format() {
        let out = call(&["simulate", "bcast", "14", "1", "5/2", "--format", "json"]).unwrap();
        assert!(out.contains("\"completion\": \"15/2\""), "{out}");
        assert!(out.contains("\"messages\": 13"), "{out}");
        assert!(out.contains("\"violations\": 0"), "{out}");
        // Brace-balanced object.
        assert!(out.starts_with('{') && out.ends_with('}'));
    }

    #[test]
    fn simulate_exports_all_three_formats() {
        let dir = std::env::temp_dir();
        let trace = dir.join("postal-cli-test-trace.json");
        let events = dir.join("postal-cli-test-events.jsonl");
        let metrics = dir.join("postal-cli-test-metrics.prom");
        let out = call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--trace-out",
            trace.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""), "{trace_text}");
        let events_text = std::fs::read_to_string(&events).unwrap();
        assert!(
            events_text.starts_with("{\"type\":\"run\""),
            "{events_text}"
        );
        let metrics_text = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            metrics_text.contains("postal_completion_units"),
            "{metrics_text}"
        );
    }

    #[test]
    fn exported_jsonl_relints_clean() {
        // The acceptance loop: simulate BCAST(14, 5/2) with --events-out,
        // feed the JSONL straight back into `postal lint`, get clean.
        let events = std::env::temp_dir().join("postal-cli-test-relint.jsonl");
        call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        let out = call(&["lint", events.to_str().unwrap()]).unwrap();
        assert!(out.contains("clean"), "{out}");
        assert!(out.contains("t = 15/2"), "{out}");
    }

    #[test]
    fn stats_reports_the_optimum_gap() {
        let out = call(&["stats", "bcast", "14", "1", "5/2"]).unwrap();
        assert!(out.contains("completion:            15/2 units"), "{out}");
        assert!(
            out.contains("f_λ(n) optimum:        15/2 (1.00× optimal)"),
            "{out}"
        );
        assert!(out.contains("sends: 13   deliveries: 13"), "{out}");
        assert!(out.contains("per-processor port utilization"), "{out}");
    }

    #[test]
    fn stats_json_format() {
        let out = call(&["stats", "line", "8", "2", "5/2", "--format", "json"]).unwrap();
        assert!(out.contains("\"command\": \"stats\""), "{out}");
        assert!(out.contains("\"deliveries\": 14"), "{out}");
        assert!(out.contains("\"utilization\": ["), "{out}");
        // m > 1: no single-message optimum claimed.
        assert!(!out.contains("bcast_optimum"), "{out}");
    }

    #[test]
    fn stats_elides_long_utilization_tables() {
        let out = call(&["stats", "bcast", "40", "1", "2"]).unwrap();
        assert!(out.contains("… and 24 more"), "{out}");
    }

    #[test]
    fn check_bcast_is_clean_and_reports_reduction() {
        let out = call(&["check", "--algo", "bcast", "--n", "8", "--lambda", "5/2"]).unwrap();
        assert!(out.contains("executions explored   1"), "{out}");
        assert!(out.contains("verdict               clean"), "{out}");
        assert!(
            out.contains("completion            6 (reference 6)"),
            "{out}"
        );
        // Concurrent receives make the naive estimate exceed 1.
        assert!(!out.contains("naive interleavings   1\n"), "{out}");
    }

    #[test]
    fn check_all_covers_every_algorithm() {
        let out = call(&[
            "check", "--algo", "all", "--n", "5", "--lambda", "2", "--m", "2",
        ])
        .unwrap();
        for name in [
            "bcast",
            "repeat",
            "repeat-greedy",
            "pack",
            "pipeline",
            "line",
            "binary",
            "star",
            "dtree",
        ] {
            assert!(out.contains(&format!("model check: {name} ")), "{out}");
        }
        assert_eq!(out.matches("verdict               clean").count(), 9);
    }

    #[test]
    fn check_json_format() {
        let out = call(&[
            "check", "--algo", "bcast", "--n", "6", "--lambda", "2", "--format", "json",
        ])
        .unwrap();
        assert!(out.starts_with('[') && out.ends_with(']'), "{out}");
        assert!(out.contains("\"executions\": 1"), "{out}");
        assert!(out.contains("\"diagnostics\": ["), "{out}");
        let expected = runtimes::bcast_time(6, Latency::from_int(2));
        assert!(
            out.contains(&format!("\"reference_completion\": \"{expected}\"")),
            "{out}"
        );
    }

    #[test]
    fn check_rejects_bad_usage() {
        assert!(matches!(
            call(&["check", "--n", "8", "--lambda", "2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            call(&["check", "--algo", "warp", "--n", "8", "--lambda", "2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["check", "--algo", "bcast", "--n", "999", "--lambda", "2"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&[
                "check",
                "--algo",
                "bcast",
                "--n",
                "8",
                "--lambda",
                "2",
                "--max-interleavings",
                "0"
            ]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["check", "--algo", "bcast", "--n", "8", "--lambda", "2", "--m", "0"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn analyze_bcast_point_range_is_clean() {
        let out = call(&[
            "analyze",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda-range",
            "5/2..5/2",
        ])
        .unwrap();
        assert!(out.contains("abstract analysis: bcast"), "{out}");
        assert!(out.contains("verdict               clean"), "{out}");
        let expected = runtimes::bcast_time(8, Latency::from_ratio(5, 2));
        assert!(
            out.contains(&format!("completion            [{expected}, {expected}]")),
            "{out}"
        );
    }

    #[test]
    fn analyze_all_covers_every_algorithm_over_a_range() {
        let out = call(&[
            "analyze",
            "--algo",
            "all",
            "--n",
            "6",
            "--lambda-range",
            "1..3",
            "--m",
            "2",
            "--deny",
            "warn",
        ])
        .unwrap();
        for name in [
            "bcast",
            "repeat",
            "repeat-greedy",
            "pack",
            "pipeline",
            "line",
            "binary",
            "star",
            "dtree",
        ] {
            assert!(
                out.contains(&format!("abstract analysis: {name} ")),
                "{out}"
            );
        }
        assert_eq!(out.matches("verdict               clean").count(), 9);
    }

    #[test]
    fn analyze_json_format() {
        let out = call(&[
            "analyze",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda-range",
            "1..4",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(out.starts_with('[') && out.ends_with(']'), "{out}");
        assert!(out.contains("\"lambda_range\": [\"1\", \"4\"]"), "{out}");
        assert!(out.contains("\"subintervals\": ["), "{out}");
        assert!(out.contains("\"exact\": true"), "{out}");
        assert!(out.contains("\"diagnostics\": ["), "{out}");
    }

    #[test]
    fn analyze_accepts_a_single_lambda_as_a_point_range() {
        let a = call(&[
            "analyze",
            "--algo",
            "line",
            "--n",
            "5",
            "--lambda-range",
            "2",
        ])
        .unwrap();
        let b = call(&[
            "analyze",
            "--algo",
            "line",
            "--n",
            "5",
            "--lambda-range",
            "2..2",
        ])
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn analyze_rejects_bad_usage() {
        assert!(matches!(
            call(&["analyze", "--n", "8", "--lambda-range", "1..2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            call(&["analyze", "--algo", "bcast", "--n", "8"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            call(&[
                "analyze",
                "--algo",
                "warp",
                "--n",
                "8",
                "--lambda-range",
                "1..2"
            ]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&[
                "analyze",
                "--algo",
                "bcast",
                "--n",
                "8",
                "--lambda-range",
                "3..2"
            ]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&[
                "analyze",
                "--algo",
                "bcast",
                "--n",
                "8",
                "--lambda-range",
                "1/2..2"
            ]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&[
                "analyze",
                "--algo",
                "bcast",
                "--n",
                "8",
                "--lambda-range",
                "1..2",
                "--max-depth",
                "99"
            ]),
            Err(CliError::Invalid(_))
        ));
    }

    /// Pulls a `"field": N` integer out of a JSON summary.
    fn json_u64(json: &str, field: &str) -> u64 {
        json.lines()
            .find_map(|l| l.trim().strip_prefix(&format!("\"{field}\": ")))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .unwrap_or_else(|| panic!("no {field} in {json}"))
    }

    #[test]
    fn simulate_with_sampling_reports_drop_accounting() {
        // rate:2 keeps every other event *per shard*: the exact split
        // depends on shard routing, but recorded + dropped must equal
        // the 26 events (13 sends + 13 recvs) BCAST(14) emits.
        let out = call(&["simulate", "bcast", "14", "1", "5/2", "--sample", "rate:2"]).unwrap();
        assert!(out.contains("sampling: head,rate:2 — recorded"), "{out}");

        let json = call(&[
            "simulate", "bcast", "14", "1", "5/2", "--sample", "rate:2", "--format", "json",
        ])
        .unwrap();
        assert!(json.contains("\"sample\": \"head,rate:2\""), "{json}");
        let recorded = json_u64(&json, "recorded_events");
        let dropped = json_u64(&json, "dropped_events");
        assert_eq!(recorded + dropped, 26, "{json}");
        assert!(dropped > 0, "{json}");
    }

    #[test]
    fn stats_reports_percentiles_and_partial_traces() {
        let out = call(&["stats", "bcast", "14", "1", "5/2"]).unwrap();
        assert!(out.contains("latency p50/p90/p99:"), "{out}");
        assert!(!out.contains("PARTIAL"), "{out}");

        let sampled = call(&["stats", "bcast", "14", "1", "5/2", "--sample", "rate:2"]).unwrap();
        assert!(sampled.contains("PARTIAL trace"), "{sampled}");
        assert!(sampled.contains("lower bounds"), "{sampled}");

        let json = call(&["stats", "bcast", "14", "1", "5/2", "--format", "json"]).unwrap();
        assert!(json.contains("\"latency_quantiles_units\""), "{json}");
        assert!(json.contains("\"dropped_events\": 0"), "{json}");
    }

    #[test]
    fn sampled_jsonl_relints_without_false_positives() {
        // A rate-sampled log is missing sends; without the partial-trace
        // downgrade this would report error[P0003]/error[P0005].
        let events = std::env::temp_dir().join("postal-cli-test-sampled.jsonl");
        call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--sample",
            "rate:3",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        let out = call(&["lint", events.to_str().unwrap()]).unwrap();
        assert!(out.contains("partial trace"), "{out}");
        assert!(!out.contains("error[P0003]"), "{out}");
        assert!(!out.contains("error[P0005]"), "{out}");
    }

    #[test]
    fn ring_capacity_bounds_the_recorded_log() {
        // 16 shards × capacity 1 = at most 16 recorded events.
        let json = call(&[
            "simulate",
            "bcast",
            "40",
            "1",
            "2",
            "--ring-capacity",
            "1",
            "--format",
            "json",
        ])
        .unwrap();
        // The keep-everything spec canonicalizes to "head".
        assert!(json.contains("\"sample\": \"head\""), "{json}");
        let recorded = json_u64(&json, "recorded_events");
        let dropped = json_u64(&json, "dropped_events");
        assert!(recorded <= 16, "{json}");
        assert_eq!(recorded + dropped, 78, "{json}"); // 39 sends + 39 recvs
    }

    #[test]
    fn sample_flag_rejects_garbage() {
        assert!(matches!(
            call(&["simulate", "bcast", "5", "1", "2", "--sample", "rate:0"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["simulate", "bcast", "5", "1", "2", "--sample", "sometimes"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["simulate", "bcast", "5", "1", "2", "--ring-capacity", "0"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn lint_tolerates_bom_and_blank_lines() {
        // A UTF-8 BOM plus leading blank lines (editors and heredocs
        // prepend both) must not break format sniffing.
        let path = write_temp(
            "bom.json",
            "\u{feff}\n\n{\"n\": 3, \"lambda\": \"5/2\",\n \"sends\": \
             [{\"src\":0,\"dst\":1,\"at\":\"0\"}, {\"src\":0,\"dst\":2,\"at\":\"1\"}]}",
        );
        let out = call(&["lint", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("clean"), "{out}");

        let events = std::env::temp_dir().join("postal-cli-test-bom-src.jsonl");
        call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        let bom = write_temp("bom.jsonl", &format!("\u{feff}\n{text}"));
        let out = call(&["lint", bom.to_str().unwrap()]).unwrap();
        assert!(out.contains("clean"), "{out}");
        let streamed = call(&["lint", bom.to_str().unwrap(), "--stream"]).unwrap();
        assert_eq!(out, streamed);
    }

    #[test]
    fn lint_stream_matches_batch_byte_for_byte() {
        let events = std::env::temp_dir().join("postal-cli-test-stream.jsonl");
        call(&[
            "simulate",
            "pipeline",
            "9",
            "3",
            "5/2",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        let p = events.to_str().unwrap();
        assert_eq!(call(&["lint", p]), call(&["lint", p, "--stream"]));
        assert_eq!(
            call(&["lint", p, "--format", "json", "--deny", "warn"]),
            call(&["lint", p, "--format", "json", "--deny", "warn", "--stream"]),
        );
    }

    #[test]
    fn lint_stream_agrees_on_sampled_and_truncated_logs() {
        let events = std::env::temp_dir().join("postal-cli-test-stream-sampled.jsonl");
        call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--sample",
            "rate:3",
            "--events-out",
            events.to_str().unwrap(),
        ])
        .unwrap();
        let p = events.to_str().unwrap();
        let batch = call(&["lint", p]);
        assert_eq!(batch, call(&["lint", p, "--stream"]));
        assert!(batch.unwrap().contains("partial trace"));

        // A run cut off by the event budget: the coverage error must be
        // downgraded (and noted) identically on both paths.
        let trunc = write_temp(
            "trunc.jsonl",
            "{\"type\":\"run\",\"engine\":\"event\",\"n\":3,\"lambda\":\"2\"}\n\
             {\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\"start\":\"0\",\"finish\":\"1\"}\n\
             {\"type\":\"truncated\",\"processed\":2,\"limit\":2,\"at\":\"1\"}\n",
        );
        let p = trunc.to_str().unwrap();
        let batch = call(&["lint", p]).unwrap();
        assert!(batch.contains("cut short by the event budget"), "{batch}");
        assert!(batch.contains("warning[P0005]"), "{batch}");
        assert_eq!(batch, call(&["lint", p, "--stream"]).unwrap());
    }

    #[test]
    fn lint_stream_rejects_schedule_json() {
        let path = write_temp(
            "stream-schedule.json",
            r#"{"n": 2, "lambda": 2, "sends": [{"src":0,"dst":1,"at":0}]}"#,
        );
        assert!(matches!(
            call(&["lint", path.to_str().unwrap(), "--stream"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn simulate_lint_inline_clean_run() {
        let out = call(&["simulate", "bcast", "14", "1", "5/2", "--lint-inline"]).unwrap();
        assert!(out.contains("completion: 15/2 units"), "{out}");
        assert!(out.contains("sends:     13"), "{out}");
        assert!(out.contains("inline lint: 0 diagnostic(s)"), "{out}");
        assert!(out.contains("no stored trace"), "{out}");

        let json = call(&[
            "simulate",
            "binary",
            "10",
            "2",
            "2",
            "--lint-inline",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.contains("\"lint_inline\": true"), "{json}");
        assert!(json.contains("\"diagnostics\": ["), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }

    #[test]
    fn simulate_lint_inline_covers_the_broadcast_algorithms() {
        for algo in [
            "bcast",
            "repeat",
            "repeat-greedy",
            "pack",
            "pipeline",
            "line",
            "binary",
            "star",
            "dtree:3",
        ] {
            // BCAST carries exactly one message whatever m says; lint
            // with m = 3 would rightly flag the run as too fast (P0007).
            let m = if algo == "bcast" { "1" } else { "3" };
            let out = call(&["simulate", algo, "10", m, "2", "--lint-inline"])
                .unwrap_or_else(|e| panic!("{algo}: {e:?}"));
            assert!(out.contains("model violations: 0"), "{algo}:\n{out}");
        }
    }

    #[test]
    fn simulate_lint_inline_with_sampling_downgrades() {
        let out = call(&[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--lint-inline",
            "--sample",
            "rate:3",
        ])
        .unwrap();
        assert!(out.contains("sampling: head,rate:3 —"), "{out}");
        assert!(!out.contains("error[P0003]"), "{out}");
        assert!(!out.contains("error[P0005]"), "{out}");
    }

    #[test]
    fn lint_inline_rejects_bad_combinations() {
        assert!(matches!(
            call(&["simulate", "gossip", "10", "1", "2", "--lint-inline"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&[
                "simulate",
                "bcast",
                "10",
                "1",
                "2",
                "--lint-inline",
                "--events-out",
                "/tmp/postal-cli-test-inline.jsonl"
            ]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["stats", "bcast", "10", "1", "2", "--lint-inline"]),
            Err(CliError::Invalid(_))
        ));
    }

    #[test]
    fn output_flags_reject_bad_usage() {
        assert!(matches!(
            call(&["simulate", "bcast", "5", "1", "2", "--format", "yaml"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["simulate", "bcast", "5", "1", "2", "--trace-out"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(
            call(&["stats", "bcast", "5", "1", "2", "--bogus", "x"]),
            Err(CliError::Invalid(_))
        ));
        assert!(matches!(call(&["stats"]), Err(CliError::Usage(_))));
    }
}
