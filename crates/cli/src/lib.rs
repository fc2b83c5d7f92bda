//! Implementation of the `postal-cli` command-line tool.
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is
//! a thin shim. Each subcommand declares its arguments in one table, and
//! one parser reads the command line against it:
//!
//! - positionals are required and filled in the order declared; a
//!   missing or surplus one is a usage error (exit 2);
//! - flags may come anywhere and take the next argument as their value;
//!   the last of a repeated flag wins;
//! - an undeclared flag or a flag without its value is an error (exit
//!   1), and so is a value that does not read, as `bad <name> "<value>":
//!   <why>`: every integer is held to the range its table declares, and
//!   every λ to the bounds of a λ read from a file.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod explore;
mod lint;
mod simulate;
mod suite;

use args::{Args, Command};

/// CLI failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Wrong arguments; the message is the usage text, after a line
    /// naming the fault when there is one.
    Usage(String),
    /// Arguments parsed but invalid (e.g. λ < 1).
    Invalid(String),
    /// `postal-cli lint` found diagnostics at or above the `--deny`
    /// level; the message is the rendered report.
    LintFailed(String),
}

const USAGE: &str =
    "postal-cli — explore broadcasting in the postal model (Bar-Noy & Kipnis, SPAA 1992)

USAGE:
    postal-cli tree <n> <lambda>             optimal broadcast tree (Figure 1 style)
    postal-cli gantt <n> <lambda>            BCAST schedule as an ASCII timeline
    postal-cli fib <lambda> <max_t>          table of F_λ(t) and f_λ(n) landmarks,
                                             <max_t> in 0..=10000
    postal-cli plan <n> <m> <lambda>         compare all algorithms, recommend one
    postal-cli simulate <algo> <n> <m> <lambda>
                                             run one algorithm on the simulator
                                             (algo: bcast|repeat|repeat-greedy|pack|
                                              pipeline|line|binary|star|dtree:<d>|
                                              combine|gossip|scatter)
           [--trace-out FILE]                export Chrome trace JSON (Perfetto/about:tracing)
           [--events-out FILE]               export JSONL event log (re-lintable: postal-cli lint)
           [--metrics-out FILE]              export Prometheus text exposition
           [--format text|json]              machine-readable summary
           [--sample SPEC]                   record through the sharded ring recorder with
                                             sampling: all | head | tail | rate:<k>, comma-
                                             separated (e.g. tail,rate:8); drops are counted
                                             and stamped into every export
           [--ring-capacity K]               per-shard ring capacity (default 65536),
                                             K in 1..=1048576
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
    postal-cli stats <algo> <n> <m> <lambda> observed-run metrics: gap to f_λ(n), port
                                             utilization, p50/p90/p99 latency, idle-port
                                             waste (P0006)
           [--trace-out|--events-out|--metrics-out FILE] [--format text|json]
           [--sample SPEC] [--ring-capacity K]   K in 1..=1048576
    postal-cli svg <n> <lambda>              SVG broadcast tree on stdout, <n> in 1..=4096
    postal-cli optimal <n> <m> <lambda>      exact optimum via exhaustive search, tiny
                                             instances only: <n> in 1..=6, <m> in 1..=4
    postal-cli lint <file>                   static analysis: lint codes P0001-P0007
           [--deny warn|error] [--format text|json] [--m N]
                                             <file> is schedule JSON or an observability
                                             JSONL event log; exits 1 when any
                                             diagnostic reaches --deny (default: error),
                                             and then the report (text or json) goes
                                             to stderr and stdout stays empty; N ≥ 1
           [--stream]                        fold a JSONL log through the streaming
                                             lint engine line by line (O(n) memory,
                                             identical report)
           [--topology SPEC]                 lint against a sparse communication graph
                                             (complete | ring | torus:RxC | hypercube:D
                                             | mbg:N): adds the graph-grounded codes
                                             P0017-P0019; a schedule file's own
                                             \"topology\" field is the default
    postal-cli check --algo <name|all> --n N --lambda L
                                             model-check every interleaving (DPOR):
                                             codes P0008-P0011 over the whole state
                                             space, plus a re-lint of each execution;
                                             N and M in 1..=64, K ≥ 1
           [--m M] [--max-interleavings K] [--format text|json] [--deny warn|error]
    postal-cli analyze --algo <name|all> --n N --lambda-range A..B
                                             abstract interpretation over the whole
                                             λ-range: codes P0012-P0016, each with a
                                             witness λ sub-interval; N in 1..=4096,
                                             M in 1..=64, D in 0..=16
           [--m M] [--max-depth D] [--format text|json] [--deny warn|error]
           [--topology SPEC]                 analyze against a sparse communication
                                             graph: processors the graph cuts off from
                                             the originator are reported as P0019

<n> is in 1..=1000000 and <m> in 1..=100000 unless stated otherwise.
<lambda>, L, A and B accept integers, fractions and decimals (3, 5/2, 2.5)
of at least 1, with numerator and denominator at most 2^16.";

/// Every subcommand, in the order `USAGE` lists them.
const COMMANDS: [&Command; 11] = [
    &explore::TREE,
    &explore::GANTT,
    &explore::FIB,
    &explore::PLAN,
    &simulate::SIMULATE,
    &simulate::STATS,
    &explore::SVG,
    &explore::OPTIMAL,
    &lint::LINT,
    &suite::CHECK,
    &suite::ANALYZE,
];

/// Entry point: parses `args` and returns the text to print.
///
/// # Errors
/// [`CliError::Usage`] for malformed invocations, [`CliError::Invalid`]
/// for well-formed but meaningless ones.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage = || CliError::Usage(USAGE.to_string());
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    let cmd = COMMANDS.iter().find(|c| c.name == name).ok_or_else(usage)?;
    (cmd.run)(&Args::parse(cmd, rest)?)
}

/// A usage error: `what` went wrong, then the usage text.
fn usage_error(what: &str) -> CliError {
    CliError::Usage(format!("error: {what}\n\n{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{runtimes, Latency};

    fn call(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    /// A subcommand's block of `USAGE`: from its `postal-cli <name>` line
    /// to the next subcommand's line or the blank line after the list.
    fn usage_block(name: &str) -> &'static str {
        let start = USAGE
            .find(&format!("\n    postal-cli {name} "))
            .unwrap_or_else(|| panic!("USAGE has no line for {name}"));
        let rest = &USAGE[start + 1..];
        let ends = ["\n    postal-cli ", "\n\n"].map(|end| rest.find(end).unwrap_or(rest.len()));
        &rest[..ends[0].min(ends[1])]
    }

    /// The `--flag` words of `text`.
    fn flags(text: &str) -> impl Iterator<Item = &str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
    }

    #[test]
    fn flag_tables_and_usage_agree() {
        let footer = USAGE.rsplit("\n\n").next().expect("USAGE ends in notes");
        for cmd in COMMANDS {
            let block = usage_block(cmd.name);
            for &(name, kind) in cmd.args {
                if name.starts_with("--") {
                    assert!(flags(block).any(|f| f == name), "{}: {name}", cmd.name);
                } else {
                    assert!(block.contains(&format!("<{name}>")), "{}: {name}", cmd.name);
                }
                if let args::Kind::Int(lo, hi) = kind {
                    let range = args::bounds(lo, hi);
                    let stated = block.contains(&range) || footer.contains(&range);
                    assert!(stated, "{}: {name} {range}", cmd.name);
                }
            }
        }
        for flag in flags(USAGE) {
            let declared = COMMANDS.iter().any(|c| c.args.iter().any(|a| a.0 == flag));
            assert!(declared, "USAGE names {flag}, which no subcommand declares");
        }
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
        // feed the JSONL straight back into `postal-cli lint`, get clean.
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
