//! The argument contract, subcommand by subcommand: a missing value, an
//! unparsable value and an out-of-range value for each flag a
//! subcommand declares, plus an unknown flag and a missing or surplus
//! positional. Each case is the arguments, the exit code (2 for a usage
//! error, 1 for any other) and the first line of standard error;
//! standard output stays empty.

use std::process::Command;

const CASES: &[(&str, i32, &str)] = &[
    // Positionals: missing, surplus, unparsable, out of range.
    ("tree 8", 2, "error: tree needs <lambda>"),
    ("tree 8 2 3", 2, "error: unexpected extra argument \"3\""),
    (
        "tree x 2",
        1,
        "error: bad n \"x\": expected an integer in 1..=1000000",
    ),
    (
        "tree 0 2",
        1,
        "error: bad n \"0\": expected an integer in 1..=1000000",
    ),
    (
        "tree -3 2",
        1,
        "error: bad n \"-3\": expected an integer in 1..=1000000",
    ),
    (
        "tree 8 x",
        1,
        "error: bad lambda \"x\": cannot parse latency: x",
    ),
    (
        "tree 8 1/2",
        1,
        "error: bad lambda \"1/2\": latency must satisfy λ ≥ 1, got 1/2",
    ),
    ("gantt", 2, "error: gantt needs <n>"),
    (
        "gantt 1000001 2",
        1,
        "error: bad n \"1000001\": expected an integer in 1..=1000000",
    ),
    ("fib 5/2", 2, "error: fib needs <max_t>"),
    (
        "fib 5/2 3 extra",
        2,
        "error: unexpected extra argument \"extra\"",
    ),
    (
        "fib 5/2 x",
        1,
        "error: bad max_t \"x\": expected an integer in 0..=10000",
    ),
    (
        "fib 5/2 10001",
        1,
        "error: bad max_t \"10001\": expected an integer in 0..=10000",
    ),
    (
        "fib 5/2 -1",
        1,
        "error: bad max_t \"-1\": expected an integer in 0..=10000",
    ),
    ("plan 8 1", 2, "error: plan needs <lambda>"),
    (
        "plan 8 x 2",
        1,
        "error: bad m \"x\": expected an integer in 1..=100000",
    ),
    (
        "plan 8 100001 2",
        1,
        "error: bad m \"100001\": expected an integer in 1..=100000",
    ),
    (
        "svg 4097 2",
        1,
        "error: bad n \"4097\": expected an integer in 1..=4096",
    ),
    ("svg 14 5/2 x", 2, "error: unexpected extra argument \"x\""),
    (
        "optimal 7 2 2",
        1,
        "error: bad n \"7\": expected an integer in 1..=6",
    ),
    (
        "optimal 3 5 2",
        1,
        "error: bad m \"5\": expected an integer in 1..=4",
    ),
    ("optimal 3 2", 2, "error: optimal needs <lambda>"),
    ("lint", 2, "error: lint needs <file>"),
    (
        "lint s.json t.json",
        2,
        "error: unexpected extra argument \"t.json\"",
    ),
    // Flags no subcommand, or not this one, declares.
    (
        "tree 8 2 --bogus",
        1,
        "error: unknown tree flag \"--bogus\"",
    ),
    (
        "stats bcast 8 1 2 --topology ring",
        1,
        "error: unknown stats flag \"--topology\"",
    ),
    (
        "stats bcast 8 1 2 --lint-inline",
        1,
        "error: unknown stats flag \"--lint-inline\"",
    ),
    (
        "lint s.json --sample all",
        1,
        "error: unknown lint flag \"--sample\"",
    ),
    (
        "check --topology ring",
        1,
        "error: unknown check flag \"--topology\"",
    ),
    (
        "analyze --max-interleavings 3",
        1,
        "error: unknown analyze flag \"--max-interleavings\"",
    ),
    // The one `<algo>` table of simulate, stats and --lint-inline.
    ("simulate", 2, "error: simulate needs <algo>"),
    ("stats bcast 8 1", 2, "error: stats needs <lambda>"),
    (
        "simulate bcast 8 1 2 x",
        2,
        "error: unexpected extra argument \"x\"",
    ),
    (
        "simulate warp 8 1 2",
        1,
        "error: unknown algorithm \"warp\" (see `postal-cli` for the list)",
    ),
    (
        "stats warp 8 1 2",
        1,
        "error: unknown algorithm \"warp\" (see `postal-cli` for the list)",
    ),
    (
        "simulate dtree:x 8 1 2",
        1,
        "error: bad algo \"dtree:x\": expected dtree:<d>, d ≥ 1",
    ),
    (
        "simulate dtree:0 8 1 2 --lint-inline",
        1,
        "error: bad algo \"dtree:0\": expected dtree:<d>, d ≥ 1",
    ),
    ("simulate star 1 1 2", 1, "error: star needs n ≥ 2"),
    (
        "simulate bcast 0 1 2",
        1,
        "error: bad n \"0\": expected an integer in 1..=1000000",
    ),
    (
        "stats bcast 8 0 2",
        1,
        "error: bad m \"0\": expected an integer in 1..=100000",
    ),
    (
        "simulate gossip 8 1 2 --lint-inline",
        1,
        "error: --lint-inline checks the broadcast contract (P0003/P0005/P0007); \
         gossip is not a broadcast — run it without --lint-inline",
    ),
    (
        "simulate bcast 8 1 2 --lint-inline --events-out e.jsonl",
        1,
        "error: --lint-inline discards the trace as it runs; \
         --trace-out/--events-out/--metrics-out need a recorded log",
    ),
    // check and analyze: required flags and the one `--algo` resolver.
    ("check --n 8 --lambda 2", 2, "error: check needs --algo"),
    ("check --algo bcast --lambda 2", 2, "error: check needs --n"),
    ("check --algo bcast --n 8", 2, "error: check needs --lambda"),
    (
        "analyze --algo bcast --n 8",
        2,
        "error: analyze needs --lambda-range",
    ),
    (
        "check x --algo bcast --n 8 --lambda 2",
        2,
        "error: unexpected extra argument \"x\"",
    ),
    (
        "check --algo warp --n 8 --lambda 2",
        1,
        "error: unknown algorithm \"warp\" \
         (bcast|repeat|repeat-greedy|pack|pipeline|line|binary|star|dtree|all)",
    ),
    (
        "analyze --algo warp --n 8 --lambda-range 1..2",
        1,
        "error: unknown algorithm \"warp\" \
         (bcast|repeat|repeat-greedy|pack|pipeline|line|binary|star|dtree|all)",
    ),
    (
        "check --algo bcast --n x --lambda 2",
        1,
        "error: bad --n \"x\": expected an integer in 1..=64",
    ),
    (
        "check --algo bcast --n 65 --lambda 2",
        1,
        "error: bad --n \"65\": expected an integer in 1..=64",
    ),
    (
        "analyze --algo bcast --n 4097 --lambda-range 1..2",
        1,
        "error: bad --n \"4097\": expected an integer in 1..=4096",
    ),
    (
        "check --algo bcast --n 8 --lambda x",
        1,
        "error: bad lambda \"x\": cannot parse latency: x",
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 1..x",
        1,
        "error: bad lambda \"x\": cannot parse latency: x",
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 4..1",
        1,
        "error: bad --lambda-range \"4..1\": empty range, 4 > 1",
    ),
    (
        "check --algo bcast --n 8 --lambda 2 --max-interleavings x",
        1,
        "error: bad --max-interleavings \"x\": expected an integer ≥ 1",
    ),
    (
        "check --algo bcast --n 8 --lambda 2 --max-interleavings 0",
        1,
        "error: bad --max-interleavings \"0\": expected an integer ≥ 1",
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 1..2 --max-depth x",
        1,
        "error: bad --max-depth \"x\": expected an integer in 0..=16",
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 1..2 --max-depth 17",
        1,
        "error: bad --max-depth \"17\": expected an integer in 0..=16",
    ),
    (
        "lint s.json --m x",
        1,
        "error: bad --m \"x\": expected an integer ≥ 1",
    ),
    (
        "lint s.json --m 0",
        1,
        "error: bad --m \"0\": expected an integer ≥ 1",
    ),
    (
        "lint s.json --topology hypercube:2",
        1,
        "error: bad --topology \"hypercube:2\": \
         topology 'hypercube:2' describes 4 processor(s) but the system has 3",
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 1..2 --topology hypercube:2",
        1,
        "error: bad --topology \"hypercube:2\": \
         topology 'hypercube:2' describes 4 processor(s) but the system has 8",
    ),
    // Paths are read as given; a path that does not open is located.
    (
        "simulate bcast 8 1 2 --trace-out /nonexistent/t.json",
        1,
        "error: cannot write /nonexistent/t.json: No such file or directory (os error 2)",
    ),
    (
        "lint /nonexistent/x.json",
        1,
        "error: cannot read /nonexistent/x.json: No such file or directory (os error 2)",
    ),
    (
        "lint /nonexistent/x.jsonl --stream",
        1,
        "error: cannot read /nonexistent/x.jsonl: No such file or directory (os error 2)",
    ),
];

/// Each subcommand, a valid invocation of it, and the flags it declares
/// that take a value.
const VALUE_FLAGS: &[(&str, &[&str])] = &[
    (
        "simulate bcast 8 1 2",
        &[
            "--trace-out",
            "--events-out",
            "--metrics-out",
            "--format",
            "--sample",
            "--ring-capacity",
            "--topology",
        ],
    ),
    (
        "simulate bcast 8 1 2 --lint-inline",
        &["--format", "--sample", "--ring-capacity", "--topology"],
    ),
    (
        "stats bcast 8 1 2",
        &[
            "--trace-out",
            "--events-out",
            "--metrics-out",
            "--format",
            "--sample",
            "--ring-capacity",
        ],
    ),
    ("lint s.json", &["--deny", "--format", "--m", "--topology"]),
    (
        "check --algo bcast --n 8 --lambda 2",
        &[
            "--algo",
            "--n",
            "--lambda",
            "--m",
            "--max-interleavings",
            "--format",
            "--deny",
        ],
    ),
    (
        "analyze --algo bcast --n 8 --lambda-range 1..2",
        &[
            "--algo",
            "--n",
            "--lambda-range",
            "--m",
            "--max-depth",
            "--format",
            "--deny",
            "--topology",
        ],
    ),
];

/// Bad values for the flags several subcommands share, each read by
/// one getter: the value and the reason the error gives.
const SHARED: &[(&str, &str, &str)] = &[
    ("--format", "yaml", "expected text or json"),
    ("--deny", "everything", "expected warn or error"),
    ("--m", "x", "expected an integer in 1..=64"),
    ("--m", "65", "expected an integer in 1..=64"),
    ("--lambda", "2147483647", LAMBDA),
    ("--ring-capacity", "x", RING),
    ("--ring-capacity", "0", RING),
    ("--ring-capacity", "1048577", RING),
    (
        "--sample",
        "sometimes",
        "unknown sample term \"sometimes\" (want all|head|tail|rate:<k>)",
    ),
    ("--sample", "rate:0", "sample rate must be ≥ 1"),
    (
        "--topology",
        "pentagon",
        "unknown topology 'pentagon': expected complete, ring, torus:RxC, hypercube:D, or mbg:N",
    ),
];
const RING: &str = "expected an integer in 1..=1048576";
const LAMBDA: &str =
    "2147483647 is out of range (λ's numerator and denominator must be at most 2^16)";

fn cases() -> Vec<(String, i32, String)> {
    let mut cases: Vec<(String, i32, String)> = CASES
        .iter()
        .map(|&(args, code, first)| (args.to_string(), code, first.to_string()))
        .collect();
    for &(cmd, flags) in VALUE_FLAGS {
        for flag in flags {
            let missing = format!("error: {flag} needs a value");
            cases.push((format!("{cmd} {flag}"), 1, missing));
            // `lint`'s `--m` takes any count ≥ 1, checked above.
            let shared = SHARED
                .iter()
                .filter(|s| s.0 == *flag && !(cmd.starts_with("lint") && s.0 == "--m"));
            for (_, value, why) in shared {
                // λ errors name the value `lambda` wherever it was given.
                let name = if *flag == "--lambda" { "lambda" } else { flag };
                let first = format!("error: bad {name} \"{value}\": {why}");
                cases.push((format!("{cmd} {flag} {value}"), 1, first));
            }
        }
    }
    cases
}

#[test]
fn every_argument_error_exits_with_its_code_and_names_the_argument() {
    // A clean 3-processor schedule for the `lint` rows, in a directory
    // of this test process's own.
    let dir = std::env::temp_dir().join(format!("postal-cli-arg-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(
        dir.join("s.json"),
        r#"{"n":3,"lambda":"5/2","sends":[{"src":0,"dst":1,"at":0},{"src":0,"dst":2,"at":1}]}"#,
    )
    .expect("write schedule");
    let mut failures = Vec::new();
    for (args, code, first) in cases() {
        let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
            .args(args.split(' '))
            .current_dir(&dir)
            .output()
            .expect("run postal-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let got = (out.status.code(), stderr.lines().next().unwrap_or(""));
        if got != (Some(code), first.as_str()) || !out.stdout.is_empty() {
            failures.push(format!("{args}\n  want {code} {first}\n  got  {got:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
