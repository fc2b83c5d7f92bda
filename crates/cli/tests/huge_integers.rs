//! A time or λ beyond the input bounds, read from a file or given on
//! the command line, or a value nested past the reader's depth limit,
//! is a located error, exit 1: it must never overflow the linter (a
//! panic, exit 101), make it allocate without bound or overflow its
//! stack (an abort, exit 134).

use std::path::PathBuf;
use std::process::Command;

/// Writes `text` to a file of this test process's own.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp file");
    path
}

/// Runs `postal-cli lint <path> [extra]`, returning its exit code and
/// standard error.
fn lint(path: &PathBuf, extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .arg("lint")
        .arg(path)
        .args(extra)
        .output()
        .expect("run postal-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Asserts exit 1 with `error: <path>: <located>…` on standard error.
fn assert_located(path: &PathBuf, extra: &[&str], located: &str) {
    let (code, stderr) = lint(path, extra);
    let want = format!("error: {}: {located}", path.display());
    assert_eq!(code, Some(1), "{extra:?}: {stderr}");
    assert!(stderr.starts_with(&want), "{extra:?}: {stderr}");
}

#[test]
fn a_send_start_of_i128_max_is_located_in_both_modes() {
    let path = temp_file(
        "huge-start.jsonl",
        concat!(
            r#"{"type":"run","engine":"event","n":3,"lambda":"2"}"#,
            "\n",
            r#"{"type":"send","seq":0,"src":0,"dst":1,"#,
            r#""start":"170141183460469231731687303715884105727","finish":"1"}"#,
            "\n",
        ),
    );
    let located = "line 2: \"start\": 170141183460469231731687303715884105727 is out of range";
    assert_located(&path, &[], located);
    assert_located(&path, &["--stream"], located);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn schedule_times_beyond_the_bounds_are_located() {
    let path = temp_file(
        "huge-at.json",
        r#"{"n":3,"lambda":"2","sends":[
            {"src":0,"dst":1,"at":"9223372036854775807/3"},
            {"src":0,"dst":2,"at":"1/170141183460469231731687303715884105727"}]}"#,
    );
    assert_located(
        &path,
        &[],
        "sends[0]: \"at\": 9223372036854775807/3 is out of range",
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_huge_lambda_is_located_not_an_abort() {
    let path = temp_file(
        "huge-lambda.json",
        r#"{"n":2,"lambda":"2147483647","sends":[{"src":0,"dst":1,"at":0}]}"#,
    );
    assert_located(&path, &[], "invalid \"lambda\": 2147483647 is out of range");
    let _ = std::fs::remove_file(&path);
}

/// A λ on the command line gets the bound of a λ read from a file.
/// Without it, λ = 2³¹ − 1 makes each of these commands tabulate `F_λ`
/// over 2³¹ ticks and abort allocating 32 GiB (exit 134).
#[test]
fn a_huge_lambda_on_the_command_line_is_located_not_an_abort() {
    for args in [
        &["simulate", "bcast", "8", "1", "2147483647"][..],
        &["tree", "8", "2147483647"],
        &["gantt", "8", "2147483647"],
        &["plan", "8", "1", "2147483647"],
        &["fib", "2147483647", "3"],
        &[
            "check",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda",
            "2147483647",
        ],
        &[
            "analyze",
            "--algo",
            "bcast",
            "--n",
            "8",
            "--lambda-range",
            "1..2147483647",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
            .args(args)
            .output()
            .expect("run postal-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(
                "error: bad lambda \"2147483647\": 2147483647 is out of range \
                 (λ's numerator and denominator must be at most 2^16)"
            ),
            "{args:?}: {stderr}"
        );
    }
}

/// Unknown keys may hold any value, but the schedule reader caps its
/// nesting at 128 levels instead of recursing until the stack
/// overflows (an abort, exit 134). Each case is the text before the
/// nested value, the text after it, and how many objects and arrays
/// enclose the value.
#[test]
fn nesting_200_000_deep_is_located_not_an_abort() {
    let value = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    for (name, before, after, enclosing) in [
        (
            "deep-top.json",
            r#"{"n":3,"lambda":2,"x":"#,
            r#","sends":[]}"#,
            1,
        ),
        (
            "deep-send.json",
            r#"{"n":3,"lambda":2,"sends":[{"src":0,"dst":1,"at":0,"x":"#,
            "}]}",
            3,
        ),
        // No run header, so `lint` sniffs the log as schedule JSON.
        (
            "deep-headerless.jsonl",
            r#"{"type":"send","seq":0,"src":0,"dst":1,"x":"#,
            "}\n",
            1,
        ),
    ] {
        let path = temp_file(name, &format!("{before}{value}{after}"));
        // The `[` that opens level 129.
        let at = before.len() + 128 - enclosing;
        assert_located(&path, &[], &format!("nesting deeper than 128 at byte {at}"));
        let _ = std::fs::remove_file(&path);
    }
}

/// Runs `postal-cli <args>`, returning its exit code and standard error.
fn cli(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .args(args)
        .output()
        .expect("run postal-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The ring recorder reserves 16 shards × K × 128-byte events up front,
/// so `--ring-capacity` is held to 1..=2^20 (2 GiB at most). Without the
/// bound, K = 2^64 − 1 overflowed that reservation (a panic, exit 101)
/// and K = 10^11 aborted allocating 12.8 TB (exit 134).
#[test]
fn a_huge_ring_capacity_is_located_not_a_crash() {
    for (args, k) in [
        (
            &["simulate", "bcast", "8", "1", "2"][..],
            "18446744073709551615",
        ),
        (
            &["simulate", "bcast", "8", "1", "2", "--lint-inline"],
            "18446744073709551615",
        ),
        (&["stats", "bcast", "8", "1", "2"], "100000000000"),
    ] {
        let args = [args, &["--ring-capacity", k]].concat();
        let (code, stderr) = cli(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        let want =
            format!("error: bad --ring-capacity \"{k}\": expected an integer in 1..=1048576");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
    }
}

/// Plain `simulate` runs its programs through `Simulation::run`, like
/// `--lint-inline`, so a run that reaches the 50,000,000-event cap is
/// the same located error in both modes instead of a panic (exit 101).
/// Too heavy for every test run (about 5 GiB and half a minute):
/// `cargo test --release -p postal-cli --test huge_integers -- --ignored`.
#[test]
#[ignore]
fn the_event_cap_is_located_not_a_panic() {
    for extra in [&[][..], &["--lint-inline"]] {
        let args = [&["simulate", "repeat", "30000", "1000", "2"][..], extra].concat();
        let (code, stderr) = cli(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(
            stderr,
            "error: simulation failed: event limit of 50000000 exceeded; divergent program?\n",
            "{args:?}"
        );
    }
}
