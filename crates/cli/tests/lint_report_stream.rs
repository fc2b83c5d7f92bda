//! Which stream a `lint` report goes to is part of the CLI's contract
//! (see docs/linting.md, "Where the report goes"): when a diagnostic
//! reaches `--deny` the command exits 1, stdout stays empty, and the
//! whole report, text or `--format json`, batch or `--stream`, is on
//! stderr. A clean lint exits 0 with its report on stdout.

use std::path::PathBuf;
use std::process::Command;

const HEADER: &str = r#"{"type":"run","engine":"event","n":3,"lambda":"5/2","messages":1}"#;
const FIRST: &str = r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1"}"#;

/// Writes a JSONL log of `HEADER`, `FIRST` and `second` to a file of
/// this test process's own.
fn log(name: &str, second: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, format!("{HEADER}\n{FIRST}\n{second}\n")).expect("write temp file");
    path
}

/// Runs `postal-cli lint <path> [extra]`: exit code, stdout, stderr.
fn lint(path: &PathBuf, extra: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .arg("lint")
        .arg(path)
        .args(extra)
        .output()
        .expect("run postal-cli");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn a_failing_report_is_on_stderr_in_every_form() {
    // p1 sends to itself (P0004), and p2 never hears (P0005).
    let path = log(
        "dirty.jsonl",
        r#"{"type":"send","seq":1,"src":1,"dst":1,"start":"5/2","finish":"7/2"}"#,
    );
    let source = path.display().to_string();
    let mut text_reports = Vec::new();
    for extra in [&[][..], &["--stream"], &["--deny", "warn"]] {
        let (code, stdout, stderr) = lint(&path, extra);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert_eq!(stdout, "", "{extra:?}");
        assert!(
            stderr.starts_with("error[P0004]: self-send"),
            "{extra:?}: {stderr}"
        );
        assert!(stderr.contains("error[P0005]"), "{extra:?}: {stderr}");
        assert!(
            stderr.ends_with(&format!("\n{source}: 2 errors\n")),
            "{extra:?}: {stderr}"
        );
        text_reports.push(stderr);
    }
    assert!(text_reports.windows(2).all(|w| w[0] == w[1]));

    let mut json_reports = Vec::new();
    for extra in [&["--format", "json"][..], &["--format", "json", "--stream"]] {
        let (code, stdout, stderr) = lint(&path, extra);
        assert_eq!(code, Some(1), "{extra:?}: {stderr}");
        assert_eq!(stdout, "", "{extra:?}");
        assert!(stderr.starts_with("[\n"), "{extra:?}: {stderr}");
        assert!(stderr.contains(r#""code": "P0004""#), "{extra:?}: {stderr}");
        assert!(stderr.ends_with("]\n"), "{extra:?}: {stderr}");
        json_reports.push(stderr);
    }
    assert_eq!(json_reports[0], json_reports[1]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_passing_report_is_on_stdout() {
    // p0 informs p1 at 0 and p2 at 1: a valid broadcast.
    let path = log(
        "clean.jsonl",
        r#"{"type":"send","seq":1,"src":0,"dst":2,"start":"1","finish":"2"}"#,
    );
    for extra in [&[][..], &["--stream"], &["--format", "json"]] {
        let (code, stdout, stderr) = lint(&path, extra);
        assert_eq!(code, Some(0), "{extra:?}: {stderr}");
        assert_eq!(stderr, "", "{extra:?}");
        assert!(!stdout.is_empty(), "{extra:?}");
    }
    let _ = std::fs::remove_file(&path);
}
