//! How `lint` tells a JSONL log from schedule JSON, and where its read
//! errors point.
//!
//! A file is a log when its first content line holds `"type"`, `:` and
//! `"run"` separated only by the whitespace the JSONL reader skips, so
//! a log written with `json.dumps` separators lints like the compact
//! one. A byte-order mark and leading blank lines are skipped to sniff
//! the format, but still counted: a JSONL `line N` counts every line
//! of the file, and a schedule-JSON `byte N` is the file offset.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory of this test process's own.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Runs `postal-cli <args>` in `dir`: exit code, stdout, stderr.
fn cli(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run postal-cli");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// `line` as Python's `json.dumps` writes it: `", "` between fields and
/// `": "` after each key. Strings are copied as they are.
fn dumps_style(line: &str) -> String {
    let mut out = String::with_capacity(line.len() * 2);
    let mut in_string = false;
    for c in line.chars() {
        out.push(c);
        match c {
            '"' => in_string = !in_string,
            ',' | ':' if !in_string => out.push(' '),
            _ => {}
        }
    }
    out
}

#[test]
fn a_log_with_json_dumps_separators_lints_like_the_compact_one() {
    let root = temp_dir("dumps");
    let (compact, spaced) = (root.join("compact"), root.join("spaced"));
    std::fs::create_dir_all(&compact).unwrap();
    std::fs::create_dir_all(&spaced).unwrap();
    let (code, _, stderr) = cli(
        &compact,
        &[
            "simulate",
            "bcast",
            "14",
            "1",
            "5/2",
            "--events-out",
            "run.jsonl",
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let log = std::fs::read_to_string(compact.join("run.jsonl")).unwrap();
    let rewritten: String = log.lines().map(|l| dumps_style(l) + "\n").collect();
    assert!(
        rewritten.starts_with(r#"{"type": "run", "engine": "event", "n": 14, "#),
        "{rewritten}"
    );
    std::fs::write(spaced.join("run.jsonl"), rewritten).unwrap();

    for extra in [&[][..], &["--stream"], &["--format", "json"]] {
        let args: Vec<&str> = ["lint", "run.jsonl"].iter().chain(extra).copied().collect();
        let want = cli(&compact, &args);
        assert_eq!(want.0, Some(0), "{extra:?}: {}", want.2);
        assert_eq!(cli(&spaced, &args), want, "{extra:?}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The integer after `"key":` in a compact log line.
fn int_field(line: &str, key: &str) -> u32 {
    let name = format!("\"{key}\":");
    let at = line.find(&name).expect("the line holds the key") + name.len();
    let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
    digits.and_then(|d| d.parse().ok()).expect("an integer")
}

#[test]
fn a_spaced_log_of_several_blocks_lints_like_the_compact_one() {
    let root = temp_dir("dumps-blocks");
    let (compact, spaced) = (root.join("compact"), root.join("spaced"));
    std::fs::create_dir_all(&compact).unwrap();
    std::fs::create_dir_all(&spaced).unwrap();
    let (code, _, stderr) = cli(
        &compact,
        &[
            "simulate",
            "repeat",
            "2000",
            "4",
            "5/2",
            "--events-out",
            "run.jsonl",
        ],
    );
    assert_eq!(code, Some(0), "{stderr}");
    let log = std::fs::read_to_string(compact.join("run.jsonl")).unwrap();
    // Batch `lint` parses each block of 64 KiB or more that its 1 MiB
    // read buffer holds on several threads.
    assert!(log.len() > 1 << 20, "{} bytes", log.len());
    // A few relays become self-sends (P0004), and a few are sent back
    // by their receiver before it holds the message (P0003). Start
    // times stay put, so the log stays in order for `--stream`.
    let mut sends = 0;
    let mut rewritten = String::with_capacity(log.len());
    for line in log.lines() {
        let mut line = line.to_string();
        if line.starts_with(r#"{"type":"send""#) {
            sends += 1;
            let (src, dst) = (int_field(&line, "src"), int_field(&line, "dst"));
            let swap = match sends % 1000 {
                1 => Some((src, src)),
                501 => Some((dst, src)),
                _ => None,
            };
            if let Some((to_src, to_dst)) = swap.filter(|_| src != 0) {
                line = line.replace(
                    &format!(",\"src\":{src},\"dst\":{dst},"),
                    &format!(",\"src\":{to_src},\"dst\":{to_dst},"),
                );
            }
        }
        rewritten.push_str(&line);
        rewritten.push('\n');
    }
    std::fs::write(compact.join("run.jsonl"), &rewritten).unwrap();
    let spaced_log: String = rewritten.lines().map(|l| dumps_style(l) + "\n").collect();
    std::fs::write(spaced.join("run.jsonl"), spaced_log).unwrap();

    let want = cli(&compact, &["lint", "run.jsonl"]);
    assert_eq!(want.0, Some(1), "{}", want.2);
    for code in ["P0003", "P0004"] {
        assert!(
            want.2.contains(&format!("error[{code}]")),
            "{code}: {}",
            want.2
        );
    }
    for dir in [&compact, &spaced] {
        for extra in [&[][..], &["--stream"]] {
            let args: Vec<&str> = ["lint", "run.jsonl"].iter().chain(extra).copied().collect();
            assert_eq!(cli(dir, &args), want, "{dir:?} {extra:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_broken_spaced_header_gets_the_jsonl_error() {
    let dir = temp_dir("broken-header");
    std::fs::write(dir.join("broken.jsonl"), "{\"type\": \"run\", \"n\": 3,}\n").unwrap();
    for extra in [&[][..], &["--stream"]] {
        let args: Vec<&str> = ["lint", "broken.jsonl"]
            .iter()
            .chain(extra)
            .copied()
            .collect();
        assert_eq!(
            cli(&dir, &args),
            (
                Some(1),
                String::new(),
                "error: broken.jsonl: line 1: expected '\"'\n".to_string()
            ),
            "{extra:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jsonl_lines_count_the_bom_line_and_blank_lines() {
    let dir = temp_dir("jsonl-lines");
    let header = r#"{"type":"run","engine":"event","n":3,"lambda":"5/2","messages":1}"#;
    let send = r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"x","finish":"1"}"#;
    let cases = [
        (format!("\u{feff}\n{header}\n{send}\n"), 3),
        (format!("\u{feff}{header}\n{send}\n"), 2),
        (format!("\n \r\n\t\n{header}\n\n{send}\n"), 6),
        (format!("\u{feff}\n\u{feff}\n{header}\r\n{send}\r\n"), 4),
    ];
    for (text, line) in cases {
        std::fs::write(dir.join("bad.jsonl"), &text).unwrap();
        let want =
            format!("error: bad.jsonl: line {line}: \"start\": cannot parse \"x\" as a rational\n");
        for extra in [&[][..], &["--stream"]] {
            let args: Vec<&str> = ["lint", "bad.jsonl"].iter().chain(extra).copied().collect();
            assert_eq!(
                cli(&dir, &args),
                (Some(1), String::new(), want.clone()),
                "{text:?} {extra:?}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schedule_json_bytes_are_file_offsets() {
    let dir = temp_dir("json-bytes");
    let cases = [
        ("\n\n{\"schedule\": 1", "expected ',' or '}' at byte 16"),
        ("{\"schedule\": 1", "expected ',' or '}' at byte 14"),
        ("\u{feff}{\"n\":3,}", "expected '\"' at byte 10"),
        ("\u{feff}\r\n  \n{\"n\":3,}", "expected '\"' at byte 15"),
        ("\n\n", "expected a JSON value at byte 2"),
    ];
    for (text, what) in cases {
        std::fs::write(dir.join("bad.json"), text).unwrap();
        assert_eq!(
            cli(&dir, &["lint", "bad.json"]),
            (Some(1), String::new(), format!("error: bad.json: {what}\n")),
            "{text:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
