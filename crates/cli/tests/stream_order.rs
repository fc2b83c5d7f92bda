//! `lint --stream` folds a JSONL log in file order, and a send written
//! after events that already passed its start time can no longer be
//! finalized in schedule order. The stream lint must then refuse the
//! log, whether the late start lies on the run's tick lattice or off
//! it, while batch `lint` sorts the sends and reports as usual. A send
//! that starts exactly at the watermark is not late.

use std::path::PathBuf;
use std::process::Command;

/// Runs `postal-cli` with `args`: exit code, stdout, stderr.
fn cli(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .args(args)
        .output()
        .expect("run postal-cli");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// A path in the temp directory private to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()))
}

/// The lines of the event log of `simulate bcast 6 1 5/2`.
fn bcast_log(name: &str) -> Vec<String> {
    let path = temp(name);
    let (code, _, stderr) = cli(&[
        "simulate",
        "bcast",
        "6",
        "1",
        "5/2",
        "--events-out",
        path.to_str().expect("UTF-8 temp path"),
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&path).expect("read the event log");
    text.lines().map(str::to_owned).collect()
}

/// Removes the one line containing `needle` and returns it.
fn take(lines: &mut Vec<String>, needle: &str) -> String {
    let at = lines
        .iter()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no line contains {needle}"));
    lines.remove(at)
}

fn write(name: &str, lines: &[String]) -> PathBuf {
    let path = temp(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("write temp file");
    path
}

#[test]
fn a_send_written_after_its_start_has_passed_is_refused() {
    // p0's last send starts at t = 3, and the receive of its second
    // send starts at 5/2. Starting it at 10/3 instead takes it off the
    // half-unit lattice λ = 5/2 ticks on, so the exact lane decides.
    for (name, start, finish) in [
        ("late-on.jsonl", "3", "4"),
        ("late-off.jsonl", "10/3", "13/3"),
    ] {
        let mut lines = bcast_log(&format!("bcast-{name}"));
        let send = take(&mut lines, r#""type":"send","seq":3,"#);
        assert!(send.contains(r#""start":"3","finish":"4""#), "{send}");
        lines.push(send.replace(
            r#""start":"3","finish":"4""#,
            &format!(r#""start":"{start}","finish":"{finish}""#),
        ));
        let path = write(name, &lines);
        let file = path.to_str().expect("UTF-8 temp path");

        let (code, batch, stderr) = cli(&["lint", file]);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        assert!(batch.contains(file), "{name}: {batch}");

        let (code, stdout, stderr) = cli(&["lint", file, "--stream"]);
        assert_eq!(code, Some(1), "{name}");
        assert_eq!(stdout, "", "{name}");
        assert_eq!(
            stderr,
            format!(
                "error: {file}: a send appears after later events already passed its start \
                 time; the log is out of order — lint without --stream instead\n"
            ),
            "{name}"
        );
    }
}

#[test]
fn a_send_starting_at_the_watermark_is_in_order() {
    // p4's send starting at 5/2 moves to just after the receive that
    // starts at 5/2: the watermark stands at its start, not past it.
    let mut lines = bcast_log("bcast-at-watermark.jsonl");
    let send = take(&mut lines, r#""type":"send","seq":4,"#);
    assert!(send.contains(r#""start":"5/2""#), "{send}");
    let recv = lines
        .iter()
        .position(|l| l.contains(r#""type":"recv","seq":1,"#))
        .expect("the receive of p0's second send");
    assert!(lines[recv].contains(r#""start":"5/2""#), "{}", lines[recv]);
    lines.insert(recv + 1, send);
    let path = write("at-watermark.jsonl", &lines);
    let file = path.to_str().expect("UTF-8 temp path");

    let batch = cli(&["lint", file]);
    assert_eq!(batch.0, Some(0), "{}", batch.2);
    assert_eq!(cli(&["lint", file, "--stream"]), batch);
}
