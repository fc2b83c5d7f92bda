//! `lint` and `lint --stream` read a JSONL log through the same line
//! loop, so a log that cannot be read fails with the same message in
//! both modes, located on the line that cannot be read.

use std::path::PathBuf;
use std::process::Command;

/// Writes `bytes` to a file of this test process's own.
fn temp_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp file");
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

#[test]
fn invalid_utf8_reads_the_same_in_both_modes() {
    // Line 3 is a wake event whose time string holds a lone UTF-8
    // continuation byte.
    let log: &[u8] = br#"{"type":"run","engine":"event","n":3,"lambda":"5/2","messages":1}
{"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1"}
{"type":"wake","proc":1,"at":"?"}
{"type":"wake","proc":2,"at":"5"}
"#;
    let log: Vec<u8> = log
        .iter()
        .map(|&b| if b == b'?' { 0x80 } else { b })
        .collect();
    let path = temp_file("bad-utf8.jsonl", &log);

    let batch = lint(&path, &[]);
    let stream = lint(&path, &["--stream"]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        batch,
        (
            Some(1),
            format!(
                "error: {}: line 3: read error: stream did not contain valid UTF-8\n",
                path.display()
            )
        )
    );
    assert_eq!(stream, batch);
}
