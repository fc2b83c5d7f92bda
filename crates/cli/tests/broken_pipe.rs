//! A reader that closes the pipe early (`postal-cli tree 5000 2 | head
//! -1`) is a normal end of output: exit status 0, no panic message.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_normal_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .args(["tree", "5000", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn postal-cli");
    // Drop the read end before reading anything. The tree is ~229 KB,
    // more than a pipe buffer holds, so the writer must hit the closed
    // pipe whichever of the two gets there first.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for postal-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit status {:?}, stderr: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
