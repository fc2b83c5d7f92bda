//! `postal-cli` — a command-line explorer for postal-model broadcasting.
//!
//! ```text
//! postal-cli tree 14 5/2        # the Figure-1 broadcast tree
//! postal-cli gantt 14 5/2       # the same schedule as a timeline
//! postal-cli fib 5/2 20         # F_λ(t) table up to t = 20
//! postal-cli plan 512 16 5/2    # which algorithm to use, with exact times
//! postal-cli simulate pipeline 64 8 5/2
//! ```

use postal_cli::{run, CliError};
use std::io::{self, Write};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => emit(&mut io::stdout().lock(), &output, "\n"),
        Err(CliError::Usage(msg)) => {
            emit(&mut io::stderr().lock(), &msg, "\n");
            exit(2);
        }
        Err(CliError::Invalid(msg)) => {
            emit(&mut io::stderr().lock(), &format!("error: {msg}"), "\n");
            exit(1);
        }
        Err(CliError::LintFailed(report)) => {
            emit(&mut io::stderr().lock(), &report, "");
            exit(1);
        }
    }
}

/// Writes `text` and then `end` to `out`. A reader that closes the pipe
/// early (`postal-cli tree 5000 2 | head -1`) ends the output normally;
/// any other write failure exits 1.
fn emit(out: &mut impl Write, text: &str, end: &str) {
    let written = out
        .write_all(text.as_bytes())
        .and_then(|()| out.write_all(end.as_bytes()))
        .and_then(|()| out.flush());
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: writing output: {e}");
            exit(1);
        }
    }
}
