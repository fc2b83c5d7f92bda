//! `lint`: a schedule JSON or an observability JSONL log through the
//! lint engine, whole or (`--stream`) line by line.

use crate::args::{parse_topology, Args, Command, Kind};
use crate::CliError;
use postal_model::{Latency, Time, Topology};
use postal_obs::{looks_like_log, JsonlParser, LineReader, LintStream};
use postal_verify::{json, lint_schedule, render, Diagnostic, LintOptions, Severity};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Cursor, Read as _};

pub(crate) const LINT: Command = Command {
    name: "lint",
    args: &[
        ("file", Kind::Value),
        ("--deny", Kind::Value),
        ("--format", Kind::Value),
        ("--m", Kind::Int(1, u64::MAX)),
        ("--stream", Kind::Switch),
        ("--topology", Kind::Value),
    ],
    run: lint,
};

/// What the command line asks of one lint.
struct Request<'a> {
    path: &'a str,
    /// `--m`: overrides the file's message count.
    messages: Option<u64>,
    /// `--topology`: overrides the file's own `"topology"` field.
    topology: Option<&'a str>,
    as_json: bool,
    deny: Severity,
}

fn lint(a: &Args) -> Result<String, CliError> {
    let req = Request {
        path: a.text("file")?,
        messages: a.opt_int("--m")?,
        topology: a.get("--topology"),
        as_json: a.json()?,
        deny: a.deny()?,
    };
    let path = req.path;
    // Stream the file instead of reading it into memory: million-send
    // schedules lint without ever materializing the trace text. The
    // first content line is read eagerly to sniff the format — an
    // observability JSONL log announces itself with a run header; a
    // schedule file is a single JSON object. Both reduce to a Schedule.
    let file = open_sniffed(path)?;
    let is_jsonl = looks_like_log(&file.first_line);
    if a.get("--stream").is_some() {
        if !is_jsonl {
            return Err(CliError::Invalid(format!(
                "{path}: --stream needs an observability JSONL event log \
                 (\"type\":\"run\" header); schedule JSON is linted whole — drop --stream"
            )));
        }
        return lint_streaming(&req, file.jsonl());
    }
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{path}: {e}"));
    let parsed = if is_jsonl {
        postal_verify::jsonl_to_schedule_file(file.jsonl()).map_err(|e| invalid(&e))?
    } else {
        json::parse_schedule_reader(file.schedule()).map_err(|e| invalid(&e))?
    };
    let dropped = parsed.dropped_events.unwrap_or(0);
    let truncated = parsed.truncated;
    let schedule = parsed.schedule;
    let messages = req.messages.or(parsed.messages).unwrap_or(1);
    let opts = LintOptions::broadcast_of(messages);
    let raw = match req.topology.or(parsed.topology.as_deref()) {
        Some(spec) => {
            let topo = parse_topology(spec, schedule.n())?;
            postal_verify::lint_schedule_with_topology(&schedule, &opts, &topo)
        }
        None => lint_schedule(&schedule, &opts),
    };
    let facts = Facts {
        n: schedule.n(),
        latency: schedule.latency(),
        completion: schedule.completion(),
        messages,
        dropped,
        truncated,
    };
    outcome(&req, raw, facts)
}

/// A file opened for linting, its first content line read ahead to
/// tell the format.
struct Sniffed {
    /// The first line that holds more than whitespace, less a leading
    /// UTF-8 byte-order mark; empty when the file has none.
    first_line: String,
    /// The lines before it, each blank once a leading BOM is dropped.
    lines_before: u64,
    /// The bytes before its text: those lines, and its own BOM.
    bytes_before: u64,
    rest: BufReader<File>,
}

impl Sniffed {
    /// The file as the JSONL reader reads it: an empty line stands in
    /// for each line skipped, so `line N` counts every line of the file.
    fn jsonl(self) -> impl BufRead {
        let count = self.lines_before;
        self.after(b'\n', count)
    }

    /// The file as the schedule-JSON reader reads it: a space stands in
    /// for each byte skipped, so `byte N` is the offset in the file.
    fn schedule(self) -> impl BufRead {
        let count = self.bytes_before;
        self.after(b' ', count)
    }

    /// `count` copies of `filler`, then the first content line and the
    /// rest of the file.
    fn after(self, filler: u8, count: u64) -> impl BufRead {
        BufReader::new(io::repeat(filler).take(count))
            .chain(Cursor::new(self.first_line))
            .chain(self.rest)
    }
}

/// The file reader's buffer. The JSONL reader parses the complete lines
/// a buffer holds on several threads once they fill 64 KiB, and a MiB
/// gives each thread several chunks to claim.
const READ_BUFFER: usize = 1 << 20;

/// Opens `path` for lint-format sniffing: skips a UTF-8 byte-order mark
/// and any leading blank lines (editors and shell heredocs prepend
/// both), keeping count of what it skipped so that error locations
/// still count from the start of the file. A line it cannot read is
/// located as the JSONL reader locates one, `<path>: line N: read
/// error: …`; `cannot read <path>` is a file that does not open.
fn open_sniffed(path: &str) -> Result<Sniffed, CliError> {
    let handle =
        File::open(path).map_err(|e| CliError::Invalid(format!("cannot read {path}: {e}")))?;
    let mut rest = BufReader::with_capacity(READ_BUFFER, handle);
    let mut first_line = String::new();
    let (mut lines_before, mut bytes_before) = (0, 0);
    loop {
        first_line.clear();
        // Located as the JSONL reader locates a read error on any later
        // line, counting the lines skipped so far.
        let read = rest.read_line(&mut first_line).map_err(|e| {
            let line = lines_before + 1;
            CliError::Invalid(format!("{path}: line {line}: read error: {e}"))
        })?;
        if read == 0 {
            break; // EOF: hand the (blank) line to the parser for its error.
        }
        if first_line.starts_with('\u{feff}') {
            first_line.replace_range(..'\u{feff}'.len_utf8(), "");
        }
        if !first_line.trim().is_empty() {
            bytes_before += (read - first_line.len()) as u64;
            break;
        }
        lines_before += 1;
        bytes_before += read as u64;
    }
    Ok(Sniffed {
        first_line,
        lines_before,
        bytes_before,
        rest,
    })
}

/// The streaming linter for one run. Its one watermark policy is sound
/// for both orders a log is written in — live emission order (sends
/// announced ahead of their starts) and at()-sorted — while a shuffled
/// log merely defers finalization to finish(), still the exact batch
/// report.
pub(crate) fn lint_stream(
    n: u32,
    lam: Latency,
    messages: u64,
    topology: Option<&Topology>,
) -> LintStream {
    let opts = LintOptions::broadcast_of(messages);
    match topology {
        Some(t) => LintStream::with_topology(n, lam, opts, t),
        None => LintStream::new(n, lam, opts),
    }
}

/// The `lint --stream` path: folds a JSONL event log through the
/// streaming lint engine line by line — O(n) linter memory, no
/// materialized schedule — and renders the exact batch report.
fn lint_streaming(req: &Request, log: impl BufRead) -> Result<String, CliError> {
    let path = req.path;
    let invalid = |e: &dyn std::fmt::Display| CliError::Invalid(format!("{path}: {e}"));
    let mut parser = JsonlParser::new();
    // Built once the header line has been parsed.
    let mut stream: Option<(LintStream, Facts)> = None;
    let mut lines = LineReader::new(log);
    while let Some(line) = lines
        .next_line()
        .map_err(|e| invalid(&parser.unreadable(e)))?
    {
        let event = parser.line(line).map_err(|e| invalid(&e))?;
        if stream.is_none() {
            if let Some(meta) = parser.meta() {
                let lam = meta.lambda.ok_or_else(|| {
                    invalid(&"log has no uniform lambda; cannot reduce to a schedule")
                })?;
                let messages = req.messages.or(meta.messages).unwrap_or(1);
                let topo = req
                    .topology
                    .map(|s| parse_topology(s, meta.n))
                    .transpose()?;
                let facts = Facts {
                    n: meta.n,
                    latency: lam,
                    completion: Time::ZERO,
                    messages,
                    dropped: meta.dropped_events.unwrap_or(0),
                    truncated: false,
                };
                stream = Some((lint_stream(meta.n, lam, messages, topo.as_ref()), facts));
            }
        }
        if let (Some(ev), Some((s, _))) = (event, stream.as_mut()) {
            s.on_event(&ev);
        }
    }
    let (stream, mut facts) = stream.ok_or_else(|| invalid(&"empty log: no \"run\" header"))?;
    if stream.out_of_order() {
        return Err(CliError::Invalid(format!(
            "{path}: a send appears after later events already passed its start time; \
             the log is out of order — lint without --stream instead"
        )));
    }
    facts.truncated = stream.truncated();
    facts.completion = stream.completion();
    outcome(req, stream.finish(), facts)
}

/// Downgrades the absence-based findings (P0003, P0005) of a trace that
/// sampling thinned (`dropped` events) or the event budget cut short.
pub(crate) fn downgrade(raw: Vec<Diagnostic>, dropped: u64, truncated: bool) -> Vec<Diagnostic> {
    postal_verify::downgrade_truncated_trace(
        postal_verify::downgrade_partial_trace(raw, dropped),
        truncated,
    )
}

/// The facts a lint report's clean line and notes are rendered from.
struct Facts {
    n: u32,
    latency: Latency,
    completion: Time,
    messages: u64,
    dropped: u64,
    truncated: bool,
}

/// The incompleteness note under a lint report, naming every cause.
fn note(path: &str, dropped: u64, truncated: bool) -> Option<String> {
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

/// Downgrades a partial or truncated trace's findings, renders the report — shared by the batch and streaming paths
/// so their output is byte-identical — and applies the `--deny` gate.
fn outcome(req: &Request, raw: Vec<Diagnostic>, facts: Facts) -> Result<String, CliError> {
    let path = req.path;
    let diags = downgrade(raw, facts.dropped, facts.truncated);
    let note = note(path, facts.dropped, facts.truncated);
    let report = if req.as_json {
        json::diagnostics_to_json(&diags)
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
            render::render_report(&diags, path),
            note.as_deref().unwrap_or("")
        )
    };
    if diags.iter().any(|d| d.severity >= req.deny) {
        Err(CliError::LintFailed(report))
    } else {
        Ok(report)
    }
}
