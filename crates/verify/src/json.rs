//! Minimal JSON codec for schedules and diagnostics.
//!
//! The workspace builds hermetically (no external crates), so this is a
//! small hand-rolled parser/emitter for the one format the tools need:
//!
//! ```json
//! {
//!   "n": 3,
//!   "lambda": "5/2",
//!   "messages": 1,
//!   "sends": [
//!     { "src": 0, "dst": 1, "at": "0" },
//!     { "src": 1, "dst": 2, "at": "5/2" }
//!   ]
//! }
//! ```
//!
//! Times and λ accept the same forms the CLI does: `"5/2"`, `"2.5"`, or
//! a bare JSON number. `"messages"` is optional (default 1). Unknown
//! keys are skipped, but no value may nest deeper than 128 arrays and
//! objects (the format itself needs 3).

use postal_model::latency::Latency;
use postal_model::lint::Diagnostic;
use postal_model::ratio::Ratio;
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::time::Time;
use std::fmt;

/// A schedule as read from a file, with its optional message count.
#[derive(Debug, Clone)]
pub struct ScheduleFile {
    /// The schedule.
    pub schedule: Schedule,
    /// `"messages"` field, when present.
    pub messages: Option<u64>,
    /// Events the recorder dropped before this schedule was derived
    /// (JSONL logs only; schedule files are always complete). A nonzero
    /// value marks the schedule as a *partial* reconstruction.
    pub dropped_events: Option<u64>,
    /// The sampling spec that produced the source log, when sampled.
    pub sample: Option<String>,
    /// Whether the source log carries a `truncated` event — the engine
    /// hit its event budget and aborted, so the trace stops mid-run
    /// (JSONL logs only; schedule files are always complete).
    pub truncated: bool,
    /// `"topology"` field, when present: a `TopologySpec` string
    /// (`complete`, `ring`, `torus:RxC`, `hypercube:D`, `mbg:N`) naming
    /// the communication graph the schedule targets. `postal-cli lint`
    /// uses it as the default when `--topology` is not given.
    pub topology: Option<String>,
}

impl ScheduleFile {
    /// True when the source trace is known to be incomplete — findings
    /// about absences (causality, coverage) are unreliable then. Both
    /// recorder sampling (`dropped_events > 0`) and an engine event-
    /// budget abort (`truncated`) make a trace partial.
    pub fn is_partial(&self) -> bool {
        self.dropped_events.is_some_and(|d| d > 0) || self.truncated
    }
}

/// A JSON syntax or shape error, with a byte offset when syntactic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// A scalar field value captured during a streaming parse. Numbers and
/// strings keep their literal text (exact-rational re-parse); anything
/// else is recorded only by shape, for the deferred validation's
/// "must be a …" message.
enum Scalar {
    Num(String),
    Str(String),
    Other,
}

impl Scalar {
    fn as_u64(&self, field: &str) -> Result<u64, JsonError> {
        if let Scalar::Num(t) = self {
            if let Ok(x) = t.parse::<u64>() {
                return Ok(x);
            }
        }
        Err(JsonError(format!(
            "\"{field}\" must be a nonnegative integer"
        )))
    }

    fn as_ratio(&self, field: &str) -> Result<Ratio, JsonError> {
        let text = match self {
            Scalar::Num(t) => t.as_str(),
            Scalar::Str(s) => s.as_str(),
            Scalar::Other => {
                return Err(JsonError(format!("\"{field}\" must be a number or string")))
            }
        };
        text.parse::<Ratio>()
            .map_err(|_| JsonError(format!("\"{field}\": cannot parse {text:?} as a rational")))
    }
}

/// The deepest nesting of arrays and objects a schedule file may hold:
/// serde_json's default recursion limit. The format itself needs 3
/// (top-level object, `"sends"` array, send object); the limit keeps a
/// deeply nested unknown value from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Incremental JSON lexer over a [`BufRead`](std::io::BufRead), reading
/// one buffered byte at a time and tracking the absolute offset for
/// `at byte N` errors and the nesting depth for [`MAX_DEPTH`].
struct StreamParser<R: std::io::BufRead> {
    inner: R,
    pos: usize,
    depth: usize,
}

impl<R: std::io::BufRead> StreamParser<R> {
    fn new(inner: R) -> StreamParser<R> {
        StreamParser {
            inner,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&mut self) -> Result<Option<u8>, JsonError> {
        let buf = self
            .inner
            .fill_buf()
            .map_err(|e| JsonError(format!("read error at byte {}: {e}", self.pos)))?;
        Ok(buf.first().copied())
    }

    fn bump(&mut self) {
        self.inner.consume(1);
        self.pos += 1;
    }

    /// Consumes the `[` or `{` under the cursor, one level deeper.
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        self.bump();
        Ok(())
    }

    /// Consumes the `]` or `}` under the cursor, one level up.
    fn close(&mut self) {
        self.depth -= 1;
        self.bump();
    }

    fn skip_ws(&mut self) -> Result<(), JsonError> {
        while let Some(b) = self.peek()? {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.bump();
            } else {
                break;
            }
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek()? == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        for &w in word.as_bytes() {
            if self.peek()? != Some(w) {
                return Err(self.err(&format!("expected '{word}'")));
            }
            self.bump();
        }
        Ok(())
    }

    fn number(&mut self) -> Result<String, JsonError> {
        let mut text = String::new();
        while let Some(b) = self.peek()? {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                text.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        Ok(text)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        let mut utf8: Vec<u8> = Vec::new();
        loop {
            let Some(b) = self.peek()? else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' if utf8.is_empty() => {
                    self.bump();
                    return Ok(out);
                }
                b'\\' if utf8.is_empty() => {
                    self.bump();
                    let esc = self.peek()?.ok_or_else(|| self.err("bad escape"))?;
                    self.bump();
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let mut hex = String::new();
                            for _ in 0..4 {
                                let h = self.peek()?.ok_or_else(|| self.err("bad \\u escape"))?;
                                hex.push(h as char);
                                self.bump();
                            }
                            let cp = u32::from_str_radix(&hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Accumulate multi-byte UTF-8 sequences byte-wise.
                    utf8.push(b);
                    self.bump();
                    match std::str::from_utf8(&utf8) {
                        Ok(s) => {
                            out.push_str(s);
                            utf8.clear();
                        }
                        Err(_) if utf8.len() < 4 => {}
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                }
            }
        }
    }

    /// Consumes one scalar JSON value; nested arrays/objects are
    /// swallowed recursively and reported as [`Scalar::Other`].
    fn scalar(&mut self) -> Result<Scalar, JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Scalar::Other),
            Some(b'f') => self.literal("false").map(|()| Scalar::Other),
            Some(b'n') => self.literal("null").map(|()| Scalar::Other),
            Some(b) if b == b'-' || b.is_ascii_digit() => Ok(Scalar::Num(self.number()?)),
            Some(b'{') | Some(b'[') => {
                self.skip_value()?;
                Ok(Scalar::Other)
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Validates and discards one JSON value of any shape — how unknown
    /// keys are tolerated without materializing their contents.
    fn skip_value(&mut self) -> Result<(), JsonError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'{') => {
                self.open()?;
                self.skip_ws()?;
                if self.peek()? == Some(b'}') {
                    self.close();
                    return Ok(());
                }
                loop {
                    self.skip_ws()?;
                    self.string()?;
                    self.skip_ws()?;
                    self.expect(b':')?;
                    self.skip_value()?;
                    self.skip_ws()?;
                    match self.peek()? {
                        Some(b',') => self.bump(),
                        Some(b'}') => {
                            self.close();
                            return Ok(());
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b'[') => {
                self.open()?;
                self.skip_ws()?;
                if self.peek()? == Some(b']') {
                    self.close();
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    self.skip_ws()?;
                    match self.peek()? {
                        Some(b',') => self.bump(),
                        Some(b']') => {
                            self.close();
                            return Ok(());
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            _ => self.scalar().map(|_| ()),
        }
    }

    /// One element of the `"sends"` array: a flat object with `src`,
    /// `dst` and `at` (unknown keys skipped, duplicates last-wins).
    fn send_element(&mut self, i: usize) -> Result<TimedSend, JsonError> {
        self.skip_ws()?;
        if self.peek()? != Some(b'{') {
            self.skip_value()?;
            return Err(JsonError(format!("sends[{i}] must be an object")));
        }
        self.open()?;
        let (mut src, mut dst, mut at) = (None, None, None);
        self.skip_ws()?;
        if self.peek()? == Some(b'}') {
            self.close();
        } else {
            loop {
                self.skip_ws()?;
                let key = self.string()?;
                self.skip_ws()?;
                self.expect(b':')?;
                match key.as_str() {
                    "src" => src = Some(self.scalar()?),
                    "dst" => dst = Some(self.scalar()?),
                    "at" => at = Some(self.scalar()?),
                    _ => self.skip_value()?,
                }
                self.skip_ws()?;
                match self.peek()? {
                    Some(b',') => self.bump(),
                    Some(b'}') => {
                        self.close();
                        break;
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
        let src = src
            .ok_or_else(|| JsonError(format!("sends[{i}]: missing \"src\"")))
            .and_then(|v| v.as_u64("src"))?;
        let dst = dst
            .ok_or_else(|| JsonError(format!("sends[{i}]: missing \"dst\"")))
            .and_then(|v| v.as_u64("dst"))?;
        let at = at
            .ok_or_else(|| JsonError(format!("sends[{i}]: missing \"at\"")))
            .and_then(|v| v.as_ratio("at"))?;
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return Err(JsonError(format!("sends[{i}]: endpoint out of range")));
        }
        let send_start = Time(at)
            .check_input()
            .map_err(|e| JsonError(format!("sends[{i}]: \"at\": {e}")))?;
        Ok(TimedSend {
            src: src as u32,
            dst: dst as u32,
            send_start,
        })
    }
}

/// Parses a schedule file (see module docs for the format) held in
/// memory; [`parse_schedule_reader`] over the text's bytes.
///
/// # Errors
/// As [`parse_schedule_reader`].
pub fn parse_schedule(text: &str) -> Result<ScheduleFile, JsonError> {
    parse_schedule_reader(text.as_bytes())
}

/// Reads a schedule file (see module docs for the format)
/// incrementally from `reader`, so a million-send schedule file is
/// linted without ever materializing its text in memory. Only the
/// `TimedSend` list itself is retained. Top-level and per-send unknown
/// keys are skipped; duplicate keys are last-wins; fields may appear in
/// any order.
///
/// # Errors
/// [`JsonError`] on I/O failures, on syntax errors and on nesting
/// deeper than 128 (both located `at byte N`), and on shape violations
/// (which name the field, such as `sends[3]: missing "src"`).
pub fn parse_schedule_reader<R: std::io::BufRead>(reader: R) -> Result<ScheduleFile, JsonError> {
    let mut p = StreamParser::new(reader);
    p.skip_ws()?;
    if p.peek()? != Some(b'{') {
        // Validate the stray value for a precise syntax error, then
        // report the shape problem.
        p.skip_value()?;
        return Err(JsonError("top level must be an object".into()));
    }
    p.open()?;

    let (mut n, mut lambda, mut messages): (Option<Scalar>, Option<Scalar>, Option<Scalar>) =
        (None, None, None);
    let mut topology: Option<Scalar> = None;
    let mut sends: Option<Vec<TimedSend>> = None;
    p.skip_ws()?;
    if p.peek()? == Some(b'}') {
        p.close();
    } else {
        loop {
            p.skip_ws()?;
            let key = p.string()?;
            p.skip_ws()?;
            p.expect(b':')?;
            match key.as_str() {
                "n" => n = Some(p.scalar()?),
                "lambda" => lambda = Some(p.scalar()?),
                "messages" => messages = Some(p.scalar()?),
                "topology" => topology = Some(p.scalar()?),
                "sends" => {
                    p.skip_ws()?;
                    if p.peek()? == Some(b'[') {
                        p.open()?;
                        let mut list = Vec::new();
                        p.skip_ws()?;
                        if p.peek()? == Some(b']') {
                            p.close();
                        } else {
                            loop {
                                list.push(p.send_element(list.len())?);
                                p.skip_ws()?;
                                match p.peek()? {
                                    Some(b',') => p.bump(),
                                    Some(b']') => {
                                        p.close();
                                        break;
                                    }
                                    _ => return Err(p.err("expected ',' or ']'")),
                                }
                            }
                        }
                        sends = Some(list);
                    } else {
                        // A non-array "sends" reads as absent: the
                        // error below is `missing "sends" array`.
                        p.skip_value()?;
                        sends = None;
                    }
                }
                _ => p.skip_value()?,
            }
            p.skip_ws()?;
            match p.peek()? {
                Some(b',') => p.bump(),
                Some(b'}') => {
                    p.close();
                    break;
                }
                _ => return Err(p.err("expected ',' or '}'")),
            }
        }
    }
    p.skip_ws()?;
    if p.peek()?.is_some() {
        return Err(p.err("trailing characters after JSON value"));
    }

    let n = n
        .ok_or_else(|| JsonError("missing \"n\"".into()))
        .and_then(|v| v.as_u64("n"))?;
    if n == 0 || n > u32::MAX as u64 {
        return Err(JsonError(format!("\"n\" out of range: {n}")));
    }
    let lam_ratio = lambda
        .ok_or_else(|| JsonError("missing \"lambda\"".into()))
        .and_then(|v| v.as_ratio("lambda"))?;
    // λ ≥ 1 within the input bounds.
    let latency = Latency::new(lam_ratio)
        .map_err(|e| e.to_string())
        .and_then(Latency::check_input)
        .map_err(|e| JsonError(format!("invalid \"lambda\": {e}")))?;
    let messages = match messages {
        None => None,
        Some(v) => Some(v.as_u64("messages")?),
    };
    let topology = match topology {
        None => None,
        Some(Scalar::Str(s)) => Some(s),
        Some(_) => return Err(JsonError("\"topology\" must be a string".into())),
    };
    let Some(sends) = sends else {
        return Err(JsonError("missing \"sends\" array".into()));
    };
    Ok(ScheduleFile {
        schedule: Schedule::new(n as u32, latency, sends),
        messages,
        dropped_events: None,
        sample: None,
        truncated: false,
        topology,
    })
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a schedule in the format [`parse_schedule`] reads.
pub fn schedule_to_json(schedule: &Schedule, messages: Option<u64>) -> String {
    schedule_to_json_with_topology(schedule, messages, None)
}

/// Like [`schedule_to_json`], but also records an optional `"topology"`
/// field (a [`TopologySpec`](postal_model::TopologySpec) string such as
/// `"ring"` or `"torus:4x6"`) so that `postal-cli lint` can pick the
/// communication graph up from the file itself.
pub fn schedule_to_json_with_topology(
    schedule: &Schedule,
    messages: Option<u64>,
    topology: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"n\": {},\n  \"lambda\": \"{}\",\n",
        schedule.n(),
        schedule.latency()
    ));
    if let Some(m) = messages {
        out.push_str(&format!("  \"messages\": {m},\n"));
    }
    if let Some(t) = topology {
        out.push_str(&format!("  \"topology\": \"{}\",\n", esc(t)));
    }
    out.push_str("  \"sends\": [\n");
    let body: Vec<String> = schedule
        .sends()
        .iter()
        .map(|s| {
            format!(
                "    {{ \"src\": {}, \"dst\": {}, \"at\": \"{}\" }}",
                s.src, s.dst, s.send_start
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Serializes diagnostics as a JSON array (for `postal lint --format json`).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    let body: Vec<String> = diags
        .iter()
        .map(|d| {
            let sends: Vec<String> = d
                .sends
                .iter()
                .map(|s| {
                    format!(
                        "{{ \"src\": {}, \"dst\": {}, \"at\": \"{}\" }}",
                        s.src, s.dst, s.send_start
                    )
                })
                .collect();
            let proc = match d.proc {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let related = match d.related_time {
                Some(t) => format!("\"{t}\""),
                None => "null".to_string(),
            };
            let witness = match d.witness {
                Some(w) => format!("[\"{}\", \"{}\"]", w.lo(), w.hi()),
                None => "null".to_string(),
            };
            format!(
                "  {{ \"code\": \"{}\", \"severity\": \"{}\", \"proc\": {proc}, \
                 \"message\": \"{}\", \"related_time\": {related}, \
                 \"lambda_witness\": {witness}, \"sends\": [{}] }}",
                d.code,
                d.severity,
                esc(&d.message),
                sends.join(", ")
            )
        })
        .collect();
    out.push_str(&body.join(",\n"));
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::lint::{lint_schedule, LintOptions};

    const SAMPLE: &str = r#"{
      "n": 3,
      "lambda": "5/2",
      "sends": [
        { "src": 0, "dst": 1, "at": "0" },
        { "src": 1, "dst": 2, "at": "5/2" }
      ]
    }"#;

    #[test]
    fn parses_the_documented_format() {
        let file = parse_schedule(SAMPLE).unwrap();
        assert_eq!(file.schedule.n(), 3);
        assert_eq!(file.schedule.latency(), Latency::from_ratio(5, 2));
        assert_eq!(file.schedule.len(), 2);
        assert_eq!(file.messages, None);
        assert_eq!(file.schedule.sends()[1].send_start, Time::new(5, 2));
    }

    #[test]
    fn accepts_decimal_and_bare_number_times() {
        let file =
            parse_schedule(r#"{"n": 2, "lambda": 2.5, "sends": [{"src":0,"dst":1,"at":1.5}]}"#)
                .unwrap();
        assert_eq!(file.schedule.latency(), Latency::from_ratio(5, 2));
        assert_eq!(file.schedule.sends()[0].send_start, Time::new(3, 2));
    }

    #[test]
    fn round_trips_through_emitter() {
        let file = parse_schedule(SAMPLE).unwrap();
        let text = schedule_to_json(&file.schedule, Some(2));
        let again = parse_schedule(&text).unwrap();
        assert_eq!(again.schedule.sends(), file.schedule.sends());
        assert_eq!(again.messages, Some(2));
    }

    #[test]
    fn reads_out_of_order_unknown_and_duplicate_keys() {
        // Unknown keys (nested) are skipped and the last "n" wins.
        let file = parse_schedule(
            r#"{"comment": {"a": [1, {"b": null}]}, "sends": [
                 {"src": 0, "dst": 1, "at": "0", "note": "x"}],
               "lambda": "5/2", "n": 4, "n": 3}"#,
        )
        .unwrap();
        assert_eq!(file.schedule.n(), 3);
        assert_eq!(file.schedule.latency(), Latency::from_ratio(5, 2));
        let send = TimedSend {
            src: 0,
            dst: 1,
            send_start: Time::ZERO,
        };
        assert_eq!(file.schedule.sends(), [send]);
        assert_eq!(file.messages, None);
        let empty = parse_schedule(r#"{"n": 2, "lambda": 1, "sends": []}"#).unwrap();
        assert_eq!(empty.schedule.n(), 2);
        assert_eq!(empty.schedule.latency(), Latency::TELEPHONE);
        assert!(empty.schedule.sends().is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        let bad = [
            ("[1, 2]", "top level must be an object"),
            ("{\"n\": 2}", "missing \"lambda\""),
            (
                "{\"n\": 0, \"lambda\": 1, \"sends\": []}",
                "\"n\" out of range: 0",
            ),
            (
                r#"{"n": 2, "lambda": "1/2", "sends": []}"#,
                "invalid \"lambda\": latency must satisfy λ ≥ 1, got 1/2",
            ),
            (
                "{\"n\": 2, \"lambda\": 1, \"sends\": [{}]}",
                "sends[0]: missing \"src\"",
            ),
            (
                "{\"n\": 2, \"lambda\": 1, \"sends\": []} trailing",
                "trailing characters after JSON value at byte 35",
            ),
            (
                "{\"n\": 2, \"lambda\": 1, \"sends\": 3}",
                "missing \"sends\" array",
            ),
            ("not json", "expected 'null' at byte 1"),
            (
                "{\"n\": 2, \"lambda\": 1, \"sends\": [{\"dst\": 1, \"at\": 0}]}",
                "sends[0]: missing \"src\"",
            ),
        ];
        for (text, want) in bad {
            assert_eq!(parse_schedule(text).unwrap_err().0, want, "{text}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        // The top-level object is depth 1, so an unknown top-level value
        // may open MAX_DEPTH − 1 more levels.
        let nested = |k: usize| {
            format!(
                r#"{{"x":{}{},"n":2,"lambda":1,"sends":[]}}"#,
                "[".repeat(k),
                "]".repeat(k)
            )
        };
        assert!(parse_schedule(&nested(MAX_DEPTH - 1)).is_ok());
        let err = parse_schedule(&nested(MAX_DEPTH)).unwrap_err();
        // `{"x":` is 5 bytes; the failing `[` is the MAX_DEPTH-th.
        assert_eq!(
            err.0,
            format!("nesting deeper than 128 at byte {}", 5 + MAX_DEPTH - 1)
        );
    }

    #[test]
    fn diagnostics_serialize_with_code_and_sends() {
        let file = parse_schedule(
            r#"{"n": 3, "lambda": "5/2",
                "sends": [{"src":0,"dst":1,"at":"0"}, {"src":0,"dst":2,"at":"1/2"}]}"#,
        )
        .unwrap();
        let diags = lint_schedule(&file.schedule, &LintOptions::ports_only());
        let json = diagnostics_to_json(&diags);
        assert!(json.contains("\"code\": \"P0001\""), "{json}");
        assert!(json.contains("\"at\": \"1/2\""), "{json}");
    }
}
