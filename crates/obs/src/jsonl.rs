//! Streaming JSONL event-log codec.
//!
//! One JSON object per line; the first line is a `"run"` header with the
//! metadata, every following line one [`ObsEvent`]. Times serialize as
//! exact-rational strings (`"15/2"`), so a log round-trips with zero
//! timing loss and `postal-verify` can lint the re-ingested schedule by
//! the same rules as the original run:
//!
//! ```text
//! {"type":"run","engine":"event","n":3,"lambda":"5/2","messages":1}
//! {"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1"}
//! {"type":"recv","seq":0,"src":0,"dst":1,"arrival":"3/2","start":"3/2","finish":"5/2","queued":false}
//! ```
//!
//! The parser accepts exactly the flat objects the writer emits (string,
//! integer and boolean values — no nesting), keeping the hermetic
//! workspace free of a JSON dependency.

use crate::event::ObsEvent;
use crate::log::{ObsError, ObsLog, RunMeta};
use crate::row::{int, time};
use postal_model::{Latency, Ratio, Time};
use std::io::BufRead;

/// Bytes reserved per event row: a little above what a receive row,
/// the longest common one, takes.
const ROW_BYTES: usize = 128;

/// Serializes a log as JSONL (header line + one line per event),
/// appending every field straight into one output string.
pub fn to_jsonl(log: &ObsLog) -> String {
    let meta = log.meta();
    let header = 160 + meta.engine.len() + meta.sample.as_ref().map_or(0, String::len);
    let mut out = String::with_capacity(header + ROW_BYTES * log.len());
    out.push_str("{\"type\":\"run\",\"engine\":\"");
    out.push_str(&meta.engine);
    int(&mut out, "\",\"n\":", meta.n);
    if let Some(lam) = meta.lambda {
        time(&mut out, ",\"lambda\":\"", lam.as_time());
    }
    if let Some(m) = meta.messages {
        int(&mut out, ",\"messages\":", m);
    }
    if let Some(d) = meta.dropped_events {
        int(&mut out, ",\"dropped\":", d);
    }
    if let Some(s) = &meta.sample {
        out.push_str(",\"sample\":\"");
        out.push_str(s);
        out.push('"');
    }
    if let Some(c) = meta.ring_capacity {
        int(&mut out, ",\"ring_capacity\":", c);
    }
    out.push_str("}\n");
    for e in log.events() {
        match *e {
            ObsEvent::Send {
                seq,
                src,
                dst,
                start,
                finish,
            } => {
                int(&mut out, "{\"type\":\"send\",\"seq\":", seq);
                int(&mut out, ",\"src\":", src);
                int(&mut out, ",\"dst\":", dst);
                time(&mut out, ",\"start\":\"", start);
                time(&mut out, ",\"finish\":\"", finish);
            }
            ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival,
                start,
                finish,
                queued,
            } => {
                int(&mut out, "{\"type\":\"recv\",\"seq\":", seq);
                int(&mut out, ",\"src\":", src);
                int(&mut out, ",\"dst\":", dst);
                time(&mut out, ",\"arrival\":\"", arrival);
                time(&mut out, ",\"start\":\"", start);
                time(&mut out, ",\"finish\":\"", finish);
                out.push_str(if queued {
                    ",\"queued\":true"
                } else {
                    ",\"queued\":false"
                });
            }
            ObsEvent::Wake { proc, at } => {
                int(&mut out, "{\"type\":\"wake\",\"proc\":", proc);
                time(&mut out, ",\"at\":\"", at);
            }
            ObsEvent::Violation {
                seq,
                dst,
                arrival,
                busy_until,
            } => {
                int(&mut out, "{\"type\":\"violation\",\"seq\":", seq);
                int(&mut out, ",\"dst\":", dst);
                time(&mut out, ",\"arrival\":\"", arrival);
                time(&mut out, ",\"busy_until\":\"", busy_until);
            }
            ObsEvent::Drop { seq, src, dst, at } => {
                int(&mut out, "{\"type\":\"drop\",\"seq\":", seq);
                int(&mut out, ",\"src\":", src);
                int(&mut out, ",\"dst\":", dst);
                time(&mut out, ",\"at\":\"", at);
            }
            ObsEvent::Crash { proc, at } => {
                int(&mut out, "{\"type\":\"crash\",\"proc\":", proc);
                time(&mut out, ",\"at\":\"", at);
            }
            ObsEvent::Truncated {
                processed,
                limit,
                at,
            } => {
                int(
                    &mut out,
                    "{\"type\":\"truncated\",\"processed\":",
                    processed,
                );
                int(&mut out, ",\"limit\":", limit);
                time(&mut out, ",\"at\":\"", at);
            }
        }
        out.push_str("}\n");
    }
    out
}

/// One parsed flat-object field value, borrowed from its line.
#[derive(Clone, Copy)]
enum Tok<'a> {
    Str(&'a str),
    Num(&'a str),
    Bool(bool),
}

/// Parses one flat JSON object (`{"key": value, ...}`; values are
/// strings, numbers or booleans) into `fields`, borrowing every value
/// from `line`.
fn parse_flat<'a>(line: &'a str, fields: &mut Fields<'a>) -> Result<(), ObsError> {
    let lineno = fields.lineno;
    let err = |what: &str| ObsError(format!("line {lineno}: {what}"));
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    };
    let parse_string = |pos: &mut usize| -> Result<&'a str, ObsError> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err("expected '\"'"));
        }
        let start = *pos + 1;
        match bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') {
            Some(len) if bytes[start + len] == b'"' => {
                *pos = start + len + 1;
                // Both ends border a '"' byte, so they are char boundaries.
                Ok(&line[start..start + len])
            }
            Some(_) => Err(err("escapes are not used in obs logs")),
            None => Err(err("unterminated string")),
        }
    };

    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(err("expected '{'"));
    }
    pos += 1;
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let key = parse_string(&mut pos)?;
            skip_ws(&mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(err("expected ':'"));
            }
            pos += 1;
            skip_ws(&mut pos);
            let val = match bytes.get(pos) {
                Some(b'"') => Tok::Str(parse_string(&mut pos)?),
                Some(b't') if line[pos..].starts_with("true") => {
                    pos += 4;
                    Tok::Bool(true)
                }
                Some(b'f') if line[pos..].starts_with("false") => {
                    pos += 5;
                    Tok::Bool(false)
                }
                Some(&b) if b == b'-' || b.is_ascii_digit() => {
                    let start = pos;
                    while pos < bytes.len()
                        && (bytes[pos].is_ascii_digit()
                            || matches!(bytes[pos], b'-' | b'+' | b'.' | b'e' | b'E'))
                    {
                        pos += 1;
                    }
                    Tok::Num(&line[start..pos])
                }
                _ => return Err(err("expected a string, number or boolean value")),
            };
            fields.set(key, val);
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err("expected ',' or '}'")),
            }
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(err("trailing characters after object"));
    }
    Ok(())
}

/// The keys the reader knows: every field of the `"run"` header and of
/// each event kind. Each has one slot in [`Fields`].
#[derive(Clone, Copy)]
enum Key {
    Type,
    Seq,
    Src,
    Dst,
    Start,
    Finish,
    Arrival,
    Queued,
    Proc,
    At,
    BusyUntil,
    Processed,
    Limit,
    Engine,
    N,
    Lambda,
    Messages,
    Dropped,
    Sample,
    RingCapacity,
}

/// Number of [`Key`]s.
const KEYS: usize = 20;

impl Key {
    /// The key named `name`, if the reader knows it.
    #[inline]
    fn of(name: &str) -> Option<Key> {
        Some(match name {
            "type" => Key::Type,
            "seq" => Key::Seq,
            "src" => Key::Src,
            "dst" => Key::Dst,
            "start" => Key::Start,
            "finish" => Key::Finish,
            "arrival" => Key::Arrival,
            "queued" => Key::Queued,
            "proc" => Key::Proc,
            "at" => Key::At,
            "busy_until" => Key::BusyUntil,
            "processed" => Key::Processed,
            "limit" => Key::Limit,
            "engine" => Key::Engine,
            "n" => Key::N,
            "lambda" => Key::Lambda,
            "messages" => Key::Messages,
            "dropped" => Key::Dropped,
            "sample" => Key::Sample,
            "ring_capacity" => Key::RingCapacity,
            _ => return None,
        })
    }

    /// The key's name, as a line spells it.
    fn name(self) -> &'static str {
        match self {
            Key::Type => "type",
            Key::Seq => "seq",
            Key::Src => "src",
            Key::Dst => "dst",
            Key::Start => "start",
            Key::Finish => "finish",
            Key::Arrival => "arrival",
            Key::Queued => "queued",
            Key::Proc => "proc",
            Key::At => "at",
            Key::BusyUntil => "busy_until",
            Key::Processed => "processed",
            Key::Limit => "limit",
            Key::Engine => "engine",
            Key::N => "n",
            Key::Lambda => "lambda",
            Key::Messages => "messages",
            Key::Dropped => "dropped",
            Key::Sample => "sample",
            Key::RingCapacity => "ring_capacity",
        }
    }
}

/// The fields of one line, borrowed from it: one slot per [`Key`],
/// holding the value of the key's first occurrence. Values under keys
/// the reader does not know are dropped once tokenized.
struct Fields<'a> {
    slots: [Option<Tok<'a>>; KEYS],
    lineno: usize,
}

impl<'a> Fields<'a> {
    /// An empty table for line `lineno`.
    fn new(lineno: usize) -> Fields<'a> {
        Fields {
            slots: [None; KEYS],
            lineno,
        }
    }

    /// Records `val` under `name`, unless the line named that key
    /// before or the reader does not know it.
    #[inline]
    fn set(&mut self, name: &str, val: Tok<'a>) {
        if let Some(key) = Key::of(name) {
            self.slots[key as usize].get_or_insert(val);
        }
    }

    fn err(&self, what: String) -> ObsError {
        ObsError(format!("line {}: {}", self.lineno, what))
    }

    /// Whether the line holds `key`.
    fn has(&self, key: Key) -> bool {
        self.slots[key as usize].is_some()
    }

    /// The value of the first field named `key`.
    fn get(&self, key: Key) -> Result<Tok<'a>, ObsError> {
        self.slots[key as usize].ok_or_else(|| self.err(format!("missing field {:?}", key.name())))
    }

    fn u64(&self, key: Key) -> Result<u64, ObsError> {
        match self.get(key)? {
            Tok::Num(t) => t
                .parse()
                .map_err(|_| self.err(format!("{:?} is not a nonnegative integer", key.name()))),
            _ => Err(self.err(format!("{:?} must be a number", key.name()))),
        }
    }

    fn u32(&self, key: Key) -> Result<u32, ObsError> {
        u32::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{:?} out of range", key.name())))
    }

    fn ratio(&self, key: Key) -> Result<Ratio, ObsError> {
        let text = match self.get(key)? {
            Tok::Str(s) | Tok::Num(s) => s,
            Tok::Bool(_) => return Err(self.err(format!("{:?} must be a time", key.name()))),
        };
        text.parse::<Ratio>().map_err(|_| {
            self.err(format!(
                "{:?}: cannot parse {text:?} as a rational",
                key.name()
            ))
        })
    }

    /// A time within the input bounds ([`Time::check_input`]).
    fn time(&self, key: Key) -> Result<Time, ObsError> {
        Time(self.ratio(key)?)
            .check_input()
            .map_err(|e| self.err(format!("{:?}: {e}", key.name())))
    }

    fn bool(&self, key: Key) -> Result<bool, ObsError> {
        match self.get(key)? {
            Tok::Bool(b) => Ok(b),
            _ => Err(self.err(format!("{:?} must be a boolean", key.name()))),
        }
    }

    fn str(&self, key: Key) -> Result<&'a str, ObsError> {
        match self.get(key)? {
            Tok::Str(s) => Ok(s),
            _ => Err(self.err(format!("{:?} must be a string", key.name()))),
        }
    }
}

/// Incremental line-at-a-time parser for the JSONL log format — the
/// streaming core behind [`from_jsonl`].
///
/// Feed every line of the file (blank lines included, so error line
/// numbers stay correct) to [`JsonlParser::line`] in order; each call
/// returns the event that line carried, if any. Call
/// [`JsonlParser::finish`] at end of input to obtain the run header.
/// Because no event is retained internally, a consumer that folds
/// events as they arrive (e.g. `postal-verify`'s JSONL-to-schedule
/// reduction) processes a log in O(1) parser memory regardless of its
/// length. A line's fields are borrowed from it, not copied, so an
/// event line costs no heap allocation; [`LineReader`] supplies lines
/// from any reader the same way.
#[derive(Debug, Default)]
pub struct JsonlParser {
    meta: Option<RunMeta>,
    lineno: usize,
}

impl JsonlParser {
    /// A parser expecting the `"run"` header on the first non-blank line.
    pub fn new() -> JsonlParser {
        JsonlParser::default()
    }

    /// The run header, once seen.
    pub fn meta(&self) -> Option<&RunMeta> {
        self.meta.as_ref()
    }

    /// Consumes the next line of the log. Returns `Ok(None)` for blank
    /// lines and the `"run"` header, `Ok(Some(event))` for event lines.
    ///
    /// # Errors
    /// [`ObsError`] on syntax errors, a missing, duplicate or misplaced
    /// `"run"` header, or unknown event types.
    pub fn line(&mut self, line: &str) -> Result<Option<ObsEvent>, ObsError> {
        self.lineno += 1;
        let lineno = self.lineno;
        if line.trim().is_empty() {
            return Ok(None);
        }
        let mut f = Fields::new(lineno);
        parse_flat(line, &mut f)?;
        let kind = f.str(Key::Type)?;
        if kind == "run" {
            if self.meta.is_some() {
                return Err(f.err("duplicate \"run\" header".into()));
            }
            let mut m = RunMeta::new(f.str(Key::Engine)?, f.u32(Key::N)?);
            if f.has(Key::Lambda) {
                let lam = Latency::new(f.ratio(Key::Lambda)?)
                    .map_err(|e| e.to_string())
                    .and_then(Latency::check_input)
                    .map_err(|e| f.err(format!("invalid lambda: {e}")))?;
                m.lambda = Some(lam);
            }
            if f.has(Key::Messages) {
                m.messages = Some(f.u64(Key::Messages)?);
            }
            if f.has(Key::Dropped) {
                m.dropped_events = Some(f.u64(Key::Dropped)?);
            }
            if f.has(Key::Sample) {
                m.sample = Some(f.str(Key::Sample)?.to_string());
            }
            if f.has(Key::RingCapacity) {
                m.ring_capacity = Some(f.u64(Key::RingCapacity)?);
            }
            self.meta = Some(m);
            return Ok(None);
        }
        if self.meta.is_none() {
            return Err(f.err("first line must be the \"run\" header".into()));
        }
        let event = match kind {
            "send" => ObsEvent::Send {
                seq: f.u64(Key::Seq)?,
                src: f.u32(Key::Src)?,
                dst: f.u32(Key::Dst)?,
                start: f.time(Key::Start)?,
                finish: f.time(Key::Finish)?,
            },
            "recv" => ObsEvent::Recv {
                seq: f.u64(Key::Seq)?,
                src: f.u32(Key::Src)?,
                dst: f.u32(Key::Dst)?,
                arrival: f.time(Key::Arrival)?,
                start: f.time(Key::Start)?,
                finish: f.time(Key::Finish)?,
                queued: f.bool(Key::Queued)?,
            },
            "wake" => ObsEvent::Wake {
                proc: f.u32(Key::Proc)?,
                at: f.time(Key::At)?,
            },
            "violation" => ObsEvent::Violation {
                seq: f.u64(Key::Seq)?,
                dst: f.u32(Key::Dst)?,
                arrival: f.time(Key::Arrival)?,
                busy_until: f.time(Key::BusyUntil)?,
            },
            "drop" => ObsEvent::Drop {
                seq: f.u64(Key::Seq)?,
                src: f.u32(Key::Src)?,
                dst: f.u32(Key::Dst)?,
                at: f.time(Key::At)?,
            },
            "crash" => ObsEvent::Crash {
                proc: f.u32(Key::Proc)?,
                at: f.time(Key::At)?,
            },
            "truncated" => ObsEvent::Truncated {
                processed: f.u64(Key::Processed)?,
                limit: f.u64(Key::Limit)?,
                at: f.time(Key::At)?,
            },
            other => return Err(f.err(format!("unknown event type {other:?}"))),
        };
        Ok(Some(event))
    }

    /// Finishes the stream, yielding the run metadata.
    ///
    /// # Errors
    /// [`ObsError`] when no `"run"` header was ever seen.
    pub fn finish(self) -> Result<RunMeta, ObsError> {
        self.meta
            .ok_or_else(|| ObsError("empty log: no \"run\" header".into()))
    }
}

/// Splits a reader into lines as [`BufRead::lines`] does — each line
/// without its `\n`, and without a `\r` just before that `\n` — but
/// reads every line into one reused buffer instead of a fresh `String`.
/// This is the line loop of every streaming JSONL reader: together with
/// [`JsonlParser`], which borrows its fields from the line, a log is
/// ingested without a heap allocation per line, and memory holds one
/// line at a time, never the whole input.
#[derive(Debug)]
pub struct LineReader<R> {
    reader: R,
    buf: String,
}

impl<R: BufRead> LineReader<R> {
    /// A line reader over `reader`.
    pub fn new(reader: R) -> LineReader<R> {
        LineReader {
            reader,
            buf: String::new(),
        }
    }

    /// The next line, or `Ok(None)` at end of input.
    ///
    /// # Errors
    /// [`ObsError`] reading `read error: …` when the reader fails or the
    /// line is not valid UTF-8.
    pub fn next_line(&mut self) -> Result<Option<&str>, ObsError> {
        self.buf.clear();
        let read = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| ObsError(format!("read error: {e}")))?;
        if read == 0 {
            return Ok(None);
        }
        let line = match self.buf.strip_suffix('\n') {
            Some(line) => line.strip_suffix('\r').unwrap_or(line),
            None => &self.buf,
        };
        Ok(Some(line))
    }
}

/// Parses a JSONL log produced by [`to_jsonl`].
///
/// # Errors
/// [`ObsError`] on syntax errors, a missing or misplaced `"run"` header,
/// or unknown event types.
pub fn from_jsonl(text: &str) -> Result<ObsLog, ObsError> {
    let mut parser = JsonlParser::new();
    let mut events = Vec::new();
    for line in text.lines() {
        if let Some(event) = parser.line(line)? {
            events.push(event);
        }
    }
    Ok(ObsLog::new(parser.finish()?, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> ObsLog {
        ObsLog::new(
            RunMeta::new("event", 3)
                .latency(Latency::from_ratio(5, 2))
                .messages(1),
            vec![
                ObsEvent::Send {
                    seq: 0,
                    src: 0,
                    dst: 1,
                    start: Time::ZERO,
                    finish: Time::ONE,
                },
                ObsEvent::Recv {
                    seq: 0,
                    src: 0,
                    dst: 1,
                    arrival: Time::new(3, 2),
                    start: Time::new(3, 2),
                    finish: Time::new(5, 2),
                    queued: false,
                },
                ObsEvent::Wake {
                    proc: 1,
                    at: Time::new(5, 2),
                },
                ObsEvent::Violation {
                    seq: 1,
                    dst: 2,
                    arrival: Time::from_int(3),
                    busy_until: Time::from_int(4),
                },
                ObsEvent::Drop {
                    seq: 2,
                    src: 1,
                    dst: 2,
                    at: Time::from_int(4),
                },
                ObsEvent::Crash {
                    proc: 2,
                    at: Time::from_int(5),
                },
                ObsEvent::Truncated {
                    processed: 6,
                    limit: 6,
                    at: Time::from_int(5),
                },
            ],
        )
    }

    #[test]
    fn round_trips_every_event_kind() {
        let log = sample_log();
        let text = to_jsonl(&log);
        let again = from_jsonl(&text).unwrap();
        assert_eq!(again, log);
    }

    #[test]
    fn header_carries_metadata() {
        let text = to_jsonl(&sample_log());
        let header = text.lines().next().unwrap();
        assert_eq!(
            header,
            "{\"type\":\"run\",\"engine\":\"event\",\"n\":3,\"lambda\":\"5/2\",\"messages\":1}"
        );
    }

    #[test]
    fn drop_accounting_round_trips_in_the_header() {
        let mut meta = RunMeta::new("event", 4)
            .latency(Latency::from_int(2))
            .dropped(17)
            .sampled("tail,rate:8");
        meta.ring_capacity = Some(1024);
        let log = ObsLog::new(meta, vec![]);
        let text = to_jsonl(&log);
        let header = text.lines().next().unwrap();
        assert_eq!(
            header,
            "{\"type\":\"run\",\"engine\":\"event\",\"n\":4,\"lambda\":\"2\",\
             \"dropped\":17,\"sample\":\"tail,rate:8\",\"ring_capacity\":1024}"
        );
        let again = from_jsonl(&text).unwrap();
        assert_eq!(again.meta().dropped_events, Some(17));
        assert_eq!(again.meta().sample.as_deref(), Some("tail,rate:8"));
        assert_eq!(again.meta().ring_capacity, Some(1024));
        assert!(again.meta().is_partial());
        assert_eq!(&again, &log);
    }

    #[test]
    fn rejects_malformed_logs() {
        assert!(from_jsonl("").is_err());
        assert!(from_jsonl("{\"type\":\"send\"}").is_err(), "missing header");
        assert!(from_jsonl("{\"type\":\"run\",\"engine\":\"e\",\"n\":2}\nnot json").is_err());
        assert!(
            from_jsonl("{\"type\":\"run\",\"engine\":\"e\",\"n\":2}\n{\"type\":\"warp\"}").is_err()
        );
        assert!(
            from_jsonl("{\"type\":\"run\",\"engine\":\"e\",\"n\":2,\"lambda\":\"1/2\"}").is_err(),
            "lambda < 1 must be rejected"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut text = to_jsonl(&sample_log());
        text.push('\n');
        assert!(from_jsonl(&text).is_ok());
    }

    #[test]
    fn line_reader_splits_like_bufread_lines() {
        let texts = [
            "",
            "a",
            "a\n",
            "a\r\n",
            "a\r",
            "\r",
            "\n\r",
            "\r\n\r\n",
            "a\rb\n",
            "a\n\nb\r\r\n",
            "x\r\r",
            "é\r\n→",
        ];
        for text in texts {
            let want: Vec<String> = text.as_bytes().lines().map(Result::unwrap).collect();
            let mut lines = LineReader::new(text.as_bytes());
            let mut got = Vec::new();
            while let Some(line) = lines.next_line().unwrap() {
                got.push(line.to_string());
            }
            assert_eq!(got, want, "{text:?}");
        }
        let mut lines = LineReader::new(&b"ok\r\n\xe2\x86\nnext\n"[..]);
        assert_eq!(lines.next_line().unwrap(), Some("ok"));
        assert_eq!(
            lines.next_line().unwrap_err().to_string(),
            "read error: stream did not contain valid UTF-8"
        );
    }

    #[test]
    fn header_without_lambda_parses_but_cannot_schedule() {
        let log = from_jsonl("{\"type\":\"run\",\"engine\":\"e\",\"n\":2}\n").unwrap();
        assert_eq!(log.meta().lambda, None);
        assert!(log.to_schedule().is_err());
    }
}
