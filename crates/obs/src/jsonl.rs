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
//! workspace free of a JSON dependency. It reads each line in one pass:
//! the first value of every key it knows is decoded by that key's type
//! (integer, time, text or boolean) as the scan reaches it, and a value
//! that does not decode is kept for the error its getter raises.

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

/// Whether `line`, the first line of a file that holds more than
/// whitespace, marks the file as a JSONL log: it holds `"type"`, `:`
/// and `"run"` with nothing between them but the whitespace the reader
/// skips around tokens. A search, not a parse, so a header with a
/// syntax error still marks its file as a log, and the reader reports
/// the error with its line.
pub fn looks_like_log(line: &str) -> bool {
    let bytes = line.as_bytes();
    line.match_indices("\"type\"").any(|(at, key)| {
        let colon = skip_ws(bytes, at + key.len());
        bytes.get(colon) == Some(&b':')
            && bytes[skip_ws(bytes, colon + 1)..].starts_with(b"\"run\"")
    })
}

/// The first position at or after `pos` that does not hold ASCII
/// whitespace (`u8::is_ascii_whitespace`, form feed included). Every
/// byte above `' '` stops it after one compare.
#[inline(always)]
fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(&b) = bytes.get(pos) {
        if b > b' ' || !b.is_ascii_whitespace() {
            break;
        }
        pos += 1;
    }
    pos
}

/// Whether `line` is blank as `str::trim` reads it (Unicode
/// whitespace). An ASCII byte after the leading ASCII whitespace
/// decides it without `trim`.
#[inline]
fn is_blank(line: &str) -> bool {
    let bytes = line.as_bytes();
    match bytes.get(skip_ws(bytes, 0)) {
        None => true,
        // Vertical tab is whitespace to `trim` but not to `skip_ws`.
        Some(&b) if b.is_ascii() && b != 0x0b => false,
        Some(_) => line.trim().is_empty(),
    }
}

/// A syntax error in one line, worded by [`Syntax::at`].
#[derive(Clone, Copy)]
enum Syntax {
    OpenBrace,
    Quote,
    Colon,
    Value,
    CommaOrBrace,
    Trailing,
    Unterminated,
    Escape,
}

impl Syntax {
    /// The error, located on line `lineno`.
    #[cold]
    fn at(self, lineno: usize) -> ObsError {
        let what = match self {
            Syntax::OpenBrace => "expected '{'",
            Syntax::Quote => "expected '\"'",
            Syntax::Colon => "expected ':'",
            Syntax::Value => "expected a string, number or boolean value",
            Syntax::CommaOrBrace => "expected ',' or '}'",
            Syntax::Trailing => "trailing characters after object",
            Syntax::Unterminated => "unterminated string",
            Syntax::Escape => "escapes are not used in obs logs",
        };
        ObsError(format!("line {lineno}: {what}"))
    }
}

/// The string whose opening `"` is at `pos`: the bounds of its text,
/// which has no escape.
#[inline(always)]
fn string(bytes: &[u8], pos: usize) -> Result<(usize, usize), Syntax> {
    let start = pos + 1;
    match bytes[start..].iter().position(|&b| b == b'"' || b == b'\\') {
        Some(len) if bytes[start + len] == b'"' => Ok((start, start + len)),
        Some(_) => Err(Syntax::Escape),
        None => Err(Syntax::Unterminated),
    }
}

/// How a value was written.
#[derive(Clone, Copy, Debug, Default)]
enum Tok {
    #[default]
    Str,
    Num,
    Bool,
}

/// The keys the reader knows: every field of the `"run"` header and of
/// each event kind. Each has one entry in [`Fields`].
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

/// What a key's value decodes to.
enum Ty {
    /// A `u64`, as `str::parse` reads a number token.
    Int,
    /// A [`Ratio`], from a string or a number token.
    Time,
    /// A string's text.
    Text,
    Bool,
}

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

    /// The type the key's value is read as; each key has one reader.
    fn ty(self) -> Ty {
        match self {
            Key::Seq
            | Key::Src
            | Key::Dst
            | Key::Proc
            | Key::Processed
            | Key::Limit
            | Key::N
            | Key::Messages
            | Key::Dropped
            | Key::RingCapacity => Ty::Int,
            Key::Start | Key::Finish | Key::Arrival | Key::At | Key::BusyUntil | Key::Lambda => {
                Ty::Time
            }
            Key::Type | Key::Engine | Key::Sample => Ty::Text,
            Key::Queued => Ty::Bool,
        }
    }

    fn bit(self) -> u32 {
        1 << self as u32
    }
}

/// The field table a line is read into, reused from line to line. For
/// each [`Key`], `seen` says whether the line named it and `bad`
/// whether its first value did not decode by the key's type; the value
/// is in `int` (integers and booleans), `time`, or `span` (a string's
/// bounds in the line). A value that did not decode keeps its `span`
/// and token `kind` for the getter's error. Later occurrences of a key,
/// and keys the reader does not know, are checked for syntax and
/// dropped. Entries outside `seen` hold an earlier line's values and
/// are never read.
#[derive(Debug, Default)]
struct Fields {
    seen: u32,
    bad: u32,
    int: [u64; KEYS],
    time: [Ratio; KEYS],
    span: [(usize, usize); KEYS],
    kind: [Tok; KEYS],
}

impl Fields {
    /// Reads one flat JSON object (`{"key": value, ...}`; values are
    /// strings, numbers or booleans) in one pass, decoding the first
    /// value of each known key as it goes.
    fn scan(&mut self, line: &str) -> Result<(), Syntax> {
        self.seen = 0;
        self.bad = 0;
        let bytes = line.as_bytes();
        let mut pos = skip_ws(bytes, 0);
        if bytes.get(pos) != Some(&b'{') {
            return Err(Syntax::OpenBrace);
        }
        pos = skip_ws(bytes, pos + 1);
        if bytes.get(pos) == Some(&b'}') {
            pos += 1;
        } else {
            loop {
                pos = skip_ws(bytes, pos);
                if bytes.get(pos) != Some(&b'"') {
                    return Err(Syntax::Quote);
                }
                let (start, end) = string(bytes, pos)?;
                // Both ends border a '"' byte, so they are char
                // boundaries.
                let key = Key::of(&line[start..end]).filter(|k| self.seen & k.bit() == 0);
                pos = skip_ws(bytes, end + 1);
                if bytes.get(pos) != Some(&b':') {
                    return Err(Syntax::Colon);
                }
                pos = skip_ws(bytes, pos + 1);
                let start = pos;
                // The token's kind, its text's bounds, and its value as
                // an integer or a boolean where it has one.
                let (kind, span, int) = match bytes.get(pos) {
                    Some(b'"') => {
                        let (start, end) = string(bytes, pos)?;
                        pos = end + 1;
                        (Tok::Str, (start, end), None)
                    }
                    Some(b't') if bytes[pos..].starts_with(b"true") => {
                        pos += 4;
                        (Tok::Bool, (start, pos), Some(1))
                    }
                    Some(b'f') if bytes[pos..].starts_with(b"false") => {
                        pos += 5;
                        (Tok::Bool, (start, pos), Some(0))
                    }
                    Some(&b) if b == b'-' || b.is_ascii_digit() => {
                        // A `u64` exactly when `str::parse` reads one:
                        // digits only, no overflow.
                        let mut int = Some(0u64);
                        while let Some(&b) = bytes.get(pos) {
                            if b.is_ascii_digit() {
                                int = int.and_then(|v| {
                                    v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
                                });
                            } else if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                                int = None;
                            } else {
                                break;
                            }
                            pos += 1;
                        }
                        (Tok::Num, (start, pos), int)
                    }
                    _ => return Err(Syntax::Value),
                };
                if let Some(key) = key {
                    self.put(key, kind, line, span, int);
                }
                pos = skip_ws(bytes, pos);
                match bytes.get(pos) {
                    Some(b',') => pos += 1,
                    Some(b'}') => {
                        pos += 1;
                        break;
                    }
                    _ => return Err(Syntax::CommaOrBrace),
                }
            }
        }
        if skip_ws(bytes, pos) != bytes.len() {
            return Err(Syntax::Trailing);
        }
        Ok(())
    }

    /// Records the first value of `key`, a `kind` token at `span` in
    /// `line`, decoded by the key's type; `int` is the token's value as
    /// an integer or a boolean, if it has one. A span's ends are char
    /// boundaries: a string's border a '"' byte, and a number or boolean
    /// token is ASCII throughout.
    #[inline(always)]
    fn put(&mut self, key: Key, kind: Tok, line: &str, span: (usize, usize), int: Option<u64>) {
        let k = key as usize;
        self.seen |= key.bit();
        self.kind[k] = kind;
        self.span[k] = span;
        let decoded = match (key.ty(), kind, int) {
            (Ty::Int, Tok::Num, Some(v)) | (Ty::Bool, Tok::Bool, Some(v)) => {
                self.int[k] = v;
                true
            }
            (Ty::Time, Tok::Str | Tok::Num, _) => match line[span.0..span.1].parse() {
                Ok(t) => {
                    self.time[k] = t;
                    true
                }
                Err(_) => false,
            },
            (Ty::Text, Tok::Str, _) => true,
            _ => false,
        };
        if !decoded {
            self.bad |= key.bit();
        }
    }
}

/// A scanned line: its [`Fields`], the line they point into, and its
/// number. The getters return a key's decoded value, or the error for
/// a key the line lacks or whose value did not decode.
struct Row<'f, 'a> {
    fields: &'f Fields,
    line: &'a str,
    lineno: usize,
}

impl<'a> Row<'_, 'a> {
    #[cold]
    fn err(&self, what: String) -> ObsError {
        ObsError(format!("line {}: {}", self.lineno, what))
    }

    /// Whether the line holds `key`.
    fn has(&self, key: Key) -> bool {
        self.fields.seen & key.bit() != 0
    }

    /// The text of `key`'s first value, which the line holds: a
    /// string's contents, or a number or boolean token.
    fn text(&self, key: Key) -> &'a str {
        let (start, end) = self.fields.span[key as usize];
        &self.line[start..end]
    }

    /// The error for a `key` the line lacks or whose first value did
    /// not decode by the key's type.
    #[cold]
    #[inline(never)]
    fn wrong(&self, key: Key) -> ObsError {
        let name = key.name();
        if !self.has(key) {
            return self.err(format!("missing field {name:?}"));
        }
        self.err(match (key.ty(), self.fields.kind[key as usize]) {
            (Ty::Int, Tok::Num) => format!("{name:?} is not a nonnegative integer"),
            (Ty::Int, _) => format!("{name:?} must be a number"),
            (Ty::Time, Tok::Bool) => format!("{name:?} must be a time"),
            (Ty::Time, _) => format!("{name:?}: cannot parse {:?} as a rational", self.text(key)),
            (Ty::Text, _) => format!("{name:?} must be a string"),
            (Ty::Bool, _) => format!("{name:?} must be a boolean"),
        })
    }

    /// `read()`, the value of `key`, if its first value decoded.
    #[inline(always)]
    fn value<T>(&self, key: Key, read: impl FnOnce() -> T) -> Result<T, ObsError> {
        if (self.fields.seen & !self.fields.bad) & key.bit() != 0 {
            Ok(read())
        } else {
            Err(self.wrong(key))
        }
    }

    #[inline]
    fn u64(&self, key: Key) -> Result<u64, ObsError> {
        self.value(key, || self.fields.int[key as usize])
    }

    #[inline]
    fn u32(&self, key: Key) -> Result<u32, ObsError> {
        u32::try_from(self.u64(key)?)
            .map_err(|_| self.err(format!("{:?} out of range", key.name())))
    }

    #[inline]
    fn ratio(&self, key: Key) -> Result<Ratio, ObsError> {
        self.value(key, || self.fields.time[key as usize])
    }

    /// A time within the input bounds ([`Time::check_input`]).
    #[inline]
    fn time(&self, key: Key) -> Result<Time, ObsError> {
        Time(self.ratio(key)?)
            .check_input()
            .map_err(|e| self.err(format!("{:?}: {e}", key.name())))
    }

    #[inline]
    fn bool(&self, key: Key) -> Result<bool, ObsError> {
        self.value(key, || self.fields.int[key as usize] != 0)
    }

    #[inline]
    fn str(&self, key: Key) -> Result<&'a str, ObsError> {
        self.value(key, || self.text(key))
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
/// length. A line is decoded into one field table the parser reuses,
/// with strings left in the line, so an event line costs no heap
/// allocation; [`LineReader`] supplies lines from any reader the same
/// way. A log can also be parsed in stretches, each by its own copy of
/// the parser ([`JsonlParser::ahead`]), on as many threads.
#[derive(Debug, Default)]
pub struct JsonlParser {
    meta: Option<RunMeta>,
    lineno: usize,
    fields: Fields,
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

    /// A copy of this parser, run header included, that numbers the
    /// lines it is fed as if `lines` more lines had been read first.
    /// Once the header has been read, the stretches of a log parsed by
    /// copies that start at their first lines give the events and errors
    /// that one parser fed every line gives.
    pub fn ahead(&self, lines: usize) -> JsonlParser {
        JsonlParser {
            meta: self.meta.clone(),
            lineno: self.lineno + lines,
            fields: Fields::default(),
        }
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
        if is_blank(line) {
            return Ok(None);
        }
        self.fields.scan(line).map_err(|e| e.at(lineno))?;
        let f = Row {
            fields: &self.fields,
            line,
            lineno,
        };
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
/// line at a time, never the whole input. It also hands out the
/// complete lines its reader holds buffered as one block
/// ([`LineReader::buffered_lines`]), whose lines [`block_lines`] reads
/// in place, as `next_line` would.
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
        let read = self.reader.read_line(&mut self.buf).map_err(read_error)?;
        if read == 0 {
            return Ok(None);
        }
        Ok(Some(line_text(&self.buf)))
    }

    /// The complete lines the reader holds buffered, borrowed as one
    /// block: its buffer, filled first if empty, up to and including
    /// the last `\n`. Empty when fewer than `min` bytes are buffered
    /// (the buffer is then not searched) or none of them is `\n`. A
    /// line the buffer cuts off, and a last line without `\n`, are left
    /// to [`next_line`](Self::next_line).
    ///
    /// Every line of the block ends in `\n`, so it holds one line per
    /// `\n`, and [`block_lines`] reads the lines of any stretch of it
    /// cut after a `\n` as this reader would. Once the block is read,
    /// [`consume`](Self::consume) its length.
    ///
    /// # Errors
    /// [`ObsError`] reading `read error: …` when the reader fails.
    pub fn buffered_lines(&mut self, min: usize) -> Result<&[u8], ObsError> {
        // Retried on an interrupt, as `read_line` does; a second call
        // then hands out what the first one filled.
        while let Err(e) = self.reader.fill_buf() {
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(read_error(e));
            }
        }
        let buf = self.reader.fill_buf().map_err(read_error)?;
        if buf.len() < min {
            return Ok(&[]);
        }
        Ok(match buf.iter().rposition(|&b| b == b'\n') {
            Some(last) => &buf[..=last],
            None => &[],
        })
    }

    /// Marks the first `bytes` bytes of the buffer, a block
    /// [`buffered_lines`](Self::buffered_lines) handed out, as read.
    pub fn consume(&mut self, bytes: usize) {
        self.reader.consume(bytes);
    }
}

/// The lines of `block`, complete lines such as
/// [`LineReader::buffered_lines`] hands out, borrowed in place: each as
/// [`LineReader::next_line`] reads it, or its error when it is not
/// valid UTF-8.
pub fn block_lines(block: &[u8]) -> impl Iterator<Item = Result<&str, ObsError>> {
    block
        .split_inclusive(|&b| b == b'\n')
        .map(|line| match std::str::from_utf8(line) {
            Ok(line) => Ok(line_text(line)),
            Err(_) => Err(LineReader::new(line)
                .next_line()
                .expect_err("`read_line` rejects the bytes `from_utf8` rejects")),
        })
}

/// A line's text: without its `\n`, and without a `\r` just before
/// that `\n`.
#[inline]
fn line_text(line: &str) -> &str {
    match line.strip_suffix('\n') {
        Some(line) => line.strip_suffix('\r').unwrap_or(line),
        None => line,
    }
}

/// The error for a failed read, or a line that is not valid UTF-8.
#[cold]
fn read_error(e: std::io::Error) -> ObsError {
    ObsError(format!("read error: {e}"))
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
    fn blocks_hold_the_complete_lines_the_reader_splits() {
        let text = "a\r\n\nbc\r\r\né→\n\r\ntail";
        let mut reader = LineReader::new(std::io::BufReader::with_capacity(9, text.as_bytes()));
        assert_eq!(reader.buffered_lines(10).unwrap(), b"");
        assert_eq!(reader.buffered_lines(9).unwrap(), b"a\r\n\nbc\r\r\n");
        for want in [&["a", "", "bc\r"][..], &["é→", ""]] {
            let block = reader.buffered_lines(0).unwrap().to_vec();
            let lines: Vec<&str> = block_lines(&block).map(Result::unwrap).collect();
            assert_eq!(lines, want);
            reader.consume(block.len());
        }
        // The buffer holds the start of a line, which is left to
        // `next_line`.
        assert_eq!(reader.buffered_lines(0).unwrap(), b"");
        assert_eq!(reader.next_line().unwrap(), Some("tail"));
        assert_eq!(reader.next_line().unwrap(), None);

        let bad = &b"ok\r\n\xe2\x86\nnext\n"[..];
        let mut lines = block_lines(bad);
        assert_eq!(lines.next().unwrap(), Ok("ok"));
        let mut reader = LineReader::new(bad);
        reader.next_line().unwrap();
        assert_eq!(lines.next().unwrap(), Err(reader.next_line().unwrap_err()));
        assert_eq!(lines.next().unwrap(), Ok("next"));
    }

    #[test]
    fn blank_lines_are_what_trim_calls_blank() {
        let chars = [
            ' ', '\t', '\n', '\x0b', '\x0c', '\r', '\x1c', '\0', '\u{85}', '\u{a0}', '\u{2003}',
            '\u{feff}', '{', 'x',
        ];
        let mut lines = vec![String::new()];
        for _ in 0..3 {
            let longer: Vec<String> = lines
                .iter()
                .flat_map(|l| chars.iter().map(move |&c| format!("{l}{c}")))
                .collect();
            lines.extend(longer);
        }
        for line in &lines {
            assert_eq!(is_blank(line), line.trim().is_empty(), "{line:?}");
        }
    }

    #[test]
    fn a_log_is_told_by_its_header_key_and_the_reader_whitespace() {
        for line in [
            r#"{"type":"run","n":3}"#,
            r#"{"type": "run", "n": 3}"#,
            "{ \"type\"\t:\x0c\r \"run\" }",
            r#"{"engine":"e","type" :"run"}"#,
            r#"{"type":"send","type":"run"}"#,
            r#"{"type": "run", "n": 3,}"#,
        ] {
            assert!(looks_like_log(line), "{line:?}");
        }
        for line in [
            r#"{"n":3,"lambda":2,"sends":[]}"#,
            r#"{"type":"runs"}"#,
            r#"{"type":"send"}"#,
            r#"{"kind":"run"}"#,
            r#"{"x":"type","y":"run"}"#,
            "{\"type\"\x0b:\"run\"}",
            "{\"type\":\u{a0}\"run\"}",
            r#"{"type":run}"#,
            "",
        ] {
            assert!(!looks_like_log(line), "{line:?}");
        }
    }

    #[test]
    fn header_without_lambda_parses_but_cannot_schedule() {
        let log = from_jsonl("{\"type\":\"run\",\"engine\":\"e\",\"n\":2}\n").unwrap();
        assert_eq!(log.meta().lambda, None);
        assert!(log.to_schedule().is_err());
    }
}
