//! The one-pass JSONL reader against the two-phase reader it replaced.
//!
//! `oracle` holds the earlier reader verbatim: `parse_flat` tokenizes a
//! line into one slot per known key, then the `Fields` getters decode
//! each value. The property feeds both readers the same line sequences,
//! drawn from the log grammar and then corrupted, and requires the same
//! event or the same error text on every line, and the same run header
//! at the end.
//!
//! The lines cover every event kind and the header, each with its
//! required keys plus known, unknown and duplicated keys in random
//! order; every value written as a string, a number or a boolean, from
//! integers, `p/q`, decimals, signs, exponents, 19- to 21-digit numbers,
//! `-0`, `+5`, the empty string and junk; ASCII whitespace around tokens
//! (tab, CR and form feed included) and now and then non-ASCII
//! whitespace or a vertical tab; and one-byte replacements, deletions
//! and duplications, and truncations.

use postal_obs::{JsonlParser, ObsError, ObsEvent};
use proptest::prelude::*;

mod oracle {
    use postal_model::{Latency, Ratio, Time};
    use postal_obs::{ObsError, ObsEvent, RunMeta};

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
    /// each event kind. Each has one slot in `Fields`.
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

    /// Number of `Key`s.
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

    /// The fields of one line, borrowed from it: one slot per `Key`,
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
            self.slots[key as usize]
                .ok_or_else(|| self.err(format!("missing field {:?}", key.name())))
        }

        fn u64(&self, key: Key) -> Result<u64, ObsError> {
            match self.get(key)? {
                Tok::Num(t) => t.parse().map_err(|_| {
                    self.err(format!("{:?} is not a nonnegative integer", key.name()))
                }),
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

        /// A time within the input bounds (`Time::check_input`).
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

    /// The reader as it was before it decoded each line in one pass:
    /// `parse_flat` tokenizes a line into a slot table, then the getters
    /// decode each value.
    #[derive(Debug, Default)]
    pub struct JsonlParser {
        meta: Option<RunMeta>,
        lineno: usize,
    }

    impl JsonlParser {
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
    }

    impl JsonlParser {
        pub fn meta(&self) -> Option<&RunMeta> {
            self.meta.as_ref()
        }
    }
}

/// Each line kind and the keys it needs, in the order its getters read
/// them.
const KINDS: &[(&str, &[&str])] = &[
    ("run", &["engine", "n"]),
    ("send", &["seq", "src", "dst", "start", "finish"]),
    (
        "recv",
        &["seq", "src", "dst", "arrival", "start", "finish", "queued"],
    ),
    ("wake", &["proc", "at"]),
    ("violation", &["seq", "dst", "arrival", "busy_until"]),
    ("drop", &["seq", "src", "dst", "at"]),
    ("crash", &["proc", "at"]),
    ("truncated", &["processed", "limit", "at"]),
];

/// Every key the readers know.
const KNOWN: &[&str] = &[
    "type",
    "seq",
    "src",
    "dst",
    "start",
    "finish",
    "arrival",
    "queued",
    "proc",
    "at",
    "busy_until",
    "processed",
    "limit",
    "engine",
    "n",
    "lambda",
    "messages",
    "dropped",
    "sample",
    "ring_capacity",
];

/// Keys neither reader knows, some a prefix or an extension of a known
/// one.
const UNKNOWN: &[&str] = &["a", "note", "sta", "starts", "s", "typ", "types", "é", ""];

/// Integer texts a writer emits.
const GOOD_INTS: &[&str] = &["0", "1", "7", "13", "4999", "4294967295"];

/// Integer texts at and past the `u32` and `u64` edges (19, 20 and 21
/// digits), with signs, fractions, exponents and junk.
const INTS: &[&str] = &[
    "007",
    "4294967296",
    "1234567890123456789",
    "18446744073709551615",
    "18446744073709551616",
    "123456789012345678901",
    "-0",
    "-1",
    "+5",
    "1.5",
    "1e3",
    "5+",
    "-",
];

/// Time texts a writer emits.
const GOOD_TIMES: &[&str] = &["0", "1", "3/2", "5/2", "15/2", "7/3", "9999/2"];

/// Time texts: decimals, blanks, values past the input bounds or past
/// `i128`, and junk.
const TIMES: &[&str] = &[
    "2.5",
    "-1.25",
    ".5",
    "-.5",
    " 7 / 4 ",
    "1/0",
    "1/",
    "/2",
    "9007199254740992",
    "9007199254740993",
    "1/4294967297",
    "65537",
    "1/2",
    "1e3",
    "+5",
    "-0",
    "170141183460469231731687303715884105727.5",
    "-170141183460469231731687303715884105728/-1",
];

/// String texts: event kinds, engine names with multi-byte characters,
/// a sample spec, the empty string.
const TEXTS: &[&str] = &[
    "send",
    "recv",
    "wake",
    "run",
    "event",
    "évènement→ring",
    "tail,rate:8",
    "Send",
    "warp",
    "x",
    "",
];

/// ASCII whitespace the readers skip around tokens.
const SPACES: &[&str] = &[" ", "  ", "\t", "\r", "\x0c", " \t\r\x0c "];

/// Whitespace they do not skip: vertical tab and non-ASCII whitespace.
/// A newline never reaches a reader inside a line, but is skipped.
const ODD_SPACES: &[&str] = &["\x0b", "\u{a0}", "\u{2003}", "\u{85}", "\n"];

/// Lines that are blank to `str::trim`, or nearly.
const BLANKS: &[&str] = &[
    "",
    " ",
    "\t\r",
    "\x0c",
    "\x0b",
    "\u{a0}",
    " \u{2003} ",
    "\u{feff}",
];

/// Bytes a corruption writes.
const JUNK: &[u8] = b"\"\\{}[],:- .0159eEtfx/\t\x0b\x0c";

/// Draws lines from the log grammar.
struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// True with probability `percent` / 100.
    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn space(&mut self) -> &'static str {
        match self.below(1000) {
            0..=749 => "",
            750..=996 => self.pick(SPACES),
            _ => self.pick(ODD_SPACES),
        }
    }

    /// A value for `key`: mostly one of its own type as a writer emits
    /// it, otherwise any text written as a string, a number or a
    /// boolean.
    fn value(&mut self, key: &str) -> String {
        if self.chance(90) {
            return match key {
                "type" | "engine" | "sample" => format!("\"{}\"", self.pick(TEXTS)),
                "start" | "finish" | "arrival" | "at" | "busy_until" | "lambda" => {
                    let text = self.pick(GOOD_TIMES);
                    if self.chance(80) || text.contains('/') {
                        format!("\"{text}\"")
                    } else {
                        text.to_string()
                    }
                }
                "queued" => self.pick(&["true", "false"]).to_string(),
                _ => self.pick(GOOD_INTS).to_string(),
            };
        }
        let text = match self.below(5) {
            0 => self.pick(GOOD_INTS),
            1 => self.pick(INTS),
            2 => self.pick(GOOD_TIMES),
            3 => self.pick(TIMES),
            _ => self.pick(TEXTS),
        };
        match self.below(10) {
            0 => self.pick(&["true", "false"]).to_string(),
            1..=5 => format!("\"{text}\""),
            // A number token where the text can start one; now and then
            // a bare text where it cannot.
            _ if text.starts_with(|c: char| c == '-' || c.is_ascii_digit()) || self.chance(10) => {
                text.to_string()
            }
            _ => format!("\"{text}\""),
        }
    }

    /// One line: an object of some kind, possibly corrupted, or a
    /// blank line.
    fn line(&mut self) -> String {
        if self.chance(4) {
            return self.pick(BLANKS).to_string();
        }
        let kind = if self.chance(4) {
            (self.pick(&["warp", "Send"]), &[][..])
        } else {
            self.pick(KINDS)
        };
        self.object(kind)
    }

    /// An object of `kind` with the keys it `needs`, some dropped, plus
    /// known, unknown and duplicated keys, possibly corrupted.
    fn object(&mut self, (kind, needs): (&str, &[&str])) -> String {
        let mut fields: Vec<(String, String)> = Vec::new();
        if !self.chance(3) {
            let value = if self.chance(95) {
                format!("\"{kind}\"")
            } else {
                self.value("type")
            };
            fields.push(("type".into(), value));
        }
        for &key in needs {
            if !self.chance(3) {
                let value = self.value(key);
                fields.push((key.into(), value));
            }
        }
        for _ in 0..self.below(3) {
            let key = self.pick(KNOWN);
            let value = self.value(key);
            fields.push((key.into(), value));
        }
        for _ in 0..self.below(2) {
            let key = self.pick(UNKNOWN);
            let value = self.value(key);
            fields.push((key.into(), value));
        }
        for _ in 0..self.below(3) {
            if fields.is_empty() {
                break;
            }
            let key = fields[self.below(fields.len())].0.clone();
            let value = self.value(&key);
            fields.push((key, value));
        }
        // Shuffle, mostly among the fields after `type`, which the
        // writer puts first.
        let first = usize::from(self.chance(80));
        for i in (first + 1..fields.len()).rev() {
            let j = first + self.below(i + 1 - first);
            fields.swap(i, j);
        }
        let mut line = self.space().to_string();
        line.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                line.push_str(self.space());
                line.push(',');
            }
            line.push_str(self.space());
            line.push_str(&format!("\"{key}\""));
            line.push_str(self.space());
            line.push(':');
            line.push_str(self.space());
            line.push_str(value);
        }
        line.push_str(self.space());
        line.push('}');
        line.push_str(self.space());
        if self.chance(20) {
            line = self.corrupt(line);
        }
        line
    }

    /// `line` with one byte replaced, deleted or duplicated, or cut
    /// short; bytes that are no longer UTF-8 read as U+FFFD.
    fn corrupt(&mut self, line: String) -> String {
        let mut bytes = line.into_bytes();
        let at = self.below(bytes.len());
        match self.below(4) {
            0 => bytes[at] = self.pick(JUNK),
            1 => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, bytes[at]),
            _ => bytes.truncate(at),
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// A reader's outcome on one line, with its error as text.
fn outcome(read: Result<Option<ObsEvent>, ObsError>) -> Result<Option<ObsEvent>, String> {
    read.map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn both_readers_give_the_same_event_or_error_on_every_line(seed in any::<u64>()) {
        let mut g = Gen(TestRng::new(seed));
        let mut lines = Vec::new();
        match g.below(10) {
            0..=6 => lines.push(r#"{"type":"run","engine":"event","n":5000,"lambda":"5/2"}"#.into()),
            7 | 8 => lines.push(g.object(KINDS[0])),
            _ => {}
        }
        for _ in 0..1 + g.below(24) {
            lines.push(g.line());
        }
        let mut old = oracle::JsonlParser::default();
        let mut new = JsonlParser::new();
        for (i, line) in lines.iter().enumerate() {
            let want = outcome(old.line(line));
            prop_assert_eq!(outcome(new.line(line)), want, "line {}: {:?}", i + 1, line);
        }
        prop_assert_eq!(new.meta(), old.meta(), "the run header");
    }
}
