//! Observability JSONL log → schedule: the ingest behind batch `lint`,
//! [`schedule_from_jsonl`](crate::schedule_from_jsonl) and
//! [`lint_jsonl`](crate::lint_jsonl).
//!
//! Lines are parsed one at a time until the run header has been read.
//! From then on, each large block of complete lines the reader holds
//! buffered is cut at line ends into chunks, which the calling thread
//! and a few scoped threads claim in file order, each parsing with its
//! own copy of the parser. The chunks are merged in file order. Every
//! line still goes through [`JsonlParser::line`], so the sends, the
//! error texts and which error wins are those of one parser fed every
//! line in order.
//!
//! Chunks are claimed rather than dealt out one part per thread because
//! the cores of a shared host run at different speeds from moment to
//! moment: with a block halved between two threads, one half once took
//! 8.9 ms to parse and the other 5.0 ms.

use crate::json::ScheduleFile;
use postal_model::schedule::{Schedule, TimedSend};
use postal_obs::{block_lines, JsonlParser, LineReader, ObsError, ObsEvent, RunMeta};
use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::{panic, thread};

/// The fewest bytes of a block a chunk is given. A block of two chunks
/// takes about 0.2 ms to parse, against some 50 µs to start and join a
/// thread.
const MIN_CHUNK: usize = 32 << 10;

/// Chunks per thread: enough for a fast core to take over part of a
/// slow one's share.
const CHUNKS_PER_THREAD: usize = 4;

/// The most threads a block is parsed on. Sorting, linting and
/// rendering what the ingest returns run on one thread, so more parse
/// threads gain little, and each costs a few allocations: with four at
/// most, the ingest makes a small, fixed number on any machine.
const MAX_THREADS: usize = 4;

/// Streaming counterpart of [`schedule_from_jsonl`](crate::schedule_from_jsonl):
/// folds an observability JSONL log directly into the schedule its send
/// events realized — without materializing the log text or the full
/// event list. Non-send events are parsed (so errors are still caught)
/// and dropped; memory is O(sends), not O(events). Lines parse without
/// a heap allocation per line.
///
/// Once the run header has been read, each block of complete lines the
/// reader holds buffered, if it is at least 64 KiB, is parsed on up to
/// four threads ([`std::thread::available_parallelism`]). A reader with
/// a large buffer, such as an in-memory [`std::io::Cursor`] or a
/// [`std::io::BufReader`] of a MiB, thus lets a large log parse on
/// several cores. The result, and the first error in file order, are
/// the same on any core count.
///
/// # Errors
/// When the reader fails, a line cannot be parsed, the log has no
/// `"run"` header, or the header carries no uniform λ.
pub fn jsonl_to_schedule_file<R: BufRead>(reader: R) -> Result<ScheduleFile, ObsError> {
    ingest(reader, MIN_CHUNK, || {
        thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
    })
}

/// [`jsonl_to_schedule_file`], reading with [`fold`].
fn ingest<R: BufRead>(
    reader: R,
    min_chunk: usize,
    max_threads: impl Fn() -> usize,
) -> Result<ScheduleFile, ObsError> {
    let (meta, kept) = fold(reader, min_chunk, max_threads)?;
    let lambda = meta
        .lambda
        .ok_or_else(|| ObsError("log has no uniform lambda; cannot reduce to a schedule".into()))?;
    Ok(ScheduleFile {
        schedule: Schedule::new(meta.n, lambda, kept.sends),
        messages: meta.messages,
        dropped_events: meta.dropped_events,
        sample: meta.sample,
        truncated: kept.truncated,
        topology: None,
    })
}

/// Parses every line of a log, returning its run header and what the
/// ingest keeps of its events. Each block of at least `2 * min_chunk`
/// bytes is parsed on `max_threads()` threads, in chunks of at least
/// `min_chunk` bytes. `max_threads` is asked once, when the first such
/// block is buffered; with one thread every line is read by
/// `next_line`.
fn fold<R: BufRead>(
    reader: R,
    min_chunk: usize,
    max_threads: impl Fn() -> usize,
) -> Result<(RunMeta, Kept), ObsError> {
    let mut lines = LineReader::new(reader);
    let mut parser = JsonlParser::new();
    let mut kept = Kept::default();
    let mut available = None;
    loop {
        if parser.meta().is_some() && available != Some(1) {
            let block = lines.buffered_lines(2 * min_chunk)?;
            if !block.is_empty() {
                let threads = *available.get_or_insert_with(&max_threads);
                let chunks = (block.len() / min_chunk).min(CHUNKS_PER_THREAD * threads);
                if threads > 1 && chunks > 1 {
                    let len = block.len();
                    kept.block(&mut parser, block, threads.min(chunks), chunks)?;
                    lines.consume(len);
                    continue;
                }
            }
        }
        let Some(line) = lines.next_line()? else {
            break;
        };
        kept.event(parser.line(line)?);
    }
    Ok((parser.finish()?, kept))
}

/// What the ingest keeps of a log's events: the sends in file order,
/// and whether a `truncated` event was among them.
#[derive(Default)]
struct Kept {
    sends: Vec<TimedSend>,
    truncated: bool,
}

/// A parsed chunk: its line count, what it kept, and whether every line
/// parsed. A failed chunk's error is found again by [`Kept::block`].
struct Chunk {
    lines: usize,
    kept: Kept,
    parsed: bool,
}

impl Kept {
    fn event(&mut self, event: Option<ObsEvent>) {
        match event {
            Some(ObsEvent::Send {
                src, dst, start, ..
            }) => self.sends.push(TimedSend {
                src,
                dst,
                send_start: start,
            }),
            Some(ObsEvent::Truncated { .. }) => self.truncated = true,
            _ => {}
        }
    }

    /// Parses every line of `chunk`, complete lines, with `parser`.
    fn chunk(&mut self, parser: &mut JsonlParser, chunk: &[u8]) -> Result<(), ObsError> {
        for line in block_lines(chunk) {
            self.event(parser.line(line?)?);
        }
        Ok(())
    }

    /// Parses `block`, complete lines after the run header, cut into
    /// `count` chunks that this thread and up to `threads - 1` scoped
    /// threads claim in file order, each with its own copy of `parser`.
    /// Keeps the chunks' events in file order and returns the first
    /// error in file order; `parser` then stands after the block.
    fn block(
        &mut self,
        parser: &mut JsonlParser,
        block: &[u8],
        threads: usize,
        count: usize,
    ) -> Result<(), ObsError> {
        let chunks: Vec<&[u8]> = cut(block, count).collect();
        let parsed: Vec<OnceLock<Chunk>> = chunks.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let start = &*parser;
        // A copy numbers its lines on from the chunks it parsed before,
        // so its error texts name wrong lines: a failed chunk is parsed
        // again below, from its own first line.
        let claim = || {
            let mut copy = start.ahead(0);
            loop {
                // The index publishes nothing: a chunk's result is
                // published by its `OnceLock` and read after the joins.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&chunk) = chunks.get(i) else {
                    break;
                };
                let lines = line_count(chunk);
                let mut kept = Kept {
                    // A line holds at most one send.
                    sends: Vec::with_capacity(lines),
                    truncated: false,
                };
                let parsed_ok = kept.chunk(&mut copy, chunk).is_ok();
                let first = parsed[i].set(Chunk {
                    lines,
                    kept,
                    parsed: parsed_ok,
                });
                assert!(first.is_ok(), "chunk {i} was claimed twice");
            }
        };
        thread::scope(|scope| {
            // A thread the system will not start leaves its share to
            // the others.
            let workers: Vec<_> = (1..threads)
                .map_while(|_| thread::Builder::new().spawn_scoped(scope, claim).ok())
                .collect();
            claim();
            // `join` waits until the thread has exited, so no worker
            // frees memory after the block, where the caller's
            // allocation counts would see it.
            for worker in workers {
                worker
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload));
            }
        });
        let (mut lines, mut sends) = (0, 0);
        for (slot, &chunk) in parsed.iter().zip(&chunks) {
            let done = slot.get().expect("every chunk is claimed");
            if !done.parsed {
                let mut exact = parser.ahead(lines);
                return Err(Kept::default()
                    .chunk(&mut exact, chunk)
                    .expect_err("a chunk fails from any first line"));
            }
            lines += done.lines;
            sends += done.kept.sends.len();
        }
        self.sends.reserve(sends);
        for slot in parsed {
            let done = slot.into_inner().expect("every chunk is claimed");
            self.sends.extend(done.kept.sends);
            self.truncated |= done.kept.truncated;
        }
        *parser = parser.ahead(lines);
        Ok(())
    }
}

/// `block`, complete lines, cut after a `\n` into `parts` parts whose
/// lengths fall in steps from `parts` shares to one: claimed in file
/// order, the last parts are short, so the threads finish close
/// together. A part is empty where one line spans its share.
fn cut(block: &[u8], parts: usize) -> impl Iterator<Item = &[u8]> {
    // Part `i` ends after shares `parts + (parts - 1) + … + (parts - i + 1)`
    // of `parts (parts + 1) / 2`.
    let share = move |i: usize| {
        let num = (i * (2 * parts + 1 - i)) as u128;
        (block.len() as u128 * num / (parts * (parts + 1)) as u128) as usize
    };
    let mut start = 0;
    (1..=parts).map(move |i| {
        let from = share(i).max(start);
        let end = match block[from..].iter().position(|&b| b == b'\n') {
            Some(at) if i < parts => from + at + 1,
            _ => block.len(),
        };
        let part = &block[start..end];
        start = end;
        part
    })
}

/// The lines of `part`, complete lines: one per `\n`. Counted in `u8`
/// sums over 128-byte pieces, which the compiler vectorizes; a plain
/// `filter().count()` ran about ten times slower.
fn line_count(part: &[u8]) -> usize {
    let mut pieces = part.chunks_exact(128);
    let mut lines = 0;
    for piece in &mut pieces {
        lines += usize::from(piece.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>());
    }
    lines + pieces.remainder().iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{Latency, Time};
    use postal_obs::{to_jsonl, ObsLog, RunMeta};
    use proptest::prelude::TestRng;
    use std::io::{BufReader, Cursor};

    /// The ingest's loop before logs were parsed in chunks, verbatim:
    /// every line through one `LineReader` and one `JsonlParser`, in
    /// order. It went on to build the schedule as `ingest` still does.
    fn serial<R: std::io::BufRead>(reader: R) -> Result<(RunMeta, Vec<TimedSend>, bool), ObsError> {
        let mut lines = postal_obs::LineReader::new(reader);
        let mut parser = postal_obs::JsonlParser::new();
        let mut sends = Vec::new();
        let mut truncated = false;
        while let Some(line) = lines.next_line()? {
            match parser.line(line)? {
                Some(postal_obs::ObsEvent::Send {
                    src, dst, start, ..
                }) => {
                    sends.push(postal_model::schedule::TimedSend {
                        src,
                        dst,
                        send_start: start,
                    });
                }
                Some(postal_obs::ObsEvent::Truncated { .. }) => truncated = true,
                _ => {}
            }
        }
        let meta = parser.finish()?;
        Ok((meta, sends, truncated))
    }

    fn below(rng: &mut TestRng, n: usize) -> usize {
        rng.below_u128(n as u128) as usize
    }

    /// An event of any kind but `truncated`, at times on λ = 5/2's
    /// half-unit lattice.
    fn event(rng: &mut TestRng, seq: u64) -> ObsEvent {
        let mut at = || Time::new(below(rng, 60) as i128, 2);
        let (t, u) = (at(), at());
        let (src, dst) = (below(rng, 8) as u32, below(rng, 8) as u32);
        match below(rng, 10) {
            0..=3 => ObsEvent::Send {
                seq,
                src,
                dst,
                start: t,
                finish: t + Time::ONE,
            },
            4 | 5 => ObsEvent::Recv {
                seq,
                src,
                dst,
                arrival: t,
                start: u.max(t),
                finish: u.max(t) + Time::ONE,
                queued: u > t,
            },
            6 => ObsEvent::Wake { proc: dst, at: t },
            7 => ObsEvent::Violation {
                seq,
                dst,
                arrival: t,
                busy_until: u,
            },
            8 => ObsEvent::Drop {
                seq,
                src,
                dst,
                at: t,
            },
            _ => ObsEvent::Crash { proc: src, at: t },
        }
    }

    /// Lines that end an ingest with an error: cut-off and trailing
    /// syntax, values that do not decode, a second run header, and
    /// invalid UTF-8 (a stray byte, and a character cut short).
    const FAULTS: [&[u8]; 7] = [
        br#"{"type":"send","seq":3,"src":1"#,
        br#"{"type":"wake","proc":2,"at":"3"}}"#,
        br#"{"type":"send","seq":3,"src":1,"dst":2,"start":"x","finish":"1"}"#,
        br#"{"type":"wake","proc":-2,"at":"3"}"#,
        br#"{"type":"run","engine":"event","n":8,"lambda":"5/2"}"#,
        b"{\"type\":\"wake\",\"proc\":2,\"at\":\"\xff\"}",
        b"{\"type\":\"crash\",\"proc\":1,\"at\":\"\xe2\x86\"}",
    ];

    /// A line that parses and marks the log as cut short.
    const TRUNCATED: &[u8] = br#"{"type":"truncated","processed":9,"limit":9,"at":"7/2"}"#;

    /// A random log: a header and up to 300 events of every kind, with
    /// up to two faults and a `truncated` event put in at random lines
    /// after the header, blank lines put in, some lines ended in
    /// `\r\n`, and the last `\n` kept or dropped. Also returns the byte
    /// offset of each fault and of the header line's end.
    fn log(rng: &mut TestRng) -> (Vec<u8>, Vec<usize>, usize) {
        let mut meta = RunMeta::new("event", 8).latency(Latency::from_ratio(5, 2));
        if below(rng, 2) == 0 {
            meta = meta.messages(below(rng, 4) as u64 + 1);
        }
        if below(rng, 4) == 0 {
            meta = meta.dropped(below(rng, 9) as u64).sampled("rate:2");
        }
        let events = (0..below(rng, 300))
            .map(|seq| event(rng, seq as u64))
            .collect();
        let text = to_jsonl(&ObsLog::new(meta, events));
        let mut lines: Vec<(&[u8], bool)> = text.lines().map(|l| (l.as_bytes(), false)).collect();
        for _ in 0..below(rng, 3) {
            let at = 1 + below(rng, lines.len());
            lines.insert(at, (FAULTS[below(rng, FAULTS.len())], true));
        }
        if below(rng, 3) == 0 {
            let at = 1 + below(rng, lines.len());
            lines.insert(at, (TRUNCATED, false));
        }
        let (mut bytes, mut faults, mut header_end) = (Vec::new(), Vec::new(), 0);
        for (i, &(line, fault)) in lines.iter().enumerate() {
            while below(rng, 6) == 0 {
                bytes.extend_from_slice([&b""[..], b" ", b"\t \x0c"][below(rng, 3)]);
                bytes.extend_from_slice(if below(rng, 2) == 0 { b"\n" } else { b"\r\n" });
            }
            if fault {
                faults.push(bytes.len());
            }
            bytes.extend_from_slice(line);
            bytes.extend_from_slice(if below(rng, 4) == 0 { b"\r\n" } else { b"\n" });
            if i == 0 {
                header_end = bytes.len();
            }
        }
        if below(rng, 2) == 0 {
            bytes.pop();
        }
        (bytes, faults, header_end)
    }

    /// The chunk that holds the byte at `offset`, past the header line,
    /// when `text` is read in memory on `threads` threads; `None` on a
    /// last line without `\n`, which is read alone.
    fn chunk_of(text: &[u8], header_end: usize, threads: usize, offset: usize) -> Option<usize> {
        let last = text.iter().rposition(|&b| b == b'\n')?;
        let block = &text[header_end..=last];
        let mut end = header_end;
        cut(block, block.len().min(CHUNKS_PER_THREAD * threads)).position(|chunk| {
            end += chunk.len();
            offset < end
        })
    }

    #[test]
    fn chunked_ingest_matches_the_serial_fold() {
        let mut faults_in_two_chunks = 0;
        for seed in 0..48 {
            let rng = &mut TestRng::new(seed);
            let (text, faults, header_end) = log(rng);
            let want = serial(Cursor::new(&text));
            for threads in 1..=8 {
                let readers: [(&str, Box<dyn BufRead>); 3] = [
                    ("in memory", Box::new(Cursor::new(&text))),
                    (
                        "7-byte buffer",
                        Box::new(BufReader::with_capacity(7, &text[..])),
                    ),
                    (
                        "4 KiB buffer",
                        Box::new(BufReader::with_capacity(4096, &text[..])),
                    ),
                ];
                for (name, reader) in readers {
                    let got = fold(reader, 1, || threads)
                        .map(|(meta, kept)| (meta, kept.sends, kept.truncated));
                    assert_eq!(got, want, "seed {seed}, {threads} threads, {name}");
                }
                if let [a, b] = faults[..] {
                    let chunk = |at| chunk_of(&text, header_end, threads, at);
                    if let (Some(a), Some(b)) = (chunk(a), chunk(b)) {
                        faults_in_two_chunks += usize::from(threads > 1 && a != b);
                    }
                }
            }
        }
        assert!(
            faults_in_two_chunks > 60,
            "{faults_in_two_chunks} cases put their two faults in two chunks"
        );
    }
}
