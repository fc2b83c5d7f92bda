//! The three workloads. Each one generates its inputs from the seed at
//! set-up, runs one job at a time through the library entry points the
//! CLI composes, and checks every job's output.
//!
//! * `inline-bcast` — `simulate bcast --lint-inline`: BCAST on the
//!   calendar engine's lattice ring with the streaming linter attached
//!   and the trace discarded. Simulator and streaming lint do the work.
//! * `lint-log` — `lint events.jsonl`: ingest, batch lint and render of
//!   a perturbed REPEAT log. Readers and batch lint do the work; the
//!   simulator does none.
//! * `record-export` — `simulate pipeline --events-out --trace-out
//!   --metrics-out`: PIPELINE at an off-lattice λ (the exact-`Ratio`
//!   fallback heap), full trace stored, then the log and the three
//!   exporters, all into memory.

use crate::trace::{time_programs, CallTotals, Tap, TimedRecorder};
use postal_algos::pipeline::pipeline_programs;
use postal_algos::repeat::repeat_programs;
use postal_algos::{bcast_programs_from, Pacing};
use postal_model::runtimes;
use postal_model::schedule::TimedSend;
use postal_model::{Latency, Time};
use postal_obs::{to_chrome_trace, to_jsonl, to_prometheus, LintSink, ObsEvent, ObsLog, Recorder};
use postal_sim::{log_from_report, Program, RunReport, Simulation, Uniform};
use postal_verify::{lint_schedule, render, Diagnostic, LintCode, LintOptions, Severity};
use std::io::Cursor;
use std::rc::Rc;

const MIB: f64 = 1024.0 * 1024.0;

/// One workload: inputs made at set-up, then any number of jobs.
pub trait Workload: Sized {
    /// What one job returns, kept in memory until it has been checked.
    type Out;

    /// Generates the inputs from `seed` and runs the one-off checks
    /// that need no job output.
    fn setup(seed: u64) -> Result<Self, String>;

    /// One job. Everything it computes stays in memory.
    fn job(&self, tap: &mut Tap) -> Self::Out;

    /// Model sends one job processed.
    fn sends(out: &Self::Out) -> u64;

    /// Checks one job's output. The first output checked becomes the
    /// reference every later one must repeat exactly.
    fn check(&mut self, out: &Self::Out) -> Result<(), String>;
}

/// SplitMix64: a small, fixed generator, so a seed names the same
/// inputs on every platform and toolchain.
pub struct SplitMix(pub u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Checks that `got` equals the reference, taking it as the reference
/// when there is none yet.
fn same_as<T: PartialEq + std::fmt::Debug>(
    reference: &mut Option<T>,
    got: T,
    what: &str,
) -> Result<(), String> {
    match reference {
        None => {
            *reference = Some(got);
            Ok(())
        }
        Some(r) if *r == got => Ok(()),
        Some(r) => Err(format!("{what} changed between jobs: {r:?} then {got:?}")),
    }
}

fn error_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count()
}

// ---------------------------------------------------------------- inline-bcast

/// `simulate bcast N 1 2 --lint-inline` from an originator picked by the
/// seed.
pub struct InlineBcast {
    n: usize,
    lam: Latency,
    root: usize,
    reference: Option<(usize, usize)>,
}

/// One inline-bcast job's output.
pub struct InlineOut {
    report: RunReport<postal_algos::bcast::BcastPayload>,
    diags: Vec<Diagnostic>,
    rendered: String,
    sends: u64,
}

impl InlineBcast {
    const N: usize = 100_000;
    /// Size of the set-up cross-check against batch lint over a stored
    /// trace.
    const CROSS_CHECK_N: usize = 10_000;

    fn lint_options(root: usize) -> LintOptions {
        LintOptions {
            originator: root as u32,
            ..LintOptions::default()
        }
    }

    /// The inline report at a small n must equal batch lint over the
    /// recorded trace of the same run.
    fn cross_check(root: usize, lam: Latency) -> Result<(), String> {
        let n = Self::CROSS_CHECK_N;
        let root = root % n;
        let uni = Uniform(lam);
        let opts = Self::lint_options(root);
        let sink = LintSink::new(n as u32, lam, opts);
        Simulation::new(n, &uni)
            .observe(&sink)
            .discard_trace()
            .run(bcast_programs_from(root, n, lam))
            .map_err(|e| format!("cross-check run failed: {e}"))?;
        let inline = sink.finish().finish();
        let full = Simulation::new(n, &uni)
            .run(bcast_programs_from(root, n, lam))
            .map_err(|e| format!("cross-check run failed: {e}"))?;
        let batch = lint_schedule(&full.trace.to_schedule(n as u32, lam), &opts);
        ensure(inline == batch, || {
            format!(
                "inline lint disagrees with batch lint at n = {n}: {} vs {} diagnostics",
                inline.len(),
                batch.len()
            )
        })
    }
}

impl Workload for InlineBcast {
    type Out = InlineOut;

    fn setup(seed: u64) -> Result<Self, String> {
        let n = Self::N;
        let lam = Latency::from_int(2);
        let root = SplitMix(seed).below(n as u64) as usize;
        Self::cross_check(root, lam)?;
        Ok(InlineBcast {
            n,
            lam,
            root,
            reference: None,
        })
    }

    fn job(&self, tap: &mut Tap) -> InlineOut {
        let (n, lam) = (self.n, self.lam);
        let programs = tap.call("algos.build", || bcast_programs_from(self.root, n, lam));
        tap.put("algos.allocs", tap.last_mem().allocs as f64);
        let totals = Rc::new(CallTotals::default());
        let programs = if tap.traced() {
            tap.call("trace.wrap", || time_programs(programs, &totals))
        } else {
            programs
        };
        let sink = LintSink::new(n as u32, lam, Self::lint_options(self.root));
        let timed_sink = TimedRecorder::new(&sink);
        let recorder: &dyn Recorder = if tap.traced() { &timed_sink } else { &sink };
        let uni = Uniform(lam);
        let report = tap
            .call("sim.run", || {
                Simulation::new(n, &uni)
                    .observe(recorder)
                    .discard_trace()
                    .run(programs)
            })
            .expect("BCAST cannot diverge");
        let sends: u64 = report.proc_stats.iter().map(|s| s.sends).sum();
        if tap.traced() {
            let sink_ns = timed_sink.ns.into_inner();
            record_sim(tap, &report, sends, &totals, sink_ns);
            tap.put("obs.sink.record_ms", crate::trace::ms(sink_ns));
            tap.put("obs.sink.events", timed_sink.events.into_inner() as f64);
        }
        let (linter_bytes, diags) = tap.call("obs.sink.finish", || {
            let stream = sink.finish();
            (stream.memory_bytes(), stream.finish())
        });
        tap.put("model.lint.stream.mib", linter_bytes as f64 / MIB);
        let rendered = tap.call("verify.render", || render::render_report(&diags, "inline"));
        tap.put("verify.render.bytes", rendered.len() as f64);
        InlineOut {
            report,
            diags,
            rendered,
            sends,
        }
    }

    fn sends(out: &InlineOut) -> u64 {
        out.sends
    }

    fn check(&mut self, out: &InlineOut) -> Result<(), String> {
        let want = runtimes::bcast_time(self.n as u128, self.lam);
        ensure(out.report.completion == want, || {
            format!(
                "BCAST completed at {} but f_λ(n) = {want}",
                out.report.completion
            )
        })?;
        ensure(out.sends == self.n as u64 - 1, || {
            format!("BCAST made {} sends, expected n − 1", out.sends)
        })?;
        let errors = error_count(&out.diags);
        ensure(errors == 0, || {
            format!("{errors} error-level diagnostics on BCAST")
        })?;
        same_as(
            &mut self.reference,
            (out.diags.len(), out.rendered.len()),
            "(diagnostics, rendered bytes)",
        )
    }
}

/// The simulator's per-layer figures, right after a traced `sim.run`:
/// its counters, and its wall time split into engine self time, program
/// self time and the time inside the timed recorder (`recorder_ns`).
fn record_sim<P>(
    tap: &mut Tap,
    report: &RunReport<P>,
    sends: u64,
    totals: &CallTotals,
    recorder_ns: u64,
) {
    let program_self_ns = totals.program_ns.get() - totals.ctx_ns.get();
    tap.arg("program_self_ns", program_self_ns);
    tap.arg("ctx_ns", totals.ctx_ns.get());
    tap.arg("recorder_ns", recorder_ns);
    tap.put(
        "sim.engine.self_ms",
        tap.last_self_ms(&["program_self_ns", "recorder_ns"]),
    );
    tap.put("sim.program.self_ms", crate::trace::ms(program_self_ns));
    tap.put("sim.program.calls", totals.program_calls.get() as f64);
    tap.put("sim.events", report.events as f64);
    tap.put("sim.sends", sends as f64);
    tap.put("sim.events_per_send", report.events as f64 / sends as f64);
    tap.put("sim.allocs", tap.last_mem().allocs as f64);
}

// ---------------------------------------------------------------- lint-log

/// `lint events.jsonl` over a REPEAT log with seeded send perturbations.
pub struct LintLog {
    jsonl: Vec<u8>,
    /// Each perturbed send with the code it must be reported under.
    expected: Vec<(TimedSend, LintCode)>,
    reference: Option<(Vec<Diagnostic>, usize)>,
}

/// One lint-log job's output.
pub struct LintOut {
    sends: u64,
    diags: Vec<Diagnostic>,
    rendered: String,
}

impl LintLog {
    const N: usize = 5_000;
    const M: u32 = 4;
    /// Sends perturbed per log, about a tenth of them, so the report
    /// holds thousands of findings and rendering it is real work. Fixed,
    /// so every seed costs about the same.
    const PERTURBED: usize = 2_048;

    /// Perturbs `PERTURBED` distinct non-originator sends picked by the
    /// seed: even picks become self-sends (`P0004`), odd picks start at
    /// t = 0, before their sender holds the message (`P0003`).
    fn perturb(events: &mut [ObsEvent], seed: u64) -> Vec<(TimedSend, LintCode)> {
        let candidates: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, ObsEvent::Send { src, .. } if *src != 0))
            .map(|(i, _)| i)
            .collect();
        let mut rng = SplitMix(seed);
        let mut taken = vec![false; candidates.len()];
        let mut picked: Vec<usize> = Vec::with_capacity(Self::PERTURBED);
        while picked.len() < Self::PERTURBED {
            let c = rng.below(candidates.len() as u64) as usize;
            if !std::mem::replace(&mut taken[c], true) {
                picked.push(candidates[c]);
            }
        }
        picked
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let ObsEvent::Send {
                    src,
                    ref mut dst,
                    ref mut start,
                    ref mut finish,
                    ..
                } = events[i]
                else {
                    unreachable!("candidates are sends")
                };
                let code = if k % 2 == 0 {
                    *dst = src;
                    LintCode::MalformedSend
                } else {
                    *start = Time::ZERO;
                    *finish = Time::ONE;
                    LintCode::CausalityViolation
                };
                let send = TimedSend {
                    src,
                    dst: *dst,
                    send_start: *start,
                };
                (send, code)
            })
            .collect()
    }

    /// The CLI's format sniff: the first non-blank line, less a UTF-8
    /// byte-order mark, names a JSONL log by its run header.
    fn sniff(text: &[u8]) -> bool {
        const HEADER: &[u8] = br#""type":"run""#;
        let text = text.strip_prefix("\u{feff}".as_bytes()).unwrap_or(text);
        text.split(|&b| b == b'\n')
            .find(|line| !line.iter().all(u8::is_ascii_whitespace))
            .is_some_and(|line| line.windows(HEADER.len()).any(|w| w == HEADER))
    }
}

impl Workload for LintLog {
    type Out = LintOut;

    fn setup(seed: u64) -> Result<Self, String> {
        let (n, m) = (Self::N, Self::M);
        let lam = Latency::from_ratio(5, 2);
        let uni = Uniform(lam);
        let report = Simulation::new(n, &uni)
            .run(repeat_programs(n, m, lam, Pacing::PaperExact))
            .map_err(|e| format!("REPEAT run failed: {e}"))?;
        let log = log_from_report(&report, "event", n as u32, Some(lam), Some(m as u64));
        let mut events = log.events().to_vec();
        let expected = Self::perturb(&mut events, seed);
        let jsonl = to_jsonl(&ObsLog::new(log.meta().clone(), events)).into_bytes();
        Ok(LintLog {
            jsonl,
            expected,
            reference: None,
        })
    }

    fn job(&self, tap: &mut Tap) -> LintOut {
        let file = tap.call("verify.ingest", || {
            assert!(
                Self::sniff(&self.jsonl),
                "the generated log has a run header"
            );
            postal_verify::jsonl_to_schedule_file(Cursor::new(&self.jsonl[..]))
                .expect("the generated log parses")
        });
        tap.put("verify.ingest.bytes", self.jsonl.len() as f64);
        tap.put("verify.ingest.allocs", tap.last_mem().allocs as f64);
        let diags = tap.call("model.lint.batch", || {
            let opts = LintOptions::broadcast_of(file.messages.unwrap_or(1));
            let raw = lint_schedule(&file.schedule, &opts);
            postal_verify::downgrade_truncated_trace(
                postal_verify::downgrade_partial_trace(raw, file.dropped_events.unwrap_or(0)),
                file.truncated,
            )
        });
        tap.put(
            "model.lint.batch.peak_heap_mib",
            tap.last_mem().peak_bytes as f64 / MIB,
        );
        tap.put("model.lint.diagnostics", diags.len() as f64);
        let rendered = tap.call("verify.render", || {
            render::render_report(&diags, "events.jsonl")
        });
        tap.put("verify.render.bytes", rendered.len() as f64);
        LintOut {
            sends: file.schedule.len() as u64,
            diags,
            rendered,
        }
    }

    fn sends(out: &LintOut) -> u64 {
        out.sends
    }

    fn check(&mut self, out: &LintOut) -> Result<(), String> {
        let want_sends = Self::M as u64 * (Self::N as u64 - 1);
        ensure(out.sends == want_sends, || {
            format!("ingested {} sends, the log holds {want_sends}", out.sends)
        })?;
        if let Some((diags, bytes)) = &self.reference {
            return ensure(*diags == out.diags && *bytes == out.rendered.len(), || {
                format!(
                    "report changed between jobs: {} then {} diagnostics",
                    diags.len(),
                    out.diags.len()
                )
            });
        }
        for (send, code) in &self.expected {
            let found = out
                .diags
                .iter()
                .any(|d| d.code == *code && d.sends.contains(send));
            ensure(found, || {
                format!("perturbed send {send:?} is not reported under {code}")
            })?;
        }
        self.reference = Some((out.diags.clone(), out.rendered.len()));
        Ok(())
    }
}

// ---------------------------------------------------------------- record-export

/// `simulate pipeline N 8 7/3 --events-out --trace-out --metrics-out`,
/// with the outputs kept in memory.
pub struct RecordExport {
    n: usize,
    m: u32,
    lam: Latency,
    reference: Option<(Time, String, usize, usize)>,
}

/// One record-export job's output.
pub struct ExportOut {
    completion: Time,
    violations: usize,
    sends: u64,
    jsonl: String,
    chrome: String,
    prom: String,
}

impl RecordExport {
    const BASE_N: usize = 2_000;
}

impl Workload for RecordExport {
    type Out = ExportOut;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(RecordExport {
            n: Self::BASE_N + SplitMix(seed).below(16) as usize,
            m: 8,
            lam: Latency::from_ratio(7, 3),
            reference: None,
        })
    }

    fn job(&self, tap: &mut Tap) -> ExportOut {
        let (n, m, lam) = (self.n, self.m, self.lam);
        let programs = tap.call("algos.build", || pipeline_programs(n, m, lam));
        tap.put("algos.allocs", tap.last_mem().allocs as f64);
        let totals = Rc::new(CallTotals::default());
        let programs: Vec<Box<dyn Program<_>>> = if tap.traced() {
            tap.call("trace.wrap", || time_programs(programs, &totals))
        } else {
            programs
        };
        let uni = Uniform(lam);
        let report = tap
            .call("sim.run", || Simulation::new(n, &uni).run(programs))
            .expect("PIPELINE cannot diverge");
        let sends = report.messages() as u64;
        if tap.traced() {
            record_sim(tap, &report, sends, &totals, 0);
        }
        let log = tap.call("obs.log", || {
            log_from_report(&report, "event", n as u32, Some(lam), Some(m as u64))
        });
        tap.put("obs.log.events", log.len() as f64);
        let jsonl = tap.call("obs.export.jsonl", || to_jsonl(&log));
        let chrome = tap.call("obs.export.chrome", || to_chrome_trace(&log));
        let prom = tap.call("obs.export.prom", || to_prometheus(&log));
        tap.put("obs.export.jsonl_bytes", jsonl.len() as f64);
        tap.put("obs.export.chrome_bytes", chrome.len() as f64);
        tap.put("obs.export.prom_bytes", prom.len() as f64);
        ExportOut {
            completion: report.completion,
            violations: report.violations.len(),
            sends,
            jsonl,
            chrome,
            prom,
        }
    }

    fn sends(out: &ExportOut) -> u64 {
        out.sends
    }

    fn check(&mut self, out: &ExportOut) -> Result<(), String> {
        ensure(out.violations == 0, || {
            format!("{} strict-port violations", out.violations)
        })?;
        let want_sends = self.m as u64 * (self.n as u64 - 1);
        ensure(out.sends == want_sends, || {
            format!(
                "PIPELINE made {} sends, expected m·(n − 1) = {want_sends}",
                out.sends
            )
        })?;
        if let Some((completion, jsonl, chrome, prom)) = &self.reference {
            return ensure(
                *completion == out.completion
                    && *jsonl == out.jsonl
                    && *chrome == out.chrome.len()
                    && *prom == out.prom.len(),
                || "completion or export output changed between jobs".to_string(),
            );
        }
        let reparsed = postal_verify::schedule_from_jsonl(&out.jsonl)
            .map_err(|e| format!("exported JSONL does not re-parse: {e}"))?;
        ensure(reparsed.len() as u64 == want_sends, || {
            format!("exported JSONL re-parses to {} sends", reparsed.len())
        })?;
        self.reference = Some((
            out.completion,
            out.jsonl.clone(),
            out.chrome.len(),
            out.prom.len(),
        ));
        Ok(())
    }
}
