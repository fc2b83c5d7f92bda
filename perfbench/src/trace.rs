//! The traced run's instruments: spans around each call into a layer,
//! and timing wrappers for the calls the engine makes many times per
//! job (program callbacks, their `Context` calls, lint-sink records).
//!
//! Spans are kept in memory and written out once, as Chrome trace-event
//! JSON, when the run ends. The per-event wrappers would make millions
//! of spans per job, so they add into counters instead; each job's
//! totals are attached to its `sim.run` span.

use crate::alloc::{measure, MemUse};
use postal_model::Time;
use postal_obs::{ObsEvent, Recorder};
use postal_sim::{Context, ProcId, Program};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub job: u32,
    /// Counters of the call: its allocations and peak bytes, and for
    /// `sim.run` the totals of the per-event wrappers inside it.
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans for the traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    /// Tags the spans that follow with `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span called `name` inside the innermost open span and
    /// returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
            args: Vec::new(),
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        idx
    }

    /// Closes span `idx`, which must be the innermost open span.
    pub fn end(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now_ns();
        let closed = self.open.pop();
        assert_eq!(closed, Some(idx), "spans must close innermost first");
    }

    /// Attaches a counter total to span `idx`.
    pub fn arg(&mut self, idx: usize, key: &'static str, value: u64) {
        self.spans[idx].args.push((key, value));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall time of span `idx` minus the time of its child spans and of
    /// the per-event wrapper totals in `nested` (names of its args).
    pub fn self_ns(&self, idx: usize, nested: &[&str]) -> u64 {
        let span = &self.spans[idx];
        let children: u64 = self.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        let wrapped: u64 = span
            .args
            .iter()
            .filter(|(k, _)| nested.contains(k))
            .map(|&(_, v)| v)
            .sum();
        span.dur_ns().saturating_sub(children + wrapped)
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, microsecond timestamps.
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"job\":{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.job
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "\n],\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed}}}}}\n"
        );
        out
    }
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A job's view of the instruments. Off in the timed run, where every
/// call goes straight through; on in the traced run, where each call
/// into a layer becomes a span with its memory use and its figures go
/// into [`Tap::layers`].
pub struct Tap<'t> {
    tracer: Option<&'t mut Tracer>,
    /// The job's per-layer figures, by metric name.
    pub layers: BTreeMap<String, f64>,
    last: Option<(usize, MemUse)>,
}

impl<'t> Tap<'t> {
    /// No instruments.
    pub fn off() -> Tap<'static> {
        Tap {
            tracer: None,
            layers: BTreeMap::new(),
            last: None,
        }
    }

    /// Spans into `tracer`.
    pub fn on(tracer: &'t mut Tracer) -> Tap<'t> {
        Tap {
            tracer: Some(tracer),
            layers: BTreeMap::new(),
            last: None,
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Runs `f` as one call into a layer. Traced, the call becomes a
    /// span named `span` and its wall time is recorded as `{span}_ms`.
    pub fn call<T>(&mut self, span: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(tr) = self.tracer.as_deref_mut() else {
            return f();
        };
        let idx = tr.begin(span);
        let (out, mem) = measure(f);
        tr.end(idx);
        tr.arg(idx, "allocs", mem.allocs);
        tr.arg(idx, "peak_bytes", mem.peak_bytes);
        let dur = tr.spans()[idx].dur_ns();
        self.layers.insert(format!("{span}_ms"), ms(dur));
        self.last = Some((idx, mem));
        out
    }

    /// Memory used by the last [`Tap::call`] (zero when untraced).
    pub fn last_mem(&self) -> MemUse {
        self.last.map_or(
            MemUse {
                peak_bytes: 0,
                allocs: 0,
            },
            |(_, m)| m,
        )
    }

    /// Attaches a counter total to the last [`Tap::call`]'s span.
    pub fn arg(&mut self, key: &'static str, value: u64) {
        if let (Some(tr), Some((idx, _))) = (self.tracer.as_deref_mut(), self.last) {
            tr.arg(idx, key, value);
        }
    }

    /// Self time of the last [`Tap::call`]'s span in milliseconds: its
    /// wall time minus child spans and the wrapper totals named in
    /// `nested` (zero when untraced).
    pub fn last_self_ms(&self, nested: &[&str]) -> f64 {
        match (self.tracer.as_deref(), self.last) {
            (Some(tr), Some((idx, _))) => ms(tr.self_ns(idx, nested)),
            _ => 0.0,
        }
    }

    /// Records a per-layer figure (ignored when untraced).
    pub fn put(&mut self, key: &str, value: f64) {
        if self.traced() {
            self.layers.insert(key.to_string(), value);
        }
    }
}

/// Running totals of the per-event wrappers, shared by every wrapped
/// program of one job.
#[derive(Debug, Default)]
pub struct CallTotals {
    /// Nanoseconds inside program callbacks, `Context` calls included.
    pub program_ns: Cell<u64>,
    /// Program callbacks made.
    pub program_calls: Cell<u64>,
    /// Nanoseconds inside `Context::send` / `Context::wake_at`.
    pub ctx_ns: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// Wraps every program so its callbacks, and the `Context` calls made
/// from them, are timed into `totals`.
pub fn time_programs<P: 'static>(
    programs: Vec<Box<dyn Program<P>>>,
    totals: &Rc<CallTotals>,
) -> Vec<Box<dyn Program<P>>> {
    programs
        .into_iter()
        .map(|inner| {
            Box::new(TimedProgram {
                inner,
                totals: Rc::clone(totals),
            }) as Box<dyn Program<P>>
        })
        .collect()
}

struct TimedProgram<P> {
    inner: Box<dyn Program<P>>,
    totals: Rc<CallTotals>,
}

impl<P> TimedProgram<P> {
    fn call(
        &mut self,
        ctx: &mut dyn Context<P>,
        f: impl FnOnce(&mut dyn Program<P>, &mut dyn Context<P>),
    ) {
        let t0 = Instant::now();
        let mut timed = TimedCtx {
            inner: ctx,
            totals: &self.totals,
        };
        f(self.inner.as_mut(), &mut timed);
        add(&self.totals.program_ns, t0.elapsed().as_nanos() as u64);
        add(&self.totals.program_calls, 1);
    }
}

impl<P> Program<P> for TimedProgram<P> {
    fn on_start(&mut self, ctx: &mut dyn Context<P>) {
        self.call(ctx, |p, c| p.on_start(c));
    }

    fn on_receive(&mut self, ctx: &mut dyn Context<P>, from: ProcId, payload: P) {
        self.call(ctx, |p, c| p.on_receive(c, from, payload));
    }

    fn on_wake(&mut self, ctx: &mut dyn Context<P>) {
        self.call(ctx, |p, c| p.on_wake(c));
    }
}

struct TimedCtx<'a, P> {
    inner: &'a mut dyn Context<P>,
    totals: &'a CallTotals,
}

impl<P> Context<P> for TimedCtx<'_, P> {
    fn me(&self) -> ProcId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn now(&self) -> Time {
        self.inner.now()
    }

    fn send(&mut self, dst: ProcId, payload: P) {
        let t0 = Instant::now();
        self.inner.send(dst, payload);
        add(&self.totals.ctx_ns, t0.elapsed().as_nanos() as u64);
    }

    fn wake_at(&mut self, t: Time) {
        let t0 = Instant::now();
        self.inner.wake_at(t);
        add(&self.totals.ctx_ns, t0.elapsed().as_nanos() as u64);
    }
}

/// A [`Recorder`] that times every `record` call of the recorder it
/// wraps. `Recorder` must be `Sync`, hence atomics.
pub struct TimedRecorder<'a> {
    inner: &'a dyn Recorder,
    /// Nanoseconds inside the wrapped recorder.
    pub ns: AtomicU64,
    /// Events recorded.
    pub events: AtomicU64,
}

impl<'a> TimedRecorder<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn Recorder) -> TimedRecorder<'a> {
        TimedRecorder {
            inner,
            ns: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }
}

impl Recorder for TimedRecorder<'_> {
    fn record(&self, event: ObsEvent) {
        let t0 = Instant::now();
        self.inner.record(event);
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}
