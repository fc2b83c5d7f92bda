//! `simulate` and `stats`: one named algorithm on the event simulator,
//! with its exports and its sampled log; `simulate --lint-inline` runs
//! the streaming linter inside the run instead of storing the trace.

use crate::args::{Args, Command, Kind, M, N};
use crate::lint::{downgrade, lint_stream};
use crate::CliError;
use postal_algos::dtree::dtree_programs;
use postal_algos::ext::{combine, gossip, scatter};
use postal_algos::pack::pack_programs;
use postal_algos::pipeline::pipeline_programs;
use postal_algos::repeat::repeat_programs;
use postal_algos::{bcast_programs, Pacing};
use postal_model::{runtimes, Latency, Time, Topology};
use postal_obs::{
    to_chrome_trace, to_jsonl, to_prometheus, LintSink, MetricsSummary, ObsLog, Recorder,
    RingRecorder, RunMeta, SampleSpec,
};
use postal_sim::{events_from_report, Program, RunReport, Simulation, Uniform};
use postal_verify::{json, render, LintOptions, Severity};
use std::fmt::Write as _;

/// The ring reserves 16 shards × K events of 128 bytes up front, so
/// K ≤ 2^20 caps that reservation at 2 GiB.
const RING_CAPACITY: Kind = Kind::Int(1, 1 << 20);

pub(crate) const SIMULATE: Command = Command {
    name: "simulate",
    args: &[
        ("algo", Kind::Value),
        ("n", N),
        ("m", M),
        ("lambda", Kind::Value),
        ("--trace-out", Kind::Value),
        ("--events-out", Kind::Value),
        ("--metrics-out", Kind::Value),
        ("--format", Kind::Value),
        ("--sample", Kind::Value),
        ("--ring-capacity", RING_CAPACITY),
        ("--lint-inline", Kind::Switch),
        ("--topology", Kind::Value),
    ],
    run: simulate,
};

/// `stats` takes every `simulate` argument but the last two.
pub(crate) const STATS: Command = Command {
    name: "stats",
    args: SIMULATE.args.split_at(10).0,
    run: stats,
};

/// An export flag, what it writes, and its writer.
type Export = (&'static str, &'static str, fn(&ObsLog) -> String);

const EXPORTS: [Export; 3] = [
    ("--trace-out", "Chrome trace", to_chrome_trace),
    ("--events-out", "JSONL event log", to_jsonl),
    ("--metrics-out", "Prometheus metrics", to_prometheus),
];

/// One `<algo> <n> <m> <lambda>` workload.
#[derive(Clone, Copy)]
struct Workload<'a> {
    algo: &'a str,
    n: usize,
    m: u32,
    lam: Latency,
}

/// Where a run's event log goes.
enum LogTo {
    /// Nothing reads it, so it is not built.
    Nowhere,
    /// Every event, in one [`ObsLog`].
    Memory,
    /// The events, offered in timeline order to the sampling ring,
    /// whose sample becomes the log.
    Ring(RingRecorder),
}

/// The program set of one of the paper's broadcasts, whatever its
/// payload (`BcastPayload` for `bcast`, `MultiPacket` for the others).
trait ProgramSet {
    /// Runs the set on `sim`: hitting the event cap is a located error.
    fn run(self: Box<Self>, sim: &Simulation, w: Workload, log: LogTo) -> Result<Ran, CliError>;
}

impl<P: Clone> ProgramSet for Vec<Box<dyn Program<P>>> {
    fn run(self: Box<Self>, sim: &Simulation, w: Workload, log: LogTo) -> Result<Ran, CliError> {
        let report = sim
            .run(*self)
            .map_err(|e| CliError::Invalid(format!("simulation failed: {e}")))?;
        Ok(w.summarize(&report, log))
    }
}

/// What `simulate` and `stats` report of one finished run.
struct Ran {
    completion: Time,
    messages: usize,
    violations: usize,
    edge_violations: usize,
    /// The run's event log, built only when something reads it.
    log: Option<ObsLog>,
    /// Algorithm-specific trailing line (e.g. combine's root total).
    extra: Option<String>,
}

impl<'a> Workload<'a> {
    fn from_args(a: &Args<'a>) -> Result<Workload<'a>, CliError> {
        Ok(Workload {
            algo: a.text("algo")?,
            n: a.int("n")? as usize,
            m: a.int("m")? as u32,
            lam: a.lambda("lambda")?,
        })
    }

    /// The one `<algo>` table: the program set a broadcast names, or
    /// `None` for a collective (`combine`, `gossip`, `scatter`).
    fn programs(self) -> Result<Option<Box<dyn ProgramSet>>, CliError> {
        let Workload { algo, n, m, lam } = self;
        let set: Box<dyn ProgramSet> = match algo {
            "bcast" => Box::new(bcast_programs(n, lam)),
            "repeat" => Box::new(repeat_programs(n, m, lam, Pacing::PaperExact)),
            "repeat-greedy" => Box::new(repeat_programs(n, m, lam, Pacing::Greedy)),
            "pack" => Box::new(pack_programs(n, m, lam)),
            "pipeline" => Box::new(pipeline_programs(n, m, lam)),
            "line" => Box::new(dtree_programs(n, m, 1)),
            "binary" => Box::new(dtree_programs(n, m, 2)),
            "star" if n < 2 => return Err(CliError::Invalid("star needs n ≥ 2".into())),
            "star" => Box::new(dtree_programs(n, m, n as u64 - 1)),
            "combine" | "gossip" | "scatter" => return Ok(None),
            _ => {
                let unknown =
                    || format!("unknown algorithm {algo:?} (see `postal-cli` for the list)");
                let d = algo
                    .strip_prefix("dtree:")
                    .ok_or_else(unknown)
                    .map_err(CliError::Invalid)?;
                let d = d.parse().ok().filter(|&d| d >= 1).ok_or_else(|| {
                    CliError::Invalid(format!("bad algo {algo:?}: expected dtree:<d>, d ≥ 1"))
                })?;
                Box::new(dtree_programs(n, m, d))
            }
        };
        Ok(Some(set))
    }

    /// Runs the workload with its trace stored, and builds its log as
    /// `log` says. Sends across non-edges of `topo` are counted.
    fn run(self, log: LogTo, topo: Option<&Topology>) -> Result<Ran, CliError> {
        let model = Uniform(self.lam);
        let mut sim = Simulation::new(self.n, &model);
        if let Some(t) = topo {
            sim = sim.restrict_to(t);
        }
        if let Some(programs) = self.programs()? {
            return programs.run(&sim, self, log);
        }
        let values: Vec<u64> = (0..self.n as u64).collect();
        Ok(match self.algo {
            "combine" => {
                let o = combine::run_combine(&values, self.lam);
                Ran {
                    extra: Some(format!("root total: {}", o.root_total)),
                    ..self.collective(&o.report, log, topo)
                }
            }
            "gossip" => {
                let report = gossip::run_gossip(&values, self.lam).report;
                self.collective(&report, log, topo)
            }
            _ => self.collective(&scatter::run_scatter(&values, self.lam), log, topo),
        })
    }

    /// A collective runs through its own helper, whose simulation is not
    /// restricted to `topo`: its non-edge sends are counted on the trace.
    fn collective<P>(self, report: &RunReport<P>, log: LogTo, topo: Option<&Topology>) -> Ran {
        let off = |t: &Topology| {
            let transfers = report.trace.transfers().iter();
            transfers.filter(|x| !t.is_edge(x.src.0, x.dst.0)).count()
        };
        Ran {
            edge_violations: topo.map_or(0, off),
            ..self.summarize(report, log)
        }
    }

    fn summarize<P>(self, report: &RunReport<P>, log: LogTo) -> Ran {
        let (n, m) = (self.n as u32, u64::from(self.m));
        let meta = || RunMeta::new("event", n).latency(self.lam).messages(m);
        let log = match log {
            LogTo::Nowhere => None,
            LogTo::Memory => Some(ObsLog::new(meta(), events_from_report(report).collect())),
            LogTo::Ring(ring) => {
                events_from_report(report).for_each(|e| ring.record(e));
                Some(ring.into_log(meta()))
            }
        };
        Ran {
            completion: report.completion,
            messages: report.messages(),
            violations: report.violations.len(),
            edge_violations: report.edge_violations.len(),
            log,
            extra: None,
        }
    }
}

/// The sharded ring recorder `--sample` or `--ring-capacity` asks for.
fn ring(a: &Args) -> Result<Option<RingRecorder>, CliError> {
    let (spec, cap) = (a.sample()?, a.opt_int("--ring-capacity")?);
    Ok((spec.is_some() || cap.is_some()).then(|| {
        let cap = cap.map_or(postal_obs::ring::DEFAULT_CAPACITY, |k| k as usize);
        RingRecorder::with_spec(cap, spec.unwrap_or_else(SampleSpec::all))
    }))
}

/// Runs the workload for `simulate` or `stats`. The log is built when
/// `always_log`, an exporter or the ring reads it. With the ring, the
/// run's events are recorded through it in timeline order, one at a
/// time, so what the exporters see went down the same `record()` path
/// a live sampled run would use — including honest drop accounting in
/// the metadata — and the whole log is never held. Returns one note per
/// file written.
fn observe(
    a: &Args,
    w: Workload,
    always_log: bool,
    topo: Option<&Topology>,
) -> Result<(Ran, Vec<String>), CliError> {
    let exporting = EXPORTS.iter().any(|(flag, ..)| a.get(flag).is_some());
    let log = match ring(a)? {
        Some(ring) => LogTo::Ring(ring),
        None if always_log || exporting => LogTo::Memory,
        None => LogTo::Nowhere,
    };
    let ran = w.run(log, topo)?;
    let mut notes = Vec::new();
    for (flag, what, export) in EXPORTS {
        if let (Some(p), Some(log)) = (a.get(flag), &ran.log) {
            std::fs::write(p, export(log))
                .map_err(|e| CliError::Invalid(format!("cannot write {p}: {e}")))?;
            notes.push(format!("wrote {what} to {p}"));
        }
    }
    Ok((ran, notes))
}

/// The fields every `simulate` and `stats` JSON summary opens with.
fn json_head(command: &str, w: Workload) -> String {
    let Workload { algo, n, m, lam } = w;
    format!(
        "{{\n  \"command\": \"{command}\",\n  \"algo\": \"{algo}\",\n  \"n\": {n},\n  \
         \"m\": {m},\n  \"lambda\": \"{lam}\",\n"
    )
}

fn simulate(a: &Args) -> Result<String, CliError> {
    let w = Workload::from_args(a)?;
    let (algo, n, m, lam) = (w.algo, w.n, w.m, w.lam);
    let topo = a.topology(n as u32)?;
    let as_json = a.json()?;
    if a.get("--lint-inline").is_some() {
        return lint_inline(a, w, topo.as_ref(), as_json);
    }
    let (ran, notes) = observe(a, w, false, topo.as_ref())?;
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    let topology = a.get("--topology");
    // Set only when the ring recorded the log.
    let sampled = ran.log.as_ref().and_then(|log| {
        let meta = log.meta();
        let dropped = meta.dropped_events.unwrap_or(0);
        meta.sample
            .clone()
            .map(|s| (s, log.events().len(), dropped))
    });
    if as_json {
        let mut out = json_head("simulate", w);
        let _ = writeln!(out, "  \"completion\": \"{}\",", ran.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", ran.completion.to_f64());
        let _ = writeln!(out, "  \"messages\": {},", ran.messages);
        let _ = writeln!(out, "  \"violations\": {},", ran.violations);
        if let Some(spec) = topology {
            let _ = writeln!(out, "  \"topology\": \"{spec}\",");
            let _ = writeln!(out, "  \"edge_violations\": {},", ran.edge_violations);
        }
        if let Some((s, recorded, dropped)) = &sampled {
            let _ = writeln!(out, "  \"sample\": \"{s}\",");
            let _ = writeln!(out, "  \"recorded_events\": {recorded},");
            let _ = writeln!(out, "  \"dropped_events\": {dropped},");
        }
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\"");
        out.push('}');
        return Ok(out);
    }
    let mut out = format!(
        "algorithm: {algo}\nn = {n}, m = {m}, λ = {lam}\ncompletion: {} units\n\
         messages:  {}\nmodel violations: {}\nlower bound (Lemma 8): {lb}",
        ran.completion, ran.messages, ran.violations
    );
    if let Some(spec) = topology {
        let _ = write!(
            out,
            "\nedge violations ({spec} topology): {}",
            ran.edge_violations
        );
    }
    if let Some((s, recorded, dropped)) = &sampled {
        let _ = write!(
            out,
            "\nsampling: {s} — recorded {recorded} events, dropped {dropped}"
        );
    }
    if let Some(extra) = &ran.extra {
        let _ = write!(out, "\n{extra}");
    }
    for note in notes {
        let _ = write!(out, "\n{note}");
    }
    Ok(out)
}

/// The `simulate --lint-inline` path: runs the algorithm with the trace
/// discarded as it is generated and the streaming lint engine attached
/// as the run's recorder, so a million-processor run is linted in O(n)
/// memory with no stored trace. Applies the same default gate as `lint`
/// (fail on any error diagnostic).
///
/// Unsampled runs attach a [`LintSink`] directly — the engine's live
/// emission order drives the watermark. Sampled runs route events
/// through the ring recorder exactly like a plain `--sample` run, then
/// replay the surviving snapshot through the streaming linter; the drop
/// count feeds the partial-trace downgrades.
fn lint_inline(
    a: &Args,
    w: Workload,
    topo: Option<&Topology>,
    as_json: bool,
) -> Result<String, CliError> {
    if EXPORTS.iter().any(|(flag, ..)| a.get(flag).is_some()) {
        return Err(CliError::Invalid(
            "--lint-inline discards the trace as it runs; \
             --trace-out/--events-out/--metrics-out need a recorded log"
                .into(),
        ));
    }
    let (algo, n, m, lam) = (w.algo, w.n, w.m, w.lam);
    let programs = w.programs()?.ok_or_else(|| {
        CliError::Invalid(format!(
            "--lint-inline checks the broadcast contract (P0003/P0005/P0007); \
             {algo} is not a broadcast — run it without --lint-inline"
        ))
    })?;
    let model = Uniform(lam);
    let run = |recorder: &dyn Recorder| -> Result<Ran, CliError> {
        let mut sim = Simulation::new(n, &model).observe(recorder).discard_trace();
        if let Some(t) = topo {
            sim = sim.restrict_to(t);
        }
        programs.run(&sim, w, LogTo::Nowhere)
    };
    let (ran, stream, dropped, sample) = match ring(a)? {
        Some(ring) => {
            let ran = run(&ring)?;
            // `into_log` sorts the snapshot by `at()`.
            let log = ring.into_log(RunMeta::new("event", n as u32));
            let mut stream = lint_stream(n as u32, lam, m.into(), topo);
            for ev in log.events() {
                stream.on_event(ev);
            }
            let meta = log.meta();
            let (dropped, sample) = (meta.dropped_events.unwrap_or(0), meta.sample.clone());
            (ran, stream, dropped, sample)
        }
        None => {
            let opts = LintOptions::broadcast_of(m.into());
            let sink = match topo {
                Some(t) => LintSink::with_topology(n as u32, lam, opts, t),
                None => LintSink::new(n as u32, lam, opts),
            };
            (run(&sink)?, sink.finish(), 0, None)
        }
    };
    if stream.out_of_order() {
        return Err(CliError::Invalid(
            "internal: the engine fed the inline linter out of order; \
             re-run without --lint-inline and report this"
                .into(),
        ));
    }
    let truncated = stream.truncated();
    let linter_bytes = stream.memory_bytes();
    let sends = stream.sends_observed();
    let diags = downgrade(stream.finish(), dropped, truncated);
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    let topology = a.get("--topology");
    let report = if as_json {
        let mut out = json_head("simulate", w);
        let _ = writeln!(out, "  \"lint_inline\": true,");
        let _ = writeln!(out, "  \"completion\": \"{}\",", ran.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", ran.completion.to_f64());
        let _ = writeln!(out, "  \"sends\": {sends},");
        let _ = writeln!(out, "  \"violations\": {},", ran.violations);
        if let Some(spec) = topology {
            let _ = writeln!(out, "  \"topology\": \"{spec}\",");
            let _ = writeln!(out, "  \"edge_violations\": {},", ran.edge_violations);
        }
        if let Some(s) = &sample {
            let _ = writeln!(out, "  \"sample\": \"{s}\",");
            let _ = writeln!(out, "  \"dropped_events\": {dropped},");
        }
        let _ = writeln!(out, "  \"truncated\": {truncated},");
        let _ = writeln!(out, "  \"linter_memory_bytes\": {linter_bytes},");
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\",");
        let _ = writeln!(
            out,
            "  \"diagnostics\": {}",
            json::diagnostics_to_json(&diags).trim_end()
        );
        out.push('}');
        out
    } else {
        let mut out = format!(
            "algorithm: {algo}\nn = {n}, m = {m}, λ = {lam}\ncompletion: {} units\n\
             sends:     {sends}\nmodel violations: {}\nlower bound (Lemma 8): {lb}\n",
            ran.completion, ran.violations
        );
        if let Some(spec) = topology {
            let _ = writeln!(
                out,
                "edge violations ({spec} topology): {}",
                ran.edge_violations
            );
        }
        let _ = writeln!(
            out,
            "inline lint: {} diagnostic(s) — linter memory {} KiB, no stored trace",
            diags.len(),
            linter_bytes.div_ceil(1024),
        );
        if let Some(s) = &sample {
            let _ = writeln!(
                out,
                "sampling: {s} — {dropped} events dropped; absence lints downgraded"
            );
        }
        if !diags.is_empty() {
            out.push('\n');
            out.push_str(&render::render_report(&diags, algo));
        }
        out
    };
    if diags.iter().any(|d| d.severity >= Severity::Error) {
        Err(CliError::LintFailed(report))
    } else {
        Ok(report)
    }
}

/// How many per-processor rows `stats` prints before eliding the rest.
const STATS_UTILIZATION_ROWS: usize = 16;

fn stats(a: &Args) -> Result<String, CliError> {
    let w = Workload::from_args(a)?;
    let (algo, n, m, lam) = (w.algo, w.n, w.m, w.lam);
    let as_json = a.json()?;
    let (ran, notes) = observe(a, w, true, None)?;
    let s = MetricsSummary::from_log(ran.log.as_ref().expect("stats always builds the log"));
    let lb = runtimes::multi_lower_bound(n as u128, m as u64, lam);
    // For a single message the paper's exact optimum f_λ(n) is known
    // (Theorem 6); report the gap against it rather than the looser
    // multi-message lower bound.
    let optimum = (m == 1).then(|| runtimes::bcast_time(n as u128, lam));
    let ratio = |target: Time| ran.completion.to_f64() / target.to_f64().max(1e-9);
    if as_json {
        let mut out = json_head("stats", w);
        let _ = writeln!(out, "  \"completion\": \"{}\",", ran.completion);
        let _ = writeln!(out, "  \"completion_units\": {},", ran.completion.to_f64());
        if let Some(f) = optimum {
            let _ = writeln!(out, "  \"bcast_optimum\": \"{f}\",");
            let _ = writeln!(out, "  \"optimality_ratio\": {},", ratio(f));
        }
        let _ = writeln!(out, "  \"lower_bound\": \"{lb}\",");
        let _ = writeln!(out, "  \"sends\": {},", s.total_sends());
        let _ = writeln!(out, "  \"deliveries\": {},", s.total_recvs());
        let _ = writeln!(out, "  \"queued_recvs\": {},", s.queued_recvs);
        let _ = writeln!(out, "  \"violations\": {},", s.violations);
        let _ = writeln!(out, "  \"drops\": {},", s.drops);
        let _ = writeln!(out, "  \"crashes\": {},", s.crashes);
        let _ = writeln!(out, "  \"wakes\": {},", s.wakes);
        let _ = writeln!(out, "  \"dropped_events\": {},", s.dropped_events);
        if let Some(spec) = &s.sample {
            let _ = writeln!(out, "  \"sample\": \"{spec}\",");
        }
        let _ = writeln!(out, "  \"mean_latency_units\": {},", s.latency.mean());
        let _ = writeln!(
            out,
            "  \"latency_quantiles_units\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.latency_quantile(0.5),
            s.latency_quantile(0.9),
            s.latency_quantile(0.99)
        );
        let _ = writeln!(
            out,
            "  \"queue_delay_quantiles_units\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.queue_delay_quantile(0.5),
            s.queue_delay_quantile(0.9),
            s.queue_delay_quantile(0.99)
        );
        let _ = writeln!(
            out,
            "  \"out_utilization_quantiles\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},",
            s.out_utilization_quantile(0.5),
            s.out_utilization_quantile(0.9),
            s.out_utilization_quantile(0.99)
        );
        let _ = writeln!(out, "  \"idle_out_units\": {},", s.idle_out_units());
        let util: Vec<String> = (0..n)
            .map(|p| {
                let (o, i) = s.utilization(p);
                format!("[{o:.4}, {i:.4}]")
            })
            .collect();
        let _ = writeln!(out, "  \"utilization\": [{}]", util.join(", "));
        out.push('}');
        return Ok(out);
    }
    let mut out = String::new();
    let _ = writeln!(out, "stats: {algo} on MPS({n}, {lam}), m = {m}\n");
    let _ = writeln!(
        out,
        "completion:            {} units ({:.3})",
        ran.completion,
        ran.completion.to_f64()
    );
    if let Some(f) = optimum {
        let _ = writeln!(out, "f_λ(n) optimum:        {f} ({:.2}× optimal)", ratio(f));
    }
    let _ = writeln!(out, "lower bound (Lemma 8): {lb}");
    let _ = writeln!(
        out,
        "sends: {}   deliveries: {}   queued: {}   violations: {}",
        s.total_sends(),
        s.total_recvs(),
        s.queued_recvs,
        s.violations
    );
    if s.drops + s.crashes > 0 {
        let _ = writeln!(out, "drops: {}   crashes: {}", s.drops, s.crashes);
    }
    if s.is_partial() {
        let _ = writeln!(
            out,
            "recorder: PARTIAL trace — {} events dropped (sample: {}); counts are lower bounds",
            s.dropped_events,
            s.sample.as_deref().unwrap_or("none")
        );
    }
    let _ = writeln!(
        out,
        "mean end-to-end latency: {:.3} units",
        s.latency.mean()
    );
    let _ = writeln!(
        out,
        "latency p50/p90/p99:     {:.3} / {:.3} / {:.3} units",
        s.latency_quantile(0.5),
        s.latency_quantile(0.9),
        s.latency_quantile(0.99)
    );
    let _ = writeln!(
        out,
        "queue delay p50/p99:     {:.3} / {:.3} units",
        s.queue_delay_quantile(0.5),
        s.queue_delay_quantile(0.99)
    );
    let _ = writeln!(
        out,
        "idle-port waste (cf. lint P0006): {:.3} sender-units",
        s.idle_out_units()
    );
    let _ = writeln!(out, "\nper-processor port utilization (out% / in%):");
    for p in 0..n.min(STATS_UTILIZATION_ROWS) {
        let (o, i) = s.utilization(p);
        let _ = writeln!(out, "  p{p:<4} {:>3.0} / {:>3.0}", o * 100.0, i * 100.0);
    }
    if n > STATS_UTILIZATION_ROWS {
        let _ = writeln!(out, "  … and {} more", n - STATS_UTILIZATION_ROWS);
    }
    for note in notes {
        let _ = writeln!(out, "{note}");
    }
    Ok(out)
}
