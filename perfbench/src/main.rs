//! The toolkit's benchmark: one workload per run, single process, single
//! thread, closed loop (one job at a time, the next starting when the
//! previous returns).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload inline-bcast --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced jobs, reports the per-layer metrics and
//! writes the spans as Chrome trace-event JSON under `.bench_build/`.
//! The last line of standard output is the result as one JSON object.
//! See `perfbench/README.md` for what each metric means.

mod alloc;
mod reference;
mod trace;
mod workloads;

use alloc::MemProbe;
use reference::Reference;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Tap, Tracer};
use workloads::{InlineBcast, LintLog, RecordExport, Workload};

const WORKLOADS: [&str; 3] = ["inline-bcast", "lint-log", "record-export"];

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 10;

const MIB: f64 = 1024.0 * 1024.0;

/// Per-layer metrics and their units. A `_ms` metric is the median over
/// the traced jobs; every other one is an exact count that must repeat
/// in every job. A layer the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("algos.build_ms", "ms"),
    ("algos.allocs", "count"),
    ("sim.run_ms", "ms"),
    ("sim.engine.self_ms", "ms"),
    ("sim.program.self_ms", "ms"),
    ("sim.program.calls", "count"),
    ("sim.events", "count"),
    ("sim.sends", "count"),
    ("sim.events_per_send", "ratio"),
    ("sim.allocs", "count"),
    ("obs.sink.record_ms", "ms"),
    ("obs.sink.events", "count"),
    ("obs.sink.finish_ms", "ms"),
    ("model.lint.stream.mib", "MiB"),
    ("obs.log_ms", "ms"),
    ("obs.log.events", "count"),
    ("obs.export.jsonl_ms", "ms"),
    ("obs.export.chrome_ms", "ms"),
    ("obs.export.prom_ms", "ms"),
    ("obs.export.jsonl_bytes", "bytes"),
    ("obs.export.chrome_bytes", "bytes"),
    ("obs.export.prom_bytes", "bytes"),
    ("verify.ingest_ms", "ms"),
    ("verify.ingest.bytes", "bytes"),
    ("verify.ingest.allocs", "count"),
    ("model.lint.batch_ms", "ms"),
    ("model.lint.batch.peak_heap_mib", "MiB"),
    ("model.lint.diagnostics", "count"),
    ("verify.render_ms", "ms"),
    ("verify.render.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&WORKLOADS.join(" | ")));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Jobs that ran and what they cost.
#[derive(Default)]
struct Phase {
    job_secs: Vec<f64>,
    /// Per job, the host-speed reference timed right before it.
    ref_secs: Vec<f64>,
    sends: u64,
    failed: u64,
    /// The first untraced job's exact memory counts; every later one
    /// must repeat them.
    mem: Option<alloc::MemUse>,
    /// Per traced job, the per-layer figures.
    layers: Vec<BTreeMap<String, f64>>,
}

impl Phase {
    fn fail(&mut self, workload: &str, job: usize, why: &str) {
        if self.failed == 0 {
            eprintln!("{workload}: job {job} failed: {why}");
        }
        self.failed += 1;
    }

    fn p50_ms(&self) -> f64 {
        median(&mut self.job_secs.clone()) * 1e3
    }

    /// Job times in seconds on the reference host: each job's wall time
    /// scaled by the reference timed next to it.
    fn nominal_secs(&self) -> Vec<f64> {
        scale(&self.job_secs, &self.ref_secs)
    }
}

/// `secs[i]` as it would read on the host where the reference takes
/// [`Reference::NOMINAL_S`], given the reference's time `ref_secs[i]`
/// measured next to it.
fn scale(secs: &[f64], ref_secs: &[f64]) -> Vec<f64> {
    secs.iter()
        .zip(ref_secs)
        .map(|(s, r)| s * Reference::NOMINAL_S / r)
        .collect()
}

/// Runs jobs one after another until `budget` has passed, checking each
/// job's output and exact counts, and appends them to `plain`. Each job
/// is preceded by one run of the host-speed reference. With a tracer,
/// jobs alternate between untraced (into `plain`) and traced (into
/// `traced`), so both see the same host conditions.
fn run_jobs<W: Workload>(
    w: &mut W,
    name: &str,
    budget: Duration,
    reference: &mut Reference,
    mut tracer: Option<&mut Tracer>,
    plain: &mut Phase,
    traced: &mut Phase,
) {
    let start = Instant::now();
    let ran = (plain.job_secs.len(), traced.job_secs.len());
    loop {
        let plain_done = plain.job_secs.len() > ran.0;
        let traced_done = tracer.is_none() || traced.job_secs.len() > ran.1;
        if plain_done && traced_done && start.elapsed() >= budget {
            break;
        }
        let trace_this = tracer.is_some() && traced.job_secs.len() < plain.job_secs.len();
        let phase = if trace_this {
            &mut *traced
        } else {
            &mut *plain
        };
        let job = phase.job_secs.len();
        let ref_secs = match reference.time() {
            Ok(secs) => secs,
            Err(why) => {
                phase.fail(name, job, &why);
                Reference::NOMINAL_S
            }
        };
        let mut root = None;
        let mut tap = match tracer.as_deref_mut() {
            Some(tr) if trace_this => {
                tr.set_job(job as u32);
                root = Some(tr.begin("job"));
                Tap::on(tr)
            }
            _ => Tap::off(),
        };
        let probe = MemProbe::start();
        let t0 = Instant::now();
        let out = w.job(&mut tap);
        let secs = t0.elapsed().as_secs_f64();
        let mem = probe.stop();
        let layers = std::mem::take(&mut tap.layers);
        drop(tap);
        if let (Some(tr), Some(idx)) = (tracer.as_deref_mut(), root) {
            tr.end(idx);
        }
        phase.job_secs.push(secs);
        phase.ref_secs.push(ref_secs);
        phase.sends += W::sends(&out);
        if let Err(why) = w.check(&out) {
            phase.fail(name, job, &why);
        }
        if !trace_this {
            match phase.mem {
                None => phase.mem = Some(mem),
                Some(first) if first != mem => phase.fail(
                    name,
                    job,
                    &format!("memory counts changed between jobs: {first:?} then {mem:?}"),
                ),
                Some(_) => {}
            }
        } else {
            // A traced job's own memory includes the tracer's; the
            // exact counts compared here are taken inside each layer
            // call instead.
            let changed = phase.layers.first().and_then(|first| {
                layers
                    .iter()
                    .find(|&(key, v)| !key.ends_with("_ms") && first.get(key) != Some(v))
                    .map(|(key, v)| {
                        format!("{key} changed between jobs: {:?} then {v}", first.get(key))
                    })
            });
            if let Some(why) = changed {
                phase.fail(name, job, &why);
            }
            phase.layers.push(layers);
        }
    }
}

/// Set-up: the workload's input generation and one-off checks, then one
/// discarded warm-up job whose output is checked and becomes the
/// reference for the timed jobs. Returns the workload, the set-up's
/// wall time and the mean of the host-speed reference's times right
/// before and right after it.
fn setup<W: Workload>(
    name: &str,
    seed: u64,
    reference: &mut Reference,
) -> Result<(W, f64, f64), String> {
    let before = reference.time()?;
    let t0 = Instant::now();
    let mut w = W::setup(seed)?;
    let warm = w.job(&mut Tap::off());
    w.check(&warm)
        .map_err(|why| format!("{name}: warm-up job failed: {why}"))?;
    drop(warm);
    let secs = t0.elapsed().as_secs_f64();
    Ok((w, secs, (before + reference.time()?) / 2.0))
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn bench<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut reference = Reference::new();
    if !args.trace {
        // The set-ups are spread over the run, one before each slice of
        // timed jobs, so `setup_s` sees the same host conditions as
        // `job_p50_ms`. Jobs all run on the first set-up's instance.
        let (mut w, secs, ref_secs) = setup::<W>(name, args.seed, &mut reference)?;
        let (mut setups, mut setup_refs) = (vec![secs], vec![ref_secs]);
        let mut phase = Phase::default();
        for slice in 0..SETUPS {
            if slice > 0 {
                let (_, secs, ref_secs) = setup::<W>(name, args.seed, &mut reference)?;
                setups.push(secs);
                setup_refs.push(ref_secs);
            }
            let slice_budget = budget / SETUPS as u32;
            run_jobs(
                &mut w,
                name,
                slice_budget,
                &mut reference,
                None,
                &mut phase,
                &mut Phase::default(),
            );
        }
        let mut nominal = phase.nominal_secs();
        let total: f64 = nominal.iter().sum();
        let peak = phase.mem.map_or(0, |m| m.peak_bytes);
        println!(
            "{name}: seed {}, {} jobs, {} failed, error_rate {}, wall job p50 {:.3} ms, \
             reference p50 {:.3} ms (nominal {} ms)",
            args.seed,
            phase.job_secs.len(),
            phase.failed,
            phase.failed as f64 / phase.job_secs.len() as f64,
            phase.p50_ms(),
            median(&mut phase.ref_secs.clone()) * 1e3,
            Reference::NOMINAL_S * 1e3,
        );
        return Ok(Outcome {
            attempted: phase.job_secs.len() as u64,
            failed: phase.failed,
            metrics: vec![
                ("sends_per_s", phase.sends as f64 / total, "1/s"),
                ("job_p50_ms", median(&mut nominal) * 1e3, "ms"),
                ("peak_heap_mib", peak as f64 / MIB, "MiB"),
                ("setup_s", median(&mut scale(&setups, &setup_refs)), "s"),
            ],
        });
    }

    let (mut w, _, _) = setup::<W>(name, args.seed, &mut reference)?;
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    run_jobs(
        &mut w,
        name,
        budget,
        &mut reference,
        Some(&mut tracer),
        &mut plain,
        &mut traced,
    );
    let path = std::path::Path::new(".bench_build").join(format!("perfbench-{name}.trace.json"));
    std::fs::create_dir_all(".bench_build")
        .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(name, args.seed)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (key, unit) in PER_LAYER {
        let value = if key == "trace.overhead_ratio" {
            traced.p50_ms() / plain.p50_ms()
        } else if key.ends_with("_ms") {
            let mut per_job: Vec<f64> = traced
                .layers
                .iter()
                .map(|l| l.get(key).copied().unwrap_or(0.0))
                .collect();
            median(&mut per_job)
        } else {
            traced.layers[0].get(key).copied().unwrap_or(0.0)
        };
        metrics.push((key, value, unit));
    }
    println!(
        "{name}: seed {}, {} untraced + {} traced jobs, {} failed, spans in {}",
        args.seed,
        plain.job_secs.len(),
        traced.job_secs.len(),
        plain.failed + traced.failed,
        path.display()
    );
    for (key, value, unit) in &metrics {
        println!("  {key:<32} {value:>14.4} {unit}");
    }
    Ok(Outcome {
        attempted: (plain.job_secs.len() + traced.job_secs.len()) as u64,
        failed: plain.failed + traced.failed,
        metrics,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "inline-bcast" => bench::<InlineBcast>(&args),
        "lint-log" => bench::<LintLog>(&args),
        _ => bench::<RecordExport>(&args),
    });
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
