//! `simulate` and `stats` with `--sample`/`--ring-capacity` write what
//! a ring recorder keeps when the whole event log, built by
//! `log_from_report`, is recorded through it in order: head and tail
//! sampling, rates 1, 3 and 8, and a ring small enough to overflow,
//! on and off the half-unit lattice.

use postal_algos::bcast_programs;
use postal_algos::pipeline::pipeline_programs;
use postal_model::Latency;
use postal_obs::{to_jsonl, to_prometheus, ObsLog, Recorder, RingRecorder, SampleSpec};
use postal_sim::{log_from_report, Program, Simulation, Uniform};
use std::process::Command;

/// The log of one run, as the exporters saw it before the ring was fed
/// from the sorted event stream.
fn full_log<P: Clone>(
    programs: Vec<Box<dyn Program<P>>>,
    n: usize,
    m: u64,
    lam: Latency,
) -> ObsLog {
    let report = Simulation::new(n, &Uniform(lam))
        .run(programs)
        .expect("runs");
    log_from_report(&report, "event", n as u32, Some(lam), Some(m))
}

/// The log a ring of `capacity` sampling by `spec` keeps of `log`.
fn ring_log(log: &ObsLog, spec: &str, capacity: usize) -> ObsLog {
    let ring = RingRecorder::with_spec(capacity, SampleSpec::parse(spec).expect("spec"));
    for e in log.events() {
        ring.record(e.clone());
    }
    ring.into_log(log.meta().clone())
}

/// Runs `postal-cli` with `args` plus `flag <temp file>` and returns
/// the file's text.
fn written(args: &[&str], flag: &str, name: &str) -> String {
    let path = std::env::temp_dir().join(format!("postal-cli-{}-{name}", std::process::id()));
    let path_text = path.to_str().expect("UTF-8 temp path");
    let out = Command::new(env!("CARGO_BIN_EXE_postal-cli"))
        .args(args)
        .args([flag, path_text])
        .output()
        .expect("run postal-cli");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {:?}", out.stderr);
    let text = std::fs::read_to_string(&path).expect("read the export");
    std::fs::remove_file(&path).expect("remove the export");
    text
}

#[test]
fn sampled_exports_match_the_ring_fed_from_the_whole_log() {
    let bcast = full_log(
        bcast_programs(40, Latency::from_int(2)),
        40,
        1,
        Latency::from_int(2),
    );
    let lam = Latency::from_ratio(7, 3);
    let pipeline = full_log(pipeline_programs(24, 3, lam), 24, 3, lam);
    let mut overflowed = false;
    for (workload, log) in [
        (["bcast", "40", "1", "2"], &bcast),
        (["pipeline", "24", "3", "7/3"], &pipeline),
    ] {
        for mode in ["head", "tail"] {
            for rate in [1, 3, 8] {
                for capacity in [2, 4096] {
                    let spec = format!("{mode},rate:{rate}");
                    let cap = capacity.to_string();
                    let want = ring_log(log, &spec, capacity);
                    overflowed |= rate == 1 && want.meta().is_partial();
                    let flags = ["--sample", &spec, "--ring-capacity", &cap];
                    let name = format!("{}-{mode}-{rate}-{capacity}", workload[0]);
                    let simulate = [&["simulate"], &workload[..], &flags].concat();
                    let events = written(&simulate, "--events-out", &format!("{name}.jsonl"));
                    assert_eq!(events, to_jsonl(&want), "simulate {workload:?} {flags:?}");
                    let stats = [&["stats"], &workload[..], &flags].concat();
                    let metrics = written(&stats, "--metrics-out", &format!("{name}.prom"));
                    assert_eq!(
                        metrics,
                        to_prometheus(&want),
                        "stats {workload:?} {flags:?}"
                    );
                }
            }
        }
    }
    assert!(overflowed, "no ring of the grid overflowed");
}
