//! Bridges from simulator output to the `postal-obs` event model.
//!
//! The engine can stream events live through a [`postal_obs::Recorder`]
//! (see [`crate::engine::Simulation::observe`]); this module additionally
//! converts already-collected [`Trace`]s and [`RunReport`]s into
//! [`ObsLog`]s, so callers that only kept the report — like `postal-cli
//! simulate` — can still export Chrome traces, Prometheus metrics and
//! JSONL after the fact.

use crate::engine::RunReport;
use crate::trace::Trace;
use postal_model::Latency;
use postal_obs::{ObsEvent, ObsLog, RunMeta};

/// Converts one trace into the equivalent event stream (one `Send` and
/// one `Recv` per transfer).
pub fn trace_events<P>(trace: &Trace<P>) -> Vec<ObsEvent> {
    let mut events = Vec::with_capacity(trace.len() * 2);
    for t in trace.transfers() {
        events.push(ObsEvent::Send {
            seq: t.seq.0,
            src: t.src.0,
            dst: t.dst.0,
            start: t.send_start,
            finish: t.send_finish,
        });
        events.push(ObsEvent::Recv {
            seq: t.seq.0,
            src: t.src.0,
            dst: t.dst.0,
            arrival: t.arrival,
            start: t.recv_start,
            finish: t.recv_finish,
            queued: t.was_queued(),
        });
    }
    events
}

/// Builds an [`ObsLog`] from a finished run report: transfers become
/// `Send`/`Recv` events and strict-mode violations become `Violation`
/// events, all in timeline order.
pub fn log_from_report<P>(
    report: &RunReport<P>,
    engine: &str,
    n: u32,
    lambda: Option<Latency>,
    messages: Option<u64>,
) -> ObsLog {
    let mut events = trace_events(&report.trace);
    events.reserve_exact(report.violations.len());
    events.extend(report.violations.iter().map(|v| ObsEvent::Violation {
        seq: v.seq.0,
        dst: v.dst.0,
        arrival: v.arrival,
        busy_until: v.port_busy_until,
    }));
    let mut meta = RunMeta::new(engine, n);
    meta.lambda = lambda;
    meta.messages = messages;
    ObsLog::sorted(meta, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency_model::Uniform;
    use crate::program::{Context, Idle, Program};
    use crate::{ProcId, Simulation};
    use postal_model::Time;

    struct Spray(Vec<u32>);
    impl Program<u8> for Spray {
        fn on_start(&mut self, ctx: &mut dyn Context<u8>) {
            for &d in &self.0 {
                ctx.send(ProcId(d), 0);
            }
        }
        fn on_receive(&mut self, _: &mut dyn Context<u8>, _: ProcId, _: u8) {}
    }

    #[test]
    fn report_converts_to_ordered_log() {
        let lam = Latency::from_ratio(5, 2);
        let model = Uniform(lam);
        let programs: Vec<Box<dyn Program<u8>>> =
            vec![Box::new(Spray(vec![1, 2])), Box::new(Idle), Box::new(Idle)];
        let report = Simulation::new(3, &model).run(programs).unwrap();
        let log = log_from_report(&report, "event", 3, Some(lam), Some(1));
        assert_eq!(log.deliveries(), 2);
        assert_eq!(log.completion_time(), report.completion);
        assert_eq!(log.events()[0].kind(), "send");
        // The realized schedule lints through to_schedule with exact times.
        let schedule = log.to_schedule().unwrap();
        assert_eq!(schedule.len(), 2);
        assert_eq!(schedule.sends()[1].send_start, Time::ONE);
    }

    #[test]
    fn violations_are_carried_into_the_log() {
        let lam = Latency::from_int(2);
        let model = Uniform(lam);
        let programs: Vec<Box<dyn Program<u8>>> = vec![
            Box::new(Spray(vec![2])),
            Box::new(Spray(vec![2])),
            Box::new(Idle),
        ];
        let report = Simulation::new(3, &model).run(programs).unwrap();
        assert_eq!(report.violations.len(), 1);
        let log = log_from_report(&report, "event", 3, Some(lam), Some(1));
        assert_eq!(log.violations(), 1);
    }
}
