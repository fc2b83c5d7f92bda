//! Bridges from simulator output to the `postal-obs` event model.
//!
//! The engine can stream events live through a [`postal_obs::Recorder`]
//! (see [`crate::engine::Simulation::observe`]); this module additionally
//! turns a finished [`RunReport`] into its ordered events or an
//! [`ObsLog`], so callers that only kept the report — like `postal-cli
//! simulate` — can still export Chrome traces, Prometheus metrics and
//! JSONL after the fact.

use crate::engine::RunReport;
use postal_model::time::sort_by_time;
use postal_model::{Latency, Time};
use postal_obs::{ObsEvent, ObsLog, RunMeta};

/// Builds an [`ObsLog`] from a finished run report: the events of
/// [`events_from_report`], collected into one allocation of their final
/// length.
pub fn log_from_report<P>(
    report: &RunReport<P>,
    engine: &str,
    n: u32,
    lambda: Option<Latency>,
    messages: Option<u64>,
) -> ObsLog {
    let mut meta = RunMeta::new(engine, n);
    meta.lambda = lambda;
    meta.messages = messages;
    ObsLog::new(meta, events_from_report(report).collect())
}

/// The events of a finished run report in timeline order: transfers
/// become `Send`/`Recv` events and strict-mode violations become
/// `Violation` events.
///
/// The order is [`ObsLog::sorted`]'s over the transfers' `Send`/`Recv`
/// pairs in trace order followed by the violations: by (time, kind,
/// seq), ties in input order. Only a `u32` index per event is sorted,
/// with [`sort_by_time`], and each event is then built once, as the
/// iterator yields it, so a consumer that keeps a sample of the events
/// never holds them all.
pub fn events_from_report<P>(
    report: &RunReport<P>,
) -> impl ExactSizeIterator<Item = ObsEvent> + '_ {
    let transfers = report.trace.transfers();
    let violations = &report.violations;
    // Input index `i`: the `Send` of transfer `i`, the `Recv` of
    // transfer `i − n`, then violation `i − 2n`. Events of one kind keep
    // trace order, so ties fall as in `ObsLog::sorted` over the pairs.
    // A tick's sends come before its receives, as the sort orders them,
    // so each tick holds two runs in trace order, not the kinds
    // interleaved.
    let n = transfers.len();
    // An event's timestamp (`ObsEvent::at`), then its kind rank and seq:
    // the key of `ObsLog::sorted`, where a send ranks 1, a receive 2 and
    // a violation 3.
    let at = |i: usize| -> Time {
        if i < n {
            transfers[i].send_start
        } else if i < 2 * n {
            transfers[i - n].recv_start
        } else {
            violations[i - 2 * n].arrival
        }
    };
    let rank = |i: usize| -> (u8, u64) {
        if i < n {
            (1, transfers[i].seq.0)
        } else if i < 2 * n {
            (2, transfers[i - n].seq.0)
        } else {
            (3, violations[i - 2 * n].seq.0)
        }
    };
    let event = move |i: usize| -> ObsEvent {
        if i < n {
            let t = &transfers[i];
            ObsEvent::Send {
                seq: t.seq.0,
                src: t.src.0,
                dst: t.dst.0,
                start: t.send_start,
                finish: t.send_finish,
            }
        } else if i < 2 * n {
            let t = &transfers[i - n];
            ObsEvent::Recv {
                seq: t.seq.0,
                src: t.src.0,
                dst: t.dst.0,
                arrival: t.arrival,
                start: t.recv_start,
                finish: t.recv_finish,
                queued: t.was_queued(),
            }
        } else {
            let v = &violations[i - 2 * n];
            ObsEvent::Violation {
                seq: v.seq.0,
                dst: v.dst.0,
                arrival: v.arrival,
                busy_until: v.port_busy_until,
            }
        }
    };
    // A trace of 2³¹ transfers would not fit in memory.
    let count = u32::try_from(2 * n + violations.len()).expect("fewer than 2³² events");
    let mut order: Vec<u32> = (0..count).collect();
    sort_by_time(&mut order, |&i| at(i as usize), |&i| rank(i as usize));
    order.into_iter().map(move |i| event(i as usize))
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
