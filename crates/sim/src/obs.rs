//! Bridges from simulator output to the `postal-obs` event model.
//!
//! The engine can stream events live through a [`postal_obs::Recorder`]
//! (see [`crate::engine::Simulation::observe`]); this module additionally
//! converts a finished [`RunReport`] into an [`ObsLog`], so callers that
//! only kept the report — like `postal-cli simulate` — can still export
//! Chrome traces, Prometheus metrics and JSONL after the fact.

use crate::engine::RunReport;
use postal_model::time::tick_lattice;
use postal_model::{Latency, Time};
use postal_obs::{ObsEvent, ObsLog, RunMeta};

/// Builds an [`ObsLog`] from a finished run report: transfers become
/// `Send`/`Recv` events and strict-mode violations become `Violation`
/// events, all in timeline order.
///
/// The order is [`ObsLog::sorted`]'s over the transfers' `Send`/`Recv`
/// pairs in trace order followed by the violations: by (time, kind,
/// seq), ties in input order. Only a compact key per event is sorted,
/// its time as a tick count when the events' times lie on one lattice
/// (see [`tick_lattice`]) and exact otherwise, and each event is then
/// built once, in its final place.
pub fn log_from_report<P>(
    report: &RunReport<P>,
    engine: &str,
    n: u32,
    lambda: Option<Latency>,
    messages: Option<u64>,
) -> ObsLog {
    let transfers = report.trace.transfers();
    let violations = &report.violations;
    // Input index `i`: the `Send` (even `i`) or `Recv` (odd `i`) of
    // transfer `i / 2`, then violation `i − 2·transfers`.
    let pairs = 2 * transfers.len();
    let count = pairs + violations.len();
    // An event's timestamp (`ObsEvent::at`), kind rank and seq: the
    // key of `ObsLog::sorted`, where a send ranks 1, a receive 2 and a
    // violation 3.
    let key = |i: usize| -> (Time, u8, u64) {
        if i >= pairs {
            let v = &violations[i - pairs];
            return (v.arrival, 3, v.seq.0);
        }
        let t = &transfers[i / 2];
        if i.is_multiple_of(2) {
            (t.send_start, 1, t.seq.0)
        } else {
            (t.recv_start, 2, t.seq.0)
        }
    };
    let event = |i: usize| -> ObsEvent {
        if i >= pairs {
            let v = &violations[i - pairs];
            return ObsEvent::Violation {
                seq: v.seq.0,
                dst: v.dst.0,
                arrival: v.arrival,
                busy_until: v.port_busy_until,
            };
        }
        let t = &transfers[i / 2];
        if i.is_multiple_of(2) {
            ObsEvent::Send {
                seq: t.seq.0,
                src: t.src.0,
                dst: t.dst.0,
                start: t.send_start,
                finish: t.send_finish,
            }
        } else {
            ObsEvent::Recv {
                seq: t.seq.0,
                src: t.src.0,
                dst: t.dst.0,
                arrival: t.arrival,
                start: t.recv_start,
                finish: t.recv_finish,
                queued: t.was_queued(),
            }
        }
    };
    let events = match tick_lattice((0..count).map(|i| key(i).0)) {
        Some(den) => {
            let ticks = |i| {
                let (at, kind, seq) = key(i);
                let at = at
                    .to_ticks(den)
                    .expect("tick_lattice bounds every tick count");
                (at, kind, seq)
            };
            sorted_events(count, ticks, event)
        }
        None => sorted_events(count, key, event),
    };
    let mut meta = RunMeta::new(engine, n);
    meta.lambda = lambda;
    meta.messages = messages;
    ObsLog::new(meta, events)
}

/// `event(i)` for each `i` in `0..count`, in the order of `(key(i), i)`:
/// the stable order of `key`, from one unstable sort of compact entries.
fn sorted_events<K: Ord>(
    count: usize,
    key: impl Fn(usize) -> (K, u8, u64),
    event: impl Fn(usize) -> ObsEvent,
) -> Vec<ObsEvent> {
    // A `u32` index keeps a tick entry at 24 bytes; a trace of 2³¹
    // transfers would not fit in memory.
    let index = |i: usize| u32::try_from(i).expect("fewer than 2³² events");
    let mut keys: Vec<(K, u8, u64, u32)> = (0..count)
        .map(|i| {
            let (at, kind, seq) = key(i);
            (at, kind, seq, index(i))
        })
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(.., i)| event(i as usize)).collect()
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
