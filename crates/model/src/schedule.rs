//! Explicit postal-model schedules.
//!
//! A *schedule* is the static counterpart of an event-driven execution:
//! a list of timed sends `(src, dst, send_start)`. The paper reasons
//! about algorithms through their schedules (Figure 1 is one), and its
//! correctness arguments hinge on three validity rules, which the
//! [`crate::lint`] engine checks mechanically:
//!
//! 1. **Output ports** — no processor starts two sends less than 1 unit
//!    apart (it sends "to a new processor every unit of time", never
//!    faster).
//! 2. **Input ports** — no processor's receive windows
//!    `[s+λ−1, s+λ]` overlap.
//! 3. **Causality** (for broadcast schedules) — a processor other than
//!    the originator sends only at or after the time it has fully
//!    received the message.
//!
//! Run [`crate::lint::lint_schedule`] over a schedule to get *all*
//! findings with stable codes (P0001–P0007); this lets the crates above
//! prove properties of *arbitrary* schedules (including hand-written or
//! adversarial ones), independent of the event-driven engine.

use crate::latency::Latency;
use crate::time::{sort_by_time, Time};

pub use crate::lint::{
    Diagnostic as LintDiagnostic, LintCode as ScheduleLintCode, Severity as LintSeverity,
};

/// One timed send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedSend {
    /// Sending processor index.
    pub src: u32,
    /// Receiving processor index.
    pub dst: u32,
    /// When the sender's port starts transmitting.
    pub send_start: Time,
}

impl TimedSend {
    /// When the receiver has fully received the message.
    pub fn recv_finish(&self, latency: Latency) -> Time {
        self.send_start + latency.as_time()
    }
}

/// A static postal-model schedule over `n` processors at latency λ.
///
/// ```
/// use postal_model::schedule::{Schedule, TimedSend};
/// use postal_model::{Latency, Time};
///
/// // p0 → p1 at t = 0; p1 forwards to p2 the moment it knows (t = λ).
/// use postal_model::lint::{is_clean, lint_schedule, LintOptions, Severity};
/// let lam = Latency::from_ratio(5, 2);
/// let schedule = Schedule::new(3, lam, vec![
///     TimedSend { src: 0, dst: 1, send_start: Time::ZERO },
///     TimedSend { src: 1, dst: 2, send_start: Time::new(5, 2) },
/// ]);
/// let diags = lint_schedule(&schedule, &LintOptions::default());
/// assert!(is_clean(&diags, Severity::Error));
/// assert_eq!(schedule.completion(), Time::from_int(5));
/// ```
#[derive(Debug, Clone)]
pub struct Schedule {
    n: u32,
    latency: Latency,
    sends: Vec<TimedSend>,
}

impl Schedule {
    /// Creates a schedule; sends may be in any order. They are sorted by
    /// `(send_start, src, dst)` with [`sort_by_time`], on tick counts
    /// when the starts lie on one lattice.
    pub fn new(n: u32, latency: Latency, mut sends: Vec<TimedSend>) -> Schedule {
        sort_by_time(&mut sends, |s| s.send_start, |s| (s.src, s.dst));
        Schedule { n, latency, sends }
    }

    /// Number of processors.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The latency the schedule is built for.
    pub fn latency(&self) -> Latency {
        self.latency
    }

    /// The sends, ordered by start time.
    pub fn sends(&self) -> &[TimedSend] {
        &self.sends
    }

    /// The completion time: latest receive finish (0 for empty).
    pub fn completion(&self) -> Time {
        self.sends
            .iter()
            .map(|s| s.recv_finish(self.latency))
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Number of sends.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::MAX_TICK_DENOMINATOR;
    use crate::lint::{is_clean, lint_schedule, LintCode, LintOptions, Severity};
    use crate::time::{tick_lattice, TICK_LIMIT};
    use proptest::prelude::*;

    fn send(src: u32, dst: u32, num: i128, den: i128) -> TimedSend {
        TimedSend {
            src,
            dst,
            send_start: Time::new(num, den),
        }
    }

    fn lam52() -> Latency {
        Latency::from_ratio(5, 2)
    }

    /// Error-severity codes reported for a schedule under `opts`.
    fn error_codes(s: &Schedule, opts: &LintOptions) -> Vec<LintCode> {
        lint_schedule(s, opts)
            .into_iter()
            .filter(|d| d.severity >= Severity::Error)
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn valid_two_hop_broadcast() {
        // p0 → p1 at 0; p1 → p2 at λ.
        let s = Schedule::new(3, lam52(), vec![send(0, 1, 0, 1), send(1, 2, 5, 2)]);
        assert!(is_clean(
            &lint_schedule(&s, &LintOptions::default()),
            Severity::Error
        ));
        assert_eq!(s.completion(), Time::from_int(5));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn output_port_overlap_detected() {
        let s = Schedule::new(
            3,
            lam52(),
            vec![send(0, 1, 0, 1), send(0, 2, 1, 2)], // second at 0.5 < 1
        );
        let codes = error_codes(&s, &LintOptions::ports_only());
        assert_eq!(codes, vec![LintCode::OutputPortOverlap]);
        let diags = lint_schedule(&s, &LintOptions::ports_only());
        assert_eq!(diags[0].proc, Some(0));
    }

    #[test]
    fn input_port_overlap_detected() {
        // Both arrive at p2 with receive finishes 5/2 and 3: gap 1/2 < 1.
        let s = Schedule::new(3, lam52(), vec![send(0, 2, 0, 1), send(1, 2, 1, 2)]);
        let diags = lint_schedule(&s, &LintOptions::ports_only());
        let overlap: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::InputWindowOverlap)
            .collect();
        assert_eq!(overlap.len(), 1);
        assert_eq!(overlap[0].proc, Some(2));
    }

    #[test]
    fn causality_violation_detected() {
        // p1 forwards at t = 1 but only knows the message at λ = 5/2.
        let s = Schedule::new(3, lam52(), vec![send(0, 1, 0, 1), send(1, 2, 1, 1)]);
        let codes = error_codes(&s, &LintOptions::default());
        assert!(codes.contains(&LintCode::CausalityViolation));
        // Port-only linting passes (ports don't know about causality).
        assert!(error_codes(&s, &LintOptions::ports_only()).is_empty());
    }

    #[test]
    fn uncovered_processor_detected() {
        let s = Schedule::new(3, lam52(), vec![send(0, 1, 0, 1)]);
        let diags = lint_schedule(&s, &LintOptions::default());
        let uninformed: Vec<_> = diags
            .iter()
            .filter(|d| d.code == LintCode::UninformedProcessor)
            .collect();
        assert_eq!(uninformed.len(), 1);
        assert_eq!(uninformed[0].proc, Some(2));
    }

    #[test]
    fn bad_endpoints_detected() {
        let s = Schedule::new(2, lam52(), vec![send(0, 5, 0, 1)]);
        assert_eq!(
            error_codes(&s, &LintOptions::ports_only()),
            vec![LintCode::MalformedSend]
        );
        let s = Schedule::new(2, lam52(), vec![send(1, 1, 0, 1)]);
        assert_eq!(
            error_codes(&s, &LintOptions::ports_only()),
            vec![LintCode::MalformedSend]
        );
    }

    #[test]
    fn negative_time_detected() {
        let s = Schedule::new(2, lam52(), vec![send(0, 1, -1, 1)]);
        assert_eq!(
            error_codes(&s, &LintOptions::ports_only()),
            vec![LintCode::MalformedSend]
        );
    }

    #[test]
    fn empty_schedule_is_trivially_valid() {
        let s = Schedule::new(1, lam52(), vec![]);
        assert!(is_clean(
            &lint_schedule(&s, &LintOptions::default()),
            Severity::Error
        ));
        assert!(s.is_empty());
        assert_eq!(s.completion(), Time::ZERO);
    }

    #[test]
    fn exact_back_to_back_is_legal() {
        // Sends at 0 and 1 (exactly one unit apart): legal. Receives
        // finishing exactly one unit apart: legal.
        let s = Schedule::new(
            4,
            Latency::from_int(2),
            vec![send(0, 1, 0, 1), send(0, 2, 1, 1), send(0, 3, 2, 1)],
        );
        assert!(is_clean(
            &lint_schedule(&s, &LintOptions::default()),
            Severity::Error
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_tick_key_gives_the_exact_order(
            drawn in collection::vec((0u32..4, 0u32..4, 0usize..3, -30i128..30), 0..48),
            off_lattice in 0usize..3,
            at in any::<usize>(),
        ) {
            // Starts on halves, thirds and sixths, with few processors,
            // so equal times, equal keys and equal sends all occur.
            let mut sends: Vec<TimedSend> = drawn
                .iter()
                .map(|&(src, dst, d, num)| TimedSend {
                    src,
                    dst,
                    send_start: Time::new(num, [2, 3, 6][d]),
                })
                .collect();
            // Either one start off every lattice, by its denominator or
            // by a numerator past the tick limit, or none.
            let off = match off_lattice {
                1 => Some(Time::new(1, MAX_TICK_DENOMINATOR as i128 + 1)),
                2 => Some(Time::from_int(TICK_LIMIT as i128 + 1)),
                _ => None,
            };
            if let Some(send_start) = off {
                let at = at % (sends.len() + 1);
                sends.insert(at, TimedSend { src: 1, dst: 2, send_start });
            }
            let lattice = tick_lattice(sends.iter().map(|s| s.send_start));
            prop_assert_eq!(lattice.is_some(), off.is_none());
            let mut want = sends.clone();
            want.sort_by_key(|s| (s.send_start, s.src, s.dst));
            let schedule = Schedule::new(4, lam52(), sends);
            prop_assert_eq!(schedule.sends(), &want[..]);
        }
    }
}
