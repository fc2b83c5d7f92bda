//! The retained seed lint engine, kept verbatim as the single
//! independent oracle for the production engine,
//! [`StreamingLint`](super::StreamingLint).
//!
//! This is the original `lint_schedule` implementation: one
//! `HashMap<u32, Vec<TimedSend>>` grouping pass per check, with a
//! per-destination clone-and-sort. It is O(E) extra memory per check
//! and was never a bottleneck at the seed envelope (n ≤ 64), but it
//! does not scale to million-send schedules. It stays in the tree for
//! one purpose: the differential test suites
//! (`tests/lint_differential.rs`, `crates/model/tests/fast_time_props.rs`)
//! assert that [`lint_schedule`](super::lint_schedule) produces
//! **byte-identical** diagnostics to this function over the full
//! acceptance grid and random schedules, so any behavioral drift in the
//! streaming engine is caught against a frozen, obviously-correct
//! baseline. It covers `P0001`–`P0007`; the topology codes
//! `P0017`–`P0019` are checked against the topology oracle directly.
//!
//! Do not optimize this module; its value is that it never changes.

use super::{diag_order, Diagnostic, LintCode, LintOptions, Severity};
use crate::fib::GenFib;
use crate::runtimes;
use crate::schedule::{Schedule, TimedSend};
use crate::time::Time;
use std::collections::HashMap;

/// Runs every applicable lint over `schedule` with the seed engine.
/// Same contract and output as [`lint_schedule`](super::lint_schedule);
/// quadratic-ish constants, kept as the differential oracle.
pub fn lint_schedule_reference(schedule: &Schedule, opts: &LintOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = schedule.n();
    let lam = schedule.latency();
    let sends = schedule.sends();

    // P0004 — malformed sends. Malformed sends are excluded from the
    // remaining checks so one root cause yields one diagnostic.
    let mut well_formed: Vec<TimedSend> = Vec::with_capacity(sends.len());
    for s in sends {
        if s.src >= n || s.dst >= n || s.src == s.dst || s.send_start < Time::ZERO {
            let what = if s.src == s.dst {
                "self-send"
            } else if s.src >= n || s.dst >= n {
                "endpoint out of range"
            } else {
                "negative start time"
            };
            diags.push(Diagnostic {
                code: LintCode::MalformedSend,
                severity: Severity::Error,
                witness: None,
                proc: Some(s.src),
                sends: vec![*s],
                related_time: None,
                message: format!(
                    "{what}: p{} -> p{} at t = {} in MPS({n}, {lam})",
                    s.src, s.dst, s.send_start
                ),
            });
        } else {
            well_formed.push(*s);
        }
    }

    // P0001 — output-port overlap: consecutive send starts < 1 apart.
    let mut by_src: HashMap<u32, Vec<TimedSend>> = HashMap::new();
    for s in &well_formed {
        by_src.entry(s.src).or_default().push(*s);
    }
    let mut srcs: Vec<u32> = by_src.keys().copied().collect();
    srcs.sort_unstable();
    for src in &srcs {
        let list = &by_src[src];
        for pair in list.windows(2) {
            if pair[1].send_start < pair[0].send_start + Time::ONE {
                diags.push(Diagnostic {
                    code: LintCode::OutputPortOverlap,
                    severity: Severity::Error,
                    witness: None,
                    proc: Some(*src),
                    sends: vec![pair[0], pair[1]],
                    related_time: None,
                    message: format!(
                        "p{src} starts sends at t = {} and t = {} ({} < 1 unit apart)",
                        pair[0].send_start,
                        pair[1].send_start,
                        pair[1].send_start - pair[0].send_start,
                    ),
                });
            }
        }
    }

    // P0002 — input-window overlap: receive finishes < 1 apart.
    let mut by_dst: HashMap<u32, Vec<TimedSend>> = HashMap::new();
    for s in &well_formed {
        by_dst.entry(s.dst).or_default().push(*s);
    }
    let mut dsts: Vec<u32> = by_dst.keys().copied().collect();
    dsts.sort_unstable();
    for dst in &dsts {
        let mut list = by_dst[dst].clone();
        list.sort_by_key(|s| (s.recv_finish(lam), s.src));
        for pair in list.windows(2) {
            let (f0, f1) = (pair[0].recv_finish(lam), pair[1].recv_finish(lam));
            if f1 < f0 + Time::ONE {
                diags.push(Diagnostic {
                    code: LintCode::InputWindowOverlap,
                    severity: Severity::Error,
                    witness: None,
                    proc: Some(*dst),
                    sends: vec![pair[0], pair[1]],
                    related_time: None,
                    message: format!(
                        "p{dst}'s receive windows [{}, {}] and [{}, {}] overlap",
                        f0 - Time::ONE,
                        f0,
                        f1 - Time::ONE,
                        f1,
                    ),
                });
            }
        }
    }

    if !opts.broadcast {
        return diags;
    }

    // First-receipt times over well-formed sends.
    let mut knows: HashMap<u32, Time> = HashMap::new();
    for s in &well_formed {
        let r = s.recv_finish(lam);
        knows
            .entry(s.dst)
            .and_modify(|t| *t = (*t).min(r))
            .or_insert(r);
    }

    // P0003 — causality: senders other than the originator must know
    // the message before their first send.
    for s in &well_formed {
        if s.src == opts.originator {
            continue;
        }
        match knows.get(&s.src) {
            Some(&t) if t <= s.send_start => {}
            other => {
                let knows_at = other.copied();
                diags.push(Diagnostic {
                    code: LintCode::CausalityViolation,
                    severity: Severity::Error,
                    witness: None,
                    proc: Some(s.src),
                    sends: vec![*s],
                    related_time: knows_at,
                    message: match knows_at {
                        Some(t) => format!(
                            "p{} sends at t = {} but first holds the message at t = {}",
                            s.src, s.send_start, t
                        ),
                        None => format!(
                            "p{} sends at t = {} but never receives the message",
                            s.src, s.send_start
                        ),
                    },
                });
            }
        }
    }

    // P0005 — coverage: everyone but the originator must be informed.
    for p in 0..n {
        if p != opts.originator && !knows.contains_key(&p) {
            diags.push(Diagnostic {
                code: LintCode::UninformedProcessor,
                severity: Severity::Error,
                witness: None,
                proc: Some(p),
                sends: Vec::new(),
                related_time: None,
                message: format!("p{p} never receives the broadcast message"),
            });
        }
    }

    // The quality lints below reason about completion; they are only
    // meaningful once the schedule is actually a valid broadcast.
    if diags.iter().any(|d| d.severity == Severity::Error) {
        diags.sort_by_key(diag_order);
        return diags;
    }

    // P0006 — idle-port waste. A send by p in an idle gap starting at g
    // would inform an uninformed processor q at g + λ; if q's actual
    // first receipt is later than that, the gap is provably wasteful
    // (q's input port is necessarily free — it has received nothing).
    // One finding per processor keeps the signal readable.
    let completion_of_coverage = knows.values().copied().max().unwrap_or(Time::ZERO);
    // The two latest first-receipts (distinct processors): enough to
    // answer "does any processor other than `src` first receive after
    // time x?" in O(1), keeping the whole pass linear.
    let mut latest: Option<(Time, u32)> = None;
    let mut second: Option<(Time, u32)> = None;
    for (&p, &t) in &knows {
        if latest.is_none_or(|(lt, lp)| (t, p) > (lt, lp)) {
            second = latest;
            latest = Some((t, p));
        } else if second.is_none_or(|(st, sp)| (t, p) > (st, sp)) {
            second = Some((t, p));
        }
    }
    let receipt_after = |x: Time, src: u32| -> Option<(Time, u32)> {
        match latest {
            Some((t, q)) if q != src && t > x => Some((t, q)),
            Some((_, q)) if q == src => second.filter(|&(t, _)| t > x),
            _ => None,
        }
    };
    'procs: for src in 0..n {
        let informed_at = if src == opts.originator {
            Some(Time::ZERO)
        } else {
            knows.get(&src).copied()
        };
        let Some(informed_at) = informed_at else {
            continue;
        };
        let my_sends = by_src.get(&src).map(Vec::as_slice).unwrap_or(&[]);
        // Idle gaps: [informed_at, first send), between consecutive
        // sends, and after the last send (open-ended).
        let mut gap_starts: Vec<Time> = Vec::with_capacity(my_sends.len() + 1);
        let mut cursor = informed_at;
        for s in my_sends {
            if s.send_start > cursor {
                gap_starts.push(cursor);
            }
            cursor = cursor.max(s.send_start + Time::ONE);
        }
        if cursor < completion_of_coverage {
            gap_starts.push(cursor);
        }
        for g in gap_starts {
            let hypothetical = g + lam.as_time();
            // An uninformed-at-g processor whose eventual receipt is
            // strictly later than the hypothetical delivery.
            if let Some((t, q)) = receipt_after(hypothetical, src) {
                diags.push(Diagnostic {
                    code: LintCode::IdlePortWaste,
                    severity: Severity::Warn,
                    witness: None,
                    proc: Some(src),
                    sends: Vec::new(),
                    related_time: Some(g),
                    message: format!(
                        "p{src} is informed and idle from t = {g} although a send then \
                         would reach p{q} at t = {hypothetical}, earlier than its actual \
                         receipt at t = {t}"
                    ),
                });
                continue 'procs;
            }
        }
    }

    // P0007 — optimality gap. Only sensible when there is something to
    // broadcast to (n >= 2).
    if n >= 2 {
        let completion = schedule.completion();
        let m = opts.messages.max(1);
        let optimal = if m == 1 {
            GenFib::new(lam).index(n as u128)
        } else {
            runtimes::multi_lower_bound(n as u128, m, lam)
        };
        if completion < optimal {
            diags.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity: Severity::Error,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}, beating the proven lower bound {optimal} \
                     for {m} message(s) in MPS({n}, {lam}) — the schedule cannot be a full \
                     broadcast"
                ),
            });
        } else if completion > optimal {
            let (severity, bound_name) = if m == 1 {
                (Severity::Warn, "the optimum f_lambda(n)")
            } else {
                // The Lemma 8 bound is not always attainable, so a gap
                // against it is informational, not a defect.
                (
                    Severity::Info,
                    "the Lemma 8 lower bound (m-1) + f_lambda(n)",
                )
            };
            diags.push(Diagnostic {
                code: LintCode::OptimalityGap,
                severity,
                witness: None,
                proc: None,
                sends: Vec::new(),
                related_time: Some(optimal),
                message: format!(
                    "completes at t = {completion}; {bound_name} is {optimal} \
                     (gap {} units)",
                    completion - optimal
                ),
            });
        }
    }

    diags.sort_by_key(diag_order);
    diags
}
