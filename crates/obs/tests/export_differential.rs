//! Differential tests of the export layer against the `core::fmt`
//! writers it replaced (`tests/oracle`), byte for byte, over random
//! logs. The goldens pin a few fixed logs; these cover what a fixed
//! log can miss — a `ts` text reused for a different time, a digit
//! writer wrong at one magnitude, a missed `f64` or `i128` fallback.
//!
//! The logs cover every event kind, time-sorted and unsorted order,
//! runs of equal timestamps between distinct ones, times on and off a
//! tick lattice (one past the lattice cap), zero and negative times,
//! tick differences on either side of 2⁵³, numerators at ±(2⁶³ − 1),
//! at `i64::MIN` and beyond `i64`, Chrome µs values on either side of
//! 1e15 and of 2⁵³, `queued` both ways, processors past `n`, seqs
//! repeated, missing and far past the send count, and each `RunMeta`
//! field set and unset. On the same logs, `ObsLog::sorted` must give
//! the exact `(time, kind, seq)` order (ties among
//! `Wake`/`Crash`/`Truncated`, which share `seq = u64::MAX`, keep their
//! input order), `MetricsSummary::from_log` must equal the oracle's
//! exact-time summary field for field (every `f64` by `==`), and its
//! busy times must agree with `port_busy_times` over the materialized
//! `port_spans()` of the processors in `0..n`.

mod oracle;

use postal_model::time::TICK_LIMIT;
use postal_model::{Latency, Time};
use postal_obs::{
    port_busy_times, to_chrome_trace, to_jsonl, to_prometheus, MetricsSummary, ObsEvent, ObsLog,
    RunMeta,
};
use proptest::prelude::*;

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below_u128(n as u128) as usize
}

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[below(rng, xs.len())]
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

/// How one log draws its times.
#[derive(Debug, Clone, Copy)]
enum Times {
    /// Ticks of `1/D` for one `D`, zero and negative included.
    Lattice(i64),
    /// Ticks of `1/D` near 0, ±2⁵³ and 2⁶⁰, so that differences fall
    /// just below, at and above 2⁵³ ticks and far past it.
    Wide(i64),
    /// Small fractions over denominators whose lcm (30030) stays on a
    /// tick lattice.
    Mixed,
    /// Fractions over 1, 3 and one denominator past the lattice cap,
    /// so the log sorts on exact keys.
    OffCap(i128),
    /// Numerators at the `i64` and tick-limit edges and beyond `i64`.
    Huge,
    /// Trace µs values on either side of 1e15 and of 2⁵³, the latter
    /// also through one denominator near 2⁵³.
    Chrome(i128),
}

impl Times {
    fn draw(self, rng: &mut TestRng) -> Time {
        match self {
            Times::Lattice(den) => Time::from_ticks(below(rng, 420) as i64 - 20, den),
            Times::Wide(den) => {
                let base = pick(rng, &[0, 1 << 53, -(1 << 53), 1 << 60]);
                Time::from_ticks(base + below(rng, 7) as i64 - 3, den)
            }
            Times::Mixed => Time::new(
                below(rng, 550) as i128 - 50,
                pick(rng, &[1, 2, 3, 5, 7, 11, 13]),
            ),
            Times::OffCap(big) => Time::new(below(rng, 60) as i128 - 10, pick(rng, &[1, 3, big])),
            Times::Huge => {
                let limit = TICK_LIMIT as i128;
                let num = pick(
                    rng,
                    &[
                        0,
                        i64::MAX as i128,
                        -(i64::MAX as i128),
                        i64::MIN as i128,
                        (1 << 64) + 1,
                        -(1 << 64) - 1,
                        1 << 100,
                        -(1 << 100),
                        limit,
                        limit + 1,
                        -limit - 1,
                        limit / 3,
                    ],
                );
                Time::new(num + below(rng, 3) as i128, pick(rng, &[1, 3]))
            }
            Times::Chrome(big) => {
                let den = pick(rng, &[1i128, 3, 7]);
                let k = below(rng, 7) as i128 - 3;
                match below(rng, 3) {
                    // 1e15 µs is 1e12 units.
                    0 => Time::new(1_000_000_000_000 * den + k, den),
                    // num·1000 crosses 2⁵³ between these numerators.
                    1 => Time::new(9_007_199_254_740 + k, den),
                    _ => Time::new(1 + below(rng, 3) as i128, big),
                }
            }
        }
    }
}

/// Random logs (see the module docs for what they cover).
struct Logs;

impl Strategy for Logs {
    type Value = ObsLog;

    fn generate(&self, rng: &mut TestRng) -> ObsLog {
        let times = match below(rng, 6) {
            0 => Times::Lattice(pick(rng, &[1, 2, 3, 6, 7, 14])),
            1 => Times::Mixed,
            2 => Times::OffCap(pick(rng, &[4_294_967_311, (1 << 33) + 1])),
            3 => Times::Huge,
            4 => Times::Wide(pick(rng, &[1, 3, 6, 7])),
            // One denominator per log: several near 2⁵³ would overflow
            // the exact sums the summary forms.
            _ => Times::Chrome((1 << 53) + below(rng, 7) as i128 - 3),
        };
        // A few instants that many events share, so equal timestamps
        // come in runs between distinct ones.
        let pool: Vec<Time> = (0..1 + below(rng, 5)).map(|_| times.draw(rng)).collect();
        let at = |rng: &mut TestRng| {
            if below(rng, 4) == 0 {
                times.draw(rng)
            } else {
                pick(rng, &pool)
            }
        };
        let n = below(rng, 6) as u32;
        let proc = |rng: &mut TestRng| -> u32 {
            match below(rng, 8) {
                0 => u32::MAX,
                _ => below(rng, n as usize + 2) as u32,
            }
        };
        let seq = |rng: &mut TestRng| -> u64 {
            match below(rng, 8) {
                0 => rng.next_u64(),
                _ => below(rng, 12) as u64,
            }
        };
        let mut events = Vec::new();
        for _ in 0..below(rng, 48) {
            let e = match below(rng, 9) {
                0 | 1 => {
                    let start = at(rng);
                    ObsEvent::Send {
                        seq: seq(rng),
                        src: proc(rng),
                        dst: proc(rng),
                        start,
                        finish: if coin(rng) {
                            start + Time::ONE
                        } else {
                            at(rng)
                        },
                    }
                }
                2 | 3 => {
                    let (arrival, start) = (at(rng), at(rng));
                    ObsEvent::Recv {
                        seq: seq(rng),
                        src: proc(rng),
                        dst: proc(rng),
                        arrival,
                        start,
                        finish: if coin(rng) {
                            start + Time::ONE
                        } else {
                            at(rng)
                        },
                        queued: coin(rng),
                    }
                }
                4 => ObsEvent::Wake {
                    proc: proc(rng),
                    at: at(rng),
                },
                5 => ObsEvent::Violation {
                    seq: seq(rng),
                    dst: proc(rng),
                    arrival: at(rng),
                    busy_until: at(rng),
                },
                6 => ObsEvent::Drop {
                    seq: seq(rng),
                    src: proc(rng),
                    dst: proc(rng),
                    at: at(rng),
                },
                7 => ObsEvent::Crash {
                    proc: proc(rng),
                    at: at(rng),
                },
                _ => ObsEvent::Truncated {
                    processed: rng.next_u64(),
                    limit: seq(rng),
                    at: at(rng),
                },
            };
            events.push(e);
        }
        if coin(rng) {
            oracle::sort_events(&mut events);
        }
        let mut meta = RunMeta::new(pick(rng, &["event", "threaded", "x"]), n);
        if coin(rng) {
            let (p, q) = pick(rng, &[(1, 1), (5, 2), (7, 3), (22, 7), (65_536, 3)]);
            meta.lambda = Some(Latency::from_ratio(p, q));
        }
        meta.messages = coin(rng).then(|| seq(rng));
        meta.dropped_events = coin(rng).then(|| seq(rng));
        meta.sample = coin(rng).then(|| pick(rng, &["head,rate:4", "tail"]).to_string());
        meta.ring_capacity = coin(rng).then(|| rng.next_u64());
        ObsLog::new(meta, events)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn writers_match_the_fmt_oracle_byte_for_byte(log in Logs) {
        prop_assert_eq!(to_jsonl(&log), oracle::to_jsonl(&log));
        prop_assert_eq!(to_chrome_trace(&log), oracle::to_chrome_trace(&log));
        prop_assert_eq!(to_prometheus(&log), oracle::to_prometheus(&log));
    }

    #[test]
    fn sorted_gives_the_exact_key_order(log in Logs) {
        let mut want = log.events().to_vec();
        oracle::sort_events(&mut want);
        let got = ObsLog::sorted(log.meta().clone(), log.events().to_vec());
        prop_assert_eq!(got.events(), &want[..]);
    }

    #[test]
    fn summary_matches_the_exact_oracle(log in Logs) {
        prop_assert_eq!(MetricsSummary::from_log(&log), oracle::summary(&log));
    }

    #[test]
    fn one_pass_summary_matches_the_span_list(log in Logs) {
        let s = MetricsSummary::from_log(&log);
        let spans = log.port_spans().into_iter().filter(|span| (span.proc as usize) < s.n);
        let (out, inn): (Vec<Time>, Vec<Time>) = port_busy_times(s.n, spans).into_iter().unzip();
        prop_assert_eq!(&s.out_busy, &out);
        prop_assert_eq!(&s.in_busy, &inn);
        prop_assert_eq!(s.completion, log.completion_time());
    }
}

#[test]
fn equal_time_ties_keep_their_input_order() {
    // Wake, Crash and Truncated carry no seq: at one instant and one
    // kind, only the input order separates them.
    let t = Time::new(7, 3);
    let mut events: Vec<ObsEvent> = (0..6).map(|p| ObsEvent::Wake { proc: p, at: t }).collect();
    events.extend((0..3).rev().map(|p| ObsEvent::Crash { proc: p, at: t }));
    events.push(ObsEvent::Truncated {
        processed: 1,
        limit: 0,
        at: Time::ZERO,
    });
    let mut want = events.clone();
    oracle::sort_events(&mut want);
    let got = ObsLog::sorted(RunMeta::new("event", 6), events);
    assert_eq!(got.events(), &want[..]);
    assert!(matches!(got.events()[0], ObsEvent::Truncated { .. }));
    assert!(matches!(got.events()[1], ObsEvent::Crash { proc: 2, .. }));
    assert!(matches!(got.events()[4], ObsEvent::Wake { proc: 0, .. }));
}
