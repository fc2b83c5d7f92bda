//! Differential suite for the epoch-based race detector.
//!
//! `detect_races` (FastTrack-style epochs, sparse clocks) must report
//! exactly the same races — same pairs, same order, same message
//! bytes — as `detect_races_reference` (full vector clocks), on both
//! structured traffic and adversarial random flight sets.

use postal_verify::race::{detect_races, detect_races_reference};
use postal_verify::Flight;
use proptest::prelude::*;

fn fl(src: u32, dst: u32, send_at: f64, recv_at: f64, label: &str) -> Flight {
    Flight {
        src,
        dst,
        send_at,
        recv_at,
        label: label.to_string(),
    }
}

fn assert_identical(n: u32, flights: &[Flight], context: &str) {
    let fast = detect_races(n, flights);
    let slow = detect_races_reference(n, flights);
    assert_eq!(fast, slow, "detectors diverge: {context}");
}

#[test]
fn edge_cases_agree() {
    let cases: Vec<(&str, u32, Vec<Flight>)> = vec![
        ("empty", 4, vec![]),
        (
            "broadcast tree",
            3,
            vec![fl(0, 1, 0.0, 2.5, "a"), fl(0, 2, 1.0, 3.5, "b")],
        ),
        (
            "fifo pipeline",
            2,
            vec![
                fl(0, 1, 0.0, 2.5, "m0"),
                fl(0, 1, 1.0, 3.5, "m1"),
                fl(0, 1, 2.0, 4.5, "m2"),
            ],
        ),
        (
            "independent senders",
            4,
            vec![fl(1, 3, 0.0, 1.0, "a"), fl(2, 3, 0.5, 1.5, "b")],
        ),
        (
            "causally forced relay",
            3,
            vec![
                fl(0, 2, 0.0, 1.0, "a"),
                fl(2, 1, 1.0, 2.0, "b"),
                fl(1, 2, 2.0, 3.0, "c"),
            ],
        ),
        (
            "simultaneous deliveries",
            3,
            vec![fl(0, 2, 0.0, 1.0, "a"), fl(1, 2, 0.0, 1.0, "b")],
        ),
        (
            "same channel, wrong order",
            2,
            vec![fl(0, 1, 1.0, 2.0, "late"), fl(0, 1, 0.0, 2.5, "early")],
        ),
        (
            "recv before send (malformed)",
            2,
            vec![fl(0, 1, 5.0, 1.0, "warp"), fl(0, 1, 0.0, 2.0, "ok")],
        ),
        (
            "zero-latency self-forwarding chain",
            4,
            vec![
                fl(0, 1, 0.0, 1.0, "a"),
                fl(1, 2, 1.0, 2.0, "b"),
                fl(2, 3, 2.0, 3.0, "c"),
                fl(0, 3, 2.5, 3.5, "d"),
            ],
        ),
    ];
    for (name, n, flights) in cases {
        assert_identical(n, &flights, name);
    }
}

#[test]
fn dense_spill_agrees_with_reference() {
    // More than SPARSE_LIMIT (64) distinct senders into one hub, then
    // the hub fans back out: the hub's clock spills to dense and its
    // snapshots propagate dense clocks through later joins.
    let n = 80u32;
    let mut flights: Vec<Flight> = (1..n)
        .map(|p| fl(p, 0, p as f64, p as f64 + 2.0, "in"))
        .collect();
    for p in 1..n {
        flights.push(fl(0, p, 100.0 + p as f64, 102.0 + p as f64, "out"));
    }
    assert_identical(n, &flights, "hub spill");
}

/// Random flight sets over a small processor pool, with times drawn
/// from a small grid so simultaneity and equal-instant forwarding
/// actually occur.
fn arb_flights() -> impl Strategy<Value = (u32, Vec<Flight>)> {
    (
        2u32..=6,
        collection::vec((0u32..6, 0u32..6, 0u32..12, 1u32..6), 0..14),
    )
        .prop_map(|(n, raw)| {
            let flights = raw
                .into_iter()
                .enumerate()
                .map(|(i, (src, dst, at, latency))| Flight {
                    src: src % n,
                    dst: dst % n,
                    send_at: at as f64 / 2.0,
                    recv_at: (at + latency) as f64 / 2.0,
                    label: format!("f{i}"),
                })
                .collect();
            (n, flights)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_flight_sets_agree(case in arb_flights()) {
        let (n, flights) = case;
        let fast = detect_races(n, &flights);
        let slow = detect_races_reference(n, &flights);
        prop_assert_eq!(fast, slow);
    }
}
