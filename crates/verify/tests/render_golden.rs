//! Golden tests for the rustc-style renderer: one lint from each code
//! band is pinned to its exact byte-for-byte output — spans, code,
//! evidence lines, witness λ-interval, wrapped rule text, and summary.
//!
//! * `P0001` (concrete schedule band, produced by `lint_schedule`);
//! * `P0008` (model-checking band; hand-built literal, since `verify`
//!   sits below `mc` in the dependency order);
//! * `P0012` (abstract-interpretation band; likewise hand-built);
//! * `P0017`–`P0019` (topology band, produced by
//!   `lint_schedule_with_topology` against sparse graphs), plus the
//!   `"topology"` field of the schedule JSON codec.
//!
//! A report holding every code twice pins `render_report` to the
//! concatenation of `render_diagnostic`s: wrapping each code's rule
//! once per report changes no byte.
//!
//! If one of these fails after an intentional renderer change, update
//! the expected string — the point is that such changes are loud.

use postal_model::lint::{lint_schedule, Diagnostic, LintCode, LintOptions, Severity};
use postal_model::schedule::{Schedule, TimedSend};
use postal_model::{Interval, Latency, Ratio, Time, Topology, TopologySpec};
use postal_verify::json;
use postal_verify::lint_schedule_with_topology;
use postal_verify::render::{render_diagnostic, render_report};

fn topo(spec: &str, n: u32) -> Topology {
    spec.parse::<TopologySpec>()
        .unwrap()
        .instantiate(n)
        .unwrap()
}

#[test]
fn p0001_band_schedule_lint_renders_exactly() {
    // p0 starts two sends 1/2 unit apart: an output-port overlap.
    let s = Schedule::new(
        3,
        Latency::from_ratio(5, 2),
        vec![
            TimedSend {
                src: 0,
                dst: 1,
                send_start: Time::ZERO,
            },
            TimedSend {
                src: 0,
                dst: 2,
                send_start: Time::new(1, 2),
            },
        ],
    );
    let diags = lint_schedule(&s, &LintOptions::ports_only());
    let text = render_report(&diags, "golden.json");
    let expected = "\
error[P0001]: p0 starts sends at t = 0 and t = 1/2 (1/2 < 1 unit apart)
  --> golden.json: p0
   = send: p0 -> p1 at t = 0
   = send: p0 -> p2 at t = 1/2
   = rule: a processor \"can send a new message to a new processor every unit of
     time\", never faster: consecutive send starts at one output port must be
     >= 1 unit apart (model definition, Section 2)

golden.json: 1 error
";
    assert_eq!(text, expected);
}

#[test]
fn p0008_band_model_check_diagnostic_renders_exactly() {
    let d = Diagnostic {
        code: LintCode::Deadlock,
        severity: Severity::Error,
        proc: Some(3),
        sends: vec![],
        related_time: Some(Time::new(7, 2)),
        witness: None,
        message: "2 of 5 explored executions deadlock: p3 still has a pending \
                  event at t = 7/2 that can never fire"
            .into(),
    };
    let text = render_report(&[d], "bcast");
    let expected = "\
error[P0008]: 2 of 5 explored executions deadlock: p3 still has a pending event at t = 7/2 that can never fire
  --> bcast: p3
   = at: t = 7/2
   = rule: an event-driven algorithm acts when it starts and whenever a message
     arrives; every admissible execution of MPS(n, lambda) must reach
     quiescence with no message still in flight (model definition, Section 2)

bcast: 1 error
";
    assert_eq!(text, expected);
}

#[test]
fn p0012_band_abstract_diagnostic_renders_exactly_with_witness() {
    let d = Diagnostic {
        code: LintCode::DeadSend,
        severity: Severity::Error,
        proc: Some(4),
        sends: vec![TimedSend {
            src: 4,
            dst: 5,
            send_start: Time::from_int(2),
        }],
        related_time: None,
        witness: Some(Interval::new(Ratio::ONE, Ratio::new(5, 2))),
        message: "p4 sends to p5 at t = 2 but the message is never received \
                  (1 dead send in total)"
            .into(),
    };
    let text = render_report(&[d], "bcast");
    let expected = "\
error[P0012]: p4 sends to p5 at t = 2 but the message is never received (1 dead send in total)
  --> bcast: p4
   = send: p4 -> p5 at t = 2
   = witness: lambda in [1, 5/2]
   = rule: a message sent through an output port is fully received lambda units
     later; a send whose receiver provably never reads it does useless work
     for every lambda in the range (model definition, Section 2)

bcast: 1 error
";
    assert_eq!(text, expected);
}

#[test]
fn p0017_band_non_edge_send_renders_exactly() {
    // 0 -> 2 is a chord of the 4-ring; ports-only keeps the graph pass
    // as the sole finding.
    let s = Schedule::new(
        4,
        Latency::from_int(2),
        vec![
            TimedSend {
                src: 0,
                dst: 1,
                send_start: Time::ZERO,
            },
            TimedSend {
                src: 0,
                dst: 2,
                send_start: Time::ONE,
            },
        ],
    );
    let diags = lint_schedule_with_topology(&s, &LintOptions::ports_only(), &topo("ring", 4));
    let text = render_report(&diags, "golden.json");
    let expected = "\
error[P0017]: p0 sends to p2 at t = 1, but p0-p2 is not an edge of the ring topology
  --> golden.json: p0
   = send: p0 -> p2 at t = 1
   = rule: in a sparse message-passing system a processor can send only to its
     neighbors in the communication graph; a transfer across a non-edge
     cannot happen on the target topology (sparse extension of the
     complete-graph MPS(n, lambda), Section 2; minimum-broadcast-graph
     constructions after arXiv:1312.1523)

golden.json: 1 error
";
    assert_eq!(text, expected);
}

#[test]
fn p0018_band_topology_gap_renders_exactly() {
    // Ring of 3 = triangle, ecc = 1, bound = λ = 1; the two-hop line
    // completes at 2, a gap of 1 against the BFS bound (and exactly
    // f_1(3), so the complete-graph optimality pass stays silent).
    let s = Schedule::new(
        3,
        Latency::from_int(1),
        vec![
            TimedSend {
                src: 0,
                dst: 1,
                send_start: Time::ZERO,
            },
            TimedSend {
                src: 1,
                dst: 2,
                send_start: Time::ONE,
            },
        ],
    );
    let diags = lint_schedule_with_topology(&s, &LintOptions::default(), &topo("ring", 3));
    let text = render_report(&diags, "golden.json");
    let expected = "\
warning[P0018]: completes at t = 2; the ring topology lower bound (m-1) + lambda*ecc(p0) is 1 (gap 1 units)
  --> golden.json
   = at: t = 1
   = rule: a message reaching a processor at graph distance d from the originator
     traverses d edges and each hop costs lambda, so broadcasting m messages
     over a sparse topology takes at least (m-1) + lambda*ecc(originator)
     time (static BFS lower bound; the sparse-graph analogue of Lemma 8)

golden.json: 1 warning
";
    assert_eq!(text, expected);
}

#[test]
fn p0019_band_partition_renders_exactly_and_suppresses_p0005() {
    // A 2-ring oracle against a 3-processor schedule: p2 sits outside
    // the graph, so the timing-level P0005 folds into P0019.
    let s = Schedule::new(
        3,
        Latency::from_int(2),
        vec![TimedSend {
            src: 0,
            dst: 1,
            send_start: Time::ZERO,
        }],
    );
    let diags = lint_schedule_with_topology(&s, &LintOptions::default(), &topo("ring", 2));
    let text = render_report(&diags, "golden.json");
    let expected = "\
error[P0019]: p2 has no path from the originator p0 in the ring topology — no schedule can inform it (suppresses the timing-level P0005)
  --> golden.json: p2
   = rule: a broadcast must deliver the originator's message to all n-1 other
     processors; a processor with no path from the originator in the
     communication graph can never be informed, by any schedule (problem
     statement, Section 1, over a sparse topology)

golden.json: 1 error
";
    assert_eq!(text, expected);
}

#[test]
fn schedule_json_topology_field_snapshot_and_round_trip() {
    let s = Schedule::new(
        3,
        Latency::from_ratio(5, 2),
        vec![
            TimedSend {
                src: 0,
                dst: 1,
                send_start: Time::ZERO,
            },
            TimedSend {
                src: 0,
                dst: 2,
                send_start: Time::ONE,
            },
        ],
    );
    let text = json::schedule_to_json_with_topology(&s, Some(2), Some("torus:1x3"));
    let expected = "\
{
  \"n\": 3,
  \"lambda\": \"5/2\",
  \"messages\": 2,
  \"topology\": \"torus:1x3\",
  \"sends\": [
    { \"src\": 0, \"dst\": 1, \"at\": \"0\" },
    { \"src\": 0, \"dst\": 2, \"at\": \"1\" }
  ]
}
";
    assert_eq!(text, expected);

    // Both parsers recover the field; omitting it round-trips to None.
    let parsed = json::parse_schedule(&text).unwrap();
    assert_eq!(parsed.topology.as_deref(), Some("torus:1x3"));
    assert_eq!(parsed.messages, Some(2));
    assert_eq!(parsed.schedule.sends(), s.sends());
    let streamed = json::parse_schedule_reader(text.as_bytes()).unwrap();
    assert_eq!(streamed.topology.as_deref(), Some("torus:1x3"));
    assert_eq!(streamed.schedule.sends(), s.sends());

    let plain = json::schedule_to_json(&s, Some(2));
    assert!(!plain.contains("topology"));
    assert_eq!(json::parse_schedule(&plain).unwrap().topology, None);
    assert_eq!(
        json::parse_schedule_reader(plain.as_bytes())
            .unwrap()
            .topology,
        None
    );
}

#[test]
fn a_report_is_its_diagnostics_rendered_one_by_one() {
    let codes: Vec<LintCode> = (1..=19)
        .map(|k| LintCode::parse(&format!("P{k:04}")).expect("a lint code"))
        .collect();
    assert_eq!(
        LintCode::parse("P0020"),
        None,
        "a new code joins this report"
    );
    let severities = [Severity::Error, Severity::Warn, Severity::Info];
    let diags: Vec<Diagnostic> = codes
        .iter()
        .chain(&codes)
        .enumerate()
        .map(|(k, &code)| {
            let k32 = k as u32;
            Diagnostic {
                code,
                severity: severities[k % 3],
                proc: (k % 4 != 0).then_some(k32),
                sends: (0..k % 3)
                    .map(|j| TimedSend {
                        src: k32,
                        dst: k32 + j as u32 + 1,
                        send_start: Time::new(k as i128 + j as i128, 6),
                    })
                    .collect(),
                related_time: (k % 5 != 0).then(|| Time::new(k as i128, 3)),
                witness: (k % 7 == 0)
                    .then(|| Interval::new(Ratio::ONE, Ratio::new(k as i128 + 2, 2))),
                message: format!("finding {k} of code {code}"),
            }
        })
        .collect();
    let mut want = String::new();
    for d in &diags {
        want.push_str(&render_diagnostic(d, "every.jsonl"));
        want.push('\n');
    }
    want.push_str("every.jsonl: 13 errors, 13 warnings, 12 notes\n");
    assert_eq!(render_report(&diags, "every.jsonl"), want);
}
