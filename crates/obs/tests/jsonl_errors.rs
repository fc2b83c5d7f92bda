//! Golden error text of the JSONL event-log reader.
//!
//! Every error the reader can raise is pinned here byte for byte, with
//! its `line N:` location, so a rewrite of the parser cannot change what
//! a user reads. The accepted-input half pins the grammar's edges: CRLF
//! endings, blank lines, unknown extra fields, objects longer than the
//! writer ever emits, and first-occurrence lookup of a duplicated key.

use postal_model::{Latency, Time};
use postal_obs::{from_jsonl, JsonlParser, ObsEvent, ObsLog, RunMeta};

const HEADER: &str = r#"{"type":"run","engine":"event","n":3,"lambda":"5/2","messages":1}"#;

fn err(text: &str) -> String {
    match from_jsonl(text) {
        Ok(log) => panic!("accepted {text:?} as {log:?}"),
        Err(e) => e.to_string(),
    }
}

/// The error for `line` placed right after a valid header, so it sits
/// on line 2.
fn err_after_header(line: &str) -> String {
    err(&format!("{HEADER}\n{line}\n"))
}

#[test]
fn syntax_errors_are_located_and_worded() {
    let cases: &[(&str, &str)] = &[
        ("[]", "line 2: expected '{'"),
        ("x", "line 2: expected '{'"),
        ("{", "line 2: expected '\"'"),
        ("{type:1}", "line 2: expected '\"'"),
        (r#"{"type""#, "line 2: expected ':'"),
        (r#"{"type" "send"}"#, "line 2: expected ':'"),
        (r#"{"type":"send""#, "line 2: expected ',' or '}'"),
        (r#"{"type":"send" "seq":0}"#, "line 2: expected ',' or '}'"),
        (r#"{"type":"send",}"#, "line 2: expected '\"'"),
        (r#"{"type":"send"#, "line 2: unterminated string"),
        (r#"{"ty"#, "line 2: unterminated string"),
        (
            r#"{"ty\"pe":"send"}"#,
            "line 2: escapes are not used in obs logs",
        ),
        (
            r#"{"type":"se\nd"}"#,
            "line 2: escapes are not used in obs logs",
        ),
        (
            r#"{"type":null}"#,
            "line 2: expected a string, number or boolean value",
        ),
        (
            r#"{"type":}"#,
            "line 2: expected a string, number or boolean value",
        ),
        (
            r#"{"type":tru}"#,
            "line 2: expected a string, number or boolean value",
        ),
        (
            r#"{"type":{}}"#,
            "line 2: expected a string, number or boolean value",
        ),
        (
            r#"{"type":"send"} x"#,
            "line 2: trailing characters after object",
        ),
        (
            r#"{"type":"send"}}"#,
            "line 2: trailing characters after object",
        ),
        (r#"{} {}"#, "line 2: trailing characters after object"),
    ];
    for (line, want) in cases {
        assert_eq!(err_after_header(line), *want, "input {line:?}");
    }
}

#[test]
fn field_errors_name_the_field() {
    let cases: &[(&str, &str)] = &[
        ("{}", "line 2: missing field \"type\""),
        (r#"{"kind":"send"}"#, "line 2: missing field \"type\""),
        (r#"{"type":7}"#, "line 2: \"type\" must be a string"),
        (r#"{"type":true}"#, "line 2: \"type\" must be a string"),
        (
            r#"{"type":"send","src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: missing field \"seq\"",
        ),
        (
            r#"{"type":"send","seq":"0","src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"seq\" must be a number",
        ),
        (
            r#"{"type":"send","seq":-1,"src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"seq\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"send","seq":1.5,"src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"seq\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"send","seq":1e3,"src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"seq\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"send","seq":18446744073709551616,"src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"seq\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"send","seq":0,"src":4294967296,"dst":1,"start":"0","finish":"1"}"#,
            "line 2: \"src\" out of range",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":false,"start":"0","finish":"1"}"#,
            "line 2: \"dst\" must be a number",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":true,"finish":"1"}"#,
            "line 2: \"start\" must be a time",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"x","finish":"1"}"#,
            "line 2: \"start\": cannot parse \"x\" as a rational",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"1/0","finish":"1"}"#,
            "line 2: \"start\": cannot parse \"1/0\" as a rational",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"","finish":"1"}"#,
            "line 2: \"start\": cannot parse \"\" as a rational",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1/"}"#,
            "line 2: \"finish\": cannot parse \"1/\" as a rational",
        ),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"9007199254740993","finish":"1"}"#,
            "line 2: \"start\": 9007199254740993 is out of range (a time's numerator must \
             lie within ±2^53 and its denominator be at most 2^32)",
        ),
        (
            r#"{"type":"wake","proc":0,"at":"1/4294967297"}"#,
            "line 2: \"at\": 1/4294967297 is out of range (a time's numerator must \
             lie within ±2^53 and its denominator be at most 2^32)",
        ),
        (
            r#"{"type":"recv","seq":0,"src":0,"dst":1,"arrival":"1","start":"1","finish":"2","queued":1}"#,
            "line 2: \"queued\" must be a boolean",
        ),
        (
            r#"{"type":"recv","seq":0,"src":0,"dst":1,"arrival":"1","start":"1","finish":"2"}"#,
            "line 2: missing field \"queued\"",
        ),
        (
            r#"{"type":"wake","proc":0}"#,
            "line 2: missing field \"at\"",
        ),
        (
            r#"{"type":"violation","seq":0,"dst":1,"arrival":"1","busy_until":"x"}"#,
            "line 2: \"busy_until\": cannot parse \"x\" as a rational",
        ),
        (
            r#"{"type":"drop","seq":0,"src":0,"dst":1}"#,
            "line 2: missing field \"at\"",
        ),
        (
            r#"{"type":"crash","proc":-0,"at":"1"}"#,
            "line 2: \"proc\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"truncated","processed":1,"limit":"2","at":"1"}"#,
            "line 2: \"limit\" must be a number",
        ),
    ];
    for (line, want) in cases {
        assert_eq!(err_after_header(line), *want, "input {line:?}");
    }
}

#[test]
fn header_errors() {
    let cases: &[(&str, &str)] = &[
        ("", "empty log: no \"run\" header"),
        ("\n\n  \n", "empty log: no \"run\" header"),
        (
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1"}"#,
            "line 1: first line must be the \"run\" header",
        ),
        (
            "\n\n{\"type\":\"wake\",\"proc\":0,\"at\":\"1\"}",
            "line 3: first line must be the \"run\" header",
        ),
        (
            r#"{"type":"wake"}"#,
            "line 1: first line must be the \"run\" header",
        ),
        (
            r#"{"type":"run","n":3}"#,
            "line 1: missing field \"engine\"",
        ),
        (
            r#"{"type":"run","engine":"e"}"#,
            "line 1: missing field \"n\"",
        ),
        (
            r#"{"type":"run","engine":1,"n":3}"#,
            "line 1: \"engine\" must be a string",
        ),
        (
            r#"{"type":"run","engine":"e","n":"3"}"#,
            "line 1: \"n\" must be a number",
        ),
        (
            r#"{"type":"run","engine":"e","n":4294967296}"#,
            "line 1: \"n\" out of range",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"lambda":"1/2"}"#,
            "line 1: invalid lambda: latency must satisfy λ ≥ 1, got 1/2",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"lambda":0}"#,
            "line 1: invalid lambda: latency must satisfy λ ≥ 1, got 0",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"lambda":"65537"}"#,
            "line 1: invalid lambda: 65537 is out of range (λ's numerator and denominator \
             must be at most 2^16)",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"lambda":false}"#,
            "line 1: \"lambda\" must be a time",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"lambda":"two"}"#,
            "line 1: \"lambda\": cannot parse \"two\" as a rational",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"messages":-2}"#,
            "line 1: \"messages\" is not a nonnegative integer",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"dropped":"4"}"#,
            "line 1: \"dropped\" must be a number",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"sample":8}"#,
            "line 1: \"sample\" must be a string",
        ),
        (
            r#"{"type":"run","engine":"e","n":3,"ring_capacity":true}"#,
            "line 1: \"ring_capacity\" must be a number",
        ),
    ];
    for (text, want) in cases {
        assert_eq!(err(text), *want, "input {text:?}");
    }
    assert_eq!(
        err(&format!("{HEADER}\n\n{HEADER}\n")),
        "line 3: duplicate \"run\" header"
    );
    assert_eq!(
        err_after_header(r#"{"type":"warp"}"#),
        "line 2: unknown event type \"warp\""
    );
    assert_eq!(
        err_after_header(r#"{"type":"Send","seq":0}"#),
        "line 2: unknown event type \"Send\""
    );
}

#[test]
fn the_first_error_wins_and_syntax_precedes_fields() {
    // A syntax error is reported even when the line also lacks fields.
    assert_eq!(
        err_after_header(r#"{"type":"warp",}"#),
        "line 2: expected '\"'"
    );
    // Earlier lines are checked first, line numbers count blank lines.
    assert_eq!(
        err(&format!("{HEADER}\n\n\n{{\"type\":\"warp\"}}\nnot json\n")),
        "line 4: unknown event type \"warp\""
    );
    // Fields are read in the event's declared order.
    assert_eq!(
        err_after_header(r#"{"type":"send","start":"x"}"#),
        "line 2: missing field \"seq\""
    );
}

#[test]
fn the_streaming_parser_reports_the_same_text() {
    let mut p = JsonlParser::new();
    assert_eq!(p.line(HEADER).unwrap(), None);
    assert_eq!(p.line("   ").unwrap(), None);
    assert_eq!(
        p.line(r#"{"type":"warp"}"#).unwrap_err().to_string(),
        "line 3: unknown event type \"warp\""
    );
    assert_eq!(
        JsonlParser::new().finish().unwrap_err().to_string(),
        "empty log: no \"run\" header"
    );
}

fn one_send() -> ObsLog {
    ObsLog::new(
        RunMeta::new("event", 3)
            .latency(Latency::from_ratio(5, 2))
            .messages(1),
        vec![ObsEvent::Send {
            seq: 0,
            src: 0,
            dst: 1,
            start: Time::ZERO,
            finish: Time::ONE,
        }],
    )
}

#[test]
fn crlf_endings_and_blank_lines_parse_like_lf() {
    let send = r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1"}"#;
    let lf = format!("{HEADER}\n{send}\n");
    let crlf = lf.replace('\n', "\r\n");
    let padded = format!("\r\n  \n{}\r\n\t\r\n", crlf.trim_end());
    for text in [&lf, &crlf, &padded] {
        assert_eq!(from_jsonl(text).unwrap(), one_send(), "{text:?}");
    }
    // Line numbers on a CRLF log count the same lines.
    assert_eq!(
        err("\r\n{\"type\":\"warp\"}\r\n"),
        "line 2: first line must be the \"run\" header"
    );
    assert_eq!(
        err(&format!("{HEADER}\r\n\r\n{}\r\n", r#"{"type":"send"}"#)),
        "line 3: missing field \"seq\""
    );
}

#[test]
fn unknown_and_surplus_fields_are_ignored() {
    // Whitespace around tokens, unknown keys, numeric times, and every
    // value kind in an unknown field.
    let text = concat!(
        r#"{ "type" : "run" , "engine":"event","n":3,"lambda":"5/2","messages":1,"#,
        r#""host":"x","ok":true,"t":-1.5e3 }"#,
        "\n",
        r#"{"note":"hi","type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":1,"#,
        r#""tag":false}"#,
        "\n",
    );
    assert_eq!(from_jsonl(text).unwrap(), one_send());

    // More fields than the writer ever emits on one line, with the ones
    // the event needs at the end; a duplicated key resolves to its first
    // occurrence.
    let after_header = |line: &str| format!("{HEADER}\n{line}\n");
    let wide = after_header(concat!(
        r#"{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"src":0,"#,
        r#""type":"send","seq":0,"dst":1,"start":"0","finish":"1","src":2}"#,
    ));
    assert_eq!(from_jsonl(&wide).unwrap(), one_send());
    let wide_missing = after_header(concat!(
        r#"{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"#,
        r#""type":"send","seq":0,"src":0,"dst":1,"start":"0"}"#,
    ));
    assert_eq!(err(&wide_missing), "line 2: missing field \"finish\"");
    let wide_bad = after_header(concat!(
        r#"{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7,"h":8,"i":9,"#,
        r#""type":"send","seq":0,"src":0,"dst":1,"start":"0","finish":"1","z":}"#,
    ));
    assert_eq!(
        err(&wide_bad),
        "line 2: expected a string, number or boolean value"
    );
}

#[test]
fn a_line_is_read_by_its_own_keys_and_their_first_occurrence() {
    let send = |front: &str, back: &str| {
        format!(
            "{HEADER}\n{{{front}\"type\":\"send\",\"seq\":0,\"src\":0,\"dst\":1,\
             \"start\":\"0\",\"finish\":\"1\"{back}}}\n"
        )
    };
    // Keys that another event kind or the header reads are ignored on a
    // send line, whatever their values.
    assert_eq!(from_jsonl(&send(r#""at":"x","#, "")).unwrap(), one_send());
    assert_eq!(
        from_jsonl(&send(
            r#""proc":true,"n":"3","#,
            r#","queued":7,"lambda":"0""#
        ))
        .unwrap(),
        one_send()
    );
    // Keys sharing a prefix with a known key, or contained in one, are
    // unknown and ignored.
    assert_eq!(
        from_jsonl(&send(
            r#""sta":"x","starts":false,"#,
            r#","s":1,"finished":"y""#
        ))
        .unwrap(),
        one_send()
    );
    // A duplicated key resolves to its first value, also when that
    // value has the wrong type.
    assert_eq!(
        err_after_header(
            r#"{"type":"send","seq":"x","src":0,"dst":1,"start":"0","finish":"1","seq":0}"#
        ),
        "line 2: \"seq\" must be a number"
    );
    assert_eq!(
        err_after_header(
            r#"{"type":"send","seq":0,"src":0,"dst":1,"start":"x","finish":"1","start":"0"}"#
        ),
        "line 2: \"start\": cannot parse \"x\" as a rational"
    );
    assert_eq!(
        err(&format!(
            "{}\n",
            r#"{"type":"run","engine":"e","n":"3","n":3}"#
        )),
        "line 1: \"n\" must be a number"
    );
}
