//! rustc-style text rendering for diagnostics.
//!
//! ```text
//! error[P0001]: p0 starts sends at t = 0 and t = 1/2 (1/2 < 1 unit apart)
//!   --> bad.json: p0
//!    = send: p0 -> p1 at t = 0
//!    = send: p0 -> p2 at t = 1/2
//!    = rule: a processor "can send a new message to a new processor every
//!      unit of time" ...
//! ```

use postal_model::lint::{Diagnostic, LintCode, Severity};
use postal_model::text::push_int;
use postal_model::Ratio;

/// Width of the wrapped rule text, and the indent of its continuation
/// lines.
const RULE_WIDTH: usize = 72;
const RULE_INDENT: &str = "     ";

/// Renders one diagnostic in rustc style. `source` names the schedule
/// being linted (a file path, or e.g. `"<trace>"`).
pub fn render_diagnostic(d: &Diagnostic, source: &str) -> String {
    let mut out = String::new();
    write_diagnostic(
        &mut out,
        d,
        source,
        &wrap(d.rule(), RULE_WIDTH, RULE_INDENT),
    );
    out
}

/// Appends one diagnostic's rows to `out`, field by field, with its
/// code's rule text already wrapped.
fn write_diagnostic(out: &mut String, d: &Diagnostic, source: &str, rule: &str) {
    out.push_str(d.severity.as_str());
    out.push('[');
    out.push_str(d.code.as_str());
    out.push_str("]: ");
    out.push_str(&d.message);
    out.push_str("\n  --> ");
    out.push_str(source);
    if let Some(p) = d.proc {
        out.push_str(": p");
        push_int(out, p);
    }
    out.push('\n');
    for s in &d.sends {
        out.push_str("   = send: p");
        push_int(out, s.src);
        out.push_str(" -> p");
        push_int(out, s.dst);
        out.push_str(" at t = ");
        push_ratio(out, s.send_start.as_ratio());
        out.push('\n');
    }
    if let Some(t) = d.related_time {
        out.push_str("   = at: t = ");
        push_ratio(out, t.as_ratio());
        out.push('\n');
    }
    if let Some(w) = d.witness {
        out.push_str("   = witness: lambda in [");
        push_ratio(out, w.lo());
        out.push_str(", ");
        push_ratio(out, w.hi());
        out.push_str("]\n");
    }
    out.push_str("   = rule: ");
    out.push_str(rule);
    out.push('\n');
}

/// Appends a time's text (`"5/2"`).
fn push_ratio(out: &mut String, r: Ratio) {
    // Writing to a `String` cannot fail.
    let _ = r.write_text(out);
}

/// Renders a full report: every diagnostic plus a summary line.
/// Returns the empty string when there is nothing to say. Each code's
/// rule text is wrapped once, however many diagnostics carry it.
pub fn render_report(diags: &[Diagnostic], source: &str) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let mut rules: Vec<(LintCode, String)> = Vec::new();
    for d in diags {
        let i = match rules.iter().position(|(code, _)| *code == d.code) {
            Some(i) => i,
            None => {
                rules.push((d.code, wrap(d.rule(), RULE_WIDTH, RULE_INDENT)));
                rules.len() - 1
            }
        };
        write_diagnostic(&mut out, d, source, &rules[i].1);
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .count();
    let infos = diags
        .iter()
        .filter(|d| d.severity == Severity::Info)
        .count();
    let mut parts = Vec::new();
    if errors > 0 {
        parts.push(format!("{errors} error{}", plural(errors)));
    }
    if warnings > 0 {
        parts.push(format!("{warnings} warning{}", plural(warnings)));
    }
    if infos > 0 {
        parts.push(format!("{infos} note{}", plural(infos)));
    }
    out.push_str(&format!("{source}: {}\n", parts.join(", ")));
    out
}

fn plural(k: usize) -> &'static str {
    if k == 1 {
        ""
    } else {
        "s"
    }
}

/// Greedy word wrap with a hanging indent for continuation lines.
fn wrap(text: &str, width: usize, indent: &str) -> String {
    let mut out = String::new();
    let mut line_len = 0usize;
    for word in text.split_whitespace() {
        if line_len == 0 {
            out.push_str(word);
            line_len = word.len();
        } else if line_len + 1 + word.len() > width {
            out.push('\n');
            out.push_str(indent);
            out.push_str(word);
            line_len = word.len();
        } else {
            out.push(' ');
            out.push_str(word);
            line_len += 1 + word.len();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::latency::Latency;
    use postal_model::lint::{lint_schedule, LintOptions};
    use postal_model::schedule::{Schedule, TimedSend};
    use postal_model::time::Time;

    #[test]
    fn renders_code_location_sends_and_rule() {
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
        let text = render_report(&diags, "bad.json");
        assert!(text.contains("error[P0001]"), "{text}");
        assert!(text.contains("--> bad.json: p0"), "{text}");
        assert!(text.contains("= send: p0 -> p2 at t = 1/2"), "{text}");
        assert!(text.contains("= rule:"), "{text}");
        assert!(text.contains("bad.json: 1 error"), "{text}");
    }

    #[test]
    fn empty_report_renders_nothing() {
        assert_eq!(render_report(&[], "x"), "");
    }
}
