//! Machine-readable experiment summaries and their pass/fail gates.
//!
//! Every `exp_*` binary writes a `BENCH_<id>.json` file alongside its
//! stdout report, so tooling can read experiment outcomes (row counts,
//! violation counts, overheads) without scraping text tables. A claim
//! or budget the binary checks is a gate ([`BenchReport::gate`]): a
//! name, the measured value, a [`Cmp`] and a bound, listed in the
//! file's `gates` array. Files land in `$BENCH_OUT_DIR` when set, else
//! at the workspace root (see [`out_dir`]); every binary funnels
//! through [`emit_json`], which writes the file, prints the trailing
//! `wrote <path>` line and one line per failed gate, and then exits 1
//! if any gate failed.

use crate::table::Table;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// How a gate compares its measured value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// The value must lie below the bound.
    Lt,
    /// The value must equal the bound.
    Eq,
    /// The value must lie above the bound.
    Gt,
}

/// One pass/fail check, named by a report key.
#[derive(Debug, Clone)]
struct Gate {
    name: String,
    value: f64,
    cmp: Cmp,
    bound: f64,
}

impl Gate {
    /// The comparison's symbol, and whether `value cmp bound` holds; a
    /// value that is not finite fails whatever the comparison.
    fn verdict(&self) -> (&'static str, bool) {
        let (v, b) = (self.value, self.bound);
        let (symbol, holds) = match self.cmp {
            Cmp::Lt => ("<", v < b),
            Cmp::Eq => ("==", v == b),
            Cmp::Gt => (">", v > b),
        };
        (symbol, holds && v.is_finite())
    }
}

/// A flat JSON summary of one experiment run. Fields and tables are
/// kept as their JSON text.
#[derive(Debug, Clone)]
pub struct BenchReport {
    id: String,
    fields: Vec<(String, String)>,
    gates: Vec<Gate>,
    tables: Vec<String>,
}

/// A number as JSON: non-finite values serialize as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Appends `"key": [...]`, one item per line.
fn push_array(out: &mut String, key: &str, items: &[String]) {
    let _ = write!(out, "  \"{key}\": [");
    if !items.is_empty() {
        let _ = write!(out, "\n    {}\n  ", items.join(",\n    "));
    }
    out.push(']');
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Starts a report for the experiment with the given id (the binary
    /// name without the `exp_` prefix).
    pub fn new(id: &str) -> BenchReport {
        BenchReport {
            id: id.to_string(),
            fields: Vec::new(),
            gates: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Records an integer field.
    pub fn int(&mut self, key: &str, value: i128) -> &mut BenchReport {
        self.fields.push((json_escape(key), value.to_string()));
        self
    }

    /// Records a floating-point field (non-finite values serialize as
    /// `null` to keep the file parseable).
    pub fn num(&mut self, key: &str, value: f64) -> &mut BenchReport {
        self.fields.push((json_escape(key), json_num(value)));
        self
    }

    /// Records a string field.
    pub fn text(&mut self, key: &str, value: &str) -> &mut BenchReport {
        let value = format!("\"{}\"", json_escape(value));
        self.fields.push((json_escape(key), value));
        self
    }

    /// Records a gate in the `gates` array: `value cmp bound` must hold,
    /// and a value that is not finite (NaN, ±∞) fails.
    pub fn gate(&mut self, name: &str, value: f64, cmp: Cmp, bound: f64) -> &mut BenchReport {
        self.gates.push(Gate {
            name: name.to_string(),
            value,
            cmp,
            bound,
        });
        self
    }

    /// One line per failed gate, naming its value and bound.
    fn failures(&self) -> Vec<String> {
        let failed = self.gates.iter().filter(|g| !g.verdict().1);
        let line = |g: &Gate| {
            let (name, value, cmp, bound) = (&g.name, g.value, g.verdict().0, g.bound);
            format!("gate {name} failed: {value} is not {cmp} {bound}")
        };
        failed.map(line).collect()
    }

    /// Records a table's title and row count in the `tables` array.
    pub fn table(&mut self, table: &Table) -> &mut BenchReport {
        let (title, rows) = (json_escape(table.title()), table.len());
        self.tables
            .push(format!("{{ \"title\": \"{title}\", \"rows\": {rows} }}"));
        self
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(&self.id));
        for (key, value) in &self.fields {
            let _ = writeln!(out, "  \"{key}\": {value},");
        }
        let gate = |g: &Gate| {
            let (name, value, bound) = (json_escape(&g.name), json_num(g.value), json_num(g.bound));
            let (cmp, pass) = g.verdict();
            format!(
                "{{ \"name\": \"{name}\", \"value\": {value}, \"cmp\": \"{cmp}\", \
                 \"bound\": {bound}, \"pass\": {pass} }}"
            )
        };
        let gates: Vec<String> = self.gates.iter().map(gate).collect();
        push_array(&mut out, "gates", &gates);
        out.push_str(",\n");
        push_array(&mut out, "tables", &self.tables);
        out.push_str("\n}");
        out
    }

    /// Writes `BENCH_<id>.json` into `dir` and returns the path.
    ///
    /// # Panics
    /// Panics when the file cannot be written — an experiment whose
    /// summary is lost should fail loudly, not silently.
    pub fn write_to(&self, dir: &std::path::Path) -> PathBuf {
        let path = dir.join(format!("BENCH_{}.json", self.id));
        std::fs::write(&path, self.to_json()).expect("writable BENCH output directory");
        path
    }
}

/// The standardized destination for every `exp_*` artifact:
/// `$BENCH_OUT_DIR` when set, else the workspace root — so running a
/// binary from any subdirectory lands `BENCH_<id>.json` in the one
/// place CI looks — falling back to the current directory if the
/// compile-time workspace path no longer exists (e.g. an installed
/// binary).
pub fn out_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("BENCH_OUT_DIR") {
        return PathBuf::from(dir);
    }
    if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .filter(|p| p.is_dir())
    {
        return root.to_path_buf();
    }
    PathBuf::from(".")
}

/// Writes `report` to [`out_dir`], prints the standard trailing
/// `wrote <path>` line and then one `error:` line per failed gate on
/// stderr; the single exit path shared by every `exp_*` binary. Exits
/// the process with status 1, after the file is written, when a gate
/// failed.
///
/// # Panics
/// Panics when the file cannot be written.
pub fn emit_json(report: &BenchReport) {
    println!("wrote {}", report.write_to(&out_dir()).display());
    let failures = report.failures();
    for line in &failures {
        eprintln!("error: {line}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_escaping() {
        let mut t = Table::new("λ \"sweep\"", &["a"]);
        t.row(vec!["1".into()]);
        let mut r = BenchReport::new("demo");
        r.int("cases", 42)
            .num("ratio", 1.5)
            .num("bad", f64::NAN)
            .text("note", "line1\nline2")
            .table(&t);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"demo\""), "{json}");
        assert!(json.contains("\"cases\": 42"), "{json}");
        assert!(json.contains("\"ratio\": 1.5"), "{json}");
        assert!(json.contains("\"bad\": null"), "{json}");
        assert!(json.contains("line1\\nline2"), "{json}");
        assert!(
            json.contains("\"title\": \"λ \\\"sweep\\\"\", \"rows\": 1"),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_tables_array_stays_valid() {
        let json = BenchReport::new("x").to_json();
        assert!(json.contains("\"gates\": [],\n  \"tables\": []"), "{json}");
    }

    #[test]
    fn non_finite_values_fail_every_comparison() {
        let mut r = BenchReport::new("x");
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            r.gate("lt", value, Cmp::Lt, 10.0)
                .gate("eq", value, Cmp::Eq, value)
                .gate("gt", value, Cmp::Gt, 0.0);
        }
        assert_eq!(r.failures().len(), 9, "{:?}", r.failures());
        assert_eq!(r.failures()[0], "gate lt failed: NaN is not < 10");
    }

    #[test]
    fn a_value_at_its_bound_passes_only_equality() {
        let mut r = BenchReport::new("x");
        r.gate("below", 2.0, Cmp::Lt, 2.0)
            .gate("above", 2.0, Cmp::Gt, 2.0)
            .gate("equal", 2.0, Cmp::Eq, 2.0)
            .gate("under", 1.5, Cmp::Lt, 2.0);
        let failed = [
            "gate below failed: 2 is not < 2",
            "gate above failed: 2 is not > 2",
        ];
        assert_eq!(r.failures(), failed);
    }

    #[test]
    fn gates_serialize_in_order_with_their_verdicts() {
        let mut r = BenchReport::new("x");
        r.int("cases", 3)
            .gate("secs", 1.25, Cmp::Lt, 10.0)
            .gate("unset", f64::NAN, Cmp::Lt, 64.0)
            .gate("events", 1_999_998.0, Cmp::Eq, 1_999_998.0);
        let want = concat!(
            "{\n  \"experiment\": \"x\",\n  \"cases\": 3,\n  \"gates\": [",
            "\n    { \"name\": \"secs\", \"value\": 1.25, \"cmp\": \"<\", \"bound\": 10, \"pass\": true },",
            "\n    { \"name\": \"unset\", \"value\": null, \"cmp\": \"<\", \"bound\": 64, \"pass\": false },",
            "\n    { \"name\": \"events\", \"value\": 1999998, \"cmp\": \"==\", \"bound\": 1999998, \"pass\": true }",
            "\n  ],\n  \"tables\": []\n}"
        );
        assert_eq!(r.to_json(), want);
    }

    #[test]
    fn a_failed_gate_still_writes_the_file() {
        let mut r = BenchReport::new("report-module-failed-gate");
        r.gate("overhead_x", 2.5, Cmp::Lt, 2.0);
        assert_eq!(r.failures().len(), 1);
        let path = r.write_to(&std::env::temp_dir());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"value\": 2.5, \"cmp\": \"<\", \"bound\": 2, \"pass\": false"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn out_dir_defaults_to_the_workspace_root() {
        // Under `cargo test` BENCH_OUT_DIR is normally unset; when a
        // caller exports it the override must win, so only assert the
        // default shape in the clean case.
        if std::env::var_os("BENCH_OUT_DIR").is_none() {
            let dir = out_dir();
            assert!(dir.join("Cargo.toml").is_file(), "{}", dir.display());
            assert!(dir.join("crates").is_dir(), "{}", dir.display());
        }
    }

    #[test]
    fn write_to_creates_the_file() {
        let dir = std::env::temp_dir();
        let mut r = BenchReport::new("report-module-test");
        r.int("ok", 1);
        let path = r.write_to(&dir);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "BENCH_report-module-test.json"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": 1"));
    }
}
