//! The one argument parser: each subcommand declares its arguments in a
//! [`Command`] table, [`Args::parse`] reads argv against it, and the
//! typed getters check each value against the bounds the table or the
//! file readers set.

use crate::{usage_error, CliError};
use postal_model::{Interval, Latency, Topology, TopologySpec};
use postal_obs::SampleSpec;
use postal_verify::Severity;

/// How a declared argument is read.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// A flag that takes no value.
    Switch,
    /// One value, checked by the getter that reads it.
    Value,
    /// One integer in `lo..=hi`.
    Int(u64, u64),
}

/// `<n>` wherever a subcommand sets no tighter bound.
pub(crate) const N: Kind = Kind::Int(1, 1_000_000);
/// `<m>` wherever a subcommand sets no tighter bound.
pub(crate) const M: Kind = Kind::Int(1, 100_000);

/// A subcommand: its name, its arguments and the function that runs it.
/// An argument whose name starts with `--` is a flag; the others are
/// positionals, all required, filled in the order they are declared.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    pub(crate) args: &'static [(&'static str, Kind)],
    pub(crate) run: fn(&Args) -> Result<String, CliError>,
}

/// The text each declared argument was given, if any.
pub(crate) struct Args<'a> {
    cmd: &'static Command,
    /// One slot per entry of `cmd.args`; a given switch reads `""`.
    given: Vec<Option<&'a str>>,
}

impl<'a> Args<'a> {
    /// Reads `argv` (the arguments after the subcommand's name) against
    /// `cmd`'s table, under the contract in the crate doc. An argument
    /// that starts with `-` and not `-<digit>` is a flag.
    pub(crate) fn parse(cmd: &'static Command, argv: &'a [String]) -> Result<Args<'a>, CliError> {
        let mut given = vec![None; cmd.args.len()];
        let mut positionals = (0..cmd.args.len()).filter(|&i| !cmd.args[i].0.starts_with("--"));
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let is_flag =
                arg.starts_with('-') && !arg[1..].starts_with(|c: char| c.is_ascii_digit());
            if !is_flag {
                let i = positionals
                    .next()
                    .ok_or_else(|| usage_error(&format!("unexpected extra argument {arg:?}")))?;
                given[i] = Some(arg.as_str());
                continue;
            }
            let i = (0..cmd.args.len())
                .find(|&i| cmd.args[i].0 == arg)
                .ok_or_else(|| CliError::Invalid(format!("unknown {} flag {arg:?}", cmd.name)))?;
            given[i] = Some(match cmd.args[i].1 {
                Kind::Switch => "",
                _ => argv
                    .next()
                    .ok_or_else(|| CliError::Invalid(format!("{arg} needs a value")))?,
            });
        }
        if let Some(i) = positionals.next() {
            return Err(usage_error(&format!(
                "{} needs <{}>",
                cmd.name, cmd.args[i].0
            )));
        }
        Ok(Args { cmd, given })
    }

    /// The declared kind of `name` and the text it was given.
    ///
    /// # Panics
    /// Panics if the command does not declare `name`: a getter asked
    /// for an argument its own table lacks.
    fn slot(&self, name: &str) -> (Kind, Option<&'a str>) {
        let i = (0..self.cmd.args.len())
            .find(|&i| self.cmd.args[i].0 == name)
            .unwrap_or_else(|| panic!("`{}` declares no {name}", self.cmd.name));
        (self.cmd.args[i].1, self.given[i])
    }

    /// The text of `name`, if given.
    pub(crate) fn get(&self, name: &str) -> Option<&'a str> {
        self.slot(name).1
    }

    /// The text of an argument the subcommand cannot run without.
    pub(crate) fn text(&self, name: &str) -> Result<&'a str, CliError> {
        self.get(name).ok_or_else(|| self.missing(name))
    }

    fn missing(&self, name: &str) -> CliError {
        usage_error(&format!("{} needs {name}", self.cmd.name))
    }

    /// The integer `name`, within its declared range, if given.
    pub(crate) fn opt_int(&self, name: &str) -> Result<Option<u64>, CliError> {
        let (Kind::Int(lo, hi), given) = self.slot(name) else {
            panic!("`{}` declares {name} as no integer", self.cmd.name)
        };
        given
            .map(|s| {
                s.parse()
                    .ok()
                    .filter(|v| (lo..=hi).contains(v))
                    .ok_or_else(|| bad(name, s, &format!("expected an integer {}", bounds(lo, hi))))
            })
            .transpose()
    }

    /// A required integer argument, within its declared range.
    pub(crate) fn int(&self, name: &str) -> Result<u64, CliError> {
        self.opt_int(name)?.ok_or_else(|| self.missing(name))
    }

    /// A required λ argument.
    pub(crate) fn lambda(&self, name: &str) -> Result<Latency, CliError> {
        parse_lambda(self.text(name)?)
    }

    /// A required λ-range argument: `A..B`, or `A` for `[A, A]`; each
    /// endpoint is read like a λ.
    pub(crate) fn lambda_range(&self, name: &str) -> Result<Interval, CliError> {
        let s = self.text(name)?;
        let (a, b) = s.split_once("..").unwrap_or((s, s));
        let (a, b) = (parse_lambda(a)?, parse_lambda(b)?);
        if a.value() > b.value() {
            let why = format!("empty range, {} > {}", a.value(), b.value());
            return Err(bad(name, s, &why));
        }
        Ok(Interval::new(a.value(), b.value()))
    }

    /// `--format`: true for `json`, false for `text` (the default).
    pub(crate) fn json(&self) -> Result<bool, CliError> {
        match self.get("--format") {
            None | Some("text") => Ok(false),
            Some("json") => Ok(true),
            Some(s) => Err(bad("--format", s, "expected text or json")),
        }
    }

    /// `--deny`: the lowest severity that fails the run (default error).
    pub(crate) fn deny(&self) -> Result<Severity, CliError> {
        match self.get("--deny") {
            None | Some("error") => Ok(Severity::Error),
            Some("warn") => Ok(Severity::Warn),
            Some(s) => Err(bad("--deny", s, "expected warn or error")),
        }
    }

    /// `--sample`, if given.
    pub(crate) fn sample(&self) -> Result<Option<SampleSpec>, CliError> {
        self.get("--sample")
            .map(|s| SampleSpec::parse(s).map_err(|e| bad("--sample", s, &e)))
            .transpose()
    }

    /// `--topology`, if given, instantiated for `n` processors.
    pub(crate) fn topology(&self, n: u32) -> Result<Option<Topology>, CliError> {
        self.get("--topology")
            .map(|s| parse_topology(s, n))
            .transpose()
    }
}

/// The one error form for a value that does not read.
fn bad(name: &str, value: &str, why: &str) -> CliError {
    CliError::Invalid(format!("bad {name} {value:?}: {why}"))
}

/// `in lo..=hi`, or `≥ lo` when only the lower end binds.
pub(crate) fn bounds(lo: u64, hi: u64) -> String {
    if hi == u64::MAX {
        format!("≥ {lo}")
    } else {
        format!("in {lo}..={hi}")
    }
}

/// The one λ parser behind every positional λ, `--lambda` and each end
/// of `--lambda-range`: the same bounds as a λ read from a file
/// ([`Latency::check_input`]), which also cap a run's tick denominator
/// at 2^17. Its errors name the value `lambda` wherever it was given.
fn parse_lambda(s: &str) -> Result<Latency, CliError> {
    s.parse::<Latency>()
        .map_err(|e| e.to_string())
        .and_then(Latency::check_input)
        .map_err(|e| bad("lambda", s, &e))
}

/// Parses a [`TopologySpec`] and instantiates it for `n` processors:
/// the `--topology` flag, or a schedule file's own `"topology"` field,
/// which is the flag's default.
pub(crate) fn parse_topology(spec: &str, n: u32) -> Result<Topology, CliError> {
    spec.parse::<TopologySpec>()
        .and_then(|s| s.instantiate(n))
        .map_err(|e| bad("--topology", spec, &e.to_string()))
}
