//! The one command-line parser.
//!
//! A [`Flag`] row per flag, a [`Spec`] per subcommand, one
//! [`Spec::parse`] and one [`usage`]. Everything the subcommands'
//! command lines have in common lives here — alias lookup, value arity,
//! repeatable flags, required and optional positionals, the usage
//! errors, typed accessors, global-flag stripping — and the banner is
//! generated from the tables the parser reads, so the two cannot
//! disagree.

use crate::{usage_error, CliError};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// One flag: every spelling (`"-D|--deny-warnings"`) and one
/// placeholder per value it consumes (`""` for a switch,
/// `"eps min_pts"` for two values).
pub(crate) struct Flag {
    pub names: &'static str,
    pub values: &'static str,
}

/// One [`Flag`] row.
pub(crate) const fn flag(names: &'static str, values: &'static str) -> Flag {
    Flag { names, values }
}

/// One subcommand: its name, its positionals in order (`<name>`
/// required, `[name]` optional), its flags, and the function that runs
/// it on the parsed line.
pub(crate) struct Spec {
    pub cmd: &'static str,
    pub positionals: &'static str,
    pub flags: &'static [Flag],
    pub run: fn(&Parsed) -> Result<String, CliError>,
}

/// A command line split against one flag table: which rows occurred
/// with which values, and every token that belongs to no row.
pub(crate) struct Parsed<'a> {
    flags: &'static [Flag],
    found: Vec<(usize, &'a [String])>,
    /// Tokens that are neither a flag of the table nor one of its
    /// values, in order: the positionals of a subcommand line ([`Spec::parse`]
    /// has checked that the required ones are there), or the whole
    /// remaining line after [`strip`].
    pub rest: Vec<&'a str>,
}

/// Parse `text` as a number, naming `what` in the usage error.
pub(crate) fn number<T: FromStr<Err: Display>>(text: &str, what: &str) -> Result<T, CliError> {
    text.parse()
        .or_else(|e| usage_error(format!("bad {what}: {e}")))
}

/// The row of `flags` one of whose spellings is `word`.
fn row_of(flags: &[Flag], word: &str) -> Option<usize> {
    let spelled = |f: &Flag| f.names.split('|').any(|name| name == word);
    flags.iter().position(spelled)
}

/// Pull the flags of `flags` (and their values) out of `args`, wherever
/// they stand; everything else lands in [`Parsed::rest`] untouched.
/// This alone is the global-flag pass; [`Spec::parse`] adds the checks
/// on what is left.
pub(crate) fn strip<'a>(
    cmd: &'static str,
    flags: &'static [Flag],
    args: &'a [String],
) -> Result<Parsed<'a>, CliError> {
    let mut parsed = Parsed {
        flags,
        found: Vec::new(),
        rest: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match row_of(flags, &args[i]) {
            Some(row) => {
                let arity = flags[row].values.split_whitespace().count();
                let Some(values) = args.get(i + 1..i + 1 + arity) else {
                    return usage_error(format!(
                        "{cmd} option {} requires a value ({})",
                        args[i], flags[row].values
                    ));
                };
                parsed.found.push((row, values));
                i += arity;
            }
            None => parsed.rest.push(&args[i]),
        }
        i += 1;
    }
    Ok(parsed)
}

impl Spec {
    /// Parse one subcommand's arguments (the subcommand name and the
    /// global flags already removed): anything dash-led outside the
    /// table is an unknown option, and the positionals must match the
    /// declared count.
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<Parsed<'a>, CliError> {
        let (cmd, positionals) = (self.cmd, self.positionals);
        let parsed = strip(cmd, self.flags, args)?;
        if let Some(flag) = parsed.rest.iter().find(|a| a.starts_with('-')) {
            return usage_error(format!("unknown {cmd} option {flag}"));
        }
        if let Some(extra) = parsed.rest.get(positionals.split_whitespace().count()) {
            return usage_error(format!("unexpected extra {cmd} argument {extra}"));
        }
        if parsed.rest.len() < positionals.matches('<').count() {
            return usage_error(format!("expected: incprof {cmd} {positionals}"));
        }
        Ok(parsed)
    }
}

impl<'a> Parsed<'a> {
    /// The values of every occurrence of the flag spelled `name`, in
    /// command-line order (a repeatable flag reads them all). Asking
    /// for a flag the table does not declare is a bug in the caller,
    /// not in the command line.
    pub fn all(&self, name: &str) -> impl Iterator<Item = &'a [String]> + '_ {
        let row = row_of(self.flags, name)
            .unwrap_or_else(|| panic!("no flag {name} in this command's table"));
        self.found
            .iter()
            .filter(move |(r, _)| *r == row)
            .map(|(_, values)| *values)
    }

    /// All values of the flag's last occurrence (last one wins).
    pub fn values(&self, name: &str) -> Option<&'a [String]> {
        self.all(name).last()
    }

    /// Whether the flag was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).is_some()
    }

    /// The (first) value of a flag's last occurrence.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.values(name)?.first().map(String::as_str)
    }

    /// A flag's value as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name).map(PathBuf::from)
    }

    /// A flag's value as a number.
    pub fn num<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.get(name).map(|v| number(v, name)).transpose()
    }

    /// A flag's value as a number no smaller than `min`.
    pub fn at_least<T>(&self, name: &str, min: T) -> Result<Option<T>, CliError>
    where
        T: FromStr<Err: Display> + PartialOrd + Display,
    {
        match self.num(name)? {
            Some(n) if n < min => usage_error(format!("{name} must be at least {min}")),
            n => Ok(n),
        }
    }
}

/// One synopsis: `head`, then every flag as `[names values]`, wrapped
/// at 78 columns.
fn synopsis(head: String, flags: &[Flag]) -> String {
    let mut out = head;
    let mut column = out.len();
    for flag in flags {
        let item = match flag.values {
            "" => format!("[{}]", flag.names),
            values => format!("[{} {values}]", flag.names),
        };
        if column + 1 + item.len() > 78 {
            out.push_str("\n       ");
            column = 7;
        }
        out.push(' ');
        out.push_str(&item);
        column += 1 + item.len();
    }
    out
}

/// The usage banner: one synopsis per subcommand, then the global
/// flags, all read from the tables [`Spec::parse`] and [`strip`] use.
pub(crate) fn usage(title: &str, commands: &[Spec], global: &[Flag]) -> String {
    let mut out = format!("{title}\n\n");
    for spec in commands {
        let head = format!("  incprof {} {}", spec.cmd, spec.positionals);
        out.push_str(&synopsis(head.trim_end().to_string(), spec.flags));
        out.push('\n');
    }
    out.push('\n');
    out.push_str(&synopsis(
        "global options (any command, anywhere on the line):".to_string(),
        global,
    ));
    out
}
