//! Argument helpers shared by the experiment binaries: a bad command line —
//! a missing value, one that does not parse, or one out of range — prints
//! one line to stderr and exits with status 2 instead of panicking.

use std::str::FromStr;

/// Prints `message` and exits with status 2.
pub fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// The text following the flag at `args[i]`.
pub fn text(args: &[String], i: usize) -> &str {
    match args.get(i + 1) {
        Some(value) => value,
        None => fail(&format!("{} needs a value", args[i])),
    }
}

/// `value` parsed for `flag` and accepted by `valid`; `expected` names what
/// the flag takes (e.g. "an integer >= 2").
pub fn parse<T: FromStr>(
    flag: &str,
    value: &str,
    expected: &str,
    valid: impl FnOnce(&T) -> bool,
) -> T {
    match value.parse() {
        Ok(parsed) if valid(&parsed) => parsed,
        _ => fail(&format!("{flag} needs {expected}, got `{value}`")),
    }
}

/// The value following the flag at `args[i]`, parsed.
pub fn value<T: FromStr>(args: &[String], i: usize, expected: &str) -> T {
    value_if(args, i, expected, |_| true)
}

/// The value following the flag at `args[i]`, parsed and accepted by
/// `valid`.
pub fn value_if<T: FromStr>(
    args: &[String],
    i: usize,
    expected: &str,
    valid: impl FnOnce(&T) -> bool,
) -> T {
    parse(&args[i], text(args, i), expected, valid)
}
