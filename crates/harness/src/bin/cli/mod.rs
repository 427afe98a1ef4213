//! Argument helpers shared by the experiment binaries: a bad command line
//! prints one line to stderr and exits with status 2 instead of panicking.

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

/// `value` parsed for `flag`, which needs `expected` (e.g. "an integer").
pub fn parse<T: FromStr>(flag: &str, value: &str, expected: &str) -> T {
    value.parse().unwrap_or_else(|_| fail(&format!("{flag} needs {expected}, got `{value}`")))
}

/// The value following the flag at `args[i]`, parsed.
pub fn value<T: FromStr>(args: &[String], i: usize, expected: &str) -> T {
    parse(&args[i], text(args, i), expected)
}
