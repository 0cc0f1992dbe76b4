//! Command-line helpers shared by the experiment bins: one way to read a
//! flag's value and one way to reject bad input.

use std::str::FromStr;

/// Reads and parses the value following `flag`.
///
/// # Errors
///
/// Returns a message when the value is missing or does not parse as `T`.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value \"{raw}\""))
}

/// Prints `error` and the usage text to stderr and exits with status 2,
/// the conventional status for malformed command-line input.
pub fn exit_usage(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}
