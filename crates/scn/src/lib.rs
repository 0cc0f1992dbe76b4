//! The `.scn` scenario description language.
//!
//! A scenario is a small declarative text file describing one complete
//! experiment: the system configuration (Table II knobs, Trans-FW tables,
//! overload and oversubscription control), the placement-policy axis, the
//! workload axis, the fault-plan axis and the seeds. The compiler lowers a
//! file to resolved [`Scenario`] IR built from the *real* configuration
//! structs and runs `SystemConfig::validate` on every cell, reporting its
//! error as a positioned [`Error`] at the offending key, so a compiled
//! scenario is guaranteed to construct a runnable system.
//!
//! The pipeline: [`lexer`] → [`parser`] ([`ast`]) → [`sema`] →
//! [`Scenario`], with [`Scenario::canonical`] the pretty-printed normal
//! form and [`Scenario::digest`] a stable identity over it (see
//! [`print`](mod@print)). The grammar's EBNF lives in DESIGN.md.
//!
//! # Examples
//!
//! ```
//! let sc = scn::compile_one(
//!     r#"scenario "demo" {
//!          seeds = 2
//!          scale = 0.1
//!          transfw { enabled = true }
//!          workload = [app(name = "KM"), phase_shift]
//!        }"#,
//! )
//! .unwrap();
//! assert_eq!(sc.cells().len(), 2);
//! assert_eq!(sc.seeds, vec![1, 2]);
//! // Identity is semantic: reformatting never changes the digest.
//! assert_eq!(scn::compile_one(&sc.canonical()).unwrap().digest(), sc.digest());
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod sema;

use std::path::{Path, PathBuf};

pub use print::fnv1a64;
pub use sema::{Cell, Scenario};

/// A 1-based source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pos {
    /// Line number, starting at 1.
    pub line: u32,
    /// Column number, starting at 1.
    pub col: u32,
}

/// A positioned compile error, displayed as `line:col: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Where in the source the error was detected.
    pub pos: Pos,
    /// What went wrong.
    pub msg: String,
}

impl Error {
    /// An error at a position.
    pub fn at(pos: Pos, msg: String) -> Self {
        Self { pos, msg }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.pos.line, self.pos.col, self.msg)
    }
}

impl std::error::Error for Error {}

/// Parses `.scn` source to its syntax tree (no semantic checking).
///
/// # Errors
///
/// Returns a positioned [`Error`] on lexical or syntax errors.
pub fn parse(src: &str) -> Result<ast::File, Error> {
    parser::parse(&lexer::lex(src)?)
}

/// Compiles `.scn` source to resolved scenarios.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error, positioned.
pub fn compile(src: &str) -> Result<Vec<Scenario>, Error> {
    sema::lower(&parse(src)?)
}

/// Compiles source that must contain exactly one scenario.
///
/// # Errors
///
/// As [`compile`], plus an error when the file holds zero or several
/// scenarios.
pub fn compile_one(src: &str) -> Result<Scenario, Error> {
    let mut scs = compile(src)?;
    match scs.len() {
        1 => Ok(scs.remove(0)),
        n => Err(Error::at(
            Pos { line: 1, col: 1 },
            format!("expected exactly one scenario, found {n}"),
        )),
    }
}

/// Locates the repository's committed `scenarios/` directory by walking up
/// from the current working directory (the committed scenarios sit beside
/// the workspace `Cargo.toml`), falling back to this crate's build-time
/// location so the experiment bins also work when invoked from outside the
/// repo. Returns `None` when neither walk finds it.
pub fn find_scenarios_dir() -> Option<PathBuf> {
    let from_cwd = std::env::current_dir()
        .ok()
        .and_then(|d| scenarios_dir_above(&d));
    from_cwd.or_else(|| scenarios_dir_above(Path::new(env!("CARGO_MANIFEST_DIR"))))
}

/// The committed scenario files: `(name, source)` for every
/// `<name>.scn` in [`find_scenarios_dir`], sorted by name.
///
/// # Errors
///
/// Returns a message when the directory is missing or a file is unreadable.
pub fn committed_sources() -> Result<Vec<(String, String)>, String> {
    let dir = find_scenarios_dir()
        .ok_or_else(|| "no scenarios/ directory found above the working directory".to_string())?;
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.extension() != Some("scn".as_ref()) {
            continue;
        }
        let name = path
            .file_stem()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((name, src));
    }
    out.sort();
    Ok(out)
}

fn scenarios_dir_above(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let candidate = dir.join("scenarios");
        if candidate.is_dir() && dir.join("Cargo.toml").is_file() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_as_line_col_message() {
        let e =
            compile("scenario \"s\" {\n  bogus_key = 1\n  workload = phase_shift\n}").unwrap_err();
        assert_eq!(e.pos.line, 2);
        assert!(e.to_string().starts_with("2:3: "), "{e}");
    }

    #[test]
    fn compile_one_rejects_multi_scenario_files() {
        let src = r#"scenario "a" { workload = phase_shift }
                     scenario "b" { workload = phase_shift }"#;
        assert_eq!(compile(src).unwrap().len(), 2);
        assert!(compile_one(src).unwrap_err().msg.contains("exactly one"));
    }

    #[test]
    fn duplicate_scenario_names_rejected() {
        let src = r#"scenario "a" { workload = phase_shift }
                     scenario "a" { workload = burst }"#;
        assert!(compile(src).unwrap_err().msg.contains("duplicate scenario"));
    }
}
