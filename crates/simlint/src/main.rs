//! `simlint` CLI: lint the workspace; any unwaived finding fails.
//!
//! ```text
//! cargo run -p simlint                      # lint, print unwaived findings
//! cargo run -p simlint -- -v                # also list waived findings
//! cargo run -p simlint -- --json            # machine-readable report on stdout
//! cargo run -p simlint -- --write-bench     # append a findings snapshot to BENCH_LINT.json
//! cargo run -p simlint -- --check-bench     # diff per-lint counts against the last snapshot
//! cargo run -p simlint -- --root /path      # lint another checkout
//! ```
//!
//! Exit codes: 0 clean (every finding waived inline), 1 an unwaived
//! finding or a bench regression under `--check-bench`; 2 usage error.

use simlint::{Config, Lint, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    verbose: bool,
    json: bool,
    write_bench: bool,
    check_bench: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut verbose = false;
    let mut json = false;
    let mut write_bench = false;
    let mut check_bench = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(argv.next().ok_or("--root needs a path")?);
            }
            "--verbose" | "-v" => verbose = true,
            "--json" => json = true,
            "--write-bench" => write_bench = true,
            "--check-bench" => check_bench = true,
            "--help" | "-h" => {
                println!(
                    "simlint — workspace determinism & protocol linter\n\n\
                     USAGE: simlint [--root DIR] [--json] [--write-bench] [--check-bench] [-v]\n\n\
                     Lints:"
                );
                for lint in Lint::all() {
                    println!("  {}", lint.name());
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    // Default root: walk up from CWD to the directory holding the
    // workspace Cargo.toml, so `cargo run -p simlint` works from anywhere
    // inside the repo.
    if root.as_os_str() == "." {
        let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
        loop {
            if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
                root = dir;
                break;
            }
            if !dir.pop() {
                return Err("could not locate the workspace root (no Cargo.toml with crates/); pass --root".into());
            }
        }
    }
    Ok(Args { root, verbose, json, write_bench, check_bench })
}

/// Findings per lint name (zero-filled so trends never drop a series).
fn per_lint_counts(report: &Report) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = Lint::all().iter().map(|l| (l.name(), 0)).collect();
    for v in report.violations.iter().chain(&report.waived) {
        *counts.entry(v.lint.name()).or_insert(0) += 1;
    }
    counts
}

/// Minimal JSON string escaping (the only strings we emit are paths,
/// lint names, keys and messages — no exotic control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine-readable report: totals, per-lint counts, and every
/// finding (unwaived and waived) with its disposition.
fn render_json(report: &Report) -> String {
    let counts = per_lint_counts(report);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files\": {},\n", report.files_scanned));
    out.push_str(&format!(
        "  \"findings\": {},\n",
        report.violations.len() + report.waived.len()
    ));
    out.push_str(&format!("  \"waived\": {},\n", report.waived.len()));
    out.push_str(&format!("  \"unwaived\": {},\n", report.violations.len()));
    out.push_str("  \"per_lint\": {");
    let body: Vec<String> = counts
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    out.push_str(&body.join(", "));
    out.push_str("},\n  \"violations\": [\n");
    let mut rows: Vec<_> = report.violations.iter().map(|v| (v, "unwaived")).collect();
    rows.extend(report.waived.iter().map(|v| (v, "waived")));
    // Fully deterministic order across the merged lists, so archived CI
    // reports diff cleanly run to run.
    rows.sort_by(|(a, _), (b, _)| {
        (&a.file, a.line, a.lint.name(), &a.key).cmp(&(&b.file, b.line, b.lint.name(), &b.key))
    });
    let rendered: Vec<String> = rows
        .iter()
        .map(|(v, disposition)| {
            format!(
                "    {{\"lint\": {}, \"file\": {}, \"line\": {}, \"key\": {}, \
                 \"disposition\": {}, \"message\": {}}}",
                json_str(v.lint.name()),
                json_str(&v.file),
                v.line,
                json_str(&v.key),
                json_str(disposition),
                json_str(&v.message)
            )
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// One `BENCH_LINT.json` trajectory snapshot.
fn render_bench_entry(seq: usize, report: &Report) -> String {
    let counts = per_lint_counts(report);
    let body: Vec<String> = counts
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    format!(
        "  {{\"seq\": {seq}, \"files\": {}, \"findings\": {}, \"waived\": {}, \"per_lint\": {{{}}}}}",
        report.files_scanned,
        report.violations.len() + report.waived.len(),
        report.waived.len(),
        body.join(", ")
    )
}

/// Pulls `"per_lint": {...}` maps out of `BENCH_LINT.json` with a hand
/// scanner (the file is machine-written, flat, and dependency-free
/// parsing is a crate constraint). Returns the *last* snapshot's map.
fn last_bench_counts(text: &str) -> Option<BTreeMap<String, usize>> {
    let start = text.rfind("\"per_lint\"")?;
    let open = text[start..].find('{')? + start;
    let close = text[open..].find('}')? + open;
    let mut map = BTreeMap::new();
    for pair in text[open + 1..close].split(',') {
        let (k, v) = pair.split_once(':')?;
        let name = k.trim().trim_matches('"').to_string();
        let n: usize = v.trim().parse().ok()?;
        map.insert(name, n);
    }
    Some(map)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config::trans_fw();
    let report = match simlint::run_workspace(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: {e}");
            return ExitCode::from(2);
        }
    };
    let bench_path = args.root.join("BENCH_LINT.json");

    if args.write_bench {
        let existing = std::fs::read_to_string(&bench_path).unwrap_or_default();
        let seq = existing.matches("\"seq\"").count() + 1;
        let entry = render_bench_entry(seq, &report);
        let merged = match existing.trim_end().strip_suffix(']') {
            Some(head) if head.trim_end().ends_with('}') => {
                format!("{},\n{entry}\n]\n", head.trim_end())
            }
            _ => format!("[\n{entry}\n]\n"),
        };
        if let Err(e) = std::fs::write(&bench_path, merged) {
            eprintln!("simlint: write {}: {e}", bench_path.display());
            return ExitCode::from(2);
        }
        eprintln!("simlint: appended snapshot #{seq} to {}", bench_path.display());
    }

    let mut bench_regressed = false;
    if args.check_bench {
        match std::fs::read_to_string(&bench_path) {
            Ok(text) => match last_bench_counts(&text) {
                Some(last) => {
                    let now = per_lint_counts(&report);
                    for (name, &n) in &now {
                        let then = last.get(*name).copied().unwrap_or(0);
                        if n > then {
                            eprintln!(
                                "bench regression: {name} findings grew {then} -> {n} \
                                 (run --write-bench after a justified increase)"
                            );
                            bench_regressed = true;
                        }
                    }
                }
                None => {
                    eprintln!("simlint: {}: no per_lint snapshot found", bench_path.display());
                    bench_regressed = true;
                }
            },
            Err(e) => {
                eprintln!("simlint: read {}: {e}", bench_path.display());
                bench_regressed = true;
            }
        }
    }

    if args.json {
        print!("{}", render_json(&report));
    } else {
        if args.verbose {
            for v in &report.waived {
                println!("waived: {v}");
            }
        }
        for v in &report.violations {
            println!("error: {v}");
        }
        println!(
            "simlint: {} files, {} findings ({} waived inline), {} unwaived",
            report.files_scanned,
            report.violations.len() + report.waived.len(),
            report.waived.len(),
            report.violations.len()
        );
    }
    if report.violations.is_empty() && !bench_regressed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
