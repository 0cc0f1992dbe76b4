//! The lint contract that rustc and clippy carry for the simulator, and the
//! one rule they cannot express.
//!
//! * `clippy_config_carries_the_lint_rules` checks that the configuration
//!   enforcing the determinism and robustness rules is still in place:
//!   the `clippy.toml` bans, the crate-level panic and wildcard-arm lints,
//!   and the hot-path indexing lint. Dropping any of them fails
//!   `cargo test`, not only the CI clippy step.
//! * `counters_are_bumped_with_saturating_add` keeps the `u64` counters of
//!   `RunMetrics` and every `*Stats` struct from being bumped with a raw
//!   `+`: release builds do not overflow-check, and a wrapped counter
//!   would publish a wrong result. The counters stay plain public `u64`
//!   fields, so no type can enforce this; a source scan does.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The crates whose non-test code models simulator state.
const SIM_CRATES: &[&str] = &[
    "core", "cuckoo", "tlb", "ptw", "uvm", "mgpu", "sim-core", "scn",
];

/// The crates that deny `unwrap`/`expect` outside tests.
const NO_PANIC_CRATES: &[&str] = &[
    "core",
    "cuckoo",
    "tlb",
    "ptw",
    "uvm",
    "mgpu",
    "sim-core",
    "interconnect",
    "workloads",
];

/// The files that also deny unchecked indexing outside tests.
const HOT_PATH_FILES: &[&str] = &[
    "crates/mgpu/src/system.rs",
    "crates/mgpu/src/recovery.rs",
    "crates/mgpu/src/placement.rs",
    "crates/mgpu/src/host.rs",
    "crates/cuckoo/src/filter.rs",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = workspace_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Whether `src` has a crate- or module-level `#![warn(..)]` naming `lint`.
fn warns(src: &str, lint: &str) -> bool {
    src.lines()
        .any(|l| l.starts_with("#![warn(") && l.contains(lint))
}

#[test]
fn clippy_config_carries_the_lint_rules() {
    let clippy = read("clippy.toml");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "sim_core::rng::SimRng::new",
    ] {
        assert!(
            clippy
                .lines()
                .any(|l| l.trim_start().starts_with(&format!("{{ path = \"{path}\""))),
            "clippy.toml does not disallow `{path}`"
        );
    }
    for krate in NO_PANIC_CRATES {
        let lib = format!("crates/{krate}/src/lib.rs");
        let src = read(&lib);
        for lint in ["clippy::unwrap_used", "clippy::expect_used"] {
            assert!(warns(&src, lint), "{lib} lacks `#![warn({lint})]`");
        }
    }
    for file in [
        "crates/sim-core/src/lib.rs",
        "crates/uvm/src/lib.rs",
        "crates/mgpu/src/lib.rs",
        "crates/scn/src/print.rs",
    ] {
        let src = read(file);
        for lint in [
            "clippy::wildcard_enum_match_arm",
            "clippy::match_wildcard_for_single_variants",
        ] {
            assert!(warns(&src, lint), "{file} lacks `#![warn({lint})]`");
        }
    }
    for file in HOT_PATH_FILES {
        let lint = "clippy::indexing_slicing";
        assert!(warns(&read(file), lint), "{file} lacks `#![warn({lint})]`");
    }
}

#[test]
fn counters_are_bumped_with_saturating_add() {
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        collect_rs(
            &workspace_root().join(format!("crates/{krate}/src")),
            &mut files,
        );
    }
    // Non-test code only: `*_tests.rs` files are skipped, and a file's
    // unit tests sit in a trailing `mod tests`.
    let sources: Vec<(String, String)> = files
        .iter()
        .filter(|p| !p.to_string_lossy().ends_with("_tests.rs"))
        .map(|p| {
            let src = std::fs::read_to_string(p).expect("readable source");
            let code = src.split("\nmod tests {").next().unwrap_or_default();
            let rel = p.strip_prefix(workspace_root()).unwrap_or(p);
            (rel.display().to_string(), code.to_string())
        })
        .collect();

    let counters: BTreeSet<&str> = sources
        .iter()
        .flat_map(|(_, code)| counter_fields(code))
        .collect();
    for expected in ["local_faults", "mem_instructions", "migrations"] {
        assert!(
            counters.contains(expected),
            "counter `{expected}` not found: the struct scan is broken"
        );
    }

    let mut raw_adds = Vec::new();
    for (file, code) in &sources {
        for (n, line) in code.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for (at, _) in code.match_indices('.') {
                let after = &code[at + 1..];
                let len = after
                    .find(|ch: char| !ch.is_alphanumeric() && ch != '_')
                    .unwrap_or(after.len());
                if counters.contains(&after[..len]) && after[len..].trim_start().starts_with('+') {
                    raw_adds.push(format!("{file}:{}: {}", n + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        raw_adds.is_empty(),
        "bump counters with `saturating_add`, not `+`:\n{}",
        raw_adds.join("\n")
    );
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The `u64` field names of every `RunMetrics` and `*Stats` struct in `code`.
fn counter_fields(code: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut in_counters = false;
    for line in code.lines().map(str::trim) {
        if let Some(decl) = line.split("struct ").nth(1) {
            let name = decl.split(['<', ' ', '{']).next().unwrap_or_default();
            in_counters = line.ends_with('{') && (name == "RunMetrics" || name.ends_with("Stats"));
        } else if line.starts_with('}') {
            in_counters = false;
        } else if let Some((name, ty)) = line.split_once(':').filter(|_| in_counters) {
            if ty.split("//").next().unwrap_or_default().trim() == "u64," {
                fields.push(
                    name.trim_start_matches("pub(crate) ")
                        .trim_start_matches("pub "),
                );
            }
        }
    }
    fields
}
