//! `simlint` — the workspace determinism & protocol linter.
//!
//! The simulator's headline guarantees (golden bit-identity runs,
//! checkpoint/restore replay, fault-plan-invariant placement) all rest on
//! the code being deterministic and the protocol being handled
//! exhaustively. The token-level rules live in clippy: the root
//! `clippy.toml` bans `HashMap`/`HashSet`/`Instant`/`SystemTime` in every
//! target, and each file in [`Config::hot_path_files`] switches on
//! `clippy::{unwrap_used, expect_used, indexing_slicing}`. This crate
//! checks what rustc and clippy cannot express:
//!
//! * **`protocol-exhaustive`** — no wildcard `_ =>` arms in matches over
//!   the protocol enums (`Event`, `MessageFate`, `ComponentEvent`,
//!   `PolicyKind`), so a new variant is a compile error at every handler.
//! * **`protocol-transition`** — no `match` over `ProtocolEvent` outside
//!   `crates/mgpu/src/protocol`: transition semantics live in exactly one
//!   module, the one the simulator *and* the `simcheck` model checker both
//!   execute, so they can never drift apart.
//! * **`metrics-complete`** — every public `RunMetrics` field must appear
//!   in the `run_json` serializer, so counters cannot silently vanish from
//!   published results.
//!
//! On top of the token lints sits a flow-aware layer ([`hir`] parses
//! items, [`symbols`] builds the workspace symbol table and call graph,
//! [`passes`] runs the analyses):
//!
//! * **`digest-complete`** — every field of a digest-bearing sim-state
//!   struct must flow into its crate's `StateDigest` path (the digest
//!   methods plus everything they transitively call); derived/cache-only
//!   fields carry inline waivers.
//! * **`epoch-digest-coverage`** — the same audit, transitively, for the
//!   plain structs nested under the epoch `StateDigest` root.
//! * **`rng-stream-discipline`** — every `SimRng` stream is salted per
//!   subsystem, literal seeds are unique, and raw streams never cross a
//!   public boundary outside `sim-core`.
//! * **`counter-saturation`** — `u64` counters of `RunMetrics`/`*Stats`
//!   structs are bumped with `saturating_add`, never raw `+`.
//! * **`panic-reach`** — no `.unwrap()`/`.expect()` in any function the
//!   protected mgpu hot paths can transitively reach, cross-crate
//!   included.
//!
//! Every unwaived finding fails. A finding can be waived inline with a
//! `// simlint::allow(<lint>): why` comment on or directly above the
//! offending line; a waiver that names no lint or waives nothing is
//! itself an `unfulfilled-allow` finding. See DESIGN.md, "Static analysis
//! & determinism contract".
//!
//! # Examples
//!
//! ```
//! use simlint::{lint_file, Config, FileCtx};
//!
//! let cfg = Config::trans_fw();
//! let ctx = FileCtx::new("crates/mgpu/src/policy.rs");
//! let src = "fn f(e: Event) { match e { Event::Tick => t(), _ => {} } }";
//! let v = lint_file(&ctx, src, &cfg);
//! assert_eq!(v.len(), 1);
//! assert_eq!(v[0].lint.name(), "protocol-exhaustive");
//! ```

pub mod hir;
pub mod lexer;
pub mod lints;
pub mod passes;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

pub use lints::{lint_file, lint_metrics};

/// The lint classes simlint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Wildcard arm in a match over a protocol enum.
    ProtocolExhaustive,
    /// A match over `ProtocolEvent` outside the shared transition module.
    ProtocolTransition,
    /// A `RunMetrics` field missing from the `run_json` serializer.
    MetricsComplete,
    /// A sim-state struct field that never reaches its digest path.
    DigestComplete,
    /// An unsalted, shared, or boundary-crossing `SimRng` stream.
    RngStream,
    /// A raw `+` on a `u64` counter field of a metrics/stats struct.
    CounterSaturation,
    /// A panic site reachable from the protected mgpu hot paths.
    PanicReach,
    /// A struct reachable through the epoch `StateDigest` with a field
    /// that never flows into any digest path.
    EpochDigestCoverage,
    /// A `simlint::allow` directive that names no lint or waives nothing.
    UnfulfilledAllow,
}

impl Lint {
    /// The lint's stable name, as used in reports and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Lint::ProtocolExhaustive => "protocol-exhaustive",
            Lint::ProtocolTransition => "protocol-transition",
            Lint::MetricsComplete => "metrics-complete",
            Lint::DigestComplete => "digest-complete",
            Lint::RngStream => "rng-stream-discipline",
            Lint::CounterSaturation => "counter-saturation",
            Lint::PanicReach => "panic-reach",
            Lint::EpochDigestCoverage => "epoch-digest-coverage",
            Lint::UnfulfilledAllow => "unfulfilled-allow",
        }
    }

    /// Parses a lint name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|l| l.name() == name)
    }

    /// Every lint, for `--help` output and per-lint counts.
    pub fn all() -> [Lint; 9] {
        [
            Lint::ProtocolExhaustive,
            Lint::ProtocolTransition,
            Lint::MetricsComplete,
            Lint::DigestComplete,
            Lint::RngStream,
            Lint::CounterSaturation,
            Lint::PanicReach,
            Lint::EpochDigestCoverage,
            Lint::UnfulfilledAllow,
        ]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Stable grouping key (e.g. `wildcard-arm(Event)`,
    /// `undigested(WalkCache.pressure)`) — deliberately *not* the line
    /// number, so keys survive unrelated edits.
    pub key: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Per-file lint context: where the file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The crate directory prefix (`crates/ptw`), empty for root files.
    pub crate_dir: String,
    /// Whether the whole file is test code (an integration-test dir or a
    /// `*_tests.rs` module included under `#[cfg(test)]`).
    pub is_test_file: bool,
}

impl FileCtx {
    /// Builds a context from a workspace-relative path.
    pub fn new(rel_path: &str) -> Self {
        let rel_path = rel_path.replace('\\', "/");
        let crate_dir = rel_path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split('/').next())
            .map(|name| format!("crates/{name}"))
            .unwrap_or_default();
        let is_test_file = rel_path.split('/').any(|seg| seg == "tests")
            || rel_path.ends_with("_tests.rs");
        Self { rel_path, crate_dir, is_test_file }
    }
}

/// What the linter enforces where. [`Config::trans_fw`] is this repo's
/// contract; tests construct narrower ones.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate dirs whose non-test code models simulator state: the
    /// counter-saturation audit covers their `*Stats`/`RunMetrics` fields.
    pub sim_state_crates: Vec<String>,
    /// The event-loop hot-path files: the panic-reach roots, and the files
    /// that carry the module-level clippy panic lints.
    pub hot_path_files: Vec<String>,
    /// Protocol enums whose matches must be exhaustive.
    pub protocol_enums: Vec<String>,
    /// The shared-transition event enum: matching over it is confined to
    /// [`Config::transition_home`].
    pub transition_enum: String,
    /// Path prefix where `transition_enum` matches are allowed — the one
    /// module the simulator and the model checker both execute.
    pub transition_home: String,
    /// `(file, struct)` holding the run metrics.
    pub metrics_struct: (String, String),
    /// `(file, fn)` serializing the run metrics.
    pub metrics_serializer: (String, String),
    /// Crate dirs under the digest-completeness audit: any struct here
    /// with a digest method must mix every field (or waive it inline).
    pub digest_crates: Vec<String>,
    /// Method names that count as digest entry points.
    pub digest_fn_names: Vec<String>,
    /// Crate dirs under the RNG-stream discipline lint.
    pub rng_crates: Vec<String>,
    /// The one file allowed to construct raw `SimRng` streams: the
    /// generator's own home, where forking/salting is implemented.
    pub rng_home: String,
    /// Crate dirs the panic-reach call graph spans.
    pub reach_crates: Vec<String>,
    /// `(file, fn)` of the epoch digest root the transitive coverage
    /// audit starts from.
    pub epoch_root: (String, String),
    /// Types the epoch coverage audit treats as opaque (config,
    /// metrics/accounting, injection plumbing — behavior-neutral by
    /// construction or audited by their own lint).
    pub epoch_exempt_types: Vec<String>,
}

impl Config {
    /// The Trans-FW workspace contract.
    pub fn trans_fw() -> Self {
        let c = |s: &str| format!("crates/{s}");
        Self {
            sim_state_crates: [
                "core", "cuckoo", "tlb", "ptw", "uvm", "mgpu", "sim-core", "scn",
            ]
            .iter()
            .map(|s| c(s))
            .collect(),
            hot_path_files: ["system", "recovery", "placement", "host"]
                .iter()
                .map(|s| format!("crates/mgpu/src/{s}.rs"))
                .collect(),
            protocol_enums: ["Event", "MessageFate", "ComponentEvent", "PolicyKind"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            transition_enum: "ProtocolEvent".into(),
            transition_home: c("mgpu/src/protocol"),
            metrics_struct: (c("mgpu/src/metrics.rs"), "RunMetrics".into()),
            metrics_serializer: (c("experiments/src/runner.rs"), "run_json".into()),
            digest_crates: [
                "core", "cuckoo", "tlb", "ptw", "uvm", "mgpu", "sim-core", "interconnect",
            ]
            .iter()
            .map(|s| c(s))
            .collect(),
            digest_fn_names: ["digest", "state_digest", "digest_into", "epoch_digest"]
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            rng_crates: [
                "core", "cuckoo", "tlb", "ptw", "uvm", "mgpu", "sim-core", "workloads",
            ]
            .iter()
            .map(|s| c(s))
            .collect(),
            rng_home: c("sim-core/src/rng.rs"),
            // scn deliberately excluded: its generic `run`/`parse`
            // helper names would pollute name-based call resolution.
            reach_crates: [
                "core",
                "cuckoo",
                "tlb",
                "ptw",
                "uvm",
                "mgpu",
                "sim-core",
                "interconnect",
                "workloads",
            ]
            .iter()
            .map(|s| c(s))
            .collect(),
            epoch_root: (c("mgpu/src/recovery.rs"), "state_digest".into()),
            epoch_exempt_types: [
                // Behavior-neutral by construction, or audited elsewhere.
                "SystemConfig",
                "RunMetrics",
                "FaultInjector",
                "CheckpointLog",
                "MigrationLog",
                "ForwardPolicy",
                // Deterministic plumbing: ordered by construction, its
                // contents are digested at the call sites that drain it.
                "DetMap",
                "DetSet",
                "EventQueue",
                "Entry",
                // Derived accounting (histograms, latency attribution).
                "Histogram",
                "LatencyAccumulator",
                "LatencyBreakdown",
                // Microarchitectural warm state: summary counters are mixed
                // at every call site (`hits()`/`misses()`/`len()`/`busy()`)
                // and replay-restore rebuilds contents from cycle zero.
                "Tlb",
                "Way",
                "Mshr",
                "PwQueue",
                "WalkerPool",
                // Overload-control primitives: their live state reaches the
                // digest through `OverloadControl::digest` via
                // `level_milli()`/`engaged()` summaries.
                "ExponentialBackoff",
                "Hysteresis",
                "TokenBucket",
                "WindowedCount",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        }
    }
}

/// Outcome of a workspace run: every finding, already split by the
/// inline-allow mechanism.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings not waived inline: any one of them fails the run.
    pub violations: Vec<Violation>,
    /// Findings waived by a `simlint::allow` directive.
    pub waived: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
}

/// Lints the workspace rooted at `root`.
///
/// # Errors
///
/// Returns a message when the workspace cannot be read (missing root, or
/// an unreadable source file).
pub fn run_workspace(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files = workspace_rs_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let abs = root.join(rel);
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("read {}: {e}", abs.display()))?;
        sources.push((FileCtx::new(rel), src));
    }
    Ok(run_sources(&sources, cfg))
}

/// Lints a set of in-memory sources: the per-file token lints and the
/// flow-aware workspace passes from [`passes`], with inline waivers
/// resolved by `lints::apply_allows`, plus the metrics-completeness pass
/// (when both its files are present). This is the shared core of
/// [`run_workspace`] and the multi-file fixture tests.
pub fn run_sources(sources: &[(FileCtx, String)], cfg: &Config) -> Report {
    let ws = symbols::Workspace::build(sources);
    let mut found = Vec::new();
    for unit in &ws.units {
        lints::lint_tokens(&unit.ctx, &unit.lexed, &unit.regions, cfg, &mut found);
    }
    found.extend(passes::run(&ws, cfg));
    let (mut violations, mut waived) = lints::apply_allows(&ws, found);
    // Metrics completeness needs both the struct and serializer files. Its
    // findings are not waivable: every public counter must be serialized.
    let find = |path: &str| sources.iter().find(|(c, _)| c.rel_path == path);
    if let (Some((_, metrics_src)), Some((_, ser_src))) =
        (find(&cfg.metrics_struct.0), find(&cfg.metrics_serializer.0))
    {
        violations.extend(lint_metrics(metrics_src, ser_src, cfg));
    }
    // Deterministic output order, whatever the directory walk produced,
    // so archived CI reports diff cleanly across runs.
    let by_site =
        |a: &Violation, b: &Violation| (&a.file, a.line, a.lint, &a.key).cmp(&(&b.file, b.line, b.lint, &b.key));
    violations.sort_by(by_site);
    waived.sort_by(by_site);
    Report { violations, waived, files_scanned: sources.len() }
}

/// Collects the workspace-relative paths of every `.rs` file the linter
/// scans: `crates/*/{src,tests,examples}` plus the repository-root
/// `tests/` and `examples/` (mounted into the facade crate), skipping
/// lint-test fixture dirs.
pub fn workspace_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        for sub in ["src", "tests", "examples"] {
            collect_rs(root, &dir.join(sub), &mut out);
        }
    }
    for top in ["tests", "examples"] {
        collect_rs(root, &root.join(top), &mut out);
    }
    out.sort();
    Ok(out)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return; // absent subdir: nothing to scan
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if p.is_dir() {
            // Fixture dirs hold deliberate violations for simlint's own
            // tests; `target` never holds first-party sources.
            if name != "fixtures" && name != "target" {
                collect_rs(root, &p, out);
            }
        } else if name.ends_with(".rs") {
            out.push(rel_to(root, &p));
        }
    }
}

fn rel_to(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_ctx_classifies_paths() {
        let c = FileCtx::new("crates/ptw/src/pwc.rs");
        assert_eq!(c.crate_dir, "crates/ptw");
        assert!(!c.is_test_file);
        assert!(FileCtx::new("crates/cuckoo/tests/stress.rs").is_test_file);
        assert!(FileCtx::new("tests/resilience.rs").is_test_file);
        assert!(FileCtx::new("crates/mgpu/src/system_tests.rs").is_test_file);
        assert_eq!(FileCtx::new("examples/quickstart.rs").crate_dir, "");
    }

    #[test]
    fn lint_names_round_trip() {
        for lint in Lint::all() {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_name("nope"), None);
    }
}
