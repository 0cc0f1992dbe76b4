//! `simlint` — the workspace determinism & protocol linter.
//!
//! The simulator's headline guarantees (golden bit-identity runs,
//! checkpoint/restore replay, fault-plan-invariant placement) all rest on
//! the code being deterministic and the protocol being handled
//! exhaustively. This crate makes those invariants *statically checkable*:
//! a token-level pass over every workspace crate enforces
//!
//! * **`det-collections`** — no `std::collections::HashMap`/`HashSet` in
//!   sim-state crates; use `sim_core::det::{DetMap, DetSet}` (key-ordered,
//!   identical iteration on every run) instead.
//! * **`det-wallclock`** — no `Instant`/`SystemTime`/`thread_rng`/
//!   `rand::random` anywhere outside the bench harness: simulation time is
//!   [`Cycle`]s and randomness is the seeded `SimRng`, full stop.
//! * **`panic-freedom`** — no `.unwrap()`/`.expect()`/direct indexing in
//!   the event-loop hot paths (`mgpu::{system, recovery, placement,
//!   host}`) outside `#[cfg(test)]`.
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
//! * **`rng-stream-discipline`** — every `SimRng` stream is salted per
//!   subsystem, literal seeds are unique, and raw streams never cross a
//!   public boundary outside `sim-core`.
//! * **`counter-saturation`** — `u64` counters of `RunMetrics`/`*Stats`
//!   structs are bumped with `saturating_add`, never raw `+`.
//! * **`panic-reach`** — no `.unwrap()`/`.expect()` in any function the
//!   protected mgpu hot paths can transitively reach, cross-crate
//!   included.
//!
//! Violations are diffed against a checked-in ratchet file
//! (`simlint.baseline.toml`, entries carry written justifications; new
//! violations fail) and can be waived inline with a
//! `// simlint::allow(<lint>): why` comment on or directly above the
//! offending line. See DESIGN.md, "Static analysis & determinism
//! contract".
//!
//! [`Cycle`]: https://docs.rs/sim-core
//!
//! # Examples
//!
//! ```
//! use simlint::{lint_file, Config, FileCtx};
//!
//! let cfg = Config::trans_fw();
//! let ctx = FileCtx::new("crates/tlb/src/lib.rs");
//! let v = lint_file(&ctx, "use std::collections::HashMap;", &cfg);
//! assert_eq!(v.len(), 1);
//! assert_eq!(v[0].lint.name(), "det-collections");
//! ```

pub mod baseline;
pub mod hir;
pub mod lexer;
pub mod lints;
pub mod passes;
pub mod shard;
pub mod symbols;

use std::fmt;
use std::path::{Path, PathBuf};

pub use baseline::{Baseline, BaselineEntry, Diff};
pub use lints::{lint_file, lint_metrics};

/// The lint classes simlint enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Raw `HashMap`/`HashSet` in a sim-state crate.
    DetCollections,
    /// Wall-clock or ambient randomness outside the bench harness.
    DetWallclock,
    /// `unwrap`/`expect`/indexing in an event-loop hot path.
    PanicFreedom,
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
    /// A fn touching per-GPU component state keyed by more than one (or
    /// no) `GpuId`, outside the designated boundary modules.
    ShardConfinement,
    /// A struct reachable through the epoch `StateDigest` with a field
    /// that never flows into any digest path.
    EpochDigestCoverage,
    /// A `DetMap`/`DetSet` iteration closure mutating captured sim state
    /// outside the iterated map.
    OrderDependentIteration,
}

impl Lint {
    /// The lint's stable name, as used in baselines and allow directives.
    pub fn name(self) -> &'static str {
        match self {
            Lint::DetCollections => "det-collections",
            Lint::DetWallclock => "det-wallclock",
            Lint::PanicFreedom => "panic-freedom",
            Lint::ProtocolExhaustive => "protocol-exhaustive",
            Lint::ProtocolTransition => "protocol-transition",
            Lint::MetricsComplete => "metrics-complete",
            Lint::DigestComplete => "digest-complete",
            Lint::RngStream => "rng-stream-discipline",
            Lint::CounterSaturation => "counter-saturation",
            Lint::PanicReach => "panic-reach",
            Lint::ShardConfinement => "shard-confinement",
            Lint::EpochDigestCoverage => "epoch-digest-coverage",
            Lint::OrderDependentIteration => "order-dependent-iteration",
        }
    }

    /// Parses a lint name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "det-collections" => Lint::DetCollections,
            "det-wallclock" => Lint::DetWallclock,
            "panic-freedom" => Lint::PanicFreedom,
            "protocol-exhaustive" => Lint::ProtocolExhaustive,
            "protocol-transition" => Lint::ProtocolTransition,
            "metrics-complete" => Lint::MetricsComplete,
            "digest-complete" => Lint::DigestComplete,
            "rng-stream-discipline" => Lint::RngStream,
            "counter-saturation" => Lint::CounterSaturation,
            "panic-reach" => Lint::PanicReach,
            "shard-confinement" => Lint::ShardConfinement,
            "epoch-digest-coverage" => Lint::EpochDigestCoverage,
            "order-dependent-iteration" => Lint::OrderDependentIteration,
            _ => return None,
        })
    }

    /// Whether the lint guards determinism (the class the acceptance
    /// criteria require a zero-entry baseline for). The shard-safety
    /// classes belong here: an unconfined cross-shard access or an
    /// uncovered epoch field breaks bit-identity under the parallel
    /// engine just as surely as a raw `HashMap` does sequentially.
    pub fn is_determinism_class(self) -> bool {
        matches!(
            self,
            Lint::DetCollections
                | Lint::DetWallclock
                | Lint::DigestComplete
                | Lint::RngStream
                | Lint::ShardConfinement
                | Lint::EpochDigestCoverage
                | Lint::OrderDependentIteration
        )
    }

    /// Every lint, for `--list`-style output.
    pub fn all() -> [Lint; 13] {
        [
            Lint::DetCollections,
            Lint::DetWallclock,
            Lint::PanicFreedom,
            Lint::ProtocolExhaustive,
            Lint::ProtocolTransition,
            Lint::MetricsComplete,
            Lint::DigestComplete,
            Lint::RngStream,
            Lint::CounterSaturation,
            Lint::PanicReach,
            Lint::ShardConfinement,
            Lint::EpochDigestCoverage,
            Lint::OrderDependentIteration,
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
    /// Stable grouping key for baseline matching (e.g. `HashMap`,
    /// `unwrap`, `index`, `wildcard-arm(Event)`) — deliberately *not* the
    /// line number, so baselines survive unrelated edits.
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
    /// Crate dirs whose non-test code models simulator state: raw hash
    /// collections are forbidden here.
    pub sim_state_crates: Vec<String>,
    /// Hot-path files under the panic-freedom lint.
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
    /// Names of containers indexed by GPU id (`self.<name>[g]` or
    /// `.get(g)`): accesses into these are what shard confinement tracks.
    pub per_gpu_containers: Vec<String>,
    /// Crate dirs under the shard-confinement analysis.
    pub shard_crates: Vec<String>,
    /// Path prefixes where cross-shard access is legal (the forwarding
    /// protocol, recovery, placement, the fabric, and the epoch layer).
    pub shard_boundary_modules: Vec<String>,
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
            per_gpu_containers: [
                "gpus",
                "offline_until",
                "retry",
                "gpu_queue_gates",
                "mshr_gates",
                "breakers",
                "gates",
                "refaults",
                "recently_evicted",
                "resident",
            ]
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
            shard_crates: ["core", "tlb", "ptw", "uvm", "mgpu", "interconnect"]
                .iter()
                .map(|s| c(s))
                .collect(),
            shard_boundary_modules: [
                "mgpu/src/protocol",
                "mgpu/src/recovery.rs",
                "mgpu/src/placement.rs",
                "mgpu/src/system.rs",
                "interconnect/src",
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

/// Outcome of a workspace run: every violation, already split by the
/// inline-allow mechanism.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not waived inline (baseline diffing applies to these).
    pub violations: Vec<Violation>,
    /// Violations waived by a `simlint::allow` directive.
    pub waived: Vec<Violation>,
    /// Every cross-shard access site with its disposition — the shard
    /// boundary contract (`shard_boundary.json`) the parallel engine
    /// builds against. Sorted by (file, line, kind, what).
    pub shard_sites: Vec<shard::ShardSite>,
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

/// Lints a set of in-memory sources: the per-file token lints, the
/// metrics-completeness pass (when both its files are present), and the
/// flow-aware workspace passes from [`passes`]. This is the shared core of
/// [`run_workspace`] and the multi-file fixture tests.
pub fn run_sources(sources: &[(FileCtx, String)], cfg: &Config) -> Report {
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    for (ctx, src) in sources {
        for v in lints::lint_file_with_allows(ctx, src, cfg) {
            match v {
                lints::Outcome::Fires(v) => report.violations.push(v),
                lints::Outcome::Waived(v) => report.waived.push(v),
            }
        }
    }
    // Metrics completeness needs both the struct and serializer files.
    let find = |path: &str| sources.iter().find(|(c, _)| c.rel_path == path);
    if let (Some((_, metrics_src)), Some((_, ser_src))) =
        (find(&cfg.metrics_struct.0), find(&cfg.metrics_serializer.0))
    {
        report
            .violations
            .extend(lint_metrics(metrics_src, ser_src, cfg));
    }
    // Flow-aware passes over the whole workspace, then the same
    // same-line-or-line-above inline-waiver rule as the token lints.
    let ws = symbols::Workspace::build(sources);
    let is_waived = |v: &Violation| {
        ws.units
            .iter()
            .find(|u| u.ctx.rel_path == v.file)
            .is_some_and(|u| {
                u.lexed.allows.iter().any(|a| {
                    a.lint == v.lint.name() && (a.line == v.line || a.line + 1 == v.line)
                })
            })
    };
    for v in passes::run(&ws, cfg) {
        if is_waived(&v) {
            report.waived.push(v);
        } else {
            report.violations.push(v);
        }
    }
    // Shard-safety layer: confinement, epoch coverage, iteration order.
    // Waived confinement findings still land in the boundary report (as
    // disposition `waived`) so the contract stays complete.
    let shard_out = shard::analyze(&ws, cfg);
    report.shard_sites = shard_out.sites;
    for v in shard_out.violations {
        if is_waived(&v) {
            if v.lint == Lint::ShardConfinement {
                report.shard_sites.push(shard::ShardSite::waived_from(&v));
            }
            report.waived.push(v);
        } else {
            report.violations.push(v);
        }
    }
    // Deterministic output order, whatever the directory walk produced —
    // violations, waived findings and the boundary contract alike, so
    // archived CI reports diff cleanly across runs.
    let by_site =
        |a: &Violation, b: &Violation| (&a.file, a.line, a.lint, &a.key).cmp(&(&b.file, b.line, b.lint, &b.key));
    report.violations.sort_by(by_site);
    report.waived.sort_by(by_site);
    report
        .shard_sites
        .sort_by(|a, b| (&a.file, a.line, &a.kind, &a.what).cmp(&(&b.file, b.line, &b.kind, &b.what)));
    report
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

    #[test]
    fn determinism_class_covers_det_digest_rng_and_shard() {
        assert!(Lint::DetCollections.is_determinism_class());
        assert!(Lint::DetWallclock.is_determinism_class());
        assert!(Lint::DigestComplete.is_determinism_class());
        assert!(Lint::RngStream.is_determinism_class());
        assert!(Lint::ShardConfinement.is_determinism_class());
        assert!(Lint::EpochDigestCoverage.is_determinism_class());
        assert!(Lint::OrderDependentIteration.is_determinism_class());
        assert!(!Lint::PanicFreedom.is_determinism_class());
        assert!(!Lint::ProtocolExhaustive.is_determinism_class());
        assert!(!Lint::MetricsComplete.is_determinism_class());
        assert!(!Lint::CounterSaturation.is_determinism_class());
        assert!(!Lint::PanicReach.is_determinism_class());
    }
}
