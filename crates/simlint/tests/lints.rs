//! Fixture-driven integration tests: one positive (violating) and one
//! negative (clean) snippet per lint class, plus the self-tests that the
//! real workspace lints clean and carries the clippy side of the contract.

use simlint::{lint_file, lint_metrics, Config, FileCtx, Lint};

/// Lints a fixture as if it lived at `as_path` in the workspace.
fn lint_fixture(src: &str, as_path: &str) -> Vec<simlint::Violation> {
    lint_file(&FileCtx::new(as_path), src, &Config::trans_fw())
}

fn lints_of(vs: &[simlint::Violation]) -> Vec<Lint> {
    vs.iter().map(|v| v.lint).collect()
}

#[test]
fn protocol_exhaustive_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/protocol_exhaustive_pos.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert_eq!(lints_of(&pos), [Lint::ProtocolExhaustive], "{pos:?}");
    assert_eq!(pos[0].key, "wildcard-arm(Event)");
    let neg = lint_fixture(
        include_str!("fixtures/protocol_exhaustive_neg.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn protocol_transition_fixture_pair() {
    let pos = lint_fixture(
        include_str!("fixtures/protocol_transition_pos.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert_eq!(lints_of(&pos), [Lint::ProtocolTransition], "{pos:?}");
    assert_eq!(pos[0].key, "match(ProtocolEvent)");
    // The identical handler *inside* the shared transition module is the
    // one place it belongs.
    let home = lint_fixture(
        include_str!("fixtures/protocol_transition_pos.rs"),
        "crates/mgpu/src/protocol/mod.rs",
    );
    assert!(home.is_empty(), "transition home flagged: {home:?}");
    let neg = lint_fixture(
        include_str!("fixtures/protocol_transition_neg.rs"),
        "crates/mgpu/src/policy.rs",
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

#[test]
fn metrics_complete_fixture_pair() {
    let cfg = Config::trans_fw();
    let metrics = include_str!("fixtures/metrics_complete_pos.rs");
    let pos = lint_metrics(
        metrics,
        include_str!("fixtures/metrics_complete_pos_ser.rs"),
        &cfg,
    );
    assert_eq!(lints_of(&pos), [Lint::MetricsComplete], "{pos:?}");
    assert_eq!(pos[0].key, "missing-field(l1_hits)");
    let neg = lint_metrics(
        metrics,
        include_str!("fixtures/metrics_complete_neg_ser.rs"),
        &cfg,
    );
    assert!(neg.is_empty(), "clean fixture flagged: {neg:?}");
}

/// Runs the full pipeline (token lints + flow-aware passes) over fixture
/// files mounted at the given workspace paths.
fn run_fixture_sources(files: &[(&str, &str)]) -> simlint::Report {
    let sources: Vec<(FileCtx, String)> = files
        .iter()
        .map(|(path, src)| (FileCtx::new(path), (*src).to_string()))
        .collect();
    simlint::run_sources(&sources, &Config::trans_fw())
}

#[test]
fn lexer_tricky_fixture_pair() {
    // Raw strings, nested block comments, byte/C strings and escapes must
    // neither hide real violations nor manufacture false ones.
    let neg = lint_fixture(
        include_str!("fixtures/lexer_tricky_neg.rs"),
        "crates/tlb/src/state.rs",
    );
    assert!(neg.is_empty(), "literal-only fixture flagged: {neg:?}");
    let pos = lint_fixture(
        include_str!("fixtures/lexer_tricky_pos.rs"),
        "crates/tlb/src/state.rs",
    );
    assert_eq!(
        lints_of(&pos),
        [Lint::ProtocolExhaustive],
        "expected the post-decoy wildcard arm, got {pos:?}"
    );
    assert_eq!(pos[0].line, 14, "{pos:?}");
}

#[test]
fn digest_complete_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/tlb/src/state.rs",
        include_str!("fixtures/digest_complete_pos.rs"),
    )]);
    assert_eq!(lints_of(&pos.violations), [Lint::DigestComplete], "{pos:?}");
    assert_eq!(pos.violations[0].key, "undigested(WalkCache.pressure)");
    let neg = run_fixture_sources(&[(
        "crates/tlb/src/state.rs",
        include_str!("fixtures/digest_complete_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
    // The derived field is waived, not silently ignored.
    assert_eq!(lints_of(&neg.waived), [Lint::DigestComplete], "{:?}", neg.waived);
    assert_eq!(neg.waived[0].key, "undigested(WalkCache.hit_rate_cache)");
}

#[test]
fn rng_stream_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/uvm/src/stream.rs",
        include_str!("fixtures/rng_stream_pos.rs"),
    )]);
    let mut keys: Vec<&str> = pos.violations.iter().map(|v| v.key.as_str()).collect();
    keys.sort_unstable();
    assert!(pos.violations.iter().all(|v| v.lint == Lint::RngStream), "{pos:?}");
    assert_eq!(
        keys,
        [
            "rng-across-boundary",
            "shared-stream-seed",
            "shared-stream-seed",
            "unsalted-stream"
        ],
        "{:?}",
        pos.violations
    );
    let neg = run_fixture_sources(&[(
        "crates/uvm/src/stream.rs",
        include_str!("fixtures/rng_stream_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn counter_saturation_fixture_pair() {
    let pos = run_fixture_sources(&[(
        "crates/ptw/src/stats.rs",
        include_str!("fixtures/counter_saturation_pos.rs"),
    )]);
    assert_eq!(
        lints_of(&pos.violations),
        [Lint::CounterSaturation, Lint::CounterSaturation],
        "{pos:?}"
    );
    assert!(pos.violations.iter().all(|v| v.key == "raw-add(issued)"), "{pos:?}");
    let neg = run_fixture_sources(&[(
        "crates/ptw/src/stats.rs",
        include_str!("fixtures/counter_saturation_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn panic_reach_fixture_pair() {
    // The hazard sits one crate over from the hot path that reaches it.
    let hot = include_str!("fixtures/panic_reach_hot.rs");
    let pos = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/helper.rs",
            include_str!("fixtures/panic_reach_helper_pos.rs"),
        ),
    ]);
    assert_eq!(lints_of(&pos.violations), [Lint::PanicReach], "{pos:?}");
    assert_eq!(pos.violations[0].file, "crates/ptw/src/helper.rs");
    assert_eq!(pos.violations[0].key, "reach(helper_lookup.unwrap)");
    let neg = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/helper.rs",
            include_str!("fixtures/panic_reach_helper_neg.rs"),
        ),
    ]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

#[test]
fn panic_reach_through_dyn_dispatch_fixture_pair() {
    // Dyn dispatch erases the receiver type; the name-resolved call graph
    // must still carry `tick -> decide` into the impl (pos) without
    // dragging in trait methods the hot path never names (neg).
    let hot = include_str!("fixtures/callgraph_dyn_hot.rs");
    let pos = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/policy_impl.rs",
            include_str!("fixtures/callgraph_dyn_pos.rs"),
        ),
    ]);
    assert_eq!(lints_of(&pos.violations), [Lint::PanicReach], "{:?}", pos.violations);
    assert_eq!(pos.violations[0].key, "reach(decide.unwrap)");
    let neg = run_fixture_sources(&[
        ("crates/mgpu/src/system.rs", hot),
        (
            "crates/ptw/src/policy_impl.rs",
            include_str!("fixtures/callgraph_dyn_neg.rs"),
        ),
    ]);
    assert!(neg.violations.is_empty(), "uncalled `audit` flagged: {:?}", neg.violations);
}

#[test]
fn epoch_digest_coverage_fixture_pair() {
    // The top-level digest mentions every `System` field, so PR 9's
    // digest-complete is clean on both fixtures — only the transitive
    // audit can see the nested hole.
    let pos = run_fixture_sources(&[(
        "crates/mgpu/src/recovery.rs",
        include_str!("fixtures/epoch_digest_coverage_pos.rs"),
    )]);
    assert_eq!(
        lints_of(&pos.violations),
        [Lint::EpochDigestCoverage],
        "{:?}",
        pos.violations
    );
    assert_eq!(pos.violations[0].key, "uncovered(Inner.hidden)");
    let neg = run_fixture_sources(&[(
        "crates/mgpu/src/recovery.rs",
        include_str!("fixtures/epoch_digest_coverage_neg.rs"),
    )]);
    assert!(neg.violations.is_empty(), "clean fixture flagged: {:?}", neg.violations);
}

/// The workspace root, two levels above this crate.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/simlint has a workspace root two levels up")
        .to_path_buf()
}

/// The real workspace must lint clean — the same check CI's
/// static-analysis job runs, wired into `cargo test` so a violation can
/// never land without also failing the test suite. Every finding is fixed
/// or carries an inline waiver; nothing is grandfathered.
#[test]
fn workspace_lints_clean() {
    let report = simlint::run_workspace(&workspace_root(), &Config::trans_fw())
        .expect("workspace lints");
    assert!(
        report.violations.is_empty(),
        "unwaived simlint findings (fix them or waive inline with a reason):\n{}",
        report
            .violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The token-level determinism rules live in clippy: the root
/// `clippy.toml` bans the nondeterministic types, and every hot-path file
/// switches on the panic lints. `Config::hot_path_files` is the one list
/// shared by `panic-reach` and clippy, so dropping either half of the
/// contract fails `cargo test`, not only the CI clippy step.
#[test]
fn clippy_config_carries_the_token_rules() {
    let root = workspace_root();
    let clippy =
        std::fs::read_to_string(root.join("clippy.toml")).expect("clippy.toml is checked in");
    for ty in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
    ] {
        assert!(
            clippy.lines().any(|l| l.trim_start().starts_with(&format!("{{ path = \"{ty}\""))),
            "clippy.toml does not disallow `{ty}`"
        );
    }
    const HOT_PATH_LINTS: &str =
        "#![warn(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]";
    let cfg = Config::trans_fw();
    assert!(!cfg.hot_path_files.is_empty());
    for file in &cfg.hot_path_files {
        let src = std::fs::read_to_string(root.join(file)).expect("hot-path file exists");
        assert!(
            src.lines().any(|l| l == HOT_PATH_LINTS),
            "{file} lacks the module-level `{HOT_PATH_LINTS}`"
        );
    }
}
