//! Model-checking certificate: exhaustively verifies the standard
//! small-scope configurations (all four placement policies plus the
//! component-failure dimension) and writes the per-config state-space
//! numbers to `BENCH_MODEL_CHECK.json`.
//!
//! Exits non-zero if any configuration fails to verify, printing the
//! minimized counterexample — this is the CI gate behind the forwarding
//! protocol's safety claims.
//!
//! ```sh
//! cargo run --release -p experiments --bin model_check [BUDGET]
//! ```

use mgpu::protocol::model::{ModelConfig, ProtocolState};
use simcheck::{check, CheckConfig, CheckOutcome};
use uvm::PolicyKind;

fn configs() -> Vec<(&'static str, ModelConfig)> {
    vec![
        (
            "first-touch-2g3v2r",
            ModelConfig::small(2, 3, 2, PolicyKind::FirstTouch),
        ),
        (
            "delayed-migration-2g3v2r",
            ModelConfig::small(2, 3, 2, PolicyKind::DelayedMigration { threshold: 2 }),
        ),
        (
            "read-duplicate-2g3v2r",
            ModelConfig::small(2, 3, 2, PolicyKind::ReadDuplicate),
        ),
        (
            "prefetch-2g3v2r",
            ModelConfig::small(2, 3, 2, PolicyKind::PrefetchNeighborhood { radius: 1 }),
        ),
        (
            "first-touch-failure-2g3v1r",
            ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch).with_failure(0),
        ),
    ]
}

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(CheckConfig::default().max_states);
    let check_cfg = CheckConfig {
        max_states: budget,
        ..CheckConfig::default()
    };

    let mut rows = Vec::new();
    let mut all_verified = true;
    for (label, cfg) in configs() {
        #[allow(
            clippy::disallowed_types,
            reason = "harness timing, never fed into the sim"
        )]
        let start = std::time::Instant::now();
        let outcome = check(&ProtocolState::new(&cfg), &check_cfg);
        let ms = start.elapsed().as_millis();
        let s = outcome.stats();
        let verdict = match &outcome {
            CheckOutcome::Verified(_) => "verified",
            CheckOutcome::Violation {
                invariant,
                counterexample,
                ..
            } => {
                eprintln!("[model-check] {label}: VIOLATION {invariant}");
                for step in &counterexample.steps {
                    eprintln!("    {step}");
                }
                all_verified = false;
                "violation"
            }
            CheckOutcome::BudgetExhausted(_) => {
                eprintln!("[model-check] {label}: budget of {budget} states exhausted");
                all_verified = false;
                "budget-exhausted"
            }
        };
        eprintln!(
            "[model-check] {label:>26}: {verdict} — {} states ({} terminal, {} deduped, \
             {} POR-skipped), depth {}, {ms} ms",
            s.states_explored, s.terminal_states, s.states_deduped, s.por_skipped, s.max_depth
        );
        rows.push(format!(
            "  {{\"config\": \"{label}\", \"verdict\": \"{verdict}\", \
             \"states_explored\": {}, \"states_deduped\": {}, \"terminal_states\": {}, \
             \"por_skipped\": {}, \"max_depth\": {}, \"wall_ms\": {ms}}}",
            s.states_explored, s.states_deduped, s.terminal_states, s.por_skipped, s.max_depth
        ));
    }

    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write("BENCH_MODEL_CHECK.json", &json).expect("write BENCH_MODEL_CHECK.json");
    eprintln!("[model-check] wrote BENCH_MODEL_CHECK.json");
    if !all_verified {
        std::process::exit(1);
    }
}
