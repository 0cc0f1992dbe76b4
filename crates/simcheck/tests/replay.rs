//! Counterexample round-trip and deterministic-replay regression tests:
//! a violation's minimized trace serializes to text, parses back
//! identically, and replays to the same invariant class every time.

use mgpu::protocol::model::{self, Action, ModelConfig, Mutation, ProtocolState};
use sim_core::Counterexample;
use simcheck::{check, CheckConfig, CheckOutcome};
use uvm::PolicyKind;

fn double_retire_counterexample() -> (ModelConfig, Counterexample) {
    let mut cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch);
    cfg.reqs = vec![(0, 1, false)];
    let st = ProtocolState::new(&cfg).with_mutation(Mutation::DoubleRetireOnDuplicateReply);
    match check(&st, &CheckConfig::default()) {
        CheckOutcome::Violation { counterexample, .. } => (cfg, counterexample),
        other => panic!("expected a violation, got {other:?}"),
    }
}

#[test]
fn counterexample_text_round_trips() {
    let (_, ce) = double_retire_counterexample();
    let text = ce.to_text();
    let back = Counterexample::from_text(&text).expect("serialized counterexample parses");
    assert_eq!(back, ce);
    assert_eq!(back.digest(), ce.digest());
    assert_eq!(back.tag(), "retire-exactly-once");
    // Every step is a decodable action token.
    for step in &back.steps {
        assert!(Action::decode(step).is_some(), "undecodable step {step:?}");
    }
}

#[test]
fn counterexample_replays_deterministically() {
    let (cfg, ce) = double_retire_counterexample();
    let run = || {
        let st = ProtocolState::new(&cfg).with_mutation(Mutation::DoubleRetireOnDuplicateReply);
        model::replay_on(st, &ce.steps).expect("trace replays")
    };
    let first = run();
    assert!(
        first.iter().any(|v| v.starts_with("retire-exactly-once")),
        "replay did not reproduce the violation: {first:?}"
    );
    assert_eq!(first, run(), "replay is not deterministic");
}

#[test]
fn replay_rejects_disabled_actions() {
    let cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch);
    // `reply 0` is never enabled at step 0 (the request has not issued).
    let err = model::replay(&cfg, &["reply 0".to_string()]).unwrap_err();
    assert!(err.contains("not enabled"), "unexpected error: {err}");
    let err = model::replay(&cfg, &["gibberish".to_string()]).unwrap_err();
    assert!(err.contains("unparseable"), "unexpected error: {err}");
}

#[test]
fn clean_replay_of_a_full_schedule_reports_no_violations() {
    // Drive one request through the plain host path by hand and replay it:
    // a legal schedule reproduces zero violations, and ends quiescent.
    let cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch);
    let steps: Vec<String> = [
        "issue 0",
        "local-walk 0", // warm-local: hits and retires
        "issue 1",
        "local-walk 1",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let violations = model::replay(&cfg, &steps).expect("legal schedule");
    assert!(
        violations.is_empty(),
        "unexpected violations: {violations:?}"
    );
}
