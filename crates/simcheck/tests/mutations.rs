//! Mutation self-tests: each deliberate protocol defect must be *found* by
//! the checker within a bounded state budget, produce a minimized
//! counterexample with the expected invariant tag, and that counterexample
//! must reproduce the violation when replayed from scratch.

use mgpu::protocol::model::{Action, ModelConfig, Mutation, ProtocolState};
use simcheck::{check, CheckConfig, CheckOutcome};
use uvm::PolicyKind;

/// Explores the mutated model and asserts the checker finds a violation
/// with tag `expect_tag`, minimized and reproducible.
fn assert_found(cfg: &ModelConfig, m: Mutation, budget: usize, expect_tag: &str) {
    let st = ProtocolState::new(cfg).with_mutation(m);
    let check_cfg = CheckConfig {
        max_states: budget,
        max_depth: 256,
    };
    match check(&st, &check_cfg) {
        CheckOutcome::Violation {
            invariant,
            trace,
            counterexample,
            stats,
        } => {
            assert!(
                invariant.starts_with(expect_tag),
                "{m:?}: expected a `{expect_tag}` violation, got {invariant:?}"
            );
            assert!(
                !counterexample.steps.is_empty(),
                "{m:?}: empty counterexample"
            );
            assert!(
                counterexample.steps.len() <= trace.len(),
                "{m:?}: minimizer grew the trace"
            );
            assert!(
                stats.states_explored <= budget,
                "{m:?}: budget overrun ({} states)",
                stats.states_explored
            );
            // The minimized trace reproduces the same violation class from a
            // fresh mutated state.
            let steps: Vec<Action> = counterexample
                .steps
                .iter()
                .map(|s| Action::decode(s).expect("minimized step decodes"))
                .collect();
            let fresh = ProtocolState::new(cfg).with_mutation(m);
            assert!(
                simcheck::reproduces(&fresh, &steps, expect_tag),
                "{m:?}: minimized counterexample does not reproduce"
            );
        }
        other => panic!("{m:?}: checker did not find the defect: {other:?}"),
    }
}

#[test]
fn skip_ft_invalidate_on_migrate_is_found() {
    // One cross-GPU migration: the old home's FT key survives, so the FT
    // owner set disagrees with directory residency at quiescence.
    let mut cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch);
    cfg.reqs = vec![(0, 1, false)];
    assert_found(
        &cfg,
        Mutation::SkipFtInvalidateOnMigrate,
        200_000,
        "table-agreement",
    );
}

#[test]
fn drop_prt_flush_on_rejoin_is_found() {
    // The evicted GPU's PRT survives its flushed memory: stale may-be-local
    // keys disagree with the (empty) page table at quiescence.
    let cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch).with_failure(0);
    assert_found(
        &cfg,
        Mutation::DropPrtFlushOnRejoin,
        500_000,
        "table-agreement",
    );
}

#[test]
fn double_retire_on_duplicate_reply_is_found() {
    // A remote supply retires the request; the raced host reply then skips
    // its idempotence guard and retires it again.
    let mut cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch);
    cfg.reqs = vec![(0, 1, false)];
    assert_found(
        &cfg,
        Mutation::DoubleRetireOnDuplicateReply,
        200_000,
        "retire-exactly-once",
    );
}

#[test]
fn stale_forward_after_commit_is_found() {
    // The host forwards against a pre-eviction FT snapshot and cancels its
    // own walk optimistically; the forward is refused (owner offline) and
    // the request wedges forever: a liveness violation under fairness.
    let mut cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch).with_failure(0);
    cfg.reqs = vec![(1, 2, false)];
    assert_found(&cfg, Mutation::StaleForwardAfterCommit, 500_000, "deadlock");
}

#[test]
fn lost_generation_bump_is_found() {
    // A stale (pre-eviction) walk completion releases a walker from the
    // force-reset pool: the count goes negative.
    let cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch).with_failure(0);
    assert_found(&cfg, Mutation::LostGenerationBump, 200_000, "txn-atomicity");
}

#[test]
fn skip_tlb_shootdown_on_evict_is_found() {
    // A capacity eviction that forgets the remote TLB/FT invalidation
    // fan-out: the directory re-homes the evicted page, but the host PT
    // keeps pointing at the evicted copy and the FT keeps naming the
    // evictor as an owner — the tables disagree at quiescence.
    let mut cfg = ModelConfig::small(2, 3, 1, PolicyKind::FirstTouch).with_capacity(1);
    cfg.reqs = vec![(1, 1, false)];
    assert_found(
        &cfg,
        Mutation::SkipTlbShootdownOnEvict,
        200_000,
        "table-agreement",
    );
}

#[test]
fn prefetch_pending_vpn_is_found() {
    // The prefetcher maps a neighbor page the directory declined to hand
    // over (it is homed on a third party): the host PT and the directory
    // immediately disagree about the page's home.
    let mut cfg = ModelConfig::small(2, 2, 1, PolicyKind::PrefetchNeighborhood { radius: 1 });
    cfg.warm = vec![None, Some(0)];
    cfg.reqs = vec![(1, 0, false)];
    assert_found(&cfg, Mutation::PrefetchPendingVpn, 200_000, "txn-atomicity");
}
