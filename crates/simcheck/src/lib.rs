//! simcheck: exhaustive small-scope model checking for the Trans-FW
//! forwarding protocol.
//!
//! The checker explores *every* interleaving of protocol steps on a tiny
//! configuration (2–3 GPUs, 2–4 pages, 1–2 in-flight requests per GPU)
//! of [`mgpu::protocol::model::ProtocolState`] — an abstract model built
//! on the *same* shared transition functions the cycle-accurate simulator
//! executes — and checks the protocol's safety invariants at every step:
//!
//! * **retire-exactly-once** — no interleaving of replies, remote
//!   supplies and failure re-issues retires a request twice;
//! * **stale-translation** — a retired translation is backed by the
//!   directory (resident, or a registered remote map);
//! * **table-agreement** — at quiescence the host PT, the FT owner sets
//!   and the PRT supports all agree with the page directory;
//! * **txn-atomicity** — an ownership commit leaves no stale PTE behind
//!   and never corrupts walker accounting;
//! * **deadlock** (liveness under fairness) — every terminal state has
//!   all requests retired.
//!
//! Exploration is breadth-first with state-digest deduplication and a
//! sound partial-order reduction (pure *absorb* actions — guarded
//! duplicate deliveries that provably commute with everything — are
//! expanded alone). A violation is reported as a minimized linear
//! [`Counterexample`] replayable via [`mgpu::protocol::model::replay`].

use std::collections::{BTreeSet, VecDeque};

use mgpu::protocol::model::{Action, ModelConfig, ProtocolState};
use sim_core::Counterexample;

/// Exploration budgets.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum distinct states to visit before giving up.
    pub max_states: usize,
    /// Maximum trace depth (BFS level) before giving up.
    pub max_depth: usize,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            max_states: 2_000_000,
            max_depth: 512,
        }
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Distinct states expanded.
    pub states_explored: usize,
    /// Successor states dropped because their digest was already seen.
    pub states_deduped: usize,
    /// Terminal (no enabled action) states checked for quiescence.
    pub terminal_states: usize,
    /// Successors skipped by the absorb-only partial-order reduction.
    pub por_skipped: usize,
    /// Deepest BFS level reached.
    pub max_depth: usize,
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub enum CheckOutcome {
    /// Every reachable state satisfies every invariant.
    Verified(CheckStats),
    /// An invariant broke; `counterexample` is the minimized trace.
    Violation {
        /// The first violation observed (`tag: detail`).
        invariant: String,
        /// The full (unminimized) trace that first hit the violation.
        trace: Vec<String>,
        /// The greedily minimized trace reproducing the same invariant tag.
        counterexample: Counterexample,
        /// Statistics up to the violation.
        stats: CheckStats,
    },
    /// The state or depth budget ran out before the space was exhausted.
    BudgetExhausted(CheckStats),
}

impl CheckOutcome {
    /// The statistics regardless of verdict.
    pub fn stats(&self) -> &CheckStats {
        match self {
            CheckOutcome::Verified(s) | CheckOutcome::BudgetExhausted(s) => s,
            CheckOutcome::Violation { stats, .. } => stats,
        }
    }

    /// Whether the exploration proved the invariants.
    pub fn is_verified(&self) -> bool {
        matches!(self, CheckOutcome::Verified(_))
    }
}

/// Explores every reachable interleaving of `initial` and checks the
/// safety invariants; on violation, returns a minimized counterexample.
pub fn check(initial: &ProtocolState, cfg: &CheckConfig) -> CheckOutcome {
    let mut stats = CheckStats::default();
    // Parent-pointer node table: id 0 is the root; node id k > 0 records
    // (parent id, action) at nodes[k - 1].
    let mut nodes: Vec<(usize, Action)> = Vec::new();
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    visited.insert(initial.digest());
    let mut frontier: VecDeque<(ProtocolState, usize, usize)> = VecDeque::new();
    frontier.push_back((initial.clone(), 0, 0));

    while let Some((st, node, depth)) = frontier.pop_front() {
        stats.states_explored += 1;
        stats.max_depth = stats.max_depth.max(depth);
        let actions = st.enabled_actions();
        if actions.is_empty() {
            stats.terminal_states += 1;
            let mut terminal = st.clone();
            terminal.check_quiescent();
            if let Some(v) = terminal.violations().first() {
                let trace = reconstruct(&nodes, node);
                return violation_outcome(initial, v.clone(), trace, stats);
            }
            continue;
        }
        if depth >= cfg.max_depth {
            return CheckOutcome::BudgetExhausted(stats);
        }
        // Absorb-only POR: when a pure absorb is enabled, expanding it
        // alone is sound (it commutes with every other enabled action and
        // cannot itself violate an invariant — see DESIGN.md).
        let expand: Vec<Action> = match actions.iter().find(|a| st.is_absorbing(a)) {
            Some(&a) => {
                stats.por_skipped += actions.len() - 1;
                vec![a]
            }
            None => actions,
        };
        for a in expand {
            let mut next = st.clone();
            next.apply(&a);
            if let Some(v) = next.violations().first() {
                let mut trace = reconstruct(&nodes, node);
                trace.push(a);
                return violation_outcome(initial, v.clone(), trace, stats);
            }
            if !visited.insert(next.digest()) {
                stats.states_deduped += 1;
                continue;
            }
            if visited.len() > cfg.max_states {
                return CheckOutcome::BudgetExhausted(stats);
            }
            nodes.push((node, a));
            frontier.push_back((next, nodes.len(), depth + 1));
        }
    }
    CheckOutcome::Verified(stats)
}

/// Builds the model for `cfg` and [`check`]s it.
pub fn check_config(cfg: &ModelConfig, check_cfg: &CheckConfig) -> CheckOutcome {
    check(&ProtocolState::new(cfg), check_cfg)
}

fn reconstruct(nodes: &[(usize, Action)], mut id: usize) -> Vec<Action> {
    let mut out = Vec::new();
    while id != 0 {
        let (parent, a) = nodes[id - 1];
        out.push(a);
        id = parent;
    }
    out.reverse();
    out
}

fn violation_outcome(
    initial: &ProtocolState,
    invariant: String,
    trace: Vec<Action>,
    stats: CheckStats,
) -> CheckOutcome {
    let tag = invariant.split(':').next().unwrap_or("").trim().to_string();
    let minimized = minimize(initial, &trace, &tag);
    let counterexample = Counterexample {
        invariant: invariant.clone(),
        steps: minimized.iter().map(Action::encode).collect(),
    };
    CheckOutcome::Violation {
        invariant,
        trace: trace.iter().map(Action::encode).collect(),
        counterexample,
        stats,
    }
}

/// Greedy delta minimization: repeatedly drop single steps as long as the
/// shortened trace still reproduces a violation with the same tag.
pub fn minimize(initial: &ProtocolState, trace: &[Action], tag: &str) -> Vec<Action> {
    let mut cur: Vec<Action> = trace.to_vec();
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if reproduces(initial, &cand, tag) {
                cur = cand;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        if !shrunk {
            return cur;
        }
    }
}

/// Whether replaying `actions` from `initial` hits a violation whose tag
/// matches `tag` (checking quiescence if the trace ends terminal).
pub fn reproduces(initial: &ProtocolState, actions: &[Action], tag: &str) -> bool {
    let mut st = initial.clone();
    for a in actions {
        if !st.enabled_actions().contains(a) {
            return false;
        }
        st.apply(a);
        if st.violations().iter().any(|v| v.starts_with(tag)) {
            return true;
        }
    }
    if st.enabled_actions().is_empty() {
        st.check_quiescent();
        return st.violations().iter().any(|v| v.starts_with(tag));
    }
    false
}
