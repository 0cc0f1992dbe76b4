//! CLI for the exhaustive protocol model checker.
//!
//! With no arguments, verifies the standard small-scope certificate: the
//! 2-GPU / 3-VPN / 2-in-flight configuration under all four placement
//! policies, a component-failure configuration (GPU0 may be evicted and
//! rejoin at any interleaving point), and a capacity-eviction
//! configuration (any GPU over one resident page may evict an unpinned
//! victim at any point). Exits non-zero on a violation or an exhausted
//! budget, printing the minimized counterexample.

use mgpu::protocol::model::{ModelConfig, ProtocolState};
use simcheck::{check, CheckConfig, CheckOutcome};
use uvm::PolicyKind;

/// The four policies of the small-scope certificate, at their small-scope
/// knobs.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::FirstTouch,
    PolicyKind::DelayedMigration { threshold: 2 },
    PolicyKind::ReadDuplicate,
    PolicyKind::PrefetchNeighborhood { radius: 1 },
];

fn policy_by_name(name: &str) -> Option<PolicyKind> {
    POLICIES.into_iter().find(|p| p.name() == name)
}

struct Args {
    gpus: u16,
    vpns: u64,
    inflight: usize,
    policy: Option<PolicyKind>,
    budget: usize,
    failure: Option<u16>,
    capacity: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        gpus: 2,
        vpns: 3,
        inflight: 2,
        policy: None,
        budget: CheckConfig::default().max_states,
        failure: None,
        capacity: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--gpus" => args.gpus = val("--gpus")?.parse().map_err(|e| format!("--gpus: {e}"))?,
            "--vpns" => args.vpns = val("--vpns")?.parse().map_err(|e| format!("--vpns: {e}"))?,
            "--inflight" => {
                args.inflight = val("--inflight")?
                    .parse()
                    .map_err(|e| format!("--inflight: {e}"))?;
            }
            "--policy" => {
                let name = val("--policy")?;
                args.policy =
                    Some(policy_by_name(&name).ok_or_else(|| format!("unknown policy {name:?}"))?);
            }
            "--budget" => {
                args.budget = val("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--failure" => {
                args.failure = Some(
                    val("--failure")?
                        .parse()
                        .map_err(|e| format!("--failure: {e}"))?,
                );
            }
            "--capacity" => {
                args.capacity = Some(
                    val("--capacity")?
                        .parse()
                        .map_err(|e| format!("--capacity: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: simcheck [--gpus N] [--vpns N] [--inflight N] \
                     [--policy first-touch|delayed-migration|read-duplicate|prefetch-neighborhood] \
                     [--budget STATES] [--failure GPU] [--capacity PAGES]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one configuration and reports; returns whether it verified.
fn run_one(label: &str, cfg: &ModelConfig, check_cfg: &CheckConfig) -> bool {
    #[allow(
        clippy::disallowed_types,
        reason = "harness timing, never fed into the sim"
    )]
    let start = std::time::Instant::now();
    let outcome = check(&ProtocolState::new(cfg), check_cfg);
    let ms = start.elapsed().as_millis();
    let s = outcome.stats();
    match &outcome {
        CheckOutcome::Verified(_) => {
            println!(
                "VERIFIED  {label}: {} states, {} terminal, {} deduped, {} POR-skipped, depth {}, {ms} ms",
                s.states_explored, s.terminal_states, s.states_deduped, s.por_skipped, s.max_depth
            );
            true
        }
        CheckOutcome::Violation {
            invariant,
            counterexample,
            trace,
            ..
        } => {
            println!("VIOLATION {label}: {invariant}");
            println!(
                "  found after {} states ({} full steps, minimized to {}):",
                s.states_explored,
                trace.len(),
                counterexample.steps.len()
            );
            for step in &counterexample.steps {
                println!("    {step}");
            }
            false
        }
        CheckOutcome::BudgetExhausted(_) => {
            println!(
                "BUDGET    {label}: gave up after {} states (budget {}), depth {}",
                s.states_explored, check_cfg.max_states, s.max_depth
            );
            false
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simcheck: {e}");
            std::process::exit(2);
        }
    };
    let check_cfg = CheckConfig {
        max_states: args.budget,
        ..CheckConfig::default()
    };
    let mut ok = true;
    if let Some(policy) = args.policy {
        let mut cfg = ModelConfig::small(args.gpus, args.vpns, args.inflight, policy);
        if let Some(g) = args.failure {
            cfg = cfg.with_failure(g);
        }
        if let Some(pages) = args.capacity {
            cfg = cfg.with_capacity(pages);
        }
        ok &= run_one(policy.name(), &cfg, &check_cfg);
    } else {
        // The standard certificate: all four policies, then the failure
        // dimension (one in-flight request per GPU keeps it tractable).
        for policy in POLICIES {
            let cfg = ModelConfig::small(args.gpus, args.vpns, args.inflight, policy);
            ok &= run_one(policy.name(), &cfg, &check_cfg);
        }
        let failure = ModelConfig::small(args.gpus, args.vpns, 1, PolicyKind::FirstTouch)
            .with_failure(args.failure.unwrap_or(0));
        ok &= run_one("first-touch+failure", &failure, &check_cfg);
        // The oversubscription certificate: every GPU over one resident page
        // may shed any unpinned victim at any interleaving point, so the
        // evict-vs-in-flight-forward race is explored exhaustively.
        // (First-touch scope: the exact-count FT model would double-count a
        // replica promoted to home, a benign lossiness in the real filter.)
        let capacity =
            ModelConfig::small(args.gpus, args.vpns, args.inflight, PolicyKind::FirstTouch)
                .with_capacity(args.capacity.unwrap_or(1));
        ok &= run_one("first-touch+capacity", &capacity, &check_cfg);
    }
    if !ok {
        std::process::exit(1);
    }
}
