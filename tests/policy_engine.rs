//! Integration tests for the `uvm::policy` placement engine: each shipped
//! policy must shape page movement the way its design says — with every
//! ownership change flowing through the transactional PRT/FT/TLB plumbing
//! the post-run invariant auditor certifies.

use transfw_sim::prelude::*;
use transfw_sim::uvm::PolicyKind;

const SCALE: f64 = 0.1;

fn run_placement(placement: PolicyKind, cfg: SystemConfig, app: &dyn Workload) -> RunMetrics {
    System::new(SystemConfig { placement, ..cfg })
        .run(app)
        .unwrap()
}

#[test]
fn delayed_migration_defers_movement_until_threshold() {
    // A high threshold under PR's random sharing: pages stay remote-mapped
    // far longer than under eager first touch.
    let app = workloads::app("PR").unwrap().scaled(SCALE);
    let eager = run_placement(PolicyKind::FirstTouch, SystemConfig::baseline(), &app);
    let delayed = run_placement(
        PolicyKind::DelayedMigration { threshold: 64 },
        SystemConfig::baseline(),
        &app,
    );
    assert!(
        delayed.directory.migrations < eager.directory.migrations,
        "threshold 64 must defer migrations: {} vs {}",
        delayed.directory.migrations,
        eager.directory.migrations
    );
    assert!(
        delayed.directory.remote_maps > 0,
        "deferred faults remote-map"
    );
}

#[test]
fn read_duplicate_replicates_and_collapses() {
    let app = workloads::app("MT").unwrap().scaled(SCALE);
    let m = run_placement(
        PolicyKind::ReadDuplicate,
        SystemConfig::with_transfw(),
        &app,
    );
    assert!(
        m.directory.replications > 0,
        "read-shared pages must replicate"
    );
    assert!(
        m.placement.collapses > 0,
        "MT's shared writes must collapse replicas"
    );
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn prefetch_neighborhood_moves_extra_pages() {
    let app = workloads::phase_shift().scaled(0.05);
    let plain = run_placement(PolicyKind::FirstTouch, SystemConfig::with_transfw(), &app);
    let pf = run_placement(
        PolicyKind::PrefetchNeighborhood { radius: 3 },
        SystemConfig::with_transfw(),
        &app,
    );
    assert!(pf.placement.prefetched_pages > 0, "prefetcher never fired");
    assert_eq!(
        pf.directory.prefetches, pf.placement.prefetched_pages,
        "directory and memory-system prefetch tallies must agree"
    );
    assert_eq!(
        plain.placement.prefetched_pages, 0,
        "first touch never prefetches"
    );
    // Latency accounting: the migration log only records data movements.
    assert!(pf.placement.migration_latency.count() >= pf.directory.migrations);
}

#[test]
fn policies_survive_fault_injection_with_exact_retirement() {
    // The transactional path stays subject to the injector's table-update
    // drops; retire-exactly-once and the invariant audit must hold anyway.
    let app = workloads::app("KM").unwrap().scaled(0.05);
    for kind in [
        PolicyKind::DelayedMigration { threshold: 2 },
        PolicyKind::ReadDuplicate,
        PolicyKind::PrefetchNeighborhood { radius: 2 },
    ] {
        let mut cfg = SystemConfig::with_transfw();
        cfg.faults = transfw_sim::sim_core::FaultPlan::message_chaos(11, 0.02, 200);
        cfg.placement = kind;
        let m = System::new(cfg)
            .run(&app)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "{kind:?} lost or duplicated a request under chaos"
        );
    }
}
