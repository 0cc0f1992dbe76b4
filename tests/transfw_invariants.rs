//! Invariants of the Trans-FW datapath, checked on full-system runs.

use transfw_sim::prelude::*;

const SCALE: f64 = 0.15;

fn run_transfw(app: &dyn Workload) -> RunMetrics {
    System::new(SystemConfig::with_transfw()).run(app).unwrap()
}

#[test]
fn transfw_counters_are_internally_consistent() {
    for spec in workloads::all_apps() {
        let app = spec.scaled(SCALE);
        let m = run_transfw(&app);
        let t = &m.transfw;
        assert!(
            t.remote_supplied + t.remote_failed <= t.forwarded,
            "{}: outcomes exceed forwards",
            app.name
        );
        assert!(
            t.cancelled_host_walks <= t.remote_supplied,
            "{}: cancellations need successful remote lookups",
            app.name
        );
        assert!(
            t.gmmu_bypassed <= m.translation_requests,
            "{}: more bypasses than requests",
            app.name
        );
        assert!(
            t.replicated_walks <= m.host_walks + t.forwarded,
            "{}: replicated walk accounting",
            app.name
        );
    }
}

#[test]
fn prt_false_positives_are_rare() {
    let app = workloads::app("MT").unwrap().scaled(SCALE);
    let m = run_transfw(&app);
    // With short-circuiting, a local fault after a GMMU walk means the PRT
    // said "maybe local" wrongly. The filter's design point is ~0.1%, but
    // page-group masking (8 pages/fingerprint) and in-flight migrations
    // push the observed rate up; it must still be a small fraction.
    let rate = m.transfw.prt_false_positives as f64 / m.translation_requests.max(1) as f64;
    assert!(rate < 0.2, "PRT false-positive rate {rate}");
}

#[test]
fn remote_supply_succeeds_often_under_sharing() {
    let app = workloads::app("PR").unwrap().scaled(0.3);
    let m = run_transfw(&app);
    assert!(m.transfw.forwarded > 0, "PR must trigger forwarding");
    let success = m.transfw.remote_supplied as f64
        / (m.transfw.remote_supplied + m.transfw.remote_failed).max(1) as f64;
    assert!(
        success > 0.4,
        "most borrowed walks should succeed (paper: 88.2% remote hits), got {success}"
    );
}

#[test]
fn short_circuit_reduces_gmmu_walk_traffic() {
    let app = workloads::app("MT").unwrap().scaled(0.3);
    let base = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let tfw = run_transfw(&app);
    // §V-A: Trans-FW cuts total GMMU PT-walk memory accesses (the PRT skips
    // doomed walks; borrowed walks add some back).
    assert!(
        (tfw.gmmu_walk_accesses as f64) < base.gmmu_walk_accesses as f64 * 1.1,
        "GMMU walk traffic should not grow: {} vs {}",
        tfw.gmmu_walk_accesses,
        base.gmmu_walk_accesses
    );
}

#[test]
fn forwarding_threshold_zero_forwards_most() {
    let app = workloads::app("PR").unwrap().scaled(SCALE);
    let mk = |threshold: f64| {
        let knobs = TransFwKnobs {
            config: TransFwConfig {
                forward_threshold: threshold,
                ..TransFwConfig::default()
            },
            gmmu_short_circuit: true,
            host_forwarding: true,
        };
        System::new(SystemConfig {
            transfw: Some(knobs),
            ..SystemConfig::baseline()
        })
        .run(&app)
        .unwrap()
    };
    let eager = mk(0.0);
    let lazy = mk(2.0);
    assert!(
        eager.transfw.forwarded > lazy.transfw.forwarded,
        "threshold 0 must forward more than threshold 2: {} vs {}",
        eager.transfw.forwarded,
        lazy.transfw.forwarded
    );
}

#[test]
fn ablations_are_weaker_than_full_mechanism() {
    let app = workloads::app("MT").unwrap().scaled(0.3);
    let base = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let full = run_transfw(&app);
    let prt_only = System::new(SystemConfig {
        transfw: Some(TransFwKnobs {
            config: TransFwConfig::default(),
            gmmu_short_circuit: true,
            host_forwarding: false,
        }),
        ..SystemConfig::baseline()
    })
    .run(&app)
    .unwrap();
    let full_speedup = full.speedup_vs(&base);
    let prt_speedup = prt_only.speedup_vs(&base);
    assert!(
        full_speedup > prt_speedup * 0.95,
        "full Trans-FW ({full_speedup}) should beat or match PRT-only ({prt_speedup})"
    );
    assert_eq!(prt_only.transfw.forwarded, 0, "no FT => no forwarding");
}

#[test]
fn transfw_reduces_host_queue_wait() {
    let app = workloads::app("SC").unwrap().scaled(0.3);
    let base = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let tfw = run_transfw(&app);
    assert!(
        tfw.breakdown.host_queue < base.breakdown.host_queue,
        "Fig. 12: host PW-queue waiting must shrink: {} vs {}",
        tfw.breakdown.host_queue,
        base.breakdown.host_queue
    );
}

#[test]
fn no_transfw_structures_in_baseline() {
    let app = workloads::app("KM").unwrap().scaled(SCALE);
    let m = System::new(SystemConfig::baseline()).run(&app).unwrap();
    assert_eq!(m.transfw.gmmu_bypassed, 0);
    assert_eq!(m.transfw.forwarded, 0);
    assert_eq!(m.transfw.remote_supplied, 0);
}

#[test]
fn area_model_matches_paper_budget() {
    use transfw_sim::transfw::{AreaModel, TransFwConfig};
    let a = AreaModel::paper_baseline(&TransFwConfig::default());
    assert!((a.prt_kb() - 0.79).abs() < 0.01);
    assert!((a.ft_kb() - 2.68).abs() < 0.01);
    assert!(a.prt_vs_l2_tlb() < 0.05);
    assert!(a.ft_vs_host_tlb() < 0.05);
}
