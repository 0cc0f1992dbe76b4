//! Oversubscription acceptance tests: the eviction engine, thrash
//! detection, and graceful degradation under memory pressure. The
//! subsystem ships disabled; with [`OversubConfig::default`] every run is
//! bit-identical to a build without it (the goldens in `resilience.rs`
//! enforce that), and these tests exercise the enabled side: capacity
//! pressure on the working-set-shift workload, the refault-driven thrash
//! gate, the evict-vs-in-flight-forward race on the recovery path, and
//! replay/restore determinism with eviction on.

#![expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]

use transfw_sim::prelude::*;
use transfw_sim::uvm::{EvictPolicy, PolicyKind};

/// Oversubscription tuned for test-scale runs: the shipped thrash
/// watermarks are sized for full-scale refault storms and would never
/// engage at a CI-sized scale.
fn test_oversub(capacity: usize) -> OversubConfig {
    OversubConfig {
        thrash_high: 4,
        thrash_low: 1,
        refault_window: 50_000,
        hot_protect: 8,
        ..OversubConfig::with_capacity(capacity)
    }
}

/// Trans-FW knobs with the PRT/FT sized up: the shift workload's eviction
/// and migration churn at test scale otherwise produces enough
/// fingerprint-collision deletes to trip the post-run PRT false-negative
/// audit (a pre-existing property of the paper-sized 500-entry tables,
/// independent of the oversubscription machinery).
fn big_tables() -> mgpu::TransFwKnobs {
    let mut k = mgpu::TransFwKnobs::full();
    k.config.prt_fingerprints = 2_000;
    k.config.prt_fp_bits = 16;
    k.config.ft_fingerprints = 4_000;
    k.config.ft_fp_bits = 14;
    k
}

fn shift_app(scale: f64) -> workloads::OversubShift {
    workloads::oversub_shift().scaled(scale)
}

#[test]
fn disabled_oversub_reports_nothing() {
    // The master switch defaults off: a run over a footprint far beyond
    // any real device capacity must finish with the oversub stats exactly
    // at `Default` — no evictions, no refaults, no deferred recovery
    // evictions — because capacity is treated as infinite.
    let app = shift_app(0.05);
    let m = System::new(SystemConfig::with_transfw()).run(&app).unwrap();
    assert_eq!(m.oversub, OversubStats::default());
    assert_eq!(m.recovery.deferred_evictions, 0);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn capacity_pressure_evicts_and_still_retires_every_request() {
    // The acceptance scenario: per-GPU capacity sits below the warm
    // stripe (the first epoch's 256-page working set striped 128/GPU
    // across 2 GPUs), so the run starts over-subscribed and steady-state
    // demand migration must evict to make room. The run must complete
    // with every request retired exactly once, real eviction traffic, and
    // no eviction ever victimising a pinned page in a way that breaks the
    // protocol (the invariant auditor inside `run` and the post-run table
    // audits enforce agreement).
    let app = shift_app(0.05);
    let capacity = workloads::oversub_shift().working_set_pages as usize / 4;
    let cfg = SystemConfig::builder()
        .gpus(2)
        .cus_per_gpu(4)
        .seed(11)
        .transfw(Some(big_tables()))
        .oversub(test_oversub(capacity))
        .build();
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert!(
        m.oversub.evictions > 0,
        "2x oversubscription must force evictions: {:?}",
        m.oversub
    );
}

#[test]
fn thrash_gate_trips_and_degrades_instead_of_collapsing() {
    // Capacity far below the working set turns the epoch shifts into a
    // refault storm. The thrash gate must trip, and while engaged the
    // system degrades gracefully: background prefetch traffic is shed
    // and/or cold demand faults fall back to host-mediated direct access —
    // but the run still completes with every request retired.
    let app = shift_app(0.05);
    let oversub = OversubConfig {
        thrash_high: 3,
        thrash_low: 1,
        refault_window: 1_000_000,
        hot_protect: 8,
        ..OversubConfig::with_capacity(16)
    };
    let cfg = SystemConfig::builder()
        .gpus(2)
        .cus_per_gpu(4)
        .seed(7)
        .transfw(Some(big_tables()))
        .placement(PolicyKind::PrefetchNeighborhood { radius: 3 })
        .oversub(oversub)
        .build();
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    let os = &m.oversub;
    assert!(os.evictions > 0, "tiny capacity must evict: {os:?}");
    assert!(
        os.refaults > 0,
        "the shift must refault on evicted pages: {os:?}"
    );
    assert!(
        os.thrash_trips > 0,
        "the refault storm must trip the gate: {os:?}"
    );
    assert!(
        os.background_shed + os.direct_fallbacks > 0,
        "an engaged gate must shed background or fall back to direct access: {os:?}"
    );
}

#[test]
fn offline_eviction_defers_until_forwarded_walks_retire() {
    // Satellite regression: a GPU goes offline while forwarded walks are
    // in flight on heavily delayed links. The recovery path must consult
    // the pin set and defer ownership migration for pages whose forwarded
    // walk is still outstanding (completing the eviction at retire time)
    // rather than yanking ownership out from under the reply. The pin set
    // is maintained unconditionally, so the race is covered with the
    // eviction engine both on and off; this drives it with eviction on and
    // sweeps the offline instant so at least one point lands mid-flight.
    let app = shift_app(0.05);
    let footprint = workloads::oversub_shift().footprint_pages() as usize;
    let mut deferred_total = 0;
    for at_cycle in [1_000, 2_000, 3_000, 5_000] {
        let plan = FaultPlan {
            message_delay_prob: 0.6,
            message_delay_cycles: 2_000,
            component_events: vec![ComponentEvent::GpuOffline {
                gpu: 1,
                at_cycle,
                duration: 4_000,
            }],
            ..FaultPlan::none()
        };
        let cfg = SystemConfig::builder()
            .gpus(4)
            .cus_per_gpu(4)
            .seed(13)
            .transfw(Some(big_tables()))
            .oversub(test_oversub(footprint / 4))
            .faults(plan)
            .build();
        let m = System::new(cfg).run(&app).unwrap();
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "offline at {at_cycle}: retire-exactly-once violated"
        );
        assert_eq!(m.recovery.gpu_offline_events, 1);
        deferred_total += m.recovery.deferred_evictions;
    }
    assert!(
        deferred_total > 0,
        "no offline instant caught a forwarded walk in flight; the \
         deferred-eviction path went unexercised"
    );
}

#[test]
fn enabled_oversub_replays_bit_identically_under_chaos() {
    // Replay determinism with everything on at once: chaos faults, the
    // eviction engine, the thrash gate's refault windows. Two runs must
    // agree on every metric including the oversub counters. Capacity sits
    // below the warm stripe so the replay pair carries real eviction
    // traffic.
    let app = shift_app(0.05);
    let capacity = workloads::oversub_shift().working_set_pages as usize / 4;
    let run = || {
        let mut cfg = SystemConfig::builder()
            .gpus(2)
            .cus_per_gpu(4)
            .seed(23)
            .transfw(Some(big_tables()))
            .oversub(test_oversub(capacity))
            .build();
        cfg.faults = FaultPlan::message_chaos(77, 0.05, 300);
        System::new(cfg).run(&app).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "enabled oversub run must replay bit-identically");
    assert!(
        a.oversub.evictions > 0,
        "the replay pair must actually evict"
    );
    assert_eq!(a.resilience.requests_retired, a.translation_requests);
}

#[test]
fn random_ratios_policies_and_plans_never_leak_and_restore_cleanly() {
    // Seeded pseudo-proptest (satellite): random oversubscription ratios x
    // every placement policy x random fault plans x both eviction
    // policies, eviction on throughout. Invariants: the run completes,
    // every request retires exactly once (the auditor inside `run` also
    // enforces this), no PRT-pending page is ever evicted (the pin-set
    // discipline — violations would surface as auditor panics or lost
    // requests), and a crash-and-restore replay is bit-identical.
    use transfw_sim::sim_core::SimRng;
    let policies = [
        PolicyKind::FirstTouch,
        PolicyKind::DelayedMigration { threshold: 2 },
        PolicyKind::ReadDuplicate,
        PolicyKind::PrefetchNeighborhood { radius: 3 },
    ];
    let footprint = workloads::oversub_shift().footprint_pages() as usize;
    for (case, &kind) in policies.iter().enumerate() {
        let mut rng = SimRng::new(0x0E7B_CA5E ^ case as u64);
        let ratio = 1 + rng.gen_index(4); // 1x..4x oversubscription
        let evict = if rng.chance(0.5) {
            EvictPolicy::Lru
        } else {
            EvictPolicy::AccessCounter
        };
        let plan = match rng.gen_index(3) {
            0 => FaultPlan::none(),
            1 => FaultPlan::message_loss(rng.next_u64(), 0.02 + rng.gen_f64() * 0.05),
            _ => FaultPlan::message_chaos(rng.next_u64(), 0.02 + rng.gen_f64() * 0.03, 200),
        };
        let seed = 1 + rng.gen_range(1_000);
        let capacity = footprint.div_ceil(4 * ratio);
        let oversub = OversubConfig {
            policy: evict,
            ..test_oversub(capacity)
        };
        let mut cfg = SystemConfig::builder()
            .gpus(4)
            .cus_per_gpu(4)
            .host_walkers(1)
            .seed(seed)
            .transfw(Some(big_tables()))
            .placement(kind)
            .oversub(oversub)
            .faults(plan)
            .build();
        cfg.checkpoint_interval = Some(2_000);
        let app = shift_app(0.05);
        let baseline = System::new(cfg.clone())
            .run(&app)
            .unwrap_or_else(|e| panic!("case {case} ({kind:?}, {ratio}x, {evict:?}) failed: {e}"));
        assert_eq!(
            baseline.resilience.requests_retired, baseline.translation_requests,
            "case {case} ({kind:?}, {ratio}x): retire-exactly-once violated"
        );
        let outcome = run_with_restore(&cfg, &app, 4_000).unwrap();
        let mut restored = outcome.metrics;
        if outcome.restored {
            assert_eq!(restored.recovery.restores_performed, 1);
            restored.recovery.restores_performed = 0; // the only permitted delta
        }
        assert_eq!(
            restored, baseline,
            "case {case} ({kind:?}, {ratio}x, {evict:?}): restore diverged with eviction on"
        );
    }
}
