//! Overload-control acceptance tests: admission watermarks, retry budgets
//! with deterministic backoff, and per-peer circuit breakers on the
//! forwarding path. The subsystem ships disabled; with
//! [`OverloadConfig::default`] every run is bit-identical to a build
//! without it (the goldens in `resilience.rs` enforce that), and these
//! tests exercise the enabled side: graceful degradation under synthetic
//! overload, replay determinism, and the recovery interplay.

#![expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]

use transfw_sim::prelude::*;
use transfw_sim::uvm::PolicyKind;

/// An aggressive tuning for small test-scale runs: the default watermarks
/// are sized for full-scale queues, so tests engage the gates early. The
/// host high watermark still sits above the 1x-load queue peak of the
/// burst scenarios below, so a baseline-load run stays entirely unshedded.
fn test_overload() -> OverloadConfig {
    OverloadConfig {
        host_queue_high: 10,
        host_queue_low: 3,
        gpu_queue_high: 6,
        gpu_queue_low: 2,
        mshr_high: 24,
        mshr_low: 8,
        backoff_base: 200,
        backoff_cap: 3_200,
        ..OverloadConfig::enabled()
    }
}

/// Trans-FW knobs with the PRT/FT sized up: the burst workload's migration
/// churn at test scale otherwise produces enough fingerprint-collision
/// deletes to trip the post-run PRT false-negative audit (a pre-existing
/// property of the paper-sized 500-entry tables, independent of overload
/// control).
fn big_tables() -> mgpu::TransFwKnobs {
    let mut k = mgpu::TransFwKnobs::full();
    k.config.prt_fingerprints = 2_000;
    k.config.prt_fp_bits = 16;
    k.config.ft_fingerprints = 4_000;
    k.config.ft_fp_bits = 14;
    k
}

fn overloaded(mut cfg: SystemConfig, ov: OverloadConfig) -> SystemConfig {
    cfg.overload = ov;
    cfg
}

fn burst_app(load: u64) -> workloads::Burst {
    workloads::burst().scaled(0.05).with_load(load)
}

#[test]
fn disabled_overload_reports_nothing() {
    // The master switch defaults off: a run under heavy burst load must
    // finish with the overload stats exactly at `Default` — no sheds, no
    // budgeted retries, no breaker transitions, an empty latency histogram.
    let app = burst_app(8);
    let m = System::new(SystemConfig::with_transfw()).run(&app).unwrap();
    assert_eq!(m.overload, OverloadStats::default());
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn eightfold_load_sheds_background_before_any_demand_walk() {
    // The acceptance scenario: 8x offered load on the bursty open-loop
    // workload with the prefetching policy generating background traffic.
    // The run must complete with every demand request retired exactly
    // once, shed load must be entirely background class (prefetch /
    // migration) — demand is deferred, never rejected — and the demand
    // latency histogram must be populated with a bounded p99.
    let app = workloads::burst().scaled(0.1).with_load(8);
    let cfg = SystemConfig::builder()
        .gpus(4)
        .cus_per_gpu(4)
        .host_walkers(1)
        .seed(11)
        .transfw(Some(big_tables()))
        .placement(PolicyKind::PrefetchNeighborhood { radius: 3 })
        .overload(test_overload())
        .build();
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(
        m.mem_instructions,
        (app.ctas * app.bursts * app.burst_accesses) as u64
    );
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    let ov = &m.overload;
    assert!(
        ov.background_shed() > 0,
        "8x load must engage the admission gate and shed background: {ov:?}"
    );
    assert_eq!(
        ov.demand_rejected, 0,
        "demand must never be rejected: {ov:?}"
    );
    assert!(
        ov.background_shed() * 10 >= ov.total_shed() * 9,
        "at least 90% of shed traffic must be background class: {ov:?}"
    );
    assert_eq!(ov.demand_lat.count(), m.resilience.requests_retired);
    let p99 = ov.demand_lat.percentile_bound(0.99);
    assert!(
        p99 > 0 && p99 < m.total_cycles,
        "demand p99 bound must be positive and under the run length: {p99}"
    );
}

#[test]
fn shedding_is_monotone_in_offered_load() {
    // Same access train, same seed, same tuning: cranking only the
    // offered-load multiplier cannot reduce the amount of shed background
    // work. (The converse — load 1x sheds at most what 8x sheds — is the
    // ISSUE's "monotone non-increasing as load decreases" framing.)
    let cfg = |seed| {
        SystemConfig::builder()
            .gpus(4)
            .cus_per_gpu(4)
            .host_walkers(1)
            .seed(seed)
            .transfw(Some(big_tables()))
            .placement(PolicyKind::DelayedMigration { threshold: 2 })
            .overload(test_overload())
            .build()
    };
    let shed_at = |load| {
        let app = workloads::burst().scaled(0.1).with_load(load);
        let m = System::new(cfg(11)).run(&app).unwrap();
        assert_eq!(m.resilience.requests_retired, m.translation_requests);
        m.overload.total_shed()
    };
    let sweep: Vec<u64> = [1, 2, 4, 8].iter().map(|&l| shed_at(l)).collect();
    assert!(
        sweep.windows(2).all(|w| w[0] <= w[1]),
        "shedding must not decrease with load: {sweep:?} across 1x/2x/4x/8x"
    );
    assert!(sweep[3] > 0, "the 8x point of the sweep must actually shed");
}

#[test]
fn enabled_overload_replays_bit_identically_under_chaos() {
    // Replay determinism with everything on at once: chaos faults, the
    // private backoff-jitter RNG stream, breaker transitions. Two runs
    // must agree on every metric including the overload counters.
    let app = burst_app(4);
    let run = || {
        let mut cfg = overloaded(SystemConfig::with_transfw(), test_overload());
        cfg.faults = FaultPlan::message_chaos(77, 0.05, 300);
        System::new(cfg).run(&app).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "enabled overload run must replay bit-identically");
    assert_eq!(a.resilience.requests_retired, a.translation_requests);
}

#[test]
fn run_with_restore_is_bit_identical_with_overload_on() {
    // Crash-and-restore replays through the overload control plane: the
    // epoch digests now mix the breaker/gate/bucket state, so a restored
    // run diverging anywhere in the subsystem would be caught; the final
    // metrics must match the uninterrupted run exactly.
    let app = burst_app(4);
    let mut cfg = overloaded(SystemConfig::with_transfw(), test_overload());
    cfg.faults = FaultPlan::message_chaos(5, 0.03, 200);
    cfg.checkpoint_interval = Some(2_000);
    let baseline = System::new(cfg.clone()).run(&app).unwrap();
    let outcome = run_with_restore(&cfg, &app, 4_000).unwrap();
    let mut restored = outcome.metrics;
    if outcome.restored {
        assert_eq!(restored.recovery.restores_performed, 1);
        restored.recovery.restores_performed = 0; // the only permitted delta
    }
    assert_eq!(restored, baseline, "restore diverged with overload enabled");
}

#[test]
fn retry_budget_and_backoff_engage_under_loss() {
    // Heavy message loss trips the watchdog; with overload control on,
    // every granted retry spends a token and carries a deterministic
    // jittered backoff delay. The reliable fallback still guarantees
    // completion when budgets run dry.
    let app = workloads::app("MT").unwrap().scaled(0.2);
    let mut cfg = overloaded(SystemConfig::with_transfw(), test_overload());
    cfg.faults = FaultPlan::message_loss(3, 0.3);
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert!(m.resilience.remote_timeouts > 0);
    assert!(
        m.overload.retries_budgeted > 0,
        "timeouts under loss must draw on the retry budget: {:?}",
        m.overload
    );
    assert!(
        m.overload.backoff_delay_total >= m.overload.retries_budgeted * 100,
        "each budgeted retry carries at least backoff_base/2 of delay: {:?}",
        m.overload
    );
    assert_eq!(m.resilience.retries, m.overload.retries_budgeted);
}

#[test]
fn tight_retry_budget_degrades_to_fallback_without_leaks() {
    // A one-token budget with no refill exhausts almost immediately: the
    // denied retries must degrade straight to the reliable host walk, and
    // the run still retires every request exactly once.
    let app = workloads::app("MT").unwrap().scaled(0.2);
    let ov = OverloadConfig {
        retry_budget: 1,
        retry_refill_permille: 0,
        ..test_overload()
    };
    let mut cfg = overloaded(SystemConfig::with_transfw(), ov);
    cfg.faults = FaultPlan::message_loss(3, 0.3);
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert!(
        m.overload.retry_tokens_denied > 0,
        "a one-token budget under 30% loss must deny retries: {:?}",
        m.overload
    );
    assert!(m.resilience.fallback_walks > 0);
}

#[test]
fn breaker_opens_against_a_failing_peer() {
    // Table pollution makes the FT forward to wrong owners, so borrowed
    // walks fail in bulk; the per-peer breakers must trip, short-circuit
    // later forwards to the host path, and the run must still complete.
    let app = workloads::app("MT").unwrap().scaled(0.2);
    let ov = OverloadConfig {
        breaker_min_samples: 4,
        breaker_window: 8,
        ..test_overload()
    };
    let mut cfg = overloaded(SystemConfig::with_transfw(), ov);
    cfg.faults = FaultPlan {
        table_pollution: 400,
        table_update_drop_prob: 0.3,
        ..FaultPlan::none()
    };
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert!(
        m.overload.breaker_opens > 0,
        "bulk forward failures must open a breaker: {:?}",
        m.overload
    );
    assert!(
        m.transfw.forwarded > 0,
        "the run must still forward before the breakers trip"
    );
}

#[test]
fn evicting_a_gpu_drains_its_breaker_and_run_survives() {
    // Satellite: recovery x overload interplay. A GPU eviction must drain
    // that peer's half-open probe queue and latch its breaker open (the
    // drain itself counts a breaker open when the breaker was not already
    // open), while the recovery protocol keeps the run correct.
    let app = burst_app(4);
    let ov = test_overload();
    let mut cfg = overloaded(SystemConfig::with_transfw(), ov);
    cfg.faults = FaultPlan::components(vec![ComponentEvent::GpuOffline {
        gpu: 1,
        at_cycle: 2_000,
        duration: 4_000,
    }]);
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert_eq!(m.recovery.gpu_offline_events, 1);
    assert!(
        m.overload.breaker_opens >= 1,
        "the eviction must latch the victim's breaker open: {:?}",
        m.overload
    );
}

#[test]
fn random_burst_schedules_and_fault_plans_never_leak() {
    // Seeded pseudo-proptest (satellite): random bursty schedules x random
    // fault plans x every placement policy. Invariants: the run completes,
    // every request retires exactly once (the auditor inside `run` also
    // enforces this), demand is never rejected, and for each sampled combo
    // the shed count at 1x offered load never exceeds the same combo at 8x.
    use transfw_sim::sim_core::SimRng;
    let policies = [
        PolicyKind::FirstTouch,
        PolicyKind::DelayedMigration { threshold: 2 },
        PolicyKind::ReadDuplicate,
        PolicyKind::PrefetchNeighborhood { radius: 3 },
    ];
    for (case, &kind) in policies.iter().enumerate() {
        let mut rng = SimRng::new(0x0E7B_CA5E ^ case as u64);
        let base = workloads::Burst {
            bursts: 2 + rng.gen_index(3),
            burst_accesses: 8 + rng.gen_index(8),
            idle_gap: 1_000 + rng.gen_range(3_000),
            ctas: 48 + rng.gen_index(32),
            p_hot: 0.5 + rng.gen_f64() * 0.3,
            ..workloads::burst()
        };
        let plan = match rng.gen_index(3) {
            0 => FaultPlan::none(),
            1 => FaultPlan::message_loss(rng.next_u64(), 0.02 + rng.gen_f64() * 0.05),
            _ => FaultPlan::message_chaos(rng.next_u64(), 0.02 + rng.gen_f64() * 0.03, 200),
        };
        let seed = 1 + rng.gen_range(1_000);
        let run = |load: u64| {
            let cfg = SystemConfig::builder()
                .gpus(4)
                .cus_per_gpu(4)
                .host_walkers(1)
                .seed(seed)
                .transfw(Some(big_tables()))
                .placement(kind)
                .overload(test_overload())
                .faults(plan.clone())
                .build();
            let app = base.with_load(load);
            let m = System::new(cfg)
                .run(&app)
                .unwrap_or_else(|e| panic!("case {case} ({kind:?}, load {load}) failed: {e}"));
            assert_eq!(
                m.resilience.requests_retired, m.translation_requests,
                "case {case} ({kind:?}, load {load}): retire-exactly-once violated"
            );
            assert_eq!(
                m.overload.demand_rejected, 0,
                "case {case} ({kind:?}, load {load}): demand was rejected"
            );
            m
        };
        let low = run(1);
        let high = run(8);
        assert!(
            low.overload.total_shed() <= high.overload.total_shed(),
            "case {case} ({kind:?}): shed went down as load went up ({} at 1x, {} at 8x)",
            low.overload.total_shed(),
            high.overload.total_shed()
        );
    }
}
