//! Fault-injection acceptance tests: every Table III workload must survive
//! interconnect loss, chaos and overload with the protocol watchdogs
//! recovering lost work, and an *empty* fault plan must leave the simulator
//! bit-identical to a build without the resilience layer.

use std::sync::{Arc, Mutex};

use transfw_sim::experiments::run_json;
use transfw_sim::mgpu::CheckpointLog;
use transfw_sim::prelude::*;

fn faulty(cfg: SystemConfig, plan: FaultPlan) -> SystemConfig {
    SystemConfig {
        faults: plan,
        ..cfg
    }
}

#[test]
fn every_app_survives_one_percent_message_loss() {
    // The headline acceptance scenario: 1% of protocol messages silently
    // dropped. Every workload must run to completion — no hangs, no panics,
    // no leaked requests (the post-run auditor runs inside `run`).
    let mut timeouts = 0u64;
    let mut retries = 0u64;
    for spec in workloads::all_apps() {
        let app = spec.scaled(0.05);
        let cfg = faulty(
            SystemConfig::with_transfw(),
            FaultPlan::message_loss(11, 0.01),
        );
        let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
            panic!("{} wedged under 1% loss: {e}", app.name);
        });
        assert_eq!(
            m.mem_instructions,
            (app.ctas * app.accesses_per_cta) as u64,
            "{} lost instructions",
            app.name
        );
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "{} must retire every request exactly once",
            app.name
        );
        timeouts += m.resilience.remote_timeouts;
        retries += m.resilience.retries;
    }
    // Across ten apps, some dropped message must have tripped a deadline.
    assert!(timeouts > 0, "1% loss never triggered the watchdog");
    assert!(retries > 0, "timeouts must be retried, not just counted");
}

#[test]
fn heavy_loss_degrades_to_fallback_host_walks() {
    // 30% loss makes losing all retry attempts likely: the watchdog must
    // eventually give up on the lossy path and route the request down the
    // reliable fallback host walk (§IV-C degraded mode).
    let app = workloads::app("MT").unwrap().scaled(0.2);
    let cfg = faulty(
        SystemConfig::with_transfw(),
        FaultPlan::message_loss(3, 0.3),
    );
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
    assert!(m.resilience.remote_timeouts > 0);
    assert!(
        m.resilience.fallback_walks > 0,
        "30% loss must exhaust retries somewhere: {:?}",
        m.resilience
    );
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn interconnect_chaos_suppresses_duplicates() {
    // Drop + delay + duplicate together: duplicated supplies/replies must
    // be counted and discarded, never double-retired (the auditor inside
    // `run` enforces retire-exactly-once).
    let app = workloads::app("PR").unwrap().scaled(0.2);
    let cfg = faulty(
        SystemConfig::with_transfw(),
        FaultPlan::message_chaos(5, 0.05, 400),
    );
    let m = System::new(cfg).run(&app).unwrap();
    assert!(
        m.resilience.duplicates_suppressed > 0,
        "5% duplication must produce suppressed copies: {:?}",
        m.resilience
    );
    assert!(m.resilience.faults_injected.messages_duplicated > 0);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn delayed_then_duplicated_replies_never_double_retire() {
    // Regression for the watchdog retry race: a deliberately tiny deadline
    // plus message delays far past it make a retry race the late original
    // reply on almost every remote leg, and heavy duplication lands extra
    // copies of both. A retried fault message reaching the host (either
    // entry path) after the original reply already completed the request
    // must be discarded as a duplicate, never restarted into a second walk
    // that double-retires (the auditor inside `run` enforces exactly-once).
    let plan = FaultPlan {
        message_delay_prob: 0.5,
        message_delay_cycles: 2_000, // well past the shortened deadline
        message_duplicate_prob: 0.25,
        ..FaultPlan::none()
    };
    for driver_mode in [false, true] {
        let app = workloads::app("PR").unwrap().scaled(0.2);
        let mut cfg = faulty(SystemConfig::with_transfw(), plan.clone());
        cfg.watchdog.request_timeout = 500;
        if driver_mode {
            cfg.fault_mode = mgpu::FarFaultMode::UvmDriver;
        }
        let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
            panic!("wedged under retry/duplicate pressure (driver={driver_mode}): {e}")
        });
        assert!(
            m.resilience.remote_timeouts > 0,
            "the shortened deadline must fire (driver={driver_mode}): {:?}",
            m.resilience
        );
        assert!(m.resilience.retries > 0, "driver={driver_mode}");
        assert!(
            m.resilience.duplicates_suppressed > 0,
            "late originals/duplicates must be counted, not re-run \
             (driver={driver_mode}): {:?}",
            m.resilience
        );
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "double retire under retry race (driver={driver_mode})"
        );
    }
}

#[test]
fn walker_stalls_and_host_bursts_only_slow_things_down() {
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let clean = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let plan = FaultPlan {
        walker_stall_prob: 0.5,
        walker_stall_cycles: 300,
        host_burst_period: 5_000,
        host_burst_len: 1_000,
        host_burst_extra: 800,
        ..FaultPlan::none()
    };
    let slow = System::new(faulty(SystemConfig::baseline(), plan))
        .run(&app)
        .unwrap();
    assert_eq!(clean.mem_instructions, slow.mem_instructions);
    assert!(
        slow.total_cycles >= clean.total_cycles,
        "stalls cannot make the run faster: {} vs {}",
        slow.total_cycles,
        clean.total_cycles
    );
    assert!(slow.resilience.faults_injected.walker_stalls > 0);
}

#[test]
fn table_pollution_and_stale_entries_are_survivable() {
    // Garbage fingerprints in the PRT/FT plus lost maintenance updates:
    // the filters degrade to false positives / stale owners, which the
    // protocol already treats as discardable — completion must not suffer.
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let plan = FaultPlan {
        table_pollution: 200,
        table_update_drop_prob: 0.2,
        ..FaultPlan::none()
    };
    let m = System::new(faulty(SystemConfig::with_transfw(), plan))
        .run(&app)
        .unwrap();
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

/// FNV-1a 64 of `text`.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn overflowing_warm_fill_is_pinned_under_pollution_and_lossy_updates() {
    // Warm placement overflows the FT's cells: the pollution keys go in
    // first, then, in VPN order, each warm page's page-table, directory,
    // PRT (through every lossy-update gate) and FT updates. The first epoch
    // digest covers every table's contents and every RNG position, and the
    // run JSON every counter.
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let plan = FaultPlan {
        table_pollution: 200,
        table_update_drop_prob: 0.2,
        ..FaultPlan::none()
    };
    let mut cfg = faulty(SystemConfig::with_transfw(), plan);
    cfg.checkpoint_interval = Some(1_000);
    let tf = &cfg.transfw.as_ref().unwrap().config;
    let ft_cells = tf.ft_fingerprints.div_ceil(tf.ft_slots) * tf.ft_slots;
    let warm = (0..app.footprint_pages())
        .filter(|&vpn| app.initial_owner(vpn, cfg.gpus).is_some())
        .count();
    assert!(
        warm > ft_cells,
        "{warm} warm pages must overflow {ft_cells} FT cells"
    );

    let sink = Arc::new(Mutex::new(CheckpointLog::new()));
    let m = System::new(cfg.clone())
        .with_checkpoint_sink(sink.clone())
        .run(&app)
        .unwrap();
    let first = sink.lock().unwrap().epochs()[0].digest;
    let json = fnv1a64(&run_json(&m, cfg.seed));
    assert_eq!(first, 0x131b_9c63_b061_b310, "first epoch digest moved");
    assert_eq!(
        json,
        0xefc5_e3e3_4596_3dae,
        "run JSON moved: {}",
        run_json(&m, cfg.seed)
    );
}

#[test]
fn driver_mode_survives_message_loss_too() {
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let mut cfg = faulty(
        SystemConfig::with_transfw(),
        FaultPlan::message_loss(9, 0.05),
    );
    cfg.fault_mode = mgpu::FarFaultMode::UvmDriver;
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn same_fault_seed_replays_identically() {
    // Determinism under injection: the injector's private RNG stream makes
    // two runs with the same plan byte-for-byte equal in every metric.
    let app = workloads::app("SC").unwrap().scaled(0.1);
    let plan = FaultPlan::message_chaos(1234, 0.05, 250);
    let run = || {
        System::new(faulty(SystemConfig::with_transfw(), plan.clone()))
            .run(&app)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.mem_instructions, b.mem_instructions);
    assert_eq!(a.translation_requests, b.translation_requests);
    assert_eq!(a.local_faults, b.local_faults);
    assert_eq!(a.host_walks, b.host_walks);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.transfw, b.transfw);
    assert_eq!(a.resilience, b.resilience);
}

#[test]
fn different_fault_seeds_differ() {
    // Sanity check that the replay test is not vacuous: with faults on,
    // the seed actually steers the injected decisions.
    let app = workloads::app("SC").unwrap().scaled(0.1);
    let run = |seed| {
        System::new(faulty(
            SystemConfig::with_transfw(),
            FaultPlan::message_chaos(seed, 0.05, 250),
        ))
        .run(&app)
        .unwrap()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        (a.total_cycles, a.resilience.faults_injected),
        (b.total_cycles, b.resilience.faults_injected),
        "different seeds should perturb the run"
    );
}

#[test]
fn empty_plan_injects_nothing_and_counts_nothing() {
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let m = System::new(SystemConfig::with_transfw()).run(&app).unwrap();
    let z = m.resilience;
    assert_eq!(z.remote_timeouts, 0);
    assert_eq!(z.retries, 0);
    assert_eq!(z.fallback_walks, 0);
    assert_eq!(z.duplicates_suppressed, 0);
    assert_eq!(z.faults_injected, Default::default());
    assert_eq!(z.requests_retired, m.translation_requests);
}

#[test]
fn empty_plan_is_bit_identical_to_pre_resilience_baseline() {
    // Golden values captured on the tree *before* the resilience layer
    // landed (seed 7, scale 0.02). The injector draws no randomness under
    // an empty plan and watchdog bookkeeping events are excluded from
    // `total_cycles`, so these must stay exact. If a future change breaks
    // this intentionally (new RNG draws, different event ordering), it is
    // changing fault-free behaviour and must say so.
    let run = |cfg: SystemConfig, name: &str| {
        let app = workloads::app(name).unwrap().scaled(0.02);
        let mut cfg = cfg;
        cfg.seed = 7;
        System::new(cfg).run(&app).unwrap()
    };
    let m = run(SystemConfig::baseline(), "AES");
    assert_eq!((m.total_cycles, m.translation_requests), (3242, 31));
    let m = run(SystemConfig::baseline(), "KM");
    assert_eq!((m.total_cycles, m.local_faults, m.host_walks), (3672, 7, 7));
    let m = run(SystemConfig::with_transfw(), "KM");
    assert_eq!(
        (
            m.total_cycles,
            m.local_faults,
            m.host_walks,
            m.transfw.gmmu_bypassed
        ),
        (3484, 1, 9, 8)
    );
    let mut cfg = SystemConfig::with_transfw();
    cfg.fault_mode = mgpu::FarFaultMode::UvmDriver;
    let m = run(cfg, "KM");
    assert_eq!((m.total_cycles, m.transfw.remote_supplied), (9782, 6));
}

#[test]
fn watchdog_off_still_completes_under_no_faults() {
    let app = workloads::app("FIR").unwrap().scaled(0.05);
    let mut cfg = SystemConfig::with_transfw();
    cfg.watchdog.enabled = false;
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
}

#[test]
fn cycle_cap_reports_instead_of_hanging() {
    // A run that cannot finish inside the cap must surface a typed error,
    // not spin: this is the CI-facing liveness escape hatch.
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let mut cfg = SystemConfig::with_transfw();
    cfg.watchdog.max_cycles = Some(10);
    let err = System::new(cfg).run(&app).unwrap_err();
    assert!(
        matches!(err, SimError::CycleCapExceeded { cap: 10, .. }),
        "unexpected error: {err}"
    );
}
