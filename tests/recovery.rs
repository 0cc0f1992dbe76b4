//! Component-failure recovery acceptance tests: a GPU dropping off the
//! fabric mid-run, link partitions and host-MMU failover must all complete
//! with the invariant auditor clean and every request retired exactly once,
//! and a crashed checkpointed run must restore bit-identically.

use std::sync::{Arc, Mutex};

use transfw_sim::mgpu::CheckpointLog;
use transfw_sim::prelude::*;

fn chaos(cfg: SystemConfig, events: Vec<ComponentEvent>) -> SystemConfig {
    SystemConfig {
        faults: FaultPlan::components(events),
        ..cfg
    }
}

#[test]
fn gpu_offline_mid_run_completes_and_migrates_ownership() {
    // The tentpole scenario: GPU 1 dies in the thick of the run, long enough
    // that it held pages and in-flight walks. The run must complete (the
    // post-run auditor runs inside `run`), retire every request exactly
    // once, and the recovery machinery must actually have fired.
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let cfg = chaos(
        SystemConfig::with_transfw(),
        vec![ComponentEvent::GpuOffline {
            gpu: 1,
            at_cycle: 2_000,
            duration: 4_000,
        }],
    );
    let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
        panic!("KM wedged under GPU offline: {e}");
    });
    assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
    assert_eq!(
        m.resilience.requests_retired, m.translation_requests,
        "every request must retire exactly once across the failure"
    );
    assert_eq!(m.recovery.gpu_offline_events, 1);
    assert_eq!(m.recovery.gpu_rejoins, 1);
    assert!(
        m.recovery.ft_invalidations > 0,
        "the victim owned pages, so FT entries had to be invalidated: {:?}",
        m.recovery
    );
    assert!(
        m.recovery.ownership_migrations > 0,
        "the victim's pages had to migrate to survivors: {:?}",
        m.recovery
    );
    assert!(
        m.recovery.prt_rebuilds > 0,
        "rejoin must rebuild the PRT from the directory"
    );
}

#[test]
fn gpu_offline_survives_every_app_and_both_fault_modes() {
    for spec in workloads::all_apps() {
        let app = spec.scaled(0.05);
        for driver_mode in [false, true] {
            let mut cfg = chaos(
                SystemConfig::with_transfw(),
                vec![ComponentEvent::GpuOffline {
                    gpu: 2,
                    at_cycle: 1_000,
                    duration: 3_000,
                }],
            );
            if driver_mode {
                cfg.fault_mode = mgpu::FarFaultMode::UvmDriver;
            }
            let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
                panic!("{} wedged (driver_mode={driver_mode}): {e}", app.name);
            });
            assert_eq!(
                m.mem_instructions,
                (app.ctas * app.accesses_per_cta) as u64,
                "{} lost instructions",
                app.name
            );
            assert_eq!(m.resilience.requests_retired, m.translation_requests);
            assert_eq!(m.recovery.gpu_offline_events, 1, "{}", app.name);
        }
    }
}

#[test]
fn overlapping_offline_windows_extend_instead_of_double_draining() {
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let cfg = chaos(
        SystemConfig::with_transfw(),
        vec![
            ComponentEvent::GpuOffline {
                gpu: 0,
                at_cycle: 1_000,
                duration: 2_000,
            },
            ComponentEvent::GpuOffline {
                gpu: 0,
                at_cycle: 2_000,
                duration: 4_000,
            },
        ],
    );
    let m = System::new(cfg).run(&app).unwrap();
    assert_eq!(m.recovery.gpu_offline_events, 2);
    // One logical outage: only the extended window's rejoin counts.
    assert_eq!(m.recovery.gpu_rejoins, 1);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn link_partition_reroutes_peer_traffic_via_host() {
    // Sever the pair carrying forwarded supplies: traffic must detour over
    // the host links (counted) instead of hanging, and the run completes.
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let mut events = Vec::new();
    for (a, b) in [(0usize, 1usize), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        events.push(ComponentEvent::LinkPartition {
            a,
            b,
            at_cycle: 500,
            duration: 20_000,
        });
    }
    let m = System::new(chaos(SystemConfig::with_transfw(), events))
        .run(&app)
        .unwrap();
    assert_eq!(m.recovery.link_partition_events, 6);
    assert!(
        m.recovery.rerouted_messages > 0,
        "a full partition must force peer traffic through the host: {:?}",
        m.recovery
    );
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn host_failover_stalls_then_drains() {
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let clean = System::new(SystemConfig::with_transfw()).run(&app).unwrap();
    let m = System::new(chaos(
        SystemConfig::with_transfw(),
        vec![ComponentEvent::HostMmuFailover {
            at_cycle: 1_000,
            stall: 5_000,
        }],
    ))
    .run(&app)
    .unwrap();
    assert_eq!(m.recovery.host_failover_events, 1);
    assert_eq!(m.mem_instructions, clean.mem_instructions);
    assert!(
        m.total_cycles >= clean.total_cycles,
        "a host stall cannot speed the run up: {} vs {}",
        m.total_cycles,
        clean.total_cycles
    );
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn combined_chaos_gpu_loss_partition_and_failover() {
    // Everything at once, in both fault modes, with message loss on top.
    let app = workloads::app("PR").unwrap().scaled(0.1);
    for driver_mode in [false, true] {
        let mut plan = FaultPlan::message_loss(17, 0.01);
        plan.component_events = vec![
            ComponentEvent::GpuOffline {
                gpu: 1,
                at_cycle: 1_500,
                duration: 3_000,
            },
            ComponentEvent::LinkPartition {
                a: 0,
                b: 2,
                at_cycle: 1_000,
                duration: 6_000,
            },
            ComponentEvent::HostMmuFailover {
                at_cycle: 4_000,
                stall: 2_000,
            },
        ];
        let mut cfg = SystemConfig::with_transfw();
        cfg.faults = plan;
        if driver_mode {
            cfg.fault_mode = mgpu::FarFaultMode::UvmDriver;
        }
        let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
            panic!("combined chaos wedged (driver_mode={driver_mode}): {e}");
        });
        assert_eq!(m.mem_instructions, (app.ctas * app.accesses_per_cta) as u64);
        assert_eq!(m.resilience.requests_retired, m.translation_requests);
        assert_eq!(m.recovery.gpu_offline_events, 1);
        assert_eq!(m.recovery.link_partition_events, 1);
        assert_eq!(m.recovery.host_failover_events, 1);
    }
}

#[test]
fn checkpoint_restore_is_bit_identical() {
    // A chaos run with epoch checkpoints is "crashed" mid-flight and then
    // restored: deterministic replay must reproduce the crashed run's every
    // epoch digest, and the restored metrics must equal an uninterrupted
    // same-seed run's.
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let mut cfg = chaos(
        SystemConfig::with_transfw(),
        vec![ComponentEvent::GpuOffline {
            gpu: 1,
            at_cycle: 2_000,
            duration: 4_000,
        }],
    );
    cfg.checkpoint_interval = Some(1_000);

    let uninterrupted = System::new(cfg.clone()).run(&app).unwrap();
    assert!(uninterrupted.recovery.checkpoints_taken > 2);

    let outcome = run_with_restore(&cfg, &app, 5_000).unwrap();
    assert!(outcome.restored, "the crash point must precede completion");
    assert!(
        outcome.crashed_epochs > 0,
        "the crashed run must have recorded epochs to restore from"
    );
    let mut restored = outcome.metrics;
    assert_eq!(restored.recovery.restores_performed, 1);
    restored.recovery.restores_performed = 0; // the only permitted delta
    assert_eq!(
        restored, uninterrupted,
        "restore must replay bit-identically to the uninterrupted run"
    );
}

#[test]
fn a_checkpoint_sink_observes_without_perturbing() {
    // Epoch digests are computed only for a sink; the run itself must not
    // notice whether one is attached, and the sink must hold one digest per
    // counted epoch, in order.
    let app = workloads::app("KM").unwrap().scaled(0.1);
    let mut cfg = chaos(
        SystemConfig::with_transfw(),
        vec![ComponentEvent::GpuOffline {
            gpu: 1,
            at_cycle: 2_000,
            duration: 4_000,
        }],
    );
    cfg.checkpoint_interval = Some(1_000);

    let plain = System::new(cfg.clone()).run(&app).unwrap();
    let sink = Arc::new(Mutex::new(CheckpointLog::new()));
    let sunk = System::new(cfg)
        .with_checkpoint_sink(sink.clone())
        .run(&app)
        .unwrap();
    assert_eq!(sunk, plain, "a sink must not change any metric");

    let log = sink.lock().unwrap();
    assert!(plain.recovery.checkpoints_taken > 2);
    assert_eq!(log.len() as u64, plain.recovery.checkpoints_taken);
    let epochs: Vec<u64> = log.epochs().iter().map(|cp| cp.epoch).collect();
    assert_eq!(
        epochs,
        (0..plain.recovery.checkpoints_taken).collect::<Vec<_>>()
    );
    assert!(
        log.epochs().windows(2).all(|w| w[0].cycle < w[1].cycle),
        "epochs are taken at rising cycles"
    );
}

#[test]
fn restore_without_checkpoints_is_a_config_error() {
    let app = workloads::app("AES").unwrap().scaled(0.05);
    let cfg = SystemConfig::baseline();
    assert_eq!(cfg.checkpoint_interval, None);
    match run_with_restore(&cfg, &app, 1_000) {
        Err(SimError::Config(msg)) => assert!(msg.contains("checkpoint_interval"), "{msg}"),
        other => panic!("expected a config error, got {other:?}"),
    }
}

#[test]
fn checkpointing_a_fault_free_run_changes_nothing_but_the_counter() {
    let app = workloads::app("AES").unwrap().scaled(0.05);
    let plain = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let mut cfg = SystemConfig::baseline();
    cfg.checkpoint_interval = Some(500);
    let mut checked = System::new(cfg).run(&app).unwrap();
    assert!(checked.recovery.checkpoints_taken > 0);
    checked.recovery.checkpoints_taken = 0;
    assert_eq!(
        checked, plain,
        "checkpoints are pure observation: no timing or metric drift"
    );
}

#[test]
fn empty_plan_recovery_counters_stay_zero() {
    let app = workloads::app("MT").unwrap().scaled(0.1);
    let m = System::new(SystemConfig::with_transfw()).run(&app).unwrap();
    assert_eq!(m.recovery, RecoveryStats::default());
}
