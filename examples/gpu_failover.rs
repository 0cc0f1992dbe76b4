//! GPU-failover demo and CI smoke run: kill a GPU mid-run, watch the
//! recovery protocol drain, invalidate, migrate and rebuild, then verify
//! that a crashed checkpointed run restores bit-identically.
//!
//! ```sh
//! cargo run --release --example gpu_failover [APP] [OFFLINE_AT] [DURATION]
//! ```

use transfw_sim::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "KM".into());
    let at_cycle: u64 = args
        .next()
        .map(|s| s.parse().expect("OFFLINE_AT must be an integer cycle"))
        .unwrap_or(2_000);
    let duration: u64 = args
        .next()
        .map(|s| s.parse().expect("DURATION must be a positive cycle count"))
        .unwrap_or(4_000);

    let app = workloads::app(&name)
        .unwrap_or_else(|| panic!("unknown app {name:?}"))
        .scaled(0.1);

    let clean = System::new(SystemConfig::with_transfw())
        .run(&app)
        .expect("clean run must pass the auditor");

    let mut cfg = SystemConfig {
        faults: FaultPlan::components(vec![ComponentEvent::GpuOffline {
            gpu: 1,
            at_cycle,
            duration,
        }]),
        ..SystemConfig::with_transfw()
    };
    cfg.checkpoint_interval = Some(1_000);
    let failed = System::new(cfg.clone())
        .run(&app)
        .expect("run with a GPU failure must still complete and pass the auditor");

    println!(
        "app: {} (GPU 1 offline at cycle {at_cycle} for {duration} cycles)",
        app.name
    );
    println!(
        "  cycles:          {} clean -> {} with failure ({:+.1}%)",
        clean.total_cycles,
        failed.total_cycles,
        (failed.total_cycles as f64 / clean.total_cycles as f64 - 1.0) * 100.0
    );
    let c = failed.recovery;
    println!(
        "  failure:         {} offline event(s), {} rejoin(s), {} walks re-issued, {} events deferred",
        c.gpu_offline_events, c.gpu_rejoins, c.reissued_walks, c.deferred_events
    );
    println!(
        "  recovery:        {} FT invalidations, {} pages migrated off the victim, {} PRT rebuild(s)",
        c.ft_invalidations, c.ownership_migrations, c.prt_rebuilds
    );
    println!("  checkpoints:     {} epochs recorded", c.checkpoints_taken);
    println!(
        "  retired:         {}/{} requests (auditor: exactly-once)",
        failed.resilience.requests_retired, failed.translation_requests
    );
    assert_eq!(
        failed.mem_instructions, clean.mem_instructions,
        "a component failure must never lose work"
    );
    assert!(c.ownership_migrations > 0, "the victim held pages");

    // Crash the same run mid-flight and restore from the checkpoint log:
    // deterministic replay must reproduce every epoch digest bit-identically.
    let crash_at = at_cycle + duration / 2;
    let outcome = run_with_restore(&cfg, &app, crash_at)
        .expect("restore must replay the crashed run's checkpoint prefix");
    println!(
        "  restore:         crashed at cycle {crash_at} with {} epoch(s); replay verified {}",
        outcome.crashed_epochs,
        if outcome.restored {
            "bit-identical"
        } else {
            "(run finished before the crash point)"
        }
    );
    if outcome.restored {
        assert_eq!(outcome.metrics.total_cycles, failed.total_cycles);
        assert_eq!(
            outcome.metrics.resilience.requests_retired,
            failed.resilience.requests_retired
        );
    }
    println!("OK: failure survived, ownership migrated, restore bit-identical");
}
