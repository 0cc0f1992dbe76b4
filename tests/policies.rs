//! Integration tests for the placement policies and far-fault modes the
//! paper evaluates (§§V-D/E/F/G).

use transfw_sim::prelude::*;
use transfw_sim::uvm::PolicyKind;

const SCALE: f64 = 0.1;

fn run_with(placement: PolicyKind, app: &dyn Workload) -> RunMetrics {
    System::new(SystemConfig {
        placement,
        ..SystemConfig::baseline()
    })
    .run(app)
    .unwrap()
}

#[test]
fn replication_cuts_migrations_for_read_shared_apps() {
    // SC's shared input image is read-mostly: replication should replace
    // most migrations with replications.
    let app = workloads::app("SC").unwrap().scaled(SCALE);
    let on_touch = run_with(PolicyKind::FirstTouch, &app);
    let repl = run_with(PolicyKind::ReadDuplicate, &app);
    assert!(repl.directory.replications > 0, "replicas must be created");
    assert!(
        repl.directory.migrations < on_touch.directory.migrations,
        "replication must cut migrations: {} vs {}",
        repl.directory.migrations,
        on_touch.directory.migrations
    );
}

#[test]
fn replication_helps_read_shared_more_than_write_shared() {
    // Needs full sharing density for the replication benefit to show.
    let sc = workloads::app("SC").unwrap().scaled(0.4); // read-shared
    let mt = workloads::app("MT").unwrap().scaled(0.4); // write-shared
    let sc_gain = run_with(PolicyKind::FirstTouch, &sc).total_cycles as f64
        / run_with(PolicyKind::ReadDuplicate, &sc).total_cycles as f64;
    let mt_gain = run_with(PolicyKind::FirstTouch, &mt).total_cycles as f64
        / run_with(PolicyKind::ReadDuplicate, &mt).total_cycles as f64;
    assert!(
        sc_gain > mt_gain * 0.97,
        "read replication must help SC ({sc_gain}) at least as much as write-heavy MT ({mt_gain})"
    );
}

#[test]
fn write_invalidations_happen_on_write_shared_apps() {
    let mt = workloads::app("MT").unwrap().scaled(SCALE);
    let m = run_with(PolicyKind::ReadDuplicate, &mt);
    assert!(
        m.directory.write_invalidations > 0,
        "MT writes shared pages: ESI must invalidate replicas"
    );
}

#[test]
fn remote_mapping_reduces_page_movement() {
    let app = workloads::app("PR").unwrap().scaled(SCALE);
    let on_touch = run_with(PolicyKind::FirstTouch, &app);
    let remote = run_with(PolicyKind::DelayedMigration { threshold: 8 }, &app);
    assert!(remote.directory.remote_maps > 0, "mappings must be created");
    assert!(
        remote.directory.migrations < on_touch.directory.migrations,
        "remote mapping must cut migrations: {} vs {}",
        remote.directory.migrations,
        on_touch.directory.migrations
    );
}

#[test]
fn remote_mapping_promotes_hot_pages() {
    let app = workloads::app("KM").unwrap().scaled(SCALE);
    let remote = run_with(PolicyKind::DelayedMigration { threshold: 2 }, &app);
    assert!(
        remote.directory.promotions > 0,
        "KM's hot centroids must trip the access counters"
    );
}

#[test]
fn software_driver_is_slower_than_host_mmu() {
    let app = workloads::app("MT").unwrap().scaled(SCALE);
    let hw = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let sw = System::new(
        SystemConfig::builder()
            .fault_mode(mgpu::FarFaultMode::UvmDriver)
            .build(),
    )
    .run(&app)
    .unwrap();
    assert!(sw.driver_batches > 0, "driver must process batches");
    assert!(
        sw.total_cycles > hw.total_cycles,
        "software fault handling must be slower (Fig. 2): {} vs {}",
        sw.total_cycles,
        hw.total_cycles
    );
}

#[test]
fn transfw_helps_on_driver_mode_too() {
    let app = workloads::app("MT").unwrap().scaled(0.3);
    let base = System::new(
        SystemConfig::builder()
            .fault_mode(mgpu::FarFaultMode::UvmDriver)
            .build(),
    )
    .run(&app)
    .unwrap();
    let tfw = System::new(SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..SystemConfig::builder()
            .fault_mode(mgpu::FarFaultMode::UvmDriver)
            .build()
    })
    .run(&app)
    .unwrap();
    assert!(
        tfw.speedup_vs(&base) > 1.05,
        "Fig. 26: Trans-FW must help driver mode, got {}",
        tfw.speedup_vs(&base)
    );
}

#[test]
fn driver_scaling_degrades_with_gpu_count() {
    // Fig. 2(a): the software/hardware gap widens with more GPUs.
    let app = workloads::app("PR").unwrap().scaled(SCALE);
    let gap = |gpus: u16| {
        let hw = System::new(SystemConfig::builder().gpus(gpus).build())
            .run(&app)
            .unwrap();
        let sw = System::new(
            SystemConfig::builder()
                .gpus(gpus)
                .fault_mode(mgpu::FarFaultMode::UvmDriver)
                .build(),
        )
        .run(&app)
        .unwrap();
        sw.total_cycles as f64 / hw.total_cycles as f64
    };
    let g4 = gap(4);
    let g16 = gap(16);
    assert!(
        g16 > g4 * 0.9,
        "software gap should not shrink substantially with GPU count: {g4} -> {g16}"
    );
}

#[test]
fn stc_pwcache_works_end_to_end() {
    let app = workloads::app("KM").unwrap().scaled(SCALE);
    let utc = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let stc = System::new(SystemConfig::builder().pwc_kind(mgpu::PwcKind::Stc).build())
        .run(&app)
        .unwrap();
    assert!(stc.total_cycles > 0);
    // Both organisations should be in the same performance ballpark.
    let ratio = stc.total_cycles as f64 / utc.total_cycles as f64;
    assert!((0.5..2.0).contains(&ratio), "STC/UTC ratio {ratio}");
}

#[test]
fn asap_reduces_walk_cycles() {
    let app = workloads::app("PR").unwrap().scaled(SCALE);
    let base = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let asap = System::new(SystemConfig::builder().asap(Some(1.0)).build())
        .run(&app)
        .unwrap();
    // With perfect ASAP, walk latency collapses to ~1 access per walk.
    assert!(
        asap.breakdown.host_walk < base.breakdown.host_walk,
        "perfect ASAP must cut host walk cycles: {} vs {}",
        asap.breakdown.host_walk,
        base.breakdown.host_walk
    );
}

#[test]
fn least_tlb_adds_remote_tlb_hits() {
    let app = workloads::app("KM").unwrap().scaled(SCALE);
    let base = System::new(SystemConfig::baseline()).run(&app).unwrap();
    let least = System::new(SystemConfig::builder().least_tlb(true).build())
        .run(&app)
        .unwrap();
    // Remote L2 probes satisfy some misses before they become walks.
    assert!(
        least.translation_requests <= base.translation_requests,
        "least-TLB should not create more walks: {} vs {}",
        least.translation_requests,
        base.translation_requests
    );
}
