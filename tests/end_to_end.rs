//! End-to-end integration tests: the full system runs every workload to
//! completion and its metrics obey basic accounting invariants.

use transfw_sim::prelude::*;

const SCALE: f64 = 0.1;

fn run(cfg: SystemConfig, app: &dyn Workload) -> RunMetrics {
    System::new(cfg).run(app).unwrap()
}

#[test]
fn every_app_runs_to_completion_on_baseline() {
    for spec in workloads::all_apps() {
        let app = spec.scaled(SCALE);
        let m = run(SystemConfig::baseline(), &app);
        assert!(m.total_cycles > 0, "{}", app.name);
        let expected = (app.ctas * app.accesses_per_cta) as u64;
        assert_eq!(
            m.mem_instructions, expected,
            "{} instruction count",
            app.name
        );
    }
}

#[test]
fn every_app_runs_to_completion_on_transfw() {
    for spec in workloads::all_apps() {
        let app = spec.scaled(SCALE);
        let m = run(SystemConfig::with_transfw(), &app);
        assert!(m.total_cycles > 0, "{}", app.name);
        assert_eq!(
            m.mem_instructions,
            (app.ctas * app.accesses_per_cta) as u64,
            "{}",
            app.name
        );
    }
}

#[test]
fn tlb_accounting_is_consistent() {
    let app = workloads::app("MT").unwrap().scaled(SCALE);
    let m = run(SystemConfig::baseline(), &app);
    // Every memory instruction does exactly one L1 lookup.
    assert_eq!(m.l1_hits + m.l1_misses, m.mem_instructions);
    // Every L1 miss does at most one L2 lookup (MSHR-full retries repeat).
    assert!(m.l2_hits + m.l2_misses >= m.l1_misses);
    // Translation requests are L2 misses that were not coalesced.
    assert!(m.translation_requests <= m.l2_misses);
    assert!(m.translation_requests > 0);
}

#[test]
fn faults_only_happen_with_page_sharing() {
    let aes = workloads::app("AES").unwrap().scaled(SCALE);
    let mt = workloads::app("MT").unwrap().scaled(SCALE);
    let m_aes = run(SystemConfig::baseline(), &aes);
    let m_mt = run(SystemConfig::baseline(), &mt);
    assert!(
        m_aes.pfpki() < 3.0,
        "partitioned AES should fault rarely, got PFPKI {}",
        m_aes.pfpki()
    );
    assert!(
        m_mt.pfpki() > 10.0 * m_aes.pfpki().max(0.01),
        "scatter-gather MT must fault far more than AES"
    );
}

#[test]
fn runs_are_deterministic() {
    let app = workloads::app("SC").unwrap().scaled(SCALE);
    let a = run(SystemConfig::baseline(), &app);
    let b = run(SystemConfig::baseline(), &app);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.local_faults, b.local_faults);
    assert_eq!(a.l2_misses, b.l2_misses);
}

#[test]
fn seed_changes_timing_but_not_structure() {
    let app = workloads::app("SC").unwrap().scaled(SCALE);
    let a = run(SystemConfig::baseline(), &app);
    let mut cfg = SystemConfig::baseline();
    cfg.seed = 999;
    let b = run(cfg, &app);
    assert_eq!(a.mem_instructions, b.mem_instructions);
}

#[test]
fn transfw_speeds_up_sharing_heavy_apps() {
    // MT is the paper's best case (>2x at full scale); even at reduced
    // scale Trans-FW must win clearly.
    let app = workloads::app("MT").unwrap().scaled(0.3);
    let base = run(SystemConfig::baseline(), &app);
    let tfw = run(SystemConfig::with_transfw(), &app);
    let speedup = tfw.speedup_vs(&base);
    assert!(speedup > 1.1, "MT speedup only {speedup}");
}

#[test]
fn transfw_is_harmless_for_partitioned_apps() {
    let app = workloads::app("AES").unwrap().scaled(0.3);
    let base = run(SystemConfig::baseline(), &app);
    let tfw = run(SystemConfig::with_transfw(), &app);
    let speedup = tfw.speedup_vs(&base);
    assert!(
        (0.9..1.2).contains(&speedup),
        "AES should be insensitive, got {speedup}"
    );
}

#[test]
fn breakdown_covers_fault_path() {
    // Needs enough access density for sharing faults to dominate.
    let app = workloads::app("PR").unwrap().scaled(0.3);
    let m = run(SystemConfig::baseline(), &app);
    assert!(m.breakdown.total() > 0);
    assert!(
        m.breakdown.fault_total() > m.breakdown.total() / 2,
        "fault handling must dominate PR's L2-miss latency (paper: 86.1% avg)"
    );
    let f = m.breakdown.fractions();
    assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn sharing_profile_matches_pattern_classes() {
    let aes = workloads::app("AES").unwrap().scaled(SCALE);
    let m = run(SystemConfig::baseline(), &aes);
    let deg = m.sharing.access_fraction_by_degree(4);
    assert!(deg[0] > 0.95, "AES accesses should be private, got {deg:?}");

    // ST's ghost zones need enough access density to register as shared.
    let st = workloads::app("ST").unwrap().scaled(0.4);
    let m = run(SystemConfig::baseline(), &st);
    let deg = m.sharing.access_fraction_by_degree(4);
    assert!(
        deg[1] > 0.1,
        "ST halos should produce 2-GPU sharing, got {deg:?}"
    );

    let pr = workloads::app("PR").unwrap().scaled(0.4);
    let m = run(SystemConfig::baseline(), &pr);
    let deg = m.sharing.access_fraction_by_degree(4);
    assert!(
        deg[1] + deg[2] + deg[3] > 0.15,
        "PR should share widely, got {deg:?}"
    );
}

#[test]
fn ideal_knobs_improve_performance() {
    let app = workloads::app("MT").unwrap().scaled(SCALE);
    let base = run(SystemConfig::baseline(), &app);
    let no_faults = run(
        SystemConfig {
            ideal: mgpu::IdealKnobs {
                no_local_faults: true,
                ..Default::default()
            },
            ..SystemConfig::baseline()
        },
        &app,
    );
    assert_eq!(no_faults.local_faults, 0, "ideal: no faults at all");
    assert!(
        no_faults.total_cycles < base.total_cycles,
        "eliminating faults must help MT"
    );
    let inf_walk = run(
        SystemConfig {
            ideal: mgpu::IdealKnobs {
                infinite_walkers: true,
                ..Default::default()
            },
            ..SystemConfig::baseline()
        },
        &app,
    );
    // At reduced scale the idealisation is within noise of the baseline;
    // the Fig. 4 bench shows the full-scale gain.
    assert!(inf_walk.total_cycles as f64 <= base.total_cycles as f64 * 1.1);
    assert_eq!(inf_walk.breakdown.gmmu_queue, 0);
    assert_eq!(inf_walk.breakdown.host_queue, 0);
}

#[test]
fn four_level_table_walks_less() {
    let app = workloads::app("KM").unwrap().scaled(SCALE);
    let five = run(SystemConfig::baseline(), &app);
    let four = run(SystemConfig::builder().page_table_levels(4).build(), &app);
    // Same misses, fewer memory accesses per cold walk.
    assert!(four.gmmu_walk_accesses + four.host_walk_accesses > 0);
    let per_walk_5 = five.host_walk_accesses as f64 / five.host_walks.max(1) as f64;
    let per_walk_4 = four.host_walk_accesses as f64 / four.host_walks.max(1) as f64;
    assert!(
        per_walk_4 <= per_walk_5 + 0.5,
        "4-level walks must not touch more memory: {per_walk_4} vs {per_walk_5}"
    );
}

#[test]
fn large_pages_improve_tlb_reach() {
    let app = workloads::app("AES").unwrap().scaled(SCALE);
    let small = run(SystemConfig::baseline(), &app);
    let large = run(SystemConfig::builder().page_size_bits(21).build(), &app);
    assert!(
        large.l2_misses < small.l2_misses,
        "2 MB pages must cut L2 TLB misses: {} vs {}",
        large.l2_misses,
        small.l2_misses
    );
}

#[test]
fn ml_models_run_end_to_end() {
    for model in [
        workloads::vgg16().scaled(0.1),
        workloads::resnet18().scaled(0.1),
    ] {
        let base = run(SystemConfig::baseline(), &model);
        let tfw = run(SystemConfig::with_transfw(), &model);
        assert!(base.total_cycles > 0);
        assert!(tfw.total_cycles > 0);
        assert_eq!(base.mem_instructions, tfw.mem_instructions);
    }
}
