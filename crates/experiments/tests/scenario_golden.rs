//! Golden equivalence: the committed `.scn` scenarios must reproduce the
//! historical hard-coded experiment configurations bit-for-bit.
//!
//! The policy-sweep, chaos-soak, overload-soak and oversubscription-soak
//! drivers used to assemble their matrices by hand; the `soak` runner now
//! compiles `scenarios/*.scn` instead. These tests pin the two paths
//! together: every cell's `SystemConfig` and workload must compare equal
//! to the hand-built originals, and actually *running* a sample of cells
//! through both paths must produce `RunMetrics` that compare equal — the
//! simulator is deterministic, so metric equality is bit-identity.

use experiments::{scenario_specs, RunSpec};
use mgpu::workload::Workload;
use mgpu::TransFwKnobs;
use mgpu::{ComponentEvent, FaultPlan, OverloadConfig, OversubConfig, System, SystemConfig};
use uvm::{EvictPolicy, PolicyKind};
use workloads::WorkloadSpec;

/// The policy_sweep bin's historical matrix, reassembled by hand exactly as
/// the pre-scenario code did.
fn hand_built_policy_sweep() -> Vec<RunSpec> {
    let policies = [
        PolicyKind::FirstTouch,
        PolicyKind::DelayedMigration { threshold: 4 },
        PolicyKind::ReadDuplicate,
        PolicyKind::PrefetchNeighborhood { radius: 3 },
    ];
    let scale = 0.1;
    let seeds = 2u64;
    let mut specs = Vec::new();
    for policy in policies {
        for app_name in ["AES", "KM", "PR", "PhaseShift"] {
            for seed in 1..=seeds {
                let workload = if app_name == "PhaseShift" {
                    WorkloadSpec::PhaseShift { scale }
                } else {
                    WorkloadSpec::app(app_name, scale).expect("known app")
                };
                let mut cfg = SystemConfig::with_transfw();
                cfg.seed = seed;
                cfg.placement = Some(policy);
                specs.push(RunSpec::new(cfg, workload));
            }
        }
    }
    specs
}

/// The chaos_soak bin's historical matrix at both seeds, in scenario order
/// (app → fault plan → seed).
fn hand_built_chaos_soak() -> Vec<RunSpec> {
    let offline = |gpu, at_cycle, duration| ComponentEvent::GpuOffline {
        gpu,
        at_cycle,
        duration,
    };
    let partition = |a, b, at_cycle, duration| ComponentEvent::LinkPartition {
        a,
        b,
        at_cycle,
        duration,
    };
    let failover = |at_cycle, stall| ComponentEvent::HostMmuFailover { at_cycle, stall };
    let mut everything = FaultPlan::message_loss(23, 0.01);
    everything.component_events = vec![
        offline(2, 2_000, 4_000),
        partition(0, 3, 1_000, 8_000),
        failover(5_000, 2_000),
    ];
    #[rustfmt::skip]
    let plans = [
        FaultPlan::components(vec![offline(1, 2_000, 5_000)]),
        FaultPlan::components(vec![offline(0, 1_000, 3_000), offline(3, 4_000, 3_000)]),
        FaultPlan::components(vec![partition(0, 1, 500, 10_000), partition(2, 3, 2_000, 10_000)]),
        FaultPlan::components(vec![failover(1_500, 4_000)]),
        everything,
    ];
    let mut specs = Vec::new();
    for app_name in ["KM", "MT", "PR", "SC"] {
        for plan in &plans {
            for seed in 1..=2 {
                let mut cfg = SystemConfig::with_transfw();
                cfg.faults = plan.clone();
                cfg.checkpoint_interval = Some(2_000);
                let workload = WorkloadSpec::app(app_name, 0.1).expect("known app");
                specs.push(RunSpec::new(cfg, workload).with_seed(seed));
            }
        }
    }
    specs
}

/// The two soak bins' fault plans at run seed 1 (the bins derived the
/// injector seeds from the run seed; the scenarios pin the seed-1 values).
fn seed_one_fault_plans() -> [FaultPlan; 3] {
    [
        FaultPlan::none(),
        FaultPlan::message_loss(38, 0.02),
        FaultPlan::message_chaos(48, 0.02, 200),
    ]
}

/// The soak bins' common system: 4 GPUs x 4 CUs, one host walker, PRT/FT
/// sized up for soak-scale migration churn and neighbourhood prefetch, at
/// run seed 1.
fn soak_system(
    overload: OverloadConfig,
    oversub: OversubConfig,
    faults: FaultPlan,
) -> SystemConfig {
    let mut tables = TransFwKnobs::full();
    tables.config.prt_fingerprints = 2_000;
    tables.config.prt_fp_bits = 16;
    tables.config.ft_fingerprints = 4_000;
    tables.config.ft_fp_bits = 14;
    SystemConfig::builder()
        .gpus(4)
        .cus_per_gpu(4)
        .host_walkers(1)
        .seed(1)
        .transfw(Some(tables))
        .placement(Some(PolicyKind::PrefetchNeighborhood { radius: 3 }))
        .overload(overload)
        .oversub(oversub)
        .faults(faults)
        .build()
}

/// The overload_soak bin's seed-1 cells, in scenario order (load → plan).
fn hand_built_overload_soak() -> Vec<RunSpec> {
    let overload = OverloadConfig {
        host_queue_high: 10,
        host_queue_low: 3,
        gpu_queue_high: 6,
        gpu_queue_low: 2,
        mshr_high: 24,
        mshr_low: 8,
        backoff_base: 200,
        backoff_cap: 3_200,
        ..OverloadConfig::enabled()
    };
    let mut specs = Vec::new();
    for load in [1u64, 2, 4, 8] {
        for plan in seed_one_fault_plans() {
            let cfg = soak_system(overload.clone(), OversubConfig::default(), plan);
            specs.push(RunSpec::new(cfg, WorkloadSpec::Burst { scale: 0.1, load }));
        }
    }
    specs
}

/// The oversub_soak bin's seed-1 cells, in file order (ratio → policy →
/// plan).
fn hand_built_oversub_soak() -> Vec<RunSpec> {
    let footprint = workloads::oversub_shift().footprint_pages() as usize;
    let mut specs = Vec::new();
    for ratio in [1usize, 2, 3, 4] {
        for policy in [EvictPolicy::Lru, EvictPolicy::AccessCounter] {
            for plan in seed_one_fault_plans() {
                let oversub = OversubConfig {
                    policy,
                    thrash_high: 6,
                    thrash_low: 2,
                    refault_window: 20_000,
                    hot_protect: 16,
                    ..OversubConfig::with_capacity(footprint.div_ceil(4 * ratio))
                };
                let cfg = soak_system(OverloadConfig::enabled(), oversub, plan);
                specs.push(RunSpec::new(cfg, WorkloadSpec::OversubShift { scale: 0.1 }));
            }
        }
    }
    specs
}

/// Every scenario in the committed `scenarios/<name>.scn`.
fn committed(name: &str) -> Vec<scn::Scenario> {
    let sources = scn::committed_sources().expect("readable scenarios/ directory");
    let (_, src) = sources
        .iter()
        .find(|(n, _)| n == name)
        .expect("committed scenario");
    scn::compile(src).unwrap_or_else(|e| panic!("{name}.scn:{e}"))
}

/// Every cell of every scenario in `scenarios/<name>.scn`, at every seed.
fn compiled(name: &str) -> Vec<RunSpec> {
    committed(name).iter().flat_map(scenario_specs).collect()
}

/// The committed matrices equal the hand-built ones they replaced: the
/// policy sweep and the chaos soak at both seeds, and the overload and
/// oversubscription soaks at seed 1 (at seed 2 the bins drew other
/// fault-injector seeds).
#[test]
fn policy_sweep_scenario_matches_the_hard_coded_matrix() {
    let seed_one = |specs: Vec<RunSpec>| -> Vec<RunSpec> {
        specs.into_iter().filter(|s| s.cfg.seed == 1).collect()
    };
    #[rustfmt::skip]
    let cases = [
        ("policy_sweep", compiled("policy_sweep"), hand_built_policy_sweep(), 32),
        ("chaos_soak", compiled("chaos_soak"), hand_built_chaos_soak(), 40),
        ("overload_soak", seed_one(compiled("overload_soak")), hand_built_overload_soak(), 12),
        ("oversub_soak", seed_one(compiled("oversub_soak")), hand_built_oversub_soak(), 24),
    ];
    for (name, compiled, hand, runs) in cases {
        assert_eq!(compiled.len(), runs, "{name}: compiled run count");
        assert_eq!(hand.len(), runs, "{name}: hand-built run count");
        for (c, h) in compiled.iter().zip(&hand) {
            assert_eq!(
                c.cfg, h.cfg,
                "{name} {}: scenario config must equal the hand-built config",
                c.label
            );
            assert_eq!(
                c.workload, h.workload,
                "{name} {}: scenario workload must equal the hand-built workload",
                c.label
            );
        }
    }
}

#[test]
fn policy_sweep_labels_are_stable() {
    let sc = committed("policy_sweep").remove(0);
    let labels: Vec<String> = sc.cells().iter().map(|c| c.label.clone()).collect();
    assert_eq!(labels.len(), 16);
    assert_eq!(labels[0], "first-touch/AES");
    assert_eq!(labels[15], "prefetch-neighborhood/PhaseShift");
}

/// Running a cell through the scenario path and through the historical
/// direct path must produce identical metrics. A sample of three cells
/// (one per interesting policy) at a reduced scale keeps this fast.
#[test]
fn scenario_runs_are_bit_identical_to_direct_runs() {
    let sc = committed("policy_sweep").remove(0);
    let specs = scenario_specs(&sc);
    // first-touch/AES seed 1, delayed-migration/KM seed 1,
    // prefetch-neighborhood/PhaseShift seed 2 (indices in cells x seeds
    // order: cell*2 + (seed-1)).
    for idx in [0usize, 2 * 2, 15 * 2 + 1] {
        let spec = specs[idx].clone().with_scale(0.05);
        let via_scenario = spec.run().expect("scenario path runs clean");
        let direct = System::new(spec.cfg.clone())
            .run(spec.workload.build().as_ref())
            .expect("direct path runs clean");
        assert_eq!(
            via_scenario, direct,
            "{}: the scenario path and the direct path must be bit-identical",
            spec.label
        );
    }
}

/// The digest is stable across compile-print-compile and sensitive to a
/// single-token semantic edit (the determinism-backed cache key contract).
#[test]
fn committed_scenario_digest_round_trips_and_tracks_semantics() {
    let sc = committed("policy_sweep").remove(0);
    let reparsed = scn::compile_one(&sc.canonical()).expect("canonical form recompiles");
    assert_eq!(sc, reparsed, "canonical print must round-trip the IR");
    assert_eq!(sc.digest(), reparsed.digest());

    let mut edited = sc.clone();
    edited.seeds = vec![1, 2, 3];
    assert_ne!(
        sc.digest(),
        edited.digest(),
        "a semantic edit must produce a new digest"
    );
}

/// Every committed scenario in the repo compiles, has at least one cell,
/// and round-trips through its canonical form.
#[test]
fn every_committed_scenario_compiles_and_round_trips() {
    let sources = scn::committed_sources().expect("readable scenarios/ directory");
    assert!(
        sources.len() >= 4,
        "expected the four committed experiment scenarios, found {}",
        sources.len()
    );
    for (name, src) in sources {
        let scenarios = scn::compile(&src).unwrap_or_else(|e| panic!("{name}.scn:{e}"));
        assert!(!scenarios.is_empty(), "{name}.scn: no scenarios");
        for sc in scenarios {
            assert!(
                !sc.cells().is_empty(),
                "{}: scenario with no cells",
                sc.name
            );
            let reparsed = scn::compile_one(&sc.canonical())
                .unwrap_or_else(|e| panic!("{} canonical: {e}", sc.name));
            assert_eq!(sc, reparsed, "{}: canonical round-trip", sc.name);
            assert_eq!(sc.digest(), reparsed.digest());
        }
    }
}
