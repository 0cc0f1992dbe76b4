//! White-box system tests with tiny deterministic workloads.

use crate::config::{FarFaultMode, IdealKnobs, PwcKind, SystemConfig, TransFwKnobs};
use crate::system::System;
use crate::workload::{Access, AccessStream, Workload};

/// A fully scripted workload: every CTA replays the same access list.
#[derive(Debug)]
struct Scripted {
    name: &'static str,
    footprint: u64,
    ctas: usize,
    accesses: Vec<Access>,
    owners: Vec<Option<u16>>,
}

impl Scripted {
    fn new(footprint: u64, ctas: usize, accesses: Vec<Access>) -> Self {
        Self {
            name: "scripted",
            footprint,
            ctas,
            accesses,
            owners: Vec::new(),
        }
    }

    fn with_owners(mut self, owners: Vec<Option<u16>>) -> Self {
        self.owners = owners;
        self
    }
}

impl Workload for Scripted {
    fn name(&self) -> &str {
        self.name
    }

    fn footprint_pages(&self) -> u64 {
        self.footprint
    }

    fn cta_count(&self) -> usize {
        self.ctas
    }

    fn make_stream(&self, _cta: usize, _seed: u64) -> Box<dyn AccessStream> {
        Box::new(self.accesses.clone().into_iter())
    }

    fn initial_owner(&self, vpn: u64, _gpus: u16) -> Option<u16> {
        self.owners.get(vpn as usize).copied().flatten()
    }

    fn data_cache_hit_rate(&self) -> f64 {
        0.0 // deterministic: no cache-hit coin flips
    }
}

fn tiny_cfg() -> SystemConfig {
    SystemConfig::builder()
        .gpus(2)
        .cus_per_gpu(2)
        .wavefronts_per_cu(1)
        .build()
}

#[test]
fn single_access_local_page_completes_quickly() {
    // One CTA, one access, page pre-placed on GPU 0: L1 miss -> L2 miss ->
    // GMMU walk -> local hit -> data. No faults, no host traffic.
    let w = Scripted::new(4, 1, vec![Access::read(0, 10)]).with_owners(vec![
        Some(0),
        Some(0),
        Some(0),
        Some(0),
    ]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    assert_eq!(m.mem_instructions, 1);
    assert_eq!(m.local_faults, 0);
    assert_eq!(m.l1_misses, 1);
    assert_eq!(m.l2_misses, 1);
    assert_eq!(m.translation_requests, 1);
    // Latency: compute 10 + L1 1 + L2 10 + walk 5*100 + dram 200, plus
    // dispatch granularity.
    assert!(m.total_cycles >= 10 + 1 + 10 + 500);
    assert!(
        m.total_cycles < 2000,
        "unexpected stalls: {}",
        m.total_cycles
    );
}

#[test]
fn remote_page_faults_and_migrates() {
    // GPU 0's CTA touches a page owned by GPU 1: exactly one far fault and
    // one migration; the page ends up local.
    let w = Scripted::new(2, 1, vec![Access::read(0, 5)]).with_owners(vec![Some(1), Some(1)]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    assert_eq!(m.local_faults, 1);
    assert_eq!(m.directory.migrations, 1);
    assert_eq!(m.host_walks, 1);
}

#[test]
fn initial_owner_outside_the_system_is_a_config_error() {
    // Two GPUs, but the workload warms page 1 onto GPU 2.
    let w = Scripted::new(2, 1, vec![Access::read(0, 5)]).with_owners(vec![Some(0), Some(2)]);
    match System::new(tiny_cfg()).run(&w) {
        Err(sim_core::SimError::Config(msg)) => {
            assert!(msg.contains("initial_owner returned GPU 2"), "{msg}");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
}

#[test]
fn repeated_access_hits_l1_tlb() {
    let accesses = vec![Access::read(0, 5); 10];
    let w = Scripted::new(2, 1, accesses).with_owners(vec![Some(0), Some(0)]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    assert_eq!(m.mem_instructions, 10);
    assert_eq!(m.l1_misses, 1, "only the first access misses");
    assert_eq!(m.l1_hits, 9);
    assert_eq!(m.translation_requests, 1);
}

#[test]
fn mshr_coalesces_concurrent_misses_to_same_page() {
    // CTAs 0 and 1 land on GPU 0 (greedy placement of 3 CTAs over 2 GPUs)
    // and touch the same remote page concurrently: their misses coalesce in
    // the L2 MSHR, so at most 2 translation requests exist system-wide.
    let w = Scripted::new(2, 3, vec![Access::read(0, 5)]).with_owners(vec![Some(1), Some(1)]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    assert_eq!(m.mem_instructions, 3);
    assert!(
        m.translation_requests <= 2,
        "concurrent same-page misses should coalesce (got {})",
        m.translation_requests
    );
}

#[test]
fn ping_pong_generates_repeated_faults() {
    // Both GPUs write the same page alternately; with one CTA per GPU the
    // page must bounce at least once each way.
    let accesses = vec![Access::write(0, 50); 8];
    let w = Scripted::new(1, 2, accesses).with_owners(vec![Some(0)]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    assert!(
        m.directory.migrations >= 1,
        "shared writes must migrate the page"
    );
    assert!(m.local_faults >= 1);
}

#[test]
fn no_fault_ideal_never_faults() {
    let accesses = vec![Access::write(0, 5); 8];
    let w = Scripted::new(1, 2, accesses);
    let m = System::new(SystemConfig {
        ideal: IdealKnobs {
            no_local_faults: true,
            ..Default::default()
        },
        ..tiny_cfg()
    })
    .run(&w)
    .unwrap();
    assert_eq!(m.local_faults, 0);
    assert_eq!(m.directory.migrations, 0);
}

#[test]
fn zero_migration_latency_removes_migration_component() {
    let accesses = vec![Access::write(0, 20); 6];
    let w = Scripted::new(1, 2, accesses).with_owners(vec![Some(0)]);
    let m = System::new(SystemConfig {
        ideal: IdealKnobs {
            zero_migration_latency: true,
            ..Default::default()
        },
        ..tiny_cfg()
    })
    .run(&w)
    .unwrap();
    assert!(m.local_faults > 0, "faults still happen");
    assert_eq!(m.breakdown.migration, 0, "but cost nothing");
}

#[test]
fn transfw_prt_short_circuits_remote_page() {
    // GPU 0 touches GPU 1's page with Trans-FW: the PRT must bypass the
    // GMMU walk (the page was never local to GPU 0).
    let w = Scripted::new(16, 1, vec![Access::read(8, 5)])
        .with_owners((0..16).map(|_| Some(1)).collect());
    let cfg = SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.transfw.gmmu_bypassed, 1, "PRT miss must short-circuit");
    assert_eq!(m.local_faults, 0, "no GMMU walk means no local fault event");
}

#[test]
fn transfw_prt_lets_local_pages_walk_locally() {
    let w = Scripted::new(4, 1, vec![Access::read(0, 5)]).with_owners(vec![Some(0); 4]);
    let cfg = SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.transfw.gmmu_bypassed, 0, "local page must not bypass");
    assert_eq!(m.local_faults, 0);
}

#[test]
fn driver_mode_batches_faults() {
    let accesses = vec![Access::read(0, 5), Access::read(1, 5)];
    let w = Scripted::new(2, 1, accesses).with_owners(vec![Some(1), Some(1)]);
    let cfg = SystemConfig {
        fault_mode: FarFaultMode::UvmDriver,
        ..tiny_cfg()
    };
    let m = System::new(cfg).run(&w).unwrap();
    assert!(m.driver_batches >= 1);
    assert_eq!(m.local_faults, 2);
    assert_eq!(m.host_walks, 2, "driver-processed faults count as walks");
}

#[test]
fn infinite_pwc_walks_are_short_after_warmup() {
    // Touch 16 pages in the same leaf table twice; with an infinite
    // PW-cache the second round resumes at level 2 (1 access per walk).
    let mut accesses: Vec<Access> = (0..16).map(|v| Access::read(v, 2)).collect();
    accesses.extend((0..16).map(|v| Access::read(v, 2)));
    let w = Scripted::new(16, 1, accesses).with_owners(vec![Some(0); 16]);
    let mut cfg = tiny_cfg();
    cfg.pwc_kind = PwcKind::Infinite;
    cfg.l1_tlb_entries = 4; // force L1/L2 evictions so walks repeat
    cfg.l2_tlb_entries = 4;
    cfg.l2_tlb_assoc = 4;
    let m = System::new(cfg).run(&w).unwrap();
    let per_walk = m.gmmu_walk_accesses as f64 / m.translation_requests.max(1) as f64;
    assert!(
        per_walk < 3.0,
        "infinite PW-cache should shorten walks, got {per_walk} accesses/walk"
    );
}

#[test]
fn large_pages_collapse_vpns() {
    // 512 distinct 4K pages = one 2 MB page: a single translation request
    // serves everything after the first fill.
    let accesses: Vec<Access> = (0..512).map(|v| Access::read(v, 1)).collect();
    let w = Scripted::new(512, 1, accesses).with_owners(vec![Some(0); 512]);
    let mut cfg = tiny_cfg();
    cfg.page_size_bits = 21;
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.translation_requests, 1, "one 2MB translation");
    assert_eq!(m.l1_misses, 1);
}

#[test]
fn metrics_accumulate_over_both_gpus() {
    let accesses = vec![Access::read(0, 5), Access::read(1, 5)];
    let w = Scripted::new(4, 2, accesses).with_owners(vec![Some(0); 4]);
    let m = System::new(tiny_cfg()).run(&w).unwrap();
    // 2 CTAs x 2 accesses.
    assert_eq!(m.mem_instructions, 4);
    assert_eq!(m.sharing.page_count(), 2);
}

#[test]
fn greedy_cta_placement_fills_gpus_in_blocks() {
    // 4 CTAs on 2 GPUs: CTAs 0-1 on GPU 0, 2-3 on GPU 1. Each touches its
    // own page; sharing profile must see each page from exactly one GPU.
    #[derive(Debug)]
    struct PerCta;
    impl Workload for PerCta {
        fn name(&self) -> &str {
            "percta"
        }
        fn footprint_pages(&self) -> u64 {
            4
        }
        fn cta_count(&self) -> usize {
            4
        }
        fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
            Box::new(std::iter::once(Access::read(cta as u64, 1)))
        }
        fn initial_owner(&self, vpn: u64, _gpus: u16) -> Option<u16> {
            Some((vpn / 2) as u16)
        }
        fn data_cache_hit_rate(&self) -> f64 {
            0.0
        }
    }
    let m = System::new(tiny_cfg()).run(&PerCta).unwrap();
    assert_eq!(m.local_faults, 0, "greedy block placement matches owners");
    let deg = m.sharing.access_fraction_by_degree(2);
    assert!((deg[0] - 1.0).abs() < 1e-9, "all accesses private: {deg:?}");
}

#[test]
fn config_accessor_reflects_input() {
    let cfg = tiny_cfg();
    let sys = System::new(cfg.clone());
    assert_eq!(sys.config(), &cfg);
}

#[test]
fn migration_racing_inflight_forwarded_walk_retires_once() {
    // Trans-FW with an eager forward threshold and a single host walker:
    // every CTA faults on a distinct remote page at once, the PW-queue
    // backs up, and later arrivals are forwarded to the very GPUs the host
    // is simultaneously migrating pages away from. Stale remote supplies
    // must be suppressed by the idempotence guards and every request must
    // still retire exactly once (the post-run auditor also verifies no
    // stale short-circuit state survives).
    #[derive(Debug)]
    struct Interleaved;
    impl Workload for Interleaved {
        fn name(&self) -> &str {
            "race"
        }
        fn footprint_pages(&self) -> u64 {
            8
        }
        fn cta_count(&self) -> usize {
            4
        }
        fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
            // CTAs 0-1 run on GPU 0 and sweep GPU 1's pages (0..4) from
            // staggered offsets so both wavefronts fault concurrently on
            // distinct pages; CTAs 2-3 mirror that against GPU 0's pages.
            let base: u64 = if cta < 2 { 0 } else { 4 };
            let offset = (cta % 2) as u64 * 2;
            let accesses: Vec<Access> = (0..12)
                .map(|i| Access::write(base + (offset + i) % 4, 2))
                .collect();
            Box::new(accesses.into_iter())
        }
        fn initial_owner(&self, vpn: u64, _gpus: u16) -> Option<u16> {
            Some(if vpn < 4 { 1 } else { 0 })
        }
        fn data_cache_hit_rate(&self) -> f64 {
            0.0
        }
    }
    let mut knobs = TransFwKnobs::full();
    knobs.config.forward_threshold = 0.0; // forward whenever anything queues
    let mut cfg = SystemConfig {
        transfw: Some(knobs),
        ..tiny_cfg()
    };
    cfg.host_walkers = 1; // serialise host walks so the PW-queue backs up
    let m = System::new(cfg).run(&Interleaved).unwrap();
    assert!(m.transfw.forwarded >= 1, "race never materialised");
    assert!(m.directory.migrations >= 1, "contended writes must migrate");
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
    assert_eq!(m.mem_instructions, 48);
}

#[test]
fn replicate_then_write_collapse_end_to_end() {
    // Under ReadDuplicate GPUs 0 and 1 read page 0 (one becomes home, the
    // other a replica); GPU 2 — which has no local mapping, so its write
    // actually far-faults — then collapses the page back to a single owner.
    // The collapse transaction must leave the directory, host PT and PRT/FT
    // coherent — the post-run auditor checks all of it.
    #[derive(Debug)]
    struct RwSplit;
    impl Workload for RwSplit {
        fn name(&self) -> &str {
            "rwsplit"
        }
        fn footprint_pages(&self) -> u64 {
            1
        }
        fn cta_count(&self) -> usize {
            3
        }
        fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
            // CTA 2 writes long after the readers established replicas.
            Box::new(std::iter::once(if cta == 2 {
                Access::write(0, 20_000)
            } else {
                Access::read(0, 2)
            }))
        }
        fn data_cache_hit_rate(&self) -> f64 {
            0.0
        }
    }
    let cfg = SystemConfig {
        placement: uvm::PolicyKind::ReadDuplicate,
        transfw: Some(TransFwKnobs::full()),
        ..SystemConfig::builder()
            .gpus(3)
            .cus_per_gpu(1)
            .wavefronts_per_cu(1)
            .build()
    };
    let m = System::new(cfg).run(&RwSplit).unwrap();
    assert!(m.directory.replications >= 1, "reads must replicate");
    assert!(
        m.placement.collapses >= 1,
        "a write must collapse the replica set"
    );
    assert!(m.directory.write_invalidations >= 1);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

#[test]
fn prefetch_skips_vpns_already_pending_in_the_prt() {
    // Radius-3 prefetch: GPU 0 demand-faults on page 8 (neighborhood
    // 9..=15). Page 9 is already resident on GPU 0, so with a PRT present
    // its whole 8-page group looks pending (`may_be_local` is group
    // granular) and every candidate must be skipped rather than
    // double-inserted into the multiset filter.
    let mut owners = vec![Some(1u16); 16];
    owners[9] = Some(0);
    let w = Scripted::new(16, 1, vec![Access::read(8, 5)]).with_owners(owners.clone());
    let cfg = SystemConfig {
        placement: uvm::PolicyKind::PrefetchNeighborhood { radius: 3 },
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.directory.migrations, 1, "the demand page migrates");
    assert_eq!(m.placement.prefetched_pages, 0, "whole group is pending");
    assert_eq!(
        m.placement.prefetch_skipped_pending, 7,
        "9..=15 all skipped"
    );

    // Without a PRT only the page-table check gates: page 9 (mapped on the
    // destination) is skipped, the untouched source-homed 10..=15 move.
    let w = Scripted::new(16, 1, vec![Access::read(8, 5)]).with_owners(owners);
    let cfg = SystemConfig {
        placement: uvm::PolicyKind::PrefetchNeighborhood { radius: 3 },
        ..tiny_cfg()
    };
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.placement.prefetched_pages, 6, "10..=15 travel along");
    assert_eq!(
        m.placement.prefetch_skipped_pending, 1,
        "only page 9 pending"
    );
    assert_eq!(m.directory.prefetches, 6);
}

#[test]
fn sanitized_run_is_bit_identical_and_clean() {
    // The shadow sanitizer is read-only: a contended ping-pong workload
    // (repeated cross-GPU write migrations, full Trans-FW tables engaged)
    // must produce *identical* metrics with and without `sanitize`, and the
    // sanitized run must finish clean — no false findings from the auditor.
    let accesses: Vec<Access> = (0..12).map(|i| Access::write(i % 4, 10)).collect();
    let workload = || Scripted::new(4, 4, accesses.clone()).with_owners(vec![Some(1); 4]);
    let cfg = || SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    let plain = System::new(cfg()).run(&workload()).unwrap();
    let sanitized = System::new(SystemConfig {
        sanitize: true,
        ..cfg()
    })
    .run(&workload())
    .unwrap();
    assert_eq!(plain, sanitized, "sanitizer perturbed the run");
    assert!(plain.directory.migrations > 1, "workload was not contended");
}

#[test]
fn access_counter_promotion_commits_as_a_transaction() {
    // GPU 0 reads page 0, homed on GPU 1, under delayed migration with
    // threshold 2: the far fault remote-maps, the second remote data access
    // trips the access counter and promotes the page to GPU 0. Long after,
    // GPU 1 reads the page again and must far-fault: the promotion shot
    // its mapping down.
    #[derive(Debug)]
    struct Promote;
    impl Workload for Promote {
        fn name(&self) -> &str {
            "promote"
        }
        fn footprint_pages(&self) -> u64 {
            1
        }
        fn cta_count(&self) -> usize {
            2
        }
        fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
            if cta == 0 {
                Box::new(vec![Access::read(0, 10); 4].into_iter())
            } else {
                Box::new(std::iter::once(Access::read(0, 50_000)))
            }
        }
        fn initial_owner(&self, _vpn: u64, _gpus: u16) -> Option<u16> {
            Some(1)
        }
        fn data_cache_hit_rate(&self) -> f64 {
            0.0
        }
    }
    let cfg = || SystemConfig {
        placement: uvm::PolicyKind::DelayedMigration { threshold: 2 },
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    let m = System::new(cfg()).run(&Promote).unwrap();
    assert_eq!(m.directory.promotions, 1);
    // Both translation requests far-fault to the host (GPU 1's PRT no
    // longer lists the page) and remote-map it.
    assert_eq!(m.translation_requests, 2);
    assert_eq!(
        m.directory.remote_maps, 2,
        "GPU 1's mapping must be gone after the promotion"
    );
    assert_eq!(
        m.placement.transactions,
        m.translation_requests + m.directory.promotions,
        "one transaction per far fault plus the promotion"
    );
    let sanitized = System::new(SystemConfig {
        sanitize: true,
        ..cfg()
    })
    .run(&Promote)
    .unwrap();
    assert_eq!(m, sanitized, "sanitizer perturbed the run");
}

#[test]
fn gpu_offline_mid_run_recovers_on_scripted_workload() {
    // GPU 1 dies at cycle 200 with walks in flight and pages resident,
    // rejoins at 1200: the run must complete with every request retired
    // exactly once and the drain/re-issue machinery exercised.
    use sim_core::{ComponentEvent, FaultPlan};
    let accesses: Vec<Access> = (0..16).map(|i| Access::write(i % 8, 20)).collect();
    let w = Scripted::new(8, 4, accesses).with_owners(vec![Some(0); 8]);
    let mut cfg = tiny_cfg();
    cfg.faults = FaultPlan::components(vec![ComponentEvent::GpuOffline {
        gpu: 1,
        at_cycle: 200,
        duration: 1_000,
    }]);
    cfg.watchdog.max_cycles = Some(200_000);
    let m = System::new(cfg).run(&w).unwrap();
    assert_eq!(m.recovery.gpu_offline_events, 1);
    assert_eq!(m.recovery.gpu_rejoins, 1);
    assert!(m.recovery.deferred_events > 0);
    assert_eq!(m.mem_instructions, 64);
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}

/// Each CTA sweeps 80 distinct pages of a 96-page footprint from its own
/// offset, writing every fourth access: CTAs on different GPUs share
/// pages, so pages migrate back and forth (and get shot down), and every
/// CU touches more pages than its 32-entry L1 holds, so fills evict LRU
/// victims.
#[derive(Debug)]
struct SharedSweep {
    ctas: usize,
}

impl Workload for SharedSweep {
    fn name(&self) -> &str {
        "shared-sweep"
    }
    fn footprint_pages(&self) -> u64 {
        96
    }
    fn cta_count(&self) -> usize {
        self.ctas
    }
    fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
        let base = cta as u64 * 7;
        let accesses: Vec<Access> = (0..80u64)
            .map(|i| {
                let vpn = (base + i * 5) % 96;
                if i % 4 == 0 {
                    Access::write(vpn, 2)
                } else {
                    Access::read(vpn, 2)
                }
            })
            .collect();
        Box::new(accesses.into_iter())
    }
    fn initial_owner(&self, vpn: u64, gpus: u16) -> Option<u16> {
        Some((vpn % u64::from(gpus)) as u16)
    }
    fn data_cache_hit_rate(&self) -> f64 {
        0.0
    }
}

#[test]
fn l1_holder_mask_covers_every_l1_entry() {
    // At 64 CUs every mask bit is one CU (victims clear their bit); at 70,
    // CUs 0-5 share bits with CUs 64-69 and only shootdowns clear those.
    for cus in [64u16, 70] {
        let cfg = SystemConfig {
            transfw: Some(TransFwKnobs::full()),
            ..SystemConfig::builder()
                .gpus(2)
                .cus_per_gpu(cus)
                .wavefronts_per_cu(1)
                .build()
        };
        let w = SharedSweep {
            ctas: 2 * usize::from(cus),
        };
        let mut sys = System::new(cfg);
        sys.simulate(&w).unwrap();
        assert!(sys.dir.stats().migrations > 0, "{cus} CUs: no migration");
        let mut held = 0;
        let mut shot_down = 0;
        for (g, gpu) in sys.gpus.iter().enumerate() {
            for (c, cu) in gpu.cus.iter().enumerate() {
                shot_down += cu.l1.shootdowns();
                for vpn in (0..w.footprint_pages()).filter(|&v| cu.l1.probe(v).is_some()) {
                    held += 1;
                    let mask = gpu.l1_holders.get(vpn).copied().unwrap_or(0);
                    assert!(
                        mask & (1 << (c % 64)) != 0,
                        "{cus} CUs: GPU{g} CU{c} holds vpn {vpn} but mask is {mask:#x}"
                    );
                }
            }
        }
        assert!(
            held > 0 && shot_down > 0,
            "{cus} CUs: {held} held, {shot_down} shot down"
        );
    }
}

#[test]
fn completed_count_matches_a_scan_after_a_fault_injected_run() {
    use sim_core::FaultPlan;
    let mut cfg = SystemConfig {
        transfw: Some(TransFwKnobs::full()),
        ..tiny_cfg()
    };
    cfg.faults = FaultPlan::message_chaos(11, 0.05, 400);
    let w = SharedSweep { ctas: 4 };
    let mut sys = System::new(cfg);
    sys.simulate(&w).unwrap();
    let scanned = sys.reqs.iter().filter(|r| !r.completed).count() as u64;
    assert_eq!(sys.outstanding_requests(), scanned);
    assert_eq!(sys.completed_reqs, sys.reqs.len() as u64 - scanned);
    assert!(sys.injector.stats().total() > 0, "no fault was injected");
    let m = &sys.metrics;
    assert_eq!(m.resilience.requests_retired, m.translation_requests);
}
