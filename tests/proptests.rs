//! Randomized model-checking tests on the core data structures and their
//! invariants, driven by the deterministic [`SimRng`] (the external
//! `proptest` crate is unavailable offline; these keep the same properties
//! with seeded exploration over many generated cases).

#![expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use transfw_sim::cuckoo::CuckooFilter;
use transfw_sim::mgpu::metrics::SharingProfile;
use transfw_sim::mgpu::{run_with_restore, System, SystemConfig};
use transfw_sim::ptw::{Location, PageTable, Pte, VpnMap};
use transfw_sim::sim_core::{ComponentEvent, EventQueue, FaultPlan, SimRng, Stream};
use transfw_sim::tlb::{Mshr, MshrOutcome, Tlb};
use transfw_sim::uvm::{PageDirectory, PolicyKind};
use transfw_sim::workloads::{self, Pattern};

const CASES: u64 = 64;

/// The event queue pops events in nondecreasing time order and returns
/// exactly the pushed multiset, FIFO on ties.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x0E11 ^ case);
        let n = rng.gen_index(200);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped = Vec::new();
        let mut last = 0u64;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last, "time went backwards");
            last = t;
            popped.push((t, i));
        }
        assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated on tie");
            }
        }
    }
}

/// The calendar queue matches a reference `(time, seq)` binary heap step
/// for step: same-cycle bursts, gaps wider than its window, far-future
/// events, pushes behind the last popped time and `clear` mid-stream.
#[test]
fn event_queue_matches_a_reference_heap() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xCA1E ^ case);
        let mut q = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for step in 0..2000 {
            let roll = rng.gen_range(100);
            let times: Vec<u64> = match roll {
                // A same-cycle burst.
                0..=9 => vec![now.saturating_add(rng.gen_range(4)); 1 + rng.gen_index(16)],
                // Near, within the window.
                10..=39 => vec![now.saturating_add(rng.gen_range(600))],
                // Gaps wider than the window.
                40..=49 => vec![now.saturating_add(1000 + rng.gen_range(5000))],
                // Far future, up to `Cycle::MAX`.
                50..=51 => vec![u64::MAX - rng.gen_range(3)],
                52..=53 => vec![now.saturating_add((1 << 40) + rng.gen_range(1 << 20))],
                // Behind the last popped time.
                54..=58 => vec![now.saturating_sub(1 + rng.gen_range(3000))],
                _ => Vec::new(),
            };
            if roll == 99 && rng.chance(0.2) {
                q.clear();
                model.clear();
            } else if times.is_empty() {
                let want = model.pop().map(|Reverse((t, _, id))| (t, id));
                assert_eq!(q.pop(), want, "case {case} step {step}: pop");
                if let Some((t, _)) = want {
                    now = now.max(t);
                }
            }
            for t in times {
                q.push(t, seq);
                model.push(Reverse((t, seq, seq)));
                seq += 1;
            }
            assert_eq!(
                q.peek_time(),
                model.peek().map(|Reverse((t, _, _))| *t),
                "case {case} step {step}: peek_time"
            );
            assert_eq!(q.len(), model.len(), "case {case} step {step}: len");
            assert_eq!(q.is_empty(), model.is_empty());
        }
        while let Some(Reverse((t, _, id))) = model.pop() {
            assert_eq!(q.pop(), Some((t, id)), "case {case}: drain");
        }
        assert_eq!(q.pop(), None);
    }
}

/// A cuckoo filter never yields a false negative under any interleaving of
/// inserts and deletes, and counts its content exactly.
#[test]
fn cuckoo_no_false_negatives() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0xC0C0 ^ case);
        let mut filter = CuckooFilter::new(64, 4, 12);
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for _ in 0..rng.gen_index(300) {
            let key = rng.gen_range(500);
            if rng.chance(0.5) {
                filter.insert(key);
                *model.entry(key).or_insert(0) += 1;
            } else if model.get(&key).copied().unwrap_or(0) > 0 {
                assert!(filter.remove(key), "present key must be removable");
                *model.get_mut(&key).unwrap() -= 1;
            }
        }
        let live: u32 = model.values().sum();
        assert_eq!(filter.len() as u32, live);
        for (key, &count) in &model {
            if count > 0 {
                assert!(filter.contains(*key), "false negative on {key}");
            }
        }
    }
}

/// TLB contents always match a reference LRU model per set.
#[test]
fn tlb_matches_lru_model() {
    const ENTRIES: usize = 16;
    const ASSOC: usize = 4;
    const SETS: u64 = (ENTRIES / ASSOC) as u64;
    for case in 0..CASES {
        let mut rng = SimRng::new(0x71B ^ case);
        let mut tlb: Tlb<u64> = Tlb::new(ENTRIES, ASSOC, 1);
        // model: per set, Vec of vpns in LRU -> MRU order.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); SETS as usize];
        for _ in 0..rng.gen_index(300) {
            let vpn = rng.gen_range(64);
            let is_fill = rng.chance(0.5);
            let set = &mut model[(vpn % SETS) as usize];
            if is_fill {
                tlb.fill(vpn, vpn * 10);
                if let Some(pos) = set.iter().position(|&v| v == vpn) {
                    set.remove(pos);
                } else if set.len() == ASSOC {
                    set.remove(0); // evict LRU
                }
                set.push(vpn);
            } else {
                let hit = tlb.lookup(vpn).copied();
                let model_hit = set.iter().position(|&v| v == vpn);
                assert_eq!(hit.is_some(), model_hit.is_some(), "hit mismatch on {vpn}");
                if let Some(pos) = model_hit {
                    assert_eq!(hit, Some(vpn * 10));
                    set.remove(pos);
                    set.push(vpn); // promote to MRU
                }
            }
        }
    }
}

/// Page-table node accounting: walks after arbitrary insert/remove
/// sequences agree with a set model, and access counts stay in range.
#[test]
fn page_table_walks_match_model() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x9A6E ^ case);
        let mut pt = PageTable::new(5);
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for _ in 0..rng.gen_index(200) {
            let vpn = rng.gen_range(1 << 20);
            if rng.chance(0.5) {
                pt.insert(vpn, Pte::new(vpn, Location::Cpu));
                model.insert(vpn);
            } else {
                let removed = pt.remove(vpn).is_some();
                assert_eq!(removed, model.remove(&vpn));
            }
            let walk = pt.walk(vpn, None);
            assert_eq!(walk.pte.is_some(), model.contains(&vpn));
            assert!(walk.accesses >= 1 && walk.accesses <= 5);
            if model.contains(&vpn) {
                assert_eq!(walk.accesses, 5, "mapped cold walk reads all levels");
            }
        }
        assert_eq!(pt.mapped_pages(), model.len());
    }
}

/// `VpnMap` agrees with a `BTreeMap` model on every call, over dense keys,
/// keys around a 512-key chunk boundary, keys either side of the 2^24
/// cutoff between directly indexed and B-tree chunks, and sparse keys up to
/// `u64::MAX`. After each step the length, the chunk count (one per
/// occupied 512-key run, so drained chunks are freed) and the full ordered
/// iteration match.
#[test]
fn vpn_map_matches_btreemap() {
    for case in 0..CASES {
        let mut rng = SimRng::stream(0x7B11 ^ case, Stream::Root, 0);
        let sparse: Vec<u64> = (0..6)
            .map(|_| rng.next_u64())
            .chain([u64::MAX, u64::MAX - 512, 1 << 40])
            .collect();
        let mut map: VpnMap<u64> = VpnMap::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..400u64 {
            let key = match rng.gen_range(4) {
                0 => rng.gen_range(4096),
                1 => [0, 511, 512, 513, 1023, 1024][rng.gen_index(6)],
                2 => (1 << 24) - 1024 + rng.gen_range(2048),
                _ => sparse[rng.gen_index(sparse.len())],
            };
            match rng.gen_range(6) {
                0 | 1 => assert_eq!(map.insert(key, step), model.insert(key, step)),
                2 => assert_eq!(map.remove(key), model.remove(&key)),
                3 => assert_eq!(map.get(key), model.get(&key)),
                4 => {
                    let got = map.get_mut(key).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want);
                }
                _ => {
                    let got = *map.get_or_insert_with(key, || step);
                    assert_eq!(got, *model.entry(key).or_insert(step));
                }
            }
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
            let chunks: BTreeSet<u64> = model.keys().map(|k| k >> 9).collect();
            assert_eq!(map.chunk_count(), chunks.len(), "case {case} step {step}");
            assert!(
                map.iter().eq(model.iter().map(|(&k, v)| (k, v))),
                "case {case} step {step}: iteration differs"
            );
        }
        for (_, v) in map.iter_mut() {
            *v *= 3;
        }
        for v in model.values_mut() {
            *v *= 3;
        }
        assert!(map.iter().eq(model.iter().map(|(&k, v)| (k, v))));
    }
}

/// `Mshr` agrees with a `BTreeMap<u64, Vec<W>>` model on every call:
/// each registration's outcome (`Primary`, `Merged` or `Full` at the
/// capacity), the waiters `complete` and `complete_into` release and their
/// order, `len`, `is_outstanding` and the outcome counters.
#[test]
fn mshr_matches_btreemap() {
    const CAPACITY: usize = 6;
    for case in 0..CASES {
        let mut rng = SimRng::stream(0x3512 ^ case, Stream::Root, 0);
        let mut mshr: Mshr<u64> = Mshr::new(CAPACITY);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let (mut primaries, mut merged, mut stalls) = (0, 0, 0);
        let mut out = Vec::new();
        for step in 0..300u64 {
            let vpn = rng.gen_range(10);
            match rng.gen_range(5) {
                0..=2 => {
                    let want = if let Some(waiters) = model.get_mut(&vpn) {
                        waiters.push(step);
                        merged += 1;
                        MshrOutcome::Merged
                    } else if model.len() >= CAPACITY {
                        stalls += 1;
                        MshrOutcome::Full
                    } else {
                        model.insert(vpn, vec![step]);
                        primaries += 1;
                        MshrOutcome::Primary
                    };
                    assert_eq!(mshr.register(vpn, step), want, "case {case} step {step}");
                }
                3 => {
                    let want = model.remove(&vpn).unwrap_or_default();
                    assert_eq!(mshr.complete(vpn), want, "case {case} step {step}");
                }
                _ => {
                    // Appends after whatever the buffer already holds.
                    let kept = out.len();
                    mshr.complete_into(vpn, &mut out);
                    let want = model.remove(&vpn).unwrap_or_default();
                    assert_eq!(out[kept..], want, "case {case} step {step}");
                    if out.len() > 8 {
                        out.clear();
                    }
                }
            }
            assert_eq!(mshr.len(), model.len());
            assert_eq!(mshr.is_empty(), model.is_empty());
            for v in 0..10 {
                assert_eq!(mshr.is_outstanding(v), model.contains_key(&v));
            }
            assert_eq!(
                (
                    mshr.primary_count(),
                    mshr.merged_count(),
                    mshr.stall_count()
                ),
                (primaries, merged, stalls)
            );
        }
    }
}

/// The page directory preserves the single-home invariant under any fault
/// sequence, for every policy.
#[test]
fn directory_single_home_invariant() {
    let policies = [
        PolicyKind::FirstTouch,
        PolicyKind::ReadDuplicate,
        PolicyKind::DelayedMigration { threshold: 3 },
        PolicyKind::PrefetchNeighborhood { radius: 2 },
    ];
    for case in 0..CASES {
        let mut rng = SimRng::new(0xD14EC ^ case);
        let policy = policies[rng.gen_index(policies.len())];
        let mut dir = PageDirectory::with_policy(4, policy);
        for _ in 0..1 + rng.gen_index(199) {
            let vpn = rng.gen_range(40);
            let gpu = rng.gen_range(4) as u16;
            let is_write = rng.chance(0.5);
            let txn = dir.resolve_fault(vpn, gpu, is_write);
            // The faulting GPU never invalidates itself.
            assert!(!txn.invalidate.contains(&gpu));
            let page = dir.page(vpn).unwrap();
            // Home is always a single in-range location.
            if let Location::Gpu(h) = page.home {
                assert!(h < 4);
            }
            // A write never leaves foreign replicas behind.
            if is_write && policy == PolicyKind::ReadDuplicate {
                let replicas = page.replicas;
                assert!(
                    replicas == 0 || replicas == 1 << gpu,
                    "write left replicas 0b{replicas:b}"
                );
            }
        }
    }
}

/// MSHR: primaries and merges partition successful registrations, and
/// complete() returns exactly the registered waiters.
#[test]
fn mshr_waiter_conservation() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x351 ^ case);
        let mut mshr: Mshr<usize> = Mshr::new(8);
        let mut model: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for i in 0..rng.gen_index(100) {
            let vpn = rng.gen_range(16);
            match mshr.register(vpn, i) {
                MshrOutcome::Primary => {
                    assert!(!model.contains_key(&vpn));
                    model.insert(vpn, vec![i]);
                }
                MshrOutcome::Merged => {
                    model.get_mut(&vpn).expect("merge implies entry").push(i);
                }
                MshrOutcome::Full => {
                    assert!(model.len() >= 8 && !model.contains_key(&vpn));
                }
            }
        }
        for (vpn, waiters) in model {
            assert_eq!(mshr.complete(vpn), waiters);
        }
        assert!(mshr.is_empty());
    }
}

/// Random GPU-offline schedules — any number of outages, any victims, any
/// (possibly overlapping) windows — preserve retire-exactly-once and
/// terminate, for a representative of each of the four access patterns.
/// The post-run invariant auditor runs inside `System::run`, so a clean
/// `Ok` here certifies the full protocol, not just the counters.
#[test]
fn random_gpu_offline_schedules_retire_exactly_once() {
    // One app per access pattern (Table III): partition / adjacent /
    // random / scatter-gather.
    let reps = ["AES", "KM", "MT", "PR"];
    for name in reps {
        let spec = workloads::app(name).unwrap();
        assert!(
            matches!(
                spec.pattern,
                Pattern::Partition | Pattern::Adjacent | Pattern::Random | Pattern::ScatterGather
            ),
            "{name} has an unexpected pattern"
        );
    }
    let patterns: BTreeSet<_> = reps
        .iter()
        .map(|n| format!("{:?}", workloads::app(n).unwrap().pattern))
        .collect();
    assert_eq!(patterns.len(), 4, "representatives must cover all patterns");

    for case in 0..12u64 {
        let mut rng = SimRng::new(0x0FF11E ^ case);
        let name = reps[rng.gen_index(reps.len())];
        let app = workloads::app(name).unwrap().scaled(0.04);
        let outages = 1 + rng.gen_index(3);
        let events: Vec<ComponentEvent> = (0..outages)
            .map(|_| ComponentEvent::GpuOffline {
                gpu: rng.gen_index(4),
                at_cycle: 100 + rng.gen_range(8_000),
                duration: 1 + rng.gen_range(6_000),
            })
            .collect();
        let mut cfg = SystemConfig::with_transfw();
        cfg.seed = case;
        cfg.faults = FaultPlan::components(events.clone());
        // Belt and braces: a schedule that wedges the protocol should fail
        // with a typed error, not hang the test suite.
        cfg.watchdog.max_cycles = Some(5_000_000);
        let m = System::new(cfg).run(&app).unwrap_or_else(|e| {
            panic!("case {case} ({name}, {events:?}) failed: {e}");
        });
        assert_eq!(
            m.resilience.requests_retired, m.translation_requests,
            "case {case} ({name}, {events:?}): retire-exactly-once violated"
        );
        assert_eq!(
            m.mem_instructions,
            (app.ctas * app.accesses_per_cta) as u64,
            "case {case} ({name}): lost instructions"
        );
        assert!(m.recovery.gpu_offline_events as usize >= 1);
    }
}

/// Random placement policy × random fault schedule: the transactional
/// ownership engine preserves retire-exactly-once under any combination,
/// and a crash at a random cycle restores bit-identically under
/// [`run_with_restore`] — page movement (migration, replication, prefetch)
/// is exactly as deterministic as the fault path it rides on.
#[test]
fn random_policy_and_fault_schedules_replay_bit_identically() {
    let reps = ["AES", "KM", "MT", "PR"];
    for case in 0..10u64 {
        let mut rng = SimRng::new(0x7011C7 ^ case);
        let name = reps[rng.gen_index(reps.len())];
        let app = workloads::app(name).unwrap().scaled(0.04);
        let kind = match rng.gen_index(4) {
            0 => PolicyKind::FirstTouch,
            1 => PolicyKind::DelayedMigration {
                threshold: 1 + rng.gen_range(6) as u32,
            },
            2 => PolicyKind::ReadDuplicate,
            _ => PolicyKind::PrefetchNeighborhood {
                radius: 1 + rng.gen_range(3) as u32,
            },
        };
        let faults = if rng.chance(0.5) {
            FaultPlan::components(vec![ComponentEvent::GpuOffline {
                gpu: rng.gen_index(4),
                at_cycle: 100 + rng.gen_range(6_000),
                duration: 1 + rng.gen_range(4_000),
            }])
        } else {
            FaultPlan::message_chaos(case, 0.02, 50 + rng.gen_range(300))
        };
        let mut cfg = SystemConfig::with_transfw();
        cfg.seed = case;
        cfg.placement = kind;
        cfg.faults = faults;
        cfg.checkpoint_interval = Some(2_000);
        cfg.watchdog.max_cycles = Some(10_000_000);

        let baseline = System::new(cfg.clone())
            .run(&app)
            .unwrap_or_else(|e| panic!("case {case} ({name}, {kind:?}) failed: {e}"));
        assert_eq!(
            baseline.resilience.requests_retired, baseline.translation_requests,
            "case {case} ({name}, {kind:?}): retire-exactly-once violated"
        );

        let crash_at = 1_000 + rng.gen_range(20_000);
        let outcome = run_with_restore(&cfg, &app, crash_at)
            .unwrap_or_else(|e| panic!("case {case} ({name}, {kind:?}) restore failed: {e}"));
        let mut restored = outcome.metrics;
        if outcome.restored {
            assert_eq!(restored.recovery.restores_performed, 1);
            restored.recovery.restores_performed = 0; // the only permitted delta
        }
        assert_eq!(
            restored, baseline,
            "case {case} ({name}, {kind:?}): restore diverged from uninterrupted run"
        );
    }
}

/// Sharing-profile fractions always sum to 1 over nonempty input.
#[test]
fn sharing_fractions_sum_to_one() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x54A2E ^ case);
        let mut s = SharingProfile::new();
        for _ in 0..1 + rng.gen_index(299) {
            s.record(rng.gen_range(64), rng.gen_range(4) as u16, rng.chance(0.5));
        }
        let sum: f64 = s.access_fraction_by_degree(4).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }
}
