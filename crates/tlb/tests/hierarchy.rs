//! Integration tests combining TLBs and MSHRs as the L1/L2 hierarchy does.

use tlb::{Mshr, MshrOutcome, Tlb};

#[test]
fn two_level_lookup_flow() {
    // Model an L1 (small) in front of an L2 (large): misses fill both.
    let mut l1: Tlb<u64> = Tlb::new(4, 4, 1);
    let mut l2: Tlb<u64> = Tlb::new(64, 16, 10);
    let mut walks = 0;
    let mut translate = |vpn: u64, l1: &mut Tlb<u64>, l2: &mut Tlb<u64>| -> u64 {
        if let Some(&ppn) = l1.lookup(vpn) {
            return ppn;
        }
        if let Some(&ppn) = l2.lookup(vpn) {
            l1.fill(vpn, ppn);
            return ppn;
        }
        walks += 1;
        let ppn = vpn + 1000;
        l2.fill(vpn, ppn);
        l1.fill(vpn, ppn);
        ppn
    };
    // Touch 8 pages twice: 8 walks, second round served by L2 (L1 too small).
    for round in 0..2 {
        for vpn in 0..8 {
            assert_eq!(
                translate(vpn, &mut l1, &mut l2),
                vpn + 1000,
                "round {round}"
            );
        }
    }
    assert_eq!(walks, 8, "L2 must absorb the second round");
    assert!(l2.hits() >= 4);
}

#[test]
fn shootdown_propagates_through_hierarchy() {
    let mut l1: Tlb<u64> = Tlb::new(8, 8, 1);
    let mut l2: Tlb<u64> = Tlb::new(64, 16, 10);
    l2.fill(7, 70);
    l1.fill(7, 70);
    // Page migrates: both levels must drop it.
    l1.invalidate(7);
    l2.invalidate(7);
    assert_eq!(l1.lookup(7), None);
    assert_eq!(l2.lookup(7), None);
    assert_eq!(l1.shootdowns() + l2.shootdowns(), 2);
}

#[test]
fn mshr_guards_duplicate_walks() {
    let mut l2: Tlb<u64> = Tlb::new(64, 16, 10);
    let mut mshr: Mshr<u32> = Mshr::new(8);
    let mut walks_started = 0;
    for waiter in 0..5u32 {
        if l2.lookup(42).is_none() {
            match mshr.register(42, waiter) {
                MshrOutcome::Primary => walks_started += 1,
                MshrOutcome::Merged => {}
                MshrOutcome::Full => unreachable!(),
            }
        }
    }
    assert_eq!(walks_started, 1, "one walk serves all 5 requesters");
    // Walk completes: fill and wake.
    l2.fill(42, 420);
    let woken = mshr.complete(42);
    assert_eq!(woken.len(), 5);
    assert_eq!(l2.lookup(42), Some(&420));
}

#[test]
fn capacity_pressure_alternates_hits_and_misses() {
    // A 2-set TLB with vpns mapping to alternating sets: a cyclic sweep of
    // 2x capacity yields 0% hits (LRU worst case).
    let mut t: Tlb<u64> = Tlb::new(8, 4, 1);
    for _ in 0..3 {
        for vpn in 0..16 {
            if t.lookup(vpn).is_none() {
                t.fill(vpn, vpn);
            }
        }
    }
    assert_eq!(t.hits(), 0, "cyclic over-capacity sweep defeats LRU");
}

#[test]
fn occupancy_never_exceeds_capacity() {
    let mut t: Tlb<u64> = Tlb::new(16, 4, 1);
    for vpn in 0..1000 {
        t.fill(vpn, vpn);
        assert!(t.occupancy() <= 16);
    }
    assert_eq!(t.occupancy(), 16);
}
