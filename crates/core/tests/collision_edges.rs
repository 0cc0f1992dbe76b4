//! Collision and overflow edges of the Trans-FW tables: FT deletions under
//! fingerprint collisions (§IV-C's stale-owner source) and PRT
//! overflow (the no-false-negative side of the short-circuit filter).

use ptw::GpuId;
use transfw::{Ft, Prt, TransFwConfig};

/// Finds a page group whose FT key for `gpu` collides with already-stored
/// fingerprints: `lookup` names `gpu` even though the group was never
/// registered. Groups are 8 pages wide (the default VPN mask).
fn find_ft_collider(ft: &mut Ft, gpu: GpuId, from: u64, to: u64) -> Option<u64> {
    (from..to)
        .map(|g| g * 8)
        .find(|&vpn| ft.lookup(vpn).contains(&gpu))
}

/// A deliberately collision-prone FT: few buckets and narrow fingerprints
/// so an aliasing key exists within a small search range. The deletion
/// semantics under test are size-independent.
fn tiny_ft() -> Ft {
    let cfg = TransFwConfig {
        ft_fingerprints: 32,
        ft_fp_bits: 6,
        ft_slots: 2,
        ..TransFwConfig::default()
    };
    Ft::new(&cfg, 4)
}

#[test]
fn ft_colliding_delete_leaves_stale_owner_never_false_negative() {
    let mut ft = tiny_ft();
    let a = 0x40u64; // group 8
    ft.page_migrated(a, None, 0);

    // A group that aliases `a`'s (vpn, gpu 0) fingerprint. The fixed-seed
    // hashes make this search deterministic.
    let b = find_ft_collider(&mut ft, 0, 1000, 200_000)
        .expect("6-bit fingerprints over 200k groups must collide");
    ft.page_migrated(b, None, 0);

    // Page `a` migrates to GPU 1. The delete of (a, gpu 0) may remove
    // either colliding copy; `b` must still resolve to its true owner —
    // the surviving copy vouches for it (no false negative).
    ft.page_migrated(a, Some(0), 1);
    assert!(
        ft.lookup(b).contains(&0),
        "collision delete must not lose b's true owner"
    );
    // `a` may *also* still alias gpu 0 through b's copy: that is the
    // paper's stale multi-owner case, resolved at runtime by a failed
    // remote walk (discarded as a false positive), never by a miss.
    let owners_a = ft.lookup(a);
    assert!(owners_a.contains(&1), "a's migration target lost");
}

#[test]
fn ft_stale_multi_owner_reads_as_candidate_set() {
    // Replication then partial invalidation with a collision in between:
    // the candidate set may over-approximate but must include every live
    // owner.
    let cfg = TransFwConfig::default();
    let mut ft = Ft::new(&cfg, 4);
    let vpn = 0x80u64;
    ft.page_migrated(vpn, None, 2);
    ft.owner_added(vpn, 3); // read replica
    let mut owners = ft.lookup(vpn);
    owners.sort_unstable();
    assert_eq!(owners, vec![2, 3]);
    ft.owner_removed(vpn, 3);
    assert!(ft.lookup(vpn).contains(&2), "primary owner survives");
}

#[test]
fn prt_stash_overflow_has_no_false_negatives() {
    // Default PRT: 500 fingerprint slots. 700 distinct groups overflow the
    // table; membership must stay exact on the negative side
    // (a false negative would wrongly short-circuit a *local* page to the
    // host, breaking correctness, not just performance).
    let cfg = TransFwConfig::default();
    let mut prt = Prt::new(&cfg);
    let groups: Vec<u64> = (0..700u64).map(|i| i * 8).collect();
    for &vpn in &groups {
        prt.page_arrived(vpn);
    }
    assert!(
        prt.overflow_count() > 0,
        "700 groups must overflow 500 slots"
    );
    for &vpn in &groups {
        assert!(prt.may_be_local(vpn), "resident group {vpn} denied");
    }
    // Draining restores an exactly-empty table: overflowed entries delete too.
    for &vpn in &groups {
        prt.page_departed(vpn);
    }
    assert!(prt.is_empty(), "overflowed entries must be removable");
    assert!(!prt.may_be_local(0));
}

#[test]
fn prt_overflow_churn_keeps_departures_exact() {
    // Arrive/depart cycles past capacity: no phantom residency accumulates.
    let cfg = TransFwConfig::default();
    let mut prt = Prt::new(&cfg);
    for round in 0..3u64 {
        let base = round * 100_000;
        for i in 0..600u64 {
            prt.page_arrived(base + i * 8);
        }
        for i in 0..600u64 {
            assert!(prt.may_be_local(base + i * 8), "round {round} lost {i}");
            prt.page_departed(base + i * 8);
        }
        assert!(prt.is_empty(), "round {round} left residue");
    }
}
