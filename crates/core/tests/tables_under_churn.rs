//! PRT/FT consistency under realistic page-migration churn, mirroring how
//! the simulator drives them.

#![expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]

use sim_core::SimRng;
use transfw::{ForwardPolicy, Ft, Prt, TransFwConfig};

/// A reference model of page residency: page -> owner GPU.
fn churn(rounds: usize, gpus: u16, pages: u64) -> (Vec<u16>, Prt, Ft) {
    let cfg = TransFwConfig::default();
    let mut owners: Vec<u16> = (0..pages).map(|p| (p % u64::from(gpus)) as u16).collect();
    let mut prts: Vec<Prt> = (0..gpus).map(|_| Prt::new(&cfg)).collect();
    let mut ft = Ft::new(&cfg, gpus);
    // Pages are spaced one per 8-page fingerprint group so the mask does
    // not conflate distinct pages' owners.
    for (p, &o) in owners.iter().enumerate() {
        prts[o as usize].page_arrived(p as u64 * 8);
        ft.page_migrated(p as u64 * 8, None, o);
    }
    let mut rng = SimRng::new(7);
    for _ in 0..rounds {
        let p = rng.gen_range(pages);
        let old = owners[p as usize];
        let new = rng.gen_range(u64::from(gpus)) as u16;
        if new == old {
            continue;
        }
        prts[old as usize].page_departed(p * 8);
        prts[new as usize].page_arrived(p * 8);
        ft.page_migrated(p * 8, Some(old), new);
        owners[p as usize] = new;
    }
    // Merge: return owner model, PRT of GPU 0, FT.
    let prt0 = prts.swap_remove(0);
    (owners, prt0, ft)
}

#[test]
fn ft_never_loses_the_true_owner() {
    let (owners, _, mut ft) = churn(20_000, 4, 2000);
    let mut misses = 0;
    for (p, &o) in owners.iter().enumerate() {
        if !ft.lookup(p as u64 * 8).contains(&o) {
            misses += 1;
        }
    }
    // Collision deletes can lose entries only when two distinct keys share
    // fingerprint AND buckets — essentially never at these sizes.
    assert!(
        misses <= owners.len() / 200,
        "FT lost {misses}/{} owners",
        owners.len()
    );
}

#[test]
fn ft_stale_owner_rate_is_bounded() {
    let (owners, _, mut ft) = churn(20_000, 4, 2000);
    let mut extra = 0usize;
    let mut total = 0usize;
    for (p, _) in owners.iter().enumerate() {
        let cands = ft.lookup(p as u64 * 8);
        total += 1;
        extra += cands.len().saturating_sub(1);
    }
    // Multi-owner responses exist (the paper's stale-fingerprint case) but
    // must stay rare relative to lookups.
    assert!(
        (extra as f64) < total as f64 * 0.25,
        "too many stale owners: {extra}/{total}"
    );
}

#[test]
fn prt_tracks_gpu0_residency_exactly() {
    let (owners, mut prt0, _) = churn(20_000, 4, 2000);
    let mut false_neg = 0;
    for (p, &o) in owners.iter().enumerate() {
        if o == 0 && !prt0.may_be_local(p as u64 * 8) {
            false_neg += 1;
        }
    }
    assert!(false_neg <= 5, "PRT false negatives: {false_neg}");
}

#[test]
fn forwarding_policy_combines_with_ft() {
    // End-to-end decision logic: forward only when contended AND an owner
    // (other than the requester) exists.
    let cfg = TransFwConfig::default();
    let mut ft = Ft::new(&cfg, 4);
    ft.page_migrated(0x10, None, 2);
    let policy = ForwardPolicy::default();
    let decide = |ft: &mut Ft, vpn: u64, requester: u16, queued: usize| -> Option<u16> {
        let owners: Vec<u16> = ft
            .lookup(vpn)
            .into_iter()
            .filter(|&o| o != requester)
            .collect();
        if !owners.is_empty() && policy.should_forward(queued, 16) {
            Some(owners[0])
        } else {
            None
        }
    };
    assert_eq!(decide(&mut ft, 0x10, 0, 2), None, "not contended");
    assert_eq!(decide(&mut ft, 0x10, 0, 12), Some(2), "contended + owner");
    assert_eq!(decide(&mut ft, 0x10, 2, 12), None, "owner is the requester");
    assert_eq!(decide(&mut ft, 0x999, 0, 12), None, "unknown page");
}

#[test]
fn area_stays_fixed_under_churn() {
    let cfg = TransFwConfig::default();
    let prt = Prt::new(&cfg);
    let ft = Ft::new(&cfg, 4);
    // Hardware structures: storage is static regardless of content.
    assert_eq!(prt.storage_bits(), 500 * 13);
    assert_eq!(ft.storage_bits(), 2000 * 11);
}
