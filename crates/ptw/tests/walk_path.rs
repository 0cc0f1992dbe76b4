//! Integration tests of the full walk path: queue -> walker -> PW-cache ->
//! page table, as the GMMU drives it.

use ptw::{
    cached_walk, Asap, Location, PageTable, Pte, PwCache, PwQueue, WalkerPool, BITS_PER_LEVEL,
};

/// Drives a batch of translation requests through the PW machinery the way
/// the simulator does, returning total serialized memory accesses.
fn drive(pwc: &mut PwCache, pt: &PageTable, vpns: &[u64]) -> u64 {
    let mut queue: PwQueue<u64> = PwQueue::new(64);
    let mut pool = WalkerPool::new(8);
    let mut total = 0u64;
    for (t, &vpn) in vpns.iter().enumerate() {
        queue.push(vpn, t as u64).unwrap();
    }
    let mut now = 0;
    while let Some((vpn, _)) = queue.pop(now) {
        assert!(pool.try_acquire());
        let walk = cached_walk(pwc, pt, None, vpn);
        total += u64::from(walk.accesses);
        pwc.refill(vpn, walk.refill);
        pool.release();
        now += 100;
    }
    total
}

#[test]
fn walk_from_the_root_refills_every_upper_level() {
    let mut pt = PageTable::new(5);
    pt.insert(7, Pte::new(70, Location::Gpu(0)));
    let mut pwc = PwCache::new(128, 5);
    let walk = cached_walk(&mut pwc, &pt, None, 7);
    assert_eq!(walk.pte, Some(Pte::new(70, Location::Gpu(0))));
    assert_eq!((walk.accesses, walk.serialized), (5, 5));
    assert_eq!(walk.refill, 2..=5);
    assert_eq!(pwc.stats().misses, 1);
    assert_eq!(
        pwc.probe(7),
        None,
        "the walk step leaves the refill to completion"
    );

    // ASAP overlaps the lower reads but the walk still makes them all.
    let mut asap = Asap::new(1.0);
    let walk = cached_walk(&mut pwc, &pt, Some(&mut asap), 7);
    assert_eq!((walk.accesses, walk.serialized), (5, 1));
}

#[test]
fn walk_resuming_at_a_level_k_hit_refills_below_k() {
    let mut pt = PageTable::new(5);
    pt.insert(7, Pte::new(70, Location::Gpu(0)));
    let mut pwc = PwCache::new(128, 5);
    pwc.insert(7, 4);
    // The level-4 entry points into the level-3 table: the walk reads
    // levels 3, 2 and 1, and the level-4 entry is already cached.
    let walk = cached_walk(&mut pwc, &pt, None, 7);
    assert!(walk.pte.is_some());
    assert_eq!(walk.accesses, 3);
    assert_eq!(walk.refill, 2..=3);
    assert_eq!(pwc.stats().hits_at[4], 1);
}

#[test]
fn walk_stopping_at_a_missing_node_refills_what_it_read() {
    let mut pt = PageTable::new(5);
    pt.insert(0, Pte::new(0, Location::Gpu(0)));
    let mut pwc = PwCache::new(128, 5);
    // Shares vpn 0's level-4 and level-3 tables but not its level-2 table:
    // the walk reads the L5 and L4 entries, then finds the L3 entry empty.
    let vpn = 1 << (2 * BITS_PER_LEVEL);
    let walk = cached_walk(&mut pwc, &pt, None, vpn);
    assert_eq!(walk.pte, None);
    assert_eq!(walk.accesses, 3);
    assert_eq!(walk.refill, 4..=5);

    // A walk that finds even the root entry empty read nothing to cache.
    let empty = PageTable::new(5);
    let walk = cached_walk(&mut pwc, &empty, None, 0);
    assert_eq!((walk.pte, walk.accesses), (None, 1));
    assert!(walk.refill.is_empty());
}

#[test]
fn utc_cuts_accesses_on_locality() {
    let mut pt = PageTable::new(5);
    for vpn in 0..64 {
        pt.insert(vpn, Pte::new(vpn, Location::Gpu(0)));
    }
    let mut pwc = PwCache::new(128, 5);
    // Sequential pages share every upper level: after the first full walk,
    // each subsequent walk resumes at level 2 (1 access).
    let vpns: Vec<u64> = (0..64).collect();
    let total = drive(&mut pwc, &pt, &vpns);
    assert_eq!(total, 5 + 63, "first walk 5 accesses, then 1 each");
    assert!(pwc.stats().hit_rate() > 0.9);
}

#[test]
fn stc_behaves_like_utc_on_small_working_sets() {
    let mut pt = PageTable::new(5);
    for vpn in 0..64 {
        pt.insert(vpn, Pte::new(vpn, Location::Gpu(0)));
    }
    let vpns: Vec<u64> = (0..64).collect();
    let mut utc = PwCache::new(128, 5);
    let mut stc = PwCache::split(5);
    assert_eq!(
        drive(&mut utc, &pt, &vpns),
        drive(&mut stc, &pt, &vpns),
        "both organisations serve a covered working set identically"
    );
}

#[test]
fn failed_walks_still_prime_the_cache() {
    let mut pt = PageTable::new(5);
    pt.insert(0, Pte::new(0, Location::Gpu(0)));
    let mut pwc = PwCache::new(128, 5);
    // Walk an unmapped neighbour: upper levels exist (thanks to vpn 0), the
    // leaf does not; the walk fails but caches what it read.
    let probe = 1; // same leaf table as vpn 0
    let w1 = cached_walk(&mut pwc, &pt, None, probe);
    assert!(w1.pte.is_none());
    assert_eq!(w1.accesses, 5, "cold failed walk reads down to the leaf");
    pwc.refill(probe, w1.refill);
    // The page gets mapped (migration); the next walk resumes low.
    pt.insert(probe, Pte::new(probe, Location::Gpu(0)));
    let w2 = cached_walk(&mut pwc, &pt, None, probe);
    assert_eq!(w2.accesses, 1, "resume from the cached L2 entry");
    assert!(w2.pte.is_some());
}

#[test]
fn queue_pressure_is_visible_in_wait_stats() {
    let mut queue: PwQueue<u64> = PwQueue::new(64);
    let mut pool = WalkerPool::new(2);
    // 10 requests arrive at t=0; 2 walkers drain them 500 cycles apart.
    for i in 0..10u64 {
        queue.push(i, 0).unwrap();
    }
    let mut now = 0;
    while !queue.is_empty() {
        while pool.has_free() && !queue.is_empty() {
            queue.pop(now);
            assert!(pool.try_acquire());
        }
        now += 500;
        pool.release();
        pool.release();
    }
    // Later requests waited multiple walk rounds.
    assert!(
        queue.waiting().max() >= 1500,
        "max wait {}",
        queue.waiting().max()
    );
    assert!(queue.waiting().mean() > 500.0);
}

#[test]
fn unmap_invalidation_prevents_stale_resumes() {
    let mut pt = PageTable::new(5);
    let mut pwc = PwCache::new(128, 5);
    pt.insert(7, Pte::new(7, Location::Gpu(0)));
    let w = cached_walk(&mut pwc, &pt, None, 7);
    pwc.refill(7, w.refill);
    // Unmap: the leaf table dies; its L2-level entry must be invalidated.
    let (_, emptied) = pt.remove(7).unwrap();
    for k in emptied {
        if k <= 5 {
            pwc.invalidate(7, k);
        }
    }
    // A fresh walk must not resume below the surviving levels.
    let w = cached_walk(&mut pwc, &pt, None, 7);
    assert!(w.pte.is_none());
}
