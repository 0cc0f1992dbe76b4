//! Integration tests of the full walk path: queue -> walker -> PW-cache ->
//! page table, as the GMMU drives it.

use ptw::{Location, PageTable, Pte, PwCache, PwQueue, Stc, Utc, WalkerPool};

/// Drives a batch of translation requests through the PW machinery the way
/// the simulator does, returning total serialized memory accesses.
fn drive(pwc: &mut dyn PwCache, pt: &PageTable, vpns: &[u64]) -> u64 {
    let mut queue: PwQueue<u64> = PwQueue::new(64);
    let mut pool = WalkerPool::new(8);
    let mut total = 0u64;
    for (t, &vpn) in vpns.iter().enumerate() {
        queue.push(vpn, t as u64).unwrap();
    }
    let mut now = 0;
    while let Some((vpn, _)) = queue.pop(now) {
        assert!(pool.try_acquire());
        let resume = pwc.lookup(vpn);
        let walk = pt.walk(vpn, resume);
        total += u64::from(walk.accesses);
        let start = resume.map_or(pt.levels(), |k| k - 1);
        for k in walk.reached_level.max(2)..=start {
            pwc.insert(vpn, k);
        }
        pool.release();
        now += 100;
    }
    total
}

#[test]
fn utc_cuts_accesses_on_locality() {
    let mut pt = PageTable::new(5);
    for vpn in 0..64 {
        pt.insert(vpn, Pte::new(vpn, Location::Gpu(0)));
    }
    let mut pwc = Utc::new(128, 5);
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
    let mut utc = Utc::new(128, 5);
    let mut stc = Stc::paper_default(5);
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
    let mut pwc = Utc::new(128, 5);
    // Walk an unmapped neighbour: upper levels exist (thanks to vpn 0), the
    // leaf does not; the walk fails but caches what it read.
    let probe = 1; // same leaf table as vpn 0
    let w1 = pt.walk(probe, pwc.lookup(probe));
    assert!(w1.pte.is_none());
    assert_eq!(w1.accesses, 5, "cold failed walk reads down to the leaf");
    let start = 5;
    for k in w1.reached_level.max(2)..=start {
        pwc.insert(probe, k);
    }
    // The page gets mapped (migration); the next walk resumes low.
    pt.insert(probe, Pte::new(probe, Location::Gpu(0)));
    let resume = pwc.lookup(probe);
    let w2 = pt.walk(probe, resume);
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
    let mut pwc = Utc::new(128, 5);
    pt.insert(7, Pte::new(7, Location::Gpu(0)));
    let w = pt.walk(7, None);
    for k in w.reached_level.max(2)..=5 {
        pwc.insert(7, k);
    }
    // Unmap: the leaf table dies; its L2-level entry must be invalidated.
    let (_, emptied) = pt.remove(7).unwrap();
    for k in emptied {
        if k <= 5 {
            pwc.invalidate(7, k);
        }
    }
    // A fresh walk must not resume below the surviving levels.
    let resume = pwc.lookup(7);
    let w = pt.walk(7, resume);
    assert!(w.pte.is_none());
}
