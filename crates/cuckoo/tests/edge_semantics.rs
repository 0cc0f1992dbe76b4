//! Edge-case semantics the Trans-FW tables lean on: deletion with colliding
//! fingerprints (the §IV-C stale-entry source) and overflow past the
//! table's cells (the no-false-negative guarantee under pressure).

use cuckoo::CuckooFilter;

/// Finds a key that collides with `base` in `f`: same fingerprint and an
/// overlapping candidate-bucket pair, detected behaviourally (the probe
/// reads as present even though only `base` was inserted).
fn find_collider(f: &CuckooFilter, base: u64, from: u64, to: u64) -> Option<u64> {
    (from..to).find(|&k| k != base && f.contains(k))
}

#[test]
fn deleting_one_of_two_colliding_keys_never_false_negatives() {
    // Narrow fingerprints make collisions easy to find deterministically
    // (the hash functions are fixed-seed).
    let mut f = CuckooFilter::new(16, 2, 6);
    let base = 42u64;
    f.insert(base);
    let collider = find_collider(&f, base, 0, 100_000)
        .expect("6-bit fingerprints over 100k probes must collide");

    // Store both keys: two copies of the same fingerprint (multiset).
    f.insert(collider);
    assert_eq!(f.len(), 2);

    // Removing one key may take either copy — the paper's §IV-C ambiguity.
    // Whichever copy goes, the *other key must still read as present*:
    // the survivor's fingerprint vouches for both (a stale entry at worst,
    // never a false negative).
    assert!(f.remove(base));
    assert!(f.contains(collider), "collider lost to ambiguous delete");
    assert!(
        f.contains(base),
        "base still aliases the collider's copy (stale, not absent)"
    );

    // Removing the second copy clears both.
    assert!(f.remove(collider));
    assert!(!f.contains(base));
    assert!(!f.contains(collider));
    assert_eq!(f.len(), 0);
}

#[test]
fn colliding_deletes_are_count_stable() {
    // A delete of a colliding key must remove exactly one copy per call, so
    // repeated migrate-away events cannot underflow the multiset.
    let mut f = CuckooFilter::new(16, 2, 6);
    let base = 7u64;
    f.insert(base);
    let collider = find_collider(&f, base, 0, 100_000).expect("collision");
    f.insert(collider);
    f.insert(base); // three copies total
    assert_eq!(f.len(), 3);
    assert!(f.remove(base));
    assert!(f.remove(collider));
    assert_eq!(f.len(), 1);
    assert!(f.contains(base) && f.contains(collider), "one copy vouches");
    assert!(f.remove(base));
    assert_eq!(f.len(), 0);
    assert!(!f.remove(base), "empty filter has nothing left to remove");
}

#[test]
fn stash_overflow_preserves_membership_and_supports_deletion() {
    // 4 buckets x 2 slots = 8 cells; 24 keys guarantee overflow.
    let mut f = CuckooFilter::new(4, 2, 8);
    let keys: Vec<u64> = (0..24).map(|i| i * 131 + 17).collect();
    for &k in &keys {
        f.insert(k);
    }
    assert!(f.overflow_count() > 0, "must overflow the table");
    assert_eq!(f.overflow_count(), (f.len() - f.capacity()) as u64);

    // No false negatives while full...
    for &k in &keys {
        assert!(f.contains(k), "key {k} lost under overflow");
    }

    // ...and none while draining: after each delete, every remaining key is
    // still visible, however far the table has overflowed.
    for (i, &k) in keys.iter().enumerate() {
        assert!(f.remove(k), "key {k} not removable");
        for &later in &keys[i + 1..] {
            assert!(f.contains(later), "key {later} lost after removing {k}");
        }
    }
    assert_eq!(f.len(), 0);
    assert_eq!(f.overflow_count(), 0, "overflow must drain with the table");
}

#[test]
fn reinsertion_after_overflow_churn_stays_exact() {
    // Fill past capacity, drain, refill: overflow bookkeeping must not wedge
    // the filter or leak phantom fingerprints across rounds.
    let mut f = CuckooFilter::new(4, 2, 8);
    for round in 0..3u64 {
        let keys: Vec<u64> = (0..20).map(|i| i * 977 + round * 7 + 1).collect();
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k), "round {round}: key {k} missing");
        }
        for &k in &keys {
            assert!(f.remove(k), "round {round}: key {k} stuck");
        }
        assert!(f.is_empty(), "round {round}: residue left behind");
    }
}
