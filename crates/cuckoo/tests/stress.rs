//! Stress and adversarial tests for the Cuckoo filter.

use cuckoo::{metro_mix, CuckooFilter};

#[test]
fn sustained_churn_at_high_occupancy() {
    // Fill to 90%, then cycle insert/remove for many rounds: membership
    // must stay exact for live keys.
    let mut f = CuckooFilter::new(250, 4, 13);
    let capacity = f.capacity();
    let live: Vec<u64> = (0..(capacity as u64 * 9 / 10)).collect();
    for &k in &live {
        f.insert(k);
    }
    for round in 0..50u64 {
        let churn_base = 1_000_000 + round * 1000;
        for i in 0..50 {
            f.insert(churn_base + i);
        }
        for i in 0..50 {
            assert!(f.contains(churn_base + i), "round {round} lost {i}");
            f.remove(churn_base + i);
        }
        for &k in live.iter().step_by(17) {
            assert!(f.contains(k), "round {round}: lost resident key {k}");
        }
    }
    assert_eq!(f.len(), live.len());
}

#[test]
fn clustered_keys_do_not_collapse() {
    // Page-number keys arrive in dense runs; the filter must not see them
    // as one fingerprint.
    let mut f = CuckooFilter::new(500, 4, 13);
    for k in 0..1500u64 {
        f.insert(k);
    }
    assert_eq!(f.len(), 1500);
    f.remove(100);
    // Only one key's membership can be affected by the removal.
    let missing = (0..1500u64).filter(|&k| !f.contains(k)).count();
    assert!(missing <= 1, "removal clobbered {missing} keys");
}

#[test]
fn hash_seeds_partition_the_space() {
    // The filter internally uses distinct seeds for fingerprint and index;
    // check the public mixer gives independent streams.
    let same = (0..10_000u64)
        .filter(|&k| metro_mix(k, 1) % 1000 == metro_mix(k, 2) % 1000)
        .count();
    assert!(same < 40, "seeded hashes too correlated: {same}");
}

#[test]
fn fp_width_controls_false_positives() {
    // Wider fingerprints must strictly reduce the false-positive rate.
    let rate = |bits: u32| {
        let mut f = CuckooFilter::new(500, 4, bits);
        for k in 0..1000u64 {
            f.insert(k);
        }
        (0..100_000u64)
            .filter(|&p| f.contains(1_000_000 + p))
            .count() as f64
            / 100_000.0
    };
    let narrow = rate(8);
    let wide = rate(14);
    assert!(
        wide < narrow / 4.0,
        "14-bit fp rate {wide} should be far below 8-bit {narrow}"
    );
}
