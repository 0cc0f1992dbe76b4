//! MetroHash-style 64-bit mixing.
//!
//! The paper uses MetroHash for the PRT/FT hash functions h1/h2. For fixed
//! 64-bit keys (virtual page numbers, optionally concatenated with a GPU id)
//! the property that matters is avalanche quality, so we implement a mixer
//! with MetroHash's structure: multiply by large odd constants, xor-rotate,
//! repeat. The constants are MetroHash64's `k0..k3`.

const K0: u64 = 0xD6D0_18F5;
const K1: u64 = 0xA2AA_033B;
const K2: u64 = 0x6299_2FC1;
const K3: u64 = 0x30BC_5B29;

/// Mixes a 64-bit key with a seed into a well-distributed 64-bit hash.
///
/// # Examples
///
/// ```
/// let a = cuckoo::metro_mix(1, 0);
/// let b = cuckoo::metro_mix(2, 0);
/// assert_ne!(a, b);
/// ```
#[inline]
pub fn metro_mix(key: u64, seed: u64) -> u64 {
    let mut h = seed.wrapping_add(K2).wrapping_mul(K0);
    h = h.wrapping_add(key.wrapping_mul(K1));
    h ^= h.rotate_right(29);
    h = h.wrapping_mul(K2);
    h = h.wrapping_add(key.rotate_right(31).wrapping_mul(K3));
    h ^= h.rotate_right(29);
    h = h.wrapping_mul(K0);
    h ^= h >> 33;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic() {
        assert_eq!(metro_mix(123, 7), metro_mix(123, 7));
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(metro_mix(123, 0), metro_mix(123, 1));
    }

    #[test]
    fn no_collisions_on_small_dense_keys() {
        // Page numbers are dense small integers; the mixer must spread them.
        let hashes: BTreeSet<u64> = (0..100_000u64).map(|k| metro_mix(k, 0)).collect();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn avalanche_quality() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total_flips = 0u32;
        let trials = 64 * 32;
        for bit in 0..64 {
            for k in 0..32u64 {
                let key = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let a = metro_mix(key, 0);
                let b = metro_mix(key ^ (1 << bit), 0);
                total_flips += (a ^ b).count_ones();
            }
        }
        let avg = f64::from(total_flips) / f64::from(trials);
        assert!((24.0..40.0).contains(&avg), "avalanche avg {avg}");
    }

    #[test]
    fn low_bits_are_uniform() {
        // Bucket index uses the low bits mod a non-power-of-two (125, 1000).
        let mut buckets = [0u32; 125];
        for k in 0..125_000u64 {
            buckets[(metro_mix(k, 0) % 125) as usize] += 1;
        }
        let (min, max) = buckets
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        assert!(min > 800 && max < 1200, "bucket spread {min}..{max}");
    }
}
