//! The Cuckoo filter data structure.

#![warn(clippy::indexing_slicing)]

use sim_core::StateDigest;

use crate::hash::metro_mix;

pub(crate) const SEED_FP: u64 = 0x5EED_F00D;
pub(crate) const SEED_IDX: u64 = 0x1D_0BAD_5EED;
pub(crate) const SEED_ALT: u64 = 0xA17_5EED;

/// A deletable approximate-membership filter.
///
/// Parameterised exactly as Trans-FW's tables: `buckets × slots` fingerprint
/// cells of `fp_bits` bits each. Lookups have no false negatives; false
/// positives occur at rate ≈ `2 * slots / 2^fp_bits`.
///
/// # Model
///
/// A key stores its fingerprint `fp` in one of two buckets, `i1 = H(key)`
/// and `i2 = (H(fp) - i1) mod n`. That map is an involution, so `fp` and
/// either bucket fix the pair, and `contains`, `remove` and `len` answer
/// from the multiset of `(fp, pair)` entries alone: which bucket, cell or
/// overflow slot a kick chain left an entry in is never observable. The
/// filter therefore keeps just that multiset, as a count per `(fp, lower
/// bucket of the pair)`. Like an unbounded overflow stash, it never refuses
/// an insert; [`overflow_count`](Self::overflow_count) says how many
/// fingerprints a table of [`capacity`](Self::capacity) cells could not
/// hold.
///
/// # Examples
///
/// ```
/// use cuckoo::CuckooFilter;
///
/// // The paper's PRT: 125 buckets x 4 slots, 13-bit fingerprints.
/// let mut prt = CuckooFilter::new(125, 4, 13);
/// for vpn in 0..300 {
///     prt.insert(vpn);
/// }
/// assert!(prt.contains(123));
/// assert_eq!(prt.len(), 300);
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    /// Per bucket, the `(fingerprint, copies)` of every entry whose pair's
    /// lower bucket it is, sorted by fingerprint.
    entries: Vec<Vec<(u16, u32)>>,
    bucket_count: usize,
    slots: usize,
    fp_mask: u16,
    fp_bits: u32,
    len: usize,
}

impl CuckooFilter {
    /// Creates a filter with `bucket_count` buckets of `slots` fingerprints,
    /// each `fp_bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is zero or above 65536, `slots` is zero, or
    /// `fp_bits` is not in `1..=16`.
    pub fn new(bucket_count: usize, slots: usize, fp_bits: u32) -> Self {
        assert!(
            (1..=1 << 16).contains(&bucket_count),
            "bucket_count must be in 1..=65536"
        );
        assert!(slots > 0, "slots must be positive");
        assert!((1..=16).contains(&fp_bits), "fp_bits must be in 1..=16");
        let fp_mask = if fp_bits == 16 {
            u16::MAX
        } else {
            (1u16 << fp_bits) - 1
        };
        Self {
            entries: vec![Vec::new(); bucket_count],
            bucket_count,
            slots,
            fp_mask,
            fp_bits,
            len: 0,
        }
    }

    /// Number of stored fingerprints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter stores no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fingerprint cells of the modelled table.
    pub fn capacity(&self) -> usize {
        self.bucket_count * self.slots
    }

    /// Fingerprint width in bits.
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Total SRAM storage in bits (the §IV-E area model input).
    pub fn storage_bits(&self) -> u64 {
        self.capacity() as u64 * u64::from(self.fp_bits)
    }

    /// Stored fingerprints beyond [`capacity`](Self::capacity): how many a
    /// table of this geometry could not hold.
    pub fn overflow_count(&self) -> u64 {
        self.len.saturating_sub(self.capacity()) as u64
    }

    #[inline]
    fn fingerprint(&self, key: u64) -> u16 {
        let fp = (metro_mix(key, SEED_FP) as u16) & self.fp_mask;
        // A cuckoo filter reserves zero for an empty cell.
        if fp == 0 {
            1
        } else {
            fp
        }
    }

    #[inline]
    fn index1(&self, key: u64) -> usize {
        (metro_mix(key, SEED_IDX) % self.bucket_count as u64) as usize
    }

    /// The other bucket of `fp`'s pair through `index`: `(H(fp) - index)
    /// mod n`, an involution.
    #[inline]
    fn alt(&self, index: usize, fp: u16) -> usize {
        let h = (metro_mix(u64::from(fp), SEED_ALT) % self.bucket_count as u64) as usize;
        if h >= index {
            h - index
        } else {
            h + self.bucket_count - index
        }
    }

    /// `key`'s entry: the lower bucket of its pair, its fingerprint, and
    /// the fingerprint's position among the bucket's entries (`Err`: where
    /// it would go).
    fn find(&self, key: u64) -> (usize, u16, Result<usize, usize>) {
        let fp = self.fingerprint(key);
        let i1 = self.index1(key);
        let bucket = i1.min(self.alt(i1, fp));
        let list = self.entries.get(bucket).map_or(&[][..], Vec::as_slice);
        (bucket, fp, list.binary_search_by_key(&fp, |&(f, _)| f))
    }

    /// Inserts `key`.
    ///
    /// Each insertion adds a copy, duplicates included (the filter is a
    /// multiset, matching the hardware tables where two pages can map to
    /// the same fingerprint).
    pub fn insert(&mut self, key: u64) {
        let (bucket, fp, at) = self.find(key);
        let Some(list) = self.entries.get_mut(bucket) else {
            return;
        };
        match at {
            Ok(i) => {
                if let Some((_, copies)) = list.get_mut(i) {
                    *copies += 1;
                }
            }
            Err(i) => list.insert(i, (fp, 1)),
        }
        self.len += 1;
    }

    /// Tests membership. No false negatives; false positives at the
    /// configured fingerprint rate.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).2.is_ok()
    }

    /// Removes one copy of `key`'s fingerprint, if present.
    ///
    /// Returns `true` when a fingerprint was removed. Every key with the
    /// same fingerprint and bucket pair shares the copies, so removing one
    /// such key can take the copy another inserted (§IV-B) — the source of
    /// FT stale-owner entries.
    pub fn remove(&mut self, key: u64) -> bool {
        let (bucket, _, Ok(i)) = self.find(key) else {
            return false;
        };
        let Some(list) = self.entries.get_mut(bucket) else {
            return false;
        };
        match list.get_mut(i) {
            Some((_, copies)) if *copies > 1 => *copies -= 1,
            _ => {
                list.remove(i);
            }
        }
        self.len -= 1;
        true
    }

    /// Empties the filter.
    pub fn clear(&mut self) {
        for list in &mut self.entries {
            list.clear();
        }
        self.len = 0;
    }

    /// A 64-bit digest of the filter's full state — geometry, length and
    /// every `(bucket, fingerprint, copies)` entry in bucket then
    /// fingerprint order — for epoch checkpoints. Two filters with the same
    /// contents digest equal, and answer every query alike.
    pub fn state_digest(&self) -> u64 {
        let Self {
            entries,
            bucket_count,
            slots,
            fp_mask,
            fp_bits,
            len,
        } = self;
        let mut d = StateDigest::new();
        d.mix(*bucket_count as u64)
            .mix(*slots as u64)
            .mix(u64::from(*fp_bits))
            .mix(u64::from(*fp_mask))
            .mix(*len as u64)
            .mix_all(entries.iter().enumerate().flat_map(|(b, list)| {
                list.iter().map(move |&(fp, copies)| {
                    (b as u64) << 48 | u64::from(fp) << 32 | u64::from(copies)
                })
            }));
        d.finish()
    }
}

/// Minimum fingerprint bits for a target false-positive rate `epsilon` with
/// `slots` entries per bucket: `ceil(log2(1/eps) + log2(2 * slots))` (§IV-E).
///
/// ```
/// // The paper: eps = 0.2%, 2-slot buckets => ~9 + 2 = 11 bits.
/// assert_eq!(cuckoo::filter::min_fingerprint_bits(0.002, 2), 11);
/// // eps = 0.1%, 4-slot buckets => 10 + 3 = 13 bits.
/// assert_eq!(cuckoo::filter::min_fingerprint_bits(0.001, 4), 13);
/// ```
pub fn min_fingerprint_bits(epsilon: f64, slots: usize) -> u32 {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
    ((1.0 / epsilon).log2() + (2.0 * slots as f64).log2()).ceil() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut f = CuckooFilter::new(64, 4, 12);
        for k in 0..100u64 {
            f.insert(k);
        }
        for k in 0..100u64 {
            assert!(f.contains(k), "missing {k}");
        }
        assert_eq!(f.len(), 100);
    }

    #[test]
    fn remove_clears_membership() {
        let mut f = CuckooFilter::new(64, 4, 12);
        f.insert(7);
        assert!(f.remove(7));
        assert!(!f.contains(7));
        assert!(!f.remove(7));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn duplicates_are_multiset() {
        let mut f = CuckooFilter::new(64, 4, 12);
        f.insert(9);
        f.insert(9);
        assert!(f.remove(9));
        assert!(f.contains(9), "one copy must remain");
        assert!(f.remove(9));
        assert!(!f.contains(9));
    }

    #[test]
    fn no_false_negatives_under_load() {
        // 125 x 4 = 500 slots, fill to 95%: every inserted key must be found.
        let mut f = CuckooFilter::new(125, 4, 13);
        let keys: Vec<u64> = (0..475).map(|i| i * 37 + 5).collect();
        for &k in &keys {
            f.insert(k);
        }
        for &k in &keys {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        // 13-bit fingerprints, 4-slot buckets: eps ~ 2*4/2^13 ~ 0.1%.
        let mut f = CuckooFilter::new(1000, 4, 13);
        for k in 0..3000u64 {
            f.insert(k);
        }
        let probes = 200_000u64;
        let fps = (0..probes).filter(|p| f.contains(1_000_000 + p)).count() as f64;
        let rate = fps / probes as f64;
        assert!(rate < 0.004, "false positive rate {rate}");
    }

    #[test]
    fn overflow_goes_to_stash_and_stays_visible() {
        let mut f = CuckooFilter::new(4, 2, 8); // tiny: 8 slots
        let keys: Vec<u64> = (0..16).collect();
        for &k in &keys {
            f.insert(k);
        }
        assert!(f.overflow_count() > 0, "tiny filter must overflow");
        assert_eq!(f.overflow_count(), (f.len() - f.capacity()) as u64);
        for &k in &keys {
            assert!(f.contains(k), "overflow must preserve {k}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut f = CuckooFilter::new(16, 2, 8);
        for k in 0..10 {
            f.insert(k);
        }
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        for k in 0..10 {
            assert!(!f.contains(k));
        }
        assert_eq!(f.state_digest(), CuckooFilter::new(16, 2, 8).state_digest());
    }

    #[test]
    fn alt_index_is_involution() {
        let f = CuckooFilter::new(125, 4, 13);
        for key in 0..500u64 {
            let fp = f.fingerprint(key);
            let i1 = f.index1(key);
            let i2 = f.alt(i1, fp);
            assert_eq!(f.alt(i2, fp), i1);
        }
    }

    #[test]
    fn alt_table_matches_hashed_formula() {
        for fp_bits in [11, 13, 16] {
            for buckets in [125usize, 250, 1000] {
                let f = CuckooFilter::new(buckets, 2, fp_bits);
                let n = buckets as u64;
                for fp in 1..=f.fp_mask {
                    let h = metro_mix(u64::from(fp), SEED_ALT) % n;
                    for index in [0, 1, buckets / 2, buckets - 1] {
                        let want = ((h + n - index as u64) % n) as usize;
                        assert_eq!(
                            f.alt(index, fp),
                            want,
                            "fp_bits {fp_bits}, {buckets} buckets, fp {fp}, index {index}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprints_never_zero() {
        let f = CuckooFilter::new(8, 2, 4); // narrow fp: zeros likely pre-remap
        for key in 0..10_000u64 {
            assert_ne!(f.fingerprint(key), 0);
        }
    }

    #[test]
    fn storage_bits_match_paper() {
        // FT: 1000 buckets x 2 slots x 11 bits = 2.68 KB.
        let ft = CuckooFilter::new(1000, 2, 11);
        assert_eq!(ft.storage_bits(), 22_000);
        let kb = ft.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 2.68).abs() < 0.01, "FT size {kb} KB");
        // PRT: 125 buckets x 4 slots x 13 bits = 0.79 KB.
        let prt = CuckooFilter::new(125, 4, 13);
        assert_eq!(prt.storage_bits(), 6_500);
        let kb = prt.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 0.79).abs() < 0.01, "PRT size {kb} KB");
    }

    #[test]
    fn paper_fingerprint_sizing() {
        assert_eq!(min_fingerprint_bits(0.002, 2), 11);
        assert_eq!(min_fingerprint_bits(0.001, 4), 13);
    }

    #[test]
    #[should_panic(expected = "fp_bits")]
    fn rejects_zero_fp_bits() {
        CuckooFilter::new(8, 2, 0);
    }

    #[test]
    #[should_panic(expected = "bucket_count")]
    fn rejects_zero_buckets() {
        CuckooFilter::new(0, 2, 8);
    }
}
