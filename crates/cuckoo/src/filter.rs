//! The Cuckoo filter data structure.

#![warn(clippy::indexing_slicing)]

use sim_core::{SimRng, StateDigest, Stream};

use crate::hash::metro_mix;

pub(crate) const SEED_FP: u64 = 0x5EED_F00D;
pub(crate) const SEED_IDX: u64 = 0x1D_0BAD_5EED;
pub(crate) const SEED_ALT: u64 = 0xA17_5EED;
pub(crate) const MAX_KICKS: usize = 500;

/// Error returned when an insertion cannot find room even after relocation.
///
/// The displaced fingerprint is preserved in the filter's internal stash so
/// the structure never produces false negatives; the error is informational
/// (hardware would raise an overflow interrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertError {
    /// The key whose insertion triggered the overflow.
    pub key: u64,
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cuckoo filter overflow while inserting key {}", self.key)
    }
}

impl std::error::Error for InsertError {}

/// A deletable approximate-membership filter.
///
/// Parameterised exactly as Trans-FW's tables: `buckets × slots` fingerprint
/// cells of `fp_bits` bits each. Lookups have no false negatives; false
/// positives occur at rate ≈ `2 * slots / 2^fp_bits`.
///
/// # Cost
///
/// Paper-sized tables hold 500 (PRT) or 2000 (FT) fingerprints, so a large
/// footprint overflows most insertions into the stash. Each stash entry is
/// also filed under its bucket, so no operation scans the whole stash:
///
/// - `contains`: the key's two buckets, plus the stash entries filed under
///   those two buckets.
/// - `remove`: the same scans, then an O(1) `swap_remove` from the stash.
/// - `insert`: two free-count tests; when both buckets are full, up to 500
///   kick steps of one RNG draw, one swap and one free-count test each. A
///   cell carries its fingerprint's alternate-bucket hash, so a step finds
///   its next bucket in the value it swapped out, with no second load.
/// - `new`: one hash per possible fingerprint (`2^fp_bits`) to build the
///   alternate-bucket table.
///
/// These are host-side shortcuts only: every answer, cell, stash entry and
/// RNG draw is the one a plain linear-stash filter produces.
///
/// # Examples
///
/// ```
/// use cuckoo::CuckooFilter;
///
/// // The paper's PRT: 125 buckets x 4 slots, 13-bit fingerprints.
/// let mut prt = CuckooFilter::new(125, 4, 13);
/// for vpn in 0..300 {
///     prt.insert(vpn).unwrap();
/// }
/// assert!(prt.contains(123));
/// assert_eq!(prt.len(), 300);
/// ```
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    /// `bucket_count × slots` cells: 0 when empty, else
    /// `fp | alt_base[fp] << 16`. Only the low half is state; the high half
    /// is derived from it.
    cells: Vec<u32>,
    bucket_count: usize,
    slots: usize,
    fp_mask: u16,
    fp_bits: u32,
    len: usize,
    /// Empty cells per bucket (derived from `cells`).
    free_in: Vec<u32>,
    /// `metro_mix(fp, SEED_ALT) % bucket_count` for every fingerprint
    /// (derived from the geometry).
    alt_base: Vec<u16>,
    /// Overflowed `(bucket, fingerprint)` entries. The order is state: it
    /// is digested, and it decides which entry a `swap_remove` moves.
    stash: Vec<(u32, u16)>,
    /// Per bucket, the `(fingerprint, stash position)` of every stash entry
    /// filed under it (derived from `stash`).
    stash_index: Vec<Vec<(u16, u32)>>,
    overflows: u64,
    rng: SimRng,
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
        // Every value is below `bucket_count`, so it fits in u16; the
        // narrow entries keep a 16-bit table at 128 KiB.
        let alt_base = (0..=u64::from(fp_mask))
            .map(|fp| (metro_mix(fp, SEED_ALT) % bucket_count as u64) as u16)
            .collect();
        Self {
            cells: vec![0; bucket_count * slots],
            bucket_count,
            slots,
            fp_mask,
            fp_bits,
            len: 0,
            // A bucket of 2^32 slots would take 16 GiB of cells.
            free_in: vec![slots as u32; bucket_count],
            alt_base,
            stash: Vec::new(),
            stash_index: vec![Vec::new(); bucket_count],
            overflows: 0,
            rng: SimRng::stream(0, Stream::CuckooKick, 0),
        }
    }

    /// Number of stored fingerprints (including the stash).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter stores no fingerprints.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total fingerprint slots in the table (excluding the stash).
    pub fn capacity(&self) -> usize {
        self.bucket_count * self.slots
    }

    /// Fraction of table slots occupied.
    pub fn occupancy(&self) -> f64 {
        let table = self.len.saturating_sub(self.stash.len());
        table as f64 / self.capacity() as f64
    }

    /// Fingerprint width in bits.
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Total SRAM storage in bits (the §IV-E area model input).
    pub fn storage_bits(&self) -> u64 {
        self.capacity() as u64 * u64::from(self.fp_bits)
    }

    /// How many insertions overflowed into the stash so far.
    pub fn overflow_count(&self) -> u64 {
        self.overflows
    }

    /// Entries currently held in the overflow stash.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    #[inline]
    fn fingerprint(&self, key: u64) -> u16 {
        let fp = (metro_mix(key, SEED_FP) as u16) & self.fp_mask;
        // Zero marks an empty cell; remap to keep fingerprints nonzero.
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

    /// The cell value that stores `fp`: the fingerprint in the low half and
    /// `H(fp) mod n`, from the table built by [`CuckooFilter::new`], in the
    /// high half.
    #[inline]
    fn packed(&self, fp: u16) -> u32 {
        let h = self
            .alt_base
            .get(usize::from(fp))
            .map_or(0, |&h| u32::from(h));
        u32::from(fp) | h << 16
    }

    /// Alternate bucket of a stored cell: `(H(fp) - i) mod n`, an
    /// involution, so relocation works without knowing which of the two
    /// indices a cell currently uses. `H(fp) mod n` is the cell's high half.
    #[inline]
    fn alt_of(&self, index: usize, cell: u32) -> usize {
        let h = (cell >> 16) as usize;
        if h >= index {
            h - index
        } else {
            h + self.bucket_count - index
        }
    }

    fn bucket(&self, index: usize) -> &[u32] {
        let start = index * self.slots;
        self.cells.get(start..start + self.slots).unwrap_or(&[])
    }

    fn bucket_mut(&mut self, index: usize) -> &mut [u32] {
        let start = index * self.slots;
        self.cells
            .get_mut(start..start + self.slots)
            .unwrap_or(&mut [])
    }

    fn try_place(&mut self, index: usize, cell: u32) -> bool {
        if self.free_in.get(index).is_none_or(|&free| free == 0) {
            return false;
        }
        let Some(empty) = self.bucket_mut(index).iter_mut().find(|c| **c == 0) else {
            return false;
        };
        *empty = cell;
        if let Some(free) = self.free_in.get_mut(index) {
            *free -= 1;
        }
        true
    }

    /// The stash entries filed under bucket `index`.
    fn stashed(&self, index: usize) -> &[(u16, u32)] {
        self.stash_index.get(index).map_or(&[], Vec::as_slice)
    }

    fn stash_push(&mut self, index: usize, fp: u16) {
        // Positions are u32 like the buckets: 2^32 stashed fingerprints
        // would take 64 GiB of stash and index.
        let pos = self.stash.len() as u32;
        self.stash.push((index as u32, fp));
        if let Some(list) = self.stash_index.get_mut(index) {
            list.push((fp, pos));
        }
    }

    /// `swap_remove`s stash entry `pos` and keeps the index in step: `pos`
    /// leaves its bucket's list, and the last entry, which moves into
    /// `pos`, is repointed there.
    fn stash_remove(&mut self, pos: u32) {
        let Some(&(bucket, _)) = self.stash.get(pos as usize) else {
            return;
        };
        if let Some(list) = self.stash_index.get_mut(bucket as usize) {
            if let Some(k) = list.iter().position(|&(_, p)| p == pos) {
                list.swap_remove(k);
            }
        }
        self.stash.swap_remove(pos as usize);
        let Some(&(moved, _)) = self.stash.get(pos as usize) else {
            return; // `pos` was the last entry: nothing moved
        };
        let from = self.stash.len() as u32;
        if let Some(list) = self.stash_index.get_mut(moved as usize) {
            if let Some(slot) = list.iter_mut().find(|(_, p)| *p == from) {
                slot.1 = pos;
            }
        }
    }

    /// Inserts `key`.
    ///
    /// Duplicate insertions are allowed and stored separately (the filter is
    /// a multiset, matching the hardware tables where two pages can map to
    /// the same fingerprint).
    ///
    /// # Errors
    ///
    /// Returns [`InsertError`] when relocation fails; the displaced
    /// fingerprint is kept in an internal stash so lookups stay correct.
    pub fn insert(&mut self, key: u64) -> Result<(), InsertError> {
        let fp = self.fingerprint(key);
        let cell = self.packed(fp);
        let i1 = self.index1(key);
        let i2 = self.alt_of(i1, cell);
        self.len += 1;
        if self.try_place(i1, cell) || self.try_place(i2, cell) {
            return Ok(());
        }
        // Kick-out relocation. Every step draws and swaps even when the
        // table is full, so the cells and the RNG position stay exact.
        let mut index = if self.rng.chance(0.5) { i1 } else { i2 };
        let mut cell = cell;
        for _ in 0..MAX_KICKS {
            let victim_slot = self.rng.gen_index(self.slots);
            if let Some(victim) = self.cells.get_mut(index * self.slots + victim_slot) {
                std::mem::swap(&mut cell, victim);
            }
            index = self.alt_of(index, cell);
            if self.try_place(index, cell) {
                return Ok(());
            }
        }
        // Preserve the final victim in the stash: no false negatives.
        self.stash_push(index, cell as u16);
        self.overflows += 1;
        Err(InsertError { key })
    }

    /// Tests membership. No false negatives; false positives at the
    /// configured fingerprint rate.
    pub fn contains(&self, key: u64) -> bool {
        let fp = self.fingerprint(key);
        let cell = self.packed(fp);
        let i1 = self.index1(key);
        let i2 = self.alt_of(i1, cell);
        self.bucket(i1).contains(&cell)
            || self.bucket(i2).contains(&cell)
            || self
                .stashed(i1)
                .iter()
                .chain(self.stashed(i2))
                .any(|&(f, _)| f == fp)
    }

    /// Removes one copy of `key`'s fingerprint, if present.
    ///
    /// Returns `true` when a fingerprint was removed. When both candidate
    /// buckets hold a matching fingerprint a random one is chosen, exactly as
    /// the paper describes (§IV-B) — this is the source of FT stale-owner
    /// entries. A fingerprint held only in the stash leaves from its lowest
    /// matching stash position.
    pub fn remove(&mut self, key: u64) -> bool {
        let fp = self.fingerprint(key);
        let cell = self.packed(fp);
        let i1 = self.index1(key);
        let i2 = self.alt_of(i1, cell);
        let in1 = self.bucket(i1).contains(&cell);
        let in2 = i2 != i1 && self.bucket(i2).contains(&cell);
        let target = match (in1, in2) {
            (true, true) => {
                if self.rng.chance(0.5) {
                    i1
                } else {
                    i2
                }
            }
            (true, false) => i1,
            (false, true) => i2,
            (false, false) => {
                let lowest = self
                    .stashed(i1)
                    .iter()
                    .chain(self.stashed(i2))
                    .filter(|&&(f, _)| f == fp)
                    .map(|&(_, pos)| pos)
                    .min();
                let Some(pos) = lowest else {
                    return false;
                };
                self.stash_remove(pos);
                self.len -= 1;
                return true;
            }
        };
        let b = self.bucket_mut(target);
        if let Some(stored) = b.iter_mut().find(|c| **c == cell) {
            *stored = 0;
            if let Some(free) = self.free_in.get_mut(target) {
                *free += 1;
            }
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Empties the filter.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.free_in.fill(self.slots as u32);
        self.stash.clear();
        for list in &mut self.stash_index {
            list.clear();
        }
        self.len = 0;
    }

    /// Whether the derived fields (`free_in`, `alt_base`, the cells' high
    /// halves, `stash_index`) agree with the cells, geometry and stash they
    /// are derived from.
    fn derived_state_consistent(&self) -> bool {
        let free_ok = self.free_in.len() == self.bucket_count
            && self
                .cells
                .chunks(self.slots)
                .zip(&self.free_in)
                .all(|(b, &free)| b.iter().filter(|&&c| c == 0).count() == free as usize);
        let alt_ok = self.alt_base.len() == usize::from(self.fp_mask) + 1
            && self
                .cells
                .iter()
                .all(|&c| c == 0 || c == self.packed(c as u16));
        let filed: usize = self.stash_index.iter().map(Vec::len).sum();
        let index_ok = filed == self.stash.len()
            && self.stash_index.iter().enumerate().all(|(b, list)| {
                list.iter()
                    .all(|&(fp, pos)| self.stash.get(pos as usize) == Some(&(b as u32, fp)))
            });
        free_ok && alt_ok && index_ok
    }

    /// A 64-bit digest of the filter's full state — geometry, every cell,
    /// the stash, the overflow counter and the eviction RNG position — for
    /// epoch checkpoints. Two filters that answer queries identically from
    /// here on produce the same digest. The lookup shortcuts are functions
    /// of the state mixed here, so debug builds check them instead.
    pub fn state_digest(&self) -> u64 {
        let Self {
            cells,
            bucket_count,
            slots,
            fp_mask,
            fp_bits,
            len,
            // The lookup shortcuts: derived from `cells`, the geometry and
            // `stash`, and checked against them below.
            free_in: _,
            alt_base: _,
            stash_index: _,
            stash,
            overflows,
            rng,
        } = self;
        debug_assert!(self.derived_state_consistent());
        let mut d = StateDigest::new();
        d.mix(*bucket_count as u64)
            .mix(*slots as u64)
            .mix(u64::from(*fp_bits))
            .mix(u64::from(*fp_mask))
            .mix(*len as u64)
            .mix(*overflows)
            .mix(rng.state_digest())
            .mix_all(cells.iter().map(|&c| u64::from(c as u16)))
            .mix_all(
                stash
                    .iter()
                    .map(|&(b, fp)| (u64::from(b) << 16) | u64::from(fp)),
            );
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
            f.insert(k).unwrap();
        }
        for k in 0..100u64 {
            assert!(f.contains(k), "missing {k}");
        }
        assert_eq!(f.len(), 100);
    }

    #[test]
    fn remove_clears_membership() {
        let mut f = CuckooFilter::new(64, 4, 12);
        f.insert(7).unwrap();
        assert!(f.remove(7));
        assert!(!f.contains(7));
        assert!(!f.remove(7));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn duplicates_are_multiset() {
        let mut f = CuckooFilter::new(64, 4, 12);
        f.insert(9).unwrap();
        f.insert(9).unwrap();
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
            let _ = f.insert(k);
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
            f.insert(k).unwrap();
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
        let mut errs = 0;
        for &k in &keys {
            if f.insert(k).is_err() {
                errs += 1;
            }
        }
        assert!(errs > 0, "tiny filter must overflow");
        assert_eq!(f.overflow_count(), errs);
        for &k in &keys {
            assert!(f.contains(k), "stash must preserve {k}");
        }
        assert!(f.derived_state_consistent());
    }

    #[test]
    fn clear_resets() {
        let mut f = CuckooFilter::new(16, 2, 8);
        for k in 0..10 {
            let _ = f.insert(k);
        }
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.occupancy(), 0.0);
        for k in 0..10 {
            assert!(!f.contains(k));
        }
        assert!(f.derived_state_consistent());
    }

    #[test]
    fn alt_index_is_involution() {
        let f = CuckooFilter::new(125, 4, 13);
        for key in 0..500u64 {
            let cell = f.packed(f.fingerprint(key));
            let i1 = f.index1(key);
            let i2 = f.alt_of(i1, cell);
            assert_eq!(f.alt_of(i2, cell), i1);
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
                            f.alt_of(index, f.packed(fp)),
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
