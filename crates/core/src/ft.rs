//! The Forwarding Table: the host-MMU-side owner index (§IV-C).

use cuckoo::CuckooFilter;
use ptw::GpuId;

use crate::TransFwConfig;

/// Host-MMU Cuckoo filter mapping pages to candidate owner GPUs.
///
/// The key is the concatenation of the (masked) virtual page number and a
/// GPU id; looking up a page probes every GPU id in parallel (the paper's
/// four-comparator design) and returns the candidates. Because deletions on
/// fingerprint collisions may remove the wrong copy (§IV-C), the table can
/// name several owners — the host forwards to any one of them and treats a
/// failed remote lookup as a discarded false positive.
///
/// # Examples
///
/// ```
/// use transfw::{Ft, TransFwConfig};
///
/// let mut ft = Ft::new(&TransFwConfig::default(), 4);
/// ft.page_migrated(0x77, None, 2);
/// assert_eq!(ft.lookup(0x77), vec![2]);
/// ft.page_migrated(0x77, Some(2), 0);
/// assert_eq!(ft.lookup(0x77), vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct Ft {
    filter: CuckooFilter,
    mask_bits: u32,
    gpu_count: GpuId,
    lookups: u64,
    hits: u64,
}

impl Ft {
    /// Builds an FT for a system with `gpu_count` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero.
    pub fn new(config: &TransFwConfig, gpu_count: GpuId) -> Self {
        assert!(gpu_count > 0, "gpu_count must be positive");
        let buckets = config.ft_fingerprints.div_ceil(config.ft_slots);
        Self {
            filter: CuckooFilter::new(buckets, config.ft_slots, config.ft_fp_bits),
            mask_bits: config.vpn_mask_bits,
            gpu_count,
            lookups: 0,
            hits: 0,
        }
    }

    #[inline]
    fn key(&self, vpn: u64, gpu: GpuId) -> u64 {
        // Concatenate the masked VPN with the owner GPU id.
        ((vpn >> self.mask_bits) << 8) | u64::from(gpu)
    }

    /// Updates ownership when a page migrates: the old fingerprint (if any)
    /// is deleted and the new owner's fingerprint inserted.
    pub fn page_migrated(&mut self, vpn: u64, old_owner: Option<GpuId>, new_owner: GpuId) {
        if let Some(old) = old_owner {
            self.filter.remove(self.key(vpn, old));
        }
        self.filter.insert(self.key(vpn, new_owner));
    }

    /// Registers an additional owner (read replication, §V-D).
    pub fn owner_added(&mut self, vpn: u64, gpu: GpuId) {
        self.filter.insert(self.key(vpn, gpu));
    }

    /// Removes one owner (replica invalidation or page unmap).
    pub fn owner_removed(&mut self, vpn: u64, gpu: GpuId) {
        self.filter.remove(self.key(vpn, gpu));
    }

    /// Probes every GPU id for `vpn` and returns the candidate owners
    /// (possibly several after collision-induced stale entries, possibly a
    /// false positive; never misses a real owner).
    pub fn lookup(&mut self, vpn: u64) -> Vec<GpuId> {
        self.lookups = self.lookups.saturating_add(1);
        let owners: Vec<GpuId> = (0..self.gpu_count)
            .filter(|&g| self.filter.contains(self.key(vpn, g)))
            .collect();
        if !owners.is_empty() {
            self.hits = self.hits.saturating_add(1);
        }
        owners
    }

    /// Number of GPUs the table indexes.
    pub fn gpu_count(&self) -> GpuId {
        self.gpu_count
    }

    /// Lookups performed.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Lookups that returned at least one candidate.
    pub fn hit_count(&self) -> u64 {
        self.hits
    }

    /// Fingerprints currently stored.
    pub fn len(&self) -> usize {
        self.filter.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.filter.is_empty()
    }

    /// SRAM bits of the table (for the §IV-E area comparison).
    pub fn storage_bits(&self) -> u64 {
        self.filter.storage_bits()
    }

    /// Stored fingerprints beyond the table's cells: `len − capacity`, the
    /// number the paper-sized table could not hold. The model keeps them
    /// all, so lookups never miss a real owner.
    pub fn overflow_count(&self) -> u64 {
        self.filter.overflow_count()
    }

    /// Rewrites the owner set of one page in a single transactional step:
    /// stale owner keys are removed first, then the new owners inserted, so
    /// a concurrent-looking lookup sequence can never observe the union of
    /// old and new fingerprints growing without bound. This is the FT half
    /// of an `OwnershipTransaction` (migration: `remove` = old owner ∪
    /// invalidated mappings, `add` = new owner; collapse: `remove` = every
    /// stale replica key).
    pub fn rewrite_owners(&mut self, vpn: u64, remove: &[GpuId], add: &[GpuId]) {
        for &g in remove {
            self.owner_removed(vpn, g);
        }
        for &g in add {
            self.owner_added(vpn, g);
        }
    }

    /// Probes (without counting the probe in the lookup statistics) whether
    /// `gpu` is currently named as a candidate owner of `vpn` — used by the
    /// recovery protocol to invalidate only the entries actually keyed to a
    /// failed GPU.
    pub fn names_owner(&self, vpn: u64, gpu: GpuId) -> bool {
        self.filter.contains(self.key(vpn, gpu))
    }

    /// A 64-bit digest of the table's contents, counters and geometry, for
    /// epoch checkpoints.
    pub fn state_digest(&self) -> u64 {
        let Self {
            filter,
            mask_bits,
            gpu_count,
            lookups,
            hits,
        } = self;
        let mut sm = filter.state_digest()
            ^ (lookups << 24)
            ^ (hits << 48)
            ^ (u64::from(*mask_bits) << 8)
            ^ u64::from(*gpu_count);
        sim_core::rng::splitmix64(&mut sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ft() -> Ft {
        Ft::new(&TransFwConfig::default(), 4)
    }

    #[test]
    fn migration_tracks_owner() {
        let mut f = ft();
        f.page_migrated(0x10, None, 3);
        assert_eq!(f.lookup(0x10), vec![3]);
        f.page_migrated(0x10, Some(3), 1);
        assert_eq!(f.lookup(0x10), vec![1]);
    }

    #[test]
    fn unknown_page_has_no_owner() {
        let mut f = ft();
        assert!(f.lookup(0xDEAD_BEEF).is_empty());
        assert_eq!(f.lookup_count(), 1);
        assert_eq!(f.hit_count(), 0);
    }

    #[test]
    fn replication_lists_multiple_owners() {
        let mut f = ft();
        f.page_migrated(0x20, None, 0);
        f.owner_added(0x20, 2);
        let mut owners = f.lookup(0x20);
        owners.sort_unstable();
        assert_eq!(owners, vec![0, 2]);
        f.owner_removed(0x20, 0);
        assert_eq!(f.lookup(0x20), vec![2]);
    }

    #[test]
    fn mask_groups_eight_pages() {
        let mut f = ft();
        f.page_migrated(0x100, None, 1);
        assert_eq!(f.lookup(0x101), vec![1], "same 8-page group");
        assert!(f.lookup(0x108).is_empty(), "next group");
    }

    #[test]
    fn never_misses_true_owner_under_churn() {
        let mut f = ft();
        // 1500 groups migrating round-robin across owners.
        let owners: Vec<GpuId> = (0..1500u64).map(|i| (i % 4) as GpuId).collect();
        for (i, &o) in owners.iter().enumerate() {
            f.page_migrated((i as u64) * 8, None, o);
        }
        for (i, &o) in owners.iter().enumerate() {
            let cands = f.lookup((i as u64) * 8);
            assert!(cands.contains(&o), "group {i} lost owner {o}");
        }
    }

    #[test]
    fn storage_matches_paper_kb() {
        let f = ft();
        let kb = f.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 2.68).abs() < 0.01, "FT is {kb} KB, paper says 2.68");
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut f = ft();
        for i in 0..1600u64 {
            f.page_migrated(i * 8, None, (i % 4) as GpuId);
        }
        let probes = 50_000u64;
        let mut fps = 0u64;
        for p in 0..probes {
            if !f.lookup((1_000_000 + p) * 8).is_empty() {
                fps += 1;
            }
        }
        // Probing 4 GPU ids quadruples the per-key rate; still well under 2%.
        let rate = fps as f64 / probes as f64;
        assert!(rate < 0.02, "FT false positive rate {rate}");
    }

    #[test]
    #[should_panic(expected = "gpu_count")]
    fn zero_gpus_panics() {
        let _ = Ft::new(&TransFwConfig::default(), 0);
    }

    #[test]
    fn rewrite_owners_applies_migration_in_one_step() {
        let mut f = ft();
        f.page_migrated(0x40, None, 0);
        f.owner_added(0x40, 1);
        f.owner_added(0x40, 3);
        // Collapse to GPU 2: all three stale keys go, the writer's appears.
        f.rewrite_owners(0x40, &[0, 1, 3], &[2]);
        assert_eq!(f.lookup(0x40), vec![2]);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn rewrite_owners_with_empty_sides_is_noop() {
        let mut f = ft();
        f.page_migrated(0x50, None, 1);
        let len = f.len();
        f.rewrite_owners(0x50, &[], &[]);
        assert_eq!(f.len(), len);
        assert!(f.names_owner(0x50, 1));
    }

    #[test]
    fn names_owner_probes_without_counting() {
        let mut f = ft();
        f.page_migrated(0x30, None, 2);
        assert!(f.names_owner(0x30, 2));
        assert!(!f.names_owner(0x30, 1));
        assert_eq!(f.lookup_count(), 0, "probe does not count as a lookup");
        f.owner_removed(0x30, 2);
        assert!(!f.names_owner(0x30, 2), "invalidation clears the entry");
    }
}
