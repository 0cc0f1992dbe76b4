//! The Pending Request Table: the GMMU-side short-circuit filter (§IV-B).

use cuckoo::CuckooFilter;

use crate::TransFwConfig;

/// Per-GPU Cuckoo filter over the virtual page numbers resident in local
/// device memory.
///
/// On an L2 TLB miss the GMMU consults the PRT first:
///
/// * **miss** — the page is *definitely* not mapped locally (Cuckoo filters
///   have no false negatives), so the request skips the GMMU PW-queue and
///   PT-walk and goes straight to the host MMU;
/// * **hit** — the translation is *probably* local; walk the local table as
///   usual. A false positive (rate ε ≈ 0.1%) just falls back to the
///   baseline fault path after a wasted walk.
///
/// The table is updated off the critical path when pages migrate in or out.
///
/// # Examples
///
/// ```
/// use transfw::{Prt, TransFwConfig};
///
/// let mut prt = Prt::new(&TransFwConfig::default());
/// prt.page_arrived(100);
/// assert!(prt.may_be_local(100));
/// prt.page_departed(100);
/// assert!(!prt.may_be_local(100));
/// ```
#[derive(Debug, Clone)]
pub struct Prt {
    filter: CuckooFilter,
    mask_bits: u32,
    lookups: u64,
    hits: u64,
}

impl Prt {
    /// Builds a PRT from the Trans-FW configuration. The bucket count is
    /// rounded up when the fingerprint budget does not divide evenly.
    pub fn new(config: &TransFwConfig) -> Self {
        let buckets = config.prt_fingerprints.div_ceil(config.prt_slots);
        Self {
            filter: CuckooFilter::new(buckets, config.prt_slots, config.prt_fp_bits),
            mask_bits: config.vpn_mask_bits,
            lookups: 0,
            hits: 0,
        }
    }

    #[inline]
    fn key(&self, vpn: u64) -> u64 {
        vpn >> self.mask_bits
    }

    /// Records that a page migrated into local memory (or a local PTE was
    /// created). Called off the execution critical path.
    pub fn page_arrived(&mut self, vpn: u64) {
        self.filter.insert(self.key(vpn));
    }

    /// Records that a page migrated away (local PTE destroyed).
    pub fn page_departed(&mut self, vpn: u64) {
        self.filter.remove(self.key(vpn));
    }

    /// Tests whether the translation *may* be present in the local page
    /// table. `false` is definitive (short-circuit to the host MMU).
    pub fn may_be_local(&mut self, vpn: u64) -> bool {
        self.lookups = self.lookups.saturating_add(1);
        let hit = self.filter.contains(self.key(vpn));
        if hit {
            self.hits = self.hits.saturating_add(1);
        }
        hit
    }

    /// Lookups performed.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Lookups that answered "maybe local".
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
    /// all, so membership has no false negatives; a real design would
    /// resize or spill.
    pub fn overflow_count(&self) -> u64 {
        self.filter.overflow_count()
    }

    /// Applies one ownership transaction's worth of membership changes
    /// atomically with respect to the simulation (no lookup can observe a
    /// half-applied migration): departures first — so a VPN moving between
    /// 8-page groups never transiently doubles its fingerprint — then
    /// arrivals. Used by the migration engine and the recovery protocol's
    /// PRT rebuild.
    pub fn apply(&mut self, departed: &[u64], arrived: &[u64]) {
        for &vpn in departed {
            self.page_departed(vpn);
        }
        for &vpn in arrived {
            self.page_arrived(vpn);
        }
    }

    /// Drops every fingerprint while preserving the lookup/hit counters —
    /// the bulk flush a GPU performs when it is taken offline and its local
    /// memory is evicted wholesale. The table is rebuilt from the page
    /// directory on rejoin (see the recovery protocol in DESIGN.md).
    pub fn clear(&mut self) {
        self.filter.clear();
    }

    /// A 64-bit digest of the table's current membership and counters, for
    /// epoch checkpoints. Deterministic across runs with the same history.
    pub fn state_digest(&self) -> u64 {
        let Self {
            filter,
            mask_bits,
            lookups,
            hits,
        } = self;
        let mut sm =
            filter.state_digest() ^ (lookups << 24) ^ (hits << 48) ^ (u64::from(*mask_bits) << 8);
        sim_core::rng::splitmix64(&mut sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prt() -> Prt {
        Prt::new(&TransFwConfig::default())
    }

    #[test]
    fn no_false_negatives_for_resident_pages() {
        let mut p = prt();
        // 8-page granularity: insert aligned groups.
        for vpn in (0..2000u64).step_by(8) {
            p.page_arrived(vpn);
        }
        for vpn in (0..2000u64).step_by(8) {
            assert!(p.may_be_local(vpn), "vpn {vpn}");
        }
    }

    #[test]
    fn eight_page_granularity_shares_fingerprints() {
        let mut p = prt();
        p.page_arrived(0x100);
        // Neighbours in the same 8-page group look local too (by design:
        // the mask trades precision for table size).
        assert!(p.may_be_local(0x101));
        assert!(p.may_be_local(0x107));
        assert!(!p.may_be_local(0x108));
    }

    #[test]
    fn departure_clears_membership() {
        let mut p = prt();
        p.page_arrived(0x500);
        p.page_departed(0x500);
        assert!(!p.may_be_local(0x500));
        assert!(p.is_empty());
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut p = prt();
        // Fill to ~80%: 400 groups resident.
        for i in 0..400u64 {
            p.page_arrived(i * 8);
        }
        let probes = 100_000u64;
        let fps = (0..probes)
            .filter(|i| p.may_be_local((500_000 + i) * 8))
            .count() as f64;
        let rate = fps / probes as f64;
        assert!(rate < 0.005, "PRT false positive rate {rate}");
    }

    #[test]
    fn stats_count_lookups_and_hits() {
        let mut p = prt();
        p.page_arrived(8);
        p.may_be_local(8);
        p.may_be_local(1 << 30);
        assert_eq!(p.lookup_count(), 2);
        assert_eq!(p.hit_count(), 1);
    }

    #[test]
    fn storage_matches_paper_kb() {
        let p = prt();
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((kb - 0.79).abs() < 0.01, "PRT is {kb} KB, paper says 0.79");
    }

    #[test]
    fn clear_flushes_membership_but_keeps_counters() {
        let mut p = prt();
        for vpn in (0..400u64).step_by(8) {
            p.page_arrived(vpn);
        }
        p.may_be_local(0);
        p.may_be_local(8);
        let (lookups, hits) = (p.lookup_count(), p.hit_count());
        let digest_before = p.state_digest();
        p.clear();
        assert!(p.is_empty());
        assert!(
            !p.may_be_local(0),
            "cleared PRT answers definitively-remote"
        );
        assert_eq!(p.lookup_count(), lookups + 1, "counters survive the clear");
        assert_eq!(p.hit_count(), hits);
        assert_ne!(p.state_digest(), digest_before);
        p.page_arrived(16);
        assert!(p.may_be_local(16), "table usable after clear");
    }

    #[test]
    fn apply_batch_matches_individual_updates() {
        let mut batched = prt();
        let mut stepwise = prt();
        for vpn in [0u64, 8, 16, 24] {
            stepwise.page_arrived(vpn);
        }
        batched.apply(&[], &[0, 8, 16, 24]);
        for vpn in [0u64, 8, 16, 24] {
            assert!(batched.may_be_local(vpn));
        }
        assert_eq!(batched.len(), stepwise.len());
        // A migration: two pages leave, one arrives, in one transaction.
        batched.apply(&[0, 16], &[32]);
        assert!(!batched.may_be_local(0));
        assert!(!batched.may_be_local(16));
        assert!(batched.may_be_local(32));
        assert!(batched.may_be_local(8), "untouched page survives");
    }

    #[test]
    fn apply_departures_before_arrivals() {
        let mut p = prt();
        p.page_arrived(40);
        // Same VPN on both sides: depart-then-arrive must leave exactly one
        // fingerprint, not zero (arrive-then-depart would remove it).
        p.apply(&[40], &[40]);
        assert!(p.may_be_local(40));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn migration_churn_stays_consistent() {
        let mut p = prt();
        // Simulate pages ping-ponging: arrive, depart, re-arrive.
        for round in 0..3 {
            for vpn in (0..800u64).step_by(8) {
                p.page_arrived(vpn);
            }
            for vpn in (0..800u64).step_by(8) {
                assert!(p.may_be_local(vpn), "round {round} vpn {vpn}");
                p.page_departed(vpn);
            }
        }
        assert!(p.is_empty());
    }
}
