//! TLBs and MSHRs for the multi-GPU translation hierarchy.
//!
//! Three structures from Fig. 1 of the paper live here:
//!
//! * [`Tlb`] — per-CU L1 TLBs (32-entry fully associative), the per-GPU
//!   shared L2 TLB (512-entry, 16-way) and the host MMU TLB (2048-entry,
//!   64-way), all set-associative with true-LRU replacement.
//! * [`Mshr`] — the miss-status holding registers in front of the L2 TLB and
//!   host MMU that coalesce outstanding requests to the same virtual page.
//!
//! # Examples
//!
//! ```
//! use tlb::Tlb;
//!
//! let mut l1: Tlb<u64> = Tlb::new(32, 32, 1); // fully associative
//! l1.fill(0x12, 0xabc);
//! assert_eq!(l1.lookup(0x12), Some(&0xabc));
//! assert_eq!(l1.lookup(0x13), None);
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod mshr;

pub use mshr::{Mshr, MshrOutcome};

use sim_core::Cycle;

#[derive(Debug, Clone)]
struct Way<V> {
    vpn: u64,
    value: V,
    tick: u64,
}

/// A set-associative translation lookaside buffer with true-LRU replacement.
///
/// The value type `V` carries whatever the level stores: a physical page
/// number for the L1/L2 TLBs, or a `(ppn, owner)` pair for the host MMU TLB
/// which must also say where a page lives.
#[derive(Debug, Clone)]
pub struct Tlb<V> {
    sets: Vec<Vec<Way<V>>>,
    assoc: usize,
    latency: Cycle,
    tick: u64,
    hits: u64,
    misses: u64,
    shootdowns: u64,
}

impl<V> Tlb<V> {
    /// Creates a TLB of `entries` total entries organised as
    /// `entries / assoc` sets of `assoc` ways, with the given lookup latency.
    ///
    /// An `assoc` equal to `entries` yields a fully associative TLB (the
    /// paper's L1 configuration: "32 entries, 32-way").
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `assoc` is zero, or `entries` is not a multiple
    /// of `assoc`.
    pub fn new(entries: usize, assoc: usize, latency: Cycle) -> Self {
        assert!(
            entries > 0 && assoc > 0,
            "entries and assoc must be positive"
        );
        assert!(
            entries.is_multiple_of(assoc),
            "entries ({entries}) must be a multiple of assoc ({assoc})"
        );
        let set_count = entries / assoc;
        Self {
            sets: (0..set_count).map(|_| Vec::with_capacity(assoc)).collect(),
            assoc,
            latency,
            tick: 0,
            hits: 0,
            misses: 0,
            shootdowns: 0,
        }
    }

    /// Lookup latency in cycles (Table II: 1 for L1, 10 for L2).
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.assoc
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        (vpn % self.sets.len() as u64) as usize
    }

    /// Looks up `vpn`, updating LRU state and hit/miss statistics.
    pub fn lookup(&mut self, vpn: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|w| w.vpn == vpn) {
            way.tick = tick;
            self.hits = self.hits.saturating_add(1);
            Some(&way.value)
        } else {
            self.misses = self.misses.saturating_add(1);
            None
        }
    }

    /// Tests for presence without perturbing LRU state or statistics.
    pub fn probe(&self, vpn: u64) -> Option<&V> {
        let set = self.set_of(vpn);
        self.sets[set]
            .iter()
            .find(|w| w.vpn == vpn)
            .map(|w| &w.value)
    }

    /// Inserts (or refreshes) a translation, returning the evicted victim if
    /// the set was full.
    pub fn fill(&mut self, vpn: u64, value: V) -> Option<(u64, V)> {
        self.tick += 1;
        let tick = self.tick;
        let assoc = self.assoc;
        let set = self.set_of(vpn);
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|w| w.vpn == vpn) {
            way.value = value;
            way.tick = tick;
            return None;
        }
        if ways.len() < assoc {
            ways.push(Way { vpn, value, tick });
            return None;
        }
        let Some(lru) = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.tick)
            .map(|(i, _)| i)
        else {
            return None; // zero-way set: nothing to evict into
        };
        let victim = std::mem::replace(&mut ways[lru], Way { vpn, value, tick });
        Some((victim.vpn, victim.value))
    }

    /// Invalidates one translation (a TLB shootdown); returns the removed
    /// value, if the entry was present.
    pub fn invalidate(&mut self, vpn: u64) -> Option<V> {
        let set = self.set_of(vpn);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|w| w.vpn == vpn) {
            self.shootdowns += 1;
            Some(ways.swap_remove(pos).value)
        } else {
            None
        }
    }

    /// Drops every entry.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Successful invalidations performed.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Hit rate over all lookups so far (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        sim_core::stats::ratio(self.hits, self.hits.saturating_add(self.misses))
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut t: Tlb<u32> = Tlb::new(8, 2, 1);
        t.fill(5, 50);
        assert_eq!(t.lookup(5), Some(&50));
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn miss_on_absent() {
        let mut t: Tlb<u32> = Tlb::new(8, 2, 1);
        assert_eq!(t.lookup(5), None);
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way single-set TLB.
        let mut t: Tlb<u32> = Tlb::new(2, 2, 1);
        t.fill(0, 0);
        t.fill(2, 2);
        t.lookup(0); // 0 is now MRU
        let victim = t.fill(4, 4);
        assert_eq!(victim, Some((2, 2)));
        assert!(t.probe(0).is_some());
        assert!(t.probe(4).is_some());
    }

    #[test]
    fn refill_updates_value_without_eviction() {
        let mut t: Tlb<u32> = Tlb::new(2, 2, 1);
        t.fill(1, 10);
        assert_eq!(t.fill(1, 11), None);
        assert_eq!(t.probe(1), Some(&11));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn set_mapping_isolates_sets() {
        // 4 sets x 1 way: vpns 0..4 all land in distinct sets.
        let mut t: Tlb<u32> = Tlb::new(4, 1, 1);
        for vpn in 0..4 {
            assert_eq!(t.fill(vpn, vpn as u32), None);
        }
        assert_eq!(t.occupancy(), 4);
        // vpn 4 conflicts with vpn 0 only.
        let victim = t.fill(4, 40);
        assert_eq!(victim, Some((0, 0)));
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut t: Tlb<u32> = Tlb::new(8, 4, 1);
        t.fill(3, 30);
        assert_eq!(t.invalidate(3), Some(30));
        assert_eq!(t.invalidate(3), None);
        assert_eq!(t.shootdowns(), 1);
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    fn flush_empties() {
        let mut t: Tlb<u32> = Tlb::new(8, 4, 1);
        for vpn in 0..8 {
            t.fill(vpn, 0);
        }
        t.flush();
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn probe_does_not_affect_stats_or_lru() {
        let mut t: Tlb<u32> = Tlb::new(2, 2, 1);
        t.fill(0, 0);
        t.fill(2, 2);
        t.probe(0); // should NOT promote 0
                    // After fills, 2 is MRU; inserting evicts 0 if probe didn't promote.
        let victim = t.fill(4, 4);
        assert_eq!(victim, Some((0, 0)));
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut t: Tlb<u32> = Tlb::new(32, 32, 1);
        for vpn in 0..32 {
            assert_eq!(t.fill(vpn * 1000, 1), None, "no eviction before full");
        }
        assert!(t.fill(999_999, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "multiple of assoc")]
    fn rejects_bad_geometry() {
        let _ = Tlb::<u32>::new(10, 4, 1);
    }
}
