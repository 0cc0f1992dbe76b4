//! Page-walk caches — the Unified Translation Cache (UTC), the Split
//! Translation Cache (STC) and an infinite cache — and the walk step that
//! consults one before reading the page table.
//!
//! Every organisation caches *upper-level* page-table entries so a walk can
//! skip levels. An entry at level `k` (for `k` in `2..=L`) is tagged by the
//! virtual-page prefix `vpn >> (9*(k-1))` and lets the walker resume at
//! level `k-1`, costing `k-1` memory accesses instead of `L`.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use crate::{Asap, PageTable, Pte, BITS_PER_LEVEL};

/// Hit/miss statistics broken down by level, for Figs. 5, 6 and 13.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PwCacheStats {
    /// `hits_at[k]` counts lookups whose longest match was a level-`k`
    /// entry (indices `0` and `1` stay unused; leaf hits belong to the TLB).
    pub hits_at: Vec<u64>,
    /// Lookups with no matching entry at any level.
    pub misses: u64,
    /// Total lookups.
    pub lookups: u64,
}

impl PwCacheStats {
    fn new(levels: u32) -> Self {
        Self {
            hits_at: vec![0; levels as usize + 1],
            misses: 0,
            lookups: 0,
        }
    }

    /// Fraction of lookups whose longest match was at level `k`.
    pub fn hit_rate_at(&self, k: u32) -> f64 {
        sim_core::stats::ratio(self.hits_at[k as usize], self.lookups)
    }

    /// Fraction of lookups that matched at *any* level.
    pub fn hit_rate(&self) -> f64 {
        sim_core::stats::ratio(self.lookups - self.misses, self.lookups)
    }

    /// Folds another cache's statistics into this one (used to aggregate the
    /// per-GPU GMMU PW-caches into a system-wide view).
    pub fn merge(&mut self, other: &PwCacheStats) {
        if self.hits_at.len() < other.hits_at.len() {
            self.hits_at.resize(other.hits_at.len(), 0);
        }
        for (k, &h) in other.hits_at.iter().enumerate() {
            self.hits_at[k] += h;
        }
        self.misses = self.misses.saturating_add(other.misses);
        self.lookups = self.lookups.saturating_add(other.lookups);
    }
}

#[inline]
fn tag(vpn: u64, k: u32) -> u64 {
    vpn >> (BITS_PER_LEVEL * (k - 1))
}

/// A fully-associative LRU array of (level, prefix) entries.
#[derive(Debug, Clone)]
struct LruArray {
    /// (level, prefix) -> last-use tick.
    entries: BTreeMap<(u32, u64), u64>,
    capacity: usize,
    tick: u64,
}

impl LruArray {
    fn new(capacity: usize) -> Self {
        Self {
            entries: BTreeMap::new(),
            capacity,
            tick: 0,
        }
    }

    /// Marks `key` most recently used; false when it is not cached.
    fn touch(&mut self, key: (u32, u64)) -> bool {
        let Some(t) = self.entries.get_mut(&key) else {
            return false;
        };
        self.tick += 1;
        *t = self.tick;
        true
    }

    fn insert(&mut self, key: (u32, u64)) {
        if self.touch(key) {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity {
            // Victim = oldest tick; ties (impossible today — every touch
            // mints a fresh tick, but total order costs nothing) break to
            // the smallest (level, prefix) key, never to iteration chance.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|&(&key, &t)| (t, key)) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, self.tick);
    }
}

/// A page-walk cache: maps virtual-page prefixes to page-table levels.
///
/// One type covers the three organisations the paper evaluates; they differ
/// only in how many LRU arrays hold the entries and how large they are:
///
/// * [`new`](Self::new) — the **Unified Translation Cache**, the paper's
///   default: entries from every level share one array, and a lookup
///   returns the longest matching prefix (§II-B "Page walk cache");
/// * [`split`](Self::split) — the **Split Translation Cache** of §V-C, one
///   array per level;
/// * [`infinite`](Self::infinite) — one array that never evicts (only cold
///   misses), for the Fig. 4 "room for improvement" study.
///
/// # Examples
///
/// ```
/// use ptw::PwCache;
///
/// let mut utc = PwCache::new(128, 5);
/// utc.insert(0x1234, 5);
/// utc.insert(0x1234, 3);
/// // Longest prefix (lowest level) wins.
/// assert_eq!(utc.lookup(0x1234), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct PwCache {
    /// One array serving every level, or (split) `arrays[k - 2]` serving
    /// level `k`.
    arrays: Vec<LruArray>,
    levels: u32,
    stats: PwCacheStats,
}

/// The UTC's former type name, kept because `perfbench` names it;
/// [`PwCache::new`] builds a UTC.
pub type Utc = PwCache;

impl PwCache {
    /// Creates a UTC with `entries` total entries serving a `levels`-level
    /// page table (the paper: 128 entries, 5 levels).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or `levels < 2`.
    pub fn new(entries: usize, levels: u32) -> Self {
        assert!(entries > 0, "capacity must be positive");
        Self::with_arrays(vec![LruArray::new(entries)], levels)
    }

    /// Creates an STC at the paper's sizes: 64 entries for L2, 32 for L3,
    /// 16 for L4 and 16 for L5 (for a 4-level table: 64/32/16).
    ///
    /// # Examples
    ///
    /// ```
    /// use ptw::PwCache;
    ///
    /// let mut stc = PwCache::split(5);
    /// stc.insert(0x1234, 2);
    /// assert_eq!(stc.lookup(0x1234), Some(2));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn split(levels: u32) -> Self {
        let arrays = (2..=levels)
            .map(|k| match k {
                2 => 64,
                3 => 32,
                _ => 16,
            })
            .map(LruArray::new)
            .collect();
        Self::with_arrays(arrays, levels)
    }

    /// Creates a cache that never evicts.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2`.
    pub fn infinite(levels: u32) -> Self {
        Self::with_arrays(vec![LruArray::new(usize::MAX)], levels)
    }

    fn with_arrays(arrays: Vec<LruArray>, levels: u32) -> Self {
        assert!(levels >= 2, "page table needs at least 2 levels");
        Self {
            arrays,
            levels,
            stats: PwCacheStats::new(levels),
        }
    }

    /// The array serving level `k`.
    fn array(&self, k: u32) -> &LruArray {
        &self.arrays[self.slot(k)]
    }

    fn array_mut(&mut self, k: u32) -> &mut LruArray {
        let i = self.slot(k);
        &mut self.arrays[i]
    }

    fn slot(&self, k: u32) -> usize {
        if self.arrays.len() == 1 {
            0
        } else {
            (k - 2) as usize
        }
    }

    /// Returns the level `k` of the longest-prefix matching entry
    /// (`2..=levels`), or `None` on a complete miss. Updates LRU state and
    /// statistics.
    pub fn lookup(&mut self, vpn: u64) -> Option<u32> {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        for k in 2..=self.levels {
            if self.array_mut(k).touch((k, tag(vpn, k))) {
                self.stats.hits_at[k as usize] += 1;
                return Some(k);
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        None
    }

    /// Like [`lookup`](Self::lookup) but without touching LRU state or
    /// statistics — used to *probe* remote GPUs' PW-caches for the paper's
    /// Fig. 8 study.
    pub fn probe(&self, vpn: u64) -> Option<u32> {
        (2..=self.levels).find(|&k| self.array(k).entries.contains_key(&(k, tag(vpn, k))))
    }

    /// Inserts an entry at level `k` for `vpn`'s prefix.
    pub fn insert(&mut self, vpn: u64, k: u32) {
        debug_assert!((2..=self.levels).contains(&k));
        self.array_mut(k).insert((k, tag(vpn, k)));
    }

    /// Inserts `vpn`'s entries at every level in `levels`, lowest first —
    /// the refill at the end of a walk ([`CachedWalk::refill`]).
    pub fn refill(&mut self, vpn: u64, levels: RangeInclusive<u32>) {
        for k in levels {
            self.insert(vpn, k);
        }
    }

    /// Invalidates the level-`k` entry covering `vpn`, if present (used when
    /// a page-table node is torn down on unmap).
    pub fn invalidate(&mut self, vpn: u64, k: u32) {
        self.array_mut(k).entries.remove(&(k, tag(vpn, k)));
    }

    /// Drops every cached entry while preserving accumulated statistics —
    /// used when a GPU is taken offline and its page-table state is torn
    /// down wholesale rather than entry by entry.
    pub fn flush(&mut self) {
        for array in &mut self.arrays {
            array.entries.clear();
        }
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &PwCacheStats {
        &self.stats
    }

    /// Number of page-table levels this cache serves.
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

/// One page-table walk through a PW-cache, as both the GMMU and the host
/// MMU make it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedWalk {
    /// The leaf PTE, or `None` when the walk stopped at a missing node.
    pub pte: Option<Pte>,
    /// Memory accesses the walk made.
    pub accesses: u32,
    /// Accesses on the walk's critical path: `accesses`, less what ASAP
    /// prefetching overlapped.
    pub serialized: u32,
    /// The levels whose entries the walk read, to insert into the PW-cache
    /// with [`PwCache::refill`] when the walk completes. Empty when the walk
    /// read none (a cold walk that stopped at the root).
    pub refill: RangeInclusive<u32>,
}

/// Looks `vpn` up in `pwc`, walks `pt` from the deepest cached level (or
/// from the root on a miss), and lets `asap` overlap the walk's accesses.
///
/// The PW-cache is not refilled here: the walk takes time, so the caller
/// refills it with [`CachedWalk::refill`] when the walk completes.
///
/// # Examples
///
/// ```
/// use ptw::{cached_walk, Location, PageTable, Pte, PwCache};
///
/// let mut pt = PageTable::new(5);
/// pt.insert(7, Pte::new(7, Location::Gpu(0)));
/// let mut pwc = PwCache::new(128, 5);
/// let cold = cached_walk(&mut pwc, &pt, None, 7);
/// assert_eq!((cold.accesses, cold.refill.clone()), (5, 2..=5));
/// pwc.refill(7, cold.refill);
/// assert_eq!(cached_walk(&mut pwc, &pt, None, 7).accesses, 1);
/// ```
pub fn cached_walk(
    pwc: &mut PwCache,
    pt: &PageTable,
    asap: Option<&mut Asap>,
    vpn: u64,
) -> CachedWalk {
    let resume = pwc.lookup(vpn);
    let walk = pt.walk(vpn, resume);
    let serialized = asap.map_or(walk.accesses, |a| a.effective_accesses(walk.accesses));
    let start = resume.map_or(pt.levels(), |k| k - 1);
    CachedWalk {
        pte: walk.pte,
        accesses: walk.accesses,
        serialized,
        refill: walk.reached_level.max(2)..=start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_longest_prefix_wins() {
        let mut utc = PwCache::new(16, 5);
        utc.insert(0xABCDEF, 5);
        utc.insert(0xABCDEF, 4);
        utc.insert(0xABCDEF, 2);
        assert_eq!(utc.lookup(0xABCDEF), Some(2));
        assert_eq!(utc.stats().hits_at[2], 1);
    }

    #[test]
    fn utc_prefix_sharing_across_vpns() {
        let mut utc = PwCache::new(16, 5);
        utc.insert(0, 2); // tag = 0 >> 9 = 0
                          // A neighbouring page in the same leaf table shares the L2 entry.
        assert_eq!(utc.lookup(1), Some(2));
        // A page in a different leaf table does not.
        assert_eq!(utc.lookup(1 << BITS_PER_LEVEL), None);
    }

    #[test]
    fn utc_miss_recorded() {
        let mut utc = PwCache::new(16, 5);
        assert_eq!(utc.lookup(42), None);
        assert_eq!(utc.stats().misses, 1);
        assert_eq!(utc.stats().lookups, 1);
        assert_eq!(utc.stats().hit_rate(), 0.0);
    }

    #[test]
    fn utc_lru_eviction_across_levels() {
        let mut utc = PwCache::new(2, 5);
        utc.insert(0, 2);
        utc.insert(0, 3);
        utc.insert(0, 4); // evicts the level-2 entry (LRU)
        assert_eq!(utc.lookup(0), Some(3));
        utc.invalidate(0, 3);
        assert_eq!(utc.lookup(0), Some(4), "the level-4 entry survived");
        utc.invalidate(0, 4);
        assert_eq!(utc.probe(0), None, "two entries held, not three");
    }

    #[test]
    fn utc_invalidate() {
        let mut utc = PwCache::new(8, 5);
        utc.insert(7, 2);
        utc.invalidate(7, 2);
        assert_eq!(utc.lookup(7), None);
    }

    #[test]
    fn stc_keeps_upper_levels_under_l2_pressure() {
        // Each per-level array holds its own entries: filling L2 does not
        // evict L5 (the §V-C argument for STC).
        let mut stc = PwCache::split(5);
        stc.insert(0, 5);
        // Thrash L2 (64 entries) with 99 non-overlapping prefixes far from
        // vpn 0's L5 tag.
        for i in 1..100u64 {
            stc.insert(i << BITS_PER_LEVEL, 2);
        }
        // The first L2 entries were evicted: their pages fall back to L5.
        assert_eq!(stc.probe(1 << BITS_PER_LEVEL), Some(5));
        assert_eq!(stc.probe(99 << BITS_PER_LEVEL), Some(2));
        // L5 entry for vpn 0 must survive.
        assert_eq!(stc.lookup(0), Some(5));
    }

    #[test]
    fn stc_paper_default_sizes() {
        let stc = PwCache::split(5);
        let caps: Vec<usize> = stc.arrays.iter().map(|a| a.capacity).collect();
        assert_eq!(caps, [64, 32, 16, 16]); // L2, L3, L4, L5
        let caps: Vec<usize> = PwCache::split(4)
            .arrays
            .iter()
            .map(|a| a.capacity)
            .collect();
        assert_eq!(caps, [64, 32, 16]);
    }

    #[test]
    fn infinite_pwc_never_evicts() {
        let mut pwc = PwCache::infinite(5);
        for vpn in 0..10_000u64 {
            pwc.insert(vpn, 2);
        }
        for vpn in 0..10_000u64 {
            assert_eq!(pwc.lookup(vpn), Some(2));
        }
        assert_eq!(pwc.stats().misses, 0);
    }

    #[test]
    fn stats_rates() {
        let mut utc = PwCache::new(8, 5);
        utc.insert(0, 2);
        utc.lookup(0); // hit at 2
        utc.lookup(1 << 40); // miss
        let s = utc.stats();
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(s.hit_rate_at(2), 0.5);
        assert_eq!(s.hit_rate_at(4), 0.0);
    }

    #[test]
    fn flush_empties_caches_but_keeps_stats() {
        for mut pwc in [PwCache::new(16, 5), PwCache::split(5), PwCache::infinite(5)] {
            pwc.insert(0x1234, 3);
            assert_eq!(pwc.lookup(0x1234), Some(3));
            let lookups_before = pwc.stats().lookups;
            pwc.flush();
            assert_eq!(pwc.probe(0x1234), None, "flush drops entries");
            assert_eq!(pwc.stats().lookups, lookups_before, "flush preserves stats");
            pwc.insert(0x1234, 2);
            assert_eq!(pwc.lookup(0x1234), Some(2), "cache usable after flush");
        }
    }
}
