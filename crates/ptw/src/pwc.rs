//! Page-walk caches: the Unified Translation Cache (UTC) and the Split
//! Translation Cache (STC).
//!
//! Both cache *upper-level* page-table entries so a walk can skip levels.
//! An entry at level `k` (for `k` in `2..=L`) is tagged by the virtual-page
//! prefix `vpn >> (9*(k-1))` and lets the walker resume at level `k-1`,
//! costing `k-1` memory accesses instead of `L`.

use sim_core::det::{DetMap, DetSet};

use crate::BITS_PER_LEVEL;

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

    /// Fraction of lookups that hit at level `max_k` or below (lower levels
    /// mean fewer remaining accesses; the paper calls L2/L3 "lower levels").
    pub fn hit_rate_at_or_below(&self, max_k: u32) -> f64 {
        let hits: u64 = self.hits_at[..=(max_k as usize)].iter().sum();
        sim_core::stats::ratio(hits, self.lookups)
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

/// A page-walk cache: maps virtual-page prefixes to page-table levels.
///
/// This trait is sealed in spirit — the simulator works with any
/// implementation, and the two the paper evaluates are [`Utc`] and [`Stc`].
pub trait PwCache: std::fmt::Debug + Send {
    /// Returns the level `k` of the longest-prefix matching entry
    /// (`2..=levels`), or `None` on a complete miss. Updates statistics.
    fn lookup(&mut self, vpn: u64) -> Option<u32>;

    /// Like [`lookup`](Self::lookup) but without touching LRU state or
    /// statistics — used to *probe* remote GPUs' PW-caches for the paper's
    /// Fig. 8 study.
    fn probe(&self, vpn: u64) -> Option<u32>;

    /// Inserts an entry at level `k` for `vpn`'s prefix.
    fn insert(&mut self, vpn: u64, k: u32);

    /// Invalidates the level-`k` entry covering `vpn`, if present (used when
    /// a page-table node is torn down on unmap).
    fn invalidate(&mut self, vpn: u64, k: u32);

    /// Drops every cached entry while preserving accumulated statistics —
    /// used when a GPU is taken offline and its page-table state is torn
    /// down wholesale rather than entry by entry.
    fn flush(&mut self);

    /// Statistics gathered so far.
    fn stats(&self) -> &PwCacheStats;

    /// Number of page-table levels this cache serves.
    fn levels(&self) -> u32;
}

#[inline]
fn tag(vpn: u64, k: u32) -> u64 {
    vpn >> (BITS_PER_LEVEL * (k - 1))
}

#[derive(Debug, Clone)]
struct LruArray {
    /// (level, prefix) -> last-use tick.
    entries: DetMap<(u32, u64), u64>,
    capacity: usize,
    tick: u64,
}

impl LruArray {
    fn new(capacity: usize) -> Self {
        Self {
            entries: DetMap::with_capacity(capacity + 1),
            capacity,
            tick: 0,
        }
    }

    fn touch(&mut self, key: (u32, u64)) -> bool {
        self.tick += 1;
        let tick = self.tick;
        if let Some(t) = self.entries.get_mut(&key) {
            *t = tick;
            true
        } else {
            false
        }
    }

    fn contains(&self, key: (u32, u64)) -> bool {
        self.entries.contains_key(&key)
    }

    fn insert(&mut self, key: (u32, u64)) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(t) = self.entries.get_mut(&key) {
            *t = tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            // Victim = oldest tick; ties (impossible today — every touch
            // mints a fresh tick, but total order costs nothing) break to
            // the smallest (level, prefix) key, never to iteration chance.
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|&(&key, &t)| (t, key)) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, tick);
    }

    fn remove(&mut self, key: (u32, u64)) -> bool {
        self.entries.remove(&key).is_some()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The Unified Translation Cache: entries from every level share one
/// fully-associative LRU array; a single lookup returns the longest matching
/// prefix (§II-B "Page walk cache").
///
/// # Examples
///
/// ```
/// use ptw::pwc::{PwCache, Utc};
///
/// let mut utc = Utc::new(128, 5);
/// utc.insert(0x1234, 5);
/// utc.insert(0x1234, 3);
/// // Longest prefix (lowest level) wins.
/// assert_eq!(utc.lookup(0x1234), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Utc {
    array: LruArray,
    levels: u32,
    stats: PwCacheStats,
}

impl Utc {
    /// Creates a UTC with `capacity` total entries serving a `levels`-level
    /// page table (the paper: 128 entries, 5 levels).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `levels < 2`.
    pub fn new(capacity: usize, levels: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(levels >= 2, "page table needs at least 2 levels");
        Self {
            array: LruArray::new(capacity),
            levels,
            stats: PwCacheStats::new(levels),
        }
    }

    /// Current number of cached entries.
    pub fn occupancy(&self) -> usize {
        self.array.len()
    }
}

impl PwCache for Utc {
    fn lookup(&mut self, vpn: u64) -> Option<u32> {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        for k in 2..=self.levels {
            if self.array.contains((k, tag(vpn, k))) {
                self.array.touch((k, tag(vpn, k)));
                self.stats.hits_at[k as usize] += 1;
                return Some(k);
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        None
    }

    fn probe(&self, vpn: u64) -> Option<u32> {
        (2..=self.levels).find(|&k| self.array.contains((k, tag(vpn, k))))
    }

    fn insert(&mut self, vpn: u64, k: u32) {
        debug_assert!((2..=self.levels).contains(&k));
        self.array.insert((k, tag(vpn, k)));
    }

    fn invalidate(&mut self, vpn: u64, k: u32) {
        self.array.remove((k, tag(vpn, k)));
    }

    fn flush(&mut self) {
        self.array.clear();
    }

    fn stats(&self) -> &PwCacheStats {
        &self.stats
    }

    fn levels(&self) -> u32 {
        self.levels
    }
}

/// The Split Translation Cache: one array per level (§V-C; 16/16/32/64
/// entries for L5/L4/L3/L2 in the paper's configuration).
///
/// # Examples
///
/// ```
/// use ptw::pwc::{PwCache, Stc};
///
/// let mut stc = Stc::paper_default(5);
/// stc.insert(0x1234, 2);
/// assert_eq!(stc.lookup(0x1234), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Stc {
    /// `arrays[k-2]` serves level `k`.
    arrays: Vec<LruArray>,
    levels: u32,
    stats: PwCacheStats,
}

impl Stc {
    /// Creates an STC where `capacities[k-2]` is the size of the level-`k`
    /// array (ordered from L2 upward).
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != levels - 1` or any capacity is zero.
    pub fn new(capacities: &[usize], levels: u32) -> Self {
        assert_eq!(
            capacities.len(),
            (levels - 1) as usize,
            "need one capacity per cached level"
        );
        assert!(
            capacities.iter().all(|&c| c > 0),
            "capacities must be positive"
        );
        Self {
            arrays: capacities.iter().map(|&c| LruArray::new(c)).collect(),
            levels,
            stats: PwCacheStats::new(levels),
        }
    }

    /// The paper's configuration: 64 entries for L2, 32 for L3, 16 for L4,
    /// 16 for L5 (and for a 4-level table: 64/32/16).
    pub fn paper_default(levels: u32) -> Self {
        let caps: Vec<usize> = (2..=levels)
            .map(|k| match k {
                2 => 64,
                3 => 32,
                _ => 16,
            })
            .collect();
        Self::new(&caps, levels)
    }

    fn array_mut(&mut self, k: u32) -> &mut LruArray {
        &mut self.arrays[(k - 2) as usize]
    }
}

impl PwCache for Stc {
    fn lookup(&mut self, vpn: u64) -> Option<u32> {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        for k in 2..=self.levels {
            let key = (k, tag(vpn, k));
            if self.arrays[(k - 2) as usize].contains(key) {
                self.array_mut(k).touch(key);
                self.stats.hits_at[k as usize] += 1;
                return Some(k);
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        None
    }

    fn probe(&self, vpn: u64) -> Option<u32> {
        (2..=self.levels).find(|&k| self.arrays[(k - 2) as usize].contains((k, tag(vpn, k))))
    }

    fn insert(&mut self, vpn: u64, k: u32) {
        debug_assert!((2..=self.levels).contains(&k));
        let key = (k, tag(vpn, k));
        self.array_mut(k).insert(key);
    }

    fn invalidate(&mut self, vpn: u64, k: u32) {
        let key = (k, tag(vpn, k));
        self.array_mut(k).remove(key);
    }

    fn flush(&mut self) {
        for array in &mut self.arrays {
            array.clear();
        }
    }

    fn stats(&self) -> &PwCacheStats {
        &self.stats
    }

    fn levels(&self) -> u32 {
        self.levels
    }
}

/// An infinite page-walk cache (only cold misses), for the Fig. 4
/// "room for improvement" study.
#[derive(Debug, Clone)]
pub struct InfinitePwc {
    entries: DetSet<(u32, u64)>,
    levels: u32,
    stats: PwCacheStats,
}

impl InfinitePwc {
    /// Creates an empty infinite cache for a `levels`-level table.
    pub fn new(levels: u32) -> Self {
        Self {
            entries: DetSet::new(),
            levels,
            stats: PwCacheStats::new(levels),
        }
    }
}

impl PwCache for InfinitePwc {
    fn lookup(&mut self, vpn: u64) -> Option<u32> {
        self.stats.lookups = self.stats.lookups.saturating_add(1);
        for k in 2..=self.levels {
            if self.entries.contains(&(k, tag(vpn, k))) {
                self.stats.hits_at[k as usize] += 1;
                return Some(k);
            }
        }
        self.stats.misses = self.stats.misses.saturating_add(1);
        None
    }

    fn probe(&self, vpn: u64) -> Option<u32> {
        (2..=self.levels).find(|&k| self.entries.contains(&(k, tag(vpn, k))))
    }

    fn insert(&mut self, vpn: u64, k: u32) {
        self.entries.insert((k, tag(vpn, k)));
    }

    fn invalidate(&mut self, vpn: u64, k: u32) {
        self.entries.remove(&(k, tag(vpn, k)));
    }

    fn flush(&mut self) {
        self.entries.clear();
    }

    fn stats(&self) -> &PwCacheStats {
        &self.stats
    }

    fn levels(&self) -> u32 {
        self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_longest_prefix_wins() {
        let mut utc = Utc::new(16, 5);
        utc.insert(0xABCDEF, 5);
        utc.insert(0xABCDEF, 4);
        utc.insert(0xABCDEF, 2);
        assert_eq!(utc.lookup(0xABCDEF), Some(2));
        assert_eq!(utc.stats().hits_at[2], 1);
    }

    #[test]
    fn utc_prefix_sharing_across_vpns() {
        let mut utc = Utc::new(16, 5);
        utc.insert(0, 2); // tag = 0 >> 9 = 0
                          // A neighbouring page in the same leaf table shares the L2 entry.
        assert_eq!(utc.lookup(1), Some(2));
        // A page in a different leaf table does not.
        assert_eq!(utc.lookup(1 << BITS_PER_LEVEL), None);
    }

    #[test]
    fn utc_miss_recorded() {
        let mut utc = Utc::new(16, 5);
        assert_eq!(utc.lookup(42), None);
        assert_eq!(utc.stats().misses, 1);
        assert_eq!(utc.stats().lookups, 1);
        assert_eq!(utc.stats().hit_rate(), 0.0);
    }

    #[test]
    fn utc_lru_eviction_across_levels() {
        let mut utc = Utc::new(2, 5);
        utc.insert(0, 2);
        utc.insert(0, 3);
        utc.insert(0, 4); // evicts the level-2 entry (LRU)
        assert_eq!(utc.occupancy(), 2);
        assert_eq!(utc.lookup(0), Some(3));
    }

    #[test]
    fn utc_invalidate() {
        let mut utc = Utc::new(8, 5);
        utc.insert(7, 2);
        utc.invalidate(7, 2);
        assert_eq!(utc.lookup(7), None);
    }

    #[test]
    fn stc_keeps_upper_levels_under_l2_pressure() {
        // Each per-level array holds its own entries: filling L2 does not
        // evict L5 (the §V-C argument for STC).
        let mut stc = Stc::new(&[2, 2, 2, 2], 5);
        stc.insert(0, 5);
        // Thrash L2 with non-overlapping prefixes far from vpn 0's L5 tag.
        for i in 1..100u64 {
            stc.insert(i << BITS_PER_LEVEL, 2);
        }
        // L5 entry for vpn 0 must survive.
        assert_eq!(stc.lookup(0), Some(5));
    }

    #[test]
    fn stc_paper_default_sizes() {
        let stc = Stc::paper_default(5);
        assert_eq!(stc.arrays.len(), 4);
        assert_eq!(stc.arrays[0].capacity, 64); // L2
        assert_eq!(stc.arrays[1].capacity, 32); // L3
        assert_eq!(stc.arrays[2].capacity, 16); // L4
        assert_eq!(stc.arrays[3].capacity, 16); // L5
    }

    #[test]
    fn infinite_pwc_never_evicts() {
        let mut pwc = InfinitePwc::new(5);
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
        let mut utc = Utc::new(8, 5);
        utc.insert(0, 2);
        utc.lookup(0); // hit at 2
        utc.lookup(1 << 40); // miss
        let s = utc.stats();
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(s.hit_rate_at(2), 0.5);
        assert_eq!(s.hit_rate_at_or_below(3), 0.5);
        assert_eq!(s.hit_rate_at(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "one capacity per cached level")]
    fn stc_capacity_mismatch_panics() {
        let _ = Stc::new(&[1, 2], 5);
    }

    #[test]
    fn flush_empties_caches_but_keeps_stats() {
        let caches: Vec<Box<dyn PwCache>> = vec![
            Box::new(Utc::new(16, 5)),
            Box::new(Stc::paper_default(5)),
            Box::new(InfinitePwc::new(5)),
        ];
        for mut pwc in caches {
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
