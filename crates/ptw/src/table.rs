//! Radix page tables with walk-cost accounting.

use std::collections::BTreeMap;

use sim_core::StateDigest;

use crate::BITS_PER_LEVEL;

/// Identifier of a GPU in the system (0-based).
pub type GpuId = u16;

/// Where a physical page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Host (CPU) memory.
    Cpu,
    /// Device memory of the given GPU.
    Gpu(GpuId),
}

impl Location {
    /// Returns the GPU id if this location is a GPU.
    pub fn gpu(self) -> Option<GpuId> {
        match self {
            Location::Gpu(g) => Some(g),
            Location::Cpu => None,
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Location::Cpu => write!(f, "CPU"),
            Location::Gpu(g) => write!(f, "GPU{g}"),
        }
    }
}

/// A leaf page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical page number.
    pub ppn: u64,
    /// Memory the page resides in. For a GPU-local page table this is
    /// normally the local GPU; under *remote mapping* (§V-E) it may point at
    /// a peer GPU's memory.
    pub loc: Location,
}

impl Pte {
    /// Creates a PTE mapping to `ppn` in `loc`.
    pub fn new(ppn: u64, loc: Location) -> Self {
        Self { ppn, loc }
    }
}

/// Result of walking the table for one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Serialized memory accesses the walk performed (each costs the
    /// per-level latency, 100 cycles in Table II).
    pub accesses: u32,
    /// The translation, or `None` when the page is not mapped here (a *far
    /// fault* when this is a GPU-local table).
    pub pte: Option<Pte>,
    /// Deepest level whose entry was successfully read, for PW-cache refill
    /// (`level_count + 1` encodes "nothing read"; 1 means the leaf PTE).
    pub reached_level: u32,
}

/// A radix page table of 4 or 5 levels.
///
/// Level numbering follows the paper: level `L` (4 or 5) is the root, level
/// 1 is the leaf table holding PTEs. An entry *at level k* points to the
/// level `k-1` table; the PW-cache stores entries for levels `2..=L`.
///
/// # Examples
///
/// ```
/// use ptw::{PageTable, Pte, Location};
///
/// let mut pt = PageTable::new(5);
/// pt.insert(7, Pte::new(70, Location::Cpu));
/// // Second walk of a neighbouring page reuses upper levels only if the
/// // walker resumes from a PW-cache hit; a raw walk always starts at root.
/// assert_eq!(pt.walk(7, None).accesses, 5);
/// // Resuming from a level-2 PW-cache hit costs a single access.
/// assert_eq!(pt.walk(7, Some(2)).accesses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    levels: u32,
    leaves: BTreeMap<u64, Pte>,
    /// `nodes[l-1]` (for table level `l` in `1..=levels-1`) maps a table's
    /// identifying prefix (`vpn >> (9*l)`) to the number of leaves beneath
    /// it, so node removal is exact.
    nodes: Vec<BTreeMap<u64, u32>>,
}

impl PageTable {
    /// Creates an empty table with `levels` levels (the paper evaluates 5,
    /// the default, and 4 in Fig. 19).
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is between 2 and 6.
    pub fn new(levels: u32) -> Self {
        assert!((2..=6).contains(&levels), "levels must be in 2..=6");
        Self {
            levels,
            leaves: BTreeMap::new(),
            nodes: (0..levels - 1).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.leaves.len()
    }

    #[inline]
    fn prefix(vpn: u64, table_level: u32) -> u64 {
        vpn >> (BITS_PER_LEVEL * table_level)
    }

    /// Maps `vpn`, creating intermediate tables as needed. Returns the
    /// previous PTE if the page was already mapped.
    pub fn insert(&mut self, vpn: u64, pte: Pte) -> Option<Pte> {
        let old = self.leaves.insert(vpn, pte);
        if old.is_none() {
            for l in 1..self.levels {
                *self.nodes[(l - 1) as usize]
                    .entry(Self::prefix(vpn, l))
                    .or_insert(0) += 1;
            }
        }
        old
    }

    /// Unmaps `vpn`. Returns the removed PTE and the table levels whose
    /// nodes disappeared (their cached PW-cache entries become stale).
    pub fn remove(&mut self, vpn: u64) -> Option<(Pte, Vec<u32>)> {
        let pte = self.leaves.remove(&vpn)?;
        let mut emptied = Vec::new();
        for l in 1..self.levels {
            let map = &mut self.nodes[(l - 1) as usize];
            let prefix = Self::prefix(vpn, l);
            let Some(count) = map.get_mut(&prefix) else {
                continue; // node already gone: nothing to decrement
            };
            *count -= 1;
            if *count == 0 {
                map.remove(&prefix);
                // The entry *pointing at* this table lives at level l+1.
                emptied.push(l + 1);
            }
        }
        Some((pte, emptied))
    }

    /// Direct translation without cost modelling (driver-style access).
    pub fn translate(&self, vpn: u64) -> Option<&Pte> {
        self.leaves.get(&vpn)
    }

    /// Mutable access to a mapped PTE.
    pub fn translate_mut(&mut self, vpn: u64) -> Option<&mut Pte> {
        self.leaves.get_mut(&vpn)
    }

    fn table_exists(&self, table_level: u32, vpn: u64) -> bool {
        if table_level == self.levels {
            return true; // root always exists
        }
        self.nodes[(table_level - 1) as usize].contains_key(&Self::prefix(vpn, table_level))
    }

    /// Walks the table for `vpn`, optionally resuming below a PW-cache hit.
    ///
    /// `resume_at` is the PW-cache hit level `k` (an entry at level `k`
    /// points into the level `k-1` table), so the walk reads levels
    /// `k-1, k-2, …, 1`; `None` starts from the root (level `levels`).
    ///
    /// # Panics
    ///
    /// Panics if `resume_at` is outside `2..=levels`.
    pub fn walk(&self, vpn: u64, resume_at: Option<u32>) -> WalkResult {
        let start = match resume_at {
            Some(k) => {
                assert!(
                    (2..=self.levels).contains(&k),
                    "resume level {k} out of range"
                );
                k - 1
            }
            None => self.levels,
        };
        let mut accesses = 0;
        let mut reached = self.levels + 1;
        for l in (1..=start).rev() {
            // Reading the entry at level l is one memory access; the entry is
            // present iff the thing it points to exists.
            accesses += 1;
            let present = if l == 1 {
                self.leaves.contains_key(&vpn)
            } else {
                self.table_exists(l - 1, vpn)
            };
            if !present {
                return WalkResult {
                    accesses,
                    pte: None,
                    reached_level: reached,
                };
            }
            reached = l;
        }
        WalkResult {
            accesses,
            pte: self.leaves.get(&vpn).copied(),
            reached_level: reached,
        }
    }

    /// A 64-bit digest of the table's full state — geometry, every leaf
    /// mapping (vpn, ppn, location) and the interior-node refcounts — for
    /// epoch checkpoints. Iteration is key-ordered (`BTreeMap`), so the
    /// digest is stable across runs and shard layouts.
    pub fn state_digest(&self) -> u64 {
        let Self {
            levels,
            leaves,
            nodes,
        } = self;
        let mut d = StateDigest::new();
        d.mix(u64::from(*levels));
        d.mix(leaves.len() as u64);
        for (&vpn, &Pte { ppn, loc }) in leaves.iter() {
            let loc = loc.gpu().map_or(0, |g| u64::from(g) + 1);
            d.mix(vpn).mix(ppn ^ (loc << 48));
        }
        for level in nodes {
            d.mix(level.len() as u64);
            for (&prefix, &leaves_below) in level.iter() {
                d.mix(prefix ^ (u64::from(leaves_below) << 40));
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(ppn: u64) -> Pte {
        Pte::new(ppn, Location::Gpu(0))
    }

    #[test]
    fn cold_walk_touches_every_level() {
        let mut pt = PageTable::new(5);
        pt.insert(100, pte(1));
        let w = pt.walk(100, None);
        assert_eq!(w.accesses, 5);
        assert_eq!(w.pte, Some(pte(1)));
        assert_eq!(w.reached_level, 1);
    }

    #[test]
    fn four_level_walk() {
        let mut pt = PageTable::new(4);
        pt.insert(100, pte(1));
        assert_eq!(pt.walk(100, None).accesses, 4);
    }

    #[test]
    fn resume_levels_cut_accesses() {
        let mut pt = PageTable::new(5);
        pt.insert(100, pte(1));
        for k in 2..=5u32 {
            let w = pt.walk(100, Some(k));
            assert_eq!(w.accesses, k - 1, "resume at L{k}");
            assert!(w.pte.is_some());
        }
    }

    #[test]
    fn unmapped_walk_stops_at_first_absent_node() {
        let mut pt = PageTable::new(5);
        // Map a page sharing the top 2 levels with the probe address.
        let base = 0b1_0000_0000_0000_0000_0000_0000_0000u64; // differs below L4
        pt.insert(base, pte(1));
        // Probe with same L5/L4 prefix but different L3 index.
        let probe = base ^ (1 << (2 * BITS_PER_LEVEL));
        let w = pt.walk(probe, None);
        assert!(w.pte.is_none());
        // Reads L5 (root entry present), L4 (present), L3 (absent) = 3.
        assert_eq!(w.accesses, 3);
    }

    #[test]
    fn fully_unrelated_unmapped_walk_is_one_access() {
        let mut pt = PageTable::new(5);
        pt.insert(0, pte(1));
        // A vpn differing in the top-level index: root entry absent.
        let probe = 1u64 << (4 * BITS_PER_LEVEL);
        let w = pt.walk(probe, None);
        assert_eq!(w.accesses, 1);
        assert!(w.pte.is_none());
    }

    #[test]
    fn empty_table_walk_fails_fast() {
        let pt = PageTable::new(5);
        let w = pt.walk(42, None);
        assert_eq!(w.accesses, 1);
        assert!(w.pte.is_none());
    }

    #[test]
    fn remove_reports_emptied_levels() {
        let mut pt = PageTable::new(5);
        pt.insert(0, pte(1));
        pt.insert(1, pte(2)); // shares every table with vpn 0
        let (_, emptied) = pt.remove(0).unwrap();
        assert!(emptied.is_empty(), "tables still backed by vpn 1");
        let (_, emptied) = pt.remove(1).unwrap();
        assert_eq!(emptied, vec![2, 3, 4, 5]);
        assert_eq!(pt.mapped_pages(), 0);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut pt = PageTable::new(5);
        assert!(pt.remove(9).is_none());
    }

    #[test]
    fn reinsert_overwrites() {
        let mut pt = PageTable::new(5);
        assert_eq!(pt.insert(3, pte(1)), None);
        assert_eq!(pt.insert(3, pte(2)), Some(pte(1)));
        assert_eq!(pt.translate(3), Some(&pte(2)));
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn translate_mut_allows_update() {
        let mut pt = PageTable::new(5);
        pt.insert(3, pte(1));
        pt.translate_mut(3).unwrap().loc = Location::Cpu;
        assert_eq!(pt.translate(3).unwrap().loc, Location::Cpu);
    }

    #[test]
    #[should_panic(expected = "resume level")]
    fn resume_out_of_range_panics() {
        let pt = PageTable::new(4);
        pt.walk(0, Some(5));
    }

    #[test]
    fn walk_after_remove_fails() {
        let mut pt = PageTable::new(5);
        pt.insert(77, pte(1));
        pt.remove(77);
        assert!(pt.walk(77, None).pte.is_none());
    }
}
