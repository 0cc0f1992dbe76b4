//! Deterministic collection wrappers for simulator state.
//!
//! `std::collections::HashMap`/`HashSet` randomize their hasher per
//! instance (`RandomState`), so *iteration order* differs between two maps
//! holding identical entries — even inside one process. Any simulator state
//! that iterates such a map (eviction victim selection, draining, digest
//! computation) silently depends on that order and breaks the repo's
//! bit-identical replay guarantees.
//!
//! [`DetMap`] and [`DetSet`] are thin newtypes over `BTreeMap`/`BTreeSet`:
//! iteration order is the key's total order, always, on every run. The
//! root `clippy.toml` lists raw `HashMap`/`HashSet` under
//! `disallowed-types` in every workspace target (see DESIGN.md, "Static
//! analysis & determinism contract"); these wrappers are the approved
//! replacement in simulator state, and plain `BTreeMap`/`BTreeSet` in
//! tests.
//!
//! The API mirrors the `HashMap`/`HashSet` subset the simulator uses, so a
//! migration is a type swap plus (where iteration feeds a decision) an
//! explicit, documented tie-break.
//!
//! # Examples
//!
//! ```
//! use sim_core::det::DetMap;
//!
//! let mut m: DetMap<u64, &str> = DetMap::new();
//! m.insert(3, "c");
//! m.insert(1, "a");
//! // Iteration order is the key order — identical on every run.
//! let keys: Vec<u64> = m.keys().copied().collect();
//! assert_eq!(keys, vec![1, 3]);
//! ```

use std::collections::{btree_map, btree_set, BTreeMap, BTreeSet};

/// A map with deterministic (key-ordered) iteration.
///
/// Drop-in replacement for the `HashMap` subset the simulator uses; keys
/// must be `Ord` instead of `Hash`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetMap<K, V> {
    inner: BTreeMap<K, V>,
}

impl<K: Ord, V> DetMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            inner: BTreeMap::new(),
        }
    }

    /// Creates an empty map; the capacity hint is accepted for call-site
    /// compatibility with `HashMap::with_capacity` but ignored (B-trees
    /// allocate per node).
    pub fn with_capacity(_capacity: usize) -> Self {
        Self::new()
    }

    /// Inserts `value` at `key`, returning the previous value if present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// Returns a reference to the value at `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Returns a mutable reference to the value at `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Removes and returns the value at `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.contains_key(key)
    }

    /// Gets the entry at `key` for in-place manipulation.
    pub fn entry(&mut self, key: K) -> btree_map::Entry<'_, K, V> {
        self.inner.entry(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Key-ordered iterator over entries.
    pub fn iter(&self) -> btree_map::Iter<'_, K, V> {
        self.inner.iter()
    }

    /// Key-ordered iterator with mutable values.
    pub fn iter_mut(&mut self) -> btree_map::IterMut<'_, K, V> {
        self.inner.iter_mut()
    }

    /// Key-ordered iterator over keys.
    pub fn keys(&self) -> btree_map::Keys<'_, K, V> {
        self.inner.keys()
    }

    /// Key-ordered iterator over values.
    pub fn values(&self) -> btree_map::Values<'_, K, V> {
        self.inner.values()
    }

    /// Key-ordered iterator over mutable values.
    pub fn values_mut(&mut self) -> btree_map::ValuesMut<'_, K, V> {
        self.inner.values_mut()
    }

    /// Keeps only the entries for which `f` returns true.
    pub fn retain(&mut self, f: impl FnMut(&K, &mut V) -> bool) {
        self.inner.retain(f);
    }
}

impl<K: Ord, V> Default for DetMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for DetMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        Self {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<K: Ord, V> IntoIterator for DetMap<K, V> {
    type Item = (K, V);
    type IntoIter = btree_map::IntoIter<K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, K: Ord, V> IntoIterator for &'a DetMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = btree_map::Iter<'a, K, V>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

/// A set with deterministic (element-ordered) iteration.
///
/// Drop-in replacement for the `HashSet` subset the simulator uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetSet<T> {
    inner: BTreeSet<T>,
}

impl<T: Ord> DetSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self {
            inner: BTreeSet::new(),
        }
    }

    /// Inserts `value`; returns whether it was newly inserted.
    pub fn insert(&mut self, value: T) -> bool {
        self.inner.insert(value)
    }

    /// Removes `value`; returns whether it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.inner.remove(value)
    }

    /// Whether `value` is present.
    pub fn contains(&self, value: &T) -> bool {
        self.inner.contains(value)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Ordered iterator over elements.
    pub fn iter(&self) -> btree_set::Iter<'_, T> {
        self.inner.iter()
    }
}

impl<T: Ord> Default for DetSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> FromIterator<T> for DetSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<T: Ord> IntoIterator for DetSet<T> {
    type Item = T;
    type IntoIter = btree_set::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.into_iter()
    }
}

impl<'a, T: Ord> IntoIterator for &'a DetSet<T> {
    type Item = &'a T;
    type IntoIter = btree_set::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_iterates_in_key_order() {
        let mut m = DetMap::new();
        for k in [9u64, 2, 7, 1] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 2, 7, 9]);
        let vals: Vec<u64> = m.values().copied().collect();
        assert_eq!(vals, vec![10, 20, 70, 90]);
    }

    #[test]
    fn map_basic_ops_mirror_hashmap() {
        let mut m: DetMap<u32, &str> = DetMap::with_capacity(16);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"));
        assert_eq!(m.get(&1), Some(&"b"));
        *m.entry(2).or_insert("c") = "d";
        assert_eq!(m.len(), 2);
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&2), Some("d"));
        assert_eq!(m.remove(&2), None);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn map_retain_and_collect() {
        let m: DetMap<u32, u32> = (0..10).map(|k| (k, k)).collect();
        let mut m = m;
        m.retain(|&k, _| k % 2 == 0);
        assert_eq!(m.len(), 5);
        let pairs: Vec<(u32, u32)> = m.into_iter().collect();
        assert_eq!(pairs[0], (0, 0));
        assert_eq!(pairs[4], (8, 8));
    }

    #[test]
    fn set_is_ordered_and_deduplicates() {
        let mut s = DetSet::new();
        assert!(s.insert(5u64));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert!(s.contains(&1));
        let v: Vec<u64> = s.iter().copied().collect();
        assert_eq!(v, vec![1, 5]);
        assert!(s.remove(&1));
        assert!(!s.remove(&1));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn two_identically_filled_maps_iterate_identically() {
        // The property HashMap lacks: equal contents => equal order.
        let a: DetMap<u64, u64> = [(3, 0), (1, 0), (2, 0)].into_iter().collect();
        let b: DetMap<u64, u64> = [(2, 0), (3, 0), (1, 0)].into_iter().collect();
        let ka: Vec<u64> = a.keys().copied().collect();
        let kb: Vec<u64> = b.keys().copied().collect();
        assert_eq!(ka, kb);
    }
}
