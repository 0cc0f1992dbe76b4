//! Chunked, VPN-indexed storage for per-page and per-radix-node state.

use std::collections::BTreeMap;
use std::fmt;

/// Keys per chunk, as a shift: a chunk covers 512 consecutive keys.
const CHUNK_BITS: u32 = 9;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
const SLOT_MASK: u64 = (1 << CHUNK_BITS) - 1;

/// One 512-key run of slots and the number of them that are occupied.
#[derive(Clone)]
struct Chunk<T> {
    live: u32,
    slots: Box<[Option<T>]>,
}

impl<T> Chunk<T> {
    fn new() -> Self {
        Self {
            live: 0,
            slots: std::iter::repeat_with(|| None).take(CHUNK_LEN).collect(),
        }
    }
}

/// An ordered map from `u64` keys (VPNs, or radix-node prefixes) that
/// indexes a 512-slot chunk by the key's low 9 bits.
///
/// Chunks live in a `BTreeMap` keyed by `key >> 9`, so a lookup is one
/// short chunk search plus an array index, and memory is bounded by the
/// touched 512-key chunks rather than by the largest key. A chunk is freed
/// when its last entry is removed. Iteration is in ascending key order, the
/// same order as a `BTreeMap<u64, T>` holding the same entries.
///
/// # Examples
///
/// ```
/// use ptw::VpnMap;
///
/// let mut m = VpnMap::new();
/// m.insert(513, 'b');
/// m.insert(7, 'a');
/// *m.get_or_insert_with(u64::MAX, || 'x') = 'z';
/// assert_eq!(m.get(7), Some(&'a'));
/// assert_eq!(m.iter().map(|(k, _)| k).collect::<Vec<_>>(), [7, 513, u64::MAX]);
/// assert_eq!(m.chunk_count(), 3);
/// assert_eq!(m.remove(513), Some('b'));
/// assert_eq!(m.chunk_count(), 2);
/// ```
#[derive(Clone)]
pub struct VpnMap<T> {
    chunks: BTreeMap<u64, Chunk<T>>,
    len: usize,
}

impl<T> Default for VpnMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> VpnMap<T> {
    /// Creates an empty map; no chunk is allocated until the first insert.
    pub fn new() -> Self {
        Self {
            chunks: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated 512-key chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    #[inline]
    fn slot(key: u64) -> usize {
        (key & SLOT_MASK) as usize
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        self.chunks.get(&(key >> CHUNK_BITS))?.slots[Self::slot(key)].as_ref()
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.chunks.get_mut(&(key >> CHUNK_BITS))?.slots[Self::slot(key)].as_mut()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The value at `key`, inserting `f()` first if the key is absent.
    pub fn get_or_insert_with(&mut self, key: u64, f: impl FnOnce() -> T) -> &mut T {
        let chunk = self
            .chunks
            .entry(key >> CHUNK_BITS)
            .or_insert_with(Chunk::new);
        let slot = &mut chunk.slots[Self::slot(key)];
        if slot.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        slot.get_or_insert_with(f)
    }

    /// Stores `value` at `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let chunk = self
            .chunks
            .entry(key >> CHUNK_BITS)
            .or_insert_with(Chunk::new);
        let old = chunk.slots[Self::slot(key)].replace(value);
        if old.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value at `key`, freeing its chunk when it
    /// was the chunk's last entry.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let index = key >> CHUNK_BITS;
        let chunk = self.chunks.get_mut(&index)?;
        let old = chunk.slots[Self::slot(key)].take()?;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 {
            self.chunks.remove(&index);
        }
        Some(old)
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.chunks.iter().flat_map(|(&index, chunk)| {
            chunk
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| v.as_ref().map(|v| ((index << CHUNK_BITS) | i as u64, v)))
        })
    }

    /// Entries in ascending key order, with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> + '_ {
        self.chunks.iter_mut().flat_map(|(&index, chunk)| {
            chunk
                .slots
                .iter_mut()
                .enumerate()
                .filter_map(move |(i, v)| v.as_mut().map(|v| ((index << CHUNK_BITS) | i as u64, v)))
        })
    }
}

/// Prints like the `BTreeMap` it replaces: `{key: value, ...}` in key order.
impl<T: fmt::Debug> fmt::Debug for VpnMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_keys_allocate_one_chunk_each_and_free_on_drain() {
        let mut m = VpnMap::new();
        assert_eq!(m.insert(1 << 40, 1u32), None);
        assert_eq!(m.chunk_count(), 1);
        assert_eq!(m.insert(u64::MAX, 2), None);
        assert_eq!(m.chunk_count(), 2);
        assert_eq!(m.insert(u64::MAX, 3), Some(2), "overwrite keeps the chunk");
        assert_eq!((m.len(), m.chunk_count()), (2, 2));
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            [(1 << 40, &1), (u64::MAX, &3)]
        );
        assert_eq!(m.remove(1 << 40), Some(1));
        assert_eq!(m.remove(1 << 40), None);
        assert_eq!(m.remove(u64::MAX), Some(3));
        assert!(m.is_empty());
        assert_eq!(m.chunk_count(), 0);
    }

    #[test]
    fn debug_matches_btreemap() {
        let mut m = VpnMap::new();
        let mut b = BTreeMap::new();
        for k in [9u64, 512, 3, 1 << 33] {
            m.insert(k, k * 2);
            b.insert(k, k * 2);
        }
        assert_eq!(format!("{m:?}"), format!("{b:?}"));
    }
}
