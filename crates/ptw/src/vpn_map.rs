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

/// Chunk indices below this bound (keys below 2^24, the same bound as
/// `SharingProfile`'s dense VPN index) are found by direct index into a
/// vector; chunks above it live in a `BTreeMap`.
const DENSE_CHUNKS: u64 = 1 << 15;

/// The allocated chunks of a [`VpnMap`], by chunk index (`key >> 9`).
#[derive(Clone)]
struct ChunkDir<T> {
    /// Chunks `0..DENSE_CHUNKS`, by index; grown on demand.
    dense: Vec<Option<Chunk<T>>>,
    /// Allocated chunks in `dense`.
    dense_count: usize,
    /// Chunks at or above `DENSE_CHUNKS`.
    sparse: BTreeMap<u64, Chunk<T>>,
}

impl<T> ChunkDir<T> {
    fn count(&self) -> usize {
        self.dense_count + self.sparse.len()
    }

    #[inline]
    fn get(&self, index: u64) -> Option<&Chunk<T>> {
        if index < DENSE_CHUNKS {
            self.dense.get(index as usize)?.as_ref()
        } else {
            self.sparse.get(&index)
        }
    }

    #[inline]
    fn get_mut(&mut self, index: u64) -> Option<&mut Chunk<T>> {
        if index < DENSE_CHUNKS {
            self.dense.get_mut(index as usize)?.as_mut()
        } else {
            self.sparse.get_mut(&index)
        }
    }

    /// The chunk at `index`, allocated if absent.
    fn get_or_insert(&mut self, index: u64) -> &mut Chunk<T> {
        if index >= DENSE_CHUNKS {
            return self.sparse.entry(index).or_insert_with(Chunk::new);
        }
        let i = index as usize;
        if i >= self.dense.len() {
            self.dense.resize_with(i + 1, || None);
        }
        let entry = &mut self.dense[i];
        if entry.is_none() {
            self.dense_count += 1;
        }
        entry.get_or_insert_with(Chunk::new)
    }

    fn free(&mut self, index: u64) {
        if index >= DENSE_CHUNKS {
            self.sparse.remove(&index);
        } else if let Some(entry) = self.dense.get_mut(index as usize) {
            if entry.take().is_some() {
                self.dense_count -= 1;
            }
        }
    }

    /// Allocated chunks in ascending index order.
    fn iter(&self) -> impl Iterator<Item = (u64, &Chunk<T>)> + '_ {
        let dense = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (i as u64, c)));
        dense.chain(self.sparse.iter().map(|(&i, c)| (i, c)))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut Chunk<T>)> + '_ {
        let dense = self
            .dense
            .iter_mut()
            .enumerate()
            .filter_map(|(i, c)| c.as_mut().map(|c| (i as u64, c)));
        dense.chain(self.sparse.iter_mut().map(|(&i, c)| (i, c)))
    }
}

/// An ordered map from `u64` keys (VPNs, or radix-node prefixes) that
/// indexes a 512-slot chunk by the key's low 9 bits.
///
/// A chunk of keys below 2^24 is found by direct index into a vector that
/// grows to the highest such chunk touched; a chunk above that bound by a
/// `BTreeMap` search keyed by `key >> 9`. So dense workload VPNs cost one
/// array index, and memory is bounded by the touched 512-key chunks (plus
/// one empty vector slot per untouched chunk below the highest dense one)
/// rather than by the largest key. A chunk is freed when its last entry is
/// removed. Iteration is in ascending key order, the same order as a
/// `BTreeMap<u64, T>` holding the same entries.
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
    chunks: ChunkDir<T>,
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
            chunks: ChunkDir {
                dense: Vec::new(),
                dense_count: 0,
                sparse: BTreeMap::new(),
            },
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
        self.chunks.count()
    }

    #[inline]
    fn slot(key: u64) -> usize {
        (key & SLOT_MASK) as usize
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&T> {
        self.chunks.get(key >> CHUNK_BITS)?.slots[Self::slot(key)].as_ref()
    }

    /// Mutable access to the value at `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.chunks.get_mut(key >> CHUNK_BITS)?.slots[Self::slot(key)].as_mut()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The value at `key`, inserting `f()` first if the key is absent.
    pub fn get_or_insert_with(&mut self, key: u64, f: impl FnOnce() -> T) -> &mut T {
        let chunk = self.chunks.get_or_insert(key >> CHUNK_BITS);
        let slot = &mut chunk.slots[Self::slot(key)];
        if slot.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        slot.get_or_insert_with(f)
    }

    /// Stores `value` at `key`, returning the value it replaced.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        let chunk = self.chunks.get_or_insert(key >> CHUNK_BITS);
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
        let chunk = self.chunks.get_mut(index)?;
        let old = chunk.slots[Self::slot(key)].take()?;
        chunk.live -= 1;
        self.len -= 1;
        if chunk.live == 0 {
            self.chunks.free(index);
        }
        Some(old)
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.chunks.iter().flat_map(|(index, chunk)| {
            chunk
                .slots
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| v.as_ref().map(|v| ((index << CHUNK_BITS) | i as u64, v)))
        })
    }

    /// Entries in ascending key order, with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> + '_ {
        self.chunks.iter_mut().flat_map(|(index, chunk)| {
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
    fn keys_either_side_of_the_dense_cutoff_order_and_free() {
        let cutoff = DENSE_CHUNKS << CHUNK_BITS;
        let mut m = VpnMap::new();
        for k in [cutoff, cutoff - 1, 3] {
            m.insert(k, k);
        }
        assert_eq!((m.chunks.dense_count, m.chunks.sparse.len()), (2, 1));
        assert_eq!(
            m.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [3, cutoff - 1, cutoff]
        );
        assert_eq!(m.remove(cutoff - 1), Some(cutoff - 1));
        assert_eq!(m.remove(cutoff), Some(cutoff));
        assert_eq!((m.chunks.dense_count, m.chunks.sparse.len()), (1, 0));
        assert_eq!(m.chunk_count(), 1);
        assert_eq!(m.get(cutoff - 1), None);
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
