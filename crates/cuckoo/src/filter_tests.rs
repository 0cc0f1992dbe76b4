//! Differential tests: [`CuckooFilter`], which keeps only the multiset of
//! (fingerprint, bucket pair) entries, against a plain cuckoo filter with
//! cells, kick-out relocation and a linear overflow stash. Every
//! `contains`, `remove` and `len` answer must agree.

#![expect(clippy::disallowed_methods, reason = "fixed-seed test streams")]

use sim_core::SimRng;

use crate::filter::{SEED_ALT, SEED_FP, SEED_IDX};
use crate::{metro_mix, CuckooFilter};

/// Kick steps before an insert gives up and stashes its last victim.
const MAX_KICKS: usize = 500;

/// The reference: a cuckoo filter with physical cells, a random-walk kick
/// chain and an overflow stash that every probe scans in order. `remove`
/// takes a random matching bucket when both hold the fingerprint.
struct Linear {
    cells: Vec<u16>,
    bucket_count: usize,
    slots: usize,
    fp_mask: u16,
    len: usize,
    stash: Vec<(usize, u16)>,
    rng: SimRng,
}

impl Linear {
    fn new(bucket_count: usize, slots: usize, fp_bits: u32) -> Self {
        Self {
            cells: vec![0; bucket_count * slots],
            bucket_count,
            slots,
            fp_mask: if fp_bits == 16 {
                u16::MAX
            } else {
                (1u16 << fp_bits) - 1
            },
            len: 0,
            stash: Vec::new(),
            rng: SimRng::new(0xC0C0_0F11),
        }
    }

    fn fingerprint(&self, key: u64) -> u16 {
        let fp = (metro_mix(key, SEED_FP) as u16) & self.fp_mask;
        if fp == 0 {
            1
        } else {
            fp
        }
    }

    fn index1(&self, key: u64) -> usize {
        (metro_mix(key, SEED_IDX) % self.bucket_count as u64) as usize
    }

    fn alt_index(&self, index: usize, fp: u16) -> usize {
        let h = (metro_mix(u64::from(fp), SEED_ALT) % self.bucket_count as u64) as usize;
        (h + self.bucket_count - index) % self.bucket_count
    }

    fn bucket(&self, index: usize) -> &[u16] {
        &self.cells[index * self.slots..(index + 1) * self.slots]
    }

    fn try_place(&mut self, index: usize, fp: u16) -> bool {
        let slots = self.slots;
        for cell in &mut self.cells[index * slots..(index + 1) * slots] {
            if *cell == 0 {
                *cell = fp;
                return true;
            }
        }
        false
    }

    fn insert(&mut self, key: u64) {
        let fp = self.fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.alt_index(i1, fp);
        self.len += 1;
        if self.try_place(i1, fp) || self.try_place(i2, fp) {
            return;
        }
        let mut index = if self.rng.chance(0.5) { i1 } else { i2 };
        let mut fp = fp;
        for _ in 0..MAX_KICKS {
            let victim_slot = self.rng.gen_index(self.slots);
            std::mem::swap(&mut fp, &mut self.cells[index * self.slots + victim_slot]);
            index = self.alt_index(index, fp);
            if self.try_place(index, fp) {
                return;
            }
        }
        self.stash.push((index, fp));
    }

    fn contains(&self, key: u64) -> bool {
        let fp = self.fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.alt_index(i1, fp);
        self.bucket(i1).contains(&fp)
            || self.bucket(i2).contains(&fp)
            || self
                .stash
                .iter()
                .any(|&(i, f)| f == fp && (i == i1 || i == i2))
    }

    fn remove(&mut self, key: u64) -> bool {
        let fp = self.fingerprint(key);
        let i1 = self.index1(key);
        let i2 = self.alt_index(i1, fp);
        let in1 = self.bucket(i1).contains(&fp);
        let in2 = i2 != i1 && self.bucket(i2).contains(&fp);
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
                let Some(pos) = self
                    .stash
                    .iter()
                    .position(|&(i, f)| f == fp && (i == i1 || i == i2))
                else {
                    return false;
                };
                self.stash.swap_remove(pos);
                self.len -= 1;
                return true;
            }
        };
        let slots = self.slots;
        let bucket = &mut self.cells[target * slots..(target + 1) * slots];
        let Some(cell) = bucket.iter_mut().find(|c| **c == fp) else {
            return false;
        };
        *cell = 0;
        self.len -= 1;
        true
    }

    fn clear(&mut self) {
        self.cells.fill(0);
        self.stash.clear();
        self.len = 0;
    }

    /// Whether one fingerprint sits in the stash under both of its buckets:
    /// copies of one entry that the kick chain scattered, which the model
    /// must still count as one multiset entry.
    fn stash_holds_both_buckets(&self) -> bool {
        self.stash.iter().any(|&(b, fp)| {
            let alt = self.alt_index(b, fp);
            alt != b && self.stash.iter().any(|&(o, f)| f == fp && o == alt)
        })
    }
}

/// Operation mix, in percent: the rest of the draws are `contains`.
const CLEAR: u64 = 1;
const INSERT: u64 = 40;
const REMOVE: u64 = 35;

/// Ops between two sweeps that compare `contains` over a whole key set.
const SWEEP_EVERY: usize = 64;

/// Asserts that both filters answer `contains` alike for every key.
fn sweep(fast: &CuckooFilter, slow: &Linear, keys: impl Iterator<Item = u64>, ctx: &str) {
    for key in keys {
        assert_eq!(
            fast.contains(key),
            slow.contains(key),
            "sweep contains {key}: {ctx}"
        );
    }
}

/// Drives both filters with one seeded op sequence over a key universe
/// small enough that duplicates and fingerprint collisions are common,
/// comparing every answer and `len` after every op, and `contains` over
/// the whole universe every [`SWEEP_EVERY`] ops. Returns whether the stash
/// ever held a fingerprint under both buckets.
fn drive(buckets: usize, slots: usize, fp_bits: u32, seed: u64, ops: usize) -> bool {
    let mut fast = CuckooFilter::new(buckets, slots, fp_bits);
    let mut slow = Linear::new(buckets, slots, fp_bits);
    let mut rng = SimRng::new(seed);
    let universe = (buckets * slots * 3) as u64;
    let mut both_buckets = false;
    for step in 0..ops {
        let key = rng.gen_range(universe);
        let roll = rng.gen_range(100);
        let ctx = format!("{buckets}x{slots}, {fp_bits}-bit, seed {seed}, step {step}, key {key}");
        if roll < CLEAR {
            fast.clear();
            slow.clear();
        } else if roll < CLEAR + INSERT {
            fast.insert(key);
            slow.insert(key);
        } else if roll < CLEAR + INSERT + REMOVE {
            assert_eq!(fast.remove(key), slow.remove(key), "remove: {ctx}");
        } else {
            assert_eq!(fast.contains(key), slow.contains(key), "contains: {ctx}");
        }
        assert_eq!(fast.len(), slow.len, "len: {ctx}");
        if step % SWEEP_EVERY == 0 {
            sweep(&fast, &slow, 0..universe, &ctx);
        }
        both_buckets = both_buckets || slow.stash_holds_both_buckets();
    }
    both_buckets
}

#[test]
fn tiny_overflowing_geometries_match_linear_stash() {
    for (buckets, slots) in [(4, 2), (8, 4)] {
        for fp_bits in [4, 6, 8] {
            let mut both_buckets = false;
            for seed in [1, 2, 3] {
                both_buckets |= drive(buckets, slots, fp_bits, seed, 3_000);
            }
            assert!(
                both_buckets,
                "{buckets}x{slots}, {fp_bits}-bit: no fingerprint reached the stash under both buckets"
            );
        }
    }
}

#[test]
fn odd_geometries_match_linear_stash() {
    // One bucket (both candidates coincide), a prime bucket count, and
    // 16-bit fingerprints (the full-width mask).
    for (buckets, slots, fp_bits) in [(1, 2, 4), (7, 3, 5), (5, 2, 16)] {
        drive(buckets, slots, fp_bits, 7, 2_000);
    }
}

#[test]
fn paper_geometries_match_linear_stash() {
    // The PRT and FT shapes, driven past capacity into a large stash.
    for (buckets, slots, fp_bits) in [(125, 4, 13), (1000, 2, 11)] {
        drive(buckets, slots, fp_bits, 11, 4_000);
    }
}

/// Drives both filters with the key stream Trans-FW's tables see under
/// `vpn_mask_bits = 3`: pages arrive in runs of 8 that share the key
/// `vpn >> 3`, so a group's later copies kick out copies of their own
/// fingerprint. After each insert comes a `remove` or `contains` of an
/// inserted key, or a `contains` of a random one. Every answer and `len`
/// are compared after every op, and `contains` over every key the stream
/// has inserted every [`SWEEP_EVERY`] ops. Returns the number of stored
/// fingerprints and the model's final digest.
fn drive_page_groups(
    buckets: usize,
    slots: usize,
    fp_bits: u32,
    seed: u64,
    groups: u64,
) -> (usize, u64) {
    let mut fast = CuckooFilter::new(buckets, slots, fp_bits);
    let mut slow = Linear::new(buckets, slots, fp_bits);
    let mut rng = SimRng::new(seed);
    // One entry per stored copy, so a `remove` always has a copy to take.
    let mut stored: Vec<u64> = Vec::new();
    // Every key inserted so far, once per group.
    let mut seen: Vec<u64> = Vec::new();
    let mut ops = 0;
    for group in 0..groups {
        let base = rng.gen_range(1 << 20) << 3;
        seen.push(base >> 3);
        for vpn in base..base + 8 {
            let key = vpn >> 3;
            let ctx =
                format!("{buckets}x{slots}, {fp_bits}-bit, seed {seed}, group {group}, vpn {vpn}");
            fast.insert(key);
            slow.insert(key);
            stored.push(key);
            let roll = rng.gen_range(100);
            let pick = rng.gen_index(stored.len());
            if roll < 20 {
                let old = stored.swap_remove(pick);
                assert!(slow.remove(old), "reference lost {old}: {ctx}");
                assert!(fast.remove(old), "remove {old}: {ctx}");
            } else if roll < 70 {
                let old = stored[pick];
                assert!(slow.contains(old), "reference lost {old}: {ctx}");
                assert!(fast.contains(old), "contains {old}: {ctx}");
            } else {
                let probe = rng.gen_range(1 << 20);
                assert_eq!(
                    fast.contains(probe),
                    slow.contains(probe),
                    "contains {probe}: {ctx}"
                );
            }
            assert_eq!(fast.len(), slow.len, "len: {ctx}");
            ops += 1;
            if ops % SWEEP_EVERY == 0 {
                sweep(&fast, &slow, seen.iter().copied(), &ctx);
            }
        }
    }
    (slow.len, fast.state_digest())
}

#[test]
fn page_group_streams_match_linear_stash() {
    // The PRT and FT shapes, and 3 buckets, where many keys have both
    // candidate buckets equal; each driven past 3x its capacity.
    for (buckets, slots, fp_bits, groups) in
        [(125, 4, 13, 400), (1000, 2, 11, 1200), (3, 2, 6, 300)]
    {
        let (len, _) = drive_page_groups(buckets, slots, fp_bits, 3, groups);
        assert!(
            len > 3 * buckets * slots,
            "{buckets}x{slots}: only {len} stored"
        );
    }
}

#[test]
fn page_group_stream_digest_is_pinned() {
    // The FT shape, so checkpoint digests cannot drift silently.
    let (_, digest) = drive_page_groups(1000, 2, 11, 9, 500);
    assert_eq!(digest, 0x9617_c678_c8c1_2232);
}
