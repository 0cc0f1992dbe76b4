//! Victim selection for oversubscribed GPU memories.
//!
//! When a GPU's resident footprint exceeds its configured capacity the
//! memory system must pick pages to evict. [`EvictionEngine`] tracks
//! per-GPU residency and recency (fed by the same [`OwnershipTransaction`]
//! stream the directory emits, so it can never disagree with the
//! authoritative placement for long) and ranks victims under a pluggable
//! [`EvictPolicy`]:
//!
//! * **LRU** — the page with the oldest touch stamp goes first;
//! * **access counter** — the page with the least directory heat
//!   (fault + remote-access counters) goes first, recency breaking ties.
//!
//! Selection never names a *pinned* page (one with a PRT-pending fault or
//! an in-flight forwarded walk against it) and, while the thrash gate is
//! engaged, also protects the hottest `protect_hot` pages — the pinned
//! working set that graceful degradation keeps resident.
//!
//! The engine is deterministic: ties break on ascending VPN, maps iterate
//! in sorted order, and no randomness is drawn anywhere.

use std::collections::{BTreeMap, BTreeSet};

use ptw::GpuId;
use sim_core::checkpoint::StateDigest;

use crate::directory::PageDirectory;
use crate::policy::{OwnershipTransaction, TxnKind};

/// Which victim-selection policy the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictPolicy {
    /// Evict the least-recently-touched resident page.
    #[default]
    Lru,
    /// Evict the page with the least directory heat (fault plus
    /// remote-access counters), least-recent touch breaking ties.
    AccessCounter,
}

impl EvictPolicy {
    /// Short stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            EvictPolicy::Lru => "lru",
            EvictPolicy::AccessCounter => "access-counter",
        }
    }
}

/// What one victim selection produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimPick {
    /// The chosen victim VPN, or `None` when every candidate is pinned or
    /// protected — the caller degrades gracefully instead of evicting.
    pub victim: Option<u64>,
    /// Candidates skipped because they were pinned.
    pub pinned_skipped: u64,
}

/// Per-GPU residency/recency tracker and victim selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionEngine {
    policy: EvictPolicy,
    /// Per GPU: resident VPN → last-touch cycle.
    resident: Vec<BTreeMap<u64, u64>>,
}

impl EvictionEngine {
    /// Creates an empty engine for `gpus` GPUs under `policy`.
    pub fn new(policy: EvictPolicy, gpus: GpuId) -> Self {
        Self {
            policy,
            resident: vec![BTreeMap::new(); usize::from(gpus)],
        }
    }

    /// The configured victim-selection policy.
    pub fn policy(&self) -> EvictPolicy {
        self.policy
    }

    /// Resident pages currently tracked on `gpu` (the capacity measure).
    pub fn resident_count(&self, gpu: GpuId) -> usize {
        self.resident.get(usize::from(gpu)).map_or(0, BTreeMap::len)
    }

    /// Whether `vpn` is tracked as resident on `gpu`.
    pub fn is_tracked(&self, gpu: GpuId, vpn: u64) -> bool {
        self.resident
            .get(usize::from(gpu))
            .is_some_and(|m| m.contains_key(&vpn))
    }

    /// Marks `vpn` resident on `gpu` as of `now` (idempotent; refreshes the
    /// touch stamp).
    pub fn note_resident(&mut self, gpu: GpuId, vpn: u64, now: u64) {
        if let Some(m) = self.resident.get_mut(usize::from(gpu)) {
            m.insert(vpn, now);
        }
    }

    /// Refreshes `vpn`'s touch stamp on `gpu` if it is tracked.
    pub fn note_touch(&mut self, gpu: GpuId, vpn: u64, now: u64) {
        if let Some(m) = self.resident.get_mut(usize::from(gpu)) {
            if let Some(t) = m.get_mut(&vpn) {
                *t = now;
            }
        }
    }

    /// Drops `vpn` from `gpu`'s residency tracking.
    pub fn note_evicted(&mut self, gpu: GpuId, vpn: u64) {
        if let Some(m) = self.resident.get_mut(usize::from(gpu)) {
            m.remove(&vpn);
        }
    }

    /// Clears `gpu`'s tracking entirely (component-failure eviction).
    pub fn on_gpu_offline(&mut self, gpu: GpuId) {
        if let Some(m) = self.resident.get_mut(usize::from(gpu)) {
            m.clear();
        }
    }

    /// Replaces `gpu`'s tracked set with `vpns`, all stamped `now` (warm
    /// placement sync at the start of a run, or a rejoin resync).
    pub fn sync_residency(&mut self, gpu: GpuId, vpns: &[u64], now: u64) {
        if let Some(m) = self.resident.get_mut(usize::from(gpu)) {
            m.clear();
            for &v in vpns {
                m.insert(v, now);
            }
        }
    }

    /// Mirrors one committed ownership transaction into the tracker: the
    /// destination gains residency, invalidated holders and a moved-out
    /// source lose it. Remote maps consume no device memory and are not
    /// tracked.
    pub fn apply_txn(&mut self, txn: &OwnershipTransaction, now: u64) {
        match txn.kind {
            TxnKind::Migrate | TxnKind::Collapse | TxnKind::Prefetch => {
                for &g in &txn.invalidate {
                    if g != txn.dest {
                        self.note_evicted(g, txn.vpn);
                    }
                }
                if let Some(s) = txn.source.gpu() {
                    if s != txn.dest {
                        self.note_evicted(s, txn.vpn);
                    }
                }
                self.note_resident(txn.dest, txn.vpn, now);
            }
            TxnKind::Replicate => {
                self.note_resident(txn.dest, txn.vpn, now);
            }
            TxnKind::RemoteMap => {}
            TxnKind::AlreadyResident => {
                self.note_touch(txn.dest, txn.vpn, now);
            }
        }
    }

    /// Picks the coldest of `gpu`'s resident pages as victim, skipping
    /// `pinned` pages entirely and protecting the hottest `protect_hot`
    /// candidates (0 protects nothing). Returns `None` as the victim when
    /// no candidate survives the exemptions.
    ///
    /// One pass over the residency map: it keeps the smallest rank key
    /// `(heat, touch, vpn)` and counts the unpinned candidates. The key
    /// includes the VPN, so the order is total and the pick is the first
    /// element a full sort of the candidates would give. Only the coldest
    /// page is ever needed, so nothing is sorted.
    pub fn select_victim(
        &self,
        gpu: GpuId,
        dir: &PageDirectory,
        pinned: &BTreeSet<u64>,
        protect_hot: usize,
    ) -> VictimPick {
        let Some(m) = self.resident.get(usize::from(gpu)) else {
            return VictimPick {
                victim: None,
                pinned_skipped: 0,
            };
        };
        let mut pinned_skipped = 0u64;
        let mut candidates = 0usize;
        // (heat, touch) of the coldest candidate so far, and its VPN. The
        // map iterates in ascending VPN order, so replacing only on a
        // strictly colder key keeps the smallest VPN among equals.
        let mut coldest: Option<((u64, u64), u64)> = None;
        for (&vpn, &touch) in m.iter() {
            if pinned.contains(&vpn) {
                pinned_skipped += 1;
                continue;
            }
            candidates += 1;
            let key = (self.heat(dir, vpn), touch);
            if coldest.is_none_or(|(best, _)| key < best) {
                coldest = Some((key, vpn));
            }
        }
        let victim = coldest
            .filter(|_| candidates > protect_hot)
            .map(|(_, vpn)| vpn);
        VictimPick {
            victim,
            pinned_skipped,
        }
    }

    /// `vpn`'s rank heat under the engine's policy: 0 for LRU, the sum of
    /// the directory's fault and remote-access counters otherwise.
    fn heat(&self, dir: &PageDirectory, vpn: u64) -> u64 {
        match self.policy {
            EvictPolicy::Lru => 0,
            EvictPolicy::AccessCounter => dir.page(vpn).map_or(0, |p| {
                let f: u64 = p.fault_counts.iter().map(|&c| u64::from(c)).sum();
                let a: u64 = p.access_counts.iter().map(|&c| u64::from(c)).sum();
                f + a
            }),
        }
    }

    /// A 64-bit digest of the tracked residency/recency state for epoch
    /// checkpoints.
    pub fn state_digest(&self) -> u64 {
        let Self {
            policy: _, // fixed at construction from the run config
            resident,
        } = self;
        let mut d = StateDigest::new();
        for m in resident {
            for (&vpn, &touch) in m.iter() {
                d.mix(vpn + 1).mix(touch);
            }
            d.mix(u64::MAX); // per-GPU separator
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use ptw::Location;
    use sim_core::SimRng;

    fn pins(vpns: &[u64]) -> BTreeSet<u64> {
        let mut s = BTreeSet::new();
        for &v in vpns {
            s.insert(v);
        }
        s
    }

    #[test]
    fn lru_picks_oldest_touch_with_vpn_tiebreak() {
        let dir = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 2);
        e.note_resident(0, 5, 100);
        e.note_resident(0, 9, 50);
        e.note_resident(0, 3, 50);
        let pick = e.select_victim(0, &dir, &BTreeSet::new(), 0);
        assert_eq!(pick.victim, Some(3), "oldest touch; vpn breaks the tie");
        e.note_touch(0, 3, 200);
        let pick = e.select_victim(0, &dir, &BTreeSet::new(), 0);
        assert_eq!(pick.victim, Some(9), "touch refreshed 3's recency");
    }

    /// The sort-based pick `select_victim` used to make: rank every
    /// unpinned candidate, sort them all, take the first. The reference
    /// the one-pass pick must reproduce.
    fn sorted_pick(
        e: &EvictionEngine,
        gpu: GpuId,
        dir: &PageDirectory,
        pinned: &BTreeSet<u64>,
        protect_hot: usize,
    ) -> VictimPick {
        let mut pinned_skipped = 0u64;
        let mut candidates: Vec<(u64, u64, u64)> = Vec::new();
        for (&vpn, &touch) in e.resident[usize::from(gpu)].iter() {
            if pinned.contains(&vpn) {
                pinned_skipped += 1;
                continue;
            }
            candidates.push((e.heat(dir, vpn), touch, vpn));
        }
        candidates.sort_unstable();
        let victim = if candidates.len() > protect_hot {
            candidates.first().map(|&(_, _, vpn)| vpn)
        } else {
            None
        };
        VictimPick {
            victim,
            pinned_skipped,
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "fixed-seed test stream")]
    fn one_pass_pick_matches_the_sorted_reference() {
        let mut rng = SimRng::new(0xE71C_7001);
        let (mut evicted, mut declined) = (0, 0);
        for round in 0..400 {
            let policy = if round % 2 == 0 {
                EvictPolicy::Lru
            } else {
                EvictPolicy::AccessCounter
            };
            let mut dir =
                PageDirectory::with_policy(3, PolicyKind::DelayedMigration { threshold: 1_000 });
            let mut e = EvictionEngine::new(policy, 3);
            let universe = 1 + rng.gen_range(40);
            for vpn in 0..universe {
                for gpu in 0..3 {
                    if rng.chance(0.5) {
                        // Touch stamps from a small range: recency ties are
                        // common, so the VPN tie-break is exercised.
                        e.note_resident(gpu, vpn, rng.gen_range(8));
                    }
                }
                // Directory heat, also from a small range.
                for _ in 0..rng.gen_range(4) {
                    let gpu = rng.gen_range(3) as GpuId;
                    if rng.chance(0.5) {
                        let _ = dir.resolve_fault(vpn, gpu, false);
                    } else {
                        let _ = dir.record_remote_access(vpn, gpu);
                    }
                }
            }
            let mut pinned = BTreeSet::new();
            for vpn in 0..universe {
                if rng.chance(0.2) {
                    pinned.insert(vpn);
                }
            }
            for gpu in 0..3 {
                let protect_hot = rng.gen_index(e.resident_count(gpu) + 2);
                let pick = e.select_victim(gpu, &dir, &pinned, protect_hot);
                assert_eq!(
                    pick,
                    sorted_pick(&e, gpu, &dir, &pinned, protect_hot),
                    "round {round}, gpu {gpu}, {policy:?}, protect_hot {protect_hot}"
                );
                if pick.victim.is_some() {
                    evicted += 1;
                } else {
                    declined += 1;
                }
            }
        }
        assert!(
            evicted > 100 && declined > 100,
            "{evicted} picks, {declined} declines"
        );
    }

    #[test]
    fn pinned_pages_are_never_selected() {
        let dir = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 2);
        e.note_resident(0, 5, 10);
        e.note_resident(0, 9, 20);
        let pick = e.select_victim(0, &dir, &pins(&[5]), 0);
        assert_eq!(pick.victim, Some(9));
        assert_eq!(pick.pinned_skipped, 1);
        let pick = e.select_victim(0, &dir, &pins(&[5, 9]), 0);
        assert_eq!(pick.victim, None, "everything pinned: degrade, don't evict");
        assert_eq!(pick.pinned_skipped, 2);
    }

    #[test]
    fn protect_hot_keeps_the_working_set() {
        let dir = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 2);
        e.note_resident(0, 1, 10);
        e.note_resident(0, 2, 20);
        let pick = e.select_victim(0, &dir, &BTreeSet::new(), 2);
        assert_eq!(pick.victim, None, "both candidates are protected");
        let pick = e.select_victim(0, &dir, &BTreeSet::new(), 1);
        assert_eq!(pick.victim, Some(1), "the colder page is still evictable");
    }

    #[test]
    fn access_counter_prefers_cold_directory_heat() {
        let mut dir =
            PageDirectory::with_policy(2, PolicyKind::DelayedMigration { threshold: 100 });
        let _ = dir.resolve_fault(5, 0, false); // fault heat on 5
        let _ = dir.resolve_fault(5, 1, false);
        let _ = dir.record_remote_access(5, 1);
        dir.place(9, Location::Gpu(0)); // vpn 9: zero heat
        let mut e = EvictionEngine::new(EvictPolicy::AccessCounter, 2);
        e.note_resident(0, 5, 10); // 5 is older by recency...
        e.note_resident(0, 9, 20);
        let pick = e.select_victim(0, &dir, &BTreeSet::new(), 0);
        assert_eq!(pick.victim, Some(9), "...but 9 is colder by heat");
    }

    #[test]
    fn apply_txn_mirrors_ownership_moves() {
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 3);
        e.note_resident(0, 7, 1);
        let migrate = OwnershipTransaction {
            vpn: 7,
            kind: TxnKind::Migrate,
            source: Location::Gpu(0),
            dest: 1,
            invalidate: vec![0],
            ft_remove: Vec::new(),
        };
        e.apply_txn(&migrate, 5);
        assert!(!e.is_tracked(0, 7));
        assert!(e.is_tracked(1, 7));
        let replicate = OwnershipTransaction {
            vpn: 7,
            kind: TxnKind::Replicate,
            source: Location::Gpu(1),
            dest: 2,
            invalidate: Vec::new(),
            ft_remove: Vec::new(),
        };
        e.apply_txn(&replicate, 6);
        assert!(e.is_tracked(1, 7), "source keeps its copy on replicate");
        assert!(e.is_tracked(2, 7));
        let remote_map = OwnershipTransaction {
            vpn: 9,
            kind: TxnKind::RemoteMap,
            source: Location::Gpu(1),
            dest: 0,
            invalidate: Vec::new(),
            ft_remove: Vec::new(),
        };
        e.apply_txn(&remote_map, 7);
        assert!(!e.is_tracked(0, 9), "remote maps consume no device memory");
        assert_eq!(e.resident_count(1), 1);
    }

    #[test]
    fn collapse_with_local_writer_keeps_dest_tracked() {
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 2);
        e.note_resident(0, 7, 1);
        e.note_resident(1, 7, 1);
        // Writer 1 already holds a replica: source == dest == 1.
        let collapse = OwnershipTransaction {
            vpn: 7,
            kind: TxnKind::Collapse,
            source: Location::Gpu(1),
            dest: 1,
            invalidate: vec![0],
            ft_remove: vec![0],
        };
        e.apply_txn(&collapse, 9);
        assert!(!e.is_tracked(0, 7));
        assert!(e.is_tracked(1, 7));
    }

    #[test]
    fn sync_and_offline_reset_tracking() {
        let mut e = EvictionEngine::new(EvictPolicy::Lru, 2);
        e.sync_residency(0, &[1, 2, 3], 0);
        assert_eq!(e.resident_count(0), 3);
        let d0 = e.state_digest();
        e.on_gpu_offline(0);
        assert_eq!(e.resident_count(0), 0);
        assert_ne!(e.state_digest(), d0);
        e.sync_residency(0, &[1, 2, 3], 0);
        assert_eq!(e.state_digest(), d0, "digest is a pure state function");
    }
}
