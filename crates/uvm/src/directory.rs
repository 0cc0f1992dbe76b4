//! The driver's centralised view of page placement.

use std::collections::BTreeSet;

use ptw::{GpuId, Location, VpnMap};
use sim_core::SimError;

use crate::policy::{OwnershipTransaction, PolicyDecision, PolicyKind, TxnKind};

/// One GPU's promotion counters for one page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Heat {
    /// Remote accesses (remote-mapping policy only).
    access: u32,
    /// Far faults (the policy engine's heat signal).
    fault: u32,
}

/// Authoritative placement state of one page.
///
/// The per-GPU access and fault counters live behind accessors: a page
/// whose counters are all zero owns no heap memory, and the counter array
/// is allocated on the first non-zero write. Warm placement therefore
/// costs no allocation per page.
#[derive(Debug, Clone)]
pub struct PageState {
    /// Owner of the authoritative copy.
    pub home: Location,
    /// Bitmask of GPUs holding read replicas (replication policy only).
    pub replicas: u64,
    /// Bitmask of GPUs holding remote mappings (remote-mapping policy only).
    pub remote_maps: u64,
    /// GPUs the counters cover.
    gpus: u16,
    /// Per-GPU counters, `gpus` long once allocated; `None` reads as all
    /// zero. Fault counters reset when the page migrates or the GPU is
    /// evicted.
    counters: Option<Box<[Heat]>>,
}

/// Equal placement and equal counter values, whether or not a page's zero
/// counters are allocated.
impl PartialEq for PageState {
    fn eq(&self, other: &Self) -> bool {
        self.home == other.home
            && self.replicas == other.replicas
            && self.remote_maps == other.remote_maps
            && self.gpus == other.gpus
            && self.counts().eq(other.counts())
    }
}

impl Eq for PageState {}

impl PageState {
    /// A never-touched page: homed on the CPU with zeroed counters.
    pub fn cold(gpu_count: u16) -> Self {
        Self {
            home: Location::Cpu,
            replicas: 0,
            remote_maps: 0,
            gpus: gpu_count,
            counters: None,
        }
    }

    fn heat_of(&self, gpu: GpuId) -> Heat {
        self.counters
            .as_ref()
            .and_then(|c| c.get(gpu as usize))
            .copied()
            .unwrap_or_default()
    }

    /// Remote accesses `gpu` made to this page (remote-mapping policy only).
    pub fn access_count(&self, gpu: GpuId) -> u32 {
        self.heat_of(gpu).access
    }

    /// Far faults `gpu` raised on this page since it last migrated.
    pub fn fault_count(&self, gpu: GpuId) -> u32 {
        self.heat_of(gpu).fault
    }

    /// Every GPU's `(access, fault)` counters, in GPU order.
    pub fn counts(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.gpus).map(|g| {
            let h = self.heat_of(g);
            (h.access, h.fault)
        })
    }

    /// The sum of every GPU's fault and access counters.
    pub fn heat(&self) -> u64 {
        self.counters.as_deref().map_or(0, |c| {
            c.iter()
                .map(|h| u64::from(h.access) + u64::from(h.fault))
                .sum()
        })
    }

    /// `gpu`'s counters, allocating the page's array on first use; `None`
    /// for an out-of-range GPU (a corrupted descriptor has no slot).
    fn heat_mut(&mut self, gpu: GpuId) -> Option<&mut Heat> {
        if gpu >= self.gpus {
            return None;
        }
        let gpus = usize::from(self.gpus);
        self.counters
            .get_or_insert_with(|| vec![Heat::default(); gpus].into_boxed_slice())
            .get_mut(gpu as usize)
    }

    /// Counts one far fault by `gpu`; an out-of-range GPU is ignored.
    pub(crate) fn bump_fault(&mut self, gpu: GpuId) {
        if let Some(h) = self.heat_mut(gpu) {
            h.fault += 1;
        }
    }

    /// Counts one remote access by `gpu` and returns its new count, or
    /// `None` for an out-of-range GPU.
    pub(crate) fn bump_access(&mut self, gpu: GpuId) -> Option<u32> {
        let h = self.heat_mut(gpu)?;
        h.access += 1;
        Some(h.access)
    }

    /// Zeroes every counter, freeing the array.
    fn clear_counters(&mut self) {
        self.counters = None;
    }

    /// Zeroes `gpu`'s counters.
    fn clear_counters_of(&mut self, gpu: GpuId) {
        if let Some(h) = self.counters.as_mut().and_then(|c| c.get_mut(gpu as usize)) {
            *h = Heat::default();
        }
    }

    /// Whether `gpu` holds the page's home, a replica or a remote mapping.
    fn involves(&self, gpu: GpuId) -> bool {
        self.resident_on(gpu) || self.remote_maps & (1 << gpu) != 0
    }

    /// Whether `gpu` holds a resident copy (home or replica).
    pub fn resident_on(&self, gpu: GpuId) -> bool {
        self.home == Location::Gpu(gpu) || self.replicas & (1 << gpu) != 0
    }

    /// Every location holding a resident copy, home first.
    pub fn holders(&self) -> Vec<Location> {
        let mut v = vec![self.home];
        for g in 0..64u16 {
            if self.replicas & (1 << g) != 0 {
                v.push(Location::Gpu(g));
            }
        }
        v
    }
}

/// What [`PageDirectory::evict_gpu`] did, so the memory system can mirror
/// the ownership changes into the host page table, host TLB, FT and the
/// surviving GPUs' local tables. All lists are sorted by VPN so the caller's
/// bookkeeping replays deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Pages whose home moved off the evicted GPU, with the new home
    /// (a surviving replica holder when one exists, else the CPU).
    pub migrated: Vec<(u64, Location)>,
    /// Pages that lost a read replica held by the evicted GPU.
    pub dropped_replicas: Vec<u64>,
    /// Pages that lost a remote mapping held by the evicted GPU.
    pub dropped_remote_maps: Vec<u64>,
    /// Stale remote mappings on *surviving* GPUs that pointed at physical
    /// memory on the evicted GPU and must be shot down.
    pub invalidate: Vec<(u64, GpuId)>,
    /// Pages the eviction *skipped* because they were pinned (a forwarded
    /// walk or PRT-pending fault still in flight). The caller must finish
    /// them individually (see [`PageDirectory::evict_page`]) once the pin
    /// drains, or drop them if ownership moved on in the meantime.
    pub deferred: Vec<u64>,
}

impl EvictionReport {
    /// Whether the eviction touched any state at all.
    pub fn is_empty(&self) -> bool {
        self.migrated.is_empty()
            && self.dropped_replicas.is_empty()
            && self.dropped_remote_maps.is_empty()
            && self.invalidate.is_empty()
            && self.deferred.is_empty()
    }
}

/// Aggregate placement statistics for Figs. 7/23/25.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirectoryStats {
    /// Pages moved between memories.
    pub migrations: u64,
    /// Read replicas created.
    pub replications: u64,
    /// Replica invalidations triggered by writes.
    pub write_invalidations: u64,
    /// Remote mappings created.
    pub remote_maps: u64,
    /// Remote-mapped pages promoted to migrations by the access counter.
    pub promotions: u64,
    /// Cold pages pulled in by the prefetch policy alongside a migration.
    pub prefetches: u64,
}

/// Evicts `gpu`'s copy of page `vpn`, the per-page body of every directory
/// eviction. A replica or remote mapping held by `gpu` is dropped and
/// `gpu`'s access and fault counters for the page are zeroed. A home copy
/// (whose data moves or ceases to exist) is re-owned: the lowest surviving
/// replica is promoted, else the CPU backing copy (always coherent for read
/// replicas) becomes the home again, and the remote mappings on survivors,
/// which now dangle, are reported for shootdown.
fn evict_copy(
    page: &mut PageState,
    vpn: u64,
    gpu: GpuId,
    gpu_count: u16,
    stats: &mut DirectoryStats,
    report: &mut EvictionReport,
) {
    let bit = 1u64 << gpu;
    if page.replicas & bit != 0 {
        page.replicas &= !bit;
        report.dropped_replicas.push(vpn);
    }
    if page.remote_maps & bit != 0 {
        page.remote_maps &= !bit;
        report.dropped_remote_maps.push(vpn);
    }
    page.clear_counters_of(gpu);
    if page.home == Location::Gpu(gpu) {
        let new_home = (0..gpu_count)
            .find(|&g| page.replicas & (1 << g) != 0)
            .map_or(Location::Cpu, |g| {
                page.replicas &= !(1 << g);
                Location::Gpu(g)
            });
        page.home = new_home;
        stats.migrations = stats.migrations.saturating_add(1);
        for g in 0..gpu_count {
            if g != gpu && page.remote_maps & (1 << g) != 0 {
                report.invalidate.push((vpn, g));
            }
        }
        page.remote_maps = 0;
        report.migrated.push((vpn, new_home));
    }
}

/// The centralised page table the UVM driver / host MMU consults: it always
/// knows where every page's valid copies live (§II-A).
///
/// Placement decisions come from the configured [`PolicyKind`]; every
/// ownership change is reported as an [`OwnershipTransaction`] the memory
/// system mirrors atomically.
///
/// Page states are stored in a [`VpnMap`] (512-page chunks indexed by VPN),
/// so a fault resolves with one chunk lookup plus an array index, and every
/// walk over the directory visits pages in ascending VPN order.
///
/// # Examples
///
/// ```
/// use uvm::{PageDirectory, PolicyKind, TxnKind};
/// use ptw::Location;
///
/// let mut dir = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
/// let txn = dir.resolve_fault(42, 1, false);
/// assert_eq!(txn.kind, TxnKind::Migrate);
/// assert_eq!(txn.source, Location::Cpu); // first touch fetches from host
/// assert_eq!(dir.home(42), Location::Gpu(1));
/// ```
#[derive(Debug, Clone)]
pub struct PageDirectory {
    gpu_count: u16,
    kind: PolicyKind,
    pages: VpnMap<PageState>,
    stats: DirectoryStats,
}

impl PageDirectory {
    /// Creates a directory driven by the given placement-policy kind.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_count` is zero or exceeds 64.
    pub fn with_policy(gpu_count: u16, kind: PolicyKind) -> Self {
        assert!((1..=64).contains(&gpu_count), "gpu_count must be 1..=64");
        Self {
            gpu_count,
            kind,
            pages: VpnMap::new(),
            stats: DirectoryStats::default(),
        }
    }

    /// Placement statistics so far.
    pub fn stats(&self) -> DirectoryStats {
        self.stats
    }

    /// Current home of `vpn` (CPU for never-touched pages).
    pub fn home(&self, vpn: u64) -> Location {
        self.pages.get(vpn).map_or(Location::Cpu, |p| p.home)
    }

    /// Whether `gpu` holds a resident copy of `vpn`.
    pub fn is_resident(&self, vpn: u64, gpu: GpuId) -> bool {
        self.pages.get(vpn).is_some_and(|p| p.resident_on(gpu))
    }

    /// Placement state, if the page was ever touched.
    pub fn page(&self, vpn: u64) -> Option<&PageState> {
        self.pages.get(vpn)
    }

    /// Directly places a page (initial/warm-up placement): sets the home
    /// without counting a migration.
    pub fn place(&mut self, vpn: u64, loc: Location) {
        let gpu_count = self.gpu_count;
        let page = self
            .pages
            .get_or_insert_with(vpn, || PageState::cold(gpu_count));
        page.home = loc;
    }

    /// Registers a remote mapping created outside the fault path (Trans-FW
    /// remote supply), so a later migration invalidates it.
    pub fn add_remote_map(&mut self, vpn: u64, gpu: GpuId) {
        let gpu_count = self.gpu_count;
        let page = self
            .pages
            .get_or_insert_with(vpn, || PageState::cold(gpu_count));
        page.remote_maps |= 1 << gpu;
    }

    /// Resolves a far fault raised by `gpu` on `vpn` and returns the
    /// [`OwnershipTransaction`] the memory system must mirror (directory
    /// state is already updated — the transaction is the directive half of
    /// the atomic change).
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range. Event-driven callers that may see
    /// corrupted fault descriptors should use
    /// [`begin_fault_txn`](Self::begin_fault_txn) instead.
    pub fn resolve_fault(&mut self, vpn: u64, gpu: GpuId, is_write: bool) -> OwnershipTransaction {
        self.begin_fault_txn(vpn, gpu, is_write)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`resolve_fault`](Self::resolve_fault): an
    /// out-of-range `gpu` (a corrupted or misrouted fault descriptor)
    /// becomes a [`SimError::Protocol`] instead of a panic, and the
    /// directory state is left untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] when `gpu >= gpu_count`.
    pub fn begin_fault_txn(
        &mut self,
        vpn: u64,
        gpu: GpuId,
        is_write: bool,
    ) -> Result<OwnershipTransaction, SimError> {
        if gpu >= self.gpu_count {
            return Err(SimError::Protocol {
                cycle: 0,
                what: format!(
                    "fault on vpn {vpn} from gpu {gpu} out of range (gpu_count {})",
                    self.gpu_count
                ),
            });
        }
        let gpu_count = self.gpu_count;
        let page = self
            .pages
            .get_or_insert_with(vpn, || PageState::cold(gpu_count));

        if page.resident_on(gpu) && !(is_write && page.replicas != 0) {
            return Ok(OwnershipTransaction {
                vpn,
                kind: TxnKind::AlreadyResident,
                source: Location::Gpu(gpu),
                dest: gpu,
                invalidate: Vec::new(),
                ft_remove: Vec::new(),
            });
        }

        // A genuine far fault: bump the heat counter before consulting the
        // policy, so a threshold of N migrates on the Nth fault.
        page.bump_fault(gpu);
        let decision = self.kind.on_fault(page, gpu, is_write);
        let stats = &mut self.stats;

        Ok(match decision {
            PolicyDecision::Migrate => {
                let source = page.home;
                let mut invalidate: Vec<GpuId> = source.gpu().into_iter().collect();
                for g in 0..gpu_count {
                    if g != gpu && page.remote_maps & (1 << g) != 0 && Some(g) != source.gpu() {
                        invalidate.push(g);
                    }
                }
                page.remote_maps &= 1 << gpu;
                page.home = Location::Gpu(gpu);
                page.clear_counters();
                stats.migrations = stats.migrations.saturating_add(1);
                OwnershipTransaction {
                    vpn,
                    kind: TxnKind::Migrate,
                    source,
                    dest: gpu,
                    invalidate,
                    ft_remove: Vec::new(),
                }
            }
            PolicyDecision::Collapse => {
                // Write to a (possibly replicated) page: invalidate every
                // other copy, the writer becomes the exclusive owner.
                let source = if page.resident_on(gpu) {
                    Location::Gpu(gpu)
                } else {
                    page.home
                };
                let mut invalidate: Vec<GpuId> = Vec::new();
                if let Some(h) = page.home.gpu() {
                    if h != gpu {
                        invalidate.push(h);
                    }
                }
                for g in 0..gpu_count {
                    if g != gpu && page.replicas & (1 << g) != 0 {
                        invalidate.push(g);
                    }
                }
                stats.write_invalidations = stats
                    .write_invalidations
                    .saturating_add(invalidate.len() as u64);
                if source != Location::Gpu(gpu) {
                    stats.migrations = stats.migrations.saturating_add(1);
                }
                page.home = Location::Gpu(gpu);
                page.replicas = 0;
                page.clear_counters();
                // The invalidated copies (minus the data source, whose FT
                // key the migration itself rewrites) still have forwarding
                // entries naming them as owners.
                let ft_remove = invalidate
                    .iter()
                    .copied()
                    .filter(|&v| Some(v) != source.gpu())
                    .collect();
                OwnershipTransaction {
                    vpn,
                    kind: TxnKind::Collapse,
                    source,
                    dest: gpu,
                    invalidate,
                    ft_remove,
                }
            }
            PolicyDecision::Replicate => {
                let source = page.home;
                page.replicas |= 1 << gpu;
                stats.replications = stats.replications.saturating_add(1);
                OwnershipTransaction {
                    vpn,
                    kind: TxnKind::Replicate,
                    source,
                    dest: gpu,
                    invalidate: Vec::new(),
                    ft_remove: Vec::new(),
                }
            }
            PolicyDecision::RemoteMap => {
                let source = page.home;
                page.remote_maps |= 1 << gpu;
                stats.remote_maps = stats.remote_maps.saturating_add(1);
                OwnershipTransaction {
                    vpn,
                    kind: TxnKind::RemoteMap,
                    source,
                    dest: gpu,
                    invalidate: Vec::new(),
                    ft_remove: Vec::new(),
                }
            }
        })
    }

    /// Prefetches a page into `gpu` alongside a demand migration whose data
    /// came `from` some location: eligible pages are *untouched* (no fault
    /// or access history — a page anyone has been using is someone else's
    /// working set) with no replicas or remote mappings, and homed either on
    /// the CPU (cold) or on `from` itself (the tree-prefetch case: the
    /// neighborhood travels with the page that just migrated away from
    /// there).
    ///
    /// Returns the transaction to mirror, or `None` when the page is not
    /// eligible (already on `gpu`, touched, shared, homed elsewhere, or
    /// `gpu` out of range).
    pub fn prefetch_page(
        &mut self,
        vpn: u64,
        gpu: GpuId,
        from: Location,
    ) -> Option<OwnershipTransaction> {
        if gpu >= self.gpu_count {
            return None;
        }
        let gpu_count = self.gpu_count;
        let page = self
            .pages
            .get_or_insert_with(vpn, || PageState::cold(gpu_count));
        if page.home == Location::Gpu(gpu) || page.replicas != 0 || page.remote_maps != 0 {
            return None;
        }
        if page.home != Location::Cpu && page.home != from {
            return None;
        }
        if page.heat() != 0 {
            return None;
        }
        let source = page.home;
        page.home = Location::Gpu(gpu);
        self.stats.prefetches = self.stats.prefetches.saturating_add(1);
        Some(OwnershipTransaction {
            vpn,
            kind: TxnKind::Prefetch,
            source,
            dest: gpu,
            invalidate: source.gpu().into_iter().collect(),
            ft_remove: Vec::new(),
        })
    }

    /// VPNs the configured policy wants prefetched around `vpn` (ascending;
    /// empty for non-prefetching policies).
    pub fn prefetch_neighborhood(&self, vpn: u64) -> Vec<u64> {
        self.kind.prefetch_neighborhood(vpn)
    }

    /// Records one access through a remote mapping; when the access counter
    /// crosses the policy threshold the page is promoted to a migration and
    /// the returned transaction (kind [`TxnKind::Migrate`]) lists the
    /// mappings to invalidate.
    ///
    /// Returns `None` while the page stays put, or under policies that do
    /// not count remote accesses.
    pub fn record_remote_access(&mut self, vpn: u64, gpu: GpuId) -> Option<OwnershipTransaction> {
        let migrate_threshold = self.kind.remote_access_threshold()?;
        // An out-of-range GPU (corrupted descriptor) has no counter slot and
        // can never be promoted; ignore it rather than index out of bounds.
        if gpu >= self.gpu_count {
            return None;
        }
        let stats = &mut self.stats;
        let gpu_count = self.gpu_count;
        let page = self
            .pages
            .get_or_insert_with(vpn, || PageState::cold(gpu_count));
        if page.home == Location::Gpu(gpu) {
            return None;
        }
        let count = page.bump_access(gpu)?;
        if count < migrate_threshold {
            return None;
        }
        // Promote: migrate the page, invalidate every other mapping.
        let source = page.home;
        let mut invalidate: Vec<GpuId> = Vec::new();
        if let Some(h) = source.gpu() {
            invalidate.push(h);
        }
        for g in 0..gpu_count {
            if g != gpu && page.remote_maps & (1 << g) != 0 && Some(g) != source.gpu() {
                invalidate.push(g);
            }
        }
        page.home = Location::Gpu(gpu);
        page.remote_maps = 0;
        page.clear_counters();
        stats.promotions = stats.promotions.saturating_add(1);
        stats.migrations = stats.migrations.saturating_add(1);
        Some(OwnershipTransaction {
            vpn,
            kind: TxnKind::Migrate,
            source,
            dest: gpu,
            invalidate,
            ft_remove: Vec::new(),
        })
    }

    /// Evicts every trace of `gpu` from the directory: pages homed there are
    /// re-owned (the lowest surviving replica holder is promoted, else the
    /// home falls back to the CPU backing copy), its replica and remote-map
    /// bits are cleared everywhere, and its access *and* fault counters
    /// reset — a rejoined GPU must not inherit pre-failure heat. Remote
    /// mappings on *other* GPUs that pointed at the evicted GPU's memory are
    /// reported for shootdown.
    ///
    /// Pages are processed in ascending VPN order, so two runs that reach
    /// this call with identical directory contents produce identical
    /// reports — the property the checkpoint/restore certificate relies on.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn evict_gpu(&mut self, gpu: GpuId) -> EvictionReport {
        self.evict_gpu_pinned(gpu, &BTreeSet::new())
    }

    /// [`evict_gpu`](Self::evict_gpu), but pages in `pins` whose placement
    /// involves the evicted GPU are left untouched and reported in
    /// [`EvictionReport::deferred`] instead. A pinned page has a walk in
    /// flight against its current placement (a forwarded walk borrowing the
    /// GPU's tables, or a PRT-pending fault); migrating its ownership out
    /// from under that walk would let a stale translation retire. The
    /// caller evicts each deferred page via [`evict_page`](Self::evict_page)
    /// once its pin drains.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn evict_gpu_pinned(&mut self, gpu: GpuId, pins: &BTreeSet<u64>) -> EvictionReport {
        assert!(gpu < self.gpu_count, "gpu {gpu} out of range");
        let mut report = EvictionReport::default();
        // VpnMap iterates in ascending VPN order: the report lists pages in
        // the same deterministic order on every run.
        for (vpn, page) in self.pages.iter_mut() {
            if pins.contains(&vpn) && page.involves(gpu) {
                report.deferred.push(vpn);
                continue;
            }
            evict_copy(page, vpn, gpu, self.gpu_count, &mut self.stats, &mut report);
        }
        report
    }

    /// Evicts `gpu`'s copy of a single page — the capacity-eviction
    /// primitive, and the finisher for a pin-deferred recovery eviction.
    /// Exactly the per-page body of [`evict_gpu`](Self::evict_gpu): a
    /// replica or remote mapping is dropped, a home copy is re-owned (the
    /// lowest surviving replica is promoted, else the CPU backing copy),
    /// and dangling remote maps are reported for shootdown.
    ///
    /// Returns `None` when `gpu` holds nothing for `vpn` (e.g. ownership
    /// moved while a deferred eviction waited for its pin to drain).
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn evict_page(&mut self, vpn: u64, gpu: GpuId) -> Option<EvictionReport> {
        assert!(gpu < self.gpu_count, "gpu {gpu} out of range");
        let page = self.pages.get_mut(vpn)?;
        if !page.involves(gpu) {
            return None;
        }
        let mut report = EvictionReport::default();
        evict_copy(page, vpn, gpu, self.gpu_count, &mut self.stats, &mut report);
        Some(report)
    }

    /// Every VPN with a resident copy (home or replica) on `gpu`, in
    /// ascending order (the directory iterates by VPN, so no sort is
    /// needed) — the seed list for a PRT rebuild on rejoin.
    pub fn resident_vpns_on(&self, gpu: GpuId) -> Vec<u64> {
        self.pages
            .iter()
            .filter(|(_, p)| p.resident_on(gpu))
            .map(|(vpn, _)| vpn)
            .collect()
    }

    /// A 64-bit order-independent-input digest of the directory: its
    /// geometry, policy and counters, then the contents (VPNs visited in
    /// sorted order), for epoch checkpoints.
    pub fn state_digest(&self) -> u64 {
        let Self {
            gpu_count,
            kind,
            pages,
            stats,
        } = self;
        let mut digest = sim_core::checkpoint::StateDigest::new();
        let (policy, knob) = match *kind {
            PolicyKind::FirstTouch => (0, 0),
            PolicyKind::DelayedMigration { threshold } => (1, threshold),
            PolicyKind::ReadDuplicate => (2, 0),
            PolicyKind::PrefetchNeighborhood { radius } => (3, radius),
        };
        let DirectoryStats {
            migrations,
            replications,
            write_invalidations,
            remote_maps,
            promotions,
            prefetches,
        } = *stats;
        digest
            .mix(u64::from(*gpu_count))
            .mix(policy)
            .mix(u64::from(knob))
            .mix(migrations)
            .mix(replications)
            .mix(write_invalidations)
            .mix(remote_maps)
            .mix(promotions)
            .mix(prefetches);
        // VpnMap iterates in ascending VPN order, so the digest input order
        // is already canonical.
        for (vpn, page) in pages.iter() {
            let PageState {
                home,
                replicas,
                remote_maps,
                gpus: _,     // equals the directory's `gpu_count`, mixed above
                counters: _, // mixed per GPU through `counts`
            } = page;
            let home = match *home {
                Location::Cpu => u64::MAX,
                Location::Gpu(g) => u64::from(g),
            };
            digest.mix(vpn).mix(home).mix(*replicas).mix(*remote_maps);
            // One word per GPU: the promotion counters steer later placement.
            // Unallocated counters read as zeros, so they digest the same
            // as allocated zero counters.
            digest.mix_all(
                page.counts()
                    .map(|(a, f)| (u64::from(a) << 32) | u64::from(f)),
            );
        }
        digest.finish()
    }

    /// Post-run consistency audit: every page's placement state must be
    /// internally coherent. Run by the system-level invariant auditor after
    /// each simulation (including fault-injected ones).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolation`] listing every inconsistent
    /// page: out-of-range home, replica/remote-map bits beyond `gpu_count`,
    /// the home GPU listed as its own replica, or a malformed counter
    /// vector.
    pub fn audit(&self) -> Result<(), SimError> {
        let mut violations = Vec::new();
        let live_mask: u64 = if self.gpu_count == 64 {
            u64::MAX
        } else {
            (1u64 << self.gpu_count) - 1
        };
        for (vpn, page) in self.pages.iter() {
            if let Location::Gpu(h) = page.home {
                if h >= self.gpu_count {
                    violations.push(format!("page {vpn}: home gpu {h} out of range"));
                }
                if page.replicas & (1 << h) != 0 {
                    violations.push(format!("page {vpn}: home gpu {h} listed as replica"));
                }
            }
            if page.replicas & !live_mask != 0 {
                violations.push(format!(
                    "page {vpn}: replica mask 0b{:b} names nonexistent GPUs",
                    page.replicas
                ));
            }
            if page.remote_maps & !live_mask != 0 {
                violations.push(format!(
                    "page {vpn}: remote-map mask 0b{:b} names nonexistent GPUs",
                    page.remote_maps
                ));
            }
            let counters = page
                .counters
                .as_ref()
                .map_or(usize::from(page.gpus), |c| c.len());
            if page.gpus != self.gpu_count || counters != usize::from(self.gpu_count) {
                violations.push(format!(
                    "page {vpn}: {counters} counters for {} GPUs",
                    self.gpu_count
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvariantViolation(violations.join("; ")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every GPU's far-fault counter for `vpn`.
    fn fault_counts(d: &PageDirectory, vpn: u64) -> Vec<u32> {
        d.page(vpn).unwrap().counts().map(|(_, f)| f).collect()
    }

    #[test]
    fn cold_pages_own_no_counters_and_digest_as_zeroed_ones() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 9 });
        d.place(5, Location::Gpu(0));
        d.place(6, Location::Gpu(1));
        let page = d.page(5).unwrap();
        assert!(page.counters.is_none(), "warm placement allocates nothing");
        assert_eq!(
            (page.heat(), page.fault_count(3), page.access_count(3)),
            (0, 0, 0)
        );
        let mut zeroed = d.clone();
        let p = zeroed.pages.get_mut(5).unwrap();
        p.counters = Some(vec![Heat::default(); 4].into_boxed_slice());
        assert_eq!(zeroed.page(5), d.page(5), "zero counters compare by value");
        assert_eq!(zeroed.state_digest(), d.state_digest());
        zeroed.audit().unwrap();
        // The first far fault allocates; a migration frees the array again.
        d.resolve_fault(5, 2, false); // remote map, fault count 1
        assert_eq!(d.page(5).unwrap().fault_count(2), 1);
        assert!(d.page(5).unwrap().counters.is_some());
        assert_ne!(zeroed.state_digest(), d.state_digest());
        for _ in 0..8 {
            d.resolve_fault(5, 2, false);
        }
        assert_eq!(d.home(5), Location::Gpu(2));
        assert!(
            d.page(5).unwrap().counters.is_none(),
            "migration frees heat"
        );
        assert!(d.page(6).unwrap().counters.is_none());
        d.audit().unwrap();
    }

    #[test]
    fn far_vpns_allocate_one_chunk_each() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.place(u64::MAX, Location::Gpu(1));
        assert_eq!(d.pages.chunk_count(), 1);
        d.resolve_fault(1 << 40, 1, false);
        assert_eq!(d.pages.chunk_count(), 2);
        d.resolve_fault((1 << 40) + 1, 1, false);
        assert_eq!(d.pages.chunk_count(), 2, "same 512-page chunk");
        assert_eq!(d.resident_vpns_on(1), [1 << 40, (1 << 40) + 1, u64::MAX]);
        assert_eq!(d.home(u64::MAX - 1), Location::Cpu);
    }

    #[test]
    fn on_touch_first_fault_migrates_from_cpu() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        let out = d.resolve_fault(10, 2, false);
        assert_eq!(out.kind, TxnKind::Migrate);
        assert_eq!(out.source, Location::Cpu);
        assert!(out.invalidate.is_empty());
        assert_eq!(d.home(10), Location::Gpu(2));
        assert!(d.is_resident(10, 2));
    }

    #[test]
    fn on_touch_second_gpu_steals_page() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(10, 0, false);
        let out = d.resolve_fault(10, 1, false);
        assert_eq!(out.source, Location::Gpu(0));
        assert_eq!(out.invalidate, vec![0]);
        assert_eq!(d.home(10), Location::Gpu(1));
        assert!(!d.is_resident(10, 0));
        assert_eq!(d.stats().migrations, 2);
    }

    #[test]
    fn already_resident_fault_is_noop() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(10, 0, false);
        let out = d.resolve_fault(10, 0, true);
        assert_eq!(out.kind, TxnKind::AlreadyResident);
        assert_eq!(d.stats().migrations, 1);
    }

    #[test]
    fn replication_reads_share() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // first touch migrates
        let out = d.resolve_fault(5, 1, false);
        assert_eq!(out.kind, TxnKind::Replicate);
        assert_eq!(out.source, Location::Gpu(0));
        assert!(d.is_resident(5, 0));
        assert!(d.is_resident(5, 1));
        assert_eq!(d.stats().replications, 1);
    }

    #[test]
    fn replication_write_invalidates_all_replicas() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false);
        d.resolve_fault(5, 2, false);
        let out = d.resolve_fault(5, 3, true);
        assert_eq!(out.kind, TxnKind::Collapse);
        let mut inv = out.invalidate.clone();
        inv.sort_unstable();
        assert_eq!(inv, vec![0, 1, 2]);
        assert_eq!(d.home(5), Location::Gpu(3));
        assert!(!d.is_resident(5, 0));
        assert_eq!(d.stats().write_invalidations, 3);
    }

    #[test]
    fn replication_writer_holding_replica_upgrades() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false); // replica on 1
        let out = d.resolve_fault(5, 1, true); // 1 writes its replica
        assert_eq!(out.kind, TxnKind::Collapse);
        assert_eq!(out.source, Location::Gpu(1), "data already local");
        assert_eq!(out.invalidate, vec![0]);
        assert_eq!(d.home(5), Location::Gpu(1));
    }

    #[test]
    fn remote_mapping_maps_without_moving() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 3 });
        d.resolve_fault(5, 0, false); // first touch migrates from CPU
        let out = d.resolve_fault(5, 1, false);
        assert_eq!(out.kind, TxnKind::RemoteMap);
        assert_eq!(out.source, Location::Gpu(0));
        assert_eq!(d.home(5), Location::Gpu(0), "page did not move");
        assert_eq!(d.stats().remote_maps, 1);
    }

    #[test]
    fn remote_mapping_promotes_after_threshold() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 3 });
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false);
        assert!(d.record_remote_access(5, 1).is_none());
        assert!(d.record_remote_access(5, 1).is_none());
        let out = d.record_remote_access(5, 1).expect("third access promotes");
        assert_eq!(out.kind, TxnKind::Migrate);
        assert_eq!(out.source, Location::Gpu(0));
        assert_eq!(out.invalidate, vec![0]);
        assert_eq!(d.home(5), Location::Gpu(1));
        assert_eq!(d.stats().promotions, 1);
    }

    #[test]
    fn remote_access_on_home_gpu_is_ignored() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 1 });
        d.resolve_fault(5, 0, false);
        assert!(d.record_remote_access(5, 0).is_none());
    }

    #[test]
    fn record_remote_access_noop_under_on_touch() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(5, 0, false);
        assert!(d.record_remote_access(5, 1).is_none());
        assert!(d.page(5).unwrap().counts().all(|(a, _)| a == 0));
    }

    #[test]
    fn holders_lists_home_and_replicas() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 2, false);
        let holders = d.page(5).unwrap().holders();
        assert_eq!(holders, vec![Location::Gpu(0), Location::Gpu(2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_from_unknown_gpu_panics() {
        PageDirectory::with_policy(2, PolicyKind::FirstTouch).resolve_fault(0, 5, false);
    }

    #[test]
    fn try_resolve_rejects_unknown_gpu_without_mutating() {
        let mut d = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
        let err = d.begin_fault_txn(0, 5, false).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(d.page(0).is_none(), "rejected fault must not create state");
        assert_eq!(d.stats().migrations, 0);
    }

    #[test]
    fn remote_access_from_unknown_gpu_is_ignored() {
        let mut d = PageDirectory::with_policy(2, PolicyKind::DelayedMigration { threshold: 1 });
        d.resolve_fault(5, 0, false);
        assert!(d.record_remote_access(5, 9).is_none());
        assert_eq!(d.stats().promotions, 0);
    }

    #[test]
    fn audit_accepts_consistent_state() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false);
        d.resolve_fault(9, 2, true);
        d.audit().unwrap();
    }

    #[test]
    fn audit_flags_corrupted_state() {
        let mut d = PageDirectory::with_policy(2, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        // Corrupt the directory the way a dropped invalidation would:
        // a replica bit for a GPU that does not exist.
        d.pages.get_mut(5).unwrap().replicas = 1 << 7;
        let err = d.audit().unwrap_err();
        assert!(matches!(err, SimError::InvariantViolation(_)), "{err}");
        assert!(err.to_string().contains("nonexistent"));
    }

    #[test]
    fn evict_gpu_promotes_replica_to_home() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 1, false); // replica on 1
        d.resolve_fault(5, 3, false); // replica on 3
        let report = d.evict_gpu(0);
        assert_eq!(
            report.migrated,
            vec![(5, Location::Gpu(1))],
            "lowest replica promoted"
        );
        assert_eq!(d.home(5), Location::Gpu(1));
        assert!(!d.is_resident(5, 0));
        assert!(d.is_resident(5, 3), "other replica survives");
        assert!(
            d.page(5).unwrap().replicas & 0b10 == 0,
            "promoted GPU no longer a replica"
        );
        d.audit().unwrap();
    }

    #[test]
    fn evict_gpu_without_replicas_falls_back_to_cpu() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(7, 2, false);
        d.resolve_fault(9, 2, false);
        d.resolve_fault(11, 0, false);
        let report = d.evict_gpu(2);
        assert_eq!(
            report.migrated,
            vec![(7, Location::Cpu), (9, Location::Cpu)]
        );
        assert_eq!(d.home(7), Location::Cpu);
        assert_eq!(d.home(11), Location::Gpu(0), "unrelated page untouched");
        d.audit().unwrap();
    }

    #[test]
    fn evict_gpu_drops_replicas_and_remote_maps() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false); // replica on 1
        d.add_remote_map(6, 1);
        let report = d.evict_gpu(1);
        assert_eq!(report.dropped_replicas, vec![5]);
        assert_eq!(report.dropped_remote_maps, vec![6]);
        assert!(report.migrated.is_empty(), "1 was not home for anything");
        assert!(!d.is_resident(5, 1));
        d.audit().unwrap();
    }

    #[test]
    fn evict_gpu_invalidates_survivors_remote_maps() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 8 });
        d.resolve_fault(5, 2, false); // home on 2
        d.resolve_fault(5, 1, false); // remote map on 1 -> 2's memory
        d.resolve_fault(5, 3, false); // remote map on 3 -> 2's memory
        let report = d.evict_gpu(2);
        assert_eq!(report.migrated, vec![(5, Location::Cpu)]);
        assert_eq!(
            report.invalidate,
            vec![(5, 1), (5, 3)],
            "dangling maps shot down"
        );
        assert_eq!(d.page(5).unwrap().remote_maps, 0);
        d.audit().unwrap();
    }

    #[test]
    fn evict_gpu_is_deterministic_and_idempotent() {
        let build = || {
            let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
            for vpn in [12, 3, 99, 45, 7] {
                d.resolve_fault(vpn, 1, false);
                d.resolve_fault(vpn, 2, false);
            }
            d
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.evict_gpu(1), b.evict_gpu(1), "sorted processing order");
        assert_eq!(a.state_digest(), b.state_digest());
        let second = a.evict_gpu(1);
        assert!(second.is_empty(), "second eviction finds nothing");
    }

    #[test]
    fn evict_gpu_pinned_defers_pinned_pages() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(7, 2, false);
        d.resolve_fault(9, 2, false);
        d.resolve_fault(11, 0, false);
        let mut pins = BTreeSet::new();
        pins.insert(9); // a forwarded walk on vpn 9 is still in flight
        pins.insert(11); // pinned but not involving GPU 2: not deferred
        let report = d.evict_gpu_pinned(2, &pins);
        assert_eq!(report.migrated, vec![(7, Location::Cpu)]);
        assert_eq!(
            report.deferred,
            vec![9],
            "pinned page skipped, not migrated"
        );
        assert_eq!(d.home(9), Location::Gpu(2), "deferred page untouched");
        assert_eq!(d.home(11), Location::Gpu(0));
        // Once the pin drains, the caller finishes the page individually.
        let fin = d.evict_page(9, 2).expect("still held");
        assert_eq!(fin.migrated, vec![(9, Location::Cpu)]);
        assert_eq!(d.home(9), Location::Cpu);
        d.audit().unwrap();
    }

    #[test]
    fn evict_page_drops_a_single_replica() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 1, false); // replica on 1
        let report = d.evict_page(5, 1).expect("replica held");
        assert_eq!(report.dropped_replicas, vec![5]);
        assert!(report.migrated.is_empty());
        assert!(d.is_resident(5, 0));
        assert!(!d.is_resident(5, 1));
        assert!(
            d.evict_page(5, 1).is_none(),
            "second eviction finds nothing"
        );
        d.audit().unwrap();
    }

    #[test]
    fn evict_page_promotes_replica_and_invalidates_danglers() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 2, false); // replica on 2
        d.add_remote_map(5, 3); // a Trans-FW supply registered on 3
        let report = d.evict_page(5, 0).expect("home held");
        assert_eq!(report.migrated, vec![(5, Location::Gpu(2))]);
        assert_eq!(report.invalidate, vec![(5, 3)], "dangling map shot down");
        assert_eq!(d.home(5), Location::Gpu(2));
        assert_eq!(d.page(5).unwrap().remote_maps, 0);
        d.audit().unwrap();
    }

    #[test]
    fn evict_page_matches_evict_gpu_per_page_effects() {
        let build = || {
            let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
            d.resolve_fault(3, 1, false);
            d.resolve_fault(3, 2, false);
            d.resolve_fault(8, 1, false);
            d.add_remote_map(12, 1);
            d
        };
        let mut whole = build();
        let gpu_report = whole.evict_gpu(1);
        let mut single = build();
        let mut merged = EvictionReport::default();
        for vpn in [3u64, 8, 12] {
            if let Some(r) = single.evict_page(vpn, 1) {
                merged.migrated.extend(r.migrated);
                merged.dropped_replicas.extend(r.dropped_replicas);
                merged.dropped_remote_maps.extend(r.dropped_remote_maps);
                merged.invalidate.extend(r.invalidate);
            }
        }
        assert_eq!(merged, gpu_report);
        assert_eq!(whole.state_digest(), single.state_digest());
    }

    #[test]
    fn evict_page_on_untouched_page_is_none() {
        let mut d = PageDirectory::with_policy(2, PolicyKind::FirstTouch);
        assert!(d.evict_page(5, 0).is_none());
        assert_eq!(d.stats().migrations, 0);
    }

    #[test]
    fn resident_vpns_on_lists_home_and_replicas_sorted() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(20, 0, false);
        d.resolve_fault(4, 1, false);
        d.resolve_fault(4, 0, false); // replica on 0
        d.resolve_fault(9, 2, false);
        assert_eq!(d.resident_vpns_on(0), vec![4, 20]);
        assert_eq!(d.resident_vpns_on(1), vec![4]);
        assert_eq!(d.resident_vpns_on(3), Vec::<u64>::new());
    }

    #[test]
    fn state_digest_covers_geometry_policy_and_counters() {
        let a = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 2 });
        let knob = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 3 });
        let gpus = PageDirectory::with_policy(8, PolicyKind::DelayedMigration { threshold: 2 });
        let mut counted = a.clone();
        counted.stats.promotions = 1;
        for other in [&knob, &gpus, &counted] {
            assert_ne!(a.state_digest(), other.state_digest());
        }
    }

    #[test]
    fn state_digest_covers_promotion_counters() {
        let mut base = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 9 });
        base.place(5, Location::Gpu(0));
        let mut access = base.clone();
        access.pages.get_mut(5).unwrap().bump_access(2);
        let mut fault = base.clone();
        fault.pages.get_mut(5).unwrap().bump_fault(2);
        let mut other_gpu = base.clone();
        other_gpu.pages.get_mut(5).unwrap().bump_fault(3);
        let digests = [&base, &access, &fault, &other_gpu].map(PageDirectory::state_digest);
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(
                    a, b,
                    "access/fault counters must flow into the digest per GPU"
                );
            }
        }
    }

    #[test]
    fn audit_flags_home_listed_as_replica() {
        let mut d = PageDirectory::with_policy(2, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false);
        d.pages.get_mut(5).unwrap().replicas = 1 << 0;
        let err = d.audit().unwrap_err();
        assert!(err.to_string().contains("listed as replica"));
    }

    // ----- policy-engine behaviour -------------------------------------

    #[test]
    fn delayed_migration_migrates_on_nth_fault() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 2 });
        d.resolve_fault(5, 0, false); // cold: migrate to 0
        let t = d.resolve_fault(5, 1, false);
        assert_eq!(t.kind, TxnKind::RemoteMap, "first far fault maps in place");
        // The remote map created a PTE; a second *fault* means it was lost
        // (e.g. shot down) — the second fault crosses the threshold.
        let t = d.resolve_fault(5, 1, false);
        assert_eq!(t.kind, TxnKind::Migrate);
        assert_eq!(t.source, Location::Gpu(0));
        assert_eq!(d.home(5), Location::Gpu(1));
        assert_eq!(fault_counts(&d, 5), vec![0; 4], "heat reset on migrate");
        d.audit().unwrap();
    }

    #[test]
    fn replicate_then_write_collapse_txn_lists_every_stale_copy() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 1, false); // replica on 1
        d.resolve_fault(5, 2, false); // replica on 2
        let t = d.resolve_fault(5, 2, true); // holder 2 writes
        assert_eq!(t.kind, TxnKind::Collapse);
        assert_eq!(t.source, Location::Gpu(2), "writer already holds the data");
        assert_eq!(t.invalidate, vec![0, 1]);
        assert_eq!(t.ft_remove, vec![0, 1], "both stale FT owner keys go");
        assert_eq!(t.resolved_location(), Location::Gpu(2));
        assert_eq!(d.page(5).unwrap().replicas, 0);
        assert_eq!(d.home(5), Location::Gpu(2));
        d.audit().unwrap();
    }

    #[test]
    fn collapse_from_remote_writer_keeps_source_out_of_ft_remove() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::ReadDuplicate);
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 1, false); // replica on 1
        let t = d.resolve_fault(5, 3, true); // outsider writes
        assert_eq!(t.kind, TxnKind::Collapse);
        assert_eq!(t.source, Location::Gpu(0));
        assert_eq!(t.invalidate, vec![0, 1]);
        assert_eq!(t.ft_remove, vec![1], "source's FT key moves with the data");
    }

    #[test]
    fn prefetch_page_takes_only_untouched_pages() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::PrefetchNeighborhood { radius: 2 });
        let t = d
            .prefetch_page(8, 1, Location::Cpu)
            .expect("cold page is eligible");
        assert_eq!(t.kind, TxnKind::Prefetch);
        assert_eq!((t.source, t.dest), (Location::Cpu, 1));
        assert!(
            t.invalidate.is_empty(),
            "nothing to shoot down for a cold page"
        );
        assert_eq!(d.home(8), Location::Gpu(1));
        assert_eq!(d.stats().prefetches, 1);
        assert!(
            d.prefetch_page(8, 2, Location::Cpu).is_none(),
            "already placed off the claimed source"
        );
        d.resolve_fault(9, 0, false);
        assert!(
            d.prefetch_page(9, 1, Location::Cpu).is_none(),
            "a page with fault history is someone's working set"
        );
        assert_eq!(d.stats().prefetches, 1);
        d.audit().unwrap();
    }

    #[test]
    fn prefetch_page_follows_the_migration_source() {
        // Warm placement: page 9 homed on GPU 0 untouched. A migration that
        // pulled its neighbor from GPU 0 to GPU 1 drags it along, and the
        // transaction lists the shootdown on the old owner.
        let mut d = PageDirectory::with_policy(4, PolicyKind::PrefetchNeighborhood { radius: 2 });
        d.place(9, Location::Gpu(0));
        let t = d
            .prefetch_page(9, 1, Location::Gpu(0))
            .expect("untouched page homed on the source is eligible");
        assert_eq!((t.source, t.dest), (Location::Gpu(0), 1));
        assert_eq!(t.invalidate, vec![0], "old owner's mapping is shot down");
        assert_eq!(d.home(9), Location::Gpu(1));
        // Homed on a *different* GPU: not dragged.
        d.place(20, Location::Gpu(2));
        assert!(d.prefetch_page(20, 1, Location::Gpu(0)).is_none());
        d.audit().unwrap();
    }

    #[test]
    fn prefetch_neighborhood_comes_from_the_policy() {
        let d = PageDirectory::with_policy(4, PolicyKind::PrefetchNeighborhood { radius: 2 });
        assert_eq!(d.prefetch_neighborhood(5), vec![4, 6, 7]);
        let d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        assert!(d.prefetch_neighborhood(5).is_empty());
    }

    #[test]
    fn evict_gpu_clears_fault_heat_for_the_evicted_gpu_only() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 9 });
        d.resolve_fault(5, 0, false); // home on 0
        d.resolve_fault(5, 1, false); // remote map, fault_count(1) == 1
        d.resolve_fault(5, 2, false); // remote map, fault_count(2) == 1
        assert_eq!(fault_counts(&d, 5), vec![0, 1, 1, 0]);
        d.evict_gpu(1);
        assert_eq!(
            fault_counts(&d, 5),
            vec![0, 0, 1, 0],
            "rejoined GPU must not inherit pre-failure heat"
        );
        d.audit().unwrap();
    }

    #[test]
    fn cloned_directory_keeps_policy_behaviour() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::DelayedMigration { threshold: 2 });
        d.resolve_fault(5, 0, false);
        d.resolve_fault(5, 1, false); // fault_count(1) == 1
        let mut c = d.clone();
        let t = c.resolve_fault(5, 1, false);
        assert_eq!(t.kind, TxnKind::Migrate, "clone kept the heat counters");
    }

    #[test]
    fn first_touch_txn_matches_legacy_outcome_shape() {
        let mut d = PageDirectory::with_policy(4, PolicyKind::FirstTouch);
        d.resolve_fault(10, 0, false);
        let t = d.resolve_fault(10, 1, false);
        assert_eq!(t.kind, TxnKind::Migrate);
        assert_eq!(t.source, Location::Gpu(0));
        assert_eq!(t.invalidate, vec![0]);
        assert!(
            t.ft_remove.is_empty(),
            "first touch never touches FT owner keys"
        );
        assert!(t.moves_data() && t.moves_home());
        let again = d.resolve_fault(10, 1, true);
        assert_eq!(again.kind, TxnKind::AlreadyResident);
        assert!(!again.moves_data());
    }
}
