//! The shared protocol transition layer.
//!
//! Every mutation of the distributed translation tables — per-GPU page
//! tables and PRTs, the host PT/TLB, and the Forwarding Table — funnels
//! through the free functions in this module, generic over
//! [`ProtocolTables`]. Two implementors exist:
//!
//! * [`System`](crate::System) — the cycle-accurate simulator (caches,
//!   PW-cache invalidation, fault-injector gating, metrics) implements the
//!   trait in `system.rs`, so its event handlers execute these transitions
//!   against real hardware state.
//! * [`model::ProtocolState`] — the small-scope abstract model the
//!   `simcheck` model checker explores, with exact (idealised) tables.
//!
//! Because both run the *same* transition bodies, a property `simcheck`
//! proves over every interleaving of the abstract model is a property of
//! the code the simulator runs, not of a hand-written re-implementation.
//!
//! The fault injector's `drop_table_update` perturbation is threaded
//! through the trait ([`ProtocolTables::drop_table_update`]); the gate
//! *order* in each transition reproduces the legacy draw sequence
//! bit-for-bit, which is what keeps golden runs identical across the
//! refactor.

use ptw::{GpuId, Location};
use uvm::{EvictionReport, OwnershipTransaction, TxnKind};

pub mod model;

/// Metric side effects raised by the shared transitions. The simulator maps
/// them onto [`RunMetrics`](crate::RunMetrics) counters; the abstract model
/// ignores them (counters are path-dependent and would fragment the state
/// hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolNote {
    /// An ownership transaction was committed.
    TxnCommitted,
    /// The committed transaction was a write collapse.
    Collapse,
    /// A page's home migrated off an evicted GPU.
    OwnershipMigration,
    /// An FT key was invalidated by the recovery protocol.
    FtInvalidation,
    /// A PRT was rebuilt from the directory at rejoin.
    PrtRebuild,
    /// A page was evicted to stay under the oversubscription capacity.
    CapacityEviction,
}

/// The table state the forwarding protocol mutates, as fine-grained hooks.
///
/// Implementors provide storage-specific behaviour (PW-cache invalidation,
/// TLB shootdowns, cuckoo multisets vs. exact maps); the *transition logic*
/// — what is updated, in which order, under which fault-injection gate —
/// lives in this module's free functions and is shared verbatim between the
/// simulator and the model checker.
pub trait ProtocolTables {
    /// Installs GPU `gpu`'s local PTE for `vpn` pointing at `loc`.
    fn pt_insert(&mut self, gpu: GpuId, vpn: u64, loc: Location);
    /// Removes GPU `gpu`'s local PTE for `vpn` (and any derived walk-cache
    /// state backing it).
    fn pt_remove(&mut self, gpu: GpuId, vpn: u64);
    /// Shoots `vpn` down from GPU `gpu`'s translation caches.
    fn tlb_shootdown(&mut self, gpu: GpuId, vpn: u64);
    /// Flushes GPU `gpu`'s local page table and caches wholesale (its
    /// device memory is gone).
    fn local_flush(&mut self, gpu: GpuId);

    /// Whether GPU `gpu` maintains a PRT (Trans-FW short-circuit enabled).
    fn has_prt(&self, gpu: GpuId) -> bool;
    /// Records a page arrival in GPU `gpu`'s PRT.
    fn prt_arrived(&mut self, gpu: GpuId, vpn: u64);
    /// Records a page departure in GPU `gpu`'s PRT.
    fn prt_departed(&mut self, gpu: GpuId, vpn: u64);
    /// Clears GPU `gpu`'s PRT wholesale (offline flush).
    fn prt_flush(&mut self, gpu: GpuId);
    /// Rebuilds GPU `gpu`'s PRT from the directory's residency list.
    fn prt_rebuild(&mut self, gpu: GpuId, resident: &[u64]);

    /// Whether the host maintains a Forwarding Table.
    fn has_ft(&self) -> bool;
    /// Adds an FT ownership key (`vpn` → `gpu`).
    fn ft_owner_added(&mut self, vpn: u64, gpu: GpuId);
    /// Removes an FT ownership key.
    fn ft_owner_removed(&mut self, vpn: u64, gpu: GpuId);
    /// Rewrites the FT home key for a migrated page.
    fn ft_page_migrated(&mut self, vpn: u64, old: Option<GpuId>, new: GpuId);
    /// Transactionally rewrites a page's FT owner set (recovery eviction).
    fn ft_rewrite_owners(&mut self, vpn: u64, remove: &[GpuId], add: &[GpuId]);

    /// Shoots `vpn` down from the host TLB.
    fn host_tlb_invalidate(&mut self, vpn: u64);
    /// Repoints the host's centralised PTE for `vpn` at `loc`.
    fn host_pt_set_loc(&mut self, vpn: u64, loc: Location);

    /// Fault-injection gate for lossy PRT/FT maintenance: one RNG draw per
    /// call. The simulator routes this to its injector; the model (and any
    /// fault-free run) never drops.
    fn drop_table_update(&mut self) -> bool {
        false
    }

    /// Metric side effect (default: ignored).
    fn note(&mut self, _note: ProtocolNote) {}
}

/// Creates GPU `gpu`'s local mapping of `vpn` pointing at `loc`, with the
/// PRT arrival subject to the lossy-update gate.
///
/// Gate order (bit-compatible with the legacy `System::map_on_gpu`): the
/// injector is drawn once, and only when the GPU has a PRT at all.
pub fn map_page<T: ProtocolTables + ?Sized>(t: &mut T, gpu: GpuId, vpn: u64, loc: Location) {
    let drop_update = t.has_prt(gpu) && t.drop_table_update();
    t.pt_insert(gpu, vpn, loc);
    if t.has_prt(gpu) && !drop_update {
        t.prt_arrived(gpu, vpn);
    }
}

/// Destroys GPU `gpu`'s local mapping of `vpn`: PTE, cached translations,
/// and the PRT departure (subject to the lossy-update gate).
pub fn unmap_page<T: ProtocolTables + ?Sized>(t: &mut T, gpu: GpuId, vpn: u64) {
    let drop_update = t.has_prt(gpu) && t.drop_table_update();
    t.pt_remove(gpu, vpn);
    t.tlb_shootdown(gpu, vpn);
    if t.has_prt(gpu) && !drop_update {
        t.prt_departed(gpu, vpn);
    }
}

/// Repoints a page's home at `dest` in the host's view and the FT: host-TLB
/// shootdown, centralised-PTE rewrite (never lossy), then the FT home-key
/// rewrite (lossy under a stale-entry fault plan).
///
/// Shared between ownership-transaction commits and background (access-
/// counter) migrations, which perform exactly this sequence.
pub fn migrate_home<T: ProtocolTables + ?Sized>(
    t: &mut T,
    vpn: u64,
    source: Option<GpuId>,
    dest: GpuId,
) {
    t.host_tlb_invalidate(vpn);
    t.host_pt_set_loc(vpn, Location::Gpu(dest));
    if t.has_ft() && !t.drop_table_update() {
        t.ft_page_migrated(vpn, source, dest);
    }
}

/// Mirrors one committed [`OwnershipTransaction`] into the tables: the
/// directory has already made the authoritative decision; this applies the
/// directive half — shootdowns on every listed GPU, the host view, and the
/// Trans-FW tables.
///
/// FT maintenance crossing the fabric stays subject to the lossy-update
/// gate; the authoritative host PT/TLB updates never are. Draw order is
/// bit-compatible with the legacy `System::apply_ownership_txn`.
pub fn commit_ownership<T: ProtocolTables + ?Sized>(t: &mut T, txn: &OwnershipTransaction) {
    t.note(ProtocolNote::TxnCommitted);
    let vpn = txn.vpn;
    for &v in &txn.invalidate {
        unmap_page(t, v, vpn);
        // FT maintenance: the old *home* key is rewritten by the migration
        // step below; `ft_remove` lists the stale replica keys (write
        // collapse) that were separately registered as owners. Remote-map
        // holders were never in the FT — a spurious delete would clobber
        // another page's fingerprint (the tables are masked multisets).
        if txn.ft_remove.contains(&v) && t.has_ft() && !t.drop_table_update() {
            t.ft_owner_removed(vpn, v);
        }
    }
    match txn.kind {
        TxnKind::Migrate | TxnKind::Collapse | TxnKind::Prefetch => {
            // The page's home moved. The stale host TLB entry is shot down
            // and NOT refilled — this is exactly why the paper finds that
            // enlarging the host TLB does not help (§V-B).
            migrate_home(t, vpn, txn.source.gpu(), txn.dest);
            if txn.kind == TxnKind::Collapse {
                t.note(ProtocolNote::Collapse);
            }
        }
        TxnKind::Replicate => {
            if t.has_ft() && !t.drop_table_update() {
                t.ft_owner_added(vpn, txn.dest);
            }
        }
        TxnKind::RemoteMap | TxnKind::AlreadyResident => {}
    }
}

/// Mirrors a GPU eviction's [`EvictionReport`] into the tables: per
/// migrated page the host view and the FT home key are rewritten in one
/// transactional step (the host must stop forwarding to the dead GPU
/// immediately); dropped replicas lose their FT keys; survivors' dangling
/// remote maps are shot down. Recovery updates are modelled reliable — no
/// lossy-update gate.
pub fn evict_tables<T: ProtocolTables + ?Sized>(t: &mut T, gpu: GpuId, report: &EvictionReport) {
    for &(vpn, new_home) in &report.migrated {
        t.note(ProtocolNote::OwnershipMigration);
        t.host_tlb_invalidate(vpn);
        t.host_pt_set_loc(vpn, new_home);
        if t.has_ft() {
            match new_home {
                Location::Gpu(n) => t.ft_rewrite_owners(vpn, &[gpu], &[n]),
                Location::Cpu => t.ft_rewrite_owners(vpn, &[gpu], &[]),
            }
            t.note(ProtocolNote::FtInvalidation);
        }
    }
    for &vpn in &report.dropped_replicas {
        if t.has_ft() {
            t.ft_owner_removed(vpn, gpu);
            t.note(ProtocolNote::FtInvalidation);
        }
    }
    for &(vpn, holder) in &report.invalidate {
        unmap_page(t, holder, vpn);
    }
}

/// Evicts a single page from a *live* GPU: the eviction report is mirrored
/// into the shared tables exactly as a recovery eviction would be
/// ([`evict_tables`]), and then — unlike recovery, where the victim's
/// tables are flushed wholesale — the evicting GPU's own local mapping is
/// destroyed, PRT departure included, so no stale short-circuit survives.
pub fn evict_page<T: ProtocolTables + ?Sized>(
    t: &mut T,
    gpu: GpuId,
    vpn: u64,
    report: &EvictionReport,
) {
    evict_tables(t, gpu, report);
    unmap_page(t, gpu, vpn);
}

/// A capacity-bounded eviction: [`evict_page`] plus the metric note the
/// oversubscription subsystem counts.
pub fn capacity_evict<T: ProtocolTables + ?Sized>(
    t: &mut T,
    gpu: GpuId,
    vpn: u64,
    report: &EvictionReport,
) {
    evict_page(t, gpu, vpn, report);
    t.note(ProtocolNote::CapacityEviction);
}

/// Flushes an offline GPU's local tables wholesale: page table, caches and
/// PRT. Its device memory is gone; residency is rebuilt at rejoin.
pub fn offline_flush<T: ProtocolTables + ?Sized>(t: &mut T, gpu: GpuId) {
    t.local_flush(gpu);
    if t.has_prt(gpu) {
        t.prt_flush(gpu);
    }
}

/// Rebuilds a rejoining GPU's PRT from the directory's authoritative
/// residency list.
pub fn rejoin_prt<T: ProtocolTables + ?Sized>(t: &mut T, gpu: GpuId, resident: &[u64]) {
    if t.has_prt(gpu) {
        t.prt_rebuild(gpu, resident);
        t.note(ProtocolNote::PrtRebuild);
    }
}
