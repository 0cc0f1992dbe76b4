//! The placement policies and the ownership transaction their decisions
//! are carried out through.
//!
//! * [`PolicyKind`] — the copyable policy selector carried in configs. Its
//!   methods are the whole decision logic: given the current [`PageState`]
//!   and the faulting GPU, [`on_fault`](PolicyKind::on_fault) picks a
//!   [`PolicyDecision`]; the access-counter threshold and the prefetch
//!   neighborhood come from the same enum.
//! * [`OwnershipTransaction`] — the *single* record every ownership change
//!   flows through, fault resolutions and access-counter promotions alike.
//!   The directory mutates its authoritative state and emits one
//!   transaction naming the data source, destination, the GPUs whose
//!   PTE/TLB/PRT entries must be shot down, and the FT keys to rewrite. The
//!   memory system applies it atomically (within one simulated event), so
//!   the post-run invariant auditor can check that no stale short-circuit
//!   path survives a migration.
//!
//! Four policies ship:
//!
//! | kind | far fault behaviour |
//! |------|---------------------|
//! | [`PolicyKind::FirstTouch`] | always migrate into the faulting GPU |
//! | [`PolicyKind::DelayedMigration`] | map remotely; migrate after `threshold` far faults (NVIDIA-UVM style) |
//! | [`PolicyKind::ReadDuplicate`] | replicate read-shared pages; a write collapses every copy back to one owner |
//! | [`PolicyKind::PrefetchNeighborhood`] | migrate, plus tree-style prefetch of the surrounding aligned VPN block |

use ptw::{GpuId, Location};

use crate::directory::PageState;

/// Priority class of translation-pipeline traffic, for overload shedding.
///
/// Under overload the memory system sheds work lowest-class-first: demand
/// walks (a warp is stalled on them) are protected, prefetch is speculative
/// and cheap to drop, and background migration is pure optimisation that
/// can always be retried by a later access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrafficClass {
    /// Access-counter-driven background migration — shed first.
    Migration,
    /// Policy-driven neighborhood prefetch — shed second.
    Prefetch,
    /// A demand translation a warp is blocked on — shed last, if ever.
    Demand,
}

impl TrafficClass {
    /// Whether this class is background work (sheddable before demand).
    pub fn is_background(self) -> bool {
        matches!(self, TrafficClass::Migration | TrafficClass::Prefetch)
    }
}

/// Which placement policy drives the directory.
///
/// Policies are stateless: every counter they consult lives in the per-page
/// [`PageState`], so cloning a directory (checkpointing) never loses policy
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// First touch migrates the page into the faulting GPU (the default;
    /// today's behaviour).
    #[default]
    FirstTouch,
    /// Map remotely and migrate only after `threshold` remote far faults
    /// from the same GPU, plus access-counter promotion (§V-E).
    DelayedMigration {
        /// Far faults from one GPU before the page migrates to it.
        threshold: u32,
    },
    /// Read faults replicate; a write collapses all copies back to a single
    /// owner (ESI coherence, §V-D).
    ReadDuplicate,
    /// First-touch migration plus prefetch of the aligned `2^radius`-page
    /// block around the faulting VPN.
    PrefetchNeighborhood {
        /// log2 of the prefetch block size in pages.
        radius: u32,
    },
}

impl PolicyKind {
    /// Short stable name for reports and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::FirstTouch => "first-touch",
            PolicyKind::DelayedMigration { .. } => "delayed-migration",
            PolicyKind::ReadDuplicate => "read-duplicate",
            PolicyKind::PrefetchNeighborhood { .. } => "prefetch-neighborhood",
        }
    }

    /// Decides how to resolve a far fault by `gpu` on a page currently in
    /// state `page`. The directory has already filtered already-resident
    /// faults and bumped `page.fault_count(gpu)`.
    pub fn on_fault(self, page: &PageState, gpu: GpuId, is_write: bool) -> PolicyDecision {
        match self {
            PolicyKind::FirstTouch | PolicyKind::PrefetchNeighborhood { .. } => {
                PolicyDecision::Migrate
            }
            PolicyKind::DelayedMigration { threshold } => {
                if page.home == Location::Cpu {
                    // Cold pages have no remote owner to borrow from.
                    PolicyDecision::Migrate
                } else if page.fault_count(gpu) >= threshold {
                    PolicyDecision::Migrate
                } else {
                    PolicyDecision::RemoteMap
                }
            }
            PolicyKind::ReadDuplicate => {
                if is_write {
                    PolicyDecision::Collapse
                } else if page.home == Location::Cpu && page.replicas == 0 {
                    // First touch: plain migration from the host.
                    PolicyDecision::Migrate
                } else {
                    PolicyDecision::Replicate
                }
            }
        }
    }

    /// Remote data accesses before a remote-mapped page is promoted to a
    /// migration, or `None` when this policy does not count accesses.
    /// Policies returning `None` never create directory entries on the
    /// remote-access path.
    pub fn remote_access_threshold(self) -> Option<u32> {
        match self {
            PolicyKind::DelayedMigration { threshold } => Some(threshold),
            PolicyKind::FirstTouch
            | PolicyKind::ReadDuplicate
            | PolicyKind::PrefetchNeighborhood { .. } => None,
        }
    }

    /// VPNs to prefetch alongside a migration of `vpn` (empty for policies
    /// that do not prefetch): the aligned `2^radius`-page block around it,
    /// minus `vpn` itself, in ascending order so the simulator applies them
    /// deterministically.
    pub fn prefetch_neighborhood(self, vpn: u64) -> Vec<u64> {
        let PolicyKind::PrefetchNeighborhood { radius } = self else {
            return Vec::new();
        };
        let span = 1u64 << radius.min(16);
        let base = vpn & !(span - 1);
        (base..base + span).filter(|&v| v != vpn).collect()
    }
}

/// What a policy decided to do about one far fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Move the page into the faulting GPU.
    Migrate,
    /// Write-collapse: invalidate every other copy, the writer becomes the
    /// exclusive owner (counted as write invalidations).
    Collapse,
    /// Create a read replica on the faulting GPU.
    Replicate,
    /// Map the page in place; no data moves.
    RemoteMap,
}

/// The kind of ownership change a transaction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Page moves into `dest`; the old copy and stale mappings die.
    Migrate,
    /// Write-collapse of a replicated page into exclusive ownership.
    Collapse,
    /// A read replica appears on `dest`.
    Replicate,
    /// A remote mapping appears on `dest`; no data moves.
    RemoteMap,
    /// A policy-initiated prefetch moved a cold page into `dest`.
    Prefetch,
    /// The page was already resident (e.g. a racing fault resolved it).
    AlreadyResident,
}

/// One atomic ownership change, as decided by the directory.
///
/// The directory's authoritative state is already updated when a
/// transaction is returned; the memory system must mirror it — unmap
/// `invalidate` on those GPUs (PTE + TLB + PRT departure), rewrite the FT
/// keys listed in `ft_remove`, move the home FT key for data-moving kinds,
/// and map the page on `dest` when the transfer lands. Applying the whole
/// record within one simulated event is what makes the change atomic from
/// the protocol's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnershipTransaction {
    /// The page changing ownership.
    pub vpn: u64,
    /// What kind of change this is.
    pub kind: TxnKind,
    /// Where the data is fetched from.
    pub source: Location,
    /// The GPU gaining a copy or mapping.
    pub dest: GpuId,
    /// GPUs whose PTE/TLB/PRT entries for this page must be shot down.
    pub invalidate: Vec<GpuId>,
    /// GPUs whose FT ownership key (`vpn ⊕ owner`) must be removed — the
    /// invalidated replica holders the host forwarding table still names.
    pub ft_remove: Vec<GpuId>,
}

impl OwnershipTransaction {
    /// Whether page data crosses the interconnect.
    pub fn moves_data(&self) -> bool {
        matches!(
            self.kind,
            TxnKind::Migrate | TxnKind::Collapse | TxnKind::Replicate | TxnKind::Prefetch
        )
    }

    /// Location the faulting GPU's page table should point at afterwards.
    pub fn resolved_location(&self) -> Location {
        match self.kind {
            TxnKind::RemoteMap => self.source,
            TxnKind::Migrate
            | TxnKind::Collapse
            | TxnKind::Replicate
            | TxnKind::Prefetch
            | TxnKind::AlreadyResident => Location::Gpu(self.dest),
        }
    }

    /// Whether the home FT key moves to `dest` (data-moving exclusive
    /// ownership changes; replicas only add a key).
    pub fn moves_home(&self) -> bool {
        matches!(
            self.kind,
            TxnKind::Migrate | TxnKind::Collapse | TxnKind::Prefetch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(gpus: u16) -> PageState {
        PageState::cold(gpus)
    }

    #[test]
    fn default_kind_is_first_touch() {
        assert_eq!(PolicyKind::default(), PolicyKind::FirstTouch);
        assert_eq!(PolicyKind::default().name(), "first-touch");
    }

    #[test]
    fn first_touch_always_migrates() {
        let p = PolicyKind::FirstTouch;
        let mut s = page(4);
        assert_eq!(p.on_fault(&s, 1, false), PolicyDecision::Migrate);
        s.home = Location::Gpu(2);
        assert_eq!(p.on_fault(&s, 1, true), PolicyDecision::Migrate);
        assert_eq!(p.remote_access_threshold(), None);
        assert!(p.prefetch_neighborhood(40).is_empty());
    }

    #[test]
    fn delayed_migration_maps_then_migrates_at_threshold() {
        let p = PolicyKind::DelayedMigration { threshold: 3 };
        let mut s = page(4);
        // Cold page: nothing to borrow, migrate.
        assert_eq!(p.on_fault(&s, 1, false), PolicyDecision::Migrate);
        s.home = Location::Gpu(0);
        s.bump_fault(1);
        assert_eq!(p.on_fault(&s, 1, false), PolicyDecision::RemoteMap);
        s.bump_fault(1);
        s.bump_fault(1);
        assert_eq!(s.fault_count(1), 3);
        assert_eq!(p.on_fault(&s, 1, false), PolicyDecision::Migrate);
        assert_eq!(p.remote_access_threshold(), Some(3));
    }

    #[test]
    fn read_duplicate_replicates_reads_and_collapses_writes() {
        let p = PolicyKind::ReadDuplicate;
        let mut s = page(4);
        assert_eq!(
            p.on_fault(&s, 1, false),
            PolicyDecision::Migrate,
            "first touch"
        );
        s.home = Location::Gpu(0);
        assert_eq!(p.on_fault(&s, 1, false), PolicyDecision::Replicate);
        assert_eq!(p.on_fault(&s, 1, true), PolicyDecision::Collapse);
    }

    #[test]
    fn prefetch_neighborhood_is_an_aligned_block_minus_the_trigger() {
        let p = PolicyKind::PrefetchNeighborhood { radius: 2 };
        assert_eq!(p.prefetch_neighborhood(5), vec![4, 6, 7]);
        assert_eq!(p.prefetch_neighborhood(8), vec![9, 10, 11]);
        let wide = PolicyKind::PrefetchNeighborhood { radius: 3 };
        assert_eq!(wide.prefetch_neighborhood(0), vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn transaction_resolution_mapping() {
        let mk = |kind| OwnershipTransaction {
            vpn: 9,
            kind,
            source: Location::Gpu(2),
            dest: 1,
            invalidate: vec![2],
            ft_remove: Vec::new(),
        };
        let m = mk(TxnKind::Migrate);
        assert!(m.moves_data() && m.moves_home());
        assert_eq!(m.resolved_location(), Location::Gpu(1));

        let r = mk(TxnKind::RemoteMap);
        assert!(!r.moves_data() && !r.moves_home());
        assert_eq!(
            r.resolved_location(),
            Location::Gpu(2),
            "points at the home"
        );

        let repl = mk(TxnKind::Replicate);
        assert!(repl.moves_data() && !repl.moves_home());

        let a = mk(TxnKind::AlreadyResident);
        assert!(!a.moves_data());
    }
}
