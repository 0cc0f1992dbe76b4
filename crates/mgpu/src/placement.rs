//! The memory-system half of an [`OwnershipTransaction`]: every decision
//! the placement-policy engine makes is mirrored here into the per-GPU page
//! tables, TLBs, PW-caches and PRTs, the host's centralised table and TLB,
//! and the Forwarding Table — the same invalidation plumbing the recovery
//! protocol uses, so the post-run invariant auditor certifies that no stale
//! short-circuit (PRT entry, FT owner key, cached translation) survives a
//! migration.
//!
//! Table updates that cross the fabric (PRT/FT maintenance) stay subject to
//! the fault injector's `drop_table_update` perturbation, exactly as the
//! pre-engine fault path was; the authoritative host PT/TLB updates never
//! are. The gate order reproduces the legacy draw sequence bit-for-bit, so
//! a `FirstTouch` run under any fault plan replays identically to the
//! pre-engine simulator.

#![warn(clippy::indexing_slicing)]

use ptw::{GpuId, Location};
use sim_core::{Cycle, MigrationEvent, MigrationKind};
use uvm::{OwnershipTransaction, TxnKind};

use crate::protocol;
use crate::system::System;

impl System {
    /// Mirrors one ownership transaction into the memory system via the
    /// shared transition layer ([`crate::protocol::commit_ownership`]); the
    /// shadow sanitizer (`cfg.sanitize`) then certifies the commit's
    /// atomicity on the spot.
    pub(crate) fn apply_ownership_txn(&mut self, txn: &OwnershipTransaction) {
        protocol::commit_ownership(self, txn);
        if self.oversub.active() {
            // Mirror the committed move into the eviction engine's
            // residency/recency tracking.
            self.evictor.apply_txn(txn, self.now);
        }
        if self.cfg.sanitize {
            self.sanitize_commit(txn);
        }
    }

    /// Schedules the data movement of a transaction on the fabric and
    /// returns its completion time. Non-moving transactions (remote map,
    /// already resident) and the zero-migration-latency idealisation
    /// complete immediately.
    pub(crate) fn txn_transfer_done(&mut self, txn: &OwnershipTransaction, now: Cycle) -> Cycle {
        if !txn.moves_data() || self.cfg.ideal.zero_migration_latency {
            return now;
        }
        let bytes = self.cfg.page_bytes();
        let g = txn.dest;
        match txn.source {
            Location::Cpu => self.fabric.send_cpu_to_gpu(g as usize, now, bytes),
            Location::Gpu(s) if s != g => self
                .fabric
                .send_gpu_to_gpu(s as usize, g as usize, now, bytes),
            Location::Gpu(_) => now, // the data is already local
        }
    }

    /// Records a completed movement in the migration log.
    pub(crate) fn record_migration(
        &mut self,
        txn: &OwnershipTransaction,
        issued: Cycle,
        completed: Cycle,
    ) {
        let kind = match txn.kind {
            TxnKind::Migrate => MigrationKind::FaultMigrate,
            TxnKind::Collapse => MigrationKind::Collapse,
            TxnKind::Replicate => MigrationKind::Replicate,
            TxnKind::Prefetch => MigrationKind::Prefetch,
            TxnKind::RemoteMap | TxnKind::AlreadyResident => return,
        };
        self.migration_log.record(MigrationEvent {
            vpn: txn.vpn,
            src: txn.source.gpu(),
            dst: txn.dest,
            issued,
            completed,
            kind,
        });
    }

    /// After a demand migration whose data came `from` lands on `gpu`,
    /// pulls the policy's prefetch neighborhood of `vpn` in alongside it.
    /// Only pages the directory deems untouched (cold, or idle on the
    /// migration source) move; a VPN outside the workload footprint, already
    /// mapped on the destination, or still pending in the destination's PRT
    /// (an in-flight arrival — double-inserting the multiset filter would
    /// corrupt the later departure) is skipped. Prefetch transfers occupy
    /// fabric bandwidth off the critical path.
    pub(crate) fn apply_prefetches(&mut self, vpn: u64, gpu: GpuId, from: Location, now: Cycle) {
        let neighborhood = self.dir.prefetch_neighborhood(vpn);
        if neighborhood.is_empty() {
            return;
        }
        if self.overload.shed_background(uvm::TrafficClass::Prefetch) {
            // Admission control sheds prefetch traffic first: the demand
            // migration already happened, only the speculative pull is lost.
            self.overload.stats.prefetch_shed = self
                .overload
                .stats
                .prefetch_shed
                .saturating_add(neighborhood.len() as u64);
            return;
        }
        if self
            .oversub
            .shed_background(gpu, uvm::TrafficClass::Prefetch)
        {
            // Thrash gate: speculative pulls into a thrashing GPU would be
            // the first pages evicted back out.
            return;
        }
        // Snapshot the pending state of the whole neighborhood up front:
        // the PRT is a group-granular multiset, so this batch's own
        // insertions must not make later candidates look pending.
        let Some(gpu_state) = self.gpus.get_mut(gpu as usize) else {
            return; // unknown GPU id: nothing to prefetch into
        };
        let pending: Vec<bool> = neighborhood
            .iter()
            .map(|&v| {
                gpu_state.pt.translate(v).is_some()
                    || gpu_state
                        .prt
                        .as_mut()
                        .is_some_and(|prt| prt.may_be_local(v))
            })
            .collect();
        for (v, was_pending) in neighborhood.into_iter().zip(pending) {
            if self.host.pt.translate(v).is_none() {
                continue; // outside the workload footprint
            }
            if was_pending {
                self.metrics.placement.prefetch_skipped_pending = self
                    .metrics
                    .placement
                    .prefetch_skipped_pending
                    .saturating_add(1);
                continue;
            }
            let Some(txn) = self.dir.prefetch_page(v, gpu, from) else {
                continue; // touched, shared, or homed off the source
            };
            self.apply_ownership_txn(&txn);
            self.map_on_gpu(gpu, v, Location::Gpu(gpu));
            let done = self.txn_transfer_done(&txn, now);
            self.record_migration(&txn, now, done);
            self.metrics.placement.prefetched_pages =
                self.metrics.placement.prefetched_pages.saturating_add(1);
        }
    }
}
