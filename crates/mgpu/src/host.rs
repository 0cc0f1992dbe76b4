//! Host-side event handlers: the hardware host MMU (baseline far-fault
//! path), fault resolution/migration, and the software UVM-driver mode.

#![warn(clippy::indexing_slicing)]

use std::ops::RangeInclusive;

use ptw::{GpuId, Location};
use sim_core::{Cycle, SimError};
use uvm::TxnKind;

use crate::request::ReqId;
use crate::system::{Event, System, TransEntry};

impl System {
    /// A far fault (or short-circuited request) reached the host MMU: the
    /// host TLB and the Forwarding Table are searched in parallel (§IV-D).
    pub(crate) fn host_arrive(&mut self, req: ReqId) {
        let now = self.now;
        let Some(r) = self.reqs.get_mut(req) else {
            return;
        };
        if r.completed {
            // A watchdog retry can race the original reply: the reply
            // retires the request while the retried fault copy is still in
            // flight. Re-entering the host path here would start a second
            // walk — and retire the request a second time — so the
            // straggler is discarded like any other duplicate.
            self.note_duplicate();
            return;
        }
        r.host_submit_time = now;
        let (vpn, g) = (r.vpn, r.gpu);

        if self.host.tlb.lookup(vpn).is_some() {
            // Translation known: skip the PW-queue and PT-walk entirely and
            // resolve the fault right away (§II-B). The migration itself
            // remains on the critical path — Fig. 3 attributes it to fault
            // handling regardless of how the translation was found.
            self.resolve_fault(req);
            return;
        }

        // Miss: consult the FT and maybe forward, then join the PW-queue.
        let occupancy = self.host.queue.len();
        self.overload.observe_host(occupancy);
        let forward_to = self.forward_owner(vpn, g);
        if let Some(owner) = forward_to {
            if self
                .policy
                .should_forward(occupancy, self.host.walkers.threads())
                && self.allow_forward(owner, req, now)
            {
                if let Some(r) = self.reqs.get_mut(req) {
                    r.forwarded = true;
                    r.forwarded_to = Some(owner);
                }
                self.metrics.transfw.forwarded = self.metrics.transfw.forwarded.saturating_add(1);
                let arrival = self.cpu_control_arrival(now);
                self.send_message(req, arrival, Event::RemoteWalkArrive { gpu: owner, req });
            }
        }

        match self.host.queue.push(req, now) {
            Ok(()) => self.events.push(now, Event::HostDispatch),
            Err(req) => {
                // Host queue full (sized generously; effectively unreachable
                // under Table II parameters): retry shortly.
                if self.overload.active() {
                    self.overload.stats.demand_deferred =
                        self.overload.stats.demand_deferred.saturating_add(1);
                }
                self.events.push(now + 64, Event::HostArrive { req });
            }
        }
    }

    /// The GPU a far fault on `vpn` from `requester` may be forwarded to:
    /// one FT candidate owner other than the requester, drawn uniformly
    /// from the root RNG (one draw, and only when there is a candidate).
    /// `None` without an FT or a candidate.
    fn forward_owner(&mut self, vpn: u64, requester: GpuId) -> Option<GpuId> {
        let ft = self.host.ft.as_mut()?;
        let mut owners = ft.lookup(vpn);
        owners.retain(|&o| o != requester);
        if owners.is_empty() {
            return None;
        }
        let pick = self.rng.gen_index(owners.len());
        owners.get(pick).copied()
    }

    /// Overload gate on the forwarding fast path: consults the peer's
    /// host→GPU link backlog (congestion) and its circuit breaker. Always
    /// permissive while overload control is disabled, so the pre-overload
    /// forward decision — and therefore the event stream — is unchanged.
    fn allow_forward(&mut self, owner: GpuId, req: ReqId, now: Cycle) -> bool {
        if !self.overload.active() {
            return true;
        }
        let backlog = self.fabric.down_backlog(usize::from(owner), now);
        !matches!(
            self.overload.forward_decision(now, owner, req, backlog),
            crate::overload::ForwardDecision::Skip
        )
    }

    /// Starts host PT-walks while walkers are free, lazily skipping
    /// requests cancelled by a successful remote lookup.
    pub(crate) fn host_dispatch(&mut self) -> Result<(), SimError> {
        let now = self.now;
        if let Some(until) = self.host_failover_until {
            if now < until {
                // Host-MMU failover window: arrivals keep queueing under the
                // PW-queue's bounded admission; dispatch resumes at the
                // queue-drain kick when the standby complex takes over.
                return Ok(());
            }
        }
        loop {
            if !self.host.walkers.has_free() {
                return Ok(());
            }
            let Some((req, waited)) = self.host.queue.pop(now) else {
                return Ok(());
            };
            let Some(r) = self.reqs.get_mut(req) else {
                continue;
            };
            if r.cancelled {
                continue;
            }
            r.lat.host_queue += waited;
            r.host_walk_started = true;
            let vpn = r.vpn;
            if !self.host.walkers.try_acquire() {
                return Err(SimError::Protocol {
                    cycle: now,
                    what: "host: free walker vanished during dispatch".into(),
                });
            }
            self.metrics.host_walks = self.metrics.host_walks.saturating_add(1);
            // Injected slowdowns: DRAM-contention walker stalls and
            // host-MMU overload bursts.
            let stall = self.injector.walker_stall() + self.injector.host_burst_penalty(now);
            let host = &mut self.host;
            let walk = ptw::cached_walk(&mut host.pwc, &host.pt, host.asap.as_mut(), vpn);
            debug_assert!(walk.pte.is_some(), "centralised table maps everything");
            let walk_cycles = Cycle::from(walk.serialized) * self.cfg.walk_level_latency
                + self.cfg.host_fault_overhead
                + stall;
            self.metrics.host_walk_accesses = self
                .metrics
                .host_walk_accesses
                .saturating_add(u64::from(walk.accesses));
            self.events.push(
                now + walk_cycles,
                Event::HostWalkDone {
                    req,
                    walk_cycles,
                    refill: walk.refill,
                },
            );
        }
    }

    /// A host walk finished: refill host PW-cache and TLB, then resolve the
    /// fault (unless a remote supply made this walk redundant).
    pub(crate) fn host_walk_done(
        &mut self,
        req: ReqId,
        walk_cycles: Cycle,
        refill: RangeInclusive<u32>,
    ) {
        let now = self.now;
        self.host.walkers.release();
        self.events.push(now, Event::HostDispatch);
        let Some(r) = self.reqs.get_mut(req) else {
            return;
        };
        r.lat.host_walk += walk_cycles;
        let vpn = r.vpn;
        let redundant = r.remote_supplied || r.completed;
        self.host.pwc.refill(vpn, refill);
        let home = self.dir.home(vpn);
        self.host.tlb.fill(
            vpn,
            TransEntry {
                ppn: vpn,
                loc: home,
            },
        );

        if redundant {
            return; // counted as a replicated walk when the notify arrived
        }
        self.resolve_fault(req);
    }

    /// Applies the placement policy to a faulting request: migration /
    /// replication / remote mapping, with the data transfer on the critical
    /// path (Fig. 3's "migrating page to local memory" component).
    pub(crate) fn resolve_fault(&mut self, req: ReqId) {
        let now = self.now;
        let Some(r) = self.reqs.get(req) else {
            return;
        };
        let (vpn, g, is_write) = (r.vpn, r.gpu, r.is_write);
        if let Some(until) = self.offline_until.get(g as usize).copied().flatten() {
            // The requester is offline: resolving now would migrate the page
            // into a dead GPU. Park the request and re-resolve against fresh
            // placement state once it rejoins.
            self.metrics.recovery.deferred_events =
                self.metrics.recovery.deferred_events.saturating_add(1);
            let retry = self.host_entry_event(req);
            self.events.push(until, retry);
            return;
        }
        // Thrash detection: classify the fault (refault = the page was
        // evicted within the refault window) and, while the gate is
        // engaged, serve cold faults by host-mediated direct access — map
        // the page where it lives, no migration, no eviction — instead of
        // deepening the collapse. Inert while oversubscription is off.
        let was_refault = self.oversub.note_fault(g, vpn, now);
        if self.oversub.active() {
            let at_capacity = self.evictor.resident_count(g) >= self.oversub.capacity();
            if self
                .oversub
                .prefer_direct_access(g, was_refault, at_capacity)
            {
                let home = self.dir.home(vpn);
                if home != Location::Gpu(g) {
                    self.dir.add_remote_map(vpn, g);
                }
                if let Some(r) = self.reqs.get_mut(req) {
                    r.resolved_loc = Some(home);
                }
                self.events.push(now, Event::FaultResolved { req });
                return;
            }
        }
        // The directory commits the policy decision and hands back the
        // ownership transaction; the memory-system mirror (shootdowns, host
        // view, PRT/FT) is applied atomically in `apply_ownership_txn`.
        let txn = self.dir.resolve_fault(vpn, g, is_write);
        self.apply_ownership_txn(&txn);

        let done_at = self.txn_transfer_done(&txn, now);
        if let Some(r) = self.reqs.get_mut(req) {
            r.resolved_loc = Some(txn.resolved_location());
            r.lat.migration += done_at - now;
        }
        self.record_migration(&txn, now, done_at);
        if txn.kind == TxnKind::Migrate {
            // The prefetch policy pulls the neighborhood in alongside the
            // demand migration (no-op for non-prefetching policies).
            self.apply_prefetches(vpn, g, txn.source, now);
        }
        // Capacity ceiling: the demand resolution (and its prefetches) may
        // have pushed the destination over; evict back down to fit.
        self.enforce_capacity(g);
        self.events.push(done_at, Event::FaultResolved { req });
    }

    /// The page (or mapping) is in place: install the local PTE, update the
    /// PRT, and reply to the requesting GPU for replay.
    pub(crate) fn fault_resolved(&mut self, req: ReqId) -> Result<(), SimError> {
        let now = self.now;
        let Some(r) = self.reqs.get(req) else {
            return Ok(());
        };
        let (completed, vpn, g, resolved) = (r.completed, r.vpn, r.gpu, r.resolved_loc);
        if completed {
            // A remote supply raced ahead (or a retried resolution already
            // replied); drop the duplicate.
            self.note_duplicate();
            return Ok(());
        }
        let Some(loc) = resolved else {
            return Err(SimError::Protocol {
                cycle: now,
                what: format!("req {req} resolved with no location recorded"),
            });
        };
        self.map_on_gpu(g, vpn, loc);
        let arrival = self.cpu_control_arrival(now);
        if let Some(r) = self.reqs.get_mut(req) {
            r.lat.network += arrival - now;
        }
        self.send_message(
            req,
            arrival,
            Event::Reply {
                req,
                entry: TransEntry { ppn: vpn, loc },
            },
        );
        Ok(())
    }

    /// The host's reply reached the requester: replay the translation.
    pub(crate) fn reply(&mut self, req: ReqId, entry: TransEntry) {
        let Some(r) = self.reqs.get(req) else {
            return;
        };
        let (completed, g, vpn) = (r.completed, r.gpu, r.vpn);
        if completed {
            self.note_duplicate();
            return;
        }
        self.retire(req);
        // Replay through the L2 pipeline costs one more L2 access.
        let l2 = self.cfg.l2_tlb_latency;
        if let Some(r) = self.reqs.get_mut(req) {
            r.lat.network += l2;
        }
        // A host-TLB-hit reply maps the page in place on the requester (the
        // fault path was skipped entirely), like a remote mapping.
        let mapped = self
            .gpus
            .get(g as usize)
            .is_some_and(|gpu| gpu.pt.translate(vpn).is_some());
        if !mapped {
            self.map_on_gpu(g, vpn, entry.loc);
            if entry.loc != Location::Gpu(g) {
                self.dir.add_remote_map(vpn, g);
            }
        }
        self.complete_translation(g, vpn, entry);
    }

    // ----- software UVM-driver mode (§II-B, Figs. 2 and 26) -------------

    /// A far fault reached the driver: enqueue it; under Trans-FW the
    /// driver also checks the (CPU-memory) FT and may forward immediately.
    pub(crate) fn driver_submit(&mut self, req: ReqId) {
        let now = self.now;
        let Some(r) = self.reqs.get_mut(req) else {
            return;
        };
        if r.completed {
            // A duplicated/retried fault message for an already-answered
            // request: resubmitting would start a redundant driver walk.
            self.note_duplicate();
            return;
        }
        r.host_submit_time = now;
        let (vpn, g) = (r.vpn, r.gpu);

        let backlog = self.driver.pending_len();
        let threads = self.driver.config().walk_threads;
        let forward_to = self.forward_owner(vpn, g);
        if let Some(owner) = forward_to {
            if (self.policy.should_forward(backlog, threads) || self.driver.is_busy())
                && self.allow_forward(owner, req, now)
            {
                if let Some(r) = self.reqs.get_mut(req) {
                    r.forwarded = true;
                    r.forwarded_to = Some(owner);
                }
                self.metrics.transfw.forwarded = self.metrics.transfw.forwarded.saturating_add(1);
                let arrival = self.cpu_control_arrival(now);
                self.send_message(req, arrival, Event::RemoteWalkArrive { gpu: owner, req });
            }
        }

        self.driver.submit(req, now);
        self.events.push(now, Event::DriverCheck);
    }

    /// Starts a driver batch if the driver is idle and faults are pending.
    pub(crate) fn driver_check(&mut self) {
        let now = self.now;
        if let Some(until) = self.host_failover_until {
            if now < until {
                return; // failover window: batches resume at the drain kick
            }
        }
        if let Some(batch) = self.driver.try_start_batch(now) {
            for &req in &batch.faults {
                if let Some(r) = self.reqs.get_mut(req) {
                    r.host_walk_started = true;
                }
                self.metrics.host_walks = self.metrics.host_walks.saturating_add(1);
            }
            self.driver_batch = batch.faults;
            self.events.push(batch.done_at, Event::DriverBatchDone);
        }
    }

    /// A driver batch completed: resolve every fault in it, then look for
    /// the next batch.
    pub(crate) fn driver_batch_done(&mut self) -> Result<(), SimError> {
        let now = self.now;
        self.driver.finish_batch(now)?;
        let batch = std::mem::take(&mut self.driver_batch);
        for req in batch {
            let Some(r) = self.reqs.get_mut(req) else {
                continue;
            };
            if r.cancelled || r.completed {
                continue;
            }
            // Queue + processing time attribution: waiting for the batch.
            let waited = now.saturating_sub(r.host_submit_time);
            r.lat.host_queue += waited;
            self.resolve_fault(req);
        }
        self.events.push(now, Event::DriverCheck);
        Ok(())
    }
}
