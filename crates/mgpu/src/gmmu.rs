//! GMMU-side event handlers: PW-queue, walkers, local walks and the remote
//! walks borrowed by Trans-FW forwarding.

use ptw::Location;
use sim_core::{Cycle, SimError};

use crate::request::ReqId;
use crate::system::{Event, GmmuJob, System, TransEntry};

impl System {
    /// Enqueues a walk job, retrying later if the PW-queue is full.
    pub(crate) fn gmmu_enqueue(&mut self, gpu: u16, job: GmmuJob) {
        let now = self.now;
        // Stamp the job with the GPU's current recovery generation: an
        // enqueue deferred across an offline window must not look stale.
        let job = GmmuJob {
            gen: self.gpus[gpu as usize].gen,
            ..job
        };
        match self.gpus[gpu as usize].queue.push(job, now) {
            Ok(()) => self.events.push(now, Event::GmmuDispatch { gpu }),
            Err(job) => {
                self.events.push(now + 64, Event::GmmuEnqueue { gpu, job });
            }
        }
    }

    /// Starts walks while walkers are free and jobs are queued.
    pub(crate) fn gmmu_dispatch(&mut self, gpu: u16) -> Result<(), SimError> {
        let now = self.now;
        loop {
            if !self.gpus[gpu as usize].walkers.has_free() {
                return Ok(());
            }
            let Some((job, waited)) = self.gpus[gpu as usize].queue.pop(now) else {
                return Ok(());
            };
            if !self.gpus[gpu as usize].walkers.try_acquire() {
                return Err(SimError::Protocol {
                    cycle: now,
                    what: format!("GPU{gpu}: free walker vanished during dispatch"),
                });
            }
            if !job.remote {
                self.reqs[job.req].lat.gmmu_queue += waited;
            }
            self.gpus[gpu as usize].inflight.push(job);
            let stall = self.injector.walker_stall();
            let vpn = self.reqs[job.req].vpn;
            let levels = self.cfg.page_table_levels;
            let g = &mut self.gpus[gpu as usize];
            let resume = g.pwc.lookup(vpn);
            let walk = g.pt.walk(vpn, resume);
            let mut accesses = walk.accesses;
            if let Some(asap) = g.asap.as_mut() {
                accesses = asap.effective_accesses(accesses);
            }
            let walk_cycles = Cycle::from(accesses) * self.cfg.walk_level_latency + stall;
            // PW-cache refill range: entries for the levels this walk read.
            let start = resume.map_or(levels, |k| k - 1);
            let insert_lo = walk.reached_level.max(2);
            let insert_hi = start.min(levels);
            self.metrics.gmmu_walk_accesses = self
                .metrics
                .gmmu_walk_accesses
                .saturating_add(u64::from(walk.accesses));
            self.events.push(
                now + walk_cycles,
                Event::GmmuWalkDone {
                    gpu,
                    job,
                    walk_cycles,
                    accesses: walk.accesses,
                    pte: walk.pte,
                    insert_lo,
                    insert_hi,
                },
            );
        }
    }

    /// A GMMU walk finished: refill the PW-cache, then either deliver the
    /// translation, raise a far fault, or answer a borrowed (remote) walk.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gmmu_walk_done(
        &mut self,
        gpu: u16,
        job: GmmuJob,
        walk_cycles: Cycle,
        _accesses: u32,
        pte: Option<ptw::Pte>,
        insert_lo: u32,
        insert_hi: u32,
    ) {
        let now = self.now;
        if job.gen != self.gpus[gpu as usize].gen {
            // The GPU went offline after this walk started: its walker was
            // force-reset and the job drained/re-issued by the recovery
            // protocol, so this completion is stale — drop it without
            // releasing a walker that no longer exists.
            return;
        }
        {
            let g = &mut self.gpus[gpu as usize];
            if let Some(pos) = g
                .inflight
                .iter()
                .position(|j| j.req == job.req && j.remote == job.remote)
            {
                g.inflight.remove(pos);
            }
            g.walkers.release();
            let vpn = self.reqs[job.req].vpn;
            for k in insert_lo..=insert_hi.min(self.cfg.page_table_levels) {
                g.pwc.insert(vpn, k);
            }
        }
        self.events.push(now, Event::GmmuDispatch { gpu });

        if job.remote {
            self.remote_walk_finished(gpu, job.req, pte);
            return;
        }

        let req = job.req;
        self.reqs[req].lat.gmmu_walk += walk_cycles;
        match pte {
            Some(pte) => {
                let g = self.reqs[req].gpu;
                let vpn = self.reqs[req].vpn;
                self.retire(req);
                self.complete_translation(
                    g,
                    vpn,
                    TransEntry {
                        ppn: pte.ppn,
                        loc: pte.loc,
                    },
                );
            }
            None => {
                // GPU local page fault (far fault).
                self.metrics.local_faults = self.metrics.local_faults.saturating_add(1);
                self.record_remote_probe(gpu, self.reqs[req].vpn);
                if self.gpus[gpu as usize].prt.is_some() {
                    // With short-circuiting enabled every local-walk fault is
                    // a PRT false positive by construction.
                    self.metrics.transfw.prt_false_positives =
                        self.metrics.transfw.prt_false_positives.saturating_add(1);
                }
                self.send_fault_to_host(req, now);
            }
        }
    }

    /// A forwarded request arrived at the owner GPU: join its PW-queue and
    /// borrow a walker (§IV-C "how to borrow").
    pub(crate) fn remote_walk_arrive(&mut self, gpu: u16, req: ReqId) {
        if self.reqs[req].completed {
            // The host path already satisfied the requester (or this is a
            // duplicated forward under fault injection).
            self.note_duplicate();
            return;
        }
        let queue_occ = self.gpus[gpu as usize].queue.len();
        let mshr_occ = self.gpus[gpu as usize].mshr.len();
        if self.overload.gpu_overloaded(gpu, queue_occ, mshr_occ) {
            // GPU-side admission control: an overloaded owner refuses the
            // borrowed walk instead of queueing behind its own demand
            // misses. The failure notify keeps the host path live (and
            // feeds the requester's circuit breaker for this peer).
            self.overload.stats.remote_walks_shed =
                self.overload.stats.remote_walks_shed.saturating_add(1);
            let now = self.now;
            let notify_at = self.cpu_control_arrival(now);
            self.send_message(
                req,
                notify_at,
                Event::RemoteNotify {
                    req,
                    success: false,
                },
            );
            return;
        }
        let gen = self.gpus[gpu as usize].gen;
        self.gmmu_enqueue(
            gpu,
            GmmuJob {
                req,
                remote: true,
                gen,
            },
        );
    }

    /// A borrowed walk completed on `gpu`: on success, ship the translation
    /// straight to the requester and notify the host; on failure (an FT
    /// false positive or stale owner) just notify the host.
    fn remote_walk_finished(&mut self, gpu: u16, req: ReqId, pte: Option<ptw::Pte>) {
        let now = self.now;
        let requester = self.reqs[req].gpu as usize;
        // Only a PTE whose page actually lives on this GPU can be supplied;
        // a remote-pointing PTE (remote mapping) would bounce again.
        let supply = pte.filter(|p| p.loc == Location::Gpu(gpu));
        let success = supply.is_some();
        if let Some(pte) = supply {
            // Honours link partitions: a severed supplier→requester pair
            // detours over the reliable host links.
            let arrival = self.peer_control_arrival_between(gpu, requester as u16, now);
            self.send_message(
                req,
                arrival,
                Event::RemoteSupply {
                    req,
                    entry: TransEntry {
                        ppn: pte.ppn,
                        loc: pte.loc,
                    },
                },
            );
        } else {
            self.metrics.transfw.remote_failed =
                self.metrics.transfw.remote_failed.saturating_add(1);
        }
        let notify_at = self.cpu_control_arrival(now);
        self.send_message(req, notify_at, Event::RemoteNotify { req, success });
    }

    /// The remote GPU's translation reached the requester: install a
    /// remote-pointing local mapping and release the waiters. The page does
    /// not move; data is accessed over the peer link until the page either
    /// migrates via a later host-resolved fault or is evicted.
    pub(crate) fn remote_supply(&mut self, req: ReqId, entry: TransEntry) {
        if self.reqs[req].completed {
            self.note_duplicate();
            return;
        }
        let g = self.reqs[req].gpu;
        let vpn = self.reqs[req].vpn;
        self.reqs[req].remote_supplied = true;
        self.retire(req);
        self.metrics.transfw.remote_supplied =
            self.metrics.transfw.remote_supplied.saturating_add(1);
        self.map_on_gpu(g, vpn, entry.loc);
        self.dir.add_remote_map(vpn, g);
        self.complete_translation(g, vpn, entry);
    }

    /// The host learns how the borrowed walk went: a success cancels the
    /// still-queued host walk (reducing PT-walk contention); a failure lets
    /// the host path proceed as if nothing happened.
    pub(crate) fn remote_notify(&mut self, req: ReqId, success: bool) {
        if self.reqs[req].remote_outcome {
            // A notification for this request was already processed: this
            // copy is an injected duplicate (or a retried forward's echo).
            self.note_duplicate();
            return;
        }
        self.reqs[req].remote_outcome = true;
        // The breaker samples one outcome per live forward attempt: taking
        // `forwarded_to` here means a watchdog timeout for the same attempt
        // (which also takes it) can never double-count.
        if let Some(peer) = self.reqs[req].forwarded_to.take() {
            let now = self.now;
            self.overload
                .record_forward_outcome(now, peer, req, success);
        }
        if success {
            // Never cancel a fallback request: the degraded path must stay
            // runnable no matter how late a lost-then-retried notification
            // straggles in.
            if !self.reqs[req].host_walk_started
                && !self.reqs[req].cancelled
                && !self.reqs[req].fallback
            {
                self.reqs[req].cancelled = true;
                self.metrics.transfw.cancelled_host_walks =
                    self.metrics.transfw.cancelled_host_walks.saturating_add(1);
            } else if self.reqs[req].host_walk_started {
                // Both the host walk and the remote walk ran: Fig. 14's
                // replicated PT-walk.
                self.metrics.transfw.replicated_walks =
                    self.metrics.transfw.replicated_walks.saturating_add(1);
            }
        } else {
            // The borrowed walk ran in vain and the host walk proceeds (or
            // already ran): the walk was replicated either way.
            self.metrics.transfw.replicated_walks =
                self.metrics.transfw.replicated_walks.saturating_add(1);
        }
    }
}
