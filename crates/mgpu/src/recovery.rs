//! Component-failure recovery: the state machine that keeps the protocol
//! sound when a GPU drops off the fabric, a peer link partitions, or the
//! host MMU fails over — plus the epoch checkpoint/restore harness.
//!
//! The recovery protocol (see DESIGN.md, "Recovery protocol") is driven by
//! the scheduled [`sim_core::ComponentEvent`]s of the fault plan:
//!
//! * **GPU offline** — drain its PW-queue and in-flight walks (re-issuing
//!   local work through the reliable host path at rejoin, refusing borrowed
//!   walks with a failure notify), invalidate every FT entry keyed to the
//!   victim *before* migrating page ownership to survivors through the
//!   directory, shoot down survivors' dangling remote maps, and flush the
//!   victim's page table, PW-cache, TLBs and PRT wholesale.
//! * **GPU rejoin** — rebuild the PRT from the directory's authoritative
//!   residency list and release the compute/translation events that were
//!   parked during the window (the warm-up cost).
//! * **Link partition** — peer traffic between the severed pair detours
//!   store-and-forward over the host links (real occupancy → backpressure)
//!   instead of hanging.
//! * **Host-MMU failover** — dispatch stalls while arrivals keep queueing
//!   under the PW-queue's bounded admission; a drain kick restarts dispatch
//!   when the window closes.
//!
//! Checkpoints are digest certificates, not deep snapshots: the simulator
//! is deterministic, so "restore" means replaying from the initial state
//! and verifying that every epoch digest of the crashed run reproduces
//! bit-identically ([`run_with_restore`]).

#![warn(clippy::indexing_slicing)]

use std::sync::{Arc, Mutex};

use ptw::Location;
use sim_core::{CheckpointLog, ComponentEvent, Cycle, EpochCheckpoint, SimError, StateDigest};

use crate::config::FarFaultMode;
use crate::metrics::RunMetrics;
use crate::protocol;
use crate::request::{Req, ReqId};
use crate::system::{Cu, Event, GmmuJob, Gpu, HostMmu, System, Wavefront};
use crate::workload::Workload;

impl System {
    /// Translates the fault plan's scheduled component events into
    /// bookkeeping events on the queue. Called once at the start of a run;
    /// an empty plan pushes nothing, preserving fault-free bit-identity.
    pub(crate) fn schedule_component_events(&mut self) {
        let events = self.injector.plan().component_events.clone();
        for ev in events {
            match ev {
                ComponentEvent::GpuOffline {
                    gpu,
                    at_cycle,
                    duration,
                } => {
                    let until = at_cycle.saturating_add(duration);
                    let gpu = gpu as u16;
                    self.push_bookkeeping(at_cycle, Event::GpuOffline { gpu, until });
                    // Pushed before any deferred work targeting `until`, so
                    // FIFO tie-breaking runs the rejoin first.
                    self.push_bookkeeping(until, Event::GpuRejoin { gpu, until });
                }
                ComponentEvent::LinkPartition {
                    a,
                    b,
                    at_cycle,
                    duration,
                } => {
                    let (a, b) = (a as u16, b as u16);
                    self.push_bookkeeping(at_cycle, Event::LinkDown { a, b });
                    if duration > 0 {
                        self.push_bookkeeping(at_cycle + duration, Event::LinkUp { a, b });
                    }
                }
                ComponentEvent::HostMmuFailover { at_cycle, stall } => {
                    let until = at_cycle.saturating_add(stall);
                    self.push_bookkeeping(at_cycle, Event::HostFailoverStart { until });
                    if stall > 0 {
                        self.push_bookkeeping(until, Event::HostFailoverEnd);
                    }
                }
            }
        }
    }

    /// The event that (re-)enters a request into the far-fault path, per
    /// the configured fault mode.
    pub(crate) fn host_entry_event(&self, req: ReqId) -> Event {
        match self.cfg.fault_mode {
            FarFaultMode::HostMmu => Event::HostArrive { req },
            FarFaultMode::UvmDriver => Event::DriverSubmit { req },
        }
    }

    /// Filters one popped event through the offline windows: events
    /// targeting a dead GPU are deferred to its rejoin, redirected through
    /// the host, or refused — never silently dropped with a request
    /// attached. Returns `None` when the event was consumed.
    #[expect(
        clippy::indexing_slicing,
        reason = "recovery replays ids captured from the live request arena during the same epoch; the checkpoint digest would already have diverged if an id were stale"
    )]
    pub(crate) fn intercept_for_recovery(&mut self, ev: Event) -> Option<Event> {
        if self.offline_count == 0 {
            return Some(ev);
        }
        let target: Option<u16> = match &ev {
            Event::WfStart(wf) | Event::WfMem(wf) | Event::L2Access(wf) | Event::DataDone(wf) => {
                Some(wf.gpu)
            }
            Event::GmmuEnqueue { gpu, .. }
            | Event::GmmuDispatch { gpu }
            | Event::RemoteWalkArrive { gpu, .. } => Some(*gpu),
            Event::RemoteSupply { req, .. }
            | Event::Reply { req, .. }
            | Event::HostArrive { req }
            | Event::DriverSubmit { req }
            | Event::FaultResolved { req } => Some(self.reqs[*req].gpu),
            // Walk completions are gated by the per-GPU generation counter
            // instead; host-side, watchdog, recovery and checkpoint
            // bookkeeping events have no offline GPU to defer for.
            Event::GmmuWalkDone { .. }
            | Event::HostDispatch
            | Event::HostWalkDone { .. }
            | Event::RemoteNotify { .. }
            | Event::DriverCheck
            | Event::DriverBatchDone
            | Event::ReqDeadline { .. }
            | Event::LivenessCheck
            | Event::GpuOffline { .. }
            | Event::GpuRejoin { .. }
            | Event::LinkDown { .. }
            | Event::LinkUp { .. }
            | Event::HostFailoverStart { .. }
            | Event::HostFailoverEnd
            | Event::Checkpoint => None,
        };
        let Some(until) = target.and_then(|g| self.offline_until[g as usize]) else {
            return Some(ev); // no target, or the target is healthy
        };
        match ev {
            // Compute, translation entry points and deliveries addressed to
            // the victim wait out the window: the warm-up cost of rejoin.
            Event::WfStart(_)
            | Event::WfMem(_)
            | Event::L2Access(_)
            | Event::DataDone(_)
            | Event::GmmuEnqueue { .. }
            | Event::RemoteSupply { .. }
            | Event::HostArrive { .. }
            | Event::DriverSubmit { .. } => {
                self.metrics.recovery.deferred_events =
                    self.metrics.recovery.deferred_events.saturating_add(1);
                self.events.push(until, ev);
                None
            }
            // The queue was drained at offline time; the rejoin re-kicks it.
            Event::GmmuDispatch { .. } => None,
            // A forwarded walk reaching a dead GPU is refused immediately so
            // the host falls back to its own walk instead of waiting.
            Event::RemoteWalkArrive { req, .. } => {
                self.metrics.transfw.remote_failed =
                    self.metrics.transfw.remote_failed.saturating_add(1);
                let at = self.cpu_control_arrival(self.now);
                self.send_message(
                    req,
                    at,
                    Event::RemoteNotify {
                        req,
                        success: false,
                    },
                );
                None
            }
            // A resolution (or its reply) computed before the failure
            // carries placement the eviction has invalidated: re-enter the
            // host path at rejoin and re-resolve against fresh state.
            Event::Reply { req, .. } | Event::FaultResolved { req } => {
                if self.reqs[req].completed {
                    self.note_duplicate();
                } else {
                    self.metrics.recovery.deferred_events =
                        self.metrics.recovery.deferred_events.saturating_add(1);
                    let retry = self.host_entry_event(req);
                    self.events.push(until, retry);
                }
                None
            }
            // Unreachable in practice: the target-selection match above
            // returned `None` for these, so the let-else already passed
            // them through. Listed (not wildcarded) so a new Event variant
            // forces a routing decision here too.
            Event::GmmuWalkDone { .. }
            | Event::HostDispatch
            | Event::HostWalkDone { .. }
            | Event::RemoteNotify { .. }
            | Event::DriverCheck
            | Event::DriverBatchDone
            | Event::ReqDeadline { .. }
            | Event::LivenessCheck
            | Event::GpuOffline { .. }
            | Event::GpuRejoin { .. }
            | Event::LinkDown { .. }
            | Event::LinkUp { .. }
            | Event::HostFailoverStart { .. }
            | Event::HostFailoverEnd
            | Event::Checkpoint => Some(ev),
        }
    }

    /// GPU `g` drops off the fabric until `until`: drain, invalidate,
    /// migrate ownership, flush (the tentpole recovery sequence).
    #[expect(
        clippy::indexing_slicing,
        reason = "recovery replays ids captured from the live request arena during the same epoch; the checkpoint digest would already have diverged if an id were stale"
    )]
    pub(crate) fn gpu_offline(&mut self, g: u16, until: Cycle) {
        self.metrics.recovery.gpu_offline_events =
            self.metrics.recovery.gpu_offline_events.saturating_add(1);
        let gi = g as usize;
        if let Some(old) = self.offline_until[gi] {
            // Overlapping windows: the state was already drained; just
            // extend. The stale rejoin event is recognised by its `until`.
            self.offline_until[gi] = Some(old.max(until));
            return;
        }
        self.offline_until[gi] = Some(until);
        self.offline_count += 1;
        // Invalidate in-flight walk completions (their walkers are reset
        // below; the stale events are dropped by the generation check).
        self.gpus[gi].gen = self.gpus[gi].gen.wrapping_add(1);

        // Drain queued and in-flight walks.
        let mut orphans: Vec<GmmuJob> = Vec::new();
        while let Some(job) = self.gpus[gi].queue.remove_where(|_| true) {
            orphans.push(job);
        }
        orphans.append(&mut std::mem::take(&mut self.gpus[gi].inflight));
        self.gpus[gi].walkers.force_reset();
        let now = self.now;
        for job in orphans {
            if job.remote {
                // A borrowed walk dies with its borrower: refuse it so the
                // host's own walk proceeds.
                self.metrics.transfw.remote_failed =
                    self.metrics.transfw.remote_failed.saturating_add(1);
                let at = self.cpu_control_arrival(now);
                self.send_message(
                    job.req,
                    at,
                    Event::RemoteNotify {
                        req: job.req,
                        success: false,
                    },
                );
            } else if !self.reqs[job.req].completed {
                // Re-issue the victim's own walk through the reliable host
                // path once it rejoins.
                self.reqs[job.req].fallback = true;
                self.reqs[job.req].cancelled = false;
                self.metrics.recovery.reissued_walks =
                    self.metrics.recovery.reissued_walks.saturating_add(1);
                let entry = self.host_entry_event(job.req);
                self.events.push(until, entry);
            }
        }

        // Ownership migration through the directory, with the FT entries
        // keyed to the victim invalidated in the same step — the host must
        // stop forwarding to the dead GPU immediately (forwards already in
        // flight are refused by the interceptor). Pages with an outstanding
        // request (a PRT-pending fault or an in-flight forwarded walk) are
        // *pinned*: migrating their ownership mid-walk would let a late
        // supply resurrect a mapping the eviction tore down, so they are
        // deferred until their last request retires (`unpin_vpn`).
        let pins = self.pin_set();
        let report = self.dir.evict_gpu_pinned(g, &pins);
        for &vpn in &report.deferred {
            self.pending_evict.insert(vpn, g);
        }
        self.metrics.recovery.deferred_evictions = self
            .metrics
            .recovery
            .deferred_evictions
            .saturating_add(report.deferred.len() as u64);
        protocol::evict_tables(self, g, &report);
        if self.oversub.active() {
            self.evictor.on_gpu_offline(g);
            self.oversub.on_gpu_offline(g);
        }

        // An evicted peer takes its circuit breaker down with it: any
        // half-open probes aimed at it are drained (their in-flight forwards
        // were refused above / by the interceptor, and the probed requests
        // keep their host walks), and the breaker latches open so no new
        // forwards target the dead GPU before the host-side FT eviction is
        // observed everywhere.
        let _drained = self.overload.on_gpu_offline(now, g);

        // Flush the victim wholesale: device memory is gone. The MSHR is
        // deliberately kept — its coalesced waiters are woken by the
        // re-issued walks after rejoin.
        protocol::offline_flush(self, g);
    }

    /// GPU `g` rejoins at the end of the window it went down for: rebuild
    /// the PRT from the directory and restart dispatch. Stale rejoins (the
    /// window was extended by a second offline event) are ignored.
    #[expect(
        clippy::indexing_slicing,
        reason = "recovery replays ids captured from the live request arena during the same epoch; the checkpoint digest would already have diverged if an id were stale"
    )]
    pub(crate) fn gpu_rejoin(&mut self, g: u16, until: Cycle) {
        let gi = g as usize;
        if self.offline_until[gi] != Some(until) {
            return;
        }
        self.offline_until[gi] = None;
        self.offline_count -= 1;
        self.metrics.recovery.gpu_rejoins = self.metrics.recovery.gpu_rejoins.saturating_add(1);
        // PRT rebuild from the directory's authoritative residency list
        // (empty right after an eviction; pages repopulate it as the
        // re-issued and deferred walks migrate them back in).
        let resident = self.dir.resident_vpns_on(g);
        protocol::rejoin_prt(self, g, &resident);
        // Evictions deferred by the pin set are cancelled: the rejoining
        // GPU's deferred and re-issued walks re-resolve against fresh
        // placement and may legitimately migrate those pages back in.
        self.pending_evict.retain(|_, &mut owner| owner != g);
        if self.oversub.active() {
            self.evictor.sync_residency(g, &resident, self.now);
        }
        self.events.push(self.now, Event::GmmuDispatch { gpu: g });
    }

    /// The peer link between `a` and `b` is severed: subsequent peer
    /// traffic detours via the host (see
    /// [`Fabric::set_partitioned`](interconnect::Fabric::set_partitioned)).
    pub(crate) fn link_down(&mut self, a: u16, b: u16) {
        self.metrics.recovery.link_partition_events = self
            .metrics
            .recovery
            .link_partition_events
            .saturating_add(1);
        self.fabric.set_partitioned(a as usize, b as usize, true);
    }

    /// The peer link heals.
    pub(crate) fn link_up(&mut self, a: u16, b: u16) {
        self.fabric.set_partitioned(a as usize, b as usize, false);
    }

    /// The host MMU stops dispatching until `until` (failover to a standby
    /// walker complex). Overlapping windows extend.
    pub(crate) fn host_failover_start(&mut self, until: Cycle) {
        self.metrics.recovery.host_failover_events =
            self.metrics.recovery.host_failover_events.saturating_add(1);
        self.host_failover_until = Some(self.host_failover_until.map_or(until, |u| u.max(until)));
    }

    /// The failover window closed: drain the backlog.
    pub(crate) fn host_failover_end(&mut self) {
        let Some(until) = self.host_failover_until else {
            return;
        };
        if self.now < until {
            return; // stale end of an extended window
        }
        self.host_failover_until = None;
        self.events.push(self.now, Event::HostDispatch);
        if self.cfg.fault_mode == FarFaultMode::UvmDriver {
            self.events.push(self.now, Event::DriverCheck);
        }
    }

    /// Ticks one epoch: bumps `checkpoints_taken` and re-arms the next
    /// `Checkpoint` event. Only when a sink is attached (see
    /// [`with_checkpoint_sink`](System::with_checkpoint_sink)) does it also
    /// compute the digest of the complete observable simulation state and
    /// record it, under the epoch ordinal `checkpoints_taken` had before
    /// the bump. Without a sink nothing reads a digest, so none is made.
    pub(crate) fn epoch_checkpoint(&mut self) {
        if let Some(sink) = &self.checkpoint_sink {
            let cp = EpochCheckpoint {
                epoch: self.metrics.recovery.checkpoints_taken,
                cycle: self.now,
                digest: self.state_digest(),
            };
            lock_log(sink).record(cp);
        }
        self.metrics.recovery.checkpoints_taken =
            self.metrics.recovery.checkpoints_taken.saturating_add(1);
        if let Some(interval) = self.cfg.checkpoint_interval {
            if self.has_real_events() {
                self.push_bookkeeping(self.now + interval, Event::Checkpoint);
            }
        }
    }

    /// A 64-bit digest over everything that determines the rest of the run:
    /// cycle, RNG stream position, request states, per-GPU cache/queue/
    /// walker/table/CU state, host MMU state, the fabric links, the UVM
    /// driver, the page directory and the key counters. Two runs in the
    /// same state produce the same digest, and a divergence anywhere shows
    /// up in every later digest. Coverage is checked by rustc: `System` and
    /// each per-element struct is destructured exhaustively, so a new field
    /// does not compile until it is mixed or bound as `_` with a reason.
    pub(crate) fn state_digest(&self) -> u64 {
        let Self {
            cfg: _, // fixed for the run: a replay starts from the same config
            now,
            events: _, // pending work: each event is mixed through what it changes
            gpus,
            host,
            fabric,
            dir,
            driver,
            driver_batch,
            reqs,
            completed_reqs: _, // derived: the `completed` flags mixed per request
            waiter_buf: _,     // scratch, empty between events
            metrics,
            policy: _, // a fixed threshold from the config
            rng,
            cache_hit_rate: _,  // set once from the workload before the run
            injector: _,        // its draws gate transitions whose results are mixed
            last_real_event: _, // reporting only: what `total_cycles` reads
            liveness_mark: _,   // watchdog bookkeeping
            // Recovery windows: a GPU's offline transitions are mixed through
            // `gen` and the flushed tables.
            offline_until: _,
            offline_count: _,
            host_failover_until: _,
            bookkeeping_pending: _,
            // Outputs of the run, read after it ends.
            checkpoint_sink: _,
            sanitizer_violations: _,
            overload,
            oversub,
            evictor,
            outstanding_vpns,
            pending_evict,
        } = self;
        let mut d = StateDigest::new();
        d.mix(*now)
            .mix(rng.state_digest())
            .mix(reqs.len() as u64)
            .mix(metrics.mem_instructions)
            .mix(metrics.translation_requests)
            .mix(metrics.resilience.requests_retired)
            .mix(metrics.local_faults);
        for req in reqs.iter() {
            let Req {
                vpn,
                gpu,
                is_write,
                born,
                forwarded_to,
                completed,
                remote_timed_out,
                watchdog_retries,
                retire_count,
                host_submit_time,
                lat,
                resolved_loc,
                forwarded,
                remote_supplied,
                host_walk_started,
                cancelled,
                remote_outcome,
                fallback,
            } = req;
            d.mix(
                vpn ^ (u64::from(*completed) << 63)
                    ^ (u64::from(*retire_count) << 48)
                    ^ (u64::from(*gpu) << 40),
            );
            d.mix(
                (u64::from(*is_write) << 63)
                    ^ (u64::from(*remote_timed_out) << 62)
                    ^ (forwarded_to.map_or(0, |g| u64::from(g) + 1) << 44)
                    ^ (u64::from(*watchdog_retries) << 24)
                    ^ born,
            );
            let loc = match resolved_loc {
                None => 0,
                Some(Location::Cpu) => 1,
                Some(Location::Gpu(g)) => u64::from(*g) + 2,
            };
            d.mix(
                (loc << 8)
                    ^ u64::from(*forwarded)
                    ^ (u64::from(*remote_supplied) << 1)
                    ^ (u64::from(*host_walk_started) << 2)
                    ^ (u64::from(*cancelled) << 3)
                    ^ (u64::from(*remote_outcome) << 4)
                    ^ (u64::from(*fallback) << 5),
            );
            d.mix(*host_submit_time).mix(lat.total());
        }
        for gpu in gpus {
            let Gpu {
                cus,
                l2,
                mshr,
                queue,
                walkers,
                pwc,
                pt,
                prt,
                asap,
                ctas,
                gen,
                inflight,
                l1_holders: _, // derived: a superset of the L1 contents, which only steer hits
            } = gpu;
            d.mix(l2.hits())
                .mix(l2.misses())
                .mix(mshr.len() as u64)
                .mix(queue.len() as u64)
                .mix(walkers.busy() as u64)
                .mix(pt.state_digest())
                .mix(u64::from(*gen))
                .mix(pwc.stats().lookups)
                .mix(pwc.stats().misses)
                .mix_all(ctas.iter().map(|&cta| cta as u64));
            for &GmmuJob { req, remote, gen } in inflight {
                d.mix(req as u64 ^ (u64::from(remote) << 63) ^ (u64::from(gen) << 40));
            }
            for Cu { l1, wfs } in cus {
                d.mix(l1.hits()).mix(l1.misses());
                for Wavefront { stream, pending } in wfs {
                    d.mix(u64::from(stream.is_some()));
                    if let Some(a) = pending.as_ref() {
                        d.mix(a.vpn ^ (u64::from(a.is_write) << 63) ^ a.compute.rotate_left(16));
                    }
                }
            }
            if let Some(asap) = asap.as_ref() {
                d.mix(asap.state_digest());
            }
            if let Some(prt) = prt.as_ref() {
                d.mix(prt.state_digest());
            }
        }
        let HostMmu {
            tlb,
            queue,
            walkers,
            pwc,
            pt,
            asap,
            ft,
        } = host;
        d.mix(tlb.hits())
            .mix(tlb.misses())
            .mix(queue.len() as u64)
            .mix(walkers.busy() as u64)
            .mix(pt.state_digest())
            .mix(pwc.stats().lookups)
            .mix(pwc.stats().misses);
        if let Some(asap) = asap.as_ref() {
            d.mix(asap.state_digest());
        }
        if let Some(ft) = ft.as_ref() {
            d.mix(ft.state_digest());
        }
        d.mix(fabric.state_digest());
        d.mix(driver.state_digest());
        d.mix_all(driver_batch.iter().map(|&r| r as u64));
        d.mix(dir.state_digest());
        d.mix(overload.digest());
        d.mix(oversub.digest());
        d.mix(evictor.state_digest());
        for (&vpn, &c) in outstanding_vpns.iter() {
            d.mix(vpn + 1).mix(u64::from(c));
        }
        for (&vpn, &g) in pending_evict.iter() {
            d.mix(vpn + 1).mix(u64::from(g));
        }
        d.finish()
    }
}

/// Locks a shared checkpoint log, recovering from poisoning: the log's
/// entries are plain `Copy` digests, so a panic elsewhere while the lock
/// was held cannot have left them half-written.
fn lock_log(log: &Arc<Mutex<CheckpointLog>>) -> std::sync::MutexGuard<'_, CheckpointLog> {
    log.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Outcome of a crash-and-restore cycle (see [`run_with_restore`]).
#[derive(Debug, Clone)]
pub struct RestoreOutcome {
    /// Metrics of the restored, replayed-to-completion run.
    pub metrics: RunMetrics,
    /// Whether a restore actually happened (false when the "crashing" run
    /// finished before the crash point).
    pub restored: bool,
    /// Epochs the crashed run had recorded when it died.
    pub crashed_epochs: usize,
}

/// Runs `workload` with a crash injected at `crash_at` cycles, then
/// restores from the checkpoint log: the simulator is deterministic, so
/// restoring means replaying from the initial state and verifying that the
/// crashed run's every epoch digest reproduces bit-identically. Returns the
/// completed run's metrics (with `restores_performed` set) after the
/// verification passes.
///
/// # Errors
///
/// * [`SimError::Config`] if `cfg.checkpoint_interval` is `None`: a
///   restore needs epochs.
/// * [`SimError::InvariantViolation`] if the replay diverges from the
///   crashed run's checkpoint prefix.
/// * Any other [`SimError`] from either run, except the injected
///   [`SimError::CycleCapExceeded`].
pub fn run_with_restore(
    cfg: &crate::config::SystemConfig,
    workload: &dyn Workload,
    crash_at: Cycle,
) -> Result<RestoreOutcome, SimError> {
    if cfg.checkpoint_interval.is_none() {
        return Err(SimError::Config(
            "run_with_restore requires checkpoint_interval".into(),
        ));
    }
    // Crash half: run with a hard cycle cap standing in for the crash. The
    // sink mirrors every checkpoint out of the dying System.
    let crashed = Arc::new(Mutex::new(CheckpointLog::new()));
    let mut crash_cfg = cfg.clone();
    crash_cfg.watchdog.max_cycles = Some(crash_at);
    let sys = System::new(crash_cfg).with_checkpoint_sink(crashed.clone());
    match sys.run(workload) {
        Ok(metrics) => {
            // Finished before the crash point: nothing to restore.
            return Ok(RestoreOutcome {
                crashed_epochs: lock_log(&crashed).len(),
                metrics,
                restored: false,
            });
        }
        Err(SimError::CycleCapExceeded { .. }) => {}
        Err(e) => return Err(e),
    }
    let crashed_log = lock_log(&crashed).clone();

    // Restore half: deterministic replay from cycle 0, verified epoch by
    // epoch against the crashed run's log.
    let restored = Arc::new(Mutex::new(CheckpointLog::new()));
    let sys = System::new(cfg.clone()).with_checkpoint_sink(restored.clone());
    let mut metrics = sys.run(workload)?;
    let restored_log = lock_log(&restored).clone();
    crashed_log.verify_prefix_of(&restored_log)?;
    metrics.recovery.restores_performed = 1;
    Ok(RestoreOutcome {
        metrics,
        restored: true,
        crashed_epochs: crashed_log.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    /// The resolved location and each request flag move the epoch digest,
    /// and no two of them move it the same way.
    #[test]
    fn state_digest_covers_every_request_field() {
        let mut sys = System::new(SystemConfig::default());
        let id = sys.reqs.create(0x40, 1, false, 0);
        let fresh = sys.reqs[id].clone();
        let flipped = |flip: fn(&mut Req)| {
            let mut req = fresh.clone();
            flip(&mut req);
            req
        };
        let variants = [
            (
                "resolved_loc cpu",
                flipped(|r| r.resolved_loc = Some(Location::Cpu)),
            ),
            (
                "resolved_loc gpu",
                flipped(|r| r.resolved_loc = Some(Location::Gpu(0))),
            ),
            ("forwarded", flipped(|r| r.forwarded = true)),
            ("remote_supplied", flipped(|r| r.remote_supplied = true)),
            ("host_walk_started", flipped(|r| r.host_walk_started = true)),
            ("cancelled", flipped(|r| r.cancelled = true)),
            ("remote_outcome", flipped(|r| r.remote_outcome = true)),
            ("fallback", flipped(|r| r.fallback = true)),
        ];
        let mut seen = vec![("unchanged", sys.state_digest())];
        for (field, req) in variants {
            sys.reqs[id] = req;
            let d = sys.state_digest();
            for &(other, prior) in &seen {
                assert_ne!(d, prior, "{field} digests like {other}");
            }
            seen.push((field, d));
        }
    }
}
