//! The full-system model and its event loop.

#![warn(clippy::indexing_slicing)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::RangeInclusive;

use std::sync::{Arc, Mutex};

use interconnect::Fabric;
use ptw::{Asap, GpuId, Location, PageTable, Pte, PwCache, PwQueue, WalkerPool};
use sim_core::{
    CheckpointLog, Cycle, EventQueue, FaultInjector, MessageFate, SimError, SimRng, Stream,
};
use tlb::{Mshr, MshrOutcome, Tlb};
use transfw::{ForwardPolicy, Ft, Prt};
use uvm::{PageDirectory, UvmDriver};

use crate::config::{FarFaultMode, PwcKind, SystemConfig};
use crate::metrics::RunMetrics;
use crate::protocol::{self, ProtocolNote, ProtocolTables};
use crate::request::{ReqArena, ReqId, WfRef};
use crate::workload::{Access, AccessStream, Workload};

/// A cached translation: physical page number plus where the page lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransEntry {
    /// Physical page number.
    pub ppn: u64,
    /// Memory holding the page.
    pub loc: Location,
}

/// A unit of work in a GMMU PW-queue: a local translation or a walk
/// borrowed by the host (Trans-FW forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GmmuJob {
    pub req: ReqId,
    pub remote: bool,
    /// The GPU's recovery generation at dispatch: a walk-done event whose
    /// generation is stale (the GPU went offline in between) is discarded
    /// instead of releasing a walker that was already force-reset.
    pub gen: u32,
}

#[derive(Debug, Clone)]
pub(crate) enum Event {
    WfStart(WfRef),
    WfMem(WfRef),
    L2Access(WfRef),
    GmmuEnqueue {
        gpu: u16,
        job: GmmuJob,
    },
    GmmuDispatch {
        gpu: u16,
    },
    GmmuWalkDone {
        gpu: u16,
        job: GmmuJob,
        walk_cycles: Cycle,
        pte: Option<Pte>,
        refill: RangeInclusive<u32>,
    },
    HostArrive {
        req: ReqId,
    },
    HostDispatch,
    HostWalkDone {
        req: ReqId,
        walk_cycles: Cycle,
        refill: RangeInclusive<u32>,
    },
    RemoteWalkArrive {
        gpu: u16,
        req: ReqId,
    },
    RemoteSupply {
        req: ReqId,
        entry: TransEntry,
    },
    RemoteNotify {
        req: ReqId,
        success: bool,
    },
    FaultResolved {
        req: ReqId,
    },
    Reply {
        req: ReqId,
        entry: TransEntry,
    },
    DataDone(WfRef),
    DriverSubmit {
        req: ReqId,
    },
    DriverCheck,
    DriverBatchDone,
    /// Watchdog: deadline for a request that left its GPU over the fabric.
    /// `attempt` pins the deadline to one send; stale deadlines are ignored.
    ReqDeadline {
        req: ReqId,
        attempt: u32,
    },
    /// Watchdog: periodic whole-system progress check.
    LivenessCheck,
    /// Recovery: GPU `gpu` drops off the fabric until cycle `until`.
    GpuOffline {
        gpu: u16,
        until: Cycle,
    },
    /// Recovery: GPU `gpu` rejoins; stale if its window was extended past
    /// `until` by a second offline event.
    GpuRejoin {
        gpu: u16,
        until: Cycle,
    },
    /// Recovery: the peer link between `a` and `b` is severed.
    LinkDown {
        a: u16,
        b: u16,
    },
    /// Recovery: the peer link between `a` and `b` heals.
    LinkUp {
        a: u16,
        b: u16,
    },
    /// Recovery: the host MMU stops dispatching walks until `until`.
    HostFailoverStart {
        until: Cycle,
    },
    /// Recovery: the host MMU resumes dispatching and drains its backlog.
    HostFailoverEnd,
    /// Epoch checkpoint: record a state digest and re-arm.
    Checkpoint,
}

pub(crate) struct Wavefront {
    pub stream: Option<Box<dyn AccessStream>>,
    pub pending: Option<Access>,
}

pub(crate) struct Cu {
    pub l1: Tlb<TransEntry>,
    pub wfs: Vec<Wavefront>,
}

pub(crate) struct Gpu {
    pub cus: Vec<Cu>,
    pub l2: Tlb<TransEntry>,
    pub mshr: Mshr<WfRef>,
    pub queue: PwQueue<GmmuJob>,
    pub walkers: WalkerPool,
    pub pwc: PwCache,
    pub pt: PageTable,
    pub prt: Option<Prt>,
    pub asap: Option<Asap>,
    pub ctas: VecDeque<usize>,
    /// Recovery generation: bumped when the GPU goes offline so in-flight
    /// walk completions from before the failure are recognised as stale.
    pub gen: u32,
    /// Jobs whose walk is in flight (walker acquired, completion pending) —
    /// drained and re-issued when the GPU goes offline.
    pub inflight: Vec<GmmuJob>,
}

pub(crate) struct HostMmu {
    pub tlb: Tlb<TransEntry>,
    pub queue: PwQueue<ReqId>,
    pub walkers: WalkerPool,
    pub pwc: PwCache,
    pub pt: PageTable,
    pub asap: Option<Asap>,
    pub ft: Option<Ft>,
}

fn make_pwc(kind: PwcKind, entries: usize, levels: u32) -> PwCache {
    match kind {
        PwcKind::Utc => PwCache::new(entries, levels),
        PwcKind::Stc => PwCache::split(levels),
        PwcKind::Infinite => PwCache::infinite(levels),
    }
}

/// The simulated multi-GPU system.
///
/// Build one from a [`SystemConfig`] and [`run`](Self::run) a workload to
/// completion; the returned [`RunMetrics`] carry every statistic the paper's
/// figures use. See the crate-level example.
pub struct System {
    pub(crate) cfg: SystemConfig,
    pub(crate) now: Cycle,
    pub(crate) events: EventQueue<Event>,
    pub(crate) gpus: Vec<Gpu>,
    pub(crate) host: HostMmu,
    pub(crate) fabric: Fabric,
    pub(crate) dir: PageDirectory,
    pub(crate) driver: UvmDriver<ReqId>,
    pub(crate) driver_batch: Vec<ReqId>,
    pub(crate) reqs: ReqArena,
    pub(crate) metrics: RunMetrics,
    pub(crate) policy: ForwardPolicy,
    pub(crate) rng: SimRng,
    pub(crate) cache_hit_rate: f64,
    pub(crate) injector: FaultInjector,
    /// Time of the last non-watchdog event: what `total_cycles` reports, so
    /// watchdog bookkeeping events never inflate the measured runtime.
    pub(crate) last_real_event: Cycle,
    /// Progress snapshot at the previous liveness check:
    /// `(requests retired, memory instructions, requests created)`.
    pub(crate) liveness_mark: (u64, u64, u64),
    /// Per-GPU offline window: `Some(rejoin_cycle)` while the GPU is down.
    pub(crate) offline_until: Vec<Option<Cycle>>,
    /// Number of GPUs currently offline (fast path guard for the event
    /// interceptor).
    pub(crate) offline_count: usize,
    /// Host-MMU failover window: `Some(resume_cycle)` while dispatch stalls.
    pub(crate) host_failover_until: Option<Cycle>,
    /// Bookkeeping events (watchdog/recovery/checkpoint) currently queued;
    /// the liveness and checkpoint re-arm logic treats a queue holding only
    /// bookkeeping as drained, so the two self-re-arming watchdogs cannot
    /// keep each other alive forever.
    pub(crate) bookkeeping_pending: usize,
    /// Where epoch checkpoints go, if anywhere: outside the `System`, so
    /// the log survives a run that aborts mid-flight (the crash half of
    /// checkpoint/restore). `None` means no digest is ever computed.
    pub(crate) checkpoint_sink: Option<Arc<Mutex<CheckpointLog>>>,
    /// Shadow-sanitizer findings (`cfg.sanitize`): invariant violations
    /// observed at ownership commits and retires, reported by the post-run
    /// auditor. Capped so a systemic violation cannot balloon memory.
    pub(crate) sanitizer_violations: Vec<String>,
    /// Overload-control plane: admission gates, retry budgets, breakers.
    /// Inert (no RNG draws, no events) when `cfg.overload.enabled` is off.
    pub(crate) overload: crate::overload::OverloadControl,
    /// Oversubscription control plane: thrash detection and degradation
    /// policy. Inert when `cfg.oversub.enabled` is off.
    pub(crate) oversub: crate::oversub::OversubControl,
    /// Per-GPU residency/recency tracker and victim selector. Only
    /// consulted and updated while oversubscription is enabled.
    pub(crate) evictor: uvm::EvictionEngine,
    /// Outstanding translation requests per VPN — the pin set. A page with
    /// a PRT-pending fault or an in-flight forwarded walk must never be
    /// evicted (capacity or recovery): the supplied translation would
    /// resurrect a mapping the eviction just tore down. Pure bookkeeping
    /// (no RNG), maintained unconditionally so the recovery path honours
    /// it even with oversubscription off.
    pub(crate) outstanding_vpns: BTreeMap<u64, u32>,
    /// Recovery evictions deferred because the page was pinned: VPN → the
    /// offline GPU it still must be evicted from. Completed when the last
    /// outstanding request on the VPN retires; cancelled at rejoin.
    pub(crate) pending_evict: BTreeMap<u64, GpuId>,
}

impl System {
    /// Builds a system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`SystemConfig::validate`] error if the
    /// configuration breaks a rule.
    pub fn new(cfg: SystemConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid configuration: {e}");
        }
        let levels = cfg.page_table_levels;
        let tf = cfg.transfw.clone();
        let gpus: Vec<Gpu> = (0..cfg.gpus)
            .map(|_| Gpu {
                cus: (0..cfg.cus_per_gpu)
                    .map(|_| Cu {
                        l1: Tlb::new(cfg.l1_tlb_entries, cfg.l1_tlb_entries, cfg.l1_tlb_latency),
                        wfs: (0..cfg.wavefronts_per_cu)
                            .map(|_| Wavefront {
                                stream: None,
                                pending: None,
                            })
                            .collect(),
                    })
                    .collect(),
                l2: Tlb::new(cfg.l2_tlb_entries, cfg.l2_tlb_assoc, cfg.l2_tlb_latency),
                mshr: Mshr::new(256),
                queue: PwQueue::new(cfg.pw_queue_entries),
                walkers: if cfg.ideal.infinite_walkers {
                    WalkerPool::infinite()
                } else {
                    WalkerPool::new(cfg.gmmu_walkers)
                },
                pwc: make_pwc(cfg.pwc_kind, cfg.gmmu_pwc_entries, levels),
                pt: PageTable::new(levels),
                prt: tf
                    .as_ref()
                    .filter(|k| k.gmmu_short_circuit)
                    .map(|k| Prt::new(&k.config)),
                asap: cfg.asap.map(Asap::new),
                ctas: VecDeque::new(),
                gen: 0,
                inflight: Vec::new(),
            })
            .collect();
        let host = HostMmu {
            tlb: Tlb::new(cfg.host_tlb_entries, cfg.host_tlb_assoc, 1),
            queue: PwQueue::new(cfg.pw_queue_entries.max(4096)),
            walkers: if cfg.ideal.infinite_walkers {
                WalkerPool::infinite()
            } else {
                WalkerPool::new(cfg.host_walkers)
            },
            pwc: make_pwc(cfg.pwc_kind, cfg.host_pwc_entries, levels),
            pt: PageTable::new(levels),
            asap: cfg.asap.map(Asap::new),
            ft: tf
                .as_ref()
                .filter(|k| k.host_forwarding)
                .map(|k| Ft::new(&k.config, cfg.gpus)),
        };
        let policy = ForwardPolicy::new(tf.as_ref().map_or(0.5, |k| k.config.forward_threshold));
        Self {
            fabric: Fabric::new(
                cfg.gpus as usize,
                cfg.cpu_link_latency,
                cfg.peer_link_latency,
                cfg.link_bytes_per_cycle,
            ),
            dir: PageDirectory::with_policy(cfg.gpus, cfg.placement),
            driver: UvmDriver::new(uvm::DriverConfig {
                batch_overhead: cfg.driver.batch_overhead
                    + cfg.driver_per_gpu_poll * sim_core::Cycle::from(cfg.gpus),
                ..cfg.driver
            }),
            driver_batch: Vec::new(),
            reqs: ReqArena::new(),
            metrics: RunMetrics::default(),
            policy,
            rng: SimRng::stream(cfg.seed, Stream::Root, 0),
            cache_hit_rate: 0.5,
            injector: FaultInjector::new(cfg.faults.clone()),
            last_real_event: 0,
            liveness_mark: (0, 0, 0),
            offline_until: vec![None; cfg.gpus as usize],
            offline_count: 0,
            host_failover_until: None,
            bookkeeping_pending: 0,
            checkpoint_sink: None,
            sanitizer_violations: Vec::new(),
            overload: crate::overload::OverloadControl::new(&cfg.overload, cfg.gpus, cfg.seed),
            oversub: crate::oversub::OversubControl::new(&cfg.oversub, cfg.gpus),
            evictor: uvm::EvictionEngine::new(cfg.oversub.policy, cfg.gpus),
            outstanding_vpns: BTreeMap::new(),
            pending_evict: BTreeMap::new(),
            now: 0,
            events: EventQueue::with_capacity(1 << 14),
            gpus,
            host,
            cfg,
        }
    }

    /// Records every epoch checkpoint into `sink` as it is taken, so the log
    /// survives a run that aborts (the crash half of checkpoint/restore;
    /// see [`run_with_restore`](crate::run_with_restore)). Only a run with a
    /// sink pays for epoch digests: without one, a `Checkpoint` event just
    /// bumps `checkpoints_taken` and re-arms itself.
    pub fn with_checkpoint_sink(mut self, sink: Arc<Mutex<CheckpointLog>>) -> Self {
        self.checkpoint_sink = Some(sink);
        self
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs `workload` to completion, on the calling thread, and returns
    /// the collected metrics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the run cannot complete soundly: a
    /// [`SimError::Config`] if `workload.initial_owner` names a GPU the
    /// system does not have, a [`SimError::Livelock`] if outstanding work
    /// stops making progress for a whole liveness interval,
    /// [`SimError::CycleCapExceeded`] past `watchdog.max_cycles`, a
    /// [`SimError::Protocol`] from a handler that observed impossible
    /// state, or an [`SimError::InvariantViolation`] from the post-run
    /// auditor.
    pub fn run(mut self, workload: &dyn Workload) -> Result<RunMetrics, SimError> {
        self.cache_hit_rate = workload.data_cache_hit_rate();
        self.metrics.app = workload.name().to_string();

        // Stale-entry pollution (fault injection): garbage fingerprints the
        // PRTs and FT accumulated "before" this run's window.
        if self.injector.plan().table_pollution > 0 {
            let keys = self.injector.pollution_keys();
            for gpu in &mut self.gpus {
                if let Some(prt) = gpu.prt.as_mut() {
                    for &k in &keys {
                        prt.page_arrived(k);
                    }
                }
            }
            if let Some(ft) = self.host.ft.as_mut() {
                for (i, &k) in keys.iter().enumerate() {
                    ft.owner_added(k, (i % self.cfg.gpus as usize) as GpuId);
                }
            }
        }

        // Centralised page table: every page starts valid on the host, then
        // warm pages move to their initial owner (see
        // `Workload::initial_owner`).
        let t_pages = self
            .cfg
            .translation_vpn(workload.footprint_pages().saturating_sub(1))
            + 1;
        let shift = self.cfg.page_size_bits - 12;
        for vpn in 0..t_pages {
            let owner = workload.initial_owner(vpn << shift, self.cfg.gpus);
            if let Some(g) = owner.filter(|&g| g >= self.cfg.gpus) {
                return Err(SimError::Config(format!(
                    "initial_owner returned GPU {g} but only {} exist",
                    self.cfg.gpus
                )));
            }
            let loc = owner.map_or(Location::Cpu, Location::Gpu);
            self.host.pt.insert(vpn, Pte::new(vpn, loc));
            if let Some(g) = owner {
                self.dir.place(vpn, loc);
                self.map_on_gpu(g, vpn, loc);
                if let Some(ft) = self.host.ft.as_mut() {
                    ft.page_migrated(vpn, None, g);
                }
            }
        }
        if self.cfg.ideal.no_local_faults {
            for (g, gpu) in self.gpus.iter_mut().enumerate() {
                for vpn in 0..t_pages {
                    gpu.pt.insert(vpn, Pte::new(vpn, Location::Gpu(g as GpuId)));
                }
            }
        }

        // Oversubscription: seed the eviction engine's residency tracking
        // from the warm placement, then trim any GPU whose warm set already
        // overflows its capacity.
        if self.oversub.active() {
            for g in 0..self.cfg.gpus {
                let resident = self.dir.resident_vpns_on(g);
                self.evictor.sync_residency(g, &resident, 0);
            }
            for g in 0..self.cfg.gpus {
                self.enforce_capacity(g);
            }
        }

        // Greedy CTA placement: contiguous blocks per GPU (§III-A).
        let n_ctas = workload.cta_count();
        let n_gpus = self.cfg.gpus as usize;
        for cta in 0..n_ctas {
            let g = cta * n_gpus / n_ctas.max(1);
            if let Some(gpu) = self.gpus.get_mut(g) {
                gpu.ctas.push_back(cta);
            }
        }

        // Kick every wavefront slot.
        for g in 0..n_gpus {
            for c in 0..self.cfg.cus_per_gpu {
                for w in 0..self.cfg.wavefronts_per_cu {
                    self.events.push(
                        0,
                        Event::WfStart(WfRef {
                            gpu: g as u16,
                            cu: c,
                            wf: w,
                        }),
                    );
                }
            }
        }

        // Event-loop liveness watchdog: periodic progress checks. The event
        // is bookkeeping-only (no simulated state, no RNG) and is excluded
        // from `total_cycles`, so arming it keeps fault-free runs
        // bit-identical while still catching wedges in every test.
        if self.cfg.watchdog.enabled {
            self.push_bookkeeping(self.cfg.watchdog.liveness_interval, Event::LivenessCheck);
        }

        // Scheduled component failures and the epoch-checkpoint tick, all
        // bookkeeping (excluded from `total_cycles`).
        self.schedule_component_events();
        if let Some(interval) = self.cfg.checkpoint_interval {
            self.push_bookkeeping(interval, Event::Checkpoint);
        }

        while let Some((t, ev)) = self.events.pop() {
            debug_assert!(t >= self.now, "time moved backwards");
            self.now = t;
            if Self::is_bookkeeping(&ev) {
                self.bookkeeping_pending -= 1;
            } else {
                // The cycle cap gates *real* work only: once the workload is
                // done, late bookkeeping (the initial liveness arming, stale
                // request deadlines) drains past the cap harmlessly.
                if let Some(cap) = self.cfg.watchdog.max_cycles {
                    if t > cap {
                        return Err(SimError::CycleCapExceeded {
                            cap,
                            outstanding: self.outstanding_requests(),
                        });
                    }
                }
                self.last_real_event = t;
            }
            let Some(ev) = self.intercept_for_recovery(ev) else {
                continue; // deferred or redirected around an offline GPU
            };
            self.dispatch(ev, workload)?;
        }

        self.finalize()
    }

    /// Whether an event is watchdog/recovery bookkeeping: excluded from
    /// `total_cycles` and from the "real work pending" count that gates the
    /// self-re-arming watchdogs.
    fn is_bookkeeping(ev: &Event) -> bool {
        matches!(
            ev,
            Event::LivenessCheck
                | Event::ReqDeadline { .. }
                | Event::Checkpoint
                | Event::GpuOffline { .. }
                | Event::GpuRejoin { .. }
                | Event::LinkDown { .. }
                | Event::LinkUp { .. }
                | Event::HostFailoverStart { .. }
                | Event::HostFailoverEnd
        )
    }

    /// Pushes a bookkeeping event, keeping the pending count in sync.
    pub(crate) fn push_bookkeeping(&mut self, at: Cycle, ev: Event) {
        debug_assert!(Self::is_bookkeeping(&ev));
        self.bookkeeping_pending += 1;
        self.events.push(at, ev);
    }

    /// Whether anything other than bookkeeping is still queued.
    pub(crate) fn has_real_events(&self) -> bool {
        self.events.len() > self.bookkeeping_pending
    }

    /// Translation requests created but not yet retired.
    fn outstanding_requests(&self) -> u64 {
        self.reqs.iter().filter(|r| !r.completed).count() as u64
    }

    fn dispatch(&mut self, ev: Event, workload: &dyn Workload) -> Result<(), SimError> {
        match ev {
            Event::WfStart(wf) => self.wf_start(wf, workload),
            Event::WfMem(wf) => self.wf_mem(wf),
            Event::L2Access(wf) => self.l2_access(wf),
            Event::GmmuEnqueue { gpu, job } => {
                self.gmmu_enqueue(gpu, job);
                Ok(())
            }
            Event::GmmuDispatch { gpu } => self.gmmu_dispatch(gpu),
            Event::GmmuWalkDone {
                gpu,
                job,
                walk_cycles,
                pte,
                refill,
            } => {
                self.gmmu_walk_done(gpu, job, walk_cycles, pte, refill);
                Ok(())
            }
            Event::HostArrive { req } => {
                self.host_arrive(req);
                Ok(())
            }
            Event::HostDispatch => self.host_dispatch(),
            Event::HostWalkDone {
                req,
                walk_cycles,
                refill,
            } => {
                self.host_walk_done(req, walk_cycles, refill);
                Ok(())
            }
            Event::RemoteWalkArrive { gpu, req } => {
                self.remote_walk_arrive(gpu, req);
                Ok(())
            }
            Event::RemoteSupply { req, entry } => {
                self.remote_supply(req, entry);
                Ok(())
            }
            Event::RemoteNotify { req, success } => {
                self.remote_notify(req, success);
                Ok(())
            }
            Event::FaultResolved { req } => self.fault_resolved(req),
            Event::Reply { req, entry } => {
                self.reply(req, entry);
                Ok(())
            }
            Event::DataDone(wf) => self.data_done(wf, workload),
            Event::DriverSubmit { req } => {
                self.driver_submit(req);
                Ok(())
            }
            Event::DriverCheck => {
                self.driver_check();
                Ok(())
            }
            Event::DriverBatchDone => self.driver_batch_done(),
            Event::ReqDeadline { req, attempt } => {
                self.req_deadline(req, attempt);
                Ok(())
            }
            Event::LivenessCheck => self.liveness_check(),
            Event::GpuOffline { gpu, until } => {
                self.gpu_offline(gpu, until);
                Ok(())
            }
            Event::GpuRejoin { gpu, until } => {
                self.gpu_rejoin(gpu, until);
                Ok(())
            }
            Event::LinkDown { a, b } => {
                self.link_down(a, b);
                Ok(())
            }
            Event::LinkUp { a, b } => {
                self.link_up(a, b);
                Ok(())
            }
            Event::HostFailoverStart { until } => {
                self.host_failover_start(until);
                Ok(())
            }
            Event::HostFailoverEnd => {
                self.host_failover_end();
                Ok(())
            }
            Event::Checkpoint => {
                self.epoch_checkpoint();
                Ok(())
            }
        }
    }

    // ----- protocol watchdogs --------------------------------------------

    /// A deadline armed when `req` was sent over the fabric fired. If the
    /// request is still outstanding and this deadline matches its latest
    /// send, the watchdog retries (lossy, bounded) and finally degrades to a
    /// reliable direct host walk — the ordinary path of §II-B, with the
    /// §IV-C cancellation undone so the fallback cannot be skipped.
    fn req_deadline(&mut self, req: ReqId, attempt: u32) {
        let now = self.now;
        let (gpu, timed_out_peer) = {
            let Some(r) = self.reqs.get_mut(req) else {
                return;
            };
            if r.completed || r.fallback {
                return;
            }
            if attempt != r.watchdog_retries {
                return; // stale: a newer send re-armed the deadline
            }
            r.remote_timed_out = true;
            (r.gpu, r.forwarded_to.take())
        };
        self.metrics.resilience.remote_timeouts =
            self.metrics.resilience.remote_timeouts.saturating_add(1);
        // A forward that timed out is failure evidence for the peer's
        // breaker (no-op while overload control is off).
        if let Some(peer) = timed_out_peer {
            self.overload.record_forward_outcome(now, peer, req, false);
        }
        // With overload control off every allowed retry fires immediately
        // (the pre-overload behaviour); with it on, a retry must win a
        // token from the per-GPU budget and then waits out jittered
        // exponential backoff so a saturated host is not hammered.
        let granted: Option<Cycle> = if attempt < self.cfg.watchdog.max_retries {
            if self.overload.active() {
                match self.overload.retry_decision(gpu, attempt) {
                    crate::overload::RetryDecision::Retry { delay } => Some(delay),
                    crate::overload::RetryDecision::Exhausted => None,
                }
            } else {
                Some(0)
            }
        } else {
            None
        };
        if let Some(delay) = granted {
            if let Some(r) = self.reqs.get_mut(req) {
                r.watchdog_retries += 1;
                r.cancelled = false;
            }
            self.metrics.resilience.retries = self.metrics.resilience.retries.saturating_add(1);
            self.send_fault_to_host(req, now + delay);
        } else {
            // Graceful degradation: mark the request fallback (all of its
            // subsequent messages bypass the injector) and hand it straight
            // to the host MMU.
            if let Some(r) = self.reqs.get_mut(req) {
                r.fallback = true;
                r.cancelled = false;
            }
            self.metrics.resilience.fallback_walks =
                self.metrics.resilience.fallback_walks.saturating_add(1);
            let arrival = self.cpu_control_arrival(now);
            if let Some(r) = self.reqs.get_mut(req) {
                r.lat.network += arrival - now;
            }
            self.events.push(arrival, Event::HostArrive { req });
        }
    }

    /// Periodic whole-system progress check: if nothing retired, started or
    /// executed for an entire interval while requests are outstanding, the
    /// protocol has wedged (e.g. every copy of a completion message was
    /// lost and no fallback fired) and the run aborts instead of spinning.
    fn liveness_check(&mut self) -> Result<(), SimError> {
        if !self.has_real_events() {
            return Ok(()); // run drained; nothing left to watch
        }
        let mark = (
            self.metrics.resilience.requests_retired,
            self.metrics.mem_instructions,
            self.reqs.len() as u64,
        );
        let outstanding = self.outstanding_requests();
        // While a component is down, stalled progress is the *expected*
        // state (work is parked until the rejoin/failover-end); only abort
        // for no-progress once the system is whole again.
        let degraded = self.offline_count > 0 || self.host_failover_until.is_some();
        if mark == self.liveness_mark && outstanding > 0 && !degraded {
            return Err(SimError::Livelock {
                cycle: self.now,
                outstanding,
            });
        }
        self.liveness_mark = mark;
        self.push_bookkeeping(
            self.now + self.cfg.watchdog.liveness_interval,
            Event::LivenessCheck,
        );
        Ok(())
    }

    /// Routes one fabric-borne protocol message through the fault injector:
    /// deliver, drop, delay or duplicate. Fallback requests bypass the
    /// injector entirely — the degraded path is modelled as reliable, which
    /// is what guarantees forward progress after the watchdog gives up on
    /// the lossy fast path.
    pub(crate) fn send_message(&mut self, req: ReqId, at: Cycle, ev: Event) {
        if !self.injector.active() || self.reqs.get(req).is_some_and(|r| r.fallback) {
            self.events.push(at, ev);
            return;
        }
        match self.injector.message_fate() {
            MessageFate::Deliver => self.events.push(at, ev),
            MessageFate::Drop => {}
            MessageFate::Delay(d) => self.events.push(at + d, ev),
            MessageFate::Duplicate => {
                self.events.push(at, ev.clone());
                self.events.push(at, ev);
            }
        }
    }

    /// Marks `req` retired: its waiters got a translation. The auditor
    /// checks every request retires exactly once.
    pub(crate) fn retire(&mut self, req: ReqId) {
        let Some(r) = self.reqs.get_mut(req) else {
            debug_assert!(false, "retire of unknown request {req}");
            return;
        };
        r.completed = true;
        r.retire_count += 1;
        let (born, vpn, gpu) = (r.born, r.vpn, r.gpu);
        self.metrics.resilience.requests_retired =
            self.metrics.resilience.requests_retired.saturating_add(1);
        // Latency-tail accounting (recorded only while overload control is
        // enabled, so disabled metrics stay at `Default`).
        self.overload
            .note_demand_latency(self.now.saturating_sub(born));
        self.unpin_vpn(vpn);
        if self.oversub.active() {
            self.evictor.note_touch(gpu, vpn, self.now);
        }
        if self.cfg.sanitize {
            self.sanitize_retire(req);
        }
    }

    /// Releases one pin on `vpn`; when the last outstanding request on the
    /// page retires, a recovery eviction deferred by the pin (the page's
    /// forwarded walk was still in flight when its GPU went offline) is
    /// completed against the directory's current state.
    fn unpin_vpn(&mut self, vpn: u64) {
        let emptied = match self.outstanding_vpns.get_mut(&vpn) {
            Some(c) => {
                *c = c.saturating_sub(1);
                *c == 0
            }
            None => {
                debug_assert!(false, "unpin of untracked vpn {vpn}");
                false
            }
        };
        if !emptied {
            return;
        }
        self.outstanding_vpns.remove(&vpn);
        let Some(g) = self.pending_evict.remove(&vpn) else {
            return;
        };
        // Rejoin cancels its pending evictions, so the GPU is still down;
        // the guard only protects against a page that already migrated away
        // (evict_page finds nothing to do and returns None).
        if self
            .offline_until
            .get(usize::from(g))
            .is_some_and(Option::is_some)
        {
            if let Some(report) = self.dir.evict_page(vpn, g) {
                protocol::evict_tables(self, g, &report);
            }
        }
    }

    /// Counts a protocol message discarded by an idempotence guard. Only
    /// counted under an active plan: the same guards also absorb benign
    /// races in fault-free runs (remote supply vs. host walk), which are
    /// not duplicates.
    pub(crate) fn note_duplicate(&mut self) {
        if self.injector.active() {
            self.metrics.resilience.duplicates_suppressed = self
                .metrics
                .resilience
                .duplicates_suppressed
                .saturating_add(1);
        }
    }

    // ----- wavefront lifecycle ------------------------------------------

    fn wf_start(&mut self, wf: WfRef, workload: &dyn Workload) -> Result<(), SimError> {
        loop {
            let seed = self.cfg.seed;
            let Some(gpu) = self.gpus.get_mut(wf.gpu as usize) else {
                return Ok(()); // misrouted wavefront reference: discard
            };
            let Some(slot) = gpu
                .cus
                .get_mut(wf.cu as usize)
                .and_then(|cu| cu.wfs.get_mut(wf.wf as usize))
            else {
                return Ok(());
            };
            if slot.stream.is_none() {
                match gpu.ctas.pop_front() {
                    Some(cta) => {
                        slot.stream = Some(workload.make_stream(cta, seed ^ (cta as u64) << 1));
                    }
                    None => return Ok(()), // wavefront retires
                }
            }
            let now = self.now;
            let Some(slot) = self.wf_slot_mut(wf) else {
                return Ok(());
            };
            let Some(stream) = slot.stream.as_mut() else {
                return Err(SimError::Protocol {
                    cycle: now,
                    what: format!("wavefront {wf:?} scheduled without a stream"),
                });
            };
            match stream.next_access() {
                Some(a) => {
                    slot.pending = Some(a);
                    self.events.push(self.now + a.compute, Event::WfMem(wf));
                    return Ok(());
                }
                None => {
                    slot.stream = None; // CTA retired; pull the next one
                }
            }
        }
    }

    /// The wavefront slot addressed by `wf`, or `None` when any index is
    /// out of range (a corrupted or misrouted wavefront reference).
    fn wf_slot(&self, wf: WfRef) -> Option<&Wavefront> {
        self.gpus
            .get(wf.gpu as usize)?
            .cus
            .get(wf.cu as usize)?
            .wfs
            .get(wf.wf as usize)
    }

    /// Mutable twin of [`wf_slot`](Self::wf_slot).
    fn wf_slot_mut(&mut self, wf: WfRef) -> Option<&mut Wavefront> {
        self.gpus
            .get_mut(wf.gpu as usize)?
            .cus
            .get_mut(wf.cu as usize)?
            .wfs
            .get_mut(wf.wf as usize)
    }

    /// The pending access of a wavefront slot, as a typed error when the
    /// slot is missing or empty (a duplicated or misrouted wavefront
    /// event).
    fn pending_access(&self, wf: WfRef) -> Result<Access, SimError> {
        self.wf_slot(wf)
            .and_then(|slot| slot.pending)
            .ok_or_else(|| SimError::Protocol {
                cycle: self.now,
                what: format!("wavefront {wf:?} woken with no pending access"),
            })
    }

    fn wf_mem(&mut self, wf: WfRef) -> Result<(), SimError> {
        let a = self.pending_access(wf)?;
        let tvpn = self.cfg.translation_vpn(a.vpn);
        self.metrics.mem_instructions = self.metrics.mem_instructions.saturating_add(1);
        self.metrics.sharing.record(tvpn, wf.gpu, a.is_write);

        let l1_lat = self.cfg.l1_tlb_latency;
        let hit = self
            .gpus
            .get_mut(wf.gpu as usize)
            .and_then(|gpu| gpu.cus.get_mut(wf.cu as usize))
            .and_then(|cu| cu.l1.lookup(tvpn).copied());
        match hit {
            Some(entry) => {
                let lat = l1_lat + self.data_latency(wf.gpu, tvpn, entry);
                self.events.push(self.now + lat, Event::DataDone(wf));
            }
            None => {
                self.events.push(self.now + l1_lat, Event::L2Access(wf));
            }
        }
        Ok(())
    }

    fn l2_access(&mut self, wf: WfRef) -> Result<(), SimError> {
        let a = self.pending_access(wf)?;
        let tvpn = self.cfg.translation_vpn(a.vpn);
        let l2_lat = self.cfg.l2_tlb_latency;
        let hit = self
            .gpus
            .get_mut(wf.gpu as usize)
            .and_then(|gpu| gpu.l2.lookup(tvpn).copied());
        if let Some(entry) = hit {
            self.l1_fill(wf, tvpn, entry);
            let lat = l2_lat + self.data_latency(wf.gpu, tvpn, entry);
            self.events.push(self.now + lat, Event::DataDone(wf));
            return Ok(());
        }

        // Least-TLB (§V-I): the GPUs' L2 TLBs behave as one distributed TLB;
        // probe peers before walking.
        if self.cfg.least_tlb {
            let peer_hit = self
                .gpus
                .iter()
                .enumerate()
                .filter(|&(g, _)| g != wf.gpu as usize)
                .find_map(|(_, gpu)| gpu.l2.probe(tvpn).copied());
            if let Some(entry) = peer_hit {
                let rtt = 2 * self.cfg.peer_link_latency;
                if let Some(gpu) = self.gpus.get_mut(wf.gpu as usize) {
                    gpu.l2.fill(tvpn, entry);
                }
                self.l1_fill(wf, tvpn, entry);
                let lat = l2_lat + rtt + self.data_latency(wf.gpu, tvpn, entry);
                self.events.push(self.now + lat, Event::DataDone(wf));
                return Ok(());
            }
        }

        let outcome = match self.gpus.get_mut(wf.gpu as usize) {
            Some(gpu) => gpu.mshr.register(tvpn, wf),
            None => return Ok(()), // misrouted wavefront reference: discard
        };
        match outcome {
            MshrOutcome::Merged => {}
            MshrOutcome::Full => {
                // Stall and retry shortly.
                self.events.push(self.now + 30, Event::L2Access(wf));
            }
            MshrOutcome::Primary => {
                let born = self.now + l2_lat;
                let req = self.reqs.create(tvpn, wf.gpu, a.is_write, born);
                *self.outstanding_vpns.entry(tvpn).or_insert(0) += 1;
                self.metrics.translation_requests =
                    self.metrics.translation_requests.saturating_add(1);
                // Fresh demand traffic funds the GPU's retry budget.
                self.overload.on_fresh_demand(wf.gpu);
                self.start_translation(req, born);
            }
        }
        Ok(())
    }

    /// Fills the L1 TLB of the CU addressed by `wf`, ignoring a misrouted
    /// reference (the fill is a performance hint, not a protocol step).
    fn l1_fill(&mut self, wf: WfRef, vpn: u64, entry: TransEntry) {
        if let Some(cu) = self
            .gpus
            .get_mut(wf.gpu as usize)
            .and_then(|gpu| gpu.cus.get_mut(wf.cu as usize))
        {
            cu.l1.fill(vpn, entry);
        }
    }

    /// Entry point of the translation machinery for a fresh L2 TLB miss:
    /// baseline goes to the GMMU; Trans-FW consults the PRT first.
    fn start_translation(&mut self, req: ReqId, at: Cycle) {
        let Some((vpn, g)) = self.reqs.get(req).map(|r| (r.vpn, r.gpu)) else {
            return; // stale request id: discard
        };
        let Some(gen) = self.gpus.get(g as usize).map(|gpu| gpu.gen) else {
            return;
        };
        let short_circuit = self
            .gpus
            .get_mut(g as usize)
            .and_then(|gpu| gpu.prt.as_mut())
            .is_some_and(|prt| !prt.may_be_local(vpn));
        if short_circuit {
            self.metrics.transfw.gmmu_bypassed =
                self.metrics.transfw.gmmu_bypassed.saturating_add(1);
            self.send_fault_to_host(req, at);
        } else {
            self.events.push(
                at,
                Event::GmmuEnqueue {
                    gpu: g,
                    job: GmmuJob {
                        req,
                        remote: false,
                        gen,
                    },
                },
            );
        }
    }

    /// Arrival time of a control message on the CPU link: translation
    /// traffic rides a separate virtual channel, so it pays latency but does
    /// not queue behind page DMA.
    pub(crate) fn cpu_control_arrival(&self, at: Cycle) -> Cycle {
        at + self.cfg.cpu_link_latency
    }

    /// Arrival time of a control message on a peer link.
    pub(crate) fn peer_control_arrival(&self, at: Cycle) -> Cycle {
        at + self.cfg.peer_link_latency
    }

    /// Arrival time of a control message between two specific peers,
    /// honouring link partitions: a severed pair detours store-and-forward
    /// over the reliable host links (paying their occupancy, i.e. real
    /// backpressure) instead of hanging on the dead link.
    pub(crate) fn peer_control_arrival_between(&mut self, src: u16, dst: u16, at: Cycle) -> Cycle {
        if self.fabric.is_partitioned(src as usize, dst as usize) {
            self.metrics.recovery.rerouted_messages =
                self.metrics.recovery.rerouted_messages.saturating_add(1);
            let at_host = self
                .fabric
                .send_gpu_to_cpu(src as usize, at, interconnect::msg::CONTROL);
            return self
                .fabric
                .send_cpu_to_gpu(dst as usize, at_host, interconnect::msg::CONTROL);
        }
        self.peer_control_arrival(at)
    }

    /// The Fig. 8 study: on each local fault, would a *remote* GPU's
    /// PW-cache have provided a prefix for this translation? Probes every
    /// peer's PW-cache read-only, so it is inherently cross-shard — it
    /// lives here in the `System` boundary layer (under the epoch barrier
    /// it becomes a barrier-time measurement pass).
    pub(crate) fn record_remote_probe(&mut self, faulting_gpu: u16, vpn: u64) {
        self.metrics.remote_probe.faults = self.metrics.remote_probe.faults.saturating_add(1);
        let best = self
            .gpus
            .iter()
            .enumerate()
            .filter(|&(g, _)| g != faulting_gpu as usize)
            .filter_map(|(_, gpu)| gpu.pwc.probe(vpn))
            .min();
        if let Some(k) = best {
            self.metrics.remote_probe.hits = self.metrics.remote_probe.hits.saturating_add(1);
            if k <= 3 {
                self.metrics.remote_probe.lower_hits =
                    self.metrics.remote_probe.lower_hits.saturating_add(1);
            }
        }
    }

    /// Ships a far fault (or short-circuited request) to the host side.
    /// The message crosses the fabric, so it is subject to fault injection;
    /// under an active plan a watchdog deadline is armed for the round trip.
    #[expect(
        clippy::indexing_slicing,
        reason = "event-loop fast path over the request/GPU arenas; ids are allocated densely by push and freed only at retire, so indexing is bounds-safe by construction"
    )]
    pub(crate) fn send_fault_to_host(&mut self, req: ReqId, at: Cycle) {
        let arrival = self.cpu_control_arrival(at);
        self.reqs[req].lat.network += arrival - at;
        let ev = match self.cfg.fault_mode {
            FarFaultMode::HostMmu => Event::HostArrive { req },
            FarFaultMode::UvmDriver => Event::DriverSubmit { req },
        };
        self.send_message(req, arrival, ev);
        if self.injector.active() && self.cfg.watchdog.enabled && !self.reqs[req].fallback {
            let attempt = self.reqs[req].watchdog_retries;
            self.push_bookkeeping(
                at + self.cfg.watchdog.request_timeout,
                Event::ReqDeadline { req, attempt },
            );
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "event-loop fast path over the request/GPU arenas; ids are allocated densely by push and freed only at retire, so indexing is bounds-safe by construction"
    )]
    fn data_done(&mut self, wf: WfRef, workload: &dyn Workload) -> Result<(), SimError> {
        self.gpus[wf.gpu as usize].cus[wf.cu as usize].wfs[wf.wf as usize].pending = None;
        self.wf_start(wf, workload)
    }

    // ----- shared helpers ------------------------------------------------

    /// Latency of the data access once the translation is known; records
    /// remote-mapping access counters as a side effect.
    pub(crate) fn data_latency(&mut self, gpu: GpuId, vpn: u64, entry: TransEntry) -> Cycle {
        if self.rng.chance(self.cache_hit_rate) {
            return self.cfg.cache_latency;
        }
        match entry.loc {
            Location::Gpu(o) if o == gpu => self.cfg.dram_latency,
            Location::Cpu => 2 * self.cfg.cpu_link_latency + self.cfg.dram_latency,
            Location::Gpu(_) => {
                // Access-counter migration is the lowest priority class:
                // while the host admission gate is engaged it is shed
                // outright (a later access can always re-trigger it).
                if self.overload.shed_background(uvm::TrafficClass::Migration) {
                    self.overload.stats.migration_shed =
                        self.overload.stats.migration_shed.saturating_add(1);
                } else if self
                    .oversub
                    .shed_background(gpu, uvm::TrafficClass::Migration)
                {
                    // Thrash gate: pulling more pages into a thrashing GPU
                    // only deepens the collapse; the access stays remote.
                } else if let Some(txn) = self.dir.record_remote_access(vpn, gpu) {
                    self.apply_background_migration(&txn);
                }
                2 * self.cfg.peer_link_latency + self.cfg.dram_latency
            }
        }
    }

    /// Applies an off-critical-path migration decided by the access-counter
    /// policy: the promotion commits through [`apply_ownership_txn`]
    /// (shootdowns, host view, PRT/FT, eviction-engine mirror, sanitizer)
    /// and the page is mapped on its new home immediately; the data transfer
    /// only occupies fabric bandwidth.
    ///
    /// [`apply_ownership_txn`]: System::apply_ownership_txn
    pub(crate) fn apply_background_migration(&mut self, txn: &uvm::OwnershipTransaction) {
        self.apply_ownership_txn(txn);
        let (vpn, to, now) = (txn.vpn, txn.dest, self.now);
        self.map_on_gpu(to, vpn, Location::Gpu(to));
        let done = match txn.source {
            Location::Gpu(src) if src != to => {
                self.fabric
                    .send_gpu_to_gpu(src as usize, to as usize, now, self.cfg.page_bytes())
            }
            Location::Gpu(_) | Location::Cpu => now,
        };
        self.record_migration(txn, now, done);
        self.enforce_capacity(to);
    }

    /// The pin set: every VPN with an outstanding translation request
    /// (PRT-pending fault or in-flight forwarded walk) is exempt from
    /// eviction.
    pub(crate) fn pin_set(&self) -> BTreeSet<u64> {
        self.outstanding_vpns.keys().copied().collect()
    }

    /// Evicts pages from `g` until its tracked residency fits the
    /// oversubscription capacity. Victims flow through the shared protocol
    /// transition ([`protocol::capacity_evict`]) so PRT/FT/TLB/host-PT
    /// invalidation reuses the recovery plumbing. Degrades gracefully: when
    /// every candidate is pinned or protected the loop stops (the GPU runs
    /// over capacity briefly) instead of evicting a page mid-walk.
    pub(crate) fn enforce_capacity(&mut self, g: GpuId) {
        if !self.oversub.active() {
            return;
        }
        let cap = self.oversub.capacity();
        while self.evictor.resident_count(g) > cap {
            let pins = self.pin_set();
            let pick = self
                .evictor
                .select_victim(g, &self.dir, &pins, self.oversub.hot_protect(g));
            self.oversub.note_pinned_skips(pick.pinned_skipped);
            let Some(victim) = pick.victim else {
                self.oversub.note_no_victim();
                return;
            };
            self.evictor.note_evicted(g, victim);
            let Some(report) = self.dir.evict_page(victim, g) else {
                // The engine tracked a page the directory no longer places
                // on `g` (stale after a racing move); dropping the tracking
                // entry above already reconciled them.
                continue;
            };
            protocol::capacity_evict(self, g, victim, &report);
            self.oversub.note_evicted(g, victim, self.now);
        }
    }

    /// Creates GPU `g`'s local mapping of `vpn` pointing at `loc`
    /// (shared transition, see [`crate::protocol`]).
    pub(crate) fn map_on_gpu(&mut self, g: GpuId, vpn: u64, loc: Location) {
        protocol::map_page(self, g, vpn, loc);
    }

    /// Delivers a finished translation to the requesting GPU: fills the L2
    /// TLB, releases every coalesced waiter and starts their data accesses.
    #[expect(
        clippy::indexing_slicing,
        reason = "event-loop fast path over the request/GPU arenas; ids are allocated densely by push and freed only at retire, so indexing is bounds-safe by construction"
    )]
    pub(crate) fn complete_translation(&mut self, g: GpuId, vpn: u64, entry: TransEntry) {
        self.gpus[g as usize].l2.fill(vpn, entry);
        let waiters = self.gpus[g as usize].mshr.complete(vpn);
        for wf in waiters {
            self.gpus[wf.gpu as usize].cus[wf.cu as usize]
                .l1
                .fill(vpn, entry);
            let lat = self.data_latency(g, vpn, entry);
            self.events.push(self.now + lat, Event::DataDone(wf));
        }
    }

    /// End-of-run structural audit: every queue drained, every walker
    /// released, no coalesced waiter lost, every translation request retired
    /// exactly once, the page directory internally consistent, and the
    /// Trans-FW tables consistent with the page tables they shadow.
    ///
    /// Collects *every* violation (instead of stopping at the first) and
    /// reports them as one [`SimError::InvariantViolation`]. Runs after
    /// every simulation, fault-injected or not — these would all be
    /// lost-wakeup or leaked-resource bugs.
    #[expect(
        clippy::indexing_slicing,
        reason = "event-loop fast path over the request/GPU arenas; ids are allocated densely by push and freed only at retire, so indexing is bounds-safe by construction"
    )]
    fn audit(&mut self) -> Result<(), SimError> {
        let mut violations: Vec<String> = Vec::new();
        for (g, gpu) in self.gpus.iter().enumerate() {
            if gpu.walkers.busy() != 0 {
                violations.push(format!(
                    "GPU{g}: leaked walker ({} busy)",
                    gpu.walkers.busy()
                ));
            }
            if !gpu.queue.is_empty() {
                violations.push(format!("GPU{g}: stuck PW-queue entries"));
            }
            if !gpu.mshr.is_empty() {
                violations.push(format!(
                    "GPU{g}: lost MSHR waiters (wavefronts never woken)"
                ));
            }
        }
        if self.host.walkers.busy() != 0 {
            violations.push(format!(
                "host: leaked walker ({} busy)",
                self.host.walkers.busy()
            ));
        }
        if !self.host.queue.is_empty() {
            violations.push("host: stuck PW-queue entries".into());
        }
        if self.driver.is_busy() {
            violations.push("driver: batch never finished".into());
        }
        if self.driver.pending_len() != 0 {
            violations.push(format!(
                "driver: {} stranded faults",
                self.driver.pending_len()
            ));
        }

        // Request conservation: every translation request retires exactly
        // once — no stranded waiters, no double completions (the dedup
        // guards must have absorbed every duplicated message).
        for (id, req) in self.reqs.iter().enumerate() {
            if req.retire_count != 1 {
                violations.push(format!(
                    "req {id} (vpn {}, gpu {}): retired {} times",
                    req.vpn, req.gpu, req.retire_count
                ));
            }
        }

        // The host's centralised table must agree with the directory, and
        // the directory must be self-consistent.
        for vpn in 0..self.host.pt.mapped_pages() as u64 {
            if let Some(pte) = self.host.pt.translate(vpn) {
                if pte.loc != self.dir.home(vpn) {
                    violations.push(format!(
                        "vpn {vpn}: host PT says {:?} but directory says {:?}",
                        pte.loc,
                        self.dir.home(vpn)
                    ));
                }
            }
        }
        if let Err(e) = self.dir.audit() {
            violations.push(e.to_string());
        }

        // Shadow-sanitizer findings (`cfg.sanitize`): per-event invariant
        // violations recorded at ownership commits and retires.
        violations.append(&mut self.sanitizer_violations);

        // PRT: no false negatives beyond the rare fingerprint-collision
        // deletes the paper's design accepts. A plan that deliberately
        // corrupts the filters (stale entries, pollution) voids this check
        // — correctness then rests on the watchdog fallback instead.
        if !self.injector.plan().perturbs_tables() {
            for g in 0..self.gpus.len() {
                let mapped: Vec<u64> = (0..self.host.pt.mapped_pages() as u64)
                    .filter(|&vpn| self.gpus[g].pt.translate(vpn).is_some())
                    .collect();
                let gpu = &mut self.gpus[g];
                if let Some(prt) = gpu.prt.as_mut() {
                    let missing = mapped.iter().filter(|&&vpn| !prt.may_be_local(vpn)).count();
                    let rate = missing as f64 / mapped.len().max(1) as f64;
                    if rate >= 0.01 {
                        violations.push(format!(
                            "GPU{g}: PRT false-negative rate {rate} over {} pages",
                            mapped.len()
                        ));
                    }
                }
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(SimError::InvariantViolation(violations.join("; ")))
        }
    }

    fn finalize(mut self) -> Result<RunMetrics, SimError> {
        self.audit()?;
        self.metrics.total_cycles = self.last_real_event;
        for gpu in &self.gpus {
            for cu in &gpu.cus {
                self.metrics.l1_hits = self.metrics.l1_hits.saturating_add(cu.l1.hits());
                self.metrics.l1_misses = self.metrics.l1_misses.saturating_add(cu.l1.misses());
            }
            self.metrics.l2_hits = self.metrics.l2_hits.saturating_add(gpu.l2.hits());
            self.metrics.l2_misses = self.metrics.l2_misses.saturating_add(gpu.l2.misses());
            self.metrics.gmmu_pwc.merge(gpu.pwc.stats());
        }
        self.metrics.host_pwc.merge(self.host.pwc.stats());
        self.metrics.host_tlb_hits = self.host.tlb.hits();
        self.metrics.host_tlb_misses = self.host.tlb.misses();
        self.metrics.host_queue_peak = self.host.queue.peak();
        self.metrics.directory = self.dir.stats();
        self.metrics.driver_batches = self.driver.batch_count();
        for req in self.reqs.iter() {
            self.metrics.breakdown.gmmu_queue += req.lat.gmmu_queue;
            self.metrics.breakdown.gmmu_walk += req.lat.gmmu_walk;
            self.metrics.breakdown.host_queue += req.lat.host_queue;
            self.metrics.breakdown.host_walk += req.lat.host_walk;
            self.metrics.breakdown.migration += req.lat.migration;
            self.metrics.breakdown.network += req.lat.network;
        }
        self.metrics.resilience.faults_injected = self.injector.stats();
        // Data transfers rerouted inside the fabric join the control
        // messages rerouted at the protocol layer.
        self.metrics.recovery.rerouted_messages = self
            .metrics
            .recovery
            .rerouted_messages
            .saturating_add(self.fabric.rerouted_count());
        self.metrics.overload = self.overload.take_stats();
        self.metrics.oversub = self.oversub.take_stats();
        Ok(self.metrics)
    }
}

/// The simulator's hardware state, viewed through the shared protocol
/// transition layer: every table mutation the transitions in
/// [`crate::protocol`] perform lands on the real structures (page tables
/// with PW-cache invalidation, TLB hierarchies, cuckoo PRT/FT), the lossy
/// gate draws from the fault injector, and metric notes land on
/// [`RunMetrics`].
impl ProtocolTables for System {
    fn pt_insert(&mut self, gpu: GpuId, vpn: u64, loc: Location) {
        if let Some(g) = self.gpus.get_mut(gpu as usize) {
            g.pt.insert(vpn, Pte::new(vpn, loc));
        }
    }

    fn pt_remove(&mut self, gpu: GpuId, vpn: u64) {
        let levels = self.cfg.page_table_levels;
        if let Some(g) = self.gpus.get_mut(gpu as usize) {
            if let Some((_, emptied)) = g.pt.remove(vpn) {
                for k in emptied {
                    if k <= levels {
                        g.pwc.invalidate(vpn, k);
                    }
                }
            }
        }
    }

    fn tlb_shootdown(&mut self, gpu: GpuId, vpn: u64) {
        if let Some(g) = self.gpus.get_mut(gpu as usize) {
            g.l2.invalidate(vpn);
            for cu in &mut g.cus {
                cu.l1.invalidate(vpn);
            }
        }
    }

    fn local_flush(&mut self, gpu: GpuId) {
        let levels = self.cfg.page_table_levels;
        if let Some(g) = self.gpus.get_mut(gpu as usize) {
            g.pt = PageTable::new(levels);
            g.pwc.flush();
            g.l2.flush();
            for cu in &mut g.cus {
                cu.l1.flush();
            }
        }
    }

    fn has_prt(&self, gpu: GpuId) -> bool {
        self.gpus.get(gpu as usize).is_some_and(|g| g.prt.is_some())
    }

    fn prt_arrived(&mut self, gpu: GpuId, vpn: u64) {
        if let Some(prt) = self.gpus.get_mut(gpu as usize).and_then(|g| g.prt.as_mut()) {
            prt.page_arrived(vpn);
        }
    }

    fn prt_departed(&mut self, gpu: GpuId, vpn: u64) {
        if let Some(prt) = self.gpus.get_mut(gpu as usize).and_then(|g| g.prt.as_mut()) {
            prt.page_departed(vpn);
        }
    }

    fn prt_flush(&mut self, gpu: GpuId) {
        if let Some(prt) = self.gpus.get_mut(gpu as usize).and_then(|g| g.prt.as_mut()) {
            prt.clear();
        }
    }

    fn prt_rebuild(&mut self, gpu: GpuId, resident: &[u64]) {
        if let Some(prt) = self.gpus.get_mut(gpu as usize).and_then(|g| g.prt.as_mut()) {
            prt.apply(&[], resident);
        }
    }

    fn has_ft(&self) -> bool {
        self.host.ft.is_some()
    }

    fn ft_owner_added(&mut self, vpn: u64, gpu: GpuId) {
        if let Some(ft) = self.host.ft.as_mut() {
            ft.owner_added(vpn, gpu);
        }
    }

    fn ft_owner_removed(&mut self, vpn: u64, gpu: GpuId) {
        if let Some(ft) = self.host.ft.as_mut() {
            ft.owner_removed(vpn, gpu);
        }
    }

    fn ft_page_migrated(&mut self, vpn: u64, old: Option<GpuId>, new: GpuId) {
        if let Some(ft) = self.host.ft.as_mut() {
            ft.page_migrated(vpn, old, new);
        }
    }

    fn ft_rewrite_owners(&mut self, vpn: u64, remove: &[GpuId], add: &[GpuId]) {
        if let Some(ft) = self.host.ft.as_mut() {
            ft.rewrite_owners(vpn, remove, add);
        }
    }

    fn host_tlb_invalidate(&mut self, vpn: u64) {
        self.host.tlb.invalidate(vpn);
    }

    fn host_pt_set_loc(&mut self, vpn: u64, loc: Location) {
        if let Some(pte) = self.host.pt.translate_mut(vpn) {
            pte.loc = loc;
        }
    }

    fn drop_table_update(&mut self) -> bool {
        self.injector.drop_table_update()
    }

    fn note(&mut self, note: ProtocolNote) {
        let counter = match note {
            ProtocolNote::TxnCommitted => &mut self.metrics.placement.transactions,
            ProtocolNote::Collapse => &mut self.metrics.placement.collapses,
            ProtocolNote::OwnershipMigration => &mut self.metrics.recovery.ownership_migrations,
            ProtocolNote::FtInvalidation => &mut self.metrics.recovery.ft_invalidations,
            ProtocolNote::PrtRebuild => &mut self.metrics.recovery.prt_rebuilds,
            ProtocolNote::CapacityEviction => &mut self.oversub.stats.evictions,
        };
        *counter = counter.saturating_add(1);
    }
}
