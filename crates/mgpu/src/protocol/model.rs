//! Small-scope abstract model of the Trans-FW forwarding protocol.
//!
//! [`ProtocolState`] is the model-checker's view of the system: exact
//! tables (the cuckoo PRT becomes an exact may-be-local set, the FT exact
//! owner-key counts, caches disappear, latency disappears) around the
//! *real* [`PageDirectory`] and the *real*
//! shared transitions of [`crate::protocol`] — the same code the
//! cycle-accurate simulator executes. What remains nondeterministic is
//! exactly what `simcheck` explores: the interleaving of protocol steps
//! ([`Action`]s), each of which fuses one simulator event-handler's
//! table-state effects.
//!
//! # Fidelity notes
//!
//! * The model covers the `FarFaultMode::HostMmu` path with Trans-FW fully
//!   enabled (PRT short-circuit + FT forwarding) — the paper's mechanism
//!   and the part of the protocol with genuine message races.
//! * Fairness assumption: messages are reliable and every enabled action
//!   eventually fires (no fault injection, no watchdog timeouts, no
//!   retries). Liveness violations therefore show up as *deadlocks*:
//!   terminal states where some request never retired.
//! * The host-walk pipeline (dispatch → walk → done) and the remote borrow
//!   (arrive → walk → finish) are each fused into a single action; their
//!   *messages* (supply, notify, resolved, reply) stay separate, which is
//!   where the races live.
//! * Accepted races mirrored from the simulator (see DESIGN.md): a remote
//!   supply may deliver a translation whose source page has concurrently
//!   moved (the directory registration via `add_remote_map` keeps it
//!   discoverable for later invalidation), and a reply may re-map a page
//!   that a concurrent migration already invalidated (the stale PTE is
//!   itself registered or re-faulted on next migration).

use std::collections::{BTreeMap, BTreeSet};

use ptw::{GpuId, Location};
use sim_core::StateDigest;
use uvm::{OwnershipTransaction, PageDirectory, PolicyKind, TxnKind};

use super::{self as protocol, ProtocolTables};

/// Deliberate protocol defects for the mutation self-test suite: each makes
/// one shared-transition hook or one action handler misbehave in a way a
/// historically plausible bug would, and the checker must find each within
/// a bounded state budget. Enabled only through
/// `ProtocolState::with_mutation` (test builds / the `checker-mutations`
/// feature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `ft_page_migrated` forgets to remove the old home's FT key.
    SkipFtInvalidateOnMigrate,
    /// `prt_flush` is a no-op: an evicted GPU's PRT survives its memory.
    DropPrtFlushOnRejoin,
    /// The reply handler skips its idempotence guard: a duplicated reply
    /// retires the request twice.
    DoubleRetireOnDuplicateReply,
    /// The host forwards against a stale FT snapshot and optimistically
    /// cancels its own walk at forward time instead of on the remote's
    /// success notify.
    StaleForwardAfterCommit,
    /// A stale walk completion (its GPU's generation was bumped by a
    /// failure) still releases a force-reset walker.
    LostGenerationBump,
    /// The prefetcher ignores the pending-VPN snapshot and maps a page the
    /// directory declined to hand over.
    PrefetchPendingVpn,
    /// A capacity eviction drops the evictor's local mapping but forgets the
    /// remote TLB/FT invalidation fan-out: the host PT keeps pointing at the
    /// evicted copy and the FT keeps naming the evictor as an owner.
    SkipTlbShootdownOnEvict,
}

/// A tiny closed configuration for exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Number of GPUs (2–3 for tractable state spaces).
    pub gpus: u16,
    /// Number of pages (2–4).
    pub vpns: u64,
    /// Placement policy the embedded directory runs.
    pub policy: PolicyKind,
    /// In-flight translation requests, `(gpu, vpn, is_write)`. The per-GPU
    /// L2 MSHR guarantees at most one outstanding request per `(gpu, vpn)`
    /// in the simulator; configurations must respect that.
    pub reqs: Vec<(GpuId, u64, bool)>,
    /// Initial owner per VPN (`None` = cold on the host), `vpns` entries.
    pub warm: Vec<Option<GpuId>>,
    /// Optional component failure: this GPU may be evicted (and later
    /// rejoin) at any point of the interleaving.
    pub failure: Option<GpuId>,
    /// Optional per-GPU page capacity: while a GPU holds more resident
    /// pages than this, a capacity eviction of any *unpinned* resident page
    /// is enabled (the model explores every victim choice, subsuming every
    /// deterministic policy). `None` = unbounded memory (no evictions).
    pub capacity: Option<usize>,
}

impl ModelConfig {
    /// The standard small-scope configuration: `inflight` requests per GPU
    /// on overlapping pages (offset per GPU so requests contend), odd
    /// requests writing, every page warm on GPU `v % gpus`.
    ///
    /// # Panics
    ///
    /// Panics if `inflight` exceeds `vpns` (the MSHR uniqueness invariant
    /// could not hold).
    pub fn small(gpus: u16, vpns: u64, inflight: usize, policy: PolicyKind) -> Self {
        assert!(inflight as u64 <= vpns, "inflight per GPU must fit in vpns");
        let reqs = (0..gpus)
            .flat_map(|g| {
                (0..inflight).map(move |i| {
                    let vpn = (u64::from(g) + i as u64) % vpns;
                    (g, vpn, i % 2 == 1)
                })
            })
            .collect();
        let warm = (0..vpns)
            .map(|v| Some((v % u64::from(gpus)) as GpuId))
            .collect();
        Self {
            gpus,
            vpns,
            policy,
            reqs,
            warm,
            failure: None,
            capacity: None,
        }
    }

    /// Enables the component-failure dimension: GPU `g` may be evicted once
    /// at any point and rejoins later.
    #[must_use]
    pub fn with_failure(mut self, g: GpuId) -> Self {
        assert!(g < self.gpus, "failure GPU out of range");
        self.failure = Some(g);
        self
    }

    /// Makes every page cold (homed on the host, no warm placement).
    #[must_use]
    pub fn cold(mut self) -> Self {
        self.warm = vec![None; self.vpns as usize];
        self
    }

    /// Enables the capacity-eviction dimension: any GPU holding more than
    /// `pages` resident pages may evict an unpinned one at any point.
    #[must_use]
    pub fn with_capacity(mut self, pages: usize) -> Self {
        assert!(pages > 0, "capacity must be positive");
        self.capacity = Some(pages);
        self
    }
}

/// Host-path progress of one modelled request. Phases advance monotonically
/// except for the deferred re-entry (`Resolving`/`ReplySent` →
/// `HostInFlight`) when a delivery finds its requester offline — the
/// simulator's recovery interceptor re-enters such requests into the host
/// path at rejoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Created, not yet issued.
    Start,
    /// Local GMMU walk in flight (a walker is held).
    LocalWalk,
    /// A far fault is crossing to the host.
    HostInFlight,
    /// Queued at the host MMU (possibly concurrently forwarded).
    HostQueued,
    /// Fault resolved; the resolution is travelling to the requester.
    Resolving,
    /// The requester mapped the page; the reply is in flight.
    ReplySent,
    /// Host path finished for this request.
    Done,
}

/// One modelled in-flight translation request: the subset of the
/// simulator's [`crate::request::Req`] flags that the protocol reads, plus
/// the in-flight message slots the interleavings permute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelReq {
    /// Requesting GPU.
    pub gpu: GpuId,
    /// Faulting page.
    pub vpn: u64,
    /// Whether the access writes.
    pub is_write: bool,
    /// Host-path progress.
    pub phase: Phase,
    /// In-flight remote supply (the translation a borrowed walk produced).
    pub supply: Option<Location>,
    /// In-flight remote-outcome notify.
    pub notify: Option<bool>,
    /// A borrowed walk is pending at this GPU.
    pub remote_at: Option<GpuId>,
    /// The host forwarded this request to a peer.
    pub forwarded: bool,
    /// A remote supply retired this request.
    pub remote_supplied: bool,
    /// The host walk started (can no longer be cancelled).
    pub host_walk_started: bool,
    /// The queued host walk was cancelled by a remote success.
    pub cancelled: bool,
    /// The requester received a translation.
    pub completed: bool,
    /// The remote-outcome notify was processed (idempotence guard).
    pub remote_outcome: bool,
    /// Degraded to the reliable path by a failure (re-issued walk).
    pub fallback: bool,
    /// A stale local-walk completion (pre-failure generation) is pending.
    pub stale_walk: bool,
    /// Times the request retired; the checker requires exactly one.
    pub retire_count: u8,
    /// Where the fault resolution pointed the requester.
    pub resolved_loc: Option<Location>,
}

/// One protocol step: the table-state effect of one simulator event
/// handler. `simcheck` explores every interleaving of enabled actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The request enters translation: PRT short-circuit or local walk.
    Issue(usize),
    /// The local GMMU walk completes (hit retires, miss goes to the host).
    LocalWalkDone(usize),
    /// A pre-failure walk completion arrives; the generation check drops it.
    StaleWalkDone(usize),
    /// The far fault arrives at the host: TLB probe, FT consult, optional
    /// forward to `forward_to`, enqueue for the host walk.
    HostArrive {
        /// Request index.
        req: usize,
        /// Owner GPU the host forwards to (one action per candidate).
        forward_to: Option<GpuId>,
    },
    /// The borrowed remote walk runs to completion at the owner; its supply
    /// and notify messages become pending.
    RemoteWalkDone(usize),
    /// The remote supply reaches the requester (early retire).
    DeliverSupply(usize),
    /// The remote-outcome notify reaches the host (cancellation point).
    DeliverNotify(usize),
    /// The host walk dispatches and completes; uncancelled misses resolve
    /// the fault through the directory (ownership commit).
    HostWalkDone(usize),
    /// The fault resolution reaches the requester, which maps the page.
    DeliverResolved(usize),
    /// The reply retires the request.
    DeliverReply(usize),
    /// The failure GPU drops off the fabric (recovery eviction).
    Evict(GpuId),
    /// The failed GPU rejoins (PRT rebuild from the directory).
    Rejoin(GpuId),
    /// A GPU over its page capacity evicts one unpinned resident page
    /// through the live-eviction transition
    /// ([`crate::protocol::capacity_evict`]).
    CapacityEvict {
        /// The over-capacity GPU shedding the page.
        gpu: GpuId,
        /// The victim page.
        vpn: u64,
    },
}

impl Action {
    /// Serializes the action as one counterexample-trace token.
    pub fn encode(&self) -> String {
        match *self {
            Action::Issue(i) => format!("issue {i}"),
            Action::LocalWalkDone(i) => format!("local-walk {i}"),
            Action::StaleWalkDone(i) => format!("stale-walk {i}"),
            Action::HostArrive {
                req,
                forward_to: Some(o),
            } => format!("host-arrive {req} fwd={o}"),
            Action::HostArrive {
                req,
                forward_to: None,
            } => format!("host-arrive {req} -"),
            Action::RemoteWalkDone(i) => format!("remote-walk {i}"),
            Action::DeliverSupply(i) => format!("supply {i}"),
            Action::DeliverNotify(i) => format!("notify {i}"),
            Action::HostWalkDone(i) => format!("host-walk {i}"),
            Action::DeliverResolved(i) => format!("resolved {i}"),
            Action::DeliverReply(i) => format!("reply {i}"),
            Action::Evict(g) => format!("evict {g}"),
            Action::Rejoin(g) => format!("rejoin {g}"),
            Action::CapacityEvict { gpu, vpn } => format!("cap-evict {gpu} {vpn}"),
        }
    }

    /// Parses one trace token (the inverse of [`encode`](Self::encode)).
    pub fn decode(token: &str) -> Option<Action> {
        let mut parts = token.split_whitespace();
        let kind = parts.next()?;
        let arg = parts.next()?;
        let action = match kind {
            "issue" => Action::Issue(arg.parse().ok()?),
            "local-walk" => Action::LocalWalkDone(arg.parse().ok()?),
            "stale-walk" => Action::StaleWalkDone(arg.parse().ok()?),
            "host-arrive" => {
                let req = arg.parse().ok()?;
                let fwd = parts.next()?;
                let forward_to = match fwd {
                    "-" => None,
                    f => Some(f.strip_prefix("fwd=")?.parse().ok()?),
                };
                Action::HostArrive { req, forward_to }
            }
            "remote-walk" => Action::RemoteWalkDone(arg.parse().ok()?),
            "supply" => Action::DeliverSupply(arg.parse().ok()?),
            "notify" => Action::DeliverNotify(arg.parse().ok()?),
            "host-walk" => Action::HostWalkDone(arg.parse().ok()?),
            "resolved" => Action::DeliverResolved(arg.parse().ok()?),
            "reply" => Action::DeliverReply(arg.parse().ok()?),
            "evict" => Action::Evict(arg.parse().ok()?),
            "rejoin" => Action::Rejoin(arg.parse().ok()?),
            "cap-evict" => {
                let gpu = arg.parse().ok()?;
                let vpn = parts.next()?.parse().ok()?;
                Action::CapacityEvict { gpu, vpn }
            }
            _ => return None,
        };
        if parts.next().is_some()
            && !matches!(
                action,
                Action::HostArrive { .. } | Action::CapacityEvict { .. }
            )
        {
            return None;
        }
        Some(action)
    }
}

/// The abstract protocol state: exact tables + the real directory + the
/// modelled requests. Implements [`ProtocolTables`], so every table
/// mutation goes through the same shared transitions the simulator runs.
#[derive(Debug, Clone)]
pub struct ProtocolState {
    gpus: u16,
    vpns: u64,
    /// The real placement/ownership directory (authoritative state).
    pub dir: PageDirectory,
    /// Per-GPU local page table (exact map).
    pt: Vec<BTreeMap<u64, Location>>,
    /// Per-GPU PRT as an exact may-be-local set. The real counting cuckoo
    /// filter is a lossy multiset *over-approximation* of this set (its
    /// false positives only cost a wasted local walk); the model verifies
    /// the maintenance discipline on the exact set, which the filter then
    /// over-approximates soundly.
    prt: Vec<BTreeSet<u64>>,
    /// Host FT as exact per-GPU owner-key counts.
    ft: BTreeMap<u64, Vec<u32>>,
    /// Host centralised page table.
    host_pt: BTreeMap<u64, Location>,
    /// Host TLB (presence only — the entry contents are the home).
    host_tlb: BTreeSet<u64>,
    /// Per-GPU offline flag.
    offline: Vec<bool>,
    /// The one modelled eviction already happened.
    evicted_once: bool,
    /// Per-GPU busy-walker count (force-reset by an eviction); negative
    /// means a stale completion released a reset walker.
    walkers: Vec<i64>,
    /// The modelled requests.
    reqs: Vec<ModelReq>,
    /// The failure dimension, copied from the configuration.
    failure: Option<GpuId>,
    /// The capacity-eviction dimension, copied from the configuration.
    capacity: Option<usize>,
    /// Invariant violations observed so far, tagged `tag: detail`.
    violations: Vec<String>,
    /// Active deliberate defect, if any.
    mutation: Option<Mutation>,
    /// FT snapshot at t=0 (what [`Mutation::StaleForwardAfterCommit`]
    /// consults instead of the live table).
    initial_ft: BTreeMap<u64, Vec<u32>>,
}

/// The model's table hooks: exact structures, no lossy gate, violations on
/// multiset underflow (the corruption class the counting filters can
/// actually suffer). Mutations hook in here so the *shared transition
/// bodies* stay pristine.
impl ProtocolTables for ProtocolState {
    fn pt_insert(&mut self, gpu: GpuId, vpn: u64, loc: Location) {
        self.pt[gpu as usize].insert(vpn, loc);
    }

    fn pt_remove(&mut self, gpu: GpuId, vpn: u64) {
        self.pt[gpu as usize].remove(&vpn);
    }

    fn tlb_shootdown(&mut self, _gpu: GpuId, _vpn: u64) {}

    fn local_flush(&mut self, gpu: GpuId) {
        self.pt[gpu as usize].clear();
    }

    fn has_prt(&self, gpu: GpuId) -> bool {
        (gpu as usize) < self.prt.len()
    }

    fn prt_arrived(&mut self, gpu: GpuId, vpn: u64) {
        self.prt[gpu as usize].insert(vpn);
    }

    fn prt_departed(&mut self, gpu: GpuId, vpn: u64) {
        // Departure of a never-arrived key is a no-op, mirroring the real
        // cuckoo filter (an invalidation may legitimately target a GPU
        // whose install is still in flight — accepted race #3).
        self.prt[gpu as usize].remove(&vpn);
    }

    fn prt_flush(&mut self, gpu: GpuId) {
        if self.mutation == Some(Mutation::DropPrtFlushOnRejoin) {
            return; // the defect: the PRT survives the eviction
        }
        self.prt[gpu as usize].clear();
    }

    fn prt_rebuild(&mut self, gpu: GpuId, resident: &[u64]) {
        for &vpn in resident {
            self.prt[gpu as usize].insert(vpn);
        }
    }

    fn has_ft(&self) -> bool {
        true
    }

    fn ft_owner_added(&mut self, vpn: u64, gpu: GpuId) {
        let gpus = self.gpus as usize;
        self.ft.entry(vpn).or_insert_with(|| vec![0; gpus])[gpu as usize] += 1;
    }

    fn ft_owner_removed(&mut self, vpn: u64, gpu: GpuId) {
        // Removal of an absent owner key is a no-op, mirroring the real
        // fingerprint filter's delete.
        let slot = self.ft.get_mut(&vpn).and_then(|v| v.get_mut(gpu as usize));
        if let Some(c) = slot {
            *c = c.saturating_sub(1);
        }
    }

    fn ft_page_migrated(&mut self, vpn: u64, old: Option<GpuId>, new: GpuId) {
        if self.mutation != Some(Mutation::SkipFtInvalidateOnMigrate) {
            if let Some(o) = old {
                self.ft_owner_removed(vpn, o);
            }
        }
        self.ft_owner_added(vpn, new);
    }

    fn ft_rewrite_owners(&mut self, vpn: u64, remove: &[GpuId], add: &[GpuId]) {
        for &g in remove {
            self.ft_owner_removed(vpn, g);
        }
        for &g in add {
            self.ft_owner_added(vpn, g);
        }
    }

    fn host_tlb_invalidate(&mut self, vpn: u64) {
        self.host_tlb.remove(&vpn);
    }

    fn host_pt_set_loc(&mut self, vpn: u64, loc: Location) {
        self.host_pt.insert(vpn, loc);
    }
}

fn loc_code(loc: Location) -> u64 {
    match loc {
        Location::Cpu => 1,
        Location::Gpu(g) => 2 + u64::from(g),
    }
}

impl ProtocolState {
    /// Builds the initial state: warm pages placed and mapped through the
    /// shared transitions exactly as the simulator's run() warm-up does.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (out-of-range ids, duplicate
    /// `(gpu, vpn)` requests, warm list length mismatch).
    pub fn new(cfg: &ModelConfig) -> Self {
        assert_eq!(cfg.warm.len(), cfg.vpns as usize, "warm list length");
        let mut seen = BTreeSet::new();
        for &(g, vpn, _) in &cfg.reqs {
            assert!(g < cfg.gpus && vpn < cfg.vpns, "request out of range");
            assert!(
                seen.insert((g, vpn)),
                "MSHR uniqueness: duplicate (gpu, vpn) request"
            );
        }
        let mut st = Self {
            gpus: cfg.gpus,
            vpns: cfg.vpns,
            dir: PageDirectory::with_policy(cfg.gpus, cfg.policy),
            pt: vec![BTreeMap::new(); cfg.gpus as usize],
            prt: vec![BTreeSet::new(); cfg.gpus as usize],
            ft: BTreeMap::new(),
            host_pt: BTreeMap::new(),
            host_tlb: BTreeSet::new(),
            offline: vec![false; cfg.gpus as usize],
            evicted_once: false,
            walkers: vec![0; cfg.gpus as usize],
            reqs: Vec::new(),
            failure: cfg.failure,
            capacity: cfg.capacity,
            violations: Vec::new(),
            mutation: None,
            initial_ft: BTreeMap::new(),
        };
        for v in 0..cfg.vpns {
            let owner = cfg.warm[v as usize];
            let loc = owner.map_or(Location::Cpu, Location::Gpu);
            st.host_pt.insert(v, loc);
            if let Some(g) = owner {
                st.dir.place(v, loc);
                protocol::map_page(&mut st, g, v, loc);
                st.ft_page_migrated(v, None, g);
            }
        }
        st.initial_ft = st.ft.clone();
        st.reqs = cfg
            .reqs
            .iter()
            .map(|&(gpu, vpn, is_write)| ModelReq {
                gpu,
                vpn,
                is_write,
                phase: Phase::Start,
                supply: None,
                notify: None,
                remote_at: None,
                forwarded: false,
                remote_supplied: false,
                host_walk_started: false,
                cancelled: false,
                completed: false,
                remote_outcome: false,
                fallback: false,
                stale_walk: false,
                retire_count: 0,
                resolved_loc: None,
            })
            .collect();
        st
    }

    /// Arms one deliberate protocol defect (mutation self-tests only).
    #[cfg(any(test, feature = "checker-mutations"))]
    #[must_use]
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutation = m.into();
        self
    }

    /// The modelled requests (read-only).
    pub fn reqs(&self) -> &[ModelReq] {
        &self.reqs
    }

    /// Invariant violations observed so far (`tag: detail` strings).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    fn ft_owners(table: &BTreeMap<u64, Vec<u32>>, vpn: u64, skip: GpuId) -> Vec<GpuId> {
        table.get(&vpn).map_or_else(Vec::new, |counts| {
            counts
                .iter()
                .enumerate()
                .filter(|&(g, &c)| c > 0 && g != skip as usize)
                .map(|(g, _)| g as GpuId)
                .collect()
        })
    }

    /// Every action enabled in this state, in a fixed deterministic order.
    pub fn enabled_actions(&self) -> Vec<Action> {
        let mut out = Vec::new();
        for (i, r) in self.reqs.iter().enumerate() {
            let down = self.offline[r.gpu as usize];
            match r.phase {
                Phase::Start if !down => out.push(Action::Issue(i)),
                Phase::LocalWalk if !down => out.push(Action::LocalWalkDone(i)),
                Phase::HostInFlight if !down => {
                    if self.host_tlb.contains(&r.vpn) {
                        out.push(Action::HostArrive {
                            req: i,
                            forward_to: None,
                        });
                    } else {
                        let table = if self.mutation == Some(Mutation::StaleForwardAfterCommit) {
                            &self.initial_ft
                        } else {
                            &self.ft
                        };
                        let owners = Self::ft_owners(table, r.vpn, r.gpu);
                        if owners.is_empty() {
                            out.push(Action::HostArrive {
                                req: i,
                                forward_to: None,
                            });
                        } else {
                            for o in owners {
                                out.push(Action::HostArrive {
                                    req: i,
                                    forward_to: Some(o),
                                });
                            }
                        }
                    }
                }
                Phase::HostQueued if !r.cancelled => out.push(Action::HostWalkDone(i)),
                Phase::Resolving => out.push(Action::DeliverResolved(i)),
                Phase::ReplySent => out.push(Action::DeliverReply(i)),
                Phase::Start
                | Phase::LocalWalk
                | Phase::HostInFlight
                | Phase::HostQueued
                | Phase::Done => {}
            }
            if r.stale_walk {
                out.push(Action::StaleWalkDone(i));
            }
            if r.remote_at.is_some() {
                out.push(Action::RemoteWalkDone(i));
            }
            if r.supply.is_some() && !down {
                out.push(Action::DeliverSupply(i));
            }
            if r.notify.is_some() {
                out.push(Action::DeliverNotify(i));
            }
        }
        if let Some(f) = self.failure {
            if !self.evicted_once && !self.offline[f as usize] {
                out.push(Action::Evict(f));
            }
        }
        for g in 0..self.gpus {
            if self.offline[g as usize] {
                out.push(Action::Rejoin(g));
            }
        }
        if let Some(cap) = self.capacity {
            for g in 0..self.gpus {
                if self.offline[g as usize] {
                    continue;
                }
                let resident = self.dir.resident_vpns_on(g);
                if resident.len() <= cap {
                    continue;
                }
                for vpn in resident {
                    if !self.vpn_pinned(vpn) {
                        out.push(Action::CapacityEvict { gpu: g, vpn });
                    }
                }
            }
        }
        out
    }

    /// The model's pin rule, mirroring `System::outstanding_vpns`: a page
    /// is pinned from the moment a request on it is created until that
    /// request retires — an in-flight forwarded walk, host walk, supply or
    /// reply keeps its page unevictable everywhere. (Messages that outlive
    /// a retired request — duplicate supplies, late notifies — do NOT pin,
    /// exactly as in the simulator; the explorer races them against
    /// evictions.)
    fn vpn_pinned(&self, vpn: u64) -> bool {
        self.reqs
            .iter()
            .any(|r| r.vpn == vpn && r.phase != Phase::Start && !r.completed)
    }

    /// Whether `a` is a pure absorb: it consumes one of its own request's
    /// message slots behind an idempotence guard, mutates nothing else, and
    /// cannot raise a violation — so it commutes with every other enabled
    /// action and the explorer may expand it alone (partial-order
    /// reduction). Disabled entirely under a mutation, where the guards
    /// themselves may be the defect.
    pub fn is_absorbing(&self, a: &Action) -> bool {
        if self.mutation.is_some() {
            return false;
        }
        match *a {
            Action::RemoteWalkDone(i)
            | Action::DeliverSupply(i)
            | Action::DeliverResolved(i)
            | Action::DeliverReply(i) => self.reqs[i].completed,
            Action::DeliverNotify(i) => self.reqs[i].remote_outcome,
            Action::Issue(_)
            | Action::LocalWalkDone(_)
            | Action::StaleWalkDone(_)
            | Action::HostArrive { .. }
            | Action::HostWalkDone(_)
            | Action::Evict(_)
            | Action::Rejoin(_)
            | Action::CapacityEvict { .. } => false,
        }
    }

    /// Applies one action. Invariants are checked on the way; findings are
    /// appended to [`violations`](Self::violations).
    pub fn apply(&mut self, a: &Action) {
        match *a {
            Action::Issue(i) => self.do_issue(i),
            Action::LocalWalkDone(i) => self.do_local_walk_done(i),
            Action::StaleWalkDone(i) => self.do_stale_walk_done(i),
            Action::HostArrive { req, forward_to } => self.do_host_arrive(req, forward_to),
            Action::RemoteWalkDone(i) => self.do_remote_walk_done(i),
            Action::DeliverSupply(i) => self.do_deliver_supply(i),
            Action::DeliverNotify(i) => self.do_deliver_notify(i),
            Action::HostWalkDone(i) => self.do_host_walk_done(i),
            Action::DeliverResolved(i) => self.do_deliver_resolved(i),
            Action::DeliverReply(i) => self.do_deliver_reply(i),
            Action::Evict(g) => self.do_evict(g),
            Action::Rejoin(g) => self.do_rejoin(g),
            Action::CapacityEvict { gpu, vpn } => self.do_capacity_evict(gpu, vpn),
        }
    }

    fn do_issue(&mut self, i: usize) {
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        let may_be_local = self.prt[g as usize].contains(&vpn);
        if may_be_local {
            self.reqs[i].phase = Phase::LocalWalk;
            self.walkers[g as usize] += 1;
        } else {
            // PRT short-circuit: the fault goes straight to the host.
            self.reqs[i].phase = Phase::HostInFlight;
        }
    }

    fn do_local_walk_done(&mut self, i: usize) {
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        self.walkers[g as usize] -= 1;
        match self.pt[g as usize].get(&vpn).copied() {
            Some(loc) => {
                self.model_retire(i, Some(loc));
                self.reqs[i].phase = Phase::Done;
            }
            None => {
                self.reqs[i].phase = Phase::HostInFlight;
            }
        }
    }

    fn do_stale_walk_done(&mut self, i: usize) {
        let g = self.reqs[i].gpu;
        self.reqs[i].stale_walk = false;
        // The generation check recognises the completion as pre-failure and
        // drops it WITHOUT releasing a walker (the pool was force-reset).
        if self.mutation == Some(Mutation::LostGenerationBump) {
            self.walkers[g as usize] -= 1;
            if self.walkers[g as usize] < 0 {
                self.violations.push(format!(
                    "txn-atomicity: GPU{g} walker count went negative (stale completion released a force-reset walker)"
                ));
            }
        }
    }

    fn do_host_arrive(&mut self, i: usize, forward_to: Option<GpuId>) {
        let vpn = self.reqs[i].vpn;
        if self.host_tlb.contains(&vpn) {
            // Host TLB hit: resolve immediately, no walk, no forward.
            self.resolve(i);
            return;
        }
        if let Some(o) = forward_to {
            self.reqs[i].forwarded = true;
            if self.mutation == Some(Mutation::StaleForwardAfterCommit) {
                // The defect: cancel the host walk at forward time instead
                // of on the remote's success notify.
                self.reqs[i].cancelled = true;
            }
            if self.offline[o as usize] {
                // The recovery interceptor refuses forwards to a dead GPU.
                self.reqs[i].notify = Some(false);
            } else {
                self.reqs[i].remote_at = Some(o);
            }
        }
        self.reqs[i].phase = Phase::HostQueued;
    }

    fn do_remote_walk_done(&mut self, i: usize) {
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let o = self.reqs[i].remote_at.take().expect("remote walk pending");
        if self.reqs[i].completed {
            return; // duplicate-arrival guard: no walk, no notify
        }
        let vpn = self.reqs[i].vpn;
        let supply = (self.pt[o as usize].get(&vpn).copied() == Some(Location::Gpu(o)))
            .then_some(Location::Gpu(o));
        let success = supply.is_some();
        if success {
            self.reqs[i].supply = supply;
        }
        self.reqs[i].notify = Some(success);
    }

    fn do_deliver_supply(&mut self, i: usize) {
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let loc = self.reqs[i].supply.take().expect("supply pending");
        if self.reqs[i].completed {
            return; // idempotence guard
        }
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        self.reqs[i].remote_supplied = true;
        // A supply may be stale against a concurrent migration — accepted:
        // the directory registration below keeps the mapping discoverable,
        // so a later migration invalidates it (see DESIGN.md).
        self.model_retire(i, None);
        protocol::map_page(self, g, vpn, loc);
        self.dir.add_remote_map(vpn, g);
    }

    fn do_deliver_notify(&mut self, i: usize) {
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let success = self.reqs[i].notify.take().expect("notify pending");
        if self.reqs[i].remote_outcome {
            return; // idempotence guard
        }
        self.reqs[i].remote_outcome = true;
        let r = &mut self.reqs[i];
        if success && !r.host_walk_started && !r.cancelled && !r.fallback {
            r.cancelled = true; // §IV-C: remote success cancels the host walk
        }
    }

    fn do_host_walk_done(&mut self, i: usize) {
        let vpn = self.reqs[i].vpn;
        self.reqs[i].host_walk_started = true;
        self.host_tlb.insert(vpn);
        if self.reqs[i].remote_supplied || self.reqs[i].completed {
            self.reqs[i].phase = Phase::Done; // the remote path won the race
            return;
        }
        self.resolve(i);
    }

    /// The host-side fault resolution: ownership transaction through the
    /// real directory, committed through the shared transitions, atomicity
    /// checked on the spot.
    fn resolve(&mut self, i: usize) {
        let (g, vpn, is_write) = (self.reqs[i].gpu, self.reqs[i].vpn, self.reqs[i].is_write);
        if self.offline[g as usize] {
            // The simulator defers resolution for an offline requester and
            // re-enters the host path at rejoin.
            self.reqs[i].phase = Phase::HostInFlight;
            return;
        }
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let txn = self
            .dir
            .begin_fault_txn(vpn, g, is_write)
            .expect("model GPU ids are in range");
        protocol::commit_ownership(self, &txn);
        self.check_commit(&txn);
        self.reqs[i].resolved_loc = Some(txn.resolved_location());
        if txn.kind == TxnKind::Migrate {
            self.model_prefetches(vpn, g, txn.source);
        }
        self.reqs[i].phase = Phase::Resolving;
    }

    /// Post-commit atomicity: no invalidated GPU kept its PTE, the host's
    /// view agrees with the directory, and walker accounting is sane.
    fn check_commit(&mut self, txn: &OwnershipTransaction) {
        let vpn = txn.vpn;
        for &v in &txn.invalidate {
            if self.pt[v as usize].contains_key(&vpn) {
                self.violations.push(format!(
                    "txn-atomicity: {:?} commit of vpn {vpn} left a PTE on GPU{v}",
                    txn.kind
                ));
            }
        }
        let host = self.host_pt.get(&vpn).copied();
        let home = self.dir.home(vpn);
        if host != Some(home) {
            self.violations.push(format!(
                "txn-atomicity: after {:?} commit of vpn {vpn} host PT says {host:?} but directory says {home:?}",
                txn.kind
            ));
        }
        if let Some(g) = self.walkers.iter().position(|&w| w < 0) {
            self.violations.push(format!(
                "txn-atomicity: GPU{g} walker count negative at commit"
            ));
        }
    }

    /// Mirrors `System::apply_prefetches`: snapshot the pending state of
    /// the neighborhood up front, then pull in pages the directory blesses.
    fn model_prefetches(&mut self, vpn: u64, g: GpuId, from: Location) {
        let neighborhood = self.dir.prefetch_neighborhood(vpn);
        if neighborhood.is_empty() {
            return;
        }
        let pending: Vec<bool> = neighborhood
            .iter()
            .map(|v| self.pt[g as usize].contains_key(v) || self.prt[g as usize].contains(v))
            .collect();
        for (v, was_pending) in neighborhood.into_iter().zip(pending) {
            if !self.host_pt.contains_key(&v) {
                continue; // outside the modelled footprint
            }
            if was_pending && self.mutation != Some(Mutation::PrefetchPendingVpn) {
                continue; // in flight on the destination: hands off
            }
            let txn = match self.dir.prefetch_page(v, g, from) {
                Some(t) => t,
                None if self.mutation == Some(Mutation::PrefetchPendingVpn) => {
                    // The defect: map the page anyway, without the
                    // directory's blessing.
                    OwnershipTransaction {
                        vpn: v,
                        kind: TxnKind::Prefetch,
                        source: from,
                        dest: g,
                        invalidate: from.gpu().into_iter().collect(),
                        ft_remove: Vec::new(),
                    }
                }
                None => continue,
            };
            protocol::commit_ownership(self, &txn);
            self.check_commit(&txn);
            protocol::map_page(self, g, v, Location::Gpu(g));
        }
    }

    fn do_deliver_resolved(&mut self, i: usize) {
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        if self.offline[g as usize] {
            // Recovery interception: duplicates die, live resolutions
            // re-enter the host path at rejoin (stale placement).
            self.reqs[i].phase = if self.reqs[i].completed {
                Phase::Done
            } else {
                Phase::HostInFlight
            };
            return;
        }
        if self.reqs[i].completed {
            self.reqs[i].phase = Phase::Done; // duplicate guard: no reply
            return;
        }
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let loc = self.reqs[i]
            .resolved_loc
            .expect("resolving implies a location");
        protocol::map_page(self, g, vpn, loc);
        self.reqs[i].phase = Phase::ReplySent;
    }

    fn do_deliver_reply(&mut self, i: usize) {
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        if self.offline[g as usize] {
            self.reqs[i].phase = if self.reqs[i].completed {
                Phase::Done
            } else {
                Phase::HostInFlight
            };
            return;
        }
        if self.reqs[i].completed && self.mutation != Some(Mutation::DoubleRetireOnDuplicateReply) {
            self.reqs[i].phase = Phase::Done; // idempotence guard
            return;
        }
        #[expect(clippy::expect_used, reason = "model-checker invariant")]
        let loc = self.reqs[i].resolved_loc.expect("reply implies a location");
        // No staleness probe here: the resolution was directory-blessed at
        // commit time, and an ownership invalidation may legitimately pass
        // the in-flight install (accepted race #3 — the requester briefly
        // holds a stale mapping, repaired at its next fault on the page).
        // Freshness is enforced where hit and retire are atomic: local-walk
        // retires.
        self.model_retire(i, None);
        if !self.pt[g as usize].contains_key(&vpn) {
            protocol::map_page(self, g, vpn, loc);
            if loc != Location::Gpu(g) {
                self.dir.add_remote_map(vpn, g);
            }
        }
        self.reqs[i].phase = Phase::Done;
    }

    fn do_evict(&mut self, g: GpuId) {
        self.offline[g as usize] = true;
        self.evicted_once = true;
        for i in 0..self.reqs.len() {
            if self.reqs[i].gpu == g && self.reqs[i].phase == Phase::LocalWalk {
                // Drained walk: re-issued through the reliable host path at
                // rejoin; its completion event is now stale-generation.
                self.reqs[i].stale_walk = true;
                self.reqs[i].fallback = true;
                self.reqs[i].cancelled = false;
                self.reqs[i].phase = Phase::HostInFlight;
            }
            if self.reqs[i].remote_at == Some(g) {
                // A borrowed walk dies with its borrower: refused.
                self.reqs[i].remote_at = None;
                self.reqs[i].notify = Some(false);
            }
        }
        self.walkers[g as usize] = 0; // force_reset
        let report = self.dir.evict_gpu(g);
        protocol::evict_tables(self, g, &report);
        protocol::offline_flush(self, g);
    }

    fn do_rejoin(&mut self, g: GpuId) {
        self.offline[g as usize] = false;
        let resident = self.dir.resident_vpns_on(g);
        protocol::rejoin_prt(self, g, &resident);
    }

    /// Mirrors `System::enforce_capacity`'s per-victim step: the directory
    /// drops the resident copy and the live-eviction transition fans the
    /// invalidations out (remote unmaps, host PT/TLB, FT keys, then the
    /// evictor's own mapping).
    fn do_capacity_evict(&mut self, g: GpuId, vpn: u64) {
        let Some(report) = self.dir.evict_page(vpn, g) else {
            return; // enablement raced a concurrent move: nothing resident
        };
        if self.mutation == Some(Mutation::SkipTlbShootdownOnEvict) {
            // The defect: only the local mapping dies; the remote TLB/FT
            // invalidation fan-out (evict_tables) is forgotten.
            protocol::unmap_page(self, g, vpn);
            return;
        }
        protocol::capacity_evict(self, g, vpn, &report);
    }

    /// Retires request `i`; `checked_loc` (when given) runs the
    /// no-stale-translation probe against the retiring translation.
    fn model_retire(&mut self, i: usize, checked_loc: Option<Location>) {
        self.reqs[i].retire_count += 1;
        self.reqs[i].completed = true;
        let (g, vpn, count) = (
            self.reqs[i].gpu,
            self.reqs[i].vpn,
            self.reqs[i].retire_count,
        );
        if count > 1 {
            self.violations.push(format!(
                "retire-exactly-once: req {i} (gpu {g}, vpn {vpn}) retired {count} times"
            ));
        }
        if let Some(loc) = checked_loc {
            self.check_retired_translation(i, loc);
        }
    }

    /// The no-stale-translation probe: a translation retired as local must
    /// be backed by directory residency; one retired as remote must be a
    /// registered remote map or point at a resident holder.
    fn check_retired_translation(&mut self, i: usize, loc: Location) {
        let (g, vpn) = (self.reqs[i].gpu, self.reqs[i].vpn);
        let stale = match loc {
            Location::Cpu => false,
            Location::Gpu(o) if o == g => !self.dir.is_resident(vpn, g),
            Location::Gpu(o) => {
                let registered = self
                    .dir
                    .page(vpn)
                    .is_some_and(|p| p.remote_maps & (1 << g) != 0);
                !registered && !self.dir.is_resident(vpn, o)
            }
        };
        if stale {
            self.violations.push(format!(
                "stale-translation: req {i} (gpu {g}) retired vpn {vpn} -> {loc:?} without directory backing"
            ));
        }
    }

    /// Terminal-state checks: deadlock (liveness under fairness) when any
    /// request never retired; otherwise the quiescent table-agreement
    /// invariants (host PT vs directory, PRT support vs page tables, FT
    /// owners vs residents, walker accounting, directory self-audit).
    pub fn check_quiescent(&mut self) {
        let stuck: Vec<usize> = (0..self.reqs.len())
            .filter(|&i| !self.reqs[i].completed)
            .collect();
        if !stuck.is_empty() {
            for i in stuck {
                let r = &self.reqs[i];
                self.violations.push(format!(
                    "deadlock: req {i} (gpu {}, vpn {}) wedged in {:?}",
                    r.gpu, r.vpn, r.phase
                ));
            }
            return; // tables legitimately disagree mid-flight
        }
        for v in 0..self.vpns {
            let host = self.host_pt.get(&v).copied().unwrap_or(Location::Cpu);
            let home = self.dir.home(v);
            if host != home {
                self.violations.push(format!(
                    "table-agreement: vpn {v} host PT says {host:?} but directory says {home:?}"
                ));
            }
            let owners: Vec<GpuId> = Self::ft_owners(&self.ft, v, self.gpus);
            let residents: Vec<GpuId> = (0..self.gpus)
                .filter(|&g| self.dir.is_resident(v, g))
                .collect();
            if owners != residents {
                self.violations.push(format!(
                    "table-agreement: vpn {v} FT names owners {owners:?} but directory residents are {residents:?}"
                ));
            }
        }
        for g in 0..self.gpus as usize {
            let prt_support: Vec<u64> = self.prt[g].iter().copied().collect();
            let pt_keys: Vec<u64> = self.pt[g].keys().copied().collect();
            if prt_support != pt_keys {
                self.violations.push(format!(
                    "table-agreement: GPU{g} PRT support {prt_support:?} != page-table keys {pt_keys:?}"
                ));
            }
            if self.walkers[g] != 0 {
                self.violations.push(format!(
                    "txn-atomicity: GPU{g} holds {} walkers at quiescence",
                    self.walkers[g]
                ));
            }
        }
        if let Err(e) = self.dir.audit() {
            self.violations.push(format!("table-agreement: {e}"));
        }
    }

    /// A 64-bit digest of the complete model state (everything that
    /// determines future behaviour, including the directory's access and
    /// fault counters the placement policies read — but NOT path-dependent
    /// statistics, which would fragment the explorer's dedup).
    pub fn digest(&self) -> u64 {
        let Self {
            gpus,
            vpns,
            dir,
            pt,
            prt,
            ft,
            host_pt,
            host_tlb,
            offline,
            evicted_once,
            walkers,
            reqs,
            // Fixed by the model configuration.
            failure: _,
            capacity: _,
            mutation: _,
            initial_ft: _,
            // Findings, not state: mixing them would fragment the dedup.
            violations: _,
        } = self;
        let mut d = StateDigest::new();
        for v in 0..*vpns {
            match dir.page(v) {
                Some(p) => {
                    d.mix(loc_code(p.home)).mix(p.replicas).mix(p.remote_maps);
                    for (a, _) in p.counts() {
                        d.mix(u64::from(a));
                    }
                    for (_, f) in p.counts() {
                        d.mix(u64::from(f));
                    }
                }
                None => {
                    d.mix(0);
                }
            }
            d.mix(host_pt.get(&v).copied().map_or(0, loc_code));
            d.mix(u64::from(host_tlb.contains(&v)));
            match ft.get(&v) {
                Some(counts) => {
                    for &c in counts {
                        d.mix(u64::from(c) + 1);
                    }
                }
                None => {
                    d.mix(0);
                }
            }
        }
        for g in 0..*gpus as usize {
            d.mix(u64::from(offline[g]));
            #[allow(clippy::cast_sign_loss)]
            d.mix(walkers[g] as u64);
            for (&v, &loc) in pt[g].iter() {
                d.mix(v + 1).mix(loc_code(loc));
            }
            d.mix(u64::MAX); // table separator
            for &v in prt[g].iter() {
                d.mix(v + 1);
            }
            d.mix(u64::MAX);
        }
        for r in reqs {
            let flags = u64::from(r.forwarded)
                | u64::from(r.remote_supplied) << 1
                | u64::from(r.host_walk_started) << 2
                | u64::from(r.cancelled) << 3
                | u64::from(r.completed) << 4
                | u64::from(r.remote_outcome) << 5
                | u64::from(r.fallback) << 6
                | u64::from(r.stale_walk) << 7;
            d.mix(r.phase as u64)
                .mix(flags)
                .mix(u64::from(r.retire_count))
                .mix(r.supply.map_or(0, loc_code))
                .mix(r.notify.map_or(0, |s| 1 + u64::from(s)))
                .mix(r.remote_at.map_or(0, |g| 1 + u64::from(g)))
                .mix(r.resolved_loc.map_or(0, loc_code));
        }
        d.mix(u64::from(*evicted_once));
        d.finish()
    }
}

/// Replays an encoded counterexample trace against a fresh unmutated model
/// of `cfg` and returns the violations it reproduces (running the terminal
/// checks if the trace ends in a terminal state).
///
/// # Errors
///
/// Returns a message naming the offending step if a token does not parse
/// or names an action that is not enabled at that point.
pub fn replay(cfg: &ModelConfig, steps: &[String]) -> Result<Vec<String>, String> {
    let st = ProtocolState::new(cfg);
    replay_on(st, steps)
}

/// [`replay`], but against a caller-built initial state (used by the
/// mutation self-tests, which arm a [`Mutation`] first).
///
/// # Errors
///
/// Returns a message naming the offending step if a token does not parse
/// or names an action that is not enabled at that point.
pub fn replay_on(mut st: ProtocolState, steps: &[String]) -> Result<Vec<String>, String> {
    for (n, token) in steps.iter().enumerate() {
        let a = Action::decode(token)
            .ok_or_else(|| format!("step {n}: unparseable action {token:?}"))?;
        if !st.enabled_actions().contains(&a) {
            return Err(format!("step {n}: action {token:?} is not enabled"));
        }
        st.apply(&a);
        if !st.violations.is_empty() {
            return Ok(st.violations);
        }
    }
    if st.enabled_actions().is_empty() {
        st.check_quiescent();
    }
    Ok(st.violations)
}
