//! Run metrics: everything the paper's figures are computed from.

use std::collections::BTreeMap;

use ptw::PwCacheStats;
use uvm::DirectoryStats;

/// The L2-TLB-miss latency components of Fig. 3/12, accumulated over all
/// translation requests (cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Waiting in the GMMU PW-queue.
    pub gmmu_queue: u64,
    /// GMMU page-table memory accesses (the PW-cache-miss penalty).
    pub gmmu_walk: u64,
    /// Waiting in the host MMU PW-queue (or the driver backlog).
    pub host_queue: u64,
    /// Host page-table memory accesses.
    pub host_walk: u64,
    /// Page migration data transfer on the critical path.
    pub migration: u64,
    /// Interconnect hops and request replay.
    pub network: u64,
}

impl LatencyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.gmmu_queue
            + self.gmmu_walk
            + self.host_queue
            + self.host_walk
            + self.migration
            + self.network
    }

    /// The fault-handling share (everything past the GMMU; §III-B reports
    /// 86.1% on average for the baseline).
    pub fn fault_total(&self) -> u64 {
        self.host_queue + self.host_walk + self.migration + self.network
    }

    /// Each component as a fraction of the total, in the order
    /// `[gmmu_queue, gmmu_walk, host_queue, host_walk, migration, network]`.
    pub fn fractions(&self) -> [f64; 6] {
        let t = self.total() as f64;
        if t == 0.0 {
            return [0.0; 6];
        }
        [
            self.gmmu_queue as f64 / t,
            self.gmmu_walk as f64 / t,
            self.host_queue as f64 / t,
            self.host_walk as f64 / t,
            self.migration as f64 / t,
            self.network as f64 / t,
        ]
    }

    /// Per-component reduction versus a baseline, as fractions in `[0, 1]`
    /// (0 when the baseline component is 0), same order as
    /// [`fractions`](Self::fractions). Used for Fig. 12.
    pub fn reduction_vs(&self, base: &LatencyBreakdown) -> [f64; 6] {
        fn red(opt: u64, base: u64) -> f64 {
            if base == 0 {
                0.0
            } else {
                1.0 - (opt as f64 / base as f64).min(1.0)
            }
        }
        [
            red(self.gmmu_queue, base.gmmu_queue),
            red(self.gmmu_walk, base.gmmu_walk),
            red(self.host_queue, base.host_queue),
            red(self.host_walk, base.host_walk),
            red(self.migration, base.migration),
            red(self.network, base.network),
        ]
    }
}

/// VPNs below this go through [`SharingProfile`]'s dense index; larger
/// ones, outside any workload footprint, through an ordered map.
const DENSE_VPNS: u64 = 1 << 24;

/// Page-sharing bookkeeping for Figs. 7 and 24: which GPUs touched each
/// page, and how many reads/writes each page received.
///
/// Two profiles are equal when they hold the same per-page touches,
/// whatever order the pages were first touched in.
#[derive(Debug, Clone, Default)]
pub struct SharingProfile {
    /// `index[vpn]` is 1 + the position of `vpn` in `pages`; 0 means
    /// untouched. Workload VPNs are dense in `0..footprint_pages`.
    index: Vec<u32>,
    /// Touches of the indexed VPNs, in first-touch order.
    pages: Vec<PageTouch>,
    /// Touches of VPNs at or above [`DENSE_VPNS`].
    sparse: BTreeMap<u64, PageTouch>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageTouch {
    gpu_mask: u64,
    reads: u64,
    writes: u64,
}

impl SharingProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access.
    pub fn record(&mut self, vpn: u64, gpu: u16, is_write: bool) {
        let t = self.touch_mut(vpn);
        t.gpu_mask |= 1 << gpu;
        if is_write {
            t.writes += 1;
        } else {
            t.reads += 1;
        }
    }

    /// The touches of `vpn`, created empty on first touch.
    fn touch_mut(&mut self, vpn: u64) -> &mut PageTouch {
        if vpn >= DENSE_VPNS {
            return self.sparse.entry(vpn).or_default();
        }
        let v = vpn as usize;
        if v >= self.index.len() {
            self.index.resize(v + 1, 0);
        }
        if self.index[v] == 0 {
            self.pages.push(PageTouch::default());
            // At most `DENSE_VPNS` pages are indexed, so this fits.
            self.index[v] = self.pages.len() as u32;
        }
        &mut self.pages[self.index[v] as usize - 1]
    }

    /// The touches of an indexed `vpn`, if it was touched.
    fn indexed(&self, vpn: usize) -> Option<&PageTouch> {
        let pos = *self.index.get(vpn)?;
        self.pages.get((pos as usize).checked_sub(1)?)
    }

    fn touches(&self) -> impl Iterator<Item = &PageTouch> {
        self.pages.iter().chain(self.sparse.values())
    }

    /// Fraction of all page accesses that went to pages shared by exactly
    /// `1, 2, 3, …, max_degree` GPUs (Fig. 7; the last bucket absorbs higher
    /// degrees).
    pub fn access_fraction_by_degree(&self, max_degree: usize) -> Vec<f64> {
        let mut by_degree = vec![0u64; max_degree + 1];
        let mut total = 0u64;
        for t in self.touches() {
            let d = (t.gpu_mask.count_ones() as usize).min(max_degree);
            let acc = t.reads + t.writes;
            by_degree[d] += acc;
            total += acc;
        }
        by_degree[1..]
            .iter()
            .map(|&a| sim_core::stats::ratio(a, total))
            .collect()
    }

    /// `(reads, writes)` to pages shared by at least two GPUs (Fig. 24).
    pub fn shared_rw(&self) -> (u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        for t in self.touches() {
            if t.gpu_mask.count_ones() >= 2 {
                reads += t.reads;
                writes += t.writes;
            }
        }
        (reads, writes)
    }

    /// Number of distinct pages touched.
    pub fn page_count(&self) -> usize {
        self.pages.len() + self.sparse.len()
    }
}

impl PartialEq for SharingProfile {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self.sparse == other.sparse
            && (0..self.index.len()).all(|vpn| self.indexed(vpn) == other.indexed(vpn))
    }
}

impl Eq for SharingProfile {}

/// Counters specific to the Trans-FW datapath.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransFwStats {
    /// L2 TLB misses that skipped the GMMU walk on a PRT miss.
    pub gmmu_bypassed: u64,
    /// PRT hits that nonetheless faulted (false positives).
    pub prt_false_positives: u64,
    /// Host requests forwarded to a remote GPU.
    pub forwarded: u64,
    /// Forwarded requests whose translation was supplied by the remote GPU.
    pub remote_supplied: u64,
    /// Forwarded requests that failed at the remote GPU (FT false
    /// positives/stale owners).
    pub remote_failed: u64,
    /// Host walks cancelled because the remote lookup finished first.
    pub cancelled_host_walks: u64,
    /// Requests where both the host walk and the remote walk ran (Fig. 14's
    /// replicated PT-walks).
    pub replicated_walks: u64,
}

/// The remote PW-cache probe study of Fig. 8: on each local fault, would a
/// remote GPU's PW-cache have served the prefix?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteProbeStats {
    /// Local faults probed.
    pub faults: u64,
    /// Faults where some remote PW-cache held a matching prefix.
    pub hits: u64,
    /// Hits at the lower levels (L2/L3): 1–2 remaining accesses.
    pub lower_hits: u64,
}

impl RemoteProbeStats {
    /// Remote hit rate over probed faults.
    pub fn hit_rate(&self) -> f64 {
        sim_core::stats::ratio(self.hits, self.faults)
    }

    /// Lower-level (L2/L3) remote hit rate.
    pub fn lower_hit_rate(&self) -> f64 {
        sim_core::stats::ratio(self.lower_hits, self.faults)
    }
}

/// Policy-engine counters: what the placement-policy engine's ownership
/// transactions did during the run, beyond the per-decision tallies in
/// [`DirectoryStats`]. All-zero when every fault is already-resident (or
/// the run has no far faults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlacementStats {
    /// Ownership transactions applied to the memory system: one per
    /// far-fault resolution (collapses included), prefetched page and
    /// access-counter promotion.
    pub transactions: u64,
    /// Cold pages pulled in by the prefetch policy alongside migrations.
    pub prefetched_pages: u64,
    /// Prefetch candidates skipped because the destination GPU already had
    /// a local mapping or a pending PRT entry for the VPN (double-inserting
    /// the multiset filter would corrupt later departures).
    pub prefetch_skipped_pending: u64,
    /// Write-collapses of replicated pages back to a single owner.
    pub collapses: u64,
    /// Fabric latency of every data-moving transaction: demand, prefetch
    /// and background migrations, replications and collapses.
    pub migration_latency: sim_core::stats::LatencyAccumulator,
}

/// Resilience counters: what the protocol watchdogs and the fault injector
/// did during the run. All-zero on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Remote lookups / forwarded walks whose watchdog deadline fired.
    pub remote_timeouts: u64,
    /// Lossy retries issued by the watchdog before degrading.
    pub retries: u64,
    /// Requests that degraded to the reliable fallback host-walk path.
    pub fallback_walks: u64,
    /// Duplicated protocol messages discarded by idempotence guards.
    pub duplicates_suppressed: u64,
    /// Translation requests retired (each exactly once — audited).
    pub requests_retired: u64,
    /// Faults actually injected, by kind.
    pub faults_injected: sim_core::InjectStats,
}

/// Component-failure and recovery counters: what the recovery state machine
/// did during the run. All-zero unless the fault plan schedules component
/// events or checkpointing is enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// GPUs taken offline by the fault plan.
    pub gpu_offline_events: u64,
    /// GPUs re-admitted after an offline window.
    pub gpu_rejoins: u64,
    /// Link partitions opened by the fault plan.
    pub link_partition_events: u64,
    /// Host-MMU failover windows entered.
    pub host_failover_events: u64,
    /// Forwarding-table entries invalidated because they were keyed to a
    /// failed GPU (owner removals plus migrated-away home entries).
    pub ft_invalidations: u64,
    /// PRT rebuilds performed from the page directory on rejoin.
    pub prt_rebuilds: u64,
    /// Pages whose ownership migrated off a failed GPU to a surviving GPU
    /// or back to host memory.
    pub ownership_migrations: u64,
    /// In-flight walks of a failed GPU re-issued through the reliable host
    /// path.
    pub reissued_walks: u64,
    /// Events deferred because their target component was offline (the
    /// warm-up cost a rejoining GPU pays).
    pub deferred_events: u64,
    /// Recovery evictions deferred because the page was pinned by an
    /// outstanding request (a forwarded walk still in flight); completed
    /// when the last request on the page retires, or cancelled at rejoin.
    pub deferred_evictions: u64,
    /// Peer messages rerouted through the host because the direct link was
    /// partitioned.
    pub rerouted_messages: u64,
    /// Epoch checkpoints recorded.
    pub checkpoints_taken: u64,
    /// Restores performed (set by the checkpoint/restore harness).
    pub restores_performed: u64,
}

/// Everything measured by one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Workload name.
    pub app: String,
    /// End-to-end execution time in cycles.
    pub total_cycles: u64,
    /// Coalesced memory instructions executed.
    pub mem_instructions: u64,
    /// L1 TLB hits/misses (all CUs).
    pub l1_hits: u64,
    /// L1 TLB misses.
    pub l1_misses: u64,
    /// L2 TLB hits (all GPUs).
    pub l2_hits: u64,
    /// L2 TLB misses.
    pub l2_misses: u64,
    /// Translation requests created (post-MSHR-coalescing L2 misses).
    pub translation_requests: u64,
    /// GPU local page faults (far faults).
    pub local_faults: u64,
    /// Host MMU TLB hits.
    pub host_tlb_hits: u64,
    /// Host MMU TLB misses.
    pub host_tlb_misses: u64,
    /// Host PT-walks performed.
    pub host_walks: u64,
    /// Total GMMU page-table memory accesses.
    pub gmmu_walk_accesses: u64,
    /// Total host page-table memory accesses.
    pub host_walk_accesses: u64,
    /// Latency attribution over all translation requests.
    pub breakdown: LatencyBreakdown,
    /// Merged GMMU PW-cache statistics.
    pub gmmu_pwc: PwCacheStats,
    /// Host PW-cache statistics.
    pub host_pwc: PwCacheStats,
    /// Page-sharing profile.
    pub sharing: SharingProfile,
    /// Trans-FW datapath counters.
    pub transfw: TransFwStats,
    /// Fig. 8 remote-probe counters.
    pub remote_probe: RemoteProbeStats,
    /// Placement statistics (migrations, replications, …).
    pub directory: DirectoryStats,
    /// Policy-engine transaction counters (prefetches, collapses, migration
    /// latency).
    pub placement: PlacementStats,
    /// Software-driver batches processed (driver mode only).
    pub driver_batches: u64,
    /// Peak host PW-queue occupancy.
    pub host_queue_peak: usize,
    /// Watchdog and fault-injection counters.
    pub resilience: ResilienceStats,
    /// Component-failure and recovery counters.
    pub recovery: RecoveryStats,
    /// Overload-control counters: shed/deferred work by priority class,
    /// retry-budget and backoff accounting, breaker transitions, and the
    /// demand-walk latency tail (all zero while overload control is off).
    pub overload: crate::overload::OverloadStats,
    /// Oversubscription counters: capacity evictions, refaults, thrash-gate
    /// trips, pinned-victim skips and direct-access fallbacks (all zero
    /// while oversubscription is off).
    pub oversub: crate::oversub::OversubStats,
}

impl RunMetrics {
    /// Page faults per kilo (memory) instruction — the Table III metric.
    pub fn pfpki(&self) -> f64 {
        if self.mem_instructions == 0 {
            0.0
        } else {
            self.local_faults as f64 * 1000.0 / self.mem_instructions as f64
        }
    }

    /// L2 TLB hit rate.
    pub fn l2_hit_rate(&self) -> f64 {
        sim_core::stats::ratio(self.l2_hits, self.l2_hits.saturating_add(self.l2_misses))
    }

    /// Speedup of this run relative to `baseline` (>1 means faster).
    ///
    /// # Panics
    ///
    /// Panics if this run has zero cycles.
    pub fn speedup_vs(&self, baseline: &RunMetrics) -> f64 {
        assert!(self.total_cycles > 0, "run has no cycles");
        baseline.total_cycles as f64 / self.total_cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_fractions() {
        let b = LatencyBreakdown {
            gmmu_queue: 10,
            gmmu_walk: 20,
            host_queue: 30,
            host_walk: 15,
            migration: 20,
            network: 5,
        };
        assert_eq!(b.total(), 100);
        assert_eq!(b.fault_total(), 70);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.10).abs() < 1e-12);
    }

    #[test]
    fn breakdown_empty_fractions_are_zero() {
        assert_eq!(LatencyBreakdown::default().fractions(), [0.0; 6]);
    }

    #[test]
    fn reduction_vs_baseline() {
        let base = LatencyBreakdown {
            gmmu_queue: 100,
            ..Default::default()
        };
        let opt = LatencyBreakdown {
            gmmu_queue: 25,
            ..Default::default()
        };
        let r = opt.reduction_vs(&base);
        assert!((r[0] - 0.75).abs() < 1e-12);
        assert_eq!(r[1], 0.0, "zero baseline -> zero reduction");
    }

    #[test]
    fn sharing_degree_fractions() {
        let mut s = SharingProfile::new();
        // Page 1: GPU0 only, 3 accesses. Page 2: GPUs 0+1, 1 access.
        s.record(1, 0, false);
        s.record(1, 0, false);
        s.record(1, 0, true);
        s.record(2, 0, false);
        s.record(2, 1, true);
        let f = s.access_fraction_by_degree(4);
        assert_eq!(f.len(), 4);
        assert!((f[0] - 0.6).abs() < 1e-12, "degree 1: 3/5");
        assert!((f[1] - 0.4).abs() < 1e-12, "degree 2: 2/5");
        assert_eq!(s.page_count(), 2);
    }

    #[test]
    fn sharing_degree_clamps_to_max() {
        let mut s = SharingProfile::new();
        for g in 0..8 {
            s.record(7, g, false);
        }
        let f = s.access_fraction_by_degree(4);
        assert!(
            (f[3] - 1.0).abs() < 1e-12,
            "8-way sharing lands in 4+ bucket"
        );
    }

    #[test]
    fn shared_rw_only_counts_shared_pages() {
        let mut s = SharingProfile::new();
        s.record(1, 0, true); // private page: ignored
        s.record(2, 0, false);
        s.record(2, 1, true);
        s.record(2, 1, true);
        assert_eq!(s.shared_rw(), (1, 2));
    }

    #[test]
    fn new_profile_is_empty() {
        let s = SharingProfile::new();
        assert_eq!(s.page_count(), 0);
        assert_eq!(s.shared_rw(), (0, 0));
        assert_eq!(s.access_fraction_by_degree(4), vec![0.0; 4]);
        assert_eq!(s, SharingProfile::default());
    }

    #[test]
    fn page_order_does_not_matter() {
        // Same per-page accesses, pages first touched in opposite orders,
        // with one page past the dense index.
        let accesses = [
            (3, 0, false),
            (3, 1, true),
            (9, 2, false),
            (DENSE_VPNS + 5, 0, true),
            (DENSE_VPNS + 5, 3, false),
            (0, 1, true),
            (9, 2, true),
        ];
        let mut fwd = SharingProfile::new();
        let mut rev = SharingProfile::new();
        for &(vpn, gpu, w) in &accesses {
            fwd.record(vpn, gpu, w);
        }
        for vpn in [DENSE_VPNS + 5, 9, 3, 0] {
            for &(v, gpu, w) in accesses.iter().filter(|a| a.0 == vpn) {
                rev.record(v, gpu, w);
            }
        }
        assert_ne!(fwd.pages, rev.pages, "first-touch orders differ");
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.access_fraction_by_degree(4),
            rev.access_fraction_by_degree(4)
        );
        assert_eq!(fwd.shared_rw(), rev.shared_rw());
        assert_eq!(fwd.shared_rw(), (2, 2));
        assert_eq!(fwd.page_count(), 4);
        assert_eq!(rev.page_count(), 4);

        rev.record(9, 3, false);
        assert_ne!(fwd, rev, "one more touch on one page");
    }

    #[test]
    fn higher_vpn_grows_the_index() {
        let mut s = SharingProfile::new();
        s.record(4, 0, false);
        assert_eq!(s.index.len(), 5);
        s.record(2, 1, false);
        assert_eq!(s.index.len(), 5, "lower VPNs reuse the index");
        s.record(1000, 1, true);
        assert_eq!(s.index.len(), 1001);
        assert_eq!(s.page_count(), 3);
        assert_eq!(s.indexed(4).map(|t| t.reads), Some(1));
        assert_eq!(s.indexed(1000).map(|t| t.writes), Some(1));
        assert_eq!(s.indexed(3), None);
    }

    #[test]
    fn pfpki_computation() {
        let m = RunMetrics {
            local_faults: 50,
            mem_instructions: 10_000,
            ..Default::default()
        };
        assert!((m.pfpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_ratio() {
        let base = RunMetrics {
            total_cycles: 200,
            ..Default::default()
        };
        let opt = RunMetrics {
            total_cycles: 100,
            ..Default::default()
        };
        assert_eq!(opt.speedup_vs(&base), 2.0);
    }

    #[test]
    fn remote_probe_rates() {
        let r = RemoteProbeStats {
            faults: 100,
            hits: 88,
            lower_hits: 45,
        };
        assert!((r.hit_rate() - 0.88).abs() < 1e-12);
        assert!((r.lower_hit_rate() - 0.45).abs() < 1e-12);
    }
}
