//! System configuration (Table II) and experiment knobs.

use sim_core::{ConfigError, Cycle, FaultPlan};
use transfw::TransFwConfig;

/// The most GPUs a system can model: the replica, remote-map and
/// page-sharing masks hold one bit per GPU in a `u64`.
pub const MAX_GPUS: u16 = 64;

/// Protocol-watchdog knobs: per-request deadlines with bounded retries, a
/// final graceful degradation to the ordinary host-walk path, and an
/// event-loop liveness check. The watchdogs arm only when a fault plan is
/// active, so fault-free runs stay bit-identical to the unwatched simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch for all protocol watchdogs.
    pub enabled: bool,
    /// Cycles a forwarded/remote lookup may stay outstanding before the
    /// watchdog retries it.
    pub request_timeout: Cycle,
    /// Lossy retries before degrading to a reliable direct host walk.
    pub max_retries: u32,
    /// Liveness-check period: if outstanding work makes no progress for a
    /// whole interval the run aborts with [`sim_core::SimError::Livelock`].
    pub liveness_interval: Cycle,
    /// Hard cap on simulated cycles (None = unbounded); exceeded caps abort
    /// with [`sim_core::SimError::CycleCapExceeded`].
    pub max_cycles: Option<Cycle>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            // Generous relative to a worst-case forwarded walk: two link
            // crossings (2x150) + a full borrowed walk (5x100) + queueing.
            request_timeout: 20_000,
            max_retries: 2,
            liveness_interval: 1_000_000,
            max_cycles: None,
        }
    }
}

/// Which page-walk cache organisation to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwcKind {
    /// Unified Translation Cache (paper default).
    Utc,
    /// Split Translation Cache (§V-C).
    Stc,
    /// Infinite cache — only cold misses (Fig. 4 ideal).
    Infinite,
}

/// How far faults are handled (§II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FarFaultMode {
    /// Hardware host MMU / IOMMU handles faults (the paper's baseline).
    HostMmu,
    /// The software UVM driver handles faults in batches (Figs. 2 and 26).
    UvmDriver,
}

/// Trans-FW enablement, with per-mechanism ablation switches.
#[derive(Debug, Clone, PartialEq)]
pub struct TransFwKnobs {
    /// Table sizing and forwarding threshold.
    pub config: TransFwConfig,
    /// Short-circuit the GMMU walk via the PRT (§IV-B).
    pub gmmu_short_circuit: bool,
    /// Forward contended host walks to owner GPUs via the FT (§IV-C).
    pub host_forwarding: bool,
}

impl TransFwKnobs {
    /// The full mechanism with paper-default sizing.
    pub fn full() -> Self {
        Self {
            config: TransFwConfig::default(),
            gmmu_short_circuit: true,
            host_forwarding: true,
        }
    }
}

/// Impractical idealisations for the Fig. 4 "room for improvement" study.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealKnobs {
    /// Unlimited PT-walk threads in GMMU and host MMU.
    pub infinite_walkers: bool,
    /// Page migrations complete instantly (translation latency preserved).
    pub zero_migration_latency: bool,
    /// Pre-map every page in every GPU: no local page faults ever.
    pub no_local_faults: bool,
}

/// Full system configuration. Defaults reproduce Table II.
///
/// # Examples
///
/// ```
/// use mgpu::SystemConfig;
///
/// let cfg = SystemConfig::builder()
///     .gpus(8)
///     .host_walkers(32)
///     .build();
/// assert_eq!(cfg.gpus, 8);
/// assert_eq!(cfg.l2_tlb_entries, 512); // Table II default retained
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of GPUs (paper baseline: 4; at most [`MAX_GPUS`]).
    pub gpus: u16,
    /// Compute units per GPU (Table II: 64).
    pub cus_per_gpu: u16,
    /// Wavefront slots per CU issuing independent memory instructions.
    pub wavefronts_per_cu: u16,
    /// log2 of the page size in bytes (12 for 4 KB, 21 for 2 MB).
    pub page_size_bits: u32,
    /// Page-table levels (5 default, 4 in Fig. 19).
    pub page_table_levels: u32,
    /// L1 TLB entries per CU (32, fully associative).
    pub l1_tlb_entries: usize,
    /// L1 TLB lookup latency (1 cycle).
    pub l1_tlb_latency: Cycle,
    /// Shared L2 TLB entries (512).
    pub l2_tlb_entries: usize,
    /// L2 TLB associativity (16).
    pub l2_tlb_assoc: usize,
    /// L2 TLB lookup latency (10 cycles).
    pub l2_tlb_latency: Cycle,
    /// Host MMU TLB entries (2048; 4096 in Fig. 20a).
    pub host_tlb_entries: usize,
    /// Host MMU TLB associativity (64).
    pub host_tlb_assoc: usize,
    /// GMMU PT-walk threads (8).
    pub gmmu_walkers: usize,
    /// Host MMU PT-walk threads (16).
    pub host_walkers: usize,
    /// GMMU PW-cache entries (128).
    pub gmmu_pwc_entries: usize,
    /// Host MMU PW-cache entries (128; 256/512 in Fig. 20b/c).
    pub host_pwc_entries: usize,
    /// PW-cache organisation.
    pub pwc_kind: PwcKind,
    /// PW-queue capacity (64).
    pub pw_queue_entries: usize,
    /// Memory latency per page-table level access (100 cycles).
    pub walk_level_latency: Cycle,
    /// Host-MMU per-fault handling occupancy beyond the raw walk (fault
    /// buffer management and migration orchestration keep the walk thread
    /// busy); this is what makes the host PW-queue the contention point the
    /// paper measures (Fig. 3: 20.9% of L2-miss latency).
    pub host_fault_overhead: Cycle,
    /// CPU–GPU interconnect latency (PCIe, 150 cycles).
    pub cpu_link_latency: Cycle,
    /// GPU–GPU interconnect latency (150 cycles; swept in Fig. 21).
    pub peer_link_latency: Cycle,
    /// Interconnect bandwidth in bytes per cycle per link.
    pub link_bytes_per_cycle: u64,
    /// GPU local memory (DRAM) data-access latency.
    pub dram_latency: Cycle,
    /// Data-cache hit latency for data accesses.
    pub cache_latency: Cycle,
    /// Far-fault handling mode.
    pub fault_mode: FarFaultMode,
    /// Software-driver cost model (used when `fault_mode` is `UvmDriver`).
    pub driver: uvm::DriverConfig,
    /// Additional per-GPU, per-batch driver cost: the driver polls and
    /// fetches every GPU's fault buffer each round, which is what makes the
    /// software path scale poorly as GPUs are added (Fig. 2a).
    pub driver_per_gpu_poll: sim_core::Cycle,
    /// Page-placement policy (default first touch; §V-D/E evaluate
    /// `ReadDuplicate` and `DelayedMigration`).
    pub placement: uvm::PolicyKind,
    /// Trans-FW (None = baseline).
    pub transfw: Option<TransFwKnobs>,
    /// ASAP PW-cache prefetching in GMMU and host MMU (§V-H); the value is
    /// the prediction accuracy.
    pub asap: Option<f64>,
    /// Fig. 4 idealisations.
    pub ideal: IdealKnobs,
    /// Least-TLB style redundancy elimination (§V-I): the shared L2 TLBs of
    /// all GPUs act as one distributed TLB, probed before the GMMU.
    pub least_tlb: bool,
    /// Fault-injection plan ([`FaultPlan::none`] = pristine run).
    pub faults: FaultPlan,
    /// Epoch-checkpoint period in cycles (None = no checkpointing). When
    /// set, the system records a state digest every interval so a crashed
    /// run can be restored and verified bit-identical (see
    /// [`run_with_restore`](crate::run_with_restore)).
    pub checkpoint_interval: Option<Cycle>,
    /// Protocol-watchdog and liveness knobs.
    pub watchdog: WatchdogConfig,
    /// Shadow sanitizer: check the model-checker's safety invariants
    /// (commit atomicity, retire-exactly-once, local-residency agreement)
    /// at every ownership commit and retire of a full-scale run. The checks
    /// are read-only and draw no randomness, so enabling them keeps runs
    /// bit-identical; findings surface through the post-run auditor.
    pub sanitize: bool,
    /// Overload-control knobs: admission watermarks, retry budgets with
    /// deterministic backoff, and per-peer circuit breakers. The default
    /// is disabled, which keeps every run bit-identical to a build without
    /// the subsystem (see [`OverloadConfig`](crate::OverloadConfig)).
    pub overload: crate::overload::OverloadConfig,
    /// Oversubscription knobs: per-GPU capacity, eviction policy and
    /// thrash detection. The default is disabled (capacity treated as
    /// infinite), which keeps every run bit-identical to a build without
    /// the subsystem (see [`OversubConfig`](crate::OversubConfig)).
    pub oversub: crate::oversub::OversubConfig,
    /// Deterministic simulation seed.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self {
            gpus: 4,
            cus_per_gpu: 64,
            wavefronts_per_cu: 2,
            page_size_bits: 12,
            page_table_levels: 5,
            l1_tlb_entries: 32,
            l1_tlb_latency: 1,
            l2_tlb_entries: 512,
            l2_tlb_assoc: 16,
            l2_tlb_latency: 10,
            host_tlb_entries: 2048,
            host_tlb_assoc: 64,
            gmmu_walkers: 8,
            host_walkers: 16,
            gmmu_pwc_entries: 128,
            host_pwc_entries: 128,
            pwc_kind: PwcKind::Utc,
            pw_queue_entries: 64,
            walk_level_latency: 100,
            host_fault_overhead: 400,
            cpu_link_latency: 150,
            peer_link_latency: 150,
            link_bytes_per_cycle: 256,
            dram_latency: 200,
            cache_latency: 25,
            fault_mode: FarFaultMode::HostMmu,
            driver: uvm::DriverConfig::default(),
            driver_per_gpu_poll: 600,
            placement: uvm::PolicyKind::FirstTouch,
            transfw: None,
            asap: None,
            ideal: IdealKnobs::default(),
            least_tlb: false,
            faults: FaultPlan::none(),
            checkpoint_interval: None,
            watchdog: WatchdogConfig::default(),
            sanitize: false,
            overload: crate::overload::OverloadConfig::default(),
            oversub: crate::oversub::OversubConfig::default(),
            seed: 0xBEEF,
        }
    }
}

/// The first rule, `(holds, field, msg)`, that does not hold.
pub(crate) fn first_broken(rules: &[(bool, &'static str, &str)]) -> Result<(), ConfigError> {
    match rules.iter().find(|(holds, ..)| !holds) {
        Some(&(_, field, msg)) => Err(ConfigError::new(field, msg)),
        None => Ok(()),
    }
}

/// A TLB of `entries` entries in sets of `assoc` ways.
fn tlb_geometry_ok(entries: usize, assoc: usize) -> bool {
    entries > 0 && assoc > 0 && entries.is_multiple_of(assoc)
}

/// The PRT and FT geometry their Cuckoo filters can hold, and a forwarding
/// threshold [`ForwardPolicy`](transfw::ForwardPolicy) accepts.
fn transfw_rules(c: &TransFwConfig) -> Result<(), &'static str> {
    let filters = [
        (c.prt_fingerprints, c.prt_slots, c.prt_fp_bits),
        (c.ft_fingerprints, c.ft_slots, c.ft_fp_bits),
    ];
    for (fingerprints, slots, fp_bits) in filters {
        if fingerprints == 0 || slots == 0 {
            return Err("filter fingerprint and slot counts must be positive");
        }
        if !(1..=16).contains(&fp_bits) {
            return Err("fingerprint widths must be in 1..=16 bits");
        }
        if fingerprints.div_ceil(slots) > 1 << 16 {
            return Err("filters hold at most 65536 buckets");
        }
    }
    if c.vpn_mask_bits > 24 {
        return Err("vpn_mask_bits must be at most 24");
    }
    if !(c.forward_threshold.is_finite() && c.forward_threshold >= 0.0) {
        return Err("forward_threshold must be a non-negative finite number");
    }
    Ok(())
}

impl SystemConfig {
    /// Starts building a configuration from the Table II defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: Self::default(),
        }
    }

    /// The Table II baseline (no Trans-FW).
    pub fn baseline() -> Self {
        Self::default()
    }

    /// The baseline with Trans-FW fully enabled.
    pub fn with_transfw() -> Self {
        Self {
            transfw: Some(TransFwKnobs::full()),
            ..Self::default()
        }
    }

    /// Checks every configuration rule; this is the one place they are
    /// stated. A configuration it accepts constructs a [`System`](crate::System)
    /// without panicking, and `scn` reports its error at the named key.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first field that breaks a rule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let too_many_gpus = format!("at most {MAX_GPUS} GPUs: sharing masks are 64-bit");
        let wd = &self.watchdog;
        #[rustfmt::skip]
        let rules = [
            (self.gpus > 0, "gpus", "need at least one GPU"),
            (self.gpus <= MAX_GPUS, "gpus", &too_many_gpus),
            (self.cus_per_gpu > 0, "cus_per_gpu", "need at least one CU"),
            (self.wavefronts_per_cu > 0, "wavefronts_per_cu", "need at least one wavefront"),
            (matches!(self.page_size_bits, 12 | 21), "page_size_bits", "page size must be 4 KB or 2 MB"),
            ((2..=6).contains(&self.page_table_levels), "page_table_levels", "page table levels must be in 2..=6"),
            (self.l1_tlb_entries > 0, "l1_tlb_entries", "L1 TLB needs at least one entry"),
            (tlb_geometry_ok(self.l2_tlb_entries, self.l2_tlb_assoc), "l2_tlb_assoc",
             "L2 TLB geometry: entries must be a positive multiple of the associativity"),
            (tlb_geometry_ok(self.host_tlb_entries, self.host_tlb_assoc), "host_tlb_assoc",
             "host TLB geometry: entries must be a positive multiple of the associativity"),
            (self.gmmu_walkers > 0, "gmmu_walkers", "need at least one GMMU walker"),
            (self.host_walkers > 0, "host_walkers", "need at least one host walker"),
            (self.gmmu_pwc_entries > 0, "gmmu_pwc_entries", "GMMU PW cache needs an entry"),
            (self.host_pwc_entries > 0, "host_pwc_entries", "host PW cache needs an entry"),
            (self.pw_queue_entries > 0, "pw_queue_entries", "PW queue needs an entry"),
            (self.link_bytes_per_cycle > 0, "link_bytes_per_cycle", "link bandwidth must be positive"),
            (self.driver.batch_size > 0 && self.driver.walk_threads > 0, "driver",
             "driver batch size and walk threads must be positive"),
            (self.asap.is_none_or(|a| (0.0..=1.0).contains(&a)), "asap", "asap accuracy must be in [0, 1]"),
            (self.checkpoint_interval != Some(0), "checkpoint_interval", "checkpoint_interval must be positive"),
            (self.placement.remote_access_threshold() != Some(0), "placement", "migration threshold must be positive"),
            (!wd.enabled || wd.request_timeout > 0, "watchdog", "watchdog request_timeout must be positive"),
            (!wd.enabled || wd.liveness_interval > 0, "watchdog", "watchdog liveness_interval must be positive"),
        ];
        first_broken(&rules)?;
        if let Some(knobs) = &self.transfw {
            transfw_rules(&knobs.config).map_err(|msg| ConfigError::new("transfw", msg))?;
        }
        self.faults.validate()?;
        self.faults.validate_topology(usize::from(self.gpus))?;
        if self.overload.enabled {
            self.overload.validate()?;
        }
        if self.oversub.enabled {
            self.oversub.validate()?;
        }
        Ok(())
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1 << self.page_size_bits
    }

    /// Converts a 4 KB-granule VPN (the unit workloads generate) to a
    /// translation-granule VPN under the configured page size.
    pub fn translation_vpn(&self, vpn_4k: u64) -> u64 {
        vpn_4k >> (self.page_size_bits - 12)
    }

    /// The placement-policy kind the directory will run.
    pub fn placement_kind(&self) -> uvm::PolicyKind {
        self.placement
    }
}

/// Builder for [`SystemConfig`] (non-consuming terminal, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(&mut self, value: $ty) -> &mut Self {
            self.cfg.$name = value;
            self
        }
    };
}

impl SystemConfigBuilder {
    setter!(
        /// Number of GPUs.
        gpus: u16
    );
    setter!(
        /// CUs per GPU.
        cus_per_gpu: u16
    );
    setter!(
        /// Wavefront slots per CU.
        wavefronts_per_cu: u16
    );
    setter!(
        /// log2 page size (12 or 21).
        page_size_bits: u32
    );
    setter!(
        /// Page-table levels.
        page_table_levels: u32
    );
    setter!(
        /// L1 TLB entries.
        l1_tlb_entries: usize
    );
    setter!(
        /// L2 TLB entries.
        l2_tlb_entries: usize
    );
    setter!(
        /// L2 TLB associativity.
        l2_tlb_assoc: usize
    );
    setter!(
        /// Host TLB entries.
        host_tlb_entries: usize
    );
    setter!(
        /// Host TLB associativity.
        host_tlb_assoc: usize
    );
    setter!(
        /// GMMU walker threads.
        gmmu_walkers: usize
    );
    setter!(
        /// Host walker threads.
        host_walkers: usize
    );
    setter!(
        /// GMMU PW-cache entries.
        gmmu_pwc_entries: usize
    );
    setter!(
        /// Host PW-cache entries.
        host_pwc_entries: usize
    );
    setter!(
        /// PW-cache organisation.
        pwc_kind: PwcKind
    );
    setter!(
        /// Walk per-level memory latency.
        walk_level_latency: Cycle
    );
    setter!(
        /// Host per-fault handling occupancy.
        host_fault_overhead: Cycle
    );
    setter!(
        /// CPU link latency.
        cpu_link_latency: Cycle
    );
    setter!(
        /// Peer link latency.
        peer_link_latency: Cycle
    );
    setter!(
        /// DRAM data latency.
        dram_latency: Cycle
    );
    setter!(
        /// Far-fault mode.
        fault_mode: FarFaultMode
    );
    setter!(
        /// Driver cost model.
        driver: uvm::DriverConfig
    );
    setter!(
        /// Page-placement policy.
        placement: uvm::PolicyKind
    );
    setter!(
        /// Trans-FW knobs.
        transfw: Option<TransFwKnobs>
    );
    setter!(
        /// ASAP prefetch accuracy.
        asap: Option<f64>
    );
    setter!(
        /// Fig. 4 idealisations.
        ideal: IdealKnobs
    );
    setter!(
        /// Least-TLB sharing.
        least_tlb: bool
    );
    setter!(
        /// Fault-injection plan.
        faults: FaultPlan
    );
    setter!(
        /// Epoch-checkpoint period.
        checkpoint_interval: Option<Cycle>
    );
    setter!(
        /// Watchdog knobs.
        watchdog: WatchdogConfig
    );
    setter!(
        /// Shadow-sanitizer invariant checking.
        sanitize: bool
    );
    setter!(
        /// Overload-control knobs.
        overload: crate::overload::OverloadConfig
    );
    setter!(
        /// Oversubscription knobs.
        oversub: crate::oversub::OversubConfig
    );
    setter!(
        /// Simulation seed.
        seed: u64
    );

    /// Finalises and validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`SystemConfig::validate`] error if the
    /// configuration breaks a rule.
    pub fn build(&self) -> SystemConfig {
        let cfg = self.cfg.clone();
        if let Err(e) = cfg.validate() {
            panic!("invalid configuration: {e}");
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = SystemConfig::default();
        assert_eq!(c.gpus, 4);
        assert_eq!(c.cus_per_gpu, 64);
        assert_eq!(c.l1_tlb_entries, 32);
        assert_eq!(c.l2_tlb_entries, 512);
        assert_eq!(c.l2_tlb_assoc, 16);
        assert_eq!(c.l2_tlb_latency, 10);
        assert_eq!(c.host_tlb_entries, 2048);
        assert_eq!(c.host_tlb_assoc, 64);
        assert_eq!(c.gmmu_walkers, 8);
        assert_eq!(c.host_walkers, 16);
        assert_eq!(c.gmmu_pwc_entries, 128);
        assert_eq!(c.pw_queue_entries, 64);
        assert_eq!(c.walk_level_latency, 100);
        assert_eq!(c.cpu_link_latency, 150);
        assert_eq!(c.page_table_levels, 5);
        assert_eq!(c.fault_mode, FarFaultMode::HostMmu);
        assert!(c.transfw.is_none());
    }

    #[test]
    fn builder_overrides_and_keeps_rest() {
        let c = SystemConfig::builder().gpus(16).host_walkers(128).build();
        assert_eq!(c.gpus, 16);
        assert_eq!(c.host_walkers, 128);
        assert_eq!(c.l2_tlb_entries, 512);
    }

    #[test]
    fn with_transfw_enables_both_mechanisms() {
        let c = SystemConfig::with_transfw();
        let knobs = c.transfw.unwrap();
        assert!(knobs.gmmu_short_circuit);
        assert!(knobs.host_forwarding);
    }

    #[test]
    fn page_size_conversion() {
        let c4k = SystemConfig::default();
        assert_eq!(c4k.page_bytes(), 4096);
        assert_eq!(c4k.translation_vpn(12345), 12345);
        let c2m = SystemConfig::builder().page_size_bits(21).build();
        assert_eq!(c2m.page_bytes(), 2 * 1024 * 1024);
        assert_eq!(c2m.translation_vpn(512), 1);
        assert_eq!(c2m.translation_vpn(511), 0);
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn bad_page_size_rejected() {
        SystemConfig::builder().page_size_bits(13).build();
    }

    #[test]
    #[should_panic(expected = "at most 64 GPUs")]
    fn too_many_gpus_rejected() {
        SystemConfig::builder().gpus(MAX_GPUS + 1).build();
    }

    #[test]
    #[should_panic(expected = "L2 TLB geometry")]
    fn bad_tlb_geometry_rejected() {
        SystemConfig::builder().l2_tlb_entries(100).build();
    }

    fn delayed(threshold: u32) -> uvm::PolicyKind {
        uvm::PolicyKind::DelayedMigration { threshold }
    }

    #[test]
    fn validate_names_the_broken_field() {
        fn tf(c: &mut SystemConfig) -> &mut TransFwConfig {
            &mut c.transfw.insert(TransFwKnobs::full()).config
        }
        fn offline_gpu_9() -> FaultPlan {
            FaultPlan::components(vec![sim_core::ComponentEvent::GpuOffline {
                gpu: 9,
                at_cycle: 1,
                duration: 1,
            }])
        }
        type Edit = fn(&mut SystemConfig);
        let rows: &[(Edit, &str)] = &[
            (|c| c.gpus = 0, "gpus"),
            (|c| c.gpus = MAX_GPUS + 1, "gpus"),
            (|c| c.l1_tlb_entries = 0, "l1_tlb_entries"),
            (|c| c.l2_tlb_entries = 100, "l2_tlb_assoc"),
            (|c| c.l2_tlb_entries = 0, "l2_tlb_assoc"),
            (|c| c.host_tlb_assoc = 0, "host_tlb_assoc"),
            (|c| c.gmmu_walkers = 0, "gmmu_walkers"),
            (|c| c.gmmu_pwc_entries = 0, "gmmu_pwc_entries"),
            (|c| c.host_pwc_entries = 0, "host_pwc_entries"),
            (|c| c.pw_queue_entries = 0, "pw_queue_entries"),
            (|c| c.link_bytes_per_cycle = 0, "link_bytes_per_cycle"),
            (|c| c.driver.walk_threads = 0, "driver"),
            (|c| c.asap = Some(2.0), "asap"),
            (|c| c.checkpoint_interval = Some(0), "checkpoint_interval"),
            (|c| c.placement = delayed(0), "placement"),
            (|c| tf(c).prt_fp_bits = 20, "transfw"),
            (|c| tf(c).ft_fingerprints = 200_000, "transfw"),
            (|c| tf(c).forward_threshold = f64::NAN, "transfw"),
            (|c| c.faults.message_drop_prob = 1.5, "faults"),
            (|c| c.faults = offline_gpu_9(), "faults"),
            (|c| c.watchdog.liveness_interval = 0, "watchdog"),
            (|c| c.overload.host_queue_low = 99, "overload"),
            (|c| c.oversub.capacity_pages = 0, "oversub"),
        ];
        for (i, (edit, field)) in rows.iter().enumerate() {
            let mut cfg = SystemConfig::default();
            cfg.overload.enabled = true;
            cfg.oversub.enabled = true;
            edit(&mut cfg);
            let e = cfg.validate().expect_err(&format!("row {i}"));
            assert_eq!(e.field, *field, "row {i}: {e}");
        }
        // The bounds the constructors accept: ASAP 0 and Fig. 15's threshold 0.
        let mut cfg = SystemConfig::builder().asap(Some(0.0)).build();
        tf(&mut cfg).forward_threshold = 0.0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn default_fault_plan_is_inert_and_watchdogs_on() {
        let c = SystemConfig::default();
        assert!(!c.faults.is_active());
        assert!(c.watchdog.enabled);
        assert!(c.watchdog.max_cycles.is_none());
    }

    #[test]
    fn placement_defaults_to_legacy_policy_equivalent() {
        // First touch is the paper's on-touch migration (§V-E).
        let c = SystemConfig::default();
        assert_eq!(c.placement, uvm::PolicyKind::FirstTouch);
        assert_eq!(c.placement_kind(), uvm::PolicyKind::FirstTouch);
        let c = SystemConfig::builder()
            .placement(uvm::PolicyKind::PrefetchNeighborhood { radius: 3 })
            .build();
        assert_eq!(
            c.placement_kind(),
            uvm::PolicyKind::PrefetchNeighborhood { radius: 3 }
        );
    }

    #[test]
    fn builder_accepts_fault_plan() {
        let c = SystemConfig::builder()
            .faults(FaultPlan::message_loss(7, 0.01))
            .build();
        assert!(c.faults.is_active());
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn invalid_fault_plan_rejected() {
        let mut plan = FaultPlan::none();
        plan.message_drop_prob = 1.5;
        SystemConfig::builder().faults(plan).build();
    }
}
