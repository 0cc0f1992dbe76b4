//! Oversubscription control: per-GPU capacity accounting, refault-driven
//! thrash detection, and graceful degradation under memory pressure.
//!
//! When a working set exceeds device memory, naive demand migration
//! thrash-collapses: every fault evicts a page the next fault brings
//! straight back. [`OversubControl`] watches for that signature — a
//! *refault* is a fault on a page evicted within the trailing
//! [`refault_window`](OversubConfig::refault_window) cycles — and feeds the
//! windowed refault count into a per-GPU [`Hysteresis`] gate. While a gate
//! is engaged the system degrades instead of collapsing:
//!
//! * the hottest [`hot_protect`](OversubConfig::hot_protect) resident pages
//!   are exempt from victim selection (the pinned working set);
//! * background traffic ([`TrafficClass::Prefetch`] and access-counter
//!   [`TrafficClass::Migration`]) is shed before any demand work;
//! * cold demand faults fall back to host-mediated direct access — the page
//!   is mapped in place, no migration, no eviction — so demand is *never*
//!   rejected.
//!
//! Victim selection itself lives in [`uvm::EvictionEngine`]; this module is
//! the policy brain that decides *when* to evict and *how hard* to push.
//! With [`OversubConfig::default`] (disabled, capacity treated as infinite)
//! every method is an inert no-op that changes no state, so existing runs
//! stay bit-identical. The control plane draws no randomness at all.

use ptw::GpuId;
use sim_core::checkpoint::StateDigest;
use sim_core::det::DetMap;
use sim_core::{ConfigError, Cycle, Hysteresis, WindowedCount};
use uvm::{EvictPolicy, TrafficClass};

/// Tuning for the oversubscription subsystem. `Default` is **disabled**:
/// capacity is treated as infinite, nothing is ever evicted, and the
/// control plane is bit-identical to a build without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OversubConfig {
    /// Master switch; `false` makes the whole subsystem inert.
    pub enabled: bool,
    /// Per-GPU device-memory capacity in pages; residency beyond this
    /// triggers eviction. Ignored while disabled.
    pub capacity_pages: usize,
    /// Victim-selection policy for the eviction engine.
    pub policy: EvictPolicy,
    /// Windowed refault count at which a GPU's thrash gate engages.
    pub thrash_high: usize,
    /// Windowed refault count at which the gate releases.
    pub thrash_low: usize,
    /// Cycles after an eviction during which a fault on the same page
    /// counts as a refault (the refault-distance window).
    pub refault_window: Cycle,
    /// Hottest resident pages protected from eviction while the thrash
    /// gate is engaged (the pinned working set).
    pub hot_protect: usize,
}

impl Default for OversubConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            capacity_pages: 4096,
            policy: EvictPolicy::Lru,
            thrash_high: 8,
            thrash_low: 2,
            refault_window: 50_000,
            hot_protect: 32,
        }
    }
}

impl OversubConfig {
    /// The default tuning with the master switch on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// The default tuning, on, with a specific per-GPU capacity.
    pub fn with_capacity(capacity_pages: usize) -> Self {
        Self {
            capacity_pages,
            ..Self::enabled()
        }
    }

    /// The `oversub` rules (watermark ordering, positive sizes) of
    /// [`SystemConfig::validate`](crate::SystemConfig::validate), its only caller.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        #[rustfmt::skip]
        let rules = [
            (self.capacity_pages > 0, "oversub", "capacity must be positive"),
            (self.thrash_low <= self.thrash_high, "oversub", "thrash watermarks inverted"),
            (self.refault_window > 0, "oversub", "refault window must be positive"),
        ];
        crate::config::first_broken(&rules)
    }
}

/// Counters the oversubscription subsystem reports through
/// [`RunMetrics`](crate::RunMetrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OversubStats {
    /// Pages evicted to stay under the capacity ceiling.
    pub evictions: u64,
    /// Faults on a page evicted within the refault window.
    pub refaults: u64,
    /// Thrash-gate transitions released → engaged.
    pub thrash_trips: u64,
    /// Victim candidates skipped because they were pinned (PRT-pending or
    /// in-flight-forwarded pages).
    pub pinned_skips: u64,
    /// Capacity-enforcement passes that found no evictable victim and
    /// degraded gracefully instead.
    pub no_victim: u64,
    /// Cold demand faults served by host-mediated direct access instead of
    /// migration while thrashing.
    pub direct_fallbacks: u64,
    /// Background work (prefetch/migration) shed by the thrash gate.
    pub background_shed: u64,
}

/// The oversubscription control plane threaded through
/// [`System`](crate::System).
///
/// Owns the per-GPU thrash gates, refault windows and recently-evicted
/// tracking. When constructed from a disabled [`OversubConfig`] every
/// method is a permissive no-op, so disabled runs stay bit-identical.
#[derive(Debug, Clone)]
pub struct OversubControl {
    cfg: OversubConfig,
    gates: Vec<Hysteresis>,
    refaults: Vec<WindowedCount>,
    /// Per GPU: recently evicted VPN → eviction cycle.
    recently_evicted: Vec<DetMap<u64, Cycle>>,
    /// Counters reported through `RunMetrics::oversub`.
    pub stats: OversubStats,
}

impl OversubControl {
    /// Builds the control plane for `gpus` GPUs from `cfg`.
    pub fn new(cfg: &OversubConfig, gpus: GpuId) -> Self {
        let n = usize::from(gpus);
        Self {
            cfg: cfg.clone(),
            gates: vec![Hysteresis::new(cfg.thrash_high, cfg.thrash_low.min(cfg.thrash_high)); n],
            refaults: vec![WindowedCount::new(cfg.refault_window.max(1)); n],
            recently_evicted: vec![DetMap::new(); n],
            stats: OversubStats::default(),
        }
    }

    /// Whether the subsystem is live (anything observable may happen).
    #[inline]
    pub fn active(&self) -> bool {
        self.cfg.enabled
    }

    /// The per-GPU capacity ceiling in pages.
    pub fn capacity(&self) -> usize {
        self.cfg.capacity_pages
    }

    /// The configured victim-selection policy.
    pub fn policy(&self) -> EvictPolicy {
        self.cfg.policy
    }

    /// How many of the hottest resident pages victim selection must spare
    /// on `gpu` right now: the configured working-set protection while the
    /// thrash gate is engaged, none otherwise.
    pub fn hot_protect(&self, gpu: GpuId) -> usize {
        if self.thrashing(gpu) {
            self.cfg.hot_protect
        } else {
            0
        }
    }

    /// Whether `gpu`'s thrash gate is currently engaged.
    pub fn thrashing(&self, gpu: GpuId) -> bool {
        self.cfg.enabled
            && self
                .gates
                .get(usize::from(gpu))
                .is_some_and(Hysteresis::engaged)
    }

    /// Records a capacity eviction of `vpn` from `gpu` for refault
    /// tracking. (The eviction *count* is credited where the protocol
    /// transition commits, via `ProtocolNote::CapacityEviction`.)
    pub fn note_evicted(&mut self, gpu: GpuId, vpn: u64, now: Cycle) {
        if !self.cfg.enabled {
            return;
        }
        if let Some(m) = self.recently_evicted.get_mut(usize::from(gpu)) {
            m.insert(vpn, now);
        }
    }

    /// Classifies a demand fault on `gpu` for `vpn` at `now` and feeds the
    /// thrash gate. Returns whether it was a refault (the page was evicted
    /// within the refault window).
    pub fn note_fault(&mut self, gpu: GpuId, vpn: u64, now: Cycle) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let g = usize::from(gpu);
        let Some(m) = self.recently_evicted.get_mut(g) else {
            return false;
        };
        let refault = match m.get(&vpn) {
            Some(&evicted_at) => {
                m.remove(&vpn);
                now.saturating_sub(evicted_at) <= self.cfg.refault_window
            }
            None => false,
        };
        if refault {
            self.stats.refaults = self.stats.refaults.saturating_add(1);
            self.refaults[g].record(now);
        }
        let was_engaged = self.gates[g].engaged();
        let engaged = self.gates[g].observe(self.refaults[g].count(now));
        if engaged && !was_engaged {
            self.stats.thrash_trips = self.stats.thrash_trips.saturating_add(1);
        }
        refault
    }

    /// Whether background traffic of `class` destined for `gpu` should be
    /// shed by the thrash gate; counts the drop when it says yes.
    pub fn shed_background(&mut self, gpu: GpuId, class: TrafficClass) -> bool {
        let shed = class.is_background() && self.thrashing(gpu);
        if shed {
            self.stats.background_shed = self.stats.background_shed.saturating_add(1);
        }
        shed
    }

    /// Whether a cold demand fault on `gpu` should be served by
    /// host-mediated direct access instead of migration: the GPU is
    /// thrashing, at capacity, and the page is not part of the refaulting
    /// working set. Counts the fallback when it says yes.
    pub fn prefer_direct_access(
        &mut self,
        gpu: GpuId,
        was_refault: bool,
        at_capacity: bool,
    ) -> bool {
        let fall_back = self.thrashing(gpu) && at_capacity && !was_refault;
        if fall_back {
            self.stats.direct_fallbacks = self.stats.direct_fallbacks.saturating_add(1);
        }
        fall_back
    }

    /// Credits victim candidates skipped because they were pinned.
    pub fn note_pinned_skips(&mut self, n: u64) {
        self.stats.pinned_skips = self.stats.pinned_skips.saturating_add(n);
    }

    /// Credits a capacity-enforcement pass that found no evictable victim.
    pub fn note_no_victim(&mut self) {
        self.stats.no_victim = self.stats.no_victim.saturating_add(1);
    }

    /// `gpu` went offline: its memory is gone, so recently-evicted history
    /// and the thrash window reset with it.
    pub fn on_gpu_offline(&mut self, gpu: GpuId) {
        if !self.cfg.enabled {
            return;
        }
        let g = usize::from(gpu);
        if let Some(m) = self.recently_evicted.get_mut(g) {
            m.clear();
        }
        if let Some(w) = self.refaults.get_mut(g) {
            *w = WindowedCount::new(self.cfg.refault_window.max(1));
        }
        if let Some(gate) = self.gates.get_mut(g) {
            *gate = Hysteresis::new(
                self.cfg.thrash_high,
                self.cfg.thrash_low.min(self.cfg.thrash_high),
            );
        }
    }

    /// A 64-bit digest of the control plane's live state for epoch
    /// checkpoints. Constant across a run while disabled.
    pub fn digest(&self) -> u64 {
        let Self {
            cfg,
            gates,
            refaults,
            recently_evicted,
            stats: _, // accounting, reported through `RunMetrics`
        } = self;
        let mut d = StateDigest::new();
        d.mix(u64::from(cfg.enabled));
        for g in gates {
            d.mix(u64::from(g.engaged()));
        }
        for w in refaults {
            d.mix_all(w.iter());
            d.mix(u64::MAX);
        }
        for m in recently_evicted {
            for (&vpn, &t) in m.iter() {
                d.mix(vpn + 1).mix(t);
            }
            d.mix(u64::MAX);
        }
        d.finish()
    }

    /// Moves the accumulated stats out (for end-of-run metrics merging).
    pub fn take_stats(&mut self) -> OversubStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> OversubConfig {
        OversubConfig::enabled()
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let cfg = OversubConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
        assert!(OversubConfig::enabled().validate().is_ok());
        assert!(OversubConfig::with_capacity(64).validate().is_ok());
    }

    #[test]
    fn disabled_control_is_inert_and_digest_constant() {
        let mut c = OversubControl::new(&OversubConfig::default(), 4);
        let before = c.digest();
        c.note_evicted(1, 5, 100);
        assert!(!c.note_fault(1, 5, 150));
        assert!(!c.thrashing(1));
        assert!(!c.shed_background(1, TrafficClass::Prefetch));
        assert!(!c.prefer_direct_access(1, false, true));
        assert_eq!(c.hot_protect(1), 0);
        c.on_gpu_offline(1);
        assert_eq!(c.digest(), before, "disabled control must not mutate");
        assert_eq!(c.stats, OversubStats::default());
    }

    #[test]
    fn refault_burst_trips_the_gate_and_window_releases_it() {
        let mut cfg = on();
        cfg.thrash_high = 3;
        cfg.thrash_low = 0;
        cfg.refault_window = 100;
        let mut c = OversubControl::new(&cfg, 2);
        // Faults without prior evictions are not refaults.
        assert!(!c.note_fault(0, 1, 10));
        assert_eq!(c.stats.refaults, 0);
        for vpn in [1u64, 2, 3] {
            c.note_evicted(0, vpn, 20);
            assert!(c.note_fault(0, vpn, 30), "evict-then-fault is a refault");
        }
        assert_eq!(c.stats.refaults, 3);
        assert_eq!(c.stats.thrash_trips, 1);
        assert!(c.thrashing(0));
        assert!(!c.thrashing(1), "gates are per GPU");
        assert_eq!(c.hot_protect(0), cfg.hot_protect);
        // The burst ages out of the window: the next fault releases the gate.
        assert!(!c.note_fault(0, 9, 200));
        assert!(!c.thrashing(0));
        assert_eq!(c.stats.thrash_trips, 1, "release is not a trip");
    }

    #[test]
    fn refault_window_expires_old_evictions() {
        let mut cfg = on();
        cfg.refault_window = 50;
        let mut c = OversubControl::new(&cfg, 1);
        c.note_evicted(0, 8, 100);
        assert!(!c.note_fault(0, 8, 200), "past the window: a cold fault");
        assert_eq!(c.stats.refaults, 0);
        // The stale entry was consumed; a repeat fault is still cold.
        assert!(!c.note_fault(0, 8, 201));
    }

    #[test]
    fn shedding_and_direct_fallback_follow_the_gate() {
        let mut cfg = on();
        cfg.thrash_high = 1;
        cfg.thrash_low = 0;
        let mut c = OversubControl::new(&cfg, 2);
        assert!(!c.shed_background(0, TrafficClass::Prefetch));
        assert!(!c.prefer_direct_access(0, false, true));
        c.note_evicted(0, 4, 10);
        assert!(c.note_fault(0, 4, 20));
        assert!(c.thrashing(0));
        assert!(c.shed_background(0, TrafficClass::Prefetch));
        assert!(c.shed_background(0, TrafficClass::Migration));
        assert!(
            !c.shed_background(0, TrafficClass::Demand),
            "demand never sheds"
        );
        assert!(
            !c.shed_background(1, TrafficClass::Prefetch),
            "per-GPU gate"
        );
        assert!(
            c.prefer_direct_access(0, false, true),
            "cold page at capacity"
        );
        assert!(
            !c.prefer_direct_access(0, true, true),
            "refaults still migrate"
        );
        assert!(!c.prefer_direct_access(0, false, false), "below capacity");
        assert_eq!(c.stats.background_shed, 2);
        assert_eq!(c.stats.direct_fallbacks, 1);
    }

    #[test]
    fn offline_resets_per_gpu_tracking() {
        let mut cfg = on();
        cfg.thrash_high = 1;
        cfg.thrash_low = 0;
        let mut c = OversubControl::new(&cfg, 2);
        c.note_evicted(0, 4, 10);
        assert!(c.note_fault(0, 4, 20));
        assert!(c.thrashing(0));
        c.on_gpu_offline(0);
        assert!(!c.thrashing(0));
        c.note_evicted(0, 5, 30);
        c.on_gpu_offline(0);
        assert!(!c.note_fault(0, 5, 31), "history cleared with the GPU");
    }

    #[test]
    fn enabled_digest_tracks_state_changes() {
        let mut c = OversubControl::new(&on(), 2);
        let d0 = c.digest();
        c.note_evicted(0, 4, 10);
        let d1 = c.digest();
        assert_ne!(d0, d1, "eviction history is digest-visible");
        let mut c2 = OversubControl::new(&on(), 2);
        c2.note_evicted(0, 4, 10);
        assert_eq!(c2.digest(), d1, "same history, same digest");
    }
}
