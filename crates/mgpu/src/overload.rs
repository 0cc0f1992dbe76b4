//! Overload control for the translation pipeline: admission gates, retry
//! budgets with deterministic backoff, and per-peer circuit breakers.
//!
//! Faults make individual messages unreliable; *load* makes the whole
//! pipeline unreliable. Without this module a saturated host MMU turns
//! watchdog timeouts into an immediate-retry storm that feeds back into the
//! very queues that caused the timeouts. [`OverloadControl`] breaks that
//! loop with four mechanisms, all deterministic and all inert by default:
//!
//! * **Admission control** — watermark [`Hysteresis`] gates over the
//!   host-MMU walker queue and each GPU's walk queue / MSHR file. While a
//!   gate is engaged, background traffic (prefetch, access-counter
//!   migration — see [`TrafficClass`]) is shed before any demand walk is
//!   touched.
//! * **Retry budgets** — watchdog retries draw from a per-GPU
//!   [`TokenBucket`] refilled by fresh demand traffic, and each granted
//!   retry is delayed by [`ExponentialBackoff`] with jitter from a private
//!   [`SimRng`] stream (never the simulator's main RNG, never wall clock).
//! * **Circuit breakers** — one [`CircuitBreaker`] per remote-forwarding
//!   peer. Repeated forward failures open the breaker; while open, walks
//!   take the reliable host path instead; half-open probes re-close it.
//! * **Priority classes** — [`TrafficClass`] orders what is shed first.
//!
//! With [`OverloadConfig::default`] (disabled) the control plane draws no
//! randomness, pushes no events and perturbs no queues, keeping fault-free
//! runs bit-identical to a build without it. With it enabled, all decisions
//! derive from the seed, so replay and `run_with_restore` stay exact.

use ptw::GpuId;
use sim_core::checkpoint::StateDigest;
use sim_core::stats::Histogram;
use sim_core::{ConfigError, Cycle, ExponentialBackoff, Hysteresis, SimRng, Stream, TokenBucket};
use uvm::TrafficClass;

use crate::request::ReqId;

/// Tuning for the overload-control subsystem. `Default` is **disabled**:
/// every gate permissive, no RNG draws, bit-identical to a build without
/// overload control.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Master switch; `false` makes the whole subsystem inert.
    pub enabled: bool,
    /// Host walker-queue occupancy at which background shedding engages.
    pub host_queue_high: usize,
    /// Host walker-queue occupancy at which shedding releases.
    pub host_queue_low: usize,
    /// Per-GPU walk-queue occupancy at which borrowed remote walks shed.
    pub gpu_queue_high: usize,
    /// Per-GPU walk-queue occupancy at which that gate releases.
    pub gpu_queue_low: usize,
    /// Per-GPU MSHR occupancy at which borrowed remote walks shed.
    pub mshr_high: usize,
    /// Per-GPU MSHR occupancy at which that gate releases.
    pub mshr_low: usize,
    /// First-retry backoff delay in cycles.
    pub backoff_base: Cycle,
    /// Backoff ceiling in cycles.
    pub backoff_cap: Cycle,
    /// Retry tokens a GPU's bucket can hold.
    pub retry_budget: u64,
    /// Milli-tokens credited per fresh demand request (250 = one retry
    /// per four fresh requests, steady-state).
    pub retry_refill_permille: u64,
    /// Samples per breaker failure-rate window.
    pub breaker_window: u32,
    /// Failure rate (permille) that opens a breaker.
    pub breaker_failure_permille: u32,
    /// Minimum windowed samples before the rate is trusted.
    pub breaker_min_samples: u32,
    /// Cycles an open breaker waits before probing.
    pub breaker_open_cycles: Cycle,
    /// Concurrent half-open probe forwards allowed.
    pub breaker_probes: usize,
    /// Host→GPU link backlog (cycles) beyond which forwards are skipped.
    pub peer_backlog_high: Cycle,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            host_queue_high: 48,
            host_queue_low: 12,
            gpu_queue_high: 48,
            gpu_queue_low: 16,
            mshr_high: 192,
            mshr_low: 96,
            backoff_base: 1_000,
            backoff_cap: 32_000,
            retry_budget: 32,
            retry_refill_permille: 250,
            breaker_window: 16,
            breaker_failure_permille: 500,
            breaker_min_samples: 8,
            breaker_open_cycles: 50_000,
            breaker_probes: 2,
            peer_backlog_high: 2_000,
        }
    }
}

impl OverloadConfig {
    /// The default tuning with the master switch on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// The `overload` rules (watermark ordering, rate bounds) of
    /// [`SystemConfig::validate`](crate::SystemConfig::validate), its only caller.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        #[rustfmt::skip]
        let rules = [
            (self.host_queue_low <= self.host_queue_high, "overload", "host queue watermarks inverted"),
            (self.gpu_queue_low <= self.gpu_queue_high, "overload", "gpu queue watermarks inverted"),
            (self.mshr_low <= self.mshr_high, "overload", "MSHR watermarks inverted"),
            (self.backoff_base > 0, "overload", "backoff base must be positive"),
            (self.backoff_cap >= self.backoff_base, "overload", "backoff cap below base"),
            (self.retry_budget > 0, "overload", "retry budget must be positive"),
            (self.retry_refill_permille <= 1000, "overload", "retry refill above 1000 permille defeats the budget"),
            (self.breaker_window > 0, "overload", "breaker window must be positive"),
            (self.breaker_failure_permille <= 1000, "overload", "breaker failure rate is a permille"),
            ((1..=self.breaker_window).contains(&self.breaker_min_samples), "overload",
             "breaker min samples must fit the window"),
            (self.breaker_probes > 0, "overload", "need at least one half-open probe"),
        ];
        crate::config::first_broken(&rules)
    }
}

/// Counters and latency tails the overload subsystem reports through
/// [`RunMetrics`](crate::RunMetrics).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverloadStats {
    /// Prefetch pages dropped by admission control.
    pub prefetch_shed: u64,
    /// Background migrations dropped by admission control.
    pub migration_shed: u64,
    /// Borrowed remote walks refused by an overloaded peer GPU.
    pub remote_walks_shed: u64,
    /// Demand walks that had to wait for host-queue space.
    pub demand_deferred: u64,
    /// Demand walks rejected outright (must stay 0 for graceful
    /// degradation; counted so the bench can prove it).
    pub demand_rejected: u64,
    /// Watchdog retries granted a token and a backoff slot.
    pub retries_budgeted: u64,
    /// Watchdog retries denied for lack of budget (went straight to the
    /// fallback host walk).
    pub retry_tokens_denied: u64,
    /// Total backoff delay inserted before granted retries, in cycles.
    pub backoff_delay_total: u64,
    /// Breaker transitions closed/half-open → open.
    pub breaker_opens: u64,
    /// Breaker transitions open → half-open.
    pub breaker_half_opens: u64,
    /// Breaker transitions half-open → closed.
    pub breaker_closes: u64,
    /// Forwards sent as half-open probes.
    pub breaker_probes: u64,
    /// Forwards suppressed by an open breaker.
    pub breaker_short_circuits: u64,
    /// Probe entries drained because their peer GPU was evicted.
    pub probe_drains: u64,
    /// Forwards skipped because the peer's host→GPU link was backlogged.
    pub forward_skipped_congested: u64,
    /// Demand-walk completion latency distribution (recorded only while
    /// overload control is enabled).
    pub demand_lat: Histogram,
}

impl OverloadStats {
    /// Background work shed (prefetch + migration + borrowed remote walks).
    pub fn background_shed(&self) -> u64 {
        self.prefetch_shed
            .saturating_add(self.migration_shed)
            .saturating_add(self.remote_walks_shed)
    }

    /// Everything shed, deferred or rejected across all classes.
    pub fn total_shed(&self) -> u64 {
        self.background_shed()
            .saturating_add(self.demand_deferred)
            .saturating_add(self.demand_rejected)
    }
}

/// What the control plane says about a proposed forward to a remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Forward normally.
    Forward,
    /// Forward, and track the request as a half-open breaker probe.
    Probe,
    /// Do not forward; let the reliable host walk serve the request.
    Skip,
}

/// Verdict on a watchdog retry request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retry after `delay` cycles of jittered backoff.
    Retry {
        /// Cycles to wait before re-sending the fault to the host.
        delay: Cycle,
    },
    /// Budget exhausted: skip remaining retries, go to the fallback walk.
    Exhausted,
}

/// Circuit-breaker state: the classic three-state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BreakerState {
    /// Forwarding normally, watching the failure rate.
    Closed,
    /// Forwarding suppressed until `until`.
    Open {
        /// Cycle at which the breaker moves to half-open.
        until: Cycle,
    },
    /// Letting a bounded number of probes through.
    HalfOpen,
}

/// A per-peer circuit breaker over remote-forwarding outcomes.
///
/// Closed → (failure rate over threshold) → Open → (cooldown elapses,
/// evaluated lazily at the next forward attempt) → HalfOpen → (probe
/// succeeds) → Closed, or (probe fails) → Open again. No timer events are
/// scheduled: state advances when the forwarding path consults it, so the
/// event stream is untouched when nothing forwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    state: BreakerState,
    successes: u32,
    failures: u32,
    probes: Vec<ReqId>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self {
            state: BreakerState::Closed,
            successes: 0,
            failures: 0,
            probes: Vec::new(),
        }
    }
}

impl CircuitBreaker {
    /// Whether the breaker currently suppresses forwarding (open and still
    /// cooling down as of `now`).
    pub fn is_open(&self, now: Cycle) -> bool {
        matches!(self.state, BreakerState::Open { until } if now < until)
    }

    /// Outstanding half-open probe requests.
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }

    fn decide(
        &mut self,
        now: Cycle,
        req: ReqId,
        cfg: &OverloadConfig,
        stats: &mut OverloadStats,
    ) -> ForwardDecision {
        if let BreakerState::Open { until } = self.state {
            if now < until {
                stats.breaker_short_circuits = stats.breaker_short_circuits.saturating_add(1);
                return ForwardDecision::Skip;
            }
            self.state = BreakerState::HalfOpen;
            stats.breaker_half_opens = stats.breaker_half_opens.saturating_add(1);
        }
        match self.state {
            BreakerState::Closed => ForwardDecision::Forward,
            BreakerState::HalfOpen => {
                if self.probes.len() < cfg.breaker_probes {
                    self.probes.push(req);
                    stats.breaker_probes = stats.breaker_probes.saturating_add(1);
                    ForwardDecision::Probe
                } else {
                    stats.breaker_short_circuits = stats.breaker_short_circuits.saturating_add(1);
                    ForwardDecision::Skip
                }
            }
            BreakerState::Open { .. } => unreachable!("open handled above"),
        }
    }

    fn record(
        &mut self,
        now: Cycle,
        req: ReqId,
        success: bool,
        cfg: &OverloadConfig,
        stats: &mut OverloadStats,
    ) {
        match self.state {
            BreakerState::Closed => {
                if success {
                    self.successes += 1;
                } else {
                    self.failures += 1;
                }
                let samples = self.successes + self.failures;
                if samples >= cfg.breaker_min_samples
                    && u64::from(self.failures) * 1000
                        >= u64::from(cfg.breaker_failure_permille) * u64::from(samples)
                {
                    self.trip(now, cfg, stats);
                } else if samples >= cfg.breaker_window {
                    // Decay the window so ancient history cannot pin the rate.
                    self.successes /= 2;
                    self.failures /= 2;
                }
            }
            BreakerState::HalfOpen => {
                let Some(pos) = self.probes.iter().position(|&p| p == req) else {
                    // A straggler from before the trip; not probe evidence.
                    return;
                };
                self.probes.swap_remove(pos);
                if success {
                    self.state = BreakerState::Closed;
                    self.successes = 0;
                    self.failures = 0;
                    self.probes.clear();
                    stats.breaker_closes = stats.breaker_closes.saturating_add(1);
                } else {
                    self.trip(now, cfg, stats);
                }
            }
            // Late outcomes while cooling down carry no new information.
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: Cycle, cfg: &OverloadConfig, stats: &mut OverloadStats) {
        self.state = BreakerState::Open {
            until: now + cfg.breaker_open_cycles,
        };
        self.successes = 0;
        self.failures = 0;
        self.probes.clear();
        stats.breaker_opens = stats.breaker_opens.saturating_add(1);
    }

    /// The peer was evicted: drain the probe queue (those forwards can
    /// never be answered) and hold the breaker open for a full cooldown so
    /// a rejoining GPU is probed, not flooded. Returns the drained probes.
    fn drain_for_offline(
        &mut self,
        now: Cycle,
        cfg: &OverloadConfig,
        stats: &mut OverloadStats,
    ) -> Vec<ReqId> {
        let drained = std::mem::take(&mut self.probes);
        stats.probe_drains = stats.probe_drains.saturating_add(drained.len() as u64);
        if !matches!(self.state, BreakerState::Open { .. }) {
            stats.breaker_opens = stats.breaker_opens.saturating_add(1);
        }
        self.state = BreakerState::Open {
            until: now + cfg.breaker_open_cycles,
        };
        self.successes = 0;
        self.failures = 0;
        drained
    }

    fn digest_into(&self, d: &mut StateDigest) {
        let Self {
            state,
            successes,
            failures,
            probes,
        } = self;
        match *state {
            BreakerState::Closed => d.mix(1),
            BreakerState::Open { until } => d.mix(2).mix(until),
            BreakerState::HalfOpen => d.mix(3),
        };
        d.mix(u64::from(*successes))
            .mix(u64::from(*failures))
            .mix_all(probes.iter().map(|&r| r as u64));
    }
}

/// The overload-control plane threaded through [`System`](crate::System).
///
/// Owns a private RNG stream (jitter), the per-GPU retry buckets, the
/// admission gates and the per-peer breakers. When constructed from a
/// disabled [`OverloadConfig`] every method is a permissive no-op that
/// draws no randomness, so disabled runs stay bit-identical.
#[derive(Debug, Clone)]
pub struct OverloadControl {
    cfg: OverloadConfig,
    rng: SimRng,
    backoff: ExponentialBackoff,
    retry: Vec<TokenBucket>,
    host_gate: Hysteresis,
    gpu_queue_gates: Vec<Hysteresis>,
    mshr_gates: Vec<Hysteresis>,
    breakers: Vec<CircuitBreaker>,
    /// Counters reported through `RunMetrics::overload`.
    pub stats: OverloadStats,
}

impl OverloadControl {
    /// Builds the control plane for `gpus` GPUs from `cfg`, deriving its
    /// private RNG stream from the simulation `seed`.
    pub fn new(cfg: &OverloadConfig, gpus: GpuId, seed: u64) -> Self {
        let n = usize::from(gpus);
        Self {
            cfg: cfg.clone(),
            rng: SimRng::stream(seed, Stream::Overload, 0),
            backoff: ExponentialBackoff::new(
                cfg.backoff_base.max(1),
                cfg.backoff_cap.max(cfg.backoff_base.max(1)),
            ),
            retry: vec![
                TokenBucket::new(
                    cfg.retry_budget.max(1),
                    cfg.retry_refill_permille.min(1000)
                );
                n
            ],
            host_gate: Hysteresis::new(
                cfg.host_queue_high,
                cfg.host_queue_low.min(cfg.host_queue_high),
            ),
            gpu_queue_gates: vec![
                Hysteresis::new(
                    cfg.gpu_queue_high,
                    cfg.gpu_queue_low.min(cfg.gpu_queue_high)
                );
                n
            ],
            mshr_gates: vec![Hysteresis::new(cfg.mshr_high, cfg.mshr_low.min(cfg.mshr_high)); n],
            breakers: vec![CircuitBreaker::default(); n],
            stats: OverloadStats::default(),
        }
    }

    /// Whether the subsystem is live (anything observable may happen).
    #[inline]
    pub fn active(&self) -> bool {
        self.cfg.enabled
    }

    /// A fresh demand translation arrived on `gpu`: fund its retry bucket.
    pub fn on_fresh_demand(&mut self, gpu: GpuId) {
        if !self.cfg.enabled {
            return;
        }
        if let Some(b) = self.retry.get_mut(usize::from(gpu)) {
            b.refill();
        }
    }

    /// Asks for a watchdog retry slot for `gpu`'s request on retry
    /// `attempt`. Callers must only invoke this when [`active`](Self::active).
    pub fn retry_decision(&mut self, gpu: GpuId, attempt: u32) -> RetryDecision {
        let granted = self
            .retry
            .get_mut(usize::from(gpu))
            .is_some_and(TokenBucket::try_take);
        if granted {
            let delay = self.backoff.delay(attempt, &mut self.rng);
            self.stats.retries_budgeted = self.stats.retries_budgeted.saturating_add(1);
            self.stats.backoff_delay_total = self.stats.backoff_delay_total.saturating_add(delay);
            RetryDecision::Retry { delay }
        } else {
            self.stats.retry_tokens_denied = self.stats.retry_tokens_denied.saturating_add(1);
            RetryDecision::Exhausted
        }
    }

    /// Feeds the host walker-queue occupancy to the admission gate;
    /// returns whether background shedding is engaged afterwards.
    pub fn observe_host(&mut self, occupancy: usize) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        self.host_gate.observe(occupancy)
    }

    /// Whether background traffic of `class` should be shed right now.
    /// Demand is never shed here; callers count the drop themselves via
    /// the public [`stats`](Self::stats).
    pub fn shed_background(&self, class: TrafficClass) -> bool {
        self.cfg.enabled && class.is_background() && self.host_gate.engaged()
    }

    /// Feeds `gpu`'s walk-queue and MSHR occupancy to its admission gates;
    /// returns whether the GPU should refuse borrowed remote walks.
    pub fn gpu_overloaded(&mut self, gpu: GpuId, queue_occ: usize, mshr_occ: usize) -> bool {
        if !self.cfg.enabled {
            return false;
        }
        let g = usize::from(gpu);
        let q = self
            .gpu_queue_gates
            .get_mut(g)
            .is_some_and(|h| h.observe(queue_occ));
        let m = self
            .mshr_gates
            .get_mut(g)
            .is_some_and(|h| h.observe(mshr_occ));
        q || m
    }

    /// Rules on forwarding `req` to peer `owner` given the current backlog
    /// on the host→owner link.
    pub fn forward_decision(
        &mut self,
        now: Cycle,
        owner: GpuId,
        req: ReqId,
        down_backlog: Cycle,
    ) -> ForwardDecision {
        if !self.cfg.enabled {
            return ForwardDecision::Forward;
        }
        if down_backlog > self.cfg.peer_backlog_high {
            self.stats.forward_skipped_congested =
                self.stats.forward_skipped_congested.saturating_add(1);
            return ForwardDecision::Skip;
        }
        match self.breakers.get_mut(usize::from(owner)) {
            Some(b) => b.decide(now, req, &self.cfg, &mut self.stats),
            None => ForwardDecision::Forward,
        }
    }

    /// Records the outcome of a forward of `req` to `owner`.
    pub fn record_forward_outcome(&mut self, now: Cycle, owner: GpuId, req: ReqId, success: bool) {
        if !self.cfg.enabled {
            return;
        }
        if let Some(b) = self.breakers.get_mut(usize::from(owner)) {
            b.record(now, req, success, &self.cfg, &mut self.stats);
        }
    }

    /// Peer `gpu` went offline/was evicted: drain its breaker's probe
    /// queue and hold the breaker open. Returns the drained probe reqs
    /// (their forwards are already doomed; recovery handles the requests).
    pub fn on_gpu_offline(&mut self, now: Cycle, gpu: GpuId) -> Vec<ReqId> {
        if !self.cfg.enabled {
            return Vec::new();
        }
        match self.breakers.get_mut(usize::from(gpu)) {
            Some(b) => b.drain_for_offline(now, &self.cfg, &mut self.stats),
            None => Vec::new(),
        }
    }

    /// Read access to peer `gpu`'s breaker (tests, diagnostics).
    pub fn breaker(&self, gpu: GpuId) -> Option<&CircuitBreaker> {
        self.breakers.get(usize::from(gpu))
    }

    /// Records one demand-walk completion latency (enabled runs only, so
    /// disabled metrics stay exactly at `Default`).
    pub fn note_demand_latency(&mut self, lat: Cycle) {
        if !self.cfg.enabled {
            return;
        }
        self.stats.demand_lat.record(lat);
    }

    /// A 64-bit digest of the control plane's live state for epoch
    /// checkpoints. Constant across a run while disabled.
    pub fn digest(&self) -> u64 {
        let Self {
            cfg,
            rng,
            backoff: _, // a pure schedule of the config: no live state
            retry,
            host_gate,
            gpu_queue_gates,
            mshr_gates,
            breakers,
            stats: _, // accounting, reported through `RunMetrics`
        } = self;
        let mut d = StateDigest::new();
        d.mix(u64::from(cfg.enabled));
        d.mix(rng.state_digest());
        d.mix(u64::from(host_gate.engaged()));
        for b in retry {
            d.mix(b.level_milli());
        }
        for g in gpu_queue_gates {
            d.mix(u64::from(g.engaged()));
        }
        for g in mshr_gates {
            d.mix(u64::from(g.engaged()));
        }
        for b in breakers {
            b.digest_into(&mut d);
        }
        d.finish()
    }

    /// Moves the accumulated stats out (for end-of-run metrics merging).
    pub fn take_stats(&mut self) -> OverloadStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> OverloadConfig {
        OverloadConfig::enabled()
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let cfg = OverloadConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
        assert!(OverloadConfig::enabled().validate().is_ok());
    }

    #[test]
    fn disabled_control_is_inert_and_digest_constant() {
        let mut c = OverloadControl::new(&OverloadConfig::default(), 4, 7);
        let before = c.digest();
        c.on_fresh_demand(2);
        assert!(!c.observe_host(10_000));
        assert!(!c.shed_background(TrafficClass::Prefetch));
        assert!(!c.gpu_overloaded(1, 10_000, 10_000));
        assert_eq!(
            c.forward_decision(5, 1, 9, 1 << 40),
            ForwardDecision::Forward
        );
        c.record_forward_outcome(5, 1, 9, false);
        c.note_demand_latency(123);
        assert!(c.on_gpu_offline(5, 1).is_empty());
        assert_eq!(c.digest(), before, "disabled control must not mutate");
        assert_eq!(c.stats, OverloadStats::default());
    }

    #[test]
    fn retry_budget_denies_once_drained() {
        let mut cfg = on();
        cfg.retry_budget = 2;
        cfg.retry_refill_permille = 0;
        let mut c = OverloadControl::new(&cfg, 2, 1);
        assert!(matches!(
            c.retry_decision(0, 0),
            RetryDecision::Retry { .. }
        ));
        assert!(matches!(
            c.retry_decision(0, 1),
            RetryDecision::Retry { .. }
        ));
        assert_eq!(c.retry_decision(0, 2), RetryDecision::Exhausted);
        assert_eq!(c.stats.retries_budgeted, 2);
        assert_eq!(c.stats.retry_tokens_denied, 1);
        assert!(c.stats.backoff_delay_total >= 1_000, "two jittered delays");
        // The other GPU's bucket is untouched.
        assert!(matches!(
            c.retry_decision(1, 0),
            RetryDecision::Retry { .. }
        ));
    }

    #[test]
    fn fresh_demand_refunds_the_bucket() {
        let mut cfg = on();
        cfg.retry_budget = 1;
        cfg.retry_refill_permille = 500;
        let mut c = OverloadControl::new(&cfg, 1, 3);
        assert!(matches!(
            c.retry_decision(0, 0),
            RetryDecision::Retry { .. }
        ));
        assert_eq!(c.retry_decision(0, 1), RetryDecision::Exhausted);
        c.on_fresh_demand(0);
        c.on_fresh_demand(0);
        assert!(matches!(
            c.retry_decision(0, 1),
            RetryDecision::Retry { .. }
        ));
    }

    #[test]
    fn backoff_delays_grow_with_attempt_on_average() {
        let cfg = on();
        let mut c = OverloadControl::new(&cfg, 1, 11);
        let mut last_raw_floor = 0;
        for attempt in 0..5 {
            c.on_fresh_demand(0);
            c.on_fresh_demand(0);
            c.on_fresh_demand(0);
            c.on_fresh_demand(0);
            match c.retry_decision(0, attempt) {
                RetryDecision::Retry { delay } => {
                    let raw = cfg.backoff_base << attempt;
                    assert!(delay >= raw / 2 && delay <= raw.min(cfg.backoff_cap));
                    assert!(raw / 2 >= last_raw_floor);
                    last_raw_floor = raw / 2;
                }
                RetryDecision::Exhausted => panic!("budget should last 5 attempts"),
            }
        }
    }

    #[test]
    fn breaker_opens_after_failure_rate_and_reprobes() {
        let mut cfg = on();
        cfg.breaker_min_samples = 4;
        cfg.breaker_failure_permille = 500;
        cfg.breaker_open_cycles = 100;
        cfg.breaker_probes = 1;
        let mut c = OverloadControl::new(&cfg, 2, 5);
        // Four straight failures trip the breaker.
        for req in 0..4 {
            assert_eq!(c.forward_decision(0, 1, req, 0), ForwardDecision::Forward);
            c.record_forward_outcome(0, 1, req, false);
        }
        assert_eq!(c.stats.breaker_opens, 1);
        assert_eq!(c.forward_decision(10, 1, 4, 0), ForwardDecision::Skip);
        assert_eq!(c.stats.breaker_short_circuits, 1);
        // Cooldown elapses: next attempt is a probe; a second is refused.
        assert_eq!(c.forward_decision(150, 1, 5, 0), ForwardDecision::Probe);
        assert_eq!(c.stats.breaker_half_opens, 1);
        assert_eq!(c.forward_decision(151, 1, 6, 0), ForwardDecision::Skip);
        // Probe succeeds: breaker closes and traffic flows again.
        c.record_forward_outcome(160, 1, 5, true);
        assert_eq!(c.stats.breaker_closes, 1);
        assert_eq!(c.forward_decision(170, 1, 7, 0), ForwardDecision::Forward);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let mut cfg = on();
        cfg.breaker_min_samples = 2;
        cfg.breaker_open_cycles = 100;
        let mut c = OverloadControl::new(&cfg, 1, 5);
        for req in 0..2 {
            c.forward_decision(0, 0, req, 0);
            c.record_forward_outcome(0, 0, req, false);
        }
        assert_eq!(c.forward_decision(200, 0, 2, 0), ForwardDecision::Probe);
        c.record_forward_outcome(210, 0, 2, false);
        assert_eq!(c.stats.breaker_opens, 2);
        assert_eq!(c.forward_decision(220, 0, 3, 0), ForwardDecision::Skip);
    }

    #[test]
    fn offline_peer_drains_probe_queue_and_holds_open() {
        // The recovery interaction: evicting a GPU whose breaker is
        // half-open must drain its probe queue and re-open the breaker.
        let mut cfg = on();
        cfg.breaker_min_samples = 2;
        cfg.breaker_open_cycles = 100;
        cfg.breaker_probes = 2;
        let mut c = OverloadControl::new(&cfg, 2, 5);
        for req in 0..2 {
            c.forward_decision(0, 1, req, 0);
            c.record_forward_outcome(0, 1, req, false);
        }
        assert_eq!(c.forward_decision(200, 1, 7, 0), ForwardDecision::Probe);
        assert_eq!(c.forward_decision(201, 1, 8, 0), ForwardDecision::Probe);
        assert_eq!(c.breaker(1).map(CircuitBreaker::probe_count), Some(2));
        let drained = c.on_gpu_offline(250, 1);
        assert_eq!(drained, vec![7, 8]);
        assert_eq!(c.stats.probe_drains, 2);
        assert_eq!(c.breaker(1).map(CircuitBreaker::probe_count), Some(0));
        assert!(c.breaker(1).is_some_and(|b| b.is_open(251)));
        // Late probe replies after the drain are ignored, not double-counted.
        let closes_before = c.stats.breaker_closes;
        c.record_forward_outcome(260, 1, 7, true);
        assert_eq!(c.stats.breaker_closes, closes_before);
        assert_eq!(c.forward_decision(260, 1, 9, 0), ForwardDecision::Skip);
    }

    #[test]
    fn congested_downlink_skips_forwarding() {
        let mut cfg = on();
        cfg.peer_backlog_high = 100;
        let mut c = OverloadControl::new(&cfg, 2, 5);
        assert_eq!(c.forward_decision(0, 1, 0, 101), ForwardDecision::Skip);
        assert_eq!(c.stats.forward_skipped_congested, 1);
        assert_eq!(c.forward_decision(0, 1, 0, 100), ForwardDecision::Forward);
    }

    #[test]
    fn admission_gates_shed_background_only() {
        let mut cfg = on();
        cfg.host_queue_high = 4;
        cfg.host_queue_low = 1;
        let mut c = OverloadControl::new(&cfg, 1, 5);
        assert!(!c.shed_background(TrafficClass::Prefetch));
        assert!(c.observe_host(4));
        assert!(c.shed_background(TrafficClass::Prefetch));
        assert!(c.shed_background(TrafficClass::Migration));
        assert!(
            !c.shed_background(TrafficClass::Demand),
            "demand never sheds"
        );
        assert!(c.observe_host(2), "hysteresis holds between watermarks");
        assert!(!c.observe_host(1));
        assert!(!c.shed_background(TrafficClass::Prefetch));
    }

    #[test]
    fn gpu_gate_combines_queue_and_mshr_pressure() {
        let mut cfg = on();
        cfg.gpu_queue_high = 8;
        cfg.gpu_queue_low = 2;
        cfg.mshr_high = 16;
        cfg.mshr_low = 4;
        let mut c = OverloadControl::new(&cfg, 2, 5);
        assert!(!c.gpu_overloaded(0, 7, 15));
        assert!(c.gpu_overloaded(0, 8, 0), "queue alone engages");
        assert!(c.gpu_overloaded(0, 0, 16), "MSHR alone keeps it engaged");
        assert!(!c.gpu_overloaded(0, 2, 4), "both released at low");
        assert!(!c.gpu_overloaded(1, 0, 0), "other GPU independent");
    }

    #[test]
    fn enabled_digest_tracks_state_changes() {
        let mut c = OverloadControl::new(&on(), 2, 7);
        let d0 = c.digest();
        assert!(matches!(
            c.retry_decision(0, 0),
            RetryDecision::Retry { .. }
        ));
        let d1 = c.digest();
        assert_ne!(d0, d1, "a granted retry moves RNG and bucket state");
        // Two controls with the same seed and history agree.
        let mut c2 = OverloadControl::new(&on(), 2, 7);
        assert!(matches!(
            c2.retry_decision(0, 0),
            RetryDecision::Retry { .. }
        ));
        assert_eq!(c2.digest(), d1);
    }
}
