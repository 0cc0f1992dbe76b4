//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] declares *what* can go wrong — interconnect message
//! drops/delays/duplication, page-walker stalls, stale PRT/FT filter
//! entries, host-MMU overload bursts — and a [`FaultInjector`] turns the
//! plan into concrete, reproducible decisions. The injector owns its own
//! [`SimRng`] stream (derived from the plan's seed, independent of the
//! simulator's RNG), so enabling a plan never perturbs the fault-free
//! random sequence and two runs with the same plan make identical
//! decisions.
//!
//! An empty ([`FaultPlan::none`]) plan makes the injector inert: it draws
//! no random numbers and injects nothing, which is what keeps fault-free
//! runs bit-identical to a build without the resilience layer.

use crate::{ConfigError, Cycle, SimRng, Stream};

/// A scheduled component-level failure: unlike the probabilistic message
/// and walker faults, these fire at a declared cycle and (for the windowed
/// kinds) heal after a declared duration, so a recovery protocol can be
/// exercised deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentEvent {
    /// GPU `gpu` drops off the fabric at `at_cycle` and rejoins after
    /// `duration` cycles. Its in-flight walks must be drained or re-issued,
    /// FT entries keyed to it invalidated, page ownership migrated to
    /// survivors, and its PRT flushed; on rejoin the PRT is rebuilt from
    /// the directory.
    GpuOffline {
        /// Index of the failing GPU.
        gpu: usize,
        /// Cycle at which the GPU goes offline.
        at_cycle: Cycle,
        /// Cycles until it rejoins (must be positive: a GPU that never
        /// rejoins would strand the compute work deferred to its rejoin).
        duration: Cycle,
    },
    /// The direct peer link between GPUs `a` and `b` is severed for the
    /// window `[at_cycle, at_cycle + duration)`; traffic between them must
    /// be rerouted via the reliable host path.
    LinkPartition {
        /// One endpoint of the partitioned link.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// Cycle at which the partition starts.
        at_cycle: Cycle,
        /// Length of the partition window (0 = permanent).
        duration: Cycle,
    },
    /// The host MMU stops dispatching walks for `stall` cycles starting at
    /// `at_cycle` (failover to a standby walker complex); arrivals keep
    /// queueing under the bounded admission control of the PW-queue.
    HostMmuFailover {
        /// Cycle at which the host MMU stalls.
        at_cycle: Cycle,
        /// Length of the stall.
        stall: Cycle,
    },
}

impl ComponentEvent {
    /// Cycle at which the event fires.
    pub fn at_cycle(&self) -> Cycle {
        match *self {
            ComponentEvent::GpuOffline { at_cycle, .. }
            | ComponentEvent::LinkPartition { at_cycle, .. }
            | ComponentEvent::HostMmuFailover { at_cycle, .. } => at_cycle,
        }
    }
}

/// Declarative description of the faults to inject into one run.
///
/// All probabilities are per-decision in `[0, 1]`; the default plan is
/// all-zero (no faults).
///
/// # Examples
///
/// ```
/// use sim_core::fault::{FaultPlan, FaultInjector, MessageFate};
///
/// let plan = FaultPlan { message_drop_prob: 1.0, ..FaultPlan::none() };
/// let mut inj = FaultInjector::new(plan);
/// assert!(inj.active());
/// assert_eq!(inj.message_fate(), MessageFate::Drop);
/// assert_eq!(inj.stats().messages_dropped, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's private RNG stream.
    pub seed: u64,
    /// Probability a protocol message is silently dropped in the fabric.
    pub message_drop_prob: f64,
    /// Probability a protocol message is delayed by [`Self::message_delay_cycles`].
    pub message_delay_prob: f64,
    /// Extra latency applied to delayed messages.
    pub message_delay_cycles: Cycle,
    /// Probability a protocol message is delivered twice.
    pub message_duplicate_prob: f64,
    /// Probability a page-table walk stalls for [`Self::walker_stall_cycles`]
    /// extra cycles (DRAM contention, ECC retries).
    pub walker_stall_prob: f64,
    /// Extra walk latency on a stall.
    pub walker_stall_cycles: Cycle,
    /// Probability a PRT/FT maintenance update (page arrival/departure,
    /// owner change) is lost, leaving a stale filter entry.
    pub table_update_drop_prob: f64,
    /// Garbage fingerprints pre-inserted into each PRT and the FT before
    /// the run: models stale entries accumulated before this run's window
    /// and, when large, pushes the tables past their cells.
    pub table_pollution: usize,
    /// Host-MMU overload bursts: period of the burst cycle (0 disables).
    pub host_burst_period: Cycle,
    /// Length of the overloaded window at the start of each period.
    pub host_burst_len: Cycle,
    /// Extra host-walk latency while inside a burst window.
    pub host_burst_extra: Cycle,
    /// Scheduled component-level failures (GPU offline, link partition,
    /// host-MMU failover). Empty by default.
    pub component_events: Vec<ComponentEvent>,
}

impl FaultPlan {
    /// The empty plan: inject nothing.
    pub fn none() -> Self {
        Self {
            seed: 0xFA_07,
            message_drop_prob: 0.0,
            message_delay_prob: 0.0,
            message_delay_cycles: 0,
            message_duplicate_prob: 0.0,
            walker_stall_prob: 0.0,
            walker_stall_cycles: 0,
            table_update_drop_prob: 0.0,
            table_pollution: 0,
            host_burst_period: 0,
            host_burst_len: 0,
            host_burst_extra: 0,
            component_events: Vec::new(),
        }
    }

    /// A plan whose only faults are the given scheduled component events.
    pub fn components(events: Vec<ComponentEvent>) -> Self {
        Self {
            component_events: events,
            ..Self::none()
        }
    }

    /// A plan that drops `p` of protocol messages (the acceptance scenario:
    /// `FaultPlan::message_loss(seed, 0.01)` loses 1% of remote-lookup and
    /// forwarding traffic).
    pub fn message_loss(seed: u64, p: f64) -> Self {
        Self {
            seed,
            message_drop_prob: p,
            ..Self::none()
        }
    }

    /// A general interconnect-chaos plan: drop, delay and duplicate.
    pub fn message_chaos(seed: u64, p: f64, delay_cycles: Cycle) -> Self {
        Self {
            seed,
            message_drop_prob: p,
            message_delay_prob: p,
            message_delay_cycles: delay_cycles,
            message_duplicate_prob: p,
            ..Self::none()
        }
    }

    /// Whether any fault can ever be injected under this plan.
    pub fn is_active(&self) -> bool {
        self.message_drop_prob > 0.0
            || self.message_delay_prob > 0.0
            || self.message_duplicate_prob > 0.0
            || self.walker_stall_prob > 0.0
            || self.table_update_drop_prob > 0.0
            || self.table_pollution > 0
            || (self.host_burst_period > 0 && self.host_burst_len > 0 && self.host_burst_extra > 0)
            || !self.component_events.is_empty()
    }

    /// Whether the plan perturbs the PRT/FT filters themselves (stale
    /// entries or pollution) — consumers relax filter-accuracy invariants
    /// when this holds.
    pub fn perturbs_tables(&self) -> bool {
        self.table_update_drop_prob > 0.0 || self.table_pollution > 0
    }

    /// Validates the plan's probabilities and burst geometry.
    ///
    /// # Errors
    ///
    /// The first broken rule, as an error on the `faults` field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let broken = |msg: String| Err(ConfigError::new("faults", msg));
        for (name, p) in [
            ("message_drop_prob", self.message_drop_prob),
            ("message_delay_prob", self.message_delay_prob),
            ("message_duplicate_prob", self.message_duplicate_prob),
            ("walker_stall_prob", self.walker_stall_prob),
            ("table_update_drop_prob", self.table_update_drop_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return broken(format!("{name} = {p} not in [0, 1]"));
            }
        }
        if self.host_burst_period > 0 && self.host_burst_len > self.host_burst_period {
            return broken(format!(
                "host_burst_len {} exceeds host_burst_period {}",
                self.host_burst_len, self.host_burst_period
            ));
        }
        for ev in &self.component_events {
            match *ev {
                ComponentEvent::LinkPartition { a, b, .. } if a == b => {
                    return broken(format!(
                        "link partition endpoints must differ (got {a}=={b})"
                    ));
                }
                ComponentEvent::GpuOffline {
                    gpu, duration: 0, ..
                } => {
                    return broken(format!(
                        "GPU {gpu} offline duration must be positive (it must rejoin)"
                    ));
                }
                ComponentEvent::GpuOffline { .. }
                | ComponentEvent::LinkPartition { .. }
                | ComponentEvent::HostMmuFailover { .. } => {}
            }
        }
        Ok(())
    }

    /// Validates component-event GPU indices against the system's GPU count
    /// (a separate pass because the plan itself does not know the topology).
    ///
    /// # Errors
    ///
    /// The first event naming a GPU outside `0..gpu_count`, on `faults`.
    pub fn validate_topology(&self, gpu_count: usize) -> Result<(), ConfigError> {
        let broken = |msg: String| Err(ConfigError::new("faults", msg));
        for ev in &self.component_events {
            let bad = match *ev {
                ComponentEvent::GpuOffline { gpu, .. } => (gpu >= gpu_count).then_some(gpu),
                ComponentEvent::LinkPartition { a, b, .. } => {
                    [a, b].into_iter().find(|&g| g >= gpu_count)
                }
                ComponentEvent::HostMmuFailover { .. } => None,
            };
            if let Some(g) = bad {
                return broken(format!(
                    "component event references GPU {g} but the system has {gpu_count} GPU(s)"
                ));
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// What the injector decided to do with one protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver after the given extra delay.
    Delay(Cycle),
    /// Deliver twice (both copies on time).
    Duplicate,
}

/// Counts of faults actually injected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectStats {
    /// Protocol messages dropped.
    pub messages_dropped: u64,
    /// Protocol messages delayed.
    pub messages_delayed: u64,
    /// Protocol messages duplicated.
    pub messages_duplicated: u64,
    /// Page-table walks stalled.
    pub walker_stalls: u64,
    /// PRT/FT maintenance updates lost.
    pub table_updates_dropped: u64,
    /// Host walks slowed by an overload burst.
    pub host_burst_walks: u64,
}

impl InjectStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.messages_dropped
            .saturating_add(self.messages_delayed)
            .saturating_add(self.messages_duplicated)
            .saturating_add(self.walker_stalls)
            .saturating_add(self.table_updates_dropped)
            .saturating_add(self.host_burst_walks)
    }
}

/// Deterministic fault source driven by a [`FaultPlan`].
///
/// Each decision consumes randomness from a private stream seeded only by
/// the plan, so the same plan yields the same fault schedule regardless of
/// what the simulated system does with its own RNG.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    active: bool,
    rng: SimRng,
    stats: InjectStats,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let active = plan.is_active();
        let rng = SimRng::stream(plan.seed, Stream::Fault, 0);
        Self {
            plan,
            active,
            rng,
            stats: InjectStats::default(),
        }
    }

    /// Whether any fault can ever be injected (false for the empty plan —
    /// in that case no decision consumes randomness).
    pub fn active(&self) -> bool {
        self.active
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn stats(&self) -> InjectStats {
        self.stats
    }

    /// Decides the fate of one protocol message.
    pub fn message_fate(&mut self) -> MessageFate {
        if !self.active {
            return MessageFate::Deliver;
        }
        let x = self.rng.gen_f64();
        let p_drop = self.plan.message_drop_prob;
        let p_delay = p_drop + self.plan.message_delay_prob;
        let p_dup = p_delay + self.plan.message_duplicate_prob;
        if x < p_drop {
            self.stats.messages_dropped = self.stats.messages_dropped.saturating_add(1);
            MessageFate::Drop
        } else if x < p_delay {
            self.stats.messages_delayed = self.stats.messages_delayed.saturating_add(1);
            MessageFate::Delay(self.plan.message_delay_cycles)
        } else if x < p_dup {
            self.stats.messages_duplicated = self.stats.messages_duplicated.saturating_add(1);
            MessageFate::Duplicate
        } else {
            MessageFate::Deliver
        }
    }

    /// Extra cycles a page-table walk stalls (0 = no stall).
    pub fn walker_stall(&mut self) -> Cycle {
        if self.active
            && self.plan.walker_stall_prob > 0.0
            && self.rng.chance(self.plan.walker_stall_prob)
        {
            self.stats.walker_stalls = self.stats.walker_stalls.saturating_add(1);
            self.plan.walker_stall_cycles
        } else {
            0
        }
    }

    /// Whether to lose one PRT/FT maintenance update (stale-entry fault).
    pub fn drop_table_update(&mut self) -> bool {
        if self.active
            && self.plan.table_update_drop_prob > 0.0
            && self.rng.chance(self.plan.table_update_drop_prob)
        {
            self.stats.table_updates_dropped = self.stats.table_updates_dropped.saturating_add(1);
            true
        } else {
            false
        }
    }

    /// Extra host-walk latency if `now` falls inside an overload burst.
    pub fn host_burst_penalty(&mut self, now: Cycle) -> Cycle {
        let p = self.plan.host_burst_period;
        if self.active
            && p > 0
            && now % p < self.plan.host_burst_len
            && self.plan.host_burst_extra > 0
        {
            self.stats.host_burst_walks = self.stats.host_burst_walks.saturating_add(1);
            self.plan.host_burst_extra
        } else {
            0
        }
    }

    /// Deterministic garbage keys to pre-insert into a filter (the
    /// `table_pollution` fault). Keys are drawn high above any realistic
    /// workload footprint so they collide with real pages only through
    /// fingerprint aliasing — exactly the stale-entry behaviour under test.
    pub fn pollution_keys(&mut self) -> Vec<u64> {
        let n = self.plan.table_pollution;
        (0..n)
            .map(|_| (1 << 44) + self.rng.gen_range(1 << 40))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.active());
        let rng_before = format!("{:?}", inj.rng);
        for _ in 0..100 {
            assert_eq!(inj.message_fate(), MessageFate::Deliver);
            assert_eq!(inj.walker_stall(), 0);
            assert!(!inj.drop_table_update());
            assert_eq!(inj.host_burst_penalty(12345), 0);
        }
        assert_eq!(inj.stats(), InjectStats::default());
        assert_eq!(
            format!("{:?}", inj.rng),
            rng_before,
            "inert injector draws no randomness"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::message_chaos(99, 0.2, 500);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        for _ in 0..1000 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().total() > 0);
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let mut inj = FaultInjector::new(FaultPlan::message_loss(7, 0.1));
        let n = 100_000;
        let dropped = (0..n)
            .filter(|_| inj.message_fate() == MessageFate::Drop)
            .count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.1).abs() < 0.01, "drop rate {rate}");
        assert_eq!(inj.stats().messages_dropped, dropped as u64);
    }

    #[test]
    fn fates_partition_probability_mass() {
        let plan = FaultPlan::message_chaos(3, 0.25, 100);
        let mut inj = FaultInjector::new(plan);
        let mut counts = [0u64; 4];
        for _ in 0..40_000 {
            match inj.message_fate() {
                MessageFate::Deliver => counts[0] += 1,
                MessageFate::Drop => counts[1] += 1,
                MessageFate::Delay(c) => {
                    assert_eq!(c, 100);
                    counts[2] += 1;
                }
                MessageFate::Duplicate => counts[3] += 1,
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / 40_000.0;
            assert!((rate - 0.25).abs() < 0.02, "fate {i} rate {rate}");
        }
    }

    #[test]
    fn walker_stalls_and_table_drops_fire() {
        let plan = FaultPlan {
            walker_stall_prob: 0.5,
            walker_stall_cycles: 200,
            table_update_drop_prob: 0.5,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        let stalls = (0..1000).filter(|_| inj.walker_stall() == 200).count();
        let drops = (0..1000).filter(|_| inj.drop_table_update()).count();
        assert!((400..600).contains(&stalls), "{stalls}");
        assert!((400..600).contains(&drops), "{drops}");
    }

    #[test]
    fn burst_windows_are_periodic() {
        let plan = FaultPlan {
            host_burst_period: 1000,
            host_burst_len: 100,
            host_burst_extra: 50,
            ..FaultPlan::none()
        };
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.host_burst_penalty(0), 50);
        assert_eq!(inj.host_burst_penalty(99), 50);
        assert_eq!(inj.host_burst_penalty(100), 0);
        assert_eq!(inj.host_burst_penalty(1005), 50);
        assert_eq!(inj.stats().host_burst_walks, 3);
    }

    #[test]
    fn pollution_keys_are_deterministic_and_high() {
        let plan = FaultPlan {
            table_pollution: 32,
            ..FaultPlan::none()
        };
        let a = FaultInjector::new(plan.clone()).pollution_keys();
        let b = FaultInjector::new(plan).pollution_keys();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|&k| k >= 1 << 44));
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let plan = FaultPlan {
            message_drop_prob: 1.5,
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        let plan = FaultPlan {
            host_burst_period: 10,
            host_burst_len: 20,
            host_burst_extra: 1,
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::message_loss(1, 0.01).validate().is_ok());
    }

    #[test]
    fn is_active_covers_every_knob() {
        assert!(!FaultPlan::none().is_active());
        assert!(FaultPlan {
            message_delay_prob: 0.1,
            ..FaultPlan::none()
        }
        .is_active());
        assert!(FaultPlan {
            table_pollution: 1,
            ..FaultPlan::none()
        }
        .is_active());
        let burst = FaultPlan {
            host_burst_period: 10,
            host_burst_len: 2,
            host_burst_extra: 5,
            ..FaultPlan::none()
        };
        assert!(burst.is_active());
        assert!(burst.validate().is_ok());
        assert!(!burst.perturbs_tables());
        assert!(FaultPlan {
            table_update_drop_prob: 0.1,
            ..FaultPlan::none()
        }
        .perturbs_tables());
    }

    #[test]
    fn component_events_activate_but_do_not_perturb_tables() {
        let plan = FaultPlan::components(vec![ComponentEvent::GpuOffline {
            gpu: 1,
            at_cycle: 500,
            duration: 2000,
        }]);
        assert!(plan.is_active());
        assert!(
            !plan.perturbs_tables(),
            "recovery must leave tables coherent"
        );
        assert!(plan.validate().is_ok());
        assert_eq!(plan.component_events[0].at_cycle(), 500);
    }

    #[test]
    fn component_event_validation() {
        let degenerate = FaultPlan::components(vec![ComponentEvent::LinkPartition {
            a: 2,
            b: 2,
            at_cycle: 0,
            duration: 10,
        }]);
        assert!(degenerate.validate().is_err());

        let immortal = FaultPlan::components(vec![ComponentEvent::GpuOffline {
            gpu: 0,
            at_cycle: 5,
            duration: 0,
        }]);
        assert!(immortal.validate().is_err(), "offline GPUs must rejoin");

        let plan = FaultPlan::components(vec![
            ComponentEvent::GpuOffline {
                gpu: 3,
                at_cycle: 0,
                duration: 10,
            },
            ComponentEvent::HostMmuFailover {
                at_cycle: 5,
                stall: 100,
            },
        ]);
        assert!(plan.validate().is_ok());
        assert!(plan.validate_topology(4).is_ok());
        assert!(
            plan.validate_topology(3).is_err(),
            "GPU 3 out of range for 3 GPUs"
        );

        let part = FaultPlan::components(vec![ComponentEvent::LinkPartition {
            a: 0,
            b: 5,
            at_cycle: 0,
            duration: 10,
        }]);
        assert!(part.validate_topology(4).is_err());
        assert!(part.validate_topology(6).is_ok());
    }
}
