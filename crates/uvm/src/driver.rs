//! The software UVM-driver far-fault handler (§II-B).
//!
//! Far faults land in a per-GPU fault buffer; the GMMU alerts the driver,
//! which fetches and caches the fault descriptors on the host and processes
//! them in batches of 256. Each batch pays a fixed wake-up/fetch overhead
//! plus a per-fault cost (centralised-table walk, data-transfer kickoff and
//! GPU page-table update), divided over the driver's walk threads. The
//! driver is a single serialised context — this is what makes the software
//! path scale poorly as GPUs are added (Fig. 2a).

use std::collections::VecDeque;

use sim_core::{Cycle, SimError, StateDigest};

/// Tunable costs of the software fault path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Faults processed per batch (256 in the open NVIDIA driver).
    pub batch_size: usize,
    /// Fixed per-batch overhead: interrupt, wake-up, buffer fetch.
    pub batch_overhead: Cycle,
    /// Per-fault processing cost (walk + PTE updates), before threading.
    pub per_fault_cost: Cycle,
    /// Driver page-walk threads sharing a batch's per-fault work.
    pub walk_threads: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            batch_size: 256,
            batch_overhead: 2_000,
            per_fault_cost: 400,
            walk_threads: 16,
        }
    }
}

/// A batch the driver has started processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverBatch<F> {
    /// Fault descriptors in arrival order.
    pub faults: Vec<F>,
    /// Absolute completion time of the whole batch.
    pub done_at: Cycle,
}

/// The UVM driver's fault intake and batch scheduler.
///
/// # Examples
///
/// ```
/// use uvm::{UvmDriver, DriverConfig};
///
/// let mut drv: UvmDriver<u32> = UvmDriver::new(DriverConfig::default());
/// drv.submit(7, 100);
/// let batch = drv.try_start_batch(100).expect("driver idle, work pending");
/// assert_eq!(batch.faults, vec![7]);
/// assert!(batch.done_at > 100);
/// drv.finish_batch(batch.done_at).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct UvmDriver<F> {
    config: DriverConfig,
    pending: VecDeque<F>,
    busy: bool,
    batches: u64,
    faults: u64,
    busy_cycles: u64,
    peak_pending: usize,
}

impl<F> UvmDriver<F> {
    /// Creates an idle driver.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` or `walk_threads` is zero.
    pub fn new(config: DriverConfig) -> Self {
        assert!(config.batch_size > 0, "batch_size must be positive");
        assert!(config.walk_threads > 0, "walk_threads must be positive");
        Self {
            config,
            pending: VecDeque::new(),
            busy: false,
            batches: 0,
            faults: 0,
            busy_cycles: 0,
            peak_pending: 0,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> DriverConfig {
        self.config
    }

    /// Queues one fault descriptor (the GMMU alert + fetch are part of the
    /// batch overhead).
    pub fn submit(&mut self, fault: F, _now: Cycle) {
        self.pending.push_back(fault);
        self.peak_pending = self.peak_pending.max(self.pending.len());
    }

    /// If the driver is idle and faults are pending, starts a batch and
    /// returns it; the caller schedules the completion event at `done_at`
    /// and must call [`finish_batch`](Self::finish_batch) then.
    pub fn try_start_batch(&mut self, now: Cycle) -> Option<DriverBatch<F>> {
        if self.busy || self.pending.is_empty() {
            return None;
        }
        let n = self.pending.len().min(self.config.batch_size);
        let faults: Vec<F> = self.pending.drain(..n).collect();
        let work =
            (n as u64).div_ceil(self.config.walk_threads as u64) * self.config.per_fault_cost;
        let duration = self.config.batch_overhead + work;
        self.busy = true;
        self.batches += 1;
        self.faults = self.faults.saturating_add(n as u64);
        self.busy_cycles += duration;
        Some(DriverBatch {
            faults,
            done_at: now + duration,
        })
    }

    /// Marks the in-flight batch complete; the driver may immediately start
    /// the next one via [`try_start_batch`](Self::try_start_batch).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] if no batch is in flight — a
    /// duplicated or spurious batch-completion event must not corrupt the
    /// driver's serialisation state.
    pub fn finish_batch(&mut self, now: Cycle) -> Result<(), SimError> {
        if !self.busy {
            return Err(SimError::Protocol {
                cycle: now,
                what: "finish_batch without a batch in flight".into(),
            });
        }
        self.busy = false;
        Ok(())
    }

    /// Whether a batch is currently processing.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Faults waiting for a batch.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Batches processed.
    pub fn batch_count(&self) -> u64 {
        self.batches
    }

    /// Faults processed.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Total cycles spent processing batches.
    pub fn busy_cycle_count(&self) -> u64 {
        self.busy_cycles
    }

    /// Largest fault backlog observed.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// A 64-bit digest of the driver's state — configuration, backlog
    /// depth, busy flag and the batch/fault counters — for epoch
    /// checkpoints. The `pending` queue's *contents* are digested by the
    /// caller, which knows how to hash `F`; here only its shape is mixed.
    pub fn state_digest(&self) -> u64 {
        let Self {
            config,
            pending,
            busy,
            batches,
            faults,
            busy_cycles,
            peak_pending,
        } = self;
        let mut d = StateDigest::new();
        d.mix(config.batch_size as u64)
            .mix(config.walk_threads as u64)
            .mix(config.batch_overhead)
            .mix(pending.len() as u64)
            .mix(u64::from(*busy))
            .mix(*batches)
            .mix(*faults)
            .mix(*busy_cycles)
            .mix(*peak_pending as u64);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DriverConfig {
        DriverConfig {
            batch_size: 4,
            batch_overhead: 100,
            per_fault_cost: 10,
            walk_threads: 2,
        }
    }

    #[test]
    fn batch_respects_size_limit() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        for i in 0..10 {
            d.submit(i, 0);
        }
        let b = d.try_start_batch(0).unwrap();
        assert_eq!(b.faults, vec![0, 1, 2, 3]);
        assert_eq!(d.pending_len(), 6);
    }

    #[test]
    fn batch_cost_model() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        for i in 0..4 {
            d.submit(i, 0);
        }
        // 4 faults / 2 threads = 2 rounds x 10 + 100 overhead = 120.
        let b = d.try_start_batch(1000).unwrap();
        assert_eq!(b.done_at, 1120);
    }

    #[test]
    fn driver_serialises_batches() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        for i in 0..8 {
            d.submit(i, 0);
        }
        let b1 = d.try_start_batch(0).unwrap();
        assert!(d.try_start_batch(10).is_none(), "busy driver refuses");
        d.finish_batch(b1.done_at).unwrap();
        let b2 = d.try_start_batch(b1.done_at).unwrap();
        assert_eq!(b2.faults, vec![4, 5, 6, 7]);
        assert_eq!(d.batch_count(), 2);
        assert_eq!(d.fault_count(), 8);
    }

    #[test]
    fn idle_empty_driver_starts_nothing() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        assert!(d.try_start_batch(0).is_none());
    }

    #[test]
    fn partial_batch_starts_immediately() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        d.submit(9, 0);
        let b = d.try_start_batch(0).unwrap();
        assert_eq!(b.faults, vec![9]);
        // 1 fault / 2 threads rounds up to one round.
        assert_eq!(b.done_at, 110);
    }

    #[test]
    fn finish_without_start_is_a_protocol_error() {
        let err = UvmDriver::<u32>::new(cfg()).finish_batch(0).unwrap_err();
        assert!(matches!(err, SimError::Protocol { .. }), "{err}");
        assert!(err.to_string().contains("without a batch"));
    }

    #[test]
    fn spurious_finish_does_not_corrupt_serialisation() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        d.submit(1, 0);
        let b = d.try_start_batch(0).unwrap();
        assert!(d.finish_batch(b.done_at).is_ok());
        // A duplicated completion event reports an error but leaves the
        // driver consistent and able to start new batches.
        assert!(d.finish_batch(b.done_at + 1).is_err());
        d.submit(2, b.done_at + 2);
        assert!(d.try_start_batch(b.done_at + 2).is_some());
    }

    #[test]
    fn peak_pending_tracks_backlog() {
        let mut d: UvmDriver<u32> = UvmDriver::new(cfg());
        for i in 0..7 {
            d.submit(i, 0);
        }
        let b = d.try_start_batch(0).unwrap();
        drop(b);
        assert_eq!(d.peak_pending(), 7);
    }
}
