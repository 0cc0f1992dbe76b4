//! Page-migration latency events.
//!
//! The placement-policy engine (the `uvm::policy` subsystem) moves pages
//! between memories; each move occupies the inter-GPU fabric and adds
//! latency to the faulting request. This module records those moves as
//! typed events so experiments can attribute time to migration, replication,
//! write-collapse and prefetch traffic separately — the breakdown behind
//! the policy-sweep figures.

use crate::stats::LatencyAccumulator;
use crate::Cycle;

/// What kind of page movement an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationKind {
    /// A far fault migrated the page into the faulting GPU.
    FaultMigrate,
    /// A read fault created an additional replica.
    Replicate,
    /// A write collapsed a replicated page back to a single owner.
    Collapse,
    /// An access-counter promotion moved a remote-mapped page off the
    /// critical path.
    Background,
    /// The prefetch policy pulled a neighbouring cold page in alongside a
    /// demand migration.
    Prefetch,
}

impl MigrationKind {
    /// Short lowercase label for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            MigrationKind::FaultMigrate => "fault-migrate",
            MigrationKind::Replicate => "replicate",
            MigrationKind::Collapse => "collapse",
            MigrationKind::Background => "background",
            MigrationKind::Prefetch => "prefetch",
        }
    }
}

/// One page movement: what moved, where, and how long the fabric took.
///
/// Sources and destinations are GPU ids; `None` stands for the CPU backing
/// memory (this crate sits below the memory-system crates and cannot name
/// their `Location` type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationEvent {
    /// The virtual page that moved.
    pub vpn: u64,
    /// Where the data came from (`None` = host memory).
    pub src: Option<u16>,
    /// The GPU that received the page.
    pub dst: u16,
    /// Cycle the movement was issued.
    pub issued: Cycle,
    /// Cycle the movement completed on the fabric.
    pub completed: Cycle,
    /// The kind of movement.
    pub kind: MigrationKind,
}

impl MigrationEvent {
    /// Fabric cycles the movement occupied.
    pub fn latency(&self) -> Cycle {
        self.completed.saturating_sub(self.issued)
    }
}

/// A bounded log of migration events plus an unbounded latency accumulator.
///
/// The log keeps the first `cap` events verbatim (enough for tests and
/// debugging dumps) and counts the rest, so long soaks cannot grow memory
/// without bound while the latency statistics stay exact over every event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationLog {
    events: Vec<MigrationEvent>,
    cap: usize,
    dropped: u64,
    latency: LatencyAccumulator,
}

impl MigrationLog {
    /// Default retained-event cap.
    pub const DEFAULT_CAP: usize = 4096;

    /// A log retaining up to [`DEFAULT_CAP`](Self::DEFAULT_CAP) events.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }

    /// A log retaining up to `cap` events verbatim.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            cap,
            dropped: 0,
            latency: LatencyAccumulator::default(),
        }
    }

    /// Records one movement.
    pub fn record(&mut self, event: MigrationEvent) {
        self.latency.record(event.latency());
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in record order.
    pub fn events(&self) -> &[MigrationEvent] {
        &self.events
    }

    /// Events recorded beyond the retention cap (still counted in the
    /// latency statistics).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total movements recorded.
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Latency statistics over *every* recorded movement.
    pub fn latency(&self) -> LatencyAccumulator {
        self.latency
    }

    /// Movements of one kind among the retained events.
    pub fn count_retained(&self, kind: MigrationKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vpn: u64, issued: Cycle, completed: Cycle, kind: MigrationKind) -> MigrationEvent {
        MigrationEvent {
            vpn,
            src: None,
            dst: 0,
            issued,
            completed,
            kind,
        }
    }

    #[test]
    fn latency_is_completion_minus_issue() {
        let e = ev(1, 100, 340, MigrationKind::FaultMigrate);
        assert_eq!(e.latency(), 240);
        let degenerate = ev(1, 100, 90, MigrationKind::Prefetch);
        assert_eq!(degenerate.latency(), 0, "clock skew saturates at zero");
    }

    #[test]
    fn log_retains_up_to_cap_and_counts_the_rest() {
        let mut log = MigrationLog::with_capacity(2);
        for i in 0..5u64 {
            log.record(ev(i, 0, 10, MigrationKind::Replicate));
        }
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.total(), 5);
        assert_eq!(
            log.latency().count(),
            5,
            "latency stats cover dropped events"
        );
        assert_eq!(log.latency().mean(), 10.0);
    }

    #[test]
    fn count_retained_filters_by_kind() {
        let mut log = MigrationLog::new();
        log.record(ev(1, 0, 5, MigrationKind::FaultMigrate));
        log.record(ev(2, 0, 5, MigrationKind::Prefetch));
        log.record(ev(3, 0, 5, MigrationKind::Prefetch));
        assert_eq!(log.count_retained(MigrationKind::Prefetch), 2);
        assert_eq!(log.count_retained(MigrationKind::Collapse), 0);
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(MigrationKind::FaultMigrate.label(), "fault-migrate");
        assert_eq!(MigrationKind::Background.label(), "background");
    }
}
