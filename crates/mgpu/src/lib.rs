//! Event-driven multi-GPU address-translation simulator.
//!
//! This crate assembles the substrates (`tlb`, `ptw`, `interconnect`, `uvm`,
//! `transfw`) into the full system of Fig. 1 of the Trans-FW paper:
//!
//! ```text
//!  GPU i: CUs -> L1 TLB -> L2 TLB+MSHR -> [PRT] -> GMMU {PW-queue, PW-cache,
//!          walkers, local page table} --far fault--> interconnect -->
//!  host MMU {TLB || FT, PW-queue, PW-cache, walkers, centralised PT}
//!          --> page migration --> reply/replay
//! ```
//!
//! Compute is modelled at wavefront granularity: each CU runs a pool of
//! wavefronts that alternate compute delay and coalesced memory accesses, so
//! translation latency is naturally (partially) hidden by thread-level
//! parallelism, exactly the effect that makes AES/FIR insensitive to fault
//! latency (§V-A).
//!
//! # Examples
//!
//! ```
//! use mgpu::{System, SystemConfig};
//! use mgpu::workload::{Access, AccessStream, Workload};
//!
//! // A trivial workload: 4 CTAs, each touching 16 sequential pages.
//! #[derive(Debug)]
//! struct Seq;
//! impl Workload for Seq {
//!     fn name(&self) -> &str { "seq" }
//!     fn footprint_pages(&self) -> u64 { 64 }
//!     fn cta_count(&self) -> usize { 4 }
//!     fn make_stream(&self, cta: usize, _seed: u64) -> Box<dyn AccessStream> {
//!         let base = cta as u64 * 16;
//!         Box::new((0..16).map(move |i| Access::read(base + i, 20))
//!             .collect::<Vec<_>>().into_iter())
//!     }
//! }
//!
//! let cfg = SystemConfig::builder().gpus(2).cus_per_gpu(4).build();
//! let metrics = System::new(cfg).run(&Seq).unwrap();
//! assert!(metrics.total_cycles > 0);
//! assert_eq!(metrics.mem_instructions, 64);
//! ```

// A panic in sim code aborts a run mid-flight, and a wildcard arm would
// swallow a new enum variant at a protocol handler (DESIGN.md, "Static
// analysis & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::wildcard_enum_match_arm)]
#![warn(clippy::match_wildcard_for_single_variants)]

pub mod config;
pub mod gmmu;
pub mod host;
pub mod metrics;
pub mod overload;
pub mod oversub;
pub mod placement;
pub mod protocol;
pub mod recovery;
pub mod request;
pub mod sanitize;
pub mod system;
#[cfg(test)]
mod system_tests;
pub mod workload;

pub use config::{
    FarFaultMode, IdealKnobs, PwcKind, SystemConfig, SystemConfigBuilder, TransFwKnobs,
    WatchdogConfig, MAX_GPUS,
};
pub use metrics::{
    LatencyBreakdown, PlacementStats, RecoveryStats, ResilienceStats, RunMetrics, SharingProfile,
};
pub use overload::{OverloadConfig, OverloadControl, OverloadStats};
pub use oversub::{OversubConfig, OversubControl, OversubStats};
pub use protocol::{ProtocolNote, ProtocolTables};
pub use recovery::{run_with_restore, RestoreOutcome};
pub use sim_core::{
    CheckpointLog, ComponentEvent, ConfigError, EpochCheckpoint, FaultPlan, SimError,
};
pub use system::System;
