//! Deterministic discrete-event simulation kernel.
//!
//! This crate provides the building blocks shared by every simulated
//! component in the Trans-FW reproduction:
//!
//! * [`Cycle`] — simulation time, measured in GPU core cycles.
//! * [`EventQueue`] — a stable (FIFO-on-tie) calendar-queue event calendar.
//! * [`SimRng`] — a small, fast, seedable PRNG (xoshiro256**) so every
//!   simulation run is reproducible from a single `u64` seed.
//! * [`stats`] — mean accumulators and power-of-two histograms used for
//!   the paper's latency-breakdown figures.
//!
//! Simulator state that is iterated uses `std::collections::BTreeMap` and
//! `BTreeSet`, whose key order is the same on every run; `clippy.toml`
//! bans `HashMap`/`HashSet`, whose iteration order is per-process random.
//!
//! # Examples
//!
//! ```
//! use sim_core::{EventQueue, Cycle};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.push(10, Ev::Pong);
//! q.push(5, Ev::Ping);
//! assert_eq!(q.pop(), Some((5, Ev::Ping)));
//! assert_eq!(q.pop(), Some((10, Ev::Pong)));
//! assert!(q.is_empty());
//! ```

// A panic in sim code aborts a run mid-flight, and a wildcard arm would
// swallow a new enum variant at a protocol handler (DESIGN.md, "Static
// analysis & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![warn(clippy::wildcard_enum_match_arm)]
#![warn(clippy::match_wildcard_for_single_variants)]

pub mod checkpoint;
pub mod counterexample;
pub mod error;
pub mod fault;
pub mod overload;
pub mod queue;
pub mod rng;
pub mod stats;

pub use checkpoint::{CheckpointLog, EpochCheckpoint, StateDigest};
pub use counterexample::Counterexample;
pub use error::{ConfigError, SimError};
pub use fault::{ComponentEvent, FaultInjector, FaultPlan, InjectStats, MessageFate};
pub use overload::{ExponentialBackoff, Hysteresis, TokenBucket, WindowedCount};
pub use queue::EventQueue;
pub use rng::{SimRng, Stream};

/// `BTreeSet` under the name of the wrapper it replaced, kept because
/// `perfbench/src/replay.rs` imports it. Simulator code names
/// `std::collections::BTreeSet` directly.
pub use std::collections::BTreeSet as DetSet;

/// Simulation time in cycles.
///
/// All component latencies in the simulator (TLB lookups, page-table memory
/// accesses, interconnect hops) are expressed in this unit; the baseline
/// clock is the 1.0 GHz CU clock from Table II of the paper.
pub type Cycle = u64;
