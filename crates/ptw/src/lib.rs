//! Page-table walking machinery for the GMMU and host MMU.
//!
//! This crate provides everything inside the "GMMU" and "host MMU" boxes of
//! Fig. 1 except the TLBs:
//!
//! * [`PageTable`] — a 4- or 5-level radix page table with per-level node
//!   tracking, so a walk knows exactly how many memory accesses it performs
//!   (100 cycles each in the paper's configuration) and where a failed walk
//!   for a non-resident page stops.
//! * [`PwCache`] — the page-walk cache in its three organisations: the
//!   **Unified Translation Cache** (the paper's default: one array mixing
//!   entries of all levels, longest-prefix match), the **Split Translation
//!   Cache** (§V-C: one array per level) and an infinite cache (Fig. 4).
//! * [`cached_walk`] — the walk step both MMUs take: PW-cache lookup, table
//!   walk from the deepest cached level, ASAP overlap, and the levels to
//!   refill when the walk completes.
//! * [`PwQueue`] / [`WalkerPool`] — the page-walk queue and the multi-
//!   threaded walker model (8 GMMU / 16 host MMU threads in Table II).
//! * [`Asap`] — the ASAP address-translation prefetcher used as a
//!   comparator in §V-H.
//!
//! # Examples
//!
//! ```
//! use ptw::{PageTable, Location, Pte};
//!
//! let mut pt = PageTable::new(5);
//! pt.insert(0x1234, Pte::new(0xabcd, Location::Gpu(0)));
//! let walk = pt.walk(0x1234, None);
//! assert_eq!(walk.accesses, 5); // cold walk touches all 5 levels
//! assert!(walk.pte.is_some());
//! ```

// A panic in sim code aborts a run mid-flight (DESIGN.md, "Static analysis
// & determinism contract").
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod asap;
pub mod pwc;
pub mod queue;
pub mod table;

pub use asap::Asap;
pub use pwc::{cached_walk, CachedWalk, PwCache, PwCacheStats, Utc};
pub use queue::{PwQueue, WalkerPool};
pub use table::{GpuId, Location, PageTable, Pte, WalkResult};

/// Bits of virtual page number consumed per radix level.
///
/// Real 5-level x86 paging uses 9 bits (512-entry tables); this model uses
/// 6 so that the ratio of PW-cache *reach* to application footprint at
/// simulation scale matches the paper's regime (their workloads exceed the
/// 128-entry cache's multi-GB reach; scaled footprints would otherwise be
/// fully covered and every walk would take a single access). Documented in
/// DESIGN.md as a substitution.
pub const BITS_PER_LEVEL: u32 = 6;
